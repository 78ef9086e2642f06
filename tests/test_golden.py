"""Seeded CLI output pinned by its sha256.

Each digest is the stdout of the command as captured before excursion
decompositions were shared between repeated excursions, or, for the samplers,
``reconstruct`` and the explicit partition series, before the slot-count rule,
the profile recursion, the excursion layout and the diagram memo each moved
to one place, or, for the JSON documents of ``evolve``, ``reconstruct``,
``params`` and ``verify bijections``, before they were written without
``json.dumps(doc, indent=2)``, or, for the Bernoulli and Markov partition
series, before path counts beyond float range were weighed in logs; a change
to how the calculus is computed or printed must leave every byte of these
outputs alone.  ``reconstruct`` reads the ``decompose`` document of the same
line on stdin.

``geometric-explicit-level-2`` and ``independence-markov`` were recaptured
when chi-square p-values moved from scipy's ``chdtrc`` to the standard-library
finite sum ``stats._chi2_sf``: their documents are unchanged but for the last
bits of ``p_value`` (within 3e-15 relative).

Nine goldens were recaptured when every sampler moved from numpy's
generator, in 16 seed-spawned chunks for Palm samples, to one
``random.Random(seed)`` drawn through ``random()``: ``geometric-bernoulli``,
``geometric-explicit-level-2``, ``independence-markov``,
``sample-json-bernoulli``, ``sample-json-markov``,
``sample-json-bernoulli-near-critical``, ``sample-json-markov-near-critical``,
``sample-explicit`` and ``sample-anti-palm-markov``.  ``shift`` was not: its
document reports only the number of failures, which does not depend on the
draws.

``sample-anti-palm-markov`` was recaptured again when the anti-Palm window
came to draw its excursions from the family's Palm sampler, for a chain its
walk, and no longer from the diagram sampler of its slot fill.

``sample-anti-palm-explicit``, ``sample-anti-palm-bernoulli`` and
``t-invariance-markov`` pin the window's other routes (the diagram sampler of
an explicit fill, the walk of a Bernoulli chain, and the window that ``verify
t-invariance`` evolves and tests); they were captured before the window came
to be drawn in one loop over whole Palm batches and laid out without its
records.

``sample-anti-palm-markov``, ``sample-anti-palm-bernoulli`` and
``t-invariance-markov`` were recaptured when the stationary window of a
chain came to be drawn exactly from its carrier chain (``line.chain_window``:
the load and box at box 0 from their stationary law, the time reversal
walked left to a record, the chain walked right), and no longer by capped
rejection from Palm batches; ``sample-anti-palm-explicit`` was not, since
explicit weights kept that window.

``sample-anti-palm-explicit`` was recaptured when the stationary window of
explicit weights came to be drawn exactly too: its origin block is a Palm
excursion size-biased by its length through the slot counts
(``measures.size_biased_excursion``), and no longer one accepted by capped
rejection from Palm batches.

``params-json-markov``, ``partition-bernoulli`` and ``partition-markov``
were recaptured when a chain's slot parameters came to be computed from
their closed form, and no longer by the recursion on its weights, with the
truncation chosen from that form: each fill keeps one level more (25 at
lambda = 1/4, 39 for the chain), every q_k past q_1 moves in its last bits,
and Z comes closer to its exact value (1.3333333333329835 against 4/3,
1.249999999999621 against 5/4).  Of ``params`` the new level and Z, beta0,
kappa and lambda move; of ``verify partition`` only ``closed`` and ``gap``.
"""

import hashlib

import pytest
from click.testing import CliRunner

from boxball.cli import main

FIG_EXCURSION = "1110110010110000"
# repeated excursions, the empty one among them
LINE = "0".join(["10", "1100", "10", FIG_EXCURSION, "", "1100", "10", FIG_EXCURSION, "", "",
                 "10", "110100"])

GOLDEN = {
    "geometric-bernoulli": (
        ["verify", "geometric", "--measure", "bernoulli", "--lambda", "0.25",
         "--excursions", "4000", "--seed", "5"],
        "22eb23b600587633ceb47cb930154c91a0d2cd87d7c3e67e7836389ba01a0099",
    ),
    "geometric-explicit-level-2": (
        ["verify", "geometric", "--measure", "explicit", "--alpha", "0.2,0.1,0.05",
         "--level", "2", "--excursions", "4000", "--seed", "5"],
        "d57f3b062a8454d4696971d1149383dc5569732a08ca6966f201fa6e4ba516c2",
    ),
    "independence-markov": (
        ["verify", "independence", "--measure", "markov", "--Q", "[[0.8,0.2],[0.6,0.4]]",
         "--excursions", "4000", "--seed", "5"],
        "9d9f62bd21a91fdaef008607571765135fa5383780211d1ed5ad20194b265bab",
    ),
    "shift": (
        ["verify", "shift", "--configs", "40", "--max-boxes", "60", "--seed", "5"],
        "48266d4fd02979353fe8db616dc481ff596e2496031f39549fe8e943c27cbd33",
    ),
    "decompose-json": (
        ["decompose", LINE],
        "276c926ccefc8b84b1f3193d009d2a7f6d9c0b3bc9f8e76a083413cafcf344be",
    ),
    "decompose-text-origin-3": (
        ["decompose", "--format", "text", "--origin", "3", LINE],
        "c5f81d4e5b4279614ae772c0c27a1a796b11d2b98fb28bde7f6d959a13d2d5c5",
    ),
    "render": (
        ["render", "--no-color", LINE],
        "162490ffb4bf71d576d451dc02851b5b8386c426d36317020ca9e5aa24095de5",
    ),
    "reconstruct": (
        ["reconstruct", "-"],
        "1bd455a4ab5afa2416df215fb611489fb1c44abad17aa498f3933fb29200d4e7",
    ),
    "sample-json-bernoulli": (
        ["sample", "--measure", "bernoulli", "--lambda", "0.25",
         "--excursions", "2000", "--seed", "5", "--format", "json"],
        "4d2c70b14395c537f08009c6516b0cd51a6ccb9caedc3ccd1dc48137204ded7e",
    ),
    "sample-json-markov": (
        ["sample", "--measure", "markov", "--Q", "[[0.8,0.2],[0.6,0.4]]",
         "--excursions", "2000", "--seed", "5", "--format", "json"],
        "ddf8a3bc4a03eb6b46f1c928d2a2d05bae30dcf49479768e61aaa2ed259a0661",
    ),
    # near-critical walks: the chain runs over several batches and carries a
    # partial excursion from one batch into the next
    "sample-json-bernoulli-near-critical": (
        ["sample", "--lambda", "0.49", "--excursions", "1000", "--seed", "5", "--format", "json"],
        "9dcd232193dd75d77a0bbb3efd3598b43cd6b34130349bc9f75b1ae651af12d5",
    ),
    "sample-json-markov-near-critical": (
        ["sample", "--measure", "markov", "--Q", "[[0.55,0.45],[0.46,0.54]]",
         "--excursions", "2000", "--seed", "5", "--format", "json"],
        "9ccec17abea750a56fb034c08215e3c4a580fa9697ad59973d94b9dd1b530747",
    ),
    "sample-explicit": (
        ["sample", "--measure", "explicit", "--alpha", "0.2,0.1,0.05",
         "--excursions", "3000", "--seed", "5"],
        "99cb18c943aa9879d186f67466f2f3a813012d3fca3f62334537ae9952a93c88",
    ),
    "sample-anti-palm-markov": (
        ["sample", "--anti-palm", "--measure", "markov", "--Q", "[[0.8,0.2],[0.6,0.4]]",
         "--boxes", "3000", "--seed", "5"],
        "6abe37f514111145424af570d6041191413c5803864cd5a460b446d44dcdcf8d",
    ),
    "sample-anti-palm-explicit": (
        ["sample", "--anti-palm", "--measure", "explicit", "--alpha", "0.2,0.1,0.05",
         "--boxes", "3000", "--seed", "5"],
        "bdd87ff8f31a06cf53f3c14d1dc0167887f69a541dd0ece85b202cc498e1c867",
    ),
    "sample-anti-palm-bernoulli": (
        ["sample", "--anti-palm", "--lambda", "0.25", "--boxes", "3000", "--seed", "5"],
        "d9a009b56470b8290bfaf06c0c052370185d308174316502df3887b4e4e68aed",
    ),
    "t-invariance-markov": (
        ["verify", "t-invariance", "--measure", "markov", "--Q", "[[0.8,0.2],[0.6,0.4]]",
         "--boxes", "20000", "--steps", "3", "--seed", "5"],
        "c41e35dd1a91f76181425499eb92b861e2a9d143637fad4d818771aa3f01f962",
    ),
    "evolve-json-trace": (
        ["evolve", "--format", "json", "--trace", "--steps", "3", LINE],
        "0a1f59f92304528a6561629541e10c6b8fa4eeebefbcef5708e4257c98415210",
    ),
    "reconstruct-json": (
        ["reconstruct", "--format", "json", "-"],
        "e1148a2d93075da69cf76bebe30fa57f75e29a2dd116a6c3adcbf00fa3298ae1",
    ),
    "params-json-markov": (
        ["params", "--format", "json", "--measure", "markov", "--Q", "[[0.8,0.2],[0.6,0.4]]"],
        "a8c110b5f58fa4e26c1164358a22ca69702856b44db85cef27a70bf8fa03235f",
    ),
    "bijections": (
        ["verify", "bijections", "--n-max", "5"],
        "0ef477597b8c670ee31c167daab9a9a9a583f7cd4fa43b3111719eef81dfc7c0",
    ),
    "partition-explicit": (
        ["verify", "partition", "--measure", "explicit", "--alpha", "0.2,0.1,0.05",
         "--n-max", "30", "--tolerance", "1e-3"],
        "8c951d4c76d658efa03fcf2c469630faf68b6555608021e8543c08f158d52421",
    ),
    "partition-bernoulli": (
        ["verify", "partition", "--measure", "bernoulli", "--lambda", "0.25"],
        "0c7928507e9baf9acb5d1a9573a62f4038a1f1b7b26a3763a88e81919f61ff78",
    ),
    "partition-markov": (
        ["verify", "partition", "--measure", "markov", "--Q", "[[0.8,0.2],[0.6,0.4]]",
         "--tolerance", "1e-4"],
        "7bfedd86f23590ab449e8dcb47ba47d9a5fb6e494b476bf7a3d20d69ccab34c1",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_seeded_output_is_unchanged(name):
    args, digest = GOLDEN[name]
    runner = CliRunner()
    stdin = runner.invoke(main, ["decompose", LINE]).output if args[0] == "reconstruct" else None
    result = runner.invoke(main, args, input=stdin)
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.output.encode()).hexdigest() == digest
