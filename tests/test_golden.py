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
        "560e81d47c0121cf95f750a5e24b449c60974f4101221c713178101c9eb394fd",
    ),
    "geometric-explicit-level-2": (
        ["verify", "geometric", "--measure", "explicit", "--alpha", "0.2,0.1,0.05",
         "--level", "2", "--excursions", "4000", "--seed", "5"],
        "c967737ebf85b2de66a6897ef72eed45238e10a48985f1c1ead1b6e0fdff8d41",
    ),
    "independence-markov": (
        ["verify", "independence", "--measure", "markov", "--Q", "[[0.8,0.2],[0.6,0.4]]",
         "--excursions", "4000", "--seed", "5"],
        "bd007c85e1bf7daf57ee40f9387defe0534d9bb6cb69e7ab5f4cc86df1e63598",
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
        "cfdf5b5979c84cede5c1c5da9781ac412bbdb343c1ddf14093ad671db68a3e7d",
    ),
    "sample-json-markov": (
        ["sample", "--measure", "markov", "--Q", "[[0.8,0.2],[0.6,0.4]]",
         "--excursions", "2000", "--seed", "5", "--format", "json"],
        "0eb0694d87e560f785bc3dffa59e36ceac42ff76531c7d078f0e066ab0c89721",
    ),
    # refill paths: 3 (Bernoulli) and 12 (Markov) of the 16 chunks draw a
    # second buffer or carry a partial excursion (Bernoulli: 2 when it sized
    # its own buffers, before it ran as the chain with equal rows)
    "sample-json-bernoulli-near-critical": (
        ["sample", "--lambda", "0.49", "--excursions", "1000", "--seed", "5", "--format", "json"],
        "cab3d4eebd7c0544a11155fea3338c7a50b90d6fcec0638e08cf9e00abf40128",
    ),
    "sample-json-markov-near-critical": (
        ["sample", "--measure", "markov", "--Q", "[[0.55,0.45],[0.46,0.54]]",
         "--excursions", "2000", "--seed", "5", "--format", "json"],
        "33a67e13006bdfa6b8a406f1c84b3bd6eb16cc01e1509efa0746392d34508f7f",
    ),
    "sample-explicit": (
        ["sample", "--measure", "explicit", "--alpha", "0.2,0.1,0.05",
         "--excursions", "3000", "--seed", "5"],
        "83f3a45613cd9759ec8f2236ddabed1a4232b4af17263a01904062fca215fe41",
    ),
    "sample-anti-palm-markov": (
        ["sample", "--anti-palm", "--measure", "markov", "--Q", "[[0.8,0.2],[0.6,0.4]]",
         "--boxes", "3000", "--seed", "5"],
        "a5cc865cb9a0e83cf84da0957df370d5e05e1b16d7041a667537b79ff87356fa",
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
        "0c381b26443fd3d544a7fbbb34b1893294659a0689248acedbed701660402869",
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
        "4d0a5a31136307d5595ea1474ab22a68464e4dc0b4b3edc2eaf09a651d214b90",
    ),
    "partition-markov": (
        ["verify", "partition", "--measure", "markov", "--Q", "[[0.8,0.2],[0.6,0.4]]",
         "--tolerance", "1e-4"],
        "085c20e0c63d4370780dcece0d1edfb0fb956331580939a6952bca234b406712",
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
