"""Seeded CLI output pinned by its sha256.

Each digest is the stdout of the command as captured before excursion
decompositions were shared between repeated excursions; a change to how the
soliton calculus is computed must leave every byte of these outputs alone.
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
        "4e17c0dd32d913013c4830ee9cd4d9058f6c8a4952edc55a37e92627c27397a9",
    ),
    "independence-markov": (
        ["verify", "independence", "--measure", "markov", "--Q", "[[0.8,0.2],[0.6,0.4]]",
         "--excursions", "4000", "--seed", "5"],
        "5a98f56759d8e0419b1d8700193206851eee1e2f1e770cf40fd7738d39b694d8",
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
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_seeded_output_is_unchanged(name):
    args, digest = GOLDEN[name]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.output.encode()).hexdigest() == digest
