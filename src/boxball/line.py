"""Palm and stationary samplers of the line.

A configuration with a record at the origin is equivalent to its doubly
infinite excursion sequence.  Palm samplers draw i.i.d. excursions and
concatenate them (``core.assemble``, also reachable here as
``line.assemble``); the walk samplers draw boxes right of a record and cut
them into excursions with the one record cut, ``core._cut``.  The anti-Palm
sampler tilts the block covering the origin by its length and places the
origin uniformly inside it, producing a window of the translation-invariant
measure.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Sequence

from .core import AnchoredConfig, BallConfig, Excursion, _cut, assemble
from .errors import PreconditionError
from .measures import (
    SlotFill,
    SolitonWeights,
    _as_rng,
    _transition_matrix,
    fill_from_weights,
    mean_record_gap,
    sample_excursions,
)


# ---------------------------------------------------------------------------
# Palm samplers
# ---------------------------------------------------------------------------

def sample_palm(
    weights: SolitonWeights, num_excursions: int, rng, fill: SlotFill | None = None
) -> AnchoredConfig:
    """i.i.d. excursions with the normalized weight law, assembled at record 0."""
    rng = _as_rng(rng)
    if fill is None:
        fill = fill_from_weights(weights)
    excs = sample_excursions(weights, num_excursions, rng, fill)
    return assemble(excs, 0)


def bernoulli_excursions(lam: float, size: int, rng) -> list[Excursion]:
    """Excursions of a walk stepping up with probability lam, in bulk.

    Draws i.i.d. boxes right of a record, a buffer at a time, and cuts them
    at the records (``core._cut``).
    """
    if not 0 <= lam < 0.5:
        raise PreconditionError("lambda must lie in [0, 1/2)")
    rng = _as_rng(rng)
    mean_len = 1.0 / (1 - 2 * lam)
    out: list[Excursion] = []
    tail = b""  # boxes since the last record
    while len(out) < size:
        chunk = int((size - len(out) + 16) * mean_len * 1.3) + 64
        boxes = tail + (rng.random(chunk) < lam).tobytes()
        _, excursions, tail = _cut(boxes, size - len(out), len(tail))
        out += excursions
    return out


def markov_excursions(q_matrix: Sequence[Sequence[float]], size: int, rng) -> list[Excursion]:
    """Excursions of a two-state chain started empty right of a record.

    Runs the chain over buffers of uniforms, one box per uniform, and cuts
    the boxes at the records (``core._cut``).  A record is an empty box, so
    the chain is in its empty state there, as it would be restarted: the
    excursions are i.i.d.
    """
    q = _transition_matrix(q_matrix)
    rng = _as_rng(rng)
    up_from = (q[0][1], q[1][1])
    out: list[Excursion] = []
    tail = b""  # boxes since the last record
    boxes = b"\x00"  # the last box drawn: the empty record left of the first
    n = max(4096, 8 * size)
    while len(out) < size:
        chain = accumulate(rng.random(n).tolist(), lambda s, u: u < up_from[s], initial=boxes[-1])
        boxes = bytes(chain)[1:]
        _, excursions, tail = _cut(tail + boxes, size - len(out), len(tail))
        out += excursions
    return out


# ---------------------------------------------------------------------------
# anti-Palm sampler
# ---------------------------------------------------------------------------

def sample_anti_palm(
    weights: SolitonWeights,
    n_boxes: int,
    rng,
    block_cap: int = 2001,
    report: dict | None = None,
) -> BallConfig:
    """Translation-invariant window: boxes ``0 .. n_boxes - 1`` carry the
    stationary law of the assembled measure.

    The block (record plus excursion) covering the origin is drawn by
    rejection with acceptance proportional to its box count, capped at
    ``block_cap`` boxes; the origin lands uniformly inside it and further
    i.i.d. excursions extend the window on both sides.  The returned window
    spans whole excursions, so it may start before box 0 and end past
    ``n_boxes - 1``.  When ``report`` is supplied it receives the number of
    proposals, the number of cap clips, and the resulting bias bound.
    """
    if n_boxes < 1:
        raise PreconditionError("n_boxes must be >= 1")
    rng = _as_rng(rng)
    fill = fill_from_weights(weights)
    kappa = mean_record_gap(weights)
    if not math.isfinite(kappa):
        raise PreconditionError("mean record gap diverges; no stationary version")

    proposals = 0
    clipped = 0
    origin_block: Excursion | None = None
    while origin_block is None:
        batch = max(16, int(2 * block_cap / kappa))
        for exc in sample_excursions(weights, batch, rng, fill):
            proposals += 1
            boxes = 2 * exc.n + 1
            accept = boxes / block_cap
            if accept > 1.0:
                clipped += 1
                accept = 1.0
            if rng.random() < accept:
                origin_block = exc
                break
    if report is not None:
        report["proposals"] = proposals
        report["clipped"] = clipped
        report["block_cap"] = block_cap
        # mass of blocks longer than the cap, crudely dominated
        report["bias_bound"] = clipped / max(proposals, 1)

    block_boxes = 2 * origin_block.n + 1
    offset = int(rng.integers(block_boxes))  # the block's record sits at -offset
    pieces = [origin_block]
    right_record = -offset + block_boxes
    while right_record < n_boxes:
        batch = sample_excursions(
            weights, max(4, int((n_boxes - right_record) / kappa)), rng, fill
        )
        for exc in batch:
            pieces.append(exc)
            right_record += 2 * exc.n + 1
            if right_record >= n_boxes:
                break
    anchored = assemble(pieces, 0)
    return anchored.config.shifted(-offset)
