"""Palm and stationary samplers of the line.

A configuration with a record at the origin is equivalent to its doubly
infinite excursion sequence.  A Palm sample is i.i.d. excursions
concatenated at record 0 (``core.assemble``, also reachable here as
``line.assemble``).  The walk sampler draws them for the Markov family, and
so for Bernoulli, the chain with equal rows: it runs the chain right of a
record one box per ``random()`` draw, in batches, and cuts the boxes with
the one record cut, ``core._cut``, until it has the excursions it needs.
The anti-Palm sampler tilts the block covering the origin by its length and
places the origin uniformly inside it, producing a window of the
translation-invariant measure.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from itertools import repeat

from .core import BallConfig, Excursion, _cut, assemble
from .errors import PreconditionError
from .measures import (
    SolitonWeights,
    _as_rng,
    _bernoulli_chain,
    _transition_matrix,
    fill_from_weights,
    mean_record_gap,
    sample_excursions,
)


# ---------------------------------------------------------------------------
# walk samplers
# ---------------------------------------------------------------------------

def bernoulli_excursions(lam: float, size: int, rng) -> list[Excursion]:
    """Excursions of a walk stepping up with probability lam, in bulk:
    :func:`markov_excursions` of its ``measures._bernoulli_chain``."""
    return markov_excursions(_bernoulli_chain(lam), size, rng)


def _chain(uniform: Callable[[], float], n: int, up_from: tuple[float, float], first: int) -> bytes:
    """``n`` boxes of the chain after a box in state ``first``, one draw of
    ``uniform()`` each: a box is a ball when its draw lies below
    ``up_from[previous box]``."""
    out = bytearray()
    append = out.append
    box = first
    for _ in repeat(None, n):
        box = uniform() < up_from[box]
        append(box)
    return bytes(out)


def markov_excursions(q_matrix: Sequence[Sequence[float]], size: int, rng) -> list[Excursion]:
    """Excursions of a two-state chain started empty right of a record.

    Runs the chain (:func:`_chain`) in batches and cuts each batch at its
    records (``core._cut``), carrying the boxes after the last record into
    the next, until ``size`` excursions are out.  The first batch is 4096
    boxes; the next is the boxes the missing excursions take at the mean so
    far, at least 4096, or twice the last while no record has come.  Each
    box takes the next draw whatever the batches, so the excursions are
    those of one long cut.  A record is an empty box, so the chain is in
    its empty state there, as it would be restarted: the excursions are
    i.i.d.
    """
    q = _transition_matrix(q_matrix)
    uniform = _as_rng(rng).random
    up_from = (q[0][1], q[1][1])
    out: list[Excursion] = []
    tail = b""  # boxes since the last record
    boxes = b"\x00"  # the last box drawn: the empty record left of the first
    drawn = 0
    n = 4096
    while len(out) < size:
        boxes = _chain(uniform, n, up_from, boxes[-1])
        drawn += n
        _, excursions, tail = _cut(tail + boxes, size - len(out), len(tail))
        out += excursions
        n = max(4096, (size - len(out)) * (drawn - len(tail)) // len(out)) if out else 2 * n
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
    offset = rng.randrange(block_boxes)  # the block's record sits at -offset
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
