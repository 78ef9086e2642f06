"""Palm and stationary samplers of the line.

A configuration with a record at the origin is equivalent to its doubly
infinite excursion sequence.  A Palm sample is i.i.d. excursions
concatenated at record 0 (``core.assemble``, also reachable here as
``line.assemble``).  The walk sampler draws them for the Markov family, and
so for Bernoulli, the chain with equal rows: it runs the chain right of a
record one box per ``random()`` draw, in batches, and cuts the boxes with
the one record cut, ``core._cut``, until it has the excursions it needs.
The walk sampler takes its chain, checked, from ``core``.  The anti-Palm
sampler tilts the block covering the origin by its length and places the
origin uniformly inside it, producing a window of the translation-invariant
measure.  It is one loop over whole batches of the family's Palm sampler,
which it is given (the walk of a chain, or the diagram sampler of a slot
fill): it proposes the origin block, then cuts the filler excursions where
their cumulative block lengths cover the window, and lays the window out
with ``core._lay_out``, the one excursion layout, building no records.  It
reads no measure quantity.  So this module imports only ``core`` and
``errors`` of the package.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Sequence
from itertools import accumulate, repeat
from random import Random

from .core import BOX_BUDGET, BallConfig, Excursion, _as_rng, _bernoulli_chain, _check_budget, _cut
from .core import _lay_out, _transition_matrix, assemble
from .errors import PreconditionError


# ---------------------------------------------------------------------------
# walk samplers
# ---------------------------------------------------------------------------

def bernoulli_excursions(lam: float, size: int, rng) -> list[Excursion]:
    """Excursions of a walk stepping up with probability lam, in bulk:
    :func:`markov_excursions` of its ``core._bernoulli_chain``."""
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
    the next, until ``size`` excursions are out.  The first batch is
    ``size`` boxes, no more than the excursions take, since each takes its
    record at least.  The next is the boxes the missing excursions take at
    the mean so far, at least one each and at least the boxes since the
    last record, or twice the last while no record has come.  So a call
    draws few boxes past its last excursion, however few it asks for.
    Each box takes the next draw whatever the batches, so the excursions
    are those of one long cut.  A record is an empty box, so the chain is
    in its empty state there, as it would be restarted: the excursions are
    i.i.d.  The boxes since the last record never pass ``BOX_BUDGET``: the
    walk is refused when they reach it.
    """
    q = _transition_matrix(q_matrix)
    uniform = _as_rng(rng).random
    up_from = (q[0][1], q[1][1])
    out: list[Excursion] = []
    tail = b""  # boxes since the last record
    boxes = b"\x00"  # the last box drawn: the empty record left of the first
    drawn = 0
    n = size
    while len(out) < size:
        _check_budget(len(tail) + 1, "a drawn excursion would lay out")
        n = min(n, BOX_BUDGET - len(tail))
        boxes = _chain(uniform, n, up_from, boxes[-1])
        drawn += n
        _, excursions, tail = _cut(tail + boxes, size - len(out), len(tail))
        out += excursions
        missing = size - len(out)
        n = max(missing, len(tail), missing * (drawn - len(tail)) // len(out)) if out else 2 * n
    return out


# ---------------------------------------------------------------------------
# anti-Palm sampler
# ---------------------------------------------------------------------------

def sample_anti_palm(
    palm: Callable[[int, Random], list[Excursion]],
    n_boxes: int,
    rng,
    block_cap: int = 2001,
    report: dict | None = None,
) -> BallConfig:
    """Translation-invariant window: boxes ``0 .. n_boxes - 1`` carry the
    stationary law of the measure whose Palm sampler is ``palm``.

    ``palm(size, rng)`` returns ``size`` i.i.d. excursions of the measure:
    :func:`markov_excursions` of a chain, or ``measures.sample_excursions``
    of a slot fill.  One loop draws them in batches, 16 first, then enough
    to cover the boxes still wanted (``block_cap``, then the rest of the
    window) at the mean block length so far.  The block covering the origin
    is drawn by rejection, accepted with probability its box count over
    ``block_cap``, clipped at 1, and the origin lands uniformly inside it.
    The rest of its batch, independent of the acceptance, and then later
    batches extend the window to the right, up to the excursion whose
    cumulative length covers it; ``core._lay_out`` lays it out.  The window
    spans whole excursions, so it may start before box 0 and end past
    ``n_boxes - 1``.  A window of more than ``BOX_BUDGET`` boxes is refused
    before anything is drawn.  ``report``, if given, receives the number of
    proposals and of cap clips, the cap and the resulting bias bound.
    """
    if n_boxes < 1:
        raise PreconditionError("n_boxes must be >= 1")
    _check_budget(n_boxes, "an anti-Palm window would lay out")
    rng = _as_rng(rng)
    drawn = boxes = proposals = clipped = 0
    wanted = block_cap  # the boxes the next batch should cover
    right = None  # the last record laid out, once the origin block is drawn
    pieces: list[Excursion] = []
    while True:
        batch = palm(max(16, wanted * drawn // boxes) if drawn else 16, rng)
        lengths = [len(e.bits) + 1 for e in batch]
        drawn += len(batch)
        boxes += sum(lengths)
        i = 0  # the first excursion of the batch that may extend the window
        if right is None:
            for i, block in enumerate(lengths, 1):
                proposals += 1
                clipped += block > block_cap
                if rng.random() < block / block_cap:
                    break
            else:
                continue
            offset = rng.randrange(block)  # the block's record sits at -offset
            right = block - offset
            pieces.append(batch[i - 1])
        ends = list(accumulate(lengths[i:], initial=right))
        j = bisect_left(ends, n_boxes)  # the excursions laid out before the window is covered
        pieces += batch[i : i + j]
        if j < len(ends):
            break
        right = ends[-1]
        wanted = n_boxes - right
    if report is not None:
        # the bias bound: the mass of blocks longer than the cap, crudely dominated
        report.update(proposals=proposals, clipped=clipped, block_cap=block_cap,
                      bias_bound=clipped / max(proposals, 1))
    return _lay_out(pieces, 0).shifted(-offset)
