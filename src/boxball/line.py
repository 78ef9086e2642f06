"""Palm and stationary samplers of the line.

A configuration with a record at the origin is equivalent to its doubly
infinite excursion sequence.  A Palm sample is i.i.d. excursions
concatenated at record 0 (``core.assemble``, also reachable here as
``line.assemble``).  The walk sampler draws them for the Markov family, and
so for Bernoulli, the chain with equal rows: :func:`_walk` runs the chain
right of a record one box per ``random()`` draw, keeps the carrier's load
and notes each record where it lands, so it draws each box once and none
past the last record it needs; the excursions are sliced out between the
records.  It is the one walk right: the chain window walks it from box 0
to the first record past the window.

A stationary (anti-Palm) window tilts the block covering the origin by its
length and places the origin uniformly inside it.  Each family has one:

- the bernoulli and markov families draw :func:`chain_window`, exact and
  uncapped: the carrier load and the box form a Markov chain with an
  explicit stationary law and a constant-rate time reversal, so it draws
  the state at box 0, walks the reversal left to a record and
  :func:`_walk` right over the window to the next record, each box once;
- explicit weights draw :func:`sample_anti_palm`, exact and uncapped too:
  it takes the block covering the origin from a sampler of size-biased
  Palm excursions, ``measures.size_biased_excursion`` of the family's slot
  fill, places the origin uniformly inside it, extends the window to the
  right with whole batches of the family's Palm sampler, the diagram
  sampler of the same fill, cut where their cumulative block lengths cover
  the window, and lays it out with ``core._lay_out``, building no records.

Neither reads a measure quantity: the chain window takes its chain,
checked, and its carrier ratio from ``core``, and :func:`sample_anti_palm`
takes its two samplers.  So this module imports only ``core`` and
``errors`` of the package.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Callable, Sequence
from itertools import accumulate
from random import Random

from .core import BOX_BUDGET, BallConfig, Excursion, _as_rng, _bernoulli_chain, _between, _carrier_ratio
from .core import _check_budget, _lay_out, _transition_matrix, assemble
from .errors import PreconditionError


# ---------------------------------------------------------------------------
# walk samplers
# ---------------------------------------------------------------------------

def bernoulli_excursions(lam: float, size: int, rng) -> list[Excursion]:
    """Excursions of a walk stepping up with probability lam, in bulk:
    :func:`markov_excursions` of its ``core._bernoulli_chain``."""
    return markov_excursions(_bernoulli_chain(lam), size, rng)


def _walk(uniform: Callable[[], float], up_from: tuple[float, float], boxes: bytearray,
          height: int, size: int, until: int = 0) -> list[int]:
    """Walk the chain on from ``boxes``, after which the carrier holds
    ``height`` balls, appending one box per ``uniform()`` draw: a ball when
    the draw lies below ``up_from[previous box]``.

    Notes the records from index ``until`` on and returns them at the
    ``size``-th.  A record is an empty box the carrier reaches empty, so the
    chain is in its empty state there, as it would be restarted: the
    excursions between records are i.i.d.  The boxes before ``until`` are
    one window, and each excursion after it stands alone: the walk is
    refused at the first ball where the boxes since the last noted record
    (or all of ``boxes``), the height and the closing record would pass
    ``BOX_BUDGET``.
    """
    low, high = up_from
    up = high if boxes and boxes[-1] else low
    append = boxes.append
    records: list[int] = []
    start = 0  # the first box the budget counts
    while True:
        if uniform() < up:
            up = high
            height += 1
            append(1)
            if len(boxes) - start + height >= BOX_BUDGET:
                _check_budget(len(boxes) - start + height + 1, "a drawn excursion would lay out")
        else:
            up = low
            append(0)
            if height:
                height -= 1
            elif len(boxes) > until:
                records.append(len(boxes) - 1)
                if len(records) == size:
                    return records
                start = len(boxes)


def markov_excursions(q_matrix: Sequence[Sequence[float]], size: int, rng) -> list[Excursion]:
    """Excursions of a two-state chain started empty right of a record:
    ``size`` of them, i.i.d., sliced out of one :func:`_walk` between the
    records it notes, each distinct one built once."""
    (_, q01), (_, q11) = _transition_matrix(q_matrix)
    boxes = bytearray()
    records = _walk(_as_rng(rng).random, (q01, q11), boxes, 0, size) if size > 0 else []
    return _between(bytes(boxes), records)


# ---------------------------------------------------------------------------
# stationary windows
# ---------------------------------------------------------------------------

def chain_window(q_matrix: Sequence[Sequence[float]], n_boxes: int, rng) -> BallConfig:
    """Stationary window of a two-state chain, drawn exactly: boxes ``0 ..
    n_boxes - 1`` carry the chain's stationary law.

    The carrier load L after a box and the box b form a Markov chain: the
    next box is b' ~ Q(b, .), and L goes up by 1 after a ball and down to
    max(L - 1, 0) after an empty box.  With r the ``core._carrier_ratio``
    and ``C = 1 / (1 + Q(0,1) (1 + r) / (1 - r))`` its stationary law is
    ``pi(0,0) = C``, ``pi(l,0) = C Q(0,1) r^l`` and ``pi(l,1) = C Q(0,1)
    r^(l-1)`` for l >= 1, and its time reversal has constant rates.  Before
    (1, 1) lies (0, 0); before (l, 1), l >= 2, an empty box with
    probability Q(0,1) at load l - 1; before (l, 0), l >= 1, an empty box
    with probability Q(1,1) at load l + 1; before (0, 0), with probability
    Q(0,0), the state (0, 0), which makes the box a record, else (1, 0) with
    probability Q(0,1) Q(1,1) and (1, 1) with Q(0,1) Q(1,0).

    So (L, b) at box 0 is drawn from pi: one draw for the atom (0, 0), one
    for b and a geometric one for l, none when r = 0, where l = 1.  The
    reversal walks left from it to the first record, and :func:`_walk`
    walks right from box 0, at load L, to the first record from box
    ``n_boxes`` on; no box is swept twice.  The window spans whole
    excursions, from a record at or left of box 0 to a record past
    ``n_boxes - 1``; no draw is rejected and no block is cut short.  A
    window of more than ``BOX_BUDGET`` boxes is refused before anything is
    drawn, and either walk as soon as the boxes it has laid out, with those
    the carrier needs to empty and reach a record, would pass it.
    """
    if n_boxes < 1:
        raise PreconditionError("n_boxes must be >= 1")
    _check_budget(n_boxes, "an anti-Palm window would lay out")
    q = _transition_matrix(q_matrix)
    (q00, q01), (_, q11) = q
    r = _carrier_ratio(q)
    uniform = _as_rng(rng).random
    if uniform() < 1 / (1 + q01 * (1 + r) / (1 - r)):
        load, box = 0, False
    else:  # pi(l, 0) / pi(l, 1) = r, and l - 1 is Geometric(1 - r) either way
        box = uniform() * (1 + r) >= r
        load = 1 + int(math.log(1.0 - uniform()) / math.log(r)) if r else 1
    # boxes 1 .. n_boxes - 1, the carrier's emptying and the closing record
    right = max(n_boxes, load + 1)
    boxes = bytearray()  # box 0, then the boxes left of it down to the record
    level, b = load, box
    while True:
        boxes.append(b)
        # the record lies at least ``level`` boxes further left
        _check_budget(len(boxes) + level + right, "a drawn excursion would lay out")
        if not level:  # (0, 0)
            u = uniform()
            if u < q00:
                break
            level, b = 1, u >= q00 + q01 * q11
        elif b:
            level -= 1
            b = level > 0 and uniform() >= q01
        else:
            level += 1
            b = uniform() >= q11
    boxes.reverse()
    origin = 1 - len(boxes)  # box z lies at index z - origin
    _walk(uniform, (q01, q11), boxes, load, 1, n_boxes - origin)
    return BallConfig(origin, bytes(boxes))


def sample_anti_palm(
    origin: Callable[[Random], Excursion],
    palm: Callable[[int, Random], list[Excursion]],
    n_boxes: int,
    rng,
) -> BallConfig:
    """Stationary window of the measure whose Palm sampler is ``palm``:
    boxes ``0 .. n_boxes - 1`` carry its stationary law.  Explicit weights
    draw their window here; the bernoulli and markov families draw
    :func:`chain_window`.

    ``origin(rng)`` draws the block covering box 0, a Palm excursion
    size-biased by its length (``measures.size_biased_excursion`` of a slot
    fill), and box 0 lands uniformly among its boxes.  ``palm(size, rng)``
    returns ``size`` i.i.d. excursions of the measure
    (``measures.sample_excursions`` of the same fill), which extend the
    window to the right up to the excursion whose cumulative length covers
    it.  They are drawn in batches, 16 first, then the boxes still wanted at
    the mean block length so far, but at most four times the excursions
    drawn before, so that a mean of few excursions cannot overshoot the
    window by much; ``core._lay_out`` lays the window out.  It spans whole
    excursions, so it may start before box 0 and end past ``n_boxes - 1``.  A window of more than ``BOX_BUDGET`` boxes is refused
    before anything is drawn.
    """
    if n_boxes < 1:
        raise PreconditionError("n_boxes must be >= 1")
    _check_budget(n_boxes, "an anti-Palm window would lay out")
    rng = _as_rng(rng)
    pieces = [origin(rng)]
    block = len(pieces[0].bits) + 1
    offset = rng.randrange(block)  # the block's record sits at -offset
    right = block - offset  # the last record laid out
    drawn = boxes = 0
    while right < n_boxes:
        # the boxes still wanted at the mean so far, at most four times the excursions drawn
        batch = palm(max(16, min(4 * drawn, (n_boxes - right) * drawn // max(boxes, 1))), rng)
        ends = list(accumulate((len(e.bits) + 1 for e in batch), initial=right))
        j = bisect_left(ends, n_boxes)  # the excursions laid out before the window is covered
        pieces += batch[:j]
        drawn, boxes = drawn + len(batch), boxes + ends[-1] - right
        right = ends[min(j, len(batch))]
    return _lay_out(pieces, 0).shifted(-offset)
