"""Ball configurations, records, carrier dynamics, and soliton identification.

A configuration is a 0/1 occupancy of the integer lattice with finite support,
stored as a window of boxes plus implicit zero padding.  Box contents have one
format everywhere: immutable ``bytes`` of 0s and 1s, checked once by
``_boxes``.  The walk that steps up at occupied boxes and down at empty ones
is only ever read through the carrier, whose load is the walk minus its
running minimum.  One sweep of it (``_sweep``) writes the image of the
dynamics, and the rest is read off the boxes and that image: the boxes
empty in both are the records, which split the configuration into finite
excursions, and :func:`assemble` lays excursions out between records
again.  The Takahashi-Satsuma algorithm identifies the conserved solitons
of an excursion in one left-to-right pass over its runs, pairing each run
that is no longer than the run after it with the start of that run.

The two-state chains of the bernoulli and markov families are checked here
(``_bernoulli_chain``, ``_transition_matrix``), beside ``_as_rng``, the
random source of every sampler, and beside the closed forms that need only
the chain: its weight constants (``_chain_weight``), the ratio r of its
carrier law (``_carrier_ratio``) and its slot parameters q_k
(``_slot_parameters``).  So the samplers in ``line`` draw from a chain, and
a check reads its q_k, without loading ``measures``, which builds slot
fills.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import accumulate, compress, count, groupby, islice
from operator import attrgetter, sub

from .errors import DivergenceError, PreconditionError, ValidationError

BOX_BUDGET = 1 << 22  # the most boxes a few bytes of input may ask to lay out
GAP_BUDGET = 1 << 16  # the most boxes box 0 may lie from a window that is cut
SWEEP_BUDGET = 1 << 26  # the most boxes ``evolve`` may sweep, summed over its steps


def _check_budget(boxes: int, what: str) -> None:
    """Refuse ``what``, an excursion and its record of ``boxes`` boxes, past
    :data:`BOX_BUDGET`: no slot-diagram reader nor sampler lays out more."""
    if boxes > BOX_BUDGET:
        raise PreconditionError(f"{what} more than {BOX_BUDGET} boxes")


# ---------------------------------------------------------------------------
# immutable values
# ---------------------------------------------------------------------------

_set = object.__setattr__  # how an ``__init__`` sets a field of a frozen value


class _Value:
    """Base of the package's immutable value types.

    A value's fields are its ``__slots__``, set once by its ``__init__``
    through ``_set``; assigning or deleting one raises ``AttributeError``.
    Two values are ``==``, and hash alike, when they are of one class and
    their fields are equal.  ``repr`` reads ``Name(field=value, ...)``, and
    ``pickle`` and ``copy`` rebuild a value through its ``__init__``.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the field, or the tuple of the fields, read by one C getter per
        # class: ``map_distinct`` hashes every excursion of a sample, so
        # ``==`` and ``hash`` look nothing up on the instance or the class
        key = attrgetter(*cls.__slots__)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash(key(self))

        cls.__eq__, cls.__hash__ = __eq__, __hash__

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

# ---------------------------------------------------------------------------
# configurations
# ---------------------------------------------------------------------------

_FROM_ASCII = bytes.maketrans(b"01", b"\x00\x01")
_TO_ASCII = bytes.maketrans(b"\x00\x01", b"01")


def _boxes(contents) -> bytes:
    """Box contents as immutable 0/1 bytes, from bytes or an iterable of 0s
    and 1s; anything else is refused.

    Non-bytes are read item by item, never through the buffer protocol, so
    a numpy array of ints reads as its values and an int is not a length.
    """
    if not isinstance(contents, bytes):
        try:
            contents = bytes(iter(contents))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"box contents must be 0s and 1s: {exc}") from exc
    if contents.translate(None, b"\x00\x01"):
        raise ValidationError("box contents must be 0 or 1")
    return contents


def _from_ascii(text: str) -> bytes:
    """The boxes of a ball string of ASCII 0s and 1s."""
    text = text.strip()
    if not set(text) <= {"0", "1"}:
        raise ValidationError(f"ball string must be over 0/1, got {text!r}")
    return text.encode().translate(_FROM_ASCII)


class BallConfig(_Value):
    """Finite occupancy window; every box outside the window is empty.

    ``bits[i]`` is the content (0 or 1) of box ``origin + i``.
    """

    __slots__ = ("origin", "bits")

    def __init__(self, origin: int = 1, bits: bytes = b""):
        _set(self, "origin", origin)
        _set(self, "bits", _boxes(bits))

    @classmethod
    def from_string(cls, text: str, origin: int = 1) -> BallConfig:
        return cls(origin, _from_ascii(text))

    def to_string(self) -> str:
        return self.bits.translate(_TO_ASCII).decode()

    @property
    def end(self) -> int:
        """Last window box; ``origin - 1`` when the window is empty."""
        return self.origin + len(self.bits) - 1

    def occupied(self, z: int) -> int:
        if self.origin <= z <= self.end:
            return self.bits[z - self.origin]
        return 0

    def segment(self, lo: int, hi: int) -> bytes:
        """Contents of boxes ``lo .. hi - 1``, zero outside the window."""
        size = hi - lo
        if size <= 0:
            return b""
        left = min(max(self.origin - lo, 0), size)
        inside = self.bits[max(lo - self.origin, 0) : max(hi - self.origin, 0)]
        return bytes(left) + inside + bytes(size - left - len(inside))

    def ball_count(self) -> int:
        return self.bits.count(1)

    def ball_boxes(self) -> tuple[int, ...]:
        return tuple(self.origin + i for i, b in enumerate(self.bits) if b)

    def shifted(self, delta: int) -> BallConfig:
        return BallConfig(self.origin + delta, self.bits)

    def trimmed(self) -> BallConfig:
        """Minimal window covering the support (canonical form for equality)."""
        balls = self.ball_boxes()
        if not balls:
            return BallConfig(1, b"")
        lo, hi = balls[0], balls[-1]
        return BallConfig(lo, self.bits[lo - self.origin : hi - self.origin + 1])


# ---------------------------------------------------------------------------
# the carrier: one sweep writes the image; records and loads are read off it
# ---------------------------------------------------------------------------

_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def _sweep(bits: bytes, load: int = 0) -> bytes:
    """The image of one carrier sweep over the boxes, its spill included.

    The carrier enters with ``load`` balls, picks up every ball, which
    leaves its box empty, and drops one ball into every empty box it
    reaches loaded.  Its load is the walk minus its running minimum, so the
    empty boxes it reaches empty are the records, and they stay empty.  The
    balls still loaded after the last box follow as ones, so ``len(image) -
    len(bits)`` is the final load.  This is the one place the carrier rule
    is written: records (:func:`_records`) and loads (:func:`_loads`) are
    read off the boxes and their image.
    """
    out = bytearray()
    append = out.append
    for b in bits:
        if b:
            load += 1
            append(0)
        elif load:
            load -= 1
            append(1)
        else:
            append(0)
    return bytes(out) + b"\x01" * load


def _record_mask(bits: bytes, image: bytes) -> bytes:
    """1 at each record among ``bits`` and 0 elsewhere, read off their
    :func:`_sweep` ``image``: the boxes empty before and after, found in C
    by OR-ing the two as integers."""
    n = len(bits)
    either = int.from_bytes(bits, "big") | int.from_bytes(image[:n], "big")
    return either.to_bytes(n, "big").translate(_FLIP)


def _records(bits: bytes, image: bytes, first: int = 0) -> Iterator[int]:
    """Positions of the records among ``bits`` (:func:`_record_mask`), the
    first box at ``first``."""
    return compress(count(first), _record_mask(bits, image))


def _loads(bits: bytes, image: bytes, load: int = 0) -> list[int]:
    """Carrier load before the boxes and after each of them, for a carrier
    that enters with ``load`` balls and whose :func:`_sweep` is ``image``:
    a ball raises it, a box the carrier fills lowers it, a record leaves it."""
    return list(accumulate(map(sub, bits, image), initial=load))


def record_positions(config: BallConfig) -> tuple[int, ...]:
    """All records in ``[origin - 1, R]`` where R is the first record past the window.

    Every box left of ``origin - 1`` is a record, and so is every box right
    of the last returned position; the returned range is therefore a complete
    description of the record set.
    """
    bits = config.bits
    image = _sweep(bits)
    spill = len(image) - len(bits)
    return (config.origin - 1, *_records(bits, image, config.origin), config.end + spill + 1)


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------

def _sweeps(bits: bytes, steps: int) -> Iterator[bytes]:
    """The :func:`_sweep` images of ``steps`` steps, each swept from the
    last, refused as soon as the steps left would sweep more than
    :data:`SWEEP_BUDGET` boxes in all.  A window never shrinks, so each
    step left sweeps at least as many boxes as the last one did."""
    swept = 0
    for left in range(steps, 0, -1):
        if swept + left * len(bits) > SWEEP_BUDGET:
            raise PreconditionError(f"evolving would sweep more than {SWEEP_BUDGET} boxes")
        swept += len(bits)
        bits = _sweep(bits)
        yield bits


def evolve(config: BallConfig, steps: int = 1) -> BallConfig:
    """One carrier sweep per step: records stay empty, every other box flips.

    Each step is the :func:`_sweep` image of the last, read as it is, spill
    included, and the steps are refused as :func:`_sweeps` refuses them.
    The output window keeps the input origin and grows to the right as far
    as balls travel, by up to the largest soliton per step.
    """
    if steps < 0:
        raise PreconditionError("steps must be >= 0")
    bits = config.bits
    for bits in _sweeps(bits, steps):
        pass
    return BallConfig(config.origin, bits)


def _trace(bits: bytes, image: bytes) -> tuple[int, ...]:
    """:func:`carrier_trace` of the boxes ``bits`` whose :func:`_sweep`
    is ``image``: the loads after each box, then the descent of the spill."""
    loads = _loads(bits, image)
    return (*islice(loads, 1, None), *range(loads[-1] - 1, -1, -1))


def carrier_trace(config: BallConfig) -> tuple[int, ...]:
    """Carrier load after visiting each box, starting empty left of the window.

    The trace covers the window and, if the carrier is still loaded at the
    window end, continues until it has deposited everything, so the final
    load is always zero.
    """
    return _trace(config.bits, _sweep(config.bits))


# ---------------------------------------------------------------------------
# excursions
# ---------------------------------------------------------------------------

class Excursion(_Value):
    """The ``2n`` boxes between two consecutive records, as 0/1 bytes.

    The carrier enters them empty, leaves them empty, and reaches none of
    them empty (none is a record): the walk never dips below where it starts
    and ends there.
    """

    __slots__ = ("bits",)

    def __init__(self, bits: bytes = b""):
        bits = _boxes(bits)
        # no record and no spill: the sweep flips every box
        if _sweep(bits) != bits.translate(_FLIP):
            raise ValidationError("boxes must hold no record and end with an empty carrier")
        _set(self, "bits", bits)

    @classmethod
    def from_string(cls, text: str) -> Excursion:
        return cls(_from_ascii(text))

    @property
    def n(self) -> int:
        """Half-length: the number of balls."""
        return len(self.bits) // 2

    def ball_string(self) -> str:
        return self.bits.translate(_TO_ASCII).decode()


EMPTY_EXCURSION = Excursion()


def _trusted_excursion(bits: bytes) -> Excursion:
    """An excursion from 0/1 bytes that are one by construction, left unchecked."""
    excursion = object.__new__(Excursion)
    _set(excursion, "bits", bits)
    return excursion


def _cut(
    bits: bytes, limit: int | None = None, start: int = 0
) -> tuple[list[int], list[Excursion], bytes]:
    """The record cut of boxes that start right after a record.

    Returns the first ``limit`` records among the boxes (default: all), as
    indices into ``bits``; the excursion that ends at each, every distinct
    shape built once, unchecked since it is one by construction; and the
    boxes after the last.  The first ``start`` boxes hold no record (an
    earlier cut's tail): the carrier starts after them at their height.
    """
    head = 2 * bits.count(1, 0, start) - start
    rest = bits[start:]
    records = list(islice(_records(rest, _sweep(rest, head), start), limit))
    starts = [0, *(r + 1 for r in records)]
    excursions = map_distinct(_trusted_excursion, [bits[a:b] for a, b in zip(starts, records)])
    return records, excursions, bits[starts[-1] :]


def _cut_window(config: BallConfig) -> tuple[tuple[int, ...], int, tuple[Excursion, ...], list[int]]:
    """``(record_positions(config), i_lo, excursions, bounds)`` from one
    carrier pass, for a configuration with a record at 0.

    ``i_lo`` and ``excursions`` are what :func:`excursions_of` returns;
    excursion ``i_lo + j`` lies between records ``bounds[j]`` and
    ``bounds[j + 1]``.  Box 0 may lie at most :data:`GAP_BUDGET` boxes from
    the window, since each record between them bounds one more empty
    excursion, and so one more entry of every document that lists them.
    """
    if max(config.origin, -config.end) > GAP_BUDGET:
        raise PreconditionError(f"box 0 lies more than {GAP_BUDGET} boxes from the window")
    inside, excursions, tail = _cut(config.bits)
    # the tail starts at load 0 and meets no record: the load at the window
    # end is its height, and that many empty boxes close it
    load = 2 * tail.count(1) - len(tail)
    excursions.append(Excursion(tail + bytes(load)))
    recs = (config.origin - 1, *(config.origin + r for r in inside), config.end + load + 1)
    # every box left of the window, and right of the last returned record, is a record
    left, right = range(0, recs[0]), range(recs[-1] + 1, 1)
    bounds = [*left, *recs, *right]
    if 0 not in bounds:
        raise PreconditionError("box 0 must be a record")
    i_lo = -bounds.index(0)
    pad = (EMPTY_EXCURSION,)
    excursions = pad * len(left) + (*excursions,) + pad * len(right)
    return recs, i_lo, excursions, bounds


def excursions_of(config: BallConfig) -> tuple[int, tuple[Excursion, ...]]:
    """Split a configuration with a record at 0 into its indexed excursions.

    Returns ``(i_lo, excursions)`` where excursion ``i_lo + j`` lies between
    records ``i_lo + j`` and ``i_lo + j + 1``; the covered range spans the
    whole support, and every excursion outside it is empty.
    """
    return _cut_window(config)[1:3]


_MISSING = object()


def map_distinct(fn: Callable, items: Iterable) -> list:
    """``[fn(x) for x in items]``, with ``fn`` called once per distinct item
    and its result shared by the repeats.

    Palm samples repeat most excursions (the empty one above all), and so
    most slot diagrams, so this is how the batch soliton calculus handles
    each shape once.  ``fn`` must be a pure function of the (hashable,
    frozen) item; the memo lives for this call only.
    """
    done = {}
    out = []
    for item in items:
        result = done.get(item, _MISSING)
        if result is _MISSING:
            result = done[item] = fn(item)
        out.append(result)
    return out


# ---------------------------------------------------------------------------
# record-anchored assembly
# ---------------------------------------------------------------------------

class AnchoredConfig(_Value):
    """Configuration plus the positions of its records, with record 0 at box 0.

    ``records[j]`` is the position of record ``i_lo + j``; excursion i lives
    strictly between records i and i + 1.
    """

    __slots__ = ("config", "i_lo", "records")

    def __init__(self, config: BallConfig, i_lo: int, records: tuple[int, ...]):
        if not records:
            raise PreconditionError("at least one record is required")
        if i_lo > 0 or i_lo + len(records) <= 0:
            raise PreconditionError("the record window must contain index 0")
        if records[-i_lo] != 0:
            raise PreconditionError("record 0 must sit at the origin")
        _set(self, "config", config)
        _set(self, "i_lo", i_lo)
        _set(self, "records", records)

    def record(self, i: int) -> int:
        j = i - self.i_lo
        if not 0 <= j < len(self.records):
            raise PreconditionError(f"record {i} outside the stored window")
        return self.records[j]

    def to_json_dict(self) -> dict:
        return {
            "origin": self.config.origin,
            "balls": self.config.to_string(),
            "i_lo": self.i_lo,
            "records": list(self.records),
        }


def _lay_out(excursions: Sequence[Excursion], i_lo: int) -> BallConfig:
    """The excursions ``i_lo, i_lo + 1, ...`` separated by records, record 0
    at box 0: the boxes from the first record to the last.

    Excursion ``i_lo + t`` occupies the ``2 n`` boxes after record
    ``i_lo + t``; consecutive records are ``2 n + 1`` apart.
    """
    start = -sum(2 * e.n + 1 for e in excursions[:-i_lo])
    return BallConfig(start, b"\x00".join([b"", *(e.bits for e in excursions), b""]))


def assemble(excursions: Sequence[Excursion], i_lo: int = 0) -> AnchoredConfig:
    """Concatenate excursions, separated by records, with record 0 at box 0
    (laid out by :func:`_lay_out`), and keep the records; the window must
    contain excursion 0."""
    if i_lo > 0 or i_lo + len(excursions) < 1:
        raise PreconditionError("the excursion window must contain index 0")
    config = _lay_out(excursions, i_lo)
    records = accumulate((2 * e.n + 1 for e in excursions), initial=config.origin)
    return AnchoredConfig(config, i_lo, tuple(records))


# ---------------------------------------------------------------------------
# Takahashi-Satsuma soliton identification
# ---------------------------------------------------------------------------

class Soliton(_Value):
    """k balls plus k empty boxes, heads and tails each strictly increasing."""

    __slots__ = ("k", "head", "tail")

    def __init__(self, k: int, head: tuple[int, ...], tail: tuple[int, ...]):
        _set(self, "k", k)
        _set(self, "head", head)
        _set(self, "tail", tail)

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.head + self.tail))


def soliton_decompose(excursion: Excursion) -> tuple[Soliton, ...]:
    """Unique soliton decomposition of an excursion, sorted by leftmost box.

    Takahashi-Satsuma pairs the k boxes of the leftmost smallest run of equal
    boxes with the first k boxes of the run after it and removes them; the
    run before and the rest of the run after then touch and merge.  This
    pass removes instead the leftmost run that is no longer than the run
    after it, in one sweep over the runs.  A stack holds the unpaired runs,
    values alternating and unpaired lengths strictly decreasing towards the
    top.  Once a run has been read in full, and while the top is no longer
    than it, the top (k boxes) is paired with the first k boxes of the
    incoming run, and the run below the top, which has the incoming run's
    value, takes the incoming run's leftover boxes and becomes the incoming
    run.  What is left of it is then pushed.

    Both rules give the same solitons.  Each only removes a run no longer
    than the run after it.  The leftmost such run is never next to the
    leftmost smallest run, since it would then be a leftmost smallest run
    itself.  Removals at runs that are not neighbours commute: each takes
    the front of the run after it and extends the back of the run before
    it, so either takes the same boxes whether the other came first or not,
    and each rule still picks the same run after the other removal.  By
    induction on the number of runs both orders end with the same pairs.
    The walk of an excursion never dips below 0 and ends at 0, so every
    pair finds its boxes inside the excursion and the final zero run
    empties the stack.
    """
    solitons = []
    stack: list[tuple[list[int], int]] = []  # (boxes, index of the first unpaired one)
    pos = 1
    for value, group in groupby(excursion.bits):
        boxes = list(range(pos, pos + len(list(group))))
        pos += len(boxes)
        start = 0
        while stack and len(stack[-1][0]) - stack[-1][1] <= len(boxes) - start:
            top, top_start = stack.pop()
            k = len(top) - top_start
            own = tuple(top[top_start:])
            taken = tuple(boxes[start : start + k])
            start += k
            if value > 0:
                solitons.append(Soliton(k, taken, own))
            else:
                solitons.append(Soliton(k, own, taken))
            if stack:
                below, start_below = stack.pop()
                below.extend(boxes[start:])
                boxes, start = below, start_below
        if start < len(boxes):
            stack.append((boxes, start))
    return tuple(sorted(solitons, key=lambda s: min(s.head[0], s.tail[0])))


def soliton_counts(excursion: Excursion) -> dict[int, int]:
    """Number of k-solitons per size k; sizes with zero count are omitted."""
    counts: dict[int, int] = {}
    for sol in soliton_decompose(excursion):
        counts[sol.k] = counts.get(sol.k, 0) + 1
    return counts


def config_soliton_counts(config: BallConfig) -> dict[int, int]:
    """Soliton counts of a full configuration, accumulated per excursion."""
    # the box left of the window is a record; put it at 0
    _, excs = excursions_of(config.shifted(1 - config.origin))
    counts: dict[int, int] = {}
    for exc_counts in map_distinct(soliton_counts, excs):
        for k, c in exc_counts.items():
            counts[k] = counts.get(k, 0) + c
    return counts


# ---------------------------------------------------------------------------
# two-state chains
# ---------------------------------------------------------------------------

def _as_rng(rng) -> random.Random:
    """``rng`` if it is a ``random.Random``, else a new one seeded with it
    (an int seed, or None for fresh entropy).  ``random`` loads only when a
    sampler asks for a source."""
    import random

    return rng if isinstance(rng, random.Random) else random.Random(rng)


def _bernoulli_chain(lam: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """i.i.d. Bernoulli(lam) boxes as the two-state chain whose rows are both
    ``(1 - lam, lam)``.  Requires ``lam < 1/2`` so the mean excursion length
    stays finite."""
    if not 0 <= lam < 0.5:
        raise PreconditionError("lambda must lie in [0, 1/2)")
    return (1 - lam, lam), (1 - lam, lam)


def _transition_matrix(q_matrix: Sequence[Sequence[float]]) -> list[list[float]]:
    """A two-state transition matrix Q as floats, checked: 2x2, entries in
    [0, 1] (NaN is not), rows summing to 1, Q(0,1) < Q(1,0) (ball density
    below 1/2), and Q(0,0) > 0.  Rows sum to 1 only up to rounding, so
    Q(0,1) < Q(1,0) leaves Q(0,0) = 0 possible; then no two boxes in a row
    are empty, no record follows the first and an excursion never ends."""
    q = [[float(v) for v in row] for row in q_matrix]
    if len(q) != 2 or any(len(row) != 2 for row in q):
        raise ValidationError("transition matrix must be 2x2")
    if not all(0 <= v <= 1 for row in q for v in row):
        raise ValidationError("transition probabilities must lie in [0, 1]")
    if abs(sum(q[0]) - 1) > 1e-12 or abs(sum(q[1]) - 1) > 1e-12:
        raise ValidationError("rows must sum to 1")
    if not q[0][1] < q[1][0]:
        raise PreconditionError("need Q(0,1) < Q(1,0) for density below 1/2")
    if not q[0][0]:
        raise PreconditionError("need Q(0,0) > 0 for a record to follow")
    return q


def _carrier_ratio(chain: Sequence[Sequence[float]]) -> float:
    """``r = Q(1,1) / Q(0,0)`` of a checked chain: the ratio of its slot
    parameters and of its carrier's stationary law, both geometric in the
    load.  Rows that sum to 1 only up to rounding let Q(1,1) reach Q(0,0);
    then neither decays, and the chain is refused."""
    r = chain[1][1] / chain[0][0]
    if not r < 1:
        raise DivergenceError("slot parameters do not decay: need Q(1,1) < Q(0,0)")
    return r


def _mean_record_gap(chain: Sequence[Sequence[float]]) -> float:
    """kappa = (Q(0,1) + Q(1,0)) / (Q(1,0) - Q(0,1)) of a checked chain, the
    mean distance between records: balls have density p = Q(0,1) / (Q(0,1) +
    Q(1,0)), each matched to one empty box, so the records, the empty boxes
    left, have density 1 - 2p = 1 / kappa.  ``measures.mean_record_gap`` of
    the chain's slot fill is the same number."""
    (_, q01), (q10, _) = chain
    return (q01 + q10) / (q10 - q01)


def _chain_weight(chain: Sequence[Sequence[float]]) -> tuple[float, float]:
    """``(a, b)`` of a chain's soliton weights ``alpha_k = a b^k``:
    ``a = Q(0,1)Q(1,0) / (Q(1,1)Q(0,0))`` and ``b = Q(1,1)Q(0,0)``."""
    (q00, q01), (q10, q11) = chain
    return q01 * q10 / (q11 * q00), q11 * q00


def _slot_parameters(chain: Sequence[Sequence[float]]) -> Callable[[int], float]:
    """``k -> q_k``, the slot parameters of a checked chain's Palm measure in
    closed form, 0 for k < 1: ``q_k = q_1 r^(k-1) ((1 - rho r) / (1 - rho
    r^k))^2`` with ``q_1 = a b`` (:func:`_chain_weight`), ``r`` the
    :func:`_carrier_ratio` and ``rho = Q(0,1) / Q(1,0)``
    (``measures.fill_from_weights`` gives the proof).  With Q(1,1) = 0 no two
    balls are adjacent: only 1-solitons exist, and q_1 = Q(0,1) Q(1,0)."""
    (_, q01), (q10, q11) = chain
    if q11 == 0.0:
        q1 = q01 * q10
        return lambda k: q1 if k == 1 else 0.0
    r, rho = _carrier_ratio(chain), q01 / q10
    a, b = _chain_weight(chain)

    def q(k: int) -> float:
        return a * b * r ** (k - 1) * ((1 - rho * r) / (1 - rho * r**k)) ** 2 if k >= 1 else 0.0

    return q


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def catalan_number(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def enumerate_excursions(n: int) -> Iterator[Excursion]:
    """All excursions of half-length n, via the first-return decomposition:
    an up step, an excursion, a down step and an excursion, so each shape is
    one by construction and is not checked again."""

    def paths(m: int) -> Iterator[bytes]:
        if m == 0:
            yield b""
            return
        for i in range(m):
            for inner in paths(i):
                for rest in paths(m - 1 - i):
                    yield b"\x01" + inner + b"\x00" + rest

    for p in paths(n):
        yield _trusted_excursion(p)
