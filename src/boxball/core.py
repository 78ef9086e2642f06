"""Ball configurations, records, carrier dynamics, and soliton identification.

A configuration is a 0/1 occupancy of the integer lattice with finite support,
stored as a window of boxes plus implicit zero padding.  Box contents have one
format everywhere: immutable ``bytes`` of 0s and 1s, checked once by
``_boxes``.  The walk that steps up at occupied boxes and down at empty ones
is only ever read through the carrier (``_loads``), whose load is the walk
minus its running minimum: the boxes it reaches empty are the records, which
split the configuration into finite excursions, and :func:`assemble` lays
excursions out between records again.  The Takahashi-Satsuma algorithm
identifies the conserved solitons of an excursion in one left-to-right pass
over its runs, pairing each run that is no longer than the run after it with
the start of that run.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import accumulate, compress, count, groupby, islice
from operator import attrgetter, eq, gt

from .errors import PreconditionError, ValidationError

BOX_BUDGET = 1 << 22  # the most boxes a few bytes of input may ask to lay out
GAP_BUDGET = 1 << 16  # the most boxes box 0 may lie from a window that is cut

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
# the carrier: loads, records and the image of one sweep
# ---------------------------------------------------------------------------

def _loads(bits: bytes, load: int = 0) -> list[int]:
    """Carrier load before the window and after each of its boxes.

    The carrier enters with ``load`` balls, picks up every ball and drops
    one ball into every empty box it reaches loaded.  Its load is the walk
    minus its running minimum, so the boxes it reaches empty are the records
    inside the window (``loads[i] == loads[i + 1]``), the boxes it fills are
    those where the load drops (``loads[i] > loads[i + 1]``), and
    ``loads[-1]`` balls are left for the boxes right of the window.
    """
    out = [load]
    for b in bits:
        if b:
            load += 1
        elif load:
            load -= 1
        out.append(load)
    return out


def _records(loads: list[int], first: int = 0) -> Iterator[int]:
    """Positions of the records among the boxes whose :func:`_loads` are
    ``loads``, the first box at ``first``: the boxes the carrier reaches and
    leaves empty."""
    return compress(count(first), map(eq, loads, islice(loads, 1, None)))


def record_positions(config: BallConfig) -> tuple[int, ...]:
    """All records in ``[origin - 1, R]`` where R is the first record past the window.

    Every box left of ``origin - 1`` is a record, and so is every box right
    of the last returned position; the returned range is therefore a complete
    description of the record set.
    """
    loads = _loads(config.bits)
    return (config.origin - 1, *_records(loads, config.origin), config.end + loads[-1] + 1)


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------

def evolve(config: BallConfig, steps: int = 1) -> BallConfig:
    """One carrier sweep per step: records stay empty, every other box flips.

    The output window keeps the input origin and grows to the right as far
    as balls travel.
    """
    if steps < 0:
        raise PreconditionError("steps must be >= 0")
    bits = config.bits
    for _ in range(steps):
        loads = _loads(bits)
        bits = bytes(map(gt, loads, islice(loads, 1, None))) + b"\x01" * loads[-1]
    return BallConfig(config.origin, bits)


def carrier_trace(config: BallConfig) -> tuple[int, ...]:
    """Carrier load after visiting each box, starting empty left of the window.

    The trace covers the window and, if the carrier is still loaded at the
    window end, continues until it has deposited everything, so the final
    load is always zero.
    """
    loads = _loads(config.bits)
    return (*islice(loads, 1, None), *range(loads[-1] - 1, -1, -1))


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
        loads = _loads(bits)
        if loads[-1] or next(_records(loads), None) is not None:
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
    shape built once; and the boxes after the last.  The first ``start``
    boxes hold no record (an earlier cut's tail), so the carrier starts
    after them, loaded with their height.
    """
    head = 2 * bits.count(1, 0, start) - start
    records = list(islice(_records(_loads(bits[start:], head), start), limit))
    starts = [0, *(r + 1 for r in records)]
    excursions = map_distinct(Excursion, [bits[a:b] for a, b in zip(starts, records)])
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


def _lay_out(
    excursions: Sequence[Excursion], i_lo: int
) -> tuple[BallConfig, tuple[int, ...]]:
    """The excursions ``i_lo, i_lo + 1, ...`` separated by records, record 0
    at box 0: the boxes from the first record to the last, and the records.

    Excursion ``i_lo + t`` occupies the ``2 n`` boxes after record
    ``i_lo + t``; consecutive records are ``2 n + 1`` apart.
    """
    start = -sum(2 * e.n + 1 for e in excursions[:-i_lo])
    bits = b"\x00".join([b"", *(e.bits for e in excursions), b""])
    records = accumulate((2 * e.n + 1 for e in excursions), initial=start)
    return BallConfig(start, bits), tuple(records)


def assemble(excursions: Sequence[Excursion], i_lo: int = 0) -> AnchoredConfig:
    """Concatenate excursions, separated by records, with record 0 at box 0
    (laid out by :func:`_lay_out`); the window must contain excursion 0."""
    if i_lo > 0 or i_lo + len(excursions) < 1:
        raise PreconditionError("the excursion window must contain index 0")
    config, records = _lay_out(excursions, i_lo)
    return AnchoredConfig(config, i_lo, records)


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
