"""Slot enumeration, slot diagrams, and the excursion <-> diagram bijection.

A k-slot of an excursion is the left record or any head/tail box of depth at
least k inside a strictly larger soliton.  The slot diagram of an excursion
records, per size k, how many k-solitons are appended to (lie strictly
between) consecutive k-slots.  Diagrams of consecutive excursions concatenate
row-wise into the component array of a full configuration.

Both directions of the bijection rest on one number per box, its depth:
box i of either half of a soliton has depth i, the left record depth M, and
a box of depth d is a k-slot for every k = 1 .. d.  Both therefore read all
levels in one pass in position order, in O(n + sum_k s_k) with no sort or
bisection.  Excursion -> diagram runs Takahashi-Satsuma once, gives each
box its depth and each soliton's leftmost box the soliton's size, and
counts every k-soliton at the last k-slot before it.  Diagram -> excursion
walks the tree of insertions (slot box -> solitons inserted right after
it) depth first, reading each box's insertions off the rows as the walk
reaches it, and emits the bits in that one traversal.

A configuration, and a Palm sample above all, repeats most of its
excursions, so :func:`decompose` and :func:`palm_components` compute one
diagram per distinct excursion (``core.map_distinct`` over their bits) and
lay the component rows out level by level: row k only over the diagrams
that have a row k, whose indices are filtered from those of row k - 1, the
zero runs between them filled in bulk.  :func:`palm_components` reads the
component array of an i.i.d. excursion sample straight off the excursions,
without assembling them into a configuration first.  :func:`reconstruct`
trims an array once and splits it back into diagrams the same way, top down
on each side of label 0, counting exactly the boxes and diagram entries it
lays out; it rebuilds each distinct diagram once and lays the excursions out
with ``core._lay_out``, as ``core.assemble`` does, without the records.

Slot diagrams are validated at the boundary: ``SlotDiagram(rows)`` and
``from_doc``, which reads a parsed JSON document, check the rows, while the
decomposition, the sampler, the array reader and reflection build them
consistent through ``_trusted_diagram``.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Iterable, Mapping, Sequence
from itertools import chain, compress, count, repeat
from operator import add, attrgetter, gt, itemgetter, mul, sub

from .core import (
    BOX_BUDGET,
    BallConfig,
    Excursion,
    Soliton,
    _check_budget,
    _lay_out,
    _set,
    _trusted_excursion,
    _Value,
    excursions_of,
    map_distinct,
    soliton_decompose,
)
from .errors import PreconditionError, ValidationError


# ---------------------------------------------------------------------------
# slot diagrams
# ---------------------------------------------------------------------------

def next_slot_count(s_above: int, above: int) -> int:
    """s_k from s_{k+1} and the number ``above`` of solitons larger than k.

    Each l-soliton adds ``2 (l - k)`` k-slots to the record's one, so
    ``s_k = 1 + sum_{l>k} 2 (l - k) n_l``: ``s_M = 1`` and
    ``s_k = s_{k+1} + 2 sum_{l>k} n_l``.  Every slot count is taken here.
    """
    return s_above + 2 * above


def slot_rows(
    top: int, m: int, row: Callable[[int, int], tuple[int, ...]]
) -> tuple[tuple[int, ...], ...]:
    """Rows 1 .. m of a slot diagram whose top row is ``(top,)``, built
    top-down: row k is ``row(k, s_k)``, asked for once the rows above it fix
    its slot count s_k."""
    rows = [(top,)]
    s_k = 1
    above = top  # solitons larger than the next row's size
    for k in range(m - 1, 0, -1):
        s_k = next_slot_count(s_k, above)
        rows.append(row(k, s_k))
        above += sum(rows[-1])
    rows.reverse()
    return tuple(rows)


class SlotDiagram(_Value):
    """Rows ``rows[k - 1] = (x_k(0), ..., x_k(s_k - 1))`` for k = 1 .. M.

    Rows above M are implicit: one slot, zero solitons.  The empty diagram
    has no rows.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], ...] = ()):
        rows = tuple(tuple(r) for r in rows)
        _set(self, "rows", rows)
        if any(v < 0 or v != int(v) for row in rows for v in row):
            raise ValidationError("slot counts must be nonnegative integers")
        if not rows:
            return
        if len(rows[-1]) != 1 or rows[-1][0] <= 0:
            raise ValidationError(
                "top row must be a single positive count (maximal size attained)"
            )

        def checked(k: int, s_k: int) -> tuple[int, ...]:
            if len(rows[k - 1]) != s_k:
                raise ValidationError(
                    f"row {k} has {len(rows[k - 1])} slots, consistency requires {s_k}"
                )
            return rows[k - 1]

        slot_rows(rows[-1][0], len(rows), checked)

    @property
    def max_size(self) -> int:
        """Largest soliton size M; 0 for the empty diagram."""
        return len(self.rows)

    def slot_count(self, k: int) -> int:
        """s_k: number of k-slots (1 for every k >= M)."""
        if k > len(self.rows):
            return 1
        return len(self.rows[k - 1])

    def solitons(self, k: int) -> int:
        """Total number of k-solitons encoded."""
        if k > len(self.rows):
            return 0
        return sum(self.rows[k - 1])

    @property
    def half_length(self) -> int:
        """n of the encoded excursion."""
        return sum(k * sum(row) for k, row in enumerate(self.rows, start=1))

    def reflected(self) -> SlotDiagram:
        """Reverse every row (the diagram of the mirrored excursion)."""
        return _trusted_diagram(tuple(r[::-1] for r in self.rows))

    def to_doc(self) -> dict:
        """The JSON document ``{"M": M, "rows": [[...], ...]}`` as a dict."""
        return {"M": self.max_size, "rows": [list(r) for r in self.rows]}

    @classmethod
    def from_doc(cls, doc) -> SlotDiagram:
        """From parsed JSON ``{"M": M, "rows": [[...], ...]}`` (``M`` optional):
        a validated diagram whose excursion fits in ``BOX_BUDGET`` boxes."""
        if not isinstance(doc, dict) or not isinstance(doc.get("rows"), list):
            raise ValidationError("bad slot diagram JSON: expected an object with a list of rows")
        diagram = cls(tuple(_json_ints(row) for row in doc["rows"]))
        if "M" in doc and _json_int(doc["M"]) != diagram.max_size:
            raise ValidationError("declared M does not match rows")
        _check_budget(2 * diagram.half_length + 1, "the slot diagram encodes")
        return diagram


EMPTY_DIAGRAM = SlotDiagram()


def _trusted_diagram(rows: tuple[tuple[int, ...], ...]) -> SlotDiagram:
    """A diagram from int rows consistent by construction, left unchecked."""
    diagram = object.__new__(SlotDiagram)
    _set(diagram, "rows", rows)
    return diagram


# ---------------------------------------------------------------------------
# slots of an excursion
# ---------------------------------------------------------------------------

def _read_excursion(
    excursion: Excursion,
) -> tuple[tuple[Soliton, ...], list[list[int]], SlotDiagram]:
    """``(solitons, slots, diagram)`` of an excursion: ``slots[k - 1]`` lists
    the k-slot positions for k = 1 .. M, left record first.

    The mirror of :func:`excursion_from_diagram`: box i of either half of a
    soliton has depth i and the left record depth M, so one pass in position
    order reads every level at once.  A box of depth d opens a new slot, with
    no solitons yet, on rows 1 .. d, and the leftmost box of a k-soliton
    counts it at the last k-slot opened.  On top of one Takahashi-Satsuma
    pass this costs O(n + sum_k s_k), with no sort or bisection.
    """
    solitons = soliton_decompose(excursion)
    M = max((sol.k for sol in solitons), default=0)
    depth = [0] * (len(excursion.bits) + 1)
    starts = depth[:]  # size of the soliton whose leftmost box is here
    depth[0] = M
    for sol in solitons:
        for i in range(1, sol.k):
            depth[sol.head[i]] = depth[sol.tail[i]] = i
        starts[min(sol.head[0], sol.tail[0])] = sol.k
    rows: list[list[int]] = [[] for _ in range(M)]
    slots: list[list[int]] = [[] for _ in range(M)]
    for p, d in enumerate(depth):
        if d:
            for k in range(d):
                rows[k].append(0)
                slots[k].append(p)
        elif starts[p]:
            rows[starts[p] - 1][-1] += 1
    return solitons, slots, _trusted_diagram(tuple(map(tuple, rows)))


def slot_positions(excursion: Excursion, k: int) -> tuple[int, ...]:
    """Positions of k-slots, left record first (position 0)."""
    if k < 1:
        raise PreconditionError("k must be >= 1")
    slots = _read_excursion(excursion)[1]
    return tuple(slots[k - 1]) if k <= len(slots) else (0,)


def diagram_from_excursion(excursion: Excursion) -> SlotDiagram:
    """Slot diagram encoding an excursion: per size k, the k-solitons
    appended to each k-slot.

    Read off the depth of each box and the size of the soliton that starts
    there (:func:`_read_excursion`), in O(n + sum_k s_k) on top of the
    decomposition.
    """
    return _read_excursion(excursion)[2]


# ---------------------------------------------------------------------------
# building excursions from diagrams
# ---------------------------------------------------------------------------

def excursion_from_diagram(diagram: SlotDiagram) -> Excursion:
    """Inverse of :func:`diagram_from_excursion`: the tree of insertions,
    walked depth first as it is read off the rows.

    Top-down, the diagram inserts ``x_k(j)`` k-solitons right after the
    j-th k-slot.  A soliton inserted after a box holding b reads
    ``(1 - b)^k b^k``, the i-th box of each half having depth i, and a later
    (smaller) insertion at the same box goes before the earlier ones.  Later
    insertions never reorder earlier boxes, so the k-slots of the finished
    excursion, in position order, are the k-slots as they stood at level k.
    One traversal in position order therefore builds and emits the tree at
    once: each box of depth d, when reached, takes the next entry of rows
    1 .. d as the numbers of solitons inserted right after it, smallest size
    first.  No coordinate is stored or shifted; the cost is O(n + sum_k s_k).
    Every :class:`SlotDiagram` is consistent, so each row is read to its
    end, and the bits are an excursion by construction, not checked again.
    """
    rows = diagram.rows
    read = [0] * len(rows)  # entries consumed per row
    # (bit, depth) of the boxes still to emit, next one last; the left record
    # comes first, as an empty slot of every level
    pending = [(0, len(rows))]
    bits = bytearray()
    while pending:
        b, depth = pending.pop()
        bits.append(b)
        for k in range(depth, 0, -1):  # pushed largest first, so emitted smallest first
            j = read[k - 1]
            read[k - 1] = j + 1
            count = rows[k - 1][j]
            if count:
                half = range(k - 1, -1, -1)
                pending += ([(b, i) for i in half] + [(1 - b, i) for i in half]) * count
    return _trusted_excursion(bytes(bits[1:]))


def insert_soliton(config: BallConfig, k: int, j: int) -> BallConfig:
    """Insert one k-soliton at k-slot j of a configuration with no smaller solitons.

    The configuration is read as an excursion whose left record sits at
    ``origin - 1``.
    """
    if k < 1:
        raise PreconditionError("k must be >= 1")
    try:
        exc = Excursion(config.bits)
    except ValidationError as e:
        raise PreconditionError(f"window is not an excursion image: {e}") from e
    solitons, slots, _ = _read_excursion(exc)
    if any(s.k < k for s in solitons):
        raise PreconditionError(f"configuration contains solitons smaller than {k}")
    pos = slots[k - 1] if k <= len(slots) else [0]
    if not 0 <= j < len(pos):
        raise PreconditionError(f"slot index {j} out of range (s_k = {len(pos)})")
    u = pos[j]
    val = config.bits[u - 1] if u >= 1 else 0
    soliton = bytes((1 - val,)) * k + bytes((val,)) * k
    return BallConfig(config.origin, config.bits[:u] + soliton + config.bits[u:])


# ---------------------------------------------------------------------------
# component arrays
# ---------------------------------------------------------------------------

class ComponentArray(_Value):
    """Windowed rows ``row k = (offset, values)``: values[j] counts k-solitons
    appended to k-slot ``offset + j`` of a configuration; zero outside.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[tuple[int, int, Sequence[int]]] = ()):
        rows = tuple(sorted((k, off, tuple(values)) for k, off, values in rows))
        sizes = [k for k, _, _ in rows]
        if min(sizes, default=1) < 1 or len(set(sizes)) < len(sizes):
            raise ValidationError("rows must have distinct sizes k >= 1")
        if any(values and min(values) < 0 for _, _, values in rows):
            raise ValidationError("component counts must be >= 0")
        _set(self, "rows", rows)

    @classmethod
    def from_dict(cls, data: Mapping[int, tuple[int, Sequence[int]]]) -> ComponentArray:
        return cls((k, off, vals) for k, (off, vals) in data.items())

    def sizes(self) -> tuple[int, ...]:
        return tuple(k for k, _, _ in self.rows)

    def row(self, k: int) -> tuple[int, tuple[int, ...]]:
        for kk, off, values in self.rows:
            if kk == k:
                return off, values
        return 0, ()

    def trimmed(self) -> ComponentArray:
        """Drop zero rows and strip leading/trailing zeros of each row."""
        rows = []
        for k, off, values in self.rows:
            first = next(compress(count(), values), None)  # first nonzero entry
            if first is None:
                continue
            end = len(values) - next(compress(count(), reversed(values)))
            rows.append((k, off + first, tuple(values[first:end])))
        return _trusted_components(tuple(rows))

    def same_as(self, other: ComponentArray) -> bool:
        """Equality up to zero padding."""
        return self.trimmed() == other.trimmed()

    def to_doc(self) -> dict:
        """The JSON document ``{"k": {"offset": ..., "values": [...]}, ...}``
        as a dict."""
        return {str(k): {"offset": off, "values": list(vals)} for k, off, vals in self.rows}

    @classmethod
    def from_doc(cls, doc) -> ComponentArray:
        """From parsed JSON ``{"k": {"offset": ..., "values": [...]}, ...}``."""
        if not isinstance(doc, dict) or not all(
            isinstance(row, dict) and {"offset", "values"} <= row.keys() for row in doc.values()
        ):
            raise ValidationError("bad component array JSON: expected an object of rows")
        try:
            rows = tuple(
                (int(k), _json_int(row["offset"]), _json_ints(row["values"]))
                for k, row in doc.items()
            )
        except ValueError as exc:  # a size that is not an integer
            raise ValidationError(f"bad component array JSON: {exc}") from exc
        if any(str(k) != key for key, (k, _, _) in zip(doc, rows)):  # "01", "1_0", "+1" ...
            raise ValidationError("bad component array JSON: sizes must be plain integers")
        return cls(rows)


def _trusted_components(rows: tuple[tuple[int, int, tuple[int, ...]], ...]) -> ComponentArray:
    """A component array from rows of distinct sizes k >= 1 in increasing
    order and nonnegative counts, consistent by construction, left unchecked."""
    components = object.__new__(ComponentArray)
    _set(components, "rows", rows)
    return components


def _json_int(value) -> int:
    """A JSON integer as given: bools, floats and strings are refused, not cast."""
    if type(value) is not int:
        raise ValidationError(f"expected an integer, got {type(value).__name__}")
    return value


def _json_ints(value) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise ValidationError(f"expected a list of integers, got {type(value).__name__}")
    if not set(map(type, value)) <= {int}:
        for v in value:  # name the first entry that is not an int
            _json_int(v)
    return tuple(value)


def concat_diagrams(
    diagrams: Sequence[SlotDiagram], i_lo: int = 0
) -> ComponentArray:
    """Join the rows of consecutive slot diagrams into one component array.

    Diagram ``i_lo + t`` occupies, on row k, the ``s_k`` labels starting at
    the cumulative slot count of its predecessors; diagram 0 starts at label
    0.  Empty diagrams, including those implicit outside the window, consume
    one label per row.  Row k is laid out level by level over the diagrams
    that have a row k, their indices filtered from those of level k - 1:
    each of their rows k in index order, after a run of zeros, one per
    diagram between it and the previous one, which has no row k.
    """
    n = len(diagrams)
    shapes = list(map(attrgetter("rows"), diagrams))
    sizes = list(map(len, shapes))
    # labels left of label 0 on each row: the diagrams of negative index
    # (past the window: the implicit empties between it and index 0)
    negative = min(max(-i_lo, 0), n)
    past = max(0, -(i_lo + n))
    index: Sequence[int] = range(n)  # the diagrams with a row k
    rows = []
    for k in range(max(sizes, default=0)):
        index = list(compress(index, map(gt, map(sizes.__getitem__, index), repeat(k))))
        row_k = list(map(itemgetter(k), map(shapes.__getitem__, index)))
        gaps = map(sub, index, chain((0,), map(add, index, repeat(1))))
        runs = zip(map(mul, repeat((0,)), gaps), row_k)
        values = (*chain.from_iterable(chain.from_iterable(runs)), *(0,) * (n - 1 - index[-1]))
        if i_lo > 0:
            offset = i_lo  # implicit empties at 0 .. i_lo - 1
        else:
            below = bisect_left(index, negative)  # rows k of negative index
            offset = below - negative - past - sum(map(len, row_k[:below]))
        rows.append((k + 1, offset, values))
    return _trusted_components(tuple(rows))


def _spend(room: int, n: int) -> int:
    """``room`` less ``n`` boxes or diagram entries, or the refusal."""
    if n > room:
        raise PreconditionError(f"the component array asks for more than {BOX_BUDGET} "
                                "boxes and diagram entries")
    return room - n


def _read_diagrams(
    lines: Mapping[int, tuple[int, tuple[int, ...]]], room: int
) -> tuple[list[SlotDiagram], int]:
    """Split the labels 0, 1, ... of rows ``lines[k] = (first, values)`` into
    consecutive diagrams up to the last nonempty one, top down over k as
    :func:`concat_diagrams` lays them out; also the ``room`` left.

    At level k the diagrams with solitons above k take their s_k labels of
    row k in index order, every other one a label, and a nonzero entry at a
    one-label position opens a diagram whose top row it is.  A level's
    entries are spent before they are cut, the record boxes and top rows
    before the list is laid out, in O(entries of ``lines`` + entries cut).
    """
    diagrams: list[list] = []  # [index, s_k, solitons above k, rows] in index order
    top = max((k for k, (first, values) in lines.items() if first + len(values) > 0), default=0)
    for k in range(top, 0, -1):
        first, values = lines.get(k, (0, ()))

        def opened(label: int, index: int, stop: int) -> Iterable[list]:
            # a diagram per nonzero entry at one-label positions label .. stop - 1
            lo = max(label - first, 0)
            part = values[lo : max(stop - first, lo)]
            for p, v in zip(compress(count(first + lo), part), filter(None, part)):
                yield [index + p - label, 1, v, [(v,)]]

        for d in diagrams:
            d[1] = next_slot_count(d[1], d[2])
        room = _spend(room, sum(map(itemgetter(1), diagrams)))
        level, label, index = [], 0, 0  # and the next one-label position, its diagram
        for d in diagrams:
            start = label + d[0] - index  # d's first label on row k
            level += opened(label, index, start)
            lo, s = start - first, d[1]
            row = (0,) * min(-lo, s) + values[max(lo, 0) : max(lo + s, 0)]
            row += (0,) * (s - len(row))
            d[2] += sum(row)
            d[3].append(row)
            level.append(d)
            label, index = start + s, d[0] + 1
        diagrams = level + list(opened(label, index, first + len(values)))
    n = diagrams[-1][0] + 1 if diagrams else 0
    room = _spend(room, n + len(diagrams))  # the record boxes and top rows
    out = [EMPTY_DIAGRAM] * n
    for i, _, _, rows in diagrams:
        out[i] = _trusted_diagram(tuple(reversed(rows)))
    return out, room


def diagrams_from_components(
    components: ComponentArray,
) -> tuple[int, tuple[SlotDiagram, ...]]:
    """Split a component array back into per-excursion slot diagrams.

    Each side of label 0 of the trimmed array is split level by level
    (:func:`_read_diagrams`), the left one on the array reflected about
    label -1/2 and each diagram there reflected back.  The boxes and diagram
    entries are counted exactly, and an array that asks for more than
    :data:`core.BOX_BUDGET` of them is refused before they are laid out.
    Returns ``(i_lo, diagrams)`` covering every diagram that consumes a
    nonzero entry; all others are empty.
    """
    rows = components.trimmed().rows
    # the solitons' boxes and the closing record; each side spends the rest
    room = _spend(BOX_BUDGET, 1 + sum(2 * k * sum(v) for k, _, v in rows))
    left, room = _read_diagrams({k: (-off - len(v), v[::-1]) for k, off, v in rows}, room)
    right = _read_diagrams({k: (off, v) for k, off, v in rows}, room)[0]
    return -len(left), (*(d.reflected() for d in reversed(left)), *right)


# ---------------------------------------------------------------------------
# full configurations
# ---------------------------------------------------------------------------

def decompose(config: BallConfig) -> ComponentArray:
    """Component array of a configuration with a record at box 0.

    Computed exactly as defined: per-excursion slot diagrams, concatenated,
    with one diagram per distinct excursion.
    """
    i_lo, excs = excursions_of(config)
    return concat_diagrams(_diagrams_of(excs), i_lo)


def _diagrams_of(excursions: Iterable[Excursion]) -> list[SlotDiagram]:
    """The slot diagram of each excursion, computed once per distinct one.

    Keyed by the bits, whose hash ``bytes`` computes in C and caches, so no
    Python-level ``Excursion.__hash__`` runs per excursion; equal excursions
    share a diagram whether or not they are one object.
    """
    return map_distinct(_diagram_of_bits, map(attrgetter("bits"), excursions))


def _diagram_of_bits(bits: bytes) -> SlotDiagram:
    return diagram_from_excursion(_trusted_excursion(bits))


def palm_components(excursions: Sequence[Excursion]) -> ComponentArray:
    """Component array of the excursions laid end to end from record 0.

    Equal to ``decompose(assemble(excursions, 0).config)``, window included
    (an empty diagram at index -1 and one after the last excursion), but
    read straight off the excursions, one diagram per distinct one, without
    building the configuration and cutting it up again.
    """
    if not excursions:
        raise PreconditionError("the excursion window must contain index 0")
    return concat_diagrams([EMPTY_DIAGRAM, *_diagrams_of(excursions), EMPTY_DIAGRAM], -1)


def reconstruct(components: ComponentArray) -> BallConfig:
    """Configuration with record 0 at the origin whose decomposition is given.

    Inverse of :func:`decompose` up to zero padding of the array window: the
    diagrams of :func:`diagrams_from_components`, which refuses an array past
    :data:`core.BOX_BUDGET` before any is built, each distinct one rebuilt once.
    """
    i_lo, diagrams = diagrams_from_components(components)
    return _lay_out(map_distinct(excursion_from_diagram, diagrams), i_lo)
