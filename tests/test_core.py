import copy
import pickle
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from boxball import (
    BallConfig,
    Excursion,
    PreconditionError,
    ValidationError,
    carrier_trace,
    catalan_number,
    config_soliton_counts,
    enumerate_excursions,
    evolve,
    excursions_of,
    record_positions,
    soliton_counts,
    soliton_decompose,
)
from boxball.core import BOX_BUDGET, GAP_BUDGET, AnchoredConfig, Soliton, _cut, assemble, map_distinct
from boxball.measures import GeometricLaw, GeometricTail, SeriesResult, SlotFill, SolitonWeights
from boxball.slots import ComponentArray, SlotDiagram, _trusted_diagram
from boxball.stats import GofReport, ShiftReport

import oracles

CARRIER_INPUT = "01101011010001111010000"
CARRIER_LOAD = "01212123232101234343210"
CARRIER_OUTPUT = "00010100101110000101111"

# excursion of the sample decomposition figure, rebuilt from its slot diagram
FIG_EXCURSION = "1110110010110000"


configs = st.builds(
    BallConfig,
    origin=st.integers(-8, 8),
    bits=st.lists(st.integers(0, 1), max_size=40).map(tuple),
)


# ---------------------------------------------------------------------------
# configurations
# ---------------------------------------------------------------------------

@given(st.text("01", max_size=60), st.integers(-8, 8))
def test_string_round_trip(text, origin):
    cfg = BallConfig.from_string(text, origin)
    assert cfg.to_string() == text
    assert cfg.bits == bytes(int(c) for c in text)


def test_from_string_rejects_other_characters():
    with pytest.raises(ValidationError):
        BallConfig.from_string("0120")
    with pytest.raises(ValidationError):
        BallConfig(1, (0, 2))


@pytest.mark.parametrize(
    "contents",
    [5, "101", b"\x00\x02", (1, -1), (1, 256), (1.0, 0), [None], np.array([True, False])],
)
def test_box_contents_other_than_0_1_are_refused(contents):
    # an int is not a length, a str is not a ball string, and a numpy array
    # is read by its values, never through the buffer protocol
    with pytest.raises(ValidationError):
        BallConfig(1, contents)
    with pytest.raises(ValidationError):
        Excursion(contents)


def test_box_contents_are_bytes_whatever_the_iterable():
    want = BallConfig(1, b"\x01\x00\x01")
    for contents in ((1, 0, 1), [1, 0, 1], bytearray(b"\x01\x00\x01"), np.array([1, 0, 1])):
        cfg = BallConfig(1, contents)
        assert cfg == want and type(cfg.bits) is bytes
    assert Excursion(np.array([1, 0])) == Excursion.from_string("10")


@given(configs, st.integers(-12, 50), st.integers(0, 60))
def test_segment_reads_boxes_with_zero_padding(cfg, lo, size):
    hi = lo + size
    assert cfg.segment(lo, hi) == bytes(cfg.occupied(z) for z in range(lo, hi))


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

def test_records_empty_config():
    assert record_positions(BallConfig(1, ())) == (0, 1)


def test_records_two_soliton_block():
    cfg = BallConfig.from_string("1100", origin=1)
    recs = record_positions(cfg)
    assert recs == (0, 5)


def test_records_single_excursion_figure():
    cfg = BallConfig.from_string(FIG_EXCURSION)
    recs = record_positions(cfg)
    assert recs == (0, 17)  # one excursion between two records


@given(configs)
def test_records_match_naive_scan(cfg):
    assert list(record_positions(cfg)) == oracles.naive_records(
        list(cfg.bits), cfg.origin
    )


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------

def test_evolve_carrier_example():
    cfg = BallConfig.from_string(CARRIER_INPUT)
    assert evolve(cfg).to_string() == CARRIER_OUTPUT


def test_evolve_empty_fixed_point():
    assert evolve(BallConfig(1, ())) == BallConfig(1, ())


def test_evolve_free_soliton_speed():
    cfg = BallConfig.from_string("1100000000")
    for t in range(1, 4):
        cfg = evolve(cfg)
        assert cfg.trimmed().ball_boxes() == (1 + 2 * t, 2 + 2 * t)


@given(configs)
def test_evolve_matches_naive(cfg):
    origin, bits = oracles.naive_evolve(list(cfg.bits), cfg.origin)
    assert evolve(cfg) == BallConfig(origin, tuple(bits))


@given(configs)
def test_records_stay_empty_after_evolve(cfg):
    out = evolve(cfg)
    for r in record_positions(cfg):
        assert cfg.occupied(r) == 0
        assert out.occupied(r) == 0


@given(configs)
def test_balls_balance_between_records(cfg):
    recs = record_positions(cfg)
    for a, b in zip(recs, recs[1:]):
        segment = [cfg.occupied(z) for z in range(a + 1, b)]
        assert sum(segment) * 2 == len(segment)


def test_carrier_trace_example():
    trace = carrier_trace(BallConfig.from_string(CARRIER_INPUT))
    assert "".join(map(str, trace)) == CARRIER_LOAD


def test_carrier_trace_small_cases():
    assert carrier_trace(BallConfig.from_string("1100")) == (1, 2, 1, 0)
    assert carrier_trace(BallConfig(1, (0, 0))) == (0, 0)


@given(configs)
def test_carrier_trace_matches_naive(cfg):
    assert list(carrier_trace(cfg)) == oracles.naive_carrier(list(cfg.bits))


@given(configs)
def test_carrier_trace_ends_empty(cfg):
    trace = carrier_trace(cfg)
    assert not trace or trace[-1] == 0


@given(configs)
def test_soliton_conservation(cfg):
    assert config_soliton_counts(cfg) == config_soliton_counts(evolve(cfg))


def test_largest_soliton_is_highest_walk_height_exhaustive():
    # every excursion up to n = 9 also matches the rescanning oracle, order
    # included; ordering the solitons by head instead changes 351 of them
    for n in range(10):
        for exc in enumerate_excursions(n):
            got = [(s.k, s.head, s.tail) for s in soliton_decompose(exc)]
            assert got == oracles.naive_solitons(list(exc.bits))
            heights = accumulate((2 * b - 1 for b in exc.bits), initial=0)
            assert max(soliton_counts(exc), default=0) == max(heights)


@given(configs)
def test_largest_soliton_is_highest_carrier_load(cfg):
    assert max(config_soliton_counts(cfg), default=0) == max(carrier_trace(cfg), default=0)


# ---------------------------------------------------------------------------
# soliton identification
# ---------------------------------------------------------------------------

@given(st.lists(st.sampled_from(["", "10", "1100", "1010", FIG_EXCURSION]), max_size=12))
def test_map_distinct_calls_once_per_distinct_excursion(texts):
    excs = [Excursion.from_string(t) for t in texts]
    calls = []

    def counted(exc):
        calls.append(exc.bits)
        return soliton_counts(exc)

    assert map_distinct(counted, excs) == [soliton_counts(e) for e in excs]
    assert sorted(calls) == sorted({e.bits for e in excs})


def test_empty_excursion_has_no_solitons():
    assert soliton_decompose(Excursion()) == ()
    assert soliton_counts(Excursion()) == {}


def test_pure_run_pair_is_one_soliton():
    sols = soliton_decompose(Excursion.from_string("111000"))
    assert len(sols) == 1
    assert sols[0].k == 3
    assert sols[0].head == (1, 2, 3) and sols[0].tail == (4, 5, 6)


def test_figure_decomposition():
    counts = soliton_counts(Excursion.from_string(FIG_EXCURSION))
    assert counts == {1: 2, 2: 1, 4: 1}


def test_worked_example_counts():
    worked = "10101011101010101001001100111010100010"
    assert soliton_counts(Excursion.from_string(worked)) == {1: 11, 2: 1, 3: 2}


def test_soliton_head_tail_values():
    for string in ("110100", "10", FIG_EXCURSION, "1011001100"):
        exc = Excursion.from_string(string)
        for sol in soliton_decompose(exc):
            assert all(exc.bits[h - 1] == 1 for h in sol.head)
            assert all(exc.bits[t - 1] == 0 for t in sol.tail)
            assert max(sol.head) < min(sol.tail) or max(sol.tail) < min(sol.head)


excursions_medium = st.integers(0, 6).flatmap(
    lambda n: st.sampled_from(
        [Excursion(bytes((s + 1) // 2 for s in p)) for p in oracles.dyck_paths(n)]
    )
)


def _dyck(steps):
    """The steps, each one that would dip below 0 turned up, closed by downs."""
    out, h = [], 0
    for s in steps:
        s = s if h else 1
        h += s
        out.append(s)
    return Excursion(bytes((s + 1) // 2 for s in out) + bytes(h))


staircases = st.integers(1, 20).flatmap(
    lambda a: st.integers(0, a).flatmap(
        lambda b: st.sampled_from(
            [
                Excursion.from_string("1" * a + "01" * b + "0" * a),
                Excursion.from_string("1" * a + "0" * b + "1" * b + "0" * a),
            ]
        )
    )
)


@given(
    st.one_of(
        excursions_medium,
        st.lists(st.sampled_from([1, -1]), max_size=60).map(_dyck),
        staircases,
    )
)
def test_decomposition_matches_naive(exc):
    got = [(s.k, s.head, s.tail) for s in soliton_decompose(exc)]
    assert got == oracles.naive_solitons(list(exc.bits))


@given(excursions_medium)
def test_supports_partition_excursion_boxes(exc):
    boxes = sorted(b for s in soliton_decompose(exc) for b in s.support())
    assert boxes == list(range(1, 2 * exc.n + 1))
    assert sum(2 * s.k for s in soliton_decompose(exc)) == 2 * exc.n


@given(excursions_medium, st.integers(0, 3), st.integers(0, 3))
def test_decomposition_padding_invariant(exc, left, right):
    padded = BallConfig(1, bytes(left) + exc.bits + bytes(right))
    base, excs = excursions_of(padded)
    nonempty = [e for e in excs if e.n]
    assert [e.bits for e in nonempty] in ([exc.bits], [])
    if nonempty:
        assert soliton_counts(nonempty[0]) == soliton_counts(exc)


def test_all_excursions_counted_by_catalan():
    for n in range(9):
        assert sum(1 for _ in enumerate_excursions(n)) == catalan_number(n)


def test_enumerated_excursions_are_the_dyck_paths_in_order():
    # the enumeration builds its shapes unchecked: each must pass the check
    for n in range(10):
        shapes = list(enumerate_excursions(n))
        assert [tuple(2 * b - 1 for b in e.bits) for e in shapes] == list(oracles.dyck_paths(n))
        assert all(e == Excursion(e.bits) for e in shapes)


def test_excursion_validation():
    with pytest.raises(ValidationError):
        Excursion((1, 0, 0, 1))  # a record inside
    with pytest.raises(ValidationError):
        Excursion((1,))  # the carrier leaves loaded
    with pytest.raises(ValidationError):
        Excursion.from_string("0")
    with pytest.raises(ValidationError):
        Excursion((1, -1))  # +/-1 steps are not box contents
    with pytest.raises(ValidationError):
        Excursion.from_string("1x0")


def test_excursions_of_requires_record_at_origin():
    with pytest.raises(PreconditionError):
        excursions_of(BallConfig(0, (1, 1, 0, 0)))


@given(configs)
def test_excursions_of_cuts_at_naive_records(cfg):
    recs = oracles.naive_records(list(cfg.bits), cfg.origin)
    # every box left of the window, and right of the last returned record, is a record
    recs = [*range(0, recs[0]), *recs, *range(recs[-1] + 1, 1)]
    if 0 not in recs:
        with pytest.raises(PreconditionError):
            excursions_of(cfg)
        return
    i_lo, excs = excursions_of(cfg)
    assert i_lo == -sum(1 for r in recs if r < 0)
    assert [e.bits for e in excs] == [
        bytes(cfg.occupied(z) for z in range(a + 1, b)) for a, b in zip(recs, recs[1:])
    ]


@given(st.binary(max_size=60).map(lambda b: bytes(v & 1 for v in b)), st.data())
def test_cut_in_pieces_is_one_cut(bits, data):
    """Cutting a prefix, then its tail plus the rest (``start`` past the
    tail), finds the records and excursions of one cut; ``limit`` keeps the
    first ones."""
    records, excursions, tail = _cut(bits)
    split = data.draw(st.integers(0, len(bits)))
    first, first_excursions, first_tail = _cut(bits[:split])
    rest, rest_excursions, rest_tail = _cut(first_tail + bits[split:], None, len(first_tail))
    offset = split - len(first_tail)
    assert first + [offset + r for r in rest] == records
    assert first_excursions + rest_excursions == excursions
    assert rest_tail == tail
    assert [e.bits for e in excursions] == [
        bits[a + 1 : b] for a, b in zip([-1, *records], records)
    ]
    limit = data.draw(st.integers(0, len(records)))
    assert _cut(bits, limit)[:2] == (records[:limit], excursions[:limit])


def test_excursions_of_refuses_box_0_far_from_the_window():
    for cfg in (
        BallConfig(BOX_BUDGET + 1, (1, 0)),
        BallConfig(-BOX_BUDGET - 1, (1,)),
        BallConfig(GAP_BUDGET + 1, (1, 0)),
        BallConfig(-GAP_BUDGET - 1, (1,)),
    ):
        with pytest.raises(PreconditionError):
            excursions_of(cfg)
    # at the bound, each record from box 0 to the window starts one empty excursion
    i_lo, excs = excursions_of(BallConfig(GAP_BUDGET, (1, 0)))
    assert (i_lo, len(excs)) == (0, GAP_BUDGET)
    assert [e.ball_string() for e in excs if e.n] == ["10"]
    # soliton counts do not depend on where the window sits
    assert config_soliton_counts(BallConfig(10 * BOX_BUDGET, (1, 1, 0, 1))) == {1: 1, 2: 1}


def test_excursions_of_splits_blocks():
    cfg = BallConfig.from_string("10001100")
    i_lo, excs = excursions_of(cfg)
    assert i_lo == 0
    assert [e.ball_string() for e in excs] == ["10", "", "1100"]


def test_excursions_of_window_left_of_origin():
    cfg = BallConfig(-6, (1, 0))
    i_lo, excs = excursions_of(cfg)
    assert i_lo < 0
    assert [e.ball_string() for e in excs if e.n] == ["10"]


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------

def _values():
    """One value of every value type, with its fields in declaration order."""
    anchored = assemble([Excursion.from_string("10")])
    assert type(anchored) is AnchoredConfig
    tail = GeometricTail(coef=0.5, ratio=0.25, partition=2.0, fill_ratio=0.5)
    return [
        (BallConfig(3, b"\x01\x00\x01"), ("origin", "bits")),
        (Excursion.from_string("1100"), ("bits",)),
        (anchored, ("config", "i_lo", "records")),
        (Soliton(1, (1,), (2,)), ("k", "head", "tail")),
        (SlotDiagram(((1,),)), ("rows",)),
        (ComponentArray(((1, 0, (1, 2)),)), ("rows",)),
        (GeometricLaw(0.25), ("p",)),
        (tail, ("coef", "ratio", "partition", "fill_ratio")),
        (SolitonWeights((0.2, 0.1), tail), ("head", "tail")),
        (SlotFill((0.3,)), ("q",)),
        (SeriesResult(1.5, 1e-9, 10), ("value", "tail_bound", "n_max")),
        (GofReport(1.0, 2, 0.5, (("0", 1.0, 1.5),), max_dev_se=0.5),
         ("statistic", "dof", "p_value", "bins", "max_dev_se")),
        (ShiftReport(True, {1: 2}), ("ok", "offsets", "counts_conserved")),
    ]


def test_value_types_are_immutable_slotted_values():
    values = _values()
    assert len({type(v) for v, _ in values}) == 13
    for value, names in values:
        cls = type(value)
        fields = tuple(getattr(value, name) for name in names)
        assert not hasattr(value, "__dict__"), cls
        for name in names:
            with pytest.raises(AttributeError):
                setattr(value, name, fields[0])
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert getattr(value, names[0]) is fields[0]
        # positional and keyword construction, field by field
        twins = [cls(*fields), cls(**dict(zip(names, fields))), pickle.loads(pickle.dumps(value)),
                 copy.copy(value), copy.deepcopy(value)]
        for twin in twins:
            assert type(twin) is cls and twin == value and not twin != value, cls
            if cls is not ShiftReport:
                assert hash(twin) == hash(value), cls
        assert repr(value) == f"{cls.__name__}(" + ", ".join(
            f"{name}={field!r}" for name, field in zip(names, fields)) + ")"
        assert all(other != value for other, _ in values if type(other) is not cls)
    # a dict field makes the value unhashable, as it does a tuple
    with pytest.raises(TypeError):
        hash(ShiftReport(True))
    assert ShiftReport(True).offsets == {} and ShiftReport(True).offsets is not ShiftReport(True).offsets
    # equal fields, different classes
    assert SlotDiagram().rows == ComponentArray().rows and SlotDiagram() != ComponentArray()
    assert repr(BallConfig(1, b"\x01")) == "BallConfig(origin=1, bits=b'\\x01')"
    trusted = _trusted_diagram(((1,),))
    assert trusted == SlotDiagram(((1,),)) and hash(trusted) == hash(SlotDiagram(((1,),)))
    with pytest.raises(AttributeError):
        trusted.rows = ()
