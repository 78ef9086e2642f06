import json
import random
from itertools import accumulate
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from boxball import (
    BallConfig,
    ComponentArray,
    Excursion,
    PreconditionError,
    SlotDiagram,
    ValidationError,
    bernoulli_weights,
    concat_diagrams,
    decompose,
    diagram_from_excursion,
    diagrams_from_components,
    enumerate_excursions,
    evolve,
    excursion_from_diagram,
    excursions_of,
    explicit_weights,
    fill_from_weights,
    insert_soliton,
    markov_weights,
    reconstruct,
    sample_diagrams,
    slot_positions,
)
from boxball import slots
from boxball.core import BOX_BUDGET, _bernoulli_chain, _cut
from boxball.line import assemble, markov_excursions
from boxball.slots import palm_components

import oracles

# fixtures anchored to the in-text sample decomposition and worked insertion
FIG_DIAGRAM = SlotDiagram(((0, 0, 1, 0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0), (1,)))
FIG_EXCURSION = "1110110010110000"
WORKED_DIAGRAM = SlotDiagram(((3, 0, 4, 1, 0, 0, 0, 0, 2, 0, 1), (0, 0, 1, 0, 0), (2,)))
WORKED_EXCURSION = "10101011101010101001001100111010100010"


def random_diagram(rng, max_size=4, max_top=3) -> SlotDiagram:
    m = int(rng.integers(0, max_size + 1))
    if m == 0:
        return SlotDiagram()
    rows = [()] * m
    rows[m - 1] = (int(rng.integers(1, max_top + 1)),)
    counts = [0] * m
    counts[m - 1] = rows[m - 1][0]
    for k in range(m - 1, 0, -1):
        s_k = 1 + sum(2 * (l - k) * counts[l - 1] for l in range(k + 1, m + 1))
        row = tuple(int(v) for v in rng.geometric(0.6, size=s_k) - 1)
        rows[k - 1] = row
        counts[k - 1] = sum(row)
    return SlotDiagram(tuple(rows))


# ---------------------------------------------------------------------------
# slot positions
# ---------------------------------------------------------------------------

def test_slots_of_empty_excursion():
    for k in (1, 2, 5):
        assert slot_positions(Excursion(), k) == (0,)


def test_slots_of_figure_excursion():
    exc = Excursion.from_string(FIG_EXCURSION)
    assert slot_positions(exc, 4) == (0,)
    assert len(slot_positions(exc, 1)) == 9
    assert len(slot_positions(exc, 2)) == 5
    assert len(slot_positions(exc, 3)) == 3


def test_slot_counts_match_consistency_relation():
    # (s_3, s_2, s_1) = (3, 5, 9) for the figure diagram
    assert FIG_DIAGRAM.slot_count(3) == 3
    assert FIG_DIAGRAM.slot_count(2) == 5
    assert FIG_DIAGRAM.slot_count(1) == 9
    assert FIG_DIAGRAM.slot_count(4) == 1
    assert FIG_DIAGRAM.slot_count(7) == 1


@given(st.integers(0, 6), st.integers(1, 5), st.data())
def test_slots_match_naive(n, k, data):
    paths = [Excursion(bytes((s + 1) // 2 for s in p)) for p in oracles.dyck_paths(n)]
    exc = data.draw(st.sampled_from(paths))
    naive = oracles.naive_slots(oracles.naive_solitons(list(exc.bits)), k)
    assert list(slot_positions(exc, k)) == naive


# ---------------------------------------------------------------------------
# the bijection
# ---------------------------------------------------------------------------

def test_figure_diagram_from_excursion():
    assert diagram_from_excursion(Excursion.from_string(FIG_EXCURSION)) == FIG_DIAGRAM


def test_figure_excursion_from_diagram():
    assert excursion_from_diagram(FIG_DIAGRAM).ball_string() == FIG_EXCURSION


def test_worked_example_construction_stages():
    # stacking two 3-solitons on the record, then one 2-soliton at 2-slot 2
    stage1 = insert_soliton(insert_soliton(BallConfig(1, ()), 3, 0), 3, 0)
    assert stage1.to_string() == "111000111000"
    stage2 = insert_soliton(stage1, 2, 2)
    assert stage2.to_string() == "1110001100111000"


def test_worked_example_full_construction():
    exc = excursion_from_diagram(WORKED_DIAGRAM)
    assert exc.ball_string() == WORKED_EXCURSION
    assert diagram_from_excursion(exc) == WORKED_DIAGRAM


def test_empty_diagram_round_trip():
    assert excursion_from_diagram(SlotDiagram()) == Excursion()
    assert diagram_from_excursion(Excursion()) == SlotDiagram()


def test_row_of_unit_solitons():
    diagram = SlotDiagram(((4,),))
    assert excursion_from_diagram(diagram).ball_string() == "10101010"


def test_exhaustive_bijection_small():
    for n in range(10):
        for exc in enumerate_excursions(n):
            diagram = diagram_from_excursion(exc)
            assert diagram.rows == tuple(
                tuple(r) for r in oracles.naive_diagram(list(exc.bits))
            )
            rebuilt = excursion_from_diagram(diagram)
            assert rebuilt == exc == Excursion(rebuilt.bits)  # built unchecked, checked here
            solitons = oracles.naive_solitons(list(exc.bits))
            for k in range(1, diagram.max_size + 2):
                assert list(slot_positions(exc, k)) == oracles.naive_slots(solitons, k)


def test_bijection_on_random_larger_diagrams():
    rng = np.random.default_rng(11)
    for _ in range(300):
        diagram = random_diagram(rng)
        exc = excursion_from_diagram(diagram)
        assert diagram_from_excursion(exc) == diagram
        assert exc.n == diagram.half_length


def _all_diagrams(max_size, max_total):
    """Every valid diagram with maximal size and soliton total within bounds."""

    def rows_below(k, counts, budget):
        if k == 0:
            yield []
            return
        s_k = 1 + sum(2 * (l - k) * counts[l - 1] for l in range(k + 1, len(counts) + 1))
        for total in range(budget + 1):
            for row in _compositions(total, s_k):
                counts[k - 1] = total
                for rest in rows_below(k - 1, counts, budget - total):
                    yield rest + [tuple(row)]
                counts[k - 1] = 0

    yield SlotDiagram()
    for m in range(1, max_size + 1):
        for top in range(1, max_total + 1):
            counts = [0] * m
            counts[m - 1] = top
            for below in rows_below(m - 1, counts, max_total - top):
                yield SlotDiagram(tuple(below + [(top,)]))


def _compositions(total, parts):
    if parts == 1:
        yield [total]
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield [first] + rest


def test_bijection_exhaustive_over_diagrams():
    # every diagram with max size <= 4 and at most 5 solitons round-trips
    seen = 0
    for diagram in _all_diagrams(4, 5):
        exc = excursion_from_diagram(diagram)
        assert diagram_from_excursion(exc) == diagram
        seen += 1
    assert seen > 1000


def _long_excursion(n, rng):
    """A random excursion of half-length n: a shuffled bridge rotated to start
    at its minimum (cycle lemma)."""
    steps = rng.permutation([1] * n + [-1] * n)
    start = int(np.argmin(np.cumsum(steps))) + 1
    return Excursion(bytes((int(s) + 1) // 2 for s in np.roll(steps, -start)))


LONG_EXCURSIONS = [_long_excursion(n, np.random.default_rng(seed))
                   for n, seed in ((240, 1), (300, 2), (360, 3))]


def test_long_excursions_match_naive_oracles():
    # deep levels: the bijection and the CLI slots against the brute force
    from click.testing import CliRunner

    from boxball.cli import main

    line = "0".join(e.ball_string() for e in LONG_EXCURSIONS)
    doc = json.loads(CliRunner().invoke(main, ["decompose", line]).output)
    assert len(doc["slots"]) == len(LONG_EXCURSIONS)
    base = 0
    for exc, slots in zip(LONG_EXCURSIONS, doc["slots"]):
        assert max(accumulate(2 * b - 1 for b in exc.bits)) >= 25
        balls = list(exc.bits)
        diagram = diagram_from_excursion(exc)
        assert diagram.rows == tuple(tuple(r) for r in oracles.naive_diagram(balls))
        assert excursion_from_diagram(diagram) == exc
        sols = oracles.naive_solitons(balls)
        assert sorted(slots, key=int) == [str(k) for k in range(1, diagram.max_size + 1)]
        for k in range(1, diagram.max_size + 1):
            assert slots[str(k)] == [base + p for p in oracles.naive_slots(sols, k)]
        base += 2 * exc.n + 1


def test_insertion_order_irrelevant_within_level():
    # slots of one level commute: the public operator, applied here in
    # ascending label order, gives the builder's excursion
    cfg = BallConfig(1, ())
    for k, j, times in ((3, 0, 2), (2, 2, 1), (1, 0, 3), (1, 2, 4), (1, 3, 1), (1, 8, 2), (1, 10, 1)):
        for _ in range(times):
            cfg = insert_soliton(cfg, k, j)
    assert cfg.to_string() == WORKED_EXCURSION


def test_insert_soliton_validation():
    with pytest.raises(PreconditionError):
        insert_soliton(BallConfig(1, ()), 1, 1)  # only slot 0 exists
    with pytest.raises(PreconditionError):
        insert_soliton(BallConfig.from_string("10"), 2, 0)  # smaller soliton present


def test_diagram_validation():
    with pytest.raises(ValidationError):
        SlotDiagram(((0, 0), (1,)))  # s_1 must be 5 under one 2-soliton
    with pytest.raises(ValidationError):
        SlotDiagram(((0,),))  # top row must be positive
    with pytest.raises(ValidationError):
        SlotDiagram(((-1,),))
    with pytest.raises(ValidationError):
        SlotDiagram(((1, 1),))  # top row longer than one slot


def diagram_from_text(text: str) -> SlotDiagram:
    return SlotDiagram.from_doc(json.loads(text))


def test_diagram_json_round_trip():
    text = json.dumps(WORKED_DIAGRAM.to_doc())
    doc = json.loads(text)
    assert doc["M"] == 3
    assert doc["rows"][0] == [3, 0, 4, 1, 0, 0, 0, 0, 2, 0, 1]
    assert diagram_from_text(text) == WORKED_DIAGRAM
    with pytest.raises(ValidationError):
        diagram_from_text('{"M": 2, "rows": [[1]]}')
    with pytest.raises(ValidationError):
        diagram_from_text('{"rows": [[0, 0], [1]]}')


@pytest.mark.parametrize(
    "text",
    ["[1]", "3", '{"rows": 3}', '{"rows": [1]}', '{"rows": [[true]]}',
     '{"rows": [[1.0]]}', '{"rows": [["1"]]}', '{"M": 1.0, "rows": [[1]]}'],
)
def test_diagram_json_refuses_non_integer_documents(text):
    with pytest.raises(ValidationError):
        diagram_from_text(text)


def test_diagram_json_refuses_a_diagram_over_the_box_budget():
    # n unit solitons: an excursion of 2n boxes and its left record; the
    # refusal comes before any excursion is built
    n = (BOX_BUDGET - 1) // 2
    assert diagram_from_text(f'{{"rows": [[{n}]]}}').half_length == n
    for top in (n + 1, 10**12):
        with pytest.raises(PreconditionError):
            diagram_from_text(f'{{"rows": [[{top}]]}}')
    with pytest.raises(PreconditionError):
        diagram_from_text(f'{{"M": 2, "rows": [[0, {n}, 0], [1]]}}')


# ---------------------------------------------------------------------------
# component arrays
# ---------------------------------------------------------------------------

def test_concat_single_diagram_is_identity():
    arr = concat_diagrams([FIG_DIAGRAM], 0)
    for k in range(1, 5):
        off, values = arr.row(k)
        assert off == 0
        assert values == FIG_DIAGRAM.rows[k - 1]


def test_concat_empty_diagrams_consume_one_label_per_row():
    arr = concat_diagrams([SlotDiagram(), FIG_DIAGRAM, SlotDiagram()], -1)
    off, values = arr.row(4)
    assert off == -1
    assert values == (0, 1, 0)
    off1, values1 = arr.row(1)
    assert off1 == -1
    assert values1 == (0,) + FIG_DIAGRAM.rows[0] + (0,)


def test_concat_recovery_round_trip_random():
    rng = np.random.default_rng(5)
    for _ in range(200):
        count = int(rng.integers(1, 7))
        i_lo = -int(rng.integers(0, count))
        diagrams = [random_diagram(rng, max_size=3) for _ in range(count)]
        arr = concat_diagrams(diagrams, i_lo)
        got_lo, got = diagrams_from_components(arr)
        # recovered window may drop empty edge diagrams; compare by index
        by_index = dict(enumerate(got, start=got_lo))
        for idx, diagram in enumerate(diagrams, start=i_lo):
            assert by_index.get(idx, SlotDiagram()) == diagram
        for idx, diagram in by_index.items():
            if not i_lo <= idx < i_lo + count:
                assert diagram == SlotDiagram()
        assert concat_diagrams(got, got_lo).same_as(arr)


@given(st.integers(0, 2**32 - 1), st.integers(0, 4), st.integers(0, 8), st.integers(-12, 4))
@example(seed=1, max_size=0, count=3, i_lo=-1)  # empty diagrams only
@example(seed=2, max_size=1, count=6, i_lo=0)  # empty and one-row diagrams
@example(seed=3, max_size=4, count=5, i_lo=-3)  # through index 0
@example(seed=4, max_size=4, count=4, i_lo=3)  # right of index 0, after implicit empties
@example(seed=5, max_size=4, count=3, i_lo=-12)  # left of index 0, with a gap
def test_concat_matches_label_by_label_layout(seed, max_size, count, i_lo):
    # the rows, laid out level by level, are the per-diagram layout with its
    # zero padding and offsets, and a valid array
    rng = np.random.default_rng(seed)
    diagrams = [random_diagram(rng, max_size=max_size) for _ in range(count)]
    arr = concat_diagrams(diagrams, i_lo)
    entries = {
        (k, off + j): v for k, off, values in arr.rows for j, v in enumerate(values) if v
    }
    assert entries == oracles.naive_components([list(d.rows) for d in diagrams], i_lo)
    assert arr.rows == oracles.naive_rows([d.rows for d in diagrams], i_lo)
    assert ComponentArray(arr.rows) == arr


@pytest.mark.parametrize(
    "values, name", [([1, True, 2.0], "bool"), ([0, 2.5], "float"), ([3, "2", True], "str")]
)
def test_json_rows_name_the_first_entry_that_is_not_an_integer(values, name):
    with pytest.raises(ValidationError, match=f"^expected an integer, got {name}$"):
        ComponentArray.from_doc({"1": {"offset": 0, "values": values}})
    with pytest.raises(ValidationError, match=f"^expected an integer, got {name}$"):
        SlotDiagram.from_doc({"rows": [values]})


@given(st.integers(0, 2**32 - 1), st.integers(0, 6), st.integers(-9, 3))
def test_to_doc_is_the_parsed_json(seed, count, i_lo):
    # a document survives JSON text unchanged, and from_doc reads it back
    rng = np.random.default_rng(seed)
    diagrams = [random_diagram(rng) for _ in range(count)]
    for diagram in diagrams:
        doc = json.loads(json.dumps(diagram.to_doc()))
        assert doc == diagram.to_doc() and SlotDiagram.from_doc(doc) == diagram
    components = concat_diagrams(diagrams, i_lo)
    doc = json.loads(json.dumps(components.to_doc()))
    assert doc == components.to_doc() and ComponentArray.from_doc(doc) == components


component_rows = st.dictionaries(
    st.integers(1, 4),
    st.tuples(st.integers(-12, 12), st.lists(st.integers(0, 2), max_size=8)),
    max_size=4,
)
component_arrays = component_rows.map(ComponentArray.from_dict)


@given(component_rows)
def test_trimmed_strips_the_zero_padding_of_each_row(data):
    arr = ComponentArray.from_dict(data)
    want = []
    for k, (off, values) in sorted(data.items()):
        nonzero = [j for j, v in enumerate(values) if v]
        if nonzero:
            want.append((k, off + nonzero[0], tuple(values[nonzero[0] : nonzero[-1] + 1])))
    assert arr.trimmed() == ComponentArray(tuple(want))


@given(component_arrays)
@example(ComponentArray.from_dict({1: (-9, (1, 0, 2))}))
@example(ComponentArray.from_dict({2: (-5, (1,)), 1: (4, (0, 1))}))
@example(ComponentArray.from_dict({3: (6, (2,))}))
def test_recovery_round_trip_on_arbitrary_arrays(arr):
    # rows may lie wholly left of label -1 or right of label 0, with a gap
    assert concat_diagrams(*reversed(diagrams_from_components(arr))).same_as(arr)


@given(component_arrays)
@example(ComponentArray.from_dict({3: (-4, (1,)), 1: (-30, (2, 0, 1))}))  # left of -1, a gap
@example(ComponentArray.from_dict({2: (1, (1, 0, 0, 0, 1)), 1: (2, (1,))}))  # inside a diagram
def test_split_reads_as_label_by_label(arr):
    # the level-by-level split gives the diagrams that a reading one diagram
    # at a time from label 0 gives, empty ones included
    _assert_split_reads_as_label_by_label(arr)


def test_split_of_decomposed_lines_reads_as_label_by_label():
    rng = np.random.default_rng(31)
    for _ in range(200):
        bits = rng.random(int(rng.integers(1, 150))) < rng.uniform(0.05, 0.48)
        _assert_split_reads_as_label_by_label(decompose(BallConfig(1, tuple(map(int, bits)))))


def _assert_split_reads_as_label_by_label(arr):
    entries = {(k, off + j): v for k, off, values in arr.rows for j, v in enumerate(values) if v}
    i_lo, diagrams = diagrams_from_components(arr)
    assert (i_lo, [list(map(list, d.rows)) for d in diagrams]) == oracles.naive_split(entries)


def _rebuild_count(arr):
    """Boxes plus diagram entries that rebuilding ``arr`` lays out, counted
    on what it lays out."""
    _, diagrams = diagrams_from_components(arr)
    boxes = len(reconstruct(arr).bits)
    assert boxes == 1 + len(diagrams) + sum(2 * k * sum(v) for k, _, v in arr.rows)
    return boxes + sum(len(row) for d in diagrams for row in d.rows)


def test_reconstruct_spends_its_budget_exactly(monkeypatch):
    # a 2-soliton at label 0 and a 1-soliton at row-1 label 4: diagrams
    # [[0, 0, 0], [1]], [] and [[1]], 5 entries; 3 + 1 records and 4 + 2
    # soliton boxes
    arr = ComponentArray.from_dict({2: (0, (1,)), 1: (4, (1,))})
    assert _rebuild_count(arr) == 15
    want = reconstruct(arr)
    monkeypatch.setattr(slots, "BOX_BUDGET", 15)
    assert reconstruct(arr) == want
    monkeypatch.setattr(slots, "BOX_BUDGET", 14)
    for split in (reconstruct, diagrams_from_components):
        with pytest.raises(PreconditionError, match="^the component array asks for more than "
                           "14 boxes and diagram entries$"):
            split(arr)


@given(component_arrays)
def test_split_accepts_an_array_at_its_exact_count_and_refuses_it_below(arr):
    need = _rebuild_count(arr)
    want = diagrams_from_components(arr)
    with patch.object(slots, "BOX_BUDGET", need):
        assert diagrams_from_components(arr) == want
    with patch.object(slots, "BOX_BUDGET", need - 1):
        with pytest.raises(PreconditionError):
            diagrams_from_components(arr)


def test_reconstruct_takes_a_wide_array_whose_exact_count_fits():
    # a 40-soliton at label 0 spans the 79 labels of its row 1, so a
    # 1-soliton at row-1 label 110 000 is diagram 109 922: 110 006 boxes and
    # 1 601 entries; a bound that charged every label of the span with the
    # top row, 40 * 110 001, came to 4 511 684, past the budget of 4 194 304
    arr = ComponentArray.from_dict({40: (0, (1,)), 1: (110_000, (1,))})
    assert _rebuild_count(arr) == 110_006 + 1_601
    i_lo, diagrams = diagrams_from_components(arr)
    assert (i_lo, len(diagrams), diagrams[-1]) == (0, 109_923, SlotDiagram(((1,),)))
    assert decompose(reconstruct(arr)).same_as(arr)


def test_reconstruct_round_trips_a_near_critical_palm_line():
    # a Bernoulli(0.45) Palm line of 20 000 excursions, 197 203 boxes, lays
    # out 197 197 boxes and 286 482 diagram entries when rebuilt (the last
    # empty excursions are padding); the label span times the top row
    # charged 4 605 839 and refused it
    excursions = markov_excursions(_bernoulli_chain(0.45), 20_000, random.Random(1))
    line = assemble(excursions, 0).config
    assert len(line.bits) == 197_203
    arr = palm_components(excursions)
    assert reconstruct(arr).trimmed() == line.trimmed()


def test_recovery_reflection_on_palindromic_arrays():
    rng = np.random.default_rng(17)
    for _ in range(100):
        half = [random_diagram(rng, max_size=3) for _ in range(int(rng.integers(1, 4)))]
        diagrams = [d.reflected() for d in reversed(half)] + half
        arr = concat_diagrams(diagrams, -len(half))
        got_lo, got = diagrams_from_components(arr)
        for idx, diagram in enumerate(got, start=got_lo):
            mirror = -1 - idx
            if got_lo <= mirror < got_lo + len(got):
                assert got[mirror - got_lo] == diagram.reflected()


def test_component_array_json_round_trip():
    arr = concat_diagrams([FIG_DIAGRAM, WORKED_DIAGRAM], -1)
    assert ComponentArray.from_doc(json.loads(json.dumps(arr.to_doc()))) == arr
    with pytest.raises(ValidationError):
        ComponentArray.from_doc(json.loads('{"1": {"offset": 0}}'))
    assert ComponentArray.from_doc({"10": {"offset": -2, "values": [1]}}).sizes() == (10,)


def test_component_arrays_keep_their_rows_as_tuples():
    # values given as a list build the array of the same values as a tuple
    arr = ComponentArray(((2, -1, (0, 1)), (1, 0, [1, 2])))
    same = ComponentArray(((1, 0, (1, 2)), (2, -1, (0, 1))))
    assert arr == same and hash(arr) == hash(same)
    assert arr.rows == ((1, 0, (1, 2)), (2, -1, (0, 1)))
    assert ComponentArray.from_dict({1: (0, [1, 2]), 2: (-1, [0, 1])}) == same
    for rows in (((0, 0, (1,)),), ((1, 0, (1,)), (1, 2, [1])), ((1, 0, [1, -1]),)):
        with pytest.raises(ValidationError):
            ComponentArray(rows)


@pytest.mark.parametrize("key", ["1_0", " 1", "1 ", "+1", "01", "-0", "\u0663", "1.0", "x", ""])
def test_component_array_json_refuses_sizes_not_written_as_plain_integers(key):
    with pytest.raises(ValidationError):
        ComponentArray.from_doc({key: {"offset": 0, "values": [1]}})


FILLS = {
    "bernoulli": fill_from_weights(bernoulli_weights(0.3)),
    "markov": fill_from_weights(markov_weights([[0.8, 0.2], [0.6, 0.4]])),
    "explicit": fill_from_weights(explicit_weights([0.2, 0.1, 0.05])),
}


@given(
    st.lists(st.integers(0, 1), max_size=80),
    component_arrays,
    st.sampled_from(sorted(FILLS)),
    st.integers(0, 2**32 - 1),
)
def test_trusted_diagrams_equal_validated_ones(bits, arr, family, seed):
    _, excursions = excursions_of(BallConfig(1, tuple(bits)))
    diagrams = [
        *map(diagram_from_excursion, excursions),
        *sample_diagrams(FILLS[family], 20, seed),
        *diagrams_from_components(arr)[1],
    ]
    for diagram in diagrams + [d.reflected() for d in diagrams]:
        assert type(diagram.rows) is tuple
        assert all(type(row) is tuple for row in diagram.rows)
        assert all(type(v) is int for row in diagram.rows for v in row)
        assert SlotDiagram(diagram.rows) == diagram


# ---------------------------------------------------------------------------
# full configurations
# ---------------------------------------------------------------------------

def test_decompose_requires_record():
    with pytest.raises(PreconditionError):
        decompose(BallConfig(0, (1, 1, 0, 0)))


def test_decompose_empty():
    assert decompose(BallConfig(1, ())).trimmed() == ComponentArray()


def test_reconstruct_zero_array():
    assert reconstruct(ComponentArray()).ball_count() == 0


def test_reconstruct_single_unit_soliton():
    arr = ComponentArray.from_dict({1: (0, (1,))})
    cfg = reconstruct(arr)
    assert cfg.trimmed().ball_boxes() == (1,)
    assert cfg.occupied(1) == 1 and cfg.occupied(2) == 0


def test_decompose_reconstruct_round_trip_random():
    rng = np.random.default_rng(23)
    for _ in range(300):
        length = int(rng.integers(1, 120))
        density = rng.uniform(0.05, 0.45)
        cfg = BallConfig(1, tuple(int(v) for v in (rng.random(length) < density)))
        arr = decompose(cfg)
        back = reconstruct(arr)
        assert back.trimmed() == cfg.trimmed()
        assert decompose(back).same_as(arr)


palm_excursions = st.lists(
    st.sampled_from(["", "10", "1100", "1010", "110100", FIG_EXCURSION, WORKED_EXCURSION]),
    min_size=1,
    max_size=12,
).map(lambda texts: [Excursion.from_string(t) for t in texts])


@given(palm_excursions)
def test_palm_components_equal_decomposed_assembly(excs):
    assert palm_components(excs) == decompose(assemble(excs, 0).config)
    # two cuts of one sequence build its excursions again, as other objects
    bits = b"".join(e.bits + b"\x00" for e in excs)
    first, second = _cut(bits)[1], _cut(bits)[1]
    assert first == second == excs and all(a is not b for a, b in zip(first, second))
    both = [*first, *second]
    assert palm_components(both) == decompose(assemble(both, 0).config)


def test_palm_components_of_no_excursion_is_refused_like_assemble():
    with pytest.raises(PreconditionError):
        assemble([], 0)
    with pytest.raises(PreconditionError):
        palm_components([])


def test_multi_excursion_concatenation_matches_definition():
    # configuration assembled from two copies of the figure excursion
    exc = Excursion.from_string(FIG_EXCURSION)
    bits = exc.bits + b"\x00" + exc.bits
    cfg = BallConfig(1, bits)
    arr = decompose(cfg)
    assert arr.same_as(concat_diagrams([FIG_DIAGRAM, FIG_DIAGRAM], 0))
    for k in range(1, 5):
        _, values = arr.row(k)
        assert values == FIG_DIAGRAM.rows[k - 1] * 2


def test_component_shift_under_evolution_figure():
    cfg = BallConfig(1, Excursion.from_string(FIG_EXCURSION).bits)
    before = decompose(cfg).trimmed()
    after = decompose(evolve(cfg)).trimmed()
    for k in (1, 2, 4):
        assert before.row(k)[1] == after.row(k)[1]
