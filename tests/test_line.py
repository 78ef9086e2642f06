import hashlib
import math
import random
from collections import Counter
from functools import partial

import hypothesis.strategies as st
import pytest
from hypothesis import given

import oracles
from boxball import (
    AnchoredConfig,
    BallConfig,
    Excursion,
    PreconditionError,
    ValidationError,
    assemble,
    bernoulli_excursions,
    bernoulli_weights,
    concat_diagrams,
    decompose,
    diagram_from_excursion,
    excursion_prob,
    explicit_weights,
    excursions_of,
    fill_from_weights,
    markov_excursions,
    markov_weights,
    mean_record_gap,
    record_positions,
    sample_anti_palm,
    sample_excursions,
)
from boxball.core import BOX_BUDGET, _cut
from boxball.line import _chain

MARKOV_Q = [[0.8, 0.2], [0.6, 0.4]]


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def test_assemble_empty_excursions():
    anchored = assemble([Excursion()] * 3, 0)
    assert anchored.records == (0, 1, 2, 3)
    assert anchored.config.ball_count() == 0


def test_assemble_single_excursion_at_zero():
    exc = Excursion.from_string("1100")
    anchored = assemble([exc], 0)
    assert anchored.records == (0, 5)
    assert anchored.config.ball_boxes() == (1, 2)


def test_assemble_record_spacing():
    rng = random.Random(2)
    excs = sample_excursions(fill_from_weights(bernoulli_weights(0.3)), 200, rng)
    i_lo = -60
    anchored = assemble(excs, i_lo)
    assert anchored.record(0) == 0
    for i in range(i_lo, i_lo + len(excs)):
        gap = anchored.record(i + 1) - anchored.record(i)
        assert gap == 2 * excs[i - i_lo].n + 1


def test_assemble_extract_round_trip():
    rng = random.Random(3)
    for _ in range(50):
        count = rng.randint(1, 11)
        i_lo = -rng.randrange(count)
        excs = sample_excursions(fill_from_weights(bernoulli_weights(0.3)), count, rng)
        anchored = assemble(excs, i_lo)
        got_lo, got = excursions_of(anchored.config)
        by_index = dict(enumerate(got, start=got_lo))
        for idx, exc in enumerate(excs, start=i_lo):
            assert by_index.get(idx, Excursion()) == exc


def test_anchor_requires_record():
    with pytest.raises(PreconditionError):
        excursions_of(BallConfig(0, (1, 1, 0, 0)))
    i_lo, excs = excursions_of(BallConfig.from_string("1100"))
    assert assemble(excs, i_lo).record(0) == 0


def test_anchored_config_validation():
    with pytest.raises(PreconditionError):
        AnchoredConfig(BallConfig(1, ()), 0, (1, 2))  # record 0 not at origin


def test_decompose_of_assembly_matches_diagram_concat():
    # four records, three excursions with the middle one empty, and one
    # soliton of each size 1..4 spread over the outer excursions
    left = Excursion.from_string("1011110000")  # one 1-soliton, one 4-soliton
    right = Excursion.from_string("1110011000")  # one 3-soliton, one 2-soliton
    from boxball import soliton_counts

    assert soliton_counts(left) == {1: 1, 4: 1}
    assert soliton_counts(right) == {2: 1, 3: 1}
    anchored = assemble([left, Excursion(), right], 0)
    assert len(anchored.records) == 4
    assert anchored.record(2) - anchored.record(1) == 1
    direct = decompose(anchored.config)
    expected = concat_diagrams(
        [diagram_from_excursion(e) for e in (left, Excursion(), right)], 0
    )
    assert direct.same_as(expected)


# ---------------------------------------------------------------------------
# direct excursion samplers
# ---------------------------------------------------------------------------

def test_bernoulli_excursions_zero_density():
    assert all(e.n == 0 for e in bernoulli_excursions(0.0, 10, random.Random(0)))


def test_bernoulli_excursion_length_law():
    # P(n = m) = C_m (lam (1 - lam))^m (1 - lam)
    lam = 0.25
    rng = random.Random(12)
    draws = 60_000
    counts = Counter(e.n for e in bernoulli_excursions(lam, draws, rng))
    for m, c_m in enumerate((1, 1, 2, 5, 14)):
        expected = draws * c_m * (lam * (1 - lam)) ** m * (1 - lam)
        assert abs(counts[m] - expected) <= 4.5 * math.sqrt(expected), m


def test_markov_empty_excursion_probability():
    # the empty excursion has probability Q(0,0)
    rng = random.Random(13)
    draws = 60_000
    excs = markov_excursions(MARKOV_Q, draws, rng)
    p_empty = sum(1 for e in excs if e.n == 0) / draws
    assert abs(p_empty - 0.8) <= 4.5 * math.sqrt(0.8 * 0.2 / draws)


def test_markov_excursion_frequencies_match_weights():
    rng = random.Random(14)
    draws = 80_000
    weights = markov_weights(MARKOV_Q)
    counts = Counter(e.bits for e in markov_excursions(MARKOV_Q, draws, rng))
    for bits, observed in counts.most_common(8):
        expected = draws * excursion_prob(weights, Excursion(bits))
        assert abs(observed - expected) <= 4.5 * math.sqrt(expected), bits


@pytest.mark.parametrize(
    "q",
    [
        [[0.5, 0.6], [0.7, 0.2]],  # rows do not sum to 1
        [[0.5, 0.5]],  # 1x2
        [[1.2, -0.2], [0.6, 0.4]],  # a negative entry
    ],
)
def test_markov_excursions_validate_q_like_markov_weights(q):
    for check in (lambda: markov_weights(q), lambda: markov_excursions(q, 5, random.Random(0))):
        with pytest.raises(ValidationError):
            check()


def test_markov_rows_equal_reduces_to_bernoulli():
    lam = 0.3
    rng = random.Random(15)
    excs = markov_excursions([[1 - lam, lam], [1 - lam, lam]], 40_000, rng)
    counts = Counter(e.n for e in excs)
    for m, c_m in enumerate((1, 1, 2)):
        expected = 40_000 * c_m * (lam * (1 - lam)) ** m * (1 - lam)
        assert abs(counts[m] - expected) <= 4.5 * math.sqrt(expected)


@st.composite
def _chain_runs(draw):
    """Thresholds (Q(0,1), Q(1,1)) with Q(1,1) above, below or equal to
    Q(0,1), uniforms of which some sit exactly on a threshold, and the state
    of the box before them."""
    lo, hi = sorted(draw(st.lists(st.floats(0, 1), min_size=2, max_size=2)))
    up_from = draw(st.sampled_from([(lo, hi), (hi, lo), (lo, lo)]))
    uniforms = draw(st.lists(
        st.one_of(st.floats(0, 1, exclude_max=True), st.sampled_from(up_from)), max_size=60
    ))
    return up_from, uniforms, draw(st.sampled_from([0, 1]))


@given(_chain_runs())
def test_chain_kernel_matches_per_box_rule(run):
    up_from, uniforms, first = run
    q = [[1 - p, p] for p in up_from]
    boxes = _chain(iter(uniforms).__next__, len(uniforms), up_from, first)
    assert boxes == bytes(oracles.naive_markov_boxes(uniforms, q, first))


@pytest.mark.parametrize(
    "q, seed, covers",
    [
        (MARKOV_Q, 1, None),
        ([[0.75, 0.25], [0.75, 0.25]], 2, None),
        ([[0.5, 0.5], [0.9, 0.1]], 3, None),
        # the first batch is one box per excursion asked for, ``first``; the
        # first record lies past it: no excursion is out until the second,
        # doubled batch
        ([[0.55, 0.45], [0.46, 0.54]], 149,
         lambda boxes, uniforms, first: _cut(boxes[:first])[1] == []),
        # a sticky chain, whose box copies the one before when its draw lies in
        # [0.1, 0.85): the first batch ends on a ball and the next draw lies in
        # that range, so box ``first`` is a ball only if the second batch
        # starts from the state the first one left
        ([[0.9, 0.1], [0.15, 0.85]], 1,
         lambda boxes, uniforms, first: boxes[first - 1] == 1 and 0.1 <= uniforms[first] < 0.85),
    ],
)
def test_cutting_in_batches_is_one_cut(q, seed, covers):
    rng = random.Random(seed)
    uniforms = [rng.random() for _ in range(60_000)]
    boxes = _chain(iter(uniforms).__next__, len(uniforms), (q[0][1], q[1][1]), 0)
    _, whole, _ = _cut(boxes)
    assert covers is None or covers(boxes, uniforms, len(whole))
    assert markov_excursions(q, len(whole), random.Random(seed)) == whole


# sha256 of the excursions' bits joined by "|", cut from the chain drawn with
# one random.Random(seed).random() per box; oracles.naive_markov_boxes over
# the same uniforms, cut once, gives the same digests.  Every draw spans
# several batches
WALK_PINS = [
    pytest.param(lambda rng: bernoulli_excursions(0.45, 600, rng), 1,
                 "84b075d56871bed58f8c369d9cc9b1bf1e4029b7579d3dcb21a7d137642e17aa",
                 id="bernoulli-0.45"),
    pytest.param(lambda rng: bernoulli_excursions(0.49, 400, rng), 2,
                 "90a7fc19effb6ffa954ddf9b9bdb7c76f37d1236508a203cf492ea4529e77889",
                 id="bernoulli-0.49"),
    # Q(1,1) < Q(0,1): a ball is likelier after an empty box than after a ball
    pytest.param(lambda rng: markov_excursions([[0.5, 0.5], [0.9, 0.1]], 2000, rng), 3,
                 "e918ff45b44130f071945a086e432ae77a1e59021ee6062d6ade5e493fb7d1f2",
                 id="markov-flip"),
    pytest.param(lambda rng: markov_excursions([[0.55, 0.45], [0.46, 0.54]], 500, rng), 4,
                 "92ba12fcfc04b75a40646adcdd81be2c640800892b81f389a92af681b57b2e62",
                 id="markov-near-critical"),
]


@pytest.mark.parametrize("draw, seed, digest", WALK_PINS)
def test_walk_samplers_draw_pinned_excursions(draw, seed, digest):
    excursions = draw(random.Random(seed))
    assert hashlib.sha256(b"|".join(e.bits for e in excursions)).hexdigest() == digest
    assert all(e == Excursion(e.bits) for e in excursions)  # cut unchecked, checked here


def test_two_samplers_agree_on_excursion_law():
    # two-sample chi-square between the walk sampler and the diagram-route
    # sampler over excursions up to half-length 4, significance 1e-3
    from scipy.stats import chi2

    lam = 0.25
    draws = 100_000
    a = Counter(
        e.bits if e.n <= 4 else "big"
        for e in bernoulli_excursions(lam, draws, random.Random(16))
    )
    b = Counter(
        e.bits if e.n <= 4 else "big"
        for e in sample_excursions(fill_from_weights(bernoulli_weights(lam)), draws, random.Random(17))
    )
    stat = 0.0
    cells = 0
    for key in set(a) | set(b):
        pooled = (a[key] + b[key]) / 2
        if pooled < 5:
            continue
        stat += (a[key] - pooled) ** 2 / pooled + (b[key] - pooled) ** 2 / pooled
        cells += 1
    p_value = float(chi2.sf(stat, cells - 1))
    assert p_value > 1e-3


def test_palm_sampler_anchoring():
    excursions = sample_excursions(fill_from_weights(bernoulli_weights(0.25)), 100, random.Random(18))
    anchored = assemble(excursions, 0)
    assert anchored.i_lo == 0
    assert anchored.record(0) == 0
    assert len(anchored.records) == 101


def test_direct_palm_samplers_assemble():
    bern = assemble(bernoulli_excursions(0.25, 500, random.Random(30)), 0)
    markov = assemble(markov_excursions(MARKOV_Q, 500, random.Random(31)), 0)
    for anchored in (bern, markov):
        assert anchored.record(0) == 0
        got_lo, got = excursions_of(anchored.config)
        by_index = dict(enumerate(got, start=got_lo))
        for i in range(500):
            gap = anchored.record(i + 1) - anchored.record(i)
            assert gap == 2 * by_index.get(i, Excursion()).n + 1


# ---------------------------------------------------------------------------
# anti-Palm sampler
# ---------------------------------------------------------------------------

def test_anti_palm_zero_weights():
    palm = partial(sample_excursions, fill_from_weights(explicit_weights([])))
    cfg = sample_anti_palm(palm, 100, random.Random(0))
    assert cfg.ball_count() == 0


def test_anti_palm_covers_requested_window():
    cfg = sample_anti_palm(partial(bernoulli_excursions, 0.3), 5000, random.Random(19))
    assert cfg.origin <= 0
    assert cfg.end >= 4999
    assert cfg.origin in record_positions(cfg)  # the window starts at a record


def test_anti_palm_density_identities():
    lam = 0.25
    n_boxes = 200_000
    cfg = sample_anti_palm(partial(bernoulli_excursions, lam), n_boxes, random.Random(20))
    window = [cfg.occupied(z) for z in range(n_boxes)]
    density = sum(window) / n_boxes
    se = math.sqrt(lam * (1 - lam) / n_boxes)
    assert abs(density - lam) <= 6 * se
    recs = [r for r in record_positions(cfg) if 0 <= r < n_boxes]
    rec_density = len(recs) / n_boxes
    assert abs(rec_density - (1 - 2 * lam)) <= 6 * se


def test_anti_palm_block_frequencies_match_product_measure():
    # the stationary law of the bernoulli family is the product measure; the
    # window draws diagrams of the slot fill, as the explicit family does
    lam = 0.3
    n_boxes = 120_000
    palm = partial(sample_excursions, fill_from_weights(bernoulli_weights(lam)))
    cfg = sample_anti_palm(palm, n_boxes, random.Random(21))
    window = [cfg.occupied(z) for z in range(n_boxes)]
    blocks = Counter(
        tuple(window[t : t + 3]) for t in range(0, n_boxes - 3, 3)
    )
    total = sum(blocks.values())
    for pattern, count in blocks.items():
        p = math.prod(lam if b else 1 - lam for b in pattern)
        se = math.sqrt(p * (1 - p) / total)
        assert abs(count / total - p) <= 5 * se, pattern


def test_anti_palm_block_frequencies_match_markov_chain():
    # the stationary law of the markov family is the stationary chain: a block
    # b_1 .. b_3 has probability pi(b_1) Q(b_1, b_2) Q(b_2, b_3), pi(1) = 1/4;
    # the window walks the chain, and its blocks lie one box apart
    pi = (0.75, 0.25)
    n_boxes = 120_000
    cfg = sample_anti_palm(partial(markov_excursions, MARKOV_Q), n_boxes, random.Random(23))
    window = [cfg.occupied(z) for z in range(n_boxes)]
    blocks = Counter(tuple(window[t : t + 3]) for t in range(0, n_boxes - 3, 4))
    total = sum(blocks.values())
    assert len(blocks) == 8
    for pattern, count in blocks.items():
        p = pi[pattern[0]] * MARKOV_Q[pattern[0]][pattern[1]] * MARKOV_Q[pattern[1]][pattern[2]]
        se = math.sqrt(p * (1 - p) / total)
        assert abs(count / total - p) <= 5 * se, pattern


def test_anti_palm_refuses_a_window_past_the_budget_before_drawing():
    def palm(size, rng):
        raise AssertionError("drew from the Palm sampler")

    with pytest.raises(PreconditionError, match="anti-Palm window"):
        sample_anti_palm(palm, BOX_BUDGET + 1, random.Random(0))


def test_anti_palm_draws_few_boxes_past_its_window():
    # the proposals left in the accepted one's batch extend the window, and
    # each batch asks for the boxes still wanted at the mean block length
    sizes = []

    def palm(size, rng):
        sizes.append(size)
        return markov_excursions(MARKOV_Q, size, rng)

    sample_anti_palm(palm, 30_000, random.Random(24))
    # at kappa = 2, about 15_000 excursions fill the window and 1_000 propose its origin block
    assert sizes[0] == 16 and len(sizes) <= 8 and sum(sizes) < 17_500, sizes


def test_anti_palm_report_and_cap():
    report = {}
    sample_anti_palm(partial(bernoulli_excursions, 0.25), 500, random.Random(22),
                     block_cap=31, report=report)
    assert report["proposals"] >= 1
    assert 0 <= report["bias_bound"] <= 1
    assert report["block_cap"] == 31


def test_mean_record_gap_markov():
    # kappa = 1 / (record density); for the chain the density of records is
    # 1 - 2 p_1 with p_1 = Q01 / (Q01 + Q10)
    p1 = 0.2 / 0.8
    assert mean_record_gap(fill_from_weights(markov_weights(MARKOV_Q))) == pytest.approx(
        1 / (1 - 2 * p1), rel=1e-9
    )
