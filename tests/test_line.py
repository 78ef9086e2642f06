import hashlib
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import cache, partial
from itertools import chain, product, repeat
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given

import oracles
from boxball import (
    AnchoredConfig,
    BallConfig,
    DivergenceError,
    Excursion,
    PreconditionError,
    ValidationError,
    assemble,
    bernoulli_excursions,
    bernoulli_weights,
    catalan_number,
    chain_window,
    concat_diagrams,
    decompose,
    diagram_from_excursion,
    evolve,
    excursion_prob,
    explicit_weights,
    excursions_of,
    fill_from_weights,
    markov_excursions,
    markov_weights,
    mean_record_gap,
    partition_function,
    record_positions,
    sample_anti_palm,
    sample_excursions,
    size_biased_excursion,
)
from boxball.core import BOX_BUDGET, _cut
from boxball.line import _walk
from boxball.stats import _chi_square

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
    Q(0,1), and uniforms of which some sit exactly on a threshold."""
    lo, hi = sorted(draw(st.lists(st.floats(0, 1), min_size=2, max_size=2)))
    up_from = draw(st.sampled_from([(lo, hi), (hi, lo), (lo, lo)]))
    uniforms = draw(st.lists(
        st.one_of(st.floats(0, 1, exclude_max=True), st.sampled_from(up_from)), max_size=60
    ))
    return up_from, uniforms


@given(_chain_runs(), st.integers(0, 60), st.integers(0, 60), st.integers(1, 60))
def test_chain_kernel_matches_per_box_rule(run, split, until, size):
    """``_walk`` on from the chain's first ``split`` boxes after a record,
    at their height, draws the boxes of ``oracles.naive_markov_boxes`` over
    the same uniforms, and notes the records of one ``core._cut`` of them
    from index ``until`` on, at most ``size`` of them, stopping at the last
    without a draw past it."""
    up_from, uniforms = run
    chain = oracles.naive_markov_boxes(uniforms, [[1 - p, p] for p in up_from], 0)
    split, until = split % (len(chain) + 1), until % (len(chain) + 1)
    records = [r for r in _cut(bytes(chain))[0] if r >= max(split, until)][:size]
    assume(records)
    boxes = bytearray(chain[:split])
    height = oracles.naive_carrier(chain[:split])[split - 1] if split else 0
    walked = _walk(iter(uniforms[split:]).__next__, up_from, boxes, height, len(records), until)
    assert walked == records
    assert boxes == bytes(chain[: records[-1] + 1])
    if until == split == 0 and up_from[0] < 1 - up_from[1]:  # a chain markov_excursions takes
        assert markov_excursions([[1 - p, p] for p in up_from], len(records),
                                 _Uniforms(uniforms)) == _cut(bytes(chain))[1][: len(records)]


@pytest.mark.parametrize(
    "q, seed, covers",
    [
        (MARKOV_Q, 1, None),
        ([[0.75, 0.25], [0.75, 0.25]], 2, None),
        ([[0.5, 0.5], [0.9, 0.1]], 3, None),
        # near criticality: the first record lies past box ``first``, one box
        # per excursion asked for, so the walk draws past that many boxes
        # before it notes an excursion
        ([[0.55, 0.45], [0.46, 0.54]], 149,
         lambda boxes, uniforms, first: _cut(boxes[:first])[1] == []),
        # a sticky chain, whose box copies the one before when its draw lies in
        # [0.1, 0.85): box ``first - 1`` is a ball and the next draw lies in
        # that range, so box ``first`` is a ball only if the walk reads the
        # state the box before it left
        ([[0.9, 0.1], [0.15, 0.85]], 1,
         lambda boxes, uniforms, first: boxes[first - 1] == 1 and 0.1 <= uniforms[first] < 0.85),
    ],
)
def test_cutting_in_batches_is_one_cut(q, seed, covers):
    """``markov_excursions`` equals one ``core._cut`` of the whole chain
    ``oracles.naive_markov_boxes`` draws from the same 60 000 uniforms."""
    rng = random.Random(seed)
    uniforms = [rng.random() for _ in range(60_000)]
    boxes = bytes(oracles.naive_markov_boxes(uniforms, q, 0))
    _, whole, _ = _cut(boxes)
    assert covers is None or covers(boxes, uniforms, len(whole))
    assert markov_excursions(q, len(whole), random.Random(seed)) == whole


# sha256 of the excursions' bits joined by "|", cut from the chain drawn with
# one random.Random(seed).random() per box; oracles.naive_markov_boxes over
# the same uniforms, cut once, gives the same digests
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


# a draw whose first excursion passes the budget: the chain alternates balls
# and empty boxes, so a record waits about 4e9 boxes; and q_2 near 1 fills
# row 1 of a drawn diagram with about 2e9 slots
HUGE_DRAWS = {
    "walk": "markov_excursions([[1e-9, 0.999999999], [0.9999999995, 5e-10]], 3, Random(1))",
    "diagrams": "sample_excursions(fill_from_weights(explicit_weights([0, 0.999999999])), 3, Random(1))",
}


@pytest.mark.parametrize("draw", HUGE_DRAWS.values(), ids=HUGE_DRAWS)
def test_palm_samplers_refuse_an_excursion_past_the_box_budget(draw):
    # in a process of its own, so that a walk that never ends, or its memory, stops at the timeout
    code = ("from random import Random\n"
            "from boxball import PreconditionError, explicit_weights, fill_from_weights\n"
            "from boxball import markov_excursions, sample_excursions\n"
            f"try:\n    {draw}\nexcept PreconditionError as exc:\n    print(exc)\n")
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        capture_output=True, text=True, timeout=10,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"a drawn excursion would lay out more than {BOX_BUDGET} boxes\n"


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

def _fill_window(fill, n_boxes, rng):
    """The stationary window of the measure with slot fill ``fill``, as the
    explicit family draws it: its size-biased origin block, Palm filler."""
    return sample_anti_palm(partial(size_biased_excursion, fill),
                            partial(sample_excursions, fill), n_boxes, rng)


def test_anti_palm_zero_weights():
    cfg = _fill_window(fill_from_weights(explicit_weights([])), 100, random.Random(0))
    assert cfg.ball_count() == 0


def test_anti_palm_covers_requested_window():
    cfg = _fill_window(fill_from_weights(bernoulli_weights(0.3)), 5000, random.Random(19))
    assert cfg.origin <= 0
    assert cfg.end >= 4999
    assert cfg.origin in record_positions(cfg)  # the window starts at a record


def test_anti_palm_density_identities():
    lam = 0.25
    n_boxes = 200_000
    cfg = _fill_window(fill_from_weights(bernoulli_weights(lam)), n_boxes, random.Random(20))
    window = [cfg.occupied(z) for z in range(n_boxes)]
    density = sum(window) / n_boxes
    se = math.sqrt(lam * (1 - lam) / n_boxes)
    assert abs(density - lam) <= 6 * se
    recs = [r for r in record_positions(cfg) if 0 <= r < n_boxes]
    rec_density = len(recs) / n_boxes
    assert abs(rec_density - (1 - 2 * lam)) <= 6 * se


def test_anti_palm_block_frequencies_match_product_measure():
    # the stationary law of the bernoulli family is the product measure: of
    # the chain window, and of the window over the slot fill, as the explicit
    # family draws it
    lam = 0.3
    n_boxes = 120_000
    fill = fill_from_weights(bernoulli_weights(lam))
    for cfg in (_fill_window(fill, n_boxes, random.Random(21)),
                chain_window([[1 - lam, lam], [1 - lam, lam]], n_boxes, random.Random(21))):
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
    # the window walks the carrier chain, and its blocks lie one box apart
    pi = (0.75, 0.25)
    n_boxes = 120_000
    cfg = chain_window(MARKOV_Q, n_boxes, random.Random(23))
    window = [cfg.occupied(z) for z in range(n_boxes)]
    blocks = Counter(tuple(window[t : t + 3]) for t in range(0, n_boxes - 3, 4))
    total = sum(blocks.values())
    assert len(blocks) == 8
    for pattern, count in blocks.items():
        p = pi[pattern[0]] * MARKOV_Q[pattern[0]][pattern[1]] * MARKOV_Q[pattern[1]][pattern[2]]
        se = math.sqrt(p * (1 - p) / total)
        assert abs(count / total - p) <= 5 * se, pattern


def test_anti_palm_refuses_a_window_past_the_budget_before_drawing():
    def draw(*args):
        raise AssertionError("drew from a sampler")

    with pytest.raises(PreconditionError, match="anti-Palm window"):
        sample_anti_palm(draw, draw, BOX_BUDGET + 1, random.Random(0))


def test_anti_palm_draws_few_boxes_past_its_window():
    # the filler batches ask for the boxes still wanted at the mean block
    # length so far, and the origin block is drawn once, by itself
    sizes = []

    def palm(size, rng):
        sizes.append(size)
        return markov_excursions(MARKOV_Q, size, rng)

    origin = partial(size_biased_excursion, fill_from_weights(markov_weights(MARKOV_Q)))
    sample_anti_palm(origin, palm, 30_000, random.Random(24))
    # at kappa = 2, about 15_000 excursions fill the window
    assert sizes[0] == 16 and len(sizes) <= 8 and sum(sizes) < 16_500, sizes


def test_mean_record_gap_markov():
    # kappa = 1 / (record density); for the chain the density of records is
    # 1 - 2 p_1 with p_1 = Q01 / (Q01 + Q10)
    p1 = 0.2 / 0.8
    assert mean_record_gap(fill_from_weights(markov_weights(MARKOV_Q))) == pytest.approx(
        1 / (1 - 2 * p1), rel=1e-9
    )


# ---------------------------------------------------------------------------
# chain windows, against the exact block law
# ---------------------------------------------------------------------------

def _bernoulli(lam):
    return [[1 - lam, lam], [1 - lam, lam]]


def test_chain_block_law_is_catalan_for_bernoulli():
    lam = Fraction(1, 4)
    assert oracles.chain_block_law(_bernoulli(lam), 12) == [
        catalan_number(n) * lam**n * (1 - lam) ** (n + 1) for n in range(13)]


@pytest.mark.parametrize("q", [MARKOV_Q, _bernoulli(0.45)], ids=["markov", "bernoulli-0.45"])
def test_chain_block_law_sums_to_one(q):
    assert abs(sum(oracles.chain_block_law(q, 3000)) - 1) < 1e-6


def _kappa(q):
    """Mean record gap of the chain: (Q(0,1) + Q(1,0)) / (Q(1,0) - Q(0,1))."""
    return (q[0][1] + q[1][0]) / (q[1][0] - q[0][1])


@cache
def _origin_blocks(q, draws, seed):
    """(length, offset of box 0) of the block covering box 0, in ``draws``
    one-box chain windows: the window is that block and its closing record."""
    rng = random.Random(seed)
    windows = (chain_window(q, 1, rng) for _ in range(draws))
    return [(len(cfg.bits) - 1, -cfg.origin) for cfg in windows]


# each chain with the half-lengths its law is computed to; the walk from
# Q(1,1) = 0 alternates balls and empty boxes
ORIGIN_CHAINS = [
    pytest.param(((0.75, 0.25), (0.75, 0.25)), 60, id="bernoulli-0.25"),
    pytest.param(((0.55, 0.45), (0.55, 0.45)), 800, id="bernoulli-0.45"),
    pytest.param(tuple(map(tuple, MARKOV_Q)), 60, id="markov"),
    pytest.param(((0.7, 0.3), (1.0, 0.0)), 60, id="markov-q11-zero"),
]


@pytest.mark.parametrize("q, n_max", ORIGIN_CHAINS)
def test_chain_window_origin_block_is_size_biased(q, n_max):
    # box 0 falls in a block of half-length n with probability (2n + 1) p_n / kappa
    blocks = _origin_blocks(q, 20_000, 31)
    draws = len(blocks)
    law = oracles.chain_block_law(q, n_max)
    counts = Counter(length // 2 for length, _ in blocks)
    expected = [draws * (2 * n + 1) * p / _kappa(q) for n, p in enumerate(law)]
    observed = [counts[n] for n in range(n_max + 1)]
    tail = draws - sum(expected)
    assert tail > -1e-6 * draws
    report = _chi_square([*observed, draws - sum(observed)], [*expected, max(tail, 0.0)],
                         [*range(n_max + 1), f">{n_max}"])
    assert report.dof >= 2 and report.p_value > 1e-3, report


def _assert_uniform_offsets(blocks):
    # ten bins of the offset: a block of length L puts ceil((j + 1) L / 10) -
    # ceil(j L / 10) of its L offsets in bin j, so plain bins are not uniform
    # for small L
    observed = [0] * 10
    expected = [0.0] * 10
    for length, offset in blocks:
        assert 0 <= offset < length
        observed[10 * offset // length] += 1
        edges = [-(-j * length // 10) for j in range(11)]
        for j in range(10):
            expected[j] += (edges[j + 1] - edges[j]) / length
    report = _chi_square(observed, expected, range(10))
    assert report.dof == 9 and report.p_value > 1e-3, report


@pytest.mark.parametrize("q, n_max", ORIGIN_CHAINS)
def test_chain_window_origin_is_uniform_in_its_block(q, n_max):
    _assert_uniform_offsets(_origin_blocks(q, 20_000, 31))


def test_chain_window_keeps_the_blocks_a_cap_would_clip():
    # at lambda = 0.49, 0.3782 of the size-biased mass lies in blocks of more
    # than 2001 boxes, which a window accepting its origin block with
    # probability its length over 2001 would clip; both windows keep it: the
    # chain window, and the window over the slot fill, as explicit weights
    # draw it (about 3 ms a block in pure Python, so it draws fewer)
    q = _bernoulli(0.49)
    law = oracles.chain_block_law(q, 1000)
    share = 1 - sum((2 * n + 1) * p for n, p in enumerate(law)) / _kappa(q)
    assert abs(share - 0.3782) < 1e-4
    fill = fill_from_weights(bernoulli_weights(0.49))
    for window, draws in ((partial(chain_window, q), 2000), (partial(_fill_window, fill), 1000)):
        rng = random.Random(32)
        long = sum(len(window(1, rng).bits) - 1 > 2001 for _ in range(draws))
        assert abs(long / draws - share) <= 4 * math.sqrt(share * (1 - share) / draws), window


# explicit weights, and the same scaled to 0.95 of the factor past which
# the fill diverges (q_3 = 0.776, kappa = 57.9)
EXPLICIT = (0.2, 0.1, 0.05)
NEAR_DIVERGENCE = tuple(0.95 * 1.6426922930570744 * a for a in EXPLICIT)
ORIGIN_WEIGHTS = [pytest.param(EXPLICIT, id="explicit"),
                  pytest.param(NEAR_DIVERGENCE, id="explicit-near-divergence")]


@cache
def _fill_origin_blocks(alpha, draws, seed):
    """(length, offset of box 0) of the block covering box 0, in ``draws``
    one-box windows over the slot fill of the weights ``alpha``."""
    fill = fill_from_weights(explicit_weights(alpha))
    rng = random.Random(seed)
    windows = (_fill_window(fill, 1, rng) for _ in range(draws))
    return [(len(cfg.bits) - 1, -cfg.origin) for cfg in windows]


def test_near_divergence_weights_sit_at_their_scale():
    with pytest.raises(DivergenceError):
        fill_from_weights(explicit_weights([a / 0.95 * 1.000001 for a in NEAR_DIVERGENCE]))
    fill = fill_from_weights(explicit_weights(NEAR_DIVERGENCE))
    assert abs(fill.at(3) - 0.776) < 1e-3 and abs(mean_record_gap(fill) - 57.9) < 0.05


@pytest.mark.parametrize("alpha", ORIGIN_WEIGHTS)
def test_fill_window_origin_block_is_size_biased(alpha):
    # box 0 falls in a block of half-length n with probability (2n + 1) p_n /
    # kappa, p_n the weight of the excursions of half-length n over Z
    n_max = 8
    fill = fill_from_weights(explicit_weights(alpha))
    weights = oracles.brute_excursion_probs([Fraction(a) for a in alpha], n_max)
    law = [0.0] * (n_max + 1)
    for path, weight in weights.items():
        law[len(path) // 2] += float(weight)
    z, kappa = partition_function(fill), mean_record_gap(fill)
    blocks = _fill_origin_blocks(alpha, 20_000, 31)
    draws = len(blocks)
    counts = Counter(length // 2 for length, _ in blocks)
    expected = [draws * (2 * n + 1) * p / z / kappa for n, p in enumerate(law)]
    observed = [counts[n] for n in range(n_max + 1)]
    report = _chi_square([*observed, draws - sum(observed)], [*expected, draws - sum(expected)],
                         [*range(n_max + 1), f">{n_max}"])
    assert report.dof >= 2 and report.p_value > 1e-3, report


@pytest.mark.parametrize("alpha", ORIGIN_WEIGHTS)
def test_fill_window_origin_is_uniform_in_its_block(alpha):
    _assert_uniform_offsets(_fill_origin_blocks(alpha, 20_000, 31))


@pytest.mark.parametrize("q", [MARKOV_Q, _bernoulli(0.3)], ids=["markov", "bernoulli-0.3"])
def test_chain_window_one_step_image_is_stationary(q):
    # the window starts at a record, so the carrier enters it empty and one
    # evolve step is exact on every box from its left end: the image of
    # boxes 0 .. n - 1 has the stationary law of the chain, and its 3-blocks,
    # one box apart, have probability pi(b_1) Q(b_1, b_2) Q(b_2, b_3)
    n_boxes = 120_000
    image = evolve(chain_window(q, n_boxes, random.Random(33))).segment(0, n_boxes)
    blocks = Counter(image[t : t + 3] for t in range(0, n_boxes - 3, 4))
    total = sum(blocks.values())
    pi = (q[1][0] / (q[0][1] + q[1][0]), q[0][1] / (q[0][1] + q[1][0]))
    patterns = [bytes(p) for p in product((0, 1), repeat=3)]
    expected = [total * pi[a] * q[a][b] * q[b][c] for a, b, c in patterns]
    report = _chi_square([blocks[p] for p in patterns], expected, patterns)
    assert report.dof == 7 and report.p_value > 1e-3, report


@pytest.mark.parametrize("q", [MARKOV_Q, _bernoulli(0.45), [[0.7, 0.3], [1, 0]], [[1, 0], [0.5, 0.5]]])
def test_chain_window_spans_whole_excursions(q):
    for seed, n_boxes in enumerate((1, 2, 57, 3000)):
        cfg = chain_window(q, n_boxes, random.Random(seed))
        records = record_positions(cfg)
        # a record at each end, and every other record inside boxes 1 .. n_boxes - 1
        assert records[1] == cfg.origin <= 0 and records[-2] == cfg.end >= n_boxes, records
        assert all(0 < r < n_boxes for r in records[2:-2]), records
    if q[0][1] == 0:  # no ball ever: every box is a record
        assert cfg == BallConfig(0, bytes(3001))
    if q[1][1] == 0:  # no two balls in a row
        assert b"\x01\x01" not in cfg.bits


NEAR_CRITICAL_Q = ((0.55, 0.45), (0.46, 0.54))


# sha256 of b"ORIGIN|" and the window's boxes, drawn with random.Random(seed);
# near criticality the walk from the window's last record to the first past
# it runs 241 to 7854 boxes
WINDOW_PINS = [
    pytest.param(NEAR_CRITICAL_Q, 1, 8,
                 "93f4bada5a8ecabe9dc2e29b8a8516d3e0e9c33497a18b36f1cf92a9eed48cfc", id="near-critical-1"),
    pytest.param(NEAR_CRITICAL_Q, 2000, 4,
                 "1e5bd464a878cfe66586f892323a7eab9aeda064a2b927268bb18453190ecba3", id="near-critical-2000"),
    pytest.param(NEAR_CRITICAL_Q, 2000, 8,
                 "64f74a131915d43be1c300af8024fd2989d0e83d77c1c55e08ddc15916496cb6", id="near-critical-long-tail"),
    pytest.param(NEAR_CRITICAL_Q, 30_000, 1,
                 "0f80a6a1f141df06fb624f4ccc22a0d2271e622d4d2acc357036892bd50fe711", id="near-critical-30000"),
    pytest.param(NEAR_CRITICAL_Q, 30_000, 3,
                 "c1c698f18215d7e70f2bafcc4a9056b8458710ab4e76961b0349d8beb149a589", id="near-critical-30000-3"),
    # the window's last box is its last record: the walk past it is one box
    pytest.param(MARKOV_Q, 30_000, 3,
                 "edc793999a15fbfd0928cde9b7c2e7236c2e85ba065e3c4d0aa5ca2fbc923c53", id="markov"),
    pytest.param([[0.7, 0.3], [1.0, 0.0]], 3000, 5,
                 "4a866cf2a8f39745cb549197199cca2deed5963e9cd940492f9049a8f60f19a0", id="markov-q11-zero"),
]


@pytest.mark.parametrize("q, n_boxes, seed, digest", WINDOW_PINS)
def test_chain_window_draws_pinned_windows(q, n_boxes, seed, digest):
    cfg = chain_window(q, n_boxes, random.Random(seed))
    assert hashlib.sha256(b"%d|" % cfg.origin + cfg.bits).hexdigest() == digest


class _Uniforms(random.Random):
    """A random source whose ``random()`` returns ``values``, then fails."""

    def __init__(self, values):
        super().__init__(0)
        self.values = iter(values)
        self.calls = 0

    def random(self):
        self.calls += 1
        return next(self.values)


def test_chain_window_refuses_a_load_past_the_budget():
    # r = 1 - 2e-8: the largest uniform below 1 draws a load of about 1.8e9
    # at box 0, and the origin block must hold that many boxes on each side
    q = [[0.5, 0.5], [0.50000001, 0.49999999]]
    uniforms = _Uniforms([0.99, 0.99, 1 - 2**-53])
    with pytest.raises(PreconditionError, match=f"more than {BOX_BUDGET} boxes"):
        chain_window(q, 1000, uniforms)
    assert uniforms.calls == 3


def test_chain_window_refuses_a_walk_that_never_returns():
    # every draw 0: box 0 is a record, and every box right of it a ball
    uniforms = _Uniforms(repeat(0.0))
    with pytest.raises(PreconditionError, match=f"more than {BOX_BUDGET} boxes"):
        chain_window(MARKOV_Q, 1000, uniforms)
    assert uniforms.calls <= BOX_BUDGET + 2


def test_walks_refuse_an_excursion_by_the_boxes_its_tail_still_needs(monkeypatch):
    # a budget of 100 boxes: 49 balls, 49 empty boxes and the closing record
    # fit; 50 balls cannot close in time, and each walk right refuses them
    # from the tail's height, before it has drawn the budget's worth of boxes
    import boxball.core
    import boxball.line

    monkeypatch.setattr(boxball.core, "BOX_BUDGET", 100)
    monkeypatch.setattr(boxball.line, "BOX_BUDGET", 100)
    (excursion,) = markov_excursions(MARKOV_Q, 1, _Uniforms([0.0] * 49 + [0.99] * 60))
    assert excursion.bits == bytes([1] * 49 + [0] * 49)
    for walk in (partial(markov_excursions, MARKOV_Q, 1), partial(chain_window, MARKOV_Q, 10)):
        uniforms = _Uniforms(repeat(0.0))  # a record at box 0, then balls only
        with pytest.raises(PreconditionError, match="a drawn excursion would lay out more than 100"):
            walk(uniforms)
        assert uniforms.calls < 100, walk


def test_walks_count_the_box_budget_per_palm_excursion_and_over_the_whole_window(monkeypatch):
    # a budget of 100 boxes; MARKOV_Q draws a ball below 0.2 after an empty
    # box and below 0.4 after a ball
    import boxball.core
    import boxball.line

    monkeypatch.setattr(boxball.core, "BOX_BUDGET", 100)
    monkeypatch.setattr(boxball.line, "BOX_BUDGET", 100)
    # three Palm excursions of 49 balls and 49 empty boxes, 99 boxes each with
    # their records, are laid out one by one: each fits
    uniforms = _Uniforms(chain(([0.0] * 49 + [0.99] * 50) * 3, repeat(0.99)))
    excursions = markov_excursions(MARKOV_Q, 3, uniforms)
    assert excursions == [Excursion(bytes([1] * 49 + [0] * 49))] * 3
    assert uniforms.calls == 3 * 99  # the walk stops at the record it needs
    # a window is laid out whole: box 0 a record, five records, then 47 balls
    # whose excursion fits alone but not after the 6 boxes before it
    uniforms = _Uniforms(chain([0.0, 0.0], [0.99] * 5, [0.0] * 47, repeat(0.99)))
    with pytest.raises(PreconditionError, match="a drawn excursion would lay out more than 100"):
        chain_window(MARKOV_Q, 10, uniforms)
    assert uniforms.calls == 2 + 5 + 47


def test_chain_window_refuses_before_drawing():
    for n_boxes, error in ((0, ">= 1"), (BOX_BUDGET + 1, "anti-Palm window")):
        with pytest.raises(PreconditionError, match=error):
            chain_window(MARKOV_Q, n_boxes, _Uniforms(()))
    # rows that sum to 1 only up to rounding: Q(1,1) = Q(0,0), no stationary law
    with pytest.raises(DivergenceError, match="need Q"):
        chain_window([[0.5, 0.4999999999999], [0.5000000000001, 0.5]], 10, _Uniforms(()))
