import math
import random
from collections import Counter
from fractions import Fraction
from itertools import accumulate

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, example, given

from boxball import (
    DivergenceError,
    Excursion,
    PreconditionError,
    SlotFill,
    ValidationError,
    bernoulli_weights,
    diagram_from_excursion,
    diagram_prob,
    enumerate_excursions,
    excursion_prob,
    expected_slot_counts,
    explicit_weights,
    fill_from_weights,
    markov_weights,
    max_size_distribution,
    mean_record_gap,
    mean_soliton_counts,
    partition_function,
    partition_series,
    sample_diagrams,
    sample_excursions,
    shift_weights,
    weights_from_fill,
)
from boxball.core import _mean_record_gap, _slot_parameters
from boxball.measures import _MAX_LEVELS, _TAIL_TOL, SolitonWeights

import oracles

# frozen oracle values
Q2_BERNOULLI_QUARTER = 9 / 169  # alpha_2 / (1 - alpha_1)^2 at lambda = 1/4
Q3_BERNOULLI_QUARTER = 27 / 1600
Z_TWO_PARAM = 40 / 27  # (1 - 0.2) / ((1 - 0.2)^2 - 0.1)

MARKOV_Q = [[0.8, 0.2], [0.6, 0.4]]
NEAR_CRITICAL_Q = ((0.55, 0.45), (0.46, 0.54))


def random_fill(rng, max_levels=6, high=0.6) -> SlotFill:
    levels = int(rng.integers(1, max_levels + 1))
    return SlotFill(tuple(float(v) for v in rng.uniform(0, high, levels)))


# ---------------------------------------------------------------------------
# parameter transform
# ---------------------------------------------------------------------------

def test_fill_passthrough_for_single_level():
    fill = fill_from_weights(explicit_weights([0.3]))
    assert fill.q == (0.3,)


def test_fill_bernoulli_quarter():
    fill = fill_from_weights(bernoulli_weights(0.25))
    assert fill.at(1) == pytest.approx(0.1875, abs=1e-16)
    assert fill.at(2) == pytest.approx(Q2_BERNOULLI_QUARTER, abs=1e-15)
    assert fill.at(3) == pytest.approx(Q3_BERNOULLI_QUARTER, abs=1e-15)


def test_fill_matches_shift_operator_iteration():
    weights = bernoulli_weights(0.25)
    fill = fill_from_weights(weights)
    vec = tuple(weights.alpha(k) for k in range(1, 16))
    for k in range(1, 8):
        assert vec[0] == pytest.approx(fill.at(k), abs=1e-15)
        vec = shift_weights(vec)


def test_weights_from_fill_examples():
    assert weights_from_fill(SlotFill((0.4,))).head == (0.4,)
    w = weights_from_fill(SlotFill((0.5, 0.5)))
    assert w.head == pytest.approx((0.5, 0.125))


def test_round_trip_both_ways():
    rng = np.random.default_rng(20260808)
    for _ in range(100):
        fill = random_fill(rng)
        back = fill_from_weights(weights_from_fill(fill), fill.levels)
        assert max(
            abs(a - b) for a, b in zip(fill.q, back.q + (0.0,) * fill.levels)
        ) < 1e-14
        weights = weights_from_fill(fill)  # a random admissible weight vector
        again = weights_from_fill(fill_from_weights(weights, fill.levels))
        assert max(
            abs(a - b)
            for a, b in zip(weights.head, again.head + (0.0,) * fill.levels)
        ) < 1e-14


def test_divergent_weights_detected():
    # two-level family diverges once alpha_2 reaches (1 - alpha_1)^2 = 0.64
    with pytest.raises(DivergenceError):
        fill_from_weights(explicit_weights([0.2, 0.65]))
    with pytest.raises(DivergenceError):
        fill_from_weights(explicit_weights([0.2, 0.8]))
    assert fill_from_weights(explicit_weights([0.2, 0.63])).levels == 2
    # rows sum to 1 only up to rounding, so a chain can pass with Q(1,1) = Q(0,0)
    weights = markov_weights([[0.5, 0.4999999999999], [0.5000000000001, 0.5]])
    for levels in (None, 3):
        with pytest.raises(DivergenceError, match="need Q"):
            fill_from_weights(weights, levels)


@given(st.lists(st.fractions(0, 1, max_denominator=40).filter(lambda a: a < 1), min_size=1,
                max_size=6))
def test_fill_matches_the_exact_rational_transform(alpha):
    # every nonzero weight is at least 1/40, so a q_j near 1 is followed only
    # by zeros or divergence, and the float recursion stays near rounding
    floats = [float(a) for a in alpha]
    exact = oracles.exact_fill([Fraction(f) for f in floats])
    assume(all(abs(q - 1) >= Fraction(1, 10**9) for q in exact))
    if exact[-1] >= 1:
        with pytest.raises(DivergenceError, match=f"q_{len(exact)} >= 1"):
            fill_from_weights(explicit_weights(floats))
        return
    fill = fill_from_weights(explicit_weights(floats))
    for k, q in enumerate(exact, 1):
        assert abs(Fraction(fill.at(k)) - q) <= q * Fraction(1, 10**12), (k, floats)


def test_trailing_zeros_are_dropped_in_one_pass():
    # a strip that copies the tuple once per zero would take about a minute here
    zeros = (0.0,) * 200_000
    assert SlotFill((0.2, 0.0, 0.1) + zeros).q == (0.2, 0.0, 0.1)
    assert SolitonWeights((0.2, 0.0, 0.1) + zeros).head == (0.2, 0.0, 0.1)
    assert SlotFill(zeros).q == () and SolitonWeights(zeros).head == ()


def test_truncation_level_is_bounded():
    weights = bernoulli_weights(0.25)
    fill = fill_from_weights(weights)
    assert fill_from_weights(weights, _MAX_LEVELS).q[: fill.levels] == fill.q
    for levels in (-1, _MAX_LEVELS + 1):
        with pytest.raises(PreconditionError):
            fill_from_weights(weights, levels)


def _chain_slot_parameter(q_matrix, k: int) -> float:
    """q_k of a two-state chain in closed form: c r^k / (1 - rho r^k)^2."""
    (q00, q01), (q10, q11) = q_matrix
    r, rho = q11 / q00, q01 / q10
    c = q01 * (q10 - q01) ** 2 / (q00 * q10 * q11)
    return c * r**k / (1 - rho * r**k) ** 2


@pytest.mark.parametrize("q_matrix", [
    ((0.75, 0.25), (0.75, 0.25)), ((0.55, 0.45), (0.55, 0.45)), MARKOV_Q,
    ((0.51, 0.49), (0.51, 0.49)), NEAR_CRITICAL_Q])
def test_near_critical_fill_follows_the_closed_form_to_its_truncation(q_matrix):
    # near criticality alpha_k = a b^k leaves the normal float range at level
    # 511 (lambda = 0.49) or 584 (the chain) while q_k is still far above the
    # truncation rule's bound; away from it the fill stops after a few levels
    fill = fill_from_weights(markov_weights(q_matrix))
    for k in range(1, fill.levels + 1):
        assert fill.at(k) == pytest.approx(_chain_slot_parameter(q_matrix, k), rel=1e-10), k
    dropped = math.fsum(_chain_slot_parameter(q_matrix, k)
                        for k in range(fill.levels + 1, 20 * fill.levels))
    assert dropped < _TAIL_TOL


@given(st.fractions(0, 1, max_denominator=40), st.fractions(0, 1, max_denominator=40))
@example(Fraction(0), Fraction(1, 2))
@example(Fraction(1, 17), Fraction(1, 16))  # r = 255/256: the rule needs 5629 levels
def test_chain_fill_matches_the_exact_rational_transform(q01, q10):
    # the closed form against the recursion on alpha_k = a b^k in rationals
    assume(q01 < q10 < 1)
    q00, q11 = 1 - q01, 1 - q10
    weights = markov_weights([[float(q00), float(q01)], [float(q10), float(q11)]])
    a, b = q01 * q10 / (q11 * q00), q11 * q00
    exact = oracles.exact_fill([a * b**k for k in range(1, 26)])
    fill = fill_from_weights(weights, 25)
    assert fill.at(1) == weights.alpha(1)
    for k, q in enumerate(exact, 1):
        assert abs(Fraction(fill.at(k)) - q) <= q * Fraction(1, 10**12), (k, q01, q10)
    # the truncated fill is a prefix whose next q_k, over 1 - r, is below the
    # tolerance; a chain so near criticality that no level up to _MAX_LEVELS
    # meets the rule is refused, which the exact closed form confirms
    r = q11 / q00
    if _chain_slot_parameter(((q00, q01), (q10, q11)), _MAX_LEVELS) / (1 - r) >= Fraction(_TAIL_TOL):
        with pytest.raises(DivergenceError, match="truncation failed"):
            fill_from_weights(weights)
        return
    truncated = fill_from_weights(weights)
    assert truncated.q[:25] == fill.q[: truncated.levels]
    if truncated.levels < 25:
        assert exact[truncated.levels] / (1 - q11 / q00) < Fraction(_TAIL_TOL)
    if q01 == 0:
        assert truncated.q == ()


@pytest.mark.parametrize("q_matrix, rel", [
    (((0.75, 0.25), (0.75, 0.25)), 1e-9), (((0.55, 0.45), (0.55, 0.45)), 1e-9), (MARKOV_Q, 1e-9),
    (((0.7, 0.3), (1.0, 0.0)), 1e-9), (((1.0, 0.0), (0.5, 0.5)), 1e-9),
    # near criticality the fill's truncation drops 1.1e-9 and 2.4e-9 of kappa
    (((0.51, 0.49), (0.51, 0.49)), 5e-9), (NEAR_CRITICAL_Q, 5e-9)])
def test_a_chains_mean_record_gap_is_its_closed_form(q_matrix, rel):
    # what sample reads of a chain, with no fill, is the fill's kappa
    kappa = _mean_record_gap(q_matrix)
    assert kappa == pytest.approx(mean_record_gap(fill_from_weights(markov_weights(q_matrix))),
                                  rel=rel)


@pytest.mark.parametrize("q_matrix", [
    ((0.75, 0.25), (0.75, 0.25)), ((0.55, 0.45), (0.55, 0.45)), ((0.51, 0.49), (0.51, 0.49)),
    MARKOV_Q, NEAR_CRITICAL_Q])
def test_largest_soliton_law_is_the_chains_height_law(q_matrix):
    # under the Palm theorem P(M > m) of the fill, prod_{l>m} (1 - q_l) short
    # of 1, is the chance that the chain's walk climbs above height m before
    # its next record, at every level; the fill drops less than _TAIL_TOL
    probs = max_size_distribution(fill_from_weights(markov_weights(q_matrix)))
    tails = list(accumulate(reversed(probs[1:])))[::-1]  # P(M > m), m = 0 .. levels - 1
    for m, tail in enumerate(tails):
        assert abs(tail - (1 - oracles.chain_height_law(q_matrix, m))) < _TAIL_TOL, m
    assert 1 - oracles.chain_height_law(q_matrix, len(tails)) < _TAIL_TOL


def test_chain_height_law_is_exact_in_rationals():
    # lambda = 1/4: P(M <= 1) = prod_{l>1} (1 - q_l) of the Bernoulli fill,
    # and P(M = 0) = 1 / Z = Q(0,0)
    lam = Fraction(1, 4)
    q = [[1 - lam, lam], [1 - lam, lam]]
    assert oracles.chain_height_law(q, 0) == 1 - lam
    assert oracles.chain_height_law(q, 1) == Fraction(12, 13)
    fill = fill_from_weights(bernoulli_weights(0.25))
    assert float(oracles.chain_height_law(q, 1)) == pytest.approx(
        math.prod(1 - v for v in fill.q[1:]), abs=_TAIL_TOL)


@pytest.mark.parametrize("q_matrix", [
    ((0.75, 0.25), (0.75, 0.25)), ((0.55, 0.45), (0.55, 0.45)), MARKOV_Q,
    ((0.51, 0.49), (0.51, 0.49)), NEAR_CRITICAL_Q, ((0.7, 0.3), (1.0, 0.0)),
    ((1.0, 0.0), (0.5, 0.5)), ((1.0, 0.0), (1.0, 0.0))])
def test_one_level_of_a_chain_is_its_fill_level(q_matrix):
    # what verify geometric reads of a chain, level by level, is the fill's
    # value bit for bit; past the fill the closed form goes on, and it is 0
    # below level 1
    fill = fill_from_weights(markov_weights(q_matrix))
    slot = _slot_parameters(q_matrix)
    assert [slot(k) for k in range(-1, fill.levels + 1)] == [0.0, 0.0, *fill.q]
    assert 0 <= slot(fill.levels + 1) < _TAIL_TOL


# ---------------------------------------------------------------------------
# partition functions
# ---------------------------------------------------------------------------

def test_partition_two_param_closed_form():
    assert partition_function(fill_from_weights(explicit_weights([0.2, 0.1]))) == pytest.approx(
        Z_TWO_PARAM, abs=1e-12
    )


def test_partition_bernoulli_and_markov_closed_forms():
    assert partition_function(fill_from_weights(bernoulli_weights(0.25))) == pytest.approx(
        4 / 3, abs=1e-10
    )
    assert partition_function(fill_from_weights(markov_weights(MARKOV_Q))) == pytest.approx(
        1.25, abs=1e-10
    )


def test_partition_levels_sum_to_total():
    # Z^m = Z P(M = m) weighs the excursions whose largest soliton has size
    # m; its sums over half-lengths n <= 8 approach it from below
    alpha = (0.2, 0.1, 0.05)
    fill = fill_from_weights(explicit_weights(alpha))
    z = partition_function(fill)
    levels = [z * p for p in max_size_distribution(fill)]
    assert sum(levels) == pytest.approx(z, rel=1e-12)
    brute = [Fraction(0)] * len(levels)
    for path, w in oracles.brute_excursion_probs(alpha, 8).items():
        if w:
            balls = [(s + 1) // 2 for s in path]
            brute[max(oracles.naive_counts(balls), default=0)] += w
    assert brute[0] == 1 and levels[0] == pytest.approx(1, rel=1e-12)
    # the excursions holding only 1-solitons weigh 0.2^n at each half-length n
    assert levels[1] == pytest.approx(float(brute[1]) + 0.2**9 / 0.8, rel=1e-12)
    assert all(float(b) < level for b, level in zip(brute[2:], levels[2:]))


def test_partition_series_trivial():
    assert partition_series(explicit_weights([0.5]), 0).value == 1.0


def test_partition_series_catalan():
    series = partition_series(bernoulli_weights(0.25), 40)
    assert abs(series.value - 4 / 3) <= 1e-6
    assert abs(series.value - 4 / 3) <= series.tail_bound
    # the partial sums are exactly the Catalan series
    beta = 0.1875
    direct = sum(
        math.comb(2 * n, n) // (n + 1) * beta**n for n in range(41)
    )
    assert series.value == pytest.approx(direct, rel=1e-15)


def test_partition_series_narayana():
    series = partition_series(markov_weights(MARKOV_Q), 60)
    assert abs(series.value - 1.25) <= 1e-6
    assert abs(series.value - 1.25) <= series.tail_bound
    # at n_max = 40 the Narayana tail is still above 1e-6
    shorter = partition_series(markov_weights(MARKOV_Q), 40)
    assert 1e-6 < abs(shorter.value - 1.25) <= shorter.tail_bound


def test_partition_series_counts_beyond_float_range():
    # C_n passes float range at n = 518, where the weights of those
    # excursions are still small, so the partial sums stay finite and exact
    series = partition_series(bernoulli_weights(0.25), 600)
    exact = sum(Fraction(math.comb(2 * n, n) // (n + 1)) * Fraction(3, 16) ** n for n in range(601))
    assert series.value == pytest.approx(float(exact), rel=1e-14)
    assert 0 < series.tail_bound < 1e-70
    # a = Q(0,1)Q(1,0) / (Q(1,1)Q(0,0)) = 7.36 here: sum_k N(n, k) a^k passes
    # float range near n = 270 while b^n underflows
    series = partition_series(markov_weights([[0.55, 0.45], [0.9, 0.1]]), 300)
    assert series.value == pytest.approx(1 / 0.55, abs=1e-9)
    assert 0 < series.tail_bound < 1e-30
    # Q(0,1) = 0 gives a = 0: no excursion but the empty one has weight
    assert partition_series(markov_weights([[1.0, 0.0], [0.9, 0.1]]), 600).value == 1.0


def test_partition_series_profile_vs_enumeration():
    # grouped profile sums equal full excursion enumeration, term by term
    for alpha in ([0.2, 0.1], [0.3], [0.1, 0.05, 0.3]):
        terms = oracles.brute_partition_terms(alpha, 6)
        for n_max in range(7):
            got = partition_series(explicit_weights(alpha), n_max).value
            assert got == pytest.approx(
                float(sum(terms[: n_max + 1])), rel=1e-13
            )


def test_partition_series_two_param_tight():
    series = partition_series(explicit_weights([0.2, 0.1]), 60)
    assert abs(series.value - Z_TWO_PARAM) <= 1e-9


def test_enumeration_cardinalities():
    for n in range(11):
        count = sum(1 for _ in enumerate_excursions(n))
        assert count == math.comb(2 * n, n) // (n + 1)
    # excursions by peak count follow the Narayana triangle
    for n in range(1, 9):
        peaks = Counter()
        for path in oracles.dyck_paths(n):
            peaks[sum(1 for a, b in zip(path, path[1:]) if a == 1 and b == -1)] += 1
        for k in range(1, n + 1):
            assert peaks[k] == math.comb(n, k) * math.comb(n, k - 1) // n


# ---------------------------------------------------------------------------
# probabilities
# ---------------------------------------------------------------------------

def test_excursion_prob_examples():
    weights = explicit_weights([0.2, 0.1])
    assert excursion_prob(weights, Excursion()) == pytest.approx(
        27 / 40, abs=1e-12
    )
    assert excursion_prob(weights, Excursion.from_string("10")) == pytest.approx(
        0.135, abs=1e-12
    )


def test_excursion_prob_normalizes():
    weights = explicit_weights([0.2, 0.1])
    z = partition_function(fill_from_weights(weights))
    running = 0.0
    last = -1.0
    for n in range(9):
        running += sum(excursion_prob(weights, exc) for exc in enumerate_excursions(n))
        assert running > last
        last = running
        partial = partition_series(weights, n).value / z
        assert running == pytest.approx(partial, abs=1e-12)
    assert 1 - running <= partition_series(weights, 8).tail_bound / z


def test_excursion_prob_zero_weight_sizes():
    weights = explicit_weights([0.5])
    assert excursion_prob(weights, Excursion.from_string("1100")) == 0.0


def test_diagram_prob_examples():
    fill = SlotFill((0.25, 0.1))
    assert diagram_prob(fill, diagram_from_excursion(Excursion())) == pytest.approx(
        0.75 * 0.9, abs=1e-15
    )
    one = diagram_from_excursion(Excursion.from_string("10"))
    assert diagram_prob(SlotFill((0.25,)), one) == pytest.approx(
        0.25 * 0.75, abs=1e-15
    )


def test_measure_equality_exhaustive():
    weights = explicit_weights(
        [bernoulli_weights(0.2).alpha(k) for k in range(1, 7)]
    )
    fill = fill_from_weights(weights)
    worst = 0.0
    for n in range(7):
        for exc in enumerate_excursions(n):
            nu = excursion_prob(weights, exc)
            phi = diagram_prob(fill, diagram_from_excursion(exc))
            worst = max(worst, abs(nu - phi))
    assert worst <= 1e-12


def test_probabilities_match_enumeration_oracle():
    alpha = [Fraction(1, 5), Fraction(1, 10)]
    weights = explicit_weights([float(a) for a in alpha])
    table = oracles.brute_excursion_probs(alpha, 5)
    z = Fraction(27, 40) ** -1  # exact partition function 40/27
    for steps, w in table.items():
        exc = Excursion(bytes((s + 1) // 2 for s in steps))
        assert excursion_prob(weights, exc) == pytest.approx(
            float(w / z), abs=1e-14
        )


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_max_size_distribution_normalizes():
    probs = max_size_distribution(SlotFill((0.5,)))
    assert probs == pytest.approx([0.5, 0.5])
    rng = np.random.default_rng(3)
    fill = random_fill(rng)
    assert sum(max_size_distribution(fill)) == pytest.approx(1.0)


def test_sampler_trivial_cases():
    rng = random.Random(0)
    assert sample_diagrams(SlotFill(()), 1, rng)[0].max_size == 0
    assert sample_excursions(fill_from_weights(explicit_weights([])), 1, rng) == [Excursion()]


def test_sampler_reproducible():
    fill = fill_from_weights(bernoulli_weights(0.25))
    a = sample_excursions(fill, 50, random.Random(42))
    b = sample_excursions(fill, 50, random.Random(42))
    assert a == b


def test_sampled_diagram_frequencies_match_probabilities():
    # chi-square over per-diagram frequencies at one million draws
    from scipy.stats import chi2

    from boxball import SlotDiagram

    fill = fill_from_weights(bernoulli_weights(0.25))
    rng = random.Random(20260808)
    draws = 1_000_000
    counts = Counter(d.rows for d in sample_diagrams(fill, draws, rng))
    observed, expected = [], []
    covered = 0.0
    for rows, obs in counts.most_common():
        p = diagram_prob(fill, SlotDiagram(rows))
        if draws * p < 20:
            break
        observed.append(obs)
        expected.append(draws * p)
        covered += p
    observed.append(draws - sum(observed))
    expected.append(draws * (1 - covered))
    stat = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    p_value = float(chi2.sf(stat, len(observed) - 1))
    assert p_value > 1e-3
    # the empty diagram dominates with probability 1/Z = 3/4
    assert counts[()] / draws == pytest.approx(0.75, abs=0.002)


def test_sampled_half_length_one_split():
    # with q = (0.5,): P(empty) = 0.5 and counts at the single slot geometric
    rng = random.Random(9)
    sizes = Counter(d.solitons(1) for d in sample_diagrams(SlotFill((0.5,)), 40_000, rng))
    assert sizes[0] / 40_000 == pytest.approx(0.5, abs=0.01)
    assert sizes[1] / 40_000 == pytest.approx(0.25, abs=0.01)
    assert sizes[2] / 40_000 == pytest.approx(0.125, abs=0.01)


def test_sampled_max_sizes_follow_max_size_distribution():
    # M is drawn by bisection on the cumulative law; lambda = 0.45 spreads it
    # over many levels
    from boxball.stats import _chi_square

    fill = fill_from_weights(bernoulli_weights(0.45))
    probs = max_size_distribution(fill)
    draws = 100_000
    sizes = Counter(d.max_size for d in sample_diagrams(fill, draws, random.Random(44)))
    observed = [sizes[m] for m in range(len(probs))]
    assert sum(observed) == draws
    report = _chi_square(observed, [draws * p for p in probs], range(len(probs)))
    assert report.p_value > 1e-3


@pytest.mark.parametrize("k", [1, 4])
def test_sampled_rows_are_geometric(k):
    # every entry of row k, the implicit (0,) of a diagram below size k
    # included, is Geometric(1 - q_k); at lambda = 1/4, q_4 < 0.01, so nearly
    # every entry there is one skip over zeros
    from boxball.stats import _chi_square

    fill = fill_from_weights(bernoulli_weights(0.25))
    q = fill.at(k)
    assert k == 1 or q < 0.01
    entries = Counter(
        v
        for d in sample_diagrams(fill, 100_000, random.Random(40 + k))
        for v in (d.rows[k - 1] if k <= d.max_size else (0,))
    )
    n = sum(entries.values())
    top = max(entries)
    observed = [entries[j] for j in range(top + 1)] + [0]
    p = 1 - q  # the pmf of Geometric(p) is p (1 - p)^j
    expected = [n * (p * (1 - p) ** j) for j in range(top + 1)] + [n * q ** (top + 1)]
    report = _chi_square(observed, expected, range(top + 2))
    assert report.p_value > 1e-3


# ---------------------------------------------------------------------------
# expected slot counts
# ---------------------------------------------------------------------------

def test_slot_count_means_zero_fill():
    betas, mean_size = expected_slot_counts(SlotFill(()))
    assert betas == (1.0,)
    assert mean_size == 0.0


def test_slot_count_means_single_level():
    betas, mean_size = expected_slot_counts(SlotFill((0.5,)))
    assert betas == (3.0, 1.0)
    assert mean_size == pytest.approx(2.0)


def test_slot_count_means_bernoulli_limit():
    fill = fill_from_weights(bernoulli_weights(0.25), 200)
    betas, mean_size = expected_slot_counts(fill)
    assert betas[0] == pytest.approx(2.0, abs=1e-9)
    assert mean_size == pytest.approx(betas[0] - 1.0, abs=1e-12)
    assert mean_record_gap(fill_from_weights(bernoulli_weights(0.25))) == pytest.approx(2.0, abs=1e-9)


def test_mean_soliton_counts_bernoulli():
    # sum_k k rho_k = lambda / (1 - 2 lambda) = 1/2 at lambda = 1/4
    rho = mean_soliton_counts(fill_from_weights(bernoulli_weights(0.25)))
    assert sum(k * v for k, v in rho.items()) == pytest.approx(0.5, abs=1e-9)
    # every ball belongs to one soliton: sum_k k E[n_k] = (kappa - 1) / 2
    for weights in (
        bernoulli_weights(0.25),
        bernoulli_weights(0.45),
        markov_weights(MARKOV_Q),
        explicit_weights([0.2, 0.1, 0.05]),
    ):
        fill = fill_from_weights(weights)
        rho = mean_soliton_counts(fill)
        kappa = mean_record_gap(fill)
        assert sum(k * v for k, v in rho.items()) == pytest.approx((kappa - 1) / 2, rel=1e-12)


@pytest.mark.parametrize(
    "weights",
    [explicit_weights([0.1, 0.02]), markov_weights([[0.95, 0.05], [0.8, 0.2]])],
    ids=["explicit", "markov"],
)
def test_mean_soliton_counts_match_enumeration(weights):
    n_max = 8
    alpha = [weights.alpha(k) for k in range(1, n_max + 1)]
    probs = oracles.brute_excursion_probs(alpha, n_max)
    sums = Counter()
    for path, w in probs.items():
        for k, c in oracles.naive_counts([(s + 1) // 2 for s in path]).items():
            sums[k] += c * w
    total = sum(probs.values())
    rho = mean_soliton_counts(fill_from_weights(weights))
    assert all(v > 0 for v in rho.values())
    for k in sums.keys() | rho.keys():
        assert rho.get(k, 0.0) == pytest.approx(float(sums[k] / total), abs=1e-5), k


# ---------------------------------------------------------------------------
# constructors and parameter files
# ---------------------------------------------------------------------------

def test_bernoulli_weights_values():
    weights = bernoulli_weights(0.25)
    assert weights.alpha(1) == pytest.approx(0.1875)
    assert weights.alpha(3) == pytest.approx(0.1875**3)
    assert bernoulli_weights(0.0).alpha(1) == 0.0
    with pytest.raises(PreconditionError):
        bernoulli_weights(0.5)


def test_markov_weights_values():
    weights = markov_weights(MARKOV_Q)
    assert weights.chain == ((0.8, 0.2), (0.6, 0.4))
    assert weights.alpha(3) == pytest.approx(0.375 * 0.32**3)
    assert partition_function(fill_from_weights(weights)) == pytest.approx(1.25, rel=1e-12)
    with pytest.raises(PreconditionError):
        markov_weights([[0.4, 0.6], [0.5, 0.5]])
    with pytest.raises(ValidationError):
        markov_weights([[0.7, 0.2], [0.6, 0.4]])


def test_markov_reduces_to_bernoulli_when_rows_match():
    lam = 0.3
    q = [[1 - lam, lam], [1 - lam, lam]]
    weights = markov_weights(q)
    bern = bernoulli_weights(lam)
    for k in range(1, 8):
        assert weights.alpha(k) == pytest.approx(bern.alpha(k), rel=1e-12)


def test_markov_without_double_balls():
    weights = markov_weights([[0.8, 0.2], [1.0, 0.0]])
    assert weights.head == (0.2 * 1.0,) and weights.chain is None
    assert weights.alpha(2) == 0.0
    assert fill_from_weights(weights).q == (0.2,)
    assert partition_function(fill_from_weights(weights)) == pytest.approx(1 / 0.8, rel=1e-12)

