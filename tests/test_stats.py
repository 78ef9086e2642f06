import random
from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from boxball import (
    BallConfig,
    ComponentArray,
    InsufficientDataError,
    PreconditionError,
    ValidationError,
    assemble,
    bernoulli_excursions,
    block_frequencies,
    chain_window,
    component_shift_check,
    config_soliton_counts,
    decompose,
    evolve,
    explicit_weights,
    fill_from_weights,
    geometric_gof,
    independence_test,
    sample_anti_palm,
    sample_excursions,
    size_biased_excursion,
    t_invariance_test,
)
from boxball.core import _loads, _sweep, carrier_trace
from boxball.stats import _chi2_sf, _pair_samples


def synthetic_components(rng, p, n, k=1):
    values = tuple(int(v) for v in rng.geometric(p, size=n) - 1)
    return ComponentArray.from_dict({k: (0, values)})


# ---------------------------------------------------------------------------
# geometric goodness of fit
# ---------------------------------------------------------------------------

def test_gof_accepts_true_law():
    rng = np.random.default_rng(1)
    comp = synthetic_components(rng, 0.5, 20_000)
    report = geometric_gof(comp, 1, 0.5)
    assert report.p_value > 1e-3
    assert all(e >= 5 for _, _, e in report.bins)
    assert report.dof == len(report.bins) - 1


def test_gof_rejects_wrong_parameter():
    rng = np.random.default_rng(2)
    comp = synthetic_components(rng, 0.5, 100_000)
    report = geometric_gof(comp, 1, 0.55)
    assert report.p_value < 1e-6


def test_gof_requires_enough_labels():
    rng = np.random.default_rng(3)
    comp = synthetic_components(rng, 0.5, 100)
    with pytest.raises(InsufficientDataError):
        geometric_gof(comp, 1, 0.5)


def test_gof_refuses_a_parameter_outside_the_unit_interval():
    comp = synthetic_components(np.random.default_rng(3), 0.5, 2_000)
    for p in (0.0, -0.5, 1.5):
        with pytest.raises(ValidationError):
            geometric_gof(comp, 1, p)


def test_gof_null_calibration():
    # p-values under the null are roughly uniform across seeds
    ps = []
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        comp = synthetic_components(rng, 0.7, 4_000)
        ps.append(geometric_gof(comp, 1, 0.7).p_value)
    ps.sort()
    kolmogorov = max(abs(p - (i + 1) / len(ps)) for i, p in enumerate(ps))
    assert kolmogorov < 0.2


def test_gof_statistic_consistent_with_p():
    from scipy.stats import chi2

    rng = np.random.default_rng(4)
    report = geometric_gof(synthetic_components(rng, 0.6, 5_000), 1, 0.6)
    assert report.p_value == _chi2_sf(report.statistic, report.dof)
    assert report.p_value == pytest.approx(float(chi2.sf(report.statistic, report.dof)), rel=1e-12)


# ---------------------------------------------------------------------------
# the chi-square tail
# ---------------------------------------------------------------------------

def test_chi2_sf_matches_scipy_on_a_seeded_grid():
    from scipy.special import chdtrc

    rng = np.random.default_rng(20261019)
    dofs = rng.integers(1, 301, size=200_000)
    xs = rng.random(dofs.size) * (4 * dofs + 50)
    ours = np.array([_chi2_sf(x, d) for x, d in zip(xs.tolist(), dofs.tolist())])
    ref = chdtrc(dofs, xs)
    kept = ref >= 1e-300
    assert kept.sum() > 190_000
    assert np.max(np.abs(ours[kept] - ref[kept]) / ref[kept]) <= 1e-12


@pytest.mark.parametrize(
    "dof, x", [(1, 1e-300), (4, 1e-300), (1600, 1600.0), (2, 1400.0), (3, 1400.0)]
)
def test_chi2_sf_far_tails_and_large_dof(dof, x):
    from scipy.special import chdtrc

    # e^(-x/2) underflows at x = 1400; the tail itself does not
    assert _chi2_sf(x, dof) == pytest.approx(float(chdtrc(dof, x)), rel=1e-12)


def test_chi2_sf_edges():
    assert _chi2_sf(0.0, 1) == _chi2_sf(0.0, 7) == 1.0
    assert _chi2_sf(-3.0, 2) == 1.0
    assert _chi2_sf(float("inf"), 1) == _chi2_sf(float("inf"), 8) == 0.0
    for dof in (0, -1, 2.0, 1.5, None):
        with pytest.raises(PreconditionError):
            _chi2_sf(1.0, dof)


# ---------------------------------------------------------------------------
# independence
# ---------------------------------------------------------------------------

def _two_row_components(rng, n):
    row1 = tuple(int(v) for v in rng.geometric(0.5, size=n) - 1)
    row2 = tuple(int(v) for v in rng.geometric(0.9, size=n) - 1)
    return ComponentArray.from_dict({1: (0, row1), 2: (0, row2)})


def test_independence_accepts_independent_rows():
    rng = np.random.default_rng(5)
    comp = _two_row_components(rng, 40_000)
    reports = independence_test(comp, [((1, 0), (1, 1)), ((1, 0), (2, 0))])
    assert all(r.p_value > 1e-3 for r in reports.values())


def test_independence_rejects_copied_row():
    rng = np.random.default_rng(6)
    row = tuple(int(v) for v in rng.geometric(0.5, size=30_000) - 1)
    comp = ComponentArray.from_dict({1: (0, row), 2: (0, row)})
    reports = independence_test(comp, [((1, 0), (2, 0))])
    assert reports[((1, 0), (2, 0))].p_value < 1e-10


def test_independence_rejects_lag_correlation():
    rng = np.random.default_rng(7)
    base = rng.geometric(0.5, size=30_001) - 1
    smeared = tuple(int(a + b) for a, b in zip(base, base[1:]))
    comp = ComponentArray.from_dict({1: (0, smeared)})
    reports = independence_test(comp, [((1, 0), (1, 1))])
    assert reports[((1, 0), (1, 1))].p_value < 1e-10


def _pairs_by_loop(components, pair):
    """The entries a pair reads, one start t at a time."""
    (k, a), (l, b) = pair
    _, row_k = components.row(k)
    _, row_l = components.row(l)
    xs, ys = [], []
    if k == l:
        stride = max(a, b) + 1
        t = 0
        while t + stride <= len(row_k):
            xs.append(row_k[t + a])
            ys.append(row_k[t + b])
            t += stride
    else:
        for t in range(min(len(row_k) - a, len(row_l) - b)):
            xs.append(row_k[t + a])
            ys.append(row_l[t + b])
    return xs, ys


_rows = st.lists(st.integers(0, 3), max_size=12)


@given(_rows, _rows, st.integers(1, 3), st.integers(0, 5), st.integers(1, 3), st.integers(0, 5))
@example([0, 1], [2], 1, 0, 1, 4)  # a row shorter than the stride
@example([0, 1, 2, 3, 1], [2], 1, 1, 1, 2)  # a row ending inside a window
@example([0, 1, 2], [2], 1, 0, 2, 3)  # min(len_k - a, len_l - b) < 0, with a = 0
@example([0, 1, 2], [2, 1], 1, 1, 2, 2)  # min(len_k - a, len_l - b) = 0
def test_pair_samples_read_the_entries_the_loop_reads(row_1, row_2, k, a, l, b):
    # row 3 is absent: an empty row
    components = ComponentArray.from_dict({1: (0, row_1), 2: (-3, row_2)})
    pair = ((k, a), (l, b))
    assert _pair_samples(components, pair) == _pairs_by_loop(components, pair)


@pytest.mark.parametrize("pair", [((1, -1), (1, 0)), ((1, 0), (2, -1))])
def test_independence_refuses_a_negative_lag(pair):
    rng = np.random.default_rng(3)
    with pytest.raises(PreconditionError):
        independence_test(_two_row_components(rng, 4000), [pair])


def test_independence_insufficient_data():
    rng = np.random.default_rng(8)
    comp = _two_row_components(rng, 300)
    with pytest.raises(InsufficientDataError):
        independence_test(comp, [((1, 0), (2, 0))])


def test_independence_on_real_palm_sample():
    anchored = assemble(bernoulli_excursions(0.25, 30_000, random.Random(9)), 0)
    comp = decompose(anchored.config)
    reports = independence_test(comp, [((1, 0), (1, 1)), ((1, 0), (2, 0))])
    assert all(r.p_value > 1e-3 for r in reports.values())


def test_independence_null_calibration():
    ps = []
    for seed in range(100):
        rng = np.random.default_rng(3000 + seed)
        comp = _two_row_components(rng, 4_000)
        ps.append(independence_test(comp, [((1, 0), (2, 0))])[((1, 0), (2, 0))].p_value)
    ps.sort()
    kolmogorov = max(abs(p - (i + 1) / len(ps)) for i, p in enumerate(ps))
    assert kolmogorov < 0.2


# ---------------------------------------------------------------------------
# invariance of the dynamics
# ---------------------------------------------------------------------------

def test_block_frequencies_disjoint():
    counts, n = block_frequencies([0, 1, 0, 1, 0, 1], 2)
    assert n == 3
    assert counts[(0, 1)] == 3


@given(st.lists(st.integers(0, 1), max_size=40), st.integers(1, 6))
@example([1, 0], 3)  # shorter than one block
@example([1, 0, 1, 1, 0], 2)  # a ragged tail
def test_block_frequencies_count_the_blocks_one_by_one(bits, block_len):
    blocks = [tuple(bits[t : t + block_len]) for t in range(0, len(bits) - block_len + 1, block_len)]
    assert block_frequencies(bits, block_len) == (Counter(blocks), len(blocks))
    assert block_frequencies(bytes(bits), block_len) == (Counter(blocks), len(blocks))


@pytest.mark.parametrize("block_len", [0, -2])
def test_block_frequencies_refuse_a_block_length_below_one(block_len):
    with pytest.raises(PreconditionError):
        block_frequencies([0, 1, 1, 0], block_len)


@given(st.lists(st.integers(0, 1), max_size=60))
def test_the_margins_largest_soliton_is_the_highest_carrier_load(bits):
    # t_invariance_test takes the highest load in the window, read off the
    # first step's image: the trace's final descent past the window starts
    # below the last of them
    config = BallConfig(1, bits)
    assert max(_loads(config.bits, _sweep(config.bits))) == max(carrier_trace(config), default=0)


def _window(q, n_boxes: int, seed: int) -> BallConfig:
    """A stationary window of ``n_boxes`` boxes of the two-state chain ``q``."""
    return chain_window(q, n_boxes, random.Random(seed))


def _bernoulli(lam):
    return [[1 - lam, lam], [1 - lam, lam]]


def test_t_invariance_bernoulli():
    report = t_invariance_test(_window(_bernoulli(0.3), 60_000, 10), 1, 4, 60_000)
    assert report.max_dev_se is not None and report.max_dev_se <= 4
    assert len(report.bins) <= 16


def test_t_invariance_markov():
    window = _window([[0.8, 0.2], [0.6, 0.4]], 60_000, 11)
    report = t_invariance_test(window, 1, 4, 60_000)
    assert report.max_dev_se <= 4


def test_t_invariance_multi_step():
    report = t_invariance_test(_window(_bernoulli(0.2), 60_000, 12), 3, 3, 60_000)
    assert report.max_dev_se <= 4


def test_t_invariance_window_guard():
    with pytest.raises(PreconditionError):
        t_invariance_test(_window(_bernoulli(0.3), 20, 0), 1, 40, 20)
    window = _window(_bernoulli(0.3), 1000, 0)
    for block_len in (0, -2):  # no blocks to compare, so nothing would be checked
        with pytest.raises(PreconditionError):
            t_invariance_test(window, 1, block_len, 1000)
    with pytest.raises(PreconditionError):
        t_invariance_test(window, 0, 4, 1000)


def test_t_invariance_refuses_its_margin_before_any_sweep_past_the_first(monkeypatch):
    # the margin is read off the first step's image; the other steps are
    # never swept when it does not fit the window
    import boxball.stats

    sweeps = []

    def one_sweep(bits, load=0):
        sweeps.append(len(bits))
        return _sweep(bits, load)

    def evolve(config, steps=1):
        raise AssertionError("swept past the first step")

    monkeypatch.setattr(boxball.stats, "_sweep", one_sweep)
    monkeypatch.setattr(boxball.stats, "evolve", evolve)
    window = _window(_bernoulli(0.25), 2000, 1)
    with pytest.raises(PreconditionError, match="interior margin"):
        t_invariance_test(window, 3000, 4, 2000)
    assert sweeps == [len(window.bits)]


def test_t_invariance_empty_measure_trivial():
    # the window of explicit weights, all zero: its fill has no level
    fill = fill_from_weights(explicit_weights([]))
    window = sample_anti_palm(partial(size_biased_excursion, fill), partial(sample_excursions, fill),
                              1000, random.Random(0))
    report = t_invariance_test(window, 1, 4, 1000)
    assert report.max_dev_se == 0.0
    assert report.bins == (("0000", 250.0, 250.0),)


def test_block_comparison_null_calibration():
    # the two-sample block machinery, fed two independent same-law windows,
    # produces roughly uniform p-values
    from scipy.stats import chi2

    ps = []
    for seed in range(100):
        rng = np.random.default_rng(4000 + seed)
        wa = (rng.random(12_000) < 0.3).astype(int)
        wb = (rng.random(12_000) < 0.3).astype(int)
        ca, na = block_frequencies(list(wa), 3)
        cb, nb = block_frequencies(list(wb), 3)
        stat = 0.0
        cells = 0
        for pat in set(ca) | set(cb):
            pooled = (ca.get(pat, 0) + cb.get(pat, 0)) / (na + nb)
            ea, eb = na * pooled, nb * pooled
            if min(ea, eb) < 5:
                continue
            stat += (ca.get(pat, 0) - ea) ** 2 / ea + (cb.get(pat, 0) - eb) ** 2 / eb
            cells += 1
        ps.append(float(chi2.sf(stat, cells - 1)))
    ps.sort()
    kolmogorov = max(abs(p - (i + 1) / len(ps)) for i, p in enumerate(ps))
    assert kolmogorov < 0.2


# ---------------------------------------------------------------------------
# component shift
# ---------------------------------------------------------------------------

def test_shift_single_soliton():
    # the free soliton advances past two fresh records: label offset 2
    report = component_shift_check(BallConfig.from_string("1100"))
    assert report.ok
    assert report.offsets.get(2) == 2


def test_shift_figure_configuration():
    fig = "1110110010110000"
    report = component_shift_check(BallConfig.from_string(fig))
    assert report.ok
    assert set(report.offsets) >= {1, 2, 4}


def test_shift_random_sweep():
    rng = np.random.default_rng(13)
    for _ in range(250):
        length = int(rng.integers(1, 200))
        density = rng.uniform(0.05, 0.45)
        cfg = BallConfig(1, tuple(int(v) for v in (rng.random(length) < density)))
        report = component_shift_check(cfg)
        assert report.ok, cfg.to_string()
        assert config_soliton_counts(cfg) == config_soliton_counts(evolve(cfg))


@given(st.lists(st.integers(0, 1), max_size=60).map(tuple))
def test_shift_counts_conserved_is_config_soliton_counts_conservation(bits):
    # equal trimmed rows have equal sums, so ``ok`` also means the soliton
    # count of every size is conserved
    cfg = BallConfig(1, bits)
    assert component_shift_check(cfg).ok
    assert config_soliton_counts(cfg) == config_soliton_counts(evolve(cfg))


def test_shift_check_fails_rows_that_move_by_other_than_k(monkeypatch):
    # two sweeps keep every component row but move row k by 2k labels
    import boxball.stats

    one_sweep = boxball.stats.evolve
    monkeypatch.setattr(boxball.stats, "evolve", lambda config, steps=1: one_sweep(config, 2 * steps))
    report = component_shift_check(BallConfig.from_string("1100"))
    assert report.offsets[2] == 4
    assert report.ok is False


def test_shift_check_is_deterministic():
    cfg = BallConfig.from_string("101100111000010")
    assert component_shift_check(cfg) == component_shift_check(cfg)
