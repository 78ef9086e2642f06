"""Tests of the benchmark's own logic: span arithmetic, layer wrapping and the
output checks.  Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import time
from pathlib import Path

import pytest

import run  # noqa: F401  (puts src/ and tests/ on sys.path)
import checks
import oracles
import spans
import workloads
from workloads import WORKLOADS


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_time_is_span_minus_children():
    tracer = spans.Tracer()
    child = tracer.wrap("child", lambda: _busy(0.02))

    def body():
        _busy(0.01)
        child()
        child()

    parent = tracer.wrap("parent", body)
    start = time.perf_counter()
    parent()
    wall = time.perf_counter() - start

    totals = tracer.totals()
    assert totals["child"][1] == 2 and totals["parent"][1] == 1
    assert 0.04 <= totals["child"][0] < 0.06
    assert 0.01 <= totals["parent"][0] < 0.03
    assert all(s >= 0 for s in tracer.self_s)
    assert sum(tracer.self_s) <= wall
    assert tracer.arithmetic_errors(wall) == []


def test_arithmetic_errors_flag_negative_and_excess_self_time():
    tracer = spans.Tracer()
    tracer.wrap("f", lambda: _busy(0.01))()
    assert tracer.arithmetic_errors(wall_s=0.001)  # more self time than wall time
    tracer.self_s[0] = -1.0
    assert any("negative" in e for e in tracer.arithmetic_errors(wall_s=1.0))


def test_installed_traces_cross_module_calls_and_restores():
    import boxball.cli as cli
    import boxball.slots as slots
    from boxball import BallConfig

    original = slots.decompose
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert cli.decompose is slots.decompose is not original
        cli.decompose(BallConfig.from_string("1110110010110000", 1))
    assert slots.decompose is original and cli.decompose is original
    totals = tracer.totals()
    assert totals["slots.decompose"][1] == 1
    assert totals["slots.diagram_from_excursion"][1] >= 1
    assert totals["core.soliton_decompose"][1] >= 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_check_accepts_real_output_and_rejects_a_flipped_ball(name, tmp_path: Path):
    import boxball.cli as cli

    workload = WORKLOADS[name](3, tmp_path, 0.25)  # the traced run's smaller size
    session = run.Session(deadline=time.monotonic() + 120)
    run.in_process(cli, session, workload.steps, tmp_path)
    assert session.failures == []
    assert session.attempted == 2 * len(workload.steps)
    assert run.self_test(workload.steps, tmp_path, seed=3) == []
    for step in workload.steps:
        text = (tmp_path / step.out).read_text()
        for position in range(0, 40, 7):
            assert step.check(checks.flip_bit(text, position)) is not None, step.args


def test_decompose_check_rejects_wrong_solitons(tmp_path: Path):
    import boxball.cli as cli

    balls = "0111011001011100011000"
    path = tmp_path / "line.txt"
    path.write_text(balls + "\n")
    decompose = workloads._calculus_steps(path, balls, 0)[0]
    run.in_process(cli, run.Session(deadline=time.monotonic() + 60), [decompose], tmp_path)
    check = decompose.check
    doc = json.loads((tmp_path / decompose.out).read_text())
    assert check(json.dumps(doc)) is None

    swapped = json.loads(json.dumps(doc))
    sol = next(s for s in swapped["solitons"] if s["k"] >= 1)
    sol["head"][0], sol["tail"][0] = sol["tail"][0], sol["head"][0]
    assert check(json.dumps(swapped)) is not None

    dropped = json.loads(json.dumps(doc))
    dropped["solitons"].pop()
    assert check(json.dumps(dropped)) is not None

    shifted = json.loads(json.dumps(doc))
    for s in shifted["solitons"]:
        s["head"] = [z + 1 for z in s["head"]]
        s["tail"] = [z + 1 for z in s["tail"]]
    assert check(json.dumps(shifted)) is not None


def test_evolve_check_rejects_a_shifted_output():
    balls = "0111011001011100011000"
    bits = [int(c) for c in balls]
    origin, out = oracles.naive_evolve(bits, 0)
    doc = {"origin": 0, "input": balls, "steps": 1,
           "output": "".join(map(str, out)), "output_origin": origin}
    assert checks.evolve(json.dumps(doc), balls=balls, origin=0, steps=1) is None
    doc["output_origin"] += 1
    assert checks.evolve(json.dumps(doc), balls=balls, origin=0, steps=1) is not None
