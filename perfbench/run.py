"""boxball benchmark: ``bbs`` command sessions, timed end to end and per layer.

Usage, from the root of a source checkout (the package need not be installed):

    python3 perfbench/run.py --workload palm-line --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the workload's commands as a user would: one fresh
``python -m boxball.cli`` process per command, in sequence, one client in a
closed loop, repeating the whole sequence while it fits in ``--seconds``.  It
reports per-command times (medians over the repetitions), the set-up time of
a bare ``bbs --version`` (one per repetition) and the peak RSS of the
command processes.

The times are wall times rescaled to a reference CPU speed.  On a shared
host the speed of one core drifts by up to 1.7x within seconds, as other
tenants load its hyperthread sibling, and a raw wall-time median then
depends on how long the run spent in the slow phases.  So the benchmark and
its commands are pinned to one core, and while a command runs the benchmark
times a fixed piece of Python work of about a millisecond (``Probe``) on
that core every 50 ms.  The command's wall time is multiplied by
``REFERENCE_PROBE_S`` over the mean probe time, raised to
``SPEED_EXPONENT``.  The raw wall times go to the results file.

``--trace 1`` runs the same commands in this process through
``boxball.cli.main`` with every layer function wrapped in a span (see
``spans.py``), at the workload's size and at a quarter of it, plus an
untraced in-process pass whose difference from the traced one is the tracing
overhead.  It reports self time, calls and n/4 -> n growth per layer, the
layer counters and the import time of each module.

Every command output is checked (outside the timed regions) against the
brute-force oracles in ``tests/oracles.py``; a nonzero exit code or a failed
check counts as a failed operation.  Each run also flips one ball in every
checked output and requires the check to reject it.  The last stdout line is
the JSON result; the full record, with the environment, the sizes, the
sample counts and the sha256 of every output, goes to ``perfbench/results``,
and a traced run adds the spans of its last pass at each size there as
``.npz`` arrays (name, parent, start, end, self time per span).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import re
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 170  # every run must have exited after 180 s
# about the probe's typical duration while a command runs, on the 2-core Intel
# Xeon VM the benchmark was tuned on, so that times read near wall seconds;
# any fixed value works, it only sets the scale
REFERENCE_PROBE_S = 1.2e-3
PROBE_EVERY_MS = 50  # the probes take about 3% of the core from the command
# The commands slow less than the probe when the core is shared: over 10 runs
# of each workload on that VM, log(command wall time) rose with log(probe
# time) at a slope of 0.6-0.8 for every command kind, 0.7 for their sum.
SPEED_EXPONENT = 0.7
VERSION = ("--version",)
E2E = ("setup_s", "wall_s", "sample_s", "decompose_s", "reconstruct_s", "render_s",
       "evolve_s", "verify_s", "peak_rss_mb")
IMPORTED_MODULES = ("core", "slots", "measures", "line", "stats", "cli")
SUPERLINEAR = 8.0


def _fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not (ROOT / "src" / "boxball" / "cli.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
    _fail_setup(f"no boxball source checkout at {ROOT} (need src/boxball and tests/oracles.py)")
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
# One client, one thread: numpy's BLAS would start a thread per core at import,
# which the commands never use but which slows and jitters every start-up.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------

def summary(values: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    out = {"median": statistics.median(ordered), "n": len(ordered)}
    if len(ordered) >= 11:
        out[f"p{100 * (len(ordered) - 10) / len(ordered):.0f}"] = ordered[-11]
    return out


def trimmed_mean(values: list[float], cut: float = 0.2) -> float:
    ordered = sorted(values)
    k = int(len(ordered) * cut)
    return statistics.fmean(ordered[k : len(ordered) - k])


def environment() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "click": version("click"),
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


# ---------------------------------------------------------------------------
# running commands
# ---------------------------------------------------------------------------

class Session:
    """Runs and checks workload steps, counting attempted and failed operations."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.attempted = 0
        self.failures: list[str] = []
        self.probe = Probe()
        self.passed: dict[Path, str] = {}  # output file -> sha256 of its last checked-correct content
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def fail(self, what: str) -> None:
        self.failures.append(what)

    def spawn(self, argv: list[str], out: Path) -> tuple[int, float, float]:
        """Run ``argv`` with stdout to ``out``; returns (exit code, wall
        seconds, mean probe seconds while it ran).

        The wait is a ``poll`` on a pidfd, so the end time is exact; each time
        the poll times out, the probe runs on the (shared) core.  The mean
        drops the fastest and slowest fifth of the probes: a probe can be
        preempted, or catch the core in a phase too short to matter.
        """
        speeds = []
        with open(out, "wb") as stdout, open(out.with_suffix(".stderr"), "wb") as stderr:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=self.env, cwd=ROOT)
            pidfd = os.pidfd_open(proc.pid)
            try:
                poller = select.poll()
                poller.register(pidfd, select.POLLIN)
                while not poller.poll(PROBE_EVERY_MS):
                    speeds.append(self.probe())
                    if time.monotonic() > self.deadline:
                        proc.kill()
                elapsed = time.perf_counter() - start
            finally:
                os.close(pidfd)
            rc = proc.wait()
        return rc, elapsed, trimmed_mean(speeds) if speeds else self.probe()

    def timed(self, args, out: Path) -> tuple[int, float, float]:
        """One ``bbs`` process; returns (exit code, wall seconds, wall seconds
        at the reference CPU speed)."""
        rc, elapsed, speed = self.spawn([sys.executable, "-m", "boxball.cli", *args], out)
        return rc, elapsed, elapsed * (REFERENCE_PROBE_S / speed) ** SPEED_EXPONENT

    def command(self, step, work: Path) -> tuple[float, float]:
        """One ``bbs`` process for ``step``; returns its wall and rescaled time."""
        rc, elapsed, scaled = self.timed(step.args, work / step.out)
        self.record(step, work, rc)
        return elapsed, scaled

    def version(self, work: Path) -> tuple[float, float]:
        """A bare ``bbs --version``: the start-up every command pays."""
        rc, elapsed, scaled = self.timed(VERSION, work / "version.txt")
        self.attempted += 1
        if rc != 0:
            self.fail(f"bbs --version: exit code {rc}")
        return elapsed, scaled

    def record(self, step, work: Path, rc: int) -> None:
        """Count the command and the check of its output (untimed).

        An output byte-identical to one that passed its check passes again
        without re-running the oracle, which would take most of a repetition.
        """
        self.attempted += 2
        what = " ".join(step.args[:2])
        out = work / step.out
        if rc != 0:
            stderr = out.with_suffix(".stderr")
            self.fail(f"{what}: exit code {rc}: {stderr.read_text()[-300:] if stderr.is_file() else ''}")
        data = out.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if self.passed.get(out) == digest:
            return
        try:
            err = step.check(data.decode())
        except (ValueError, KeyError, TypeError) as exc:
            err = f"unreadable output ({exc})"
        if err is not None:
            self.fail(f"{what}: {err}")
        else:
            self.passed[out] = digest


def self_test(steps, work: Path, seed: int) -> list[str]:
    """Flip one ball of every checked output; each check must reject the result."""
    missed = []
    for i, step in enumerate(steps):
        text = (work / step.out).read_text()
        try:
            if step.check(text) is not None:
                continue  # already counted as a failure
        except (ValueError, KeyError, TypeError):
            continue
        if step.check(checks.flip_bit(text, seed + 7919 * i)) is None:
            missed.append(f"{' '.join(step.args[:2])}: a flipped ball passed the check")
    return missed


def digests(steps, work: Path) -> dict:
    return {step.out: hashlib.sha256((work / step.out).read_bytes()).hexdigest() for step in steps}


class Probe:
    """A fixed piece of Python work, about a millisecond long, whose duration
    tracks the current speed of this core: an arithmetic loop (execution
    units) and random reads over a large list (caches and memory)."""

    def __init__(self):
        rng = random.Random(0)
        self._big = list(range(1_000_000))
        self._reads = [rng.randrange(len(self._big)) for _ in range(1_500)]

    def __call__(self) -> float:
        start = time.perf_counter()
        total = 0
        for k in range(4_000):
            total += k
        for i in self._reads:
            total += self._big[i]
        return time.perf_counter() - start


def pin_to_one_core() -> int:
    """Pin this process, and so every command it starts, to one core, so that
    the probes time the core the commands run on."""
    core = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    return core


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics
# ---------------------------------------------------------------------------

def untraced(args, session: Session, work: Path) -> dict:
    workload = WORKLOADS[args.workload](args.seed, work, 1.0)
    core = pin_to_one_core()
    session.version(work)  # untimed: byte-compiles and pages in the package once
    names = [name for name in E2E if name != "peak_rss_mb"]
    samples: dict[str, list[float]] = {name: [] for name in names}
    walls: dict[str, list[float]] = {name: [] for name in names}
    stop = time.monotonic() + args.seconds
    self_test_missed = None
    while True:
        began = time.monotonic()
        scaled = dict.fromkeys(names, 0.0)
        wall = dict.fromkeys(names, 0.0)
        wall["setup_s"], scaled["setup_s"] = session.version(work)
        for step in workload.steps:
            elapsed, rescaled = session.command(step, work)
            for name in (f"{step.metric}_s", "wall_s"):
                wall[name] += elapsed
                scaled[name] += rescaled
        for name in names:
            samples[name].append(scaled[name])
            walls[name].append(wall[name])
        if self_test_missed is None:
            self_test_missed = self_test(workload.steps, work, args.seed)
        took = time.monotonic() - began
        if time.monotonic() + took > stop or time.monotonic() + took > session.deadline - 10:
            break
    timings = {
        name: {**summary(samples[name]), "wall_median": statistics.median(walls[name]),
               "samples": samples[name], "wall_samples": walls[name]}
        for name in names
    }
    metrics = {name: {"value": t["median"], "unit": "s"} for name, t in timings.items()}
    metrics["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB"}
    return {
        "metrics": {name: metrics[name] for name in E2E},
        "details": timings,
        "sizes": workload.sizes,
        "pinned_core": core,
        "self_test_missed": self_test_missed,
        "outputs_sha256": digests(workload.steps, work),
    }


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------

def import_times(session: Session, work: Path) -> dict[str, float]:
    """Cumulative import time of each boxball module in a fresh interpreter."""
    rc, *_ = session.spawn([sys.executable, "-X", "importtime", "-c", "import boxball.cli"], work / "import.txt")
    session.attempted += 1
    if rc != 0:
        session.fail(f"import boxball.cli: exit code {rc}")
    out = {}
    for line in (work / "import.stderr").read_text().splitlines():
        m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*boxball\.(\w+)\s*$", line)
        if m:
            out[m.group(2)] = int(m.group(1)) / 1e6
    return {f"setup.import.{name}_s": out.get(name, 0.0) for name in IMPORTED_MODULES}


def in_process(cli, session: Session, steps, work: Path) -> float:
    """Run ``steps`` through ``cli.main`` in this process; returns the summed
    command wall time."""
    import click

    gc.collect()
    total = 0.0
    for step in steps:
        with open(work / step.out, "w") as out, contextlib.redirect_stdout(out):
            start = time.perf_counter()
            try:
                cli.main(list(step.args), standalone_mode=False)
                rc = 0
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            except click.ClickException as exc:
                rc = exc.exit_code
            except Exception:  # a crash of the program is a failed operation, as in a process
                (work / step.out).with_suffix(".stderr").write_text(traceback.format_exc())
                rc = 1
            total += time.perf_counter() - start
        session.record(step, work, rc)
    return total


def layer_values(tracer: spans.Tracer) -> dict[str, float]:
    totals = tracer.totals()
    out = {}
    names = [f"{layer}.{fn}" for layer, fns in spans.LAYERS.items() for fn in fns]
    names += [f"cli.{cmd}" for cmd in spans.CLI_COMMANDS]
    for name in names:
        self_s, calls = totals.get(name, (0.0, 0))
        out[f"{name}.self_s"] = self_s
        out[f"{name}.calls"] = calls
    c = tracer.counters
    proposals = c.get("line.sample_anti_palm.proposals", 0)
    out["line.sample_anti_palm.proposals"] = proposals
    out["line.sample_anti_palm.clipped"] = c.get("line.sample_anti_palm.clipped", 0)
    out["line.sample_anti_palm.accept_ratio"] = (
        totals.get("line.sample_anti_palm", (0, 0))[1] / proposals if proposals else 0.0
    )
    returned = c.get("measures.sample_excursions.returned", 0)
    out["measures.sample_excursions.repeat_share"] = (
        c.get("measures.sample_excursions.repeats", 0) / returned if returned else 0.0
    )
    out["stats.chi_square.bins_merged"] = c.get("stats.chi_square.bins_merged", 0)
    return out


def traced(args, session: Session, work: Path) -> dict:
    import numpy as np

    imports = import_times(session, work)
    cli = __import__("boxball.cli", fromlist=["main"])
    sizes, loads = {}, {}
    for label, scale in (("quarter", 0.25), ("n", 1.0)):
        (work / label).mkdir()
        loads[label] = WORKLOADS[args.workload](args.seed, work / label, scale)
        sizes[label] = loads[label].sizes
    reps = {"quarter": [], "n": []}
    overheads, arithmetic, tracers = [], [], {}
    stop = time.monotonic() + args.seconds
    self_test_missed = None
    while True:
        began = time.monotonic()
        walls = {}
        for label in ("quarter", "n"):
            tracer = spans.Tracer()
            with spans.installed(tracer):
                walls[label] = in_process(cli, session, loads[label].steps, work / label)
            arithmetic += [f"{label}: {e}" for e in tracer.arithmetic_errors(walls[label])]
            reps[label].append(layer_values(tracer))
            tracers[label] = tracer
        plain = in_process(cli, session, loads["n"].steps, work / "n")
        overheads.append(walls["n"] - plain)
        if self_test_missed is None:
            self_test_missed = self_test(loads["n"].steps, work / "n", args.seed)
        took = time.monotonic() - began
        if time.monotonic() + took > stop or time.monotonic() + took > session.deadline - 10:
            break
    for e in arithmetic:
        session.fail(f"span arithmetic: {e}")

    def median_of(label):
        return {k: statistics.median(r[k] for r in reps[label]) for k in reps[label][0]}

    layers = {label: median_of(label) for label in reps}
    metrics, superlinear = {}, []
    for key, value in layers["n"].items():
        unit = "s" if key.endswith("_s") else "count"
        if key.endswith(("ratio", "share")):
            unit = "ratio"
        metrics[key] = {"value": value, "unit": unit}
        if key.endswith(".self_s"):
            base = key[: -len(".self_s")]
            quarter = layers["quarter"][key]
            growth = value / quarter if quarter > 0 and value > 0 else 0.0
            metrics[f"{base}.growth_4x"] = {"value": growth, "unit": "ratio"}
            if growth > SUPERLINEAR:
                superlinear.append({"layer": base, "growth_4x": growth, "self_s_quarter": quarter,
                                    "self_s_n": value, "sizes": sizes})
    for step in ("sample", "decompose"):
        out = next(s.out for s in loads["n"].steps if s.metric == step)
        metrics[f"cli.{step}.out_bytes"] = {"value": (work / "n" / out).stat().st_size, "unit": "bytes"}
    for key, value in imports.items():
        metrics[key] = {"value": value, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": statistics.median(overheads), "unit": "s"}
    for label, tracer in tracers.items():
        np.savez_compressed(work / f"spans-{label}.npz", **tracer.to_arrays())
    details = {key: {"n/4": value} for key, value in layers["quarter"].items()}
    return {
        "metrics": metrics,
        "details": details,
        "layers": layers,
        "sizes": sizes,
        "repetitions": len(reps["n"]),
        "superlinear": sorted(superlinear, key=lambda s: -s["growth_4x"]),
        "self_test_missed": self_test_missed,
        "outputs_sha256": digests(loads["n"].steps, work / "n"),
    }


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    session = Session(time.monotonic() + RUN_LIMIT_S)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = HERE / "_work" / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    results_dir = HERE / "results"
    try:
        result = (traced if args.trace else untraced)(args, session, work)
        results_dir.mkdir(exist_ok=True)
        if args.trace:
            for label in ("quarter", "n"):
                shutil.copy(work / f"spans-{label}.npz", results_dir / f"{tag}-spans-{label}.npz")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missed = result.pop("self_test_missed") or []
    correct = not session.failures and not missed
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "correct": correct,
        "attempted": session.attempted,
        "failed": len(session.failures),
        "failed_share": len(session.failures) / session.attempted,
        "failures": session.failures,
        "self_test_missed": missed,
        **result,
    }
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    for name, m in result["metrics"].items():
        extra = result["details"].get(name, {})
        detail = "".join(f"  {k}={v:.4g}" for k, v in extra.items() if not isinstance(v, list))
        print(f"{name:48s} {m['value']:.6g} {m['unit']}{detail}")
    for s in result.get("superlinear", []):
        print(f"superlinear: {s['layer']} self time x{s['growth_4x']:.1f} "
              f"({s['self_s_quarter']:.4g} s at n/4 -> {s['self_s_n']:.4g} s at n)")
    for failure in session.failures + missed:
        print(f"FAILED: {failure}")
    print(f"checks: {session.attempted - len(session.failures)}/{session.attempted} operations ok; "
          f"results in {results_dir / (tag + '.json')}")
    print(json.dumps({
        "correct": correct,
        "attempted": session.attempted,
        "failed": len(session.failures),
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
