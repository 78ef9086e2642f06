"""The two workloads: one user session each, a closed loop with one client.

Both run every kind of command (sample, decompose, reconstruct, render,
evolve, verify), each kind on a different shape of input in each workload,
so that an optimisation of one layer moves the commands of the workload
whose input exercises it and leaves the other workload unchanged:

* ``palm-line``: many short Bernoulli(1/4) excursions everywhere.  The work
  sits in the record cut, in per-excursion Takahashi-Satsuma, in the CLI's
  per-excursion bookkeeping, in the component-array reader, in the walk
  sampler and in chi-square; ``verify shift`` adds small slot diagrams.
* ``long-stationary``: a few long near-critical Markov excursions for
  decompose, reconstruct and render, where the work sits in ``slot_positions``
  (one Takahashi-Satsuma pass per level) and in the diagram -> excursion
  builder; and one long stationary Markov window for sample, evolve and
  verify, where it sits in repeated carrier sweeps, the anti-Palm rejection
  sampler and the block statistics; the independence check draws Palm
  excursions of the same chain with the Markov walk sampler.  The
  per-excursion loops get little.

A workload is built at ``scale`` 1 or 1/4; the traced run uses both, so a
quadratic path shows as a growth ratio near 16.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import inputs


@dataclass(frozen=True)
class Step:
    """One ``bbs`` command, its end-to-end bucket and the check of its stdout."""

    metric: str
    args: tuple[str, ...]
    out: str
    check: Callable[[str], str | None]


@dataclass(frozen=True)
class Workload:
    steps: tuple[Step, ...]
    sizes: dict


def _q(q) -> str:
    return json.dumps([list(row) for row in q]).replace(" ", "")


def _line_file(work: Path, name: str, balls: str) -> Path:
    path = work / f"{name}.txt"
    path.write_text(balls + "\n")
    return path


def _calculus_steps(path: Path, balls: str, origin: int) -> list[Step]:
    """decompose | reconstruct and render of one benchmark-made line."""
    o = str(origin)
    decomposed = path.with_suffix(".decompose.json")
    return [
        Step("decompose", ("decompose", "--in", str(path), "--origin", o), decomposed.name,
             functools.partial(checks.decompose, balls=balls, origin=origin)),
        Step("reconstruct", ("reconstruct", "--in", str(decomposed)), f"{path.stem}.reconstruct.txt",
             functools.partial(checks.reconstruct, balls=balls, origin=origin)),
        Step("render", ("render", "--no-color", "--in", str(path), "--origin", o),
             f"{path.stem}.render.txt", functools.partial(checks.render, balls=balls, origin=origin)),
    ]


def _evolve_step(path: Path, balls: str, origin: int, steps: int) -> Step:
    return Step("evolve", ("evolve", "--in", str(path), "--origin", str(origin), "--steps", str(steps),
                           "--format", "json"),
                f"{path.stem}.evolve.json",
                functools.partial(checks.evolve, balls=balls, origin=origin, steps=steps))


def palm_line(seed: int, work: Path, scale: float) -> Workload:
    excursions = round(2000 * scale)
    verify_excursions = round(16000 * scale)
    configs = round(60 * scale)
    line = inputs.line_from_excursions(
        inputs.bernoulli_excursions(0.25, excursions, np.random.default_rng([seed, 1]))
    )
    path = _line_file(work, "line", line)
    bernoulli = ("--measure", "bernoulli", "--lambda", "0.25")
    steps = [
        Step("sample", ("sample", *bernoulli, "--excursions", str(excursions), "--seed", str(seed)),
             "sample.txt", checks.sample),
        *_calculus_steps(path, line, 0),
        _evolve_step(path, line, 0, 3),
        Step("verify",
             ("verify", "geometric", *bernoulli, "--excursions", str(verify_excursions),
              "--seed", str(seed), "--significance", "1e-6"),
             "verify-geometric.json", checks.verify),
        Step("verify", ("verify", "shift", "--configs", str(configs), "--seed", str(seed)),
             "verify-shift.json", checks.verify),
    ]
    sizes = {"excursions": excursions, "boxes": len(line), "verify_excursions": verify_excursions,
             "shift_configs": configs}
    return Workload(tuple(steps), sizes)


def long_stationary(seed: int, work: Path, scale: float) -> Workload:
    # heights grow like the square root of n, so the quarter-size line keeps
    # the same number of excursions, each a quarter as long and half as high
    excs = inputs.long_excursions(
        round(480 * scale), round(520 * scale), round(38 * scale**0.5), round(42 * scale**0.5),
        11, np.random.default_rng([seed, 2]),
    )
    line = inputs.line_from_excursions(excs)
    boxes = round(30000 * scale)
    verify_excursions = round(10000 * scale)
    window = inputs.stationary_window(boxes, np.random.default_rng([seed, 3]))
    markov = ("--measure", "markov", "--Q", _q(inputs.STATIONARY_Q))
    steps = [
        Step("sample", ("sample", "--anti-palm", *markov, "--boxes", str(boxes), "--seed", str(seed)),
             "sample.txt", checks.sample),
        _evolve_step(_line_file(work, "window", window), window, 1, 10),
        *_calculus_steps(_line_file(work, "line", line), line, 0),
        Step("verify",
             ("verify", "t-invariance", *markov, "--boxes", str(boxes), "--steps", "3",
              "--seed", str(seed), "--max-se", "6"),
             "verify-t-invariance.json", checks.verify),
        # Palm excursions of the same chain: the walk sampler of line.markov_excursions
        Step("verify",
             ("verify", "independence", *markov, "--excursions", str(verify_excursions),
              "--seed", str(seed), "--significance", "1e-6"),
             "verify-independence.json", checks.verify),
    ]
    sizes = {
        "excursions": len(excs),
        "half_lengths": [len(e) // 2 for e in excs],
        "line_boxes": len(line),
        "window_boxes": boxes,
        "verify_excursions": verify_excursions,
    }
    return Workload(tuple(steps), sizes)


WORKLOADS = {
    "palm-line": palm_line,
    "long-stationary": long_stationary,
}
