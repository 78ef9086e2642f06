"""Benchmark inputs, simulated here with numpy from the workload seed.

The lines fed to ``bbs decompose``, ``reconstruct``, ``render`` and
``evolve`` never come from the program's own samplers, so a change to a
sampler cannot change another command's input.  Every generator is
deterministic given its ``numpy.random.Generator``.
"""

from __future__ import annotations

import numpy as np

NEAR_CRITICAL_Q = ((0.55, 0.45), (0.46, 0.54))
STATIONARY_Q = ((0.8, 0.2), (0.6, 0.4))


def _to_string(bits) -> str:
    return np.asarray(bits, dtype=np.uint8).tobytes().translate(bytes.maketrans(b"\0\1", b"01")).decode()


def line_from_excursions(excursions: list[np.ndarray]) -> str:
    """Record box, excursion, record box, ...: the layout ``bbs sample`` prints.

    With ``--origin 0`` the first box is record 0, so the line is Palm-anchored.
    """
    parts = ["0"]
    for exc in excursions:
        parts.append(_to_string(exc))
        parts.append("0")
    return "".join(parts)


def bernoulli_excursions(lam: float, count: int, rng: np.random.Generator) -> list[np.ndarray]:
    """``count`` excursions of the walk stepping up with probability ``lam``.

    i.i.d. boxes are cut at the strict running minima of their walk; each
    excursion is the 0/1 box content strictly between two records.
    """
    out: list[np.ndarray] = []
    carry = np.empty(0, dtype=np.int8)
    while len(out) < count:
        fresh = (rng.random(4 * count + 64) < lam).astype(np.int8)
        boxes = np.concatenate((carry, fresh))
        walk = np.cumsum(2 * boxes.astype(np.int64) - 1)
        prev_min = np.minimum.accumulate(np.concatenate(([0], walk)))[:-1]
        records = np.flatnonzero(walk < prev_min)
        start = 0
        for r in records[: count - len(out)]:
            out.append(boxes[start:r])
            start = r + 1
        carry = boxes[start:]
    return out


def markov_excursion(q, rng: np.random.Generator, max_half: int) -> np.ndarray | None:
    """One excursion of the two-state chain restarted in the empty record state.

    Returns None when the excursion grows past ``max_half`` balls.
    """
    up = (q[0][1], q[1][1])
    boxes = []
    height = 0
    state = 0
    draws = rng.random(2 * max_half + 1)
    for u in draws:
        state = 1 if u < up[state] else 0
        if state:
            height += 1
        elif height == 0:
            return np.array(boxes, dtype=np.int8)
        else:
            height -= 1
        boxes.append(state)
    return None


def long_excursions(
    n_lo: int, n_hi: int, h_lo: int, h_hi: int, count: int, rng: np.random.Generator, q=NEAR_CRITICAL_Q
) -> list[np.ndarray]:
    """The first ``count`` near-critical Markov excursions drawn with
    ``n_lo <= n <= n_hi`` balls and a walk height (the size of the largest
    soliton) in ``h_lo .. h_hi``.

    Decomposing an excursion costs about n times its height, one
    Takahashi-Satsuma pass per level, so fixing both keeps the cost of the
    whole line within a few per cent from seed to seed.
    """
    out: list[np.ndarray] = []
    while len(out) < count:
        exc = markov_excursion(q, rng, n_hi)
        if exc is not None and len(exc) >= 2 * n_lo:
            height = int(np.cumsum(2 * exc.astype(np.int64) - 1).max())
            if h_lo <= height <= h_hi:
                out.append(exc)
    return out


def stationary_window(boxes: int, rng: np.random.Generator, q=STATIONARY_Q) -> str:
    """``boxes`` consecutive boxes of the stationary two-state chain.

    Runs alternate with geometric lengths: a run of state s ends with
    probability ``Q[s][1 - s]``; the first state is drawn from the stationary
    law and the first run, by memorylessness, has the same law as the others.
    """
    leave = (q[0][1], q[1][0])
    state = int(rng.random() < leave[0] / (leave[0] + leave[1]))
    out = []
    total = 0
    while total < boxes:
        runs = rng.geometric(leave[state], size=256), rng.geometric(leave[1 - state], size=256)
        for a, b in zip(*runs):
            out.append(np.full(a, state, dtype=np.int8))
            out.append(np.full(b, 1 - state, dtype=np.int8))
            total += a + b
            if total >= boxes:
                break
    return _to_string(np.concatenate(out)[:boxes])
