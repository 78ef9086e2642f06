"""Output checks: properties each command's output must have, never digests.

Each check takes a command's stdout (plus, bound beforehand, the input it
was given) and returns None when the output is correct or a one-line reason
when it is not.  The references are the brute-force transcriptions in the
repository's ``tests/oracles.py``; an intended change of seeded output
(another sampler drawing other numbers) still passes.
"""

from __future__ import annotations

import json
import re

import oracles


def _parse_config(line: str) -> tuple[int, str]:
    origin, _, balls = line.strip().partition(" ")
    return int(origin), balls


def _trimmed(origin: int, balls: str) -> tuple[int, str]:
    lo, hi = balls.find("1"), balls.rfind("1")
    if lo < 0:
        return 1, ""
    return origin + lo, balls[lo : hi + 1]


def _bits(balls: str) -> list[int]:
    return [1 if c == "1" else 0 for c in balls]


def _window(balls: str, origin: int, lo: int, hi: int) -> str:
    """Box contents of ``lo .. hi`` with empty padding outside the input."""
    left = balls[max(lo - origin, 0) : max(hi - origin + 1, 0)]
    return "0" * max(origin - lo, 0) + left + "0" * (hi - lo + 1 - max(origin - lo, 0) - len(left))


def sample(text: str) -> str | None:
    """Text output ``origin balls`` / ``records``: records match a direct scan."""
    lines = text.splitlines()
    if len(lines) != 2:
        return f"expected 2 lines, got {len(lines)}"
    origin, balls = _parse_config(lines[0])
    if not balls or set(balls) - {"0", "1"}:
        return "ball string missing or not over 0/1"
    records = [int(v) for v in lines[1].split()]
    if records != oracles.naive_records(_bits(balls), origin):
        return "records differ from the direct scan"
    return None


def decompose(text: str, balls: str, origin: int) -> str | None:
    """JSON document: same balls; soliton supports tile the non-record boxes
    with k balls at the heads and k empty boxes at the tails."""
    doc = json.loads(text)
    if doc.get("balls") != balls or doc.get("origin") != origin:
        return "input configuration not echoed"
    records = oracles.naive_records(_bits(balls), origin)
    covered = set(records)
    for sol in doc["solitons"]:
        k, head, tail = sol["k"], sol["head"], sol["tail"]
        if len(head) != k or len(tail) != k:
            return f"{k}-soliton with {len(head)} heads and {len(tail)} tails"
        for z in head + tail:
            if z in covered:
                return f"box {z} covered twice"
            covered.add(z)
        window = _window(balls, origin, min(head + tail), max(head + tail))
        lo = min(head + tail)
        if any(window[z - lo] != "1" for z in head) or any(window[z - lo] != "0" for z in tail):
            return f"{k}-soliton heads not all balls or tails not all empty"
    if covered != set(range(records[0], records[-1] + 1)):
        return "solitons and records do not tile the record range"
    if "components" not in doc or len(doc["diagrams"]) != len(doc["slots"]):
        return "components or diagrams missing"
    return None


def reconstruct(text: str, balls: str, origin: int) -> str | None:
    """``origin balls`` equal to the decomposed input up to empty padding."""
    got = _trimmed(*_parse_config(text))
    return None if got == _trimmed(origin, balls) else "round trip changed the configuration"


def render(text: str, balls: str, origin: int) -> str | None:
    """Boxes from the first to the last record; dots exactly at records, and
    each class digit (size mod 10) on an even number of boxes."""
    lines = text.splitlines()
    if len(lines) != 2 or len(lines[0]) != len(lines[1]):
        return "expected two lines of equal length"
    chars, classes = lines
    records = oracles.naive_records(_bits(balls), origin)
    lo, hi = records[0], records[-1]
    if chars.replace(".", "0") != _window(balls, origin, lo, hi):
        return "box contents differ from the input"
    dots = {lo + i for i, c in enumerate(chars) if c == "."}
    if dots != set(records) or dots != {lo + i for i, c in enumerate(classes) if c == "."}:
        return "dots are not exactly the records"
    for digit in "0123456789":
        if classes.count(digit) % 2:
            return f"class {digit} covers {classes.count(digit)} boxes"
    return None


def evolve(text: str, balls: str, origin: int, steps: int) -> str | None:
    """JSON document: the input echoed, and the final state, origin included,
    equal to ``oracles.naive_evolve`` applied step by step."""
    doc = json.loads(text)
    if _trimmed(doc["origin"], doc["input"]) != _trimmed(origin, balls) or doc.get("steps") != steps:
        return "input configuration not echoed"
    bits = _bits(balls)
    for _ in range(steps):
        origin, bits = oracles.naive_evolve(bits, origin)
    want = _trimmed(origin, "".join(map(str, bits)))
    got = _trimmed(doc["output_origin"], doc["output"])
    return None if got == want else "differs from the step-by-step oracle"


def verify(text: str) -> str | None:
    """A verify report with ``"passed": true``."""
    doc = json.loads(text)
    return None if doc.get("passed") is True else f"{doc.get('check')} check did not pass"


def flip_bit(text: str, position: int) -> str:
    """``text`` with one ball flipped: box ``position`` (cyclically) of the
    longest run of 0/1 characters, which is the ball string of every output
    that has one.  A verify report has none; its flipped bit is the verdict.
    """
    if '"passed": true' in text:
        return text.replace('"passed": true', '"passed": false')
    runs = re.finditer(r"[01]+", text)
    run = max(runs, key=lambda m: m.end() - m.start())
    i = run.start() + position % (run.end() - run.start())
    return text[:i] + ("1" if text[i] == "0" else "0") + text[i + 1 :]
