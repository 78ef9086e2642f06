"""Spans around the boxball layers, recorded from outside the package.

:func:`installed` replaces every module attribute of the loaded ``boxball``
modules that is bound to a listed function with one timing wrapper, so a
call is traced whichever module it goes through (``cli.decompose`` is
``slots.decompose``, ``stats.sample_anti_palm`` is ``line.sample_anti_palm``).
The ``cli`` layer wraps the click command callbacks instead.  Spans are kept
in memory; a span's self time is its duration minus the time its child
spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array

LAYERS = {
    "core": (
        "record_positions",
        "excursions_of",
        "evolve",
        "carrier_trace",
        "soliton_decompose",
        "config_soliton_counts",
    ),
    "slots": (
        "slot_positions",
        "diagram_from_excursion",
        "excursion_from_diagram",
        "concat_diagrams",
        "diagrams_from_components",
        "decompose",
        "reconstruct",
    ),
    "measures": ("fill_from_weights", "sample_diagrams", "sample_excursions"),
    "line": ("bernoulli_excursions", "markov_excursions", "assemble", "sample_anti_palm"),
    "stats": ("geometric_gof", "independence_test", "t_invariance_test", "component_shift_check"),
}
CLI_COMMANDS = ("sample", "decompose", "reconstruct", "render", "evolve", "verify")
BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    """Nested spans of one traced pass, with per-name counters."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_s = array("d")
        self._stack: list[list] = []  # [span index, time covered by children]
        self.counters: dict[str, float] = {}

    def _open(self, name: str) -> None:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.end.append(0.0)
        self.self_s.append(0.0)
        self._stack.append([idx, 0.0])
        self.start.append(time.perf_counter())

    def _close(self) -> None:
        now = time.perf_counter()
        idx, children = self._stack.pop()
        duration = now - self.start[idx]
        self.end[idx] = now
        self.self_s[idx] = duration - children
        if self._stack:
            self._stack[-1][1] += duration

    @contextlib.contextmanager
    def span(self, name: str):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` timed as span ``name``; ``before(args, kwargs)`` may add
        arguments, ``after(args, kwargs, result)`` runs as a bookkeeping span
        so its cost is not charged to the caller's self time."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if after is not None:
                with self.span(BOOKKEEPING):
                    after(args, kwargs, result)
            return result

        return traced

    def totals(self) -> dict[str, tuple[float, int]]:
        """Self time and call count per span name."""
        self_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for nid, s in zip(self.name_id, self.self_s):
            self_s[nid] += s
            calls[nid] += 1
        return {name: (self_s[i], calls[i]) for i, name in enumerate(self.names)}

    def arithmetic_errors(self, wall_s: float, tolerance: float = 1e-6) -> list[str]:
        """Self times must be >= 0 and sum to no more than the traced wall time."""
        errors = []
        worst = min(self.self_s, default=0.0)
        if worst < -tolerance:
            errors.append(f"negative self time {worst:.3g} s")
        total = sum(self.self_s)
        if total > wall_s + tolerance:
            errors.append(f"self times sum to {total:.6f} s > traced wall {wall_s:.6f} s")
        return errors

    def to_arrays(self) -> dict:
        import numpy as np

        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start),
            "end": np.frombuffer(self.end),
            "self_s": np.frombuffer(self.self_s),
        }


def _hooks(tracer: Tracer) -> dict[str, tuple]:
    """Counters read at layer boundaries: (before, after) hooks per span name."""

    def anti_palm_before(args, kwargs):
        if len(args) < 5 and kwargs.get("report") is None:
            kwargs["report"] = {}  # the sampler's public report= dict

    def anti_palm_after(args, kwargs, result):
        report = args[4] if len(args) >= 5 else kwargs["report"]
        tracer.count("line.sample_anti_palm.proposals", report["proposals"])
        tracer.count("line.sample_anti_palm.clipped", report["clipped"])

    def excursions_after(args, kwargs, result):
        # equal excursions have equal diagrams: an upper bound on diagram-cache hits
        tracer.count("measures.sample_excursions.returned", len(result))
        tracer.count("measures.sample_excursions.repeats", len(result) - len(set(result)))

    def merged_bins(args, kwargs, result):
        reports = result.values() if isinstance(result, dict) else [result]
        merged = sum(1 for r in reports for label, *_ in r.bins if str(label).endswith("+"))
        tracer.count("stats.chi_square.bins_merged", merged)

    return {
        "line.sample_anti_palm": (anti_palm_before, anti_palm_after),
        "measures.sample_excursions": (None, excursions_after),
        "stats.geometric_gof": (None, merged_bins),
        "stats.independence_test": (None, merged_bins),
    }


def _cli_commands(cli):
    yield from ((n, cli.main.commands[n]) for n in CLI_COMMANDS if n != "verify")
    for cmd in cli.main.commands["verify"].commands.values():
        yield "verify", cmd


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every listed function and CLI command through ``tracer``."""
    cli = importlib.import_module("boxball.cli")
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "boxball"]
    hooks = _hooks(tracer)
    undo = []
    try:
        for layer, functions in LAYERS.items():
            layer_module = importlib.import_module(f"boxball.{layer}")
            for fname in functions:
                name = f"{layer}.{fname}"
                original = getattr(layer_module, fname)
                wrapper = tracer.wrap(name, original, *hooks.get(name, (None, None)))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            undo.append((module, attr, original))
                            setattr(module, attr, wrapper)
        for cname, command in _cli_commands(cli):
            undo.append((command, "callback", command.callback))
            command.callback = tracer.wrap(f"cli.{cname}", command.callback)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
