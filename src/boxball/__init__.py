"""Box-ball system toolkit.

Carrier dynamics and records, Takahashi-Satsuma soliton identification, slot
diagrams with their excursion bijection, component arrays of full
configurations, the two equivalent random-excursion measure families with
exact samplers, record-anchored and stationary line samplers, and chi-square
verification of the distributional identities.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names it exports.  They load on first use (PEP 562), so
# importing the package, or the CLI for a command that draws no random
# number, does not load the sampling modules.
_EXPORTS = {
    "core": (
        "AnchoredConfig",
        "BallConfig",
        "Excursion",
        "Soliton",
        "assemble",
        "carrier_trace",
        "catalan_number",
        "config_soliton_counts",
        "enumerate_excursions",
        "evolve",
        "excursions_of",
        "record_positions",
        "soliton_counts",
        "soliton_decompose",
    ),
    "errors": (
        "BoxBallError",
        "DivergenceError",
        "InsufficientDataError",
        "PreconditionError",
        "ValidationError",
    ),
    "line": (
        "bernoulli_excursions",
        "chain_window",
        "markov_excursions",
        "sample_anti_palm",
    ),
    "measures": (
        "SeriesResult",
        "SlotFill",
        "SolitonWeights",
        "ball_density",
        "bernoulli_weights",
        "diagram_prob",
        "excursion_prob",
        "expected_slot_counts",
        "explicit_weights",
        "fill_from_weights",
        "markov_weights",
        "max_size_distribution",
        "mean_record_gap",
        "mean_soliton_counts",
        "partition_function",
        "partition_series",
        "sample_diagrams",
        "sample_excursions",
        "shift_weights",
        "size_biased_excursion",
        "weights_from_fill",
    ),
    "slots": (
        "ComponentArray",
        "SlotDiagram",
        "concat_diagrams",
        "decompose",
        "diagram_from_excursion",
        "diagrams_from_components",
        "excursion_from_diagram",
        "insert_soliton",
        "reconstruct",
        "slot_positions",
    ),
    "stats": (
        "GofReport",
        "ShiftReport",
        "block_frequencies",
        "component_shift_check",
        "geometric_gof",
        "independence_test",
        "t_invariance_test",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, as in ``import boxball; boxball.line``
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
