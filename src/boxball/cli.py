"""Command-line surface: evolve, decompose, reconstruct, sample, verify, render, params.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 invalid
input data or a file that cannot be opened, 4 precondition violation.  Every
command reports a data or precondition error as one ``error:`` line on
stderr with exit 3 or 4.  All randomized commands require an explicit
``--seed``, which parses to the ``random.Random`` that the run draws from.

The standard library's argparse parses the arguments.  This module imports
no other boxball module than ``errors``: each command imports the layers it
runs when it runs, and a measure's samplers are the package's lazy names
(``boxball.markov_excursions``), so a process compiles only those.

- ``--version`` loads no layer;
- ``evolve`` and ``render`` load ``core``;
- ``decompose``, ``reconstruct`` and ``verify bijections`` load ``core`` and
  ``slots``;
- ``verify shift`` loads ``core``, ``slots`` and ``stats``;
- of the commands that take a measure (``params``, ``sample`` and the
  other ``verify`` commands), ``sample``, ``verify t-invariance`` and the
  checks that walk a chain load ``line``, the chi-square checks ``stats``,
  and ``verify geometric`` and ``independence`` also ``slots``;
- ``measures`` and ``slots`` load where the slot fill is read (``params``
  and ``verify partition``) and for the explicit family, whose Palm sampler
  draws diagrams and whose q_k ``verify geometric`` reads from the fill;
  each of these commands builds the fill once.  A chain's q_k is its closed
  form in ``core``, so ``verify geometric`` of a chain loads no
  ``measures``, and a ``sample`` of the bernoulli or markov family, Palm or
  ``--anti-palm``, walks the chain and loads only ``core`` and ``line``.
- ``sample --anti-palm`` and ``verify t-invariance`` draw the family's
  stationary window, exact and uncapped, after refusing one of more than
  ``core.BOX_BUDGET`` boxes: ``line.chain_window`` for the bernoulli and
  markov families, and for explicit weights ``line.sample_anti_palm``, whose
  origin block is ``measures.size_biased_excursion`` of the fill.  ``verify
  t-invariance`` refuses its steps and block length before it draws, and
  hands the window to ``stats``, which draws nothing.
- ``sample``, ``verify geometric`` and ``verify independence`` draw through
  one Palm entry, which refuses before it draws an ``--excursions`` below
  1, past the budget, or whose mean length, the count times the mean record
  gap, passes it.
- ``evolve``, with or without ``--trace``, refuses steps that would sweep
  more than ``core.SWEEP_BUDGET`` boxes; ``verify bijections`` an
  ``--n-max`` past 12; and ``verify shift`` a ``--max-boxes`` past the box
  budget, before it draws.

No layer imports ``json``: the layers take and give parsed documents, and
this module parses (``_json``) and writes every JSON text, importing ``json``
only in the commands that read or write JSON, and ``random`` only where it
parses ``--seed``.  No command loads click or numpy.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from functools import cache, partial

import boxball

from . import __version__
from .errors import BoxBallError, PreconditionError, ValidationError

_EXIT_VERIFY = 1
_EXIT_DATA = 3
_EXIT_PRECONDITION = 4

_COLORS = {1: 35, 2: 31, 3: 32, 4: 34}  # purple, red, green, blue
_EXTRA_COLORS = (36, 33, 95, 91)


def _open(path: str, mode: str):
    """``open(path, mode)``; a file that cannot be opened exits 3, not with a traceback."""
    try:
        return open(path, mode)
    except OSError as exc:
        raise ValidationError(f"cannot open {path}: {exc.strerror}") from exc


def _read_bytes(path: str) -> bytes:
    """The bytes of file ``path``, or of stdin for ``-``; the command decodes
    them, so bad bytes exit 3 and not with a traceback."""
    if path == "-":
        return sys.stdin.buffer.read()
    with _open(path, "rb") as fh:
        return fh.read()


def _read_config(text: str | None, path: str | None, origin: int) -> BallConfig:
    from .core import BallConfig

    if (text is None) == (path is None):
        raise ValidationError("provide a ball string either inline or via --in")
    if path is not None or text == "-":
        try:
            text = _read_bytes(path or "-").decode()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"ball string is not UTF-8: {exc}") from exc
    return BallConfig.from_string(text, origin)


def _indented(doc) -> str:
    """``json.dumps(doc, indent=2)`` byte for byte, for documents whose dict
    keys are strings.

    Any ``indent`` makes ``json`` fall back from its C encoder to one Python
    generator step per value; here a list of plain ints is one ``join``, and
    every other scalar goes to ``json.dumps``, which keeps floats, NaN,
    bools, None and string escapes as they were.  ``json`` is imported once
    per document, outside the walk that recurses once per value.
    """
    import json

    encode_str, dumps = json.encoder.encode_basestring_ascii, json.dumps

    def indented(obj, pad: str) -> str:
        inner = pad + "  "
        sep = "," + inner
        if isinstance(obj, dict):
            if not obj:
                return "{}"
            return "{" + inner + sep.join([
                encode_str(k) + ": " + (str(v) if type(v) is int else indented(v, inner))
                for k, v in obj.items()
            ]) + pad + "}"
        if isinstance(obj, (list, tuple)):
            if not obj:
                return "[]"
            if set(map(type, obj)) == {int}:  # bools are not plain ints
                return "[" + inner + sep.join(map(str, obj)) + pad + "]"
            return "[" + inner + sep.join([indented(v, inner) for v in obj]) + pad + "]"
        return str(obj) if type(obj) is int else dumps(obj)

    return indented(doc, "\n")


def _write(text: str, out: str | None) -> None:
    """``text`` and a newline, to file ``out`` or stdout (also for ``-``)."""
    if out and out != "-":
        with _open(out, "w") as fh:
            fh.write(text + "\n")
    else:  # one write, then a flush, so that a closed pipe shows inside the run
        sys.stdout.write(text + "\n")
        sys.stdout.flush()


def _emit(doc: dict, out: str | None) -> None:
    """Write ``{"v": 1, **doc}`` as ``json.dumps(..., indent=2)`` would, to
    ``out`` or stdout; every ``--format json`` and ``verify`` document goes
    through here."""
    _write(_indented({"v": 1, **doc}), out)


# each measure family: its parameter flag, and the parameter's key in a
# parameter file, which names the family under "family"
_FAMILIES = {"bernoulli": ("--lambda", "lambda"), "markov": ("--Q", "Q"),
             "explicit": ("--alpha", "alpha")}


def _json(text: str | bytes, what: str):
    """``json.loads(text)``, or exit 3 with one ``bad WHAT: ...`` line."""
    import json

    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # not JSON or UTF-8, or nested too deep
        raise ValidationError(f"bad {what}: {exc}") from exc


def _numbers(value) -> bool:
    """Whether ``value`` is a JSON list of numbers; a bool is not a number."""
    return type(value) is list and all(type(v) in (int, float) for v in value)


# the JSON type of each family's parameter, in a file and as --Q, and its test
_TYPES = {"bernoulli": ("a number", lambda lam: type(lam) in (int, float)),
          "markov": ("a list of two lists of numbers",
                     lambda q: type(q) is list and all(map(_numbers, q))),
          "explicit": ("a list of numbers", _numbers)}


def _palm_entry(draw: Palm, mean_gap: Callable[[], float]) -> Palm:
    """The Palm sampler ``draw`` behind the one excursion-count rule, checked
    before anything is drawn: the count is at least 1, at most
    ``BOX_BUDGET``, since each excursion lays out at least its record box,
    and at most ``BOX_BUDGET`` over the mean record gap ``mean_gap()``, since
    a Palm sample is laid out whole."""

    def palm(size: int, rng) -> list[Excursion]:
        from .core import _check_budget

        if size < 1:
            raise PreconditionError("--excursions must be >= 1")
        _check_budget(size, "--excursions would lay out")
        _check_budget(size * mean_gap(), "--excursions at the mean record gap would lay out")
        return draw(size, rng)

    return palm


def _weights_from_flags(measure, lam, q_matrix, alpha, params) -> tuple[
        Callable[[], SolitonWeights], Callable[[int], float], Palm, Window]:
    """The measure's soliton weights, as a function of no argument; its slot
    parameter ``k -> q_k``; its Palm entry ``(size, rng) -> excursions``,
    the family's Palm sampler behind the excursion-count rule of
    :func:`_palm_entry`; and its stationary window ``(n_boxes, rng) ->
    BallConfig``.  For the bernoulli and markov families q_k and the mean
    record gap are the chain's closed forms in ``core``, the Palm sampler is
    ``line.markov_excursions`` and the window ``line.chain_window``; none of
    them builds the slot fill.  For explicit weights q_k and the mean record
    gap read the fill, the Palm sampler is ``measures.sample_excursions`` of
    it, and the window is ``line.sample_anti_palm`` over that sampler and
    ``measures.size_biased_excursion``; the fill is built once, on the first
    call that reads it.  The samplers are the package's lazy names
    (``boxball.markov_excursions``), looked up when they draw, so ``line``
    and ``measures`` load only then.

    The parameter is checked here, before anything is drawn: a parameter
    flag the run would not read, of another family than ``measure`` or
    beside ``params``, is refused, and so is a ``--measure`` given beside
    ``params`` (its default is None).  The weights of a chain are computed
    only when read, so a command that only walks the chain never loads
    ``measures``."""
    if params and measure is not None:
        raise ValidationError("--measure does not apply beside --params")
    family = measure or "bernoulli"
    values = dict(zip(_FAMILIES, (lam, q_matrix, alpha)))
    for other, value in values.items():
        if value is not None and (params or other != family):
            where = "beside --params" if params else f"to the {family} measure"
            raise ValidationError(f"{_FAMILIES[other][0]} does not apply {where}")
    if params:
        doc = _json(_read_bytes(params), "parameter JSON")
        try:
            family = doc["family"]
            if family not in _FAMILIES:
                raise ValidationError(f"unknown family {family!r}")
            parameter = doc[_FAMILIES[family][1]]
        except KeyError as exc:
            raise ValidationError(f"bad parameter JSON: missing key {exc}") from exc
        except TypeError as exc:  # a document or a family of the wrong type
            raise ValidationError(f"bad parameter JSON: {exc}") from exc
    else:
        parameter = values[family]
        if parameter is None:
            raise ValidationError(f"{_FAMILIES[family][0]} is required for the {family} measure")
        if family == "markov":
            parameter = _json(parameter, "--Q matrix")
    try:
        if family == "explicit" and not params:
            parameter = [float(v) for v in parameter.split(",")]
        kind, typed = _TYPES[family]
        if not typed(parameter):
            raise ValidationError(f"bad {family} parameter: {_FAMILIES[family][1]} must be {kind}")
        if family == "explicit":
            weights = boxball.explicit_weights(parameter)
            fill = cache(partial(boxball.fill_from_weights, weights))
            draw = lambda size, rng: boxball.sample_excursions(fill(), size, rng)
            origin = lambda rng: boxball.size_biased_excursion(fill(), rng)
            return (lambda: weights, lambda k: fill().at(k),
                    _palm_entry(draw, lambda: boxball.mean_record_gap(fill())),
                    lambda n_boxes, rng: boxball.sample_anti_palm(origin, draw, n_boxes, rng))
        from .core import _bernoulli_chain, _mean_record_gap, _slot_parameters, _transition_matrix

        chain = _transition_matrix(
            _bernoulli_chain(float(parameter)) if family == "bernoulli" else parameter)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"bad {family} parameter: {exc}") from exc
    return (cache(lambda: boxball.markov_weights(chain)), lambda k: _slot_parameters(chain)(k),
            _palm_entry(lambda size, rng: boxball.markov_excursions(chain, size, rng),
                        partial(_mean_record_gap, chain)),
            lambda n_boxes, rng: boxball.chain_window(chain, n_boxes, rng))


def _opt(*flags: str, **kwargs) -> tuple:
    """One ``add_argument`` call, made when the parser is built."""
    return flags, kwargs


def _existing(path: str) -> str:
    if not os.path.exists(path):  # a usage error (exit 2), found before the command runs
        raise argparse.ArgumentTypeError(f"path {path!r} does not exist")
    return path


def _seed(text: str) -> random.Random:
    """The run's one random source, seeded with ``--seed``."""
    import random

    if (seed := int(text)) < 0:
        raise PreconditionError("--seed must be >= 0")
    return random.Random(seed)


_seed.__name__ = "int"  # argparse names the type in "invalid int value: 'x'"
_CONFIG = _opt("config", nargs="?", metavar="CONFIG", help="ball string, or - for stdin")
_IN = _opt("--in", dest="path", type=_existing, help="read the input from this file")
_ORIGIN = _opt("--origin", type=int, default=1, help="box index of the first character")
_FORMAT = _opt("--format", dest="fmt", choices=["text", "json"], default="text")
_OUT = _opt("--out", help="write to this file instead of stdout")
_SEED = _opt("--seed", dest="rng", metavar="SEED", type=_seed, required=True,
             help="the run is deterministic given it")
_EXCURSIONS = _opt("--excursions", dest="num", type=int, default=100_000)
_SIGNIFICANCE = _opt("--significance", type=float, default=1e-3)
_MEASURE = (
    _opt("--measure", choices=list(_FAMILIES), help="(default: bernoulli)"),
    _opt("--lambda", dest="lam", metavar="LAMBDA", type=float, help="ball density"),
    _opt("--Q", dest="q_matrix", metavar="MATRIX",
         help='2x2 transition matrix as JSON, e.g. "[[0.8,0.2],[0.6,0.4]]"'),
    _opt("--alpha", help="comma-separated explicit weights"),
    _opt("--params", type=_existing, help="JSON parameter file naming the family and its "
         "parameter; --measure, --lambda, --Q and --alpha are refused beside it."),
)


class _Parser(argparse.ArgumentParser):
    """An argparse parser that adds the arguments of its ``command`` when it
    first parses, so a run builds the parsers of only the commands it names.

    A negative number (``-1``, ``-.5``) is a value to argparse, not an
    option, and here so is a comma list that starts with one: the command
    refuses the weights of ``--alpha -0.1,0.2`` as it does those of
    ``--alpha=-0.1,0.2``.  No option of ``bbs`` starts with a digit.
    """

    def __init__(self, *args, command: _Command, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d*\.?\d+(,|$)")
        self._command: _Command | None = command

    def parse_known_args(self, args=None, namespace=None):
        if self._command is not None:
            command, self._command = self._command, None
            command._fill(self)
        return super().parse_known_args(args, namespace)


class _Command:
    """A command and its argparse options, or a group of ``commands``.  Its
    ``callback`` is looked up when it runs, so a caller may replace it."""

    def __init__(self, name: str, doc: str, callback=None, options=()):
        self.name, self.doc, self.callback, self.options = name, doc, callback, options
        self.commands: dict[str, _Command] = {}

    def command(self, name: str, *options):
        """Decorator: the function runs as subcommand ``name``."""
        def register(fn):
            self.commands[name] = _Command(name, fn.__doc__, fn, options)
            return fn
        return register

    def _fill(self, parser: _Parser) -> None:
        parser.set_defaults(_command=self)
        for flags, kwargs in self.options:
            action = parser.add_argument(*flags, **kwargs)
            if action.nargs is None and action.default is not None:  # an option's default
                action.help = f"{action.help or ''} (default: %(default)s)".lstrip()
        if self.commands:
            sub = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)
            for name, command in self.commands.items():
                sub.add_parser(name, help=command.doc.split("\n")[0], description=command.doc,
                               allow_abbrev=False, command=command)

    def main(self, args=None, prog_name: str = "bbs", standalone_mode: bool = True):
        """Run the command that ``args`` (default ``sys.argv[1:]``) name.  The one
        error boundary: a ``BoxBallError`` exits 3 or 4 with one ``error:`` line
        on stderr; a closed stdout pipe or an interrupt exits 1.  ``standalone_mode``
        (of click's ``main``) changes nothing: each other end is a SystemExit or a return."""
        parser = _Parser(prog=prog_name, description=self.doc, allow_abbrev=False, command=self)
        try:
            namespace = vars(parser.parse_args(args))
            namespace.pop("_command").callback(**namespace)
        except BoxBallError as exc:
            print(f"error: {exc}", file=sys.stderr)
            sys.exit(_EXIT_PRECONDITION if isinstance(exc, PreconditionError) else _EXIT_DATA)
        except BrokenPipeError:
            sys.stdout = open(os.devnull, "w")  # nothing left to flush at exit
            sys.exit(1)
        except KeyboardInterrupt:
            print("\nAborted!", file=sys.stderr)
            sys.exit(1)

    __call__ = main


_VERSION = _opt("--version", action="version", version=f"%(prog)s, version {__version__}")
main = _Command("bbs", "Box-ball system toolkit: dynamics, soliton calculus, random excursions.",
                options=[_VERSION])


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------

@main.command("evolve", _CONFIG, _IN, _ORIGIN, _opt("--steps", type=int, default=1),
              _opt("--trace", action="store_true", help="also print the carrier load per sweep"),
              _FORMAT, _OUT)
def evolve_cmd(config, path, origin, steps, trace, fmt, out):
    """Apply the carrier sweep STEPS times to a ball string."""
    from .core import BallConfig, _sweeps, _trace, evolve

    if steps < 0:
        raise PreconditionError("--steps must be >= 0")
    cfg = _read_config(config, path, origin)
    if trace:
        # one sweep per step gives both the next state and the step's trace
        states, traces = [cfg], []
        for image in _sweeps(cfg.bits, steps):
            traces.append(_trace(states[-1].bits, image))
            states.append(BallConfig(cfg.origin, image))
    else:
        states, traces = [cfg, evolve(cfg, steps)], []
    if fmt == "json":
        _emit({"origin": cfg.origin, "input": cfg.to_string(), "steps": steps,
               "output": states[-1].to_string(), "output_origin": states[-1].origin,
               "traces": [list(t) for t in traces] if trace else None}, out)
        return
    lines = []
    for i, state in enumerate(states):
        lines.append(state.to_string())
        if trace and i < len(traces):
            lines.append("".join(str(v % 10) for v in traces[i]))
    _write("\n".join(lines if trace else [states[-1].to_string()]), out)


@main.command("decompose", _CONFIG, _IN, _ORIGIN,
              _opt("--format", dest="fmt", choices=["text", "json"], default="json"), _OUT)
def decompose_cmd(config, path, origin, fmt, out):
    """Solitons, slot diagrams, and components of a ball string."""
    import json

    from .core import _cut_window, map_distinct
    from .slots import _read_excursion, concat_diagrams

    cfg = _read_config(config, path, origin)
    recs, i_lo, excs, bases = _cut_window(cfg)  # bases: each excursion's left record
    decomposed = list(zip(map_distinct(_read_excursion, excs), bases))
    solitons = [
        {
            "k": sol.k,
            "head": [base + h for h in sol.head],
            "tail": [base + t for t in sol.tail],
        }
        for (excursion_solitons, _, _), base in decomposed
        for sol in excursion_solitons
    ]
    diagrams = [diagram for (_, _, diagram), _ in decomposed]
    components = concat_diagrams(diagrams, i_lo)
    if fmt == "json":
        doc = {
            "origin": cfg.origin,
            "balls": cfg.to_string(),
            "i_lo": i_lo,
            "solitons": solitons,
            "slots": [
                {str(k): [base + p for p in pos] for k, pos in enumerate(slots, start=1)}
                for (_, slots, _), base in decomposed
            ],
            "diagrams": [d.to_doc() for d in diagrams],
            "components": components.to_doc(),
        }
        _emit(doc, out)
    else:
        lines = [f"excursions: {len(excs)} (first index {i_lo})"]
        lines.append("records: " + " ".join(map(str, recs)))
        lines += [f"  {sol['k']}-soliton head={sol['head']} tail={sol['tail']}" for sol in solitons]
        lines.append(f"components: {json.dumps(components.to_doc())}")
        _write("\n".join(lines), out)


@main.command("reconstruct", _opt("source", nargs="?", metavar="SOURCE",
                                  help="decompose JSON document, or - for stdin"), _IN, _FORMAT, _OUT)
def reconstruct_cmd(source, path, fmt, out):
    """Rebuild the ball string from a decompose JSON document (or stdin)."""
    from .core import BallConfig
    from .slots import ComponentArray, reconstruct

    if path is not None or source in (None, "-"):
        text = _read_bytes(path or "-")
    else:
        text = source
    doc = _json(text, "JSON input")
    payload = doc.get("components", doc) if isinstance(doc, dict) else doc
    components = ComponentArray.from_doc(payload)
    full = reconstruct(components)
    # strip the boundary record boxes so decompose | reconstruct is the
    # identity on the ball string
    cfg = BallConfig(full.origin + 1, full.bits[1:-1])
    if fmt == "json":
        _emit({"origin": cfg.origin, "balls": cfg.to_string()}, out)
    else:
        _write(f"{cfg.origin} {cfg.to_string()}", out)


@main.command("render", _CONFIG, _IN, _ORIGIN, _opt("--color", action=argparse.BooleanOptionalAction,
                                                      help="default: color on a terminal"))
def render_cmd(config, path, origin, color):
    """ASCII rendering with one color class per soliton size.

    Records print as dots; each soliton's boxes print in the color of its
    size (purple 1, red 2, green 3, blue 4, then a rotating palette).
    """
    from .core import _cut_window, map_distinct, soliton_decompose

    cfg = _read_config(config, path, origin)
    recs, _, excs, bases = _cut_window(cfg)
    class_of: dict[int, int] = {}
    for solitons, base in zip(map_distinct(soliton_decompose, excs), bases):
        for sol in solitons:
            for box in sol.support():
                class_of[base + box] = sol.k
    if color is None:
        color = sys.stdout.isatty()
    chars = []
    classes = []
    for z, b in enumerate(cfg.segment(bases[0], recs[-1] + 1), start=bases[0]):
        k = class_of.get(z)
        ch = str(b)
        if k is None:
            chars.append("." if b == 0 else ch)
            classes.append(".")
        else:
            code = _COLORS.get(k, _EXTRA_COLORS[k % len(_EXTRA_COLORS)])
            chars.append(f"\x1b[{code}m{ch}\x1b[0m" if color else ch)
            classes.append(str(k % 10))
    _write("".join(chars) if color else "".join(chars) + "\n" + "".join(classes), None)


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

@main.command("params", *_MEASURE, _opt("--levels", type=int, help="truncation level for q"),
              _FORMAT, _OUT)
def params_cmd(measure, lam, q_matrix, alpha, params, levels, fmt, out):
    """Partition function, slot parameters, and mean sizes of a measure."""
    from .measures import ball_density, expected_slot_counts, fill_from_weights
    from .measures import partition_function

    weights = _weights_from_flags(measure, lam, q_matrix, alpha, params)[0]()
    fill = fill_from_weights(weights, levels)
    z = partition_function(fill)
    betas, mean_size = expected_slot_counts(fill)  # the one solve of the slot-count recursion
    kappa = 1.0 + mean_size  # measures.mean_record_gap
    lam_out = ball_density(kappa)
    doc = {"Z": z, "q": list(fill.q), "beta0": betas[0], "kappa": kappa, "lambda": lam_out}
    if fmt == "json":
        _emit(doc, out)
    else:
        q = ", ".join(f"{v:.12g}" for v in fill.q[:12])
        _write(f"Z      = {z:.12g}\nq      = {q}\nbeta0  = {betas[0]:.12g}\n"
               f"kappa  = {kappa:.12g}\nlambda = {lam_out:.12g}", out)


@main.command("sample", *_MEASURE, _opt("--excursions", dest="num", type=int, default=1000),
              _opt("--anti-palm", action="store_true",
                   help="stationary window instead of record-anchored"),
              _opt("--boxes", type=int, help="window size for --anti-palm"), _SEED, _FORMAT, _OUT)
def sample_cmd(measure, lam, q_matrix, alpha, params, num, anti_palm, boxes, rng, fmt, out):
    """Draw a random configuration; prints the ball string and its records."""
    from .core import assemble, record_positions

    _, _, palm, window = _weights_from_flags(measure, lam, q_matrix, alpha, params)
    if anti_palm:
        cfg = window(1000 if boxes is None else boxes, rng)
        anchored = None
    else:
        anchored = assemble(palm(num, rng), 0)
        cfg = anchored.config
    if fmt == "json":
        doc = (
            anchored.to_json_dict()
            if anchored is not None
            else {"origin": cfg.origin, "balls": cfg.to_string()}
        )
        _emit(doc, out)
    else:
        recs = record_positions(cfg)
        _write(f"{cfg.origin} {cfg.to_string()}\n" + " ".join(map(str, recs)), out)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

verify_group = main.commands["verify"] = _Command(
    "verify", "Statistical and exact checks; nonzero exit on failure.")


def _verify_exit(doc: dict, passed: bool, out: str | None) -> None:
    doc["passed"] = bool(passed)
    _emit(doc, out)
    sys.exit(0 if passed else _EXIT_VERIFY)


@verify_group.command("geometric", *_MEASURE, _EXCURSIONS,
                      _opt("--level", dest="k", type=int, default=1), _SEED, _SIGNIFICANCE, _OUT)
def verify_geometric(measure, lam, q_matrix, alpha, params, num, k, rng, significance, out):
    """Row k of a record-anchored sample against its geometric law."""
    from .slots import palm_components
    from .stats import geometric_gof

    _, slot, palm, _ = _weights_from_flags(measure, lam, q_matrix, alpha, params)
    q_k = slot(k)
    components = palm_components(palm(num, rng))
    report = geometric_gof(components, k, 1 - q_k)
    _verify_exit(
        {"check": "geometric", "level": k, "report": report.to_json_dict()},
        report.p_value > significance,
        out,
    )


@verify_group.command("independence", *_MEASURE, _EXCURSIONS, _SEED, _SIGNIFICANCE, _OUT)
def verify_independence(measure, lam, q_matrix, alpha, params, num, rng, significance, out):
    """Independence of component entries: same-row lag and cross-row pairs."""
    from .slots import palm_components
    from .stats import independence_test

    palm = _weights_from_flags(measure, lam, q_matrix, alpha, params)[2]
    components = palm_components(palm(num, rng))
    pairs = [((1, 0), (1, 1)), ((1, 0), (2, 0))]
    reports = independence_test(components, pairs)
    passed = all(r.p_value > significance for r in reports.values())
    _verify_exit(
        {
            "check": "independence",
            "reports": {str(p): r.to_json_dict() for p, r in reports.items()},
        },
        passed,
        out,
    )


@verify_group.command("t-invariance", *_MEASURE, _opt("--boxes", type=int, default=200_000),
                      _opt("--steps", type=int, default=1), _opt("--block-len", type=int, default=4),
                      _opt("--max-se", type=float, default=4.0), _SEED, _OUT)
def verify_t_invariance(measure, lam, q_matrix, alpha, params, boxes, steps, block_len, max_se, rng, out):
    """Block frequencies before and after evolution on a stationary window."""
    from .stats import _check_t_invariance, t_invariance_test

    window = _weights_from_flags(measure, lam, q_matrix, alpha, params)[3]
    _check_t_invariance(steps, block_len)
    report = t_invariance_test(window(boxes, rng), steps, block_len, boxes)
    _verify_exit(
        {"check": "t-invariance", "report": report.to_json_dict()},
        report.max_dev_se is not None and report.max_dev_se <= max_se,
        out,
    )


@verify_group.command("shift", _opt("--configs", type=int, default=1000),
                      _opt("--max-boxes", type=int, default=200), _SEED, _OUT)
def verify_shift(configs, max_boxes, rng, out):
    """Component rows of random configurations shift but never change under evolution."""
    from .core import BallConfig, _check_budget
    from .stats import component_shift_check

    if configs < 0:
        raise PreconditionError("--configs must be >= 0")
    if max_boxes < 1:
        raise PreconditionError("--max-boxes must be >= 1")
    _check_budget(max_boxes, "--max-boxes would lay out")
    failures = 0
    for _ in range(configs):
        length = rng.randint(1, max_boxes)
        density = rng.uniform(0.05, 0.45)
        cfg = BallConfig(1, bytes(rng.random() < density for _ in range(length)))
        failures += not component_shift_check(cfg).ok
    _verify_exit(
        {"check": "shift", "configs": configs, "failures": failures},
        failures == 0,
        out,
    )


# each level costs three to four times the one before, and 12 takes over ten seconds
_BIJECTIONS_N_MAX = 12


@verify_group.command("bijections", _opt("--n-max", type=int, default=6), _OUT)
def verify_bijections(n_max, out):
    """Exact excursion <-> diagram round trips over all excursions up to n-max."""
    from .core import catalan_number, enumerate_excursions
    from .slots import diagram_from_excursion, excursion_from_diagram

    if n_max < 0:
        raise PreconditionError("--n-max must be >= 0")
    if n_max > _BIJECTIONS_N_MAX:
        raise PreconditionError(f"--n-max must be <= {_BIJECTIONS_N_MAX}")
    total = 0
    failures = 0
    for n in range(n_max + 1):
        count = 0
        for exc in enumerate_excursions(n):
            count += 1
            total += 1
            diagram = diagram_from_excursion(exc)
            if excursion_from_diagram(diagram) != exc:
                failures += 1
        if count != catalan_number(n):
            failures += 1
    _verify_exit(
        {"check": "bijections", "excursions": total, "failures": failures},
        failures == 0,
        out,
    )


@verify_group.command("partition", *_MEASURE, _opt("--n-max", type=int, default=40),
                      _opt("--tolerance", type=float, default=1e-6), _OUT)
def verify_partition(measure, lam, q_matrix, alpha, params, n_max, tolerance, out):
    """Series partition sum against the closed-form product."""
    from .measures import fill_from_weights, partition_function, partition_series

    weights = _weights_from_flags(measure, lam, q_matrix, alpha, params)[0]()
    series = partition_series(weights, n_max)
    closed = partition_function(fill_from_weights(weights))
    gap = abs(series.value - closed)
    _verify_exit(
        {
            "check": "partition",
            "series": series.value,
            "closed": closed,
            "gap": gap,
            "tail_bound": series.tail_bound,
            "n_max": n_max,
        },
        gap <= tolerance,
        out,
    )


def __getattr__(name: str):
    # ``boxball.cli.decompose`` is ``slots.decompose`` read when it is looked
    # up; perfbench/test_perfbench.py still reaches it here
    if name == "decompose":
        from .slots import decompose

        return decompose
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":
    main()
