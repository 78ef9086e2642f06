"""Start-up budget: the package, its CLI and its sampling modules load neither
scipy nor numpy, nor dataclasses, inspect and typing, no layer loads json,
the CLI does not load click, each command loads only the boxball modules it
runs (a Palm or anti-Palm sample of a chain only ``core`` and ``line``,
``verify t-invariance`` of a chain only those and ``stats``, ``verify
geometric`` of a chain those and ``slots``, ``verify independence`` of a
chain no ``measures``), the chi-square checks load neither ``line`` nor
``measures``, and every command runs with numpy, scipy or click absent,
with the same output as when they are there.
Every sampler draws from the standard library's ``random.Random``, and the
CLI parses its arguments with ``argparse``; scipy, numpy and click (for
``CliRunner``) are test-only dependencies."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from click.testing import CliRunner

from boxball.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
ENV = {**os.environ, "PYTHONPATH": str(SRC)}
FIG_EXCURSION = "1110110010110000"
MARKOV = ("--measure", "markov", "--Q", "[[0.8,0.2],[0.6,0.4]]")


def _loaded(prefix: str, imports: str = "boxball, boxball.cli") -> str:
    code = (
        f"import sys, {imports}\n"
        f"print(sorted(m for m in sys.modules if m == {prefix!r} or m.startswith({prefix + '.'!r})))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=ENV, capture_output=True, text=True, check=True
    )
    return done.stdout.strip()


def test_cli_import_loads_no_scipy():
    assert _loaded("scipy") == "[]"


def test_cli_import_loads_no_numpy():
    assert _loaded("numpy") == "[]"


def test_cli_import_loads_no_click():
    assert _loaded("click") == "[]"


def test_sampling_modules_load_no_numpy_nor_scipy():
    for prefix in ("numpy", "scipy"):
        assert _loaded(prefix, "boxball.measures, boxball.line, boxball.stats") == "[]"


def test_start_up_loads_no_dataclasses_nor_inspect():
    # the value types are __slots__ classes on one small base, core._Value
    every_module = "boxball, boxball.cli, boxball.measures, boxball.line, boxball.stats"
    for prefix in ("dataclasses", "inspect"):
        assert _loaded(prefix, every_module) == "[]"


def _loads_without_site(module: str, imports: str) -> bool:
    """Whether ``import IMPORTS`` loads ``module``, without site, whose hooks
    may load it first."""
    code = f"import sys, {imports}\nprint({module!r} in sys.modules)"
    done = subprocess.run([sys.executable, "-S", "-c", code], env=ENV, capture_output=True,
                          text=True, check=True)
    return done.stdout == "True\n"


def test_modules_load_no_typing():
    every_module = ("boxball.cli, boxball.core, boxball.slots, boxball.measures, boxball.line, "
                    "boxball.stats")
    assert not _loads_without_site("typing", every_module)


def test_layers_load_no_json():
    # only the CLI parses or writes JSON text; the layers take parsed documents
    layers = "boxball.core, boxball.slots, boxball.measures, boxball.line, boxball.stats"
    assert not _loads_without_site("json", layers)


def _command_loads(*args: str, stdin: str | None = None) -> set[str]:
    """The modules that ``bbs ARGS`` loads on top of the interpreter's own,
    as an ``atexit`` hook lists them after the command has run."""
    code = (
        "import atexit, sys\n"
        "before = set(sys.modules)\n"
        "atexit.register(lambda: print(sorted(set(sys.modules) - before), file=sys.stderr))\n"
        "from boxball.cli import main\n"
        "main()\n"
    )
    done = subprocess.run([sys.executable, "-c", code, *args], env=ENV, input=stdin,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return set(ast.literal_eval(done.stderr.splitlines()[-1]))


def test_version_loads_no_layer_and_no_json():
    loaded = _command_loads("--version")
    assert {m for m in loaded if m.split(".")[0] == "boxball"} == {
        "boxball", "boxball.cli", "boxball.errors"}
    assert "json" not in loaded


def test_evolve_and_render_load_core_but_not_slots():
    for args in (("evolve", "--format", "json", "1100"), ("render", "--no-color", "1100")):
        loaded = _command_loads(*args)
        assert "boxball.core" in loaded and "boxball.slots" not in loaded, args


def test_decompose_and_reconstruct_load_no_sampling_module():
    doc = CliRunner().invoke(main, ["decompose", FIG_EXCURSION]).stdout
    sampling = {"boxball.measures", "boxball.line", "boxball.stats"}
    for loaded in (_command_loads("decompose", FIG_EXCURSION),
                   _command_loads("reconstruct", "-", stdin=doc)):
        assert "boxball.slots" in loaded and not loaded & sampling


def test_params_and_verify_partition_load_no_line():
    # only a command that draws loads the walk sampler
    for args in (("params", "--lambda", "0.25"), ("params", *MARKOV),
                 ("verify", "partition", "--lambda", "0.25")):
        loaded = _command_loads(*args)
        assert "boxball.measures" in loaded and "boxball.line" not in loaded, args


def test_text_output_of_a_measure_loads_no_json():
    loaded = _command_loads("sample", "--lambda", "0.25", "--excursions", "50", "--seed", "1")
    assert not loaded & {"boxball.measures", "boxball.slots", "json"}
    loaded = _command_loads("params", "--lambda", "0.25")
    assert "boxball.measures" in loaded and "json" not in loaded


def test_palm_walks_of_a_chain_load_no_measures():
    # a Palm sampler of a chain walks it; the soliton weights are never computed
    loaded = _command_loads("sample", *MARKOV, "--excursions", "50", "--seed", "1")
    assert {m for m in loaded if m.split(".")[0] == "boxball"} == {
        "boxball", "boxball.cli", "boxball.errors", "boxball.core", "boxball.line"}
    loaded = _command_loads("verify", "independence", *MARKOV, "--excursions", "2000", "--seed", "1")
    assert "boxball.stats" in loaded and "boxball.measures" not in loaded


def test_geometric_check_of_a_chain_loads_no_measures():
    # q_k of a chain is its closed form in core: no slot fill is built
    for flags in (("--lambda", "0.25"), MARKOV):
        loaded = _command_loads("verify", "geometric", *flags, "--excursions", "2000", "--seed", "1")
        assert {m for m in loaded if m.split(".")[0] == "boxball"} == {
            "boxball", "boxball.cli", "boxball.errors", "boxball.core", "boxball.line",
            "boxball.slots", "boxball.stats"}, flags


def test_anti_palm_windows_of_a_chain_load_no_measures():
    # the window draws from the chain's walk; no slot fill is built
    loaded = _command_loads("sample", "--anti-palm", *MARKOV, "--boxes", "500", "--seed", "1")
    assert {m for m in loaded if m.split(".")[0] == "boxball"} == {
        "boxball", "boxball.cli", "boxball.errors", "boxball.core", "boxball.line"}
    # nor does its block test decompose, so it loads no slots either
    loaded = _command_loads("verify", "t-invariance", "--lambda", "0.25", "--boxes", "20000",
                            "--seed", "1")
    assert {m for m in loaded if m.split(".")[0] == "boxball"} == {
        "boxball", "boxball.cli", "boxball.errors", "boxball.core", "boxball.line", "boxball.stats"}


def test_verify_shift_loads_neither_measures_nor_line():
    loaded = _command_loads("verify", "shift", "--configs", "5", "--seed", "1")
    assert "boxball.stats" in loaded
    assert not loaded & {"boxball.measures", "boxball.line"}


def test_chi_square_checks_load_neither_line_nor_measures():
    # each check takes its sample, a component array or a window, and draws nothing
    code = (
        "import sys\n"
        "from boxball.core import BallConfig\n"
        "from boxball.slots import ComponentArray\n"
        "from boxball.stats import geometric_gof, t_invariance_test\n"
        "geometric_gof(ComponentArray.from_dict({1: (0, (0, 1, 0, 2) * 500)}), 1, 0.5)\n"
        "t_invariance_test(BallConfig.from_string('0110' * 500), 1, 4, 2000)\n"
        "print(sorted({'boxball.line', 'boxball.measures'} & set(sys.modules)))\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code], env=ENV, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "[]\n"


def test_names_and_submodules_load_on_first_use():
    code = (
        "import boxball\n"
        "assert boxball.line.assemble is boxball.assemble\n"
        "assert boxball.BallConfig.__module__ == 'boxball.core'\n"
        "names = {}\n"
        "exec('from boxball import *', names)\n"
        "assert set(boxball.__all__) <= set(names)\n"
    )
    subprocess.run([sys.executable, "-c", code], env=ENV, check=True)


def _bbs_without(module: str, *args: str, stdin: str | None = None) -> str:
    """Run ``bbs ARGS`` where any import of ``module`` fails."""
    code = f"import sys; sys.modules[{module!r}] = None; from boxball.cli import main; main()"
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=ENV, input=stdin, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_deterministic_commands_run_without_numpy():
    assert "version" in _bbs_without("numpy", "--version")
    assert _bbs_without("numpy", "evolve", "--trace", "1100").split() == ["1100", "1210", "0011"]
    doc = _bbs_without("numpy", "decompose", FIG_EXCURSION)
    assert json.loads(doc)["balls"] == FIG_EXCURSION
    assert _bbs_without("numpy", "reconstruct", "-", stdin=doc).split() == ["1", FIG_EXCURSION]
    assert _bbs_without("numpy", "render", "--no-color", "1100").split() == [".1100.", ".2222."]
    assert json.loads(_bbs_without("numpy", "verify", "bijections", "--n-max", "3"))["passed"]


def test_sampling_commands_run_without_numpy():
    for args in (
        ("sample", "--lambda", "0.25", "--excursions", "200", "--seed", "5"),
        ("sample", "--anti-palm", *MARKOV, "--boxes", "500", "--seed", "5"),
        ("sample", "--measure", "explicit", "--alpha", "0.2,0.1,0.05", "--excursions", "200",
         "--seed", "5"),
        ("params", *MARKOV),
    ):
        assert _bbs_without("numpy", *args) == CliRunner().invoke(main, list(args)).stdout, args
    for args in (
        ("geometric", "--lambda", "0.25", "--excursions", "4000", "--seed", "5"),
        ("geometric", "--measure", "explicit", "--alpha", "0.2,0.1,0.05", "--excursions", "4000",
         "--seed", "5"),
        ("independence", *MARKOV, "--excursions", "4000", "--seed", "5"),
        ("t-invariance", "--lambda", "0.25", "--boxes", "20000", "--seed", "5"),
        ("shift", "--configs", "50", "--seed", "5"),
        ("partition", "--lambda", "0.25"),
    ):
        report = _bbs_without("numpy", "verify", *args)
        assert json.loads(report)["passed"] is True, args
        assert report == CliRunner().invoke(main, ["verify", *args]).stdout, args


def test_chi_square_commands_run_without_scipy():
    for args in (
        ("geometric", "--lambda", "0.25", "--excursions", "4000"),
        ("independence", *MARKOV, "--excursions", "4000"),
        ("t-invariance", "--lambda", "0.25", "--boxes", "20000"),
    ):
        report = json.loads(_bbs_without("scipy", "verify", *args, "--seed", "5"))
        assert report["passed"] is True, args


def test_deterministic_commands_run_without_click():
    assert _bbs_without("click", "--version") == "bbs, version 0.1.0\n"
    assert _bbs_without("click", "evolve", "--trace", "1100").split() == ["1100", "1210", "0011"]
    doc = _bbs_without("click", "decompose", FIG_EXCURSION)
    assert doc == CliRunner().invoke(main, ["decompose", FIG_EXCURSION]).stdout
    assert _bbs_without("click", "reconstruct", "-", stdin=doc).split() == ["1", FIG_EXCURSION]
    assert _bbs_without("click", "render", "--no-color", "1100").split() == [".1100.", ".2222."]
    assert json.loads(_bbs_without("click", "verify", "bijections", "--n-max", "3"))["passed"]


def test_sampling_commands_run_without_click():
    for args in (
        ("sample", "--lambda", "0.25", "--excursions", "200", "--seed", "5"),
        ("sample", "--anti-palm", *MARKOV, "--boxes", "500", "--seed", "5"),
        ("params", *MARKOV),
        ("verify", "geometric", "--lambda", "0.25", "--excursions", "4000", "--seed", "5"),
        ("verify", "independence", *MARKOV, "--excursions", "4000", "--seed", "5"),
        ("verify", "shift", "--configs", "50", "--seed", "5"),
    ):
        assert _bbs_without("click", *args) == CliRunner().invoke(main, list(args)).stdout, args
