import json
import math
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import hypothesis.strategies as st
import pytest
from click.testing import CliRunner
from hypothesis import given

from boxball.cli import _indented, main
from boxball.core import BOX_BUDGET, GAP_BUDGET

CARRIER_INPUT = "01101011010001111010000"
CARRIER_LOAD = "01212123232101234343210"
CARRIER_OUTPUT = "00010100101110000101111"
FIG_EXCURSION = "1110110010110000"


@pytest.fixture
def runner():
    return CliRunner()


def test_evolve_carrier_example(runner):
    result = runner.invoke(main, ["evolve", CARRIER_INPUT])
    assert result.exit_code == 0
    assert result.output.strip() == CARRIER_OUTPUT


def test_evolve_with_trace_shows_all_lines(runner):
    result = runner.invoke(main, ["evolve", "--trace", CARRIER_INPUT])
    lines = result.output.strip().splitlines()
    assert lines == [CARRIER_INPUT, CARRIER_LOAD, CARRIER_OUTPUT]


def test_evolve_with_trace_sweeps_once_per_step(runner, monkeypatch):
    # each step's image is both the next state and the source of its trace
    import boxball.core
    from boxball.core import BallConfig, carrier_trace, evolve

    sweep, sweeps = boxball.core._sweep, []
    monkeypatch.setattr(boxball.core, "_sweep", lambda bits: sweeps.append(1) or sweep(bits))
    result = runner.invoke(main, ["evolve", "--trace", "--steps", "3", "--format", "json", CARRIER_INPUT])
    assert result.exit_code == 0, result.output
    assert len(sweeps) == 3
    monkeypatch.undo()
    states = [evolve(BallConfig.from_string(CARRIER_INPUT), t) for t in range(3)]
    assert json.loads(result.output)["traces"] == [list(carrier_trace(state)) for state in states]


def test_evolve_refuses_steps_past_the_sweep_budget(runner):
    # a lone ball grows the window a box a step: a million steps would sweep
    # about 5e11 boxes, refused within the first hundred steps
    from boxball.core import SWEEP_BUDGET

    start = time.perf_counter()
    result = runner.invoke(main, ["evolve", "--steps", "1000000", "1"])
    assert time.perf_counter() - start < 1
    assert result.exit_code == 4, result.output
    assert result.stdout == ""
    assert result.stderr == f"error: evolving would sweep more than {SWEEP_BUDGET} boxes\n"


def test_evolve_with_trace_spends_the_sweep_budget_as_evolve_does(runner, monkeypatch):
    # ten steps of "1" sweep 1 + 2 + ... + 10 = 55 boxes, eleven 66
    import boxball.core

    monkeypatch.setattr(boxball.core, "SWEEP_BUDGET", 55)
    for steps, code in (("10", 0), ("11", 4)):
        for trace in ([], ["--trace"]):
            result = runner.invoke(main, ["evolve", *trace, "--steps", steps, "1"])
            assert result.exit_code == code, (steps, trace, result.output)


def test_evolve_trace_refuses_the_states_and_traces_it_holds_past_the_box_budget(runner, monkeypatch):
    # after t steps of "1" the states and traces held are 1 + t (t + 3) boxes:
    # 89 after eight steps, 109 after nine
    import boxball.core

    monkeypatch.setattr(boxball.core, "BOX_BUDGET", 100)
    for steps, code in (("8", 0), ("9", 4)):
        result = runner.invoke(main, ["evolve", "--trace", "--steps", steps, "1"])
        assert result.exit_code == code, (steps, result.output)
    assert result.stderr == "error: --trace would hold more than 100 boxes\n"
    assert runner.invoke(main, ["evolve", "--steps", "9", "1"]).exit_code == 0  # nothing held
    monkeypatch.undo()
    result = runner.invoke(main, ["evolve", "--trace", "--steps", "4000", "1"])
    assert result.exit_code == 4, result.output
    assert result.stdout == ""
    assert result.stderr == f"error: --trace would hold more than {BOX_BUDGET} boxes\n"


def test_verify_bijections_refuses_n_max_past_12_before_enumerating(runner, monkeypatch):
    # each level costs three to four times the last: 12 takes over ten seconds
    import boxball.core

    def enumerate_excursions(n):
        enumerated.append(n)
        return iter(())

    enumerated = []
    monkeypatch.setattr(boxball.core, "enumerate_excursions", enumerate_excursions)
    result = runner.invoke(main, ["verify", "bijections", "--n-max", "13"])
    assert result.exit_code == 4, result.output
    assert result.stderr == "error: --n-max must be <= 12\n"
    assert enumerated == []
    # 12 is enumerated: here into nothing, so the Catalan counts fail
    result = runner.invoke(main, ["verify", "bijections", "--n-max", "12"])
    assert result.exit_code == 1, result.output
    assert enumerated == list(range(13))


def test_verify_shift_refuses_max_boxes_past_the_box_budget_before_drawing(runner, monkeypatch):
    import random

    def randint(self, a, b):
        drawn.append(b)
        return 1

    drawn = []
    monkeypatch.setattr(random.Random, "randint", randint)
    result = runner.invoke(main, ["verify", "shift", "--configs", "1", "--max-boxes",
                                  str(BOX_BUDGET + 1), "--seed", "1"])
    assert result.exit_code == 4, result.output
    assert result.stderr == f"error: --max-boxes would lay out more than {BOX_BUDGET} boxes\n"
    assert drawn == []
    result = runner.invoke(main, ["verify", "shift", "--configs", "1", "--max-boxes",
                                  str(BOX_BUDGET), "--seed", "1"])
    assert result.exit_code == 0, result.output
    assert drawn == [BOX_BUDGET]


def test_evolve_multi_step_json(runner):
    result = runner.invoke(main, ["evolve", "--steps", "2", "--format", "json", "1100"])
    doc = json.loads(result.output)
    assert doc["v"] == 1
    assert doc["output"].rstrip("0") == "000011"


def test_evolve_rejects_bad_string(runner):
    result = runner.invoke(main, ["evolve", "01a0"])
    assert result.exit_code == 3


def test_decompose_figure_diagram(runner):
    result = runner.invoke(main, ["decompose", FIG_EXCURSION])
    doc = json.loads(result.output)
    assert doc["diagrams"] == [
        {
            "M": 4,
            "rows": [[0, 0, 1, 0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0], [1]],
        }
    ]
    assert doc["components"]["4"] == {"offset": 0, "values": [1]}
    ks = sorted(s["k"] for s in doc["solitons"])
    assert ks == [1, 1, 2, 4]


def test_decompose_reconstruct_pipe(runner):
    mid = runner.invoke(main, ["decompose", FIG_EXCURSION])
    back = runner.invoke(main, ["reconstruct", "-"], input=mid.output)
    assert back.exit_code == 0
    assert back.output.strip() == f"1 {FIG_EXCURSION}"


def test_reconstruct_bad_json(runner):
    result = runner.invoke(main, ["reconstruct", "-"], input="{broken]")
    assert result.exit_code == 3


@pytest.mark.parametrize(
    "doc",
    [
        "[1,2]",
        "7",
        '"x"',
        '{"components": [1]}',
        '{"1": {"offset": 0, "values": [1.9]}}',
        '{"1": {"offset": 0.5, "values": [1]}}',
        '{"1": {"offset": 0, "values": ["2"]}}',
        '{"1": {"offset": 0, "values": [true]}}',
        '{"1": {"offset": 0, "values": 3}}',
        '{"1": [0, [1]]}',
        '{"1_0": {"offset": 0, "values": [1]}}',
        b"\xff\xfe{",
    ],
)
def test_reconstruct_rejects_hostile_component_json(runner, tmp_path, doc):
    # neither a traceback nor a silent int() cast of a non-integer entry
    if isinstance(doc, bytes):  # bytes that are not UTF-8 come in through a file
        path = tmp_path / "components.json"
        path.write_bytes(doc)
        result = runner.invoke(main, ["reconstruct", "--in", str(path)])
    else:
        result = runner.invoke(main, ["reconstruct", doc])
    assert result.exit_code == 3, result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("command", ["decompose", "evolve", "render"])
@pytest.mark.parametrize("source", ["file", "stdin"])
def test_ball_string_that_is_not_utf8_exits_3(runner, tmp_path, command, source):
    if source == "file":
        path = tmp_path / "line.txt"
        path.write_bytes(b"\xff\xfe{")
        result = runner.invoke(main, [command, "--in", str(path)])
    else:
        result = runner.invoke(main, [command, "-"], input=b"\xff\xfe{")
    assert result.exit_code == 3, result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("command", ["decompose", "evolve", "render"])
def test_ball_string_read_from_stdin(runner, command):
    inline = runner.invoke(main, [command, FIG_EXCURSION])
    piped = runner.invoke(main, [command, "-"], input=FIG_EXCURSION + "\n")
    assert piped.exit_code == inline.exit_code == 0
    assert piped.output == inline.output


_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**300), 10**300),
    st.floats(),  # NaN and +-inf included
    st.just(-0.0),
    st.text(),
    st.sampled_from(['"\\/\b\f\n\r\t\x00\x1f\x7f', "é☃𝄞", "\ud800"]),
)
# strings whose encoding holds brackets, quotes or backslashes
_bracket_texts = st.text(alphabet='[]{}"\\, a', max_size=6)


def _nested(value, wraps):
    """``value`` one level deeper per wrap: in a one-item list, in a list
    after a scalar, or in a one-key dict."""
    for wrap in wraps:
        value = [value] if wrap == "list" else [0, value] if wrap == "after" else {"k": value}
    return value


_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.one_of(
        st.lists(st.integers()),  # flat lists: one call of json's C encoder
        st.lists(st.integers(), min_size=1, max_size=1),
        st.lists(st.one_of(st.integers(), st.booleans())),
        st.lists(st.one_of(st.integers(), _bracket_texts)),
        st.tuples(_json_scalars, st.lists(inner), st.dictionaries(st.text(), inner)).map(list),
        st.lists(inner),
        st.lists(inner).map(tuple),
        st.dictionaries(st.text(), inner),
        st.builds(_nested, inner, st.lists(st.sampled_from(["list", "after", "dict"]),
                                           min_size=6, max_size=8)),
    ),
)


@given(_json_values)
def test_indented_writer_matches_json_dumps_indent_2(value):
    assert _indented(value) == json.dumps(value, indent=2)


@given(_json_values)
def test_indented_writer_without_the_c_encoder_matches_json_dumps_indent_2(value):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(json.encoder, "c_make_encoder", None)
        assert _indented(value) == json.dumps(value, indent=2)


def test_indented_writer_encodes_flat_lists_in_one_c_call(monkeypatch):
    make, made, calls = json.encoder.c_make_encoder, [], []

    def make_encoder(*args):
        made.append(args[5])  # the item separator
        encode = make(*args)
        return lambda obj, level: calls.append(obj) or encode(obj, level)

    monkeypatch.setattr(json.encoder, "c_make_encoder", make_encoder)
    doc = {"a": [1, 2, 3], "b": [4], "c": [[5, 6], [7]], "d": ["[x", 8], "e": [9, [10]]}
    assert _indented(doc) == json.dumps(doc, indent=2)
    # one encoder per depth; a list whose text holds a bracket goes item by item
    assert made == [",\n  ", ",\n    ", ",\n      "]
    assert calls == [[1, 2, 3], [4], [5, 6], [7], ["[x", 8], [9, [10]], [10]]


def test_decompose_document_of_long_near_critical_excursions_is_json_dumps_indent_2(runner):
    from boxball.core import assemble
    from boxball.line import bernoulli_excursions

    # the three longest of 200 Bernoulli(0.49) excursions: 2162, 3784 and 6134 boxes
    excursions = sorted(bernoulli_excursions(0.49, 200, random.Random(7)), key=lambda e: len(e.bits))
    line = assemble(excursions[-3:], 0).config.to_string()
    result = runner.invoke(main, ["decompose", "--origin", "0", line])
    assert result.exit_code == 0, result.output
    assert max(sol["k"] for sol in json.loads(result.stdout)["solitons"]) > 50
    assert result.stdout == json.dumps(json.loads(result.stdout), indent=2) + "\n"


def test_decompose_precondition_exit_code(runner):
    result = runner.invoke(main, ["decompose", "--origin", "0", "1100"])
    assert result.exit_code == 4


def test_render_plain_classes(runner):
    result = runner.invoke(main, ["render", "--no-color", FIG_EXCURSION])
    lines = result.output.strip().splitlines()
    assert lines[0] == f".{FIG_EXCURSION}."
    assert lines[1] == ".4441142211224444."


def test_render_color_prints_escapes_off_a_terminal(runner):
    # --color asks for the escapes, so they are printed to a pipe too, and the
    # class line that stands in for them is not
    result = runner.invoke(main, ["render", "--color", FIG_EXCURSION])
    assert result.exit_code == 0, result.output
    lines = result.stdout.splitlines()
    assert len(lines) == 1
    assert "\x1b[34m1\x1b[0m" in lines[0] and "\x1b[35m0\x1b[0m" in lines[0]
    assert re.sub(r"\x1b\[\d+m", "", lines[0]) == f".{FIG_EXCURSION}."


@pytest.mark.parametrize(
    "command, text",
    [("decompose", FIG_EXCURSION), ("evolve", "1100"), ("render", "1100"), ("reconstruct", "{}")],
)
def test_input_given_inline_and_through_in_exits_3(runner, tmp_path, command, text):
    # each command reads its input one way: inline, through --in, or - for stdin
    what = "a decompose document" if command == "reconstruct" else "a ball string"
    path = tmp_path / "input.txt"
    path.write_text(text)
    for args in ([text, "--in", str(path)], ["-", "--in", str(path)], []):
        result = runner.invoke(main, [command, *args], input=text)
        assert result.exit_code == 3, (args, result.output)
        assert result.stdout == ""
        assert result.stderr == f"error: provide {what} either inline or via --in\n"
    for args in ([text], ["--in", str(path)], ["-"]):
        assert runner.invoke(main, [command, *args], input=text).exit_code == 0, args


@pytest.mark.parametrize(
    "args",
    [
        ["decompose", "--in", "{dir}"],
        ["reconstruct", "--in", "{dir}"],
        ["params", "--params", "{dir}"],
        ["evolve", "1100", "--out", "{dir}/missing/out.txt"],
    ],
    ids=["decompose-in", "reconstruct-in", "params-params", "evolve-out"],
)
def test_a_file_that_cannot_be_opened_exits_3(runner, tmp_path, args):
    # a directory given as an input file, or an output file in a missing directory
    result = runner.invoke(main, [arg.format(dir=tmp_path) for arg in args])
    assert result.exit_code == 3, result.output
    assert result.stdout == ""
    errors = result.stderr.splitlines()
    assert len(errors) == 1 and errors[0].startswith("error: "), result.stderr


def test_decompose_and_render_independent_of_window_padding(runner):
    # the same configuration, once with its window starting right of box 1
    shifted = ["--origin", "3", "110100"]
    padded = ["--origin", "1", "00110100"]
    docs = [json.loads(runner.invoke(main, ["decompose", *a]).output) for a in (shifted, padded)]
    for key in ("solitons", "slots", "diagrams", "components"):
        assert docs[0][key] == docs[1][key], key
    assert docs[0]["solitons"] == [
        {"k": 2, "head": [3, 4], "tail": [7, 8]},
        {"k": 1, "head": [6], "tail": [5]},
    ]
    renders = [runner.invoke(main, ["render", "--no-color", *a]).output for a in (shifted, padded)]
    assert renders[0] == renders[1] == "...110100.\n...221122.\n"


@pytest.mark.parametrize(
    "flags, params_file",
    [
        (["--measure", "markov", "--Q", "[[0.8"], None),
        (["--measure", "markov", "--Q", "[1,2]"], None),
        (["--measure", "explicit", "--alpha", "a,b"], None),
        ([], b'{"family":"bernoulli"}'),
        ([], b"\xff\xfe{"),
        # the walk sampler never reads Q(0,0), so a NaN there once sampled
        (["--measure", "markov", "--Q", "[[NaN,0.2],[0.6,0.4]]"], None),
        (["--measure", "markov", "--Q", "[[0.8,0.2],[NaN,0.4]]"], None),
        (["--measure", "markov", "--Q", "[[Infinity,0.2],[0.6,0.4]]"], None),
        ([], b'{"family":"markov","Q":[[0.8,0.2],[0.6,-Infinity]]}'),
        # a value that starts like a negative number is the option's value
        (["--measure", "explicit", "--alpha", "-0.1,0.2"], None),
        ([], b'{"family":"cauchy","lambda":0.25}'),
        # a parameter of another JSON type, once cast to a float or read
        # character by character; a bool is not a number
        ([], b'{"family":"explicit","alpha":{"0.2":"x"}}'),
        ([], b'{"family":"explicit","alpha":"0"}'),
        ([], b'{"family":"explicit","alpha":[false,0.2]}'),
        ([], b'{"family":"bernoulli","lambda":"0.25"}'),
        ([], b'{"family":"bernoulli","lambda":false}'),
        (["--measure", "markov", "--Q", '["10","10"]'], None),
        ([], b'{"family":"markov","Q":["10","10"]}'),
        (["--measure", "markov", "--Q", "[[true,false],[true,false]]"], None),
    ],
)
def test_malformed_measure_flags_exit_3(runner, tmp_path, flags, params_file):
    if params_file is not None:
        path = tmp_path / "measure.json"
        path.write_bytes(params_file)
        flags = ["--params", str(path)]
    for command in (
        ["params"],
        ["sample", "--excursions", "10", "--seed", "1"],
        # the nested verify group reports through the same boundary
        ["verify", "partition"],
        ["verify", "geometric", "--excursions", "10", "--seed", "1"],
        ["verify", "independence", "--excursions", "10", "--seed", "1"],
    ):
        result = runner.invoke(main, [*command, *flags])
        assert result.exit_code == 3, (command, result.output)
        assert "Traceback" not in result.output
        errors = result.stderr.splitlines()
        assert len(errors) == 1 and errors[0].startswith("error: "), (command, result.stderr)


_MEASURE_COMMANDS = (
    # each command, and an argument of it that is refused too when it runs
    (["sample", "--excursions", "3", "--seed", "1"], ["--excursions", "-1"]),
    (["sample", "--anti-palm", "--boxes", "100", "--seed", "1"], ["--boxes", "0"]),
    (["verify", "independence", "--excursions", "3", "--seed", "1"], ["--excursions", "-1"]),
    (["verify", "geometric", "--excursions", "3", "--seed", "1"], ["--excursions", "-1"]),
    (["params"], ["--levels", "-1"]),
)


@pytest.mark.parametrize(
    "flags, params_file, code, message",
    [
        (["--lambda", "0.5"], None, 4, "lambda must lie in [0, 1/2)"),
        ([], '{"family":"bernoulli","lambda":0.75}', 4, "lambda must lie in [0, 1/2)"),
        (["--measure", "markov", "--Q", "[[0.4,0.6],[0.6,0.4]]"], None, 4,
         "need Q(0,1) < Q(1,0) for density below 1/2"),
        (["--measure", "markov", "--Q", "[[0.8,0.2],[0.6]]"], None, 3,
         "transition matrix must be 2x2"),
        ([], '{"family":"markov","Q":[[0.8,0.2],[0.6,0.4],[1,0]]}', 3,
         "transition matrix must be 2x2"),
        (["--measure", "markov", "--Q", '[[0.8,"x"],[0.6,0.4]]'], None, 3,
         "bad markov parameter: Q must be a list of two lists of numbers"),
        (["--measure", "markov", "--Q", "[[0.8,0.3],[0.6,0.4]]"], None, 3, "rows must sum to 1"),
        # rows sum to 1 up to rounding: with Q(0,0) = 0 no record would ever follow
        (["--measure", "markov", "--Q", "[[0,0.9999999999998],[0.9999999999999,1e-13]]"], None,
         4, "need Q(0,0) > 0 for a record to follow"),
    ],
)
def test_every_command_refuses_a_bad_measure_alike(runner, tmp_path, flags, params_file, code,
                                                   message):
    # the measure is checked before anything else, whether or not the command
    # reads its soliton weights
    if params_file is not None:
        path = tmp_path / "measure.json"
        path.write_text(params_file)
        flags = ["--params", str(path)]
    for command, count in _MEASURE_COMMANDS:
        for args in ([*command, *flags], [*command, *flags, *count]):
            result = runner.invoke(main, args)
            assert result.exit_code == code, (args, result.output)
            assert result.stdout == ""
            assert result.stderr == f"error: {message}\n", args


@pytest.mark.parametrize(
    "args",
    [
        ["evolve", "--steps", "-1", "1100"],
        ["sample", "--anti-palm", "--boxes", "0", "--lambda", "0.25", "--seed", "1"],
        ["verify", "shift", "--configs", "3", "--max-boxes", "0", "--seed", "1"],
        ["verify", "shift", "--configs", "-1", "--seed", "1"],
        ["verify", "bijections", "--n-max", "-1"],
        ["sample", "--measure", "explicit", "--alpha", "0.2", "--excursions", "-1", "--seed", "1"],
        ["sample", "--measure", "bernoulli", "--lambda", "0.25", "--excursions", "-1", "--seed", "1"],
        ["sample", "--measure", "markov", "--Q", "[[0.8,0.2],[0.6,0.4]]", "--excursions", "0",
         "--seed", "1"],
        ["verify", "geometric", "--measure", "explicit", "--alpha", "0.2", "--excursions", "-1",
         "--seed", "1"],
        ["verify", "independence", "--lambda", "0.25", "--excursions", "-1", "--seed", "1"],
        ["params", "--measure", "bernoulli", "--lambda", "0.25", "--levels", "-1"],
        ["verify", "t-invariance", "--lambda", "0.25", "--boxes", "1000", "--block-len", "0",
         "--seed", "1"],
        ["verify", "t-invariance", "--lambda", "0.25", "--boxes", "1000", "--block-len", "-2",
         "--seed", "1"],
        ["sample", "--lambda", "0.25", "--excursions", "3", "--seed", "-1"],
        ["sample", "--anti-palm", "--lambda", "0.25", "--boxes", "10", "--seed", "-1"],
        ["verify", "geometric", "--lambda", "0.25", "--excursions", "3", "--seed", "-1"],
        ["verify", "independence", "--lambda", "0.25", "--excursions", "3", "--seed", "-1"],
        ["verify", "t-invariance", "--lambda", "0.25", "--boxes", "1000", "--seed", "-1"],
        ["verify", "shift", "--configs", "3", "--seed", "-1"],
        # box 0 more than 2^16 boxes from the window: as many empty excursions to print
        ["decompose", "--origin", "5000000", "1"],
        ["render", "--origin", "-5000000", "1"],
        ["decompose", "--origin", "65537", "1"],
        ["render", "--origin", "-65537", "1"],
        # more truncation levels than the automatic truncation may use
        ["params", "--lambda", "0.25", "--levels", "5001"],
    ],
)
def test_out_of_range_integer_arguments_exit_4(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 4, result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("flag, window, measure", [
    pytest.param(flag, window, measure, id=f"{prefix}{flag}")
    for prefix, window, measure in (
        ("", "chain_window", ["--lambda", "0.25"]),
        ("explicit", "sample_anti_palm", ["--measure", "explicit", "--alpha", "0.2,0.1,0.05"]))
    for flag in ("--steps", "--block-len")])
def test_t_invariance_refuses_its_blocks_before_drawing(runner, monkeypatch, flag, window, measure):
    # each family's window: the chain window of a chain, the fill's of explicit weights
    import boxball.line

    def draw(*args, **kwargs):
        raise AssertionError("drew the window")

    monkeypatch.setattr(boxball.line, window, draw)
    result = runner.invoke(main, ["verify", "t-invariance", *measure, flag, "0", "--seed", "1"])
    assert result.exit_code == 4, result.output
    name = flag[2:].replace("-", "_")
    assert result.stderr == f"error: {name} must be >= 1\n"


def test_t_invariance_refuses_its_margin_after_one_sweep(runner, monkeypatch):
    # 100000 steps of a 2000-box window: the margin is read off the first
    # sweep and refused before the other 99999
    import boxball.stats

    def evolve(config, steps=1):
        raise AssertionError("swept past the first step")

    monkeypatch.setattr(boxball.stats, "evolve", evolve)
    result = runner.invoke(main, ["verify", "t-invariance", "--lambda", "0.25", "--boxes", "2000",
                                  "--steps", "100000", "--seed", "1"])
    assert result.exit_code == 4, result.output
    assert result.stderr == "error: window too small for the interior margin\n"


@pytest.mark.parametrize(
    "command",
    [
        ["sample", "--anti-palm", "--lambda", "0.25"],
        ["sample", "--anti-palm", "--measure", "explicit", "--alpha", "0.2,0.1"],
        ["verify", "t-invariance", "--lambda", "0.25"],
    ],
    ids=["sample-walk", "sample-diagrams", "t-invariance"],
)
def test_anti_palm_windows_past_the_box_budget_exit_4_before_drawing(runner, monkeypatch,
                                                                     command):
    import boxball.line
    import boxball.measures

    # a draw, by walking or of diagrams, would fail with a TypeError, and so
    # would a window's first use of its random source
    monkeypatch.setattr(boxball.line, "markov_excursions", None)
    monkeypatch.setattr(boxball.measures, "sample_excursions", None)
    monkeypatch.setattr(boxball.line, "_as_rng", None)
    for boxes in (BOX_BUDGET + 1, 10**12):
        result = runner.invoke(main, [*command, "--boxes", str(boxes), "--seed", "1"])
        assert result.exit_code == 4, result.output
        assert result.stderr == (
            f"error: an anti-Palm window would lay out more than {BOX_BUDGET} boxes\n")


@pytest.mark.parametrize(
    "command",
    [
        ["sample", "--lambda", "0.25"],
        ["sample", "--measure", "explicit", "--alpha", "0.2,0.1"],
        ["verify", "independence", "--lambda", "0.25"],
    ],
    ids=["sample-walk", "sample-diagrams", "independence"],
)
def test_palm_samples_past_the_box_budget_exit_4_before_drawing(runner, monkeypatch, command):
    import boxball.line
    import boxball.measures

    def draw(*args):
        raise AssertionError("a Palm sample was drawn")

    monkeypatch.setattr(boxball.line, "markov_excursions", draw)
    monkeypatch.setattr(boxball.measures, "sample_excursions", draw)
    # each excursion lays out at least its record box
    for total in (BOX_BUDGET + 1, 10**9):
        result = runner.invoke(main, [*command, "--excursions", str(total), "--seed", "1"])
        assert result.exit_code == 4, result.output
        assert result.stderr == f"error: --excursions would lay out more than {BOX_BUDGET} boxes\n"


def test_anti_palm_window_of_diverging_weights_exits_4(runner):
    result = runner.invoke(main, ["sample", "--anti-palm", "--measure", "explicit",
                                  "--alpha", "0.5,0.5", "--seed", "1"])
    assert result.exit_code == 4, result.output
    assert result.stdout == ""
    errors = result.stderr.splitlines()
    assert len(errors) == 1 and errors[0].startswith("error: "), result.stderr


# the chain alternates balls and empty boxes: a record waits about 4e9 boxes
HUGE_GAP = ["--measure", "markov", "--Q", "[[1e-9,0.999999999],[0.9999999995,5e-10]]"]


# q_2 near 1: a drawn row 1 would hold about 2e9 slots
HUGE_ROW = ["--measure", "explicit", "--alpha", "0,0.999999999"]


# a stationary window draws its blocks one by one, and the one past the
# budget is refused; a Palm sample at its default count is refused by its
# mean record gap before it draws (the test after this checks no draw)
DRAWN = "a drawn excursion"
MEAN_GAP = "--excursions at the mean record gap"


@pytest.mark.parametrize(
    "args, refusal",
    [
        (["verify", "independence", *HUGE_ROW], MEAN_GAP),
        (["sample", "--anti-palm", *HUGE_GAP], DRAWN),
        (["verify", "geometric", *HUGE_GAP], MEAN_GAP),
        (["verify", "independence", *HUGE_GAP], MEAN_GAP),
        (["verify", "t-invariance", *HUGE_GAP], DRAWN),
        (["sample", "--anti-palm", *HUGE_ROW], DRAWN),
    ],
    ids=[f"args{i}" for i in range(6)],
)
def test_palm_samplers_refuse_an_excursion_past_the_box_budget(args, refusal):
    # in a process of its own, so that a walk that never ends, or its memory, stops at the timeout
    done = subprocess.run(
        [sys.executable, "-m", "boxball.cli", *args, "--seed", "1"],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        capture_output=True, text=True, timeout=10,
    )
    assert done.returncode == 4, done.stderr
    assert done.stdout == ""
    assert done.stderr == f"error: {refusal} would lay out more than {BOX_BUDGET} boxes\n"


@pytest.mark.parametrize(
    "args",
    [
        # kappa = 50: about 2e8 boxes, from a count the budget allows
        ["--lambda", "0.49", "--excursions", "4000000"],
        # kappa about 4e9 and 4e9: three excursions are too many
        [*HUGE_GAP, "--excursions", "3"],
        [*HUGE_ROW, "--excursions", "3"],
        # and so is each command's default count
        HUGE_GAP,
        HUGE_ROW,
    ],
    ids=["lambda-0.49", "huge-gap", "huge-row", "huge-gap-default", "huge-row-default"],
)
def test_sample_refuses_excursions_past_the_box_budget_at_the_mean_record_gap(
        runner, monkeypatch, args):
    # the sample is laid out whole, so its mean length is refused before the
    # walk, by the one Palm entry that sample and the two Palm checks call
    import boxball.line
    import boxball.measures

    def draw(*args):
        raise AssertionError("a Palm sample was drawn")

    monkeypatch.setattr(boxball.line, "markov_excursions", draw)
    monkeypatch.setattr(boxball.measures, "sample_excursions", draw)
    for command in (["sample"], ["verify", "geometric"], ["verify", "independence"]):
        start = time.perf_counter()
        result = runner.invoke(main, [*command, *args, "--seed", "1"])
        assert time.perf_counter() - start < 1, command
        assert result.exit_code == 4, (command, result.output)
        assert result.stdout == ""
        assert result.stderr == (
            f"error: --excursions at the mean record gap would lay out more than {BOX_BUDGET} boxes\n")


def test_verify_geometric_of_a_chain_reads_only_its_level(runner):
    # q_1 at lambda = 0.499 is its closed form, while the whole slot fill
    # would need more levels than the fill builds
    result = runner.invoke(main, ["verify", "geometric", "--lambda", "0.499", "--excursions",
                                  "2000", "--seed", "1"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["passed"] is True
    for command in (["params"], ["verify", "partition"]):
        result = runner.invoke(main, [*command, "--lambda", "0.499"])
        assert result.exit_code == 4, (command, result.output)
        assert result.stderr == "error: slot parameters do not decay; truncation failed\n"


def test_verify_geometric_at_a_level_with_q_zero_exits_4(runner):
    result = runner.invoke(main, ["verify", "geometric", "--measure", "explicit", "--alpha",
                                  "0.2,0,0.05", "--level", "2", "--excursions", "20000",
                                  "--seed", "1"])
    assert result.exit_code == 4, result.output
    assert result.stderr.splitlines() == ["error: row 2: q_2 = 0, the law is a point mass at 0"]


def test_decompose_runs_one_soliton_decomposition_per_excursion(runner, monkeypatch):
    import boxball.core
    import boxball.slots

    calls = []
    original = boxball.core.soliton_decompose

    def counted(exc):
        calls.append(exc)
        return original(exc)

    monkeypatch.setattr(boxball.core, "soliton_decompose", counted)  # what render imports
    monkeypatch.setattr(boxball.slots, "soliton_decompose", counted)
    excursions = [FIG_EXCURSION, "10", "111000", "1101001100"]
    result = runner.invoke(main, ["decompose", "0".join(excursions)])
    assert result.exit_code == 0, result.output
    assert len(json.loads(result.output)["slots"]) == len(excursions)
    assert len(calls) == len(excursions)
    # repeated excursions, the empty one included, are decomposed once each
    line = "0".join(["10", FIG_EXCURSION, "", "10", "111000", "", FIG_EXCURSION, "10"])
    for args in (["decompose", line], ["render", "--no-color", line]):
        calls.clear()
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert len(calls) == len({e.bits for e in calls}) == 4


def test_verify_geometric_decomposes_each_distinct_excursion_once(runner, monkeypatch):
    import boxball.slots

    calls = []
    original = boxball.slots.soliton_decompose

    def counted(exc):
        calls.append(exc.bits)
        return original(exc)

    monkeypatch.setattr(boxball.slots, "soliton_decompose", counted)
    args = ["verify", "geometric", "--measure", "bernoulli", "--lambda", "0.25",
            "--excursions", "16000", "--seed", "7"]
    outputs = []
    for _ in range(2):  # nothing is remembered from one call to the next
        calls.clear()
        outputs.append(runner.invoke(main, args).output)
        assert len(calls) == len(set(calls)) == 233  # distinct excursions of this seed
    assert outputs[0] == outputs[1]


_FAMILY_FLAGS = {
    "bernoulli": ("--lambda", "0.25"),
    "markov": ("--measure", "markov", "--Q", "[[0.8,0.2],[0.6,0.4]]"),
    "explicit": ("--measure", "explicit", "--alpha", "0.2,0.1,0.05"),
}


@pytest.mark.parametrize("family", list(_FAMILY_FLAGS))
def test_each_command_builds_the_slot_fill_once(runner, monkeypatch, family):
    import boxball.measures

    calls = []
    original = boxball.measures.fill_from_weights

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(boxball.measures, "fill_from_weights", counted)
    flags = _FAMILY_FLAGS[family]
    for args, builds in (
        (["params", *flags], 1),
        # a chain's q_k is its closed form
        (["verify", "geometric", *flags, "--excursions", "4000", "--seed", "5"],
         1 if family == "explicit" else 0),
        # a chain's Palm sampler walks it, and so does its anti-Palm window;
        # the explicit one draws diagrams of the fill
        (["sample", "--anti-palm", *flags, "--boxes", "500", "--seed", "1"],
         1 if family == "explicit" else 0),
        (["verify", "t-invariance", *flags, "--boxes", "20000", "--seed", "5"],
         1 if family == "explicit" else 0),
        (["verify", "independence", *flags, "--excursions", "4000", "--seed", "5"],
         1 if family == "explicit" else 0),
    ):
        calls.clear()
        result = runner.invoke(main, args)
        assert result.exit_code == 0, (args, result.output)
        assert len(calls) == builds, (args, len(calls))


@pytest.mark.parametrize(
    "doc, code",
    [
        ('{"1": {"offset": 0, "values": [100000000]}}', 4),
        ('{"1": {"offset": 10000000, "values": [1]}}', 4),
        ('{"1": {"offset": -10000000, "values": [1]}}', 4),
        ('{"3000": {"offset": 0, "values": [1]}}', 4),
        ('{"1": {"offset": 0, "values": [0, -1]}}', 3),
        ('{"1": {"offset": 0, "values": []}}', 0),
        ('{"1": {"offset": 1000, "values": [1]}}', 0),
    ],
)
def test_reconstruct_refuses_arrays_over_its_budget(runner, doc, code):
    result = runner.invoke(main, ["reconstruct", "-"], input=doc)
    assert result.exit_code == code, result.output
    assert "Traceback" not in result.output


def test_reconstruct_refuses_a_soliton_past_the_budget_at_once(runner):
    start = time.perf_counter()
    result = runner.invoke(main, ["reconstruct", "-"],
                           input='{"1000000000": {"offset": 0, "values": [1]}}')
    assert time.perf_counter() - start < 1
    assert result.exit_code == 4
    assert result.stderr == (
        f"error: the component array asks for more than {BOX_BUDGET} boxes and diagram entries\n")


def test_params_bernoulli(runner):
    result = runner.invoke(
        main, ["params", "--measure", "bernoulli", "--lambda", "0.25", "--format", "json"]
    )
    doc = json.loads(result.output)
    assert doc["Z"] == pytest.approx(4 / 3, abs=1e-9)
    assert doc["q"][0] == pytest.approx(0.1875)
    assert doc["beta0"] == pytest.approx(2.0, abs=1e-9)
    assert doc["kappa"] == pytest.approx(2.0, abs=1e-9)
    assert doc["lambda"] == pytest.approx(0.25, abs=1e-9)


def test_params_from_file(runner, tmp_path):
    path = tmp_path / "measure.json"
    path.write_text('{"family":"markov","Q":[[0.8,0.2],[0.6,0.4]]}')
    result = runner.invoke(main, ["params", "--params", str(path), "--format", "json"])
    doc = json.loads(result.output)
    assert doc["Z"] == pytest.approx(1.25, abs=1e-9)


@pytest.mark.parametrize(
    "params_file, flags",
    [
        ('{"family":"bernoulli","lambda":0.25}', ["--lambda", "0.25"]),
        ('{"family":"markov","Q":[[0.8,0.2],[0.6,0.4]]}',
         ["--measure", "markov", "--Q", "[[0.8,0.2],[0.6,0.4]]"]),
        ('{"family":"explicit","alpha":[0.2,0.1,0.05]}',
         ["--measure", "explicit", "--alpha", "0.2,0.1,0.05"]),
    ],
)
def test_params_file_samples_as_the_matching_flags(runner, tmp_path, params_file, flags):
    path = tmp_path / "measure.json"
    path.write_text(params_file)
    for command in (
        ["sample", "--excursions", "50", "--seed", "3"],
        ["verify", "geometric", "--excursions", "2000", "--seed", "3"],
    ):
        from_file = runner.invoke(main, [*command, "--params", str(path)])
        from_flags = runner.invoke(main, [*command, *flags])
        assert from_file.exit_code == from_flags.exit_code == 0, from_file.output
        assert from_file.stdout == from_flags.stdout, command


Q_FLAGS = ["--Q", "[[0.8,0.2],[0.6,0.4]]"]


_parameter_docs = st.fixed_dictionaries(
    {"family": st.one_of(st.sampled_from(["bernoulli", "markov", "explicit"]), _json_values)},
    optional={"lambda": _json_values, "Q": _json_values, "alpha": _json_values},
)


@given(st.one_of(
    st.tuples(st.just("--params"), st.one_of(_json_values, _parameter_docs).map(json.dumps)),
    st.tuples(st.just("--Q"), st.one_of(st.text(), _json_values.map(json.dumps))),
    st.tuples(st.just("--alpha"), st.one_of(
        st.text(), st.lists(st.one_of(st.floats(), st.integers(), st.text())).map(
            lambda xs: ",".join(map(str, xs))))),
))
def test_params_reads_any_parameter_text_without_a_traceback(tmp_path_factory, source):
    flag, text = source
    if flag == "--params":
        path = tmp_path_factory.getbasetemp() / "fuzzed-measure.json"
        path.write_text(text)
        args = ["--params", str(path)]
    else:
        args = ["--measure", "markov" if flag == "--Q" else "explicit", f"{flag}={text}"]
    result = CliRunner().invoke(main, ["params", *args])
    assert result.exit_code in (0, 3, 4), (args, result.output, result.exception)
    assert "Traceback" not in result.output
    errors = [line for line in result.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) <= 1 and (result.exit_code == 0) == (result.stderr == ""), result.stderr


def _ends_in_one_line(result) -> None:
    """Exit 0 with nothing on stderr, or 3 or 4 with one ``error:`` line; never a traceback."""
    assert result.exit_code in (0, 3, 4), (result.output, result.exception)
    assert "Traceback" not in result.output
    if result.exit_code:
        errors = result.stderr.splitlines()
        assert len(errors) == 1 and errors[0].startswith("error: "), result.stderr
    else:
        assert result.stderr == ""


_ball_texts = st.one_of(st.text(alphabet="01", max_size=60), st.text(max_size=20))
# near box 0, or with box 0 farther from the window than decompose and render lay out
_far = st.integers(2 * GAP_BUDGET, 10**30)
_origins = st.one_of(st.integers(-100, 100), _far, _far.map(lambda n: -n))


@given(st.sampled_from(["evolve", "decompose", "render"]), _ball_texts, _origins)
def test_inline_ball_strings_end_in_one_line(command, text, origin):
    # after "--" a text that starts with "-" is the ball string, not an option
    _ends_in_one_line(CliRunner().invoke(main, [command, f"--origin={origin}", "--", text]))


@given(st.sampled_from(["evolve", "decompose", "render"]),
       st.one_of(_ball_texts.map(str.encode), st.binary(max_size=40)))
def test_ball_strings_read_through_in_end_in_one_line(tmp_path_factory, command, data):
    path = tmp_path_factory.getbasetemp() / "fuzzed-line.txt"
    path.write_bytes(data)
    _ends_in_one_line(CliRunner().invoke(main, [command, "--in", str(path)]))


_component_rows = st.dictionaries(
    st.one_of(st.integers(-2, 12).map(str), st.text(max_size=3)),
    st.one_of(
        st.fixed_dictionaries({"offset": st.one_of(st.integers(-40, 40), _json_values),
                               "values": st.one_of(st.lists(st.integers(-1, 4), max_size=6),
                                                   _json_values)}),
        _json_values,
    ),
    max_size=4,
)


@given(st.one_of(
    _component_rows.map(json.dumps),
    _component_rows.map(lambda rows: json.dumps({"components": rows})),
    _json_values.map(json.dumps),
    st.text(),
))
def test_reconstruct_reads_any_component_text_in_one_line(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzzed-components.json"
    path.write_text(text)
    for args, stdin in ((["reconstruct", "--in", str(path)], None), (["reconstruct", "-"], text)):
        _ends_in_one_line(CliRunner().invoke(main, args, input=stdin))


def test_deeply_nested_json_exits_3(runner, tmp_path):
    deep = "[" * 100_000
    path = tmp_path / "deep.json"
    path.write_text(deep)
    for args, what in [
        (["params", "--measure", "markov", "--Q", deep], "--Q matrix"),
        (["params", "--params", str(path)], "parameter JSON"),
        (["reconstruct", "--in", str(path)], "JSON input"),
    ]:
        result = runner.invoke(main, args)
        assert result.exit_code == 3, (what, result.output)
        assert result.stderr.startswith(f"error: bad {what}: maximum recursion depth")
        assert len(result.stderr.splitlines()) == 1


@pytest.mark.parametrize(
    "flags, params_file, unread",
    [
        (["--measure", "markov", *Q_FLAGS, "--lambda", "0.9"], None, "--lambda"),
        (["--measure", "markov", *Q_FLAGS, "--alpha", "1,2"], None, "--alpha"),
        (["--lambda", "0.25", *Q_FLAGS], None, "--Q"),
        (["--measure", "explicit", "--alpha", "0.1", "--lambda", "0.25"], None, "--lambda"),
        (["--lambda", "0.25"], '{"family":"bernoulli","lambda":0.25}', "--lambda"),
        (Q_FLAGS, '{"family":"markov","Q":[[0.8,0.2],[0.6,0.4]]}', "--Q"),
        (["--alpha", "0.1"], '{"family":"bernoulli","lambda":0.25}', "--alpha"),
    ],
)
def test_parameter_flags_the_run_does_not_read_exit_3(runner, tmp_path, flags, params_file, unread):
    if params_file is not None:
        path = tmp_path / "measure.json"
        path.write_text(params_file)
        flags = [*flags, "--params", str(path)]
    for command in (
        ["params"],
        ["sample", "--excursions", "3", "--seed", "1"],
        ["verify", "partition"],
        ["verify", "t-invariance", "--boxes", "100", "--seed", "1"],
    ):
        result = runner.invoke(main, [*command, *flags])
        assert result.exit_code == 3, (command, flags, result.output)
        assert result.stdout == ""
        assert result.stderr.startswith(f"error: {unread} does not apply "), result.stderr


@pytest.mark.parametrize("measure", ["bernoulli", "markov", "explicit"])
def test_measure_beside_params_exits_3(runner, tmp_path, measure):
    # a given --measure is refused even when it names the file's family;
    # the default one is not (test_params_file_samples_as_the_matching_flags)
    path = tmp_path / "measure.json"
    path.write_text('{"family":"bernoulli","lambda":0.25}')
    for command in (
        ["sample", "--excursions", "3", "--seed", "1"],
        ["verify", "geometric", "--excursions", "2000", "--seed", "1"],
    ):
        result = runner.invoke(main, [*command, "--measure", measure, "--params", str(path)])
        assert result.exit_code == 3, (command, result.output)
        assert result.stdout == ""
        assert result.stderr == "error: --measure does not apply beside --params\n"


@pytest.mark.parametrize(
    "args, message",
    [
        (["geometric", "--level", "0"], "--level must be >= 1"),
        (["geometric", "--level", "-3"], "--level must be >= 1"),
        (["geometric", "--significance", "0"], "--significance must lie in (0, 1)"),
        (["geometric", "--significance", "1"], "--significance must lie in (0, 1)"),
        (["independence", "--significance", "2"], "--significance must lie in (0, 1)"),
        (["independence", "--significance", "-0.1"], "--significance must lie in (0, 1)"),
        (["independence", "--significance", "nan"], "--significance must lie in (0, 1)"),
    ],
    ids=["level-0", "level-negative", "significance-0", "significance-1", "significance-2",
         "significance-negative", "significance-nan"],
)
def test_verify_refuses_a_level_or_significance_before_drawing(runner, monkeypatch, args, message):
    import boxball

    def markov_excursions(*args):
        raise AssertionError("drew a sample")

    monkeypatch.setattr(boxball, "markov_excursions", markov_excursions, raising=False)
    result = runner.invoke(main, ["verify", *args, "--lambda", "0.25", "--seed", "1"])
    assert result.exit_code == 4, result.output
    assert result.stdout == ""
    assert result.stderr == f"error: {message}\n"


def test_sample_refuses_excursions_with_anti_palm(runner):
    # the stationary window reads --boxes, not --excursions
    args = ["sample", "--anti-palm", "--lambda", "0.25", "--excursions", "5", "--seed", "1"]
    result = runner.invoke(main, args)
    assert result.exit_code == 3, result.output
    assert result.stdout == ""
    assert result.stderr == "error: --excursions does not apply with --anti-palm\n"
    # without the flag a Palm sample still draws 1000 excursions
    default = runner.invoke(main, ["sample", "--lambda", "0.25", "--seed", "1"])
    named = runner.invoke(main, ["sample", "--lambda", "0.25", "--excursions", "1000", "--seed", "1"])
    assert default.exit_code == named.exit_code == 0
    assert default.stdout == named.stdout


def test_sample_refuses_boxes_without_anti_palm(runner):
    # the Palm sample reads --excursions, not --boxes
    result = runner.invoke(main, ["sample", "--lambda", "0.25", "--boxes", "10", "--seed", "1"])
    assert result.exit_code == 3, result.output
    assert result.stdout == ""
    assert result.stderr == "error: --boxes does not apply without --anti-palm\n"
    anti_palm = ["sample", "--anti-palm", "--lambda", "0.25", "--boxes", "10", "--seed", "1"]
    assert runner.invoke(main, anti_palm).exit_code == 0


@pytest.mark.parametrize(
    "command",
    [
        ["sample", "--excursions", "50", "--seed", "3"],
        ["sample", "--anti-palm", "--boxes", "300", "--seed", "3"],
        ["params"],
        ["verify", "geometric", "--excursions", "2000", "--seed", "3"],
    ],
)
def test_bernoulli_flags_run_as_the_chain_with_equal_rows(runner, command):
    bernoulli = runner.invoke(main, [*command, "--lambda", "0.25"])
    markov = runner.invoke(main, [*command, "--measure", "markov", "--Q", "[[0.75,0.25],[0.75,0.25]]"])
    assert bernoulli.exit_code == markov.exit_code == 0, bernoulli.output
    assert bernoulli.stdout == markov.stdout


def test_sample_requires_seed(runner):
    result = runner.invoke(main, ["sample", "--measure", "bernoulli", "--lambda", "0.25"])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "args",
    [
        [],
        ["verify"],
        ["no-such-command"],
        ["decompose", "--in", "/nonexistent"],
        ["params", "--params", "/nonexistent"],
        ["evolve", "--steps", "x", "1100"],
        ["sample", "--lambda", "0.25"],
        # options are not abbreviated
        ["sample", "--lambda", "0.25", "--seed", "1", "--exc", "5"],
    ],
)
def test_usage_errors_exit_2(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert "Traceback" not in result.output


def test_every_command_has_help(runner):
    commands = [[]]
    for name, command in main.commands.items():
        commands.append([name])
        commands += [[name, sub] for sub in getattr(command, "commands", {})]
    assert len(commands) == 14
    for command in commands:
        result = runner.invoke(main, [*command, "--help"])
        assert result.exit_code == 0, (command, result.output)
        assert result.stdout and result.stderr == "", command


def test_sample_deterministic(runner):
    args = ["sample", "--measure", "bernoulli", "--lambda", "0.25",
            "--excursions", "200", "--seed", "7", "--format", "json"]
    a = runner.invoke(main, args)
    b = runner.invoke(main, args)
    assert a.output == b.output
    doc = json.loads(a.output)
    assert doc["records"][0] == 0
    assert len(doc["records"]) == 201


def test_sample_anti_palm_json(runner):
    result = runner.invoke(
        main,
        ["sample", "--measure", "bernoulli", "--lambda", "0.25", "--anti-palm",
         "--boxes", "500", "--seed", "3", "--format", "json"],
    )
    doc = json.loads(result.output)
    assert set(doc) == {"v", "origin", "balls"}
    assert doc["origin"] <= 0


def test_sample_to_file(runner, tmp_path):
    out = tmp_path / "config.txt"
    result = runner.invoke(
        main,
        ["sample", "--measure", "markov", "--Q", "[[0.8,0.2],[0.6,0.4]]",
         "--excursions", "50", "--seed", "5", "--out", str(out)],
    )
    assert result.exit_code == 0
    body = out.read_text().splitlines()
    assert body[0].startswith("0 0")
    records = [int(v) for v in body[1].split()]
    assert 0 in records and records == sorted(records)


@pytest.mark.parametrize(
    "args",
    [["decompose", "--format", "text", FIG_EXCURSION], ["reconstruct", "-"], ["params", "--lambda", "0.25"]],
)
def test_text_output_goes_to_out(runner, tmp_path, args):
    stdin = runner.invoke(main, ["decompose", FIG_EXCURSION]).output if args[0] == "reconstruct" else None
    printed = runner.invoke(main, args, input=stdin)
    out = tmp_path / "out.txt"
    written = runner.invoke(main, [*args, "--out", str(out)], input=stdin)
    assert printed.exit_code == written.exit_code == 0
    assert written.output == ""
    assert out.read_text() == printed.output


def test_verify_bijections(runner):
    result = runner.invoke(main, ["verify", "bijections", "--n-max", "5"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["passed"] is True
    assert doc["excursions"] == 65


def test_verify_partition_both_families(runner):
    ok = runner.invoke(
        main,
        ["verify", "partition", "--measure", "bernoulli", "--lambda", "0.25",
         "--n-max", "40"],
    )
    assert ok.exit_code == 0
    markov = runner.invoke(
        main,
        ["verify", "partition", "--measure", "markov",
         "--Q", "[[0.8,0.2],[0.6,0.4]]", "--n-max", "60"],
    )
    assert markov.exit_code == 0


@pytest.mark.parametrize(
    "flags",
    [["--measure", "bernoulli", "--lambda", "0.25"],
     ["--measure", "markov", "--Q", "[[0.8,0.2],[0.6,0.4]]"]],
)
def test_verify_partition_past_float_range_of_path_counts(runner, flags):
    result = runner.invoke(main, ["verify", "partition", *flags, "--n-max", "600"])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert math.isfinite(doc["series"]) and math.isfinite(doc["tail_bound"])
    assert doc["gap"] < 1e-9 and doc["tail_bound"] < 1e-40


def test_verify_geometric_small(runner):
    result = runner.invoke(
        main,
        ["verify", "geometric", "--measure", "bernoulli", "--lambda", "0.25",
         "--excursions", "20000", "--seed", "11"],
    )
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["report"]["p_value"] > 1e-3


def test_verify_independence_small(runner):
    result = runner.invoke(
        main,
        ["verify", "independence", "--measure", "bernoulli", "--lambda", "0.25",
         "--excursions", "20000", "--seed", "17"],
    )
    assert result.exit_code == 0, result.output


def test_verify_t_invariance_small(runner):
    result = runner.invoke(
        main,
        ["verify", "t-invariance", "--measure", "bernoulli", "--lambda", "0.3",
         "--boxes", "40000", "--seed", "19"],
    )
    assert result.exit_code == 0, result.output


def test_verify_shift_small(runner):
    result = runner.invoke(
        main, ["verify", "shift", "--configs", "60", "--max-boxes", "80", "--seed", "23"]
    )
    assert result.exit_code == 0, result.output


def test_verify_shift_fails_rows_that_move_by_other_than_k(runner, monkeypatch):
    # two sweeps keep every component row but move row k by 2k labels: only
    # the offsets show it
    import boxball.stats

    one_sweep = boxball.stats.evolve
    monkeypatch.setattr(boxball.stats, "evolve", lambda config, steps=1: one_sweep(config, 2 * steps))
    result = runner.invoke(main, ["verify", "shift", "--configs", "200", "--seed", "1"])
    assert result.exit_code == 1, result.output
    assert json.loads(result.output)["failures"] > 0


def test_verify_failure_exit_code(runner):
    # an impossible tolerance forces a clean failure path
    result = runner.invoke(
        main,
        ["verify", "partition", "--measure", "bernoulli", "--lambda", "0.25",
         "--n-max", "2", "--tolerance", "1e-12"],
    )
    assert result.exit_code == 1
    doc = json.loads(result.output)
    assert doc["passed"] is False
