import json
import math
import re

import hypothesis.strategies as st
import pytest
from click.testing import CliRunner
from hypothesis import given

from boxball.cli import _indented, main

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
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.one_of(
        st.lists(st.integers()),  # the join path for lists of plain ints
        st.lists(st.one_of(st.integers(), st.booleans())),
        st.lists(inner),
        st.lists(inner).map(tuple),
        st.dictionaries(st.text(), inner),
    ),
)


@given(_json_values)
def test_indented_writer_matches_json_dumps_indent_2(value):
    assert _indented(value) == json.dumps(value, indent=2)


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
    ):
        result = runner.invoke(main, [*command, *flags])
        assert result.exit_code == 3, (command, result.output)
        assert "Traceback" not in result.output
        errors = result.stderr.splitlines()
        assert len(errors) == 1 and errors[0].startswith("error: "), (command, result.stderr)


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
