import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nugrass import cli
from nugrass.cli import build_parser, main, parse_index
from nugrass.nulie import h_report
from test_pins import PINS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_index_parsing():
    assert parse_index("{1,2}|{3}") == ((1, 2), (3,))
    assert parse_index("{}|{1}") == ((), (1,))
    assert parse_index("∅|{1}") == ((), (1,))
    assert parse_index("|{1}") == ((), (1,))
    with pytest.raises(ValueError):
        parse_index("{1,2}")


def test_atlas_command_lists_charts(capsys):
    code, out = run(capsys, "atlas", "-k", "0", "-l", "1", "-m", "1", "-n", "2")
    assert code == 0
    assert "3 charts" in out and "dimension 1|1" in out
    assert "1nu" in out


def test_atlas_command_json(capsys):
    code, out = run(capsys, "atlas", "-k", "1", "-l", "2", "-m", "2", "-n", "3",
                    "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["charts"]) == 10
    assert (data["alpha"], data["beta"]) == (3, 3)


def test_invalid_dimensions_exit_with_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["atlas", "-k", "2", "-l", "1", "-m", "1", "-n", "2"])
    assert exc.value.code == 2


def test_a_negative_nu_triple_audit_count_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-cocycle", "-k", "0", "-l", "1", "-m", "1", "-n", "2",
              "--samples", "2", "--audit-nu-triples", "-3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--audit-nu-triples" in captured.err and "suite" not in captured.out


def test_transition_command_prints_the_pasting_map(capsys):
    code, out = run(capsys, "transition", "-k", "0", "-l", "1", "-m", "1", "-n", "2",
                    "--from", "{}|{1}", "--to", "{}|{2}")
    assert code == 0
    assert "x1 -> (1)/(x1)" in out
    assert "e1 -> ((1)/(x1))*e1" in out


def test_verify_cocycle_command_and_exit_code(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, out = run(capsys, "verify-cocycle", "-k", "0", "-l", "1", "-m", "1",
                    "-n", "2", "-r", "2", "--samples", "5", "--seed", "7",
                    "--out", str(out_file))
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["ok"] is True
    assert data["suite"] == "cocycle"


def test_reports_are_byte_identical_for_identical_configs(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        run(capsys, "verify-cocycle", "-k", "0", "-l", "1", "-m", "1", "-n", "2",
            "-r", "2", "--samples", "5", "--seed", "3", "--out", str(path))
    assert a.read_bytes() == b.read_bytes()


def test_verify_action_command(capsys):
    code, out = run(capsys, "verify-action", "-k", "0", "-l", "1", "-m", "1",
                    "-n", "2", "-r", "2", "--samples", "5", "--seed", "1",
                    "--format", "json")
    assert code == 0
    data = json.loads(out)
    checks = {r["check"] for r in data["results"]}
    assert "gluing-square" in checks and "axiom-unit" in checks


def test_transitivity_command(capsys):
    code, out = run(capsys, "transitivity", "-k", "0", "-l", "1", "-m", "1",
                    "-n", "2", "-r", "4", "--samples", "5", "--seed", "1")
    assert code == 0
    assert "witness" in out


@pytest.mark.parametrize("base", [
    ["--base1", "[[1,0],[0]]", "--base2", "[[1,0]]"],    # ragged rows
    ["--base1", "[[1,0,0]]", "--base2", "[[1,0]]"],      # p1 wider than m
    ["--base1", "[[1,0]]"],                              # no p2 row for l = 1
    ["--base1", "[[1e400, 0]]", "--base2", "[[1, 0]]"],  # an infinite entry
    ["--base1", '[["1/0", 0]]', "--base2", "[[1, 0]]"],  # a zero denominator
    ["--base1", "[[0.1, 1]]", "--base2", "[[1, 0]]"],    # a float literal
    ["--base1", "[[0, 0]]", "--base2", "[[1, 0]]"],      # p1 of rank 0
])
def test_a_base_point_that_does_not_fit_exits_2(capsys, base):
    with pytest.raises(SystemExit) as exc:
        main(["transitivity", "-k", "1", "-l", "1", "-m", "2", "-n", "2",
              "--samples", "2", *base])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "bad base point" in captured.err and "witness" not in captured.out


def test_nulie_command(capsys):
    code, out = run(capsys, "nulie", "-k", "0", "-l", "1", "-m", "1", "-n", "2",
                    "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["dim_even"] >= 1
    assert data["defect_residual"] == "0"


def test_nulie_command_text_output(capsys):
    code, out = run(capsys, "nulie", "-k", "0", "-l", "1", "-m", "1", "-n", "2")
    assert code == 0
    assert out == (
        "nu-commutant of gl(1|2) acting on 0|1(1|2):\n"
        "  dim even = 1, dim odd = 0\n"
        "  even basis: {'1,1': '1', '2,2': '1', '3,3': '1'}\n"
        "  defect residual: 0\n"
        "  bracket closed: True, Jacobi exact: True\n"
        "  bracket-compatibility sign: -1\n"
    )


def test_exit_code_contract_for_identity_failures(capsys):
    from nugrass.cli import _emit
    from nugrass.reports import CheckResult, Report

    args = argparse.Namespace(out=None, format="text")
    healthy = Report(suite="demo", config={},
                     results=[CheckResult("a", "i", 3, 3, 0)])
    assert _emit(args, healthy.to_json, healthy.summary, healthy.ok) == 0
    broken = Report(suite="demo", config={},
                    results=[CheckResult("a", "i", 3, 1, 2)])
    assert _emit(args, broken.to_json, broken.summary, broken.ok) == 1
    capsys.readouterr()


def test_a_nulie_report_with_an_open_bracket_exits_1(monkeypatch, tmp_path, capsys):
    healthy = h_report(0, 1, 1, 2)
    monkeypatch.setattr(cli, "h_report", lambda *dims: {**healthy, "bracket_closed": False})
    out_file = tmp_path / "report.json"
    code, out = run(capsys, "nulie", "-k", "0", "-l", "1", "-m", "1", "-n", "2",
                    "--format", "json", "--out", str(out_file))
    assert code == 1
    assert out == out_file.read_text()
    assert json.loads(out)["bracket_closed"] is False


def test_kernel_errors_exit_3_with_a_json_line(capsys):
    code = main(["transition", "-k", "0", "-l", "1", "-m", "1", "-n", "2",
                 "--from", "{1}|{}", "--to", "{}|{1}"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "UncoveredCase"
    assert "{1}|{}" in error["message"]


def test_any_other_error_exits_3_with_a_json_line(monkeypatch, capsys):
    # exit 1 means an exact identity failed, so a crash outside the
    # kernel's own errors must not fall through to the interpreter's 1
    def crash(*dims):
        raise RuntimeError("not a kernel error")

    monkeypatch.setattr(cli, "h_report", crash)
    code = main(["nulie", "-k", "0", "-l", "1", "-m", "1", "-n", "2", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "RuntimeError", "message": "not a kernel error"}


def test_nulie_on_an_atlas_without_odd_coordinates_exits_3(capsys):
    code = main(["nulie", "-k", "0", "-l", "1", "-m", "0", "-n", "2", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "NoOddGenerators"


@pytest.mark.parametrize("dims", [["-k", "1", "-l", "0", "-m", "2", "-n", "0"],
                                  ["-k", "0", "-l", "2", "-m", "0", "-n", "4"]])
def test_verify_cocycle_on_an_atlas_without_odd_coordinates_exits_0(dims, capsys):
    # the non-gating nu-equivariance audit does not apply there, and says so
    code, out = run(capsys, "verify-cocycle", *dims, "--samples", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"]
    assert "no odd coordinate: the nu-equivariance audit does not apply" in data["notes"]
    assert not any(r["check"] == "nu-equivariance-audit" for r in data["results"])


def test_nu_triple_audit_past_the_smallest_atlas_exits_0(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, _ = run(capsys, "verify-cocycle", "-k", "1", "-l", "1", "-m", "2", "-n", "2",
                  "--samples", "2", "--audit-nu-triples", "24", "--out", str(out_file))
    assert code == 0
    audits = [r for r in json.loads(out_file.read_text())["results"]
              if r["check"] == "nu-triple-audit"]
    assert len(audits) == 24


@pytest.mark.parametrize("command", [
    ["verify-cocycle", "-k", "0", "-l", "1", "-m", "1", "-n", "2", "--samples", "1"],
    ["verify-action", "-k", "0", "-l", "1", "-m", "1", "-n", "2", "--samples", "1"],
    ["transitivity", "-k", "0", "-l", "1", "-m", "1", "-n", "2", "-r", "2", "--samples", "1"],
    ["nulie", "-k", "0", "-l", "1", "-m", "1", "-n", "2"],
])
def test_an_unwritable_out_file_is_a_usage_error(command, tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    with pytest.raises(SystemExit) as exc:
        main(command + ["--out", str(target)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert "cannot write --out" in captured.err and "Traceback" not in captured.err
    assert captured.out == "" and not target.exists()


@pytest.mark.parametrize("command, message", [
    (["atlas", "-k", "2", "-l", "1", "-m", "1", "-n", "2"],
     "need 0 <= k <= m and 0 <= l <= n, got 2|1(1|2)"),
    (["verify-action", "-k", "0", "-l", "1", "-m", "1", "-n", "2", "--samples", "0"],
     "--samples must be at least 1"),
    (["transitivity", "-k", "0", "-l", "1", "-m", "1", "-n", "2", "-r", "-1"],
     "-r must be non-negative"),
    (["verify-cocycle", "-k", "0", "-l", "1", "-m", "1", "-n", "2", "-r", "0"],
     "the cocycle suite needs -r >= 1"),
    (["verify-action", "-k", "0", "-l", "1", "-m", "1", "-n", "2", "-r", "0"],
     "the action suite needs -r >= 1"),
    # the Lambda_r product kernel has 3**r products, so -r is bounded before
    # any kernel is built
    (["verify-cocycle", "-k", "0", "-l", "1", "-m", "1", "-n", "2", "-r", "11"],
     "-r must be at most 10"),
    (["verify-action", "-k", "0", "-l", "1", "-m", "1", "-n", "2", "-r", "11"],
     "-r must be at most 10"),
    (["transitivity", "-k", "0", "-l", "1", "-m", "1", "-n", "2", "-r", "11"],
     "-r must be at most 10"),
    (["transition", "-k", "0", "-l", "1", "-m", "1", "-n", "2", "--from", "{1", "--to", "{}|{2}"],
     "bad chart index: expected I|R syntax, got '{1'"),
    (["transition", "-k", "0", "-l", "1", "-m", "1", "-n", "2", "--from", "{9}|{}",
      "--to", "{}|{2}"],
     "bad chart index: no chart {9}|{} in 0|1(1|2)"),
    # a base point is exact: a JSON float would be a binary fraction
    (["transitivity", "-k", "1", "-l", "0", "-m", "2", "-n", "0", "--base1", "[[0.1, 1]]",
      "--base2", "[]"],
     'bad base point: 0.1 is a JSON float; write it as a string such as "1/10"'),
    (["transitivity", "-k", "1", "-l", "1", "-m", "2", "-n", "2", "--base1", "[[1e400, 0]]",
      "--base2", "[[1, 0]]"],
     'bad base point: 1e400 is a JSON float; write it as a string such as "1/10"'),
    (["transitivity", "-k", "1", "-l", "1", "-m", "2", "-n", "2", "--base1", '[["1/0", 0]]',
      "--base2", "[[1, 0]]"],
     "bad base point: an entry has a zero denominator"),
    (["transitivity", "-k", "1", "-l", "1", "-m", "2", "-n", "2", "--base1", "[[0, 0]]",
      "--base2", "[[1, 0]]"],
     "bad base point: p1 is not of full row rank"),
    # a JSON boolean would otherwise be read as the number 1 or 0
    (["transitivity", "-k", "1", "-l", "1", "-m", "2", "-n", "2", "--samples", "1",
      "--base1", "[[true, 0]]", "--base2", "[[1, 0]]"],
     "bad base point: true is a JSON boolean, not a number"),
])
def test_usage_errors_exit_2_with_their_message(command, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(command)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.endswith(f"nugrass: error: {message}\n")
    assert captured.out == ""


def test_a_reader_that_closes_stdout_early_gets_exit_141():
    # 141 is what a shell reports for a writer that SIGPIPE killed; the
    # interpreter must not add a traceback or an "Exception ignored" line
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "nugrass.cli", "atlas", "-k", "0", "-l", "1", "-m", "1", "-n", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""


DIMS = [
    (("-k",), "k", None, True, None, int, None),
    (("-l",), "l", None, True, None, int, None),
    (("-m",), "m", None, True, None, int, None),
    (("-n",), "n", None, True, None, int, None),
]
HELP = [(("-h", "--help"), "help", "==SUPPRESS==", False, None, None,
         "show this help message and exit")]
FORMAT = [(("--format",), "format", "text", False, ("text", "json"), None, None)]
OUT = [(("--out",), "out", None, False, None, None, "write the JSON report here")]


def sampling(r):
    return [(("-r",), "r", r, False, None, int, "odd probe dimension"),
            (("--samples",), "samples", 100, False, None, int, None),
            (("--seed",), "seed", 0, False, None, int, None)]


# Every subcommand's help and options as the CLI has had them: (flags, dest,
# default, required, choices, type, help), compared in dest order.
SUBCOMMANDS = {
    "atlas": ("list charts, dimensions and labels", DIMS + HELP + FORMAT),
    "transition": ("print one symbolic pasting map", DIMS + HELP + FORMAT + [
        (("--from",), "src", None, True, None, None, 'source index, e.g. "{}|{1}"'),
        (("--to",), "dst", None, True, None, None, 'destination index, e.g. "{}|{2}"'),
    ]),
    "verify-cocycle": ("identity, pair and triple pasting checks",
                       DIMS + HELP + FORMAT + OUT + sampling(2) + [
        (("--audit-nu-triples",), "audit_nu_triples", 0, False, None, int,
         "additionally sample this many non-gating cycles through non-standard charts"),
    ]),
    "verify-action": ("gluing square and action axioms",
                      DIMS + HELP + FORMAT + OUT + sampling(2)),
    "transitivity": ("construct and post-check witnesses",
                     DIMS + HELP + FORMAT + OUT + sampling(4) + [
        (("--base1",), "base1", None, False, None, None, "JSON rows of the even base block"),
        (("--base2",), "base2", None, False, None, None, "JSON rows of the odd base block"),
    ]),
    "nulie": ("compute the nu-commutant subalgebra", DIMS + HELP + FORMAT + OUT),
}


def test_every_subcommand_keeps_its_options():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert {a.dest: a.help for a in sub._choices_actions} == {
        name: help_ for name, (help_, _) in SUBCOMMANDS.items()}
    for name, parser in sub.choices.items():
        got = [(tuple(a.option_strings), a.dest, a.default, a.required, a.choices, a.type, a.help)
               for a in sorted(parser._actions, key=lambda a: a.dest)]
        assert got == sorted(SUBCOMMANDS[name][1], key=lambda opt: opt[1]), name


# The commands whose routes build no chart-ring rational function, each
# with its row in test_pins; verify-cocycle reads its pair facts off
# FlatFraction maps (on 2|2(3|3) their denominators reach degree 7).  They
# run where any import of sympy fails.
SYMPY_FREE = [
    "atlas -k 1 -l 2 -m 2 -n 3",
    "verify-cocycle -k 0 -l 1 -m 1 -n 2 -r 1 --samples 5 --format json",
    "verify-cocycle -k 2 -l 2 -m 3 -n 3 --samples 2 --format json",
    "verify-action -k 0 -l 1 -m 1 -n 2 -r 2 --samples 5 --format json",
    "transitivity -k 1 -l 2 -m 2 -n 3 -r 3 --samples 4 --format json",
    "nulie -k 1 -l 2 -m 2 -n 3 --format json",
]


def _python(code: str, *args: str) -> str:
    """stdout of a fresh interpreter that imports nugrass from this tree."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_the_lambda_r_and_commutant_commands_run_without_sympy():
    code = ("import contextlib, hashlib, io, json, shlex, sys\n"
            "sys.modules['sympy'] = None  # every import of sympy now fails\n"
            "import nugrass\n"
            "from nugrass.cli import main\n"
            "out = {}\n"
            "for command in sys.argv[1:]:\n"
            "    text = io.StringIO()\n"
            "    with contextlib.redirect_stdout(text):\n"
            "        code = main(shlex.split(command))\n"
            "    out[command] = [code, hashlib.sha256(text.getvalue().encode()).hexdigest()]\n"
            "json.dump(out, sys.stdout)\n")
    got = json.loads(_python(code, *SYMPY_FREE))
    assert got == {command: [0, PINS[command].sha256] for command in SYMPY_FREE}


def test_import_leaves_sympy_out_until_a_chart_ring_map_is_built():
    # a pair's map, its identity verdict, its nu-audit verdict, its status,
    # a pullback along it and its evaluation at a point are FlatFraction
    # work; only the SuperFunction form of the map, read through the
    # tests' assignments, loads sympy
    code = ("import random, sys\n"
            f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
            "import nugrass\n"
            "from nugrass.atlas import _get_plan, apply_pullback\n"
            "from nugrass.superalgebra import FlatFraction\n"
            "before = 'sympy' in sys.modules\n"
            "a, b = nugrass.get_atlas(0, 1, 1, 2).charts[:2]\n"
            "t = nugrass.transition_symbolic(a, b)\n"
            "plan = _get_plan(a, b)\n"
            "back = apply_pullback(t, FlatFraction.gen(b.ctx, 'x1').inv())\n"
            "X = nugrass.sample_point(a, 2, random.Random(0))\n"
            "Y = nugrass.evaluate_transition(t, X)\n"
            "print(before, t.is_identity(), plan.nu_equivariant, plan.status,\n"
            "      back == FlatFraction.gen(a.ctx, 'x1'), Y == nugrass.point_transition(X, b),\n"
            "      'sympy' in sys.modules)\n"
            "from paper_reference import assignments\n"
            "x1 = assignments(t)['x1']\n"
            "print('sympy' in sys.modules, x1)\n")
    assert _python(code).split() == ["False", "False", "False", "ok", "True", "True", "False",
                                     "True", "(1)/(x1)"]


def test_maps_and_fields_bind_no_chart_ring_view():
    # a map's values and a field's terms are their one form: the modules
    # that hold them bind neither the chart-ring type nor its converter
    import nugrass.atlas
    import nugrass.nulie

    for module in (nugrass.atlas, nugrass.nulie):
        assert not {"SuperFunction", "from_flat"} & set(vars(module)), module.__name__


def test_transition_without_sympy_exits_3_naming_the_missing_module():
    # printing a map needs sympy; without it the command fails as an
    # error of the program (3), never as a failed identity (1)
    code = ("import contextlib, io, json, sys\n"
            "sys.modules['sympy'] = None  # every import of sympy now fails\n"
            "from nugrass.cli import main\n"
            "err = io.StringIO()\n"
            "with contextlib.redirect_stderr(err):\n"
            "    code = main(sys.argv[1:])\n"
            "print(json.dumps([code, err.getvalue().splitlines()]))\n")
    got, lines = json.loads(_python(code, "transition", "-k", "1", "-l", "2", "-m", "2",
                                    "-n", "3", "--from", "{1}|{1,2}", "--to", "{2}|{2,3}"))
    assert got == 3 and len(lines) == 1
    assert json.loads(lines[0])["error"] == "ModuleNotFoundError"
