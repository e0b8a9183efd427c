import json

import pytest

from nugrass.cli import main, parse_index


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
    import argparse

    from nugrass.cli import _emit
    from nugrass.reports import CheckResult, Report

    args = argparse.Namespace(out=None, format="text")
    healthy = Report(suite="demo", config={},
                     results=[CheckResult("a", "i", 3, 3, 0)])
    assert _emit(healthy, args) == 0
    broken = Report(suite="demo", config={},
                    results=[CheckResult("a", "i", 3, 1, 2)])
    assert _emit(broken, args) == 1
    capsys.readouterr()


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
