"""Command-line driver: parsing, exit codes, formats, determinism."""

import json
import subprocess
import sys

from uqsl2.cli import main
from uqsl2.report import CheckReport


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rejects_bad_n(capsys):
    code, out, err = run_main(["verify", "--suite", "all", "--n", "6"], capsys)
    assert code == 2
    assert "multiple of 4" in err


def test_rejects_bad_labels_and_families(capsys):
    # (argv, exit code): 2 for bad input; a malformed input must never
    # exit 1, the "statement failed" code
    table = [
        (["tensor", "badlabel", "simple:1,0"], 2),
        (["tensor", "simple:1", "simple:1,0"], 2),
        (["tensor", "simple:a,b", "simple:1,0"], 2),
        (["module", "W", "--i", "1", "--j", "0"], 2),
        (["module", "T", "--i", "2", "--j", "1", "--l", "1"], 2),
        (["module", "simple", "--i", "9", "--j", "0"], 2),
        (["module", "V", "--i", "1", "--j", "0", "--l", "-1"], 2),
        (["module", "T", "--i", "2", "--j", "1", "--l", "1", "--lambda", "0"], 2),
        (["verify", "--suite", "k0", "--n", "12"], 2),
        (["module", "V", "--i", "1", "--j", "0", "--l", "33"], 2),
    ]
    for argv, want in table:
        code, _, err = run_main(argv, capsys)
        assert code == want, (argv, code, err)


def test_size_bounds_are_checked_before_building(capsys, monkeypatch):
    # A context built past validation would raise here and exit 3, not 2.
    def refuse(n):
        raise AssertionError(f"AlgebraContext({n}) built")

    monkeypatch.setattr("uqsl2.cli.AlgebraContext", refuse)
    table = [
        (["verify", "--suite", "k0", "--n", "12"], "at most 8"),
        (["table", "k0", "--n", str(10**9)], "at most 8"),
        (["module", "V", "--i", "1", "--j", "0", "--l", "33"], "at most 32"),
        (["module", "T", "--i", "2", "--j", "1", "--l", str(10**9), "--lambda", "1"], "at most 32"),
    ]
    for argv, bound in table:
        code, out, err = run_main(argv, capsys)
        assert code == 2 and out == "", (argv, code, err)
        assert bound in err, (argv, err)


def test_removed_cache_flag_is_a_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "uqsl2.cli", "table", "k0", "--cache", "x"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "usage: uqsl2" in proc.stderr
    assert "unrecognized arguments: --cache x" in proc.stderr


def test_module_text_output(capsys):
    code, out, _ = run_main(["module", "simple", "--i", "8", "--j", "0"], capsys)
    assert code == 0
    assert "S(16,0): dim 1" in out
    code, out, _ = run_main(["module", "projective", "--i", "1", "--j", "0"], capsys)
    assert code == 0
    assert "P(2,0): dim 32" in out
    assert "socle: S(2,0) x1" in out


def test_module_json_output(capsys):
    code, out, _ = run_main(
        ["module", "T", "--i", "2", "--j", "1", "--l", "1", "--lambda", "1", "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 16
    assert payload["n"] == 4
    assert set(payload) >= {"label", "E", "F", "character", "top", "socle"}


def test_module_csv_lists_basis(capsys):
    code, out, _ = run_main(
        ["module", "simple", "--i", "7", "--j", "1", "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "index,k_exponent,khat_exponent,grade"
    assert len(lines) == 2 + 3


def test_tensor_unit_absorption(capsys):
    code, out, _ = run_main(["tensor", "projective:1,0", "simple:8,0"], capsys)
    assert code == 0
    assert "P(2,0) x1" in out


def test_tensor_one_dimensional_product(capsys):
    code, out, _ = run_main(
        ["tensor", "simple:8,1", "simple:8,1", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "decomposed"
    assert payload["summands"] == {"S(16,0)": 1}
    assert payload["dim"] == 1


def test_verify_failure_exit_code(capsys, monkeypatch):
    import uqsl2.cli as cli_mod

    monkeypatch.setattr(
        cli_mod, "suite_reports", lambda ctx, suite, seed, slow: [CheckReport("x", False, 1)]
    )
    code, out, _ = run_main(["verify", "--suite", "axioms"], capsys)
    assert code == 1
    assert "FAIL" in out


def test_verify_lemmas_suite(capsys):
    code, out, err = run_main(["verify", "--suite", "lemmas", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    assert payload["seed"] == 0
    assert len(payload["checks"]) == 6
    assert all("wall_time" not in c for c in payload["checks"])
    assert "[time]" in err


def test_table_csv_header(capsys):
    code, out, _ = run_main(["table", "cg-ss"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# uqsl2 ")
    assert "table=cg-ss" in lines[0] and "n=4" in lines[0] and "seed=0" in lines[0]
    assert lines[1] == "left,right,summand,multiplicity"


def test_table_output_file(tmp_path, capsys):
    out_path = tmp_path / "k0.csv"
    code, out, _ = run_main(["table", "k0", "--out", str(out_path)], capsys)
    assert code == 0
    assert out == ""
    lines = out_path.read_text().splitlines()
    assert lines[1] == "left,right,class,coefficient"
    assert len(lines) == 2 + 1200


def test_table_unwritable_path_is_io_error(capsys):
    code, _, err = run_main(
        ["table", "cg-ps", "--out", "/nonexistent-dir/t.csv"], capsys
    )
    assert code == 3
    assert "i/o error" in err


def test_table_json_shape(capsys):
    code, out, _ = run_main(["table", "cg-ps", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["table"] == "cg-ps"
    assert payload["rows"][0]["left"] == "P(2,0)"


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "uqsl2.cli", "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("uqsl2 ")
