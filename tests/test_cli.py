"""Command-line driver: parsing, exit codes, formats, determinism."""

import hashlib
import json
import subprocess
import sys

import pytest

from uqsl2.cli import main
from uqsl2.report import CheckReport


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rejects_bad_n(capsys):
    code, out, err = run_main(["verify", "--suite", "all", "--n", "6"], capsys)
    assert code == 2
    assert "power of two from 4 to 8" in err


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


def test_label_parts_and_integer_flags_are_ascii_integers(capsys):
    # int() alone would read "0_3", "+3" and " 3" as 3, and the Devanagari
    # digit one as 1
    lax = ("0_3", "+3", " 3", "\u0967")
    for part in lax:
        code, out, err = run_main(["tensor", f"simple:{part},0", "simple:1,0"], capsys)
        assert (code, out) == (2, ""), (part, code, err)
        assert "non-integer parts" in err, part
    code, out, err = run_main(["tensor", "simple:-1,0", "simple:1,0"], capsys)
    assert (code, out) == (2, "") and "outside 1..8" in err, err
    for part in lax:
        with pytest.raises(SystemExit) as exc:
            main(["module", "simple", "--i", part, "--j", "0"])
        assert exc.value.code == 2, part
        assert "invalid integer value" in capsys.readouterr().err, part


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


def test_removed_cache_flag_is_a_usage_error(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "uqsl2.cli", "table", "k0", "--cache", "x"],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "usage: uqsl2" in proc.stderr
    assert "unrecognized arguments: --cache x" in proc.stderr


def test_flags_a_command_ignores_are_usage_errors(capsys):
    """--seed belongs to verify, which echoes it in its output; every other
    command refuses it, `table` too.  No command takes --slow: the regular
    module's decomposition has one mode."""
    for argv in (
        ["module", "simple", "--i", "1", "--j", "0", "--slow"],
        ["tensor", "simple:1,0", "simple:1,0", "--seed", "1"],
        ["module", "simple", "--i", "1", "--j", "0", "--seed", "1"],
        ["tensor", "simple:1,0", "simple:1,0", "--slow"],
        ["table", "k0", "--slow"],
        ["table", "k0", "--seed", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2, argv
        assert captured.out == "" and "unrecognized arguments" in captured.err, argv


def test_verify_has_no_slow_flag(capsys):
    """The regular-module decomposition is decided in one mode, so verify
    refuses --slow as a usage error and prints nothing on stdout."""
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "lemmas", "--slow"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "unrecognized arguments: --slow" in captured.err


def test_parameters_a_family_ignores_are_usage_errors(capsys):
    """--l goes only to the strand families and --lambda only to T, on
    `module` and on `tensor` alike; any other family refuses them."""
    for argv, why in (
        (["module", "simple", "--i", "2", "--j", "0", "--l", "3"], "does not take --l"),
        (["module", "V", "--i", "2", "--j", "0", "--l", "1", "--lambda", "3"],
         "does not take --lambda"),
        (["tensor", "simple:2,0", "simple:2,0", "--lambda", "3"], "only with a family T"),
        (["tensor", "T:2,0,1", "simple:2,0"], "family T needs --lambda"),
    ):
        code, out, err = run_main(argv, capsys)
        assert (code, out) == (2, ""), argv
        assert why in err, argv


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
        cli_mod, "suite_reports", lambda ctx, suite: [CheckReport("x", False, 1)]
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
    assert lines[0].endswith(" table=cg-ss n=4")
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


def test_missing_out_directory_is_refused_before_the_command_runs(capsys, monkeypatch):
    import uqsl2.cli as cli_mod

    ran = []
    monkeypatch.setitem(cli_mod.COMMANDS, "verify", lambda args: ran.append(args) or (0, ""))
    code, out, err = run_main(
        ["verify", "--suite", "axioms", "--out", "/nonexistent-dir/x.json"], capsys
    )
    assert (code, out, ran) == (3, "", [])
    # the line that opening the file would give
    assert err == "i/o error: [Errno 2] No such file or directory: '/nonexistent-dir/x.json'\n"


def test_out_naming_a_directory_is_refused_before_the_command_runs(tmp_path, capsys,
                                                                    monkeypatch):
    import uqsl2.cli as cli_mod

    ran = []
    monkeypatch.setitem(cli_mod.COMMANDS, "table", lambda args: ran.append(args) or (0, ""))
    code, out, err = run_main(["table", "k0", "--out", str(tmp_path)], capsys)
    assert (code, out, ran) == (3, "", [])
    # the line that opening the directory would give
    assert err == f"i/o error: [Errno 21] Is a directory: '{tmp_path}'\n"


def test_unwritable_out_directory_is_refused_before_the_command_runs(tmp_path, capsys,
                                                                     monkeypatch):
    """A directory without write permission is refused as `open` would
    refuse it.  A root process passes every permission check, so
    `os.access` is stubbed to answer as it would for another user."""
    import uqsl2.cli as cli_mod

    ran = []
    monkeypatch.setitem(cli_mod.COMMANDS, "table", lambda args: ran.append(args) or (0, ""))
    monkeypatch.setattr(cli_mod.os, "access", lambda path, mode: False)
    target = tmp_path / "k0.csv"
    code, out, err = run_main(["table", "k0", "--out", str(target)], capsys)
    assert (code, out, ran) == (3, "", [])
    assert err == f"i/o error: [Errno 13] Permission denied: '{target}'\n"
    # an existing file that may be written is enough, as it is for `open`
    target.write_text("")
    monkeypatch.setattr(cli_mod.os, "access", lambda path, mode: path == str(target))
    code, out, err = run_main(["table", "k0", "--out", str(target)], capsys)
    assert (code, out, err, len(ran)) == (0, "", "", 1)


def test_table_json_shape(capsys):
    code, out, _ = run_main(["table", "cg-ps", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["table"] == "cg-ps"
    assert payload["rows"][0]["left"] == "P(2,0)"


def test_console_script_entry(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "uqsl2.cli", "--version"],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("uqsl2 ")


# sha256 of stdout for commands whose output must not drift when the
# engine is refactored: the three tables, one module of every family,
# tensor products that exercise the decomposition engine, and the axioms
# suite.
GOLDEN_STDOUT = {
    ("table", "cg-ss"): "634ea0068834e6375a56619146b746c4b6fbf1d860b12092e67e8f5699ce889d",
    ("table", "cg-ps"): "e4b41bad6631b1e578a1709d984b721ffbfe3f68d28678844151e08c071a6539",
    ("table", "k0"): "23c95e70463d9d1c13a15fa65e2e4f856b472d6006f188595ee8d42c284e9c64",
    ("module", "simple", "--i", "3", "--j", "1", "--format", "json"):
        "1ed4b323b1b0aeddd521f03759f6fda67b407d0ae414fde6ca5691f085dfa3b7",
    ("module", "projective", "--i", "3", "--j", "1", "--format", "json"):
        "3a27664b6097567c1a9b399a5b485fcd086bdb27cf7ed35888bae89ab8d86d3a",
    ("module", "verma", "--i", "3", "--j", "1", "--format", "json"):
        "3825a3b0ac338d87ac106448a309feb109bf06dfc5fe27788c9b3f3d0dba27ee",
    ("module", "V", "--i", "3", "--j", "1", "--l", "2", "--format", "json"):
        "c9a083231144e4c1096e968b86a40000c535980c3473ec719bb97860d269217e",
    ("module", "Vt", "--i", "3", "--j", "1", "--l", "2", "--format", "json"):
        "3e6dcb8f5a8ca2142775e7ea671e45a1c1b3ea21557ea5b80ef6c3f59ca6fbc3",
    ("module", "W", "--i", "3", "--j", "1", "--l", "2", "--format", "json"):
        "3434fd4b433e918c7d89290be7b2690d1aa75cd229a2cac6790b1d938b94232d",
    ("module", "Wt", "--i", "3", "--j", "1", "--l", "2", "--format", "json"):
        "70db7cc32d761e92070962d5b498acd8c4db0fc982c6e896456ca5e7179e6a22",
    ("module", "T", "--i", "3", "--j", "1", "--l", "2", "--lambda", "2", "--format", "json"):
        "b9de94b897b5bf205df7daf3c55d7be61aa092257822efd15f99df3ba9b1889a",
    ("tensor", "simple:1,0", "simple:1,0", "--format", "json"):
        "861e40cd60e2f4901e3b2fedc67a0cd51b08be506d4a22a5144cafb6b1f3db72",
    ("tensor", "W:1,0,2", "simple:1,0", "--format", "json"):
        "abeec408e788afbdb348249bbe925bca95b636d352f7789f0b9d150f2bb55af1",
    ("tensor", "projective:3,1", "simple:7,0", "--format", "json"):
        "536552be6f65f02a186c5c1c82ce2811c313da9ded01c00ca78c145267c1ea27",
    ("verify", "--suite", "axioms"):
        "5663e503fc8ca3cd9525710df449ec6329dd16837048db4079f34d3b9d0bf3fd",
}


def test_golden_stdout(capsys):
    drifted = []
    for argv, digest in GOLDEN_STDOUT.items():
        code, out, err = run_main(list(argv), capsys)
        assert code == 0, (argv, err)
        if hashlib.sha256(out.encode()).hexdigest() != digest:
            drifted.append(" ".join(argv))
    assert not drifted, drifted


# sha256 of stdout for the views GOLDEN_STDOUT leaves out, so that every
# command is pinned in every format it offers: the k0 suite in all three,
# the text and CSV views of a module and of two tensor products (one
# decomposed, one a hypothesis violation), and the JSON view of the tables.
GOLDEN_VIEWS = {
    ("verify", "--suite", "k0", "--format", "text"):
        "4dd843e579df343f21f940d4cd969c7285bba1417a18faa85bf21ceddad95eda",
    ("verify", "--suite", "k0", "--format", "json"):
        "80afaad6131a326b59b4406cc6e3a3f2bbc72c37ab03f9e7590148305bbad850",
    ("verify", "--suite", "k0", "--format", "csv"):
        "b5b0dc9ae015596c6a889a105289fb5ec085ec0dba9144b5a8ed8a3895b3e340",
    ("module", "V", "--i", "3", "--j", "1", "--l", "2", "--format", "text"):
        "2259b899571c427f66caf5757ddd504a37cfb69e500c4042cb84926ba77071d2",
    ("module", "V", "--i", "3", "--j", "1", "--l", "2", "--format", "csv"):
        "a10711f141e3754f3e7e0ab491e98103a0287d8804f619873fa913832e2917d7",
    ("tensor", "simple:1,0", "simple:1,0", "--format", "text"):
        "8aa853ff0c0279d84c44f3dce062d2797ed50c90774b976d78226ccb1fef9dde",
    ("tensor", "simple:1,0", "simple:1,0", "--format", "csv"):
        "2d3fa295192a4ed2a9ccb9b3a2faea02f255676023f123cf77753799f47ef67f",
    ("tensor", "W:1,0,2", "simple:1,0", "--format", "text"):
        "187c219b72ff8fd18ad14bd1d34d6503d6bbc52597a210af093a8900630a75b3",
    ("tensor", "W:1,0,2", "simple:1,0", "--format", "csv"):
        "7ca9bf2cd7772ecb46eddc2e9ecd89b977cce55afa7f375ac33addd219c0bc94",
    ("table", "cg-ss", "--format", "json"):
        "c01a5343383a27ac7510863e8d10dd2656e7a2191501a41eacff1bbe25c38c0a",
    ("table", "cg-ps", "--format", "json"):
        "cba288b1a8bbf38b527b2e05d6991a349bfe7d6b39a65d6716cf47fd98fcc475",
    ("table", "k0", "--format", "json"):
        "45970251e66f7cc3b9378db8bcaeec13a1f0dde114c570d3550a256667c8f7c2",
}


def test_golden_views(capsys):
    drifted = []
    for argv, digest in GOLDEN_VIEWS.items():
        code, out, err = run_main(list(argv), capsys)
        assert code == 0, (argv, err)
        if hashlib.sha256(out.encode()).hexdigest() != digest:
            drifted.append(" ".join(argv))
    assert not drifted, drifted
