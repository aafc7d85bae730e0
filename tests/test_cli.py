import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twistparity
from twistparity.cli import main
from twistparity.errors import ZeroTwistParameter
from twistparity.experiments import SCAN_GENERATOR_GUARD, report_from_json

from .conftest import run_cli_limited


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_classify_11a1(capsys):
    rc, out, _ = run(capsys, "classify", "--field", "Q", "--curve", "[0,-1,1,-10,-20]")
    assert rc == 0
    assert "split_mult" in out and "-1/2" in out
    assert "kappa = 0" in out
    assert "rank parity even" in out


def test_classify_good_everywhere(capsys):
    rc, out, _ = run(capsys, "classify", "--field", "Q", "--curve", "[-1,1]")
    # y^2 = x^3 - x + 1: disc = -368 = -16*23 ... has bad places; use a good-everywhere
    # curve instead: minimal disc of [0,0,1,-1,0] is 37 -> bad at 37. There is no
    # curve over Q with everywhere-good reduction, so just check the run succeeded.
    assert rc in (0, 3)


def test_classify_unsupported_names_place(capsys):
    rc, out, err = run(capsys, "classify", "--field", "Q", "--curve", "[0,1]")
    assert rc == 3
    assert "(2)" in out or "(3)" in out


def test_classify_assume_principal(capsys):
    rc, out, _ = run(capsys, "classify", "--field", "Q", "--curve", "[0,1]",
                     "--assume-principal-series")
    assert rc == 0


def test_predict_rational(capsys):
    rc, out, _ = run(capsys, "predict", "--field", "Q", "--curve", "[0,-1,1,-10,-20]")
    assert rc == 0
    assert "predicted even density: 1/2" in out


def test_predict_gaussian(capsys):
    rc, out, _ = run(capsys, "predict", "--field", "Q(sqrt -1)", "--curve", "[0,-1,1,0,0]")
    assert rc == 0
    assert "predicted even density: 1/4" in out
    assert "kappa = -1/2" in out


def test_python_m_runs_the_cli(capsys):
    # `python -m twistparity` runs cli.main: the same output and exit code
    argv = ["predict", "--field", "Q(sqrt -1)", "--curve", "[0,-1,1,0,0]"]
    rc, out, err = run(capsys, *argv)
    assert rc == 0 and "predicted even density: 1/4" in out
    proc, _ = run_cli_limited(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (rc, out, err)


def test_cli_import_leaves_out_unused_modules():
    # a cold start pays for every module it imports. -S, because a site .pth
    # file may import typing before the package does
    src = str(Path(twistparity.__file__).resolve().parent.parent)
    code = ("import sys, twistparity.cli; print([m for m in ('dataclasses', 'inspect', 'typing', "
            "'cmath', 'json') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout == "[]\n"


def test_predict_parity_override(capsys):
    rc, out, _ = run(capsys, "predict", "--field", "Q(sqrt -1)", "--curve",
                     "[0,-1,1,0,0]", "--parity", "odd")
    assert rc == 0
    assert "predicted even density: 3/4" in out


def test_predict_unavailable_parity(capsys):
    rc, out, err = run(capsys, "predict", "--field", "Q", "--curve", "[0,1]")
    assert rc == 3


def test_scan_writes_json(tmp_path, capsys):
    path = tmp_path / "scan.json"
    rc, out, _ = run(capsys, "scan", "--field", "Q", "--curve", "[0,-1,1,-10,-20]",
                     "--x", "500", "--out", str(path), "--format", "json")
    assert rc == 0
    assert "PASS" in out
    rep = report_from_json(path.read_text())
    assert rep.X == 500 and float(rep.fraction) == 0.5


def test_scan_csv(tmp_path, capsys):
    path = tmp_path / "scan.csv"
    rc, out, _ = run(capsys, "scan", "--field", "Q(sqrt -1)", "--curve", "[0,-1,1,0,0]",
                     "--x", "200", "--out", str(path), "--format", "csv")
    assert rc == 0
    head = path.read_text().split("\n")[0]
    assert head == "X_bucket,total,even,fraction_num,fraction_den,predicted_num,predicted_den"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_scan_format_without_out_is_input_error(capsys, fmt):
    # the report is only ever written to --out, so --format alone would be ignored
    rc, out, err = run(capsys, "scan", "--field", "Q", "--curve", "[0,-1,1,-10,-20]",
                       "--x", "12", "--format", fmt)
    assert rc == 2 and out == ""
    assert err.startswith("input error:") and "--format" in err and "--out" in err


@pytest.mark.parametrize("target", ["missing/r.json", "."])
def test_scan_unwritable_out_is_input_error(tmp_path, capsys, target):
    # a missing directory (FileNotFoundError) or a directory (IsADirectoryError)
    out_path = str(tmp_path / target)
    rc, out, err = run(capsys, "scan", "--field", "Q", "--curve", "[0,-1,1,-10,-20]",
                       "--x", "40", "--out", out_path)
    assert rc == 2 and "wrote" not in out
    assert err.startswith(f"input error: cannot write report to {out_path}:"), err


def test_scan_report_with_thousands_of_digits(tmp_path, capsys):
    # |C(Q, 2*10^5)| = 2^17985 (-1 and 17984 primes) has 5415 decimal digits,
    # past the interpreter's default int-string limit
    path = tmp_path / "scan.json"
    rc, out, err = run(capsys, "scan", "--field", "Q", "--curve", "[0,-1,1,-10,-20]",
                       "--x", "200000", "--out", str(path))
    assert rc == 0, err
    assert report_from_json(path.read_text()).total == 2 ** 17985


def test_scan_below_convergence_fails_tolerance(tmp_path, capsys):
    # the place above 11 is inert in Q(i) (norm 121): below X = 121 no character
    # ramifies there and the even fraction sits at 1/2, far from the limit 1/4
    rc, out, _ = run(capsys, "scan", "--field", "Q(sqrt -1)", "--curve", "[0,-1,1,0,0]",
                     "--x", "50")
    assert rc == 1
    assert "FAIL" in out


def test_verify_clean(capsys):
    rc, out, _ = run(capsys, "verify", "--field", "Q", "--curve", "[0,-1,1,-10,-20]",
                     "--x", "40")
    assert rc == 0
    assert "PASS: 0 mismatches" in out


def test_verify_mismatches_fail(capsys, monkeypatch):
    # a flipped table row: verify lists the first 20 mismatches and fails
    from twistparity.parity import TABLE_SIGN_HOOKS

    monkeypatch.setitem(TABLE_SIGN_HOOKS, 6, -1)
    rc, out, _ = run(capsys, "verify", "--curve", "[0,-1,1,-10,-20]", "--x", "20")
    assert rc == 1
    lines = out.splitlines()
    assert lines[0] == "tested 26 twists, 0 skipped as unsupported"
    assert len(lines) == 22 and lines[-1] == "FAIL: 24 mismatches"
    assert all(line.startswith("MISMATCH delta=") for line in lines[1:-1])
    assert lines[1] == "MISMATCH delta=1: table path -1, reduction path +1"


def test_verify_unsupported_curve_names_the_place(capsys):
    # the root number of the base curve is not certifiable at 3: exit 3
    # before any twist is tested
    rc, out, err = run(capsys, "verify", "--curve", "[0,0,1,0,-7]", "--x", "10")
    assert rc == 3 and out == ""
    assert err.startswith("unsupported curve: ") and "(3)" in err


def test_lemmas(capsys):
    rc, out, _ = run(capsys, "lemmas", "--seed", "1", "--trials", "25", "--x", "17")
    assert rc == 0
    assert "256/256" in out
    assert "all pass" in out


def test_lemmas_zero_trials_warns(capsys):
    rc, out, _ = run(capsys, "lemmas", "--trials", "0", "--x", "17")
    assert rc == 0
    assert "WARNING" in out


def test_lemmas_deterministic(capsys):
    rc1, out1, _ = run(capsys, "lemmas", "--seed", "9", "--trials", "10", "--x", "17")
    rc2, out2, _ = run(capsys, "lemmas", "--seed", "9", "--trials", "10", "--x", "17")
    assert (rc1, out1) == (rc2, out2)


def test_input_error_exit_codes(capsys):
    rc, _, err = run(capsys, "predict", "--field", "Q(sqrt 10)", "--curve", "[1,0]")
    assert rc == 2
    rc, _, err = run(capsys, "predict", "--field", "Q", "--curve", "[oops")
    assert rc == 2
    # an empty entry is not dropped: 11a1 with a blank in it is not 11a1
    for literal in ("[0,-1,1,,-10,-20]", "[1,2,]", "[,-10,-20]", "[,5]", "[]"):
        rc, out, err = run(capsys, "predict", "--field", "Q", "--curve", literal)
        assert rc == 2 and out == "" and err.startswith("input error: "), literal


@pytest.mark.parametrize("argv", [
    ("classify", "--curve", "[0,-1,1,-10," + "7" * 5000 + "]"),
    ("classify", "--field", "Q(sqrt " + "7" * 5000 + ")", "--curve", "[0,-1,1,-10,-20]"),
])
def test_over_long_literal_is_input_error(capsys, argv):
    # past the interpreter's int-string digit limit: a malformed literal, not a bug
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.startswith("input error: cannot parse ") and err.count("\n") == 1


@pytest.mark.parametrize("unbuffered", [None, "1"])
def test_unwritable_stdout_is_an_output_error(monkeypatch, unbuffered):
    # a closed pipe and a full device: exit 2 with the system's message, once.
    # Buffered, the write fails at main's flush and the bytes stay buffered for
    # the interpreter's flush at exit; unbuffered, the command's first print fails
    if unbuffered is None:
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    else:
        monkeypatch.setenv("PYTHONUNBUFFERED", unbuffered)
    argv = ("classify", "--curve", "[0,-1,1,-10,-20]")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc, _ = run_cli_limited(*argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (2, "output error: Broken pipe\n")
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    with open("/dev/full", "w") as full:
        proc, _ = run_cli_limited(*argv, stdout=full)
    assert (proc.returncode, proc.stderr) == (2, "output error: No space left on device\n")


@pytest.mark.parametrize("argv", [
    ("classify",), ("scan", "--x", "50"), ("verify", "--x", "10"),
])
def test_large_real_field_runs_in_seconds(argv):
    # Q(sqrt 100000007): a unit of 11 058 bits and a discriminant of 10^8;
    # the residue table and the continued fraction stalled scan and verify
    proc, cpu_s = run_cli_limited(*argv, "--field", "Q(sqrt 100000007)",
                                  "--curve", "[0,-1,1,-10,-20]")
    assert proc.returncode == 0, proc.stderr
    assert cpu_s < 5


@pytest.mark.parametrize("argv", [
    ("verify", "--field", "Q", "--curve", "[0,-1,1,-10,-20]", "--x", "0"),
    ("scan", "--field", "Q", "--curve", "[0,-1,1,-10,-20]", "--x", "-5"),
    ("lemmas", "--trials", "-1"),
    ("lemmas", "--x", "0"),
    ("verify", "--field", "Q", "--curve", "[0,-1,1,-10,-20]", "--x", "ten"),
    ("scan", "--field", "Q", "--curve", "[0,-1,1,-10,-20]", "--x", "12", "--tolerance", "-1"),
    ("scan", "--field", "Q", "--curve", "[0,-1,1,-10,-20]", "--x", "12", "--tolerance", "nan"),
])
def test_out_of_range_flags_exit_2(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and "PASS" not in out
    assert "must be >=" in err or "invalid int value" in err


@pytest.mark.parametrize("argv", [
    ("lemmas", "--x", "100"),
    ("verify", "--field", "Q(sqrt -1)", "--curve", "[0,-1,1,0,0]", "--x", "100"),
])
def test_enumeration_guard_is_input_error(capsys, argv):
    # 2^26 characters of norm <= 100 would be listed: too large an --x, not a math failure
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and "PASS" not in out
    assert err.startswith("input error: enumeration of size")


def test_zero_denominator_is_input_error(capsys):
    rc, _, err = run(capsys, "predict", "--field", "Q", "--curve", "[1/0,1]")
    assert rc == 2
    assert err.startswith("input error: cannot parse element '1/0'")


def test_singular_curve_is_input_error(capsys):
    rc, _, err = run(capsys, "predict", "--field", "Q", "--curve", "[0,0]")
    assert rc == 2
    assert err.startswith("input error: discriminant 0")


def test_factoring_budget_is_input_error(capsys, monkeypatch):
    import twistparity.arith as arith

    # disc = -432 (p q)^2 with p, q prime near 10^39 and 3 * 10^39: past any
    # feasible rho budget; a smaller one only makes the test quick
    monkeypatch.setattr(arith, "FACTOR_BUDGET", 10 ** 4)
    pq = 1000000000000000000000000000000000000003 * 3000000000000000000000000000000000000037
    rc, _, err = run(capsys, "predict", "--field", "Q", "--curve", f"[0,{pq}]")
    assert rc == 2
    assert err.startswith("input error: factoring a")


@pytest.mark.parametrize("exc,code,prefix", [
    (ZeroTwistParameter("delta = 0"), 2, "input error: delta = 0"),
    (ValueError("bad value"), 4, "internal error: ValueError: bad value"),
    (ZeroDivisionError("x / 0"), 4, "internal error: ZeroDivisionError"),
    (KeyError("missing"), 4, "internal error: KeyError"),
])
def test_exit_code_by_exception(capsys, monkeypatch, exc, code, prefix):
    import twistparity.cli as cli

    def broken(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_predict", broken)
    rc, _, err = run(capsys, "predict", "--field", "Q", "--curve", "[0,-1,1,-10,-20]")
    assert rc == code
    assert err.startswith(prefix)


def test_internal_error_exit_code(capsys, monkeypatch):
    import twistparity.cli as cli
    from twistparity.errors import InternalInvariantError

    def broken(args):
        raise InternalInvariantError("broken invariant")

    monkeypatch.setattr(cli, "cmd_predict", broken)
    rc, _, err = run(capsys, "predict", "--field", "Q", "--curve", "[0,-1,1,-10,-20]")
    assert rc == cli.EXIT_INTERNAL == 4
    assert err.startswith("internal error: broken invariant")


# every exception class of the package, by the exit code main() reports it with:
# 2 input error, 3 unsupported curve, 4 internal error (a fault of the package)
EXIT_BY_ERROR = {
    "Malformed": 2, "NotSquarefree": 2, "ClassNumberNotOne": 2, "SingularCurve": 2,
    "ZeroTwistParameter": 2, "FactorizationBudgetExceeded": 2, "ExplosionGuard": 2,
    "UnsupportedRepresentation": 3, "ParityUnavailable": 3,
    "InternalInvariantError": 4, "ZeroElement": 4, "WrongRepClass": 4, "TwistParityError": 4,
}
ERROR_ARGS = {"ClassNumberNotOne": (10, 2), "FactorizationBudgetExceeded": (10 ** 40, 100),
              "ExplosionGuard": (2 ** 26, 2 ** 20), "UnsupportedRepresentation": ()}


@pytest.mark.parametrize("name", sorted(EXIT_BY_ERROR))
def test_exit_code_of_every_package_error(capsys, monkeypatch, name):
    import twistparity.cli as cli
    import twistparity.errors as errors

    classes = {k for k, c in vars(errors).items() if isinstance(c, type) and issubclass(c, Exception)}
    assert classes == EXIT_BY_ERROR.keys()

    def broken(args):
        raise getattr(errors, name)(*ERROR_ARGS.get(name, ("detail",)))

    monkeypatch.setattr(cli, "cmd_predict", broken)
    rc, out, err = run(capsys, "predict", "--field", "Q", "--curve", "[0,-1,1,-10,-20]")
    assert rc == EXIT_BY_ERROR[name]
    assert out == ""
    prefix = {2: "input error: ", 3: "unsupported curve: ", 4: "internal error: "}[rc]
    assert err.startswith(prefix) and err.count("\n") == 1


@pytest.mark.parametrize("field,curve,x", [
    ("Q(sqrt -1)", "[0,-1,1,0,0]", "10000000000000"),
    ("Q", "[0,-1,1,-10,-20]", "100000000000000000000"),
])
def test_verify_refuses_a_huge_bound_before_it_allocates(field, curve, x):
    # C(K, X) and the squarefree family check ENUMERATION_GUARD before they
    # sieve to X, so under a 3 GB address-space cap these exit 2 at once
    proc, cpu_s = run_cli_limited("verify", "--field", field, "--curve", curve, "--x", x)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("input error: enumeration of size ")
    assert "SystemError" not in proc.stderr and proc.stdout == ""
    assert cpu_s < 1


@pytest.mark.parametrize("field,curve", [("Q", "[0,-1,1,-10,-20]"), ("Q(sqrt -1)", "[0,-1,1,0,0]")])
def test_scan_refuses_a_huge_x_before_it_sieves(field, curve):
    # 2 X bounds the generator count; past SCAN_GENERATOR_GUARD the scan exits 2
    # before place_norms_up_to sieves to X, where 10^8 still passes
    assert 2 * 10 ** 8 <= SCAN_GENERATOR_GUARD < 2 * 10 ** 13
    proc, cpu_s = run_cli_limited("scan", "--field", field, "--curve", curve,
                                  "--x", "10000000000000")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("input error: enumeration of size ")
    assert proc.stdout == ""
    assert cpu_s < 1


def test_unknown_flag_is_error(capsys):
    rc, _, _ = run(capsys, "scan", "--field", "Q", "--curve", "[1,0]", "--bogus")
    assert rc == 2
    # scans and verify run in one process and take no worker count
    rc, _, _ = run(capsys, "scan", "--field", "Q", "--curve", "[0,-1,1,-10,-20]",
                   "--x", "10", "--workers", "2")
    assert rc == 2
    rc, out, err = run(capsys, "verify", "--field", "Q", "--curve", "[0,-1,1,-10,-20]",
                       "--x", "10", "--workers", "2")
    assert rc == 2 and "PASS" not in out
    assert "unrecognized arguments: --workers 2" in err
    # verify skips unsupported twists and has no use for the principal-series flag
    rc, out, _ = run(capsys, "verify", "--field", "Q", "--curve", "[0,-1,1,-10,-20]",
                     "--x", "20", "--assume-principal-series")
    assert rc == 2 and "PASS" not in out


def test_every_flag_is_read():
    # a flag that its command never reads is parsed and then ignored
    import argparse
    import inspect

    import twistparity.cli as cli

    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for name, parser in sub.choices.items():
        source = inspect.getsource(getattr(cli, f"cmd_{name}")) + inspect.getsource(cli._load)
        for action in parser._actions:
            if action.dest != "help":
                assert f"args.{action.dest}" in source, (name, action.option_strings)


def test_help_lists_flags(capsys):
    rc = main(["scan", "--help"])
    assert rc == 0
    out = capsys.readouterr().out
    for flag in ("--field", "--curve", "--x", "--out", "--format", "--parity",
                 "--assume-principal-series"):
        assert flag in out
    rc = main(["lemmas", "--help"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "--seed" in out and "--trials" in out
