"""The command line interface: exit codes, output shapes, determinism."""

import subprocess
import sys

import pytest

from flowcheck.cli import build_parser, main


def run_cli(args, capsys):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_clean_model_exits_zero(shop_path, geo_constraints_path, capsys):
    code, out, err = run_cli(
        ["analyze", shop_path, "--constraints", geo_constraints_path], capsys)
    assert code == 0
    assert out.splitlines() == ["TOTAL 0 violations"]
    assert err == ""


def test_analyze_violations_exit_one(shop_no_encrypt_path, geo_constraints_path, capsys):
    code, out, err = run_cli(
        ["analyze", shop_no_encrypt_path, "--constraints", geo_constraints_path],
        capsys)
    assert code == 1
    assert out.splitlines() == [
        "CONSTRAINT geo SEQ 0 ELEM 4 NODE act.db.log VARS payload,stored",
        "CONSTRAINT geo SEQ 0 ELEM 5 NODE act.db.ret VARS payload,stored",
        "TOTAL 2 violations",
    ]


def test_analyze_without_constraints_reports_zero(shop_path, capsys):
    code, out, _ = run_cli(["analyze", shop_path], capsys)
    assert code == 0
    assert out.splitlines() == ["TOTAL 0 violations"]


def test_analyze_missing_model_exits_two(capsys):
    code, out, err = run_cli(["analyze", "/no/such.json"], capsys)
    assert code == 2
    assert out == ""
    assert "cannot read model file '/no/such.json'" in err
    assert err.rstrip().endswith("error: cannot load model '/no/such.json'")


def test_analyze_bad_constraints_file_exits_two(shop_path, capsys):
    code, _, err = run_cli(
        ["analyze", shop_path, "--constraints", "/no/such.constraints"], capsys)
    assert code == 2
    assert err.startswith("error: cannot read constraints file")


def test_analyze_reruns_are_identical(shop_no_encrypt_path, geo_constraints_path, capsys):
    args = ["analyze", shop_no_encrypt_path, "--constraints", geo_constraints_path]
    first = run_cli(args, capsys)
    second = run_cli(args, capsys)
    assert first == second


def test_analyze_timing_goes_to_stderr(shop_path, geo_constraints_path, capsys):
    code, out, err = run_cli(
        ["analyze", shop_path, "--constraints", geo_constraints_path, "--timing"], capsys)
    assert code == 0
    assert out.splitlines() == ["TOTAL 0 violations"]
    lines = err.splitlines()
    stages = ["load", "constraints", "extract", "propagate", "query", "report"]
    assert [line.split()[0] for line in lines] == stages + ["elapsed"]
    times = []
    for line in lines:
        _, ms, unit = line.split()
        assert unit == "ms"
        times.append(float(ms))
    # the stages cover the whole run; each printed time is rounded to 0.1 ms
    assert abs(sum(times[:-1]) - times[-1]) <= 0.05 * len(lines) + 1e-9


def test_analyze_dump_propagation(shop_path, capsys):
    code, out, _ = run_cli(["analyze", shop_path, "--dump-propagation"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "SEQUENCE 0"
    assert lines[1] == "ELEM 0 UserStart purchase NODE ServerLocation.EU"
    assert "VAR payload DataSensitivity.Personal,Encryption.Encrypted" in lines
    assert lines[-1] == "TOTAL 0 violations"


def test_sequences_output(shop_path, capsys):
    code, out, _ = run_cli(["sequences", shop_path], capsys)
    assert code == 0
    assert out.splitlines() == [
        "SEQUENCE 0",
        "0 UserStart purchase",
        "1 UserVariableNode u.data",
        "2 CallingUserNode u.buy",
        "3 SeffVariableNode act.shop.encrypt",
        "4 CallingSeffNode act.shop.store",
        "5 SeffVariableNode act.db.log",
        "6 SeffReturnNode act.db.ret",
        "7 ReturningSeffNode act.shop.store",
        "8 ReturningUserNode u.buy",
    ]


def test_validate_ok(shop_path, capsys):
    assert run_cli(["validate", shop_path], capsys) == (0, "OK\n", "")


def test_validate_reports_defects(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"deployment": {"allocations": {"x": "y"}}}')
    code, out, _ = run_cli(["validate", bad], capsys)
    assert code == 2
    assert "allocation of 'x': unknown container 'y'" in out
    assert out.rstrip().endswith("2 defect(s)")


def test_validate_deeply_nested_document_is_a_defect(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    code, out, err = run_cli(["validate", deep], capsys)
    assert code == 2
    assert err == ""
    lines = out.splitlines()
    assert lines[0].startswith(f"{deep}: malformed JSON: ")
    assert lines[1:] == ["1 defect(s)"]


def test_bench_writes_both_csv_files(tmp_path, capsys):
    runs = tmp_path / "runs.csv"
    code, out, err = run_cli(
        ["bench", "--feature", "node-characteristics", "--sizes", "1,10",
         "--reps", "2", "--out", runs], capsys)
    assert code == 0
    medians = tmp_path / "runs_medians.csv"
    assert runs.exists() and medians.exists()
    assert f"wrote {runs} and {medians}" in out
    assert "node-characteristics size=10" in err  # progress lines
    header = runs.read_text().splitlines()[0]
    assert header == "feature,size,run,wall_ms,outcome"


def test_bench_explicit_median_out(tmp_path, capsys):
    runs = tmp_path / "r.csv"
    medians = tmp_path / "m.csv"
    code, _, _ = run_cli(
        ["bench", "--feature", "seff-parameters", "--sizes", "1", "--reps", "1",
         "--out", runs, "--median-out", medians], capsys)
    assert code == 0
    assert medians.exists()


def test_bench_rejects_unknown_feature(capsys):
    with pytest.raises(SystemExit) as info:
        main(["bench", "--feature", "nonsense", "--sizes", "1"])
    assert info.value.code == 2


def test_analyze_crash_exits_two(shop_no_encrypt_path, tmp_path, capsys):
    # a 1 000-operand | chain overflows the recursive term evaluation; the
    # crash must not read as exit 1, "violations found"
    chain = " | ".join(["data.DataSensitivity.Personal"] * 1000)
    constraints = tmp_path / "deep.constraints"
    constraints.write_text(f"VIOLATION deep WHERE TRUE AND DATA {chain}\n")
    code, out, err = run_cli(
        ["analyze", shop_no_encrypt_path, "--constraints", constraints], capsys)
    assert code == 2
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith("error: internal: RecursionError: ")


def test_build_parser_smoke():
    parser = build_parser()
    args = parser.parse_args(["analyze", "m.json", "--constraints", "c.txt"])
    assert args.constraints == "c.txt"


def test_module_entry_point(shop_path):
    proc = subprocess.run(
        [sys.executable, "-m", "flowcheck", "analyze", str(shop_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["TOTAL 0 violations"]
