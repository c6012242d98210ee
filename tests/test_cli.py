"""The command line interface: exit codes, output shapes, determinism."""

import codecs
import contextlib
import gc
import io
import json
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from flowcheck import analysis, benchgen, cli
from flowcheck.benchgen import BenchFeature
from flowcheck.cli import build_parser, main
from flowcheck.extraction import find_all_sequences
from flowcheck.loader import load_model
from flowcheck.oracle import oracle_propagate, oracle_query
from flowcheck.terms import MAX_NESTING

from conftest import call_chain_model_data


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


def test_analyze_timing_goes_to_stderr(shop_path, geo_constraints_path, monkeypatch, capsys):
    code, out, err = run_cli(
        ["analyze", shop_path, "--constraints", geo_constraints_path, "--timing"], capsys)
    assert code == 0
    assert out.splitlines() == ["TOTAL 0 violations"]
    lines = err.splitlines()
    stages = ["load", "constraints", "extract", "propagate", "query", "report"]
    assert [line.split()[0] for line in lines] == stages + ["elapsed", "maxrss"]
    times = []
    for line in lines[:-1]:
        parts = line.split()
        _, ms, unit = parts[:3] if parts[0] == "load" else parts  # the load's split follows
        assert unit == "ms"
        times.append(float(ms))
    # the stages cover the whole run; each printed time is rounded to 0.1 ms
    assert abs(sum(times[:-1]) - times[-1]) <= 0.05 * len(times) + 1e-9
    number = r"(\d+\.\d)"
    match = re.fullmatch(
        rf"maxrss {number} MiB \(" + ", ".join(f"{stage} {number}" for stage in stages) + r"\)",
        lines[-1])
    assert match, lines[-1]
    peak, *marks = map(float, match.groups())
    # a high-water mark never falls, and the last is the whole run's
    assert marks == sorted(marks) and marks[-1] == peak
    # where the platform has no getrusage, each mark reads 0
    monkeypatch.setattr(analysis, "getrusage", None)
    _, _, err = run_cli(
        ["analyze", shop_path, "--constraints", geo_constraints_path, "--timing"], capsys)
    assert err.splitlines()[-1] == "maxrss 0.0 MiB (" + ", ".join(f"{stage} 0.0" for stage in stages) + ")"


def test_analyze_timing_splits_the_load(shop_path, geo_constraints_path, capsys):
    _, _, err = run_cli(
        ["analyze", shop_path, "--constraints", geo_constraints_path, "--timing"], capsys)
    match = re.fullmatch(
        r"load (\S+) ms \(json (\S+), build (\S+), validate (\S+)\)", err.splitlines()[0])
    assert match, err
    load, *parts = map(float, match.groups())
    # the parts cover the whole load; each printed time is rounded to 0.1 ms
    assert abs(sum(parts) - load) <= 0.2 + 1e-9


def test_analyze_dump_propagation(shop_path, capsys):
    code, out, _ = run_cli(["analyze", shop_path, "--dump-propagation"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "SEQUENCE 0"
    assert lines[1] == "ELEM 0 UserStart purchase NODE ServerLocation.EU"
    assert "VAR payload DataSensitivity.Personal,Encryption.Encrypted" in lines
    assert lines[-1] == "TOTAL 0 violations"


def test_dump_of_a_model_without_scenarios_prints_no_blank_line(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"dictionary": {"labelTypes": [{"name": "T", "values": ["V"]}]}}))
    code, out, err = run_cli(["analyze", path, "--dump-propagation"], capsys)
    assert (code, out, err) == (0, "TOTAL 0 violations\n", "")


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


@pytest.mark.parametrize("enabled", [True, False])
def test_analyze_writes_report_with_collector_paused(
        monkeypatch, shop_path, geo_constraints_path, capsys, enabled):
    # a collection while the report is written would scan everything the
    # pipeline built; main pauses it for the whole command
    seen = []

    def format_report(*args):
        seen.append(gc.isenabled())
        return real_format_report(*args)

    real_format_report = cli.format_report
    monkeypatch.setattr(cli, "format_report", format_report)
    was_enabled = gc.isenabled()
    gc.enable() if enabled else gc.disable()
    try:
        code, _, _ = run_cli(["analyze", shop_path, "--constraints", geo_constraints_path], capsys)
        assert (code, seen) == (0, [False])
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()


def test_validate_ok(shop_path, capsys):
    assert run_cli(["validate", shop_path], capsys) == (0, "OK\n", "")


@pytest.mark.parametrize("args", [
    ["analyze", "online_shop_no_encrypt.json", "--constraints", "geo.constraints"],
    ["validate", "online_shop_no_encrypt.json"],
    ["sequences", "online_shop_no_encrypt.json"],
])
def test_byte_order_mark_reads_as_without(args, models_dir, tmp_path, monkeypatch, capsys):
    # as some Windows editors save them: the model, the member file it
    # references and the constraints file each start with a UTF-8 BOM
    for name in ("online_shop_no_encrypt.json", "dictionary.json", "geo.constraints"):
        (tmp_path / name).write_bytes(codecs.BOM_UTF8 + (models_dir / name).read_bytes())
    monkeypatch.chdir(models_dir)
    plain = run_cli(args, capsys)
    monkeypatch.chdir(tmp_path)
    assert run_cli(args, capsys) == plain
    assert plain[0] in (0, 1)


def test_validate_reports_defects(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"deployment": {"allocations": {"x": "y"}}}')
    code, out, _ = run_cli(["validate", bad], capsys)
    assert code == 2
    assert "allocation of 'x': unknown container 'y'" in out
    assert out.rstrip().endswith("2 defect(s)")


def test_defect_lines_escape_control_characters(model_data, tmp_path, capsys):
    # a line break in model text must not split a defect line, and an
    # escape sequence must not reach the terminal; other text is kept
    where = "component 'comp.a', seff 'svc', action 's0': assignment"
    seff = model_data["components"][0]["seffs"]["svc"]
    seff[0]["assignments"] = ["out.Color.Green :=\nTRUE\x85", "out.Color.Blue := p.Color.Red"]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_data), encoding="utf-8")
    code, out, _ = run_cli(["validate", path], capsys)
    assert code == 2
    assert out.splitlines() == [
        f"{where} 'out.Color.Green :=\\nTRUE\\x85': unknown value 'Green' for label type 'Color'",
        "1 defect(s)",
    ]
    seff[0]["assignments"] = ["\x1b[2Jout.Color.Blue := p.Color.Red | ü"]
    path.write_text(json.dumps(model_data), encoding="utf-8")
    code, out, err = run_cli(["analyze", path], capsys)
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        f"{where} '\\x1b[2Jout.Color.Blue := p.Color.Red | ü': column 1: "
        "unexpected character '\\x1b'",
        f"error: cannot load model '{path}'",
    ]


def test_names_with_control_characters_keep_each_line_one_line(
        models_dir, geo_constraints_path, tmp_path, capsys):
    # an action id that forges a report line, a result name that forges a
    # dump line and a scenario id that drives the terminal are escaped as
    # defect lines are, as are the line and paragraph separators that
    # str.splitlines() also splits on; other text is kept
    data = json.loads((models_dir / "online_shop_no_encrypt.json").read_text(encoding="utf-8"))
    data["components"][1]["seffs"]["store"][0]["id"] = (
        "act.db.log VARS payload\nTOTAL 0 violations\n\x1b[31mspoof\u2028TOTAL 0 violations")
    data["components"][0]["seffs"]["buy"][0]["result"] = (
        "ack\nELEM 99 Forged x NODE -\u2029ELEM 98 Forged y NODE -")
    data["usageScenarios"][0]["id"] = "kauf-ü\x1b[2J"
    path = tmp_path / "shop.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    (tmp_path / "dictionary.json").write_bytes((models_dir / "dictionary.json").read_bytes())
    log = ("act.db.log VARS payload\\nTOTAL 0 violations\\n\\x1b[31mspoof"
           "\\u2028TOTAL 0 violations")
    start = "kauf-ü\\x1b[2J"
    args = ["analyze", path, "--constraints", geo_constraints_path]
    assert run_cli(args, capsys) == (1, (
        f"CONSTRAINT geo SEQ 0 ELEM 4 NODE {log} VARS payload,stored\n"
        "CONSTRAINT geo SEQ 0 ELEM 5 NODE act.db.ret VARS payload,stored\n"
        "TOTAL 2 violations\n"), "")
    code, out, _ = run_cli([*args, "--dump-propagation"], capsys)
    lines = out.splitlines()
    assert code == 1 and "\x1b" not in out
    assert [line for line in lines if line.startswith("ELEM ")] == [
        f"ELEM 0 UserStart {start} NODE ServerLocation.EU",
        "ELEM 1 UserVariableNode u.data NODE ServerLocation.EU",
        "ELEM 2 CallingUserNode u.buy NODE ServerLocation.EU",
        "ELEM 3 CallingSeffNode act.shop.store NODE ServerLocation.EU",
        f"ELEM 4 SeffVariableNode {log} NODE ServerLocation.nonEU",
        "ELEM 5 SeffReturnNode act.db.ret NODE ServerLocation.nonEU",
        "ELEM 6 ReturningSeffNode act.shop.store NODE ServerLocation.EU",
        "ELEM 7 ReturningUserNode u.buy NODE ServerLocation.EU",
    ]
    assert "VAR ack\\nELEM 99 Forged x NODE -\\u2029ELEM 98 Forged y NODE - -" in lines
    assert run_cli(["sequences", path], capsys) == (0, (
        f"SEQUENCE 0\n0 UserStart {start}\n1 UserVariableNode u.data\n2 CallingUserNode u.buy\n"
        f"3 CallingSeffNode act.shop.store\n4 SeffVariableNode {log}\n5 SeffReturnNode act.db.ret\n"
        "6 ReturningSeffNode act.shop.store\n7 ReturningUserNode u.buy\n"), "")


def test_sequences_of_a_model_that_cannot_be_loaded_exits_two(model_data, tmp_path, capsys):
    # each defect on stderr, escaped, as analyze prints it
    where = "component 'comp.a', seff 'svc', action 's0': assignment"
    seff = model_data["components"][0]["seffs"]["svc"]
    seff[0]["assignments"] = ["out.Color.Blue := p.Color.Red |\x1b"]
    seff.append({"type": "loop", "id": "s9"})
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_data), encoding="utf-8")
    code, out, err = run_cli(["sequences", path], capsys)
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        f"{where} 'out.Color.Blue := p.Color.Red |\\x1b': column 32: "
        "unexpected character '\\x1b'",
        "component 'comp.a', seff 'svc', action 's9': unsupported action type 'loop'",
        f"error: cannot load model '{path}'",
    ]
    assert run_cli(["analyze", path], capsys) == (code, out, err)


@pytest.mark.parametrize("command", ["validate", "analyze"])
@pytest.mark.parametrize("content, reason", [
    (None, "[Errno 2] No such file or directory: '{}'"),
    ("{}".encode("utf-16"), "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
], ids=["missing", "not-utf-8"])
def test_a_member_file_that_cannot_be_read_is_a_defect(model_data, tmp_path, command, content,
                                                       reason, capsys):
    member = tmp_path / "deployment.json"
    if content is not None:
        member.write_bytes(content)
    model_data["deployment"] = "deployment.json"
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_data), encoding="utf-8")
    code, out, err = run_cli([command, path], capsys)
    defect = f"member 'deployment': cannot read '{member}': " + reason.format(member)
    assert code == 2
    if command == "validate":
        assert (out, err) == (f"{defect}\n1 defect(s)\n", "")
    else:
        assert (out, err) == ("", f"{defect}\nerror: cannot load model '{path}'\n")


def test_validate_deeply_nested_document_is_a_defect(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    code, out, err = run_cli(["validate", deep], capsys)
    assert code == 2
    assert err == ""
    lines = out.splitlines()
    assert lines[0].startswith(f"{deep}: malformed JSON: ")
    assert lines[1:] == ["1 defect(s)"]


def test_validate_too_deeply_nested_term_is_a_defect(model_data, tmp_path, capsys):
    deep = "(" * (MAX_NESTING + 1) + "TRUE" + ")" * (MAX_NESTING + 1)
    model_data["usageScenarios"][0]["actions"][0]["assignments"] = [f"v.Color.Red := {deep}"]
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(model_data))
    code, out, err = run_cli(["validate", path], capsys)
    assert (code, err) == (2, "")
    assert "internal" not in out
    column = len("v.Color.Red := ") + MAX_NESTING + 1
    assert f"column {column}: parentheses nest deeper than 256 levels" in out
    assert out.rstrip().endswith("defect(s)")


@pytest.mark.parametrize("levels", [64, 65, 70, "cycle", "second-call"])
def test_validate_accepts_what_analyze_processes(levels, tmp_path, capsys):
    """A call chain up to the depth limit loads and analyses; one past
    it, or a reachable cycle, is a defect for both commands, also when
    the call that goes too deep follows one that fits."""
    if levels == "cycle":
        document = call_chain_model_data(3)
        document["components"][2]["seffs"]["c2.run"].insert(1, {
            "type": "call", "id": "c2.call", "role": "next",
            "signature": "c0.run", "bindings": {"p": "x"}})
        document["assembly"]["connectors"].append(
            {"instance": "i2", "role": "next", "target": "i0"})
    elif levels == "second-call":
        document = call_chain_model_data(65)
        document["components"][0]["seffs"]["c0.run"].insert(1, {
            "type": "call", "id": "c0.leaf", "role": "leaf",
            "signature": "c64.run", "bindings": {"p": "x"}})
        document["assembly"]["connectors"].append(
            {"instance": "i0", "role": "leaf", "target": "i64"})
    else:
        document = call_chain_model_data(levels)
    path = tmp_path / "calls.json"
    path.write_text(json.dumps(document))
    validated = run_cli(["validate", path], capsys)
    analysed = run_cli(["analyze", path], capsys)
    if levels == 64:
        assert validated == (0, "OK\n", "")
        assert analysed == (0, "TOTAL 0 violations\n", "")
        return
    assert validated[0] == analysed[0] == 2
    defect = validated[1].splitlines()[0]
    assert defect.startswith("scenario 'u0', action 'u0.call': call depth exceeded (64 nested calls): ")
    assert validated[1].splitlines()[1:] == ["1 defect(s)"]
    assert analysed[2] == f"{defect}\nerror: cannot load model '{path}'\n"


def test_validate_reports_unbound_parameter(tmp_path, capsys):
    # s1's seff passes q on, but the scenario binds only p: the analysis
    # would fail on the missing variable, so validate must refuse it too
    document = {
        "dictionary": {"labelTypes": [{"name": "Color", "values": ["Red"]}]},
        "components": [
            {"id": "comp.a",
             "signatures": [{"id": "s1", "parameters": ["p", "q"]}],
             "seffs": {"s1": [{"type": "call", "id": "a0", "role": "dep",
                               "signature": "s2", "bindings": {"x": "q"}}]}},
            {"id": "comp.b",
             "signatures": [{"id": "s2", "parameters": ["x"]}],
             "seffs": {"s2": [{"type": "variable", "id": "b0",
                               "assignments": ["y.Color.Red := x.Color.Red"]}]}},
        ],
        "assembly": {
            "instances": [{"id": "inst.a", "component": "comp.a"},
                          {"id": "inst.b", "component": "comp.b"}],
            "connectors": [{"instance": "inst.a", "role": "dep", "target": "inst.b"}],
        },
        "deployment": {"containers": [{"id": "host"}],
                       "allocations": {"inst.a": "host", "inst.b": "host"}},
        "usageScenarios": [{"id": "scn", "actions": [
            {"type": "variable", "id": "u0", "assignments": ["v.Color.Red := TRUE"]},
            {"type": "call", "id": "u1", "instance": "inst.a", "signature": "s1",
             "bindings": {"p": "v"}},
        ]}],
    }
    path = tmp_path / "unbound.json"
    path.write_text(json.dumps(document))
    defect = "scenario 'scn', action 'u1': parameter 'q' of signature 's1' is not bound"
    assert run_cli(["validate", path], capsys) == (2, f"{defect}\n1 defect(s)\n", "")
    code, out, err = run_cli(["analyze", path], capsys)
    assert (code, out) == (2, "")
    assert err.splitlines() == [defect, f"error: cannot load model '{path}'"]


def test_bench_writes_one_json_file(tmp_path, capsys):
    out_path = tmp_path / "bench.json"
    code, out, err = run_cli(
        ["bench", "--feature", "node-characteristics", "--sizes", "1,10",
         "--reps", "2", "--out", out_path], capsys)
    assert code == 0
    assert out == f"wrote {out_path}\n"
    assert "node-characteristics size=10" in err  # progress lines
    points = json.loads(out_path.read_text())["points"]
    assert [(p["feature"], p["size"]) for p in points] == [
        ("node-characteristics", 1), ("node-characteristics", 10)]
    assert all(len(p["runs_ms"]) == 2 for p in points)


def test_bench_without_feature_sweeps_all_four(tmp_path, capsys):
    out_path = tmp_path / "all.json"
    code, _, _ = run_cli(
        ["bench", "--sizes", "1,2", "--reps", "1", "--out", out_path], capsys)
    assert code == 0
    points = json.loads(out_path.read_text())["points"]
    assert [(p["feature"], p["size"]) for p in points] == [
        (feature.value, size) for feature in BenchFeature for size in (1, 2)]
    assert all(p["outcome"] == "completed" for p in points)


@pytest.mark.parametrize("reps", ["0", "-2"])
def test_bench_rejects_non_positive_reps(tmp_path, reps, capsys):
    out_path = tmp_path / "bench.json"
    code, out, err = run_cli(
        ["bench", "--feature", "seff-parameters", "--sizes", "1", "--reps", reps,
         "--out", out_path], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: --reps needs a positive integer\n"
    assert not out_path.exists()


@pytest.mark.parametrize("timeout", ["0", "-1", "nan", "inf"])
def test_bench_rejects_non_positive_or_non_finite_timeout(tmp_path, timeout, capsys):
    out_path = tmp_path / "bench.json"
    code, out, err = run_cli(
        ["bench", "--feature", "seff-parameters", "--sizes", "1", "--reps", "1",
         "--timeout", timeout, "--out", out_path], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: --timeout needs a positive, finite number of seconds\n"
    assert not out_path.exists()


def test_bench_refuses_out_in_a_missing_directory(tmp_path, monkeypatch, capsys):
    out_path = tmp_path / "missing" / "bench.json"
    monkeypatch.setattr(benchgen, "run_bench", None)  # no point may run
    code, out, err = run_cli(
        ["bench", "--feature", "seff-parameters", "--sizes", "1", "--reps", "1",
         "--out", out_path], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write --out '{out_path}'\n"


def test_bench_refuses_a_directory_as_out(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(benchgen, "run_bench", None)  # no point may run
    code, out, err = run_cli(
        ["bench", "--feature", "seff-parameters", "--sizes", "1", "--reps", "1",
         "--out", tmp_path], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write --out '{tmp_path}'\n"


@pytest.mark.parametrize("sizes, message", [
    ("1,x", "error: --sizes must be a comma separated list of integers"),
    ("0", "error: --sizes needs positive integers"),
])
def test_bench_rejects_bad_sizes(tmp_path, monkeypatch, sizes, message, capsys):
    out_path = tmp_path / "bench.json"
    monkeypatch.setattr(benchgen, "run_bench", None)  # no point may run
    code, out, err = run_cli(
        ["bench", "--feature", "seff-parameters", "--sizes", sizes, "--out", out_path], capsys)
    assert (code, out, err) == (2, "", message + "\n")
    assert not out_path.exists()


def test_bench_records_a_point_whose_pipeline_raises_and_runs_the_next(tmp_path, monkeypatch,
                                                                         capsys):
    run_pipeline, calls = benchgen.run_pipeline, []

    def fails_first(*args):
        calls.append(args)
        if len(calls) == 1:
            raise RuntimeError("boom")
        return run_pipeline(*args)

    monkeypatch.setattr(benchgen, "run_pipeline", fails_first)
    out_path = tmp_path / "bench.json"
    code, out, err = run_cli(
        ["bench", "--feature", "seff-parameters", "--sizes", "1,2", "--reps", "2",
         "--out", out_path], capsys)
    assert (code, out) == (0, f"wrote {out_path}\n")
    assert "seff-parameters size=1 median=- [failed: RuntimeError: boom]" in err.splitlines()
    first, second = json.loads(out_path.read_text())["points"]
    assert (first["outcome"], first["median_ms"], first["reference_median_ms"]) == (
        "failed: RuntimeError: boom", None, None)
    assert second["outcome"] == "completed" and len(second["runs_ms"]) == 2
    assert second["median_ms"] > 0 and second["reference_median_ms"] > 0
    assert len(calls) == 3


def test_bench_records_a_point_that_runs_out_of_memory(tmp_path, monkeypatch, capsys):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(benchgen, "run_pipeline", exhausted)
    out_path = tmp_path / "bench.json"
    code, out, err = run_cli(
        ["bench", "--feature", "seff-parameters", "--sizes", "1", "--out", out_path], capsys)
    assert (code, out) == (0, f"wrote {out_path}\n")
    assert "seff-parameters size=1 median=- [failed: out of memory]" in err.splitlines()
    (point,) = json.loads(out_path.read_text())["points"]
    assert (point["outcome"], point["median_ms"]) == ("failed: out of memory", None)


def test_bench_rejects_unknown_feature(capsys):
    with pytest.raises(SystemExit) as info:
        main(["bench", "--feature", "nonsense", "--sizes", "1"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "argument --feature: invalid choice: 'nonsense'" in err
    assert all(repr(feature.value) in err for feature in BenchFeature)


# What importing the package or its command line adds to a bare
# interpreter: neither pays for dataclasses or statistics, nor loads the
# bench harness or the test-only reference interpreter.
@pytest.mark.parametrize("module", ["flowcheck", "flowcheck.cli"])
def test_import_loads_neither_dataclasses_nor_the_bench_harness(module):
    program = (f"import sys; bare = set(sys.modules); import {module}; "
               "print(*sorted(set(sys.modules) - bare))")
    proc = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True,
                          check=True)
    added = set(proc.stdout.split())
    assert module in added
    assert not added & {"dataclasses", "inspect", "statistics", "flowcheck.benchgen",
                        "flowcheck.oracle", "argparse", "gettext"}


def test_analyze_loads_neither_argparse_nor_the_utf_8_sig_codec(shop_path, geo_constraints_path):
    # a model command reads its command line without argparse, and its
    # files without the codec that drops a byte order mark
    program = ("import sys; bare = set(sys.modules); from flowcheck.cli import main; "
               f"code = main(['analyze', {str(shop_path)!r}, "
               f"'--constraints', {str(geo_constraints_path)!r}]); "
               "print(code, *sorted(set(sys.modules) - bare), file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True,
                          check=True)
    assert proc.stdout == "TOTAL 0 violations\n"
    code, *added = proc.stderr.split()
    assert code == "0" and "flowcheck.cli" in added
    assert not set(added) & {"argparse", "gettext", "locale", "encodings.utf_8_sig"}


_OPTIONS = ["--constraints", "--dump-propagation", "--timing", "--feature", "--sizes", "--reps",
            "--out", "--timeout", "--help"]
_TOKENS = [
    "analyze", "sequences", "validate", "bench", "ana",
    *_OPTIONS, *(option[:length] for option in _OPTIONS for length in (3, 6)),
    "--constraints=c.txt", "--timing=1", "--x=y", "-h", "--", "-", "-5", "", "m.json", "c.txt",
    "a b.json",
]


@st.composite
def _model_command_lines(draw):
    """A model command line in any order, some with one token from
    ``_TOKENS`` put in, so that many read without argparse."""
    command = draw(st.sampled_from(["analyze", "sequences", "validate"]))
    parts = [[draw(st.sampled_from(["m.json", "", "a b.json"]))]]
    if command == "analyze":
        parts += draw(st.lists(st.sampled_from(
            [["--constraints", "c.txt"], ["--constraints", ""], ["--timing"],
             ["--dump-propagation"]]), max_size=3, unique_by=lambda part: part[0]))
    argv = [command, *(token for part in draw(st.permutations(parts)) for token in part)]
    if draw(st.booleans()):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_TOKENS)))
    return argv


def _reading(read, argv):
    """What ``read(argv)`` returns, as a dict, or the code of the
    SystemExit it raises; with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(read(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(st.one_of(
    st.lists(st.sampled_from(_TOKENS), max_size=7),
    _model_command_lines(),
))
@example(["analyze", "m.json", "--constraints", "c.txt", "--dump-propagation", "--timing"])
@example(["analyze", "--timing", "--constraints", "", "m.json"])
@example(["sequences", "m.json"])
@example(["validate", "m.json"])
@example(["analyze", "m.json", "--constraints"])
@example(["analyze", "m.json", "--constraints", "-5"])
@example(["analyze", "m.json", "--constraints", "--timing"])
@example(["analyze", "m.json", "--timing", "--timing"])
@example(["analyze", "-5"])
@example(["validate", "m.json", "c.txt"])
@example(["sequences", "--", "m.json"])
@example([])
def test_a_command_line_reads_as_argparse_reads_it(argv):
    # main reads a plain model command itself and hands every other
    # command line to argparse, so both give the same values, or the same
    # exit and message
    expected = _reading(build_parser().parse_args, argv)
    if isinstance(expected[0], dict):
        read = cli._read(list(argv))
        assert read is None or (vars(read), "", "") == expected
    else:  # main, handed a command line argparse refuses, exits as argparse does
        assert _reading(main, argv) == expected


def test_analyze_crash_exits_two(shop_no_encrypt_path, monkeypatch, capsys):
    # an unexpected failure inside a stage must not read as exit 1,
    # "violations found"; run_pipeline looks its stages up as module globals
    def boom(model, sequences):
        raise RuntimeError("boom")

    monkeypatch.setattr("flowcheck.analysis.evaluate_all", boom)
    code, out, err = run_cli(["analyze", shop_no_encrypt_path], capsys)
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: internal: RuntimeError: boom"]


def test_analyze_long_chain_reports_the_oracle_violations(
        shop_no_encrypt_path, tmp_path, capsys):
    # a 1 000-operand | chain once overflowed the recursive term compiler
    chain = " | ".join(["data.DataSensitivity.Personal"] * 1000)
    text = f"VIOLATION deep WHERE TRUE AND DATA {chain}"
    constraints = tmp_path / "deep.constraints"
    constraints.write_text(text + "\n")
    model = load_model(shop_no_encrypt_path)
    want = [
        f"CONSTRAINT deep SEQ {index} ELEM {element} "
        f"NODE {sequence.elements[element].element_id} VARS {','.join(names)}"
        for index, sequence in enumerate(find_all_sequences(model))
        for element, names in oracle_query(model, sequence, text)
    ]
    assert want
    code, out, err = run_cli(
        ["analyze", shop_no_encrypt_path, "--constraints", constraints], capsys)
    assert (code, err) == (1, "")
    assert out.splitlines() == want + [f"TOTAL {len(want)} violations"]


def test_repeated_actions_example_matches_the_oracle(models_dir, capsys):
    # a forwarding chain, a repeated label set and a repeated toggle, in a
    # body that two scenarios call with different frames
    path = models_dir / "repeated_actions.json"
    constraints = models_dir / "repeated_actions.constraints"
    model = load_model(path)
    sequences = find_all_sequences(model)
    texts = [line for line in constraints.read_text().splitlines() if not line.startswith("#")]
    want = [
        f"CONSTRAINT {text.split()[1]} SEQ {index} ELEM {element} "
        f"NODE {sequence.elements[element].element_id} VARS {','.join(names)}"
        for text in texts
        for index, sequence in enumerate(sequences)
        for element, names in oracle_query(model, sequence, text)
    ]
    # three toggles unseal the resent document before it reaches the vault
    assert "CONSTRAINT geo SEQ 1 ELEM 15 NODE act.vault.copy1 VARS payload,stored" in want
    dump = cli.propagation_dump([oracle_propagate(model, sequence) for sequence in sequences])
    code, out, err = run_cli(
        ["analyze", path, "--constraints", constraints, "--dump-propagation"], capsys)
    assert (code, err) == (1, "")
    assert out == "\n".join([dump, *want, f"TOTAL {len(want)} violations"]) + "\n"


def test_build_parser_smoke():
    parser = build_parser()
    args = parser.parse_args(["analyze", "m.json", "--constraints", "c.txt"])
    assert args.constraints == "c.txt"


@pytest.mark.parametrize("extra", [[], ["--dump-propagation"]])
def test_analyze_exits_one_after_printing_total(
        shop_no_encrypt_path, geo_constraints_path, extra):
    proc = subprocess.run(
        [sys.executable, "-m", "flowcheck", "analyze", str(shop_no_encrypt_path),
         "--constraints", str(geo_constraints_path), *extra],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout.endswith("TOTAL 2 violations\n")
    assert proc.stderr == ""


def test_module_entry_point(shop_path):
    proc = subprocess.run(
        [sys.executable, "-m", "flowcheck", "analyze", str(shop_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["TOTAL 0 violations"]
