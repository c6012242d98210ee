"""flowcheck benchmark: time to verdict, throughput and peak memory.

    python3 perfbench/run.py --workload shared-callee --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

Run from the root of a source checkout; flowcheck is imported from
``src/``.  The benchmark writes seeded models and constraint files, then
analyses them exactly as a user does, through
``flowcheck.cli.main(["analyze", MODEL, "--constraints", FILE])``.

Every analysis runs in a child forked from a process that has imported
flowcheck but never analysed anything, so no parse, lowering or index
cache carries over from an earlier analysis, and the child's own peak
resident memory is that analysis's peak.  Each report and exit code is
compared byte for byte with the one the generator derived by
construction (see ``workloads.py``); a wrong exit code, a different
report, a crash or a timeout counts as a failed analysis.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` wraps the
public entry point of each layer (see ``tracing.py``), alternates traced
and untraced analyses of the same inputs, prints the per-layer metrics
and writes every span to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("fleet-load", "shared-callee", "wide-frames")
ANALYSIS_TIMEOUT_S = 60.0
# a run keeps going past --seconds until it has this many samples, and
# never past HARD_STOP_S; the tail percentile needs ten samples above it
MIN_CLEAN, MIN_REFUSED = 11, 3
HARD_STOP_S = 140.0
SETUP_SAMPLES = 15

PER_LAYER = {
    "loader.ms": "ms",
    "loader.json_ms": "ms",
    "loader.validate_ms": "ms",
    "loader.parse_hit_ratio": "ratio",
    "loader.assignments": "count",
    "loader.alloc_peak_mb": "MiB",
    "extraction.ms": "ms",
    "extraction.elements": "count",
    "extraction.sequences": "count",
    "propagation.ms": "ms",
    "kernel.busy_ms": "ms",
    "propagation.lower_ms": "ms",
    "propagation.runs": "count",
    "propagation.snapshot_entries": "count",
    "propagation.distinct_frames": "count",
    "propagation.alloc_peak_mb": "MiB",
    "constraints.parse_ms": "ms",
    "query.ms": "ms",
    "query.checks": "count",
    "query.violations": "count",
    "report.ms": "ms",
    "report.bytes": "bytes",
    "cli.unattributed_ms": "ms",
    "trace.overhead_ms": "ms",
}


# ---------------------------------------------------------------------------
# child processes


def in_child(function, *args, timeout=ANALYSIS_TIMEOUT_S):
    """Run ``function(*args)`` in a forked child.

    Returns (payload, error, peak RSS in KiB).  The payload is the JSON
    value the function returned; ``error`` describes a crash or timeout.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        os.close(read_fd)
        status = 0
        try:
            data = json.dumps({"ok": function(*args)})
        except BaseException:  # report anything, SystemExit included
            data = json.dumps({"error": traceback.format_exc()})
            status = 1
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(data.encode())
        os._exit(status)
    os.close(write_fd)
    chunks, error = [], None
    deadline = time.monotonic() + timeout
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                error = f"timeout after {timeout:.0f} s"
                os.kill(pid, signal.SIGKILL)
                break
            ready, _, _ = select.select([read_fd], [], [], remaining)
            if ready:
                chunk = os.read(read_fd, 1 << 20)
                if not chunk:
                    break
                chunks.append(chunk)
    finally:
        os.close(read_fd)
        _, status, usage = os.wait4(pid, 0)
    if error is None:
        try:
            message = json.loads(b"".join(chunks))
        except ValueError:
            message = {"error": f"child ended with status {status} and no result"}
        error = message.get("error")
    payload = None if error else message["ok"]
    return payload, error, usage.ru_maxrss


def analyze(model, constraints):
    """One ``flowcheck analyze`` call: elapsed ms, exit code, stdout, stderr."""
    from flowcheck import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = time.perf_counter()
        code = cli.main(["analyze", model, "--constraints", constraints])
        elapsed = time.perf_counter() - started
    return {"ms": elapsed * 1e3, "code": code, "out": out.getvalue(), "err": err.getvalue()}


def analyze_traced(model, constraints, analysis_id):
    tracer = tracing.Tracer(analysis_id)
    tracer.install()
    parse_cache = _parse_cache_info()
    runs = tracing.resolve("flowcheck.propagation", "propagation_runs")
    runs_before = runs() if runs else None
    with tracer.span("analyze"):
        result = analyze(model, constraints)
    layers = _layer_values(tracer, parse_cache, runs, runs_before)
    text = Path(model).read_text(encoding="utf-8")
    layers["loader.json_ms"] = statistics.median(_time_ms(json.loads, text) for _ in range(3))
    result.update(layers=layers, missing=tracer.missing, spans=tracer.records())
    return result


def _time_ms(function, *args):
    started = time.perf_counter()
    function(*args)
    return (time.perf_counter() - started) * 1e3


def _parse_cache_info():
    parse = tracing.resolve("flowcheck.model", "assignment_from_text")
    info = getattr(parse, "cache_info", None)
    return info() if info else None


SPAN_METRICS = {
    "loader.ms": "loader",
    "loader.validate_ms": "loader.validate",
    "extraction.ms": "extraction",
    "propagation.ms": "propagation",
    "kernel.busy_ms": "kernel",
    "constraints.parse_ms": "constraints.parse",
    "query.ms": "query",
    "report.ms": "report",
}


def _layer_values(tracer, cache_before, runs, runs_before):
    """Per-layer times and counts of one traced analysis; missing ones left out."""
    total = tracer.total_ms
    values = {name: total(span) for name, span in SPAN_METRICS.items()
              if total(span) is not None}
    if "kernel.busy_ms" in values and total("propagation.propagate") is not None:
        values["propagation.lower_ms"] = total("propagation.propagate") - values["kernel.busy_ms"]
    values["analyze_ms"] = total("analyze")
    values["cli.unattributed_ms"] = values["analyze_ms"] - tracer.child_ms("analyze")
    cache_after = _parse_cache_info()
    if cache_before is not None and cache_after is not None:
        hits = cache_after.hits - cache_before.hits
        misses = cache_after.misses - cache_before.misses
        values["loader.assignments"] = hits + misses
        if hits + misses:
            values["loader.parse_hit_ratio"] = hits / (hits + misses)
    if runs is not None:
        values["propagation.runs"] = runs() - runs_before
    values.update(tracer.counts)
    return values


def allocation_peaks(model, constraints):
    """Traced-allocation peak (MiB) inside loading and inside propagation."""
    peaks = {}

    def measured(name):
        def make(function):
            def wrapper(*args, **kwargs):
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                result = function(*args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1]
                peaks[name] = max(peaks.get(name, 0.0), (peak - start) / 2**20)
                return result

            return wrapper

        return make

    tracing.patch("flowcheck.loader", "load_model", measured("loader.alloc_peak_mb"))
    tracing.patch("flowcheck.propagation", "evaluate_all",
                  measured("propagation.alloc_peak_mb"))
    tracemalloc.start()
    try:
        result = analyze(model, constraints)
    finally:
        tracemalloc.stop()
    result["peaks"] = peaks
    return result


def generate(workload, seed, directory):
    cases = []
    for case in workloads.make_cases(workload, seed):
        model, constraints = workloads.write_case(case, Path(directory))
        cases.append({
            "name": case.name, "model": model, "constraints": constraints,
            "code": case.code, "stdout": case.stdout, "elements": case.elements,
            "needle": case.needle,
        })
    return cases


# ---------------------------------------------------------------------------
# measurement


def setup_seconds() -> float:
    """Seconds from starting a fresh interpreter until flowcheck.cli is imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    program = "import time, flowcheck.cli; print(time.perf_counter())"
    started = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", program], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout) - started


def verdict(case, payload, error) -> str | None:
    """None when the analysis produced exactly the expected result."""
    if error is not None:
        return error.strip().splitlines()[-1]
    if payload["code"] != case["code"]:
        return f"exit code {payload['code']}, expected {case['code']}"
    if payload["out"] != case["stdout"]:
        return "report differs from the expected one"
    if case["needle"] is not None and case["needle"] not in payload["err"]:
        return f"refusal does not name '{case['needle']}'"
    return None


def tail(samples):
    """(value, percentile) of the highest percentile with ten samples above it.

    With ten samples or fewer there is none; the maximum stands in.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def schedule(cases):
    clean = [c for c in cases if c["code"] != 2]
    refused = [c for c in cases if c["code"] == 2]
    turn = 0
    while True:
        yield from clean
        yield refused[turn % len(refused)]
        turn += 1


class Run:
    """One benchmark run of one workload: its samples, spans and failures."""

    def __init__(self, workload, seed, seconds, trace):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.attempted = 0
        self.failures = []
        self.clean_ms, self.refuse_ms, self.elements, self.rss_kib = [], [], 0, []
        self.traced_ms, self.layers, self.spans, self.missing = [], [], [], set()
        self.peaks = {}

    def record(self, case, payload, error, rss_kib, traced=False) -> None:
        self.attempted += 1
        problem = verdict(case, payload, error)
        if problem is not None:
            self.failures.append(f"{case['name']}: {problem}")
        elif traced:
            self.missing.update(payload["missing"])
            self.spans.extend(payload["spans"])
            if case["code"] != 2:
                self.traced_ms.append(payload["layers"]["analyze_ms"])
                self.layers.append(payload["layers"])
        else:
            self.rss_kib.append(rss_kib)
            if case["code"] == 2:
                self.refuse_ms.append(payload["ms"])
            else:
                self.clean_ms.append(payload["ms"])
                self.elements += case["elements"]

    def execute(self, directory):
        started = time.monotonic()
        cases, error, _ = in_child(generate, self.workload, self.seed, str(directory))
        if error:
            raise RuntimeError(f"generating inputs failed: {error}")
        import flowcheck.cli  # noqa: F401  imported once, before any fork

        self.setup = []
        if not self.trace:
            setup_seconds()  # the first start may still write bytecode caches
        else:
            # tracemalloc slows everything down; it gets one analysis of its own
            first = next(c for c in cases if c["code"] != 2)
            payload, error, _ = in_child(allocation_peaks, first["model"], first["constraints"])
            self.attempted += 1
            problem = verdict(first, payload, error)
            if problem is None:
                self.peaks = payload["peaks"]
            else:
                self.failures.append(f"{first['name']}: {problem}")
        measure_start = time.monotonic()
        deadline = measure_start + self.seconds
        for index, case in enumerate(schedule(cases)):
            now = time.monotonic()
            enough = (len(self.clean_ms) >= MIN_CLEAN and len(self.refuse_ms) >= MIN_REFUSED)
            if (now >= deadline and (enough or self.failures)) or now - started > HARD_STOP_S:
                break
            if self.trace:
                analysis_id = f"{index}:{case['name']}"
                payload, error, rss = in_child(
                    analyze_traced, case["model"], case["constraints"], analysis_id)
                self.record(case, payload, error, rss, traced=True)
            payload, error, rss = in_child(analyze, case["model"], case["constraints"])
            self.record(case, payload, error, rss)
            # set-up samples are spread over the run like the analyses, so
            # both see the same slow and fast stretches of the machine
            progress = (time.monotonic() - measure_start) / self.seconds
            if not self.trace and len(self.setup) < SETUP_SAMPLES * progress:
                self.setup.append(setup_seconds())
        while not self.trace and len(self.setup) < SETUP_SAMPLES:
            self.setup.append(setup_seconds())
        self.measured_s = time.monotonic() - measure_start

    def end_to_end(self):
        metrics, notes = {}, []
        if self.clean_ms:
            metrics["analyze_ms_p50"] = (statistics.median(self.clean_ms), "ms")
            value, percentile = tail(self.clean_ms)
            metrics["analyze_ms_tail"] = (value, "ms")
            notes.append(f"analyze_ms_tail is p{percentile:.1f} of {len(self.clean_ms)} samples")
            metrics["elements_per_s"] = (self.elements / (sum(self.clean_ms) / 1e3), "1/s")
        if self.rss_kib:
            metrics["peak_rss_mb"] = (max(self.rss_kib) / 1024, "MiB")
        if self.refuse_ms:
            metrics["refuse_ms_p50"] = (statistics.median(self.refuse_ms), "ms")
            notes.append(f"refuse_ms_p50 is the median of {len(self.refuse_ms)} samples")
        metrics["setup_s"] = (statistics.median(self.setup), "s")
        return metrics, notes

    def per_layer(self):
        """Median over the traced clean analyses of each layer value."""
        values = dict(self.peaks)
        metrics, notes = {}, []
        if self.traced_ms and self.clean_ms:
            traced, untraced = statistics.median(self.traced_ms), statistics.median(self.clean_ms)
            values["trace.overhead_ms"] = traced - untraced
            notes.append(f"analyze p50 traced {traced:.1f} ms, untraced {untraced:.1f} ms")
        for name, unit in PER_LAYER.items():
            samples = [layer[name] for layer in self.layers if name in layer]
            if samples:
                metrics[name] = (statistics.median(samples), unit)
            elif name in values:
                metrics[name] = (values[name], unit)
        if self.missing:
            notes.append("missing layers (function not found): " + ", ".join(sorted(self.missing)))
        return metrics, notes


def run_workload(workload, seed, seconds, trace):
    run = Run(workload, seed, seconds, trace)
    directory = OUT / f"inputs-{workload}-{seed}-{os.getpid()}"
    directory.mkdir(parents=True, exist_ok=True)
    try:
        run.execute(directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    metrics, notes = run.per_layer() if trace else run.end_to_end()
    if trace:
        spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
        with open(spans_path, "w", encoding="utf-8") as handle:
            for span in run.spans:
                handle.write(json.dumps(span) + "\n")
        notes.append(f"{len(run.spans)} spans written to {spans_path.relative_to(ROOT)}")
    failed = len(run.failures)
    print(f"# {workload} seed {seed}: {run.attempted} analyses in {run.measured_s:.1f} s, "
          f"failed {failed} (failed_frac {failed / max(run.attempted, 1):.3f})")
    for failure in run.failures[:10]:
        print(f"# FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"# {workload} {name} {value:.6g} {unit}")
    for note in notes:
        print(f"# {note}")
    return run, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "flowcheck" / "cli.py").is_file():
        print(f"error: no flowcheck sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    selected = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in selected:
        run, values = run_workload(workload, args.seed, args.seconds, args.trace)
        correct = correct and not run.failures
        attempted += run.attempted
        failed += len(run.failures)
        prefix = f"{workload}/" if args.workload == "all" else ""
        for name, (value, unit) in values.items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
