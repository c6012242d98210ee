"""Command line interface.

    flowcheck analyze MODEL --constraints FILE [--dump-propagation] [--timing]
    flowcheck sequences MODEL
    flowcheck validate MODEL
    flowcheck bench --feature variable-actions --sizes 1,10,100 --reps 3

Exit codes: 0 no violations, 1 violations found, 2 usage or load errors
and unexpected failures.
Reports are deterministic: two runs over the same inputs produce byte
identical output.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, field

from .benchgen import (
    BenchConfig,
    BenchFeature,
    run_bench,
    write_medians_csv,
    write_runs_csv,
)
from .constraints import format_report, load_constraints, query_many
from .errors import FlowcheckError, ModelLoadError
from .extraction import find_all_sequences
from .loader import load_model
from .propagation import evaluate_all

__all__ = ["main", "AnalysisRun"]


@dataclass
class AnalysisRun:
    """Everything one analyze invocation produced."""

    model_path: str
    constraints_path: str | None
    dump_propagation: bool
    sequences: list = field(default_factory=list)
    propagated: list = field(default_factory=list)
    violations: dict = field(default_factory=dict)
    constraint_order: list = field(default_factory=list)
    elapsed_ms: float = 0.0

    def report(self) -> str:
        return format_report(self.violations, self.constraint_order)

    def total_violations(self) -> int:
        return sum(len(v) for v in self.violations.values())

    def propagation_dump(self) -> str:
        """Per element: node labels, then each variable with its labels."""
        lines = []
        for index, propagated in enumerate(self.propagated):
            lines.append(f"SEQUENCE {index}")
            for element_index, result in enumerate(propagated.results):
                element = result.element
                node = ",".join(result.node_labels.names()) or "-"
                lines.append(
                    f"ELEM {element_index} {element.kind} {element.element_id} NODE {node}"
                )
                for variable in result.variables:
                    labels = ",".join(variable.labels.names()) or "-"
                    lines.append(f"VAR {variable.name} {labels}")
        return "\n".join(lines)


def _fail(message: str) -> int:
    print(message, file=sys.stderr)
    return 2


def _cmd_analyze(args) -> int:
    stage_ms: dict[str, float] = {}
    started = last = time.perf_counter()

    def lap(stage: str) -> None:
        nonlocal last
        now = time.perf_counter()
        stage_ms[stage] = (now - last) * 1000.0
        last = now

    try:
        model = load_model(args.model)
    except ModelLoadError as exc:
        for defect in exc.defects:
            print(defect, file=sys.stderr)
        return _fail(f"error: cannot load model '{args.model}'")
    lap("load")
    try:
        constraints = (
            load_constraints(args.constraints, model.dictionary)
            if args.constraints
            else []
        )
        lap("constraints")
        run = AnalysisRun(
            model_path=args.model,
            constraints_path=args.constraints,
            dump_propagation=args.dump_propagation,
        )
        run.sequences = find_all_sequences(model)
        lap("extract")
        run.propagated = evaluate_all(model, run.sequences)
        lap("propagate")
        run.constraint_order = [c.name for c in constraints]
        run.violations = query_many(run.propagated, constraints)
        lap("query")
    except FlowcheckError as exc:
        return _fail(f"error: {exc}")
    dump = run.propagation_dump() if run.dump_propagation else None
    report = run.report()
    lap("report")
    run.elapsed_ms = (last - started) * 1000.0
    if dump is not None:
        print(dump)
    print(report)
    if args.timing:
        for stage, ms in stage_ms.items():
            print(f"{stage} {ms:.1f} ms", file=sys.stderr)
        print(f"elapsed {run.elapsed_ms:.1f} ms", file=sys.stderr)
    return 1 if run.total_violations() else 0


def _cmd_sequences(args) -> int:
    try:
        model = load_model(args.model)
        sequences = find_all_sequences(model)
    except ModelLoadError as exc:
        for defect in exc.defects:
            print(defect, file=sys.stderr)
        return _fail(f"error: cannot load model '{args.model}'")
    except FlowcheckError as exc:
        return _fail(f"error: {exc}")
    for index, sequence in enumerate(sequences):
        print(f"SEQUENCE {index}")
        for element_index, element in enumerate(sequence):
            print(f"{element_index} {element.kind} {element.element_id}")
    return 0


def _cmd_validate(args) -> int:
    try:
        load_model(args.model)
    except ModelLoadError as exc:
        for defect in exc.defects:
            print(defect)
        print(f"{len(exc.defects)} defect(s)")
        return 2
    print("OK")
    return 0


def _cmd_bench(args) -> int:
    try:
        sizes = tuple(int(part) for part in args.sizes.split(",") if part)
    except ValueError:
        return _fail("error: --sizes must be a comma separated list of integers")
    if not sizes or any(size < 1 for size in sizes):
        return _fail("error: --sizes needs positive integers")
    config = BenchConfig(
        feature=BenchFeature(args.feature),
        sizes=sizes,
        repetitions=args.reps,
        include_load=not args.no_load,
        timeout_s=args.timeout,
    )

    def progress(result):
        median = "-" if result.median_ms is None else f"{result.median_ms:.3f} ms"
        print(
            f"{result.feature.value} size={result.size} median={median} [{result.outcome}]",
            file=sys.stderr,
        )

    results = run_bench(config, progress=progress)
    runs_path = args.out
    medians_path = args.median_out or _derive_medians_path(runs_path)
    write_runs_csv(results, runs_path)
    write_medians_csv(results, medians_path)
    print(f"wrote {runs_path} and {medians_path}")
    return 0


def _derive_medians_path(runs_path: str) -> str:
    root, ext = os.path.splitext(runs_path)
    return f"{root}_medians{ext or '.csv'}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowcheck",
        description="Design-time confidentiality analysis of architecture models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="check constraints against a model")
    analyze.add_argument("model", help="model JSON file")
    analyze.add_argument("--constraints", help="constraints file, one per line")
    analyze.add_argument(
        "--dump-propagation",
        action="store_true",
        help="print per-element labels before the violation report",
    )
    analyze.add_argument(
        "--timing",
        action="store_true",
        help="print the time of each stage and the total to stderr",
    )
    analyze.set_defaults(func=_cmd_analyze)

    sequences = sub.add_parser("sequences", help="print extracted action sequences")
    sequences.add_argument("model", help="model JSON file")
    sequences.set_defaults(func=_cmd_sequences)

    validate = sub.add_parser("validate", help="check a model file for defects")
    validate.add_argument("model", help="model JSON file")
    validate.set_defaults(func=_cmd_validate)

    bench = sub.add_parser("bench", help="run the scalability benchmark")
    bench.add_argument(
        "--feature",
        required=True,
        choices=[f.value for f in BenchFeature],
        help="model feature to scale",
    )
    bench.add_argument(
        "--sizes",
        default=",".join(str(s) for s in (1, 10, 100, 1000, 10000, 100000)),
        help="comma separated sizes (default: powers of ten up to 100000)",
    )
    bench.add_argument("--reps", type=int, default=10, help="repetitions per size")
    bench.add_argument(
        "--out", default="bench_runs.csv", help="per-run CSV output path"
    )
    bench.add_argument(
        "--median-out",
        default=None,
        help="aggregate CSV output path (default: derived from --out)",
    )
    bench.add_argument(
        "--no-load",
        action="store_true",
        help="exclude model load from the timed region",
    )
    bench.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        help="soft per-point timeout in seconds",
    )
    bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FlowcheckError as exc:
        return _fail(f"error: {exc}")
    except Exception as exc:  # a crash must not read as "violations found"
        return _fail(f"error: internal: {type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
