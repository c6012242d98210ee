"""Command line interface.

    flowcheck analyze MODEL --constraints FILE [--dump-propagation] [--timing]
    flowcheck sequences MODEL
    flowcheck validate MODEL
    flowcheck bench [--feature NAME] [--sizes 1,10,100] [--reps 3] [--out FILE]

The three model commands read a command line that spells each option in
full, at most once, and holds no path starting with ``-`` without
building argparse's parser; every other command line goes to that
parser, which prints the help and every usage error.  Importing this
module loads neither argparse nor gettext.

Exit codes: 0 no violations, 1 violations found, 2 usage or load errors
and unexpected failures.
Reports are deterministic: two runs over the same inputs produce byte
identical output.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from types import SimpleNamespace

from .analysis import DataFlowAnalysis, collector_paused, run_pipeline
from .constraints import escape_controls, format_report, load_constraints
from .errors import FlowcheckError, ModelLoadError
from .loader import load_model

__all__ = ["main", "propagation_dump"]


def propagation_dump(propagated) -> str:
    """Per element: node labels, then each variable with its labels."""
    lines = []
    for index, sequence in enumerate(propagated):
        lines.append(f"SEQUENCE {index}")
        for element_index, result in enumerate(sequence.results):
            element = result.element
            node = ",".join(result.node_labels.names()) or "-"
            lines.append(escape_controls(
                f"ELEM {element_index} {element.kind} {element.element_id} NODE {node}"))
            for variable in result.variables:
                labels = ",".join(variable.labels.names()) or "-"
                lines.append(escape_controls(f"VAR {variable.name} {labels}"))
    return "\n".join(lines)


def _fail(message: str) -> int:
    print(message, file=sys.stderr)
    return 2


def _cannot_load(path, exc: ModelLoadError) -> int:
    for defect in exc.defects:
        print(escape_controls(defect), file=sys.stderr)
    return _fail(f"error: cannot load model '{path}'")


def _cmd_analyze(args) -> int:
    def constraints_for(model):
        if not args.constraints:
            return []
        return load_constraints(args.constraints, model.dictionary)

    # model and sequences are held until return, so that freeing them is
    # not timed as part of the report stage
    try:
        model, sequences, propagated, constraints, violations, timings = run_pipeline(
            lambda timings: load_model(args.model, timings), constraints_for
        )
    except ModelLoadError as exc:
        return _cannot_load(args.model, exc)
    dump = propagation_dump(propagated) if args.dump_propagation else ""
    report = format_report(violations, [c.name for c in constraints])
    timings.lap("report")
    if dump:  # a model without usage scenarios dumps no line
        print(dump)
    print(report)
    if args.timing:
        split = ", ".join(f"{part} {ms:.1f}" for part, ms in timings.load_split_ms.items())
        for stage, ms in timings.stage_ms.items():
            print(f"{stage} {ms:.1f} ms" + (f" ({split})" if stage == "load" else ""),
                  file=sys.stderr)
        print(f"elapsed {timings.total_ms:.1f} ms", file=sys.stderr)
        marks = ", ".join(f"{stage} {mib:.1f}" for stage, mib in timings.maxrss_mib.items())
        print(f"maxrss {max(timings.maxrss_mib.values()):.1f} MiB ({marks})", file=sys.stderr)
    return 1 if any(violations.values()) else 0


def _cmd_sequences(args) -> int:
    try:
        analysis = DataFlowAnalysis.from_file(args.model)
    except ModelLoadError as exc:
        return _cannot_load(args.model, exc)
    for index, sequence in enumerate(analysis.find_all_sequences()):
        print(f"SEQUENCE {index}")
        for element_index, element in enumerate(sequence):
            print(escape_controls(f"{element_index} {element.kind} {element.element_id}"))
    return 0


def _cmd_validate(args) -> int:
    try:
        load_model(args.model)
    except ModelLoadError as exc:
        for defect in exc.defects:
            print(escape_controls(defect))
        print(f"{len(exc.defects)} defect(s)")
        return 2
    print("OK")
    return 0


def _feature(name: str):
    """The ``--feature`` argument; only ``bench`` imports its harness."""
    import argparse

    from .benchgen import BenchFeature
    try:
        return BenchFeature(name)
    except ValueError:
        names = ", ".join(repr(feature.value) for feature in BenchFeature)
        raise argparse.ArgumentTypeError(f"invalid choice: {name!r} (choose from {names})") from None


def _cmd_bench(args) -> int:
    from .benchgen import BenchConfig, BenchFeature, run_bench, write_bench_json

    try:
        sizes = tuple(int(part) for part in args.sizes.split(",") if part)
    except ValueError:
        return _fail("error: --sizes must be a comma separated list of integers")
    if not sizes or any(size < 1 for size in sizes):
        return _fail("error: --sizes needs positive integers")
    if args.reps < 1:
        return _fail("error: --reps needs a positive integer")
    if not 0 < args.timeout < float("inf"):
        return _fail("error: --timeout needs a positive, finite number of seconds")
    # checked before the first point, so that no measurement is thrown away
    out = Path(args.out)
    if out.is_dir() or not os.access(out if out.exists() else out.parent, os.W_OK):
        return _fail(f"error: cannot write --out '{out}'")
    features = [args.feature] if args.feature else list(BenchFeature)

    def progress(result):
        median = "-" if result.median_ms is None else f"{result.median_ms:.3f} ms"
        print(
            f"{result.feature.value} size={result.size} median={median} [{result.outcome}]",
            file=sys.stderr,
        )

    results = [
        result
        for feature in features
        for result in run_bench(
            BenchConfig(feature, sizes, args.reps, args.timeout), progress=progress
        )
    ]
    write_bench_json(results, args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    import argparse

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
        help="print the time of each stage, the total and the peak memory to stderr",
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
        type=_feature,
        help="model feature to scale (default: all four, one after another)",
    )
    bench.add_argument(
        "--sizes",
        default=",".join(str(s) for s in (1, 10, 100, 1000, 10000, 100000)),
        help="comma separated sizes (default: powers of ten up to 100000)",
    )
    bench.add_argument("--reps", type=int, default=10, help="repetitions per size")
    bench.add_argument("--out", default="bench.json", help="JSON output path")
    bench.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        help="soft per-point timeout in seconds",
    )
    bench.set_defaults(func=_cmd_bench)

    return parser


_COMMANDS = {"analyze": _cmd_analyze, "sequences": _cmd_sequences, "validate": _cmd_validate}
# analyze's options, each with the attribute argparse stores it in
_ANALYZE_OPTIONS = {"--constraints": "constraints", "--dump-propagation": "dump_propagation",
                    "--timing": "timing"}


def _read(argv: list):
    """What ``build_parser().parse_args(argv)`` returns for a plain
    ``analyze``, ``sequences`` or ``validate`` command line: one model
    path, and each option at most once and spelled in full, with neither
    the path nor an option's value starting with ``-``.  None for every
    other command line, which argparse then reads, helps with or refuses."""
    func = _COMMANDS.get(argv[0]) if argv else None
    if func is None:
        return None
    args = SimpleNamespace(command=argv[0], func=func)
    options = {}
    if func is _cmd_analyze:
        args.constraints, args.dump_propagation, args.timing = None, False, False
        options = dict(_ANALYZE_OPTIONS)
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            if hasattr(args, "model"):
                return None
            args.model = token
            continue
        name = options.pop(token, None)  # a repeated option is no longer there
        if name is None:
            return None
        if name == "constraints":
            args.constraints = next(tokens, "-")
            if args.constraints[:1] == "-":
                return None
        else:
            setattr(args, name, True)
    return args if hasattr(args, "model") else None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read(argv) or build_parser().parse_args(argv)
    # one pause for the whole command, so that no collection scans the
    # model, the sequences and the deltas while the report is written
    try:
        with collector_paused():
            return args.func(args)
    except FlowcheckError as exc:
        return _fail(f"error: {exc}")
    except Exception as exc:  # a crash must not read as "violations found"
        return _fail(f"error: internal: {type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
