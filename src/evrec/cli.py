"""Command line front end: run recognition, generate streams, benchmark."""

from __future__ import annotations

import argparse
import sys

from . import bench as bench_mod
from . import generator, language, streams
from .engine import ConfigError, EngineConfig, EvaluationError, run_stream


def _load_rules(path: str):
    with open(path, "rb") as fh:
        text = language.decode(fh.read())
    ed, diagnostics = language.load(text)
    errors = [d for d in diagnostics if d.severity == "error"]
    for d in diagnostics:
        print(d, file=sys.stderr)
    if errors:
        print(f"error: {path}: {len(errors)} rule error(s)", file=sys.stderr)
        raise SystemExit(2)
    return ed


def _prepare(rules_path: str, input_path: str, close_threshold: float):
    if not close_threshold >= 0:  # nan compares false
        raise ConfigError(f"--close-threshold must be a non-negative number, not {close_threshold}")
    ed = _load_rules(rules_path)
    doc = streams.read_stream(input_path)
    for msg in doc.diagnostics:
        print(msg, file=sys.stderr)
    return streams.engine_input(ed, doc.records, close_threshold)


def _cmd_run(args) -> int:
    mode = "partial_stable" if args.mode == "partial" else args.mode
    ed, records = _prepare(args.rules, args.input, args.close_threshold)
    cfg = EngineConfig(wm=args.wm, step=args.step, mode=mode)
    engine, results = run_stream(ed, cfg, records)
    for msg in engine.diagnostics:
        print(msg, file=sys.stderr)
    streams.write_results(results, args.out)
    total = sum(len(r.reported) for r in results)
    print(f"wrote {total} entries over {len(results)} queries to {args.out}")
    return 0


def _cmd_gen(args) -> int:
    try:
        spec = generator.GenSpec(
            entities=args.entities,
            duration=args.duration,
            seed=args.seed,
            scale_copies=args.copies,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    records = generator.generate(spec)
    streams.write_stream(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _cmd_bench(args) -> int:
    try:
        wms = [int(x) for x in args.wm.split(",") if x]
    except ValueError:
        wms = []
    if not wms:
        raise ConfigError(f"bad window list {args.wm!r}; expected e.g. 100,200,400")
    ed, records = _prepare(args.rules, args.input, args.close_threshold)
    reports = bench_mod.benchmark(
        ed, records, wms, args.step, shards=args.shards, tick_ms=args.tick_ms
    )
    bench_mod.write_report(reports, args.report)
    for rep in reports:
        print(
            f"wm={rep.wm} step={rep.step} shards={rep.shards} "
            f"avg={rep.avg_ms:.2f}ms p95={rep.p95_ms:.2f}ms max={rep.max_ms:.2f}ms "
            f"realtime={rep.realtime}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evrec", description="Windowed composite-event recognition"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="recognise composite events over a stream")
    run_p.add_argument("--rules", required=True, help="rule pack (.rtec)")
    run_p.add_argument("--input", required=True, help="input stream (JSONL)")
    run_p.add_argument("--wm", type=int, required=True, help="window size in ticks")
    run_p.add_argument("--step", type=int, required=True, help="query spacing in ticks")
    run_p.add_argument(
        "--mode", choices=["asap", "partial", "final"], default="asap",
        help="which stability classes to report",
    )
    run_p.add_argument(
        "--close-threshold", type=float, default=25.0,
        help="distance (pixels) under which two entities count as close",
    )
    run_p.add_argument("--out", required=True, help="output path (JSONL)")
    run_p.set_defaults(func=_cmd_run)

    gen_p = sub.add_parser("gen", help="generate a synthetic stream")
    gen_p.add_argument("--entities", type=int, default=10)
    gen_p.add_argument("--duration", type=int, default=1000, help="ticks")
    gen_p.add_argument("--copies", type=int, default=1, help="scenario copies for scaling")
    gen_p.add_argument("--seed", type=int, default=0)
    gen_p.add_argument("--out", required=True, help="output path (JSONL)")
    gen_p.set_defaults(func=_cmd_gen)

    bench_p = sub.add_parser("bench", help="measure per-query latency")
    bench_p.add_argument("--rules", required=True)
    bench_p.add_argument("--input", required=True)
    bench_p.add_argument("--wm", required=True, help="comma-separated window sizes")
    bench_p.add_argument("--step", type=int, required=True)
    bench_p.add_argument("--shards", type=int, default=1, help="worker processes")
    bench_p.add_argument("--tick-ms", type=int, default=40)
    bench_p.add_argument("--close-threshold", type=float, default=25.0)
    bench_p.add_argument("--report", required=True, help="CSV report path")
    bench_p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        ConfigError,
        EvaluationError,
        language.RuleSyntaxError,
        language.StratificationError,
        streams.StreamFormatError,
        OSError,  # a missing file, or a directory where a file is named
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
