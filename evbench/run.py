"""The evrec benchmark.

Replays a seeded JSONL stream through the public path that `evrec run` uses:
language.load, streams.read_stream, streams.fill_auto_domains,
streams.closeness, Engine(ed, cfg), then for each query Engine.ingest,
Engine.query and streams.entry_to_json over the reported entries.  The replay
is a closed loop in one thread: the next query is issued when the previous one
returns.  Pacing queries by the wall clock would take the stream's real
duration, so the loop runs as fast as the engine allows.

    python3 evbench/run.py --workload desk --seed 3 --seconds 20 --trace 0

The seed picks one of workloads.SCENES scenes, whose per-query output was
recorded in reference.json (see make_reference.py).  A run replays the scene
in whole passes, each with a fresh engine, while another pass fits in
`--seconds` (at least one), and checks every query's output against the
reference.  It prints a report (host, seed, queries, every metric with its
unit, the check verdict) and, as its last line, one JSON object:

    {"correct": bool, "attempted": queries, "failed": queries, "metrics": {...}}

`--trace 0` reports the end-to-end metrics of BENCHMARK.json.  `--trace 1`
replays one pass untraced and one traced, and reports the per-layer metrics;
spans go to evbench/_work/.  Exit status 2 means the run could not start.

The end-to-end times are scaled to a reference host speed.  The host this
benchmark runs on is shared, and its speed drifts by 10-20% over seconds to
minutes, the same for every interpreter-bound loop.  So after each query (and
around each set-up) the run times a fixed calibration slice, outside the timed
region, and scales each time by CAL_REFERENCE_S over the median slice around
it.  The report also gives the unscaled wall-clock figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from tracing import NullTracer, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
REFERENCE = BENCH / "reference.json"
RULES = SRC / "evrec" / "rules" / "surveillance.rtec"

SETUP_REPEATS = 5  # setup_s is the median of this many set-ups
CAL_REFERENCE_S = 0.005  # a calibration slice's time at the reference host speed
CAL_NEIGHBOURS = 5  # a query is scaled by the median slice of queries i-5 .. i+5
CAL_SETUP_SLICES = 5  # slices timed before and after each set-up
CLOSE_THRESHOLD = 25.0  # pixels, the CLI default
DIGEST_BYTES = 4  # per-query digest: 8 hex characters

NULL = NullTracer()

INTERVAL_FUNCTIONS = (
    "holds_at",
    "intersect_all",
    "union_all",
    "relative_complement_all",
    "normalize",
    "clip_before",
    "make_intervals",
    "amalgamate",
    "start_points",
    "end_points",
)
STORE_METHODS = (
    ("add_event", "add"),
    ("add_interval", "add"),
    ("remove", "remove"),
    ("forget", "forget"),
    ("fluent_intervals", "fluent_intervals"),
)


class BenchError(Exception):
    pass


def use_checkout_sources():
    """Import evrec from src/ of this checkout, never from an installed copy."""
    if not (SRC / "evrec" / "__init__.py").is_file():
        raise BenchError(f"no evrec sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import evrec

    if Path(evrec.__file__).resolve().parent != (SRC / "evrec").resolve():
        raise BenchError(f"evrec imported from {evrec.__file__}, not from {SRC}")


def generate(workload: str, scene: int, seed: int) -> Path:
    """Write the scene's stream in a child process, so that the generator's
    memory stays out of this process's peak RSS."""
    WORK.mkdir(exist_ok=True)
    path = WORK / f"{workload}-{scene}.jsonl"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run(
        [sys.executable, str(BENCH / "workloads.py"), workload, str(scene), str(seed), str(path)],
        env=env,
        check=True,
        timeout=170,
    )
    return path


# ---------------------------------------------------------------------------
# set-up and replay


@dataclass
class Prepared:
    ed: object
    cfg: object
    engine: object
    ordered: list  # engine inputs in arrival order
    arrivals: list[int]
    query_times: range
    records_read: int
    pairs: list
    close_records: list


def prepare(w, stream_path: Path, tracer=NULL, last_q: int | None = None) -> Prepared:
    """Everything `evrec run` does before its first query.  `last_q` overrides
    the stream's own horizon (the revise reference replays an in-order stream
    over the query times of the arriving one)."""
    from evrec import bench, language, streams
    from evrec.engine import Engine, EngineConfig, record_arrival

    with tracer.span("language.load"):
        ed, diagnostics = language.load(RULES.read_text(encoding="utf-8"))
    errors = [d for d in diagnostics if d.severity == "error"]
    if errors:
        raise BenchError(f"rule errors: {errors}")
    with tracer.span("streams.read_stream"):
        doc = streams.read_stream(stream_path)
    with tracer.span("streams.fill_auto_domains"):
        ed = streams.fill_auto_domains(ed, doc.records)
    with tracer.span("streams.closeness"):
        records = [r for r in doc.records if r.kind != "coord"]
        coords = [r for r in doc.records if r.kind == "coord"]
        pairs = bench.all_pairs(ed)
        close_records = streams.closeness(coords, pairs, CLOSE_THRESHOLD) if coords else []
        records.extend(close_records)
    cfg = EngineConfig(wm=w.wm, step=w.step)
    with tracer.span("engine.init"):
        engine = Engine(ed, cfg)
    with tracer.span("arrival_sort"):
        # Stable sort on arrival alone: a retract record has no occurrence
        # time, so it cannot be ordered by one.
        ordered = sorted(records, key=record_arrival)
        arrivals = [record_arrival(r) for r in ordered]
    if last_q is None:
        horizon = max((max(a, _content_end(r)) for a, r in zip(arrivals, ordered)), default=0)
        last_q = cfg.step * -(-(horizon + cfg.wm) // cfg.step)
    return Prepared(
        ed=ed,
        cfg=cfg,
        engine=engine,
        ordered=ordered,
        arrivals=arrivals,
        query_times=range(cfg.step, last_q + 1, cfg.step),
        records_read=len(doc.records),
        pairs=pairs,
        close_records=close_records,
    )


def _content_end(rec) -> int:
    """Last tick a record's content reaches; a retract carries no time."""
    if rec.action == "retract":
        return 0
    if rec.kind == "interval":
        return rec.start if rec.end is None else rec.end
    return rec.t


def calibration_slice() -> float:
    """Seconds a fixed interpreter-bound loop takes: dict updates and integer
    arithmetic, like the engine's own inner loops."""
    t0 = perf_counter()
    d: dict[int, int] = {}
    for i in range(20_000):
        d[i % 997] = d.get(i % 997, 0) + i * i % 7
    return perf_counter() - t0


def host_scaled(times: list[float], slices: list[float]) -> list[float]:
    """Each time scaled to the reference host speed by the median calibration
    slice timed next to it (slices[i] follows times[i])."""
    k = CAL_NEIGHBOURS
    return [
        t * CAL_REFERENCE_S / statistics.median(slices[max(0, i - k) : i + k + 1])
        for i, t in enumerate(times)
    ]


def middle_tenth_mean(values: list[float]) -> float:
    """The mean of the sorted values from the 45th to the 55th percentile: the
    median, smoothed.  A pass's query latencies spread tenfold with the
    window's content, and the median falls where they rise most steeply,
    between the cheap queries of a filling or draining window and the full
    ones, so the middle value alone jumps with small shifts of the scene or
    of the host's speed."""
    s = sorted(values)
    return statistics.fmean(s[int(len(s) * 0.45) : math.ceil(len(s) * 0.55)])


def digest(lines: list[str]) -> str:
    return hashlib.blake2b("\n".join(lines).encode(), digest_size=DIGEST_BYTES).hexdigest()


@dataclass
class Pass:
    latencies: list[float]  # seconds per completed query: ingest + query + emit
    digests: list[str]  # one per completed query
    entries: int
    error: str | None = None
    # With calibrate: per completed query, the loop iteration's seconds
    # (latency plus the replay's own bookkeeping) and the calibration slice
    # timed after it.
    iterations: list[float] = field(default_factory=list)
    slices: list[float] = field(default_factory=list)


def replay(
    prep: Prepared, engine, finals_only: bool, tracer=NULL, observe=None, calibrate=False
) -> Pass:
    """One closed-loop pass over the stream.  A query that raises ends the pass:
    the engine cannot take the next query time after it."""
    from evrec.streams import entry_to_json

    ordered, arrivals = prep.ordered, prep.arrivals
    p = Pass([], [], 0)
    idx = 0
    for qi in prep.query_times:
        t0 = perf_counter()
        hi = bisect_right(arrivals, qi, lo=idx)
        t1 = perf_counter()
        try:
            if hi > idx:
                with tracer.span("engine.ingest"):
                    engine.ingest(ordered[idx:hi])
            with tracer.span("engine.query"):
                res = engine.query(qi)
            with tracer.span("streams.emit"):
                lines = [json.dumps(entry_to_json(e, qi)) for e in res.reported]
        except Exception as exc:  # counted as failed queries, reported below
            p.error = f"query {qi}: {exc!r}"
            return p
        p.latencies.append(perf_counter() - t1)
        if observe is not None:
            observe(engine, res, hi - idx)
        idx = hi
        p.entries += len(lines)
        if finals_only:
            lines = [ln for e, ln in zip(res.reported, lines) if e.stability == "final"]
        p.digests.append(digest(lines))
        if calibrate:
            p.iterations.append(perf_counter() - t0)
            p.slices.append(calibration_slice())
    return p


def check(p: Pass, expected: list[str], queries: int) -> int:
    """Failed queries: raised, never issued after a raise, or output that
    differs from the reference."""
    wrong = sum(1 for got, want in zip(p.digests, expected) if got != want)
    return wrong + queries - min(len(p.digests), len(expected))


# ---------------------------------------------------------------------------
# metrics


def end_to_end(w, stream_path: Path, expected: list[str], seconds: float) -> dict:
    from evrec.engine import Engine

    setups, scaled_setups = [], []
    prep = None
    for _ in range(SETUP_REPEATS):
        prep = None  # release the previous set-up before building the next
        slices = [calibration_slice() for _ in range(CAL_SETUP_SLICES)]
        t0 = perf_counter()
        prep = prepare(w, stream_path)
        setups.append(perf_counter() - t0)
        slices += [calibration_slice() for _ in range(CAL_SETUP_SLICES)]
        scaled_setups.append(setups[-1] * CAL_REFERENCE_S / statistics.median(slices))

    queries = len(prep.query_times)
    latencies: list[float] = []  # scaled to the reference host speed
    wall: list[float] = []
    loop_s = wall_loop_s = 0.0
    slices = []
    failed = passes = 0
    errors = []
    # One engine is alive at a time, so peak RSS does not depend on the
    # number of passes that fit in the run.
    engine, prep.engine = prep.engine, None
    start = perf_counter()
    while True:
        if engine is None:
            engine = Engine(prep.ed, prep.cfg)
        t0 = perf_counter()
        p = replay(prep, engine, w.revise, calibrate=True)
        took = perf_counter() - t0
        engine = None
        passes += 1
        latencies.extend(host_scaled(p.latencies, p.slices))
        loop_s += sum(host_scaled(p.iterations, p.slices))
        wall.extend(p.latencies)
        wall_loop_s += sum(p.iterations)
        slices.extend(p.slices)
        failed += check(p, expected, queries)
        if p.error:
            errors.append(p.error)
        if perf_counter() - start + took > seconds:
            break

    if len(latencies) < 2:
        raise BenchError(f"only {len(latencies)} queries completed: {errors}")
    ms = sorted(x * 1000.0 for x in latencies)
    p90 = statistics.quantiles(ms, n=10)[8]
    wall_ms = [x * 1000.0 for x in wall]
    metrics = {
        "query_ms_p50": (middle_tenth_mean(ms), "ms"),
        "query_ms_p90": (p90, "ms"),
        "throughput_ticks_per_s": (len(latencies) * w.step / loop_s, "ticks/s"),
        "setup_s": (statistics.median(scaled_setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    facts = {
        "queries_per_pass": queries,
        "passes": passes,
        "latency_samples": len(ms),
        "samples_above_p90": sum(1 for x in ms if x > p90),
        "calibration_slice_ms_median": statistics.median(slices) * 1000.0,
        "wall_query_ms_p50": middle_tenth_mean(wall_ms),
        "wall_query_ms_p90": statistics.quantiles(wall_ms, n=10)[8],
        "wall_throughput_ticks_per_s": len(wall) * w.step / wall_loop_s,
        "wall_setup_s_each": setups,
        "failed_query_share": failed / (passes * queries),
        "errors": errors,
    }
    return {"attempted": passes * queries, "failed": failed, "metrics": metrics, "facts": facts}


def per_layer(w, stream_path: Path, expected: list[str], trace_path: Path) -> dict:
    """Set-up and one untraced pass, then one traced pass with the library's
    layer boundaries wrapped.  Times are self times of the traced pass."""
    from evrec import intervals
    from evrec.engine import Engine, SdeStore

    tracer = Tracer()
    setup_steps: dict[str, list[float]] = {}
    prep = None
    for _ in range(SETUP_REPEATS):
        prep = None
        first = len(tracer.spans)
        prep = prepare(w, stream_path, tracer)
        for record in tracer.spans[first:]:
            setup_steps.setdefault(record["name"], []).append(record["end"] - record["start"])
    queries = len(prep.query_times)

    base = replay(prep, prep.engine, w.revise)
    prep.engine = None
    if not base.latencies:
        raise BenchError(f"no query completed: {base.error}")
    failed = check(base, expected, queries)

    gauges = Gauges(prep.ed)
    for fn in INTERVAL_FUNCTIONS:
        tracer.patch(intervals, fn, f"intervals.{fn}")
    for method, name in STORE_METHODS:
        tracer.patch(SdeStore, method, f"store.{name}")
    engine = Engine(prep.ed, prep.cfg)
    try:
        with tracer.span("pass"):
            traced = replay(prep, engine, w.revise, tracer, gauges.observe)
    finally:
        tracer.unpatch()
    failed += check(traced, expected, queries)
    tracer.write(trace_path)

    def med(step):
        return statistics.median(setup_steps[step])

    pair_keys = {frozenset(p) for p in prep.pairs}
    close_keys = {frozenset(r.args) for r in prep.close_records}
    loop_base = sum(base.latencies)
    loop_traced = sum(
        r["end"] - r["start"]
        for r in tracer.spans
        if r["name"] in ("engine.ingest", "engine.query", "streams.emit")
    )
    m = {
        "language.load_ms": (med("language.load") * 1e3, "ms"),
        "streams.read_stream_s": (med("streams.read_stream"), "s"),
        "streams.records_read": (prep.records_read, "count"),
        "streams.closeness_s": (med("streams.closeness"), "s"),
        "streams.close_pairs_evaluated": (len(pair_keys), "count"),
        "streams.close_pair_yield": (len(close_keys) / max(1, len(pair_keys)), "ratio"),
        "streams.emit_ms": (tracer.self_seconds("streams.emit") * 1e3, "ms"),
        "streams.entries_emitted": (traced.entries, "count"),
        "engine.init_ms": (med("engine.init") * 1e3, "ms"),
        "engine.ingest_ms": (tracer.self_seconds("engine.ingest") * 1e3, "ms"),
        "engine.records_ingested": (gauges.ingested, "count"),
        "engine.query_self_s": (tracer.self_seconds("engine.query"), "s"),
        "engine.store_records_max": (gauges.records_max, "count"),
        "engine.store_keys_max": (gauges.keys_max, "count"),
        "engine.store_live_key_share": (gauges.live / max(1, gauges.held), "ratio"),
        "engine.cache_groundings_max": (gauges.cache_max, "count"),
        "engine.sd_yield": (gauges.sd_out / max(1, gauges.sd_pairs), "ratio"),
        "engine.diagnostics": (len(engine.diagnostics), "count"),
    }
    for stability in ("open", "partial", "final"):
        m[f"engine.entries.{stability}"] = (gauges.stability.get(stability, 0), "count")
    for name in ("add", "remove", "forget", "fluent_intervals"):
        m[f"store.{name}.calls"] = (tracer.calls(f"store.{name}"), "count")
        m[f"store.{name}.ms"] = (tracer.self_seconds(f"store.{name}") * 1e3, "ms")
    for fn in INTERVAL_FUNCTIONS:
        m[f"intervals.{fn}.calls"] = (tracer.calls(f"intervals.{fn}"), "count")
        m[f"intervals.{fn}.ms"] = (tracer.self_seconds(f"intervals.{fn}") * 1e3, "ms")
    m["trace.overhead_ratio"] = (loop_traced / loop_base - 1.0, "ratio")
    facts = {
        "queries_per_pass": queries,
        "passes": 2,
        "untraced_loop_s": loop_base,
        "traced_loop_s": loop_traced,
        "spans": trace_path.name,
        "failed_query_share": failed / (2 * queries),
        "errors": [e for e in (base.error, traced.error) if e],
    }
    return {"attempted": 2 * queries, "failed": failed, "metrics": m, "facts": facts}


class Gauges:
    """Engine state read after each traced query, outside every span."""

    def __init__(self, ed):
        self.sd_names = [n for n in ed.groundings if ed.kind_of(n) == "sd"]
        self.sd_grounded = sum(len(ed.grounded_tuples(n)) for n in self.sd_names)
        self.ingested = self.records_max = self.keys_max = self.cache_max = 0
        self.live = self.held = self.sd_out = self.sd_pairs = 0
        self.stability: dict[str, int] = {}

    def observe(self, engine, res, ingested: int):
        store = engine.store
        self.ingested += ingested
        self.records_max = max(self.records_max, len(store.by_id))
        slots = [s for per_args in store.events.values() for s in per_args.values()]
        slots += [
            s
            for per_args in store.durative.values()
            for per_value in per_args.values()
            for s in per_value.values()
        ]
        self.keys_max = max(self.keys_max, len(slots))
        self.held += len(slots)
        self.live += sum(1 for s in slots if s)
        self.cache_max = max(self.cache_max, len(engine.prev_cache))
        self.sd_pairs += self.sd_grounded
        self.sd_out += sum(
            1
            for (name, _args), per_value in engine.prev_cache.items()
            if name in self.sd_names and any(per_value.values())
        )
        for e in res.entries:
            self.stability[e.stability] = self.stability.get(e.stability, 0) + 1


# ---------------------------------------------------------------------------
# command line


def host_facts() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def load_reference(workload: str, scene: int) -> tuple[int, list[str]]:
    """The scene's generator seed and its per-query digests."""
    with open(REFERENCE, encoding="utf-8") as fh:
        entry = json.load(fh)["workloads"][workload][str(scene)]
    packed = entry["digests"]
    width = 2 * DIGEST_BYTES
    return entry["generator_seed"], [packed[i : i + width] for i in range(0, len(packed), width)]


def measure(
    w, seconds: float, trace: bool, expected: list[str], stream_path: Path, spans_path: Path
) -> dict:
    if trace:
        out = per_layer(w, stream_path, expected, spans_path)
    else:
        out = end_to_end(w, stream_path, expected, seconds)
    out["correct"] = out["failed"] == 0
    return out


def report(result: dict, header: dict):
    for key, value in header.items():
        print(f"{key}: {value}")
    for key, value in result["facts"].items():
        print(f"{key}: {value}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name}: {value:.6g} {unit}")
    verdict = "ok" if result["correct"] else "FAILED"
    print(f"check: {verdict} ({result['failed']} of {result['attempted']} queries failed)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        use_checkout_sources()
        import workloads

        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}")
        w = workloads.WORKLOADS[args.workload]
        scene = args.seed % workloads.SCENES
        generator_seed, expected = load_reference(w.name, scene)
        stream_path = generate(w.name, scene, generator_seed)
        spans_path = WORK / f"spans-{w.name}-{args.seed}.jsonl"
        try:
            result = measure(w, args.seconds, bool(args.trace), expected, stream_path, spans_path)
        finally:
            stream_path.unlink()  # tens of MB per scene
    except (BenchError, OSError, KeyError, subprocess.SubprocessError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 2
    header = {"workload": w.name, "seed": args.seed, "scene": scene, "trace": args.trace}
    header.update(host_facts())
    report(result, header)
    with open(WORK / f"result-{w.name}-{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({**header, **result}, fh, indent=1)
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
