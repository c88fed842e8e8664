"""Throughput measurement and shard-parallel execution.

A benchmark runs the same stream through the engine once per requested window
size and reports per-query latency statistics.  With more than one shard, the
two-entity groundings are split round-robin across worker processes, each of
which processes the full stream against its own subset; single-entity
composite entities are computed everywhere but reported from the first shard
only, so the merged output has no duplicates.
"""

from __future__ import annotations

import csv
import math
import statistics
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .engine import (ConfigError, EngineConfig, RecognitionResult, ResultEntry, run_stream,
                     select_reported)
from .language import EventDescription, all_pairs


@dataclass(frozen=True)
class BenchReport:
    wm: int
    step: int
    shards: int
    avg_ms: float
    p95_ms: float
    max_ms: float
    realtime: bool

    def row(self) -> dict:
        return {
            "wm": self.wm,
            "step": self.step,
            "shards": self.shards,
            "avg_ms": round(self.avg_ms, 3),
            "p95_ms": round(self.p95_ms, 3),
            "max_ms": round(self.max_ms, 3),
            "realtime": str(self.realtime).lower(),
        }


CSV_FIELDS = ["wm", "step", "shards", "avg_ms", "p95_ms", "max_ms", "realtime"]


def write_report(reports: list[BenchReport], path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
        writer.writeheader()
        for rep in reports:
            writer.writerow(rep.row())


def partition_pairs(pairs: list[tuple], shards: int) -> list[set[tuple]]:
    return [set(pairs[i::shards]) for i in range(shards)]


def _shard_task(args):
    ed, cfg, records, pair_filter, keep_unary, last_q = args
    timings: list[float] = []
    _engine, results = run_stream(
        ed, cfg, records, last_q=last_q, pair_filter=pair_filter, timings=timings
    )
    kept = []
    for res in results:
        entries = [
            e for e in res.entries if len(e.args) != 1 or keep_unary
        ]
        kept.append((res.q, entries))
    return timings, kept


def run_sharded(
    ed: EventDescription,
    cfg: EngineConfig,
    records: list,
    shards: int,
    last_q=None,
) -> tuple[list[RecognitionResult], list[float]]:
    """Run the stream over `shards` worker processes and merge the results.

    Returns merged per-query results and the effective per-query latencies
    (the slowest shard at each query, since shards run in parallel).
    """
    if shards < 1:
        raise ConfigError(f"shards must be at least 1, got {shards}")
    pairs = all_pairs(ed)
    if shards > max(1, len(pairs)):
        warnings.warn(
            f"requested {shards} shards for {len(pairs)} pair groundings; "
            f"using {max(1, len(pairs))}"
        )
        shards = max(1, len(pairs))
    if shards == 1:
        timings: list[float] = []
        _engine, results = run_stream(ed, cfg, records, last_q=last_q, timings=timings)
        return results, timings

    filters = partition_pairs(pairs, shards)
    tasks = [
        (ed, cfg, records, filters[i], i == 0, last_q) for i in range(shards)
    ]
    with ProcessPoolExecutor(max_workers=shards) as pool:
        outputs = list(pool.map(_shard_task, tasks))

    per_query: dict[int, list[ResultEntry]] = {}
    for _timings, kept in outputs:
        for q, entries in kept:
            per_query.setdefault(q, []).extend(entries)
    merged = []
    for q in sorted(per_query):
        entries = sorted(
            per_query[q], key=lambda e: (e.name, e.args, str(e.value), e.start)
        )
        merged.append(RecognitionResult(q, entries, select_reported(entries, cfg.mode)))
    latencies = [max(col) for col in zip(*(t for t, _ in outputs))]
    return merged, latencies


def benchmark(
    ed: EventDescription,
    records: list,
    wms: list[int],
    step: int,
    shards: int = 1,
    tick_ms: int = 40,
) -> list[BenchReport]:
    if tick_ms <= 0:
        raise ConfigError("tick_ms must be positive")
    if shards < 1:
        raise ConfigError(f"shards must be at least 1, got {shards}")
    reports = []
    for wm in wms:
        cfg = EngineConfig(wm=wm, step=step)
        _results, latencies = run_sharded(ed, cfg, records, shards)
        if not latencies:
            continue
        avg = statistics.fmean(latencies)
        p95 = sorted(latencies)[max(0, math.ceil(0.95 * len(latencies)) - 1)]
        reports.append(
            BenchReport(
                wm=wm,
                step=step,
                shards=shards,
                avg_ms=avg,
                p95_ms=p95,
                max_ms=max(latencies),
                realtime=avg < step * tick_ms,
            )
        )
    return reports
