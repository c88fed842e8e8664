"""Record the reference output of every benchmark scene in reference.json.

    python3 evbench/make_reference.py

For an in-order workload the reference is each query's reported entries.  For
`revise` it is each query's final-stable entries from the in-order stream with
every revision applied, replayed over the query times of the arriving stream.
Each query's entries are kept as a short digest of their JSON lines, next to
the scene's generator seed (workloads.generator_seed).  Every
scene of every workload is re-recorded and the file is written afresh, in two
worker processes.  Record at a commit whose output is trusted: the benchmark
counts every query whose output differs from the reference as failed.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

WORKERS = 2  # each worker holds one scene's stream and engine in memory


def reference_digests(w, scene: int, path: Path) -> tuple[int, list[str]]:
    """The generator seed and per-query reference digests of one scene;
    `path` is scratch space."""
    import workloads
    from evrec import generator, streams

    seed = workloads.generator_seed(w, scene)
    records = generator.generate(w.spec(seed))
    last_q = None
    if w.revise:
        arriving, records = workloads.revised_streams(records, w, scene)
        streams.write_stream(arriving, path)
        last_q = run.prepare(w, path).query_times[-1]
    streams.write_stream(records, path)
    prep = run.prepare(w, path, last_q=last_q)
    p = run.replay(prep, prep.engine, w.revise)
    path.unlink()
    if p.error:
        raise RuntimeError(f"{w.name} scene {scene}: {p.error}")
    return seed, p.digests


def _job(job: tuple[str, int]) -> tuple[str, int, dict]:
    run.use_checkout_sources()
    import workloads

    name, scene = job
    run.WORK.mkdir(exist_ok=True)
    path = run.WORK / f"reference-{name}-{scene}.jsonl"
    seed, digests = reference_digests(workloads.WORKLOADS[name], scene, path)
    return name, scene, {"generator_seed": seed, "digests": "".join(digests)}


def main() -> int:
    run.use_checkout_sources()
    import workloads

    names = sorted(workloads.WORKLOADS)
    ref = {
        "digest": f"blake2b-{run.DIGEST_BYTES} per query",
        "scenes": workloads.SCENES,
        "workloads": {name: {} for name in names},
    }
    jobs = [(name, scene) for name in names for scene in range(workloads.SCENES)]
    with multiprocessing.get_context("spawn").Pool(WORKERS) as pool:
        for name, scene, entry in pool.imap_unordered(_job, jobs):
            ref["workloads"][name][str(scene)] = entry
            queries = len(entry["digests"]) // (2 * run.DIGEST_BYTES)
            print(f"{name} scene {scene}: generator seed {entry['generator_seed']}, {queries} queries")
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
