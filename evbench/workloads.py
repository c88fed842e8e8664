"""Seeded input streams for the evrec benchmark.

A workload turns a scene number and the scene's generator seed (see
generator_seed) into a JSONL stream in the format `evrec run` reads.  The same
scene always gives the same stream.  Run as a script to write
one stream file (the benchmark does this in a child process, so that the
generator's memory does not count towards the measured peak):

    PYTHONPATH=src python3 evbench/workloads.py desk 3 <generator seed> out.jsonl
"""

from __future__ import annotations

import collections
import dataclasses
import random
import sys
from dataclasses import dataclass

import numpy

from evrec import generator, streams
from evrec.engine import record_arrival, record_occurrence
from evrec.streams import DelayModel, InputRecord

# Scenes 0 .. SCENES-1 have recorded reference outputs; a seed picks one.
# Nominal loads below are medians over generator seeds 100-199 (desk) and
# 100-123 (crowd).
SCENES = 32

# A conditioned scene is redrawn (generator seed scene + SCENES * attempt)
# until each figure of its scene_load is this close to the workload's nominal.
LOAD_TOLERANCE = 0.04
ATTEMPTS = 200

# Share of interval records that get a later update or retract in `revise`.
REVISED_SHARE = 0.2


@dataclass(frozen=True)
class Workload:
    name: str
    wm: int
    step: int
    entities: int
    duration: int
    copies: int
    revise: bool = False  # delayed arrival plus update/retract records
    # Nominal scene_load of a scene; a 0 figure is not conditioned on, and an
    # empty tuple takes any scene.
    load: tuple[float, float, float] | tuple[()] = ()

    def spec(self, seed: int) -> generator.GenSpec:
        return generator.GenSpec(
            entities=self.entities,
            duration=self.duration,
            seed=seed,
            scale_copies=self.copies,
        )


def scene_load(w: Workload, records: list[InputRecord]) -> tuple[float, float, float]:
    """Figures of a scene that predict how long the engine takes on it.

    The first is the walking load: the sum over ticks of the squared number of
    walking intervals holding.  The `moving` rules pair every walking entity
    with every other, so query cost grows with it.  The other two are the
    number of interval records a query window overlaps, at the median and at
    the 90th-percentile query.  Over 16 unconditioned desk scenes, timed
    against a calibration loop to cancel host speed, the walking load
    correlated 0.93 with total replay time, and the window counts 0.90 with
    median and 0.90 with 90th-percentile query latency.  On crowd's window of
    two steps the window counts predict nothing; the walking load correlated
    0.80 with its median latency.
    """
    walking = collections.Counter()
    spans = []
    last = 0
    for r in records:
        if r.kind == "interval":
            spans.append((r.start, r.end))
            last = max(last, r.end)
            if r.name == "walking":
                walking.update(range(r.start, r.end))
        elif r.kind == "event":
            last = max(last, r.t)
    queries = numpy.arange(w.step, w.step * -(-(last + w.wm) // w.step) + 1, w.step)[:, None]
    starts, ends = numpy.array(spans, dtype=numpy.int64).T
    in_window = ((ends > queries - w.wm) & (starts <= queries)).sum(axis=1)
    return (
        sum(n * n for n in walking.values()),
        float(numpy.median(in_window)),
        float(numpy.quantile(in_window, 0.9)),
    )


def generator_seed(w: Workload, scene: int) -> int:
    """The generator seed of a scene: the first of scene, scene + SCENES, ...
    whose stream has a scene_load within LOAD_TOLERANCE of the workload's
    nominal load, so that runs on different seeds measure the engine rather
    than the scene.  The search takes up to a minute, so make_reference.py
    records its result in reference.json and a run reads it from there."""
    for attempt in range(ATTEMPTS):
        seed = scene + SCENES * attempt
        if not w.load or all(
            not nominal or abs(got / nominal - 1) <= LOAD_TOLERANCE
            for got, nominal in zip(scene_load(w, generator.generate(w.spec(seed))), w.load)
        ):
            return seed
    raise RuntimeError(f"no {w.name} scene near the nominal load for scene {scene}")


WORKLOADS = {
    # The ROADMAP desk scene: 50 entities, window 50x the step, in order.
    "desk": Workload(
        "desk", wm=1250, step=25, entities=10, duration=3000, copies=5, load=(242_000, 387, 905)
    ),
    # 150 entities (22,350 grounded pairs) and a window of two steps: per-pair
    # fixed costs dominate and the window holds little content.
    "crowd": Workload(
        "crowd", wm=40, step=20, entities=150, duration=2100, copies=1, load=(1_440_000, 0, 0)
    ),
    # The desk scene with bounded delays and revisions.
    "revise": Workload(
        "revise",
        wm=1250,
        step=25,
        entities=10,
        duration=3000,
        copies=5,
        load=(242_000, 387, 905),
        revise=True,
    ),
}


def build(w: Workload, scene: int, seed: int) -> list[InputRecord]:
    """The stream the benchmark replays for `scene`, whose generator seed is
    `seed`."""
    records = generator.generate(w.spec(seed))
    if w.revise:
        records, _ = revised_streams(records, w, scene)
    return records


def revised_streams(
    records: list[InputRecord], w: Workload, scene: int
) -> tuple[list[InputRecord], list[InputRecord]]:
    """Delay and revise an in-order stream.

    Returns the stream as it arrives (sorted by arrival, each revision after
    the record it revises) and the in-order stream with every revision
    applied, whose final-stable output the arriving stream must reproduce.

    Engine inputs get uniform delays in [0, (wm-step)//2].  A REVISED_SHARE of
    interval records then gets an `update` (new end) or a `retract`, arriving
    after the record and less than wm-step after its start.  Every arrival is
    thus less than wm-step after the occurrence it changes, the bound under
    which final-stable output is unaffected.  Coordinate samples stay in
    order: closeness preprocessing reads the whole file before the first query.
    """
    bound = w.wm - w.step
    rng = random.Random(f"revise/{scene}")
    coords = [r for r in records if r.kind == "coord"]
    inputs = [r for r in records if r.kind != "coord"]
    delayed = streams.simulate_delays(inputs, DelayModel("uniform", 0, bound // 2, seed=scene))
    revisions = []
    revised: dict[str, InputRecord | None] = {}  # id -> record as revised; None = retracted
    for rec in delayed:
        if rec.kind != "interval" or rng.random() >= REVISED_SHARE:
            continue
        arrival = rng.randint(rec.arrival + 1, rec.start + bound - 1)
        if rng.random() < 0.5:
            revisions.append(InputRecord(id=rec.id, action="retract", arrival=arrival))
            revised[rec.id] = None
        else:
            end = rec.start + rng.randint(1, 2 * (rec.end - rec.start))
            update = dataclasses.replace(rec, action="update", end=end, arrival=arrival)
            revisions.append(update)
            revised[rec.id] = dataclasses.replace(update, action="assert", arrival=None)
        if not arrival - rec.start < bound:
            raise AssertionError(f"revision of {rec.id} arrives {arrival - rec.start} late")
    for rec in delayed:
        if not rec.arrival - record_occurrence(rec) < bound:
            raise AssertionError(f"record {rec.id} delayed beyond wm-step")
    # stable sort: coordinates, then originals, then revisions on equal arrival
    arriving = sorted(coords + delayed + revisions, key=record_arrival)
    in_order = [revised.get(r.id, r) for r in records]
    return arriving, [r for r in in_order if r is not None]


if __name__ == "__main__":
    name, scene, seed, out = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
    streams.write_stream(build(WORKLOADS[name], scene, seed), out)
