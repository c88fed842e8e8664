"""Generate a synthetic scene and measure per-query latency.

Builds a 20-entity stream, preprocesses coordinate tracks into pairwise
closeness intervals, then times recognition for a few window sizes.  The
same thing is available from the command line as `evrec gen` / `evrec bench`.
"""

import importlib.resources as res

from evrec import bench, generator, language, streams

spec = generator.GenSpec(entities=10, duration=600, seed=7, scale_copies=2)
raw = generator.generate(spec)
print(f"generated {len(raw)} records "
      f"({sum(1 for r in raw if r.kind == 'coord')} coordinate samples)")

text = (res.files("evrec") / "rules" / "surveillance.rtec").read_text()
ed, _ = language.load(text)
ed, recs = streams.engine_input(ed, raw, 25.0)

reports = bench.benchmark(ed, recs, wms=[100, 200, 400], step=50)
for rep in reports:
    print(f"wm={rep.wm:4d}  avg={rep.avg_ms:7.2f}ms  p95={rep.p95_ms:7.2f}ms  "
          f"max={rep.max_ms:7.2f}ms  realtime={rep.realtime}")
