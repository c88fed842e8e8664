"""Windowed recognition over a small hand-written scene.

A person walks through the scene, drops an object (it appears inactive next
to them) and the object is later removed.  The engine is queried every 20
ticks with a 40-tick window; watch the recognised interval grow, close and
stabilise.
"""

import importlib.resources as res

from evrec import EngineConfig, InputRecord, language, run_stream

text = (res.files("evrec") / "rules" / "surveillance.rtec").read_text()
ed, _ = language.load(text)
ed = ed.with_domain("entity", ("p1", "obj1"))

scene = [
    InputRecord(id="w", kind="interval", name="walking", args=("p1",),
                value="true", start=5, end=80),
    InputRecord(id="c", kind="interval", name="close", args=("p1", "obj1"),
                value="true", start=10, end=40),
    InputRecord(id="i", kind="interval", name="inactive", args=("obj1",),
                value="true", start=20, end=60),
    InputRecord(id="a", kind="event", name="appear", args=("obj1",), t=20),
    InputRecord(id="d", kind="event", name="disappear", args=("obj1",), t=60),
]

_engine, results = run_stream(ed, EngineConfig(wm=40, step=20), scene)
for res_ in results:
    for e in res_.entries:
        if e.name == "leaving_object":
            end = "OPEN" if e.end is None else e.end
            print(f"q={res_.q:3d}  leaving_object{e.args} "
                  f"[{e.start}, {end})  {e.stability}")
