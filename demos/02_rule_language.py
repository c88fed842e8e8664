"""The rule language: declarations, clauses, shorthand and stratification.

Loads the bundled surveillance pack, shows its dependency levels, and
shows the holdsFor rule over interval constructs that the parser makes of an
`iff` shorthand definition.
"""

import importlib.resources as res

from evrec import language as lang

text = (res.files("evrec") / "rules" / "surveillance.rtec").read_text()
ed, diagnostics = lang.load(text)

print("declared names:", ", ".join(sorted(ed.declarations)))
print("diagnostics   :", diagnostics or "none")
print()
print("evaluation levels (inputs sit at 0):")
for name in ("walking", "close", "person", "moving", "moving_sd", "leaving_object"):
    print(f"  {name:15s} level {ed.fluent_level(name)}")

# The parser turns the shorthand form into one holdsFor clause over interval
# constructs.
pack = """
input fluent a/1
input fluent b/1
input fluent c/1
sd fluent g/1
domain ent = {x}
ground g over ent

g(X) = on iff (a(X) = on or b(X) = on), not c(X) = on.
"""
parsed = lang.parse(pack)
print()
print("shorthand definition parses to:")
print(parsed.rules[0])
