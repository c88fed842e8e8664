"""Small rule packs that several test modules share."""

DECLARATIONS = """domain ent = {a, b}
input event e/1
input fluent g/1
simple fluent f/1
sd fluent h/1
ground f over ent
ground h over ent
"""

# A rule on line 8 that the engine cannot evaluate, and what validate says
# about it.  The first three pass a left-to-right reading of the body that
# takes the head's time as bound.
_RULES = {
    "head time unbound": (
        "initiatedAt(f(X) = true, T) <- happensAt(e(X), T2).",
        "time variable 'T' is not bound",
    ),
    "holdsAt time unbound": (
        "initiatedAt(f(X) = true, T) <- happensAt(e(X), T2), holdsAt(g(X) = true, T).",
        "no binding reaches holdsAt(g(X) = true, T)",
    ),
    "holdsFor variable outside the head": (
        "holdsFor(h(X) = true, I) <- holdsFor(g(Y) = true, I).",
        "variable 'Y' is not in the head",
    ),
    "interval used before its definition": (
        "holdsFor(h(X) = true, I) <- union_all([I1], I), holdsFor(g(X) = true, I1).",
        "interval variable 'I1' is used before it is defined",
    ),
    "head interval undefined": (
        "holdsFor(h(X) = true, I) <- holdsFor(g(X) = true, I1).",
        "interval variable 'I' is not defined",
    ),
    "happensAt in a holdsFor rule": (
        "holdsFor(h(X) = true, I) <- happensAt(e(X), T), holdsFor(g(X) = true, I).",
        "literal happensAt(e(X), T) is not supported in holdsFor rules",
    ),
    "intersection of nothing": (
        "holdsFor(h(X) = true, I) <- holdsFor(g(X) = true, I1), intersect_all([], I).",
        "intersect_all([], I) has no input",
    ),
}
UNEVALUABLE = {name: (DECLARATIONS + rule + "\n", says) for name, (rule, says) in _RULES.items()}

# evaluable, but X is bound to an entity, so the ordering comparison fails
# at the first query that reaches it
ENTITY_COMPARED = DECLARATIONS + "initiatedAt(f(X) = true, T) <- happensAt(e(X), T), X < 3.\n"

# every pack above, by name
BY_NAME = {"entity compared": ENTITY_COMPARED,
           **{name: text for name, (text, _says) in UNEVALUABLE.items()}}
