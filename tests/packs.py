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
    "input fluent as a head": (
        "initiatedAt(g(X) = true, T) <- happensAt(e(X), T).",
        "'g' is an input fluent; no rule can define it",
    ),
    "input event as a head": (
        "happensAt(e(X), T) <- happensAt(start(g(X) = true), T).",
        "'e' is an input event; no rule can define it",
    ),
}
UNEVALUABLE = {name: (DECLARATIONS + rule + "\n", says) for name, (rule, says) in _RULES.items()}

# evaluable, but X is bound to an entity, so the ordering comparison fails
# at the first query that reaches it
ENTITY_COMPARED = DECLARATIONS + "initiatedAt(f(X) = true, T) <- happensAt(e(X), T), X < 3.\n"

# A name the engine could give no grounding, so no output, and what validate
# says about it.
UNGROUNDED = {
    "grounding shorter than the arity": (
        DECLARATIONS.replace("sd fluent h/1", "sd fluent h/2")
        + "holdsFor(h(X, Y) = true, I) <- holdsFor(g(X) = true, I1), holdsFor(g(Y) = true, I2), "
        "intersect_all([I1, I2], I).\n",
        "'h' has arity 2, but its grounding ent gives tuples of length 1",
    ),
    "event head variable left free": (
        DECLARATIONS + "event echo/2\nhappensAt(echo(X, Y), T) <- happensAt(e(X), T).\n",
        "head variable 'Y' is bound by no literal in the rule for echo(X, Y)",
    ),
}

# every pack above, by name
BY_NAME = {"entity compared": ENTITY_COMPARED,
           **{name: text for name, (text, _says) in (UNEVALUABLE | UNGROUNDED).items()}}
