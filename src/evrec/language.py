"""Rule-pack language: declarations, clauses and the `iff` shorthand.

A rule pack is UTF-8 text (conventionally ``.rtec``).  ``%`` starts a
comment.  Declarations are self-delimiting headers::

    input event appear/1
    input fluent walking/1
    simple fluent moving/2
    sd fluent moving_sd/2
    domain entity = {p1, p2, obj1}
    domain entity = auto            % filled from the stream at load time
    ground moving over pairs(entity)

Clauses end with ``.`` and use ``<-`` for implication and ``=`` to attach a
value to a fluent::

    initiatedAt(moving(P1, P2) = true, T) <-
        happensAt(start(walking(P1) = true), T),
        holdsAt(walking(P2) = true, T),
        holdsAt(close(P1, P2) = true, T).

    holdsFor(moving_sd(P1, P2) = true, I) <-
        holdsFor(walking(P1) = true, I1),
        holdsFor(walking(P2) = true, I2),
        holdsFor(close(P1, P2) = true, I3),
        intersect_all([I1, I2, I3], I).

A fluent defined by a boolean combination of other fluent-values can use the
shorthand form, which the parser expands into a single holdsFor clause::

    g(X) = on iff (a(X) = on or b(X) = on), not c(X) = on.

Variables start with an upper-case letter or underscore; everything else is a
constant.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from graphlib import CycleError, TopologicalSorter
from typing import Iterator, Optional, Union

# ---------------------------------------------------------------------------
# Terms and AST


def is_var(term: object) -> bool:
    return isinstance(term, str) and bool(term) and (term[0].isupper() or term[0] == "_")


Term = Union[str, int]


@dataclass(frozen=True)
class FluentValue:
    name: str
    args: tuple[Term, ...]
    value: Term

    def __str__(self) -> str:
        head = self.name if not self.args else f"{self.name}({', '.join(map(str, self.args))})"
        return f"{head} = {self.value}"


@dataclass(frozen=True)
class EventPattern:
    name: str
    args: tuple[Term, ...]

    def __str__(self) -> str:
        return self.name if not self.args else f"{self.name}({', '.join(map(str, self.args))})"


@dataclass(frozen=True)
class BoundaryEvent:
    """Built-in event at each starting or ending point of a fluent-value."""

    which: str  # "start" | "end"
    fluent: FluentValue

    def __str__(self) -> str:
        return f"{self.which}({self.fluent})"


@dataclass(frozen=True)
class HappensAt:
    event: Union[EventPattern, BoundaryEvent]
    time: str

    def __str__(self) -> str:
        return f"happensAt({self.event}, {self.time})"


@dataclass(frozen=True)
class HoldsAt:
    fluent: FluentValue
    time: str

    def __str__(self) -> str:
        return f"holdsAt({self.fluent}, {self.time})"


@dataclass(frozen=True)
class HoldsFor:
    fluent: FluentValue
    interval: str

    def __str__(self) -> str:
        return f"holdsFor({self.fluent}, {self.interval})"


@dataclass(frozen=True)
class IntervalUnion:
    inputs: tuple[str, ...]
    out: str

    def __str__(self) -> str:
        return f"union_all([{', '.join(self.inputs)}], {self.out})"


@dataclass(frozen=True)
class IntervalIntersection:
    inputs: tuple[str, ...]
    out: str

    def __str__(self) -> str:
        return f"intersect_all([{', '.join(self.inputs)}], {self.out})"


@dataclass(frozen=True)
class IntervalComplement:
    base: str
    removed: tuple[str, ...]
    out: str

    def __str__(self) -> str:
        return f"relative_complement_all({self.base}, [{', '.join(self.removed)}], {self.out})"


@dataclass(frozen=True)
class Comparison:
    left: Term
    op: str  # < <= > >= == !=
    right: Term

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


Literal = Union[
    HappensAt, HoldsAt, HoldsFor, IntervalUnion, IntervalIntersection, IntervalComplement, Comparison
]

INITIATED = "initiatedAt"
TERMINATED = "terminatedAt"
HAPPENS = "happensAt"
HOLDS_FOR = "holdsFor"


@dataclass(frozen=True)
class Rule:
    kind: str  # initiatedAt | terminatedAt | happensAt | holdsFor
    head: Union[FluentValue, EventPattern]
    head_var: str  # the time variable (or interval variable for holdsFor)
    body: tuple[Literal, ...]
    line: int = 0

    def __str__(self) -> str:
        head = f"{self.kind}({self.head}, {self.head_var})"
        if not self.body:
            return head + "."
        lits = ",\n    ".join(str(lit) for lit in self.body)
        return f"{head} <-\n    {lits}."


@dataclass(frozen=True)
class Declaration:
    name: str
    kind: str  # input_event | input_fluent | simple | sd
    arity: int


AUTO_DOMAIN = "auto"


@dataclass(frozen=True)
class DomainExpr:
    """Grounding expression: a domain itself or its ordered distinct pairs."""

    shape: str  # "set" | "pairs"
    domain: str
    line: int = field(default=0, compare=False)  # of its `ground` declaration

    def __str__(self) -> str:
        return self.domain if self.shape == "set" else f"pairs({self.domain})"


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    message: str
    line: int = 0

    def __str__(self) -> str:
        where = f" (line {self.line})" if self.line else ""
        return f"{self.severity}: {self.message}{where}"


@dataclass
class EventDescription:
    declarations: dict[str, Declaration] = field(default_factory=dict)
    domains: dict[str, tuple[str, ...]] = field(default_factory=dict)
    auto_domains: set[str] = field(default_factory=set)
    groundings: dict[str, DomainExpr] = field(default_factory=dict)
    rules: list[Rule] = field(default_factory=list)
    levels: dict[tuple, int] = field(default_factory=dict)  # ("fluent" | "event", name)

    def kind_of(self, name: str) -> Optional[str]:
        decl = self.declarations.get(name)
        return decl.kind if decl else None

    def is_input(self, name: str) -> bool:
        return self.kind_of(name) in ("input_event", "input_fluent")

    def rules_for(self, kind: str, name: str) -> list[Rule]:
        return [r for r in self.rules if r.kind == kind and r.head.name == name]

    def fluent_values(self, name: str) -> list[Term]:
        """Values a defined fluent can take, in order of first appearance."""
        seen: list[Term] = []
        for rule in self.rules:
            if isinstance(rule.head, FluentValue) and rule.head.name == name:
                if rule.head.value not in seen:
                    seen.append(rule.head.value)
        return seen

    def grounded_tuples(self, name: str) -> list[tuple[Term, ...]]:
        expr = self.groundings.get(name)
        if expr is None:
            return []
        members = self.domains.get(expr.domain, ())
        if expr.shape == "set":
            return [(m,) for m in members]
        return [(a, b) for a in members for b in members if a != b]

    def with_domain(self, name: str, members: tuple[str, ...]) -> "EventDescription":
        """Return a copy with one domain replaced (used to fill `auto` domains)."""
        domains = dict(self.domains)
        domains[name] = tuple(members)
        return replace(self, domains=domains)

    def fluent_level(self, name: str) -> int:
        return self.levels.get(("fluent", name), 0)

    def event_level(self, name: str) -> int:
        return self.levels.get(("event", name), 0)


def all_pairs(ed: EventDescription) -> list[tuple]:
    """Every grounded pair tuple any composite entity ranges over, sorted."""
    pairs = set()
    for name, expr in ed.groundings.items():
        if expr.shape == "pairs":
            pairs.update(ed.grounded_tuples(name))
    return sorted(pairs)


# ---------------------------------------------------------------------------
# Tokenizer


class RuleSyntaxError(SyntaxError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class _Token:
    kind: str  # name | var | int | punct | end
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>%[^\n]*)
  | (?P<int>\d+)
  | (?P<name>[a-z][A-Za-z0-9_]*)
  | (?P<var>[A-Z_][A-Za-z0-9_]*)
  | (?P<punct><-|<=|>=|==|!=|[()\[\]{}=,./<>])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise RuleSyntaxError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        kind = m.lastgroup
        value = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, value, line, pos - line_start + 1))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            line_start = pos + value.rindex("\n") + 1
        pos = m.end()
    tokens.append(_Token("end", "", line, pos - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser


_COMPARE_OPS = {"<", "<=", ">", ">=", "==", "!="}
_DECL_KINDS = {
    ("input", "event"): "input_event",
    ("input", "fluent"): "input_fluent",
    ("simple", "fluent"): "simple",
    ("sd", "fluent"): "sd",
}
# "event name/arity" declares a derived (rule-defined) instantaneous event.


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            self.fail(f"expected {text!r}, found {tok.text!r}", tok)
        return tok

    def fail(self, message: str, tok: Optional[_Token] = None):
        tok = tok or self.peek()
        raise RuleSyntaxError(message, tok.line, tok.col)

    # -- top level ----------------------------------------------------------

    def parse(self) -> EventDescription:
        ed = EventDescription()
        while self.peek().kind != "end":
            tok = self.peek()
            two = (tok.text, self.peek(1).text)
            if two in _DECL_KINDS:
                self._declaration(ed, _DECL_KINDS[two], 2)
            elif tok.text == "event" and self.peek(2).text == "/":
                self._declaration(ed, "event", 1)
            elif tok.text == "domain":
                self._domain(ed)
            elif tok.text == "ground":
                self._grounding(ed)
            else:
                self._clause(ed)
        self._check_references(ed)
        return ed

    def _declaration(self, ed: EventDescription, kind: str, words: int):
        """A `<kind words> name/arity` header."""
        self.pos += words
        name = self._name_token()
        self.expect("/")
        arity_tok = self.next()
        if arity_tok.kind != "int":
            self.fail("expected an arity", arity_tok)
        if name.text in ed.declarations:
            self.fail(f"{name.text!r} declared twice", name)
        ed.declarations[name.text] = Declaration(name.text, kind, int(arity_tok.text))

    def _domain(self, ed: EventDescription):
        self.next()
        name = self._name_token()
        self.expect("=")
        if name.text in ed.domains or name.text in ed.auto_domains:
            self.fail(f"domain {name.text!r} declared twice", name)
        if self.peek().text == AUTO_DOMAIN:
            self.next()
            ed.auto_domains.add(name.text)
            ed.domains[name.text] = ()
            return
        self.expect("{")
        members = []
        while self.peek().text != "}":
            members.append(self._constant())
            if self.peek().text == ",":
                self.next()
        self.expect("}")
        ed.domains[name.text] = tuple(members)

    def _grounding(self, ed: EventDescription):
        line = self.next().line
        name = self._name_token()
        self.expect("over")
        tok = self._name_token()
        if tok.text == "pairs":
            self.expect("(")
            domain = self._name_token().text
            self.expect(")")
            expr = DomainExpr("pairs", domain, line)
        else:
            expr = DomainExpr("set", tok.text, line)
        if name.text in ed.groundings:
            self.fail(f"grounding for {name.text!r} declared twice", name)
        ed.groundings[name.text] = expr

    def _clause(self, ed: EventDescription):
        start = self.peek()
        if start.text in (INITIATED, TERMINATED, HAPPENS, HOLDS_FOR):
            ed.rules.append(self._rule(start.text))
        elif start.kind == "name":
            ed.rules.append(self._iff_definition())
        else:
            self.fail(f"expected a declaration or clause, found {start.text!r}", start)

    # -- clauses ------------------------------------------------------------

    def _rule(self, kind: str) -> Rule:
        start = self.next()
        self.expect("(")
        if kind == HAPPENS:
            head: Union[FluentValue, EventPattern] = self._event_pattern()
        else:
            head = self._fluent_value()
        self.expect(",")
        head_var = self._variable()
        self.expect(")")
        body: list[Literal] = []
        if self.peek().text == "<-":
            self.next()
            body.append(self._literal())
            while self.peek().text == ",":
                self.next()
                body.append(self._literal())
        self.expect(".")
        return Rule(kind, head, head_var, tuple(body), line=start.line)

    def _literal(self) -> Literal:
        tok = self.peek()
        if tok.text == HAPPENS:
            self.next()
            self.expect("(")
            if self.peek().text in ("start", "end") and self.peek(1).text == "(":
                which = self.next().text
                self.expect("(")
                fluent = self._fluent_value()
                self.expect(")")
                event: Union[EventPattern, BoundaryEvent] = BoundaryEvent(which, fluent)
            else:
                event = self._event_pattern()
            self.expect(",")
            tvar = self._variable()
            self.expect(")")
            return HappensAt(event, tvar)
        if tok.text == "holdsAt":
            self.next()
            self.expect("(")
            fluent = self._fluent_value()
            self.expect(",")
            tvar = self._variable()
            self.expect(")")
            return HoldsAt(fluent, tvar)
        if tok.text == HOLDS_FOR:
            self.next()
            self.expect("(")
            fluent = self._fluent_value()
            self.expect(",")
            ivar = self._variable()
            self.expect(")")
            return HoldsFor(fluent, ivar)
        if tok.text in ("union_all", "intersect_all"):
            self.next()
            self.expect("(")
            inputs = self._variable_list()
            self.expect(",")
            out = self._variable()
            self.expect(")")
            cls = IntervalUnion if tok.text == "union_all" else IntervalIntersection
            return cls(tuple(inputs), out)
        if tok.text == "relative_complement_all":
            self.next()
            self.expect("(")
            base = self._variable()
            self.expect(",")
            removed = self._variable_list()
            self.expect(",")
            out = self._variable()
            self.expect(")")
            return IntervalComplement(base, tuple(removed), out)
        left = self._term()
        op = self.next()
        if op.text not in _COMPARE_OPS:
            self.fail(f"unknown predicate or operator {op.text!r}", op)
        right = self._term()
        return Comparison(left, op.text, right)

    def _iff_definition(self) -> Rule:
        """A `head iff ...` shorthand definition, as its holdsFor rule."""
        start = self.peek()
        head = self._fluent_value()
        kw = self.next()
        if kw.text != "iff":
            self.fail("expected 'iff'", kw)
        groups: list[tuple[FluentValue, ...]] = []
        negated: list[FluentValue] = []
        while True:
            if self.peek().text == "not":
                self.next()
                if self.peek().text == "(":
                    self.fail("negation applies to a single fluent-value only")
                negated.append(self._fluent_value())
            elif self.peek().text == "(":
                self.next()
                group = [self._fluent_value()]
                while self.peek().text == "or":
                    self.next()
                    if self.peek().text == "not":
                        self.fail("negation is not allowed inside a disjunction")
                    group.append(self._fluent_value())
                self.expect(")")
                if negated:
                    self.fail("negated conjuncts must come last")
                groups.append(tuple(group))
            else:
                if negated:
                    self.fail("negated conjuncts must come last")
                groups.append((self._fluent_value(),))
            if self.peek().text == ",":
                self.next()
                continue
            break
        self.expect(".")
        if not groups:
            self.fail("shorthand definition needs at least one positive conjunct", start)
        return _expand_iff(head, groups, negated, start.line)

    # -- small pieces -------------------------------------------------------

    def _name_token(self) -> _Token:
        tok = self.next()
        if tok.kind != "name":
            self.fail("expected a name", tok)
        return tok

    def _variable(self) -> str:
        tok = self.next()
        if tok.kind != "var":
            self.fail("expected a variable", tok)
        return tok.text

    def _variable_list(self) -> list[str]:
        self.expect("[")
        out = []
        while self.peek().text != "]":
            out.append(self._variable())
            if self.peek().text == ",":
                self.next()
        self.expect("]")
        return out

    def _constant(self) -> Term:
        tok = self.next()
        if tok.kind == "int":
            return int(tok.text)
        if tok.kind != "name":
            self.fail("expected a constant", tok)
        return tok.text

    def _term(self) -> Term:
        tok = self.next()
        if tok.kind == "int":
            return int(tok.text)
        if tok.kind in ("name", "var"):
            return tok.text
        self.fail("expected a term", tok)

    def _args(self) -> tuple[Term, ...]:
        if self.peek().text != "(":
            return ()
        self.next()
        args = []
        while self.peek().text != ")":
            args.append(self._term())
            if self.peek().text == ",":
                self.next()
        self.expect(")")
        return tuple(args)

    def _event_pattern(self) -> EventPattern:
        name = self._name_token()
        return EventPattern(name.text, self._args())

    def _fluent_value(self) -> FluentValue:
        name = self._name_token()
        args = self._args()
        self.expect("=")
        value = self._term()
        return FluentValue(name.text, args, value)

    # -- declaration checking ------------------------------------------------

    def _check_references(self, ed: EventDescription):
        """Each fluent or event a rule defines or reads is declared as that,
        with its arity, and each grounding names a declared name and domain."""
        noun = {"event": "an event", "fluent": "a fluent"}
        for rule in ed.rules:
            for item in (rule.head, *_reads(rule)):
                what, decl = _node_of(item)[0], ed.declarations.get(item.name)
                if decl is None:
                    raise RuleSyntaxError(f"undeclared {what} {item.name!r}", rule.line, 1)
                declared = "event" if decl.kind.endswith("event") else "fluent"
                if declared != what:
                    raise RuleSyntaxError(f"{item.name!r} is {noun[declared]}, not {noun[what]}",
                                          rule.line, 1)
                if len(item.args) != decl.arity:
                    raise RuleSyntaxError(f"{item.name!r} used with {len(item.args)} arguments, "
                                          f"declared /{decl.arity}", rule.line, 1)
        for name, expr in ed.groundings.items():
            if name not in ed.declarations:
                raise RuleSyntaxError(f"grounding for undeclared name {name!r}", expr.line, 1)
            if expr.domain not in ed.domains:
                raise RuleSyntaxError(f"grounding refers to unknown domain {expr.domain!r}",
                                      expr.line, 1)


def _expand_iff(head: FluentValue, groups: list, negated: list, line: int) -> Rule:
    """Turn an `iff` definition into one holdsFor rule.

    Each disjunction group becomes holdsFor literals combined with union_all,
    groups combine with intersect_all, and trailing negations are removed with
    relative_complement_all.
    """
    counter = 0

    def fresh() -> str:
        nonlocal counter
        counter += 1
        return f"I{counter}"

    body: list[Literal] = []
    group_vars: list[str] = []
    for group in groups:
        member_vars = []
        for fv in group:
            v = fresh()
            body.append(HoldsFor(fv, v))
            member_vars.append(v)
        if len(member_vars) == 1:
            group_vars.append(member_vars[0])
        else:
            v = fresh()
            body.append(IntervalUnion(tuple(member_vars), v))
            group_vars.append(v)
    if len(group_vars) == 1:
        positive = group_vars[0]
    else:
        positive = fresh()
        body.append(IntervalIntersection(tuple(group_vars), positive))
    if negated:
        removed = []
        for fv in negated:
            v = fresh()
            body.append(HoldsFor(fv, v))
            removed.append(v)
        out = fresh()
        body.append(IntervalComplement(positive, tuple(removed), out))
    else:
        out = positive
    return Rule(HOLDS_FOR, head, out, tuple(body), line=line)


def decode(data: bytes) -> str:
    """A rule pack's text from its bytes; a byte that is not UTF-8 raises
    RuleSyntaxError with its line and column."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_start = data.rfind(b"\n", 0, exc.start) + 1
        raise RuleSyntaxError(f"invalid UTF-8 byte {data[exc.start]:#04x}",
                              data.count(b"\n", 0, exc.start) + 1,
                              exc.start - line_start + 1) from None


def parse(text: str) -> EventDescription:
    """Parse a rule pack.  A shorthand definition becomes its holdsFor rule."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Stratification


class StratificationError(ValueError):
    pass


def _node_of(item: Union[FluentValue, EventPattern]) -> tuple:
    return ("fluent" if isinstance(item, FluentValue) else "event", item.name)


def _reads(rule: Rule) -> list[Union[FluentValue, EventPattern]]:
    """What each holdsAt, holdsFor and happensAt literal of a rule reads."""
    return [read_by(lit) for lit in rule.body if isinstance(lit, (HappensAt, HoldsAt, HoldsFor))]


def stratify(ed: EventDescription) -> EventDescription:
    """Assign hierarchy levels to fluent and event names, the units the
    engine evaluates one at a time.

    Input names sit at level 0; every defined name sits one level above its
    highest dependency.  A cyclic dependency is rejected, and so is a fluent
    that reads one of its own values.
    """
    deps: dict[tuple, set[tuple]] = {}
    for rule in ed.rules:
        head = _node_of(rule.head)
        deps.setdefault(head, set()).update(map(_node_of, _reads(rule)))
    for node in {n for node_deps in deps.values() for n in node_deps}:
        deps.setdefault(node, set())
    try:
        order = list(TopologicalSorter(deps).static_order())
    except CycleError as exc:
        cycle = " -> ".join(node[1] for node in exc.args[1])
        raise StratificationError(f"cyclic dependency: {cycle}") from exc

    levels: dict[tuple, int] = {}
    for node in order:
        node_deps = deps.get(node, set())
        if ed.is_input(node[1]) or not node_deps:
            levels[node] = 0
        else:
            levels[node] = 1 + max(levels[d] for d in node_deps)
    for node, level in levels.items():
        if node[0] == "fluent" and ed.kind_of(node[1]) == "simple" and level == 0:
            raise StratificationError(f"simple fluent {node[1]!r} cannot sit at level 0")
    return replace(ed, levels=levels)


# ---------------------------------------------------------------------------
# Validation


def read_by(lit) -> Union[FluentValue, EventPattern]:
    """The fluent or event a holdsAt, holdsFor or happensAt literal reads."""
    return getattr(lit, "fluent", None) or getattr(lit.event, "fluent", lit.event)


def terms_of(lit) -> tuple[Term, ...]:
    """The arguments of a comparison, or of what a literal reads."""
    if isinstance(lit, Comparison):
        return (lit.left, lit.right)
    return read_by(lit).args


def join_order(rule: Rule, head_bound: bool = False) -> list[Literal]:
    """The body literals of a point rule in evaluation order, as far as
    bindings reach; the head's variables start bound in a terminatedAt rule,
    and with `head_bound` in any.
    Of the literals whose inputs are bound (a holdsAt's time, all of a
    comparison's arguments), the next is the one binding the fewest new
    variables, then the one with the most bound arguments, then the first
    written.  A literal left out is one that no binding reaches."""
    head_bound = head_bound or rule.kind == TERMINATED
    bound = {a for a in rule.head.args if is_var(a)} if head_bound else set()
    pending, order = list(rule.body), []
    while pending:
        ready = []
        for lit in pending:
            terms = terms_of(lit)
            time = (lit.time,) if isinstance(lit, (HappensAt, HoldsAt)) else ()
            new = {t for t in terms + time if is_var(t)} - bound
            needs = {Comparison: terms, HoldsAt: time}.get(type(lit), ())
            if not new.intersection(needs):
                ready.append((len(new), -sum(t not in new for t in terms), lit, new))
        if not ready:
            break
        _new, _bound, lit, new = min(ready, key=lambda item: item[:2])
        order.append(lit)
        pending.remove(lit)
        bound |= new
    return order


def _point_rule_errors(rule: Rule, grounded: bool) -> Iterator[str]:
    """Why the body of an initiatedAt, terminatedAt or happensAt rule cannot be
    evaluated in any join order, or, unless the head is `grounded` (validate
    requires a fluent's grounding apart), leaves a head variable free with
    nothing to range over."""
    order = join_order(rule)
    bound = {t for lit in order for t in terms_of(lit) + (getattr(lit, "time", None),)}
    if len(order) < len(rule.body):
        unreached = next(lit for lit in rule.body if lit not in order)
        yield f"no binding reaches {unreached} in the rule for {rule.head}"
    elif rule.head_var not in bound:
        yield f"time variable {rule.head_var!r} is not bound in the rule for {rule.head}"
    elif not grounded:
        for t in dict.fromkeys(a for a in rule.head.args if is_var(a) and a not in bound):
            yield (f"head variable {t!r} is bound by no literal in the rule for {rule.head}, "
                   f"and {rule.head.name!r} has no grounding for it to range over")


def _holds_for_errors(rule: Rule) -> Iterator[str]:
    """Why a holdsFor rule cannot be evaluated for each grounding of its head:
    its conditions must read only head variables, and each interval variable,
    the head's too, must be defined before it is used."""
    head = {a for a in rule.head.args if is_var(a)}
    defined: set[str] = set()
    for lit in rule.body:
        if isinstance(lit, (HoldsFor, Comparison)):
            for t in dict.fromkeys(terms_of(lit)):
                if is_var(t) and t not in head:
                    yield f"variable {t!r} is not in the head of the rule for {rule.head}"
            if isinstance(lit, HoldsFor):
                defined.add(lit.interval)
        elif isinstance(lit, (IntervalUnion, IntervalIntersection, IntervalComplement)):
            used = (lit.base, *lit.removed) if isinstance(lit, IntervalComplement) else lit.inputs
            if isinstance(lit, IntervalIntersection) and not used:
                yield f"{lit} has no input in the rule for {rule.head}"
            for v in used:
                if v not in defined:
                    yield (f"interval variable {v!r} is used before it is defined "
                           f"in the rule for {rule.head}")
            defined.add(lit.out)
        else:
            yield f"literal {lit} is not supported in holdsFor rules"
    if rule.head_var not in defined:
        yield f"interval variable {rule.head_var!r} is not defined in the rule for {rule.head}"


def validate(ed: EventDescription) -> list[Diagnostic]:
    """Structural checks on a stratified description.  Diagnostics, not raises.
    A description without errors is one the engine can evaluate; the engine
    refuses any other."""
    out: list[Diagnostic] = []
    for rule in ed.rules:
        if ed.is_input(rule.head.name):
            kind = ed.kind_of(rule.head.name).replace("_", " ")
            out.append(Diagnostic("error", f"{rule.head.name!r} is an {kind}; no rule can "
                                  f"define it ({rule.kind} {rule.head})", rule.line))
        has_constructs = any(
            isinstance(l, (IntervalUnion, IntervalIntersection, IntervalComplement, HoldsFor))
            for l in rule.body
        )
        if rule.kind != HOLDS_FOR and has_constructs:
            out.append(
                Diagnostic(
                    "error",
                    f"interval constructs are only allowed in holdsFor rules ({rule.kind} {rule.head})",
                    rule.line,
                )
            )
        if rule.kind in (INITIATED, TERMINATED, HAPPENS):
            if not any(isinstance(l, HappensAt) for l in rule.body):
                out.append(
                    Diagnostic(
                        "error",
                        f"{rule.kind} rule for {rule.head} has no event literal to supply "
                        "candidate time-points",
                        rule.line,
                    )
                )
        if isinstance(rule.head, FluentValue):
            kind = ed.kind_of(rule.head.name)
            if rule.kind == HOLDS_FOR and kind == "simple":
                out.append(
                    Diagnostic(
                        "error",
                        f"{rule.head.name!r} is declared simple but given a holdsFor rule",
                        rule.line,
                    )
                )
            if rule.kind in (INITIATED, TERMINATED) and kind == "sd":
                out.append(
                    Diagnostic(
                        "error",
                        f"{rule.head.name!r} is declared statically determined but given "
                        f"a {rule.kind} rule",
                        rule.line,
                    )
                )
            if is_var(rule.head.value):
                out.append(
                    Diagnostic("error", f"head value of {rule.head} must be a constant", rule.line)
                )
        if rule.kind == HOLDS_FOR:
            problems = _holds_for_errors(rule)
        else:
            problems = () if has_constructs else _point_rule_errors(
                rule, rule.kind != HAPPENS or rule.head.name in ed.groundings)
        out.extend(Diagnostic("error", message, rule.line) for message in problems)
    for name, expr in ed.groundings.items():
        decl, width = ed.declarations.get(name), 1 if expr.shape == "set" else 2
        if decl and decl.arity != width:
            out.append(Diagnostic("error", f"{name!r} has arity {decl.arity}, but its grounding "
                                  f"{expr} gives tuples of length {width}", expr.line))
    # each defined fluent, by the line of its first rule
    defined = {}
    for r in ed.rules:
        if isinstance(r.head, FluentValue) and not ed.is_input(r.head.name):
            defined.setdefault(r.head.name, r.line)
    for name, line in sorted(defined.items()):
        if name not in ed.groundings:
            out.append(Diagnostic("error", f"no grounding domain declared for {name!r}", line))
        if ed.kind_of(name) == "simple" and not ed.rules_for(INITIATED, name):
            out.append(Diagnostic("warning", f"simple fluent {name!r} has no initiating rule"))
    return out


def load(text: str) -> tuple[EventDescription, list[Diagnostic]]:
    """Parse, stratify and validate in one step."""
    ed = stratify(parse(text))
    return ed, validate(ed)


# ---------------------------------------------------------------------------
# Pretty printing


def pretty(ed: EventDescription) -> str:
    """Render a description back to rule-pack text (round-trips through parse)."""
    lines: list[str] = []
    kind_words = {
        "input_event": "input event",
        "input_fluent": "input fluent",
        "simple": "simple fluent",
        "sd": "sd fluent",
        "event": "event",
    }
    for name, members in ed.domains.items():
        if name in ed.auto_domains:
            lines.append(f"domain {name} = auto")
        else:
            lines.append(f"domain {name} = {{{', '.join(map(str, members))}}}")
    for decl in ed.declarations.values():
        lines.append(f"{kind_words[decl.kind]} {decl.name}/{decl.arity}")
    for name, expr in ed.groundings.items():
        lines.append(f"ground {name} over {expr}")
    for rule in ed.rules:
        lines.append("")
        lines.append(str(rule))
    return "\n".join(lines) + "\n"
