"""Minimal declarative query language over the influence graph.

Grammar (keywords uppercase and case-sensitive; labels and relation names
case-insensitive):

    query   := matchClause+ whereClause? returnClause ';'?
    match   := 'MATCH' node (edge node)*
    node    := '(' IDENT (':' LABEL)? ')'
    edge    := ('-' | '<-') '[' ':' RELNAME ']' ('->' | '-')
    where   := 'WHERE' pred ('AND' pred)*
    pred    := IDENT '.' IDENT '=' STRING
    return  := 'RETURN' proj (',' proj)*
    proj    := IDENT '.' IDENT

Matching is homomorphic: two variables may bind the same node. Conjunction
and string equality are the whole predicate language. The parser accepts
zero MATCH clauses so that a bare RETURN fails with UnboundVariable rather
than a syntax error. Rows come back rendered as strings and sorted
lexicographically, so results are deterministic.
"""

from __future__ import annotations

import functools
import re
from typing import Any

from .canonical import render_value
from .errors import (
    QueryParameterError,
    QuerySyntaxError,
    UnboundVariable,
    UnknownLabel,
    UnknownQueryName,
    UnknownRelation,
)
from .graph import Snapshot
from .model import LINK_KINDS, OMITTED, EntryType, Wire, record

# Node labels: the eight entry types plus the Deployment view over artifacts.
_LABELS = {t.value.casefold(): t.value for t in EntryType}
_LABELS["deployment"] = "Deployment"

# Relation names normalize by casefolding and dropping underscores, so the
# upper-snake spelling USES_TEST and the link kind usesTest are the same name.
_RELATIONS = {kind.casefold(): kind for kind in LINK_KINDS}

_FIELD_ALIASES = {"artifactversion": "version"}


@functools.lru_cache(maxsize=1024)
def _normalize_name(name: str) -> str:
    return name.replace("_", "").casefold()


# ---------------------------------------------------------------------------
# tokens

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<arrow_r>->)
  | (?P<arrow_l><-)
  | (?P<string>"(?:\\.|[^"\\\n])*")
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[()\[\]:.,=;-])
    """,
    re.VERBOSE,
)

_KEYWORDS = frozenset({"MATCH", "WHERE", "AND", "RETURN"})


@record
class _Token:
    kind: str  # keyword text, punct text, 'IDENT', 'STRING', or 'EOF'
    text: str
    position: int


def _unescape(literal: str, position: int) -> str:
    body = literal[1:-1]
    out: list[str] = []
    i = 0
    shorthands = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}
    while i < len(body):
        c = body[i]
        if c == "\\":
            i += 1
            if i >= len(body):
                raise QuerySyntaxError(position, "escape character", "end of string")
            out.append(shorthands.get(body[i], body[i]))
        else:
            out.append(c)
        i += 1
    return "".join(out)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise QuerySyntaxError(pos, "a query token", text[pos])
        if m.lastgroup == "ws":
            pos = m.end()
            continue
        value = m.group()
        if m.lastgroup == "string":
            tokens.append(_Token("STRING", _unescape(value, pos), pos))
        elif m.lastgroup == "ident":
            kind = value if value in _KEYWORDS else "IDENT"
            tokens.append(_Token(kind, value, pos))
        else:
            tokens.append(_Token(value, value, pos))
        pos = m.end()
    tokens.append(_Token("EOF", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# AST

@record
class NodePattern:
    var: str
    label: str | None = None  # resolved canonical label


@record
class EdgePattern:
    relation: str
    direction: str  # forward, backward, both or undirected


# An edge's direction by its (left, right) arrow ends.
_DIRECTIONS = {("-", "->"): "forward", ("<-", "-"): "backward",
               ("<-", "->"): "both", ("-", "-"): "undirected"}


@record
class PathPattern:
    nodes: list[NodePattern]
    edges: list[EdgePattern]


@record
class Predicate:
    var: str
    field: str
    value: str


@record
class Projection:
    var: str
    field: str

    @property
    def column(self) -> str:
        return f"{self.var}.{self.field}"


@record
class QueryAst:
    matches: list[PathPattern] = list
    predicates: list[Predicate] = list
    projections: list[Projection] = list

    def bound_variables(self) -> set[str]:
        return {n.var for p in self.matches for n in p.nodes}


# ---------------------------------------------------------------------------
# parser

class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def take(self, kind: str, expected: str) -> _Token:
        token = self.peek()
        if token.kind != kind:
            raise QuerySyntaxError(token.position, expected, token.text or "end of query")
        self.index += 1
        return token

    def parse(self) -> QueryAst:
        ast = QueryAst()
        while self.peek().kind == "MATCH":
            self.index += 1
            ast.matches.append(self.pattern())
        if self.peek().kind == "WHERE":
            self.index += 1
            ast.predicates.append(self.predicate())
            while self.peek().kind == "AND":
                self.index += 1
                ast.predicates.append(self.predicate())
        self.take("RETURN", "RETURN")
        ast.projections.append(self.projection())
        while self.peek().kind == ",":
            self.index += 1
            ast.projections.append(self.projection())
        if self.peek().kind == ";":
            self.index += 1
        self.take("EOF", "end of query")
        self.check_bindings(ast)
        return ast

    def pattern(self) -> PathPattern:
        pattern = PathPattern(nodes=[self.node()], edges=[])
        while self.peek().kind in ("-", "<-"):
            pattern.edges.append(self.edge())
            pattern.nodes.append(self.node())
        return pattern

    def node(self) -> NodePattern:
        self.take("(", "(")
        var = self.take("IDENT", "a variable name").text
        label_text = None
        if self.peek().kind == ":":
            self.index += 1
            label_text = self.take("IDENT", "a node label").text
        self.take(")", ")")
        label = None
        if label_text is not None:
            label = _LABELS.get(label_text.casefold())
            if label is None:
                raise UnknownLabel(f"no node label {label_text!r}")
        return NodePattern(var=var, label=label)

    def edge(self) -> EdgePattern:
        left = self.peek().kind
        self.index += 1  # '-' or '<-'
        self.take("[", "[")
        self.take(":", ":")
        relation_text = self.take("IDENT", "a relation name").text
        self.take("]", "]")
        tail = self.peek()
        if tail.kind not in ("->", "-"):
            raise QuerySyntaxError(tail.position, "-> or -", tail.text or "end of query")
        self.index += 1
        relation = _RELATIONS.get(_normalize_name(relation_text))
        if relation is None:
            raise UnknownRelation(f"no relation {relation_text!r}")
        return EdgePattern(relation=relation, direction=_DIRECTIONS[left, tail.kind])

    def dotted(self) -> tuple[str, str]:
        var = self.take("IDENT", "a variable name").text
        self.take(".", ".")
        fieldname = self.take("IDENT", "a field name").text
        return var, fieldname

    def predicate(self) -> Predicate:
        var, fieldname = self.dotted()
        self.take("=", "=")
        value = self.take("STRING", "a quoted string").text
        return Predicate(var=var, field=fieldname, value=value)

    def projection(self) -> Projection:
        var, fieldname = self.dotted()
        return Projection(var=var, field=fieldname)

    def check_bindings(self, ast: QueryAst) -> None:
        bound = ast.bound_variables()
        for pred in ast.predicates:
            if pred.var not in bound:
                raise UnboundVariable(pred.var)
        for proj in ast.projections:
            if proj.var not in bound:
                raise UnboundVariable(proj.var)


def parse_query(text: str) -> QueryAst:
    """Parse query text to an AST; every parse error carries a position."""
    return _Parser(text).parse()


def escape_literal(value: str) -> str:
    """Escape a string for embedding in query text as a literal."""
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t"))


# ---------------------------------------------------------------------------
# evaluation

@record(uncompared=("plan",))
class ResultTable:
    columns: list[str]
    rows: list[tuple[str, ...]] = list
    plan: list[str] = list  # see evaluate

    def render_text(self) -> str:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        def line(cells: tuple[str, ...] | list[str]) -> str:
            return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()
        out = [line(self.columns), line(["-" * w for w in widths])]
        out.extend(line(row) for row in self.rows)
        return "\n".join(out) + "\n"

    def render_csv(self) -> str:
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.columns)
        writer.writerows(self.rows)
        return buffer.getvalue()


@functools.cache
def _table_of(cls: type) -> dict[str, Wire]:
    """A payload class's field table, keyed by normalised wire name."""
    return {_normalize_name(row.name): row for row in cls.FIELDS}


def _payload_field(graph: Snapshot, node_id: str, norm: str) -> Any:
    """A payload field by normalised name, read through its row of the field
    table as `to_doc` writes it; a field that `to_doc` omits falls through to
    the payload's extension keys, the first with that normalised name winning.
    OMITTED when neither has it, and for every field of a tombstoned node."""
    if node_id in graph.hidden:
        return OMITTED
    payload = graph.by_id[node_id].payload
    row = _table_of(type(payload)).get(norm)
    if row is not None:
        value = row.encode(payload)
        if value is not OMITTED:
            return value
    for key, value in payload.extensions.items():
        if _normalize_name(key) == norm:
            return value
    return OMITTED


def _field_value(graph: Snapshot, node_id: str, fieldname: str) -> Any:
    """One node's field with the documented flattening rules, None when absent."""
    entry = graph.by_id[node_id]
    norm = _normalize_name(fieldname)
    norm = _FIELD_ALIASES.get(norm, norm)
    if norm == "id":
        return node_id
    if norm == "type":
        return entry.entry_type.value
    if norm == "createdat":
        return entry.created_at
    value = _payload_field(graph, node_id, norm)
    if value is OMITTED:
        return entry.created_at if norm == "timestamp" else None
    return value


def evaluate_field(graph: Snapshot, node_id: str, fieldname: str) -> str | None:
    """One node's field in its query-result string form, None when absent.

    This is exactly what predicates compare against and what projections
    print (projections render None as the empty string).
    """
    value = _field_value(graph, node_id, fieldname)
    return None if value is None else render_value(value)


_Edge = tuple[str, str, str, str]  # (left var, relation, right var, direction)

# The direction an edge pattern reads in when walked from its right end.
_REVERSED = {"forward": "backward", "backward": "forward",
             "both": "both", "undirected": "undirected"}


def _pattern_variables(ast: QueryAst) -> dict[str, list[str]]:
    """Each variable with its labels, in order of first appearance."""
    labels: dict[str, list[str]] = {}
    for pattern in ast.matches:
        for node in pattern.nodes:
            labels.setdefault(node.var, [])
            if node.label is not None:
                labels[node.var].append(node.label)
    return labels


def _pattern_edges(ast: QueryAst) -> list[_Edge]:
    return [(pattern.nodes[i].var, edge.relation, pattern.nodes[i + 1].var, edge.direction)
            for pattern in ast.matches for i, edge in enumerate(pattern.edges)]


def _around(graph: Snapshot, node_id: str, relation: str, direction: str) -> set[str]:
    """Every node x such that `(node_id)-[:relation]-(x)` holds in `direction`."""
    if direction == "forward":
        return graph.neighbours(node_id, relation)
    if direction == "backward":
        return graph.neighbours(node_id, relation, outgoing=False)
    succ = graph.neighbours(node_id, relation)
    pred = graph.neighbours(node_id, relation, outgoing=False)
    return succ & pred if direction == "both" else succ | pred


def _bind_order(candidates: dict[str, set[str]], edges: list[_Edge]) -> list[str]:
    """Greedy order: the smallest candidate set joined by an edge to a bound
    variable, else the smallest set overall; ties go to the lower name."""
    order: list[str] = []
    unbound = set(candidates)
    while unbound:
        joined = {v for left, _, right, _ in edges
                  for v, other in ((left, right), (right, left))
                  if v in unbound and other not in unbound}
        var = min(joined or unbound, key=lambda v: (len(candidates[v]), v))
        order.append(var)
        unbound.remove(var)
    return order


def evaluate(ast: QueryAst, graph: Snapshot) -> ResultTable:
    """All satisfying variable assignments, projected, rendered, sorted.

    Each variable draws from a candidate set (label index narrowed by its
    predicates and self-loops); variables bind in a greedy order, and one
    with bound neighbours draws only from their adjacency under every edge
    that joins them. The table's `plan` says so, one line per variable in
    bind order: candidate-set size and the bound variables it expands from.
    """
    labels = _pattern_variables(ast)
    edges = _pattern_edges(ast)
    predicates: dict[str, list[Predicate]] = {}
    for pred in ast.predicates:
        predicates.setdefault(pred.var, []).append(pred)

    def candidates_of(var: str) -> set[str]:
        """Nodes that carry every label of `var` and satisfy its predicates."""
        wanted = [set(graph.deployment_ids()) if label == "Deployment"
                  else {e.id for e in graph.by_type[EntryType(label)]}
                  for label in labels[var]]
        found = set.intersection(*wanted) if wanted else set(graph.by_id)
        for pred in predicates.get(var, ()):
            found = {node_id for node_id in found
                     if (value := _field_value(graph, node_id, pred.field)) is not None
                     and render_value(value) == pred.value}
        return found

    candidates = {var: candidates_of(var) for var in labels}
    for left, relation, right, direction in edges:
        if left == right:  # a self-loop constrains one variable: push it down too
            candidates[left] = {node_id for node_id in candidates[left]
                                if node_id in _around(graph, node_id, relation, direction)}
    order = _bind_order(candidates, edges)
    position = {var: i for i, var in enumerate(order)}

    # Per step: the edges to an already bound variable, seen from that one.
    joins: list[list[_Edge]] = [[] for _ in order]
    for left, relation, right, direction in edges:
        if position[left] < position[right]:
            joins[position[right]].append((left, relation, right, direction))
        elif position[right] < position[left]:
            joins[position[left]].append((right, relation, left, _REVERSED[direction]))

    rows: list[tuple[str, ...]] = []
    env: dict[str, str] = {}

    def extend(step: int) -> None:
        if step == len(order):
            rows.append(tuple(
                render_value(_field_value(graph, env[p.var], p.field))
                for p in ast.projections))
            return
        var = order[step]
        pool = candidates[var]
        for other, relation, _, direction in joins[step]:
            pool = _around(graph, env[other], relation, direction) & pool
        for node_id in pool:
            env[var] = node_id
            extend(step + 1)
        env.pop(var, None)

    extend(0)
    rows.sort()
    plan = []
    for step, var in enumerate(order):
        joined = sorted({other for other, _, _, _ in joins[step]})
        source = "expand from " + ", ".join(joined) if joined else "scan"
        plan.append(f"{var}: {len(candidates[var])} candidates, {source}")
    return ResultTable(columns=[p.column for p in ast.projections], rows=rows, plan=plan)


def run_query(text: str, graph: Snapshot) -> ResultTable:
    return evaluate(parse_query(text), graph)


# ---------------------------------------------------------------------------
# saved queries

@record
class SavedQuery:
    name: str
    params: tuple[str, ...]
    template: str  # str.format template with named placeholders

    def text(self, params: dict[str, str]) -> str:
        given = set(params)
        wanted = set(self.params)
        if given != wanted:
            missing = ", ".join(sorted(wanted - given))
            extra = ", ".join(sorted(given - wanted))
            parts = []
            if missing:
                parts.append(f"missing: {missing}")
            if extra:
                parts.append(f"unexpected: {extra}")
            raise QueryParameterError(f"saved query {self.name}: " + "; ".join(parts))
        escaped = {k: escape_literal(str(v)) for k, v in params.items()}
        return self.template.format(**escaped)


SAVED_QUERIES: dict[str, SavedQuery] = {
    "regression-attribution": SavedQuery(
        name="regression-attribution",
        params=("topic", "boundary"),
        template=(
            'MATCH (c:Contribution)-[:MOTIVATES]->(t:Test)\n'
            'MATCH (t)<-[:USES_TEST]-(r:EvaluationRun)-[:EVALUATES]->(a:Artifact)\n'
            'MATCH (a)-[:DEPLOYED_AS]->(d:Deployment)\n'
            'WHERE t.topic = "{topic}" AND r.decision = "fail"\n'
            '  AND d.boundary = "{boundary}"\n'
            'RETURN c.id, t.id, r.artifact_version, r.timestamp, d.id;'
        ),
    ),
}


def run_saved_query(name: str, graph: Snapshot,
                    params: dict[str, str]) -> ResultTable:
    """Evaluate a library query with parameters spliced in as escaped string
    literals. Raises UnknownQueryName / QueryParameterError."""
    saved = SAVED_QUERIES.get(name)
    if saved is None:
        raise UnknownQueryName(f"no saved query {name!r}")
    return run_query(saved.text(params), graph)
