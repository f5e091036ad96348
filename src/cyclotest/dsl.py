"""Decision-logic model language: lexer, parser, static checks, predicate extraction.

A ``.ctl`` model declares typed inputs, outputs and state variables, plus a
``logic`` block holding a binary decision tree.  Decision conditions are
boolean expressions whose atoms may be ``held(<formula>, <duration>)``
temporal conditions; every leaf is a block of assignments.  ASTs are frozen
dataclasses and all functions here are pure.  ``eval_expr`` reads variables
and predicate ids from one namespace.
"""
from __future__ import annotations

import functools
import itertools
import operator
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Mapping, NamedTuple, Optional, Union


class ModelError(Exception):
    """Base class for everything the model front end can reject."""


class ParseError(ModelError):
    def __init__(self, message: str, line: int = 0, col: int = 0, expected=()):
        self.message = message
        self.line = line
        self.col = col
        self.expected = tuple(sorted(expected))
        suffix = " (expected %s)" % ", ".join(self.expected) if self.expected else ""
        super().__init__("%d:%d: %s%s" % (line, col, message, suffix))


class SemanticError(ParseError):
    """Duplicate declarations, undeclared identifiers, misplaced held()."""


class UnsupportedTemporalFormula(SemanticError):
    """held() argument is not a conjunction of variable literals."""


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class VarDecl:
    name: str
    type: str  # "bool" | "int"
    lo: Optional[int] = None
    hi: Optional[int] = None
    visibility: Optional[str] = None  # state vars only: "readable" | "hidden"
    init: Optional[int] = None  # state vars only, normalized at parse
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)

    def domain(self) -> range:
        if self.type == "bool":
            return range(2)
        return range(self.lo, self.hi + 1)


@dataclass(frozen=True)
class Expr:
    line: int = field(default=0, compare=False, kw_only=True)
    col: int = field(default=0, compare=False, kw_only=True)


@dataclass(frozen=True)
class Name(Expr):
    ident: str = ""


@dataclass(frozen=True)
class Const(Expr):
    value: int = 0
    as_bool: bool = False  # printed as true/false rather than a digit


@dataclass(frozen=True)
class Not(Expr):
    operand: Expr = None


@dataclass(frozen=True)
class And(Expr):
    left: Expr = None
    right: Expr = None


@dataclass(frozen=True)
class Or(Expr):
    left: Expr = None
    right: Expr = None


@dataclass(frozen=True)
class Cmp(Expr):
    op: str = "=="
    left: Expr = None
    right: Expr = None


@dataclass(frozen=True)
class Held(Expr):
    """Temporal condition: ``formula`` has evaluated true for ``duration_ms``."""

    formula: Expr = None
    duration_ms: int = 0


@dataclass(frozen=True)
class PredRef(Expr):
    """Reference to an extracted temporal predicate; only in rewritten models."""

    ident: str = ""


@dataclass(frozen=True)
class Assign:
    target: str
    value: Expr
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Leaf:
    node_id: str
    assigns: tuple
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Decision:
    node_id: str
    condition: Expr
    then_branch: "Node"
    else_branch: "Node"
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)

    @cached_property
    def atoms(self) -> tuple:
        """``(atom id, atom)`` pairs of the condition, see :func:`condition_atoms`."""
        return tuple(condition_atoms(self.condition))

    @cached_property
    def reads(self) -> tuple:
        """The variables and predicate ids the condition reads, sorted."""
        return tuple(sorted(free_vars(self.condition)))


Node = Union[Leaf, Decision]


@dataclass(frozen=True)
class ModelAst:
    """A model.  The cached properties are derived on first use and stored
    on the instance; they are not fields, so equality and hashing ignore them."""

    name: str
    inputs: tuple
    outputs: tuple
    state_vars: tuple
    body: Node

    def decls(self) -> dict:
        return {d.name: d for d in self.inputs + self.outputs + self.state_vars}

    @cached_property
    def input_names(self) -> tuple:
        return tuple(d.name for d in self.inputs)

    @cached_property
    def output_names(self) -> tuple:
        return tuple(d.name for d in self.outputs)

    @cached_property
    def readable_names(self) -> tuple:
        return tuple(d.name for d in self.state_vars if d.visibility == "readable")

    @cached_property
    def domains(self) -> dict:
        """Declared values of every input, output and state variable."""
        return {name: decl.domain() for name, decl in self.decls().items()}

    @cached_property
    def leaf_ids(self) -> tuple:
        """The leaves' ids, in pre-order."""
        return tuple(leaf.node_id for leaf in self.leaves())

    @cached_property
    def leaf_boxes(self) -> "LeafBoxes":
        """The :class:`LeafBoxes` walk of a model without held() over the
        inputs, the state variables and the predicate ids, each 0 or 1."""
        variables = {d.name: d.domain() for d in self.inputs + self.state_vars}
        for dec in self.decisions():
            variables.update((ident, range(2)) for ident in dec.reads if ident not in variables)
        return LeafBoxes(self.body, variables, len(self.inputs), lambda dec: dec.reads)

    @cached_property
    def input_boxes(self) -> "LeafBoxes":
        """The walk over the inputs alone, where only conditions over inputs
        alone, without held(), split: a leaf's boxes are the valuations that
        satisfy its path factors over inputs alone."""
        return LeafBoxes(self.body, {d.name: d.domain() for d in self.inputs}, len(self.inputs),
                         lambda dec: dec.reads if self.over_inputs(dec.condition) else None)

    def over_inputs(self, expr: Expr) -> bool:
        """``expr`` reads inputs alone, at least one, and no held()."""
        refs = free_vars(expr)
        return (bool(refs) and refs <= set(self.input_names)
                and not any(isinstance(e, Held) for e in walk_exprs(expr)))

    def initial_state(self) -> dict:
        return {d.name: d.init for d in self.state_vars}

    def leaves(self) -> list:
        return [n for n in walk_nodes(self.body) if isinstance(n, Leaf)]

    def decisions(self) -> list:
        return [n for n in walk_nodes(self.body) if isinstance(n, Decision)]


@dataclass(frozen=True)
class TemporalPredicateDecl:
    """One atomic temporal predicate: variable ``var`` equal to ``expected``
    continuously for ``duration_ms``."""

    id: str
    var: str
    expected: int
    duration_ms: int


def walk_nodes(node: Node) -> Iterator[Node]:
    yield node
    if isinstance(node, Decision):
        yield from walk_nodes(node.then_branch)
        yield from walk_nodes(node.else_branch)


_OPERANDS = {Not: lambda e: (e.operand,), And: lambda e: (e.left, e.right),
             Or: lambda e: (e.left, e.right), Cmp: lambda e: (e.left, e.right),
             Held: lambda e: (e.formula,)}


def _operands(expr: Expr) -> tuple:
    operands = _OPERANDS.get(type(expr))
    return operands(expr) if operands else ()


def walk_exprs(expr: Expr) -> Iterator[Expr]:
    yield expr
    for operand in _operands(expr):
        yield from walk_exprs(operand)


def free_vars(expr: Expr) -> frozenset:
    """Variable and predicate identifiers referenced by ``expr``."""
    return frozenset(e.ident for e in walk_exprs(expr) if isinstance(e, (Name, PredRef)))


# ---------------------------------------------------------------------------
# Lexer

_KEYWORDS = frozenset(
    "model input output state logic if else held bool int readable hidden true false".split()
)

_TOKEN_RE = re.compile(
    r"""
      (?P<skip>[ \t\r]+|//[^\n]*)
    | (?P<nl>\n)
    | (?P<duration>\d+(?:ms|s)\b)
    | (?P<int>\d+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op>\|\||&&|==|!=|<=|>=|\.\.|[!<>=(){};:,])
    | (?P<bad>.)
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # "ident" | "int" | "duration" | keyword | operator | "eof"
    text: str
    line: int
    col: int


def tokenize(source: str) -> list:
    """The tokens of ``source``, in one pass of ``_TOKEN_RE``, whose last
    alternative matches any other character; a column counts characters
    from the start of its line, a tab as one."""
    tokens = []
    line, line_start = 1, 0  # the current line and the offset it starts at
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        if kind == "skip":
            continue
        if kind == "nl":
            line, line_start = line + 1, m.end()
            continue
        text, col = m.group(), m.start() - line_start + 1
        if kind == "bad":
            raise ParseError("unexpected character %r" % text, line, col)
        if kind == "op" or kind == "ident" and text in _KEYWORDS:
            kind = text
        tokens.append(Token(kind, text, line, col))
    tokens.append(Token("eof", "", line, len(source) - line_start + 1))
    return tokens


def _literal(tok: Token) -> int:
    """The value of an int or duration token, a duration in ms."""
    text, scale = tok.text, 1
    if tok.kind == "duration":
        text, scale = (text[:-2], 1) if text.endswith("ms") else (text[:-1], 1000)
    try:
        return int(text) * scale
    except ValueError as exc:  # more digits than int() converts
        raise ParseError("integer literal has too many digits", tok.line, tok.col) from exc


# ---------------------------------------------------------------------------
# Parser (recursive descent)

_CMP_FUNCTIONS = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
                  "<=": operator.le, ">": operator.gt, ">=": operator.ge}


class _Parser:
    def __init__(self, tokens: list):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, *kinds) -> bool:
        return self.peek().kind in kinds

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                "unexpected %s" % (repr(tok.text) if tok.text else "end of input"),
                tok.line,
                tok.col,
                expected=(kind,),
            )
        return self.next()

    # declarations ---------------------------------------------------------

    def parse_model(self) -> ModelAst:
        self.expect("model")
        name = self.expect("ident").text
        self.expect("{")
        inputs, outputs, state_vars = [], [], []
        while self.at("input", "output", "state"):
            role = self.next().kind
            ident = self.expect("ident")
            self.expect(":")
            typ, lo, hi = self.parse_type(ident)
            visibility = None
            init = None
            if role == "state":
                vis_tok = self.peek()
                if vis_tok.kind not in ("readable", "hidden"):
                    raise ParseError(
                        "state variable needs a visibility",
                        vis_tok.line,
                        vis_tok.col,
                        expected=("readable", "hidden"),
                    )
                visibility = self.next().kind
                if self.at("="):
                    self.next()
                    init = self.parse_const_value(typ)
                else:
                    init = 0 if typ == "bool" else lo
            self.expect(";")
            decl = VarDecl(ident.text, typ, lo, hi, visibility, init, ident.line, ident.col)
            {"input": inputs, "output": outputs, "state": state_vars}[role].append(decl)
        body = self.parse_logic()
        self.expect("}")
        self.expect("eof")
        return ModelAst(name, tuple(inputs), tuple(outputs), tuple(state_vars), body)

    def parse_type(self, at: Token):
        if self.at("bool"):
            self.next()
            return "bool", None, None
        if self.at("int"):
            self.next()
            lo = _literal(self.expect("int"))
            self.expect("..")
            hi = _literal(self.expect("int"))
            if lo > hi:
                raise ParseError("empty integer range %d..%d" % (lo, hi), at.line, at.col)
            return "int", lo, hi
        tok = self.peek()
        raise ParseError("bad type", tok.line, tok.col, expected=("bool", "int"))

    def parse_const_value(self, typ: str) -> int:
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return _literal(tok)
        if tok.kind in ("true", "false"):
            self.next()
            return 1 if tok.kind == "true" else 0
        raise ParseError("bad initializer", tok.line, tok.col, expected=("int", "true", "false"))

    # logic block ----------------------------------------------------------

    def parse_logic(self) -> Node:
        self.expect("logic")
        return self.parse_block("")

    def parse_block(self, path: str) -> Node:
        brace = self.expect("{")
        if self.at("if"):
            node = self.parse_if(path)
            self.expect("}")
            return node
        assigns = []
        while not self.at("}"):
            target = self.expect("ident")
            self.expect("=")
            value = self.parse_expr()
            self.expect(";")
            assigns.append(Assign(target.text, value, target.line, target.col))
        self.expect("}")
        return Leaf(path, tuple(assigns), brace.line, brace.col)

    def parse_if(self, path: str) -> Decision:
        tok = self.expect("if")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then_branch = self.parse_block(path + "t")
        self.expect("else")
        else_branch = self.parse_block(path + "e")
        return Decision(path, cond, then_branch, else_branch, tok.line, tok.col)

    # expressions ----------------------------------------------------------

    def parse_expr(self) -> Expr:
        return self.parse_or()

    def parse_or(self) -> Expr:
        left = self.parse_and()
        while self.at("||"):
            tok = self.next()
            left = Or(left, self.parse_and(), line=tok.line, col=tok.col)
        return left

    def parse_and(self) -> Expr:
        left = self.parse_cmp()
        while self.at("&&"):
            tok = self.next()
            left = And(left, self.parse_cmp(), line=tok.line, col=tok.col)
        return left

    def parse_cmp(self) -> Expr:
        left = self.parse_unary()
        if self.at(*_CMP_FUNCTIONS):
            tok = self.next()
            return Cmp(tok.kind, left, self.parse_unary(), line=tok.line, col=tok.col)
        return left

    def parse_unary(self) -> Expr:
        if self.at("!"):
            tok = self.next()
            return Not(self.parse_unary(), line=tok.line, col=tok.col)
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "(":
            self.next()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if tok.kind == "held":
            self.next()
            self.expect("(")
            formula = self.parse_expr()
            self.expect(",")
            dur = self.expect("duration")
            self.expect(")")
            ms = _literal(dur)
            if ms < 1:
                raise ParseError("held() duration must be positive", dur.line, dur.col)
            return Held(formula, ms, line=tok.line, col=tok.col)
        if tok.kind == "ident":
            self.next()
            return Name(tok.text, line=tok.line, col=tok.col)
        if tok.kind == "int":
            self.next()
            return Const(_literal(tok), False, line=tok.line, col=tok.col)
        if tok.kind in ("true", "false"):
            self.next()
            return Const(1 if tok.kind == "true" else 0, True, line=tok.line, col=tok.col)
        raise ParseError(
            "unexpected %s" % (repr(tok.text) if tok.text else "end of input"),
            tok.line,
            tok.col,
            expected=("(", "held", "identifier", "literal"),
        )


def parse_model(source: str) -> ModelAst:
    """Parse a model and run declaration-level validation."""
    ast = _Parser(tokenize(source)).parse_model()
    _validate(ast)
    return ast


def parse_expression(source: str) -> Expr:
    """Parse a standalone expression, such as ``print_expr`` prints."""
    parser = _Parser(tokenize(source))
    expr = parser.parse_expr()
    parser.expect("eof")
    return expr


def _validate(ast: ModelAst) -> None:
    seen = {}
    for decl in ast.inputs + ast.outputs + ast.state_vars:
        if decl.name in seen:
            raise SemanticError("duplicate declaration of '%s'" % decl.name, decl.line, decl.col)
        seen[decl.name] = decl
        domain = decl.domain()
        if decl.init is not None and decl.init not in domain:
            raise SemanticError("initializer %d outside range %d..%d"
                                % (decl.init, domain[0], domain[-1]), decl.line, decl.col)
    inputs = set(ast.input_names)
    assigned = set()
    for node in walk_nodes(ast.body):
        if isinstance(node, Decision):
            _check_refs(node.condition, seen, ast.output_names, in_condition=True)
        else:
            for a in node.assigns:
                if a.target not in seen:
                    raise SemanticError("assignment to undeclared '%s'" % a.target, a.line, a.col)
                if a.target in inputs:
                    raise SemanticError("cannot assign to input '%s'" % a.target, a.line, a.col)
                _check_refs(a.value, seen, ast.output_names, in_condition=False)
                assigned.add(a.target)
    for out in ast.outputs:
        if out.name not in assigned:
            raise SemanticError("output never assigned: '%s'" % out.name, out.line, out.col)


def _check_refs(expr: Expr, decls: Mapping, outputs: tuple, in_condition: bool,
                inside_held: bool = False) -> None:
    """Reject a misplaced held() and a name that no input or state variable
    declares: an expression reads nothing else."""
    if isinstance(expr, Name):
        if expr.ident not in decls:
            raise SemanticError("undeclared identifier '%s'" % expr.ident, expr.line, expr.col)
        if expr.ident in outputs:
            raise SemanticError("cannot read output '%s'" % expr.ident, expr.line, expr.col)
    elif isinstance(expr, Held):
        if not in_condition:
            raise SemanticError("held() is only allowed in decision conditions", expr.line, expr.col)
        if inside_held:
            raise SemanticError("held() cannot be nested", expr.line, expr.col)
    for operand in _operands(expr):
        _check_refs(operand, decls, outputs, in_condition, inside_held or isinstance(expr, Held))


# ---------------------------------------------------------------------------
# Printing

_PREC = {Or: 1, And: 2, Cmp: 3, Not: 4}


def print_expr(expr: Expr, min_prec: int = 0) -> str:
    """Source text of ``expr``, which ``parse_expression`` reads back.

    ``min_prec`` is the lowest ``_PREC`` precedence printable without
    parentheses at the position the text is put in; right operands of
    left-associative binary ops need strictly higher.
    """
    if isinstance(expr, (Name, PredRef)):
        return expr.ident
    if isinstance(expr, Const):
        if expr.as_bool:
            return "true" if expr.value else "false"
        return str(expr.value)
    if isinstance(expr, Held):
        if expr.duration_ms % 1000 == 0:
            dur = "%ds" % (expr.duration_ms // 1000)
        else:
            dur = "%dms" % expr.duration_ms
        return "held(%s, %s)" % (print_expr(expr.formula), dur)
    prec = _PREC[type(expr)]
    if isinstance(expr, Not):
        text = "!" + print_expr(expr.operand, prec)
    elif isinstance(expr, And):
        text = "%s && %s" % (print_expr(expr.left, prec), print_expr(expr.right, prec + 1))
    elif isinstance(expr, Or):
        text = "%s || %s" % (print_expr(expr.left, prec), print_expr(expr.right, prec + 1))
    else:
        text = "%s %s %s" % (print_expr(expr.left, prec + 1), expr.op,
                             print_expr(expr.right, prec + 1))
    if prec < min_prec:
        return "(" + text + ")"
    return text


def print_conjunction(factors) -> str:
    """``factors`` joined by ``&&``, each printed at ``&&`` precedence so that
    the text parses back to their conjunction; ``true`` when there are none."""
    return " && ".join(print_expr(f, _PREC[And]) for f in factors) or "true"


def print_model(ast: ModelAst) -> str:
    """Render a model to canonical source; ``parse_model`` round-trips it."""
    lines = ["model %s {" % ast.name]
    for decl in ast.inputs:
        lines.append("  input %s: %s;" % (decl.name, _print_type(decl)))
    for decl in ast.outputs:
        lines.append("  output %s: %s;" % (decl.name, _print_type(decl)))
    for decl in ast.state_vars:
        lines.append(
            "  state %s: %s %s = %d;" % (decl.name, _print_type(decl), decl.visibility, decl.init)
        )
    lines.append("")
    lines.append("  logic " + _print_node(ast.body, 1).lstrip())
    lines.append("}")
    return "\n".join(lines) + "\n"


def _print_type(decl: VarDecl) -> str:
    if decl.type == "bool":
        return "bool"
    return "int %d..%d" % (decl.lo, decl.hi)


def _print_node(node: Node, depth: int) -> str:
    pad = "  " * depth
    if isinstance(node, Leaf):
        body = "".join(
            "%s  %s = %s;\n" % (pad, a.target, print_expr(a.value)) for a in node.assigns
        )
        return "%s{\n%s%s}" % (pad, body, pad)
    then_text = _print_node(node.then_branch, depth + 1).lstrip()
    else_text = _print_node(node.else_branch, depth + 1).lstrip()
    return "%s{\n%s  if (%s) %s else %s\n%s}" % (
        pad,
        pad,
        print_expr(node.condition),
        then_text,
        else_text,
        pad,
    )


# ---------------------------------------------------------------------------
# Evaluation

HeldEval = Callable[[Held], int]


def eval_expr(expr: Expr, env: Mapping, held_eval: Optional[HeldEval] = None) -> int:
    """Evaluate a pure expression to an int (booleans are 0/1).

    ``env`` is one namespace: it binds the variable names and the predicate
    ids alike, a predicate id to a bool or 0/1.  ``held_eval`` supplies
    values for raw held() nodes when evaluating unrewritten models.
    """
    if isinstance(expr, (Name, PredRef)):
        return int(env[expr.ident])
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Not):
        return 0 if eval_expr(expr.operand, env, held_eval) else 1
    if isinstance(expr, And):
        if not eval_expr(expr.left, env, held_eval):
            return 0
        return 1 if eval_expr(expr.right, env, held_eval) else 0
    if isinstance(expr, Or):
        if eval_expr(expr.left, env, held_eval):
            return 1
        return 1 if eval_expr(expr.right, env, held_eval) else 0
    if isinstance(expr, Cmp):
        left = eval_expr(expr.left, env, held_eval)
        right = eval_expr(expr.right, env, held_eval)
        return 1 if _CMP_FUNCTIONS[expr.op](left, right) else 0
    if isinstance(expr, Held):
        if held_eval is None:
            raise ModelError("held() reached the evaluator; extract predicates first")
        return 1 if held_eval(expr) else 0
    raise TypeError("not an expression node: %r" % (expr,))


class LeafBoxes:
    """One symbolic walk of a decision tree: the environments that reach
    each leaf, as a union of disjoint boxes.

    A box holds an ascending sequence of values per variable of
    ``variables``, the first ``n_free`` of them the inputs.  The walk
    carries boxes down from one box of every domain at the root.  A decision
    splits each box by outcome over the values, within the box, of the
    variables that ``reads(decision)`` names (its cone of influence), or
    passes the boxes to both branches when that is None.  ``leaves`` maps
    each leaf reached to its boxes.
    """

    def __init__(self, body: Node, variables: Mapping, n_free: int,
                 reads: Callable[[Decision], Optional[tuple]]):
        self.n_free = n_free
        self.leaves: dict = {}  # leaf id -> boxes, leaves in pre-order
        self._bound = tuple(variables)[n_free:]  # the variables a point binds
        column = {name: k for k, name in enumerate(variables)}
        self._visit(body, [tuple(variables.values())], reads, column)

    def _visit(self, node: Node, boxes: list, reads, column: Mapping) -> None:
        if not boxes:
            return
        if isinstance(node, Leaf):
            self.leaves[node.node_id] = boxes
            return
        read = reads(node)
        sides = (boxes, boxes) if read is None else _split(node.condition, read, boxes, column)
        self._visit(node.then_branch, sides[0], reads, column)
        self._visit(node.else_branch, sides[1], reads, column)

    @cached_property
    def _index(self) -> tuple:
        """Every box, and per bound variable each value's bit mask of the boxes."""
        boxes = [(leaf_id, box) for leaf_id, leaf_boxes in self.leaves.items() for box in leaf_boxes]
        masks = [{} for _ in self._bound]
        for bit, (_, box) in enumerate(boxes):
            for by_value, comp in zip(masks, box[self.n_free:]):
                for value in comp:
                    by_value[value] = by_value.get(value, 0) | 1 << bit
        return boxes, masks

    def at(self, env: Mapping) -> list:
        """``(leaf id, input part of the box)`` for every box that holds the
        point ``env`` binds to the variables past the inputs."""
        boxes, masks = self._index
        hit = (1 << len(boxes)) - 1
        for by_value, name in zip(masks, self._bound):
            hit &= by_value.get(env[name], 0)
        return [(leaf_id, box[:self.n_free]) for bit, (leaf_id, box) in enumerate(boxes)
                if hit >> bit & 1]


def _split(condition: Expr, read: tuple, boxes: list, column: Mapping) -> tuple:
    """The boxes where ``condition``, which reads the variables ``read``
    (columns given by ``column``), holds, and those where it does not."""
    cols = [column[v] for v in read]
    sides = ([], [])  # then, else
    for box in boxes:
        comps = [box[k] for k in cols]
        points = (set(), set())  # taken, not taken
        for values in itertools.product(*comps):
            points[not eval_expr(condition, dict(zip(read, values)))].add(values)
        for side, found, other in zip(sides, points, reversed(points)):
            if not other:
                side.append(box)
            elif found:
                for part in _cover(found, comps):
                    split = list(box)
                    for k, values in zip(cols, part):
                        split[k] = values
                    side.append(tuple(split))
    return sides


def _cover(points: set, comps: list) -> list:
    """Disjoint boxes over ``comps`` whose points are exactly ``points``:
    values of the first variable with the same rest share a box."""
    if len(comps) == 1:
        return [(tuple(v for v in comps[0] if (v,) in points),)]
    rests: dict = {}
    for p in points:
        rests.setdefault(p[0], set()).add(p[1:])
    shared: dict = {}  # rest -> the values with that rest, ascending
    for value in comps[0]:
        if value in rests:
            shared.setdefault(frozenset(rests[value]), []).append(value)
    return [(tuple(values),) + sub for rest, values in shared.items()
            for sub in _cover(rest, comps[1:])]


def condition_atoms(expr: Expr) -> list:
    """Ordered unique atomic conditions of a decision (names, predicate
    references, comparisons, held nodes), keyed by printed form."""
    atoms: dict = {}
    _collect_atoms(expr, atoms)
    return list(atoms.items())


def _collect_atoms(expr: Expr, atoms: dict) -> None:
    if isinstance(expr, (Not, And, Or)):
        for operand in _operands(expr):
            _collect_atoms(operand, atoms)
    elif not isinstance(expr, Const):
        atoms.setdefault(print_expr(expr), expr)


# ---------------------------------------------------------------------------
# Static checks


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning" | "note"
    code: str
    message: str
    line: int = 0
    col: int = 0
    node_id: Optional[str] = None

    def format(self, filename: str = "<model>") -> str:
        return "%s:%d:%d: %s: %s" % (filename, self.line, self.col, self.severity, self.message)


def check_model(ast: ModelAst) -> list:
    """Completeness, typing and reachability diagnostics; empty means clean."""
    diags = []
    decls = ast.decls()
    for leaf in ast.leaves():
        assigned = {a.target for a in leaf.assigns}
        for out in ast.output_names:
            if out not in assigned:
                diags.append(
                    Diagnostic(
                        "error",
                        "IncompleteOutput",
                        "output '%s' not assigned on path '%s'" % (out, leaf.node_id or "root"),
                        leaf.line, leaf.col, leaf.node_id,
                    )
                )
        for a in leaf.assigns:
            target = decls[a.target]
            vtype = _expr_type(a.value, decls, diags)
            if vtype is None:
                continue
            if target.type == "bool" and not _bool_compatible(a.value, vtype):
                diags.append(
                    Diagnostic("error", "TypeError",
                               "assigning %s value to bool '%s'" % (vtype, a.target),
                               a.line, a.col, leaf.node_id)
                )
            elif target.type == "int":
                # a constant gives its own value, a variable its declared
                # domain, anything else 0 or 1
                value = a.value
                const = isinstance(value, Const)
                values = (range(value.value, value.value + 1) if const else
                          decls[value.ident].domain() if isinstance(value, Name) else range(2))
                if not target.lo <= values[0] <= values[-1] <= target.hi:
                    shown = ("%d" % value.value if const else "'%s' in %d..%d can fall"
                             % (print_expr(value), values[0], values[-1]))
                    diags.append(Diagnostic("error", "ValueOutOfRange", "%s outside %d..%d for '%s'"
                                            % (shown, target.lo, target.hi, a.target),
                                            a.line, a.col, leaf.node_id))
    for dec in ast.decisions():
        ctype = _expr_type(dec.condition, decls, diags)
        if ctype is not None and not _bool_compatible(dec.condition, ctype):
            diags.append(
                Diagnostic("error", "TypeError", "decision condition is not boolean",
                           dec.line, dec.col, dec.node_id)
            )
    # leaves that no valuation of the inputs, state variables and held()
    # atoms reaches: each distinct atom is a predicate id of its own, or
    # false when it never holds
    atoms: dict = {}
    reached = _map_held(ast, lambda held: Const(0, True) if _never_holds(held, ast.domains)
                        else PredRef(atoms.setdefault(held, "held %d" % len(atoms)))
                        ).leaf_boxes.leaves
    diags.extend(Diagnostic("warning", "UnreachableLeaf",
                            "leaf '%s' is unreachable" % (leaf.node_id or "root"),
                            leaf.line, leaf.col, leaf.node_id)
                 for leaf in ast.leaves() if leaf.node_id not in reached)
    return diags


def _never_holds(held: Held, domains: Mapping) -> bool:
    """Some literal of the held() formula compares its variable with a value
    outside the variable's domain.  A formula that is no conjunction of
    literals is left to :func:`extract_predicates` to reject."""
    try:
        literals = _held_literals(held.formula)
    except UnsupportedTemporalFormula:
        return False
    return any(expected not in domains[var] for var, expected, _ in literals)


def _bool_compatible(expr: Expr, etype: str) -> bool:
    if etype == "bool":
        return True
    return isinstance(expr, Const) and expr.value in (0, 1)


_NOT_BOOLEAN = {Not: "'!' needs a boolean operand", Held: "held() formula is not boolean"}


def _expr_type(expr: Expr, decls: Mapping, diags: list) -> Optional[str]:
    if isinstance(expr, Name):
        decl = decls.get(expr.ident)
        return decl.type if decl else None
    if isinstance(expr, Const):
        return "bool" if expr.as_bool else "int"
    if isinstance(expr, Cmp):
        types = [_expr_type(side, decls, diags) for side in (expr.left, expr.right)]
        if expr.op in ("<", "<=", ">", ">="):
            for t, side in zip(types, (expr.left, expr.right)):
                if t == "bool" and not isinstance(side, Const):
                    diags.append(Diagnostic("error", "TypeError",
                                            "ordering comparison on boolean operand",
                                            expr.line, expr.col))
        return "bool"
    for operand in _operands(expr):
        t = _expr_type(operand, decls, diags)
        if t is not None and not _bool_compatible(operand, t):
            message = _NOT_BOOLEAN.get(type(expr), "boolean operator applied to %s operand" % t)
            diags.append(Diagnostic("error", "TypeError", message, expr.line, expr.col))
    return "bool"  # a predicate id or a boolean operator


# ---------------------------------------------------------------------------
# Temporal predicate extraction


@dataclass(frozen=True)
class ExtractionResult:
    source: ModelAst
    model: ModelAst  # rewritten: held() replaced by predicate references
    predicates: tuple


def _held_literals(formula: Expr) -> list:
    """Flatten a held() formula into (var, expected-value, unit) literals."""
    if isinstance(formula, And):
        return _held_literals(formula.left) + _held_literals(formula.right)
    if isinstance(formula, Name):
        return [(formula.ident, 1, formula)]
    if isinstance(formula, Not) and isinstance(formula.operand, Name):
        return [(formula.operand.ident, 0, formula)]
    if isinstance(formula, Cmp) and formula.op == "==":
        sides = {type(formula.left): formula.left, type(formula.right): formula.right}
        if Name in sides and Const in sides:
            return [(sides[Name].ident, sides[Const].value, formula)]
    raise UnsupportedTemporalFormula(
        "held() needs a conjunction of literals, got '%s'" % print_expr(formula),
        formula.line, formula.col)


def extract_predicates(ast: ModelAst) -> ExtractionResult:
    """Split every held() into atomic per-variable predicates and rewrite the
    model over their identifiers.

    Identifiers follow ``<var>_eq_<value>_t<k>`` with ``k`` indexing the
    distinct durations in ascending order; identical (literal, duration)
    pairs share one identifier.
    """
    occurrences = []  # (var, expected, duration_ms) in pre-order
    for dec in ast.decisions():
        for e in walk_exprs(dec.condition):
            if isinstance(e, Held):
                for var, expected, _ in _held_literals(e.formula):
                    occurrences.append((var, expected, e.duration_ms))

    durations = sorted({d for _, _, d in occurrences})
    dur_index = {d: i + 1 for i, d in enumerate(durations)}
    decls = ast.decls()
    predicates = []
    # distinct literals by duration, then first occurrence (the sort is stable)
    for var, expected, dur in sorted(dict.fromkeys(occurrences), key=lambda k: dur_index[k[2]]):
        if decls[var].type == "bool":
            val = "t" if expected else "f"
        else:
            val = str(expected)
        pid = "%s_eq_%s_t%d" % (var, val, dur_index[dur])
        if pid in decls:
            raise SemanticError("predicate id '%s' collides with a declaration" % pid,
                                decls[pid].line, decls[pid].col)
        predicates.append(TemporalPredicateDecl(pid, var, expected, dur))

    index = {(p.var, p.expected, p.duration_ms): p.id for p in predicates}
    rewritten = _map_held(ast, lambda held: _predicate_conjunction(held, index))
    return ExtractionResult(ast, rewritten, tuple(predicates))


def _predicate_conjunction(held: Held, index: Mapping) -> Expr:
    return functools.reduce(And, [PredRef(index[(var, expected, held.duration_ms)])
                                  for var, expected, _ in _held_literals(held.formula)])


def _map_held(item, fn: Callable[[Held], Expr]):
    """Copy of a model, decision tree or expression with every held() node
    replaced by ``fn(node)``; everything else, positions included, is kept."""
    if isinstance(item, Held):
        return fn(item)
    if isinstance(item, Not):
        return Not(_map_held(item.operand, fn), line=item.line, col=item.col)
    if isinstance(item, (And, Or)):
        return type(item)(_map_held(item.left, fn), _map_held(item.right, fn),
                          line=item.line, col=item.col)
    if isinstance(item, Cmp):
        return Cmp(item.op, _map_held(item.left, fn), _map_held(item.right, fn),
                   line=item.line, col=item.col)
    if isinstance(item, Decision):
        return Decision(item.node_id, _map_held(item.condition, fn),
                        _map_held(item.then_branch, fn), _map_held(item.else_branch, fn),
                        item.line, item.col)
    if isinstance(item, ModelAst):
        return ModelAst(item.name, item.inputs, item.outputs, item.state_vars,
                        _map_held(item.body, fn))
    return item


def rescale_durations(ast: ModelAst, mapping: Mapping) -> ModelAst:
    """Return a copy with held() durations remapped (``{old_ms: new_ms}``).

    Durations not in ``mapping`` are kept; used to shrink long conditions to
    desk-scale cycle counts for exhaustive checks.
    """
    def rescale(held: Held) -> Held:
        return Held(held.formula, mapping.get(held.duration_ms, held.duration_ms),
                    line=held.line, col=held.col)

    return _map_held(ast, rescale)
