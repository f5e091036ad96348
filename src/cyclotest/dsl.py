"""Decision-logic model language: lexer, parser, static checks, predicate extraction.

A ``.ctl`` model declares typed inputs, outputs and state variables, plus a
``logic`` block holding a binary decision tree.  Decision conditions are
boolean expressions whose atoms may be ``held(<formula>, <duration>)``
temporal conditions; every leaf is a block of assignments.  ASTs are frozen
dataclasses and all functions here are pure.  :class:`LeafBoxes` splits
sets of values by each condition's structure, never evaluating a point.
"""
from __future__ import annotations

import functools
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


def compile_function(lines: list, name: str, filename: str, namespace: dict) -> Callable:
    """The function ``name`` that the generated source ``lines`` defines,
    with ``namespace`` as its globals.  Taken out of its globals, the
    function holds no reference cycle and is freed with its owner, not by
    the collector."""
    exec(compile("\n".join(lines), filename, "exec"), namespace)
    return namespace.pop(name)


class compiled_lazily(cached_property):
    """A ``cached_property`` for a generated function, set on the instance by
    ``object.__setattr__``: a write to ``__dict__`` slows attribute loads."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        function = self.func(instance)
        object.__setattr__(instance, self.attrname, function)
        return function


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
        ids = set().union(*(free_vars(dec.condition) for dec in self.decisions()))
        variables.update(dict.fromkeys(sorted(ids - variables.keys()), range(2)))
        return LeafBoxes(self.body, variables, len(self.inputs), lambda dec: True)

    @cached_property
    def input_boxes(self) -> "LeafBoxes":
        """The walk over the inputs alone, where only conditions over inputs
        alone, without held(), split: a leaf's boxes are the valuations that
        satisfy its path factors over inputs alone."""
        return LeafBoxes(self.body, {d.name: d.domain() for d in self.inputs}, len(self.inputs),
                         lambda dec: self.over_inputs(dec.condition))

    @compiled_lazily
    def compiled(self) -> Callable:
        """The rewritten model's reference run, generated and compiled on
        first use: see :func:`cyclotest.interp.compile_model`."""
        from .interp import compile_model  # interp builds on this module

        return compile_model(self)

    def __getstate__(self) -> dict:
        # a function does not pickle; an unpickled model compiles it again
        return {k: v for k, v in self.__dict__.items() if k != "compiled"}

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


# ---------------------------------------------------------------------------
# Evaluation

class LeafBoxes:
    """One symbolic walk of a decision tree: the environments that reach
    each leaf, as a union of disjoint boxes.

    A box holds an ascending sequence of values per variable of
    ``variables``, the first ``n_free`` of them the inputs.  The walk
    carries boxes down from one box of every domain at the root.  A decision
    for which ``splits(decision)`` is true splits each box by its condition
    (:func:`_split`); any other passes the boxes to both branches.
    ``leaves`` maps each leaf reached to its boxes.
    """

    def __init__(self, body: Node, variables: Mapping, n_free: int,
                 splits: Callable[[Decision], bool]):
        self.n_free = n_free
        self.leaves: dict = {}  # leaf id -> boxes, leaves in pre-order
        self._bound = tuple(variables)[n_free:]  # the variables a point binds
        column = {name: k for k, name in enumerate(variables)}
        self._visit(body, [tuple(variables.values())], splits, column)

    def _visit(self, node: Node, boxes: list, splits, column: Mapping) -> None:
        if not boxes:
            return
        if isinstance(node, Leaf):
            self.leaves[node.node_id] = boxes
            return
        sides = _split(node.condition, boxes, column) if splits(node) else (boxes, boxes)
        self._visit(node.then_branch, sides[0], splits, column)
        self._visit(node.else_branch, sides[1], splits, column)

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


def _split(condition: Expr, boxes: list, column: Mapping) -> tuple:
    """The boxes where ``condition`` holds, and those where it does not, as
    disjoint parts of ``boxes``; ``column`` gives each variable's position
    in a box.  ``!`` swaps the two sides, ``&&`` splits its left operand's
    true side by its right operand and ``||`` its false side.  An atom is
    one variable against one constant (``x`` is ``x != 0``) and splits that
    variable's values alone (:func:`_filter`)."""
    kind = type(condition)
    if kind is Not:
        taken, other = _split(condition.operand, boxes, column)
        return other, taken
    if kind is And:
        taken, other = _split(condition.left, boxes, column)
        taken, rest = _split(condition.right, taken, column)
        return taken, other + rest
    if kind is Or:
        taken, other = _split(condition.left, boxes, column)
        more, other = _split(condition.right, other, column)
        return taken + more, other
    if kind is Const:
        return (boxes, []) if condition.value else ([], boxes)
    if kind is not Cmp:  # a name or a predicate id
        return _filter(boxes, column[condition.ident], bool, ([], []))
    compare = _CMP_FUNCTIONS[condition.op]
    sides = ([], [])
    for part, left, lc in _operand(condition.left, boxes, column):
        for piece, right, rc in _operand(condition.right, part, column):
            if left is None and right is None:
                sides[not compare(lc, rc)].extend(piece)
            elif right is None:
                _filter(piece, left, lambda v: compare(v, rc), sides)
            elif left is None:
                _filter(piece, right, lambda v: compare(lc, v), sides)
            elif left == right:
                _filter(piece, left, lambda v: compare(v, v), sides)
            else:  # the left variable fixed value by value; alike values share a box
                for box in piece:
                    alike: dict = {}  # the right values that pass -> the left values
                    for u in box[left]:
                        taken = frozenset(v for v in box[right] if compare(u, v))
                        alike.setdefault(taken, []).append(u)
                    for taken, values in alike.items():
                        fixed = box[:left] + (tuple(values),) + box[left + 1:]
                        _filter([fixed], right, taken.__contains__, sides)
    return sides


def _operand(expr: Expr, boxes: list, column: Mapping) -> list:
    """``(boxes, column, value)`` triples for a comparison's operand: a
    variable's column, a constant's value, or a condition's 1 and 0."""
    if isinstance(expr, Const):
        return [(boxes, None, expr.value)]
    if isinstance(expr, (Name, PredRef)):
        return [(boxes, column[expr.ident], None)]
    taken, other = _split(expr, boxes, column)
    return [(taken, None, 1), (other, None, 0)]


def _filter(boxes: list, k: int, keep: Callable, sides: tuple) -> tuple:
    """Split each box onto ``sides`` (then, else) by whether its column ``k``
    values pass ``keep``; a box that does not split stays whole."""
    for box in boxes:
        comp = box[k]
        taken = tuple(v for v in comp if keep(v))
        if not taken or len(taken) == len(comp):
            sides[not taken].append(box)
        else:
            sides[0].append(box[:k] + (taken,) + box[k + 1:])
            sides[1].append(box[:k] + (tuple(v for v in comp if not keep(v)),) + box[k + 1:])
    return sides


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
    """A model with its temporal predicates extracted, and the one clock that
    every analysis and campaign reads held() by: the cycle period, and whether
    a predicate fires only once its hold exceeds its duration."""

    source: ModelAst
    model: ModelAst  # rewritten: held() replaced by predicate references
    predicates: tuple
    cycle_period_ms: int = 1000
    strict_held: bool = False


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
