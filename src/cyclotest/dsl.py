"""Decision-logic model language: lexer, parser, static checks, predicate extraction.

A ``.ctl`` model declares typed inputs, outputs and state variables, plus a
``logic`` block holding a binary decision tree.  Decision conditions are
boolean expressions whose atoms may be ``held(<formula>, <duration>)``
temporal conditions; every leaf is a block of assignments.  ASTs are frozen
dataclasses and all functions here are pure.
"""
from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Mapping, Optional, Union


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
    def input_valuations(self) -> tuple:
        """Every input valuation as a dict, in ``itertools.product`` order
        over the input domains.  Shared: callers must not mutate them."""
        names = self.input_names
        return tuple(dict(zip(names, values))
                     for values in itertools.product(*(self.domains[n] for n in names)))

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


def walk_exprs(expr: Expr) -> Iterator[Expr]:
    yield expr
    if isinstance(expr, Not):
        yield from walk_exprs(expr.operand)
    elif isinstance(expr, (And, Or)):
        yield from walk_exprs(expr.left)
        yield from walk_exprs(expr.right)
    elif isinstance(expr, Cmp):
        yield from walk_exprs(expr.left)
        yield from walk_exprs(expr.right)
    elif isinstance(expr, Held):
        yield from walk_exprs(expr.formula)


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
      (?P<ws>[ \t\r]+)
    | (?P<nl>\n)
    | (?P<comment>//[^\n]*)
    | (?P<duration>\d+(?:ms|s)\b)
    | (?P<int>\d+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op>\|\||&&|==|!=|<=|>=|\.\.|[!<>=(){};:,])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "int" | "duration" | keyword | operator | "eof"
    text: str
    line: int
    col: int


def tokenize(source: str) -> list:
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError("unexpected character %r" % source[pos], line, col)
        kind = m.lastgroup
        text = m.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(text)
        else:
            if kind == "ident" and text in _KEYWORDS:
                kind = text
            elif kind == "op":
                kind = text
            tokens.append(Token(kind, text, line, col))
            col += len(text)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


def _duration_ms(text: str) -> int:
    if text.endswith("ms"):
        return int(text[:-2])
    return int(text[:-1]) * 1000


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
            lo = int(self.expect("int").text)
            self.expect("..")
            hi = int(self.expect("int").text)
            if lo > hi:
                raise ParseError("empty integer range %d..%d" % (lo, hi), at.line, at.col)
            return "int", lo, hi
        tok = self.peek()
        raise ParseError("bad type", tok.line, tok.col, expected=("bool", "int"))

    def parse_const_value(self, typ: str) -> int:
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return int(tok.text)
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
            ms = _duration_ms(dur.text)
            if ms < 1:
                raise ParseError("held() duration must be positive", dur.line, dur.col)
            return Held(formula, ms, line=tok.line, col=tok.col)
        if tok.kind == "ident":
            self.next()
            return Name(tok.text, line=tok.line, col=tok.col)
        if tok.kind == "int":
            self.next()
            return Const(int(tok.text), False, line=tok.line, col=tok.col)
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
        if decl.init is not None and decl.type == "int" and not decl.lo <= decl.init <= decl.hi:
            raise SemanticError(
                "initializer %d outside range %d..%d" % (decl.init, decl.lo, decl.hi),
                decl.line,
                decl.col,
            )
    inputs = set(ast.input_names)
    assigned = set()
    for node in walk_nodes(ast.body):
        if isinstance(node, Decision):
            _check_refs(node.condition, seen, in_condition=True)
        else:
            for a in node.assigns:
                if a.target not in seen:
                    raise SemanticError("assignment to undeclared '%s'" % a.target, a.line, a.col)
                if a.target in inputs:
                    raise SemanticError("cannot assign to input '%s'" % a.target, a.line, a.col)
                _check_refs(a.value, seen, in_condition=False)
                assigned.add(a.target)
    for out in ast.output_names:
        if out not in assigned:
            raise SemanticError("output never assigned: '%s'" % out)


def _check_refs(expr: Expr, decls: Mapping, in_condition: bool, inside_held: bool = False) -> None:
    if isinstance(expr, Name):
        if expr.ident not in decls:
            raise SemanticError("undeclared identifier '%s'" % expr.ident, expr.line, expr.col)
    elif isinstance(expr, Held):
        if not in_condition:
            raise SemanticError("held() is only allowed in decision conditions", expr.line, expr.col)
        if inside_held:
            raise SemanticError("held() cannot be nested", expr.line, expr.col)
        _check_refs(expr.formula, decls, in_condition, inside_held=True)
    elif isinstance(expr, Not):
        _check_refs(expr.operand, decls, in_condition, inside_held)
    elif isinstance(expr, (And, Or)):
        _check_refs(expr.left, decls, in_condition, inside_held)
        _check_refs(expr.right, decls, in_condition, inside_held)
    elif isinstance(expr, Cmp):
        _check_refs(expr.left, decls, in_condition, inside_held)
        _check_refs(expr.right, decls, in_condition, inside_held)


# ---------------------------------------------------------------------------
# Printing

_PREC = {Or: 1, And: 2, Cmp: 3, Not: 4}


def print_expr(expr: Expr, min_prec: int = 0) -> str:
    """Source text of ``expr``, which ``parse_expression`` reads back.

    ``min_prec`` is the lowest ``_PREC`` precedence printable without
    parentheses at the position the text is put in; right operands of
    left-associative binary ops need strictly higher.
    """
    def render(e: Expr, min_prec: int) -> str:
        if isinstance(e, Name):
            return e.ident
        if isinstance(e, PredRef):
            return e.ident
        if isinstance(e, Const):
            if e.as_bool:
                return "true" if e.value else "false"
            return str(e.value)
        if isinstance(e, Held):
            if e.duration_ms % 1000 == 0:
                dur = "%ds" % (e.duration_ms // 1000)
            else:
                dur = "%dms" % e.duration_ms
            return "held(%s, %s)" % (render(e.formula, 0), dur)
        prec = _PREC[type(e)]
        if isinstance(e, Not):
            text = "!" + render(e.operand, prec)
        elif isinstance(e, And):
            text = "%s && %s" % (render(e.left, prec), render(e.right, prec + 1))
        elif isinstance(e, Or):
            text = "%s || %s" % (render(e.left, prec), render(e.right, prec + 1))
        else:
            text = "%s %s %s" % (render(e.left, prec + 1), e.op, render(e.right, prec + 1))
        if prec < min_prec:
            return "(" + text + ")"
        return text

    return render(expr, min_prec)


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


def eval_expr(expr: Expr, env: Mapping, flags: Optional[Mapping] = None,
              held_eval: Optional[HeldEval] = None) -> int:
    """Evaluate a pure expression to an int (booleans are 0/1).

    ``env`` binds variable names, ``flags`` binds predicate ids; ``held_eval``
    supplies values for raw held() nodes when evaluating unrewritten models.
    """
    if isinstance(expr, Name):
        return int(env[expr.ident])
    if isinstance(expr, PredRef):
        if flags is None or expr.ident not in flags:
            raise KeyError(expr.ident)
        return int(flags[expr.ident])
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Not):
        return 0 if eval_expr(expr.operand, env, flags, held_eval) else 1
    if isinstance(expr, And):
        if not eval_expr(expr.left, env, flags, held_eval):
            return 0
        return 1 if eval_expr(expr.right, env, flags, held_eval) else 0
    if isinstance(expr, Or):
        if eval_expr(expr.left, env, flags, held_eval):
            return 1
        return 1 if eval_expr(expr.right, env, flags, held_eval) else 0
    if isinstance(expr, Cmp):
        left = eval_expr(expr.left, env, flags, held_eval)
        right = eval_expr(expr.right, env, flags, held_eval)
        return 1 if _CMP_FUNCTIONS[expr.op](left, right) else 0
    if isinstance(expr, Held):
        if held_eval is None:
            raise ModelError("held() reached the evaluator; extract predicates first")
        return 1 if held_eval(expr) else 0
    raise TypeError("not an expression node: %r" % (expr,))


def walk_to_leaf(node: Node, env: Mapping, flags: Optional[Mapping] = None,
                 held_eval: Optional[HeldEval] = None) -> Leaf:
    """The leaf the decision tree below ``node`` reaches, evaluating the
    conditions on the way as :func:`eval_expr` does.  The path conditions
    partition the environments, so exactly one leaf is reached."""
    while isinstance(node, Decision):
        taken = eval_expr(node.condition, env, flags, held_eval)
        node = node.then_branch if taken else node.else_branch
    return node


def condition_atoms(expr: Expr) -> list:
    """Ordered unique atomic conditions of a decision (names, predicate
    references, comparisons, held nodes), keyed by printed form."""
    atoms, seen = [], set()

    def visit(e: Expr) -> None:
        if isinstance(e, (Not,)):
            visit(e.operand)
        elif isinstance(e, (And, Or)):
            visit(e.left)
            visit(e.right)
        elif isinstance(e, Const):
            pass
        else:
            key = print_expr(e)
            if key not in seen:
                seen.add(key)
                atoms.append((key, e))

    visit(expr)
    return atoms


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


_REACHABILITY_CAP = 1 << 18


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
            elif (target.type == "int" and isinstance(a.value, Const)
                  and not target.lo <= a.value.value <= target.hi):
                diags.append(
                    Diagnostic("error", "ValueOutOfRange",
                               "%d outside %d..%d for '%s'"
                               % (a.value.value, target.lo, target.hi, a.target),
                               a.line, a.col, leaf.node_id)
                )
    for dec in ast.decisions():
        ctype = _expr_type(dec.condition, decls, diags)
        if ctype is not None and not _bool_compatible(dec.condition, ctype):
            diags.append(
                Diagnostic("error", "TypeError", "decision condition is not boolean",
                           dec.line, dec.col, dec.node_id)
            )
    diags.extend(_unreachable_leaves(ast))
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


def _expr_type(expr: Expr, decls: Mapping, diags: list) -> Optional[str]:
    if isinstance(expr, Name):
        decl = decls.get(expr.ident)
        return decl.type if decl else None
    if isinstance(expr, PredRef):
        return "bool"
    if isinstance(expr, Const):
        return "bool" if expr.as_bool else "int"
    if isinstance(expr, Not):
        t = _expr_type(expr.operand, decls, diags)
        if t is not None and not _bool_compatible(expr.operand, t):
            diags.append(Diagnostic("error", "TypeError", "'!' needs a boolean operand",
                                    expr.line, expr.col))
        return "bool"
    if isinstance(expr, (And, Or)):
        for side in (expr.left, expr.right):
            t = _expr_type(side, decls, diags)
            if t is not None and not _bool_compatible(side, t):
                diags.append(Diagnostic("error", "TypeError",
                                        "boolean operator applied to %s operand" % t,
                                        expr.line, expr.col))
        return "bool"
    if isinstance(expr, Cmp):
        lt = _expr_type(expr.left, decls, diags)
        rt = _expr_type(expr.right, decls, diags)
        if expr.op in ("<", "<=", ">", ">="):
            for t, side in ((lt, expr.left), (rt, expr.right)):
                if t == "bool" and not isinstance(side, Const):
                    diags.append(Diagnostic("error", "TypeError",
                                            "ordering comparison on boolean operand",
                                            expr.line, expr.col))
        return "bool"
    if isinstance(expr, Held):
        t = _expr_type(expr.formula, decls, diags)
        if t is not None and not _bool_compatible(expr.formula, t):
            diags.append(Diagnostic("error", "TypeError", "held() formula is not boolean",
                                    expr.line, expr.col))
        return "bool"
    return None


def _unreachable_leaves(ast: ModelAst) -> list:
    """Walk the tree under every atom valuation, held() atoms varying
    independently; a leaf no valuation reaches is unreachable.  A held()
    atom with a literal outside its variable's domain never holds, so it
    stays 0."""
    var_domains = [(decl.name, decl.domain()) for decl in ast.inputs + ast.state_vars]
    domains = ast.domains
    held_values = {}  # (printed formula, duration) -> the values the atom takes
    for dec in ast.decisions():
        for e in walk_exprs(dec.condition):
            if isinstance(e, Held):
                held_values.setdefault((print_expr(e.formula), e.duration_ms),
                                       (0,) if _never_holds(e, domains) else (0, 1))
    size = (math.prod(len(dom) for _, dom in var_domains)
            * math.prod(len(values) for values in held_values.values()))
    if size > _REACHABILITY_CAP:
        return [Diagnostic("note", "ReachabilitySkipped",
                           "atom space too large (%d valuations)" % size)]

    unreached = {leaf.node_id: leaf for leaf in ast.leaves()}  # pre-order
    held_env = {}

    def he(node: Held) -> int:
        return held_env[(print_expr(node.formula), node.duration_ms)]

    for var_vals in itertools.product(*(dom for _, dom in var_domains)):
        env = {name: val for (name, _), val in zip(var_domains, var_vals)}
        for held_vals in itertools.product(*held_values.values()):
            held_env = dict(zip(held_values, held_vals))
            unreached.pop(walk_to_leaf(ast.body, env, None, he).node_id, None)
            if not unreached:
                return []
    return [
        Diagnostic("warning", "UnreachableLeaf",
                   "leaf '%s' is unreachable" % (leaf.node_id or "root"),
                   leaf.line, leaf.col, leaf.node_id)
        for leaf in unreached.values()
    ]


# ---------------------------------------------------------------------------
# Temporal predicate extraction


@dataclass(frozen=True)
class ExtractionResult:
    source: ModelAst
    model: ModelAst  # rewritten: held() replaced by predicate references
    predicates: tuple

    def rewrite_expr(self, expr: Expr) -> Expr:
        index = {(p.var, p.expected, p.duration_ms): p.id for p in self.predicates}
        return _map_held(expr, lambda held: _predicate_conjunction(held, index))


def _held_literals(formula: Expr) -> list:
    """Flatten a held() formula into (var, expected-value) literals."""
    units = []

    def conj(e: Expr) -> None:
        if isinstance(e, And):
            conj(e.left)
            conj(e.right)
        else:
            units.append(e)

    conj(formula)
    literals = []
    for unit in units:
        if isinstance(unit, Name):
            literals.append((unit.ident, 1, unit))
        elif isinstance(unit, Not) and isinstance(unit.operand, Name):
            literals.append((unit.operand.ident, 0, unit))
        elif (
            isinstance(unit, Cmp)
            and unit.op == "=="
            and isinstance(unit.left, Name)
            and isinstance(unit.right, Const)
        ):
            literals.append((unit.left.ident, unit.right.value, unit))
        elif (
            isinstance(unit, Cmp)
            and unit.op == "=="
            and isinstance(unit.right, Name)
            and isinstance(unit.left, Const)
        ):
            literals.append((unit.right.ident, unit.left.value, unit))
        else:
            raise UnsupportedTemporalFormula(
                "held() needs a conjunction of literals, got '%s'" % print_expr(unit),
                unit.line,
                unit.col,
            )
    return literals


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
            raise SemanticError("predicate id '%s' collides with a declaration" % pid)
        predicates.append(TemporalPredicateDecl(pid, var, expected, dur))

    index = {(p.var, p.expected, p.duration_ms): p.id for p in predicates}
    rewritten = _map_held(ast, lambda held: _predicate_conjunction(held, index))
    return ExtractionResult(ast, rewritten, tuple(predicates))


def _predicate_conjunction(held: Held, index: Mapping) -> Expr:
    refs = [
        PredRef(index[(var, expected, held.duration_ms)])
        for var, expected, _ in _held_literals(held.formula)
    ]
    out = refs[0]
    for ref in refs[1:]:
        out = And(out, ref)
    return out


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
