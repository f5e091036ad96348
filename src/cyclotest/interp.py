"""Reference execution of a rewritten model, with a decision trace for coverage.

``eval_model`` is the oracle's computation: given inputs, pre-cycle state and
the cycle's time flags it follows the decision tree to one leaf and returns
the assigned outputs, the post state, and a trace recording every decision
with its full condition vector (all atoms evaluated, not just the
short-circuit prefix, so MC/DC can be measured afterwards).

A model is compiled once, lazily: its first reference run generates one
Python function of nested ``if``s that follows the tree (``compile_model``),
and ``ModelAst.compiled`` keeps it on the model.  Each decision computes its
atoms once, into locals, and branches on them.  The function reads one
namespace, the state variables, inputs and flags merged:
``extract_predicates`` refuses a predicate id that a declaration already
names, so no name shadows another.  Identifiers, node ids and atom ids
appear in the generated source only as ``repr``'d dict keys and strings,
constants only as ``int``s, so no name of a model meets a name of Python's.

It checks nothing that its callers guarantee: every caller binds each input,
state variable and predicate id as an ``int`` (a flag may be a bool), and
``check_model`` refuses a model that leaves an output unassigned on some
path before anything evaluates it.
"""
from __future__ import annotations

from typing import Callable, Mapping, NamedTuple

from .dsl import (And, Cmp, Const, Expr, Held, Leaf, ModelAst, ModelError, Name, Node, Not, Or,
                  PredRef, compile_function, print_expr)


class DecisionRecord(NamedTuple):
    node_id: str
    outcome: bool
    conditions: tuple  # ((atom_id, value), ...) in source order


class DecisionTrace(NamedTuple):
    model: str
    decisions: tuple
    leaf_id: str


def eval_model(ast: ModelAst, inputs: Mapping, state_pre: Mapping, time_flags: Mapping):
    """Evaluate the rewritten model; returns (outputs, state_post, trace).
    ``state_pre`` holds the state variables alone."""
    return ast.compiled(inputs, state_pre, time_flags)


def compile_model(ast: ModelAst) -> Callable:
    """The generated function ``run(inputs, state_pre, time_flags)`` that
    evaluates ``ast`` as ``eval_model`` documents.

    Each decision tests its condition and inlines one branch under the
    ``if``; the other follows it unindented, since every leaf returns.  The
    side that needs more levels is the one that follows, so a chain of
    decisions indents one level, and no tree indents more levels than
    log2 of its leaves.
    """
    lines = ["def run(inputs, state_pre, time_flags):",
             " env = {**state_pre, **inputs, **time_flags}",
             " records = []"]
    _emit(ast, ast.body, 1, lines)
    return compile_function(lines, "run", "<model %s>" % ast.name, {
        "__name__": __name__, "R": DecisionRecord, "T": DecisionTrace, "new": tuple.__new__})


def _emit(ast: ModelAst, node: Node, depth: int, lines: list) -> None:
    """Append the statements for ``node`` at ``depth``, which end in a return."""
    pad = " " * depth
    if isinstance(node, Leaf):
        parts = ([], [])  # outputs, state variables
        for assign in node.assigns:
            parts[assign.target not in ast.output_names].append(
                "%r: %s" % (assign.target, _int(assign.value)))
        lines.append(pad + "return {%s}, {**state_pre, %s}, new(T, (%r, tuple(records), %r))"
                     % (", ".join(parts[0]), ", ".join(parts[1]), ast.name, node.node_id))
        return
    local = {}  # atom id -> the local named after the line that computes it
    for atom_id, atom in node.atoms:
        local[atom_id] = "a%d" % len(lines)
        lines.append(pad + "%s = %s" % (local[atom_id], _bool(atom, None)))
    outcome = _bool(node.condition, local)
    if outcome not in local.values():
        lines.append(pad + "outcome = %s" % outcome)
        outcome = "outcome"
    lines.append(pad + "records.append(new(R, (%r, %s, (%s))))" % (node.node_id, outcome, "".join(
        "(%r, %s), " % pair for pair in local.items())))
    inline, follow = node.then_branch, node.else_branch
    test = "if %s:"
    if _levels(inline) > _levels(follow):
        inline, follow, test = follow, inline, "if not %s:"
    lines.append(pad + test % outcome)
    _emit(ast, inline, depth + 1, lines)
    _emit(ast, follow, depth, lines)


def _levels(node: Node) -> int:
    """The indentation levels that ``_emit`` gives ``node``'s statements
    beyond its own."""
    if isinstance(node, Leaf):
        return 0
    a, b = _levels(node.then_branch), _levels(node.else_branch)
    return min(max(a + 1, b), max(b + 1, a))


_PYTHON_OP = {And: " and ", Or: " or "}


def _bool(expr: Expr, atoms) -> str:
    """Python source for ``expr`` as a ``bool``.  With ``atoms`` (atom id ->
    local), an atom reads its local; without, it is computed from ``env``."""
    if isinstance(expr, (And, Or)):
        # a chain of one connective is one Python chain, however long
        operands, stack = [], [expr]
        while stack:
            e = stack.pop()
            if type(e) is type(expr):
                stack += (e.right, e.left)
            else:
                operands.append(_bool(e, atoms))
        return "(%s)" % _PYTHON_OP[type(expr)].join(operands)
    if isinstance(expr, Not):
        negated = False  # a chain of '!' is one 'not' or none
        while isinstance(expr, Not):
            expr, negated = expr.operand, not negated
        return ("not %s" if negated else "%s") % _bool(expr, atoms)
    if isinstance(expr, Const):
        return "(%d != 0)" % expr.value
    if atoms is not None:
        return atoms[print_expr(expr)]
    if isinstance(expr, Cmp):
        return "(%s %s %s)" % (_operand(expr.left), expr.op, _operand(expr.right))
    if isinstance(expr, Held):
        raise ModelError("held() reached the evaluator; extract predicates first")
    return "(env[%r] != 0)" % expr.ident


def _operand(expr: Expr) -> str:
    """Python source for ``expr`` as a comparison operand: its ``int``, or a
    ``bool``, which compares as 0 or 1."""
    if isinstance(expr, (Name, PredRef)):
        return "env[%r]" % expr.ident
    if isinstance(expr, Const):
        return "%d" % expr.value
    return ("(%s)" if isinstance(expr, Not) else "%s") % _bool(expr, None)


def _int(expr: Expr) -> str:
    """Python source for ``expr`` as an ``int``."""
    if isinstance(expr, (Name, PredRef)):
        return "int(env[%r])" % expr.ident
    if isinstance(expr, Const):
        return "%d" % expr.value
    return "(1 if %s else 0)" % _bool(expr, None)
