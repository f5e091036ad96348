"""Reference execution of a rewritten model, with a decision trace for coverage.

``eval_model`` is the oracle's computation: given inputs, pre-cycle state and
the cycle's time flags it walks the decision tree to one leaf and returns the
assigned outputs, the post state, and a trace recording every decision with
its full condition vector (all atoms evaluated, not just the short-circuit
prefix, so MC/DC can be measured afterwards).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .dsl import Decision, ModelAst, eval_expr


class MissingBinding(Exception):
    """An input, state variable or time flag required by the model is absent."""


class EvalError(Exception):
    """The model violated an execution-time contract (unchecked model)."""


@dataclass(frozen=True)
class DecisionRecord:
    node_id: str
    outcome: bool
    conditions: tuple  # ((atom_id, value), ...) in source order


@dataclass(frozen=True)
class DecisionTrace:
    model: str
    decisions: tuple
    leaf_id: str


def eval_model(ast: ModelAst, inputs: Mapping, state_pre: Mapping, time_flags: Mapping):
    """Evaluate the rewritten model; returns (outputs, state_post, trace)."""
    for name in ast.input_names:
        if name not in inputs:
            raise MissingBinding("input '%s' not supplied" % name)
    for decl in ast.state_vars:
        if decl.name not in state_pre:
            raise MissingBinding("state variable '%s' not supplied" % decl.name)
    env = {d.name: int(state_pre[d.name]) for d in ast.state_vars}
    env.update({d.name: int(inputs[d.name]) for d in ast.inputs})

    records = []
    node = ast.body
    while isinstance(node, Decision):
        vector = tuple([(atom_id, bool(_eval(atom, env, time_flags)))
                        for atom_id, atom in node.atoms])
        outcome = bool(_eval(node.condition, env, time_flags))
        records.append(DecisionRecord(node.node_id, outcome, vector))
        node = node.then_branch if outcome else node.else_branch

    outputs = {}
    state_post = {d.name: int(state_pre[d.name]) for d in ast.state_vars}
    for assign in node.assigns:
        value = _eval(assign.value, env, time_flags)
        if assign.target in state_post:
            state_post[assign.target] = value
        else:
            outputs[assign.target] = value
    for name in ast.output_names:
        if name not in outputs:
            raise EvalError("leaf '%s' left output '%s' unassigned" % (node.node_id, name))
    trace = DecisionTrace(ast.name, tuple(records), node.node_id)
    return outputs, state_post, trace


def _eval(expr, env, flags):
    try:
        return eval_expr(expr, env, flags)
    except KeyError as exc:
        raise MissingBinding("no binding for %s" % exc) from exc
