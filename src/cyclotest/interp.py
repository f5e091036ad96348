"""Reference execution of a rewritten model, with a decision trace for coverage.

``eval_model`` is the oracle's computation: given inputs, pre-cycle state and
the cycle's time flags it walks the decision tree to one leaf and returns the
assigned outputs, the post state, and a trace recording every decision with
its full condition vector (all atoms evaluated, not just the short-circuit
prefix, so MC/DC can be measured afterwards).  It evaluates in one namespace,
the state variables, inputs and flags merged: ``extract_predicates`` refuses
a predicate id that a declaration already names, so no name shadows another.

It checks nothing that its callers guarantee: every caller binds each input,
state variable and predicate id as an ``int`` (a flag may be a bool), and
``check_model`` refuses a model that leaves an output unassigned on some
path before anything evaluates it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .dsl import Decision, ModelAst, eval_expr


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
    """Evaluate the rewritten model; returns (outputs, state_post, trace).
    ``state_pre`` holds the state variables alone."""
    env = {**state_pre, **inputs, **time_flags}
    records = []
    node = ast.body
    while isinstance(node, Decision):
        vector = tuple([(atom_id, bool(eval_expr(atom, env)))
                        for atom_id, atom in node.atoms])
        outcome = bool(eval_expr(node.condition, env))
        records.append(DecisionRecord(node.node_id, outcome, vector))
        node = node.then_branch if outcome else node.else_branch

    outputs = {}
    state_post = dict(state_pre)
    for assign in node.assigns:
        value = eval_expr(assign.value, env)
        if assign.target in state_post:
            state_post[assign.target] = value
        else:
            outputs[assign.target] = value
    trace = DecisionTrace(ast.name, tuple(records), node.node_id)
    return outputs, state_post, trace
