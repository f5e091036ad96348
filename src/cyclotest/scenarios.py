"""Scenario construction over the reduced abstract state space.

A scenario's actions are two families over every valuation of the iterated
inputs, one table that every abstract state enables:

* ``settle(<inputs>)`` holds one input valuation long enough to saturate
  every temporal predicate, which both reaches the abstract states needed
  for coverage and ends in a concrete state that depends only on the held
  valuation, keeping the abstract automaton deterministic.
* ``probe(<inputs>)`` applies one valuation for a single cycle (maximizing
  per-state input iteration) and then re-saturates on a fixed valuation so
  the end state is again concrete-state independent.

The table lists settle and then probe, each over the product of the
iterated inputs' domains in ``input_names`` order; it is built when the
traversal starts.  A piecemeal part pins some inputs to steer execution into
one subtree of the model and iterates only the rest.
"""
from __future__ import annotations

import itertools
from typing import Optional, Sequence

from .dsl import ExtractionResult
from .reduction import PiecemealPart, generalized_state
from .traversal import Action, Scenario


def saturation_cycles(extraction: ExtractionResult, cycle_period_ms: int,
                      strict: bool = False) -> int:
    """Cycles needed to saturate the slowest predicate, plus one.

    Strict (>) semantics delay every firing by one cycle, so saturation
    takes one more.
    """
    if not extraction.predicates:
        return 1
    worst = max(-(-p.duration_ms // cycle_period_ms) for p in extraction.predicates)
    return worst + (2 if strict else 1)


def build_coverage_scenario(spec, extraction: ExtractionResult, projections: Sequence,
                            cycle_period_ms: int = 1000, part: Optional[PiecemealPart] = None,
                            strict: bool = False) -> Scenario:
    """Settle+probe scenario for ``spec`` (anything with ``apply_stimulus``
    and ``abstract_state``, as a :class:`~cyclotest.contracts.Specification`
    has), over the whole model or, given a piecemeal ``part``, with the
    part's inputs pinned and the rest iterated.  The scenario's state is
    ``generalized_state`` of the specification state, which the
    specification remembers."""
    model = extraction.model
    if part is None:
        pinned, iterated = {}, {k: model.domains[k] for k in model.input_names}
    else:
        pinned, iterated = part.pinned, part.iterated
    names = [k for k in model.input_names if k in iterated]
    hold = saturation_cycles(extraction, cycle_period_ms, strict)
    # re-saturation valuation: pinned values, iterated inputs at their maxima
    renorm = {**pinned, **{k: max(v) for k, v in iterated.items()}}

    def settle(valuation: dict) -> list:
        return [{**pinned, **valuation}] * hold

    def probe(valuation: dict) -> list:
        return [{**pinned, **valuation}] + [dict(renorm)] * hold

    def abstract(state_env) -> tuple:
        return generalized_state(state_env, projections, model)

    def state_fn():
        return spec.abstract_state(abstract)

    def actions() -> list:
        combos = list(itertools.product(*(iterated[k] for k in names)))
        args = ["(%s)" % ", ".join("%s=%s" % kv for kv in zip(names, combo)) if names else ""
                for combo in combos]
        valuations = [tuple(sorted(zip(names, combo))) for combo in combos]
        return [Action(family + arg, body, valuation)
                for family, body in (("settle", settle), ("probe", probe))
                for arg, valuation in zip(args, valuations)]

    return Scenario(
        name="full" if part is None else "piece:%s" % (part.node_id or "root"),
        state_fn=state_fn,
        actions=actions,
    )
