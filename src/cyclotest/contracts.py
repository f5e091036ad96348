"""Design-by-contract oracle around one subject.

``apply_stimulus`` performs the fixed verdict sequence: precondition, one
mediator exchange, predicate/flag update, reference run of the model (state
parameters get pre-values, temporal parameters get the post-exchange flags),
state synchronization, invariants, and finally the postcondition comparing
observed outputs and visible state against the reference values.
"""
from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Union

from . import mediator, temporal
from .coverage import CoverageReport
from .dsl import (
    ExtractionResult,
    Held,
    ModelAst,
    eval_expr,
    free_vars,
    parse_expression,
    walk_exprs,
)
from .interp import DecisionTrace, eval_model
from .mediator import CycleObservation, MediatorError, MediatorLink

# Distinct cycles a specification remembers the reference run of; past it, each
# new cycle is evaluated and accumulated afresh every time.
MEMO_CAP = 4096


def _values_at(names: tuple) -> Callable[[Mapping], object]:
    """A mapping's values at ``names``, in that order: a tuple, or the value
    itself for one name."""
    return operator.itemgetter(*names) if names else (lambda mapping: ())


class ContractError(Exception):
    pass


class DuplicateName(ContractError):
    pass


class VerdictKind(enum.Enum):
    PASS = "Pass"
    PRECONDITION_VIOLATION = "PreconditionViolation"
    INVARIANT_VIOLATION = "InvariantViolation"
    POSTCONDITION_FAILURE = "PostconditionFailure"
    MEDIATOR_FAILURE = "MediatorFailure"


@dataclass(frozen=True)
class Mismatch:
    name: str
    expected: int
    actual: int


@dataclass(frozen=True)
class Verdict:
    kind: VerdictKind
    detail: str = ""
    cycle_index: int = -1
    mismatches: tuple = ()
    trace: Optional[DecisionTrace] = None
    observation: Optional[CycleObservation] = None

    @property
    def passed(self) -> bool:
        return self.kind is VerdictKind.PASS


@dataclass
class SpecificationState:
    state_vars: dict
    holds: tuple  # hold record of the specification's temporal.HoldTable
    flags: dict
    sys_time_ms: Optional[int] = None

    def env(self) -> dict:
        """State variables and time flags in one namespace (flags as 0/1)."""
        merged = dict(self.state_vars)
        merged.update({pid: int(v) for pid, v in self.flags.items()})
        return merged


@dataclass(frozen=True)
class InvariantContext:
    state: SpecificationState
    inputs: dict
    outputs: dict  # observed outputs
    observation: Optional[CycleObservation]

    def env(self) -> dict:
        merged = self.state.env()
        merged.update(self.outputs)
        merged.update(self.inputs)
        return merged


Invariant = Callable[[InvariantContext], bool]
Precondition = Callable[[SpecificationState, Mapping], bool]


class Specification:
    """One specification function per subject, with verdicts per stimulus.

    The default precondition admits exactly the declared inputs, each an
    integer (a bool counts) inside its domain; scenario authors may
    strengthen it with a callable.  An admitted call's inputs are copied as
    ``int``s once, and that copy is what the link and the model see.
    Invariants are registered as callables over an :class:`InvariantContext`
    or as expression strings over state variables, predicate ids, inputs and
    observed outputs.  Every reference run's decision trace accumulates into
    ``coverage``.

    A reference run is remembered by its cycle: the input values in
    ``model.input_names`` order, the pre-state in ``model.state_vars`` order
    and the flags in ``hold_table.predicate_ids`` order.  A remembered cycle
    skips the model and coverage, whose accumulation of one trace is
    idempotent.
    """

    def __init__(self, extraction: ExtractionResult, link: MediatorLink,
                 precondition: Optional[Precondition] = None, strict_held: bool = False):
        self.extraction = extraction
        self.model: ModelAst = extraction.model
        self.link = link
        self.precondition = precondition
        self.hold_table = temporal.HoldTable(extraction.predicates, strict_held)
        self._invariants: dict = {}
        self.coverage = CoverageReport.for_model(self.model)
        self._inputs_at = _values_at(self.model.input_names)
        self._state_at = _values_at(tuple(d.name for d in self.model.state_vars))
        self._flags_at = _values_at(self.hold_table.predicate_ids)
        self._memo: dict = {}  # cycle -> (outputs, state_post, trace), shared
        self.state = SpecificationState(
            state_vars=self.model.initial_state(),
            holds=self.hold_table.initial,
            flags=self.hold_table.flags(self.hold_table.initial),
        )

    # invariants ------------------------------------------------------------

    def register_invariant(self, name: str, check: Union[str, Invariant]) -> None:
        if name in self._invariants:
            raise DuplicateName(name)
        if isinstance(check, str):
            check = self._compile_invariant(check)
        self._invariants[name] = check

    def _compile_invariant(self, source: str) -> Invariant:
        expr = parse_expression(source)
        allowed = set(self.model.decls())
        allowed.update(p.id for p in self.extraction.predicates)
        for e in walk_exprs(expr):
            if isinstance(e, Held):
                raise ContractError("held() is not allowed in invariants")
        unknown = free_vars(expr) - allowed
        if unknown:
            raise ContractError("invariant references unknown name(s): %s" % ", ".join(sorted(unknown)))
        return lambda ctx: bool(eval_expr(expr, ctx.env()))

    # stimulus --------------------------------------------------------------

    def check_precondition(self, inputs: Mapping) -> Optional[str]:
        """The reason ``inputs`` may not be applied, or None.  Every declared
        input must be given, and no other name, as an integer (a bool counts)
        inside its domain; then the scenario precondition must hold."""
        names = self.model.input_names
        domains = self.model.domains
        admitted = len(inputs) == len(names)
        for name in names:
            value = inputs.get(name)
            if not (isinstance(value, int) and value in domains[name]):
                admitted = False
                break
        if not admitted:
            extra = set(inputs).difference(names)
            if extra:
                return "undeclared input(s): %s" % ", ".join(sorted(extra))
            for name in names:
                if name not in inputs:
                    return "missing input '%s'" % name
                value = inputs[name]
                if not isinstance(value, int):
                    return "input '%s' = %r is not an integer" % (name, value)
                if value not in domains[name]:
                    return "input '%s' = %d outside its domain" % (name, value)
        if self.precondition is not None and not self.precondition(self.state, inputs):
            return "scenario precondition rejected the call"
        return None

    def reference(self, inputs: Mapping, state_pre: Mapping, flags: Mapping) -> tuple:
        """The model's ``(outputs, state_post, trace)`` for one cycle, shared
        and read-only when the cycle is remembered.  A cycle not remembered
        accumulates its trace into ``coverage``."""
        key = (self._inputs_at(inputs), self._state_at(state_pre), self._flags_at(flags))
        result = self._memo.get(key)
        if result is None:
            result = eval_model(self.model, inputs, state_pre, flags)
            self.coverage.accumulate(result[2])
            if len(self._memo) < MEMO_CAP:
                self._memo[key] = result
        return result

    def apply_stimulus(self, inputs: Mapping) -> Verdict:
        reason = self.check_precondition(inputs)
        if reason is not None:
            return Verdict(VerdictKind.PRECONDITION_VIOLATION, reason, self.link.next_cycle)
        inputs = {k: int(v) for k, v in inputs.items()}
        pre = self.state  # sync_state builds a new state; nothing mutates this one

        try:
            obs = self.link.exchange(inputs)
        except MediatorError as exc:
            return Verdict(VerdictKind.MEDIATOR_FAILURE, str(exc), self.link.next_cycle)

        stepped = mediator.step_predicates(self.hold_table, pre, obs, inputs)
        ref_outputs, ref_post, trace = self.reference(inputs, pre.state_vars, stepped[1])
        self.state = mediator.sync_state(pre, obs, ref_post, stepped)

        if self._invariants:
            ctx = InvariantContext(self.state, inputs, dict(obs.outputs), obs)
            for name, check in self._invariants.items():
                if not check(ctx):
                    return Verdict(VerdictKind.INVARIANT_VIOLATION,
                                   "invariant '%s' violated" % name, obs.cycle,
                                   trace=trace, observation=obs)

        visible = obs.visible_state
        readable = self.model.readable_names
        if ref_outputs != obs.outputs or any(ref_post[n] != visible[n] for n in readable):
            mismatches = [Mismatch(n, ref_outputs[n], obs.outputs[n])
                          for n in self.model.output_names if ref_outputs[n] != obs.outputs[n]]
            mismatches += [Mismatch(n, ref_post[n], visible[n])
                           for n in readable if ref_post[n] != visible[n]]
            if mismatches:
                detail = "; ".join(
                    "%s: expected %d, actual %d" % (m.name, m.expected, m.actual)
                    for m in mismatches
                )
                return Verdict(VerdictKind.POSTCONDITION_FAILURE, detail, obs.cycle,
                               tuple(mismatches), trace, obs)
        return Verdict(VerdictKind.PASS, "", obs.cycle, (), trace, obs)
