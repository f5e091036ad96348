"""Design-by-contract oracle around one subject.

``apply_stimulus`` performs the fixed verdict sequence: precondition, one
mediator exchange, predicate/flag update, reference run of the model (state
parameters get pre-values, temporal parameters get the post-exchange flags),
state synchronization, and finally the postcondition comparing observed
outputs and visible state against the reference values.

The predicate/flag update and the reference run are together the cycle's
step, a function of the inputs, the pre-state's variables and hold record,
and the system time elapsed since the previous observation.  A specification
remembers each step it takes (up to ``MEMO_CAP`` distinct ones), so a cycle
that repeats a step, as the hold cycles of a scenario do, skips both.
"""
from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Optional

from . import mediator, temporal
from .coverage import CoverageReport
from .dsl import ExtractionResult, ModelAst
from .interp import DecisionTrace, eval_model
from .mediator import CycleObservation, MediatorError, MediatorLink

# Distinct steps a specification remembers, distinct cycles it remembers the
# reference run of, and distinct states it remembers the abstract state of;
# past it, each new one is computed afresh every time.  The paper-scale iron
# campaign takes 4,641 distinct steps.
MEMO_CAP = 8192


def _values_at(names: tuple) -> Callable[[Mapping], object]:
    """A mapping's values at ``names``, in that order: a tuple, or the value
    itself for one name."""
    return operator.itemgetter(*names) if names else (lambda mapping: ())


class VerdictKind(enum.Enum):
    PASS = "Pass"
    PRECONDITION_VIOLATION = "PreconditionViolation"
    POSTCONDITION_FAILURE = "PostconditionFailure"
    MEDIATOR_FAILURE = "MediatorFailure"


@dataclass(frozen=True)
class Mismatch:
    name: str
    expected: int
    actual: int


# the kind of almost every verdict; the per-stimulus path reads it here, since
# looking a member up on its Enum class goes through the metaclass
PASS = VerdictKind.PASS


class Verdict(NamedTuple):
    kind: VerdictKind
    detail: str = ""
    cycle_index: int = -1
    mismatches: tuple = ()
    trace: Optional[DecisionTrace] = None
    observation: Optional[CycleObservation] = None


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


class Specification:
    """One specification function per subject, with verdicts per stimulus.

    The precondition admits exactly the declared inputs, each an integer (a
    bool counts) inside its domain.  An admitted call's inputs are copied as
    ``int``s once, and that copy is what the link and the model see.  Every
    reference run's decision trace accumulates into ``coverage``.

    A specification state is keyed by its variables in ``model.state_vars``
    order and its flags in ``hold_table.predicate_ids`` order
    (:meth:`_state_key`).  A reference run is remembered by its cycle, the
    input values in ``model.input_names`` order with the pre-state's key; a
    remembered cycle skips the model and coverage, whose accumulation of one
    trace is idempotent.  The abstract state of the current state is
    remembered by the state's key (:meth:`abstract_state`).

    A step is remembered by its key, taken after the exchange: the input
    values in ``model.input_names`` order, the pre-state's variables in
    ``model.state_vars`` order, its hold record, and the ms elapsed since the
    previous observation (0 on the first).  Its value is the stepped
    ``(holds, flags)`` pair with the reference run.  A remembered step skips
    the hold-table step, the flags and the reference lookup; a step not
    remembered takes them (:meth:`_step`).  Either way the state is then
    synchronized with the observation and the postcondition compares it.
    """

    def __init__(self, extraction: ExtractionResult, link: MediatorLink,
                 strict_held: bool = False):
        self.extraction = extraction
        self.model: ModelAst = extraction.model
        self.link = link
        self.hold_table = temporal.HoldTable(extraction.predicates, strict_held)
        self.coverage = CoverageReport.for_model(self.model)
        self._inputs_at = _values_at(self.model.input_names)
        self._state_at = _values_at(tuple(d.name for d in self.model.state_vars))
        self._flags_at = _values_at(self.hold_table.predicate_ids)
        self._memo: dict = {}  # cycle -> (outputs, state_post, trace), shared
        self._abstract: dict = {}  # state key -> abstract state
        self._steps: dict = {}  # step key -> ((holds, flags), reference run)
        self.state = SpecificationState(
            state_vars=self.model.initial_state(),
            holds=self.hold_table.initial,
            flags=self.hold_table.flags(self.hold_table.initial),
        )

    def _state_key(self, state_vars: Mapping, flags: Mapping) -> tuple:
        return self._state_at(state_vars), self._flags_at(flags)

    def abstract_state(self, derive: Callable[[Mapping], object]):
        """``derive(self.state.env())``, remembered by the state's key.

        ``derive`` must be a function of the state variables and flags alone,
        and the same one on every call: one scenario's abstraction per
        specification."""
        state = self.state
        key = self._state_key(state.state_vars, state.flags)
        result = self._abstract.get(key)
        if result is None:
            result = derive(state.env())
            if len(self._abstract) < MEMO_CAP:
                self._abstract[key] = result
        return result

    # stimulus --------------------------------------------------------------

    def check_precondition(self, inputs: Mapping) -> Optional[str]:
        """The reason ``inputs`` may not be applied, or None.  Every declared
        input must be given, and no other name, as an integer (a bool counts)
        inside its domain."""
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
        return None

    def reference(self, inputs: Mapping, state_pre: Mapping, flags: Mapping) -> tuple:
        """The model's ``(outputs, state_post, trace)`` for one cycle, shared
        and read-only when the cycle is remembered.  A cycle not remembered
        accumulates its trace into ``coverage``."""
        key = (self._inputs_at(inputs), self._state_key(state_pre, flags))
        result = self._memo.get(key)
        if result is None:
            result = eval_model(self.model, inputs, state_pre, flags)
            self.coverage.accumulate(result[2])
            if len(self._memo) < MEMO_CAP:
                self._memo[key] = result
        return result

    def _step(self, inputs: Mapping, pre: SpecificationState, obs: CycleObservation,
              key: tuple) -> tuple:
        """A step the memo misses: the stepped ``(holds, flags)`` and the
        reference run, remembered under ``key`` below the cap."""
        stepped = mediator.step_predicates(self.hold_table, pre, obs, inputs)
        step = stepped, self.reference(inputs, pre.state_vars, stepped[1])
        if len(self._steps) < MEMO_CAP:
            self._steps[key] = step
        return step

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

        last = pre.sys_time_ms
        key = (self._inputs_at(inputs), self._state_at(pre.state_vars), pre.holds,
               0 if last is None else obs.sys_time_ms - last)
        step = self._steps.get(key)
        if step is None:
            step = self._step(inputs, pre, obs, key)
        stepped, (ref_outputs, ref_post, trace) = step
        self.state = mediator.sync_state(pre, obs, ref_post, stepped)

        visible = obs.visible_state
        readable = self.model.readable_names
        if ref_outputs != obs.outputs or (readable
                                          and any(ref_post[n] != visible[n] for n in readable)):
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
        return Verdict(PASS, "", obs.cycle, (), trace, obs)
