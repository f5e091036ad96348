"""Design-by-contract oracle around one subject.

``apply_stimulus`` performs the fixed verdict sequence: precondition, one
mediator exchange, the observation's check, predicate/flag update, reference
run of the model (state parameters get pre-values, temporal parameters get
the post-exchange flags), state synchronization, and finally the
postcondition comparing observed outputs and visible state against the
reference values.  Each check runs once per stimulus; only a refused call or
a misfit observation is checked again, to word its reason.  One generated
function per specification, compiled at the first stimulus, judges a
stimulus in one frame: it admits the call, exchanges it, checks the
observation and judges the step, a remembered pass or a step taken afresh.
A refused call, a failed exchange, a misfit and a failing postcondition are
judged by one Python method.

The predicate/flag update, the reference run and, on a passing cycle, the
synchronized state are together the cycle's step, a function of the inputs,
the pre-state's variables and hold record, and the system time elapsed since
the previous observation.  A specification keeps one table of the passing
steps it has taken (up to ``MEMO_CAP`` of them), keyed by these, so a cycle
that repeats a step, as the hold cycles of a scenario do, is one lookup and
the postcondition.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Optional

from . import mediator, temporal
from .coverage import CoverageReport
from .dsl import ExtractionResult, ModelAst, compile_function, compiled_lazily
from .interp import DecisionTrace, eval_model
from .mediator import MediatorError, MediatorLink

# Distinct steps a specification remembers, and distinct cycles it remembers
# the reference run of; past it, each new one is computed afresh every time.
# The paper-scale iron campaign takes 4,641 distinct steps.
MEMO_CAP = 8192


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


class CycleObservation(NamedTuple):  # a failing verdict's, with copies of the dicts
    cycle: int
    sys_time_ms: int
    outputs: dict
    visible_state: dict


class Verdict(NamedTuple):
    kind: VerdictKind
    detail: str = ""
    cycle_index: int = -1
    mismatches: tuple = ()
    trace: Optional[DecisionTrace] = None
    observation: Optional[CycleObservation] = None  # None unless the postcondition failed


@dataclass(slots=True)
class SpecificationState:
    """Three tuples: ``values``, the state variables in ``model.state_vars``
    order, ``holds``, the hold record of the specification's
    :class:`temporal.HoldTable`, and ``flags``, the time flags read from it,
    the ``int`` 0 or 1 in ``predicate_ids`` order; two states are equal when
    these three are.  The abstract state that the specification derives from
    a state is attached to it as ``abstract``.  A state refers to no other,
    so the states that remembered steps move to hold no reference cycle: they
    are freed with their specification, not by the collector."""

    values: tuple
    holds: tuple
    flags: tuple
    abstract: object = field(default=None, compare=False, repr=False)


class Specification:
    """One specification function per subject, with verdicts per stimulus.

    The precondition admits exactly the declared inputs, each an integer (a
    bool counts) inside its domain.  The generated judge (:meth:`_judge`)
    admits a call, copies its inputs as ``int``s, which the link and the
    model see, and checks each observation; :meth:`check_precondition` and
    :meth:`check_observation` word a refused call's and a misfit's reason.
    Every reference run's decision trace accumulates into ``coverage``.
    ``hold_table`` reads held() by the extraction's ``strict_held``.

    The specification steps its own automaton.  ``sys_time_ms`` is the
    previous observation's system time (None before the first).  One table,
    ``_steps``, holds every remembered passing step, up to ``MEMO_CAP`` of
    them, keyed by the pre-state's ``values`` and hold record, the admitted
    input values in ``model.input_names`` order and the ms elapsed since the
    previous observation (0 on the first), and holds the state the step
    moves to: a remembered step that passes is one lookup, the
    postcondition, and the move to that state.  Every other step,
    remembered or not, is taken afresh, also in the judge:
    :func:`mediator.step_predicates`, the ``_memo`` lookup (the model runs,
    in :meth:`reference`, only on a miss), :func:`mediator.sync_state` and
    the postcondition.  If that passes, the step and its synchronized state
    are remembered; a failing postcondition leaves the state that
    ``sync_state`` gave and remembers nothing.  So the table only caches
    passing steps, and a failing postcondition always comes from a step
    taken afresh.

    A reference run is remembered by its cycle, the input values with the
    pre-state's ``values`` and the stepped flags; a remembered cycle skips
    the model and coverage, whose accumulation of one trace is idempotent.
    Only a reference run and an abstract-state derivation read a state by
    name, in dicts built for them; the abstract state is derived once per
    state object and read off the state after that (:meth:`abstract_state`).
    """

    def __init__(self, extraction: ExtractionResult, link: MediatorLink):
        self.extraction = extraction
        self.model: ModelAst = extraction.model
        self.link = link
        initial = self.model.initial_state()
        self._state_names = tuple(initial)
        self.hold_table = temporal.HoldTable(extraction.predicates, self._state_names,
                                             extraction.strict_held)
        self.coverage = CoverageReport.for_model(self.model)
        self._memo: dict = {}  # (inputs, pre values, flags) -> (outputs, state_post, trace), shared
        self._steps: dict = {}  # (pre values, pre holds, *inputs, ms) -> (outputs, post, trace)
        self.sys_time_ms: Optional[int] = None
        self.state = SpecificationState(tuple(initial.values()), self.hold_table.initial,
                                        self.hold_table.initial_flags)

    def named(self, values: tuple, flags: tuple) -> tuple:
        """A state's ``values`` and ``flags`` as the dicts that a reference
        run reads, keyed by state variable and by predicate id."""
        return (dict(zip(self._state_names, values)),
                dict(zip(self.hold_table.predicate_ids, flags)))

    def abstract_state(self, derive: Callable[[Mapping], object]):
        """``derive`` of the state variables and time flags of ``self.state``
        in one namespace, derived once per state object and read off the
        state after that.

        ``derive`` must be a function of the state variables and flags alone,
        and the same one on every call: one scenario's abstraction per
        specification."""
        state = self.state
        if state.abstract is None:
            state_vars, flags = self.named(state.values, state.flags)
            state.abstract = derive({**state_vars, **flags})
        return state.abstract

    # stimulus --------------------------------------------------------------

    def check_precondition(self, inputs: Mapping) -> Optional[str]:
        """The reason ``inputs`` may not be applied, or None.  Every declared
        input must be given, and no other name, as an integer (a bool counts)
        inside its domain."""
        extra = set(inputs).difference(self.model.input_names)
        if extra:
            return "undeclared input(s): %s" % ", ".join(sorted(extra))
        for name in self.model.input_names:
            domain = self.model.domains[name]
            if name not in inputs:
                return "missing input '%s'" % name
            value = inputs[name]
            if not isinstance(value, int):
                return "input '%s' = %r is not an integer" % (name, value)
            if value not in domain:
                return "input '%s' = %d outside its domain" % (name, value)
        return None

    def check_observation(self, obs: tuple) -> Optional[str]:
        """The reason the observation ``obs``, as ``exchange`` returned it,
        does not fit, or None: its first misfit of cycle, system time, then
        outputs and state, each by shape, then value by value."""
        cycle, sys_time_ms, outputs, state = obs
        next_cycle, last = self.link.next_cycle, self.sys_time_ms
        if cycle != next_cycle:
            return "observation for cycle %s after set_inputs %d" % (cycle, next_cycle)
        if type(cycle) is not int:
            return "observation cycle %r is not an integer" % (cycle,)
        if type(sys_time_ms) is not int:
            return "observation sys_time_ms %r is not an integer" % (sys_time_ms,)
        if last is not None and sys_time_ms < last:
            return "system time went back from %d ms to %d ms" % (last, sys_time_ms)
        for part, values, names in (("outputs", outputs, self.model.output_names),
                                    ("state", state, self.model.readable_names)):
            if not isinstance(values, dict) or values.keys() != set(names):
                return "observation %s %r do not match the model" % (part, values)
            for name, value in values.items():
                if type(value) is not int:
                    return "observation %s '%s' = %r is not an integer" % (part, name, value)
                if value not in self.model.domains[name]:
                    return "observation %s '%s' = %d is outside its domain" % (part, name, value)
        return None

    def reference(self, inputs: Mapping, values: tuple, flags: tuple, key: tuple) -> tuple:
        """The model's ``(outputs, state_post, trace)`` on ``inputs`` from the
        pre-state ``values`` under ``flags``, for a cycle that ``_memo`` does
        not hold under ``key``, the judge's; its trace is accumulated into
        ``coverage`` and, below the cap, it is remembered under ``key``,
        shared and read-only."""
        result = eval_model(self.model, inputs, *self.named(values, flags))
        self.coverage.accumulate(result[2])
        if len(self._memo) < MEMO_CAP:
            self._memo[key] = result
        return result

    def apply_stimulus(self, inputs: Mapping) -> Verdict:
        return self._judge(self, inputs)

    @compiled_lazily
    def _judge(self) -> Callable:
        """``judge(spec, inputs)``, ``spec``'s verdict on ``inputs``, which
        refers to no specification.  In one frame it admits the call (names
        as ``repr``'d keys, bounds inlined; an ``int`` subclass is converted
        once inside its domain), exchanges a fresh dict of it, which the
        subject may write, checks the observation and advances the link, and
        judges the step: a remembered one that passes by one lookup and the
        postcondition, any other afresh, on the admitted values in a dict
        built again (:class:`Specification`).  An observation that fails the
        inlined check is worded by :meth:`check_observation` or, in dict
        subclasses that fit, judged as plain copies.  A refused call, a
        failed exchange, a misfit and a fresh step's failing postcondition
        go to :meth:`_judge_rest`."""
        model = self.model
        names, readable = model.input_names, model.readable_names
        # each readable variable's position in a state's values
        state_at = [(k, d.name) for k, d in enumerate(model.state_vars) if d.name in readable]
        local = ["v%d" % i for i in range(len(names))]  # the values, as locals
        values = "".join(v + ", " for v in local)
        refuse = "return rest(spec, inputs, None)"
        lines = ["def judge(spec, inputs):", " if len(inputs) != %d: %s" % (len(names), refuse)]
        for v, name in zip(local, names):
            domain = model.domains[name]
            lines += [" %s = inputs.get(%r)" % (v, name),
                      " if type(%s) is not int:" % v,
                      "  if not isinstance(%s, int) or %s not in range(%d, %d):"
                      % (v, v, domain.start, domain.stop),
                      "   " + refuse,
                      "  %s = int(%s)" % (v, v),
                      " elif not %d <= %s <= %d:" % (domain.start, v, domain[-1]),
                      "  " + refuse]
        # the observation fits; check_observation words why one does not
        fits = ["type(cycle) is int", "cycle == link.next_cycle", "type(now) is int",
                "(last is None or now >= last)", "type(outputs) is dict",
                "len(outputs) == %d" % len(model.output_names), "type(state) is dict",
                "len(state) == %d" % len(readable)]
        parts = [("outputs", name) for name in model.output_names]
        for i, (part, name) in enumerate(parts + [("state", name) for name in readable]):
            domain = model.domains[name]
            fits += ["type(w%d := %s.get(%r)) is int and %d <= w%d <= %d"
                     % (i, part, name, domain.start, i, domain[-1])]
        admitted = "{%s}" % ", ".join("%r: %s" % nv for nv in zip(names, local))
        lines += [" admitted = " + admitted,
                  " link = spec.link",
                  " try:",
                  "  obs = link.exchange(admitted)",
                  " except MediatorError as exc:",
                  "  return rest(spec, admitted, exc)",
                  " cycle, now, outputs, state = obs",
                  " last, pre = spec.sys_time_ms, spec.state",
                  " if not (%s):" % " and ".join(fits),
                  "  reason = check(spec, obs)",
                  "  if reason is None:",
                  "   obs = cycle, now, outputs, state = cycle, now, dict(outputs), dict(state)",
                  "   reason = check(spec, obs)",
                  "  if reason is not None:",
                  "   return rest(spec, None, reason)",
                  " link.next_cycle += 1",
                  " key = pre.values, pre.holds, %s0 if last is None else now - last" % values,
                  " step = spec._steps.get(key)",
                  " if step is not None and step[0] == outputs%s:" % "".join(
                      " and step[1].values[%d] == state[%r]" % (k, name)
                      for k, name in state_at),
                  "  spec.sys_time_ms = now",
                  "  spec.state = step[1]",
                  "  return new(Verdict, (PASS, '', cycle, (), step[2], None))",
                  " call = " + admitted,
                  " stepped = mediator.step_predicates(spec.hold_table, pre, call, key[-1])",
                  " ran = (%s), pre.values, stepped[1]" % values,
                  " ref = spec._memo.get(ran)",
                  " if ref is None:",
                  "  ref = reference(spec, call, pre.values, stepped[1], ran)",
                  " post = mediator.sync_state(pre, obs, ref[1], stepped)",
                  " if ref[0] != outputs%s:" % "".join(
                      " or ref[1][%r] != state[%r]" % (name, name) for name in readable),
                  "  return rest(spec, None, obs, ref, post)",
                  " spec.sys_time_ms = now",
                  " spec.state = remember(spec, key, ref, post)",
                  " return new(Verdict, (PASS, '', cycle, (), ref[2], None))"]
        # mediator's functions are read off the module at each call
        cls = type(self)
        return compile_function(lines, "judge", "<judge>", {
            "__name__": __name__, "MediatorError": MediatorError, "Verdict": Verdict,
            "PASS": PASS, "new": tuple.__new__, "mediator": mediator,
            "check": cls.check_observation, "rest": cls._judge_rest,
            "reference": cls.reference, "remember": cls._remember})

    def _remember(self, key: tuple, ref: tuple, post: SpecificationState) -> SpecificationState:
        """``post``; the passing step ``key`` that moves to it, whose
        reference run gave ``ref``, is remembered below the cap."""
        if len(self._steps) < MEMO_CAP:
            self._steps[key] = ref[0], post, ref[2]
        return post

    def _judge_rest(self, inputs: Optional[Mapping], outcome, ref: Optional[tuple] = None,
                    post: Optional[SpecificationState] = None) -> Verdict:
        """The verdict on a refused call ``inputs`` (``outcome`` None), on a
        failed exchange or a misfit (``outcome`` its error or reason), or on
        the observation ``outcome``, kept as copies, failing the postcondition
        of the step taken afresh whose reference run gave ``ref`` and whose
        synchronized state is ``post``."""
        if outcome is None:
            return Verdict(VerdictKind.PRECONDITION_VIOLATION, self.check_precondition(inputs),
                           self.link.next_cycle)
        if isinstance(outcome, (str, MediatorError)):
            return Verdict(VerdictKind.MEDIATOR_FAILURE, str(outcome), self.link.next_cycle)
        (cycle, sys_time_ms, outputs, visible), (ref_outputs, ref_post, trace) = outcome, ref
        obs = CycleObservation(cycle, sys_time_ms, dict(outputs), dict(visible))
        mismatches = [Mismatch(n, ref_outputs[n], outputs[n])
                      for n in self.model.output_names if ref_outputs[n] != outputs[n]]
        mismatches += [Mismatch(n, ref_post[n], visible[n])
                       for n in self.model.readable_names if ref_post[n] != visible[n]]
        self.sys_time_ms, self.state = sys_time_ms, post
        detail = "; ".join("%s: expected %d, actual %d" % (m.name, m.expected, m.actual)
                           for m in mismatches)
        return Verdict(VerdictKind.POSTCONDITION_FAILURE, detail, cycle,
                       tuple(mismatches), trace, obs)
