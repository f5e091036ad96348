import enum
import gc
import itertools
import json
import random
import shlex
import sys
import types
import weakref
from collections import Counter

import pytest
from conftest import GUARD_SRC, MODEL_PATH, TANK_SRC, desk_config

from cyclotest import cli, contracts, mediator, scenarios, traversal
from cyclotest.contracts import Specification, SpecificationState, VerdictKind
from cyclotest.dsl import extract_predicates, parse_model
from cyclotest.interp import eval_model
from cyclotest.iron import DESK_DURATIONS_MS, MUTANT_IDS, IronSut
from cyclotest.kernel import KernelConfig
from cyclotest.mediator import InProcessLink, MediatorLink
from cyclotest.reduction import (
    enumerate_reachable_flag_states,
    generalized_state,
)
from cyclotest.temporal import HoldTable
from cyclotest.traversal import Action, Scenario
from oracles import PlainSpecification, ReferenceApply, _valuations
from test_mediator import ScriptedLink as ScriptedStreamLink
from test_mediator import ScriptedSut, _hello_line
from test_reduction import REFERENCE_MODELS, _extraction_at, _model_sources


DIAL_SRC = ("model dial { input level: int 0..3; output o: bool; "
            "logic { if (level == 3) { o = 1; } else { o = 0; } } }")


class DialSut:
    def step(self, inputs, sys_time_ms):
        return {"o": 1 if int(inputs["level"]) == 3 else 0}


def _dial_spec():
    ex = extract_predicates(parse_model(DIAL_SRC))
    return Specification(ex, InProcessLink(ex.model, DialSut(), KernelConfig()))


WIDE_SRC = ("model wide { input level: int 0..10000; output o: int 0..10000; "
            "logic { if (level == 10000) { o = 10000; } else { o = 0; } } }")


class FixedSut:
    def __init__(self, o):
        self.o = o

    def step(self, inputs, sys_time_ms):
        return {"o": self.o}


def _spec(desk_extraction, sut=None, **kwargs):
    sut = sut or IronSut(DESK_DURATIONS_MS, 1000)
    link = InProcessLink(desk_extraction.model, sut, KernelConfig(cycle_period_ms=1000))
    return Specification(desk_extraction, link, **kwargs)


class TestApplyStimulus:
    def test_correct_subject_passes(self, desk_extraction):
        spec = _spec(desk_extraction)
        for _ in range(10):
            verdict = spec.apply_stimulus({"move": 0, "position": 1})
            assert verdict.kind is VerdictKind.PASS
            assert verdict.mismatches == ()

    def test_inverting_mutant_fails_postcondition(self, desk_extraction):
        spec = _spec(desk_extraction, IronSut(DESK_DURATIONS_MS, 1000, "M1"))
        verdict = spec.apply_stimulus({"move": 0, "position": 1})
        assert verdict.kind is VerdictKind.POSTCONDITION_FAILURE
        assert [(m.name, m.expected, m.actual) for m in verdict.mismatches] == [("heating", 1, 0)]

    def test_out_of_domain_input_violates_precondition(self, desk_extraction):
        spec = _spec(desk_extraction)
        verdict = spec.apply_stimulus({"move": 2, "position": 0})
        assert verdict.kind is VerdictKind.PRECONDITION_VIOLATION

    def test_int_range_domain_enforced(self):
        spec = _dial_spec()
        assert spec.apply_stimulus({"level": 4}).kind is VerdictKind.PRECONDITION_VIOLATION
        assert spec.apply_stimulus({"level": 3}).kind is VerdictKind.PASS

    def test_wide_domain_bounds(self):
        ex = extract_predicates(parse_model(WIDE_SRC))
        spec = Specification(ex, InProcessLink(ex.model, FixedSut(0), KernelConfig()))
        assert spec.check_precondition({"level": 0}) is None
        assert spec.check_precondition({"level": 10000}) is None
        for level in (-1, 10001):
            assert (spec.check_precondition({"level": level})
                    == "input 'level' = %d outside its domain" % level)
        spec = Specification(ex, InProcessLink(ex.model, FixedSut(10000), KernelConfig()))
        assert spec.apply_stimulus({"level": 10000}).kind is VerdictKind.PASS
        spec = Specification(ex, InProcessLink(ex.model, FixedSut(10001), KernelConfig()))
        verdict = spec.apply_stimulus({"level": 10000})
        assert (verdict.kind, verdict.detail) == (
            VerdictKind.MEDIATOR_FAILURE, "observation outputs 'o' = 10001 is outside its domain")

    def test_precondition_consumes_no_cycle(self, desk_extraction):
        spec = _spec(desk_extraction)
        spec.apply_stimulus({"move": 2, "position": 0})
        assert spec.link.next_cycle == 0
        ok = spec.apply_stimulus({"move": 0, "position": 0})
        assert ok.cycle_index == 0

    def test_missing_and_extra_inputs(self, desk_extraction):
        spec = _spec(desk_extraction)
        assert spec.apply_stimulus({"move": 0}).kind is VerdictKind.PRECONDITION_VIOLATION
        verdict = spec.apply_stimulus({"move": 0, "position": 0, "tilt": 1})
        assert verdict.kind is VerdictKind.PRECONDITION_VIOLATION

    def test_precondition_messages_after_valid_calls(self, desk_extraction):
        # every call is checked afresh: a bad call after valid ones gets its
        # reason, and only an integer (a bool counts) is admitted
        spec = _spec(desk_extraction)
        for _ in range(2):
            assert spec.check_precondition({"move": 0, "position": 1}) is None
            assert spec.check_precondition({"position": True, "move": 0}) is None
            assert spec.check_precondition({"move": 0}) == "missing input 'position'"
            assert spec.check_precondition({"move": 0, "tilt": 1}) == "undeclared input(s): tilt"
            assert spec.check_precondition({"move": 0, "position": 1, "tilt": 1}) == (
                "undeclared input(s): tilt")
            assert spec.check_precondition({"move": 2, "position": 1}) == (
                "input 'move' = 2 outside its domain")
            for value in (0.9, 0.0, "1", "x", None):
                cycle = spec.link.next_cycle
                verdict = spec.apply_stimulus({"move": value, "position": 1})
                assert (verdict.kind, verdict.detail) == (
                    VerdictKind.PRECONDITION_VIOLATION,
                    "input 'move' = %r is not an integer" % (value,))
                assert spec.link.next_cycle == cycle
            assert spec.apply_stimulus({"move": 0, "position": True}).kind is VerdictKind.PASS

    def test_pre_state_immutable_across_exchange(self, desk_extraction):
        spec = _spec(desk_extraction)
        spec.apply_stimulus({"move": 0, "position": 1})
        snapshot = spec.state  # the pre-state of the next call, not a copy
        before_vars = dict(snapshot.state_vars)
        before_holds, before_flags = snapshot.holds, dict(snapshot.flags)
        spec.apply_stimulus({"move": 1, "position": 0})
        assert spec.state.holds != before_holds
        assert snapshot.state_vars == before_vars
        assert snapshot.holds == before_holds
        assert snapshot.flags == before_flags

    def test_disconnect_becomes_mediator_failure(self, desk_extraction):
        spec = _spec(desk_extraction)

        class DeadLink:
            next_cycle = 0

            def exchange(self, inputs):
                from cyclotest.mediator import Disconnect

                raise Disconnect("gone")

        spec.link = DeadLink()
        verdict = spec.apply_stimulus({"move": 0, "position": 0})
        assert verdict.kind is VerdictKind.MEDIATOR_FAILURE
        assert "gone" in verdict.detail

    def test_verdict_carries_trace_for_coverage(self, desk_extraction):
        spec = _spec(desk_extraction)
        verdict = spec.apply_stimulus({"move": 0, "position": 0})
        assert verdict.trace is not None
        assert verdict.trace.leaf_id == "ee"


class RecordingSut:
    """A subject that records the inputs it is stepped on and answers each
    output and readable state variable with its domain's low end."""

    def __init__(self, model):
        self.seen = []
        self._outputs = {name: model.domains[name].start for name in model.output_names}
        self._state = {name: model.domains[name].start for name in model.readable_names}

    def step(self, inputs, sys_time_ms):
        self.seen.append(dict(inputs))
        return dict(self._outputs)

    def visible_state(self):
        return dict(self._state)


# dial, guard and tank under their own ids, then every other model of
# _model_sources() (CLASH_SRC among them)
ADMISSION_MODELS = [pytest.param(DIAL_SRC, id="dial"), pytest.param(GUARD_SRC, id="guard"),
                    pytest.param(TANK_SRC, id="tank")]
ADMISSION_MODELS += [p for p in _model_sources()
                     if p.values[0] not in {DIAL_SRC, GUARD_SRC, TANK_SRC}]


class TestAdmissionAgainstReference:
    """The generated judge refuses exactly the calls that
    ``check_precondition`` words a reason for, with that reason and without
    using up a cycle, and hands the subject an admitted call as exact
    ``int``s; it passes that call on, with its values in the step key, in
    declaration order."""

    @staticmethod
    def _stimuli(names, domains) -> list:
        """The inputs at their domains' low ends, and that call with one
        change each: an extra or a missing name, one value of another type or
        just outside its domain, or an ``int`` subclass inside or just
        outside it; each as a dict and as a mapping that is not a dict."""
        valid = {name: domains[name].start for name in names}
        stimuli = [valid, {**valid, "extra": 0}]
        for name in names:
            domain = domains[name]
            level = enum.IntEnum("Level", {"INSIDE": domain.start, "OUTSIDE": domain.stop})
            stimuli.append({k: v for k, v in valid.items() if k != name})
            for value in (True, 1.0, "1", None, domain.start - 1, domain.stop, level.INSIDE,
                          level.OUTSIDE):
                stimuli.append({**valid, name: value})
        return stimuli + [types.MappingProxyType(stimulus) for stimulus in stimuli]

    @pytest.mark.parametrize("source", ADMISSION_MODELS)
    def test_every_enumerated_stimulus(self, monkeypatch, source):
        rested = []  # the first two arguments of each call the judge leaves to _judge_rest
        real_rest = Specification._judge_rest
        monkeypatch.setattr(Specification, "_judge_rest", lambda spec, *args: (
            rested.append(args[:2]) or real_rest(spec, *args)))
        stepped = []  # the call that each step taken afresh is stepped on
        real_step = mediator.step_predicates
        monkeypatch.setattr(mediator, "step_predicates", lambda table, pre, inputs, ms: (
            stepped.append(inputs) or real_step(table, pre, inputs, ms)))
        keys = []  # the step key of each admitted call

        class Steps(dict):
            def get(self, key, default=None):
                keys.append(key)
                return super().get(key, default)

        ex = extract_predicates(parse_model(source))
        model = ex.model
        sut = RecordingSut(model)
        spec = Specification(ex, InProcessLink(model, sut, KernelConfig()))
        spec._steps = Steps()
        stimuli = self._stimuli(model.input_names, model.domains)
        admitted = 0
        for stimulus in stimuli:
            reason = spec.check_precondition(stimulus)
            cycle, seen = spec.link.next_cycle, len(sut.seen)
            spec._steps.clear()  # so that the judge takes every admitted call afresh
            verdict = spec.apply_stimulus(stimulus)
            if reason is not None:
                assert (verdict.kind, verdict.detail, verdict.cycle_index) == (
                    VerdictKind.PRECONDITION_VIOLATION, reason, cycle)
                assert (rested, stepped, keys) == ([(stimulus, None)], [], [])
                assert (spec.link.next_cycle, len(sut.seen)) == (cycle, seen)
            else:
                assert verdict.kind is not VerdictKind.PRECONDITION_VIOLATION
                want = {name: int(stimulus[name]) for name in model.input_names}
                [call], [key] = stepped, keys
                assert (call, key[2:-1], verdict.cycle_index) == (
                    want, tuple(want.values()), cycle)
                assert all(type(value) is int for value in call.values())
                assert spec.link.next_cycle == cycle + 1
                [got] = sut.seen[seen:]
                assert got == want
                assert all(type(value) is int for value in got.values())
                # only a failing postcondition leaves the judge, with no call,
                # and keeps the observation it left with
                failed = verdict.kind is VerdictKind.POSTCONDITION_FAILURE
                assert rested == ([(None, tuple(verdict.observation))] if failed else [])
                assert (verdict.observation is None) is not failed
                admitted += 1
            del rested[:], stepped[:], keys[:]
        # the valid call and each input set to the IntEnum member that its
        # domain holds, or to True where the domain holds 1, both as a dict
        # and as a mapping proxy
        assert admitted == 2 * (1 + sum(1 + (1 in model.domains[name])
                                        for name in model.input_names))


class TestCompileGuard:
    """A specification's judge, which checks each observation too, is
    generated at its first call, once, and bound on the specification over
    the method, but over none of the names that ``bench/`` wraps; it does
    not refer back to its owner.  A link only carries, and compiles nothing."""

    @pytest.fixture
    def compiles(self, monkeypatch) -> list:
        """The name of each function that ``contracts`` compiles."""
        compiled = []
        real = contracts.compile_function

        def counted(lines, name, filename, namespace):
            compiled.append(name)
            return real(lines, name, filename, namespace)
        monkeypatch.setattr(contracts, "compile_function", counted)
        return compiled

    def test_set_up_compiles_nothing(self, compiles, desk_extraction, iron_ast):
        spec = _spec(desk_extraction)
        ScriptedStreamLink(iron_ast, [_hello_line(iron_ast)])
        assert compiles == []
        assert "_judge" not in vars(spec)
        assert not hasattr(mediator, "compile_function")

    def test_compiled_on_first_stimulus_only(self, compiles, desk_extraction):
        spec = _spec(desk_extraction)
        assert spec.apply_stimulus({"move": 0, "position": 1}).kind is VerdictKind.PASS
        assert compiles == ["judge"]
        judge = vars(spec)["_judge"]
        assert judge.__module__ == "cyclotest.contracts"
        for move in (1, 0, 1, 1):
            assert spec.apply_stimulus({"move": move, "position": 1}).kind is VerdictKind.PASS
        assert compiles == ["judge"]
        assert vars(spec)["_judge"] is judge
        # the names that bench/ wraps stay the classes' own
        assert "apply_stimulus" not in vars(spec)
        assert "exchange" not in vars(spec.link)
        assert "run_cycle" not in vars(spec.link.kernel)

    def test_no_reference_back_to_the_owner(self, compiles, desk_extraction):
        spec = _spec(desk_extraction)
        for move in (0, 1, 1):
            spec.apply_stimulus({"move": move, "position": 1})
        owners = [weakref.ref(spec), weakref.ref(spec.link)]
        collecting = gc.isenabled()
        gc.disable()
        try:
            del spec
            assert [owner() for owner in owners] == [None, None]
        finally:
            if collecting:
                gc.enable()

    def test_refused_first_stimulus(self, compiles, desk_extraction):
        spec = _spec(desk_extraction)
        verdict = spec.apply_stimulus({"move": 2, "position": 1})
        assert (verdict.kind, verdict.detail, verdict.cycle_index) == (
            VerdictKind.PRECONDITION_VIOLATION, "input 'move' = 2 outside its domain", 0)
        assert compiles == ["judge"]
        assert spec.apply_stimulus({"move": 0, "position": 1}).kind is VerdictKind.PASS
        assert compiles == ["judge"]

    def test_misfit_first_observation(self, compiles, desk_extraction):
        sut = ScriptedSut([({"heating": 2}, {}), ({"heating": 1}, {})])
        spec = _spec(desk_extraction, sut)
        verdict = spec.apply_stimulus({"move": 0, "position": 0})
        assert (verdict.kind, verdict.detail, verdict.cycle_index) == (
            VerdictKind.MEDIATOR_FAILURE, "observation outputs 'heating' = 2 is outside its "
            "domain", 0)
        assert (compiles, spec.link.next_cycle) == (["judge"], 0)
        # the subject ran cycle 0, so its next observation is for cycle 1,
        # which a link that was not advanced refuses, in process as over a stream
        verdict = spec.apply_stimulus({"move": 0, "position": 0})
        assert (verdict.kind, verdict.detail, verdict.cycle_index) == (
            VerdictKind.MEDIATOR_FAILURE, "observation for cycle 1 after set_inputs 0", 0)
        assert (compiles, spec.link.next_cycle) == (["judge"], 0)

    def test_a_link_carries_a_misfit_unchecked(self, compiles, iron_ast):
        sut = ScriptedSut([({"heating": 2}, {})])
        link = InProcessLink(iron_ast, sut, KernelConfig())
        assert link.exchange({"move": 0, "position": 0}) == (0, 1000, {"heating": 2}, {})
        observation = {"type": "observation", "cycle": 5, "sys_time_ms": "x",
                       "outputs": {"heating": 1}}
        stream = ScriptedStreamLink(iron_ast, [_hello_line(iron_ast),
                                               (json.dumps(observation) + "\n").encode()])
        assert stream.exchange({"move": 0, "position": 0}) == (5, "x", {"heating": 1}, None)
        assert (compiles, link.next_cycle, stream.next_cycle) == ([], 0, 0)


class TestDerivedOnce:
    def test_atoms_not_rederived_per_stimulus(self, monkeypatch):
        from conftest import desk_config

        from cyclotest import cli, contracts, dsl

        calls = []
        for name in ("print_expr", "condition_atoms"):
            real = getattr(dsl, name)
            monkeypatch.setattr(dsl, name, lambda expr, real=real, name=name:
                                calls.append(name) or real(expr))
        after_first = []
        real_apply = contracts.Specification.apply_stimulus

        def apply(spec, inputs):
            verdict = real_apply(spec, inputs)
            if not after_first:
                after_first.append(len(calls))
            return verdict

        monkeypatch.setattr(contracts.Specification, "apply_stimulus", apply)
        result = cli.run_campaign(desk_config())
        assert len(result.log.entries) == 216
        assert calls  # the wrappers see the derivation
        assert len(calls) == after_first[0]


STATEFUL_SRC = """
model latch {
  input set: bool;
  output out: bool;
  state mem: bool hidden = 0;

  logic {
    if (set) {
      mem = 1;
      out = 1;
    } else {
      out = mem;
    }
  }
}
"""


class LatchSut:
    """Independent latch implementation for the hidden-state contract."""

    def __init__(self):
        self.mem = 0

    def step(self, inputs, sys_time_ms):
        if int(inputs["set"]):
            self.mem = 1
            return {"out": 1}
        return {"out": self.mem}

    def visible_state(self):
        return {}


class TestHiddenState:
    def test_hidden_state_checked_through_future_outputs(self):
        class RecordedLatch(LatchSut):
            def step(self, inputs, sys_time_ms):
                self.returned = super().step(inputs, sys_time_ms)
                return self.returned

        ex = extract_predicates(parse_model(STATEFUL_SRC))
        sut = RecordedLatch()
        spec = Specification(ex, InProcessLink(ex.model, sut, KernelConfig()))
        assert spec.apply_stimulus({"set": 0}).kind is VerdictKind.PASS
        assert spec.state.state_vars == {"mem": 0}
        assert spec.apply_stimulus({"set": 1}).kind is VerdictKind.PASS
        assert spec.state.state_vars == {"mem": 1}  # model post-state, not observed
        # latched value now observable indirectly
        verdict = spec.apply_stimulus({"set": 0})
        assert verdict.kind is VerdictKind.PASS
        assert sut.returned == {"out": 1}

    def test_broken_latch_detected_one_cycle_later(self):
        class ForgetfulLatch(LatchSut):
            def step(self, inputs, sys_time_ms):
                out = super().step(inputs, sys_time_ms)
                self.mem = 0  # drops the latched value
                return out

        ex = extract_predicates(parse_model(STATEFUL_SRC))
        spec = Specification(ex, InProcessLink(ex.model, ForgetfulLatch(), KernelConfig()))
        assert spec.apply_stimulus({"set": 1}).kind is VerdictKind.PASS
        verdict = spec.apply_stimulus({"set": 0})
        assert verdict.kind is VerdictKind.POSTCONDITION_FAILURE
        assert verdict.mismatches[0].name == "out"


# the memos' own cap, and one far below the distinct cycles, steps and states
# of any campaign; named, so that a change of the cap renames no test
CAPS = [pytest.param(contracts.MEMO_CAP, id="memo-cap"), pytest.param(2, id="cap-2")]


def _by_value(spec):
    """What a specification's state is, as opposed to which object holds it."""
    state = spec.state
    return state.state_vars, state.holds, state.flags, spec.sys_time_ms


def _recording(monkeypatch, cls):
    """The specifications that ``cli`` builds from now on, as ``cls``."""
    specs = []
    monkeypatch.setattr(cli, "Specification",
                        lambda *args, **kwargs: specs.append(cls(*args, **kwargs)) or specs[-1])
    return specs


def _flag_vectors(predicate_ids):
    for bits in itertools.product((False, True), repeat=len(predicate_ids)):
        yield dict(zip(predicate_ids, bits))


class TestOracleMemo:
    """The memoised oracle against the plain one of ``oracles.py``, which
    steps the hold table, runs the model and accumulates coverage on every
    cycle."""

    @pytest.mark.parametrize("name", ["tank", "guard", "desk iron", "paper iron"])
    def test_every_cycle_matches_the_model(self, name, iron_extraction, desk_extraction):
        extraction = {"tank": extract_predicates(parse_model(TANK_SRC)),
                      "guard": extract_predicates(parse_model(GUARD_SRC)),
                      "desk iron": desk_extraction, "paper iron": iron_extraction}[name]
        model = extraction.model
        memo = Specification(extraction, None)
        plain = PlainSpecification(extraction, None)
        ids = memo.hold_table.predicate_ids
        state_names = [d.name for d in model.state_vars]
        states = [dict(zip(state_names, values))
                  for values in itertools.product(*(d.domain() for d in model.state_vars))]
        cycles = [(inputs, state, flags) for inputs in _valuations(model.inputs)
                  for state in states for flags in _flag_vectors(ids)]
        # the memo key, as the judge builds it
        keys = [contracts._values_at(names) for names in (
            model.input_names, tuple(state_names), ids)]
        for _ in range(2):  # every cycle once unseen, once remembered
            for inputs, state, flags in cycles:
                key = tuple(values_at(values) for values_at, values in zip(
                    keys, (inputs, state, flags)))
                ref = memo._memo.get(key) or memo.reference(inputs, state, flags, key)
                assert ref == eval_model(model, inputs, state, flags)
                plain.reference(inputs, state, flags, key)
        assert len(memo._memo) == len(cycles)
        assert memo.coverage == plain.coverage

    @pytest.mark.parametrize("scale, sut", [("desk", "inproc:iron")]
                             + [("desk", "inproc:iron:" + m) for m in MUTANT_IDS]
                             + [("paper", "inproc:iron"), ("paper-seed-3", "inproc:iron"),
                                ("paper-piecemeal", "inproc:iron"), ("desk", "stdio")])
    @pytest.mark.parametrize("cap", CAPS)
    def test_campaign_equals_the_plain_oracle(self, monkeypatch, subject_env, scale, sut, cap):
        # the paper-scale campaign takes 4,641 distinct steps; over stdio the
        # judge takes its observations from a stream link
        if sut == "stdio":
            sut = "stdio:" + shlex.join([sys.executable, "-m", "cyclotest.iron_sut",
                                         "--durations", "3000,5000"])
        config = {"desk": desk_config(sut=sut),
                  "paper": cli.RunConfig(model_path=MODEL_PATH, sut=sut),
                  "paper-seed-3": cli.RunConfig(model_path=MODEL_PATH, sut=sut, seed=3),
                  "paper-piecemeal": cli.RunConfig(model_path=MODEL_PATH, sut=sut,
                                                   scenario="piecemeal")}[scale]
        monkeypatch.setattr(contracts, "MEMO_CAP", cap)
        memo_specs = _recording(monkeypatch, Specification)
        memo = cli.run_campaign(config)
        plain_specs = _recording(monkeypatch, PlainSpecification)
        plain = cli.run_campaign(config)
        if scale == "paper":
            assert len(memo.log.entries) == 30_646
        assert memo.log.to_json_lines() == plain.log.to_json_lines()
        assert memo.log.outcome == plain.log.outcome
        assert memo.report == plain.report
        assert (memo.error, memo.exit_code(())) == (plain.error, plain.exit_code(()))
        assert [_by_value(spec) for spec in memo_specs] == [
            _by_value(spec) for spec in plain_specs]

    def test_paper_campaign_keeps_one_state_per_remembered_step(self, monkeypatch):
        # 30,646 stimuli take 4,641 distinct steps between 4,625 distinct
        # (state variables, hold record); only a step taken afresh steps the
        # hold table and synchronizes the state, and the states are the
        # initial one and the one stored with each remembered step
        calls = []
        for name in ("step_predicates", "sync_state"):
            real = getattr(mediator, name)
            monkeypatch.setattr(mediator, name, lambda *args, real=real, name=name:
                                calls.append(name) or real(*args))
        specs, states = {}, []  # each stimulus's pre- and post-state, kept alive
        real_apply = contracts.Specification.apply_stimulus

        def apply_stimulus(spec, inputs):
            specs[id(spec)] = spec
            states.append(spec.state)
            verdict = real_apply(spec, inputs)
            states.append(spec.state)
            return verdict

        monkeypatch.setattr(contracts.Specification, "apply_stimulus", apply_stimulus)
        result = cli.run_campaign(cli.RunConfig(model_path=MODEL_PATH))
        assert len(result.log.entries) == len(states) // 2 == 30_646
        assert calls.count("step_predicates") == calls.count("sync_state") == 4_641
        distinct = {(tuple(s.state_vars.items()), s.holds) for s in states}
        assert len(distinct) == 4_625
        (spec,) = specs.values()
        kept = {id(states[0])} | {id(post) for _, post, _ in spec._steps.values()}
        assert {id(s) for s in states} == kept
        assert len(kept) == len(spec._steps) + 1 == 4_642
        # a step is keyed by its pre-state's values and hold record
        assert all(s.values == tuple(s.state_vars.values()) for s in states)
        assert {key[:2] for key in spec._steps} <= {(s.values, s.holds) for s in states}

    def test_states_and_steps_past_the_cap_are_not_kept(self, monkeypatch):
        monkeypatch.setattr(contracts, "MEMO_CAP", 2)
        specs, states, sizes = {}, [], []
        real_apply = contracts.Specification.apply_stimulus

        def apply_stimulus(spec, inputs):
            specs[id(spec)] = spec
            states.append(spec.state)
            verdict = real_apply(spec, inputs)
            sizes.append(len(spec._steps))
            return verdict

        monkeypatch.setattr(contracts.Specification, "apply_stimulus", apply_stimulus)
        result = cli.run_campaign(desk_config())
        assert len(result.log.entries) == len(states) == len(sizes) == 216
        (spec,) = specs.values()
        assert max(sizes) == len(spec._steps) == 2
        # past the cap, a step taken afresh moves to a state that no step keeps
        kept = {id(post) for _, post, _ in spec._steps.values()}
        assert any(id(s) not in kept for s in states[1:])

    def test_each_distinct_cycle_evaluated_once(self, monkeypatch):
        seen = []
        real = contracts.eval_model

        def counted(model, inputs, state_pre, flags):
            seen.append((tuple(inputs.items()), tuple(state_pre.items()), tuple(flags.items())))
            return real(model, inputs, state_pre, flags)

        monkeypatch.setattr(contracts, "eval_model", counted)
        result = cli.run_campaign(desk_config())
        assert len(seen) == len(set(seen))
        assert len(seen) < len(result.log.entries) == 216

    def test_each_distinct_step_taken_once(self, monkeypatch):
        # a step is keyed by the inputs, the pre-state's variables and hold
        # record, and the ms since the previous observation
        steps = []
        real = mediator.step_predicates

        def counted(table, pre, inputs, elapsed_ms):
            steps.append((tuple(inputs.items()), tuple(pre.state_vars.items()), pre.holds,
                          elapsed_ms))
            return real(table, pre, inputs, elapsed_ms)

        monkeypatch.setattr(mediator, "step_predicates", counted)
        result = cli.run_campaign(desk_config())
        assert len(steps) == len(set(steps))
        assert len(steps) < len(result.log.entries) == 216

    def test_plain_oracle_steps_and_runs_the_model_every_cycle(self, monkeypatch):
        import oracles

        calls = []
        for module, name in ((mediator, "step_predicates"), (oracles, "walk_model")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, real=real, name=name:
                                calls.append(name) or real(*args))
        monkeypatch.setattr(cli, "Specification", PlainSpecification)
        result = cli.run_campaign(desk_config())
        assert len(result.log.entries) == 216
        assert calls.count("step_predicates") == calls.count("walk_model") == 216

    def test_cycles_past_the_cap_are_evaluated_every_time(self, monkeypatch):
        # the dial has no state and no predicates: a cycle is its input
        monkeypatch.setattr(contracts, "MEMO_CAP", 1)
        calls = []
        real = contracts.eval_model
        monkeypatch.setattr(contracts, "eval_model", lambda *args: calls.append(1) or real(*args))
        spec = _dial_spec()
        kinds = [spec.apply_stimulus({"level": level}).kind for level in (3, 0) * 3]
        assert kinds == [VerdictKind.PASS] * 6
        assert len(spec._memo) == 1
        assert len(calls) == 4  # level 3 once, level 0 every time


class ScriptedLink(MediatorLink):
    """A subject that runs the model as the plain oracle does: its hold table
    is stepped by the system time it reports, then the model runs on the
    flags.  At a scripted cycle it answers otherwise: ``("output", name)`` or
    ``("state", name)`` sends that value changed within its domain, and
    ``("time", ms)`` advances the clock by ``ms`` instead of the period.
    Its own state stays the model's."""

    def __init__(self, extraction, script: dict, period_ms: int = 1000):
        super().__init__(extraction.model)
        self.script = script
        self.period_ms = period_ms
        self.table = HoldTable(extraction.predicates, extraction.model.initial_state())
        self.holds = self.table.initial
        self.state_vars = extraction.model.initial_state()
        self.sys_time_ms = 0
        self.cycles = 0

    def exchange(self, inputs):
        model = self.model
        cycle = self.cycles
        self.cycles += 1
        fault, arg = self.script.get(cycle, (None, None))
        elapsed = 0 if cycle == 0 else arg if fault == "time" else self.period_ms
        self.sys_time_ms += elapsed
        self.holds, flags = self.table.step(self.holds, inputs, self.state_vars, elapsed)
        outputs, self.state_vars, _ = eval_model(model, inputs, self.state_vars, flags)
        outputs = dict(outputs)
        visible = {name: self.state_vars[name] for name in model.readable_names}
        for part, values in (("output", outputs), ("state", visible)):
            if fault == part:
                domain = model.domains[arg]
                values[arg] = domain[(domain.index(values[arg]) + 1) % len(domain)]
        return cycle, self.sys_time_ms, outputs, visible


def _scripted_run(extraction, rng, cycles: int = 150):
    """Seeded stimuli, each valuation held for 1 to 6 cycles, and a fault
    script for about one cycle in ten."""
    model = extraction.model
    stimuli = []
    while len(stimuli) < cycles:
        valuation = {d.name: rng.choice(d.domain()) for d in model.inputs}
        stimuli += [valuation] * rng.randint(1, 6)
    faults = [("time", ms) for ms in (0, 500, 1500)]
    faults += [("output", name) for name in model.output_names
               if len(model.domains[name]) > 1]
    faults += [("state", name) for name in model.readable_names
               if len(model.domains[name]) > 1]
    script = {cycle: rng.choice(faults) for cycle in range(1, cycles)
              if rng.random() < 0.1}
    return stimuli[:cycles], script


class TestStepMemo:
    """The memoised specification against the plain one, cycle by cycle,
    through a subject that now and then sends a wrong output or visible
    state, or reports an irregular system-time step."""

    @pytest.mark.parametrize("model", REFERENCE_MODELS)
    @pytest.mark.parametrize("cap", CAPS)
    def test_verdicts_and_states_equal_the_plain_oracle(self, monkeypatch, model, cap):
        monkeypatch.setattr(contracts, "MEMO_CAP", cap)
        extraction = _extraction_at(model, 1000)
        tables = _stepped_tables(monkeypatch)
        for seed in range(3):
            stimuli, script = _scripted_run(extraction, random.Random(seed))
            memo = Specification(extraction, ScriptedLink(extraction, script))
            plain = PlainSpecification(extraction, ScriptedLink(extraction, script))
            for cycle, inputs in enumerate(stimuli):
                got, want = memo.apply_stimulus(inputs), plain.apply_stimulus(inputs)
                assert (got.kind, got.detail, got.mismatches, got.cycle_index, got.trace) == (
                    want.kind, want.detail, want.mismatches, want.cycle_index, want.trace), (
                    seed, cycle, script.get(cycle))
                assert _by_value(memo) == _by_value(plain), (seed, cycle, script.get(cycle))
                assert memo.sys_time_ms == memo.link.sys_time_ms
            assert memo.coverage == plain.coverage
            assert tables.count(plain.hold_table) == len(stimuli)
            if cap > 2:  # some cycles repeat a step
                assert tables.count(memo.hold_table) < len(stimuli)

    @pytest.mark.parametrize("model", REFERENCE_MODELS)
    def test_a_fresh_step_keys_its_cycle_as_reference_does(self, monkeypatch, model):
        # a step taken afresh hands reference() the memo key that it built
        # off its step key and flags; it must be the tuples of the inputs,
        # the pre-state and the flags, also for one input or one state
        # variable
        extraction = _extraction_at(model, 1000)
        given = []
        real = Specification.reference

        def reference(spec, inputs, state_pre, flags, key):
            names = (spec.model.input_names, tuple(d.name for d in spec.model.state_vars),
                     spec.hold_table.predicate_ids)
            given.append((key, tuple(contracts._values_at(n)(values) for n, values in zip(
                names, (inputs, state_pre, flags)))))
            return real(spec, inputs, state_pre, flags, key)

        monkeypatch.setattr(Specification, "reference", reference)
        stimuli, script = _scripted_run(extraction, random.Random(0))
        spec = Specification(extraction, ScriptedLink(extraction, script))
        for inputs in stimuli:
            spec.apply_stimulus(inputs)
        assert given and all(values == read for values, read in given)
        assert all(type(part) is tuple for values, _ in given for part in values)

    @pytest.mark.parametrize("fault_cycle", [0, 5], ids=["step-taken-afresh", "remembered-step"])
    def test_failed_postcondition_leaves_the_observed_state(self, monkeypatch, fault_cycle):
        # the tank reports its readable level one off at one cycle of a hold
        extraction = extract_predicates(parse_model(TANK_SRC))
        script = {fault_cycle: ("state", "level")}
        memo = Specification(extraction, ScriptedLink(extraction, script))
        plain = PlainSpecification(extraction, ScriptedLink(extraction, script))
        tables = _stepped_tables(monkeypatch)
        for cycle in range(fault_cycle + 3):
            taken = tables.count(memo.hold_table)
            got = memo.apply_stimulus({"fill": 1, "drain": 0})
            want = plain.apply_stimulus({"fill": 1, "drain": 0})
            assert (got.kind, got.detail, got.mismatches) == (
                want.kind, want.detail, want.mismatches), cycle
            assert _by_value(memo) == _by_value(plain), cycle
            if cycle == fault_cycle:
                assert got.kind is VerdictKind.POSTCONDITION_FAILURE
                assert tables.count(memo.hold_table) == taken + 1
                expected, actual = got.mismatches[0].expected, got.mismatches[0].actual
                assert memo.state.state_vars["level"] == actual != expected
                # and no remembered step moves to it
                assert all(post is not memo.state for _, post, _ in memo._steps.values())
        # the next cycle expects the level it was told, and the one after
        # that the subject's own again
        assert got.kind is VerdictKind.PASS


    @pytest.mark.parametrize("model", REFERENCE_MODELS)
    @pytest.mark.parametrize("cap", CAPS + [pytest.param(1, id="cap-1")])
    def test_a_fresh_step_is_stepped_and_synchronized_once(self, monkeypatch, model, cap):
        # a remembered passing step calls neither; every other step, a
        # remembered failing one too, is taken afresh and calls each once
        monkeypatch.setattr(contracts, "MEMO_CAP", cap)
        calls = []
        for name in ("step_predicates", "sync_state"):
            real = getattr(mediator, name)
            monkeypatch.setattr(mediator, name, lambda *args, real=real, name=name:
                                calls.append(name) or real(*args))
        looked_up = []  # whether the judge found the step remembered

        class Steps(dict):
            def get(self, key, default=None):
                looked_up.append(key in self)
                return super().get(key, default)

        extraction = _extraction_at(model, 1000)
        domains = extraction.model.domains
        # a value sent wrong at cycle 1, whose step no earlier one repeats,
        # since cycle 0's took 0 ms: so a step taken at first sight fails
        wrong = next((part, name) for part, names in (
            ("output", extraction.model.output_names), ("state", extraction.model.readable_names))
            for name in names if len(domains[name]) > 1)
        seen = Counter()  # (remembered, passed) -> stimuli
        for seed in range(3):
            stimuli, script = _scripted_run(extraction, random.Random(seed))
            script[1] = wrong
            spec = Specification(extraction, ScriptedLink(extraction, script))
            spec._steps = Steps()
            for inputs in stimuli:
                passed = spec.apply_stimulus(inputs).kind is VerdictKind.PASS
                [remembered] = looked_up
                fresh = not (remembered and passed)
                assert calls == (["step_predicates", "sync_state"] if fresh else [])
                seen[remembered, passed] += 1
                del calls[:], looked_up[:]
        assert seen[False, True] and seen[False, False]
        if cap > 2:  # some steps are remembered, and some of them fail
            assert seen[True, True] and seen[True, False]

    # the tank at a 100 ms period: draining empties it in one cycle, then a
    # hold of fill == 2 steps its record by 100 ms a cycle, under the 1500 ms
    # that sets its flag, so each of its cycles is a step of its own; the
    # second round repeats the first round's steps
    ROUND = [Action("drain", lambda v: [{"fill": 0, "drain": 1}]),
             Action("fill", lambda v: [{"fill": 2, "drain": 0}] * 12)]

    @pytest.mark.parametrize("fault", ["output", "state"])
    @pytest.mark.parametrize("at", [1, 6, 12, 14, 19, 25], ids=[
        "fresh-first", "fresh-middle", "fresh-last",
        "remembered-first", "remembered-middle", "remembered-last"])
    def test_a_hold_failing_at_one_cycle_equals_the_reference(self, monkeypatch, fault, at):
        extraction = extract_predicates(parse_model(TANK_SRC))
        script = {at: (fault, {"output": "valve", "state": "level"}[fault])}
        stepped = []  # the cycles that the memoised specification steps afresh

        def campaign(spec, apply):
            log, scenario = traversal.TestLog(), Scenario("tank", lambda: _by_value(spec), None)
            return log, [apply(action, spec, scenario, log, 0, False)
                         for action in self.ROUND * 2]

        real = mediator.step_predicates
        monkeypatch.setattr(mediator, "step_predicates", lambda table, *args: (
            table is memo.hold_table and stepped.append(memo.link.next_cycle - 1),
            real(table, *args))[1])
        memo = Specification(extraction, ScriptedLink(extraction, script, period_ms=100))
        log, got = campaign(memo, traversal._apply)
        reference = ReferenceApply()
        plain = PlainSpecification(extraction, ScriptedLink(extraction, script, period_ms=100))
        _, want = campaign(plain, reference)
        assert got == want
        assert at in [verdict.cycle_index for _, verdict in got if verdict is not None]
        assert log.entries == reference.entries
        assert (memo.coverage, memo.sys_time_ms) == (plain.coverage, plain.sys_time_ms)
        # a fault in the second round comes after 14 steps taken afresh, the
        # first round's 13 and the second drain; the second hold takes afresh
        # only its failing step
        assert at in stepped
        if at > 13:
            assert stepped == list(range(14)) + [at]


class ModelSut:
    """A subject that runs the model as :class:`ScriptedLink` does, through
    its output and state faults, and answers every cycle with new dicts or,
    ``in_place``, with one outputs dict and one visible-state dict that it
    rewrites every cycle.  ``returned`` keeps a copy of each cycle's answer."""

    def __init__(self, extraction, script: dict, in_place: bool):
        self.engine = ScriptedLink(extraction, script)
        self.in_place = in_place
        self.outputs, self.state = {}, {}
        self.returned = []

    def step(self, inputs, sys_time_ms):
        _, _, outputs, state = self.engine.exchange(inputs)
        self.returned.append((dict(outputs), dict(state)))
        if not self.in_place:
            self.state = state
            return outputs
        self.outputs.update(outputs)
        self.state.update(state)
        return self.outputs

    def visible_state(self):
        return self.state


class TestUncopiedObservation:
    """The link hands the judge the subject's own dicts and a passing verdict
    records none of them, so a subject that rewrites one dict in place every
    cycle is judged as one that answers with new dicts, and a failing
    verdict's observation keeps its own cycle's values."""

    @pytest.mark.parametrize("model", REFERENCE_MODELS)
    def test_dicts_rewritten_in_place_are_judged_as_new_ones(self, model):
        extraction = _extraction_at(model, 1000)
        for seed in range(3):
            stimuli, script = _scripted_run(extraction, random.Random(seed))
            script = {cycle: fault for cycle, fault in script.items() if fault[0] != "time"}
            runs = []
            for in_place in (False, True):
                sut = ModelSut(extraction, script, in_place)
                spec = Specification(extraction, InProcessLink(
                    extraction.model, sut, KernelConfig(cycle_period_ms=1000)))
                log = traversal.TestLog()
                scenario = Scenario("model", lambda: _by_value(spec), None)
                verdicts, states = [], []
                for i, inputs in enumerate(stimuli):
                    action = Action("s%d" % i, lambda v, inputs=inputs: [inputs])
                    verdicts.append(traversal._apply(action, spec, scenario, log, i, False)[1])
                    states.append(_by_value(spec))
                runs.append((sut, verdicts, log.to_json_lines(), states, spec.coverage))
            (fresh, *want), (in_place, *got) = runs
            assert got == want, seed
            assert fresh.returned == in_place.returned
            failed = [v for v in got[0] if v is not None]
            assert set(script) <= {verdict.cycle_index for verdict in failed}
            for verdict in failed:
                outputs, state = fresh.returned[verdict.cycle_index]
                assert verdict.observation == (verdict.cycle_index, 1000 * (
                    verdict.cycle_index + 1), outputs, state)
                assert verdict.observation.outputs is not in_place.outputs
                assert verdict.observation.visible_state is not in_place.state

    def test_a_dict_subclass_is_judged_by_its_plain_copy(self):
        # a subject's dict subclass that claims to equal any dict and to
        # differ from none is judged by the values it holds
        class Agreeable(dict):
            def __eq__(self, other):
                return True

            def __ne__(self, other):
                return False

        class AgreeableSut:  # the dial's o = 1 at every level
            def step(self, inputs, sys_time_ms):
                return Agreeable(o=1)

        spec = _dial_spec()
        spec.link = InProcessLink(spec.model, AgreeableSut(), KernelConfig())
        verdicts = [spec.apply_stimulus({"level": level}) for level in (0, 3, 0)]
        assert [v.kind for v in verdicts] == [VerdictKind.POSTCONDITION_FAILURE,
                                              VerdictKind.PASS,
                                              VerdictKind.POSTCONDITION_FAILURE]
        assert type(verdicts[0].observation.outputs) is dict

    @pytest.mark.parametrize("config, built", [
        pytest.param(desk_config(), 0, id="desk"),
        pytest.param(cli.RunConfig(model_path=MODEL_PATH), 0, id="paper"),
        pytest.param(cli.RunConfig(model_path=MODEL_PATH, sut="inproc:iron:M3"), 1, id="M3")])
    def test_only_a_failing_verdict_builds_an_observation(self, monkeypatch, config, built):
        observations = []
        real = contracts.CycleObservation
        monkeypatch.setattr(contracts, "CycleObservation", lambda *args: (
            observations.append(real(*args)) or observations[-1]))
        result = cli.run_campaign(config)
        assert len(observations) == built
        assert (result.log.failure is None) is (built == 0)
        if built:
            assert result.log.failure.observation is observations[0]


def _stepped_tables(monkeypatch) -> list:
    """The hold table of each ``mediator.step_predicates`` call from now on."""
    tables = []
    real = mediator.step_predicates
    monkeypatch.setattr(mediator, "step_predicates",
                        lambda table, *args: tables.append(table) or real(table, *args))
    return tables


class TestAbstractStateMemo:
    """The abstract state that the specification remembers against
    ``generalized_state`` of the current state, computed afresh."""

    @pytest.mark.parametrize("sut", ["inproc:iron"] + ["inproc:iron:" + m for m in MUTANT_IDS])
    @pytest.mark.parametrize("cap", CAPS)
    def test_logged_states_equal_the_unmemoised_state(self, monkeypatch, sut, cap):
        monkeypatch.setattr(contracts, "MEMO_CAP", cap)
        real = traversal._apply
        checked = []

        def apply(action, spec, scenario, log, source, replay):
            # the action starts from the specification state its source came from
            expected = generalized_state(spec.state.env(), spec.model)
            start = len(log.entries)
            result = real(action, spec, scenario, log, source, replay)
            checked.extend((entry.state, expected) for entry in log.entries[start:])
            return result

        monkeypatch.setattr(traversal, "_apply", apply)
        result = cli.run_campaign(desk_config(sut=sut))
        assert len(checked) == len(result.log.entries) > 0
        assert all(state == expected for state, expected in checked)

    @pytest.mark.parametrize("name", ["desk iron", "tank", "guard"])
    def test_every_reachable_state_matches(self, desk_extraction, name):
        extraction = {"tank": extract_predicates(parse_model(TANK_SRC)),
                      "guard": extract_predicates(parse_model(GUARD_SRC)),
                      "desk iron": desk_extraction}[name]
        model = extraction.model
        reach = enumerate_reachable_flag_states(extraction)
        spec = Specification(extraction, None)
        calls = []

        def derive(env):
            calls.append(1)
            return generalized_state(env, model)

        for _ in range(2):  # every state twice
            for state_vars, vector in reach.states:
                state_vars = dict(state_vars)
                flags = {pid: bool(bit) for pid, bit in zip(reach.predicate_ids, vector)}
                values = tuple(state_vars[d.name] for d in model.state_vars)
                # a new object, derived afresh however often its values recur
                spec.state = SpecificationState(state_vars, (), flags, values)
                expected = generalized_state(spec.state.env(), model)
                assert spec.abstract_state(derive) == expected
                derived = len(calls)
                assert spec.abstract_state(derive) == expected  # read off the state
                assert len(calls) == derived
        assert len(calls) == 2 * len(reach.states)

    def test_one_derivation_per_state_object(self, monkeypatch):
        # the states are the initial one and those stored with remembered
        # steps, and each is derived once, however often its values recur
        specs, states, keys, calls = {}, [], [], []
        real_abstract = contracts.Specification.abstract_state
        real_derive = scenarios.generalized_state

        def abstract_state(spec, derive):
            specs[id(spec)] = spec
            states.append(spec.state)
            keys.append((tuple(spec.state.state_vars.items()), tuple(spec.state.flags.items())))
            return real_abstract(spec, derive)

        monkeypatch.setattr(contracts.Specification, "abstract_state", abstract_state)
        monkeypatch.setattr(scenarios, "generalized_state",
                            lambda *args: calls.append(1) or real_derive(*args))
        result = cli.run_campaign(desk_config())
        assert len(result.log.entries) == 216
        (spec,) = specs.values()
        objects = {id(s) for s in states}
        assert len(calls) == len(objects) <= len(spec._steps) + 1
        assert len(set(keys)) <= len(objects) < len(keys)
