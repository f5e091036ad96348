import itertools
import random

import pytest
from conftest import GUARD_SRC, MODEL_PATH, TANK_SRC, desk_config

from cyclotest import cli, contracts, mediator, scenarios, traversal
from cyclotest.contracts import Specification, SpecificationState, VerdictKind
from cyclotest.dsl import extract_predicates, parse_model
from cyclotest.interp import eval_model
from cyclotest.iron import DESK_DURATIONS_MS, MUTANT_IDS, IronSut
from cyclotest.kernel import KernelConfig
from cyclotest.mediator import InProcessLink, MediatorLink, ProtocolError
from cyclotest.reduction import (
    derive_projections,
    enumerate_reachable_flag_states,
    generalized_state,
)
from cyclotest.temporal import HoldTable
from oracles import PlainSpecification, _valuations
from test_reduction import REFERENCE_MODELS, _extraction_at


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
        link = InProcessLink(ex.model, FixedSut(10000), KernelConfig())
        assert link.exchange({"level": 10000}).outputs == {"o": 10000}
        link = InProcessLink(ex.model, FixedSut(10001), KernelConfig())
        with pytest.raises(ProtocolError, match="outputs 'o' = 10001 is outside its domain"):
            link.exchange({"level": 10000})

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
        ex = extract_predicates(parse_model(STATEFUL_SRC))
        link = InProcessLink(ex.model, LatchSut(), KernelConfig())
        spec = Specification(ex, link)
        assert spec.apply_stimulus({"set": 0}).kind is VerdictKind.PASS
        assert spec.state.state_vars == {"mem": 0}
        assert spec.apply_stimulus({"set": 1}).kind is VerdictKind.PASS
        assert spec.state.state_vars == {"mem": 1}  # model post-state, not observed
        # latched value now observable indirectly
        verdict = spec.apply_stimulus({"set": 0})
        assert verdict.kind is VerdictKind.PASS
        assert verdict.observation.outputs == {"out": 1}

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
        for _ in range(2):  # every cycle once unseen, once remembered
            for inputs, state, flags in cycles:
                assert memo.reference(inputs, state, flags) == eval_model(
                    model, inputs, state, flags)
                plain.reference(inputs, state, flags)
        assert len(memo._memo) == len(cycles)
        assert memo.coverage == plain.coverage

    @pytest.mark.parametrize("scale, sut", [("desk", "inproc:iron")]
                             + [("desk", "inproc:iron:" + m) for m in MUTANT_IDS]
                             + [("paper", "inproc:iron")])
    @pytest.mark.parametrize("cap", CAPS)
    def test_campaign_equals_the_plain_oracle(self, monkeypatch, scale, sut, cap):
        # the paper-scale campaign takes 4,641 distinct steps
        config = (desk_config(sut=sut) if scale == "desk"
                  else cli.RunConfig(model_path=MODEL_PATH, sut=sut))
        monkeypatch.setattr(contracts, "MEMO_CAP", cap)
        memo = cli.run_campaign(config)
        monkeypatch.setattr(cli, "Specification", PlainSpecification)
        plain = cli.run_campaign(config)
        if scale == "paper":
            assert len(memo.log.entries) == 30_646
        assert memo.log.to_json_lines() == plain.log.to_json_lines()
        assert memo.log.outcome == plain.log.outcome
        assert memo.report == plain.report
        assert (memo.error, memo.exit_code(())) == (plain.error, plain.exit_code(()))

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

        def counted(table, pre, obs, inputs):
            last = pre.sys_time_ms
            steps.append((tuple(inputs.items()), tuple(pre.state_vars.items()), pre.holds,
                          0 if last is None else obs.sys_time_ms - last))
            return real(table, pre, obs, inputs)

        monkeypatch.setattr(mediator, "step_predicates", counted)
        result = cli.run_campaign(desk_config())
        assert len(steps) == len(set(steps))
        assert len(steps) < len(result.log.entries) == 216

    def test_plain_oracle_steps_and_runs_the_model_every_cycle(self, monkeypatch):
        import oracles

        calls = []
        for module, name in ((mediator, "step_predicates"), (oracles, "eval_model")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, real=real, name=name:
                                calls.append(name) or real(*args))
        monkeypatch.setattr(cli, "Specification", PlainSpecification)
        result = cli.run_campaign(desk_config())
        assert len(result.log.entries) == 216
        assert calls.count("step_predicates") == calls.count("eval_model") == 216

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
        self.table = HoldTable(extraction.predicates)
        self.holds = self.table.initial
        self.state_vars = extraction.model.initial_state()
        self.sys_time_ms = 0

    def exchange(self, inputs):
        model = self.model
        cycle = self.next_cycle
        fault, arg = self.script.get(cycle, (None, None))
        elapsed = 0 if cycle == 0 else arg if fault == "time" else self.period_ms
        self.sys_time_ms += elapsed
        env = dict(self.state_vars)
        env.update(inputs)
        self.holds = self.table.step(self.holds, env, elapsed)
        outputs, self.state_vars, _ = eval_model(model, inputs, self.state_vars,
                                                 self.table.flags(self.holds))
        outputs = dict(outputs)
        visible = {name: self.state_vars[name] for name in model.readable_names}
        for part, values in (("output", outputs), ("state", visible)):
            if fault == part:
                domain = model.domains[arg]
                values[arg] = domain[(domain.index(values[arg]) + 1) % len(domain)]
        return self._check_observation(cycle, self.sys_time_ms, outputs, visible)


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
        for seed in range(3):
            stimuli, script = _scripted_run(extraction, random.Random(seed))
            memo = Specification(extraction, ScriptedLink(extraction, script))
            plain = PlainSpecification(extraction, ScriptedLink(extraction, script))
            misses = []
            memo._step = lambda *args, real=memo._step: misses.append(1) or real(*args)
            for cycle, inputs in enumerate(stimuli):
                got, want = memo.apply_stimulus(inputs), plain.apply_stimulus(inputs)
                assert (got.kind, got.detail, got.mismatches, got.cycle_index, got.trace) == (
                    want.kind, want.detail, want.mismatches, want.cycle_index, want.trace), (
                    seed, cycle, script.get(cycle))
                assert memo.state == plain.state, (seed, cycle, script.get(cycle))
            assert memo.coverage == plain.coverage
            if cap > 2:
                assert len(misses) < len(stimuli)  # some cycles repeat a step


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
            expected = generalized_state(spec.state.env(), derive_projections(spec.extraction),
                                         spec.model)
            start = len(log.entries)
            result = real(action, spec, scenario, log, source, replay)
            checked.extend((entry.state, expected) for entry in log.entries[start:])
            return result

        monkeypatch.setattr(traversal, "_apply", apply)
        result = cli.run_campaign(desk_config(sut=sut))
        assert len(checked) == len(result.log.entries) > 0
        assert all(state == expected for state, expected in checked)

    @pytest.mark.parametrize("name", ["desk iron", "tank", "guard"])
    @pytest.mark.parametrize("cap", CAPS)
    def test_every_reachable_state_matches(self, monkeypatch, desk_extraction, name, cap):
        monkeypatch.setattr(contracts, "MEMO_CAP", cap)
        extraction = {"tank": extract_predicates(parse_model(TANK_SRC)),
                      "guard": extract_predicates(parse_model(GUARD_SRC)),
                      "desk iron": desk_extraction}[name]
        projections = derive_projections(extraction)
        reach = enumerate_reachable_flag_states(extraction, 1000)
        spec = Specification(extraction, None)

        def derive(env):
            return generalized_state(env, projections, extraction.model)

        for _ in range(2):  # every state once unseen, once remembered
            for state_vars, vector in reach.states:
                flags = {pid: bool(bit) for pid, bit in zip(reach.predicate_ids, vector)}
                spec.state = SpecificationState(dict(state_vars), (), flags)
                assert spec.abstract_state(derive) == derive(spec.state.env())
        assert len(spec._abstract) == min(cap, len(reach.states))

    def test_one_derivation_per_distinct_state(self, monkeypatch):
        keys, calls = [], []
        real_abstract = contracts.Specification.abstract_state
        real_derive = scenarios.generalized_state

        def abstract_state(spec, derive):
            keys.append((tuple(spec.state.state_vars.items()), tuple(spec.state.flags.items())))
            return real_abstract(spec, derive)

        monkeypatch.setattr(contracts.Specification, "abstract_state", abstract_state)
        monkeypatch.setattr(scenarios, "generalized_state",
                            lambda *args: calls.append(1) or real_derive(*args))
        result = cli.run_campaign(desk_config())
        assert len(result.log.entries) == 216
        assert len(calls) == len(set(keys)) < len(keys)
