import gc
import itertools
import json
import os
import random
import re
import signal
import sys
import time
import types
import weakref

import pytest
from conftest import CLASH_SRC, JUDGE_CLASH_SRC
from oracles import ReferenceHoldTable, check_observation_reference

from cyclotest import mediator
from cyclotest.contracts import Specification, SpecificationState, VerdictKind
from cyclotest.dsl import extract_predicates, parse_model
from cyclotest.iron import IronSut, DESK_DURATIONS_MS
from cyclotest.kernel import KernelConfig
from cyclotest.mediator import (
    Disconnect,
    HandshakeMismatch,
    InProcessLink,
    ProtocolError,
    WireMessage,
    _StreamLink,
    hello_for_model,
    step_predicates,
    sync_state,
    validate_hello,
)
from cyclotest.temporal import HoldTable


class TestWireFormat:
    def test_set_inputs_schema(self):
        msg = WireMessage("set_inputs", 3, {"values": {"move": 0, "position": 1}})
        data = json.loads(msg.encode())
        assert data == {"type": "set_inputs", "cycle": 3,
                        "values": {"move": 0, "position": 1}}

    def test_observation_roundtrip(self):
        raw = (b'{"type":"observation","cycle":2,"sys_time_ms":3000,'
               b'"outputs":{"heating":1},"state":{}}')
        msg = WireMessage.decode(raw)
        assert msg.type == "observation"
        assert msg.cycle == 2
        assert msg.payload["outputs"] == {"heating": 1}

    def test_bad_json_is_protocol_error(self):
        with pytest.raises(ProtocolError):
            WireMessage.decode(b"not json\n")

    def test_hello_schema(self, iron_ast):
        hello = hello_for_model(iron_ast, 1000)
        assert hello == {
            "type": "hello",
            "model": "iron",
            "inputs": ["move", "position"],
            "outputs": ["heating"],
            "state": [],
            "cycle_period_ms": 1000,
        }

    def test_handshake_mismatch(self, iron_ast):
        hello = hello_for_model(iron_ast, 1000)
        hello["outputs"] = ["boiler"]
        with pytest.raises(HandshakeMismatch):
            validate_hello(hello, iron_ast, 1000)

    def test_handshake_period_mismatch(self, iron_ast):
        hello = hello_for_model(iron_ast, 500)
        with pytest.raises(HandshakeMismatch) as exc:
            validate_hello(hello, iron_ast, 1000)
        assert str(exc.value) == "handshake cycle_period_ms mismatch: subject 500, model 1000"


class TestInProcessLink:
    def _link(self, iron_desk):
        sut = IronSut(DESK_DURATIONS_MS, 1000)
        return InProcessLink(iron_desk, sut, KernelConfig(cycle_period_ms=1000))

    def test_exchange_shape(self, iron_desk):
        link = self._link(iron_desk)
        obs = link.exchange({"move": 0, "position": 1})
        assert type(obs) is tuple
        cycle, sys_time_ms, outputs, state = obs
        assert cycle == 0
        assert sys_time_ms == 1000
        assert set(outputs) == {"heating"}
        assert state == {}

    def test_cycle_indices_increase_by_one(self, iron_desk):
        link = self._link(iron_desk)
        cycles = [link.exchange({"move": 0, "position": 0})[0] for _ in range(5)]
        assert cycles == [0, 1, 2, 3, 4]

    def test_mediators_bracket_the_subject(self, iron_desk):
        calls = []

        class RecordingSut:
            def step(self, inputs, sys_time_ms):
                calls.append(("step", dict(inputs)))
                return {"heating": inputs["move"]}

            def visible_state(self):
                calls.append(("read",))
                return {}

        link = InProcessLink(iron_desk, RecordingSut(), KernelConfig(cycle_period_ms=1000))
        for move in (1, 0):
            _, _, outputs, _ = link.exchange({"move": move, "position": 1})
            # the subject steps on this exchange's inputs, and the
            # observation is read after the step
            assert calls[-2:] == [("step", {"move": move, "position": 1}), ("read",)]
            assert outputs == {"heating": move}

    def test_subject_writing_its_inputs_is_still_caught(self, desk_extraction, iron_desk):
        # the subject steps on its own copy of the inputs: one that ignores
        # move, and writes that back, does not change what the oracle judges
        class Rewriting(IronSut):
            def step(self, inputs, sys_time_ms):
                inputs["move"] = 0
                return super().step(inputs, sys_time_ms)

        link = InProcessLink(iron_desk, Rewriting(DESK_DURATIONS_MS))
        spec = Specification(desk_extraction, link)
        kinds = [spec.apply_stimulus({"move": 1, "position": 1}).kind for _ in range(7)]
        # a moving iron heats; at rest upright for 5 s the subject cuts it
        assert kinds == [VerdictKind.PASS] * 5 + [VerdictKind.POSTCONDITION_FAILURE] * 2

    def test_link_and_kernel_form_no_reference_cycle(self, iron_desk):
        # freed by reference counting alone, a spent link takes its kernel's
        # cycle times with it at once
        gc.disable()
        try:
            link = self._link(iron_desk)
            for _ in range(3):
                link.exchange({"move": 0, "position": 1})
            refs = weakref.ref(link), weakref.ref(link.kernel)
            del link
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()


STATEFUL_SRC = """
model gauge {
  input tick: bool;
  output level_out: int 0..3;
  state level: int 0..3 readable = 0;
  state armed: bool hidden = 0;

  logic {
    if (tick) {
      level = 1;
      armed = 1;
      level_out = 1;
    } else {
      level_out = 0;
    }
  }
}
"""


class ScriptedLink(_StreamLink):
    """Stream link with canned responses instead of a real transport."""

    def __init__(self, model, lines):
        super().__init__(model, 1000, timeout_s=0.1)
        self.lines = list(lines)
        self.sent = []
        self._handshake()

    def _send(self, message):
        self.sent.append(json.loads(message.encode()))

    def _readline(self):
        return self.lines.pop(0) if self.lines else b""


# a held() literal over a state variable
HELD_STATE_SRC = """
model settle {
  input tick: bool;
  output level_out: int 0..3;
  state level: int 0..3 readable = 0;

  logic {
    if (held(level == 1, 2s)) {
      level = 0;
      level_out = 2;
    } else {
      if (tick) { level = 1; level_out = 1; } else { level_out = 0; }
    }
  }
}
"""

MISSING = object()  # a field left out of a message


def _hello_line(model):
    return (json.dumps(hello_for_model(model, 1000)) + "\n").encode()


class TestStreamProtocol:
    def test_handshake_mismatch_aborts_before_cycle_zero(self, iron_ast):
        wrong = hello_for_model(iron_ast, 1000)
        wrong["model"] = "kettle"
        with pytest.raises(HandshakeMismatch):
            ScriptedLink(iron_ast, [(json.dumps(wrong) + "\n").encode()])

    @staticmethod
    def _verdicts(extraction, observations) -> list:
        """The verdicts of one stimulus per observation, each sent as given
        after the hello, and the link's next cycle after the last."""
        model = extraction.model
        link = ScriptedLink(model, [_hello_line(model)] + [
            (json.dumps(dict({"type": "observation"}, **obs)) + "\n").encode()
            for obs in observations])
        spec = Specification(extraction, link)
        verdicts = [spec.apply_stimulus({"move": 0, "position": 0}) for _ in observations]
        return [(v.kind, v.detail, v.cycle_index) for v in verdicts], link.next_cycle

    def test_out_of_order_cycle(self, iron_extraction):
        obs = {"cycle": 2, "sys_time_ms": 1000, "outputs": {"heating": 1}, "state": {}}
        assert self._verdicts(iron_extraction, [obs]) == ([
            (VerdictKind.MEDIATOR_FAILURE, "observation for cycle 2 after set_inputs 0", 0)], 0)

    def test_disconnect_mid_cycle(self, iron_ast):
        link = ScriptedLink(iron_ast, [_hello_line(iron_ast)])
        with pytest.raises(Disconnect):
            link.exchange({"move": 0, "position": 0})

    def test_error_message_surfaces(self, iron_ast):
        err = {"type": "error", "message": "kaput"}
        link = ScriptedLink(iron_ast, [_hello_line(iron_ast),
                                       (json.dumps(err) + "\n").encode()])
        with pytest.raises(Exception, match="kaput"):
            link.exchange({"move": 0, "position": 0})

    def test_wrong_payload_keys(self, iron_extraction):
        obs = {"cycle": 0, "sys_time_ms": 1000, "outputs": {"boiler": 1}, "state": {}}
        assert self._verdicts(iron_extraction, [obs]) == ([
            (VerdictKind.MEDIATOR_FAILURE,
             "observation outputs {'boiler': 1} do not match the model", 0)], 0)

    @pytest.mark.parametrize("source, fields, reason", [
        pytest.param(None, {"outputs": {"heating": 1}}, "sys_time_ms None", id="no-time"),
        pytest.param(None, {"sys_time_ms": "1000", "outputs": {"heating": 1}},
                     "sys_time_ms '1000'", id="string-time"),
        pytest.param(None, {"sys_time_ms": 1000.5, "outputs": {"heating": 1}},
                     "sys_time_ms 1000.5", id="float-time"),
        pytest.param(None, {"sys_time_ms": 1000, "outputs": {"heating": "x"}}, "'heating' = 'x'",
                     id="string-output"),
        pytest.param(None, {"sys_time_ms": 1000, "outputs": {"heating": True}},
                     "'heating' = True", id="bool-output"),
        pytest.param(None, {"sys_time_ms": 1000, "outputs": ["heating"]},
                     r"outputs \['heating'\]", id="outputs-not-object"),
        pytest.param(None, {"sys_time_ms": 1000, "outputs": {"heating": 7}},
                     "outputs 'heating' = 7 is outside its domain", id="output-above-domain"),
        pytest.param(None, {"sys_time_ms": 1000, "outputs": {"heating": -1}},
                     "outputs 'heating' = -1 is outside its domain", id="output-below-domain"),
        pytest.param(STATEFUL_SRC, {"sys_time_ms": 1000, "outputs": {"level_out": 0},
                                    "state": {"level": 5}},
                     "state 'level' = 5 is outside its domain", id="state-outside-domain"),
        # equal to the expected cycle 0, but not an integer
        pytest.param(None, {"cycle": False, "sys_time_ms": 1000, "outputs": {"heating": 1}},
                     "observation cycle False is not an integer", id="bool-cycle"),
        pytest.param(None, {"cycle": 0.0, "sys_time_ms": 1000, "outputs": {"heating": 1}},
                     r"observation cycle 0\.0 is not an integer", id="float-cycle"),
        # a missing or non-object field is named as sent, not read as {}
        pytest.param(None, {"sys_time_ms": 1000}, "observation outputs None do not match",
                     id="no-outputs"),
        pytest.param(None, {"sys_time_ms": 1000, "outputs": {"heating": 1}, "state": MISSING},
                     "observation state None do not match the model", id="no-state"),
        pytest.param(None, {"sys_time_ms": 1000, "outputs": {"heating": 1}, "state": None},
                     "observation state None do not match the model", id="null-state"),
        pytest.param(None, {"sys_time_ms": 1000, "outputs": {"heating": 1}, "state": False},
                     "observation state False do not match the model", id="false-state"),
        pytest.param(None, {"sys_time_ms": 1000, "outputs": {"heating": 1}, "state": []},
                     r"observation state \[\] do not match the model", id="list-state"),
    ])
    def test_malformed_observation_is_mediator_failure(self, iron_extraction, source, fields,
                                                       reason):
        extraction = iron_extraction if source is None else extract_predicates(parse_model(source))
        model = extraction.model
        obs = dict({"type": "observation", "cycle": 0, "state": {}}, **fields)
        obs = {key: value for key, value in obs.items() if value is not MISSING}
        link = ScriptedLink(model, [_hello_line(model), (json.dumps(obs) + "\n").encode()])
        inputs = dict.fromkeys(model.input_names, 0)
        verdict = Specification(extraction, link).apply_stimulus(inputs)
        assert verdict.kind is VerdictKind.MEDIATOR_FAILURE
        assert re.search(reason, verdict.detail)
        assert "\n" not in verdict.detail

    def test_system_time_going_back_is_mediator_failure(self, iron_extraction):
        observations = [{"cycle": cycle, "sys_time_ms": sys_time_ms, "outputs": {"heating": 1},
                         "state": {}} for cycle, sys_time_ms in ((0, 2000), (1, 2000), (2, 1000))]
        # an unchanged time is allowed
        assert self._verdicts(iron_extraction, observations) == ([
            (VerdictKind.PASS, "", 0), (VerdictKind.PASS, "", 1),
            (VerdictKind.MEDIATOR_FAILURE, "system time went back from 2000 ms to 1000 ms", 2)],
            2)


class DictSubclass(dict):
    pass


class HandedLink(_StreamLink):
    """Stream link whose replies are the given messages, already decoded, so
    that their payloads may hold what no wire line decodes to."""

    def __init__(self, model, messages):
        super().__init__(model, 1000, timeout_s=0.1)
        self.messages = list(messages)

    def _send(self, message):
        pass

    def _recv(self):
        return self.messages.pop(0)


OBSERVED_MODELS = [pytest.param(None, id="iron"), pytest.param(STATEFUL_SRC, id="gauge"),
                   pytest.param(CLASH_SRC, id="clash"),
                   pytest.param(JUDGE_CLASH_SRC, id="judge")]


class TestObservationCheckAgainstReference:
    """The judge accepts exactly the observations that the reference check
    accepts, and words each rejection byte for byte the same, over a stream
    link and in process: a misfit is a mediator failure at the link's next
    cycle, which leaves the link and the specification where they were; an
    observation that fits is judged on plain dicts and advances both."""

    @staticmethod
    def _variants(names, domains) -> list:
        """A dict of each name at its domain's low end, the same in a dict
        subclass, and that dict with one fault each: a missing or an extra
        key, not a dict (a mapping proxy is not), or one value of the wrong
        type or just outside its domain; and a dict subclass with an extra
        key or with one value just outside its domain."""
        valid = {name: domains[name].start for name in names}
        variants = [valid, DictSubclass(valid), types.MappingProxyType(valid), [valid], None,
                    "x", {**valid, "extra": 0}, DictSubclass(valid, extra=0)]
        for name in names:
            domain = domains[name]
            variants.append({k: v for k, v in valid.items() if k != name})
            for bad in (True, "1", 1.0, None, domain.start - 1, domain.stop):
                variants.append({**valid, name: bad})
            variants.append(DictSubclass(valid, **{name: domain.stop}))
        return variants

    @staticmethod
    def _judge(spec, link, inputs, synchronized, want_or_error):
        """Apply ``inputs`` through ``link`` and compare the verdict with the
        reference's: its misfit, or the observation that the step taken
        afresh is synchronized to, with the types and identity of its parts."""
        next_cycle, last = link.next_cycle, spec.sys_time_ms
        spec.link, spec._steps = link, {}  # so that the step is taken afresh
        del synchronized[:]
        verdict = spec.apply_stimulus(inputs)
        if isinstance(want_or_error, ProtocolError):
            assert (verdict.kind, verdict.detail, verdict.cycle_index) == (
                VerdictKind.MEDIATOR_FAILURE, str(want_or_error), next_cycle)
            assert (link.next_cycle, spec.sys_time_ms, synchronized) == (next_cycle, last, [])
            return None
        assert verdict.kind is not VerdictKind.MEDIATOR_FAILURE
        [got] = synchronized
        assert got == want_or_error
        assert [type(v) for v in got] == [type(v) for v in want_or_error]
        assert (link.next_cycle, spec.sys_time_ms) == (next_cycle + 1, want_or_error[1])
        return got

    @staticmethod
    def _reference(model, next_cycle, last, *obs):
        try:
            return check_observation_reference(model, next_cycle, last, *obs)
        except ProtocolError as exc:
            return exc

    @pytest.mark.parametrize("source", OBSERVED_MODELS)
    def test_every_enumerated_observation(self, iron_extraction, synchronized, source):
        extraction = iron_extraction if source is None else extract_predicates(parse_model(source))
        model = extraction.model
        domains = model.domains
        cycles = [1, 0, 2, True, 1.0]
        times = [2000, "2000", 2000.0, None, 500, 1000]
        outputs = self._variants(model.output_names, domains)
        states = self._variants(model.readable_names, domains)
        inputs = {name: domains[name].start for name in model.input_names}
        spec = Specification(extraction, None)
        initial = spec.state
        accepted = rejected = 0
        for cycle, sys_time_ms, out, state in itertools.product(cycles, times, outputs, states):
            link = HandedLink(model, [WireMessage("observation", cycle, {
                "sys_time_ms": sys_time_ms, "outputs": out, "state": state})])
            link.next_cycle, spec.sys_time_ms, spec.state = 1, 1000, initial
            want = self._reference(model, 1, 1000, cycle, sys_time_ms, out, state)
            got = self._judge(spec, link, inputs, synchronized, want)
            if got is None:
                rejected += 1
                continue
            # the decoded dicts, uncopied, or, where one is a dict subclass,
            # plain copies
            assert type(got[2]) is dict and type(got[3]) is dict
            if type(out) is dict and type(state) is dict:
                assert got[2] is out and got[3] is state
            accepted += 1
        # the valid observation, as a dict or a dict subclass in each part,
        # at an advanced and at an unchanged time
        assert accepted == 2 * 2 * 2
        assert rejected == len(cycles) * len(times) * len(outputs) * len(states) - accepted

    @pytest.mark.parametrize("source", OBSERVED_MODELS)
    def test_every_in_process_observation(self, iron_extraction, synchronized, source):
        # the cycle and system time are the kernel's, checked as a stream's are
        extraction = iron_extraction if source is None else extract_predicates(parse_model(source))
        model = extraction.model
        domains = model.domains
        outputs = self._variants(model.output_names, domains)
        states = self._variants(model.readable_names, domains)
        inputs = {name: domains[name].start for name in model.input_names}
        spec = Specification(extraction, None)
        initial = spec.state
        accepted = rejected = 0
        for out, state in itertools.product(outputs, states):
            # a valid first cycle, so that the checked one has a previous time
            sut = ScriptedSut([(outputs[0], states[0]), (out, state)])
            link = InProcessLink(model, sut, KernelConfig(cycle_period_ms=1000))
            spec.sys_time_ms, spec.state = None, initial
            self._judge(spec, link, inputs, synchronized, (0, 1000, outputs[0], states[0]))
            want = self._reference(model, 1, 1000, 1, 2000, out, state)
            got = self._judge(spec, link, inputs, synchronized, want)
            assert link.kernel.cycles == 2
            if got is None:
                rejected += 1
                continue
            # the subject's own dicts, uncopied, or, where one is a dict subclass,
            # plain copies
            assert type(got[2]) is dict and type(got[3]) is dict
            if type(out) is dict and type(state) is dict:
                assert got[2] is out and got[3] is state
            accepted += 1
        # the valid observation, as a dict or a dict subclass in each part
        assert accepted == 2 * 2
        assert rejected == len(outputs) * len(states) - accepted


@pytest.fixture
def synchronized(monkeypatch) -> list:
    """The observation of each step taken afresh, as ``sync_state`` gets it."""
    seen = []
    real = mediator.sync_state
    monkeypatch.setattr(mediator, "sync_state", lambda pre, obs, *args: (
        seen.append(obs) or real(pre, obs, *args)))
    return seen


class ScriptedSut:
    """A subject that returns the given (outputs, visible state) pairs, one
    pair per cycle."""

    def __init__(self, replies):
        self._replies = iter(replies)
        self._state = None

    def step(self, inputs, sys_time_ms):
        outputs, self._state = next(self._replies)
        return outputs

    def visible_state(self):
        return self._state


class TestRaisingSubject:
    def test_panic_is_mediator_failure(self, desk_extraction, iron_desk):
        class Raising:
            def step(self, inputs, sys_time_ms):
                raise RuntimeError("actuator fault")

        spec = Specification(desk_extraction, InProcessLink(iron_desk, Raising()))
        verdict = spec.apply_stimulus({"move": 0, "position": 0})
        assert verdict.kind is VerdictKind.MEDIATOR_FAILURE
        assert verdict.detail == "subsystem 'iron' failed: actuator fault"

    def test_raising_visible_state_is_mediator_failure(self, desk_extraction, iron_desk):
        class Unreadable:
            def step(self, inputs, sys_time_ms):
                return {"heating": 1}

            def visible_state(self):
                raise RuntimeError("state bus fault")

        spec = Specification(desk_extraction, InProcessLink(iron_desk, Unreadable()))
        verdict = spec.apply_stimulus({"move": 0, "position": 0})
        assert verdict.kind is VerdictKind.MEDIATOR_FAILURE
        assert verdict.detail == "subsystem 'iron' failed: state bus fault"


class TestSyncState:
    def _state(self, table, model):
        return SpecificationState(
            values=tuple(model.initial_state().values()),
            holds=table.initial,
            flags=table.initial_flags,
        )

    def test_iron_only_predicates_updated(self, iron_extraction):
        # hold entries: !move, !position, position
        model = iron_extraction.model
        table = HoldTable(iron_extraction.predicates, model.initial_state())
        state = self._state(table, model)
        obs = (0, 1000, {"heating": 1}, {})  # as exchange returns it
        stepped = step_predicates(table, state, {"move": 0, "position": 0}, 0)
        new = sync_state(state, obs, {}, stepped)
        assert new.values == ()
        assert new.holds == (0, 0, None)
        assert new.flags == (0, 0, 0, 0)

    def test_hidden_var_from_model_post_readable_from_observation(self):
        ast = parse_model(STATEFUL_SRC)
        ex = extract_predicates(ast)
        table = HoldTable(ex.predicates, ex.model.initial_state())
        state = self._state(table, ex.model)
        obs = (0, 1000, {"level_out": 1}, {"level": 3})
        stepped = step_predicates(table, state, {"tick": 1}, 0)
        new = sync_state(state, obs, {"level": 1, "armed": 1}, stepped)
        assert new.values == (3, 1)  # level readable: observation wins; armed hidden: model value

    def test_missing_readable_var_rejected(self):
        # the link rejects the observation before the state is synchronized
        ex = extract_predicates(parse_model(STATEFUL_SRC))
        obs = {"type": "observation", "cycle": 0, "sys_time_ms": 1000,
               "outputs": {"level_out": 1}, "state": {}}
        link = ScriptedLink(ex.model, [_hello_line(ex.model), (json.dumps(obs) + "\n").encode()])
        spec = Specification(ex, link)
        verdict = spec.apply_stimulus({"tick": 1})
        assert verdict.kind is VerdictKind.MEDIATOR_FAILURE
        assert re.search(r"observation state \{\} do not match the model", verdict.detail)
        assert spec.state.values == (0, 0)  # level, armed

    @pytest.mark.parametrize("source", [None, HELD_STATE_SRC], ids=["iron", "held-state"])
    def test_step_equals_a_reference_step_over_state_and_inputs(self, desk_extraction, source):
        # the generated step reads each literal in the inputs or the state,
        # as the model declares its variable; the record and flags are those
        # of the reference's step over the state variables merged with the
        # inputs, whether or not a literal reads a state variable
        ex = desk_extraction if source is None else extract_predicates(parse_model(source))
        model = ex.model
        names = tuple(model.initial_state())
        table = HoldTable(ex.predicates, names)
        reference = ReferenceHoldTable(table, names)
        assert any(var in model.initial_state() for var, _, _ in reference.literals) is (
            source is not None)
        rng = random.Random(7)
        state = self._state(table, model)
        holds, values, inputs, fired = table.initial, state.values, {}, 0
        for cycle in range(200):
            # values that persist for a few cycles let the literals hold
            if cycle == 0 or rng.random() < 0.3:
                values = tuple(rng.choice(model.domains[name]) for name in names)
                inputs = {name: rng.choice(model.domains[name]) for name in model.input_names}
            state = SpecificationState(values, holds, state.flags)
            elapsed = 0 if cycle == 0 else 1000
            stepped = step_predicates(table, state, inputs, elapsed)
            assert stepped == reference.step(holds, inputs, values, elapsed)
            holds = stepped[0]
            state = SpecificationState(values, holds, stepped[1])
            fired += any(stepped[1])
        assert fired

    def test_predicates_step_at_observed_time(self, iron_extraction):
        # the hold advances by the system time elapsed since the last
        # observation, whatever the nominal period
        obs = {"type": "observation", "sys_time_ms": 100_000, "outputs": {"heating": 1},
               "state": {}}
        model = iron_extraction.model
        lines = [_hello_line(model)] + [
            (json.dumps(dict(obs, cycle=cycle, sys_time_ms=ms)) + "\n").encode()
            for cycle, ms in enumerate((100_000, 123_456))]
        spec = Specification(iron_extraction, ScriptedLink(model, lines))
        for _ in range(2):
            assert spec.apply_stimulus({"move": 0, "position": 1}).kind is VerdictKind.PASS
        assert spec.sys_time_ms == 123_456
        assert spec.state.holds == (23_456, None, 23_456)
        assert spec.state.flags == ReferenceHoldTable(spec.hold_table).flags(spec.state.holds)


class TestReadline:
    """``_StreamLink._readline`` over reads that ``os.read`` returns in
    given chunks, from a pipe that is always readable."""

    OBSERVATION = (b'{"type": "observation", "cycle": 0, "sys_time_ms": 1000, '
                   b'"outputs": {"heating": 1}, "state": {}}\n')
    SHUTDOWN = b'{"type": "shutdown"}\n'

    @pytest.fixture
    def read_chunks(self, iron_desk, monkeypatch):
        """The lines ``_readline`` returns, until end of stream, when each
        read gets the next of ``chunks``."""
        readable, writable = os.pipe()
        os.write(writable, b"x")
        link = _StreamLink(iron_desk, 1000, timeout_s=1.0)
        link._fd = readable

        def read_chunks(chunks):
            queue = list(chunks)
            monkeypatch.setattr(mediator.os, "read", lambda fd, n: queue.pop(0) if queue else b"")
            lines = []
            while True:
                line = link._readline()
                if not line:
                    return lines
                lines.append(line)

        read_chunks.link = link
        yield read_chunks
        monkeypatch.undo()
        os.close(readable)
        os.close(writable)

    def test_two_lines_split_at_every_offset(self, read_chunks):
        stream = self.OBSERVATION + self.SHUTDOWN
        for at in range(len(stream)):  # at 0, the whole stream in one read
            chunks = [part for part in (stream[:at], stream[at:]) if part]
            assert read_chunks(chunks) == [self.OBSERVATION, self.SHUTDOWN], at

    def test_one_byte_per_read(self, read_chunks):
        stream = self.OBSERVATION + self.SHUTDOWN
        assert read_chunks([stream[i:i + 1] for i in range(len(stream))]) == [
            self.OBSERVATION, self.SHUTDOWN]

    def test_a_line_cut_off_by_the_end_of_stream(self, read_chunks):
        partial = self.OBSERVATION[:-9]
        for at in range(1, len(partial)):
            assert read_chunks([partial[:at], partial[at:]]) == [partial], at
        assert read_chunks([self.SHUTDOWN + partial]) == [self.SHUTDOWN, partial]

    def test_a_line_longer_than_the_cap(self, read_chunks):
        link = read_chunks.link
        assert link.line_cap > 1 << 20  # the fuzzer's 200 KB lines keep their own reason
        link.line_cap = cap = len(self.OBSERVATION) - 1  # the line, less its newline
        assert read_chunks([self.OBSERVATION[:9], self.OBSERVATION[9:]]) == [self.OBSERVATION]
        link.line_cap = cap - 1
        with pytest.raises(ProtocolError, match="^line longer than %d bytes$" % (cap - 1)):
            read_chunks([self.OBSERVATION])
        # with no newline, no read past the first that takes the line over the cap
        link._pending.clear()
        link.line_cap = 25
        with pytest.raises(ProtocolError, match="^line longer than 25 bytes$"):
            read_chunks([b"x" * 10] * 100)
        assert len(link._pending) == 30


class TestStdioTransport:
    def test_silent_subject_times_out(self, iron_desk):
        from cyclotest.mediator import ExchangeTimeout, StdioLink

        with pytest.raises(ExchangeTimeout):
            StdioLink(iron_desk, [sys.executable, "-c", "import time; time.sleep(30)"], 1000,
                      timeout_s=0.3)

    def test_pipes_closed_after_close_and_failed_handshake(self, iron_desk, monkeypatch):
        import subprocess

        from cyclotest.mediator import ExchangeTimeout, StdioLink

        children = []

        def popen(*args, **kwargs):
            children.append(real_popen(*args, **kwargs))
            return children[-1]

        real_popen = subprocess.Popen
        monkeypatch.setattr(subprocess, "Popen", popen)
        with pytest.raises(ExchangeTimeout):
            StdioLink(iron_desk, [sys.executable, "-c", "import time; time.sleep(30)"], 1000,
                      timeout_s=0.3)
        StdioLink(iron_desk, [sys.executable, "-m", "cyclotest.iron_sut"], 1000,
                  timeout_s=10.0).close()
        assert len(children) == 2
        for child in children:
            assert child.stdin.closed and child.stdout.closed
            assert child.returncode is not None

    def test_a_subject_blocked_writing_is_not_waited_for(self, iron_desk):
        from cyclotest.mediator import StdioLink

        # after its hello the subject writes without end, reading nothing
        script = "import sys\nsys.stdout.write(%r)\nwhile True: sys.stdout.write('x' * 65536)" % (
            _hello_line(iron_desk).decode())
        link = StdioLink(iron_desk, [sys.executable, "-c", script], 1000, timeout_s=30.0)
        started = time.monotonic()
        link.close()
        assert time.monotonic() - started < 10  # closing its stdout breaks its pipe
        assert link.proc.returncode is not None

    def test_a_sleeping_subject_is_killed_after_the_grace(self, iron_desk):
        from cyclotest.mediator import StdioLink

        # after its hello the subject sleeps, reading and writing nothing, so
        # closing its pipes does not end it; the link's timeout does not
        # bound the wait, the exit grace does
        script = "import sys, time\nsys.stdout.write(%r)\nsys.stdout.flush()\ntime.sleep(30)" % (
            _hello_line(iron_desk).decode())
        link = StdioLink(iron_desk, [sys.executable, "-c", script], 1000, timeout_s=30.0)
        started = time.monotonic()
        link.close()
        assert time.monotonic() - started < StdioLink.EXIT_GRACE_S + 5
        assert link.proc.returncode == -signal.SIGKILL

    def test_lines_split_across_writes_are_reassembled(self, iron_desk):
        from cyclotest.mediator import StdioLink

        # the hello and the observation each arrive in two writes, 50 ms apart
        script = "\n".join([
            "import json, sys, time",
            "def halves(data):",
            "    line = json.dumps(data) + '\\n'",
            "    for part in (line[:9], line[9:]):",
            "        sys.stdout.write(part); sys.stdout.flush(); time.sleep(0.05)",
            "halves({'type': 'hello', 'model': 'iron', 'inputs': ['move', 'position'],",
            "        'outputs': ['heating'], 'state': [], 'cycle_period_ms': 1000})",
            "sys.stdin.readline()",
            "halves({'type': 'observation', 'cycle': 0, 'sys_time_ms': 1000,",
            "        'outputs': {'heating': 1}, 'state': {}})",
            "sys.stdin.readline()",
        ])
        link = StdioLink(iron_desk, [sys.executable, "-c", script], 1000, timeout_s=10.0)
        try:
            obs = link.exchange({"move": 0, "position": 0})
            assert obs == (0, 1000, {"heating": 1}, {})
        finally:
            link.close()

    def test_short_session_against_real_subject(self, iron_desk):
        from cyclotest.mediator import StdioLink

        link = StdioLink(
            iron_desk,
            [sys.executable, "-m", "cyclotest.iron_sut", "--durations", "3000,5000"],
            1000,
            timeout_s=10.0,
        )
        try:
            # the link only carries: the test advances it, as the judge does
            cycle, _, outputs, _ = link.exchange({"move": 0, "position": 0})
            assert cycle == 0 and outputs == {"heating": 1}
            for _ in range(3):
                link.next_cycle += 1
                cycle, _, outputs, _ = link.exchange({"move": 0, "position": 0})
            assert cycle == 3
            assert outputs == {"heating": 0}  # short condition fires at 3 cycles
        finally:
            link.close()
