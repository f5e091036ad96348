import itertools
import random
import types
from pathlib import Path

import pytest
from conftest import MODEL_PATH

from cyclotest import cli, interp, temporal
from cyclotest.contracts import Specification, VerdictKind
from cyclotest.dsl import TemporalPredicateDecl, extract_predicates, parse_model
from cyclotest.iron import FULL_DURATIONS_MS, IronSut
from cyclotest.kernel import KernelConfig
from cyclotest.mediator import InProcessLink, MediatorLink
from cyclotest.temporal import HoldTable
from oracles import ReferenceHoldTable, WindowOracle
from test_reduction import _model_sources

MOVE_60 = TemporalPredicateDecl("move_eq_f_t1", "move", 0, 60_000)
MOVE = HoldTable([MOVE_60], ())
STILL, MOVING = {"move": 0}, {"move": 1}

# a model of no predicates, the text of one that test_coverage runs, so the
# models that _model_sources() sweeps stay as they were
PLAIN_SRC = ("model other { input a: bool; output o: bool; "
             "logic { if (a) { o = 1; } else { o = 0; } } }")


class PlainSut:
    def step(self, inputs, sys_time_ms):
        return {"o": inputs["a"]}


class RewoundLink(MediatorLink):
    """Answers each cycle as ``link`` does, but at the system time that
    ``times`` gives for it, which may go back."""

    def __init__(self, link, times):
        super().__init__(link.model)
        self.link, self.times = link, times

    def exchange(self, inputs):
        cycle, _, outputs, state = self.link.exchange(inputs)
        return cycle, self.times[cycle], outputs, state


def _rewound_spec(extraction, sut, times) -> Specification:
    link = InProcessLink(extraction.model, sut, KernelConfig())
    return Specification(extraction, RewoundLink(link, times))


class TestStepPredicate:
    def test_idle_stays_idle(self):
        assert MOVE.step(MOVE.initial, MOVING, (), 0)[0] == (None,)

    def test_fresh_hold_latches_start_time(self):
        assert MOVE.step(MOVE.initial, STILL, (), 5000)[0] == (0,)

    def test_persisting_hold_keeps_start_time(self):
        assert MOVE.step((0,), STILL, (), 1000)[0] == (1000,)

    def test_break_resets(self):
        assert MOVE.step((1000,), MOVING, (), 1000)[0] == (None,)

    def test_time_regression_rejected(self, iron_extraction):
        # the judge refuses a system time that goes back before it steps the
        # hold record, which keeps the record of the last cycle that fitted
        spec = _rewound_spec(iron_extraction, IronSut(FULL_DURATIONS_MS, 1000), (1000, 2000, 1000))
        inputs = {"move": 0, "position": 0}
        assert [spec.apply_stimulus(inputs).kind for _ in range(2)] == [VerdictKind.PASS] * 2
        before = spec.state
        verdict = spec.apply_stimulus(inputs)
        assert (verdict.kind, verdict.detail) == (
            VerdictKind.MEDIATOR_FAILURE, "system time went back from 2000 ms to 1000 ms")
        assert spec.state is before and spec.sys_time_ms == 2000
        assert before.holds == (1000, 1000, None)  # !move, !position, position

    def test_hold_caps_at_longest_duration(self):
        assert MOVE.step((59_500,), STILL, (), 1000)[0] == (60_000,)
        strict = HoldTable([MOVE_60], (), strict=True)
        assert strict.step((59_500,), STILL, (), 1000)[0] == (60_001,)

    def test_predicates_sharing_a_literal_share_an_entry(self, iron_extraction):
        # four predicates over three literals: !move, !position, position
        table = HoldTable(iron_extraction.predicates, ())
        assert len(table.initial) == 3
        assert table.step(table.initial, {"move": 0, "position": 1}, (), 0)[0] == (0, None, 0)

    def test_a_literal_reads_the_inputs_or_the_state_as_the_model_declares(self):
        # each name is given a breaking value where it must not be read, and
        # the state its values by position: level is the second variable
        level = TemporalPredicateDecl("level_eq_t_t1", "level", 1, 1000)
        table = HoldTable([MOVE_60, level], ("move", "level"))
        stepped, _ = table.step(table.initial, {"move": 0, "level": 0}, (0, 1), 0)
        assert stepped == (0, 0)


class TestIsSatisfied:
    def test_boundary_values_match_step_simulation(self):
        # hold !move from sys_time 0 at a 1 s period; the window oracle gives
        # the reference satisfaction per cycle
        oracle = WindowOracle([MOVE_60], 1000)
        record = MOVE.initial
        for cycle in range(65):
            record, flags = MOVE.step(record, STILL, (), 0 if cycle == 0 else 1000)
            expected = oracle.step(STILL)["move_eq_f_t1"]
            assert flags == (int(expected),)
        assert record == (60_000,)

    def test_inclusive_threshold(self):
        assert MOVE.step((59_000,), STILL, (), 1000) == ((60_000,), (1,))
        assert MOVE.step((58_999,), STILL, (), 1000) == ((59_999,), (0,))

    def test_strict_variant(self):
        strict = HoldTable([MOVE_60], (), strict=True)
        assert strict.step((59_000,), STILL, (), 1000) == ((60_000,), (0,))
        assert strict.step((60_000,), STILL, (), 1000) == ((60_001,), (1,))

    def test_absent_never_satisfied(self):
        assert MOVE.initial_flags == (0,)
        assert MOVE.step((60_000,), MOVING, (), 1000) == ((None,), (0,))


class TestTimeFlags:
    def _run(self, extraction, seq, period=1000):
        """The flags after ``seq``, by predicate id."""
        table = HoldTable(extraction.predicates, ())
        record = table.initial
        for i, inputs in enumerate(seq):
            record, flags = table.step(record, inputs, (), period if i else 0)
        assert len(flags) == len(table.predicate_ids)
        return dict(zip(table.predicate_ids, flags))

    def test_first_cycle_all_false(self, iron_extraction):
        flags = self._run(iron_extraction, [{"move": 0, "position": 0}])
        assert flags == {pid: 0 for pid in flags}

    def test_long_hold_vertical(self, iron_extraction):
        # !move and position held for 900 cycles at 1 s
        seq = [{"move": 0, "position": 1}] * 901
        flags = self._run(iron_extraction, seq)
        assert flags == {
            "move_eq_f_t1": 1,
            "move_eq_f_t2": 1,
            "position_eq_f_t1": 0,
            "position_eq_t_t2": 1,
        }

    def test_move_breaks_move_flags(self, iron_extraction):
        seq = [{"move": 0, "position": 0}] * 100 + [{"move": 1, "position": 0}]
        flags = self._run(iron_extraction, seq)
        assert flags["move_eq_f_t1"] == 0
        assert flags["move_eq_f_t2"] == 0
        assert flags["position_eq_f_t1"] == 1

    def test_flag_keys_exactly_the_predicates(self, iron_extraction):
        flags = self._run(iron_extraction, [{"move": 1, "position": 1}])
        assert list(flags) == [p.id for p in iron_extraction.predicates]

    def test_records_with_equal_flags_give_equal_tuples(self, iron_extraction):
        table = HoldTable(iron_extraction.predicates, ())
        reference = ReferenceHoldTable(table)
        # neither literal of move has held long enough in either record
        inputs = {"move": 0, "position": 1}
        _, first = table.step(table.initial, inputs, (), 0)
        record, second = table.step((4000, None, 4000), inputs, (), 1000)
        assert record == (5000, None, 5000)
        assert first == second == reference.flags(table.initial) == reference.flags(record)
        assert first == (0,) * len(table.predicate_ids)


class TestProperties:
    def test_monotone_single_flip_and_reset(self, desk_extraction):
        rng = random.Random(77)
        for _ in range(300):
            seq = [
                {"move": rng.randint(0, 1), "position": rng.randint(0, 1)}
                for _ in range(rng.randint(1, 40))
            ]
            table = HoldTable(desk_extraction.predicates, ())
            record = table.initial
            oracle = WindowOracle(desk_extraction.predicates, 1000)
            history = {p.id: [] for p in desk_extraction.predicates}
            for i, inputs in enumerate(seq):
                record, flags = table.step(record, inputs, (), 1000 if i else 0)
                flags = dict(zip(table.predicate_ids, map(bool, flags)))
                assert flags == oracle.step(inputs)
                for pid, value in flags.items():
                    history[pid].append(value)
            for p in desk_extraction.predicates:
                holds = [int(s[p.var]) == p.expected for s in seq]
                flips = history[p.id]
                for i, flag in enumerate(flips):
                    if flag and i > 0:
                        # within one uninterrupted hold, satisfaction never drops
                        if holds[i] and flips[i - 1] and holds[i - 1]:
                            assert flips[i - 1] is True
                    if not holds[i]:
                        assert flips[i] is False  # reset is immediate

    def test_implication_lattice(self, desk_extraction):
        # same literal at a longer duration implies the shorter one
        rng = random.Random(88)
        short = next(p for p in desk_extraction.predicates if p.id == "move_eq_f_t1")
        long_ = next(p for p in desk_extraction.predicates if p.id == "move_eq_f_t2")
        assert short.var == long_.var and short.expected == long_.expected
        assert short.duration_ms <= long_.duration_ms
        for _ in range(200):
            seq = [{"move": rng.randint(0, 1), "position": 0} for _ in range(rng.randint(1, 30))]
            table = HoldTable(desk_extraction.predicates, ())
            record = table.initial
            for inputs in seq:
                record, flags = table.step(record, inputs, (), 1000)
                flags = dict(zip(table.predicate_ids, flags))
                if flags["move_eq_f_t2"]:
                    assert flags["move_eq_f_t1"]


# literals on the names of the generated step: its parameters, locals and
# globals, and Python's None, split over two models, a readable state
# variable in one and a hidden one in the other; at 1 ms, each literal has
# few boundary entries, which keeps the product of each model's small
NAMES_SRC = """\
model names {
  input record: bool;
  input inputs: bool;
  input elapsed_ms: bool;
  input h0: bool;
  input None: bool;
  output o: int 0..1;
  state TimeRegression: bool readable = 0;

  logic {
    if (held(record && inputs, 1ms) || held(elapsed_ms && !h0, 1ms)) {
      o = 1;
      TimeRegression = None;
    } else {
      if (held(None && TimeRegression, 1ms)) { o = 1; } else { o = 0; }
    }
  }
}
"""

FLAG_NAMES_SRC = """\
model flagnames {
  input bits: bool;
  input vector: bool;
  input vectors: bool;
  input ids: bool;
  output o: int 0..1;
  state record: bool hidden = 0;

  logic {
    if (held(bits && !vector, 1ms) || held(vectors && record, 1ms)) {
      o = 1;
      record = ids;
    } else {
      if (held(ids, 1ms)) { o = 1; record = bits; } else { o = 0; }
    }
  }
}
"""


def _generated_models():
    """Every model of ``_model_sources()`` (iron, tank, NAMES_SRC and
    FLAG_NAMES_SRC among them), wide20_state and a table of no predicates."""
    return _model_sources() + [
        pytest.param((Path(__file__).parent / "models" / "wide20_state.ctl").read_text(),
                     id="wide20_state"),
        pytest.param(None, id="no-predicates"),
    ]


class TestGeneratedHoldTable:
    """The generated step against the comprehensions of ``oracles``: every
    record built from each literal's boundary entries, every value of the
    variables the literals read, split into inputs and state as the model
    declares them, and every elapsed time about a period and each cap, under
    both semantics."""

    @pytest.mark.parametrize("strict", [False, True], ids=["inclusive", "strict"])
    @pytest.mark.parametrize("source", _generated_models())
    def test_every_boundary_record(self, source, strict):
        model, predicates, initial = None, [], {}
        if source is not None:
            extraction = extract_predicates(parse_model(source))
            model, predicates = extraction.model, extraction.predicates
            initial = model.initial_state()
        table = HoldTable(predicates, tuple(initial), strict)
        reference = ReferenceHoldTable(table, tuple(initial))
        literals, thresholds = reference.literals, reference.thresholds
        entries = []  # per literal: None, 0, 1, and one below and at each need and its cap
        for i, (_, _, cap) in enumerate(literals):
            needs = [n for j, n in thresholds if j == i]
            values = {0, 1, cap - 1, cap, *needs, *(n - 1 for n in needs)}
            entries.append([None] + sorted(v for v in values if v >= 0))
        variables = sorted({var for var, _, _ in literals})
        parts = []  # each valuation of the variables, as (inputs, state values)
        for values in itertools.product(*(model.domains[var] for var in variables)):
            env = dict(zip(variables, values))
            parts.append(({k: v for k, v in env.items() if k not in initial},
                          tuple(env.get(k, v) for k, v in initial.items())))
        caps = {cap for _, _, cap in literals}
        elapsed = sorted({0, 1, 1000} | caps | {cap + 1 for cap in caps})
        cycles = list(itertools.product(parts, elapsed))
        vectors = set()  # every flags tuple the step gave
        for record in itertools.product(*entries):
            # a tuple's == keeps None apart from 0
            got = [table.step(record, inputs, state, ms) for (inputs, state), ms in cycles]
            assert got == [reference.step(record, inputs, state, ms)
                           for (inputs, state), ms in cycles]
            vectors.update(flags for _, flags in got)
        # and a flag is the int 0 or 1, not a bool equal to one
        assert all(type(bit) is int and bit in (0, 1) for flags in vectors for bit in flags)
        assert isinstance(vars(table)["step"], types.FunctionType)

    @pytest.mark.parametrize("source", [MODEL_PATH, None], ids=["iron", "no-predicates"])
    def test_time_regression(self, source):
        # the generated step is never given a negative elapsed time: the
        # judge refuses the observation first
        if source is None:
            extraction = extract_predicates(parse_model(PLAIN_SRC))
            sut, inputs = PlainSut(), {"a": 1}
        else:
            extraction = extract_predicates(parse_model(Path(source).read_text()))
            sut, inputs = IronSut(FULL_DURATIONS_MS, 1000), {"move": 0, "position": 0}
        for ms in (1, 1000):
            spec = _rewound_spec(extraction, sut, (1000, 2000, 2000 - ms))
            table, elapsed = spec.hold_table, []
            step = table.step

            def recorded(record, inputs, state, elapsed_ms):
                elapsed.append(elapsed_ms)
                return step(record, inputs, state, elapsed_ms)
            table.step = recorded
            verdicts = [spec.apply_stimulus(inputs) for _ in range(3)]
            assert [(v.kind, v.detail) for v in verdicts] == [(VerdictKind.PASS, "")] * 2 + [
                (VerdictKind.MEDIATOR_FAILURE,
                 "system time went back from 2000 ms to %d ms" % (2000 - ms))]
            assert elapsed == [0, 1000]

    def test_first_cycle_flags_equal_the_initial_flags(self, iron_extraction):
        table = HoldTable(iron_extraction.predicates, ())
        reference = ReferenceHoldTable(table)
        initial = table.initial_flags
        assert initial == reference.flags(table.initial) == (0,) * len(table.predicate_ids)
        for inputs in ({"move": 1, "position": 1}, {"move": 0, "position": 0}):
            assert table.step(table.initial, inputs, (), 0) == reference.step(
                table.initial, inputs, (), 0)
            assert table.step(table.initial, inputs, (), 0)[1] == initial


class TestCompileGuard:
    @pytest.fixture
    def compiles(self, monkeypatch) -> list:
        """The name of each function that ``temporal`` or ``interp`` compiles."""
        compiled = []
        for module in (temporal, interp):
            def counted(lines, name, filename, namespace, compile_function=module.compile_function):
                compiled.append(name)
                return compile_function(lines, name, filename, namespace)
            monkeypatch.setattr(module, "compile_function", counted)
        return compiled

    def test_set_up_compiles_nothing(self, compiles):
        config = cli.RunConfig(model_path=MODEL_PATH)
        extraction = cli.load_model(config)
        link = InProcessLink(extraction.model, IronSut(FULL_DURATIONS_MS, 1000), KernelConfig())
        spec = Specification(extraction, link)
        table = spec.hold_table
        assert spec.state.flags is table.initial_flags
        assert table.initial_flags == (0,) * len(table.predicate_ids)
        assert compiles == []
        assert "step" not in vars(table)

    def test_compiled_on_first_step_only(self, compiles, iron_extraction):
        table = HoldTable(iron_extraction.predicates, ())
        record, _ = table.step(table.initial, {"move": 0, "position": 1}, (), 0)
        assert compiles == ["step"]
        step = vars(table)["step"]
        assert step.__module__ == "cyclotest.temporal"
        table.step(record, {"move": 0, "position": 1}, (), 1000)
        assert compiles == ["step"]
        assert vars(table)["step"] is step

    def test_first_step_from_another_record_compiles(self, compiles, iron_extraction):
        table = HoldTable(iron_extraction.predicates, ())
        inputs = {"move": 0, "position": 1}
        assert (table.step((0, None, 59_000), inputs, (), 1000)
                == ReferenceHoldTable(table).step((0, None, 59_000), inputs, (), 1000))
        assert compiles == ["step"]
