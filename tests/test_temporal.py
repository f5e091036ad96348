import random

import pytest

from cyclotest.dsl import TemporalPredicateDecl
from cyclotest.temporal import HoldTable, TimeRegression
from oracles import WindowOracle

MOVE_60 = TemporalPredicateDecl("move_eq_f_t1", "move", 0, 60_000)
MOVE = HoldTable([MOVE_60])
STILL, MOVING = {"move": 0}, {"move": 1}


class TestStepPredicate:
    def test_idle_stays_idle(self):
        assert MOVE.step(MOVE.initial, MOVING, 0) == (None,)

    def test_fresh_hold_latches_start_time(self):
        assert MOVE.step(MOVE.initial, STILL, 5000) == (0,)

    def test_persisting_hold_keeps_start_time(self):
        assert MOVE.step((0,), STILL, 1000) == (1000,)

    def test_break_resets(self):
        assert MOVE.step((1000,), MOVING, 1000) == (None,)

    def test_time_regression_rejected(self):
        with pytest.raises(TimeRegression):
            MOVE.step((0,), STILL, -1000)

    def test_hold_caps_at_longest_duration(self):
        assert MOVE.step((59_500,), STILL, 1000) == (60_000,)
        assert HoldTable([MOVE_60], strict=True).step((59_500,), STILL, 1000) == (60_001,)

    def test_predicates_sharing_a_literal_share_an_entry(self, iron_extraction):
        # four predicates over three literals: !move, !position, position
        table = HoldTable(iron_extraction.predicates)
        assert len(table.initial) == 3
        assert table.step(table.initial, {"move": 0, "position": 1}, 0) == (0, None, 0)


class TestIsSatisfied:
    def test_boundary_values_match_step_simulation(self):
        # hold !move from sys_time 0 at a 1 s period; the window oracle gives
        # the reference satisfaction per cycle
        oracle = WindowOracle([MOVE_60], 1000)
        record = MOVE.initial
        for cycle in range(65):
            record = MOVE.step(record, STILL, 0 if cycle == 0 else 1000)
            expected = oracle.step(STILL)["move_eq_f_t1"]
            assert MOVE.flags(record)["move_eq_f_t1"] == expected
        assert record == (60_000,)

    def test_inclusive_threshold(self):
        assert MOVE.flags((60_000,)) == {"move_eq_f_t1": True}
        assert MOVE.flags((59_999,)) == {"move_eq_f_t1": False}

    def test_strict_variant(self):
        strict = HoldTable([MOVE_60], strict=True)
        assert strict.flags((60_000,)) == {"move_eq_f_t1": False}
        assert strict.flags(strict.step((60_000,), STILL, 1000)) == {"move_eq_f_t1": True}

    def test_absent_never_satisfied(self):
        assert MOVE.flags((None,)) == {"move_eq_f_t1": False}


class TestTimeFlags:
    def _run(self, extraction, seq, period=1000):
        table = HoldTable(extraction.predicates)
        record = table.initial
        for i, inputs in enumerate(seq):
            record = table.step(record, inputs, period if i else 0)
        return table.flags(record)

    def test_first_cycle_all_false(self, iron_extraction):
        flags = self._run(iron_extraction, [{"move": 0, "position": 0}])
        assert flags == {pid: False for pid in flags}

    def test_long_hold_vertical(self, iron_extraction):
        # !move and position held for 900 cycles at 1 s
        seq = [{"move": 0, "position": 1}] * 901
        flags = self._run(iron_extraction, seq)
        assert flags == {
            "move_eq_f_t1": True,
            "move_eq_f_t2": True,
            "position_eq_f_t1": False,
            "position_eq_t_t2": True,
        }

    def test_move_breaks_move_flags(self, iron_extraction):
        seq = [{"move": 0, "position": 0}] * 100 + [{"move": 1, "position": 0}]
        flags = self._run(iron_extraction, seq)
        assert flags["move_eq_f_t1"] is False
        assert flags["move_eq_f_t2"] is False
        assert flags["position_eq_f_t1"] is True

    def test_flag_keys_exactly_the_predicates(self, iron_extraction):
        flags = self._run(iron_extraction, [{"move": 1, "position": 1}])
        assert set(flags) == {p.id for p in iron_extraction.predicates}

    def test_records_with_equal_flags_share_one_vector(self, iron_extraction):
        table = HoldTable(iron_extraction.predicates)
        # neither literal of move has held long enough in either record
        first = table.flags(table.step(table.initial, {"move": 0, "position": 1}, 0))
        second = table.flags((5000, None, 5000))
        assert first is second
        assert first == dict.fromkeys(table.predicate_ids, False)


class TestProperties:
    def test_monotone_single_flip_and_reset(self, desk_extraction):
        rng = random.Random(77)
        for _ in range(300):
            seq = [
                {"move": rng.randint(0, 1), "position": rng.randint(0, 1)}
                for _ in range(rng.randint(1, 40))
            ]
            table = HoldTable(desk_extraction.predicates)
            record = table.initial
            oracle = WindowOracle(desk_extraction.predicates, 1000)
            history = {p.id: [] for p in desk_extraction.predicates}
            for i, inputs in enumerate(seq):
                record = table.step(record, inputs, 1000 if i else 0)
                flags = table.flags(record)
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
            table = HoldTable(desk_extraction.predicates)
            record = table.initial
            for inputs in seq:
                record = table.step(record, inputs, 1000)
                flags = table.flags(record)
                if flags["move_eq_f_t2"]:
                    assert flags["move_eq_f_t1"]
