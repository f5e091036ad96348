from dataclasses import replace

import pytest
from conftest import desk_config

from cyclotest.cli import run_campaign
from cyclotest.contracts import Specification, VerdictKind
from cyclotest.dsl import extract_predicates, parse_model
from cyclotest.reduction import make_piecemeal
from cyclotest.scenarios import build_coverage_scenario

# the slowest of two holds lasts a given number of ms
HOLD_SRC = """\
model hold {
  input a: bool;
  input b: bool;
  output o: bool;
  logic { if (held(a == 1, %dms) && held(b == 1, 500ms)) { o = 1; } else { o = 0; } }
}
"""

# inputs declared out of alphabetical order: a label follows the declaration,
# a valuation and its stimuli follow the sorted names
ZA_SRC = """\
model za {
  input z: bool;
  input a: int 0..2;
  output o: bool;
  logic { if (z) { if (held(a == 2, 2s)) { o = 1; } else { o = 0; } } else { o = 0; } }
}
"""


def _settle_length(spec) -> int:
    """The stimuli of one settle action of the scenario built for ``spec``."""
    return len(build_coverage_scenario(spec).actions()[0].stimuli())


class TestSaturation:
    def test_desk_scale_needs_six_cycles(self, desk_extraction):
        assert _settle_length(Specification(desk_extraction, None)) == 6

    def test_full_scale_needs_901(self, iron_extraction):
        assert _settle_length(Specification(iron_extraction, None)) == 901

    @pytest.mark.parametrize("strict", [False, True], ids=["inclusive", "strict"])
    @pytest.mark.parametrize("period", [250, 300, 700, 1000])
    def test_equals_the_cycles_a_hold_takes_to_saturate(self, period, strict):
        # the specification's own hold table stepped one period a cycle on
        # held inputs, from the record where no literal holds, until the
        # record stops changing
        for duration in (699, 700, 1000, 1399, 1500, 2000, 2100, 3000, 3400, 5000):
            extraction = replace(extract_predicates(parse_model(HOLD_SRC % duration)),
                                 cycle_period_ms=period, strict_held=strict)
            spec = Specification(extraction, None)
            table = spec.hold_table
            record, cycles = table.initial, 0
            while True:
                following, flags = table.step(record, {"a": 1, "b": 1}, {}, period)
                if following == record:
                    break
                record, cycles = following, cycles + 1
            assert all(flags.values())
            assert _settle_length(spec) == cycles, duration


class TestFullScenario:
    def test_action_labels_carry_valuations(self, correct_run):
        labels = {e.action for e in correct_run.log.entries}
        assert "settle(move=0, position=1)" in labels
        assert "probe(move=1, position=0)" in labels
        assert len(labels) == 8

    def test_abstract_automaton_shape(self, correct_run):
        assert sorted(correct_run.automaton.states) == [
            (0, 1, 0, 1), (0, 1, 1, 0), (1, 0, 0, 1)
        ]
        # every action applied in every state, recorded once each
        assert len(correct_run.automaton.transitions) == 24
        assert not correct_run.automaton.pending_states()

    def test_initial_state_is_the_idle_vector(self, correct_run):
        assert correct_run.automaton.initial == (0, 1, 0, 1)


class TestActionTable:
    def test_settle_then_probe_over_the_product(self):
        extraction = extract_predicates(parse_model(ZA_SRC))
        scenario = build_coverage_scenario(Specification(extraction, None))
        table = scenario.actions()
        assert [a.label for a in table] == [
            "%s(z=%d, a=%d)" % (family, z, a)
            for family in ("settle", "probe") for z in (0, 1) for a in (0, 1, 2)]
        settle, probe = table[1], table[6]
        assert settle.valuation == (("a", 1), ("z", 0))
        assert [list(s.items()) for s in settle.stimuli()] == [[("a", 1), ("z", 0)]] * 3
        assert [list(s.items()) for s in probe.stimuli()] == (
            [[("a", 0), ("z", 0)]] + [[("z", 1), ("a", 2)]] * 3)

    def test_part_pins_its_inputs_first(self):
        extraction = extract_predicates(parse_model(ZA_SRC))
        part, = make_piecemeal(extraction.source, ["t"])
        table = build_coverage_scenario(Specification(extraction, None), part).actions()
        assert [a.label for a in table] == [
            "%s(a=%d)" % (family, a) for family in ("settle", "probe") for a in (0, 1, 2)]
        assert [list(s.items()) for s in table[3].stimuli()] == (
            [[("z", 1), ("a", 0)]] + [[("z", 1), ("a", 2)]] * 3)


class TestPiecemealScenarios:
    def test_parts_cover_their_cases_and_merge_to_full_branch(self):
        merged = None
        for part_id in ("t", "e"):
            result = run_campaign(desk_config(scenario="piece:%s" % part_id))
            assert result.error is None
            assert all(e.verdict == VerdictKind.PASS.value for e in result.log.entries)
            if merged is None:
                merged = result.report
            else:
                merged.merge(result.report)
        assert merged.ratio("branch") == 1.0

    def test_pinned_part_never_leaves_its_branch(self):
        result = run_campaign(desk_config(scenario="piece:t"))
        # with position pinned to 1 the else-subtree is never entered
        assert "decision 'e'" in " ".join(result.report.uncovered("branch"))
        assert result.report.ratio("branch") < 1.0
