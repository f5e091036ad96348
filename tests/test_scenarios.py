from conftest import desk_config

from cyclotest.cli import run_campaign
from cyclotest.contracts import VerdictKind
from cyclotest.dsl import extract_predicates, parse_model
from cyclotest.reduction import make_piecemeal
from cyclotest.scenarios import build_coverage_scenario, saturation_cycles

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


class TestSaturation:
    def test_desk_scale_needs_six_cycles(self, desk_extraction):
        assert saturation_cycles(desk_extraction, 1000) == 6

    def test_full_scale_needs_901(self, iron_extraction):
        assert saturation_cycles(iron_extraction, 1000) == 901


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
        scenario = build_coverage_scenario(None, extract_predicates(parse_model(ZA_SRC)), ())
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
        table = build_coverage_scenario(None, extraction, (), 1000, part).actions()
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
