import itertools

import pytest

from cyclotest.interp import MissingBinding, eval_model
from cyclotest.reduction import enumerate_test_cases


def _flags(m1=False, p1=False, m2=False, p2=False):
    return {
        "move_eq_f_t1": m1,
        "position_eq_f_t1": p1,
        "move_eq_f_t2": m2,
        "position_eq_t_t2": p2,
    }


class TestIronEvaluation:
    def test_vertical_rested_cuts_heating(self, iron_extraction):
        outputs, state, trace = eval_model(
            iron_extraction.model, {"move": 0, "position": 1}, {}, _flags(m2=True, p2=True, m1=True)
        )
        assert outputs == {"heating": 0}
        assert state == {}
        assert trace.leaf_id == "tt"

    def test_vertical_not_rested_keeps_heating(self, iron_extraction):
        outputs, _, trace = eval_model(
            iron_extraction.model, {"move": 0, "position": 1}, {}, _flags(m2=False, p2=True)
        )
        assert outputs == {"heating": 1}
        assert trace.leaf_id == "te"

    def test_flat_rested_cuts_heating(self, iron_extraction):
        outputs, _, trace = eval_model(
            iron_extraction.model, {"move": 0, "position": 0}, {}, _flags(m1=True, p1=True)
        )
        assert outputs == {"heating": 0}
        assert trace.leaf_id == "et"

    def test_pure_function(self, iron_extraction):
        args = (iron_extraction.model, {"move": 1, "position": 0}, {}, _flags())
        assert eval_model(*args) == eval_model(*args)

    def test_exactly_one_leaf_for_every_valuation(self, iron_extraction):
        leaves = {l.node_id for l in iron_extraction.model.leaves()}
        for move, position in itertools.product((0, 1), repeat=2):
            for bits in itertools.product((False, True), repeat=4):
                flags = dict(zip(_flags(), bits))
                _, _, trace = eval_model(
                    iron_extraction.model, {"move": move, "position": position}, {}, flags
                )
                assert trace.leaf_id in leaves

    def test_missing_input_rejected(self, iron_extraction):
        with pytest.raises(MissingBinding):
            eval_model(iron_extraction.model, {"move": 0}, {}, _flags())

    def test_missing_flag_rejected(self, iron_extraction):
        flags = _flags()
        del flags["move_eq_f_t2"]
        with pytest.raises(MissingBinding):
            eval_model(iron_extraction.model, {"move": 0, "position": 1}, {}, flags)


class TestDecisionTrace:
    def test_full_condition_vectors_recorded(self, iron_extraction):
        _, _, trace = eval_model(
            iron_extraction.model, {"move": 0, "position": 1}, {}, _flags(p2=True)
        )
        assert [r.node_id for r in trace.decisions] == ["", "t"]
        root, inner = trace.decisions
        assert root.conditions == (("position", True),)
        # both predicate atoms logged even though && short-circuits
        assert inner.conditions == (("move_eq_f_t2", False), ("position_eq_t_t2", True))
        assert inner.outcome is False

    def test_trace_is_root_to_leaf_path(self, iron_extraction):
        _, _, trace = eval_model(
            iron_extraction.model, {"move": 0, "position": 0}, {}, _flags()
        )
        path = [r.node_id for r in trace.decisions] + [trace.leaf_id]
        for parent, child in zip(path, path[1:]):
            assert child.startswith(parent) and len(child) == len(parent) + 1


def covered_test_case(trace, ast) -> str:
    """The test case whose leaf a trace reached."""
    return {pc.leaf_id: pc.id for pc in enumerate_test_cases(ast)}[trace.leaf_id]


class TestCoveredTestCase:
    def test_then_then_is_case1(self, iron_extraction):
        _, _, trace = eval_model(
            iron_extraction.model, {"move": 0, "position": 1}, {}, _flags(m2=True, p2=True)
        )
        assert covered_test_case(trace, iron_extraction.model) == "case1"

    def test_else_else_is_case4(self, iron_extraction):
        _, _, trace = eval_model(
            iron_extraction.model, {"move": 1, "position": 0}, {}, _flags()
        )
        assert covered_test_case(trace, iron_extraction.model) == "case4"

    def test_single_decision_model(self):
        from cyclotest.dsl import parse_model, extract_predicates

        ex = extract_predicates(
            parse_model(
                "model m { input a: bool; output o: bool; "
                "logic { if (a) { o = 1; } else { o = 0; } } }"
            )
        )
        for a in (0, 1):
            _, _, trace = eval_model(ex.model, {"a": a}, {}, {})
            assert covered_test_case(trace, ex.model) in ("case1", "case2")
