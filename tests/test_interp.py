import itertools
import pickle
import random
from pathlib import Path

import pytest
from conftest import TANK_SRC
from oracles import walk_model
from test_dsl import _random_model_source
from test_reduction import _model_sources

from cyclotest.dsl import extract_predicates, parse_model
from cyclotest.interp import eval_model
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


class TestPostState:
    def test_a_new_dict_leaves_the_pre_state_alone(self):
        # the specification shares its states' variables, so the model must
        # not write to them, whether or not the leaf assigns state
        extraction = extract_predicates(parse_model(TANK_SRC))
        flags = {p.id: False for p in extraction.predicates}
        for fill, level_post in ((2, 2), (0, 0)):
            pre = {"level": 0}
            _, post, _ = eval_model(extraction.model, {"fill": fill, "drain": 0}, pre, flags)
            assert post == {"level": level_post} and post is not pre
            assert pre == {"level": 0}


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


# identifiers that are the generated function's own names and Python's
# builtins and constants: a model may use them all
NAMES_SRC = """\
model run {
  input env: bool;
  input records: int 0..2;
  input print: bool;
  input True: bool;
  output outputs: int 0..2;
  output __import__: bool;
  state state_pre: int 0..2 readable = 0;
  state time_flags: bool hidden = 0;
  state a1: bool readable = 1;

  logic {
    if (held(env && records == 2, 2s) || True) {
      if (state_pre > records || !a1) {
        outputs = records; state_pre = records; __import__ = print;
      } else {
        outputs = 0; __import__ = 0; time_flags = 1;
      }
    } else {
      if (print == time_flags) {
        outputs = state_pre; __import__ = a1; a1 = print;
      } else {
        outputs = 2; __import__ = env;
      }
    }
  }
}
"""


def _valuations(extraction):
    """Every (inputs, state variables, flags) of a rewritten model."""
    model = extraction.model
    decls = model.inputs + model.state_vars
    ids = [p.id for p in extraction.predicates]
    for values in itertools.product(*(d.domain() for d in decls)):
        inputs = dict(zip(model.input_names, values))
        state = {d.name: v for d, v in zip(model.state_vars, values[len(model.inputs):])}
        for bits in itertools.product((False, True), repeat=len(ids)):
            yield inputs, state, dict(zip(ids, bits))


def _agrees(model, inputs, state, flags) -> None:
    """The compiled run gives the walk's outputs, post-state and trace, each
    value of the same type (``repr`` tells an ``int`` from a ``bool``)."""
    assert repr(eval_model(model, inputs, state, flags)) == repr(
        walk_model(model, inputs, state, flags))


class TestCompiledAgreesWithWalk:
    @pytest.mark.parametrize("source", _model_sources() + [pytest.param(TANK_SRC, id="tank")])
    def test_every_valuation(self, source):
        extraction = extract_predicates(parse_model(source))
        for valuation in _valuations(extraction):
            _agrees(extraction.model, *valuation)

    def test_random_models(self):
        rng = random.Random(26)
        for _ in range(200):
            extraction = extract_predicates(parse_model(_random_model_source(rng)))
            for valuation in _valuations(extraction):
                _agrees(extraction.model, *valuation)

    @pytest.mark.parametrize("name", ["wide20.ctl", "wide20_state.ctl"])
    def test_a_sample_of_a_wide_model(self, name):
        path = Path(__file__).parent / "models" / name
        extraction = extract_predicates(parse_model(path.read_text()))
        model, rng = extraction.model, random.Random(name)
        for _ in range(2000):
            inputs = {d.name: rng.choice(d.domain()) for d in model.inputs}
            state = {d.name: rng.choice(d.domain()) for d in model.state_vars}
            flags = {p.id: rng.random() < 0.5 for p in extraction.predicates}
            _agrees(model, inputs, state, flags)

    def test_names_of_the_function_and_of_python(self):
        extraction = extract_predicates(parse_model(NAMES_SRC))
        for valuation in _valuations(extraction):
            _agrees(extraction.model, *valuation)
        outputs, post, trace = eval_model(
            extraction.model, {"env": 0, "records": 1, "print": 1, "True": 1},
            {"state_pre": 2, "time_flags": 0, "a1": 1},
            {"env_eq_t_t1": False, "records_eq_2_t1": False})
        assert (outputs, post) == ({"outputs": 1, "__import__": 1},
                                   {"state_pre": 1, "time_flags": 0, "a1": 1})
        assert trace.model == "run" and trace.leaf_id == "tt"

    def test_a_deep_chain(self):
        # each decision's deeper side follows its 'if' unindented, so a chain
        # nests one level of Python, not one per decision
        for chain in ("if (a) { " * 400 + "o = 1;" + " } else { o = 0; }" * 400,
                      "if (a) { o = 0; } else { " * 400 + "o = 1;" + " }" * 400):
            model = extract_predicates(parse_model(
                "model deep { input a: bool; output o: int 0..1; logic { %s } }" % chain)).model
            for a in (0, 1):
                _agrees(model, {"a": a}, {}, {})


class TestCompiledModel:
    def test_compiled_on_first_run_only(self):
        extraction = extract_predicates(parse_model(TANK_SRC))
        assert "compiled" not in vars(extraction.model)
        flags = {p.id: False for p in extraction.predicates}
        eval_model(extraction.model, {"fill": 1, "drain": 0}, {"level": 0}, flags)
        compiled = vars(extraction.model)["compiled"]
        eval_model(extraction.model, {"fill": 2, "drain": 1}, {"level": 3}, flags)
        assert vars(extraction.model)["compiled"] is compiled
        assert compiled.__module__ == "cyclotest.interp"

    def test_an_evaluated_extraction_pickles(self):
        # the piecemeal pool pickles the extraction into each worker
        extraction = extract_predicates(parse_model(TANK_SRC))
        valuations = list(_valuations(extraction))
        before = [eval_model(extraction.model, *v) for v in valuations]
        copy = pickle.loads(pickle.dumps(extraction))
        assert "compiled" not in vars(copy.model)
        assert [eval_model(copy.model, *v) for v in valuations] == before
