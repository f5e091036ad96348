import ast as pyast
import hashlib
import itertools
from pathlib import Path

import pytest
from conftest import GUARD_SRC, TANK_SRC

from cyclotest import reduction
from cyclotest.dsl import (
    Held,
    ModelError,
    check_model,
    eval_expr,
    extract_predicates,
    parse_expression,
    parse_model,
    print_expr,
    rescale_durations,
    walk_exprs,
)
from cyclotest.iron import iron_model, iron_source
from cyclotest.reduction import (
    OverlappingParts,
    coverable_cases,
    derive_projections,
    enumerate_reachable_flag_states,
    enumerate_test_cases,
    generalized_state,
    input_feasible_leaves,
    make_piecemeal,
    project_to_state,
)
from cyclotest.temporal import HoldTable
from oracles import (
    WindowOracle,
    _valuations,
    coverable_cases_bruteforce,
    enumerate_reachable_flag_states_reference,
    generalized_state_bruteforce,
    input_feasible_leaves_bruteforce,
    piecemeal_inputs_bruteforce,
    projection_holds,
    reachable_flag_vectors,
    unreachable_leaves_bruteforce,
)

FLAG_IDS = ("move_eq_f_t1", "position_eq_f_t1", "move_eq_f_t2", "position_eq_t_t2")


# three literals, one shared by two predicates, and an int input
TWO_INPUTS = """
model two {
  input a: bool;
  input b: int 0..2;
  output o: int 0..3;
  logic {
    if (held(a && b == 2, 1500ms)) { o = 1; } else {
      if (held(!a, 2s)) { o = 2; } else {
        if (held(b == 2, 2500ms)) { o = 3; } else { o = 0; }
      }
    }
  }
}
"""

# a held() over a state variable, so literal outcomes differ between states,
# and a post-state that depends on the flags
HEATER_SRC = """
model heater {
  input heat: int 0..3;
  input vent: bool;
  output alarm: bool;
  state temp: int 0..3 readable = 0;
  logic {
    if (held(temp == 3, 2s)) {
      if (vent) { temp = 0; alarm = 1; } else { alarm = 1; }
    } else {
      if (held(vent, 1500ms)) { temp = 1; alarm = 0; } else { temp = heat; alarm = 0; }
    }
  }
}
"""


# models without state variables, for the closed-form reachability: four
# literals on one int 0..3 input, one of them outside its domain, so the value
# 3 matches none, and c == 1 with two predicates
QUAD_SRC = """
model quad {
  input c: int 0..3;
  input d: bool;
  output o: int 0..4;
  logic {
    if (held(c == 1, 2s)) { o = 1; } else {
      if (held(c == 1 && d, 3500ms)) { o = 2; } else {
        if (held(c == 0, 1s)) { o = 3; } else {
          if (held(c == 2 && !d, 1500ms)) { o = 4; } else {
            if (held(c == 4, 1s)) { o = 4; } else { o = 0; }
          }
        }
      }
    }
  }
}
"""

# a one-value input: its literal holds from the first cycle and never breaks
SINGLE_SRC = """
model single {
  input k: int 2..2;
  input e: bool;
  output o: int 0..2;
  logic {
    if (held(k == 2, 2s)) {
      if (held(e && k == 2, 1s)) { o = 2; } else { o = 1; }
    } else { o = 0; }
  }
}
"""

# the walk splits on b before a, so leaf 'ett' ends with the box a=1, b=0,
# c=1 before the box b=1, whose least valuation a=0, b=1, c=0 is less: the
# search must enter a class at its least valuation, not at its first box
ORDER_SRC = """
model order {
  input a: bool;
  input b: bool;
  input c: bool;
  output o: bool;
  state s: bool readable = 0;
  logic {
    if (held(s, 1s)) { s = 0; o = 1; } else {
      if (b || c) {
        if (a || b) { s = 1; o = 1; } else { o = 0; }
      } else { o = 0; }
    }
  }
}
"""

# a held() literal outside its variable's domain never holds
STRAY_SRC = """
model stray {
  input a: int 0..2;
  output o: int 0..2;
  logic {
    if (held(a == 5, 1s)) { o = 1; } else {
      if (held(a == 1, 2s)) { o = 2; } else { o = 0; }
    }
  }
}
"""


# the input factors on the way to leaf 'tt' contradict each other, so its
# projection is empty although no factor names state
UNSATISFIABLE_INPUTS = (
    "model u { input a: bool; output o: bool; state s: bool readable = 0; logic { "
    "if (a) { if (!a) { o = 1; } else { o = 0; } } else { o = 0; } } }")


def _env(bits):
    return dict(zip(FLAG_IDS, bits))


class TestTestCases:
    def test_iron_four_cases(self, iron_ast):
        cases = enumerate_test_cases(iron_ast)
        assert [str(pc) for pc in cases] == [
            "position && held(!move && position, 900s)",
            "position && !held(!move && position, 900s)",
            "!position && held(!move && !position, 60s)",
            "!position && !held(!move && !position, 60s)",
        ]
        assert [pc.id for pc in cases] == ["case1", "case2", "case3", "case4"]
        assert [pc.leaf_id for pc in cases] == ["tt", "te", "et", "ee"]

    def test_single_decision_model_two_cases(self):
        ast = parse_model(
            "model m { input a: bool; output o: bool; "
            "logic { if (a) { o = 1; } else { o = 0; } } }"
        )
        assert [str(pc) for pc in enumerate_test_cases(ast)] == ["a", "!a"]

    def test_rewritten_conditions(self, iron_extraction):
        rewritten = enumerate_test_cases(iron_extraction.model)
        assert [str(pc) for pc in rewritten] == [
            "position && move_eq_f_t2 && position_eq_t_t2",
            "position && !(move_eq_f_t2 && position_eq_t_t2)",
            "!position && move_eq_f_t1 && position_eq_f_t1",
            "!position && !(move_eq_f_t1 && position_eq_f_t1)",
        ]

    def test_condition_without_temporal_atoms_unchanged(self, iron_extraction):
        ast = parse_model(
            "model m { input a: bool; output o: bool; "
            "logic { if (a) { o = 1; } else { o = 0; } } }"
        )
        ex = extract_predicates(ast)
        assert str(enumerate_test_cases(ex.model)[0]) == str(enumerate_test_cases(ast)[0])


class TestProjections:
    def test_iron_projections(self, iron_extraction):
        projections = derive_projections(iron_extraction)
        assert [str(p) for p in projections] == [
            "move_eq_f_t2 && position_eq_t_t2",
            "!(move_eq_f_t2 && position_eq_t_t2)",
            "move_eq_f_t1 && position_eq_f_t1",
            "!(move_eq_f_t1 && position_eq_f_t1)",
        ]
        assert [p.id for p in projections] == ["P1", "P2", "P3", "P4"]

    def test_input_only_condition_projects_to_true(self):
        ast = parse_model(
            "model m { input a: bool; output o: bool; "
            "logic { if (a) { o = 1; } else { o = 0; } } }"
        )
        ex = extract_predicates(ast)
        pc = enumerate_test_cases(ex.model)[0]
        projection = project_to_state(pc, ex.model, input_feasible_leaves(ex.model))
        assert str(projection) == "true"
        assert projection_holds(projection, {}, ex.model) is True

    def test_dropping_input_factors_matches_existential_semantics(self, iron_extraction):
        from cyclotest.dsl import eval_expr

        cases = enumerate_test_cases(iron_extraction.model)
        projections = derive_projections(iron_extraction)
        for bits in itertools.product((0, 1), repeat=4):
            env = _env(bits)
            for p, pc in zip(projections, cases):
                assert not p.exists_inputs
                kept = all(eval_expr(f, env, env) for f in p.factors)
                assert projection_holds(pc, env, iron_extraction.model) == kept

    def test_projection_soundness(self, iron_extraction):
        # every state in a projection admits inputs covering the source case
        cases = enumerate_test_cases(iron_extraction.model)
        projections = derive_projections(iron_extraction)
        for bits in itertools.product((0, 1), repeat=4):
            env = _env(bits)
            for p, pc in zip(projections, cases):
                if projection_holds(p, env, iron_extraction.model):
                    assert pc.id in coverable_cases(env, [pc], iron_extraction.model)


class TestGeneralizedState:
    def test_all_flags_false(self, iron_extraction):
        projections = derive_projections(iron_extraction)
        assert generalized_state(_env((0, 0, 0, 0)), projections,
                                 iron_extraction.model) == (0, 1, 0, 1)

    def test_long_vertical_rest(self, iron_extraction):
        projections = derive_projections(iron_extraction)
        assert generalized_state(_env((1, 0, 1, 1)), projections,
                                 iron_extraction.model) == (1, 0, 0, 1)

    def test_empty_projection_list(self, iron_extraction):
        assert generalized_state(_env((0, 0, 0, 0)), [], iron_extraction.model) == ()


WALK_MODELS = [
    pytest.param(lambda: iron_model(desk_scale=True), id="iron-desk"),
    pytest.param(iron_model, id="iron-paper"),
    pytest.param(lambda: parse_model(TANK_SRC), id="tank"),
    pytest.param(lambda: parse_model(GUARD_SRC), id="guard"),
    pytest.param(lambda: parse_model(TWO_INPUTS), id="two"),
]


def _state_envs(extraction):
    """Every state-variable valuation crossed with every flag vector."""
    model = extraction.model
    names = [d.name for d in model.state_vars] + [p.id for p in extraction.predicates]
    domains = [d.domain() for d in model.state_vars] + [(0, 1)] * len(extraction.predicates)
    return [dict(zip(names, values)) for values in itertools.product(*domains)]


class TestTreeWalkMatchesBruteForce:
    """The tree walk against the per-leaf enumeration of path conditions it
    replaces, on every state the model can name."""

    @pytest.mark.parametrize("make", WALK_MODELS)
    def test_generalized_states_and_coverable_cases(self, make):
        extraction = extract_predicates(make())
        projections = derive_projections(extraction)
        rewritten = enumerate_test_cases(extraction.model)
        envs = _state_envs(extraction)
        members = set()
        for env in envs:
            member = generalized_state(env, projections, extraction.model)
            assert member == generalized_state_bruteforce(env, projections, extraction.model)
            assert coverable_cases(env, rewritten, extraction.model) == (
                coverable_cases_bruteforce(env, rewritten, extraction.model))
            members.add(member)
        assert len(members) > 1

    @pytest.mark.parametrize("make", WALK_MODELS)
    def test_unreachable_leaves(self, make):
        ast = make()
        found = {d.node_id for d in check_model(ast) if d.code == "UnreachableLeaf"}
        assert found == unreachable_leaves_bruteforce(ast)

    def test_held_guard_leaf_unreachable(self):
        diags = check_model(parse_model(GUARD_SRC))
        assert [(d.code, d.node_id) for d in diags] == [("UnreachableLeaf", "tt")]


def _model_sources():
    """Every string constant in the test files that is a model without
    errors, plus iron; each named by its model name and a hash of its text,
    so that edits elsewhere in a file leave the test ids alone."""
    params = [pytest.param(iron_source(), id="iron")]
    seen = {iron_source()}
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in pyast.walk(pyast.parse(path.read_text(encoding="utf-8"))):
            text = node.value if isinstance(node, pyast.Constant) else None
            if not isinstance(text, str) or "logic" not in text or text in seen:
                continue
            try:
                extract_predicates(parse_model(text))
            except ModelError:
                continue
            model = parse_model(text)
            if all(d.severity != "error" for d in check_model(model)):
                seen.add(text)
                digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:8]
                params.append(pytest.param(text, id="%s-%s" % (model.name, digest)))
    return params


class TestPrintedReduction:
    """Every printed case, rewritten condition and projection (the body under
    ``exists inputs:`` included) reads back with ``parse_expression`` as the
    conjunction of its record's factors, checked on every valuation."""

    def test_sources_found(self):
        assert {"tank", "guard", "two", "latch", "gauge", "iron", "u", "heater", "quad", "single",
                "stray", "order"} <= {
            parse_model(p.values[0]).name for p in _model_sources()}

    @pytest.mark.parametrize("source", _model_sources())
    def test_printed_conditions_reparse_to_their_factors(self, source):
        model = parse_model(source)
        extraction = extract_predicates(model)
        decls = model.inputs + model.state_vars
        names = [d.name for d in decls]
        var_envs = [dict(zip(names, values))
                    for values in itertools.product(*(d.domain() for d in decls))]

        # source cases: held() atoms, keyed by printed formula and duration,
        # vary independently of the variables
        keys = sorted({(print_expr(e.formula), e.duration_ms) for dec in model.decisions()
                       for e in walk_exprs(dec.condition) if isinstance(e, Held)})
        for pc in enumerate_test_cases(model):
            parsed = parse_expression(str(pc))
            for env in var_envs:
                for bits in itertools.product((0, 1), repeat=len(keys)):
                    held = dict(zip(keys, bits))

                    def held_eval(node):
                        return held[(print_expr(node.formula), node.duration_ms)]

                    want = all(eval_expr(f, env, None, held_eval) for f in pc.factors)
                    got = bool(eval_expr(parsed, env, None, held_eval))
                    assert got == want, (pc.id, str(pc), env, held)

        # rewritten cases and projections: predicate ids vary like variables
        ids = [p.id for p in extraction.predicates]
        envs = [dict(env, **dict(zip(ids, bits)))
                for env in var_envs for bits in itertools.product((0, 1), repeat=len(ids))]
        records = enumerate_test_cases(extraction.model)
        records += derive_projections(extraction)
        for record in records:
            text = str(record).removeprefix("exists inputs: ")
            parsed = parse_expression(text)
            for env in envs:
                want = all(eval_expr(f, env, env) for f in record.factors)
                assert bool(eval_expr(parsed, env)) == want, (record.id, text, env)

    @pytest.mark.parametrize("source", _model_sources())
    def test_feasible_leaves_equal_a_scan_per_case(self, source):
        model = extract_predicates(parse_model(source)).model
        assert input_feasible_leaves(model) == input_feasible_leaves_bruteforce(model)

    @pytest.mark.parametrize("source", _model_sources())
    def test_printed_projection_holds_where_its_bit_is_set(self, source):
        # some input valuation satisfies the printed projection, read back,
        # exactly in the states where generalized_state sets its bit
        extraction = extract_predicates(parse_model(source))
        model = extraction.model
        projections = derive_projections(extraction)
        parsed = [parse_expression(str(p).removeprefix("exists inputs: ")) for p in projections]
        for env in _state_envs(extraction):
            envs = [dict(env, **valuation) for valuation in _valuations(model.inputs)]
            printed = tuple(int(any(eval_expr(e, full) for full in envs)) for e in parsed)
            assert printed == generalized_state(env, projections, model), (
                [str(p) for p in projections], env)

    def test_unsatisfiable_input_factors_project_to_false(self):
        projections = derive_projections(extract_predicates(parse_model(UNSATISFIABLE_INPUTS)))
        assert [str(p) for p in projections] == ["false", "true", "true"]

    def test_mixed_factor_projects_under_exists(self):
        projections = derive_projections(extract_predicates(parse_model(GUARD_SRC)))
        assert [str(p) for p in projections] == [
            "exists inputs: a_eq_t_t1 && b == 2 && !a_eq_t_t1",
            "exists inputs: a_eq_t_t1 && !(b == 2 && !a_eq_t_t1)",
            "!a_eq_t_t1",
            "!a_eq_t_t1",
        ]

    def test_disjunction_factor_parenthesised(self):
        cases = enumerate_test_cases(parse_model(TANK_SRC))
        assert str(cases[2]) == ("!held(drain && fill == 0, 2s) && "
                                 "(level == 3 || held(fill == 2, 1500ms)) && drain && fill == 2")


# the models named iron run at 60 s/900 s, where the reference search takes
# about a minute; iron enters at 3/5 and 10/40 cycles of the period instead
REFERENCE_MODELS = [p for p in _model_sources() if parse_model(p.values[0]).name != "iron"] + [
    pytest.param((3, 5), id="iron-3-5-cycles"),
    pytest.param((10, 40), id="iron-10-40-cycles"),
]


def _extraction_at(model, period):
    """A model source, or iron with its two durations at ``model`` cycles."""
    if isinstance(model, str):
        return extract_predicates(parse_model(model))
    short, long = model
    remap = {60_000: short * period, 900_000: long * period}
    return extract_predicates(rescale_durations(iron_model(), remap))


class TestReachability:
    def test_iron_counts(self, desk_extraction):
        report = enumerate_reachable_flag_states(desk_extraction, 1000)
        assert report.upper_bound == 16
        assert report.reachable_count == 9

    def test_reachable_vectors_are_the_consistent_ones(self, desk_extraction):
        # m-pair in {00,10,11} (long hold implies short), p-pair in {00,10,01}
        # (the two position literals cannot both have held)
        report = enumerate_reachable_flag_states(desk_extraction, 1000)
        expected = {
            (m1, p1, m2, p2)
            for (m1, m2) in ((0, 0), (1, 0), (1, 1))
            for (p1, p2) in ((0, 0), (1, 0), (0, 1))
        }
        assert set(report.vectors) == expected

    def test_witnesses_replay_to_their_vectors(self, desk_extraction):
        # replayed as the contract oracle steps the table (0 ms on the first
        # cycle) and through the window oracle
        table = HoldTable(desk_extraction.predicates)
        report = enumerate_reachable_flag_states(desk_extraction, 1000)
        for vector in report.vectors:
            record, oracle = table.initial, WindowOracle(desk_extraction.predicates, 1000)
            window = oracle.flags()
            for i, inputs in enumerate(report.witnesses[vector]):
                record = table.step(record, inputs, 1000 if i else 0)
                window = oracle.step(inputs)
            flags = table.flags(record)
            assert tuple(int(flags[p]) for p in report.predicate_ids) == vector
            assert flags == window

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("model, period", [
        pytest.param("iron", 1000, id="iron-1000ms"),
        pytest.param(TWO_INPUTS, 1000, id="two-1000ms"),
        pytest.param(TWO_INPUTS, 700, id="two-700ms"),
        pytest.param(HEATER_SRC, 1000, id="heater-1000ms"),
        pytest.param(HEATER_SRC, 700, id="heater-700ms"),
    ])
    def test_vectors_match_bruteforce_windows(self, desk_extraction, model, period, strict):
        extraction = desk_extraction if model == "iron" else extract_predicates(parse_model(model))
        report = enumerate_reachable_flag_states(extraction, period, strict)
        assert len(set(report.vectors)) == len(report.vectors)
        assert set(report.vectors) == reachable_flag_vectors(extraction, period, strict)

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("period", [1000, 700])
    @pytest.mark.parametrize("model", REFERENCE_MODELS)
    def test_report_equals_the_reference_search(self, model, period, strict):
        extraction = _extraction_at(model, period)
        report = enumerate_reachable_flag_states(extraction, period, strict)
        reference = enumerate_reachable_flag_states_reference(extraction, period, strict)
        assert report.vectors == reference.vectors
        assert list(report.witnesses.items()) == list(reference.witnesses.items())
        assert report.states == reference.states

    @staticmethod
    def _count_model_runs(monkeypatch) -> list:
        calls = []
        real = reduction.eval_model

        def counted(model, inputs, state_pre, flags):
            calls.append((tuple(sorted(state_pre.items())), tuple(sorted(inputs.items())),
                          tuple(flags.values())))
            return real(model, inputs, state_pre, flags)

        monkeypatch.setattr(reduction, "eval_model", counted)
        return calls

    def test_stateless_model_is_never_run(self, monkeypatch, desk_extraction):
        calls = self._count_model_runs(monkeypatch)
        assert enumerate_reachable_flag_states(desk_extraction, 1000).reachable_count == 9
        assert calls == []

    def test_model_runs_once_per_state_inputs_and_flags(self, monkeypatch):
        calls = self._count_model_runs(monkeypatch)
        enumerate_reachable_flag_states(extract_predicates(parse_model(TANK_SRC)), 1000)
        assert calls and len(calls) == len(set(calls))

    def test_single_predicate_two_states(self):
        ast = parse_model(
            "model m { input a: bool; output o: bool; "
            "logic { if (held(a, 2s)) { o = 1; } else { o = 0; } } }"
        )
        report = enumerate_reachable_flag_states(extract_predicates(ast), 1000)
        assert report.upper_bound == 2
        assert report.reachable_count == 2

    def test_zero_predicates_upper_bound_one(self):
        ast = parse_model(
            "model m { input a: bool; output o: bool; "
            "logic { if (a) { o = 1; } else { o = 0; } } }"
        )
        report = enumerate_reachable_flag_states(extract_predicates(ast), 1000)
        assert report.upper_bound == 1
        assert report.vectors == ((),)


class TestWalkAgainstOracles:
    """Every analysis that reads the symbolic walk (``ModelAst.leaf_boxes``
    and ``input_boxes``) against the brute-force oracle that scans every
    valuation, on every model the tests define, at 1000 and 700 ms under
    both semantics."""

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("period", [1000, 700])
    @pytest.mark.parametrize("model", REFERENCE_MODELS)
    def test_analyses_equal_their_oracles(self, model, period, strict):
        extraction = _extraction_at(model, period)
        rewritten = extraction.model
        report = enumerate_reachable_flag_states(extraction, period, strict)
        reference = enumerate_reachable_flag_states_reference(extraction, period, strict)
        assert list(report.witnesses.items()) == list(reference.witnesses.items())
        assert report.states == reference.states

        projections = derive_projections(extraction)
        cases = enumerate_test_cases(rewritten)
        # every reachable state, and every other state the model can name
        for env in _state_envs(extraction):
            assert generalized_state(env, projections, rewritten) == (
                generalized_state_bruteforce(env, projections, rewritten)), env
            assert coverable_cases(env, cases, rewritten) == (
                coverable_cases_bruteforce(env, cases, rewritten)), env
        assert input_feasible_leaves(rewritten) == input_feasible_leaves_bruteforce(rewritten)
        found = {d.node_id for d in check_model(extraction.source) if d.code == "UnreachableLeaf"}
        assert found == unreachable_leaves_bruteforce(extraction.source)

    @pytest.mark.parametrize("source", _model_sources())
    def test_piecemeal_inputs_equal_a_scan(self, source):
        ast = parse_model(source)
        nodes = {leaf.node_id[:k] for leaf in ast.leaves() for k in range(len(leaf.node_id) + 1)}
        for part in sorted(nodes):
            want = piecemeal_inputs_bruteforce(ast, part)
            if want is None:
                with pytest.raises(reduction.ReductionError, match="no input valuation reaches"):
                    make_piecemeal(ast, [part])
            else:
                got = make_piecemeal(ast, [part])[0]
                assert (got.pinned, got.iterated) == want, part


class TestPiecemeal:
    def test_iron_split_by_position(self, iron_ast):
        parts = make_piecemeal(iron_ast, ["t", "e"])
        by_id = {p.node_id: p for p in parts}
        assert by_id["t"].pinned == {"position": 1}
        assert by_id["t"].iterated == {"move": (0, 1)}
        assert by_id["t"].case_ids == ("case1", "case2")
        assert by_id["e"].pinned == {"position": 0}
        assert by_id["e"].case_ids == ("case3", "case4")

    def test_whole_model_single_part(self, iron_ast):
        part = make_piecemeal(iron_ast, [""])[0]
        assert part.pinned == {}
        assert set(part.iterated) == {"move", "position"}
        assert part.case_ids == ("case1", "case2", "case3", "case4")

    def test_overlapping_parts_rejected(self, iron_ast):
        with pytest.raises(OverlappingParts):
            make_piecemeal(iron_ast, ["t", "tt"])

    def test_unknown_part_rejected(self, iron_ast):
        with pytest.raises(Exception, match="unknown node id"):
            make_piecemeal(iron_ast, ["x"])
