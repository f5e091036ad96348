import hashlib
import itertools
import random
import time
from pathlib import Path

import pytest
from conftest import TANK_SRC

from cyclotest.dsl import (
    And,
    Decision,
    Held,
    Leaf,
    Not,
    ParseError,
    SemanticError,
    UnsupportedTemporalFormula,
    check_model,
    extract_predicates,
    parse_expression,
    parse_model,
    rescale_durations,
    tokenize,
    walk_nodes,
)
from oracles import (CompoundWindowOracle, WindowOracle, eval_expr, print_model,
                     unreachable_leaves_bruteforce)
from test_cli import MODEL_SOURCES

TESTS = Path(__file__).resolve().parent

# tabs, \r\n line ends, // comments, a duration beside an int and an
# identifier, and no newline at the end
EDGE_SRC = ("model\tedge {\r\n\tinput a: int 0..3;\t// a tab, then a comment\r\n"
            "  if (held(a==3,3s) || !held(a != 2, 3 s)) { x = 3ms; y = 3sx; z = 03; }\r\n"
            "\t\t} // no newline at the end")

# sha256 of repr([(kind, text, line, col) for each token]), taken before the
# lexer became one pass of its regular expression: the files under
# tests/models, every model source of the test files (MODEL_SOURCES, which
# holds iron.ctl as "iron" and conftest's sources), and EDGE_SRC
TOKEN_SHA = {
    "wide20.ctl": "1c7e998cda13ce5147edee02f04347ffff6b53e502020906fab5598a1bba791d",
    "wide20_state.ctl": "577368dee88132fda9fbdbbf484a8e6870e0d94a72fe208fba16586fab98633a",
    "dial-e35fdd32": "de86f0532e0107aeb154cff2e241ba170dc96a871d05f729d38aefb3e6f00595",
    "gauge-88915476": "c2de99e08e86889137ca653a6bee8e6257ccc0be22dd6131ec395219c5f527a4",
    "guard-cd195c2a": "7344f540a36d09c46d1c207243950e8f9bb9e693bfbef54ab602451f7c01096b",
    "heater-1d02e5df": "11c7924cb3e74eba2adc9938db9ac942b8e65d473c1bac8149c9195d219920e3",
    "iron": "7226f51fb32c1f29b23d8de0d18fd151be3180fb79bbf4c6f103257f7991fe8d",
    "iron-bcfed6b5": "2e9f5e7b72c7d40dbc289b75dbf34518647c32985bafcf2dfe92939d2dcf185c",
    "latch-ae168745": "ae974edb4da42e2e1521c642bfcfbeaee3dcdd83178309e4e8d431c34e7e94aa",
    "m-240becb9": "7820b35253cb7e2e190a13a29c3575842746046b6966113ad2deef590526d0dc",
    "m-2759aadf": "bf614963772244e9534c4ac937c71f833f6db884131a9b33f5df7ba3fc42f66d",
    "m-3cfe777e": "ca8acc260cbde59afbec32e81a43cc1dbca8766ddc49e80ae0b5747c7b957b0a",
    "m-46e4bd99": "819c6674e392d79a6b0c535a9a0dce048c99ffd1f1cd8796cfe30cac1af4cc8c",
    "m-68285274": "7d0d88debb680b2499f5e80366782f2bbec133fa3191610507c5e082667d90bb",
    "m-743aa20f": "11a8d66cc5f86e185c11e19eed65f86b00938f85e69778cf08e34d5c4236415e",
    "m-9be55186": "2962957c525af4a7d5c422f5c78dd7b6c81e61ac84f01cdc19abe4494a0b7302",
    "order-fa87627d": "0eae50cc1399bd4f2d320ed69a79f7848570750ac630ab26f6ec471868944fdc",
    "other-9b8f41fd": "754e457822b3ede2247f42a84722cb4ce16709e02c47db021dc40c4a9ae3e8f6",
    "quad-4b64c092": "e2f101540336cb53972ff3f2d07b03919860505e95ee4881abe70700d068ab0e",
    "settle-abac4325": "f6d57fd5112011f2bcb4dc4a0d5192ab464c147768283d4bf44a9a06cca04917",
    "single-48d62513": "21c7aecee70342bedc2193e82dd23019b43f042c4da9925c15df2cc2a7049c55",
    "stray-b4d3cc70": "6dd4d376dbf85d5695db13e02b4350b22dec393f1957af56f271eb50d8774fff",
    "tank-f1bff6a6": "23805b671512c9f1716338c96ef255f965b94aee9a7819178043569da567e238",
    "two-237ac621": "4d874272471269ea3d98c6bbe651312e5ba890455a57fc9ebbb8ee668faafafc",
    "u-cac9539b": "225c1615ab3daa06691b2c8efeee8214b9635b2a5905510c42b668ab893ab546",
    "wide-d76505a5": "1206a84264aeac9508f41a68db71fe8249b8edce7aeab4028cddf41437b3d737",
    "za-7369280f": "1ad346a713796eeb8c1989bbae072afb3e4916376ac52e99b53f9ba598c6561f",
    "edge": "64811cfb5fa1367c868fb8facd3fef6f2fce897ebdfa08dcdaed7ac75f339ded",
}


def _pinned_source(name: str) -> str:
    if name.endswith(".ctl"):
        return (TESTS / "models" / name).read_text(encoding="utf-8")
    return EDGE_SRC if name == "edge" else MODEL_SOURCES[name]


class TestLexer:
    @pytest.mark.parametrize("name", sorted(TOKEN_SHA))
    def test_token_stream_pinned(self, name):
        tokens = [(t.kind, t.text, t.line, t.col) for t in tokenize(_pinned_source(name))]
        assert hashlib.sha256(repr(tokens).encode()).hexdigest() == TOKEN_SHA[name]

    def test_unexpected_character_after_a_tab(self):
        with pytest.raises(ParseError) as err:
            parse_model("model m {\n\t@ }")
        assert (str(err.value), err.value.line, err.value.col) == (
            "2:2: unexpected character '@'", 2, 2)


class TestParse:
    def test_iron_shape(self, iron_ast):
        assert iron_ast.name == "iron"
        assert iron_ast.input_names == ("move", "position")
        assert iron_ast.output_names == ("heating",)
        assert iron_ast.state_vars == ()
        assert len(iron_ast.decisions()) == 3
        assert len(iron_ast.leaves()) == 4

    def test_derived_facts_are_cached_outside_equality(self, iron_src):
        ast, fresh = parse_model(iron_src), parse_model(iron_src)
        assert ast.domains == {"move": range(2), "position": range(2), "heating": range(2)}
        assert ast.readable_names == ()
        rewritten = extract_predicates(ast).model
        assert rewritten.leaf_boxes is rewritten.leaf_boxes
        assert ast.input_boxes is ast.input_boxes
        root = ast.body
        assert [a for a, _ in root.atoms] == ["position"]
        assert root.atoms is root.atoms
        # the cache lives in the instance dict: equality and hashing ignore it
        assert ast == fresh and hash(ast) == hash(fresh)

    def test_held_condition_ast(self):
        expr = parse_expression("held(!move && !position, 60s)")
        assert isinstance(expr, Held)
        assert expr.duration_ms == 60_000
        assert isinstance(expr.formula, And)
        assert isinstance(expr.formula.left, Not)

    def test_empty_logic_output_never_assigned(self):
        src = "model m { input a: bool; output o: bool; logic {} }"
        with pytest.raises(ParseError, match="output never assigned"):
            parse_model(src)

    def test_duplicate_declaration(self):
        src = "model m { input a: bool; output a: bool; logic { a = 1; } }"
        with pytest.raises(SemanticError, match="duplicate"):
            parse_model(src)

    def test_undeclared_identifier(self):
        src = "model m { input a: bool; output o: bool; logic { if (b) { o = 1; } else { o = 0; } } }"
        with pytest.raises(SemanticError, match="undeclared identifier 'b'"):
            parse_model(src)

    @pytest.mark.parametrize("decl, message", [
        ("bool readable = 5", "initializer 5 outside range 0..1"),
        ("int 1..3 readable = 0", "initializer 0 outside range 1..3"),
    ])
    def test_initializer_outside_its_domain(self, decl, message):
        src = ("model m { input a: bool; output o: bool; state s: %s; "
               "logic { o = a; } }" % decl)
        with pytest.raises(SemanticError, match=message):
            parse_model(src)

    def test_assign_to_input_rejected(self):
        src = "model m { input a: bool; output o: bool; logic { a = 1; o = 0; } }"
        with pytest.raises(SemanticError, match="cannot assign to input"):
            parse_model(src)

    def test_parse_error_carries_location_and_expected(self):
        with pytest.raises(ParseError) as err:
            parse_model("model m { input a bool; output o: bool; logic { o = 1; } }")
        assert err.value.line == 1
        assert err.value.col > 0
        assert ":" in err.value.expected

    def test_held_outside_condition_rejected(self):
        src = "model m { input a: bool; output o: bool; logic { o = held(a, 5s); } }"
        with pytest.raises(SemanticError, match="decision conditions"):
            parse_model(src)

    def test_nested_held_rejected(self):
        src = ("model m { input a: bool; output o: bool; "
              "logic { if (held(held(a, 5s), 6s)) { o = 1; } else { o = 0; } } }")
        with pytest.raises(SemanticError, match="nested"):
            parse_model(src)

    @pytest.mark.parametrize("logic, col", [
        ("if (held(o, 1s)) { o = 1; } else { o = 0; }", 59),
        ("if (held(a && o, 1s)) { o = 1; } else { o = 0; }", 64),
        ("if (o) { o = 1; } else { o = 0; }", 54),
        ("if (a) { o = 1; } else { o = o; }", 79),
    ], ids=["held", "held-conjunct", "condition", "assignment"])
    def test_output_read_rejected_at_its_position(self, logic, col):
        src = "model m { input a: bool; output o: bool; logic { %s } }" % logic
        with pytest.raises(SemanticError, match="cannot read output 'o'") as err:
            parse_model(src)
        assert (err.value.line, err.value.col) == (1, col)
        assert src[col - 1] == "o"

    def test_held_over_input_and_state_accepted(self):
        parse_model("model m { input a: bool; output o: bool; state s: bool hidden = 0; "
                    "logic { if (held(a && s, 1s)) { o = 1; s = 0; } else { o = 0; s = a; } } }")

    def test_int_range_and_ms_durations(self):
        src = ("model m { input level: int 0..3; output o: bool; "
               "logic { if (held(level == 2, 1500ms)) { o = 1; } else { o = 0; } } }")
        ast = parse_model(src)
        assert ast.inputs[0].domain() == range(0, 4)
        held = next(e for e in walk_nodes(ast.body) if not isinstance(e, Leaf)).condition
        assert held.duration_ms == 1500

    def test_paper_tank_is_tank_at_600_and_450_s(self):
        # the file that CI's paper-scale tank step reads without a remap
        shipped = parse_model((TESTS / "models" / "tank_paper.ctl").read_text(encoding="utf-8"))
        assert shipped == rescale_durations(parse_model(TANK_SRC), {2000: 600_000, 1500: 450_000})


class TestRoundTrip:
    def test_iron_fixpoint(self, iron_src, iron_ast):
        printed = print_model(iron_ast)
        reparsed = parse_model(printed)
        assert reparsed == iron_ast
        assert print_model(reparsed) == printed

    def test_random_models_fixpoint(self):
        rng = random.Random(2401)
        for _ in range(60):
            src = _random_model_source(rng)
            ast = parse_model(src)
            assert parse_model(print_model(ast)) == ast

    def test_node_ids_are_paths_and_stable(self, iron_ast):
        ids = [n.node_id for n in walk_nodes(iron_ast.body)]
        assert ids == ["", "t", "tt", "te", "e", "et", "ee"]
        leaf_ids = [l.node_id for l in iron_ast.leaves()]
        for a, b in itertools.permutations(leaf_ids, 2):
            assert not a.startswith(b)
        reparsed = parse_model(print_model(iron_ast))
        assert [n.node_id for n in walk_nodes(reparsed.body)] == ids


class TestExtraction:
    def test_iron_predicates(self, iron_extraction):
        preds = [(p.id, p.var, p.expected, p.duration_ms) for p in iron_extraction.predicates]
        assert preds == [
            ("move_eq_f_t1", "move", 0, 60_000),
            ("position_eq_f_t1", "position", 0, 60_000),
            ("move_eq_f_t2", "move", 0, 900_000),
            ("position_eq_t_t2", "position", 1, 900_000),
        ]

    def test_rewritten_model_has_no_held(self, iron_extraction):
        from cyclotest.dsl import walk_exprs

        for dec in iron_extraction.model.decisions():
            assert not any(isinstance(e, Held) for e in walk_exprs(dec.condition))

    def test_duplicate_held_shares_one_id(self):
        src = ("model m { input a: bool; output o: bool; logic { "
               "if (held(!a, 60s)) { o = 1; } else { "
               "if (held(!a, 60s)) { o = 1; } else { o = 0; } } } }")
        ex = extract_predicates(parse_model(src))
        assert len(ex.predicates) == 1
        assert ex.predicates[0].id == "a_eq_f_t1"

    def test_non_conjunction_rejected(self):
        src = ("model m { input a: bool; input b: bool; output o: bool; "
               "logic { if (held(a || b, 60s)) { o = 1; } else { o = 0; } } }")
        with pytest.raises(UnsupportedTemporalFormula):
            extract_predicates(parse_model(src))

    def test_int_literal_predicates(self):
        src = ("model m { input level: int 0..3; output o: bool; "
               "logic { if (held(level == 2, 5s)) { o = 1; } else { o = 0; } } }")
        ex = extract_predicates(parse_model(src))
        assert ex.predicates[0].id == "level_eq_2_t1"
        assert ex.predicates[0].expected == 2

    def test_decomposition_preserves_semantics_iron(self, iron_ast):
        _check_decomposition(rescale_durations(iron_ast, {60_000: 1000, 900_000: 2000}), depth=5)

    def test_decomposition_preserves_semantics_random(self):
        rng = random.Random(515)
        for _ in range(25):
            ast = parse_model(_random_model_source(rng, max_duration_cycles=2))
            _check_decomposition(ast, depth=4)


def _check_decomposition(ast, depth):
    """Rewritten model with predicate flags from the atomic oracle equals the
    original model with held() evaluated directly, over all short histories."""
    from cyclotest.interp import eval_model

    ex = extract_predicates(ast)
    domains = [decl.domain() for decl in ast.inputs]
    names = [decl.name for decl in ast.inputs]
    state0 = ast.initial_state()

    def run(seq):
        atomic = WindowOracle(ex.predicates, 1000)
        compound = CompoundWindowOracle(ast, 1000)
        state_a = dict(state0)
        state_b = dict(state0)
        for inputs in seq:
            env_a = {**state_a, **inputs}
            flags = atomic.step(env_a)
            out_a, state_a, _ = eval_model(ex.model, inputs, state_a, flags)

            env_b = {**state_b, **inputs}
            compound.step(env_b)
            out_b, state_b = _eval_original(ast, inputs, state_b, compound)
            assert out_a == out_b, (seq, out_a, out_b)
            assert state_a == state_b

    for length in range(1, depth + 1):
        for combo in itertools.product(itertools.product(*domains), repeat=length):
            run([dict(zip(names, values)) for values in combo])


def _eval_original(ast, inputs, state_pre, compound):
    from cyclotest.dsl import Const, Decision, _map_held

    env = {**{k: int(v) for k, v in state_pre.items()}, **{k: int(v) for k, v in inputs.items()}}
    node = ast.body
    while isinstance(node, Decision):
        # each held() node is its window's value this cycle
        condition = _map_held(node.condition, lambda held: Const(compound.held_eval(held)))
        outcome = eval_expr(condition, env)
        node = node.then_branch if outcome else node.else_branch
    outputs = {}
    state_post = dict(state_pre)
    for assign in node.assigns:
        value = eval_expr(assign.value, env)
        if assign.target in state_post:
            state_post[assign.target] = value
        else:
            outputs[assign.target] = value
    return outputs, state_post


class TestEvaluation:
    @pytest.mark.parametrize("op", ["==", "!=", "<", "<=", ">", ">="])
    def test_comparisons_agree_with_python(self, op):
        expr = parse_expression("a %s b" % op)
        for a, b in itertools.product(range(-1, 3), repeat=2):
            want = 1 if eval("%d %s %d" % (a, op, b)) else 0
            assert eval_expr(expr, {"a": a, "b": b}) == want, (a, op, b)


# the variables of TestSymbolicWalk's conditions: int domains with and
# without 0, and two bools
WALK_DECLS = "input a: int 0..4; input b: int 2..6; input c: bool; input d: bool;"
CMP_OPS = ["==", "!=", "<", "<=", ">", ">="]


def _random_condition(rng, depth: int = 3) -> str:
    """A condition over WALK_DECLS' variables with every operator, constants
    on either side of a comparison and conditions as its operands; ``a`` and
    ``b`` as conditions too, which a checked model would refuse."""
    roll = rng.randrange(6) if depth else rng.randrange(2)
    if roll == 0:
        return rng.choice(["a", "b", "c", "d", "true", "false"])
    if roll == 1:
        sides = ["a", "b", "c", "d", "0", "3", "5"]
        return "%s %s %s" % (rng.choice(sides), rng.choice(CMP_OPS), rng.choice(sides))
    left, right = ("(%s)" % _random_condition(rng, depth - 1) for _ in range(2))
    if roll == 2:
        return "!" + left
    if roll == 3:  # conditions as the operands of a comparison
        return "%s %s %s" % (left, rng.choice(CMP_OPS), right)
    return "%s %s %s" % (left, rng.choice(["&&", "||"]), right)


class TestSymbolicWalk:
    """``ModelAst.leaf_boxes`` against ``eval_expr``: the boxes of each leaf
    hold exactly the points whose walk reaches the leaf, each point once,
    with each box component ascending."""

    @staticmethod
    def _assert_walk_exact(ast) -> None:
        names = ast.input_names
        reached: dict = {}
        for values in itertools.product(*(ast.domains[n] for n in names)):
            env, node = dict(zip(names, values)), ast.body
            while isinstance(node, Decision):
                node = node.then_branch if eval_expr(node.condition, env) else node.else_branch
            reached.setdefault(node.node_id, []).append(values)
        got = {leaf_id: [p for box in boxes for p in itertools.product(*box)]
               for leaf_id, boxes in ast.leaf_boxes.leaves.items()}
        assert {k: sorted(v) for k, v in got.items()} == reached
        for boxes in ast.leaf_boxes.leaves.values():
            assert all(list(comp) == sorted(set(comp)) for box in boxes for comp in box)

    @pytest.mark.parametrize("condition", [
        "a < b", "a <= b", "a == b", "a != b", "a > b", "a >= b", "b < a",
        "a == a", "a != a", "a < a", "a <= a",
        "3 < a", "3 >= b", "5 == b", "a < 3", "b != 5", "0 < 3", "5 <= 3",
        "(c || d) == c", "!c < b", "(a < b) == (b < a)", "(c && d) != (a || b == 3)",
        "true", "false", "c", "!c", "a", "!a", "!!d",
        "c || d", "c && d", "!(c || d)", "!(c && !d)",
        "!(c && d) || a == 2 && !(b != 4 || d)",
    ])
    def test_each_rule(self, condition):
        self._assert_walk_exact(parse_model(
            "model m { %s output o: bool; logic { if (%s) { o = 1; } else { o = 0; } } }"
            % (WALK_DECLS, condition)))

    def test_random_nested_conditions(self):
        # the inner decisions split boxes that the outer one has split
        rng = random.Random(33)
        for _ in range(300):
            outer, inner, other = (_random_condition(rng) for _ in range(3))
            source = ("model m { %s output o: int 0..3; logic { if (%s) { if (%s) { o = 1; } "
                      "else { o = 2; } } else { if (%s) { o = 3; } else { o = 0; } } } }"
                      % (WALK_DECLS, outer, inner, other))
            self._assert_walk_exact(parse_model(source))


class TestCheckModel:
    def test_iron_clean(self, iron_ast):
        assert check_model(iron_ast) == []

    def test_incomplete_output(self):
        src = ("model m { input a: bool; output o: bool; "
               "logic { if (a) { o = 1; } else { } } }")
        diags = check_model(parse_model(src))
        assert [d.code for d in diags] == ["IncompleteOutput"]
        assert diags[0].node_id == "e"
        # at the else block's opening brace
        assert (diags[0].line, diags[0].col) == (1, 73)

    def test_unreachable_leaf(self):
        src = ("model m { input position: bool; output o: bool; logic { "
               "if (!position) { if (position) { o = 1; } else { o = 0; } } "
               "else { o = 1; } } }")
        diags = check_model(parse_model(src))
        assert [d.code for d in diags] == ["UnreachableLeaf"]
        assert diags[0].node_id == "tt"
        assert (diags[0].line, diags[0].col) == (1, 88)

    @pytest.mark.parametrize("condition", ["a == 5", "held(a == 5, 1s)"])
    def test_literal_outside_its_domain_leaves_its_leaf_unreachable(self, condition):
        ast = parse_model("model m { input a: int 0..2; output o: bool; logic { "
                          "if (%s) { o = 1; } else { o = 0; } } }" % condition)
        diags = check_model(ast)
        assert [(d.code, d.node_id) for d in diags] == [("UnreachableLeaf", "t")]
        assert unreachable_leaves_bruteforce(ast) == {"t"}

    def test_wide_model_dead_leaf_at_its_position(self):
        source, position = _wide_source(dead=True)
        start = time.perf_counter()
        diags = check_model(parse_model(source))
        assert time.perf_counter() - start < 1.0
        assert [(d.code, d.node_id, d.line, d.col) for d in diags] == [
            ("UnreachableLeaf", "ett", *position)]

    def test_wide_model_without_dead_leaf_is_clean(self):
        source, _ = _wide_source(dead=False)
        start = time.perf_counter()
        assert check_model(parse_model(source)) == []
        assert time.perf_counter() - start < 1.0

    def test_type_error_int_condition(self):
        src = ("model m { input level: int 0..3; output o: bool; "
               "logic { if (level) { o = 1; } else { o = 0; } } }")
        diags = check_model(parse_model(src))
        assert any(d.code == "TypeError" for d in diags)

    def test_out_of_range_assignment(self):
        src = ("model m { input a: bool; output o: int 0..2; "
               "logic { if (a) { o = 7; } else { o = 0; } } }")
        diags = check_model(parse_model(src))
        assert any(d.code == "ValueOutOfRange" for d in diags)

    @pytest.mark.parametrize("value, message", [
        ("7", "7 outside 2..3 for 'o'"),
        ("w", "'w' in 0..5 can fall outside 2..3 for 'o'"),
        ("b", "'b' in 0..1 can fall outside 2..3 for 'o'"),
        ("a && b", "'a && b' in 0..1 can fall outside 2..3 for 'o'"),
        ("w == 2", "'w == 2' in 0..1 can fall outside 2..3 for 'o'"),
    ])
    def test_assigned_values_outside_the_target_domain(self, value, message):
        src = ("model m { input a: bool; input b: bool; input w: int 0..5; output o: int 2..3; "
               "logic { if (a) { o = %s; } else { o = 2; } } }" % value)
        diags = check_model(parse_model(src))
        assert [(d.severity, d.code, d.message) for d in diags] == [
            ("error", "ValueOutOfRange", message)]

    @pytest.mark.parametrize("value", ["2", "3", "v", "n"])
    def test_assigned_values_inside_the_target_domain(self, value):
        src = ("model m { input a: bool; input v: int 2..3; input n: int 3..3; "
               "output o: int 2..3; logic { if (a) { o = %s; } else { o = 2; } } }" % value)
        assert check_model(parse_model(src)) == []

    def test_diagnostic_format(self):
        src = ("model m { input a: bool; output o: bool; "
               "logic { if (a) { o = 1; } else { } } }")
        diag = check_model(parse_model(src))[0]
        assert diag.format("m.ctl").startswith("m.ctl:")
        assert ": error: " in diag.format("m.ctl")


def _wide_source(dead: bool) -> tuple:
    """A model over 20 bool inputs, whose 2^20 input valuations no leaf
    check may enumerate, and the line and column of its leaf 'ett', which
    ``dead`` makes unreachable."""
    lines = ["model wide {"] + ["  input a%d: bool;" % i for i in range(20)] + [
        "  output o: int 0..3;",
        "  logic {",
        "    if (held(a0 && !a1, 2s) || a2 && a3) { o = 1; } else {",
        "      if (a4 && a5 || a6 && a7 && a8) {",
        "        if (%s) {" % ("!a4 && !a6" if dead else "!a4 && a8"),
        "          o = 2;",
        "        } else { o = 3; }",
        "      } else {",
        "        if (a9 || a10 || a11 || a12 || a13 || a14) { o = 1; } else {",
        "          if (held(a15 && a16 && !a17, 3s) && a18) { o = 2; } else { o = a19; }",
        "        }",
        "      }",
        "    }",
        "  }",
        "}",
    ]
    line = lines.index("          o = 2;")  # 1-based, the line of the block's brace
    return "\n".join(lines) + "\n", (line, lines[line - 1].index("{") + 1)


def _random_model_source(rng, max_duration_cycles=3):
    """Valid random sources: boolean inputs a/b, one output, random tree."""
    atoms = ["a", "b", "!a", "!b"]

    def condition():
        roll = rng.random()
        if roll < 0.45:
            lits = rng.sample(["!a", "!b", "a", "b"], rng.randint(1, 2))
            return "held(%s, %ds)" % (" && ".join(lits), rng.randint(1, max_duration_cycles))
        if roll < 0.7:
            return rng.choice(atoms)
        return "%s %s %s" % (rng.choice(atoms), rng.choice(["&&", "||"]), rng.choice(atoms))

    def block(depth):
        if depth == 0 or rng.random() < 0.4:
            return "{ o = %d; }" % rng.randint(0, 1)
        return "{ if (%s) %s else %s }" % (condition(), block(depth - 1), block(depth - 1))

    return "model r { input a: bool; input b: bool; output o: bool; logic %s }" % block(2)
