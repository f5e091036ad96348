import itertools
import random
import time

import pytest

from cyclotest.dsl import (
    And,
    Held,
    Leaf,
    Not,
    ParseError,
    SemanticError,
    UnsupportedTemporalFormula,
    check_model,
    eval_expr,
    extract_predicates,
    parse_expression,
    parse_model,
    print_model,
    rescale_durations,
    walk_nodes,
)
from oracles import CompoundWindowOracle, WindowOracle, unreachable_leaves_bruteforce


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
    from cyclotest.dsl import Decision, eval_expr

    env = {**{k: int(v) for k, v in state_pre.items()}, **{k: int(v) for k, v in inputs.items()}}
    node = ast.body
    while isinstance(node, Decision):
        outcome = eval_expr(node.condition, env, None, compound.held_eval)
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
