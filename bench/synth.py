"""Seeded synthetic models for the ``synth-wide`` workload, and their subject.

The generator builds a full binary decision tree over k inputs (some of them
``int`` domains) with m ``held()`` conditions, and renders it as ``.ctl``
text.  What drives the cost of reduction and traversal is fixed by the
parameters, not by the seed: every decision sits at depth < d, every held()
condition has a fixed literal count and duration, and the held() literals
sit on distinct inputs, so the reachable temporal state space has the same
size for every seed.  The seed picks which inputs and values the conditions
test and what the leaves assign.

``SynthSut`` runs the generator's own tree with one compound timer per
held() condition, the way ``cyclotest.iron.IronSut`` does.  It shares no code
with the model interpreter or the temporal core, so an all-Pass campaign is
evidence that the two agree.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

# inputs, int inputs among them, their domain's upper end, tree depth, literal
# count and duration in cycles per held() condition, abstract states to reach
SHAPE = dict(
    n_inputs=5,
    n_int=1,
    int_hi=2,
    depth=4,
    held_literals=(2, 1, 1),
    held_cycles=(2, 2, 3),
    states=8,
)
PERIOD_MS = 1000
TEMPLATE_SEED = 1
MAX_ATTEMPTS = 64


@dataclass(frozen=True)
class Cmp:
    """Input atom ``var op const``; for a bool input ``op`` is ``==``."""

    var: str
    op: str
    const: int


@dataclass(frozen=True)
class HeldCond:
    """``held(lit && lit ..., N s)``; literals are ``(var, value)`` pairs."""

    literals: tuple
    cycles: int


@dataclass(frozen=True)
class Term:
    negated: bool
    atom: object  # Cmp | int (index into SynthModel.held)


@dataclass(frozen=True)
class Decision:
    joiner: str  # "&&" | "||"
    terms: tuple
    then_branch: object
    else_branch: object


@dataclass(frozen=True)
class Leaf:
    assigns: tuple  # ((output, const int | input name), ...)


@dataclass(frozen=True)
class SynthModel:
    name: str
    inputs: tuple  # ((name, hi), ...) with hi 1 for bool
    outputs: tuple  # ((name, hi), ...)
    held: tuple  # HeldCond, ...
    body: object

    def domain(self, name: str) -> range:
        return range(dict(self.inputs)[name] + 1)


def _is_bool(model_inputs: dict, var: str) -> bool:
    return model_inputs[var] == 1


def generate(seed: int) -> SynthModel:
    """One candidate model of ``SHAPE`` for ``seed``; may fail ``check_model``."""
    rng = random.Random(seed)
    names = ["i%d" % i for i in range(SHAPE["n_inputs"])]
    int_names = set(rng.sample(names, SHAPE["n_int"]))
    inputs = tuple((n, SHAPE["int_hi"] if n in int_names else 1) for n in names)
    his = dict(inputs)
    outputs = (("o0", 1), ("o1", 3))

    # held() literals on distinct inputs: the temporal state space then has
    # the same size whatever the seed picks.
    lit_vars = rng.sample(names, sum(SHAPE["held_literals"]))
    held = []
    for count, cycles in zip(SHAPE["held_literals"], SHAPE["held_cycles"]):
        chosen, lit_vars = lit_vars[:count], lit_vars[count:]
        held.append(HeldCond(tuple((v, rng.randint(0, his[v])) for v in chosen), cycles))
    held_slots = set(rng.sample(range(2 ** SHAPE["depth"] - 1), len(held)))
    held_order = list(range(len(held)))
    rng.shuffle(held_order)

    def input_atom(var: str) -> Cmp:
        if _is_bool(his, var):
            return Cmp(var, "==", 1)
        op = rng.choice(("==", "!=", ">=", "<="))
        lo, hi = (1, his[var]) if op == ">=" else (0, his[var] - 1) if op == "<=" else (0, his[var])
        return Cmp(var, op, rng.randint(lo, hi))

    counter = iter(range(2 ** SHAPE["depth"]))

    def node(depth: int, used: frozenset):
        if depth == SHAPE["depth"]:
            assigns = []
            for out, hi in outputs:
                if hi == 1 or rng.random() < 0.7:
                    assigns.append((out, rng.randint(0, hi)))
                else:
                    assigns.append((out, rng.choice([n for n in names if his[n] <= hi])))
            return Leaf(tuple(assigns))
        slot = next(counter)
        terms = []
        if slot in held_slots:
            terms.append(Term(rng.random() < 0.3, held_order.pop()))
        # An input tests at most once on a path, so no leaf is unreachable;
        # a second atom only when enough inputs stay for the decisions below.
        free = [n for n in names if n not in used]
        wanted = 2 if len(free) - 2 >= SHAPE["depth"] - depth - 1 and rng.random() < 0.5 else 1
        picked = rng.sample(free, wanted - len(terms))
        for var in picked:
            terms.append(Term(rng.random() < 0.3, input_atom(var)))
        rng.shuffle(terms)
        then_branch = node(depth + 1, used | set(picked))
        else_branch = node(depth + 1, used | set(picked))
        return Decision(rng.choice(("&&", "||")), tuple(terms), then_branch, else_branch)

    body = node(0, frozenset())
    return SynthModel("synth%d" % seed, inputs, outputs, tuple(held), body)


def generate_valid(seed: int, accept):
    """First candidate from ``seed`` that reaches ``SHAPE``'s abstract state
    count and whose ``.ctl`` text ``accept`` takes.

    Candidates are seeded ``seed * MAX_ATTEMPTS + attempt``; returns the
    model, its text and the list of rejected candidate seeds.
    """
    rejected = []
    for attempt in range(MAX_ATTEMPTS):
        candidate = seed * MAX_ATTEMPTS + attempt
        model = generate(candidate)
        if abstract_state_count(model) == SHAPE["states"]:
            text = render(model)
            if accept(text):
                return model, text, rejected
        rejected.append(candidate)
    raise ValueError("no valid synthetic model for seed %d in %d attempts" % (seed, MAX_ATTEMPTS))


def relabel(model: SynthModel, seed: int) -> SynthModel:
    """An isomorphic copy of ``model``: inputs renamed by a seeded
    permutation, each input's values mirrored or not, leaf constants drawn
    afresh.  Every decision keeps its outcome on corresponding valuations,
    so the tree, the temporal state space and the abstract automaton keep
    their shape and size.
    """
    rng = random.Random(seed)
    names = [n for n, _ in model.inputs]
    his = dict(model.inputs)
    rename = dict(zip(names, rng.sample(names, len(names))))
    mirror = {n: rng.random() < 0.5 for n in names}

    def value(var: str, x: int) -> int:
        return his[var] - x if mirror[var] else x

    def term(t: Term) -> Term:
        if isinstance(t.atom, int):
            return t
        var, op, const = t.atom.var, t.atom.op, t.atom.const
        if his[var] == 1:  # bool atoms stay "var", mirroring negates them
            return Term(t.negated != mirror[var], Cmp(rename[var], op, const))
        if mirror[var]:
            op = {">=": "<=", "<=": ">="}.get(op, op)
        return Term(t.negated, Cmp(rename[var], op, value(var, const)))

    def node(n):
        if isinstance(n, Leaf):
            return Leaf(tuple((out, rename[v] if isinstance(v, str) else rng.randint(0, hi))
                              for (out, v), (_, hi) in zip(n.assigns, model.outputs)))
        return Decision(n.joiner, tuple(term(t) for t in n.terms),
                        node(n.then_branch), node(n.else_branch))

    inputs = tuple(sorted((rename[n], hi) for n, hi in model.inputs))
    held = tuple(HeldCond(tuple((rename[v], value(v, x)) for v, x in c.literals), c.cycles)
                 for c in model.held)
    return SynthModel("synth%d" % seed, inputs, model.outputs, held, node(model.body))


# ---------------------------------------------------------------------------
# Rendering


def _render_atom(model: SynthModel, atom) -> str:
    his = dict(model.inputs)
    if isinstance(atom, int):
        cond = model.held[atom]
        lits = " && ".join(_render_literal(his, v, val) for v, val in cond.literals)
        return "held(%s, %ds)" % (lits, cond.cycles * PERIOD_MS // 1000)
    if _is_bool(his, atom.var):
        return atom.var
    return "%s %s %d" % (atom.var, atom.op, atom.const)


def _render_literal(his: dict, var: str, value: int) -> str:
    if his[var] == 1:
        return var if value else "!" + var
    return "%s == %d" % (var, value)


def _render_term(model: SynthModel, term: Term) -> str:
    text = _render_atom(model, term.atom)
    if not term.negated:
        return text
    if isinstance(term.atom, Cmp) and " " in text:
        return "!(%s)" % text
    return "!" + text


def render(model: SynthModel) -> str:
    lines = ["// synthetic model, generated", "model %s {" % model.name]
    for name, hi in model.inputs:
        lines.append("  input %s: %s;" % (name, "bool" if hi == 1 else "int 0..%d" % hi))
    for name, hi in model.outputs:
        lines.append("  output %s: %s;" % (name, "bool" if hi == 1 else "int 0..%d" % hi))
    lines.append("")
    lines.append("  logic {")

    def emit(node, pad: str) -> None:
        if isinstance(node, Leaf):
            for out, value in node.assigns:
                lines.append("%s%s = %s;" % (pad, out, value))
            return
        cond = (" %s " % node.joiner).join(_render_term(model, t) for t in node.terms)
        lines.append("%sif (%s) {" % (pad, cond))
        emit(node.then_branch, pad + "  ")
        lines.append("%s} else {" % pad)
        emit(node.else_branch, pad + "  ")
        lines.append("%s}" % pad)

    emit(model.body, "    ")
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subject


_OPS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    ">=": lambda a, b: a >= b,
    "<=": lambda a, b: a <= b,
}


class SynthSut:
    """Cyclic step function of a synthetic model.

    One timer per held() condition holds the system time at which the whole
    conjunction began to hold, or -1; a condition fires once the elapsed
    time reaches its duration (inclusive), all against the frozen per-cycle
    system time.
    """

    def __init__(self, model: SynthModel, period_ms: int = PERIOD_MS):
        self.model = model
        self._durations = [c.cycles * period_ms for c in model.held]
        self._since = [-1] * len(model.held)

    def visible_state(self) -> dict:
        return {}

    def step(self, inputs: dict, sys_time_ms: int) -> dict:
        values = {name: int(inputs[name]) for name, _ in self.model.inputs}
        fired = []
        for k, cond in enumerate(self.model.held):
            if all(values[var] == want for var, want in cond.literals):
                if self._since[k] < 0:
                    self._since[k] = sys_time_ms
            else:
                self._since[k] = -1
            fired.append(self._since[k] >= 0 and sys_time_ms - self._since[k] >= self._durations[k])

        node = _walk(self.model.body, values, fired)
        return {out: values[v] if isinstance(v, str) else v for out, v in node.assigns}


def abstract_state_count(model: SynthModel) -> int:
    """Number of abstract states a settle/probe campaign reaches.

    Each action ends with one valuation held until every held() condition is
    saturated, so a reached state is fixed by which conditions fire: the
    initial all-quiet state, or the conditions true under some valuation.
    A state's abstract vector marks the leaves some input valuation reaches
    there.  Counted by brute force over the generator's own tree.
    """
    names = [n for n, _ in model.inputs]
    valuations = [dict(zip(names, combo))
                  for combo in itertools.product(*(model.domain(n) for n in names))]
    fired_sets = {tuple(False for _ in model.held)}
    for values in valuations:
        fired_sets.add(tuple(all(values[v] == want for v, want in c.literals)
                             for c in model.held))
    vectors = set()
    for fired in fired_sets:
        leaves = set()
        for values in valuations:
            leaves.add(id(_walk(model.body, values, fired)))
        vectors.add(frozenset(leaves))
    return len(vectors)


def _walk(node, values: dict, fired) -> Leaf:
    while isinstance(node, Decision):
        truths = []
        for term in node.terms:
            if isinstance(term.atom, int):
                value = fired[term.atom]
            else:
                value = _OPS[term.atom.op](values[term.atom.var], term.atom.const)
            truths.append(value != term.negated)
        outcome = all(truths) if node.joiner == "&&" else any(truths)
        node = node.then_branch if outcome else node.else_branch
    return node
