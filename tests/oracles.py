"""Independent oracles used by the test suite.

Everything here recomputes expected behavior from first principles, by
different algorithms than the implementation: temporal satisfaction by
scanning a window of recent samples instead of tracking start times, a
hold-table step and flags read off the table's literals and thresholds
instead of generated for them, model evaluation over raw held() formulas,
a reference run that walks the decision tree instead of running the
compiled model, explicit automata with known transition tables, a
definitional pairwise MC/DC scan, a contract oracle that walks the model on
every cycle, a reachability search that walks it on every step, an
observation check that words every fault as it goes, and a kernel that
builds each cycle record as the cycle ends.  ``eval_expr`` evaluates an
expression at one point, where the implementation generates code or
splits sets of values by the expression's structure.  ``print_model``
renders a model to source, the round-trip reference for ``parse_model``.
"""
from __future__ import annotations

import itertools
import json
import time
from collections import deque

from cyclotest.contracts import Specification, Verdict, VerdictKind
from cyclotest.dsl import (_CMP_FUNCTIONS, And, Cmp, Const, Decision, Held, Leaf, ModelError, Name,
                          Not, Or, PredRef, _map_held, free_vars, print_expr, walk_exprs)
from cyclotest.interp import DecisionRecord, DecisionTrace
from cyclotest.kernel import CycleRecord
from cyclotest.mediator import ProtocolError
from cyclotest.reduction import ReachabilityReport, enumerate_test_cases
from cyclotest.temporal import HoldTable
from cyclotest.traversal import Action, LogEntry, Scenario


def cycles_for(duration_ms: int, period_ms: int) -> int:
    return -(-duration_ms // period_ms)


def window_size(duration_ms: int, period_ms: int, strict: bool = False) -> int:
    """Holding samples a predicate needs: k samples span (k-1)*P ms, which
    must reach D, or exceed it when strict."""
    if strict:
        return duration_ms // period_ms + 2
    return cycles_for(duration_ms, period_ms) + 1


class WindowOracle:
    """Temporal predicates by brute force: a predicate with duration D at
    period P is satisfied exactly when the literal held in each of the last
    ceil(D/P)+1 samples, or floor(D/P)+2 when ``strict`` (the first holding
    cycle contributes zero elapsed time)."""

    def __init__(self, predicates, period_ms: int, strict: bool = False):
        self.period_ms = period_ms
        self.preds = list(predicates)
        self.need = {p.id: window_size(p.duration_ms, period_ms, strict) for p in self.preds}
        self.history = {p.id: deque(maxlen=self.need[p.id]) for p in self.preds}

    def step(self, env) -> dict:
        for p in self.preds:
            self.history[p.id].append(int(env[p.var]) == p.expected)
        return self.flags()

    def flags(self) -> dict:
        return {
            p.id: len(self.history[p.id]) == self.need[p.id] and all(self.history[p.id])
            for p in self.preds
        }

    def state_key(self) -> tuple:
        return tuple(tuple(self.history[p.id]) for p in self.preds)


class ReferenceHoldTable:
    """A :class:`HoldTable`'s step as comprehensions over its
    ``(var, expected, cap)`` literals and ``(literal index, need)``
    thresholds, which ``in_cycles(1)`` gives in ms, each literal read in the
    inputs and the state, its values named by ``state_names``, merged into
    one namespace; the flags as a tuple of ``int``s in predicate order."""

    def __init__(self, table: HoldTable, state_names=()):
        self.predicate_ids = table.predicate_ids
        self.initial = table.initial
        self.state_names = tuple(state_names)
        self.literals, self.thresholds = table.in_cycles(1)

    def step(self, record: tuple, inputs, state: tuple, elapsed_ms: int) -> tuple:
        env = {**dict(zip(self.state_names, state)), **inputs}
        record = tuple([
            None if env[var] != expected
            else 0 if held is None
            else min(held + elapsed_ms, cap)
            for (var, expected, cap), held in zip(self.literals, record)
        ])
        return record, self.flags(record)

    def flags(self, record: tuple) -> tuple:
        return tuple([int(record[i] is not None and record[i] >= n) for i, n in self.thresholds])


def eval_expr(expr, env) -> int:
    """Evaluate a pure expression to an int (booleans are 0/1).

    ``env`` is one namespace: it binds the variable names and the predicate
    ids alike, a predicate id to a bool or 0/1.  A held() node must have been
    rewritten first (:func:`~cyclotest.dsl.extract_predicates`).
    """
    if isinstance(expr, (Name, PredRef)):
        return int(env[expr.ident])
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Not):
        return 0 if eval_expr(expr.operand, env) else 1
    if isinstance(expr, And):
        if not eval_expr(expr.left, env):
            return 0
        return 1 if eval_expr(expr.right, env) else 0
    if isinstance(expr, Or):
        if eval_expr(expr.left, env):
            return 1
        return 1 if eval_expr(expr.right, env) else 0
    if isinstance(expr, Cmp):
        left = eval_expr(expr.left, env)
        right = eval_expr(expr.right, env)
        return 1 if _CMP_FUNCTIONS[expr.op](left, right) else 0
    if isinstance(expr, Held):
        raise ModelError("held() reached the evaluator; extract predicates first")
    raise TypeError("not an expression node: %r" % (expr,))


def walk_model(ast, inputs, state_pre, time_flags) -> tuple:
    """``eval_model`` by walking the decision tree through ``eval_expr``:
    the same ``(outputs, state_post, trace)``."""
    env = {**state_pre, **inputs, **time_flags}
    records = []
    node = ast.body
    while isinstance(node, Decision):
        vector = tuple([(atom_id, bool(eval_expr(atom, env))) for atom_id, atom in node.atoms])
        outcome = bool(eval_expr(node.condition, env))
        records.append(DecisionRecord(node.node_id, outcome, vector))
        node = node.then_branch if outcome else node.else_branch

    outputs = {}
    state_post = dict(state_pre)
    for assign in node.assigns:
        value = eval_expr(assign.value, env)
        if assign.target in state_post:
            state_post[assign.target] = value
        else:
            outputs[assign.target] = value
    return outputs, state_post, DecisionTrace(ast.name, tuple(records), node.node_id)


def print_model(ast) -> str:
    """Render a model to canonical source; ``parse_model`` round-trips it."""
    lines = ["model %s {" % ast.name]
    for decl in ast.inputs:
        lines.append("  input %s: %s;" % (decl.name, _print_type(decl)))
    for decl in ast.outputs:
        lines.append("  output %s: %s;" % (decl.name, _print_type(decl)))
    for decl in ast.state_vars:
        lines.append(
            "  state %s: %s %s = %d;" % (decl.name, _print_type(decl), decl.visibility, decl.init)
        )
    lines.append("")
    lines.append("  logic " + _print_node(ast.body, 1).lstrip())
    lines.append("}")
    return "\n".join(lines) + "\n"


def _print_type(decl) -> str:
    if decl.type == "bool":
        return "bool"
    return "int %d..%d" % (decl.lo, decl.hi)


def _print_node(node, depth: int) -> str:
    pad = "  " * depth
    if isinstance(node, Leaf):
        body = "".join(
            "%s  %s = %s;\n" % (pad, a.target, print_expr(a.value)) for a in node.assigns
        )
        return "%s{\n%s%s}" % (pad, body, pad)
    then_text = _print_node(node.then_branch, depth + 1).lstrip()
    else_text = _print_node(node.else_branch, depth + 1).lstrip()
    return "%s{\n%s  if (%s) %s else %s\n%s}" % (
        pad,
        pad,
        print_expr(node.condition),
        then_text,
        else_text,
        pad,
    )


def _valuations(decls) -> list:
    names = [d.name for d in decls]
    return [dict(zip(names, values)) for values in itertools.product(*(d.domain() for d in decls))]


def reachable_flag_vectors(extraction, period_ms: int, strict: bool = False) -> set:
    """Every flag vector some input sequence reaches, by breadth-first search
    over state variables and the window of recent literal samples of each
    predicate, kept no longer than that predicate needs."""
    model = extraction.model
    preds = extraction.predicates
    valuations = _valuations(model.inputs)
    need = [window_size(p.duration_ms, period_ms, strict) for p in preds]

    def flags_of(windows) -> tuple:
        return tuple(int(len(w) == n and all(w)) for w, n in zip(windows, need))

    initial = (tuple(sorted(model.initial_state().items())), tuple(() for _ in preds))
    seen = {initial}
    frontier = deque([initial])
    while frontier:
        state_vars, windows = frontier.popleft()
        for inputs in valuations:
            env = dict(state_vars, **inputs)
            stepped = tuple((w + (int(env[p.var]) == p.expected,))[-n:]
                            for w, p, n in zip(windows, preds, need))
            flags = dict(zip((p.id for p in preds), flags_of(stepped)))
            _, post, _ = walk_model(model, inputs, dict(state_vars), flags)
            node = (tuple(sorted(post.items())), stepped)
            if node not in seen:
                seen.add(node)
                frontier.append(node)
    return {flags_of(windows) for _, windows in seen}


def enumerate_reachable_flag_states_reference(extraction, cycle_period_ms: int = 1000,
                                              strict: bool = False) -> ReachabilityReport:
    """The reachability search that ``enumerate_reachable_flag_states``
    replaced: the same breadth-first order, but every (node, valuation) step
    steps the hold record, by :class:`ReferenceHoldTable`, and runs the whole
    model for the post-state."""
    model = extraction.model
    state_names = tuple(model.initial_state())
    table = ReferenceHoldTable(HoldTable(extraction.predicates, state_names, strict), state_names)
    init_vars = tuple(sorted(model.initial_state().items()))
    initial = (init_vars, table.initial)

    frontier = deque([initial])
    witnesses: dict = {}  # vector -> trail, in discovery order
    state_pairs = set()
    parents = {initial: None}  # every node seen, with its BFS parent

    def record(state, vec):
        state_pairs.add((state[0], vec))
        if vec not in witnesses:
            trail = []
            node = state
            while parents[node] is not None:
                node, inputs = parents[node]
                trail.append(inputs)
            witnesses[vec] = list(reversed(trail))

    record(initial, table.flags(table.initial))
    while frontier:
        state = frontier.popleft()
        state_vars, holds = state
        for inputs in _valuations(model.inputs):
            state_pre = dict(state_vars)
            stepped, vec = table.step(holds, inputs, tuple(state_pre[name] for name in state_names),
                                      cycle_period_ms)
            flags = dict(zip(table.predicate_ids, vec))
            _, state_post, _ = walk_model(model, inputs, state_pre, flags)
            nxt = (tuple(sorted(state_post.items())), stepped)
            if nxt not in parents:
                parents[nxt] = (state, dict(inputs))
                record(nxt, vec)
                frontier.append(nxt)

    return ReachabilityReport(
        table.predicate_ids,
        2 ** len(table.predicate_ids),
        tuple(witnesses),
        witnesses,
        tuple(sorted(state_pairs)),
    )


def path_holds(factors, env) -> bool:
    """Every factor of a path condition holds in ``env``, which binds
    variables and predicate ids alike."""
    return all(eval_expr(f, env) for f in factors)


def projection_holds(projection, state_env, model) -> bool:
    """Existential input elimination by enumeration: some input valuation
    satisfies the projection's factors in this state.  A rewritten path
    condition works in place of its projection."""
    return any(path_holds(projection.factors, dict(state_env, **inputs))
               for inputs in _valuations(model.inputs))


def generalized_state_bruteforce(state_env, projections, model) -> tuple:
    return tuple(int(projection_holds(p, state_env, model)) for p in projections)


def coverable_cases_bruteforce(state_env, rewritten_cases, model) -> frozenset:
    """Cases whose rewritten path condition some input valuation satisfies."""
    return frozenset(pc.id for pc in rewritten_cases if projection_holds(pc, state_env, model))


def input_feasible_leaves_bruteforce(model) -> frozenset:
    """Leaves of cases whose factors over inputs alone some input valuation
    satisfies together, each case scanning every valuation on its own."""
    inputs = frozenset(model.input_names)
    feasible = set()
    for pc in enumerate_test_cases(model):
        pure = [f for f in pc.factors if free_vars(f) and free_vars(f) <= inputs]
        if any(all(eval_expr(f, v) for f in pure) for v in _valuations(model.inputs)):
            feasible.add(pc.leaf_id)
    return frozenset(feasible)


def piecemeal_inputs_bruteforce(ast, part: str):
    """The pinned and iterated inputs of a piecemeal part, by scanning every
    input valuation against the factors on the way to the part that read
    inputs alone, without held(); None when no valuation satisfies them."""
    inputs = frozenset(ast.input_names)
    factors = next(pc.factors[:len(part)] for pc in enumerate_test_cases(ast)
                   if pc.leaf_id.startswith(part))
    pure = [f for f in factors if free_vars(f) and free_vars(f) <= inputs
            and not any(isinstance(e, Held) for e in walk_exprs(f))]
    satisfying = [v for v in _valuations(ast.inputs) if all(eval_expr(f, v) for f in pure)]
    if not satisfying:
        return None
    values = {name: sorted({v[name] for v in satisfying}) for name in ast.input_names}
    return ({name: vs[0] for name, vs in values.items() if len(vs) == 1},
            {name: tuple(vs) for name, vs in values.items() if len(vs) > 1})


def unreachable_leaves_bruteforce(ast) -> set:
    """Leaves whose path factors no atom valuation satisfies, each leaf tested
    on its own; held() atoms, keyed by printed formula and duration, vary
    independently of the variables, except that one with a conjunct that no
    value of its variables satisfies stays 0."""
    helds = {}
    for dec in ast.decisions():
        for e in walk_exprs(dec.condition):
            if isinstance(e, Held):
                helds.setdefault((print_expr(e.formula), e.duration_ms), e.formula)

    def conjuncts(e) -> list:
        return conjuncts(e.left) + conjuncts(e.right) if isinstance(e, And) else [e]

    decls = ast.decls()

    def never_true(e) -> bool:
        return not any(eval_expr(e, env)
                       for env in _valuations([decls[name] for name in sorted(free_vars(e))]))

    values = [(0,) if any(map(never_true, conjuncts(formula))) else (0, 1)
              for formula in helds.values()]
    atom_valuations = [(env, dict(zip(helds, bits)))
                       for env in _valuations(ast.inputs + ast.state_vars)
                       for bits in itertools.product(*values)]

    def satisfied(factors, env, held) -> bool:
        return all(eval_expr(_map_held(f, lambda node: Const(
            held[(print_expr(node.formula), node.duration_ms)])), env) for f in factors)

    return {pc.leaf_id for pc in enumerate_test_cases(ast)
            if not any(satisfied(pc.factors, env, held) for env, held in atom_valuations)}


class CompoundWindowOracle:
    """Same brute-force scheme for whole held() formulas, unsplit."""

    def __init__(self, ast, period_ms: int):
        self.period_ms = period_ms
        self.helds = []
        seen = set()
        for dec in ast.decisions():
            for e in walk_exprs(dec.condition):
                if isinstance(e, Held):
                    key = (print_expr(e.formula), e.duration_ms)
                    if key not in seen:
                        seen.add(key)
                        self.helds.append((key, e))
        self.history = {
            key: deque(maxlen=cycles_for(e.duration_ms, period_ms) + 1)
            for key, e in self.helds
        }

    def step(self, env) -> None:
        for (key, e) in self.helds:
            self.history[key].append(bool(eval_expr(e.formula, env)))

    def held_eval(self, node: Held) -> int:
        hist = self.history[(print_expr(node.formula), node.duration_ms)]
        return 1 if (len(hist) == hist.maxlen and all(hist)) else 0


class PlainSpecification(Specification):
    """The contract oracle without its memos: it remembers no step, so every
    cycle steps the hold table, runs the model, accumulates the trace into
    coverage and synchronizes the state; every abstract state is derived
    afresh."""

    def _remember(self, key, ref, post):
        return post

    def reference(self, inputs, values, flags, key) -> tuple:
        result = walk_model(self.model, inputs, *self.named(values, flags))
        self.coverage.accumulate(result[2])
        return result

    def abstract_state(self, derive):
        state_vars, flags = self.named(self.state.values, self.state.flags)
        return derive({**state_vars, **flags})


# ---------------------------------------------------------------------------
# Explicit automata for the traversal oracle


def random_scc_automaton(rng, n_states: int, n_actions: int):
    """Total, deterministic, strongly connected transition table: one action
    forms a Hamiltonian cycle, the rest are random."""
    labels = ["a%d" % i for i in range(n_actions)]
    order = list(range(n_states))
    rng.shuffle(order)
    delta = {}
    for idx, state in enumerate(order):
        delta[(state, labels[0])] = order[(idx + 1) % n_states]
    for state in range(n_states):
        for label in labels[1:]:
            delta[(state, label)] = rng.randrange(n_states)
    return delta, labels, order[0]


class ExplicitSystem:
    """Wraps a transition table as a subject for the traversal engine."""

    def __init__(self, delta, initial):
        self.delta = delta
        self.state = initial
        self.initial = initial
        self.applied = 0

    def apply_stimulus(self, inputs) -> Verdict:
        self.state = self.delta[(self.state, inputs["action"])]
        self.applied += 1
        return Verdict(VerdictKind.PASS, cycle_index=self.applied - 1)

    def abstract_state(self):
        return self.state


def explicit_scenario(system: ExplicitSystem, labels) -> Scenario:
    def actions():
        return [Action(label, lambda v, L=label: [{"action": L}]) for label in labels]

    return Scenario("explicit", system.abstract_state, actions)


class ReferenceApply:
    """The traversal's ``_apply`` that logs one entry per stimulus, in
    ``entries`` rather than the traversal's log; set as ``traversal._apply``,
    it keeps the whole campaign's entries in order."""

    def __init__(self):
        self.entries = []

    def __call__(self, action, spec, scenario, log, source, replay):
        for stimulus in action.stimuli():
            verdict = spec.apply_stimulus(stimulus)
            self.entries.append(LogEntry(verdict.cycle_index, source, action.label,
                                         verdict.kind.value, replay))
            if verdict.kind is not VerdictKind.PASS:
                return scenario.state_fn(), verdict
        return scenario.state_fn(), None

    def json_lines(self) -> str:
        return "".join(entry_json(entry) + "\n" for entry in self.entries)


def entry_json(entry: LogEntry) -> str:
    """One log entry as the ``--log`` line that the campaign writes for it."""
    state = list(entry.state) if isinstance(entry.state, tuple) else entry.state
    data = {"cycle": entry.cycle, "state": state, "action": entry.action,
            "verdict": entry.verdict, "replay": entry.replay}
    return json.dumps(data, sort_keys=True)


class FlickeringStateSystem(ExplicitSystem):
    """Reports one chosen state faithfully only the first time it is seen;
    afterwards it reports a decoy, which makes the abstract automaton
    nondeterministic while the underlying table stays deterministic."""

    def __init__(self, delta, initial, unstable, decoy):
        super().__init__(delta, initial)
        self.unstable = unstable
        self.decoy = decoy
        self._seen_unstable = False

    def abstract_state(self):
        if self.state == self.unstable:
            if not self._seen_unstable:
                self._seen_unstable = True
                return self.state
            return self.decoy
        return self.state


def path_to_pending_reference(automaton, start):
    """The replay path by the original search: rebuild the label-sorted
    adjacency of every recorded transition, then BFS level by level from
    ``start``; targets on the first level with pending actions resolve to
    the smallest ``repr``."""
    adjacency: dict = {}
    for (state, label), (end, action) in automaton.transitions.items():
        adjacency.setdefault(state, []).append((label, end, action))
    for edges in adjacency.values():
        edges.sort(key=lambda e: e[0])

    parents = {start: None}
    frontier = deque([start])
    found: list = []
    while frontier and not found:
        next_frontier = []
        for _ in range(len(frontier)):
            state = frontier.popleft()
            for label, end, action in adjacency.get(state, ()):
                if end in parents:
                    continue
                parents[end] = (state, action)
                next_frontier.append(end)
                if automaton.pending.get(end):
                    found.append(end)
        frontier.extend(next_frontier)
    if not found:
        return None
    target = min(found, key=repr)
    path = []
    node = target
    while parents[node] is not None:
        state, action = parents[node]
        path.append((state, action))
        node = state
    path.reverse()
    return path


def make_nondeterministic(rng, n_states: int, n_actions: int):
    delta, labels, initial = random_scc_automaton(rng, n_states, n_actions)
    choices = [s for s in range(n_states) if s != initial]
    unstable = rng.choice(choices)
    for label in labels:  # no self-loops at the unstable state
        if delta[(unstable, label)] == unstable:
            delta[(unstable, label)] = (unstable + 1) % n_states
    system = FlickeringStateSystem(delta, initial, unstable, initial)
    return system, labels


# ---------------------------------------------------------------------------
# Definitional MC/DC


def mcdc_covered_bruteforce(vectors_with_outcomes, n_atoms: int) -> dict:
    """Per condition index: does any pair of vectors differ only there with
    different outcomes?  Straight from the unique-cause definition."""
    covered = {}
    items = sorted(vectors_with_outcomes)
    for i in range(n_atoms):
        covered[i] = False
        for (v1, o1), (v2, o2) in itertools.combinations(items, 2):
            if o1 == o2 or v1[i] == v2[i]:
                continue
            if all(a == b for j, (a, b) in enumerate(zip(v1, v2)) if j != i):
                covered[i] = True
                break
    return covered


def check_observation_reference(model, next_cycle: int, last_sys_time_ms, cycle, sys_time_ms,
                                outputs, state) -> tuple:
    """The observation a link at ``next_cycle``, whose previous observation
    had ``last_sys_time_ms`` (None before the first), accepts, as the plain
    tuple of its four parts, a dict as given and a dict subclass as a plain
    copy; or the :class:`ProtocolError` of its first misfit.  One check after
    another, each wording its own fault."""
    if cycle != next_cycle:
        raise ProtocolError("observation for cycle %s after set_inputs %d" % (cycle, next_cycle))
    if type(cycle) is not int:
        raise ProtocolError("observation cycle %r is not an integer" % (cycle,))
    if type(sys_time_ms) is not int:
        raise ProtocolError("observation sys_time_ms %r is not an integer" % (sys_time_ms,))
    if last_sys_time_ms is not None and sys_time_ms < last_sys_time_ms:
        raise ProtocolError("system time went back from %d ms to %d ms"
                            % (last_sys_time_ms, sys_time_ms))
    names = {"outputs": set(model.output_names), "state": set(model.readable_names)}
    for part, values in (("outputs", outputs), ("state", state)):
        if not isinstance(values, dict) or values.keys() != names[part]:
            raise ProtocolError("observation %s %r do not match the model" % (part, values))
        for name, value in values.items():
            if type(value) is not int:
                raise ProtocolError("observation %s '%s' = %r is not an integer"
                                    % (part, name, value))
            if value not in model.domains[name]:
                raise ProtocolError("observation %s '%s' = %d is outside its domain"
                                    % (part, name, value))
    return (cycle, sys_time_ms, *(values if type(values) is dict else dict(values)
                                  for values in (outputs, state)))


class ReferenceKernel:
    """A kernel that builds each cycle's record when the cycle ends, keeps
    its own clock of system time, and returns ``(record, outputs)``."""

    def __init__(self, config, step, monotonic=time.monotonic, sleep=time.sleep):
        self.config = config
        self._step = step
        self._monotonic = monotonic
        self._sleep = sleep
        self._sys_time_ms = 0
        self.records = []

    def run_cycle(self, inputs: dict) -> tuple:
        period = self.config.cycle_period_ms
        self._sys_time_ms += period
        begin = self._monotonic()
        outputs = self._step(inputs, self._sys_time_ms)
        exec_time_us = int((self._monotonic() - begin) * 1_000_000)
        overrun = (not self.config.streaming) and exec_time_us > period * 1000
        if not self.config.streaming:
            remainder = period / 1000.0 - (self._monotonic() - begin)
            if remainder > 0:
                self._sleep(remainder)
        record = CycleRecord(len(self.records), self._sys_time_ms, exec_time_us, overrun)
        self.records.append(record)
        return record, outputs
