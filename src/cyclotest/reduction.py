"""Coverage-targeted reduction of a model.

The four-step derivation of generalized states: (1) one path condition per
leaf (together they give branch coverage), (2) temporal conditions rewritten
over predicate identifiers, (3) projection onto the state space by
existentially eliminating the input atoms, (4) abstract states as the
projection-membership bit vector, which is one bit per leaf of the rewritten
model.  Plus: reachability enumeration of flag states and piecemeal scenario
skeletons.

No step enumerates the input valuations: each reads the boxes of one
symbolic walk of the decision tree per model (:class:`~.dsl.LeafBoxes`).
Step 4 reads the leaves' walk over the state (:attr:`~.dsl.ModelAst.leaf_boxes`)
and no :class:`Projection`: only ``reduce`` prints the projections, and only
it and the piecemeal skeletons walk the inputs alone
(:attr:`~.dsl.ModelAst.input_boxes`).

The reachability report has a declarative form that both of its searches
meet: a vector's witness is the lexicographically least sequence of input
valuations, each ordered as ``itertools.product`` orders the input
domains, among the shortest sequences that reach it, and the vectors come
in order of (witness length, witness).
"""
from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence

from .dsl import (
    Const,
    ExtractionResult,
    Leaf,
    ModelAst,
    Not,
    free_vars,
    print_conjunction,
)
from .interp import eval_model
from .temporal import HoldTable


class ReductionError(Exception):
    pass


class OverlappingParts(ReductionError):
    pass


# ---------------------------------------------------------------------------
# Steps 1-2: path conditions


@dataclass(frozen=True)
class PathCondition:
    """Conjunction of the decisions on the way to one leaf: each factor is a
    decision's condition, or its negation where the path takes the else
    branch."""

    id: str
    leaf_id: str
    factors: tuple

    def __str__(self) -> str:
        return print_conjunction(self.factors)


def enumerate_test_cases(ast: ModelAst) -> list:
    """One path condition per leaf, in pre-order; covering all of them covers
    every branch of the model."""
    return _path_conditions(ast.body, (), [])


def _path_conditions(node, factors: tuple, cases: list) -> list:
    if isinstance(node, Leaf):
        cases.append(PathCondition("case%d" % (len(cases) + 1), node.node_id, factors))
    else:
        _path_conditions(node.then_branch, factors + (node.condition,), cases)
        _path_conditions(node.else_branch, factors + (Not(node.condition),), cases)
    return cases


# ---------------------------------------------------------------------------
# Step 3: projection onto the state space


@dataclass(frozen=True)
class Projection:
    """Subspace of specification states in which a test case can be covered
    by some input valuation: the states from which some input walks the
    rewritten model to the case's leaf (see :func:`generalized_state`).

    Printed as the conjunction of ``factors``, under ``exists inputs:`` when
    they still name inputs.
    """

    id: str
    leaf_id: str
    factors: tuple
    exists_inputs: bool

    def __str__(self) -> str:
        text = print_conjunction(self.factors)
        return "exists inputs: " + text if self.exists_inputs else text


def project_to_state(pc: PathCondition, model: ModelAst) -> Projection:
    """Project a rewritten path condition of ``model`` onto the state space
    (predicate ids and state variables only).  Factors over inputs alone are
    dropped when some input valuation satisfies them all, that is when the
    walk of :attr:`ModelAst.input_boxes` reaches the case's leaf, else the
    projection is ``false``; a factor that mixes inputs with state keeps
    every factor, quantified."""
    inputs = frozenset(model.input_names)
    refs = [free_vars(f) for f in pc.factors]
    pid = "P%s" % pc.id.removeprefix("case")
    if any(r & inputs and r - inputs for r in refs):
        return Projection(pid, pc.leaf_id, pc.factors, True)
    if pc.leaf_id not in model.input_boxes.leaves:
        return Projection(pid, pc.leaf_id, (Const(0, True),), False)
    kept = tuple(f for f, r in zip(pc.factors, refs) if not (r and r <= inputs))
    return Projection(pid, pc.leaf_id, kept, False)


# ---------------------------------------------------------------------------
# Step 4: generalized states


def generalized_state(state_env: Mapping, model: ModelAst) -> tuple:
    """Abstract state of a specification state (state variables and
    predicate ids): one bit per leaf of the rewritten ``model``, in
    pre-order, so bit k is test case k's projection ``P<k>``.  A bit is set
    exactly when some input valuation walks the model to its leaf from the
    state, that is when one of the leaf's boxes (:attr:`ModelAst.leaf_boxes`)
    holds the state: existential input elimination."""
    reached = _reached_leaves(state_env, model)
    return tuple(1 if leaf_id in reached else 0 for leaf_id in model.leaf_ids)


def _reached_leaves(state_env: Mapping, model: ModelAst) -> set:
    """Ids of the leaves some input valuation reaches from a state."""
    return {leaf_id for leaf_id, _ in model.leaf_boxes.at(state_env)}


def derive_projections(extraction: ExtractionResult) -> list:
    # the cases of the rewritten model are the source's cases, rewritten
    model = extraction.model
    return [project_to_state(pc, model) for pc in enumerate_test_cases(model)]


# ---------------------------------------------------------------------------
# Reachable flag states


@dataclass(frozen=True)
class ReachabilityReport:
    predicate_ids: tuple
    upper_bound: int
    vectors: tuple  # reachable flag vectors, in order of (witness length, witness)
    witnesses: dict  # vector -> list of input dicts reaching it
    states: tuple  # reachable (state_vars, vector) pairs

    @property
    def reachable_count(self) -> int:
        return len(self.vectors)


def enumerate_reachable_flag_states(extraction: ExtractionResult) -> ReachabilityReport:
    """Every flag vector that some input sequence reaches, the hold records of
    a :class:`~.temporal.HoldTable` under the extraction's ``strict_held``,
    stepped by its ``cycle_period_ms`` per cycle.

    A vector's witness is the lexicographically least sequence of input
    valuations among the shortest sequences that reach it, and the vectors
    come in order of (witness length, witness).  A model without
    state variables gets this report in closed form (:func:`_closed_form`),
    any other by breadth-first search (:func:`_breadth_first`).
    """
    model = extraction.model
    table = HoldTable(extraction.predicates, model.initial_state(), extraction.strict_held)
    if model.state_vars:
        witnesses, states = _breadth_first(model, table, extraction.cycle_period_ms)
    else:
        witnesses = _closed_form(model, table, extraction.cycle_period_ms)
        states = {((), vec) for vec in witnesses}
    return ReachabilityReport(
        table.predicate_ids,
        2 ** len(table.predicate_ids),
        tuple(witnesses),
        witnesses,
        tuple(sorted(states)),
    )


def _breadth_first(model: ModelAst, table: HoldTable, period_ms: int) -> tuple:
    """Witnesses in report order and the reachable (state variables, vector)
    pairs, by breadth-first search.

    A node is the state variables' values, in ``model.state_vars`` order,
    plus a hold record.  An outcome takes one
    class of values (:func:`_input_clocks`) per input that literals read,
    which the leaf boxes under the flags stepped to (:attr:`ModelAst.leaf_boxes`)
    and the inputs that state assignments read split further.  The table
    steps a node's record once per outcome, on that outcome's input dict,
    built once for the search, and the node's state variables, one dict per
    node.  A node steps once per class of valuations with the same (outcome,
    post-state), entered at the class's least valuation, in that order, so
    its trail is the least of its shortest ones.  Classes are found once per
    (state vars, outcome, flags), and a flags dict is made a vector of ints
    once, the table's one flags dict per vector keyed by identity.
    """
    names = model.input_names
    state_names = tuple(d.name for d in model.state_vars)
    # the positions of the inputs that some state assignment reads
    reads = [k for k, name in enumerate(names)
             if any(name in free_vars(a.value) for leaf in model.leaves()
                    for a in leaf.assigns if a.target in state_names)]
    # each outcome as the one input dict that the table steps by: the clocks'
    # inputs at the outcome's values, every other input at its least value
    clocks = _input_clocks(model, table, period_ms)
    columns = [names.index(clock.name) for clock in clocks]
    outcomes = list(itertools.product(*(clock.choices for clock in clocks)))
    lowest = {d.name: d.domain()[0] for d in model.inputs}
    settings = [dict(lowest, **{c.name: value for c, value in zip(clocks, outcome)})
                for outcome in outcomes]

    initial = (tuple(model.initial_state().values()), table.initial)
    frontier = deque([initial])
    witnesses: dict = {}  # vector -> trail, in discovery order
    state_pairs = set()
    parents = {initial: None}  # every node seen, with its BFS parent and valuation
    classes: dict = {}  # (state values, outcome index, id(flags)) -> {least valuation: post}
    vectors: dict = {}  # id(flags) -> its flags as a vector of ints

    def record(state, flags):
        vec = vectors.get(id(flags))
        if vec is None:
            vec = vectors[id(flags)] = tuple(map(int, flags.values()))
        state_pairs.add((state[0], vec))
        if vec not in witnesses:
            trail, node = [], state
            while parents[node] is not None:
                node, least = parents[node]
                trail.insert(0, dict(zip(names, least)))
            witnesses[vec] = trail

    def classes_of(pre, outcome, flags) -> dict:
        # the least valuation per (leaf, values of the inputs that state
        # assignments read), a pair that fixes the post-state
        firsts: dict = {}
        for leaf_id, box in model.leaf_boxes.at(dict(pre, **flags)):
            box = list(box)
            for k, clock, value in zip(columns, clocks, outcome):  # keep its class's values
                if value in clock.literal_of:  # a literal's class is its one value
                    box[k] = (value,) if value in box[k] else ()
                else:  # the other class: the values no literal names
                    box[k] = tuple(itertools.filterfalse(clock.literal_of.__contains__, box[k]))
            for values in itertools.product(*(box[k] for k in reads)) if all(box) else ():
                fixed = dict(zip(reads, values))
                least = tuple(fixed.get(k, comp[0]) for k, comp in enumerate(box))
                firsts[leaf_id, values] = min(firsts.get((leaf_id, values), least), least)
        posts: dict = {}  # post-state -> its least valuation
        for least in sorted(firsts.values(), reverse=True):
            _, post, _ = eval_model(model, dict(zip(names, least)), pre, flags)
            posts[tuple(post[name] for name in state_names)] = least
        return {least: post for post, least in posts.items()}

    record(initial, table.initial_flags)
    while frontier:
        state = frontier.popleft()
        state_values, holds = state
        steps = {}  # least valuation -> (next node, its flags)
        pre = dict(zip(state_names, state_values))
        for i, outcome in enumerate(outcomes):
            stepped, flags = table.step(holds, settings[i], pre, period_ms)
            key = (state_values, i, id(flags))  # the table keeps each flags dict alive
            if key not in classes:
                classes[key] = classes_of(pre, outcome, flags)
            for least, post in classes[key].items():
                steps[least] = (post, stepped), flags
        for least in sorted(steps):
            node, flags = steps[least]
            if node not in parents:
                parents[node] = (state, least)
                record(node, flags)
                frontier.append(node)
    return witnesses, {(tuple(sorted(zip(state_names, values))), vec)
                       for values, vec in state_pairs}


class _InputClock:
    """The held() literals on one input, counted in cycles
    (:meth:`~.temporal.HoldTable.in_cycles`).  At most one of them holds at a
    time, so a state is ``None`` while none holds, else (literal, count)."""

    def __init__(self, name: str, domain: range, literals: tuple, thresholds: tuple):
        # every literal's (var, expected, cap) and predicate's (literal index,
        # need); the clock keeps the literals on its input inside its domain
        self.name = name
        self.caps, self.literal_of = {}, {}
        for i, (var, expected, cap) in enumerate(literals):
            if var == name and expected in domain:
                self.caps[i], self.literal_of[expected] = cap, i
        self.needs = [(p, i, need) for p, (i, need) in enumerate(thresholds) if i in self.caps]
        # the least value under which no literal holds, if any; with the
        # literals' values, one value per way to step the clock, in order
        self.other = next((v for v in domain if v not in self.literal_of), None)
        self.choices = sorted([*self.literal_of] + [self.other] * (self.other is not None))
        self.can_break = len(domain) > 1  # each literal's value has another beside it

    def part(self, state) -> tuple:
        """The flags of the clock's predicates in ``state``, in predicate order."""
        return tuple(int(state is not None and state[0] == i and state[1] >= need)
                     for _, i, need in self.needs)

    def parts(self) -> set:
        """Every part that some state shows."""
        states = [None] + [(i, 0) for i in self.caps] + [(i, need) for _, i, need in self.needs]
        return {self.part(state) for state in states}

    def target(self, part: tuple) -> tuple:
        """The states that show ``part``: whether ``None`` does, and per
        literal the interval of counts that do."""
        intervals = []
        for i, cap in self.caps.items():
            lo, hi = 0, cap
            for bit, (_, li, need) in zip(part, self.needs):
                if li == i:
                    lo, hi = (max(lo, need), hi) if bit else (lo, min(hi, need - 1))
                elif bit:  # a predicate of another literal holds
                    hi = -1
            if lo <= hi:
                intervals.append((i, lo, hi))
        return not any(part), intervals

    def step(self, state, value: int):
        i = self.literal_of.get(value)
        if i is None:
            return None
        if state is not None and state[0] == i:
            return i, min(state[1] + 1, self.caps[i])
        return i, 0

    def reaches(self, state, target: tuple, cycles: int) -> bool:
        """Some run of exactly ``cycles`` cycles leads from ``state`` to a state
        of ``target``.  A literal's count is then its count held through
        every cycle, or, when its input can take another value, any count up
        to ``cycles - 2``: break the literal, then hold it again."""
        none_ok, intervals = target
        if cycles == 0:
            if state is None:
                return none_ok
            return any(i == state[0] and lo <= state[1] <= hi for i, lo, hi in intervals)
        if none_ok and self.other is not None:
            return True
        for i, lo, hi in intervals:
            cap = self.caps[i]
            held = min(state[1] + cycles if state is not None and state[0] == i else cycles - 1, cap)
            if lo <= held <= hi or (self.can_break and lo <= min(cycles - 2, cap)):
                return True
        return False


def _input_clocks(model: ModelAst, table: HoldTable, period_ms: int) -> list:
    """An :class:`_InputClock` per input that a held() literal inside its
    domain reads, in input order; its ``choices`` are the classes of values
    that the literals tell apart.  A literal on a state variable, or outside
    its input's domain, splits no input's values."""
    literals, thresholds = table.in_cycles(period_ms)
    clocks = [_InputClock(d.name, d.domain(), literals, thresholds) for d in model.inputs]
    return [clock for clock in clocks if clock.caps]


def _closed_form(model: ModelAst, table: HoldTable, period_ms: int) -> dict:
    """Witnesses in report order for a model without state variables.

    The literals on one input form an :class:`_InputClock` that steps
    independently of the others, so a vector is reachable in exactly m
    cycles when each clock's part of it is.  Past the largest cap plus one
    cycle the parts a clock reaches in exactly m cycles no longer change, so
    scanning m up to there finds each vector's least length.  Its witness is
    built greedily: each cycle takes, per input, the least value after which
    its clock can still reach its part in the cycles left.
    """
    clocks = _input_clocks(model, table, period_ms)
    horizon = max((cap for clock in clocks for cap in clock.caps.values()), default=0) + 2

    options = []  # per clock: (part, its target, bit m set when m cycles reach it)
    for clock in clocks:
        options.append([])
        for part in clock.parts():
            target = clock.target(part)
            mask = sum(1 << m for m in range(horizon + 1) if clock.reaches(None, target, m))
            if mask:
                options[-1].append((part, target, mask))

    found = []  # (length, trail, vector)
    for combo in itertools.product(*options):
        mask = (1 << horizon + 1) - 1
        vector = [0] * len(table.predicate_ids)
        for clock, (part, _, reached) in zip(clocks, combo):
            mask &= reached
            for (p, _, _), bit in zip(clock.needs, part):
                vector[p] = bit
        if mask:
            length = (mask & -mask).bit_length() - 1
            trail = _least_trail(model, clocks, [target for _, target, _ in combo], length)
            found.append((length, trail, tuple(vector)))
    names = model.input_names
    return {vector: [dict(zip(names, values)) for values in trail]
            for _, trail, vector in sorted(found)}


def _least_trail(model: ModelAst, clocks: list, targets: list, length: int) -> tuple:
    """The least input sequence of ``length`` cycles that takes each clock to
    its target; an input no literal reads stays at its least value."""
    least = {d.name: d.domain()[0] for d in model.inputs}
    states = [None] * len(clocks)
    trail = []
    for left in range(length - 1, -1, -1):
        values = dict(least)
        for k, (clock, target) in enumerate(zip(clocks, targets)):
            for value in clock.choices:
                state = clock.step(states[k], value)
                if clock.reaches(state, target, left):
                    break
            states[k] = state
            values[clock.name] = value
        trail.append(tuple(values[name] for name in model.input_names))
    return tuple(trail)


# ---------------------------------------------------------------------------
# Coverable-case sets


def coverable_cases(state_env: Mapping, cases: Sequence, model: ModelAst) -> frozenset:
    """Test cases coverable from a state by some input valuation: those whose
    projection holds there, that is whose leaf the state reaches."""
    reached = _reached_leaves(state_env, model)
    return frozenset(pc.id for pc in cases if pc.leaf_id in reached)


# ---------------------------------------------------------------------------
# Piecemeal testing


@dataclass(frozen=True)
class PiecemealPart:
    """Scenario skeleton for one subtree: inputs pinned to steer execution
    into the part, the rest iterated."""

    node_id: str
    pinned: dict
    iterated: dict  # input -> candidate values
    case_ids: tuple  # test cases inside the part


def make_piecemeal(ast: ModelAst, parts: Sequence) -> list:
    """Split a model into per-subtree scenario skeletons."""
    cases = enumerate_test_cases(ast)
    # a node's id is its t/e path from the root: a prefix of a leaf's id
    nodes = {pc.leaf_id[:k] for pc in cases for k in range(len(pc.leaf_id) + 1)}
    for part in parts:
        if part not in nodes:
            raise ReductionError("unknown node id %r" % part)
    for a, b in itertools.combinations(parts, 2):
        if a.startswith(b) or b.startswith(a):
            raise OverlappingParts("parts %r and %r overlap" % (a, b))

    skeletons = []
    for part in parts:
        # the input valuations that satisfy the factors over inputs on the way
        boxes = [box for leaf_id, leaf_boxes in ast.input_boxes.leaves.items()
                 if leaf_id.startswith(part) for box in leaf_boxes]
        if not boxes:
            raise ReductionError("no input valuation reaches part %r" % part)
        pinned, iterated = {}, {}
        for k, name in enumerate(ast.input_names):
            values = sorted({v for box in boxes for v in box[k]})
            if len(values) == 1:
                pinned[name] = values[0]
            else:
                iterated[name] = tuple(values)
        case_ids = tuple(pc.id for pc in cases if pc.leaf_id.startswith(part))
        skeletons.append(PiecemealPart(part, pinned, iterated, case_ids))
    return skeletons
