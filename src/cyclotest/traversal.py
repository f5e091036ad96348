"""On-the-fly traversal of an implicitly defined abstract automaton.

The automaton is discovered while testing: states come from the scenario's
state generation function, transitions from applying test actions.  The
scenario's action table is built once per traversal, and each discovered
state queues those same actions, in declaration order or in a seeded
shuffle.  The engine greedily applies an unapplied action at the
current state; when none is left it replays the shortest known path (BFS
over recorded transitions, deterministic tie-breaking) to the nearest state
with pending actions.  It terminates once every action has been applied in
every reached state, and requires the final automaton to be finite,
deterministic and strongly connected, diagnosing violations as it goes.
The test log keeps runs of consecutive cycles of one applied action with one
verdict, so a hold of thousands of cycles costs one record, not one per
stimulus.
"""
from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

from .contracts import PASS, Verdict

_PASS_NAME = PASS.value  # the log's verdict of a passing stimulus


class TraversalError(Exception):
    def __init__(self, message: str, log=None, automaton=None):
        super().__init__(message)
        self.log = log
        self.automaton = automaton


class NondeterminismDetected(TraversalError):
    def __init__(self, state, label, first_end, second_end, log=None, automaton=None):
        self.state = state
        self.label = label
        self.first_end = first_end
        self.second_end = second_end
        super().__init__(
            "action %r at state %r reached %r after previously reaching %r"
            % (label, state, second_end, first_end),
            log,
            automaton,
        )


class StrandedPendingActions(TraversalError):
    def __init__(self, stranded, log=None, automaton=None):
        self.stranded = tuple(stranded)
        super().__init__(
            "no explored path reaches pending actions at state(s): %s"
            % ", ".join(repr(s) for s in self.stranded),
            log,
            automaton,
        )


class BudgetExceeded(TraversalError):
    pass


@dataclass(frozen=True)
class Action:
    """One test action: ``body(dict(valuation))`` lists its stimuli."""

    label: str
    body: Callable[[dict], list] = field(compare=False)
    valuation: tuple = ()  # ((var, value), ...), sorted by var

    def stimuli(self) -> list:
        return self.body(dict(self.valuation))


@dataclass
class Scenario:
    name: str
    state_fn: Callable[[], object]
    actions: Callable[[], list]  # the Actions every state enables, in declaration order


class LogEntry(NamedTuple):
    cycle: int
    state: object
    action: str
    verdict: str
    replay: bool = False


class LogRun(NamedTuple):
    """The log entries of ``count`` consecutive cycles from ``first``, all of
    one applied action and one verdict."""

    first: int
    count: int
    state: object
    action: str
    verdict: str
    replay: bool = False


@dataclass
class TestLog:
    """A campaign's stimuli, kept as runs.  A run is a maximal stretch of
    consecutive cycles of one applied action that share a verdict, and a
    non-passing verdict is a run of its own, so a hold of thousands of
    cycles is one run.  ``entries`` expands the runs into one
    :class:`LogEntry` per stimulus, on demand.  ``failure`` is the
    non-passing verdict that ended the walk, if one did; ``outcome`` is
    "complete" without one, also when a :class:`TraversalError` ended it."""

    scenario: str = ""
    runs: list = field(default_factory=list)
    failure: Optional[Verdict] = None

    @property
    def outcome(self) -> str:
        return "complete" if self.failure is None else "verdict_failure"

    @property
    def entries(self) -> list:
        return [LogEntry(cycle, *run[2:]) for run in self.runs
                for cycle in range(run.first, run.first + run.count)]

    def stimulus_count(self) -> int:
        return sum(run.count for run in self.runs)

    def verdict_counts(self) -> dict:
        counts: dict = {}
        for run in self.runs:
            counts[run.verdict] = counts.get(run.verdict, 0) + run.count
        return counts

    def to_json_lines(self) -> str:
        return "".join(self.json_lines())

    def json_lines(self):
        """One JSON object per stimulus, keys sorted, and a newline.  The text
        around the cycle is encoded once per distinct ``(state, action,
        verdict, replay)``; only the cycle is formatted per entry."""
        around: dict = {}
        for run in self.runs:
            key = run[2:]
            if key not in around:
                around[key] = ('{"action": %s, "cycle": ' % json.dumps(run.action),
                               ', "replay": %s, "state": %s, "verdict": %s}\n'
                               % tuple(map(json.dumps, (run.replay, run.state, run.verdict))))
            head, tail = around[key]
            for cycle in range(run.first, run.first + run.count):
                yield head + str(cycle) + tail


@dataclass
class ExploredAutomaton:
    """One record per discovered state: its pending actions, its successors,
    and its routes, the least label to each distinct successor."""

    initial: object = None
    pending: dict = field(default_factory=dict)  # state -> deque of Actions
    successors: dict = field(default_factory=dict)  # state -> {label: (end, Action)}
    routes: dict = field(default_factory=dict)  # state -> {end: (label, end, Action)}

    @property
    def states(self):
        """The discovered states, a read-only view of ``pending``'s keys."""
        return self.pending.keys()

    @property
    def transitions(self) -> dict:
        """Every recorded transition as ``(state, label) -> (end, Action)``."""
        return {(state, label): edge for state, out in self.successors.items()
                for label, edge in out.items()}

    def pending_states(self) -> list:
        return [s for s, actions in self.pending.items() if actions]


def _state_key(state) -> str:
    return repr(state)


def traverse(scenario: Scenario, spec, budget: int = 10_000, rng=None):
    """Drive the subject until every reached state has no pending actions.

    ``spec`` needs only ``apply_stimulus(inputs) -> Verdict``, and
    ``scenario.actions()`` is called once.  Every applied action, replayed
    or fresh, counts against ``budget``.  The walk ends at the first
    non-passing verdict, since the synchronized specification state is
    unreliable afterwards.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    log = TestLog(scenario.name)
    automaton = ExploredAutomaton()
    table = scenario.actions()
    current = scenario.state_fn()
    automaton.initial = current
    _discover(automaton, table, current, rng)
    applied = 0

    while True:
        replay = not automaton.pending[current]
        if replay:
            steps = _path_to_pending(automaton, current)
            if steps is None:
                stranded = automaton.pending_states()
                if stranded:
                    raise StrandedPendingActions(stranded, log, automaton)
                return log, automaton  # every action applied in every reached state
        else:
            steps = [(current, automaton.pending[current][0])]
        for state, action in steps:
            applied += 1
            if applied > budget:
                raise BudgetExceeded(_budget_message(automaton, budget), log, automaton)
            if not replay:
                automaton.pending[state].popleft()
            end, failure = _apply(action, spec, scenario, log, state, replay)
            if failure is not None:
                log.failure = failure
                return log, automaton
            label = action.label
            out = automaton.successors[state]
            recorded = out.get(label)
            if recorded is None:
                out[label] = (end, action)
                routes = automaton.routes[state]
                route = routes.get(end)
                if route is None or label < route[0]:
                    routes[end] = (label, end, action)
            elif recorded[0] != end:
                raise NondeterminismDetected(state, label, recorded[0], end, log, automaton)
            _discover(automaton, table, end, rng)
            current = end


def _apply(action: Action, spec, scenario: Scenario, log: TestLog, source, replay: bool):
    """Apply ``action``'s stimuli and log them as runs: a run ends where a
    verdict's cycle does not follow the one before, or at a failing verdict,
    which is a run of its own."""
    apply_stimulus, append, label = spec.apply_stimulus, log.runs.append, action.label
    first = following = None
    for stimulus in action.stimuli():
        verdict: Verdict = apply_stimulus(stimulus)
        cycle = verdict.cycle_index
        if verdict.kind is not PASS:
            break
        if cycle != following:
            if first is not None:
                append(LogRun(first, following - first, source, label, _PASS_NAME, replay))
            first = cycle
        following = cycle + 1
    else:
        verdict = None
    if first is not None:
        append(LogRun(first, following - first, source, label, _PASS_NAME, replay))
    if verdict is not None:
        append(LogRun(cycle, 1, source, label, verdict.kind.value, replay))
    return scenario.state_fn(), verdict


def _discover(automaton: ExploredAutomaton, table: list, state, rng) -> None:
    if state in automaton.pending:
        return
    if rng is not None:
        table = table.copy()
        rng.shuffle(table)
    automaton.pending[state] = deque(table)
    automaton.successors[state] = {}
    automaton.routes[state] = {}


def _path_to_pending(automaton: ExploredAutomaton, start):
    """The ``(state, action)`` steps of the shortest replay path to the
    nearest state with pending actions, or None when none is reachable.

    BFS over recorded transitions; equal-distance targets resolve to the
    smallest state key, sibling edges explore in label order.  Of the labels
    from one state to one end, only the least can reach the end first, so
    the search follows each state's routes alone, in label order.
    """
    routes, pending = automaton.routes, automaton.pending
    parents = {start: None}
    frontier = [start]
    found: list = []
    while frontier and not found:
        next_frontier = []
        for state in frontier:
            # labels are distinct, so the sort compares nothing past them
            for _, end, action in sorted(routes[state].values()):
                if end in parents:
                    continue
                parents[end] = (state, action)
                next_frontier.append(end)
                if pending[end]:
                    found.append(end)
        frontier = next_frontier
    if not found:
        return None
    target = min(found, key=_state_key)
    path = []
    node = target
    while parents[node] is not None:
        state, action = parents[node]
        path.append((state, action))
        node = state
    path.reverse()
    return path


def _budget_message(automaton: ExploredAutomaton, budget: int) -> str:
    pending = sum(len(a) for a in automaton.pending.values())
    return (
        "budget of %d actions exhausted with %d state(s) discovered and %d action(s) pending"
        % (budget, len(automaton.states), pending)
    )


def export_dot(automaton: ExploredAutomaton) -> str:
    """Deterministic DOT rendering of an explored automaton."""

    def esc(text: str) -> str:
        return text.replace("\\", "\\\\").replace('"', '\\"')

    states = sorted(automaton.states, key=_state_key)
    names = {state: "s%d" % i for i, state in enumerate(states)}
    lines = ["digraph automaton {", "  rankdir=LR;"]
    for state in states:
        shape = ' shape=doublecircle' if state == automaton.initial else ""
        lines.append('  %s [label="%s"%s];' % (names[state], esc(str(state)), shape))
    for (state, label), (end, _) in sorted(
        automaton.transitions.items(),
        key=lambda t: (_state_key(t[0][0]), t[0][1], _state_key(t[1][0])),
    ):
        lines.append('  %s -> %s [label="%s"];' % (names[state], names[end], esc(label)))
    lines.append("}")
    return "\n".join(lines) + "\n"
