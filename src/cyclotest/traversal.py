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
"""
from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

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

    def to_json(self) -> str:
        state = list(self.state) if isinstance(self.state, tuple) else self.state
        data = {"cycle": self.cycle, "state": state, "action": self.action,
                "verdict": self.verdict, "replay": self.replay}
        return json.dumps(data, sort_keys=True)


@dataclass
class TestLog:
    scenario: str = ""
    entries: list = field(default_factory=list)
    outcome: str = "complete"  # "complete" | "verdict_failure" | aborted by error

    def verdict_counts(self) -> dict:
        counts: dict = {}
        for e in self.entries:
            counts[e.verdict] = counts.get(e.verdict, 0) + 1
        return counts

    def to_json_lines(self) -> str:
        return "".join(self.json_lines())

    def json_lines(self):
        """Each entry's ``to_json()`` and a newline.  The text around the
        cycle is encoded once per distinct ``(state, action, verdict,
        replay)``; only the cycle is formatted per entry."""
        around: dict = {}
        for e in self.entries:
            key = (e.state, e.action, e.verdict, e.replay)
            if key not in around:
                # a '"' inside a JSON string is escaped, so this is the key
                head, _, tail = LogEntry(0, *key).to_json().partition('"cycle": 0')
                around[key] = (head + '"cycle": ', tail + "\n")
            head, tail = around[key]
            yield head + str(e.cycle) + tail


@dataclass
class ExploredAutomaton:
    """One record per discovered state: its pending actions and successors."""

    initial: object = None
    pending: dict = field(default_factory=dict)  # state -> deque of Actions
    successors: dict = field(default_factory=dict)  # state -> {label: (end, Action)}

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
                log.outcome = "verdict_failure"
                return log, automaton
            out = automaton.successors[state]
            recorded = out.get(action.label)
            if recorded is not None and recorded[0] != end:
                raise NondeterminismDetected(
                    state, action.label, recorded[0], end, log, automaton
                )
            _discover(automaton, table, end, rng)
            out[action.label] = (end, action)
            current = end


def _apply(action: Action, spec, scenario: Scenario, log: TestLog, source, replay: bool):
    for stimulus in action.stimuli():
        verdict: Verdict = spec.apply_stimulus(stimulus)
        kind = verdict.kind
        passed = kind is PASS
        log.entries.append(LogEntry(verdict.cycle_index, source, action.label,
                                    _PASS_NAME if passed else kind.value, replay))
        if not passed:
            return scenario.state_fn(), verdict
    return scenario.state_fn(), None


def _discover(automaton: ExploredAutomaton, table: list, state, rng) -> None:
    if state in automaton.pending:
        return
    if rng is not None:
        table = table.copy()
        rng.shuffle(table)
    automaton.pending[state] = deque(table)
    automaton.successors[state] = {}


def _path_to_pending(automaton: ExploredAutomaton, start):
    """The ``(state, action)`` steps of the shortest replay path to the
    nearest state with pending actions, or None when none is reachable.

    BFS over recorded transitions; equal-distance targets resolve to the
    smallest state key, sibling edges explore in label order.
    """
    successors, pending = automaton.successors, automaton.pending
    parents = {start: None}
    frontier = [start]
    found: list = []
    while frontier and not found:
        next_frontier = []
        for state in frontier:
            out = successors[state]
            for label in sorted(out):
                end, action = out[label]
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
