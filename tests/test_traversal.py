import random
from collections import Counter

import pytest
from conftest import desk_config

from cyclotest import traversal
from cyclotest.cli import run_campaign
from cyclotest.contracts import Verdict, VerdictKind
from cyclotest.traversal import (
    Action,
    BudgetExceeded,
    NondeterminismDetected,
    Scenario,
    StrandedPendingActions,
    export_dot,
    traverse,
)
from oracles import (
    ExplicitSystem,
    ReferenceApply,
    explicit_scenario,
    make_nondeterministic,
    path_to_pending_reference,
    random_scc_automaton,
)


class TestExplicitAutomata:
    def test_small_automaton_fully_explored(self):
        rng = random.Random(1)
        delta, labels, initial = random_scc_automaton(rng, 6, 3)
        system = ExplicitSystem(delta, initial)
        log, automaton = traverse(explicit_scenario(system, labels), system)
        assert automaton.states == set(range(6))
        assert {(s, l): e for (s, l), (e, _) in automaton.transitions.items()} == delta
        applied = {(e.state, e.action) for e in log.entries}
        assert applied == set(delta)
        assert log.outcome == "complete"

    def test_every_pair_applied_at_least_once(self):
        rng = random.Random(2)
        delta, labels, initial = random_scc_automaton(rng, 12, 4)
        system = ExplicitSystem(delta, initial)
        log, _ = traverse(explicit_scenario(system, labels), system)
        counts = {}
        for e in log.entries:
            counts[(e.state, e.action)] = counts.get((e.state, e.action), 0) + 1
        assert set(counts) == set(delta)
        assert all(c >= 1 for c in counts.values())

    def test_runs_reproducible(self):
        lines = []
        for _ in range(2):
            rng = random.Random(3)
            delta, labels, initial = random_scc_automaton(rng, 10, 3)
            system = ExplicitSystem(delta, initial)
            log, _ = traverse(explicit_scenario(system, labels), system)
            lines.append(log.to_json_lines())
        assert lines[0] == lines[1]

    def test_seeded_shuffle_is_reproducible(self):
        logs = []
        for _ in range(2):
            rng = random.Random(4)
            delta, labels, initial = random_scc_automaton(rng, 8, 3)
            system = ExplicitSystem(delta, initial)
            log, _ = traverse(explicit_scenario(system, labels), system,
                              rng=random.Random(99))
            logs.append(log.to_json_lines())
        assert logs[0] == logs[1]


class TestActionTable:
    """The scenario's actions are built once per traversal, and every state
    queues those very objects."""

    @staticmethod
    def _stopped_early(automaton_seed, budget, rng=None):
        """The automaton of a traversal that the budget stops, and every
        table that ``scenario.actions()`` built for it."""
        delta, labels, initial = random_scc_automaton(random.Random(automaton_seed), 10, 4)
        system = ExplicitSystem(delta, initial)
        scenario = explicit_scenario(system, labels)
        tables = []
        build = scenario.actions
        scenario.actions = lambda: tables.append(build()) or tables[-1]
        with pytest.raises(BudgetExceeded) as err:
            traverse(scenario, system, budget=budget, rng=rng)
        return err.value.automaton, tables, labels

    @pytest.mark.parametrize("seed", [None, 5], ids=["declaration-order", "shuffled"])
    def test_one_table_shared_by_every_state(self, seed):
        rng = None if seed is None else random.Random(seed)
        automaton, tables, labels = self._stopped_early(7, 15, rng)
        assert len(tables) == 1
        table = {id(action) for action in tables[0]}
        queued = [action for actions in automaton.pending.values() for action in actions]
        recorded = [action for _, action in automaton.transitions.values()]
        assert len(queued) > len(labels) and recorded
        assert all(id(action) in table for action in queued + recorded)

    def test_untouched_state_queues_the_table_in_order(self):
        automaton, tables, _ = self._stopped_early(8, 3)
        untouched = [list(actions) for state, actions in automaton.pending.items()
                     if not automaton.successors[state]]
        assert untouched
        assert all(all(a is b for a, b in zip(actions, tables[0]))
                   and len(actions) == len(tables[0]) for actions in untouched)


class TestReplaySearch:
    """Every replay search the traversal makes, checked against the
    reference search on the same automaton."""

    @pytest.fixture
    def searches(self, monkeypatch):
        results = []
        search = traversal._path_to_pending

        def checked(automaton, start):
            path = search(automaton, start)
            results.append((path, path_to_pending_reference(automaton, start)))
            return path

        monkeypatch.setattr(traversal, "_path_to_pending", checked)
        return results

    @pytest.mark.parametrize("shuffle", [False, True], ids=["label-order", "shuffled"])
    def test_random_automata(self, searches, shuffle):
        for seed in range(40):
            rng = random.Random(seed)
            # up to 12 actions, so that label order differs from action order
            delta, labels, initial = random_scc_automaton(rng, rng.randint(2, 14),
                                                          rng.randint(1, 12))
            system = ExplicitSystem(delta, initial)
            traverse(explicit_scenario(system, labels), system,
                     rng=random.Random(seed) if shuffle else None)
        assert all(path == reference for path, reference in searches)
        assert sum(path is not None and len(path) > 1 for path, _ in searches) > 50

    @pytest.mark.parametrize("shuffle", [False, True], ids=["label-order", "shuffled"])
    def test_random_automata_with_many_actions(self, searches, shuffle):
        # 100 or more actions, "a10" sorting before "a2"; most of them loop,
        # so that many labels lead to each end and replays take several steps
        for seed in range(6):
            rng = random.Random(seed)
            delta, labels, initial = random_scc_automaton(rng, rng.randint(4, 12),
                                                          rng.randint(100, 130))
            for (state, label), end in delta.items():
                if label != labels[0] and rng.random() < 0.9:
                    delta[(state, label)] = state
            system = ExplicitSystem(delta, initial)
            traverse(explicit_scenario(system, labels), system,
                     rng=random.Random(seed) if shuffle else None)
        assert all(path == reference for path, reference in searches)
        assert sum(path is not None and len(path) > 1 for path, _ in searches) > 10

    def test_desk_iron_seed_7(self, searches):
        result = run_campaign(desk_config(seed=7))
        assert result.error is None
        assert all(path == reference for path, reference in searches)
        assert sum(path is not None for path, _ in searches) > 10


class TestDiagnostics:
    def test_fresh_state_every_call_exhausts_budget(self):
        class Counter:
            n = 0

            def apply_stimulus(self, inputs):
                return Verdict(VerdictKind.PASS, cycle_index=self.n)

        ticker = iter(range(10**9))
        scenario = Scenario(
            "runaway",
            state_fn=lambda: next(ticker),
            actions=lambda: [Action("poke", lambda v: [{"x": 1}])],
        )
        with pytest.raises(BudgetExceeded) as err:
            traverse(scenario, Counter(), budget=50)
        assert "50" in str(err.value)
        assert err.value.automaton is not None

    def test_nondeterministic_subject_detected(self):
        system, labels = make_nondeterministic(random.Random(5), 8, 3)
        with pytest.raises(NondeterminismDetected) as err:
            traverse(explicit_scenario(system, labels), system)
        assert err.value.first_end != err.value.second_end

    def test_stranded_pending_actions(self):
        # b is a one-way door into an absorbing state: 0 keeps pending work
        # that no explored path can reach again
        delta = {(0, "a"): 1, (0, "b"): 1, (1, "a"): 1, (1, "b"): 1}
        system = ExplicitSystem(delta, 0)
        with pytest.raises(StrandedPendingActions) as err:
            traverse(explicit_scenario(system, ["a", "b"]), system)
        assert 0 in err.value.stranded

    def test_verdict_failure_stops_by_default(self):
        class FailsThird:
            n = 0

            def apply_stimulus(self, inputs):
                self.n += 1
                kind = VerdictKind.POSTCONDITION_FAILURE if self.n == 3 else VerdictKind.PASS
                return Verdict(kind, cycle_index=self.n - 1)

        delta, labels, initial = random_scc_automaton(random.Random(6), 5, 3)
        system = ExplicitSystem(delta, initial)
        subject = FailsThird()
        scenario = explicit_scenario(system, labels)

        # drive the explicit automaton but let verdicts come from the subject
        class Tandem:
            def apply_stimulus(self, inputs):
                system.apply_stimulus(inputs)
                return subject.apply_stimulus(inputs)

        log, _ = traverse(scenario, Tandem())
        assert log.outcome == "verdict_failure"
        assert len(log.entries) == 3
        assert log.entries[-1].verdict == "PostconditionFailure"


class TestFastBuiltRecords:
    def test_passing_records_equal_their_constructors(self, monkeypatch):
        # a passing stimulus's verdict is built without its NamedTuple
        # constructor and carries no observation; a failing one's observation
        # is the record its constructor builds
        from cyclotest.contracts import PASS, CycleObservation, Specification

        verdicts = []
        real_apply = Specification.apply_stimulus
        monkeypatch.setattr(Specification, "apply_stimulus", lambda spec, inputs:
                            verdicts.append(real_apply(spec, inputs)) or verdicts[-1])
        result = run_campaign(desk_config())
        assert len(verdicts) == result.log.stimulus_count() == 216
        for v in verdicts:
            assert v.kind is PASS
            assert type(v) is Verdict
            assert v == Verdict(PASS, "", v.cycle_index, (), v.trace, None)
        del verdicts[:]
        result = run_campaign(desk_config(sut="inproc:iron:M1"))
        *passed, failed = verdicts
        assert failed.kind is VerdictKind.POSTCONDITION_FAILURE and failed is result.log.failure
        assert all(v.observation is None for v in passed)
        obs = failed.observation
        assert type(obs) is CycleObservation
        assert obs == CycleObservation(obs.cycle, obs.sys_time_ms, obs.outputs,
                                       obs.visible_state)
        assert obs.cycle == failed.cycle_index


def assert_log_equals_reference(log, reference: ReferenceApply) -> None:
    """``log`` keeps exactly the reference's per-stimulus entries, in runs
    of which no two adjacent ones could be merged."""
    assert log.entries == reference.entries
    assert log.to_json_lines() == reference.json_lines()
    assert log.stimulus_count() == len(reference.entries)
    assert log.verdict_counts() == Counter(entry.verdict for entry in reference.entries)
    for run in log.runs:
        assert run.count >= 1 and (run.verdict == "Pass" or run.count == 1)
    for a, b in zip(log.runs, log.runs[1:]):
        assert not (a.verdict == "Pass" and a[2:] == b[2:] and b.first == a.first + a.count)


class FakeCycles:
    """Moves an explicit system at each action's first stimulus and holds it
    at the rest.  A verdict's cycle follows the one before, or is -1, the
    same, lower or further ahead; stimulus ``fail_at`` fails with ``kind``."""

    def __init__(self, system, rng, fail_at, kind):
        self.system, self.rng, self.fail_at, self.kind = system, rng, fail_at, kind
        self.cycle = self.applied = 0

    def apply_stimulus(self, inputs):
        if inputs["action"] is not None:
            self.system.apply_stimulus(inputs)
        self.applied += 1
        rng = self.rng
        step = rng.choice(["next"] * 4 + ["unknown", "same", "back", "gap"])
        if step != "unknown":
            self.cycle += {"next": 1, "same": 0, "back": -rng.randint(1, 3),
                           "gap": rng.randint(2, 5)}[step]
        kind = self.kind if self.applied == self.fail_at else VerdictKind.PASS
        return Verdict(kind, cycle_index=-1 if step == "unknown" else self.cycle)


class TestLogRuns:
    """The log keeps runs of cycles, which must expand to the entries that
    one entry per stimulus gives, whatever cycles the verdicts carry."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_cycles_log_as_the_reference(self, monkeypatch, seed):
        real = traversal._apply

        def campaign(apply):
            rng = random.Random(seed)
            delta, labels, initial = random_scc_automaton(rng, rng.randint(2, 6),
                                                          rng.randint(1, 3))
            lengths = {label: rng.randint(1, 6) for label in labels}
            actions = [Action(label, lambda v, L=label: [{"action": L}]
                              + [{"action": None}] * (lengths[L] - 1)) for label in labels]
            system = ExplicitSystem(delta, initial)
            spec = FakeCycles(system, rng, rng.randint(1, 40),
                              rng.choice([k for k in VerdictKind if k is not VerdictKind.PASS]))
            budget = rng.choice([10_000, rng.randint(1, 12)])
            monkeypatch.setattr(traversal, "_apply", apply)
            try:
                log, _ = traverse(Scenario("held", system.abstract_state, lambda: actions),
                                  spec, budget=budget)
            except BudgetExceeded as exc:
                log = exc.log
            return log

        log = campaign(real)
        reference = ReferenceApply()
        assert campaign(reference).outcome == log.outcome
        assert_log_equals_reference(log, reference)

    def test_a_failing_verdict_ends_its_run(self):
        # cycles 0..4 pass and cycle 5 fails: two runs of one action
        verdicts = iter([Verdict(VerdictKind.PASS, cycle_index=c) for c in range(5)]
                        + [Verdict(VerdictKind.POSTCONDITION_FAILURE, cycle_index=5)])

        class Spec:
            def apply_stimulus(self, inputs):
                return next(verdicts)

        scenario = Scenario("s", lambda: 0, lambda: [Action("a", lambda v: [{}] * 6)])
        log, _ = traverse(scenario, Spec())
        assert log.runs == [traversal.LogRun(0, 5, 0, "a", "Pass"),
                            traversal.LogRun(5, 1, 0, "a", "PostconditionFailure")]
        assert log.verdict_counts() == {"Pass": 5, "PostconditionFailure": 1}


class TestBudget:
    def test_replays_count_against_budget(self):
        delta, labels, initial = random_scc_automaton(random.Random(7), 10, 3)
        system = ExplicitSystem(delta, initial)
        log, _ = traverse(explicit_scenario(system, labels), system)
        total_actions = len(log.entries)
        assert total_actions > 30  # replays happened
        system2 = ExplicitSystem(delta, initial)
        with pytest.raises(BudgetExceeded):
            traverse(explicit_scenario(system2, labels), system2, budget=total_actions - 1)


class TestDotExport:
    def test_empty_automaton(self):
        from cyclotest.traversal import ExploredAutomaton

        text = export_dot(ExploredAutomaton())
        assert text.startswith("digraph automaton {")
        assert text.rstrip().endswith("}")

    def test_iron_automaton(self, correct_run):
        text = export_dot(correct_run.automaton)
        assert text.count("->") == 24
        assert 'label="(0, 1, 0, 1)"' in text

    def test_quotes_escaped(self):
        delta = {('say "hi"', 'a'): 'say "hi"'}
        system = ExplicitSystem(delta, 'say "hi"')
        log, automaton = traverse(explicit_scenario(system, ["a"]), system)
        text = export_dot(automaton)
        assert '\\"hi\\"' in text

    def test_deterministic_ordering(self, correct_run):
        assert export_dot(correct_run.automaton) == export_dot(correct_run.automaton)
