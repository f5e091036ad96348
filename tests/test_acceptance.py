"""Acceptance suite: one test per shipped criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""
import itertools
import json
import random
import subprocess
import sys
import time

import pytest

from conftest import IRON_DESK_REMAP, MODEL_PATH, desk_config

from cyclotest.cli import RunConfig, main, run_campaign
from cyclotest.contracts import VerdictKind
from cyclotest.coverage import CoverageReport
from cyclotest.dsl import extract_predicates, parse_model
from cyclotest.interp import eval_model
from cyclotest.iron import DESK_DURATIONS_MS, MUTANT_IDS, IronSut
from cyclotest.reduction import (
    coverable_cases,
    derive_projections,
    enumerate_reachable_flag_states,
    enumerate_test_cases,
    generalized_state,
)
from cyclotest.temporal import HoldTable
from cyclotest.traversal import NondeterminismDetected, traverse
from oracles import (
    ExplicitSystem,
    WindowOracle,
    cycles_for,
    explicit_scenario,
    make_nondeterministic,
    mcdc_covered_bruteforce,
    random_scc_automaton,
)

PERIOD = 1000


def _report(cid: str, ok: bool, detail: str) -> None:
    print("[%s] %s - %s" % (cid, "PASS" if ok else "FAIL", detail))
    assert ok, "%s: %s" % (cid, detail)


def test_c01_state_arithmetic(desk_extraction, capsys):
    started = time.perf_counter()
    report = enumerate_reachable_flag_states(desk_extraction)
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        _report(
            "C01",
            report.upper_bound == 16 and report.reachable_count == 9 and elapsed < 1.0,
            "upper bound %d, reachable %d, %.3f s"
            % (report.upper_bound, report.reachable_count, elapsed),
        )
    # the CLI reports the same integers
    code = main(["enumerate-states", "--model", MODEL_PATH, "--json",
                 "--remap-duration", "60s=3", "--remap-duration", "900s=5"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0 and data["upper_bound"] == 16 and data["reachable"] == 9


def test_c02_reduction_lists(iron_ast, iron_extraction, capsys):
    cases = enumerate_test_cases(iron_ast)
    rewritten = enumerate_test_cases(iron_extraction.model)
    projections = derive_projections(iron_extraction)
    ok = (
        [str(pc) for pc in cases]
        == [
            "position && held(!move && position, 900s)",
            "position && !held(!move && position, 900s)",
            "!position && held(!move && !position, 60s)",
            "!position && !held(!move && !position, 60s)",
        ]
        and [str(pc) for pc in rewritten]
        == [
            "position && move_eq_f_t2 && position_eq_t_t2",
            "position && !(move_eq_f_t2 && position_eq_t_t2)",
            "!position && move_eq_f_t1 && position_eq_f_t1",
            "!position && !(move_eq_f_t1 && position_eq_f_t1)",
        ]
        and [str(p) for p in projections]
        == [
            "move_eq_f_t2 && position_eq_t_t2",
            "!(move_eq_f_t2 && position_eq_t_t2)",
            "move_eq_f_t1 && position_eq_f_t1",
            "!(move_eq_f_t1 && position_eq_f_t1)",
        ]
    )
    with capsys.disabled():
        _report("C02", ok, "%d test cases, %d rewritten conditions, %d projections"
                % (len(cases), len(rewritten), len(projections)))


def test_c03_branch_coverage(capsys):
    started = time.perf_counter()
    result = run_campaign(desk_config())
    elapsed = time.perf_counter() - started
    all_pass = result.error is None and all(
        e.verdict == VerdictKind.PASS.value for e in result.log.entries
    )
    ratio = result.report.ratio("branch")
    with capsys.disabled():
        _report(
            "C03",
            all_pass and ratio == 1.0 and elapsed < 10.0,
            "branch ratio %.2f, %d stimuli all Pass, %.2f s"
            % (ratio, len(result.log.entries), elapsed),
        )


def test_c04_partition_soundness(desk_extraction, capsys):
    reach = enumerate_reachable_flag_states(desk_extraction)
    rewritten = enumerate_test_cases(desk_extraction.model)
    cells = {}
    for vector in reach.vectors:
        env = dict(zip(reach.predicate_ids, vector))
        member = generalized_state(env, desk_extraction.model)
        cells.setdefault(member, []).append(coverable_cases(env, rewritten,
                                                            desk_extraction.model))
    uniform = all(len(set(sets)) == 1 for sets in cells.values())
    derived_cells = len(cells)
    with capsys.disabled():
        _report(
            "C04",
            uniform,
            "9 states x 4 inputs: coverable-case sets uniform within each of the "
            "%d derived membership-vector cells (the published figure-based count "
            "of 7 is recorded informationally; the figure itself is unavailable)"
            % derived_cells,
        )
    assert derived_cells == 3  # two complement pairs admit 4 vectors, 3 reachable


def test_c05_mutant_detection(desk_extraction, capsys):
    killed = {}
    for mutant in MUTANT_IDS:
        result = run_campaign(desk_config(sut="inproc:iron:%s" % mutant))
        failures = [e for e in result.log.entries
                    if e.verdict == VerdictKind.POSTCONDITION_FAILURE.value]
        killed[mutant] = len(failures)

    # M3 disagrees with the correct subject exactly on duration-boundary
    # cycles: the first cycle on which the short compound condition has held
    # for precisely its duration (the inclusive-firing cycle).
    short_cycles = DESK_DURATIONS_MS[0] // PERIOD
    combos = [{"move": m, "position": p} for m in (0, 1) for p in (0, 1)]
    boundary_only = True
    for seq in itertools.product(combos, repeat=7):
        correct = IronSut(DESK_DURATIONS_MS, PERIOD)
        late = IronSut(DESK_DURATIONS_MS, PERIOD, "M3")
        run = 0
        for i, inputs in enumerate(seq):
            t = (i + 1) * PERIOD
            run = run + 1 if (not inputs["move"] and not inputs["position"]) else 0
            differ = correct.step(inputs, t) != late.step(inputs, t)
            boundary = (not inputs["position"]) and run == short_cycles + 1
            if differ != boundary:
                boundary_only = False
    ok = all(count >= 1 for count in killed.values()) and boundary_only
    with capsys.disabled():
        _report(
            "C05",
            ok,
            "postcondition failures per mutant %s; M3 deviates only on the "
            "inclusive duration-boundary cycle (checked over all 4^7 sequences)"
            % killed,
        )


@pytest.mark.parametrize("mutant, passed", [("M1", 0), ("M2", 59), ("M3", 60), ("M4", 3604),
                                            ("M5", 60)])
def test_paper_scale_mutant_fails_after_pinned_passes(mutant, passed):
    # each mutant, at the paper's 60 s/900 s, ends the campaign at its one
    # failing verdict after the same number of passing stimuli
    result = run_campaign(RunConfig(model_path=MODEL_PATH, sut="inproc:iron:" + mutant))
    counts = {VerdictKind.PASS.value: passed} if passed else {}
    counts[VerdictKind.POSTCONDITION_FAILURE.value] = 1
    assert result.log.verdict_counts() == counts
    assert result.log.outcome == "verdict_failure"
    assert result.exit_code(()) == 4


def test_c06_traversal_oracle_equivalence(capsys):
    rng = random.Random(20260810)
    clean_ok = 0
    for _ in range(100):
        n_states, n_actions = rng.randint(5, 50), rng.randint(2, 6)
        delta, labels, initial = random_scc_automaton(rng, n_states, n_actions)
        system = ExplicitSystem(delta, initial)
        log, automaton = traverse(explicit_scenario(system, labels), system, budget=200_000)
        pairs = {(e.state, e.action) for e in log.entries}
        assert automaton.states == set(range(n_states))
        assert pairs == set(delta)
        assert {(s, l): e for (s, l), (e, _) in automaton.transitions.items()} == delta
        clean_ok += 1

    detected = 0
    for _ in range(100):
        system, labels = make_nondeterministic(rng, rng.randint(5, 50), rng.randint(2, 6))
        with pytest.raises(NondeterminismDetected):
            traverse(explicit_scenario(system, labels), system, budget=200_000)
        detected += 1
    with capsys.disabled():
        _report(
            "C06",
            clean_ok == 100 and detected == 100,
            "%d/100 automata fully exercised, %d/100 injected nondeterminisms detected"
            % (clean_ok, detected),
        )


def test_c07_temporal_semantics_exhaustive(desk_extraction, capsys):
    """Temporal core vs the window-scan oracle over every input sequence of
    length <= 12.

    Identical joint simulator configurations are merged and their sequence
    multiplicities tracked, so the comparison covers all 4^12 sequences
    exactly without replaying each one.
    """
    preds = desk_extraction.predicates
    table = HoldTable(preds, ())
    need = {p.id: cycles_for(p.duration_ms, PERIOD) + 1 for p in preds}
    combos = [{"move": m, "position": p} for m in (0, 1) for p in (0, 1)]

    def window_advance(hists, env):
        new = {}
        flags = {}
        for p in preds:
            holds = int(env[p.var]) == p.expected
            hist = (hists[p.id] + (holds,))[-need[p.id]:]
            new[p.id] = hist
            flags[p.id] = len(hist) == need[p.id] and all(hist)
        return new, flags

    init_hists = {p.id: () for p in preds}
    configs = {(table.initial, tuple(sorted(init_hists.items()))):
               (table.initial, init_hists, 1)}
    checked = 0
    for depth in range(1, 13):
        nxt = {}
        for real, hists, count in configs.values():
            for inputs in combos:
                stepped, flags_real = table.step(real, inputs, {}, PERIOD)
                hists2, flags_oracle = window_advance(hists, inputs)
                assert flags_real == flags_oracle, (depth, inputs)
                checked += 1
                key = (stepped, tuple(sorted(hists2.items())))
                if key in nxt:
                    nxt[key] = (stepped, hists2, nxt[key][2] + count)
                else:
                    nxt[key] = (stepped, hists2, count)
        configs = nxt
        assert sum(c for _, _, c in configs.values()) == 4 ** depth
    total = sum(c for _, _, c in configs.values())
    with capsys.disabled():
        _report(
            "C07",
            total == 4 ** 12,
            "all %d length-12 input sequences agree on every predicate "
            "(%d merged configurations compared)" % (total, checked),
        )


def test_c08_mcdc_against_bruteforce(capsys):
    functions = {
        1: ["a", "!a"],
        2: ["a && b", "a || b", "!a || b"],
        3: ["a && b && c", "a || b || c", "a && (b || c)", "(a && b) || c"],
        4: ["a && b && c && d", "(a && b) || (c && d)"],
    }
    subsets_checked = 0
    for n_atoms, exprs in functions.items():
        names = [chr(ord("a") + i) for i in range(n_atoms)]
        valuations = [dict(zip(names, bits))
                      for bits in itertools.product((0, 1), repeat=n_atoms)]
        for expr in exprs:
            decls = "".join("input %s: bool; " % n for n in names)
            src = ("model d { %soutput o: bool; "
                   "logic { if (%s) { o = 1; } else { o = 0; } } }" % (decls, expr))
            ex = extract_predicates(parse_model(src))
            traces = []
            observed = []
            for v in valuations:
                _, _, trace = eval_model(ex.model, v, {}, {})
                traces.append(trace)
                record = trace.decisions[0]
                observed.append((tuple(x for _, x in record.conditions), record.outcome))
            for keep in itertools.product((0, 1), repeat=len(valuations)):
                report = CoverageReport.for_model(ex.model)
                chosen = []
                for flag, trace, obs in zip(keep, traces, observed):
                    if flag:
                        report.accumulate(trace)
                        chosen.append(obs)
                expected = mcdc_covered_bruteforce(set(chosen), n_atoms)
                pairs = report.mcdc_pairs()[""]
                atom_ids = report.decisions[""]
                for i, atom in enumerate(atom_ids):
                    assert (pairs[atom] is not None) == expected[i], (expr, chosen, atom)
                subsets_checked += 1
    with capsys.disabled():
        _report("C08", True,
                "unique-cause agreement on %d vector subsets across decisions "
                "with 1-4 conditions" % subsets_checked)


def test_c09_transport_equivalence(capsys):
    logs = {}
    base = dict(model_path=MODEL_PATH, remap=dict(IRON_DESK_REMAP))
    logs["inproc"] = run_campaign(RunConfig(**base)).log.to_json_lines()

    with subprocess.Popen(
        [sys.executable, "-m", "cyclotest.iron_sut", "--listen", "tcp:127.0.0.1:0",
         "--durations", "3000,5000"],
        stdout=subprocess.PIPE, text=True,
    ) as proc:
        try:
            address = proc.stdout.readline().split()[-1]
            logs["tcp"] = run_campaign(
                RunConfig(sut="tcp:%s" % address, **base)).log.to_json_lines()
            proc.wait(timeout=10)
        finally:
            if proc.poll() is None:
                proc.kill()

    stdio_cmd = "%s -m cyclotest.iron_sut --durations 3000,5000" % sys.executable
    logs["stdio"] = run_campaign(RunConfig(sut="stdio:%s" % stdio_cmd, **base)).log.to_json_lines()

    ok = logs["inproc"] == logs["tcp"] == logs["stdio"] and len(logs["inproc"]) > 0
    with capsys.disabled():
        _report("C09", ok, "identical %d-line test logs over in-process, TCP and stdio"
                % len(logs["inproc"].splitlines()))


def test_c10_kernel_determinism(capsys):
    runs = [run_campaign(desk_config()) for _ in range(2)]
    lines = [
        "\n".join(r.to_json(deterministic=True) for r in result.kernel.records)
        for result in runs
    ]
    records = runs[0].kernel.records
    deltas = {b.sys_time_ms - a.sys_time_ms for a, b in zip(records, records[1:])}
    test_logs_equal = runs[0].log.to_json_lines() == runs[1].log.to_json_lines()
    ok = lines[0] == lines[1] and deltas == {PERIOD} and test_logs_equal
    with capsys.disabled():
        _report(
            "C10",
            ok,
            "two streaming runs produced bit-identical logs over %d cycles; "
            "system time advances by exactly %d ms per cycle" % (len(records), PERIOD),
        )
