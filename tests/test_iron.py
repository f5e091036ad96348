import io
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import desk_config

from cyclotest.cli import run_campaign
from cyclotest.contracts import VerdictKind
from cyclotest.interp import eval_model
from cyclotest.iron import (
    DESK_DURATIONS_MS,
    IronSut,
    MUTANT_IDS,
    UnknownMutant,
)
import cyclotest
from cyclotest.iron_sut import serve
from oracles import WindowOracle

PERIOD = 1000


def _drive(sut, seq):
    """Feed one input sequence, cycle times 1000, 2000, ..."""
    out = []
    for i, inputs in enumerate(seq):
        out.append(sut.step(inputs, (i + 1) * PERIOD)["heating"])
    return out


class TestIronStep:
    def test_move_keeps_heating_on(self):
        sut = IronSut(DESK_DURATIONS_MS, PERIOD)
        assert _drive(sut, [{"move": 1, "position": 0}] * 10) == [1] * 10

    def test_flat_rest_fires_at_short_duration(self):
        sut = IronSut(DESK_DURATIONS_MS, PERIOD)
        # 3-cycle condition: elapses after cycles 0..3 of holding
        heats = _drive(sut, [{"move": 0, "position": 0}] * 6)
        assert heats == [1, 1, 1, 0, 0, 0]

    def test_vertical_rest_fires_at_long_duration(self):
        sut = IronSut(DESK_DURATIONS_MS, PERIOD)
        heats = _drive(sut, [{"move": 0, "position": 1}] * 8)
        assert heats == [1, 1, 1, 1, 1, 0, 0, 0]

    def test_move_resets_accumulation(self):
        sut = IronSut(DESK_DURATIONS_MS, PERIOD)
        seq = [{"move": 0, "position": 0}] * 3 + [{"move": 1, "position": 0}]
        seq += [{"move": 0, "position": 0}] * 3
        assert _drive(sut, seq)[-1] == 1  # only 2 cycles elapsed since reset

    def test_unknown_mutant(self):
        with pytest.raises(UnknownMutant):
            IronSut(mutant="M9")


def _cosimulate(extraction, sut, seq):
    """Model (temporal core + interpreter) alongside the subject."""
    oracle = WindowOracle(extraction.predicates, PERIOD)
    disagreements = []
    for i, inputs in enumerate(seq):
        t = (i + 1) * PERIOD
        flags = oracle.step(inputs)
        expected, _, _ = eval_model(extraction.model, inputs, {}, flags)
        actual = sut.step(inputs, t)
        if expected["heating"] != actual["heating"]:
            disagreements.append(i)
    return disagreements


def _all_sequences(length):
    combos = [{"move": m, "position": p} for m in (0, 1) for p in (0, 1)]
    return itertools.product(combos, repeat=length)


class TestModelAgreement:
    def test_exhaustive_agreement_short_sequences(self, desk_extraction):
        for seq in _all_sequences(6):
            assert _cosimulate(desk_extraction, IronSut(DESK_DURATIONS_MS, PERIOD), list(seq)) == []

    def test_random_long_sequences(self, desk_extraction):
        rng = random.Random(1234)
        for _ in range(200):
            seq = [{"move": rng.randint(0, 1), "position": rng.randint(0, 1)}
                   for _ in range(40)]
            assert _cosimulate(desk_extraction, IronSut(DESK_DURATIONS_MS, PERIOD), seq) == []


class TestMutants:
    def test_every_mutant_disagrees_somewhere(self, desk_extraction):
        rng = random.Random(99)
        for mutant_id in MUTANT_IDS:
            found = False
            for _ in range(300):
                seq = [{"move": rng.randint(0, 1), "position": rng.randint(0, 1)}
                       for _ in range(20)]
                if _cosimulate(desk_extraction, IronSut(DESK_DURATIONS_MS, PERIOD, mutant_id), seq):
                    found = True
                    break
            assert found, mutant_id

    def test_m3_differs_only_on_boundary_cycles(self, desk_extraction):
        """The late-duration mutant disagrees exactly when the short compound
        condition has held for its duration on the nose."""
        short_cycles = DESK_DURATIONS_MS[0] // PERIOD
        for seq in _all_sequences(7):
            seq = list(seq)
            correct, late = IronSut(DESK_DURATIONS_MS, PERIOD), IronSut(
                DESK_DURATIONS_MS, PERIOD, "M3")
            run = 0  # consecutive cycles (!move && !position) has held
            for i, inputs in enumerate(seq):
                t = (i + 1) * PERIOD
                run = run + 1 if (not inputs["move"] and not inputs["position"]) else 0
                a = correct.step(inputs, t)["heating"]
                b = late.step(inputs, t)["heating"]
                boundary = (
                    not inputs["position"] and run == short_cycles + 1
                )  # first cycle with elapsed == duration
                assert (a != b) == boundary, (seq[: i + 1], a, b)

    def test_one_cycle_late_subject_matches_strict_semantics(self, desk_extraction):
        # firing one cycle late on every condition is exactly the strict (>)
        # reading of held(); the campaign passes end to end under it
        from cyclotest.contracts import Specification
        from cyclotest.kernel import KernelConfig
        from cyclotest.mediator import InProcessLink
        from cyclotest.scenarios import build_coverage_scenario
        from cyclotest.traversal import traverse

        late = IronSut((DESK_DURATIONS_MS[0] + PERIOD, DESK_DURATIONS_MS[1] + PERIOD), PERIOD)
        link = InProcessLink(desk_extraction.model, late, KernelConfig(cycle_period_ms=PERIOD))
        spec = Specification(desk_extraction, link, strict_held=True)
        scenario = build_coverage_scenario(spec, desk_extraction, PERIOD, strict=True)
        log, _ = traverse(scenario, spec)
        assert log.outcome == "complete"
        assert all(e.verdict == VerdictKind.PASS.value for e in log.entries)

    def test_correct_sut_fails_under_strict_semantics(self):
        # ...and the inclusive implementation is distinguishable from it
        result = run_campaign(desk_config(strict_held=True))
        assert any(e.verdict != VerdictKind.PASS.value for e in result.log.entries)


def _serve(*messages):
    reader = io.BytesIO(b"".join((json.dumps(m) + "\n").encode() for m in messages))
    writer = io.BytesIO()
    code = serve(reader, writer, IronSut(DESK_DURATIONS_MS, PERIOD), PERIOD)
    return code, writer.getvalue()


class TestIronSutServe:
    def test_session_bytes(self):
        rest = {"move": 0, "position": 0}
        code, out = _serve({"type": "set_inputs", "cycle": 0, "values": rest},
                           {"type": "set_inputs", "cycle": 1, "values": dict(rest, extra=5)},
                           {"type": "shutdown"})
        assert code == 0
        assert out.decode().splitlines() == [
            '{"cycle_period_ms": 1000, "inputs": ["move", "position"], "model": "iron", '
            '"outputs": ["heating"], "state": [], "type": "hello"}',
            '{"cycle": 0, "outputs": {"heating": 1}, "state": {}, "sys_time_ms": 1000, '
            '"type": "observation"}',
            '{"cycle": 1, "outputs": {"heating": 1}, "state": {}, "sys_time_ms": 2000, '
            '"type": "observation"}',
        ]

    @pytest.mark.parametrize("values", [
        {"move": "x", "position": 0},
        {"move": 2, "position": 0},
        {"move": 0, "position": 1.0},
        {"move": 0, "position": True},
        {"move": 0, "position": None},
        {"move": 0},
    ], ids=["string", "out-of-domain", "float", "bool", "null", "missing"])
    def test_bad_input_value_gets_error(self, values):
        code, out = _serve({"type": "set_inputs", "cycle": 0, "values": values})
        replies = [json.loads(line) for line in out.splitlines()]
        assert code == 1
        assert [r["type"] for r in replies] == ["hello", "error"]
        assert "input" in replies[1]["message"]

    @pytest.mark.parametrize("values", [
        b'{"move": %s, "position": 0}' % (b"9" * 5000),
        b'{"move": %s, "position": 0}' % (b"[" * 100_000 + b"]" * 100_000),
    ], ids=["long-int", "deep"])
    def test_undecodable_line_gets_error(self, values):
        reader = io.BytesIO(b'{"type": "set_inputs", "cycle": 0, "values": %s}\n' % values)
        writer = io.BytesIO()
        code = serve(reader, writer, IronSut(DESK_DURATIONS_MS, PERIOD), PERIOD)
        replies = [json.loads(line) for line in writer.getvalue().splitlines()]
        assert code == 1
        assert [r["type"] for r in replies] == ["hello", "error"]
        assert replies[1]["message"].startswith("bad message: undecodable message: ")


def test_iron_sut_loads_only_the_model_the_kernel_and_the_wire():
    # the subject program is not the test engine: no cli, oracle, coverage,
    # reduction or traversal
    src = str(Path(cyclotest.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    script = ("import sys, cyclotest.iron_sut; print(*sorted(m for m in sys.modules "
              "if m.split('.')[0] == 'cyclotest'))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert proc.stdout.split() == ["cyclotest", "cyclotest.dsl", "cyclotest.iron",
                                   "cyclotest.iron_sut", "cyclotest.kernel",
                                   "cyclotest.mediator", "cyclotest.temporal"]
