import hashlib
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import GUARD_SRC, MODEL_PATH, TANK_SRC

import cyclotest
from cyclotest.cli import main

DESK = ["--remap-duration", "60s=3", "--remap-duration", "900s=5"]


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerateStates:
    def test_text_report(self, capsys):
        code, out, _ = _run(capsys, ["enumerate-states", "--model", MODEL_PATH] + DESK)
        assert code == 0
        assert "upper bound: 16" in out
        assert "reachable flag states: 9" in out

    def test_json_report(self, capsys):
        code, out, _ = _run(capsys, ["enumerate-states", "--model", MODEL_PATH, "--json"] + DESK)
        data = json.loads(out)
        assert code == 0
        assert data["upper_bound"] == 16
        assert data["reachable"] == 9
        assert len(data["states"]) == 9

    def test_text_witness_runs_compact(self, capsys):
        code, out, _ = _run(capsys, ["enumerate-states", "--model", MODEL_PATH] + DESK)
        assert code == 0
        assert out.splitlines()[4:] == [
            "  [0, 0, 0, 0]  via <initial>",
            "  [1, 1, 0, 0]  via (move=0,position=0) x4",
            "  [1, 0, 0, 0]  via (move=0,position=0) x3 (move=0,position=1)",
            "  [0, 1, 0, 0]  via (move=0,position=0) x3 (move=1,position=0)",
            "  [1, 1, 1, 0]  via (move=0,position=0) x6",
            "  [1, 0, 1, 0]  via (move=0,position=0) x5 (move=0,position=1)",
            "  [1, 0, 1, 1]  via (move=0,position=1) x6",
            "  [0, 0, 0, 1]  via (move=0,position=1) x5 (move=1,position=1)",
            "  [1, 0, 0, 1]  via (move=0,position=1) (move=1,position=1) (move=0,position=1) x4",
        ]

    def test_missing_model_exit_2(self, capsys):
        code, _, err = _run(capsys, ["enumerate-states", "--model", "/nonexistent.ctl"])
        assert code == 2
        assert "cannot read model" in err


class TestReduce:
    def test_lists_and_partition(self, capsys):
        code, out, _ = _run(capsys, ["reduce", "--model", MODEL_PATH, "--json"] + DESK)
        data = json.loads(out)
        assert code == 0
        assert len(data["test_cases"]) == 4
        assert len(data["rewritten"]) == 4
        assert [p["condition"] for p in data["projections"]] == [
            "move_eq_f_t2 && position_eq_t_t2",
            "!(move_eq_f_t2 && position_eq_t_t2)",
            "move_eq_f_t1 && position_eq_f_t1",
            "!(move_eq_f_t1 && position_eq_f_t1)",
        ]
        assert sum(len(cell["states"]) for cell in data["partition"]) == 9

    def test_text_sections(self, capsys):
        code, out, _ = _run(capsys, ["reduce", "--model", MODEL_PATH] + DESK)
        assert code == 0
        for step in ("step 1", "step 2", "step 3", "step 4"):
            assert step in out


class TestAnalysisPinned:
    # sha256 of the JSON report and of stderr (the check_model diagnostics),
    # taken before generalized states were read off the tree walk; the tank
    # and guard reduce reports were re-taken when the printed conditions
    # became re-parseable (an || factor in parentheses, projections that mix
    # inputs with predicate ids under "exists inputs:"); the guard diagnostics
    # were re-taken when leaf warnings gained the leaf's source position
    @pytest.mark.parametrize("model, command, out_sha, err_sha", [
        ("iron", "reduce",
         "8fee2416cfbb7c6fae320a07dbcda1253e861fe6e93b36851ec17e728797f06a",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("iron", "enumerate-states",
         "feb4f1164fa77757f289307435040992f06f517cfce0770e9aedbb92c08b02ac",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("tank", "reduce",
         "80edbdd73565d946c183ff61eff2056e4eaaf61c8c2196fd7825e3a5a867bade",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("tank", "enumerate-states",
         "d560b30fccffaf236ad45a19ab6f348ffc89c1e9783d1307de71e5fd19b57bd8",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("guard", "reduce",
         "9d52e33110e256be9560aa7b49df4afe8b21dee98842aa9f16b0fec3dba388f9",
         "13e4eb26803407224f4a54a31edb53bad8307fb7834880e114364935114f1a6c"),
        ("guard", "enumerate-states",
         "68b93f727dbb3ca65c984faffa673283f46e6ebe4e24aae7536a40cb5c03b739",
         "13e4eb26803407224f4a54a31edb53bad8307fb7834880e114364935114f1a6c"),
    ])
    def test_json_and_diagnostics_pinned(self, capsys, tmp_path, monkeypatch, model, command,
                                         out_sha, err_sha):
        if model == "iron":
            argv = ["--model", MODEL_PATH] + DESK
        else:
            # a relative path, so the diagnostics name the file the same way
            monkeypatch.chdir(tmp_path)
            Path(model + ".ctl").write_text({"tank": TANK_SRC, "guard": GUARD_SRC}[model])
            argv = ["--model", model + ".ctl"]
        code, out, err = _run(capsys, [command] + argv + ["--json"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == out_sha
        assert hashlib.sha256(err.encode()).hexdigest() == err_sha

    # the 20-input models of the CI's wide-input step
    @pytest.mark.parametrize("model, reachable, cells", [
        ("wide20", 8, 3), ("wide20_state", 16, 5)])
    def test_wide_input_counts(self, capsys, model, reachable, cells):
        argv = ["--model", str(Path(__file__).resolve().parent / "models" / (model + ".ctl")),
                "--json"]
        code, out, err = _run(capsys, ["enumerate-states"] + argv)
        assert (code, err, json.loads(out)["reachable"]) == (0, "", reachable)
        code, out, err = _run(capsys, ["reduce"] + argv)
        assert (code, err, len(json.loads(out)["partition"])) == (0, "", cells)

    # iron at its own 60 s/900 s; taken from the breadth-first search that
    # the closed form for models without state variables replaced
    @pytest.mark.parametrize("command, argv, out_sha", [
        ("enumerate-states", [],
         "ab54b7b04b2420df4ea86b634de2012f9b3cd147df455d2f1260440303f5d4e4"),
        ("enumerate-states", ["--period-ms", "700", "--strict-held"],
         "8af42044d5a98c46dbf7921dbd1273693438f86e4e39a1aee3a02564da2cedba"),
        ("reduce", [],
         "848a9f25962e12727df4558b356d9013e79ec86f2473a30935e70a54e1f85dff"),
        ("reduce", ["--period-ms", "700", "--strict-held"],
         "848a9f25962e12727df4558b356d9013e79ec86f2473a30935e70a54e1f85dff"),
    ], ids=["enumerate-1000ms", "enumerate-700ms-strict", "reduce-1000ms", "reduce-700ms-strict"])
    def test_paper_scale_json_pinned(self, capsys, command, argv, out_sha):
        code, out, err = _run(capsys, [command, "--model", MODEL_PATH, "--json"] + argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == out_sha
        assert err == ""


class TestRun:
    def test_correct_subject_exit_0(self, capsys):
        code, out, _ = _run(capsys, [
            "run", "--model", MODEL_PATH, "--sut", "inproc:iron",
            "--require", "branch=1.0", "--deterministic", "--json",
        ] + DESK)
        data = json.loads(out)
        assert code == 0
        assert data["coverage"]["branch"] == 1.0
        assert set(data["verdicts"]) == {"Pass"}

    def test_mutant_exit_4(self, capsys):
        code, out, _ = _run(capsys, [
            "run", "--model", MODEL_PATH, "--sut", "inproc:iron:M1", "--json",
            "--deterministic",
        ] + DESK)
        data = json.loads(out)
        assert code == 4
        assert data["verdicts"].get("PostconditionFailure") == 1

    def test_missing_model_exit_2(self, capsys):
        code, _, _ = _run(capsys, ["run", "--model", "/nonexistent.ctl"])
        assert code == 2

    def test_dead_tcp_subject_exit_3(self, capsys):
        code, _, err = _run(capsys, [
            "run", "--model", MODEL_PATH, "--sut", "tcp:127.0.0.1:9", "--timeout", "0.5",
        ] + DESK)
        assert code == 3

    def test_unmet_coverage_exit_5(self, capsys):
        code, _, _ = _run(capsys, [
            "run", "--model", MODEL_PATH, "--scenario", "piece:t",
            "--require", "branch=1.0", "--json", "--deterministic",
        ] + DESK)
        assert code == 5

    def test_deterministic_json_byte_identical(self, capsys):
        argv = ["run", "--model", MODEL_PATH, "--json", "--deterministic"] + DESK
        outputs = [_run(capsys, argv)[1] for _ in range(2)]
        assert outputs[0] == outputs[1]

    def test_desk_output_pinned(self, capsys, tmp_path):
        # sha256 of the desk-scale test log, cycle records and JSON report;
        # a change to any is a change of observable behaviour
        log, cycles = tmp_path / "log.jsonl", tmp_path / "cycles.jsonl"
        code, out, _ = _run(capsys, ["run", "--model", MODEL_PATH, "--json", "--deterministic",
                                     "--log", str(log), "--trace-cycles", str(cycles)] + DESK)
        assert code == 0
        assert hashlib.sha256(log.read_bytes()).hexdigest() == (
            "2f93ba03921d0dfe609976da8e528245e7682b840fdc38d203369bc1cf39ddec")
        assert hashlib.sha256(cycles.read_bytes()).hexdigest() == (
            "dd64a0c56cea142fb6fe1b893cb13ecaf57bc2aa8e6fbabda5d05529563a0535")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "828f7ae44ffab2ab800d1698a704a025ff270901e903cfead0dbb1cf79ea9a62")

    def test_paper_output_pinned(self, capsys, tmp_path):
        # the same at the model's own 60 s/900 s: 30,646 stimuli
        log, cycles = tmp_path / "log.jsonl", tmp_path / "cycles.jsonl"
        code, out, _ = _run(capsys, ["run", "--model", MODEL_PATH, "--json", "--deterministic",
                                     "--log", str(log), "--trace-cycles", str(cycles)])
        assert code == 0
        assert hashlib.sha256(log.read_bytes()).hexdigest() == (
            "47e8882379ed59e57106cc2f11078ec0c5201ad71dbf49c479cda7260cf1b79b")
        assert hashlib.sha256(cycles.read_bytes()).hexdigest() == (
            "01a9a49dc21697bf29eda2dec3a294b60824932bda553564bbaf5b00a4558f7e")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "8a28ed9eadfda2b638882ff705208b244b1bab6681b15a104690e2037d9f64f0")

    def test_artifacts_written(self, capsys, tmp_path):
        log = tmp_path / "log.jsonl"
        dot = tmp_path / "automaton.dot"
        cycles = tmp_path / "cycles.jsonl"
        code, _, _ = _run(capsys, [
            "run", "--model", MODEL_PATH, "--deterministic",
            "--log", str(log), "--dot", str(dot), "--trace-cycles", str(cycles),
        ] + DESK)
        assert code == 0
        entries = [json.loads(line) for line in log.read_text().splitlines()]
        assert {"cycle", "state", "action", "verdict", "replay"} <= set(entries[0])
        assert dot.read_text().startswith("digraph")
        records = [json.loads(line) for line in cycles.read_text().splitlines()]
        assert records[0] == {"cycle": 0, "sys_time_ms": 1000, "overrun": False}
        deltas = {b["sys_time_ms"] - a["sys_time_ms"] for a, b in zip(records, records[1:])}
        assert deltas == {1000}

    def test_seeded_run_reproducible(self, capsys):
        argv = ["run", "--model", MODEL_PATH, "--seed", "7", "--json", "--deterministic"] + DESK
        outputs = [_run(capsys, argv)[1] for _ in range(2)]
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["coverage"]["branch"] == 1.0


# iron with a redundant inner test of position: its else leaf 'te' is
# unreachable, and the iron subject still passes every cycle
IRON_DEAD_LEAF_SRC = """\
model iron {
  input move: bool;
  input position: bool;
  output heating: bool;

  logic {
    if (position) {
      if (position) {
        if (held(!move && position, 900s)) { heating = 0; } else { heating = 1; }
      } else {
        heating = 1;
      }
    } else {
      if (held(!move && !position, 60s)) { heating = 0; } else { heating = 1; }
    }
  }
}
"""


class _InlinePool:
    """Stands in for the process pool: records its size and runs the work
    in this process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


class TestPiecemeal:
    def test_jobs_do_not_change_the_output(self, capsys, tmp_path):
        outputs = []
        for jobs in ("1", "2"):
            log = tmp_path / ("log%s.jsonl" % jobs)
            code, out, _ = _run(capsys, [
                "run", "--model", MODEL_PATH, "--scenario", "piecemeal", "--jobs", jobs,
                "--require", "branch=1.0", "--json", "--deterministic", "--log", str(log),
            ] + DESK)
            assert code == 0
            assert json.loads(out)["coverage"]["branch"] == 1.0
            outputs.append((out, log.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_pool_has_at_most_one_process_per_part(self, capsys, monkeypatch):
        monkeypatch.setattr(cyclotest.cli, "ProcessPoolExecutor", _InlinePool)
        monkeypatch.setattr(_InlinePool, "sizes", [])
        for jobs in ("1", "10000"):
            code, _, _ = _run(capsys, ["run", "--model", MODEL_PATH, "--scenario", "piecemeal",
                                       "--jobs", jobs, "--json", "--deterministic"] + DESK)
            assert code == 0
        # two parts: one serial run, then a pool of two
        assert _InlinePool.sizes == [2]

    def test_bad_subject_in_a_worker_exit_2(self, capsys):
        # the usage error crosses back from a pool process
        code, _, err = _run(capsys, ["run", "--model", MODEL_PATH, "--scenario", "piecemeal",
                                     "--jobs", "2", "--sut", "inproc:iron:M9"] + DESK)
        assert code == 2
        assert err == "error: unknown iron mutant 'M9'\n"

    def test_a_failing_later_part_fails_the_merged_outcome(self, capsys):
        # M3 fails only in part 'e', the second part
        code, out, _ = _run(capsys, ["run", "--model", MODEL_PATH, "--scenario", "piecemeal",
                                     "--sut", "inproc:iron:M3", "--json", "--deterministic"]
                            + DESK)
        data = json.loads(out)
        assert code == 4
        assert data["verdicts"]["PostconditionFailure"] == 1
        assert data["outcome"] == "verdict_failure"

    def test_model_loaded_and_diagnosed_once(self, capsys, monkeypatch, tmp_path):
        model = tmp_path / "iron.ctl"
        model.write_text(IRON_DEAD_LEAF_SRC)
        loads = []
        load_model = cyclotest.cli.load_model
        monkeypatch.setattr(cyclotest.cli, "load_model",
                            lambda config: loads.append(config) or load_model(config))
        code, _, err = _run(capsys, ["run", "--model", str(model), "--scenario", "piecemeal",
                                     "--sut", "inproc:iron", "--json", "--deterministic"] + DESK)
        assert code == 0
        assert len(loads) == 1
        assert err == "%s:10:14: warning: leaf 'te' is unreachable\n" % model


def _subprocess(module, argv, stdout=subprocess.PIPE):
    """Run ``python -m module argv`` on this checkout's sources."""
    src = str(Path(cyclotest.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", module] + argv, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=env, timeout=60)


FAKE_SUBJECT = [sys.executable, str(Path(__file__).resolve().parent / "fake_subject.py")]
FAULTS = ["no-time", "bad-output", "time-back", "bool-cycle", "float-cycle", "no-state",
          "partial-line", "trickle"]


class TestMisbehavingSubject:
    @pytest.mark.parametrize("fault", FAULTS)
    def test_stdio_fault_exit_3_without_traceback(self, fault):
        self._assert_mediator_failure("stdio:" + shlex.join(FAKE_SUBJECT + [fault]))

    @pytest.mark.parametrize("fault", FAULTS)
    def test_tcp_fault_exit_3_without_traceback(self, fault):
        with subprocess.Popen(FAKE_SUBJECT + [fault, "--tcp"], stdout=subprocess.PIPE,
                              text=True) as server:
            try:
                address = server.stdout.readline().split()[-1]
                self._assert_mediator_failure("tcp:" + address)
            finally:
                server.kill()

    @staticmethod
    def _assert_mediator_failure(sut):
        started = time.monotonic()
        proc = _subprocess("cyclotest.cli", ["run", "--model", MODEL_PATH, "--sut", sut,
                                             "--timeout", "1", "--json", "--deterministic"]
                           + DESK)
        # one timed-out reply line and one timed-out wait for a stdio child at most
        assert time.monotonic() - started < 10
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stdout)["verdicts"]["MediatorFailure"] == 1

    def test_raising_inproc_subject_exit_3(self, capsys, monkeypatch):
        class Raising:
            def step(self, inputs, sys_time_ms):
                raise RuntimeError("actuator fault")

        monkeypatch.setattr(cyclotest.iron, "IronSut", lambda *args: Raising())
        code, out, _ = _run(capsys, ["run", "--model", MODEL_PATH, "--json",
                                     "--deterministic"] + DESK)
        assert code == 3
        assert json.loads(out)["verdicts"] == {"MediatorFailure": 1}


class TestBadArguments:
    @pytest.mark.parametrize("module, argv", [
        ("cyclotest.cli", ["--remap-duration", "60x=3"]),
        ("cyclotest.cli", ["--remap-duration", "60s=0"]),
        ("cyclotest.cli", ["--remap-duration", "60s=-1"]),
        ("cyclotest.cli", ["--scenario", "piecemeal", "--parts", "zz"]),
        ("cyclotest.cli", ["--scenario", "piecemeal", "--parts", "t", "t"]),
        ("cyclotest.cli", ["--scenario", "piece:zz"]),
        ("cyclotest.cli", ["--parts", "zz"]),
        ("cyclotest.cli", ["--jobs", "2"]),
        ("cyclotest.cli", ["--scenario", "piecemeal", "--dot", "automaton.dot"]),
        ("cyclotest.cli", ["--require", "branch=abc"]),
        ("cyclotest.cli", ["--require", "branch=nan"]),
        ("cyclotest.cli", ["--require", "branch=1.5"]),
        ("cyclotest.cli", ["--time-scale", "abc"]),
        ("cyclotest.cli", ["--sut", "tcp:127.0.0.1:notaport"]),
        ("cyclotest.cli", ["--sut", "inproc:iron:M9"]),
        ("cyclotest.cli", ["--budget", "0"]),
        ("cyclotest.cli", ["--jobs", "0"]),
        ("cyclotest.cli", ["--jobs", "-1"]),
        ("cyclotest.cli", ["--timeout", "0"]),
        ("cyclotest.cli", ["--timeout", "-1"]),
        ("cyclotest.cli", ["--period-ms", "0"]),
        ("cyclotest.cli", ["--period-ms", "-5"]),
        ("cyclotest.iron_sut", ["--durations", "3,x"]),
        ("cyclotest.iron_sut", ["--listen", "tcp:127.0.0.1:notaport"]),
        ("cyclotest.iron_sut", ["--period-ms", "0"]),
        ("cyclotest.iron_sut", ["--period-ms", "-5"]),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v.split(".")[-1])
    def test_exit_2_without_traceback(self, module, argv):
        if module == "cyclotest.cli":
            argv = ["run", "--model", MODEL_PATH] + argv
        proc = _subprocess(module, argv)
        _assert_usage_error(proc)
        if argv[-2].startswith("--period-ms"):
            assert "--period-ms" in proc.stderr.splitlines()[-1]

    @pytest.mark.parametrize("command", ["run", "enumerate-states", "reduce"])
    def test_held_over_output_exit_2_at_its_position(self, capsys, tmp_path, command):
        model = tmp_path / "m.ctl"
        model.write_text("model m { input a: bool; output o: bool; logic {\n"
                         "  if (held(o, 1s)) { o = 1; } else { o = 0; } } }\n")
        code, out, err = _run(capsys, [command, "--model", str(model)])
        assert code == 2
        assert err.splitlines() == ["error: %s: 2:12: cannot read output 'o'" % model]

    @pytest.mark.parametrize("argv", [
        ["--scenario", "piecemeal"],
        ["--sut", "stdio:SUBJECT"],
        ["--sut", "tcp:127.0.0.1:9"],
    ], ids=["piecemeal", "stdio", "tcp"])
    def test_trace_cycles_needs_one_in_process_kernel(self, tmp_path, argv):
        # refused before the cycles file is opened or a subject is started
        started, cycles = tmp_path / "started", tmp_path / "cycles.jsonl"
        subject = shlex.join([sys.executable, "-c", "open(%r, 'w')" % str(started)])
        argv = [arg.replace("SUBJECT", subject) for arg in argv]
        proc = _subprocess("cyclotest.cli", ["run", "--model", MODEL_PATH, "--trace-cycles",
                                             str(cycles)] + argv + DESK)
        _assert_usage_error(proc)
        assert "--trace-cycles needs" in proc.stderr.splitlines()[-1]
        assert not cycles.exists() and not started.exists()

    @pytest.mark.parametrize("command", ["run", "enumerate-states", "reduce"])
    def test_remap_of_an_unused_duration_exit_2(self, tmp_path, command):
        # refused before a subject is started
        started = tmp_path / "started"
        subject = shlex.join([sys.executable, "-c", "open(%r, 'w')" % str(started)])
        argv = [command, "--model", MODEL_PATH, "--remap-duration", "7s=3",
                "--remap-duration", "60s=3"]
        proc = _subprocess("cyclotest.cli", argv + (["--sut", "stdio:" + subject]
                                                    if command == "run" else []))
        _assert_usage_error(proc)
        assert proc.stderr.splitlines() == [
            "error: --remap-duration: no held() in %s lasts 7000 ms" % MODEL_PATH]
        assert not started.exists()

    @pytest.mark.parametrize("command", ["run", "enumerate-states", "reduce"])
    def test_unassigned_output_exit_2_at_its_declaration(self, capsys, tmp_path, command):
        model = tmp_path / "unassigned.ctl"
        model.write_text("model m {\n  input a: bool;\n  output o: bool;\n  output p: bool;\n"
                         "  logic { if (a) { o = 1; } else { o = 0; } }\n}\n")
        code, out, err = _run(capsys, [command, "--model", str(model)])
        assert code == 2
        assert err.splitlines() == ["error: %s: 4:10: output never assigned: 'p'" % model]

    @pytest.mark.parametrize("command", ["run", "enumerate-states", "reduce"])
    @pytest.mark.parametrize("source, message", [
        pytest.param("model m { input a: bool; input b: bool; output o: bool; logic { "
                     "if (held(a || b, 3s)) { o = 1; } else { o = 0; } } }",
                     "1:76: held() needs a conjunction of literals, got 'a || b'",
                     id="held-disjunction"),
        pytest.param("model m { input a: bool; output a_eq_t_t1: bool; logic { "
                     "if (held(a, 2s)) { a_eq_t_t1 = 1; } else { a_eq_t_t1 = 0; } } }",
                     "1:33: predicate id 'a_eq_t_t1' collides with a declaration",
                     id="predicate-id-collision"),
    ])
    def test_extraction_error_exit_2_without_traceback(self, tmp_path, command, source, message):
        model = tmp_path / "bad.ctl"
        model.write_text(source)
        proc = _subprocess("cyclotest.cli", [command, "--model", str(model)])
        _assert_usage_error(proc)
        assert proc.stderr.splitlines() == ["error: %s: %s" % (model, message)]


class TestOutputFaults:
    """An output that cannot be opened or written is one line on stderr
    and a documented exit code, never a traceback."""

    @pytest.mark.parametrize("option", ["--log", "--trace-cycles", "--dot"])
    def test_unopenable_output_exit_2_before_the_subject_starts(self, tmp_path, option):
        # the cycle records need the in-process subject, which starts no process
        started = tmp_path / "started"
        subject = shlex.join([sys.executable, "-c", "open(%r, 'w')" % str(started)])
        sut = "inproc:iron" if option == "--trace-cycles" else "stdio:" + subject
        proc = _subprocess("cyclotest.cli", ["run", "--model", MODEL_PATH, "--sut", sut,
                                             option, "/nonexistent/x"] + DESK)
        _assert_usage_error(proc)
        assert proc.stderr.splitlines() == [
            "error: cannot open /nonexistent/x: No such file or directory"]
        assert not started.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("option", ["--log", "--trace-cycles", "--dot"])
    def test_failed_write_exit_6(self, option):
        proc = _subprocess("cyclotest.cli", ["run", "--model", MODEL_PATH, option, "/dev/full"]
                           + DESK)
        assert proc.returncode == 6, proc.stderr
        assert proc.stderr.splitlines() == [
            "error: cannot write /dev/full: No space left on device"]

    @pytest.mark.parametrize("command", ["run", "enumerate-states", "reduce"])
    @pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
    def test_closed_stdout_exit_6(self, command, fmt):
        read_end, write_end = os.pipe()
        os.close(read_end)
        with os.fdopen(write_end, "w") as stdout:
            proc = _subprocess("cyclotest.cli", [command, "--model", MODEL_PATH] + fmt + DESK,
                               stdout=stdout)
        assert proc.returncode == 6, proc.stderr
        assert proc.stderr.splitlines() == [
            "error: cannot write standard output: Broken pipe"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_stdout_exit_6(self):
        with open("/dev/full", "w") as stdout:
            proc = _subprocess("cyclotest.cli", ["run", "--model", MODEL_PATH] + DESK,
                               stdout=stdout)
        assert proc.returncode == 6, proc.stderr
        assert proc.stderr.splitlines() == [
            "error: cannot write standard output: No space left on device"]

    def test_outputs_closed_when_the_campaign_fails(self, capsys, tmp_path):
        # the early-opened files are closed on every path (the -X dev
        # ResourceWarning check sees one that is not)
        log, dot = tmp_path / "log.jsonl", tmp_path / "automaton.dot"
        code, _, err = _run(capsys, ["run", "--model", MODEL_PATH, "--log", str(log),
                                     "--dot", str(dot), "--sut", "inproc:iron:M9"] + DESK)
        assert code == 2
        assert "unknown iron mutant" in err
        code, _, err = _run(capsys, ["run", "--model", MODEL_PATH, "--log", str(log),
                                     "--dot", str(tmp_path / "missing" / "x.dot")] + DESK)
        assert code == 2
        assert "cannot open" in err


def _assert_usage_error(proc):
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "error" in proc.stderr.splitlines()[-1]


class TestTimeScale:
    def test_uniform_scale_preserves_cycle_semantics(self, capsys):
        # scaling period and durations together leaves the state count alone
        code, out, _ = _run(capsys, [
            "enumerate-states", "--model", MODEL_PATH, "--json",
            "--period-ms", "60000", "--time-scale", "1/20",
        ])
        data = json.loads(out)
        assert code == 0
        assert data["upper_bound"] == 16
        # 60 s at a 60 s period: thresholds 1 and 15 cycles, still 9 states
        assert data["reachable"] == 9
