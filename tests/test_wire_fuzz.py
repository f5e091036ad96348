"""Seeded fuzzing of the wire: a campaign whose subject answers with one bad
observation line ends in exit 3 and one line of error, its reason, over stdio
and TCP, at the first cycle or after a prefix of correct observations; one
well-formed but wrong observation after such a prefix ends in exit 4.

Every generated line is bad by construction, so no line can pass for a
good observation: each fault alone is one the link must reject.
"""
import json
import random
import re
import socket
import threading
import time

import pytest
from conftest import MODEL_PATH, desk_config

from cyclotest import mediator
from cyclotest.cli import main, run_campaign
from cyclotest.iron import iron_model
from cyclotest.mediator import InProcessLink, hello_for_model

DESK = ["--remap-duration", "60s=3", "--remap-duration", "900s=5"]
SEED = 14
LINES = 200  # per transport

MISSING = object()  # the field is left out

VALID = {"type": "observation", "cycle": 0, "sys_time_ms": 1000,
         "outputs": {"heating": 1}, "state": {}}

# for each field of the first observation, values that the link must reject
BAD_VALUES = {
    "type": [MISSING, "observe", "hello", "error", None, 7],
    "cycle": [MISSING, 1, -1, True, False, 0.0, "0", None, [], {}],
    "sys_time_ms": [MISSING, "1000", 1000.5, 1000.0, None, True, [], {"ms": 1000},
                    float("nan"), 10 ** 30 + 0.5],
    "outputs": [MISSING, None, [], "x", 0, False, {}, {"heating": 2}, {"heating": -1},
                {"heating": True}, {"heating": "1"}, {"heating": 1.0}, {"heating": None},
                {"heating": [1]}, {"heating": 1, "boiler": 0}, {"boiler": 1}],
    "state": [MISSING, None, [], False, "x", 0, {"level": 1}, {"heating": 1}],
}

NOT_OBJECTS = [b"[]", b"42", b'"observation"', b"null", b"true", b"", b"{", b"}"]


def bad_line(rng: random.Random, valid: dict = VALID) -> bytes:
    """One observation line with at least one fault, made from the correct
    observation ``valid``."""
    kind = rng.random()
    if kind < 0.1:
        return rng.choice(NOT_OBJECTS) + b"\n"
    obs = dict(valid)
    if kind < 0.25:  # a good observation, broken as text
        text = json.dumps(obs).encode()
        if rng.random() < 0.5:
            cut = rng.randrange(len(text))
            return text[:cut] + b"\n"
        at = rng.randrange(len(text) + 1)
        return text[:at] + bytes([rng.choice([0x80, 0xC3, 0xFF])]) + text[at:] + b"\n"
    for field in rng.sample(sorted(BAD_VALUES), rng.randint(1, 3)):
        value = rng.choice(BAD_VALUES[field])
        if field == "cycle" and type(value) is int:  # a cycle next to the right one
            value += valid["cycle"]
        if value is MISSING:
            del obs[field]
        else:
            obs[field] = value
    return json.dumps(obs).encode() + b"\n"


HELLO = (json.dumps(hello_for_model(iron_model(), 1000)) + "\n").encode()

# the forms of a refused observation line's one line of error
REASON = re.compile(r"error: (undecodable message|message without a type|expected observation"
                    r"|observation (for cycle|cycle|sys_time_ms|outputs|state)|subject error)"
                    r"[^\n]*\n")


def _run(capsys, sut: str) -> tuple:
    code = main(["run", "--model", MODEL_PATH, "--sut", sut, "--timeout", "2", "--json",
                 "--deterministic"] + DESK)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _assert_mediator_failure(line: bytes, result: tuple, passes: int = 0) -> None:
    code, out, err = result
    assert code == 3, (line, err)
    assert json.loads(out)["verdicts"] == {
        "MediatorFailure": 1, **({"Pass": passes} if passes else {})}, line
    # exactly one line, the link's reason for refusing the line
    assert REASON.fullmatch(err), (line, err)


def test_bad_lines_over_stdio_exit_3(capsys, tmp_path):
    rng = random.Random(SEED)
    started = time.monotonic()
    for i in range(LINES):
        line = bad_line(rng)
        script = tmp_path / ("session-%d" % i)
        script.write_bytes(HELLO + line)
        # the subject sends its lines, then reads until the engine hangs up
        sut = "stdio:sh -c 'cat \"$0\"; exec cat >/dev/null' %s" % script
        _assert_mediator_failure(line, _run(capsys, sut))
    assert time.monotonic() - started < 30


def test_bad_lines_over_tcp_exit_3(capsys):
    rng = random.Random(SEED + 1)
    lines = [bad_line(rng) for _ in range(LINES)]
    server = socket.create_server(("127.0.0.1", 0))
    server.settimeout(10)

    def serve() -> None:
        # one connection per line, in order: hello, the line, then read
        # until the engine hangs up
        for line in lines:
            try:
                conn, _ = server.accept()
            except OSError:
                return
            with conn:
                conn.sendall(HELLO + line)
                conn.settimeout(10)
                try:
                    while conn.recv(4096):
                        pass
                except OSError:
                    pass

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    started = time.monotonic()
    try:
        address = "tcp:127.0.0.1:%d" % server.getsockname()[1]
        for line in lines:
            _assert_mediator_failure(line, _run(capsys, address))
    finally:
        server.close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert time.monotonic() - started < 30


def _serve_once(server, session: bytes) -> None:
    """Send ``session`` on the first connection, then read until the engine
    hangs up."""
    try:
        conn, _ = server.accept()
    except OSError:
        return
    with conn:
        conn.sendall(session)
        conn.settimeout(10)
        try:
            while conn.recv(4096):
                pass
        except OSError:
            pass


def _runs(capsys, tmp_path, transport: str, sessions: list):
    """The run against each of ``sessions``, in order, over ``transport``:
    the subject sends the session's bytes, then reads until the engine hangs
    up."""
    if transport == "stdio":
        for i, session in enumerate(sessions):
            script = tmp_path / ("session-%d" % i)
            script.write_bytes(session)
            yield _run(capsys, "stdio:sh -c 'cat \"$0\"; exec cat >/dev/null' %s" % script)
        return
    server = socket.create_server(("127.0.0.1", 0))
    server.settimeout(10)
    thread = threading.Thread(target=lambda: [_serve_once(server, session)
                                              for session in sessions], daemon=True)
    thread.start()
    try:
        address = "tcp:127.0.0.1:%d" % server.getsockname()[1]
        for _ in sessions:
            yield _run(capsys, address)
    finally:
        server.close()
        thread.join(timeout=10)
    assert not thread.is_alive()


# lines that json.loads refuses with a ValueError that is no JSONDecodeError
# (an int of more digits than int() converts) or with a RecursionError
LONG_INT = b"9" * 5000
OBSERVATION = (b'{"type": "observation", "cycle": 0, "sys_time_ms": %s, "outputs": %s, '
               b'"state": {}}\n')
UNDECODABLE = {
    "long-sys-time": HELLO + OBSERVATION % (LONG_INT, b'{"heating": 1}'),
    "deep-outputs": HELLO + OBSERVATION % (b"1000", b"[" * 100_000 + b"]" * 100_000),
    "long-hello": HELLO.replace(b'"cycle_period_ms": 1000', b'"cycle_period_ms": ' + LONG_INT),
}


@pytest.mark.parametrize("transport", ["stdio", "tcp"])
@pytest.mark.parametrize("case", sorted(UNDECODABLE))
def test_undecodable_line_exit_3(capsys, tmp_path, case, transport):
    session = UNDECODABLE[case]
    [result] = _runs(capsys, tmp_path, transport, [session])
    if case != "long-hello":
        _assert_mediator_failure(session, result)
        return
    # no campaign starts without a hello
    code, out, err = result
    assert (code, out) == (3, "")
    assert err.startswith("error: undecodable message: ") and err.count("\n") == 1, err


PREFIX_SEED = 16
PREFIX_FAULTS = 100  # malformed lines per transport, each after a seeded prefix
# the cycles at which a well-formed observation flips heating: 1 and 14 are
# steps that the desk campaign takes afresh, the others are cycles of holds
# repeated from earlier actions, whose steps the specification remembers
FLIPPED_AT = (1, 7, 14, 26, 110, 215)
FRESH = (1, 14)


@pytest.fixture(scope="module")
def desk_observations() -> tuple:
    """The desk campaign's 216 correct observations, as a correct iron
    subject answers them, and the cycles whose step the specification took
    afresh."""
    observations, fresh = [], set()
    exchange, step_predicates = InProcessLink.exchange, mediator.step_predicates

    def recorded(link, inputs):
        cycle, now, outputs, state = obs = exchange(link, inputs)
        observations.append({"type": "observation", "cycle": cycle, "sys_time_ms": now,
                             "outputs": dict(outputs), "state": dict(state)})
        return obs

    def stepped(*args):
        fresh.add(len(observations) - 1)
        return step_predicates(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(InProcessLink, "exchange", recorded)
        patch.setattr(mediator, "step_predicates", stepped)
        result = run_campaign(desk_config())
    assert result.log.verdict_counts() == {"Pass": len(observations)} == {"Pass": 216}
    # iron has no readable state, and cycle i is at (i + 1) s
    assert all(obs["cycle"] == i and obs["sys_time_ms"] == (i + 1) * 1000 and obs["state"] == {}
               for i, obs in enumerate(observations))
    return observations, fresh


@pytest.mark.parametrize("transport", ["stdio", "tcp"])
def test_faults_after_a_valid_prefix(capsys, tmp_path, desk_observations, transport):
    observations, fresh = desk_observations
    assert fresh.issuperset(FRESH) and fresh.isdisjoint(set(FLIPPED_AT) - set(FRESH))
    lines = [json.dumps(obs).encode() + b"\n" for obs in observations]
    rng = random.Random(PREFIX_SEED + (transport == "tcp"))
    cases = []  # (k, the line sent at cycle k, whether it is well-formed)
    for _ in range(PREFIX_FAULTS):
        k = rng.randrange(1, len(lines))
        cases.append((k, bad_line(rng, observations[k]), False))
    for k in FLIPPED_AT:
        obs = dict(observations[k], outputs={"heating": 1 - observations[k]["outputs"]["heating"]})
        cases.append((k, json.dumps(obs).encode() + b"\n", True))
    sessions = [HELLO + b"".join(lines[:k]) + line for k, line, _ in cases]
    started = time.monotonic()
    for (k, line, well_formed), result in zip(cases, _runs(capsys, tmp_path, transport,
                                                           sessions)):
        if not well_formed:
            _assert_mediator_failure(line, result, passes=k)
            continue
        code, out, err = result
        assert (code, err) == (4, ""), (k, err)
        assert json.loads(out)["verdicts"] == {"Pass": k, "PostconditionFailure": 1}, k
    assert time.monotonic() - started < 30
