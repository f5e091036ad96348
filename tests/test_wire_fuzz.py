"""Seeded fuzzing of the wire: a campaign whose subject answers with one bad
observation line ends in exit 3 and one line of error, its reason, over stdio
and TCP.

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
from conftest import MODEL_PATH

from cyclotest.cli import main
from cyclotest.iron import iron_model
from cyclotest.mediator import hello_for_model

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


def bad_line(rng: random.Random) -> bytes:
    """One observation line with at least one fault."""
    kind = rng.random()
    if kind < 0.1:
        return rng.choice(NOT_OBJECTS) + b"\n"
    obs = dict(VALID)
    if kind < 0.25:  # a good observation, broken as text
        text = json.dumps(obs).encode()
        if rng.random() < 0.5:
            cut = rng.randrange(len(text))
            return text[:cut] + b"\n"
        at = rng.randrange(len(text) + 1)
        return text[:at] + bytes([rng.choice([0x80, 0xC3, 0xFF])]) + text[at:] + b"\n"
    for field in rng.sample(sorted(BAD_VALUES), rng.randint(1, 3)):
        value = rng.choice(BAD_VALUES[field])
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


def _assert_mediator_failure(line: bytes, result: tuple) -> None:
    code, out, err = result
    assert code == 3, (line, err)
    assert json.loads(out)["verdicts"] == {"MediatorFailure": 1}, line
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
    if transport == "stdio":
        script = tmp_path / "session"
        script.write_bytes(session)
        result = _run(capsys, "stdio:sh -c 'cat \"$0\"; exec cat >/dev/null' %s" % script)
    else:
        server = socket.create_server(("127.0.0.1", 0))
        server.settimeout(10)
        thread = threading.Thread(target=_serve_once, args=(server, session), daemon=True)
        thread.start()
        try:
            result = _run(capsys, "tcp:127.0.0.1:%d" % server.getsockname()[1])
        finally:
            server.close()
            thread.join(timeout=10)
        assert not thread.is_alive()
    if case != "long-hello":
        _assert_mediator_failure(session, result)
        return
    # no campaign starts without a hello
    code, out, err = result
    assert (code, out) == (3, "")
    assert err.startswith("error: undecodable message: ") and err.count("\n") == 1, err
