"""Misbehaving stand-in for the iron subject, speaking the NDJSON protocol.

    python tests/fake_subject.py FAULT [--tcp]

It serves one session on stdio, or with ``--tcp`` one connection on a free
local port that it announces as ``listening on HOST:PORT``.  It sends a
correct iron hello, then answers every ``set_inputs`` with an observation
that has one fault:

* ``no-time``: the observation leaves out ``sys_time_ms``;
* ``bad-output``: ``heating`` is the string ``"x"``;
* ``time-back``: from the second cycle on, the system time goes back;
* ``bool-cycle``: the second observation's cycle is ``true``, not ``1``;
* ``float-cycle``: the second observation's cycle is ``1.0``;
* ``no-state``: the observation leaves out ``state``;
* ``partial-line``: the observation stops before its end and the subject
  stalls for 30 s without writing a newline;
* ``trickle``: the observation is written one byte every 0.5 s.
"""
import json
import socket
import sys
import time

FAULTS = ("no-time", "bad-output", "time-back", "bool-cycle", "float-cycle", "no-state",
          "partial-line", "trickle")


def serve(fault: str, reader, writer) -> int:
    def write(text: str) -> None:
        writer.write(text.encode("utf-8"))
        writer.flush()

    write(json.dumps({"type": "hello", "model": "iron", "inputs": ["move", "position"],
                      "outputs": ["heating"], "state": [], "cycle_period_ms": 1000}) + "\n")
    for line in reader:
        msg = json.loads(line)
        if msg["type"] != "set_inputs":
            return 0
        cycle = msg["cycle"]
        obs = {"type": "observation", "cycle": cycle, "sys_time_ms": (cycle + 1) * 1000,
               "outputs": {"heating": 1}, "state": {}}
        if fault == "no-time":
            del obs["sys_time_ms"]
        elif fault == "bad-output":
            obs["outputs"]["heating"] = "x"
        elif fault == "time-back" and cycle > 0:
            obs["sys_time_ms"] = 500
        elif fault == "bool-cycle" and cycle == 1:
            obs["cycle"] = True
        elif fault == "float-cycle" and cycle == 1:
            obs["cycle"] = 1.0
        elif fault == "no-state":
            del obs["state"]
        elif fault == "partial-line":
            write('{"type": "observation"')
            time.sleep(30)
            return 0
        elif fault == "trickle":
            for char in json.dumps(obs) + "\n":
                write(char)
                time.sleep(0.5)
            continue
        write(json.dumps(obs) + "\n")
    return 0


def main(fault: str, tcp: bool) -> int:
    try:
        if not tcp:
            return serve(fault, sys.stdin.buffer, sys.stdout.buffer)
        with socket.create_server(("127.0.0.1", 0)) as server:
            print("listening on %s:%d" % server.getsockname()[:2], flush=True)
            conn, _ = server.accept()
            with conn, conn.makefile("rb") as reader, conn.makefile("wb") as writer:
                return serve(fault, reader, writer)
    except OSError:  # the engine hung up
        return 0


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[:1] == [] or args[0] not in FAULTS or args[1:] not in ([], ["--tcp"]):
        sys.exit("usage: fake_subject.py {%s} [--tcp]" % ",".join(FAULTS))
    sys.exit(main(args[0], args[1:] == ["--tcp"]))
