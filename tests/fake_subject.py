"""Misbehaving stand-in for the iron subject, speaking the NDJSON protocol on stdio.

    python tests/fake_subject.py FAULT

It sends a correct iron hello, then answers every ``set_inputs`` with an
observation that has one fault:

* ``no-time``: the observation leaves out ``sys_time_ms``;
* ``bad-output``: ``heating`` is the string ``"x"``;
* ``time-back``: from the second cycle on, the system time goes back;
* ``partial-line``: the observation stops before its end and the subject
  stalls for 30 s without writing a newline.
"""
import json
import sys
import time

FAULTS = ("no-time", "bad-output", "time-back", "partial-line")


def main(fault: str) -> int:
    def send(data: dict) -> None:
        sys.stdout.write(json.dumps(data) + "\n")
        sys.stdout.flush()

    send({"type": "hello", "model": "iron", "inputs": ["move", "position"],
          "outputs": ["heating"], "state": [], "cycle_period_ms": 1000})
    for line in sys.stdin:
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
        elif fault == "partial-line":
            sys.stdout.write('{"type": "observation"')
            sys.stdout.flush()
            time.sleep(30)
            return 0
        send(obs)
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in FAULTS:
        sys.exit("usage: fake_subject.py {%s}" % ",".join(FAULTS))
    sys.exit(main(sys.argv[1]))
