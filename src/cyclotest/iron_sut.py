"""Standalone iron shut-off subject speaking the NDJSON mediator protocol.

Steps ``IronSut`` once per cycle in a local kernel and serves one test
session over stdio or a single TCP connection: hello first, then a strict
set_inputs/observation alternation until shutdown or EOF.  It loads only the
model, the kernel and the mediator, which holds the wire format and the
option converters.
"""
from __future__ import annotations

import argparse
import socket
import sys

from .iron import FULL_DURATIONS_MS, IronSut, MUTANT_IDS, iron_model
from .kernel import Kernel, KernelConfig
from .mediator import (
    ProtocolError,
    WireMessage,
    hello_for_model,
    positive_int,
    tcp_address,
)


def serve(reader, writer, sut: IronSut, period_ms: int) -> int:
    def send(message: WireMessage) -> None:
        writer.write(message.encode())
        writer.flush()

    def fail(message: str) -> int:
        send(WireMessage("error", payload={"message": message}))
        return 1

    model = iron_model()
    kernel = Kernel(KernelConfig(cycle_period_ms=period_ms), sut.step)
    hello = hello_for_model(model, period_ms)
    send(WireMessage(hello.pop("type"), payload=hello))
    while True:
        line = reader.readline()
        if not line:
            return 0
        try:
            msg = WireMessage.decode(line)
        except ProtocolError as exc:
            return fail("bad message: %s" % exc)
        if msg.type == "shutdown":
            return 0
        if msg.type != "set_inputs":
            return fail("unexpected message type %r" % msg.type)
        if msg.cycle != kernel.cycles:
            return fail("cycle %r out of order, expected %d" % (msg.cycle, kernel.cycles))
        values = msg.payload.get("values")
        if not isinstance(values, dict):
            return fail("set_inputs without a values object")
        for name in model.input_names:
            if name not in values:
                return fail("missing input '%s'" % name)
            value = values[name]
            if type(value) is not int or value not in model.domains[name]:
                return fail("input '%s' = %r is not an integer in its domain" % (name, value))
        outputs = kernel.run_cycle({name: values[name] for name in model.input_names})
        send(WireMessage("observation", kernel.cycles - 1, {
            "sys_time_ms": kernel.sys_time_ms, "outputs": outputs,
            "state": sut.visible_state()}))


def duration_pair(text: str) -> tuple:
    """``SHORT_MS,LONG_MS``, each a positive int; argparse reports a
    ValueError as a usage error."""
    short, long_ = text.split(",")
    return positive_int(short), positive_int(long_)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="iron-sut",
                                     description="iron shut-off subject (NDJSON protocol)")
    parser.add_argument("--mutant", choices=MUTANT_IDS, help="serve a seeded fault")
    parser.add_argument("--listen", type=tcp_address, metavar="tcp:HOST:PORT",
                        help="serve one TCP connection instead of stdio")
    parser.add_argument("--period-ms", type=positive_int, default=1000)
    parser.add_argument("--durations", type=duration_pair, default=FULL_DURATIONS_MS,
                        metavar="SHORT_MS,LONG_MS",
                        help="condition durations in ms (default: 60 s and 900 s)")
    args = parser.parse_args(argv)
    sut = IronSut(args.durations, args.period_ms, mutant=args.mutant)

    if not args.listen:
        return serve(sys.stdin.buffer, sys.stdout.buffer, sut, args.period_ms)
    try:
        server = socket.create_server(args.listen)
    except OSError as exc:
        sys.exit("cannot listen on %s:%d: %s" % (*args.listen, exc.strerror or exc))
    with server:
        host, port = server.getsockname()[:2]
        print("listening on %s:%d" % (host, port), flush=True)
        conn, _ = server.accept()
        with conn, conn.makefile("rb") as reader, conn.makefile("wb") as writer:
            return serve(reader, writer, sut, args.period_ms)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
