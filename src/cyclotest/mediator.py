"""Binding between the specification and the system under test.

One exchange = one cycle: hand the subject its inputs, let it run a cycle and
return ``(cycle, sys_time_ms, outputs, state)`` as it came, dicts uncopied.  A
link only carries the messages; the specification's generated judge checks
the observation and, for a step taken afresh, steps the predicates and
synchronizes the state with this module's :func:`step_predicates` and
:func:`sync_state` (:class:`cyclotest.contracts.Specification`).  The
in-process link runs the subject's step function in a local kernel; the TCP
and stdio links speak a newline-delimited JSON protocol to a remote harness:

  hello:       {"type":"hello","model":m,"inputs":[...],"outputs":[...],
                "state":[...],"cycle_period_ms":N}
  set_inputs:  {"type":"set_inputs","cycle":n,"values":{...}}
  observation: {"type":"observation","cycle":n,"sys_time_ms":t,
                "outputs":{...},"state":{...}}
  shutdown:    {"type":"shutdown"}
  error:       {"type":"error","message":...}

Messages strictly alternate set_inputs/observation with matching cycle
numbers, starting at 0; the hello's cycle period must be the run's.  The
argparse converters ``positive_int`` and ``tcp_address`` live here, so that a
subject program loads only the model, the kernel and this module.
"""
from __future__ import annotations

import json
import os
import select
import socket
import subprocess
import time
from dataclasses import dataclass, field
from typing import Mapping, Optional

from . import temporal
from .dsl import ModelAst
from .kernel import Kernel, KernelConfig


class MediatorError(Exception):
    pass


class ProtocolError(MediatorError):
    pass


class HandshakeMismatch(MediatorError):
    pass


class ExchangeTimeout(MediatorError):
    pass


class Disconnect(MediatorError):
    pass


@dataclass(frozen=True)
class WireMessage:
    type: str
    cycle: Optional[int] = None
    payload: dict = field(default_factory=dict)

    def encode(self) -> bytes:
        data = {"type": self.type}
        if self.cycle is not None:
            data["cycle"] = self.cycle
        data.update(self.payload)
        return (json.dumps(data, sort_keys=True) + "\n").encode("utf-8")

    @staticmethod
    def decode(line: bytes) -> "WireMessage":
        try:
            data = json.loads(line.decode("utf-8"))
        # ValueError covers bad UTF-8, bad JSON and an int of too many digits
        except (ValueError, RecursionError) as exc:
            raise ProtocolError("undecodable message: %s" % exc) from exc
        if not isinstance(data, dict) or "type" not in data:
            raise ProtocolError("message without a type: %r" % line)
        cycle = data.pop("cycle", None)
        mtype = data.pop("type")
        return WireMessage(mtype, cycle, data)


def hello_for_model(model: ModelAst, cycle_period_ms: int) -> dict:
    return {"type": "hello", "model": model.name, "inputs": list(model.input_names),
            "outputs": list(model.output_names), "state": list(model.readable_names),
            "cycle_period_ms": cycle_period_ms}


def validate_hello(hello: dict, model: ModelAst, cycle_period_ms: int) -> None:
    for key, expected in hello_for_model(model, cycle_period_ms).items():
        if key != "type" and hello.get(key) != expected:
            raise HandshakeMismatch("handshake %s mismatch: subject %r, model %r"
                                    % (key, hello.get(key), expected))


class MediatorLink:
    """Carries one cycle's message each way and keeps the protocol's
    alternation: ``next_cycle`` is the cycle the next set_inputs is for.
    The link checks nothing of an observation; the specification that
    reads it does, and advances ``next_cycle`` once it fits."""

    def __init__(self, model: ModelAst):
        self.model = model
        self.next_cycle = 0

    def exchange(self, inputs: Mapping) -> tuple:
        """Run one cycle on ``inputs``, the ``int`` values of every declared
        input, and return ``(cycle, sys_time_ms, outputs, state)`` as the
        subject or the wire decoder gave them, unchecked."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class InProcessLink(MediatorLink):
    """Run the subject's step function in a local kernel: each cycle steps it
    on the inputs, then reads its outputs and state; the cycle and system
    time are the kernel's.  The kernel holds only the bound
    ``step``, so link and kernel form no reference cycle that would keep a
    spent kernel's cycle times alive."""

    def __init__(self, model: ModelAst, sut, config: Optional[KernelConfig] = None):
        super().__init__(model)
        self.kernel = Kernel(config or KernelConfig(), sut.step)
        self._visible_state = getattr(sut, "visible_state", dict)

    def exchange(self, inputs: dict) -> tuple:
        """One cycle of the subject on ``inputs``, a dict that the subject is
        given as it is and may write: the caller hands over a fresh one, as
        the generated judge does, and reads nothing of it afterwards."""
        kernel = self.kernel
        try:
            outputs = kernel.run_cycle(inputs)
            state = self._visible_state()
        except Exception as exc:
            raise MediatorError("subsystem '%s' failed: %s" % (self.model.name, exc)) from exc
        return kernel.cycles - 1, kernel.sys_time_ms, outputs, state


class _StreamLink(MediatorLink):
    """NDJSON request/response over a byte stream.  A transport sends with
    :meth:`_send` and sets ``_fd`` to the file descriptor its replies arrive
    on before the handshake, whose hello must announce ``cycle_period_ms``.
    A line is capped at the model's hello and longest observation together."""

    LINE_SLACK = 1 << 20  # bytes more; a line of 200 KB refused as too deep keeps that reason

    def __init__(self, model: ModelAst, cycle_period_ms: int, timeout_s: float):
        super().__init__(model)
        self.cycle_period_ms = cycle_period_ms
        self.timeout_s = timeout_s
        self._fd = -1
        self._pending = bytearray()  # bytes read past the last complete line
        # every name's longest value, and a cycle and system time of 20 digits
        longest = {name: max(d[0], d[-1], key=lambda v: len(str(v)))
                   for name, d in model.domains.items()}
        self.line_cap = self.LINE_SLACK + len(json.dumps(
            [hello_for_model(model, cycle_period_ms), longest, 10**19, 10**19]))

    def _send(self, message: WireMessage) -> None:
        raise NotImplementedError

    def _readline(self) -> bytes:
        """One line, or what is left at end of stream; the timeout bounds the
        whole line, so a subject that stalls or trickles mid-line times out
        too.  Only each new chunk is searched for the newline, so a line
        costs time linear in its length; a line longer than ``line_cap`` is
        a :class:`ProtocolError` once that many bytes of it are read."""
        deadline = time.monotonic() + self.timeout_s
        poll = select.poll()
        poll.register(self._fd, select.POLLIN)
        pending, cap = self._pending, self.line_cap
        end = pending.find(b"\n")
        while end < 0 and len(pending) <= cap:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not poll.poll(remaining * 1000):
                raise ExchangeTimeout("no observation within %.1f s" % self.timeout_s)
            try:
                chunk = os.read(self._fd, 65536)
            except OSError as exc:
                raise Disconnect(str(exc)) from exc
            if not chunk:  # end of stream: what is left
                end = len(pending) - 1
                break
            start = len(pending)
            pending += chunk
            end = pending.find(b"\n", start)
        if end > cap or end < 0 < len(pending):  # a line too long, or too long so far
            raise ProtocolError("line longer than %d bytes" % cap)
        line = bytes(pending[:end + 1])
        del pending[:end + 1]
        return line

    # protocol --------------------------------------------------------------

    def _recv(self) -> WireMessage:
        line = self._readline()
        if not line:
            raise Disconnect("subject closed the stream")
        msg = WireMessage.decode(line)
        if msg.type == "error":
            raise MediatorError("subject error: %s" % msg.payload.get("message"))
        return msg

    def _handshake(self) -> None:
        msg = self._recv()
        if msg.type != "hello":
            raise ProtocolError("expected hello, got %r" % msg.type)
        validate_hello(msg.payload, self.model, self.cycle_period_ms)

    def exchange(self, inputs: Mapping) -> tuple:
        self._send(WireMessage("set_inputs", self.next_cycle, {"values": inputs}))
        msg = self._recv()
        if msg.type != "observation":
            raise ProtocolError("expected observation, got %r" % msg.type)
        payload = msg.payload
        return msg.cycle, payload.get("sys_time_ms"), payload.get("outputs"), payload.get("state")

    def _send_shutdown(self) -> None:
        try:
            self._send(WireMessage("shutdown"))
        except Exception:
            pass


def positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise ValueError(text)
    return value


def tcp_address(text: str) -> tuple:
    """``tcp:HOST:PORT`` as ``(host, port)``."""
    kind, _, address = text.partition(":")
    host, _, port = address.rpartition(":")
    if kind != "tcp" or not 0 <= int(port) <= 65535:
        raise ValueError(text)
    return host, int(port)


class TcpLink(_StreamLink):
    def __init__(self, model: ModelAst, host: str, port: int, cycle_period_ms: int,
                 timeout_s: float):
        super().__init__(model, cycle_period_ms, timeout_s)
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout_s)
        except OSError as exc:
            raise Disconnect("cannot connect to %s:%d: %s" % (host, port, exc)) from exc
        self._fd = self._sock.fileno()
        try:
            self._handshake()
        except MediatorError:
            self._sock.close()
            raise

    def _send(self, message: WireMessage) -> None:
        try:
            self._sock.sendall(message.encode())
        except OSError as exc:
            raise Disconnect(str(exc)) from exc

    def close(self) -> None:
        self._send_shutdown()
        self._sock.close()


class StdioLink(_StreamLink):
    EXIT_GRACE_S = 0.5  # seconds a released child has to exit before it is killed

    def __init__(self, model: ModelAst, argv: list, cycle_period_ms: int, timeout_s: float):
        super().__init__(model, cycle_period_ms, timeout_s)
        try:
            self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                         stderr=subprocess.DEVNULL)
        except OSError as exc:
            raise Disconnect("cannot start %s: %s" % (argv[0], exc.strerror or exc)) from exc
        self._fd = self.proc.stdout.fileno()
        try:
            self._handshake()
        except MediatorError:
            self.proc.kill()
            self._release()
            raise

    def _send(self, message: WireMessage) -> None:
        try:
            self.proc.stdin.write(message.encode())
            self.proc.stdin.flush()
        except (OSError, ValueError) as exc:
            raise Disconnect(str(exc)) from exc

    def close(self) -> None:
        self._send_shutdown()
        self._release()

    def _release(self) -> None:
        """Close both pipes and reap the child, killing it if it has not exited
        within ``EXIT_GRACE_S``; a child blocked writing gets a broken pipe at once."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        self.proc.stdout.close()
        try:
            self.proc.wait(timeout=self.EXIT_GRACE_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


# ---------------------------------------------------------------------------
# Specification-state synchronization


def step_predicates(table: temporal.HoldTable, spec_state, inputs: Mapping,
                    elapsed_ms: int):
    """Step the hold record with this cycle's inputs and the pre-cycle state
    variables' ``values`` by ``elapsed_ms``, the system time elapsed since
    the previous observation (0 on the first cycle); returns the new record
    and the cycle's time flags, a tuple of ``int``s.  The oracle calls this
    only for a step it takes afresh, and the first call compiles the table's
    generated step (:class:`temporal.HoldTable`)."""
    return table.step(spec_state.holds, inputs, spec_state.values, elapsed_ms)


def sync_state(spec_state, obs: tuple, model_state_post: Mapping, stepped: tuple):
    """Synchronize the specification state after one exchange: a new state of
    ``spec_state``'s type.

    Readable state variables are copied from the observation ``obs``,
    ``exchange``'s tuple, which the judge has already checked against the
    model; hidden ones are taken from the model's computed post-state
    (assuming an error-free subject, their model representation is the
    reference value).  The new state's ``values`` are read in the
    post-state's order, which is the model's declaration order, whatever
    order the observation lists its names in.
    The hold record and flags are the pair that :func:`step_predicates`
    returned for this exchange.  The specification calls this only for a
    step it takes afresh, whether its postcondition passes or fails: a
    remembered passing step moves to the state it synchronized before.
    """
    holds, flags = stepped
    return type(spec_state)(tuple({**model_state_post, **obs[3]}.values()), holds, flags)
