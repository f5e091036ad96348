"""Binding between the specification and the system under test.

One exchange = one cycle: hand the subject its inputs, let it run a cycle,
read back outputs, accessible state and the system time the subject saw.
The in-process link runs the subject's step function in a local kernel; the
TCP and stdio links speak a newline-delimited JSON protocol to a remote
harness:

  hello:       {"type":"hello","model":m,"inputs":[...],"outputs":[...],
                "state":[...],"cycle_period_ms":N}
  set_inputs:  {"type":"set_inputs","cycle":n,"values":{...}}
  observation: {"type":"observation","cycle":n,"sys_time_ms":t,
                "outputs":{...},"state":{...}}
  shutdown:    {"type":"shutdown"}
  error:       {"type":"error","message":...}

Messages strictly alternate set_inputs/observation with matching cycle
numbers, starting at 0.
"""
from __future__ import annotations

import json
import os
import select
import socket
import subprocess
import time
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Optional

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


DEFAULT_TIMEOUT_S = 5.0


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
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError("undecodable message: %s" % exc) from exc
        if not isinstance(data, dict) or "type" not in data:
            raise ProtocolError("message without a type: %r" % line)
        cycle = data.pop("cycle", None)
        mtype = data.pop("type")
        return WireMessage(mtype, cycle, data)


class CycleObservation(NamedTuple):
    cycle: int
    sys_time_ms: int
    outputs: dict
    visible_state: dict


def hello_for_model(model: ModelAst, cycle_period_ms: int) -> dict:
    return {
        "type": "hello",
        "model": model.name,
        "inputs": list(model.input_names),
        "outputs": list(model.output_names),
        "state": list(model.readable_names),
        "cycle_period_ms": cycle_period_ms,
    }


def validate_hello(hello: dict, model: ModelAst) -> None:
    expected = hello_for_model(model, hello.get("cycle_period_ms", 0))
    for key in ("model", "inputs", "outputs", "state"):
        if hello.get(key) != expected[key]:
            raise HandshakeMismatch(
                "handshake %s mismatch: subject %r, model %r"
                % (key, hello.get(key), expected[key])
            )


class MediatorLink:
    """Shared per-cycle bookkeeping: alternation, payload validation.  An
    observation is checked here once; later stages trust it."""

    def __init__(self, model: ModelAst):
        self.model = model
        self.next_cycle = 0
        self.hello: dict = {}
        self._last_sys_time_ms: Optional[int] = None
        # (name, domain) of each output and readable state variable
        self._outputs = tuple((name, model.domains[name]) for name in model.output_names)
        self._state = tuple((name, model.domains[name]) for name in model.readable_names)

    def exchange(self, inputs: Mapping) -> CycleObservation:
        """Run one cycle on ``inputs``, the ``int`` values of every declared
        input, and return its checked observation."""
        raise NotImplementedError

    def close(self) -> None:
        pass

    def _check_observation(self, cycle, sys_time_ms, outputs, state) -> CycleObservation:
        """The observation of the cycle just run, if it fits: its cycle is
        the last set_inputs' and its system time is not before the previous
        one, both ``int``s; outputs and state are each a dict of exactly the
        model's names, each an ``int`` inside its domain.  Otherwise a
        :class:`ProtocolError` names the first misfit."""
        last = self._last_sys_time_ms
        if not (type(cycle) is int and cycle == self.next_cycle
                and type(sys_time_ms) is int and (last is None or sys_time_ms >= last)
                and _fits(outputs, self._outputs) and _fits(state, self._state)):
            self._reject(cycle, sys_time_ms, outputs, state)
        self._last_sys_time_ms = sys_time_ms
        self.next_cycle += 1
        return CycleObservation(cycle, sys_time_ms, dict(outputs), dict(state))

    def _reject(self, cycle, sys_time_ms, outputs, state) -> None:
        """Raise a :class:`ProtocolError` naming the observation's first misfit,
        in the order: cycle, system time, then outputs and state, each by
        shape, then value by value."""
        if cycle != self.next_cycle:
            raise ProtocolError(
                "observation for cycle %s after set_inputs %d" % (cycle, self.next_cycle)
            )
        if type(cycle) is not int:
            raise ProtocolError("observation cycle %r is not an integer" % (cycle,))
        if type(sys_time_ms) is not int:
            raise ProtocolError("observation sys_time_ms %r is not an integer" % (sys_time_ms,))
        if self._last_sys_time_ms is not None and sys_time_ms < self._last_sys_time_ms:
            raise ProtocolError("system time went back from %d ms to %d ms"
                                % (self._last_sys_time_ms, sys_time_ms))
        for part, values, fields in (("outputs", outputs, self._outputs),
                                     ("state", state, self._state)):
            domains = dict(fields)
            if not isinstance(values, dict) or values.keys() != domains.keys():
                raise ProtocolError("observation %s %r do not match the model" % (part, values))
            for name, value in values.items():
                if type(value) is not int:
                    raise ProtocolError("observation %s '%s' = %r is not an integer"
                                        % (part, name, value))
                if value not in domains[name]:
                    raise ProtocolError("observation %s '%s' = %d is outside its domain"
                                        % (part, name, value))


def _fits(values, fields: tuple) -> bool:
    """Whether ``values`` is a dict of exactly the names of ``fields``, each an
    ``int`` inside its domain."""
    if not isinstance(values, dict) or len(values) != len(fields):
        return False
    for name, domain in fields:
        value = values.get(name)
        if type(value) is not int or value not in domain:
            return False
    return True


class InProcessLink(MediatorLink):
    """Run the subject's step function in a local kernel: each cycle steps it
    on a copy of the inputs, then reads its outputs and state.  The kernel
    holds only the bound ``step``, so link and kernel form no reference cycle
    that would keep a spent kernel's cycle times alive."""

    def __init__(self, model: ModelAst, sut, config: Optional[KernelConfig] = None):
        super().__init__(model)
        self.kernel = Kernel(config or KernelConfig(), sut.step)
        self.hello = hello_for_model(model, self.kernel.config.cycle_period_ms)
        self._visible_state = getattr(sut, "visible_state", dict)

    def exchange(self, inputs: Mapping) -> CycleObservation:
        kernel = self.kernel
        try:
            outputs = kernel.run_cycle(dict(inputs))
            state = self._visible_state()
        except Exception as exc:
            raise MediatorError("subsystem '%s' failed: %s" % (self.model.name, exc)) from exc
        return self._check_observation(len(kernel.exec_time_us) - 1, kernel.sys_time_ms,
                                       outputs, state)


class _StreamLink(MediatorLink):
    """NDJSON request/response over a byte stream.  A transport sends with
    :meth:`_send` and sets ``_fd`` to the file descriptor its replies arrive
    on before the handshake."""

    def __init__(self, model: ModelAst, timeout_s: float = DEFAULT_TIMEOUT_S):
        super().__init__(model)
        self.timeout_s = timeout_s
        self._fd = -1
        self._pending = b""  # bytes read past the last complete line

    def _send(self, message: WireMessage) -> None:
        raise NotImplementedError

    def _readline(self) -> bytes:
        """One line, or what is left at end of stream; the timeout bounds the
        whole line, so a subject that stalls or trickles mid-line times out
        too."""
        deadline = time.monotonic() + self.timeout_s
        poll = select.poll()
        poll.register(self._fd, select.POLLIN)
        while b"\n" not in self._pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not poll.poll(remaining * 1000):
                raise ExchangeTimeout("no observation within %.1f s" % self.timeout_s)
            try:
                chunk = os.read(self._fd, 65536)
            except OSError as exc:
                raise Disconnect(str(exc)) from exc
            if not chunk:
                line, self._pending = self._pending, b""
                return line
            self._pending += chunk
        line, _, self._pending = self._pending.partition(b"\n")
        return line + b"\n"

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
        self.hello = {"type": "hello", "cycle": msg.cycle, **msg.payload}
        validate_hello(self.hello, self.model)

    def exchange(self, inputs: Mapping) -> CycleObservation:
        self._send(WireMessage("set_inputs", self.next_cycle, {"values": inputs}))
        msg = self._recv()
        if msg.type != "observation":
            raise ProtocolError("expected observation, got %r" % msg.type)
        payload = msg.payload
        return self._check_observation(msg.cycle, payload.get("sys_time_ms"),
                                       payload.get("outputs"), payload.get("state"))

    def _send_shutdown(self) -> None:
        try:
            self._send(WireMessage("shutdown"))
        except Exception:
            pass


class TcpLink(_StreamLink):
    def __init__(self, model: ModelAst, host: str, port: int,
                 timeout_s: float = DEFAULT_TIMEOUT_S):
        super().__init__(model, timeout_s)
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
    def __init__(self, model: ModelAst, argv: list, timeout_s: float = DEFAULT_TIMEOUT_S,
                 stderr=subprocess.DEVNULL):
        super().__init__(model, timeout_s)
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=stderr
        )
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
        """Close both pipes and reap the child, killing it if it lingers."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=self.timeout_s)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# ---------------------------------------------------------------------------
# Specification-state synchronization


def step_predicates(table: temporal.HoldTable, spec_state, obs: CycleObservation,
                    inputs: Mapping):
    """Step the hold record with this cycle's literal values (inputs plus the
    pre-cycle state) by the system time elapsed since the previous
    observation (0 on the first cycle); returns the new record and the
    cycle's time flags.  When no literal reads a state variable, the inputs
    alone are the literal values."""
    state_vars = spec_state.state_vars
    if table.variables.isdisjoint(state_vars):
        env = inputs
    else:
        env = dict(state_vars)
        env.update(inputs)
    last = spec_state.sys_time_ms
    holds = table.step(spec_state.holds, env, 0 if last is None else obs.sys_time_ms - last)
    return holds, table.flags(holds)


def sync_state(spec_state, obs: CycleObservation, model_state_post: Mapping, stepped: tuple):
    """Synchronize the specification state after one exchange.

    Readable state variables are copied from the observation, which the link
    has already checked against the model; hidden ones are taken from the
    model's computed post-state (assuming an error-free subject, their model
    representation is the reference value).  The hold record and flags are
    the pair that :func:`step_predicates` returned for this exchange.
    """
    holds, flags = stepped
    state_vars = dict(model_state_post)
    state_vars.update(obs.visible_state)
    return type(spec_state)(state_vars, holds, flags, obs.sys_time_ms)
