"""Cyclic-executive simulation kernel.

A kernel drives registered subsystems once per cycle in registration order,
with the system time fixed at cycle start and constant for the whole cycle.
The system time is simulated: it advances by exactly one cycle period per
cycle, which makes runs bit-for-bit reproducible.  With ``streaming`` (the
default test configuration) the next cycle starts immediately; without it
the kernel sleeps out the rest of each period and flags cycles that overran
it.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable


class KernelError(Exception):
    pass


class DuplicateId(KernelError):
    pass


class SubsystemPanic(KernelError):
    def __init__(self, subsystem_id: str, cause: BaseException):
        self.subsystem_id = subsystem_id
        self.cause = cause
        super().__init__("subsystem '%s' failed: %s" % (subsystem_id, cause))


@dataclass
class KernelConfig:
    cycle_period_ms: int = 1000
    streaming: bool = True


@dataclass(frozen=True)
class CycleRecord:
    cycle_index: int
    sys_time_ms: int
    exec_time_us: int
    overrun: bool

    def to_json(self, deterministic: bool = False) -> str:
        data = {"cycle": self.cycle_index, "sys_time_ms": self.sys_time_ms,
                "overrun": self.overrun}
        if not deterministic:
            data["exec_time_us"] = self.exec_time_us
        return json.dumps(data, sort_keys=True)


@dataclass(frozen=True)
class CycleContext:
    cycle_index: int
    sys_time_ms: int


class Kernel:
    def __init__(self, config: KernelConfig,
                 monotonic: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep):
        if config.cycle_period_ms <= 0:
            raise KernelError("cycle period must be positive")
        self.config = config
        self._monotonic = monotonic
        self._sleep = sleep
        self._subsystems = []  # (id, step) in registration order
        self._ids = set()
        self._started = False
        self._sys_time_ms = 0
        self._cycle_index = 0
        self.records = []

    def register_subsystem(self, subsystem_id: str, step: Callable[[CycleContext], None]) -> None:
        if self._started:
            raise KernelError("cannot register '%s' after the run started" % subsystem_id)
        if subsystem_id in self._ids:
            raise DuplicateId(subsystem_id)
        self._ids.add(subsystem_id)
        self._subsystems.append((subsystem_id, step))

    def run_cycle(self) -> CycleRecord:
        self._started = True
        period = self.config.cycle_period_ms
        self._sys_time_ms += period
        ctx = CycleContext(self._cycle_index, self._sys_time_ms)

        begin = self._monotonic()
        for sid, step in self._subsystems:
            try:
                step(ctx)
            except Exception as exc:
                raise SubsystemPanic(sid, exc) from exc
        exec_time_us = int((self._monotonic() - begin) * 1_000_000)

        overrun = (not self.config.streaming) and exec_time_us > period * 1000
        if not self.config.streaming:
            remainder = period / 1000.0 - (self._monotonic() - begin)
            if remainder > 0:
                self._sleep(remainder)

        record = CycleRecord(ctx.cycle_index, ctx.sys_time_ms, exec_time_us, overrun)
        self.records.append(record)
        self._cycle_index += 1
        return record
