"""Cyclic-executive simulation kernel.

A kernel steps the one subject it was built with once per cycle, with the
system time fixed at cycle start and constant for the whole cycle.  The
system time is simulated: it advances by exactly one cycle period per cycle,
which makes runs bit-for-bit reproducible.  With ``streaming`` (the default
test configuration) the next cycle starts immediately; without it the kernel
sleeps out the rest of each period and flags cycles that overran it.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable


class KernelError(Exception):
    pass


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


class Kernel:
    """Runs ``step(inputs, sys_time_ms) -> outputs`` once per cycle."""

    def __init__(self, config: KernelConfig, step: Callable[[dict, int], dict],
                 monotonic: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep):
        if config.cycle_period_ms <= 0:
            raise KernelError("cycle period must be positive")
        self.config = config
        self._step = step
        self._monotonic = monotonic
        self._sleep = sleep
        self._sys_time_ms = 0
        self.records = []

    def run_cycle(self, inputs: dict) -> tuple:
        """Step the subject on ``inputs``; returns the cycle's record and the
        subject's outputs.  An exception from the subject propagates."""
        period = self.config.cycle_period_ms
        self._sys_time_ms += period

        begin = self._monotonic()
        outputs = self._step(inputs, self._sys_time_ms)
        exec_time_us = int((self._monotonic() - begin) * 1_000_000)

        overrun = (not self.config.streaming) and exec_time_us > period * 1000
        if not self.config.streaming:
            remainder = period / 1000.0 - (self._monotonic() - begin)
            if remainder > 0:
                self._sleep(remainder)

        record = CycleRecord(len(self.records), self._sys_time_ms, exec_time_us, overrun)
        self.records.append(record)
        return record, outputs
