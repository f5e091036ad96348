"""Cyclic-executive simulation kernel.

A kernel steps the one subject it was built with once per cycle, with the
system time fixed at cycle start and constant for the whole cycle.  The
system time is simulated: cycle ``i`` runs at ``(i + 1)`` cycle periods,
which makes runs bit-for-bit reproducible.  With ``streaming`` (the default
test configuration) the next cycle starts immediately; without it the kernel
sleeps out the rest of each period and flags cycles that overran it.  A
cycle reads the wall clock only when something reads the time: a paced
kernel, or a ``timed`` one, whose records carry each cycle's measured
execution time.
"""
from __future__ import annotations

import json
import time
from array import array
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional


class KernelError(Exception):
    pass


@dataclass(frozen=True)
class KernelConfig:
    """``timed`` measures each cycle's execution time for the records; a
    paced kernel (not ``streaming``) always measures it."""

    cycle_period_ms: int = 1000
    streaming: bool = True
    timed: bool = False


class CycleRecord(NamedTuple):
    cycle_index: int
    sys_time_ms: int
    exec_time_us: Optional[int]  # None when the kernel did not measure it
    overrun: bool

    def to_json(self, deterministic: bool = False) -> str:
        data = {"cycle": self.cycle_index, "sys_time_ms": self.sys_time_ms,
                "overrun": self.overrun}
        if not deterministic:
            data["exec_time_us"] = self.exec_time_us
        return json.dumps(data, sort_keys=True)


class Kernel:
    """Runs ``step(inputs, sys_time_ms) -> outputs`` once per cycle.

    The kernel counts its completed cycles in ``cycles``.  A timed or paced
    kernel also keeps each completed cycle's measured execution time, in
    ``exec_time_us``; :attr:`records` derives the cycle records from these."""

    def __init__(self, config: KernelConfig, step: Callable[[dict, int], dict],
                 monotonic: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep):
        if config.cycle_period_ms <= 0:
            raise KernelError("cycle period must be positive")
        self._period, self._streaming = config.cycle_period_ms, config.streaming
        self._timed = config.timed or not config.streaming
        self._step = step
        self._monotonic = monotonic
        self._sleep = sleep
        self.cycles = 0
        self.exec_time_us = array("q")
        self.sys_time_ms = 0  # system time of the last cycle started

    def run_cycle(self, inputs: dict) -> dict:
        """Step the subject on ``inputs`` at the next cycle's system time and
        return its outputs.  An exception from the subject propagates, and
        the cycle is not counted."""
        self.sys_time_ms = sys_time_ms = (self.cycles + 1) * self._period
        if not self._timed:
            outputs = self._step(inputs, sys_time_ms)
            self.cycles += 1
            return outputs

        monotonic = self._monotonic
        begin = monotonic()
        outputs = self._step(inputs, sys_time_ms)
        self.exec_time_us.append(int((monotonic() - begin) * 1_000_000))
        self.cycles += 1
        if not self._streaming:
            remainder = self._period / 1000.0 - (monotonic() - begin)
            if remainder > 0:
                self._sleep(remainder)
        return outputs

    @property
    def records(self) -> list:
        """One :class:`CycleRecord` per completed cycle; a cycle overran when
        it was paced and took longer than its period."""
        period, streaming = self._period, self._streaming
        times = self.exec_time_us if self._timed else [None] * self.cycles
        return [CycleRecord(i, (i + 1) * period, us, not streaming and us > period * 1000)
                for i, us in enumerate(times)]
