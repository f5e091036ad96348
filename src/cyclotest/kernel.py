"""Cyclic-executive simulation kernel.

A kernel steps the one subject it was built with once per cycle, with the
system time fixed at cycle start and constant for the whole cycle.  The
system time is simulated: cycle ``i`` runs at ``(i + 1)`` cycle periods,
which makes runs bit-for-bit reproducible.  With ``streaming`` (the default
test configuration) the next cycle starts immediately; without it the kernel
sleeps out the rest of each period and flags cycles that overran it.
"""
from __future__ import annotations

import json
import time
from array import array
from dataclasses import dataclass
from typing import Callable, NamedTuple


class KernelError(Exception):
    pass


@dataclass(frozen=True)
class KernelConfig:
    cycle_period_ms: int = 1000
    streaming: bool = True


class CycleRecord(NamedTuple):
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
    """Runs ``step(inputs, sys_time_ms) -> outputs`` once per cycle.

    The kernel keeps only each completed cycle's measured execution time, in
    ``exec_time_us``; :attr:`records` derives the cycle records from it."""

    def __init__(self, config: KernelConfig, step: Callable[[dict, int], dict],
                 monotonic: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep):
        if config.cycle_period_ms <= 0:
            raise KernelError("cycle period must be positive")
        self._period, self._streaming = config.cycle_period_ms, config.streaming
        self._step = step
        self._monotonic = monotonic
        self._sleep = sleep
        self.exec_time_us = array("q")
        self.sys_time_ms = 0  # system time of the last cycle started

    def run_cycle(self, inputs: dict) -> dict:
        """Step the subject on ``inputs`` at the next cycle's system time and
        return its outputs.  An exception from the subject propagates, and
        the cycle is not recorded."""
        exec_time_us, monotonic = self.exec_time_us, self._monotonic
        self.sys_time_ms = sys_time_ms = (len(exec_time_us) + 1) * self._period

        begin = monotonic()
        outputs = self._step(inputs, sys_time_ms)
        exec_time_us.append(int((monotonic() - begin) * 1_000_000))
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
        return [CycleRecord(i, (i + 1) * period, us, not streaming and us > period * 1000)
                for i, us in enumerate(self.exec_time_us)]
