"""Iron automatic shut-off fixture: reference SUT, seeded mutants, model access.

The SUT keeps its own compound-condition timers and shares no code with the
model interpreter or the temporal core, so oracle agreement between the two
is a meaningful check.  Mutants differ from the correct implementation by one
localized change each.
"""
from __future__ import annotations

from importlib import resources

from .dsl import ModelAst, parse_model, rescale_durations

FULL_DURATIONS_MS = (60_000, 900_000)
DESK_DURATIONS_MS = (3_000, 5_000)  # 3 and 5 cycles at a 1 s period
DESK_SCALE = dict(zip(FULL_DURATIONS_MS, DESK_DURATIONS_MS))

MUTANT_IDS = ("M1", "M2", "M3", "M4", "M5")


class UnknownMutant(Exception):
    pass


def iron_source() -> str:
    return resources.files("cyclotest").joinpath("models/iron.ctl").read_text("utf-8")


def iron_model(desk_scale: bool = False) -> ModelAst:
    ast = parse_model(iron_source())
    if desk_scale:
        ast = rescale_durations(ast, DESK_SCALE)
    return ast


class IronSut:
    """Cyclic step function of the shut-off subsystem.

    heating is 0 when the iron rested vertically for the long duration or
    non-vertically for the short one, else 1.  Timers use a -1 idle sentinel
    and are updated before the output is computed, all against the frozen
    per-cycle system time.
    """

    def __init__(self, durations_ms=FULL_DURATIONS_MS, cycle_period_ms: int = 1000,
                 mutant: str | None = None):
        if mutant is not None and mutant not in MUTANT_IDS:
            raise UnknownMutant(mutant)
        self.mutant = mutant
        self.cycle_period_ms = cycle_period_ms
        d_short, d_long = durations_ms
        if mutant == "M3":  # wrong duration: short condition one cycle longer
            d_short += cycle_period_ms
        self._d_short = d_short
        self._d_long = d_long
        self._t_short = -1  # since when (!move && !position) has held, else -1
        self._t_long = -1  # since when (!move && position) has held, else -1

    def visible_state(self) -> dict:
        return {}

    def step(self, inputs: dict, sys_time_ms: int) -> dict:
        move = int(inputs["move"])
        position = int(inputs["position"])

        holds_short = (not move) and (not position)
        if self.mutant == "M4":  # missing timer reset on move
            holds_short = not position
        holds_long = (not move) and position

        if holds_short:
            if self._t_short < 0:
                self._t_short = sys_time_ms
        else:
            self._t_short = -1
        if holds_long:
            if self._t_long < 0:
                self._t_long = sys_time_ms
        else:
            self._t_long = -1

        slack = self.cycle_period_ms if self.mutant == "M2" else 0  # fires early
        rested_short = self._t_short >= 0 and sys_time_ms - self._t_short + slack >= self._d_short
        rested_long = self._t_long >= 0 and sys_time_ms - self._t_long + slack >= self._d_long

        branch_vertical = bool(position)
        if self.mutant == "M5":  # position test inverted
            branch_vertical = not position
        heating = 0 if (rested_long if branch_vertical else rested_short) else 1
        if self.mutant == "M1":  # inverted output
            heating = 1 - heating
        return {"heating": heating}
