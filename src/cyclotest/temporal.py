"""Cycle-synchronous evaluation of temporal predicates.

A predicate ``(var == expected, T)`` is satisfied at a cycle when the literal
has held continuously and the system time elapsed since the first holding
cycle reaches ``T``.  Tracking state is immutable; each step returns a new
record.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .dsl import TemporalPredicateDecl


class TimeRegression(Exception):
    """System time moved backwards between successive predicate steps."""


@dataclass(frozen=True)
class PredicateState:
    """Per-predicate tracking record.

    ``since_ms`` is the system time at which the literal began to hold, or
    ``None`` while it does not hold.
    """

    predicate: TemporalPredicateDecl
    since_ms: Optional[int] = None
    last_step_ms: Optional[int] = None


def step_predicate(ps: PredicateState, holds: bool, sys_time_ms: int) -> PredicateState:
    """Advance one cycle: reset on a broken literal, latch the start time on
    a fresh hold, keep it while the hold persists."""
    if ps.last_step_ms is not None and sys_time_ms < ps.last_step_ms:
        raise TimeRegression(
            "predicate %s stepped at %d ms after %d ms"
            % (ps.predicate.id, sys_time_ms, ps.last_step_ms)
        )
    if not holds:
        since = None
    elif ps.since_ms is None:
        since = sys_time_ms
    else:
        since = ps.since_ms
    return PredicateState(ps.predicate, since, sys_time_ms)


def is_satisfied(ps: PredicateState, sys_time_ms: int, strict: bool = False) -> bool:
    """True when the literal has held for the predicate's duration.

    The comparison is inclusive (fires on the boundary cycle) unless
    ``strict`` is set.
    """
    if ps.since_ms is None:
        return False
    elapsed = sys_time_ms - ps.since_ms
    if strict:
        return elapsed > ps.predicate.duration_ms
    return elapsed >= ps.predicate.duration_ms


def literal_holds(pred: TemporalPredicateDecl, env: Mapping) -> bool:
    return int(env[pred.var]) == pred.expected


def initial_states(predicates) -> dict:
    return {p.id: PredicateState(p) for p in predicates}


def step_all(states: Mapping, env: Mapping, sys_time_ms: int) -> dict:
    """Step every predicate with the literal values drawn from ``env``."""
    return {
        pid: step_predicate(ps, literal_holds(ps.predicate, env), sys_time_ms)
        for pid, ps in states.items()
    }


def compute_time_flags(states: Mapping, sys_time_ms: int, strict: bool = False) -> dict:
    """Per-predicate satisfaction map for the current cycle."""
    return {pid: is_satisfied(ps, sys_time_ms, strict) for pid, ps in states.items()}
