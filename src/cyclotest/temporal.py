"""Cycle-synchronous evaluation of temporal predicates.

A predicate ``(var == expected, T)`` is satisfied at a cycle when the literal
has held continuously and the system time elapsed since the first holding
cycle reaches ``T`` (inclusive; strictly exceeds ``T`` under strict
semantics).

A :class:`HoldTable` fixes the layout of a hold record for one set of
predicates: a plain tuple with one entry per distinct literal, so predicates
sharing a literal share one entry.  An entry is ``None`` while the literal
does not hold, else the milliseconds since its first holding cycle, capped at
the literal's largest duration (plus 1 ms under strict), which keeps the
record space finite without changing any flag.  The contract oracle steps a
table by the system time the subject saw; the reachability search steps the
same table by one cycle period.
"""
from __future__ import annotations

from typing import Mapping, Sequence

from .dsl import TemporalPredicateDecl


class TimeRegression(Exception):
    """System time moved backwards between successive predicate steps."""


class HoldTable:
    def __init__(self, predicates: Sequence[TemporalPredicateDecl], strict: bool = False):
        # on whole milliseconds, "held > T" is "held >= T + 1"
        need = [p.duration_ms + int(strict) for p in predicates]
        caps: dict = {}  # (var, expected) -> largest need among its predicates
        for p, n in zip(predicates, need):
            key = (p.var, p.expected)
            caps[key] = max(caps.get(key, 0), n)
        index = {key: i for i, key in enumerate(caps)}
        self.predicate_ids = tuple(p.id for p in predicates)
        self.variables = frozenset(var for var, _ in caps)  # the names the literals read
        self._literals = tuple((var, expected, cap) for (var, expected), cap in caps.items())
        self._thresholds = tuple((index[(p.var, p.expected)], n)
                                 for p, n in zip(predicates, need))
        self._vectors: dict = {}  # flags in predicate order -> their shared dict
        self.initial = (None,) * len(caps)

    def step(self, record: tuple, env: Mapping, elapsed_ms: int) -> tuple:
        """Advance one cycle ``elapsed_ms`` after the previous one: reset a
        broken literal, start a fresh hold at 0, extend a persisting one."""
        if elapsed_ms < 0:
            raise TimeRegression("predicates stepped %d ms back in time" % -elapsed_ms)
        return tuple([
            None if env[var] != expected
            else 0 if held is None
            else min(held + elapsed_ms, cap)
            for (var, expected, cap), held in zip(self._literals, record)
        ])

    def outcome(self, env: Mapping) -> tuple:
        """Which literals hold in ``env``; :meth:`step` treats equal outcomes alike."""
        return tuple([env[var] == expected for var, expected, _ in self._literals])

    def in_cycles(self, period_ms: int) -> tuple:
        """The table stepped one ``period_ms`` per cycle, counted in cycles:
        each literal's ``(var, expected, cap)`` and each predicate's
        ``(literal index, need)``.  A literal that has held for k cycles since
        its first holding cycle has count min(k, cap), and a predicate holds
        when that count reaches its need, just as the record min(k*period,
        cap ms) reaches the need in ms."""
        def cycles(ms: int) -> int:
            return -(-ms // period_ms)

        return (tuple((var, expected, cycles(cap)) for var, expected, cap in self._literals),
                tuple((i, cycles(n)) for i, n in self._thresholds))

    def flags(self, record: tuple) -> dict:
        """Per-predicate satisfaction of a record, as one dict shared by every
        record with the same flags; callers must not mutate it."""
        bits = tuple([record[i] is not None and record[i] >= n for i, n in self._thresholds])
        vector = self._vectors.get(bits)
        if vector is None:
            vector = self._vectors[bits] = dict(zip(self.predicate_ids, bits))
        return vector
