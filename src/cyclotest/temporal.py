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

A table's step and flags are generated, as :func:`cyclotest.interp.compile_model`
generates a model's reference run, and compiled at its first step: one
statement per literal and one comparison per predicate, with each literal's
value, cap and each predicate's need inlined as an ``int`` and each variable
only as a ``repr``'d dict key.  The initial record's flags, all False, need no
compile, so building a table or a specification compiles nothing.
"""
from __future__ import annotations

from typing import Mapping, Sequence

from .dsl import TemporalPredicateDecl, compile_function


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
        # flags in predicate order -> their shared dict, the initial record's first
        self._vectors = {(False,) * len(predicates): dict.fromkeys(self.predicate_ids, False)}
        self.initial = (None,) * len(caps)

    def step(self, record: tuple, env: Mapping, elapsed_ms: int) -> tuple:
        """Advance one cycle ``elapsed_ms`` after the previous one: reset a
        broken literal, start a fresh hold at 0, extend a persisting one.
        Raises :class:`TimeRegression` when ``elapsed_ms`` is negative.

        The first call compiles the table's step and flags and binds them
        over both methods (:meth:`_compile`)."""
        self._compile()
        return self.step(record, env, elapsed_ms)

    def flags(self, record: tuple) -> dict:
        """Per-predicate satisfaction of a record, as one dict shared by every
        record with the same flags; callers must not mutate it.  A record
        other than the initial one compiles as :meth:`step` does."""
        if record == self.initial:  # nothing holds, so no flag is set
            return self._vectors[(False,) * len(self.predicate_ids)]
        self._compile()
        return self.flags(record)

    def _compile(self) -> None:
        """Bind the generated ``step(record, env, elapsed_ms)`` and
        ``flags(record)`` on the table, in place of the methods, unless they
        are bound: a method taken off the table before its first step still
        reaches this."""
        if "step" in vars(self):
            return
        held = ["h%d" % i for i in range(len(self._literals))]  # the entries, as locals
        unpack = [" %s= record" % "".join(h + ", " for h in held)] if held else []
        lines = ["def step(record, env, elapsed_ms):",
                 " if elapsed_ms < 0:",
                 "  raise TimeRegression('predicates stepped %d ms back in time' % -elapsed_ms)",
                 *unpack]
        for h, (var, expected, cap) in zip(held, self._literals):
            lines += [" if env[%r] != %d:" % (var, expected), "  %s = None" % h,
                      " elif %s is None:" % h, "  %s = 0" % h,
                      " else:", "  %s += elapsed_ms" % h,
                      "  if %s > %d:" % (h, cap), "   %s = %d" % (h, cap)]
        lines.append(" return (%s)" % "".join(h + ", " for h in held))
        self.step = compile_function(lines, "step", "<hold table step>", {
            "__name__": __name__, "TimeRegression": TimeRegression})
        bits = "".join("%s is not None and %s >= %d, " % (held[i], held[i], n)
                       for i, n in self._thresholds)
        self.flags = compile_function(
            ["def flags(record):", *unpack,
             " bits = (%s)" % bits,
             " vector = vectors.get(bits)",
             " if vector is None:",
             "  vector = vectors[bits] = dict(zip(ids, bits))",
             " return vector"],
            "flags", "<hold table flags>",
            {"__name__": __name__, "vectors": self._vectors, "ids": self.predicate_ids})

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
