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

A table's step is generated, as :func:`cyclotest.interp.compile_model`
generates a model's reference run, and compiled at its first use: one
statement per literal, which reads the cycle's inputs or the pre-cycle state
as the model declares its variable, and one comparison per predicate, with
each literal's value, cap and each predicate's need inlined as an ``int`` and
each variable only as a ``repr``'d dict key.  The initial record's flags, all
False, need no compile, so building a table or a specification compiles
nothing.
"""
from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .dsl import TemporalPredicateDecl, compile_function, compiled_lazily


class HoldTable:
    """The hold record of ``predicates`` over a model whose state variables
    are ``state_names``; a literal on any other name reads an input."""

    def __init__(self, predicates: Sequence[TemporalPredicateDecl], state_names: Iterable[str],
                 strict: bool = False):
        # on whole milliseconds, "held > T" is "held >= T + 1"
        need = [p.duration_ms + int(strict) for p in predicates]
        caps: dict = {}  # (var, expected) -> largest need among its predicates
        for p, n in zip(predicates, need):
            key = (p.var, p.expected)
            caps[key] = max(caps.get(key, 0), n)
        index = {key: i for i, key in enumerate(caps)}
        self.predicate_ids = tuple(p.id for p in predicates)
        self._state_names = frozenset(state_names)
        self._literals = tuple((var, expected, cap) for (var, expected), cap in caps.items())
        self._thresholds = tuple((index[(p.var, p.expected)], n)
                                 for p, n in zip(predicates, need))
        self.initial = (None,) * len(caps)
        # nothing holds in the initial record, so no flag is set
        self.initial_flags = dict.fromkeys(self.predicate_ids, False)
        # flags in predicate order -> their shared dict, the initial record's first
        self._vectors = {(False,) * len(predicates): self.initial_flags}

    @compiled_lazily
    def step(self) -> Callable:
        """``step(record, inputs, state, elapsed_ms)`` advances ``record``
        one cycle ``elapsed_ms`` after the previous one, on the cycle's
        ``inputs`` and the pre-cycle ``state`` variables: it resets a broken
        literal, starts a fresh hold at 0 and extends a persisting one.  It
        returns the next record and its per-predicate flags, one dict shared
        by every record with the same flags, which callers must not mutate.
        ``elapsed_ms`` is never negative.  Generated and compiled at its
        first use."""
        held = ["h%d" % i for i in range(len(self._literals))]  # the entries, as locals
        unpack = [" %s= record" % "".join(h + ", " for h in held)] if held else []
        lines = ["def step(record, inputs, state, elapsed_ms):", *unpack]
        for h, (var, expected, cap) in zip(held, self._literals):
            part = "state" if var in self._state_names else "inputs"
            lines += [" if %s[%r] != %d:" % (part, var, expected), "  %s = None" % h,
                      " elif %s is None:" % h, "  %s = 0" % h,
                      " else:", "  %s += elapsed_ms" % h,
                      "  if %s > %d:" % (h, cap), "   %s = %d" % (h, cap)]
        bits = "".join("%s is not None and %s >= %d, " % (held[i], held[i], n)
                       for i, n in self._thresholds)
        lines += [" bits = (%s)" % bits,
                  " vector = vectors.get(bits)",
                  " if vector is None:",
                  "  vector = vectors[bits] = dict(zip(ids, bits))",
                  " return (%s), vector" % "".join(h + ", " for h in held)]
        return compile_function(lines, "step", "<hold table step>", {
            "__name__": __name__, "vectors": self._vectors, "ids": self.predicate_ids})

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
