"""Structural coverage of the model from decision traces.

Totals come from the model, never from what happened to execute; accumulation
is monotone and merging reports is associative and commutative, so piecemeal
runs can be combined.  MC/DC uses the unique-cause definition: a condition is
demonstrated by two recorded vectors differing only in that condition with
different decision outcomes.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .dsl import ModelAst
from .interp import DecisionTrace

CRITERIA = ("branch", "decision", "condition", "mcdc")


class ModelMismatch(Exception):
    pass


@dataclass
class CoverageReport:
    """Accumulated evidence per decision of one model."""

    model_name: str
    decisions: dict = field(default_factory=dict)  # node_id -> [atom ids]
    # node_id -> {vector: outcome}; an outcome is a function of its vector, so
    # the outcomes seen are the values
    vectors_seen: dict = field(default_factory=dict)

    @staticmethod
    def for_model(ast: ModelAst) -> "CoverageReport":
        report = CoverageReport(ast.name)
        for dec in ast.decisions():
            report.decisions[dec.node_id] = [a for a, _ in dec.atoms]
            report.vectors_seen[dec.node_id] = {}
        return report

    # accumulation ----------------------------------------------------------

    def accumulate(self, trace: DecisionTrace) -> "CoverageReport":
        if trace.model != self.model_name:
            raise ModelMismatch(
                "trace from model %r fed to report for %r" % (trace.model, self.model_name)
            )
        for record in trace.decisions:
            atoms = self.decisions.get(record.node_id)
            if atoms is None:
                raise ModelMismatch("trace mentions unknown decision %r" % record.node_id)
            if len(record.conditions) != len(atoms):
                raise ModelMismatch("trace gives decision %r %d condition(s), not %d"
                                    % (record.node_id, len(record.conditions), len(atoms)))
            vector = tuple(value for _, value in record.conditions)
            self.vectors_seen[record.node_id][vector] = record.outcome
        return self

    def merge(self, other: "CoverageReport") -> "CoverageReport":
        if other.model_name != self.model_name:
            raise ModelMismatch("cannot merge reports of different models")
        for node_id in self.decisions:
            self.vectors_seen[node_id].update(other.vectors_seen[node_id])
        return self

    # items and ratios ------------------------------------------------------

    def items(self, criterion: str) -> list:
        """(item description, covered) pairs for one criterion."""
        out = []
        if criterion == "branch":
            for node_id in self.decisions:
                outcomes = set(self.vectors_seen[node_id].values())
                for outcome, tag in ((True, "then"), (False, "else")):
                    out.append(("decision '%s' -> %s" % (node_id or "root", tag),
                                outcome in outcomes))
        elif criterion == "decision":
            for node_id in self.decisions:
                covered = set(self.vectors_seen[node_id].values()) == {True, False}
                out.append(("decision '%s'" % (node_id or "root"), covered))
        elif criterion == "condition":
            for node_id, atoms in self.decisions.items():
                for i, atom in enumerate(atoms):
                    values = {v[i] for v in self.vectors_seen[node_id]}
                    out.append(
                        ("condition '%s' in '%s'" % (atom, node_id or "root"),
                         values == {True, False})
                    )
        elif criterion == "mcdc":
            pairs = self.mcdc_pairs()
            for node_id, atoms in self.decisions.items():
                for atom in atoms:
                    covered = pairs[node_id][atom] is not None
                    out.append(("mcdc '%s' in '%s'" % (atom, node_id or "root"), covered))
        else:
            raise ValueError("unknown criterion %r" % criterion)
        return out

    def ratio(self, criterion: str) -> float:
        items = self.items(criterion)
        if not items:
            return 1.0
        return sum(1 for _, covered in items if covered) / len(items)

    def uncovered(self, criterion: str) -> list:
        return [desc for desc, covered in self.items(criterion) if not covered]

    def mcdc_pairs(self) -> dict:
        """Per decision, per condition: a demonstrating pair of recorded
        vectors (differing only in that condition, with different outcomes)
        or None when not demonstrated.

        Vectors that agree everywhere but in one condition share a masked
        key, so each condition is resolved in one pass over the vectors.
        """
        result: dict = {}
        for node_id, atoms in self.decisions.items():
            by_atom: dict = {}
            vectors = sorted(self.vectors_seen[node_id].items())
            for i, atom in enumerate(atoms):
                buckets: dict = {}
                found = None
                for vector, outcome in vectors:
                    key = vector[:i] + vector[i + 1:]
                    other = buckets.get(key)
                    if other is not None:
                        o_vector, o_outcome = other
                        if o_vector[i] != vector[i] and o_outcome != outcome:
                            found = tuple(sorted((o_vector, vector)))
                            break
                    else:
                        buckets[key] = (vector, outcome)
                by_atom[atom] = found
            result[node_id] = by_atom
        return result

    # rendering ---------------------------------------------------------------

    def summary(self) -> dict:
        return {criterion: self.ratio(criterion) for criterion in CRITERIA}

    def to_text(self) -> str:
        lines = ["coverage of model '%s'" % self.model_name]
        for criterion in CRITERIA:
            items = self.items(criterion)
            covered = sum(1 for _, c in items if c)
            lines.append("  %-9s %d/%d (%.0f%%)" % (criterion, covered, len(items),
                                                    100.0 * self.ratio(criterion)))
            for desc in self.uncovered(criterion):
                lines.append("    missing: %s" % desc)
        return "\n".join(lines)

