import itertools
import random

import pytest

from cyclotest.coverage import CoverageReport, ModelMismatch
from cyclotest.dsl import extract_predicates, parse_model
from cyclotest.interp import eval_model
from oracles import mcdc_covered_bruteforce


def _flags(m1=False, p1=False, m2=False, p2=False):
    return {
        "move_eq_f_t1": m1,
        "position_eq_f_t1": p1,
        "move_eq_f_t2": m2,
        "position_eq_t_t2": p2,
    }


def _iron_trace(extraction, move, position, **flags):
    _, _, trace = eval_model(extraction.model, {"move": move, "position": position},
                             {}, _flags(**flags))
    return trace


def _decision_model(n_atoms, expr):
    inputs = "".join("input %s: bool; " % chr(ord("a") + i) for i in range(n_atoms))
    src = "model d { %soutput o: bool; logic { if (%s) { o = 1; } else { o = 0; } } }" % (
        inputs, expr)
    return extract_predicates(parse_model(src))


def _feed(extraction, valuations):
    report = CoverageReport.for_model(extraction.model)
    for valuation in valuations:
        _, _, trace = eval_model(extraction.model, valuation, {}, {})
        report.accumulate(trace)
    return report


class TestAccumulation:
    def test_empty_report_ratio_zero(self, iron_extraction):
        report = CoverageReport.for_model(iron_extraction.model)
        assert report.ratio("branch") == 0.0

    def test_iron_four_cases_give_full_branch(self, iron_extraction):
        report = CoverageReport.for_model(iron_extraction.model)
        report.accumulate(_iron_trace(iron_extraction, 0, 1, m2=True, p2=True))
        report.accumulate(_iron_trace(iron_extraction, 0, 1))
        report.accumulate(_iron_trace(iron_extraction, 0, 0, m1=True, p1=True))
        report.accumulate(_iron_trace(iron_extraction, 1, 0))
        assert report.ratio("branch") == 1.0
        assert report.ratio("decision") == 1.0

    def test_repeated_trace_idempotent(self, iron_extraction):
        report = CoverageReport.for_model(iron_extraction.model)
        trace = _iron_trace(iron_extraction, 0, 1)
        report.accumulate(trace)
        snapshot = report.summary()
        report.accumulate(trace)
        assert report.summary() == snapshot

    def test_monotone_growth(self, iron_extraction):
        report = CoverageReport.for_model(iron_extraction.model)
        previous = -1.0
        for trace in (
            _iron_trace(iron_extraction, 0, 1),
            _iron_trace(iron_extraction, 1, 0),
            _iron_trace(iron_extraction, 0, 0, m1=True, p1=True),
        ):
            report.accumulate(trace)
            assert report.ratio("branch") >= previous
            previous = report.ratio("branch")

    def test_model_mismatch(self, iron_extraction):
        other = extract_predicates(parse_model(
            "model other { input a: bool; output o: bool; "
            "logic { if (a) { o = 1; } else { o = 0; } } }"))
        _, _, trace = eval_model(other.model, {"a": 1}, {}, {})
        with pytest.raises(ModelMismatch):
            CoverageReport.for_model(iron_extraction.model).accumulate(trace)
        # a record whose vector does not fit its decision, shorter or longer,
        # is a mismatch too, not a vector that only branch coverage counts
        trace = _iron_trace(iron_extraction, 0, 1)
        record = trace.decisions[-1]
        for conditions in (record.conditions[:-1], record.conditions + record.conditions[:1]):
            foreign = trace._replace(decisions=trace.decisions[:-1] + (
                record._replace(conditions=conditions),))
            with pytest.raises(ModelMismatch, match="condition"):
                CoverageReport.for_model(iron_extraction.model).accumulate(foreign)

    def test_branch_one_iff_every_decision_both_ways(self, iron_extraction):
        report = CoverageReport.for_model(iron_extraction.model)
        report.accumulate(_iron_trace(iron_extraction, 0, 1, m2=True, p2=True))
        report.accumulate(_iron_trace(iron_extraction, 0, 1))
        # decision "e" never reached
        assert report.ratio("branch") < 1.0
        assert "decision 'e' -> then" in report.uncovered("branch")


class TestMcdcExamples:
    def test_and_with_three_vectors_demonstrates_both(self):
        ex = _decision_model(2, "a && b")
        report = _feed(ex, [{"a": 1, "b": 1}, {"a": 1, "b": 0}, {"a": 0, "b": 1}])
        pairs = report.mcdc_pairs()[""]
        assert pairs["a"] == ((False, True), (True, True))
        assert pairs["b"] == ((True, False), (True, True))
        assert report.ratio("mcdc") == 1.0

    def test_tt_ff_demonstrates_neither(self):
        ex = _decision_model(2, "a && b")
        report = _feed(ex, [{"a": 1, "b": 1}, {"a": 0, "b": 0}])
        pairs = report.mcdc_pairs()[""]
        assert pairs["a"] is None and pairs["b"] is None
        assert report.ratio("mcdc") == 0.0

    def test_single_condition_equals_condition_coverage(self):
        ex = _decision_model(1, "a")
        for valuations in ([{"a": 1}], [{"a": 1}, {"a": 0}]):
            report = _feed(ex, valuations)
            assert report.ratio("mcdc") == report.ratio("condition")


class TestMcdcAgainstBruteForce:
    FUNCTIONS = {
        2: ["a && b", "a || b", "!a || b"],
        3: ["a && b && c", "a || b || c", "a && (b || c)", "(a && b) || c"],
    }

    def test_all_subsets_small_arities(self):
        for n_atoms, exprs in self.FUNCTIONS.items():
            names = [chr(ord("a") + i) for i in range(n_atoms)]
            valuations = [dict(zip(names, bits))
                          for bits in itertools.product((0, 1), repeat=n_atoms)]
            for expr in exprs:
                ex = _decision_model(n_atoms, expr)
                traces = {}
                for v in valuations:
                    _, _, trace = eval_model(ex.model, v, {}, {})
                    traces[tuple(v[n] for n in names)] = trace
                for subset_bits in itertools.product((0, 1), repeat=len(valuations)):
                    chosen = [v for v, keep in zip(valuations, subset_bits) if keep]
                    report = CoverageReport.for_model(ex.model)
                    observed = []
                    for v in chosen:
                        trace = traces[tuple(v[n] for n in names)]
                        report.accumulate(trace)
                        record = trace.decisions[0]
                        observed.append((tuple(x for _, x in record.conditions),
                                         record.outcome))
                    expected = mcdc_covered_bruteforce(set(observed), n_atoms)
                    pairs = report.mcdc_pairs()[""]
                    atoms = report.decisions[""]
                    for i, atom in enumerate(atoms):
                        assert (pairs[atom] is not None) == expected[i], (expr, chosen)


class TestMerge:
    def _reports(self, iron_extraction, seed):
        rng = random.Random(seed)
        traces = [
            _iron_trace(iron_extraction, rng.randint(0, 1), rng.randint(0, 1),
                        m1=bool(rng.randint(0, 1)), p1=bool(rng.randint(0, 1)),
                        m2=bool(rng.randint(0, 1)), p2=bool(rng.randint(0, 1)))
            for _ in range(6)
        ]
        def report(part):
            report = CoverageReport.for_model(iron_extraction.model)
            for trace in part:
                report.accumulate(trace)
            return report

        return report(traces[:3]), report(traces[3:]), report(traces)

    def test_merge_commutative_and_matches_union(self, iron_extraction):
        for seed in range(5):
            r1, r2, whole = self._reports(iron_extraction, seed)
            r1b, r2b, _ = self._reports(iron_extraction, seed)
            assert r1.merge(r2).summary() == whole.summary()
            assert r2b.merge(r1b).summary() == whole.summary()

    def test_merge_requires_same_model(self, iron_extraction):
        other = extract_predicates(parse_model(
            "model other { input a: bool; output o: bool; "
            "logic { if (a) { o = 1; } else { o = 0; } } }"))
        with pytest.raises(ModelMismatch):
            CoverageReport.for_model(iron_extraction.model).merge(
                CoverageReport.for_model(other.model))


class TestRendering:
    def test_text_mentions_every_criterion(self, correct_run):
        text = correct_run.report.to_text()
        for criterion in ("branch", "decision", "condition", "mcdc"):
            assert criterion in text
