"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import os
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import spans  # noqa: E402
import synth  # noqa: E402

ENGINE = run.import_engine()
IRON = str(run.SRC / "cyclotest" / "models" / "iron.ctl")


def _accept(text: str) -> bool:
    dsl = ENGINE.dsl
    return not dsl.check_model(dsl.parse_model(text))


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        template, text, _ = synth.generate_valid(synth.TEMPLATE_SEED, _accept)
        again, text_again, _ = synth.generate_valid(synth.TEMPLATE_SEED, _accept)
        self.assertEqual(text.encode(), text_again.encode())
        for seed in (0, 7, 123):
            first = synth.render(synth.relabel(template, seed)).encode()
            self.assertEqual(first, synth.render(synth.relabel(again, seed)).encode())
        self.assertNotEqual(synth.render(synth.relabel(template, 1)),
                            synth.render(synth.relabel(template, 2)))

    def test_same_bytes_in_another_interpreter(self):
        code = ("import sys; sys.path.insert(0, %r); import synth; "
                "m, _, _ = synth.generate_valid(synth.TEMPLATE_SEED, lambda t: True); "
                "sys.stdout.write(synth.render(synth.relabel(m, 5)))"
                % str(run.BENCH_DIR))
        env = dict(os.environ, PYTHONHASHSEED="12345")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60).stdout
        template, _, _ = synth.generate_valid(synth.TEMPLATE_SEED, lambda t: True)
        self.assertEqual(out, synth.render(synth.relabel(template, 5)))

    def test_relabelled_models_check_clean_and_keep_their_state_count(self):
        template, _, _ = synth.generate_valid(synth.TEMPLATE_SEED, _accept)
        for seed in range(20):
            model = synth.relabel(template, seed)
            self.assertTrue(_accept(synth.render(model)), seed)
            self.assertEqual(synth.abstract_state_count(model), synth.SHAPE["states"])


class SelfTimeTest(unittest.TestCase):
    def test_self_time_is_span_minus_direct_children(self):
        # root 0..100 has children a 10..40 and b 50..70; a has child c 15..25
        tree = [
            spans.Span(0, "root", 0, 100, spans.ROOT, 0),
            spans.Span(1, "a", 10, 40, 0, 1),
            spans.Span(2, "c", 15, 25, 1, 1),
            spans.Span(3, "b", 50, 70, 0, 2),
        ]
        self.assertEqual(spans.self_times(tree), {0: 50, 1: 20, 2: 10, 3: 20})
        stats = spans.aggregate(tree + [spans.Span(4, "b", 80, 90, 0, 3)])
        self.assertEqual((stats["b"].calls, stats["b"].total_ns, stats["b"].self_ns), (2, 30, 30))
        # root loses the second b too
        self.assertEqual(stats["root"].self_ns, 40)

    def test_tracer_records_nesting_and_restores(self):
        class Layer:
            def outer(self):
                return self.inner() + 1

            def inner(self):
                return 1

            @staticmethod
            def helper(x):
                return x * 2

        original = Layer.__dict__["helper"]
        with spans.Tracer(stimulus_span="outer") as tracer:
            tracer.wrap(Layer, "outer", "outer")
            tracer.wrap(Layer, "inner", "inner")
            tracer.wrap(Layer, "helper", "helper")
            self.assertEqual(Layer().outer(), 2)
            self.assertEqual(Layer.helper(3), 6)
        self.assertIs(Layer.__dict__["helper"], original)
        self.assertEqual(Layer().outer(), 2)
        by_name = {s.name: s for s in tracer.spans}
        self.assertEqual(by_name["inner"].parent, by_name["outer"].sid)
        self.assertEqual(by_name["inner"].stimulus, by_name["outer"].stimulus)
        self.assertEqual(by_name["helper"].parent, spans.ROOT)
        self.assertEqual(len(tracer.spans), 3)


class GateTest(unittest.TestCase):
    def _desk_iron(self, sut: str) -> run.Variant:
        config = ENGINE.cli.RunConfig(model_path=IRON, sut=sut,
                                      remap={60_000: 3, 900_000: 5})
        return run.Variant(config, [])

    def test_gate_trips_on_a_mutant(self):
        workload = run.make_workload(ENGINE, "iron-paper-inproc", 0)
        campaign = run.run_campaign(ENGINE, self._desk_iron("inproc:iron:M1"))
        self.assertGreater(campaign.failed / campaign.stimuli, 0)
        problems = run.check_campaign(workload, campaign, "")
        self.assertTrue(any(p.startswith("failed_share") for p in problems), problems)
        with self.assertRaises(run.BenchError):
            run.Gate(ENGINE, workload).check(campaign, 0)

    def test_correct_desk_campaign_has_no_failures(self):
        workload = run.make_workload(ENGINE, "iron-paper-inproc", 0)
        campaign = run.run_campaign(ENGINE, self._desk_iron("inproc:iron"))
        self.assertEqual(campaign.failed, 0)
        problems = run.check_campaign(workload, campaign, "")
        self.assertFalse(any(p.startswith("failed_share") for p in problems), problems)

    def test_synthetic_subject_agrees_with_the_oracle(self):
        workload = run.make_workload(ENGINE, "synth-wide", 3)
        variant = workload.variants[0]
        with run.synth_subjects(ENGINE, workload):
            campaign = run.run_campaign(ENGINE, variant)
            self.assertEqual(run.check_campaign(workload, campaign, ""), [])
            run.run_analysis(ENGINE, workload, variant)
        # the same seed gives the same log in another interpreter, whose
        # string hashing differs
        code = "\n".join([
            "import sys",
            "sys.path.insert(0, %r)" % str(run.BENCH_DIR),
            "import run",
            "engine = run.import_engine()",
            "workload = run.make_workload(engine, 'synth-wide', 3)",
            "with run.synth_subjects(engine, workload):",
            "    print(run.run_campaign(engine, workload.variants[0]).log_hash)",
        ])
        env = dict(os.environ, PYTHONHASHSEED="12345")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120).stdout
        self.assertEqual(out.strip(), campaign.log_hash)


if __name__ == "__main__":
    unittest.main()
