"""cyclotest benchmark: campaign throughput and per-layer cost.

Usage (from the repository root):

    python3 bench/run.py --workload iron-paper-inproc --seed 1 --seconds 30 --trace 0

Workloads (each a closed loop: one driver process, no threads, the next
stimulus goes out only after the previous observation was judged):

* ``iron-paper-inproc``: ``cyclotest run`` on the iron model at the paper's
  60 s/900 s, in-process subject, ``full`` scenario (30,646 stimuli).
* ``iron-paper-stdio``: the same campaign against ``iron-sut`` over stdio.
* ``synth-wide``: seeded synthetic models with many input valuations, run
  against their own independent subject, plus ``reduce`` and
  ``enumerate-states`` on the same models.

The iron workloads also time ``reduce`` and ``enumerate-states`` on iron at
10/40 cycles (the paper scale takes minutes).  The iron campaigns are fixed
by the paper and ignore ``--seed``; ``synth-wide`` derives its models from
it.

With ``--trace 0`` the run repeats rounds until ``--seconds`` have passed,
and each model at least twice, and reports the end-to-end metrics over all
of them, scaled to a nominal machine speed (see ``SpeedProbe``).  With
``--trace 1`` it runs one untraced and one traced campaign plus traced analysis commands, reports
per-layer metrics, and writes the spans to ``bench/out/``.  Every campaign
and command passes the correctness gate or the run exits 1; the last line of
standard output is a JSON summary.
"""
from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shlex
import signal
import statistics
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

sys.path.insert(0, str(BENCH_DIR))
import spans  # noqa: E402
import synth  # noqa: E402

WORKLOADS = ("iron-paper-inproc", "iron-paper-stdio", "synth-wide")
MIN_ROUNDS = 3
SETUPS_PER_ROUND = 2
# Synthetic models per run: relabellings of one template still differ in
# cost, and averaging over a few keeps the figures steady across seeds.
SYNTH_MODELS = 4

# The iron campaign at 60 s/900 s, fixed by the model and the full scenario.
IRON_PAPER = dict(stimuli=30_646, replays=9_010, states=3, transitions=24)
# reduce / enumerate-states on iron at 10/40 cycles.
IRON_ANALYSIS_REMAP = ("60s=10", "900s=40")
IRON_ANALYSIS = dict(reachable=9, cells=3)
# Iterations of reference_loop(), and its seconds in the faster phase of the
# 2-core machine the benchmark was built on; scaled times are in seconds of
# that machine.
REF_LOOP_N = 2000
REF_NOMINAL_S = 0.00046
# Wall seconds between speed probes, and the fewest probes a unit is scaled by.
PROBE_INTERVAL_S = 0.01
MIN_PROBES = 5


class BenchError(Exception):
    """A correctness check failed."""


class SetupError(Exception):
    """The engine sources are missing or cannot be driven."""


# ---------------------------------------------------------------------------
# Engine access


@dataclass
class Engine:
    cli: object
    contracts: object
    coverage: object
    dsl: object
    iron: object
    kernel: object
    mediator: object
    reduction: object
    scenarios: object
    traversal: object


def import_engine() -> Engine:
    """Import cyclotest from ``src/`` of this checkout, never from elsewhere."""
    package = SRC / "cyclotest" / "__init__.py"
    if not package.is_file():
        raise SetupError("no engine sources at %s" % package.parent)
    sys.path.insert(0, str(SRC))
    try:
        mods = {name: importlib.import_module("cyclotest." + name)
                for name in Engine.__dataclass_fields__}
    except ImportError as exc:
        raise SetupError("cannot import the engine: %s" % exc) from exc
    loaded = Path(sys.modules["cyclotest"].__file__).resolve()
    if loaded != package.resolve():
        raise SetupError("imported cyclotest from %s, not %s" % (loaded, package))
    # a stdio subject is a child interpreter; it must import the same sources
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return Engine(**mods)


@contextlib.contextmanager
def patched(owner, attr: str, value):
    if not hasattr(owner, attr):
        raise SetupError("%s has no attribute %r" % (getattr(owner, "__name__", owner), attr))
    saved = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, saved)


# ---------------------------------------------------------------------------
# Workloads


@dataclass
class Variant:
    """One model and subject a workload runs."""

    config: object  # cli.RunConfig
    analysis_args: list  # --model ... for reduce / enumerate-states
    subject: object = None  # synth.SynthModel served as inproc:synth, else None


@dataclass
class Workload:
    name: str
    variants: list
    expect: dict  # campaign counts the gate requires
    analysis_expect: dict  # reachable flag vectors, partition cells
    full_coverage: bool
    notes: list = field(default_factory=list)


def make_workload(engine: Engine, name: str, seed: int) -> Workload:
    cli = engine.cli
    if name in ("iron-paper-inproc", "iron-paper-stdio"):
        model = str(SRC / "cyclotest" / "models" / "iron.ctl")
        analysis = ["--model", model]
        for remap in IRON_ANALYSIS_REMAP:
            analysis += ["--remap-duration", remap]
        sut = "inproc:iron"
        if name == "iron-paper-stdio":
            sut = "stdio:%s -m cyclotest.iron_sut" % shlex.quote(sys.executable)
        variant = Variant(cli.RunConfig(model_path=model, sut=sut), analysis)
        return Workload(name, [variant], IRON_PAPER, IRON_ANALYSIS, True)
    if name == "synth-wide":
        return _synth_workload(engine, seed)
    raise SetupError("unknown workload %r" % name)


def _synth_workload(engine: Engine, seed: int) -> Workload:
    dsl = engine.dsl

    def accept(text: str) -> bool:
        try:
            return not dsl.check_model(dsl.parse_model(text))
        except dsl.ModelError:
            return False

    template, _, rejected = synth.generate_valid(synth.TEMPLATE_SEED, accept)
    notes = ["template seed %d, rejected candidate seeds: %s"
             % (synth.TEMPLATE_SEED, rejected or "none")]
    OUT.mkdir(exist_ok=True)
    variants = []
    for k in range(SYNTH_MODELS):
        model = synth.relabel(template, seed * SYNTH_MODELS + k)
        text = synth.render(model)
        if not accept(text):
            raise SetupError("relabelled model %s fails check_model" % model.name)
        path = OUT / ("%s.ctl" % model.name)
        path.write_text(text, encoding="utf-8")
        notes.append("model %s (%s)" % (model.name, path.relative_to(ROOT)))
        variants.append(Variant(engine.cli.RunConfig(model_path=str(path), sut="inproc:synth"),
                                ["--model", str(path)], model))
    states = synth.SHAPE["states"]
    literals = sum(len(c.literals) for c in template.held)
    # held() literals sit on distinct inputs, so every flag vector is
    # reachable and each abstract state is one partition cell
    return Workload("synth-wide", variants, dict(states=states),
                    dict(reachable=2 ** literals, cells=states), False, notes)


@contextlib.contextmanager
def synth_subjects(engine: Engine, workload: Workload):
    """Serve ``inproc:synth`` from the synthetic subject of the campaign's
    model; other subjects go through the engine's own link construction."""
    subjects = {v.config.model_path: v.subject for v in workload.variants if v.subject}
    if not subjects:
        yield
        return
    real = engine.cli.build_link

    def build_link(ast, extraction, config, period_ms):
        if config.sut != "inproc:synth":
            return real(ast, extraction, config, period_ms)
        sut = synth.SynthSut(subjects[config.model_path], period_ms)
        return engine.mediator.InProcessLink(
            ast, sut, engine.kernel.KernelConfig(cycle_period_ms=period_ms))

    with patched(engine.cli, "build_link", build_link):
        yield


# ---------------------------------------------------------------------------
# Campaigns


class _TimedSpec:
    """Stands in for the campaign's specification and records the latency of
    every ``apply_stimulus`` call, as the traversal sees it, in ns, less the
    time of any speed probe that ran inside the call."""

    def __init__(self, spec, samples: array, probe):
        self._spec = spec
        self._samples = samples
        self._probe = probe

    def apply_stimulus(self, inputs):
        spent = self._probe.spent
        start = time.perf_counter_ns()
        verdict = self._spec.apply_stimulus(inputs)
        elapsed = time.perf_counter_ns() - start
        self._samples.append(elapsed - round((self._probe.spent - spent) * 1e9))
        return verdict

    def __getattr__(self, name):
        return getattr(self._spec, name)


class _SetupDone(Exception):
    pass


@dataclass
class Campaign:
    result: object
    # perf_counter() at the start, at the start and end of the traversal,
    # and at the end
    stamps: tuple
    samples: array
    log_hash: str
    stimuli: int
    replays: int
    failed: int

    @property
    def campaign_s(self) -> float:
        return self.stamps[3] - self.stamps[0]


def run_campaign(engine: Engine, variant: Variant, tracer=None, probe=None) -> Campaign:
    """One ``cyclotest run`` campaign, timed from the benchmark's side.

    Set-up is everything ``run_campaign`` does before it starts the
    traversal; campaign time adds the traversal and the link close.
    Stimulus latencies are recorded unless ``tracer`` is given.
    """
    cli = engine.cli
    samples = array("q")
    marks = {}
    real_traverse = cli.traverse

    def hooked(scenario, spec, *args, **kwargs):
        traverse = real_traverse
        if tracer is None:
            spec = _TimedSpec(spec, samples, probe or SpeedProbe())
        else:
            tracer.wrap(scenario, "state_fn", "scenarios.state_fn")
            traverse = tracer.traced(real_traverse, "traversal.traverse")
        marks["start"] = time.perf_counter()
        try:
            return traverse(scenario, spec, *args, **kwargs)
        finally:
            marks["end"] = time.perf_counter()

    with patched(cli, "traverse", hooked):
        start = time.perf_counter()
        result = cli.run_campaign(variant.config)
        end = time.perf_counter()
    if "start" not in marks:
        raise SetupError("cli.run_campaign did not call cli.traverse")

    entries = result.log.entries
    log_text = result.log.to_json_lines()
    return Campaign(
        result, (start, marks["start"], marks["end"], end), samples,
        hashlib.sha256(log_text.encode("utf-8")).hexdigest(), len(entries),
        sum(1 for e in entries if e.replay), sum(1 for e in entries if e.verdict != "Pass"),
    )


def setup_only(engine: Engine, variant: Variant) -> tuple:
    """Start and end of one campaign's set-up: the run stops where traversal
    would begin, and the link is closed as after any campaign."""
    marks = {}

    def hooked(scenario, spec, *args, **kwargs):
        marks["start"] = time.perf_counter()
        raise _SetupDone

    with patched(engine.cli, "traverse", hooked):
        start = time.perf_counter()
        try:
            engine.cli.run_campaign(variant.config)
        except _SetupDone:
            return start, marks["start"]
    raise SetupError("cli.run_campaign did not call cli.traverse")


def check_campaign(workload: Workload, campaign: Campaign, reference_hash: str) -> list:
    """Correctness gate for one campaign; returns the failed checks."""
    result = campaign.result
    problems = []
    if result.error is not None:
        problems.append("campaign error: %s" % result.error)
    if campaign.failed:
        problems.append("failed_share %d/%d > 0" % (campaign.failed, campaign.stimuli))
    automaton = result.automaton
    found = dict(stimuli=campaign.stimuli, replays=campaign.replays,
                 states=len(automaton.states) if automaton else 0,
                 transitions=len(automaton.transitions) if automaton else 0)
    for key, want in workload.expect.items():
        if found[key] != want:
            problems.append("%s: expected %d, got %d" % (key, want, found[key]))
    if workload.full_coverage:
        for criterion, ratio in sorted(result.report.summary().items()):
            if ratio != 1.0:
                problems.append("%s coverage %.4f < 1.0" % (criterion, ratio))
    if reference_hash and campaign.log_hash != reference_hash:
        problems.append("log sha256 %s differs from reference %s"
                        % (campaign.log_hash[:16], reference_hash[:16]))
    return problems


class Gate:
    """Checks every campaign; each variant's log must hash the same every
    time.  A stdio campaign must reproduce the in-process log, since all
    transports give identical logs."""

    def __init__(self, engine: Engine, workload: Workload):
        self.workload = workload
        self.hashes: dict = {}
        self.repeats = 0  # campaigns checked against an earlier log
        if workload.name == "iron-paper-stdio":
            inproc = make_workload(engine, "iron-paper-inproc", 0)
            self.check(run_campaign(engine, inproc.variants[0]), 0, inproc)

    def check(self, campaign: Campaign, variant: int, workload=None) -> None:
        self.repeats += variant in self.hashes
        reference = self.hashes.setdefault(variant, campaign.log_hash)
        problems = check_campaign(workload or self.workload, campaign, reference)
        if problems:
            raise BenchError("; ".join(problems))


# ---------------------------------------------------------------------------
# reduce / enumerate-states


def run_command(engine: Engine, command: str, args: list) -> tuple:
    """Start and end times and JSON output of one CLI command."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = engine.cli.main([command] + args + ["--json"])
    end = time.perf_counter()
    if code != 0:
        raise BenchError("%s exited %d" % (command, code))
    return (start, end), json.loads(out.getvalue())


def run_analysis(engine: Engine, workload: Workload, variant: Variant, enum_tracer=None,
                 reduce_tracer=None) -> tuple:
    """Run ``enumerate-states`` and ``reduce``, each inside its tracer if
    given, and check their results.  Returns each command's start and end."""
    with enum_tracer or contextlib.nullcontext():
        enum_at, enum = run_command(engine, "enumerate-states", variant.analysis_args)
    with reduce_tracer or contextlib.nullcontext():
        reduce_at, red = run_command(engine, "reduce", variant.analysis_args)
    want = workload.analysis_expect
    problems = []
    if enum["reachable"] != want["reachable"]:
        problems.append("enumerate-states: %d reachable vectors, expected %d"
                        % (enum["reachable"], want["reachable"]))
    cells = red["partition"]
    covered = sum(len(cell["states"]) for cell in cells)
    if len(cells) != want["cells"] or covered != want["reachable"]:
        problems.append("reduce: %d cells over %d states, expected %d over %d"
                        % (len(cells), covered, want["cells"], want["reachable"]))
    if problems:
        raise BenchError("; ".join(problems))
    return enum_at, reduce_at


# ---------------------------------------------------------------------------
# Measurement


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def _reference_step(record: dict, i: int) -> int:
    return (record["value"] + i) % 7


def reference_loop() -> float:
    """Seconds for a fixed pure-Python workload of small dicts and calls,
    with garbage collection off so the engine's heap does not leak in."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        out = [_reference_step({"cycle": i, "value": i & 3}, i) for i in range(REF_LOOP_N)]
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    assert len(out) == REF_LOOP_N
    return elapsed


class SpeedProbe:
    """Scales measured times to a nominal machine speed.

    On a shared machine, speed changes by up to 2x from one second to the
    next, so raw times of runs a minute apart differ by far more than a code
    change should be judged on.  While a run measures, a timer signal runs
    :func:`reference_loop` every ``PROBE_INTERVAL_S`` in this process, on the
    CPU the engine is using.  A measured unit is timed less the probes that
    ran inside it, and multiplied by ``REF_NOMINAL_S`` over the mean of those
    probes, or of the last ``MIN_PROBES`` if it held fewer.  Outside ``with``
    the probe is idle.
    """

    def __init__(self):
        self.spent = 0.0  # seconds taken by probes so far
        self.factors: list = []
        self._ends = array("d")  # perf_counter() at the end of each probe
        self._costs = array("d")  # reference_loop() seconds of each probe
        self._taken = array("d")  # seconds each probe took from the engine
        self._busy = False
        self._handler = None

    def _probe(self, *_) -> None:
        if self._busy:  # a signal that arrived during a probe
            return
        self._busy = True
        start = time.perf_counter()
        self._costs.append(reference_loop())
        end = time.perf_counter()
        self._ends.append(end)
        self._taken.append(end - start)
        self.spent += end - start
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        for _ in range(MIN_PROBES):
            self._probe()
        self._handler = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def unit(self, start: float, end: float) -> tuple:
        """Seconds from ``start`` to ``end`` less the probes between them,
        and the factor that scales them to the nominal speed."""
        first = bisect.bisect_right(self._ends, start)
        last = bisect.bisect_right(self._ends, end)
        net = end - start - sum(self._taken[first:last])
        costs = self._costs[max(0, min(first, last - MIN_PROBES)):last]
        factor = REF_NOMINAL_S / statistics.fmean(costs)
        self.factors.append(factor)
        return net, factor


def measure(engine: Engine, workload: Workload, seconds: float, log) -> tuple:
    """End-to-end metrics from untraced rounds until ``seconds`` have passed.

    A round is one campaign, ``SETUPS_PER_ROUND`` set-ups and one pair of
    analysis commands on the next variant.  No round starts that would
    likely end past the deadline, but every variant runs at least twice, so
    that the gate sees each model's log repeat.  Per variant, a figure is
    the median over its rounds (latency percentiles are taken per
    campaign); the synthetic workload averages its variants.  Every time is
    scaled by a :class:`SpeedProbe`; the unscaled figures are printed beside
    the others.
    """
    gate = Gate(engine, workload)
    n = len(workload.variants)
    campaigns, setups, raw_setups, scaled, raw = [], [], [], {}, {}
    deadline = time.perf_counter() + seconds
    round_s = 0.0
    with SpeedProbe() as probe:
        while len(campaigns) < max(MIN_ROUNDS, 2 * n) or time.perf_counter() + round_s < deadline:
            round_start = time.perf_counter()
            index = len(campaigns) % n
            variant = workload.variants[index]
            campaign = run_campaign(engine, variant, probe=probe)
            gate.check(campaign, index)
            if len(campaigns) >= n:
                campaign.result = None  # keep memory flat; the first per variant is kept
            campaigns.append(campaign)
            ordered = sorted(campaign.samples)
            campaign.samples = None
            start, traverse_start, traverse_end, end = campaign.stamps
            set_ups = [probe.unit(start, traverse_start)]
            set_ups += [probe.unit(*setup_only(engine, variant)) for _ in range(SETUPS_PER_ROUND)]
            enum_at, reduce_at = run_analysis(engine, workload, variant)
            traverse_s, k = probe.unit(traverse_start, traverse_end)
            figures = dict(traverse=(traverse_s / campaign.stimuli, k),
                           campaign=probe.unit(start, end),
                           p50=(percentile(ordered, 50) / 1000.0, k),
                           p99=(percentile(ordered, 99) / 1000.0, k),
                           enum=probe.unit(*enum_at), reduce=probe.unit(*reduce_at))
            for key, (value, factor) in figures.items():
                raw.setdefault(index, {}).setdefault(key, []).append(value)
                scaled.setdefault(index, {}).setdefault(key, []).append(value * factor)
            for value, factor in set_ups:
                raw_setups.append(value)
                setups.append(value * factor)
            round_s = time.perf_counter() - round_start

    def summarize(table: dict, set_ups: list) -> dict:
        def figure(key):
            return statistics.fmean(statistics.median(row[key]) for row in table.values())

        return {
            "stimuli_per_s": (1.0 / figure("traverse"), "1/s"),
            "campaign_s": (figure("campaign"), "s"),
            "setup_s": (statistics.median(set_ups), "s"),
            "stimulus_p50_us": (figure("p50"), "us"),
            "stimulus_p99_us": (figure("p99"), "us"),
            "reduce_s": (figure("reduce"), "s"),
            "enumerate_s": (figure("enum"), "s"),
        }

    firsts = campaigns[:n]
    stimuli = sum(c.stimuli for c in firsts)
    metrics = summarize(scaled, setups)
    metrics["replay_share"] = (sum(c.replays for c in firsts) / stimuli, "ratio")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    fewest = min(c.stimuli for c in campaigns)
    log("rounds: %d over %d variant(s), set-ups: %d" % (len(campaigns), n, len(setups)))
    log("stimulus latency samples: %d, at least %d per campaign (%d beyond its p99)"
        % (sum(c.stimuli for c in campaigns), fewest, fewest - -(-fewest * 99 // 100)))
    for i, c in enumerate(firsts):
        log("variant %d: %d stimuli (%d replayed), %d states, %d transitions, log sha256 %s"
            % (i, c.stimuli, c.replays, len(c.result.automaton.states),
               len(c.result.automaton.transitions), c.log_hash))
        log("variant %d coverage: %s" % (i, json.dumps(c.result.report.summary(), sort_keys=True)))
    log("log sha256 equal to an earlier log of the same model: %d campaigns" % gate.repeats)
    log("failed_share: %d/%d" % (sum(c.failed for c in campaigns),
                                 sum(c.stimuli for c in campaigns)))
    if workload.name == "iron-paper-stdio":
        log("peak rss of subject processes: %.1f MB"
            % (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0))
    log("speed factor: median %.3f, range %.3f..%.3f over %d units; %.2f s in probes"
        % (statistics.median(probe.factors), min(probe.factors), max(probe.factors),
           len(probe.factors), probe.spent))
    log("unscaled: " + ", ".join("%s %.6g" % (name, value)
                                 for name, (value, _) in summarize(raw, raw_setups).items()))
    return metrics, campaigns


def layer_metrics(engine: Engine, workload: Workload, log) -> tuple:
    """Per-layer metrics from one traced campaign and traced analysis on the
    first variant, against an untraced campaign for the tracing overhead."""
    gate = Gate(engine, workload)
    variant = workload.variants[0]
    plain = run_campaign(engine, variant)
    gate.check(plain, 0)

    cli, mediator = engine.cli, engine.mediator
    with spans.Tracer(stimulus_span="contracts.apply_stimulus") as tracer:
        tracer.wrap(engine.contracts.Specification, "apply_stimulus", "contracts.apply_stimulus")
        tracer.wrap(engine.contracts, "eval_model", "interp.eval_model")
        tracer.wrap(mediator, "step_predicates", "temporal.step_predicates")
        tracer.wrap(mediator, "sync_state", "mediator.sync_state")
        tracer.wrap(mediator.InProcessLink, "exchange", "mediator.exchange")
        tracer.wrap(mediator.StdioLink, "exchange", "mediator.exchange")
        tracer.wrap(mediator.WireMessage, "encode", "mediator.wire_encode")
        tracer.wrap(mediator.WireMessage, "decode", "mediator.wire_decode")
        tracer.wrap(engine.kernel.Kernel, "run_cycle", "kernel.run_cycle")
        tracer.wrap(engine.iron.IronSut, "step", "subject.step")
        tracer.wrap(synth.SynthSut, "step", "subject.step")
        tracer.wrap(engine.coverage.CoverageReport, "accumulate", "coverage.accumulate")
        tracer.wrap(engine.scenarios, "generalized_state", "reduction.generalized_state")
        tracer.wrap(engine.traversal.Action, "stimuli", "scenarios.stimuli")
        tracer.wrap(cli, "derive_projections", "reduction.derive_projections")
        tracer.wrap(cli, "load_model", "cli.load_model")
        tracer.wrap(cli, "build_link", "mediator.link_open")
        traced = run_campaign(engine, variant, tracer)
        report = traced.result.report
        tracer.traced(lambda: (report.summary(), report.to_text()), "coverage.report")()
    gate.check(traced, 0)

    bfs, analysis = spans.Tracer(), spans.Tracer()
    bfs.count(engine.reduction, "eval_model", "reduction.bfs_eval_calls")
    analysis.wrap(cli, "coverable_cases", "reduction.coverable_cases")
    run_analysis(engine, workload, variant, bfs, analysis)

    OUT.mkdir(exist_ok=True)
    span_path = OUT / ("spans-%s.tsv.gz" % workload.name)
    tracer.write(span_path)
    log("spans: %d written to %s" % (len(tracer.spans), span_path.relative_to(ROOT)))

    st, an = tracer.stats(), analysis.stats()
    empty = spans.LayerStats()

    def get(name, table=st):
        return table.get(name, empty)

    automaton = traced.result.automaton
    # every fresh action records one transition
    fresh = len(automaton.transitions)
    metrics = {
        "contracts.apply_stimulus.calls": (get("contracts.apply_stimulus").calls, "count"),
        "contracts.apply_stimulus.busy_s": (get("contracts.apply_stimulus").total_ns / 1e9, "s"),
        "contracts.apply_stimulus.self_us": (get("contracts.apply_stimulus").self_mean_us(), "us"),
        "interp.eval_model.calls": (get("interp.eval_model").calls, "count"),
        "interp.eval_model.us": (get("interp.eval_model").mean_us(), "us"),
        "temporal.step_predicates.calls": (get("temporal.step_predicates").calls, "count"),
        "temporal.step_predicates.us": (get("temporal.step_predicates").mean_us(), "us"),
        "kernel.run_cycle.calls": (get("kernel.run_cycle").calls, "count"),
        "kernel.run_cycle.self_us": (get("kernel.run_cycle").self_mean_us(), "us"),
        "subject.step_us": (get("subject.step").mean_us(), "us"),
        "mediator.exchange.us": (get("mediator.exchange").mean_us(), "us"),
        "mediator.exchange.self_us": (get("mediator.exchange").self_mean_us(), "us"),
        "mediator.sync_state.us": (get("mediator.sync_state").mean_us(), "us"),
        "mediator.link_open_s": (get("mediator.link_open").total_ns / 1e9, "s"),
        "coverage.accumulate.us": (get("coverage.accumulate").mean_us(), "us"),
        "coverage.report_s": (get("coverage.report").total_ns / 1e9, "s"),
        "reduction.generalized_state.calls": (get("reduction.generalized_state").calls, "count"),
        "reduction.generalized_state.us": (get("reduction.generalized_state").mean_us(), "us"),
        "reduction.bfs_eval_calls": (bfs.counts["reduction.bfs_eval_calls"], "count"),
        "reduction.coverable_cases.calls": (get("reduction.coverable_cases", an).calls, "count"),
        "reduction.coverable_cases.s": (get("reduction.coverable_cases", an).total_ns / 1e9, "s"),
        "reduction.derive_projections_s": (get("reduction.derive_projections").total_ns / 1e9,
                                           "s"),
        "traversal.traverse.self_s": (get("traversal.traverse").self_ns / 1e9, "s"),
        "traversal.actions_fresh": (fresh, "count"),
        "traversal.actions_replayed": (get("scenarios.stimuli").calls - fresh, "count"),
        "traversal.states": (len(automaton.states), "count"),
        "traversal.transitions": (len(automaton.transitions), "count"),
        "scenarios.stimuli.us": (get("scenarios.stimuli").mean_us(), "us"),
        "cli.load_model_s": (get("cli.load_model").total_ns / 1e9, "s"),
        "trace.overhead_s": (traced.campaign_s - plain.campaign_s, "s"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    if workload.name == "iron-paper-stdio":
        # only a stream link encodes; in process these would always read 0
        metrics["mediator.wire_encode.us"] = (get("mediator.wire_encode").mean_us(), "us")
        metrics["mediator.wire_decode.us"] = (get("mediator.wire_decode").mean_us(), "us")
    log("untraced campaign %.3f s, traced %.3f s" % (plain.campaign_s, traced.campaign_s))
    return metrics, [plain, traced]


# ---------------------------------------------------------------------------
# Entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    def log(line: str) -> None:
        print(line, flush=True)

    try:
        engine = import_engine()
        workload = make_workload(engine, args.workload, args.seed)
    except SetupError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 2
    log("machine: nproc %d, python %s, %s"
        % (os.cpu_count() or 0, platform.python_version(), platform.platform()))
    log("workload %s, seed %d, %s" % (workload.name, args.seed,
                                      "traced" if args.trace else "untraced"))
    for note in workload.notes:
        log(note)

    correct, campaigns, metrics = True, [], {}
    try:
        with synth_subjects(engine, workload):
            if args.trace:
                metrics, campaigns = layer_metrics(engine, workload, log)
            else:
                metrics, campaigns = measure(engine, workload, args.seconds, log)
    except BenchError as exc:
        correct = False
        log("CORRECTNESS FAILURE: %s" % exc)
    except SetupError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 2

    for name, (value, unit) in metrics.items():
        log("%-36s %14.6f %s" % (name, value, unit))
    summary = {
        "correct": correct,
        "attempted": max(1, sum(c.stimuli for c in campaigns)),
        "failed": sum(c.failed for c in campaigns),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(summary, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
