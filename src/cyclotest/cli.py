"""Command-line entry point.

Subcommands: ``run`` (full campaign against a subject, optionally exporting
the explored automaton as DOT), ``enumerate-states`` (upper bound and
reachable temporal flag states), ``reduce`` (test cases, rewritten
conditions, projections, state partition).  Exit codes: 0 ok, 2 model/parse
problem or bad option, 3 mediator or protocol failure, 4 failed verdicts or
traversal diagnostics, 5 unmet coverage requirement, 6 output not written.
``CYCLOTEST_LOG`` sets the log level.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import logging
import os
import random
import shlex
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

from . import iron
from .contracts import Specification, VerdictKind
from .coverage import CRITERIA, CoverageReport
from .dsl import (
    Decision,
    Held,
    ModelError,
    check_model,
    extract_predicates,
    parse_model,
    rescale_durations,
    walk_exprs,
)
from .kernel import Kernel, KernelConfig
from .mediator import InProcessLink, MediatorError, StdioLink, TcpLink
from .reduction import (
    ReductionError,
    coverable_cases,
    derive_projections,
    enumerate_reachable_flag_states,
    enumerate_test_cases,
    make_piecemeal,
)
from .scenarios import build_coverage_scenario
from .traversal import TraversalError, export_dot, traverse

log = logging.getLogger("cyclotest.cli")

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PROTOCOL = 3
EXIT_VERDICT = 4
EXIT_COVERAGE = 5
EXIT_OUTPUT = 6


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code

    def __reduce__(self):
        # raised in a pool worker, it is pickled back to the main process
        return CliError, (str(self), self.code)


@dataclass
class RunConfig:
    model_path: str
    sut: str = "inproc:iron"
    scenario: str = "full"
    parts: tuple = ()
    cycle_period_ms: int = 1000
    streaming: bool = True
    remap: dict = field(default_factory=dict)  # duration_ms -> cycles
    budget: int = 10_000
    seed: Optional[int] = None
    strict_held: bool = False
    timeout_s: float = 5.0
    required: tuple = ()  # ((criterion, ratio), ...)
    jobs: int = 1


@dataclass
class CampaignResult:
    log: object
    report: CoverageReport
    automaton: object
    error: Optional[str] = None
    error_code: int = EXIT_OK
    kernel: Optional[Kernel] = None  # an in-process subject's, for its cycle records

    def __getstate__(self):
        # the automaton holds scenario closures, which do not pickle: a pool
        # worker sends back the log, the report and the error
        return dict(self.__dict__, automaton=None, kernel=None)

    def exit_code(self, required) -> int:
        if self.error is not None:
            return self.error_code
        for entry in self.log.entries:
            if entry.verdict == VerdictKind.MEDIATOR_FAILURE.value:
                return EXIT_PROTOCOL
        if any(e.verdict != VerdictKind.PASS.value for e in self.log.entries):
            return EXIT_VERDICT
        for criterion, ratio in required:
            if self.report.ratio(criterion) < ratio:
                return EXIT_COVERAGE
        return EXIT_OK


def load_model(config: RunConfig):
    """The checked model with its temporal predicates extracted; any model
    problem is a ``CliError`` with exit 2."""
    try:
        with open(config.model_path, encoding="utf-8") as fh:
            source = fh.read()
    except OSError as exc:
        raise CliError("cannot read model: %s" % exc, EXIT_PARSE) from exc
    try:
        ast = parse_model(source)
    except ModelError as exc:
        raise CliError("%s: %s" % (config.model_path, exc), EXIT_PARSE) from exc
    durations = {e.duration_ms for dec in ast.decisions() for e in walk_exprs(dec.condition)
                 if isinstance(e, Held)}
    unused = sorted(set(config.remap) - durations)
    if unused:
        raise CliError("--remap-duration: no held() in %s lasts %s" % (
            config.model_path, ", ".join("%d ms" % dur for dur in unused)), EXIT_PARSE)
    if config.remap:
        ast = rescale_durations(ast, {dur: cycles * config.cycle_period_ms
                                      for dur, cycles in config.remap.items()})
    diagnostics = check_model(ast)
    for diag in diagnostics:
        print(diag.format(config.model_path), file=sys.stderr)
    if any(d.severity == "error" for d in diagnostics):
        raise CliError("model has errors", EXIT_PARSE)
    try:
        return extract_predicates(ast)
    except ModelError as exc:
        raise CliError("%s: %s" % (config.model_path, exc), EXIT_PARSE) from exc


def build_link(model, extraction, config: RunConfig, period_ms: int):
    spec_str = config.sut
    kind, _, rest = spec_str.partition(":")
    kcfg = KernelConfig(cycle_period_ms=period_ms, streaming=config.streaming)
    if kind == "inproc":
        name, _, mutant = rest.partition(":")
        if name != "iron":
            raise CliError("unknown in-process subject %r" % name, EXIT_PARSE)
        durations = sorted({p.duration_ms for p in extraction.predicates})
        if len(durations) != 2:
            raise CliError("in-process iron needs a model with two distinct durations",
                           EXIT_PARSE)
        try:
            sut = iron.IronSut(tuple(durations), period_ms, mutant or None)
        except iron.UnknownMutant as exc:
            raise CliError("unknown iron mutant %r" % mutant, EXIT_PARSE) from exc
        return InProcessLink(model, sut, kcfg)
    try:
        if kind == "tcp":
            try:
                host, port = tcp_address(spec_str)
            except ValueError as exc:
                raise CliError("bad TCP port in %r" % spec_str, EXIT_PARSE) from exc
            return TcpLink(model, host, port, config.timeout_s)
        if kind == "stdio":
            return StdioLink(model, shlex.split(rest), config.timeout_s)
    except MediatorError as exc:
        raise CliError(str(exc), EXIT_PROTOCOL) from exc
    raise CliError("unknown subject %r (use inproc:, tcp:, stdio:)" % spec_str, EXIT_PARSE)


def run_campaign(config: RunConfig) -> CampaignResult:
    """Load the model once and run the scenario as one campaign per part:
    ``full`` and ``piece:NODE`` are one part, ``piecemeal`` is one per
    ``--parts`` node, run serially or in a pool of at most ``--jobs``
    processes, with the results merged."""
    if config.scenario != "piecemeal" and (config.parts or config.jobs > 1):
        raise CliError("--parts and --jobs apply only to --scenario piecemeal", EXIT_PARSE)
    extraction = load_model(config)
    ast = extraction.source
    projections = derive_projections(extraction)
    # a bad scenario is rejected before a subject is started
    if config.scenario == "full":
        parts = [None]
    else:
        if config.scenario == "piecemeal":
            ids = config.parts or (["t", "e"] if isinstance(ast.body, Decision) else [""])
        elif config.scenario.startswith("piece:"):
            ids = [config.scenario.split(":", 1)[1]]
        else:
            raise CliError("unknown scenario %r" % config.scenario, EXIT_PARSE)
        try:
            parts = make_piecemeal(ast, ids)
        except ReductionError as exc:
            raise CliError(str(exc), EXIT_PARSE) from exc
    run = functools.partial(run_part, config, extraction, projections)
    if config.scenario != "piecemeal":
        return run(parts[0])
    workers = min(config.jobs, len(parts))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, parts))
    else:
        results = list(map(run, parts))
    merged, report = results[0].log, results[0].report
    for result in results[1:]:
        merged.entries.extend(result.log.entries)
        report.merge(result.report)
    merged.scenario = "piecemeal"
    if any(r.log.outcome == "verdict_failure" for r in results):
        merged.outcome = "verdict_failure"
    failed = next((r for r in results if r.error is not None), results[0])
    return CampaignResult(merged, report, None, failed.error, failed.error_code)


def run_part(config: RunConfig, extraction, projections, part) -> CampaignResult:
    """One campaign against a fresh subject: the whole model when ``part``
    is ``None``, else one piecemeal part."""
    period = config.cycle_period_ms
    link = build_link(extraction.source, extraction, config, period)
    rng = None if config.seed is None else random.Random(config.seed)
    spec = Specification(extraction, link, strict_held=config.strict_held)
    scenario = build_coverage_scenario(spec, extraction, projections, period, part,
                                       strict=config.strict_held)

    log.info("running scenario %s against %s (period %d ms)", scenario.name, config.sut, period)
    error, code = None, EXIT_OK
    try:
        testlog, automaton = traverse(scenario, spec, budget=config.budget, rng=rng)
        log.info("explored %d state(s), %d transition(s), %d stimuli",
                 len(automaton.states), len(automaton.transitions), len(testlog.entries))
    except TraversalError as exc:
        testlog, automaton = exc.log, exc.automaton
        error, code = str(exc), EXIT_VERDICT
    finally:
        link.close()
    kernel = link.kernel if isinstance(link, InProcessLink) else None
    return CampaignResult(testlog, spec.coverage, automaton, error, code, kernel)


# ---------------------------------------------------------------------------
# Commands


def _open_output(stack: contextlib.ExitStack, path: Optional[str]):
    """``path`` opened for writing and closed with ``stack``, or None."""
    if path is None:
        return None
    try:
        return stack.enter_context(open(path, "w", encoding="utf-8"))
    except OSError as exc:
        raise CliError("cannot open %s: %s" % (path, exc.strerror or exc), EXIT_PARSE) from exc


def _write_output(fh, chunks) -> None:
    """Write ``chunks`` to ``fh`` and flush it; a failed write is exit 6.  A
    failed file is closed there and then, and a failed stdout points at the
    null device, so that no later flush fails again."""
    try:
        fh.writelines(chunks)
        fh.flush()
    except OSError as exc:
        name = "standard output" if fh is sys.stdout else fh.name
        with contextlib.suppress(OSError, ValueError):
            if fh is sys.stdout:
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, fh.fileno())
                os.close(devnull)
            else:
                fh.close()
        raise CliError("cannot write %s: %s" % (name, exc.strerror or exc), EXIT_OUTPUT) from exc


# A command returns its exit code and the lines of its standard output.


def cmd_run(args) -> tuple:
    config = _config_from_args(args)
    if args.dot and config.scenario == "piecemeal":
        raise CliError("--dot needs one automaton: --scenario full or piece:NODE", EXIT_PARSE)
    # the cycle records are the in-process kernel's, and piecemeal has one per part
    if args.trace_cycles and config.scenario == "piecemeal":
        raise CliError("--trace-cycles needs one kernel: --scenario full or piece:NODE",
                       EXIT_PARSE)
    if args.trace_cycles and config.sut.partition(":")[0] != "inproc":
        raise CliError("--trace-cycles needs an in-process subject: --sut inproc:NAME",
                       EXIT_PARSE)
    # the output files are opened before the subject starts, so that a bad
    # path costs no campaign
    with contextlib.ExitStack() as stack:
        log_fh, cycles_fh, dot_fh = (_open_output(stack, path)
                                     for path in (args.log, args.trace_cycles, args.dot))
        result = run_campaign(config)
        if log_fh:
            _write_output(log_fh, result.log.json_lines())
        if cycles_fh:
            _write_output(cycles_fh, (record.to_json(args.deterministic) + "\n"
                                      for record in result.kernel.records))
        if dot_fh:
            _write_output(dot_fh, [export_dot(result.automaton)])

    payload = {
        "scenario": result.log.scenario,
        "outcome": result.log.outcome,
        "verdicts": result.log.verdict_counts(),
        "coverage": result.report.summary(),
        "uncovered": {c: result.report.uncovered(c) for c in CRITERIA},
        "states": len(result.automaton.states) if result.automaton else None,
        "transitions": len(result.automaton.transitions) if result.automaton else None,
        "error": result.error,
    }
    if not args.deterministic:
        payload["timestamp"] = time.time()
    if args.json:
        lines = [json.dumps(payload, sort_keys=True, indent=2)]
    else:
        lines = ["scenario %s: %s" % (payload["scenario"], payload["outcome"])]
        lines += ["  %-22s %d" % (kind, count)
                  for kind, count in sorted(payload["verdicts"].items())]
        if result.error:
            lines.append("  error: %s" % result.error)
        lines.append(result.report.to_text())
    if result.error:
        print("traversal error: %s" % result.error, file=sys.stderr)
    return result.exit_code(config.required), lines


def _format_witness(witness) -> str:
    """A witness run's steps, each run of equal steps once with ``xN``."""
    steps = ("(%s)" % ",".join("%s=%d" % kv for kv in sorted(s.items())) for s in witness)
    runs = [(step, len(list(run))) for step, run in itertools.groupby(steps)]
    return " ".join(step if n == 1 else "%s x%d" % (step, n) for step, n in runs) or "<initial>"


def cmd_enumerate_states(args) -> tuple:
    config = _config_from_args(args)
    extraction = load_model(config)
    report = enumerate_reachable_flag_states(extraction, config.cycle_period_ms,
                                             config.strict_held)
    if args.json:
        payload = {
            "model": extraction.source.name,
            "predicates": list(report.predicate_ids),
            "upper_bound": report.upper_bound,
            "reachable": report.reachable_count,
            "states": [
                {"flags": list(vec), "witness": report.witnesses[vec]}
                for vec in report.vectors
            ],
        }
        lines = [json.dumps(payload, sort_keys=True, indent=2)]
    else:
        lines = [
            "model: %s" % extraction.source.name,
            "temporal predicates: %d (%s)" % (len(report.predicate_ids),
                                              ", ".join(report.predicate_ids)),
            "upper bound: %d" % report.upper_bound,
            "reachable flag states: %d" % report.reachable_count,
        ]
        lines += ["  %s  via %s" % (list(vec), _format_witness(report.witnesses[vec]))
                  for vec in report.vectors]
    return EXIT_OK, lines


def cmd_reduce(args) -> tuple:
    config = _config_from_args(args)
    extraction = load_model(config)
    ast = extraction.source
    cases = enumerate_test_cases(ast)
    # the rewritten model's cases are the source's cases, rewritten
    rewritten = enumerate_test_cases(extraction.model)
    projections = derive_projections(extraction)
    reach = enumerate_reachable_flag_states(extraction, config.cycle_period_ms,
                                            config.strict_held)

    # a state's membership vector holds one bit per case: whether it is coverable there
    cells: dict = {}
    for state_vars, vec in reach.states:
        env = dict(state_vars)
        env.update(zip(reach.predicate_ids, vec))
        coverable = coverable_cases(env, cases, extraction.model)
        member = tuple(int(pc.id in coverable) for pc in cases)
        cells.setdefault(member, []).append((vec, sorted(coverable)))

    if args.json:
        payload = {
            "model": ast.name,
            "test_cases": [{"id": pc.id, "condition": str(pc)} for pc in cases],
            "rewritten": [{"id": pc.id, "condition": str(pc)} for pc in rewritten],
            "projections": [{"id": p.id, "condition": str(p)} for p in projections],
            "partition": [
                {
                    "membership": list(member),
                    "states": [list(vec) for vec, _ in members],
                    "coverable_cases": members[0][1],
                }
                for member, members in sorted(cells.items())
            ],
        }
        lines = [json.dumps(payload, sort_keys=True, indent=2)]
    else:
        lines = ["model: %s" % ast.name, "step 1: test cases (branch coverage)"]
        lines += ["  %s: %s" % (pc.id, pc) for pc in cases]
        lines.append("step 2: conditions over temporal predicates")
        lines += ["  %s: %s" % (pc.id, pc) for pc in rewritten]
        lines.append("step 3: projections on the state space")
        lines += ["  %s: %s" % (p.id, p) for p in projections]
        lines.append("step 4: membership-vector partition of %d reachable flag state(s)"
                     % reach.reachable_count)
        lines += ["  vector %s: %d state(s), coverable cases %s"
                  % (list(member), len(members), members[0][1])
                  for member, members in sorted(cells.items())]
    return EXIT_OK, lines


# ---------------------------------------------------------------------------
# Argument plumbing


# argparse converters: argparse turns a ValueError into a one-line
# "invalid <converter> value" error and exit 2


def duration_cycles(text: str) -> tuple:
    duration, _, cycles = text.partition("=")
    if duration.endswith("ms"):
        duration_ms = int(duration[:-2])
    elif duration.endswith("s"):
        duration_ms = int(duration[:-1]) * 1000
    else:
        duration_ms = int(duration)
    return duration_ms, positive_int(cycles)


def criterion_ratio(text: str) -> tuple:
    criterion, _, ratio = text.partition("=")
    if criterion not in CRITERIA:
        raise argparse.ArgumentTypeError("unknown coverage criterion %r" % criterion)
    value = float(ratio)
    if not 0 <= value <= 1:  # NaN too
        raise argparse.ArgumentTypeError("coverage ratio %r is not between 0 and 1" % ratio)
    return criterion, value


def positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise ValueError(text)
    return value


def positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < float("inf"):
        raise ValueError(text)
    return value


def tcp_address(text: str) -> tuple:
    """``tcp:HOST:PORT`` as ``(host, port)``."""
    kind, _, address = text.partition(":")
    host, _, port = address.rpartition(":")
    if kind != "tcp" or not 0 <= int(port) <= 65535:
        raise ValueError(text)
    return host, int(port)


def _config_from_args(args) -> RunConfig:
    return RunConfig(
        model_path=args.model,
        sut=getattr(args, "sut", "inproc:iron"),
        scenario=getattr(args, "scenario", "full"),
        parts=tuple(getattr(args, "parts", ()) or ()),
        cycle_period_ms=args.period_ms,
        streaming=not getattr(args, "no_streaming", False),
        remap=dict(args.remap_duration or ()),
        budget=getattr(args, "budget", 10_000),
        seed=getattr(args, "seed", None),
        strict_held=args.strict_held,
        timeout_s=getattr(args, "timeout", 5.0),
        required=tuple(getattr(args, "require", None) or ()),
        jobs=getattr(args, "jobs", 1),
    )


def _add_model_options(sub) -> None:
    sub.add_argument("--model", required=True, help="path to the .ctl model")
    sub.add_argument("--period-ms", type=positive_int, default=1000, help="cycle period in ms")
    sub.add_argument("--remap-duration", type=duration_cycles, action="append",
                     metavar="DUR=CYCLES",
                     help="map one held() duration to a cycle count, e.g. 60s=3")
    sub.add_argument("--strict-held", action="store_true",
                     help="temporal predicates fire strictly after their duration")
    sub.add_argument("--json", action="store_true", help="machine-readable output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclotest",
        description="model-based testing of cyclic control logic",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    run = subs.add_parser("run", help="run a test campaign against a subject")
    _add_model_options(run)
    run.add_argument("--sut", default="inproc:iron",
                     help="inproc:iron[:MUTANT] | tcp:HOST:PORT | stdio:CMD")
    run.add_argument("--scenario", default="full",
                     help="full | piecemeal | piece:<node-id>")
    run.add_argument("--parts", nargs="*", help="piecemeal part node ids (default: t e)")
    run.add_argument("--budget", type=positive_int, default=10_000, help="max test actions")
    run.add_argument("--seed", type=int, help="shuffle action order (default: declaration order)")
    run.add_argument("--no-streaming", action="store_true",
                     help="pace cycles against the wall clock")
    run.add_argument("--timeout", type=positive_float, default=5.0,
                     help="timeout for each reply line, seconds")
    run.add_argument("--require", type=criterion_ratio, action="append",
                     metavar="CRITERION=RATIO",
                     help="fail with exit 5 below this coverage, e.g. branch=1.0")
    run.add_argument("--deterministic", action="store_true",
                     help="omit timestamps so reports are byte-identical")
    run.add_argument("--jobs", type=positive_int, default=1,
                     help="parallel piecemeal processes, at most one per part")
    run.add_argument("--log", help="write the test log as JSON lines")
    run.add_argument("--trace-cycles", help="write kernel cycle records as JSON lines")
    run.add_argument("--dot", help="write the explored automaton as DOT")
    run.set_defaults(func=cmd_run)

    enum = subs.add_parser("enumerate-states", help="count reachable temporal flag states")
    _add_model_options(enum)
    enum.set_defaults(func=cmd_enumerate_states)

    red = subs.add_parser("reduce", help="coverage-targeted reduction listing")
    _add_model_options(red)
    red.set_defaults(func=cmd_reduce)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("CYCLOTEST_LOG", "WARNING").upper())
    args = build_parser().parse_args(argv)
    try:
        code, lines = args.func(args)
        _write_output(sys.stdout, [line + "\n" for line in lines])
        return code
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
