"""Command-line entry point.

Subcommands: ``run`` (full campaign against a subject, optionally exporting
the explored automaton as DOT), ``enumerate-states`` (upper bound and
reachable temporal flag states), ``reduce`` (test cases, rewritten
conditions, projections, state partition).  Exit codes: 0 ok, 2 model/parse
problem, bad option, or an output that names the model or another output or
cannot be opened, 3 mediator or protocol failure, 4 failed verdicts or
traversal diagnostics, 5 unmet coverage requirement, 6 output not written.
An existing output of ``run`` keeps its bytes until its content is written,
and one that ``run`` created is removed again when it ends before writing.
``CYCLOTEST_LOG`` sets the log level.  The converters ``positive_int`` and
``tcp_address``, which ``iron-sut`` shares, live in :mod:`cyclotest.mediator`.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import itertools
import json
import logging
import os
import random
import shlex
import stat
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
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
from .mediator import (
    InProcessLink,
    MediatorError,
    StdioLink,
    TcpLink,
    positive_int,
    tcp_address,
)
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
    """A campaign's settings, and the only statement of each option's default."""

    model_path: str
    sut: str = "inproc:iron"
    scenario: str = "full"
    parts: tuple = ()
    cycle_period_ms: int = 1000
    streaming: bool = True
    remap: tuple = ()  # ((duration_ms, cycles), ...); a dict gives its items
    budget: int = 10_000
    seed: Optional[int] = None
    strict_held: bool = False
    timeout_s: float = 5.0
    required: tuple = ()  # ((criterion, ratio), ...)
    timed: bool = False  # the in-process kernel measures each cycle's time

    def __post_init__(self):  # the command line gives lists
        self.parts, self.required = tuple(self.parts), tuple(self.required)
        self.remap = tuple(self.remap.items() if isinstance(self.remap, dict) else self.remap)


@dataclass
class CampaignResult:
    log: object
    report: CoverageReport
    automaton: object
    error: Optional[str] = None  # a TraversalError's; piecemeal: the parts' errors, joined
    kernel: Optional[Kernel] = None  # an in-process subject's, for its cycle records
    failures: tuple = ()  # piecemeal: (node id, failing verdict) of each failing part
    errors: tuple = ()  # piecemeal: "part NODE: MESSAGE" of each part whose traversal failed

    def __getstate__(self):
        # the automaton holds scenario closures, which do not pickle: a pool
        # worker sends back the log, the report and the error
        return dict(self.__dict__, automaton=None, kernel=None)

    def exit_code(self, required) -> int:
        failure = self.log.failure
        if failure is not None and failure.kind is VerdictKind.MEDIATOR_FAILURE:
            return EXIT_PROTOCOL  # also over another piecemeal part's traversal error
        if self.error is not None or failure is not None:
            return EXIT_VERDICT
        for criterion, ratio in required:
            if self.report.ratio(criterion) < ratio:
                return EXIT_COVERAGE
        return EXIT_OK


def load_model(config: RunConfig):
    """The checked model with its temporal predicates extracted and the
    command's clock, ``--period-ms`` and ``--strict-held``, once the options
    pass :func:`check_options`; any option or model problem is a
    ``CliError`` with exit 2."""
    check_options(config)
    try:
        with open(config.model_path, encoding="utf-8") as fh:
            source = fh.read()
    except OSError as exc:
        raise CliError("cannot read model: %s" % exc, EXIT_PARSE) from exc
    except UnicodeDecodeError as exc:
        raise CliError("cannot read model: %s: %s" % (config.model_path, exc), EXIT_PARSE) from exc
    try:
        ast = parse_model(source)
    except ModelError as exc:
        raise CliError("%s: %s" % (config.model_path, exc), EXIT_PARSE) from exc
    durations = {e.duration_ms for dec in ast.decisions() for e in walk_exprs(dec.condition)
                 if isinstance(e, Held)}
    remap = dict(config.remap)
    unused = sorted(set(remap) - durations)
    if unused:
        raise CliError("--remap-duration: no held() in %s lasts %s" % (
            config.model_path, ", ".join("%d ms" % dur for dur in unused)), EXIT_PARSE)
    if remap:
        ast = rescale_durations(ast, {dur: cycles * config.cycle_period_ms
                                      for dur, cycles in remap.items()})
    diagnostics = check_model(ast)
    for diag in diagnostics:
        print(diag.format(config.model_path), file=sys.stderr)
    if any(d.severity == "error" for d in diagnostics):
        raise CliError("model has errors", EXIT_PARSE)
    try:
        extraction = extract_predicates(ast)
    except ModelError as exc:
        raise CliError("%s: %s" % (config.model_path, exc), EXIT_PARSE) from exc
    return replace(extraction, cycle_period_ms=config.cycle_period_ms,
                   strict_held=config.strict_held)


def build_link(model, extraction, config: RunConfig, period_ms: int):
    spec_str = config.sut
    kind, _, rest = spec_str.partition(":")
    kcfg = KernelConfig(cycle_period_ms=period_ms, streaming=config.streaming,
                        timed=config.timed)
    if kind == "inproc":
        name, _, mutant = rest.partition(":")
        if name != "iron":
            raise CliError("unknown in-process subject %r" % name, EXIT_PARSE)
        # the short timer is held() on position == 0, the long one on position == 1
        held = {(p.expected, p.duration_ms) for p in extraction.predicates if p.var == "position"}
        durations = dict(held)
        if len(held) != 2 or sorted(durations) != [0, 1]:
            raise CliError("in-process iron needs a model with one held() duration on "
                           "position == 0 and one on position == 1", EXIT_PARSE)
        try:
            sut = iron.IronSut((durations[0], durations[1]), period_ms, mutant or None)
        except iron.UnknownMutant as exc:
            raise CliError("unknown iron mutant %r" % mutant, EXIT_PARSE) from exc
        return InProcessLink(model, sut, kcfg)
    try:
        if kind == "tcp":
            try:
                host, port = tcp_address(spec_str)
            except ValueError as exc:
                raise CliError("bad TCP port in %r" % spec_str, EXIT_PARSE) from exc
            return TcpLink(model, host, port, period_ms, config.timeout_s)
        if kind == "stdio":
            try:
                argv = shlex.split(rest)
                if not argv:
                    raise ValueError("no command")
            except ValueError as exc:
                raise CliError("bad stdio command %r: %s" % (rest, exc), EXIT_PARSE) from exc
            return StdioLink(model, argv, period_ms, config.timeout_s)
    except MediatorError as exc:
        raise CliError(str(exc), EXIT_PROTOCOL) from exc
    raise CliError("unknown subject %r (use inproc:, tcp:, stdio:)" % spec_str, EXIT_PARSE)


def run_campaign(config: RunConfig) -> CampaignResult:
    """Load the model once and run the scenario as one campaign per part:
    ``full`` and ``piece:NODE`` are one part, ``piecemeal`` is one per
    ``--parts`` node, with the results merged.  Piecemeal parts against a
    ``stdio:`` subject, each of which starts its own subject, run in a pool
    of one process per part when more than one CPU is usable; any others
    run in turn."""
    extraction = load_model(config)
    model = extraction.model
    # bad parts are rejected before a subject is started
    if config.scenario == "full":
        parts = [None]
    else:
        if config.scenario == "piecemeal":
            ids = config.parts or (["t", "e"] if isinstance(model.body, Decision) else [""])
        else:
            ids = [config.scenario.split(":", 1)[1]]
        try:
            parts = make_piecemeal(model, ids)
        except ReductionError as exc:
            raise CliError(str(exc), EXIT_PARSE) from exc
    run = functools.partial(run_part, config, extraction)
    if config.scenario != "piecemeal":
        return run(parts[0])
    # measured over stdio: on one CPU the pool is slower than running in turn,
    # and with more parts than CPUs one process per part beats fewer
    if config.sut.startswith("stdio:") and _usable_cpus() > 1:
        with ProcessPoolExecutor(max_workers=len(parts)) as executor:
            results = list(executor.map(run, parts))
    else:
        results = list(map(run, parts))
    # each part's own failing verdict, taken before the first part's log
    # becomes the merged one
    failures = tuple((part.node_id, r.log.failure) for part, r in zip(parts, results)
                     if r.log.failure is not None)
    merged, report = results[0].log, results[0].report
    for result in results[1:]:
        merged.runs.extend(result.log.runs)
        report.merge(result.report)
    merged.scenario = "piecemeal"
    # of the parts' failing verdicts, the first that decides the exit code (a
    # mediator failure over a postcondition failure)
    merged.failure = min((failure for _, failure in failures),
                         key=lambda v: v.kind is not VerdictKind.MEDIATOR_FAILURE, default=None)
    errors = tuple("part %s: %s" % (part.node_id, r.error) for part, r in zip(parts, results)
                   if r.error is not None)
    return CampaignResult(merged, report, None, "; ".join(errors) or None, failures=failures,
                          errors=errors)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):  # not on every platform
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def check_options(config: RunConfig, log=None, trace_cycles=None, dot=None) -> None:
    """Refuse, with exit 2, options that conflict whatever the model, before it is read."""
    if dot and config.scenario == "piecemeal":
        raise CliError("--dot needs one automaton: --scenario full or piece:NODE", EXIT_PARSE)
    # the cycle records are the in-process kernel's, and piecemeal has one per part
    if trace_cycles and config.scenario == "piecemeal":
        raise CliError("--trace-cycles needs one kernel: --scenario full or piece:NODE",
                       EXIT_PARSE)
    if trace_cycles and config.sut.partition(":")[0] != "inproc":
        raise CliError("--trace-cycles needs an in-process subject: --sut inproc:NAME",
                       EXIT_PARSE)
    if config.scenario != "piecemeal" and config.parts:
        raise CliError("--parts applies only to --scenario piecemeal", EXIT_PARSE)
    if not config.streaming and config.sut.partition(":")[0] != "inproc":
        raise CliError("--no-streaming needs an in-process subject: --sut inproc:NAME",
                       EXIT_PARSE)
    if config.scenario not in ("full", "piecemeal") and not config.scenario.startswith("piece:"):
        raise CliError("unknown scenario %r" % config.scenario, EXIT_PARSE)
    remapped = [duration for duration, _ in config.remap]
    for duration in remapped:
        if remapped.count(duration) > 1:
            raise CliError("--remap-duration: %d ms remapped more than once" % duration,
                           EXIT_PARSE)
    paths = [(option, path) for option, path in (
        ("--model", config.model_path), ("--log", log), ("--trace-cycles", trace_cycles),
        ("--dot", dot)) if path is not None]
    for (first, a), (second, b) in itertools.combinations(paths, 2):
        if _same_file(a, b):
            raise CliError("%s and %s name the same file: %s" % (second, first, b), EXIT_PARSE)


def _same_file(a: str, b: str) -> bool:
    """Whether writing one path would overwrite the other: one regular file
    under two names, or one name for a file that does not exist yet.  A
    device such as /dev/null may be named twice."""
    if os.path.exists(a) and os.path.exists(b):
        return os.path.isfile(a) and os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


def run_part(config: RunConfig, extraction, part) -> CampaignResult:
    """One campaign against a fresh subject: the whole model when ``part``
    is ``None``, else one piecemeal part."""
    period = extraction.cycle_period_ms
    link = build_link(extraction.source, extraction, config, period)
    rng = None if config.seed is None else random.Random(config.seed)
    spec = Specification(extraction, link)
    scenario = build_coverage_scenario(spec, part)

    log.info("running scenario %s against %s (period %d ms)", scenario.name, config.sut, period)
    error = None
    # a campaign makes no reference cycle, so the collector would find
    # nothing: it is paused for the traversal and resumed if it was on
    collecting = gc.isenabled()
    gc.disable()
    try:
        testlog, automaton = traverse(scenario, spec, budget=config.budget, rng=rng)
        log.info("explored %d state(s), %d transition(s), %d stimuli",
                 len(automaton.states), len(automaton.transitions), testlog.stimulus_count())
    except TraversalError as exc:
        testlog, automaton = exc.log, exc.automaton
        error = str(exc)
    finally:
        if collecting:
            gc.enable()
        link.close()
    kernel = link.kernel if isinstance(link, InProcessLink) else None
    return CampaignResult(testlog, spec.coverage, automaton, error, kernel)


# ---------------------------------------------------------------------------
# Commands


def _open_output(stack: contextlib.ExitStack, path: Optional[str]):
    """``path`` opened for writing but not truncated, and closed with
    ``stack``; or None.  ``_write_output`` empties it when it writes."""
    if path is None:
        return None
    try:
        return stack.enter_context(open(path, "w", encoding="utf-8", opener=_no_truncate))
    except OSError as exc:
        raise CliError("cannot open %s: %s" % (path, exc.strerror or exc), EXIT_PARSE) from exc


def _no_truncate(path: str, flags: int) -> int:
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _write_output(fh, chunks) -> None:
    """Write ``chunks`` to ``fh`` and flush it; a failed write is exit 6.  An
    output file that is a regular file is emptied first.  A failed file is
    closed there and then, and a failed stdout points at the null device, so
    that no later flush fails again."""
    try:
        if fh is not sys.stdout and stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate(0)
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
    # cycle records carry execution times unless --deterministic leaves them out
    config = replace(_config_from_args(args),
                     timed=args.trace_cycles is not None and not args.deterministic)
    check_options(config, args.log, args.trace_cycles, args.dot)
    # the output files are opened before the model is read or the subject
    # started, so that a bad path costs no campaign, and each keeps its bytes
    # until its content is written; one created here is removed on an early exit
    paths = (args.log, args.trace_cycles, args.dot)
    created = [path for path in paths if path is not None and not os.path.lexists(path)]
    with contextlib.ExitStack() as stack:
        try:
            log_fh, cycles_fh, dot_fh = (_open_output(stack, path) for path in paths)
            result = run_campaign(config)
        except BaseException:
            stack.close()
            for path in created:
                with contextlib.suppress(OSError):
                    os.remove(path)
            raise
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
    for node, failure in result.failures or [(None, result.log.failure)]:
        if failure is not None and failure.kind is VerdictKind.MEDIATOR_FAILURE:
            part = "" if node is None else "part %s: " % node
            print("error: %s%s" % (part, failure.detail), file=sys.stderr)
    for error in result.errors or filter(None, [result.error]):
        print("traversal error: %s" % error, file=sys.stderr)
    return result.exit_code(config.required), lines


def _format_witness(witness) -> str:
    """A witness run's steps, each run of equal steps once with ``xN``."""
    steps = ("(%s)" % ",".join("%s=%d" % kv for kv in sorted(s.items())) for s in witness)
    runs = [(step, len(list(run))) for step, run in itertools.groupby(steps)]
    return " ".join(step if n == 1 else "%s x%d" % (step, n) for step, n in runs) or "<initial>"


def cmd_enumerate_states(args) -> tuple:
    extraction = load_model(_config_from_args(args))
    report = enumerate_reachable_flag_states(extraction)
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
    extraction = load_model(_config_from_args(args))
    ast = extraction.source
    cases = enumerate_test_cases(ast)
    # the rewritten model's cases are the source's cases, rewritten
    rewritten = enumerate_test_cases(extraction.model)
    projections = derive_projections(extraction)
    reach = enumerate_reachable_flag_states(extraction)

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


def positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < float("inf"):
        raise ValueError(text)
    return value


def _config_from_args(args) -> RunConfig:
    # each option's dest is its RunConfig field, and one not given is absent
    names = {f.name for f in fields(RunConfig)}
    return RunConfig(**{name: value for name, value in vars(args).items() if name in names})


def _add_subcommand(subs, name: str, help_text: str, func):
    """A subcommand with the model options; an option not given is not parsed."""
    sub = subs.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
    sub.set_defaults(func=func)
    sub.add_argument("--model", dest="model_path", metavar="MODEL", required=True,
                     help="path to the .ctl model")
    sub.add_argument("--period-ms", dest="cycle_period_ms", metavar="PERIOD_MS",
                     type=positive_int, help="cycle period in ms")
    sub.add_argument("--remap-duration", dest="remap", type=duration_cycles, action="append",
                     metavar="DUR=CYCLES",
                     help="map one held() duration to a cycle count, e.g. 60s=3")
    sub.add_argument("--strict-held", action="store_true",
                     help="temporal predicates fire strictly after their duration")
    sub.add_argument("--json", action="store_true", default=False, help="machine-readable output")
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclotest",
        description="model-based testing of cyclic control logic",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    run = _add_subcommand(subs, "run", "run a test campaign against a subject", cmd_run)
    run.add_argument("--sut", help="inproc:iron[:MUTANT] | tcp:HOST:PORT | stdio:CMD")
    run.add_argument("--scenario", help="full | piecemeal | piece:<node-id>")
    run.add_argument("--parts", nargs="*", help="piecemeal part node ids (default: t e)")
    run.add_argument("--budget", type=positive_int, help="max test actions")
    run.add_argument("--seed", type=int, help="shuffle action order (default: declaration order)")
    run.add_argument("--no-streaming", dest="streaming", action="store_false",
                     help="pace cycles against the wall clock")
    run.add_argument("--timeout", dest="timeout_s", metavar="TIMEOUT", type=positive_float,
                     help="timeout for each reply line, seconds")
    run.add_argument("--require", dest="required", type=criterion_ratio, action="append",
                     metavar="CRITERION=RATIO",
                     help="fail with exit 5 below this coverage, e.g. branch=1.0")
    run.add_argument("--deterministic", action="store_true", default=False,
                     help="omit timestamps so reports are byte-identical")
    run.add_argument("--log", default=None, help="write the test log as JSON lines")
    run.add_argument("--trace-cycles", default=None,
                     help="write kernel cycle records as JSON lines")
    run.add_argument("--dot", default=None, help="write the explored automaton as DOT")

    _add_subcommand(subs, "enumerate-states", "count reachable temporal flag states",
                    cmd_enumerate_states)
    _add_subcommand(subs, "reduce", "coverage-targeted reduction listing", cmd_reduce)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("CYCLOTEST_LOG", "WARNING")
    if not isinstance(logging.getLevelName(level.upper()), int):
        print("error: CYCLOTEST_LOG=%s is not a log level" % level, file=sys.stderr)
        return EXIT_PARSE
    logging.basicConfig(level=level.upper())
    args = build_parser().parse_args(argv)
    try:
        code, lines = args.func(args)
        _write_output(sys.stdout, [line + "\n" for line in lines])
        return code
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.code
    except RecursionError:  # a model nested deeper than the interpreter's stack
        print("error: %s: nests too deeply" % args.model_path, file=sys.stderr)
        return EXIT_PARSE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
