"""Command-line interface of the package.

``python -m repro <command> [options]`` exposes the paper's figure harness,
the generic runner and the declarative plan workflow:

* figure commands regenerate one of the paper's figures (or the §V-F
  drop-share analysis) and print the corresponding table::

      python -m repro fig7a --scale 0.02 --trials 3
      python -m repro fig8 --levels 20k 30k --no-optimal

* ``run`` executes an arbitrary configuration; the flags compile to a
  declarative :class:`repro.api.plan.ExperimentPlan` internally, and
  passing several values for ``--mapper`` / ``--dropper`` / ``--level``
  evaluates the cartesian sweep::

      python -m repro run --mapper PAM --dropper heuristic --param beta=1.5
      python -m repro run --mapper PAM MM --dropper heuristic react --trials 3

* ``plan`` works with serialized plans: ``plan run`` executes a
  ``.toml``/``.json`` plan file (``--spool`` makes the sweep resumable),
  ``plan resume`` finishes an interrupted spooled sweep, ``plan describe``
  validates and summarises a plan, and ``plan export`` compiles run-style
  flags -- or one of the paper's figures -- into a plan file::

      python -m repro plan export --figure fig8 --output fig8.toml
      python -m repro plan run fig8.toml --spool fig8.jsonl
      python -m repro plan resume fig8.jsonl

* ``serve`` runs the streaming service mode: an always-on system fed by a
  live traffic process, with per-window dashboard lines, periodic
  snapshots and bit-identical resume::

      python -m repro serve --traffic burst --rate 1.55 --horizon 20000
      python -m repro serve --horizon 20000 --snapshot-every 5000 \
          --snapshot service.json
      python -m repro serve --restore service.json --horizon 40000

* ``run`` and ``serve`` also take ``--faults NAME`` (plus repeatable
  ``--fault-param KEY=VALUE``) to inject a seeded fault process -- machine
  crash/restart churn, slowdown windows or network partitions -- and
  ``churn`` runs the ranking-under-churn study (the paper's mapper×dropper
  pairs, clean vs crash/restart faults)::

      python -m repro run --faults crash-restart --fault-param mtbf=1500
      python -m repro serve --faults slowdown --fault-param factor=3
      python -m repro churn --scale 0.02 --trials 3

* ``run`` and ``serve`` likewise take ``--topology NAME`` (plus repeatable
  ``--topology-param KEY=VALUE``) to put the machines on a bandwidth /
  latency graph so dispatch pays for data movement, and ``locality`` runs
  the ranking-under-locality study (mapper×dropper pairs, uniform vs
  tiered edge/cloud topology)::

      python -m repro run --topology tiered-edge-cloud \
          --topology-param task_bytes=192
      python -m repro locality --scale 0.02 --trials 3

* ``list-mappers`` / ``list-droppers`` / ``list-scenarios`` /
  ``list-arrivals`` / ``list-traffic`` / ``list-uncertainty`` /
  ``list-faults`` / ``list-topologies`` print the corresponding registry,
  including anything registered by user code imported via
  ``--plugin module``.

* ``check`` runs the repository's static determinism & invariant linter
  (:mod:`repro.analysis`) over the installed package (or explicit paths)
  and exits 1 on findings; ``list-rules`` prints the rule registry::

      python -m repro check
      python -m repro check --json --select determinism
      python -m repro list-rules --ignore untyped-public-api

* ``bench`` measures the plane width below which the per-pair loop path
  beats the vector score-plane kernels on this host (the measured
  ``SystemConfig.small_plane_tasks`` override); end-to-end timing lives
  in the repository benchmark, ``python3 -m benchmarks.e2e``::

      python -m repro bench --scale 0.02 --trials 2 --output crossover.json
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import TYPE_CHECKING, Dict, Iterator, Optional, Sequence, Tuple

from .config import ExperimentConfig
from .figures import (FigureResult, figure5_effective_depth, figure6_beta,
                      figure7a_heterogeneous, figure7b_homogeneous,
                      figure8_dropping_policies, figure9_cost,
                      figure10_transcoding, figure_churn_ranking,
                      figure_locality_ranking, reactive_share_analysis)
from .reporting import format_figure_table

if TYPE_CHECKING:
    from ..api.axes import Axis

__all__ = ["main", "build_parser"]

FIGURE_COMMANDS = ("fig5", "fig6", "fig7a", "fig7b", "fig8", "fig9", "fig10",
                   "drops", "churn", "locality")
#: ``list-*`` subcommands, one per public registry in :mod:`repro.api`:
#: command name -> (registry attribute, plural noun for the help line).
#: Parser wiring and dispatch both derive from this mapping, so exposing a
#: new registry is one entry here -- not another hand-written subcommand.
LIST_COMMANDS = {
    "list-mappers": ("MAPPERS", "mapping heuristics"),
    "list-droppers": ("DROPPERS", "dropping policies"),
    "list-scenarios": ("SCENARIOS", "scenario presets"),
    "list-arrivals": ("ARRIVALS", "arrival processes"),
    "list-traffic": ("TRAFFIC", "traffic processes"),
    "list-uncertainty": ("UNCERTAINTY", "uncertainty models"),
    "list-faults": ("FAULTS", "fault processes"),
    "list-topologies": ("TOPOLOGIES", "platform topologies"),
}


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    """Options shared by every figure command and ``run``."""
    parser.add_argument("--scale", type=float, default=0.02,
                        help="fraction of the paper's task counts (default 0.02)")
    parser.add_argument("--trials", type=int, default=3,
                        help="workload trials per configuration (default 3)")
    parser.add_argument("--seed", type=int, default=42,
                        help="base random seed (default 42)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for trials (default 1)")
    parser.add_argument("--plugin", action="append", default=[],
                        metavar="MODULE",
                        help="import MODULE first so it can register custom "
                             "mappers/droppers/scenarios (repeatable)")


def _add_run_style_options(parser: argparse.ArgumentParser) -> None:
    """Configuration flags shared by ``run`` and ``plan export``."""
    parser.add_argument("--scenario", nargs="+", default=["spec"],
                        help="scenario preset name(s) (default: spec)")
    parser.add_argument("--level", nargs="+", default=["30k"],
                        choices=["20k", "30k", "40k"],
                        help="oversubscription level(s) (default: 30k)")
    parser.add_argument("--mapper", nargs="+", default=["PAM"],
                        help="mapping heuristic registry name(s) (default: PAM)")
    parser.add_argument("--dropper", nargs="+", default=["heuristic"],
                        help="dropping policy registry name(s) (default: heuristic)")
    parser.add_argument("--param", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="dropping-policy parameter, e.g. --param beta=1.5 "
                             "(repeatable; single-dropper runs only)")
    parser.add_argument("--arrival", default=None,
                        help="arrival process registry name (default: poisson)")
    parser.add_argument("--gamma", type=float, default=1.0,
                        help="deadline slack coefficient (default 1.0)")
    parser.add_argument("--cost", action="store_true",
                        help="track the cost metrics of every trial")
    _add_axis_options(parser)


def _add_axis_options(parser: argparse.ArgumentParser) -> None:
    """One flag per optional axis of :data:`repro.api.axes.AXES`, plus a
    repeatable ``--X-param KEY=VALUE`` for each registry-backed axis."""
    from ..api.axes import AXES
    from ..core.completion import NUMERICS_PROFILES

    for axis in AXES:
        if axis.registry is None:
            parser.add_argument(
                f"--{axis.plan_key}", default=axis.identity,
                choices=NUMERICS_PROFILES,
                help="fold-numerics profile: 'exact' is bit-identical to "
                     "the naive reference; 'fast' uses closed-form chance "
                     "and completion scores (tolerance-bounded; "
                     "default: exact)")
            continue
        kind = axis.resolve().kind
        listing = next(command for command, (attr, _)
                       in LIST_COMMANDS.items() if attr == axis.registry)
        parser.add_argument(f"--{axis.plan_key}", default=None,
                            help=f"{kind} registry name (default: "
                                 f"{axis.identity}; see {listing})")
        parser.add_argument(axis.param_flag, dest=axis.params_key,
                            action="append", default=[], metavar="KEY=VALUE",
                            help=f"{kind} parameter; a value that is not a "
                                 f"number stays a string (repeatable)")


def _axis_args(args: argparse.Namespace
               ) -> Iterator[Tuple["Axis", str, Dict[str, object]]]:
    """``(axis, name, params)`` of every registry axis from its flags (the
    identity value when the axis flag is absent)."""
    from ..api.axes import REGISTRY_AXES

    for axis in REGISTRY_AXES:
        name = getattr(args, axis.plan_key)
        params = _parse_params(getattr(args, str(axis.params_key)),
                               axis.param_flag, allow_str=True)
        if params and not name:
            raise ValueError(f"{axis.param_flag} requires --{axis.plan_key}")
        yield axis, name or axis.identity, params


def build_parser() -> argparse.ArgumentParser:
    """Argument parser of the experiment CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the evaluation figures of the autonomous "
                    "task-dropping paper (Mokhtari et al., 2020) or run "
                    "arbitrary configurations through the fluent API.")
    commands = parser.add_subparsers(dest="figure", required=True,
                                     metavar="command")

    figure_help = {"drops": "regenerate the §V-F drop-share analysis",
                   "churn": "run the ranking-under-churn study "
                            "(clean vs crash/restart faults)",
                   "locality": "run the ranking-under-locality study "
                               "(uniform vs tiered edge/cloud topology)"}
    for figure in FIGURE_COMMANDS:
        sub = commands.add_parser(
            figure, help=figure_help.get(figure, f"regenerate {figure}"))
        _add_common_options(sub)
        sub.add_argument("--levels", nargs="+", default=None,
                         choices=["20k", "30k", "40k"],
                         help="oversubscription levels to sweep (figures 5/6/8/9)")
        sub.add_argument("--level", default=None, choices=["20k", "30k", "40k"],
                         help="single oversubscription level (figures 7a/7b/10/drops)")
        sub.add_argument("--no-optimal", action="store_true",
                         help="skip the exhaustive-search policy in fig8")

    run = commands.add_parser(
        "run", help="run one configuration (or a sweep); the flags compile "
                    "to a declarative plan internally")
    _add_common_options(run)
    _add_run_style_options(run)
    run.add_argument("--json", action="store_true",
                     help="print the result as JSON instead of text")
    run.add_argument("--metric", default="robustness_pct",
                     help="metric shown in sweep tables (default robustness_pct)")

    plan = commands.add_parser(
        "plan", help="work with declarative experiment plans "
                     "(run/resume/describe/export)")
    plan_commands = plan.add_subparsers(dest="plan_command", required=True,
                                        metavar="action")

    plan_run = plan_commands.add_parser(
        "run", help="execute a .toml/.json plan file")
    plan_run.add_argument("plan_file", help="path to the plan (.toml or .json)")
    plan_run.add_argument("--jobs", type=int, default=None,
                          help="override the plan's worker-process count")
    plan_run.add_argument("--spool", default=None, metavar="PATH",
                          help="record completed cells to a JSONL spool so "
                               "the sweep can be resumed after interruption")
    plan_run.add_argument("--max-cells", type=int, default=None, metavar="N",
                          help="stop after N fresh cells (deterministic "
                               "interruption; pair with --spool and resume)")
    plan_run.add_argument("--json", action="store_true",
                          help="print the result as JSON instead of text")
    plan_run.add_argument("--metric", default=None,
                          help="metric shown in the summary table "
                               "(default: the plan's first metric)")
    plan_run.add_argument("--plugin", action="append", default=[],
                          metavar="MODULE",
                          help="import MODULE first so it can register "
                               "custom mappers/droppers/scenarios")

    plan_resume = plan_commands.add_parser(
        "resume", help="finish an interrupted spooled sweep")
    plan_resume.add_argument("spool", help="JSONL spool written by plan run "
                                           "--spool (pins the plan)")
    plan_resume.add_argument("--jobs", type=int, default=None,
                             help="override the plan's worker-process count")
    plan_resume.add_argument("--json", action="store_true",
                             help="print the result as JSON instead of text")
    plan_resume.add_argument("--metric", default=None,
                             help="metric shown in the summary table "
                                  "(default: the plan's first metric)")
    plan_resume.add_argument("--plugin", action="append", default=[],
                             metavar="MODULE",
                             help="import MODULE first so it can register "
                                  "custom mappers/droppers/scenarios")

    plan_describe = plan_commands.add_parser(
        "describe", help="validate a plan file and summarise its grid")
    plan_describe.add_argument("plan_file",
                               help="path to the plan (.toml or .json)")
    plan_describe.add_argument("--plugin", action="append", default=[],
                               metavar="MODULE",
                               help="import MODULE first so it can register "
                                    "custom mappers/droppers/scenarios")

    plan_export = plan_commands.add_parser(
        "export", help="compile run-style flags (or a figure) to a plan file")
    _add_common_options(plan_export)
    _add_run_style_options(plan_export)
    plan_export.add_argument("--figure", dest="export_figure", default=None,
                             choices=FIGURE_COMMANDS,
                             help="export the compiled plan of a paper "
                                  "figure instead of run-style flags")
    plan_export.add_argument("--levels", nargs="+", default=None,
                             choices=["20k", "30k", "40k"],
                             help="oversubscription levels of the exported "
                                  "figure (figures 5/6/8/9)")
    plan_export.add_argument("--no-optimal", action="store_true",
                             help="skip the exhaustive-search policy in fig8")
    plan_export.add_argument("--output", default=None, metavar="PATH",
                             help="write the plan to PATH (.toml or .json); "
                                  "prints TOML to stdout when omitted")

    bench = commands.add_parser(
        "bench", help="measure the vector-vs-loop small-plane crossover "
                      "(the SystemConfig.small_plane_tasks override) on this "
                      "host; end-to-end timing lives in benchmarks/e2e")
    bench.add_argument("--scale", type=float, default=0.02,
                       help="fraction of the paper's task counts "
                            "(default 0.02)")
    bench.add_argument("--trials", type=int, default=2,
                       help="trials per plane width (default 2)")
    bench.add_argument("--repeats", type=int, default=1,
                       help="timed repetitions per (width, seed, side); the "
                            "minimum is recorded (default 1)")
    bench.add_argument("--seed", type=int, default=42,
                       help="base random seed (default 42)")
    bench.add_argument("--output", default=None, metavar="PATH",
                       help="write the JSON payload to PATH")
    bench.add_argument("--json", action="store_true",
                       help="print the payload as JSON instead of a table")

    serve = commands.add_parser(
        "serve", help="run the streaming service mode: live traffic into an "
                      "always-on system with windowed metrics and "
                      "snapshot/resume")
    serve.add_argument("--plan", default=None, metavar="FILE",
                       help="load a StreamPlan (.toml/.json) instead of "
                            "building one from the flags below")
    serve.add_argument("--restore", default=None, metavar="PATH",
                       help="resume from a snapshot file written by "
                            "--snapshot (bit-identical continuation)")
    serve.add_argument("--scenario", default="spec",
                       help="scenario preset supplying platform and PET "
                            "(default: spec)")
    serve.add_argument("--traffic", default="steady",
                       help="traffic process registry name "
                            "(default: steady; see list-traffic)")
    serve.add_argument("--rate", type=float, default=1.55,
                       help="mean arrival rate as a multiple of platform "
                            "capacity (default 1.55, the paper's mid level)")
    serve.add_argument("--traffic-param", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="traffic-process parameter, e.g. "
                            "--traffic-param burst_multiplier=6 (repeatable)")
    serve.add_argument("--horizon", type=int, default=50_000,
                       help="simulation time to advance the service to "
                            "(default 50000)")
    serve.add_argument("--mapper", default="PAM",
                       help="mapping heuristic registry name (default: PAM)")
    serve.add_argument("--dropper", default="heuristic",
                       help="dropping policy registry name "
                            "(default: heuristic)")
    serve.add_argument("--param", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="dropping-policy parameter, e.g. --param beta=1.5 "
                            "(repeatable)")
    serve.add_argument("--gamma", type=float, default=1.0,
                       help="deadline slack coefficient (default 1.0)")
    serve.add_argument("--seed", type=int, default=0,
                       help="base random seed (default 0)")
    _add_axis_options(serve)
    serve.add_argument("--warmup", type=int, default=0, metavar="T",
                       help="trim metrics windows that start before time T "
                            "from the reported timeline, so steady-state "
                            "rates are not polluted by the empty-system "
                            "transient (0 disables)")
    serve.add_argument("--window", type=int, default=500,
                       help="tumbling metrics window length (default 500)")
    serve.add_argument("--decay", type=float, default=0.2,
                       help="EWMA smoothing factor of the live metrics "
                            "(default 0.2)")
    serve.add_argument("--snapshot-every", type=int, default=0,
                       metavar="DT",
                       help="write a snapshot every DT time units "
                            "(0 disables; requires --snapshot)")
    serve.add_argument("--snapshot", default=None, metavar="PATH",
                       help="snapshot file to write (at --snapshot-every "
                            "checkpoints, and always at the final horizon)")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress the per-window dashboard lines")
    serve.add_argument("--chart", action="store_true",
                       help="render the timeline as an ASCII chart at the "
                            "end of the run")
    serve.add_argument("--json", action="store_true",
                       help="print final metrics and timeline as JSON")
    serve.add_argument("--plugin", action="append", default=[],
                       metavar="MODULE",
                       help="import MODULE first so it can register custom "
                            "traffic/mappers/droppers")

    check = commands.add_parser(
        "check", help="run the static determinism & invariant linter over "
                      "the package source (exit 1 on findings)")
    check.add_argument("paths", nargs="*", metavar="PATH",
                       help="files or directories to scan (default: the "
                            "installed repro package)")
    check.add_argument("--select", nargs="+", default=None, metavar="RULE",
                       help="run only these rules (names, codes like "
                            "DET101, or families like determinism)")
    check.add_argument("--ignore", nargs="+", default=[], metavar="RULE",
                       help="skip these rules (names, codes or families)")
    check.add_argument("--json", action="store_true",
                       help="print the report as JSON (for CI artifacts)")
    check.add_argument("--plugin", action="append", default=[],
                       metavar="MODULE",
                       help="import MODULE first so it can register custom "
                            "analysis rules")

    list_rules = commands.add_parser(
        "list-rules", help="list the registered static-analysis rules")
    list_rules.add_argument("--select", nargs="+", default=None,
                            metavar="RULE",
                            help="show only these rules (names, codes or "
                                 "families)")
    list_rules.add_argument("--ignore", nargs="+", default=[],
                            metavar="RULE",
                            help="hide these rules (names, codes or "
                                 "families)")
    list_rules.add_argument("--plugin", action="append", default=[],
                            metavar="MODULE",
                            help="import MODULE first so its rule "
                                 "registrations show up")

    for command, (_, plural) in LIST_COMMANDS.items():
        sub = commands.add_parser(command,
                                  help=f"list registered {plural}")
        sub.add_argument("--plugin", action="append", default=[],
                        metavar="MODULE",
                        help="import MODULE first so its registrations show up")

    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """Figure-command knobs, routed through the plan spec.

    The flags populate an :class:`~repro.api.plan.ExperimentPlan` (the
    package's single configuration description) and the harness config is
    its thin view -- so the figure commands and the plan workflow can never
    drift apart on defaults.
    """
    from ..api.plan import ExperimentPlan

    plan = ExperimentPlan(scales=[args.scale], trials=args.trials,
                          base_seed=args.seed, n_jobs=args.jobs)
    return ExperimentConfig.from_plan(plan)


def _load_plugins(args: argparse.Namespace) -> None:
    """Import user modules so their registry registrations take effect."""
    for module in getattr(args, "plugin", []):
        importlib.import_module(module)


def _run_figure(args: argparse.Namespace, config: ExperimentConfig) -> FigureResult:
    levels = tuple(args.levels) if args.levels else ("20k", "30k", "40k")
    if args.figure == "fig5":
        return figure5_effective_depth(config, levels=levels)
    if args.figure == "fig6":
        return figure6_beta(config, levels=levels)
    if args.figure == "fig7a":
        return figure7a_heterogeneous(config, level=args.level or "30k")
    if args.figure == "fig7b":
        return figure7b_homogeneous(config, level=args.level or "30k")
    if args.figure == "fig8":
        return figure8_dropping_policies(config, levels=levels,
                                         include_optimal=not args.no_optimal)
    if args.figure == "fig9":
        return figure9_cost(config, levels=levels)
    if args.figure == "fig10":
        return figure10_transcoding(config, level=args.level or "20k")
    if args.figure == "drops":
        return reactive_share_analysis(config, level=args.level or "30k")
    if args.figure == "churn":
        return figure_churn_ranking(config, level=args.level or "30k")
    if args.figure == "locality":
        return figure_locality_ranking(config, level=args.level or "30k")
    raise ValueError(f"unknown figure {args.figure!r}")  # pragma: no cover


def _parse_params(pairs: Sequence[str], flag: str,
                  allow_str: bool = False) -> Dict[str, object]:
    """Parse repeated ``FLAG key=value`` options (values become numbers).

    ``flag`` names the option in error messages.  With ``allow_str`` a
    non-numeric value stays a string -- the axis models take categorical
    parameters like ``policy=drop`` or ``models=network_latency``.
    """
    params: Dict[str, object] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"{flag} expects KEY=VALUE, got {pair!r}")
        try:
            value: object = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                if not allow_str:
                    raise ValueError(f"{flag} {key}: {raw!r} is not a number")
                value = raw
        params[key] = value
    return params


def _plan_from_run_args(args: argparse.Namespace) -> "ExperimentPlan":
    """Compile run-style flags into the declarative plan they describe.

    Shared by ``repro run`` (which then executes the plan) and ``repro plan
    export`` (which serialises it): the flags are a front-end for plans, not
    a parallel configuration pipeline.
    """
    from ..api import Simulation

    params = _parse_params(args.param, "--param")
    sim = (Simulation.scenario(args.scenario[0])
           .scale(args.scale).gamma(args.gamma)
           .trials(args.trials, base_seed=args.seed)
           .parallel(args.jobs).with_cost(args.cost))
    if args.arrival:
        sim = sim.arrivals(args.arrival)

    axes = {}
    if len(args.scenario) > 1:
        axes["scenario"] = args.scenario
    if len(args.level) > 1:
        axes["level"] = args.level
    if len(args.mapper) > 1:
        axes["mapper"] = args.mapper
    if len(args.dropper) > 1:
        axes["dropper"] = args.dropper

    if params and "dropper" in axes:
        raise ValueError("--param only applies when --dropper is pinned "
                         "to one value (sweeping droppers resets their "
                         "parameters)")
    if args.plugin and args.jobs > 1:
        print("repro run: warning: worker processes may not see --plugin "
              "registrations on platforms that spawn rather than fork",
              file=sys.stderr)

    sim = (sim.level(args.level[0]).mapper(args.mapper[0])
           .dropper(args.dropper[0], **params).numerics(args.numerics))
    for axis, name, axis_params in _axis_args(args):
        sim = getattr(sim, axis.plan_key)(name, **axis_params)
    return sim.build_plan(**axes)


def _command_run(args: argparse.Namespace) -> int:
    """The generic ``run`` subcommand: single run or cartesian sweep.

    The flags compile to an :class:`~repro.api.plan.ExperimentPlan` and
    execute through the plan funnel, so ``repro run`` and ``repro plan run``
    on the equivalent exported file produce identical results.
    """
    plan = _plan_from_run_args(args)
    result = plan.execute()
    if plan.swept_axes():
        print(result.to_json() if args.json else result.summary(args.metric))
    else:
        run = result.runs[0]
        if args.json:
            print(run.to_json())
        else:
            print(run.summary())
            if args.metric != "robustness_pct":
                print(f"  {args.metric:<28}: {run.metric(args.metric)}")
    return 0


def _command_plan(args: argparse.Namespace) -> int:
    """The ``plan`` subcommand family: run / resume / describe / export."""
    from ..api.plan import ExperimentPlan

    if args.plan_command == "describe":
        print(ExperimentPlan.from_file(args.plan_file).describe())
        return 0

    if args.plan_command == "export":
        if args.export_figure:
            from .figures import figure_plan

            plan = figure_plan(args.export_figure, _config_from_args(args),
                               levels=args.levels, level=args.level[0],
                               include_optimal=not args.no_optimal)
        else:
            plan = _plan_from_run_args(args)
        if args.output:
            plan.to_file(args.output)
            print(f"wrote {args.output}", file=sys.stderr)
        else:
            print(plan.to_toml(), end="")
        return 0

    # run / resume share the progress + summary plumbing.
    if args.plan_command == "resume":
        plan = ExperimentPlan.from_spool(args.spool)
        spool: Optional[str] = args.spool
        max_cells = None
    else:
        plan = ExperimentPlan.from_file(args.plan_file)
        spool = args.spool
        max_cells = args.max_cells
    metric = args.metric or plan.metrics[0]
    total = plan.num_cells()
    progress = {"done": 0}

    def on_cell(run) -> None:
        progress["done"] += 1
        print(f"[{progress['done']}/{total}] {run.label}: "
              f"{metric}={run.metric(metric):.4f}", file=sys.stderr)

    try:
        if spool is not None:
            result = plan.run_spooled(spool, sink=on_cell, n_jobs=args.jobs,
                                      max_cells=max_cells)
        else:
            result = plan.execute(sink=on_cell, n_jobs=args.jobs,
                                  max_cells=max_cells)
    except KeyboardInterrupt:
        if spool is not None:
            print(f"\ninterrupted; completed cells are spooled -- finish "
                  f"with: repro plan resume {spool}", file=sys.stderr)
        else:
            print("\ninterrupted (no --spool, nothing persisted)",
                  file=sys.stderr)
        return 130

    if len(result) < total:
        print(f"stopped after {len(result)} of {total} cells"
              + (f"; finish with: repro plan resume {spool}" if spool else ""),
              file=sys.stderr)
    if args.json:
        print(result.to_json())
    elif total == 1:
        print(result.runs[0].summary())
    else:
        print(result.summary(metric))
    return 0


def _command_bench(args: argparse.Namespace) -> int:
    """The ``bench`` subcommand: the small-plane crossover measurement."""
    import json as _json

    from .bench import (format_crossover_table, run_crossover_benchmark,
                        write_bench_json)

    payload = run_crossover_benchmark(scale=args.scale, trials=args.trials,
                                      base_seed=args.seed,
                                      repeats=args.repeats)
    print(_json.dumps(payload, indent=2, sort_keys=True) if args.json
          else format_crossover_table(payload))
    if args.output:
        write_bench_json(payload, args.output)
        print(f"wrote {args.output}", file=sys.stderr)
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    """The ``serve`` subcommand: streaming service mode.

    Builds (or restores) a :class:`~repro.stream.service.StreamingSimulation`,
    advances it to the horizon -- pausing at ``--snapshot-every`` checkpoints
    to persist the state -- and reports the windowed timeline.
    """
    import json as _json

    from ..stream import (StreamPlan, StreamSpec, StreamingSimulation,
                          read_snapshot, write_snapshot)

    if args.snapshot_every and not args.snapshot:
        raise ValueError("--snapshot-every needs --snapshot PATH to write to")

    on_window = None
    if not args.quiet and not args.json:
        def on_window(stats):
            # format_window is an instance method but keeps no state; bind
            # lazily so restored services report through their own live view.
            print(service.live.format_window(stats), file=sys.stderr)

    if args.restore:
        service = StreamingSimulation.restore(read_snapshot(args.restore),
                                              on_window=on_window)
        plan = StreamPlan(name="resumed", stream=service.spec,
                          horizon=args.horizon,
                          snapshot_every=args.snapshot_every,
                          warmup=args.warmup)
    elif args.plan:
        plan = StreamPlan.from_file(args.plan)
        if args.warmup:
            plan = plan.with_warmup(args.warmup)
        service = StreamingSimulation(plan.stream, on_window=on_window)
    else:
        axes: Dict[str, object] = {}
        for axis, name, params in _axis_args(args):
            axes[axis.spec_field] = name
            axes[str(axis.params_key)] = params
        spec = StreamSpec(
            scenario_name=args.scenario,
            traffic_name=args.traffic,
            oversubscription=args.rate,
            gamma=args.gamma,
            seed=args.seed,
            mapper_name=args.mapper,
            dropper_name=args.dropper,
            dropper_params=_parse_params(args.param, "--param"),
            traffic_params=_parse_params(args.traffic_param,
                                         "--traffic-param"),
            numerics=args.numerics,
            metrics_window=args.window,
            metrics_decay=args.decay, **axes)
        plan = StreamPlan(name="serve", stream=spec, horizon=args.horizon,
                          snapshot_every=args.snapshot_every,
                          warmup=args.warmup)
        service = StreamingSimulation(spec, on_window=on_window)

    if plan.horizon <= service.horizon:
        raise ValueError(f"--horizon {plan.horizon} does not advance the "
                         f"service (already at {service.horizon})")
    if not args.json:
        print(service.describe(), file=sys.stderr)
    for point in plan.checkpoints():
        if point <= service.horizon:
            continue
        service.run_until(point)
        if args.snapshot and point < plan.horizon:
            write_snapshot(service, args.snapshot)
            print(f"snapshot at t={point} -> {args.snapshot}",
                  file=sys.stderr)
    if args.snapshot:
        write_snapshot(service, args.snapshot)
        print(f"snapshot at t={service.horizon} -> {args.snapshot}",
              file=sys.stderr)

    from ..metrics.collector import trial_metrics_to_dict

    metrics = service.metrics()
    timeline = service.timeline()
    trimmed = 0
    if plan.warmup:
        full = len(timeline)
        timeline = timeline.steady_state(plan.warmup)
        trimmed = full - len(timeline)
    if args.json:
        print(_json.dumps({"spec": service.spec.to_dict(),
                           "horizon": service.horizon,
                           "metrics": trial_metrics_to_dict(metrics),
                           "timeline": timeline.to_dict()},
                          indent=2, sort_keys=True))
    else:
        if args.chart:
            print(timeline.chart(keys=("completion_rate", "drop_rate",
                                       "ewma_drop_rate")))
        rob = metrics.robustness
        warm = (f" ({trimmed} warm-up trimmed)" if trimmed else "")
        print(f"{service.describe()}\n"
              f"  windows closed : {len(timeline)}{warm}\n"
              f"  robustness     : {metrics.robustness_pct:.2f}% "
              f"({rob.on_time}/{rob.measured_tasks} on time)\n"
              f"  completed late : {rob.completed_late}\n"
              f"  dropped        : {rob.dropped_proactive} proactive, "
              f"{rob.dropped_reactive} reactive, "
              f"{rob.expired_batch} expired")
    return 0


def _command_check(args: argparse.Namespace) -> int:
    """The ``check`` subcommand: run the invariant linter.

    Exit code 0 when the tree is clean, 1 when findings were reported and
    2 on usage errors (unknown rules, unreadable paths), matching the
    conventions of the other subcommands.
    """
    from ..analysis import check_paths

    report = check_paths(paths=args.paths or None, select=args.select,
                         ignore=args.ignore)
    print(report.to_json() if args.json else report.format())
    return 0 if report.ok else 1


def _command_list_rules(args: argparse.Namespace) -> int:
    """The ``list-rules`` subcommand: describe the rule registry."""
    from ..analysis import resolve_rules

    rules = resolve_rules(args.select, args.ignore)
    if not rules:
        print("(no rules selected)")
        return 0
    lines = []
    by_family: Dict[str, list] = {}
    for rule in rules:
        by_family.setdefault(rule.family, []).append(rule)
    width = max(len(f"{r.name} ({r.code})") for r in rules) + 2
    for family in sorted(by_family):
        lines.append(f"{family} rules:")
        for rule in by_family[family]:
            title = f"{rule.name} ({rule.code})"
            lines.append(f"  {title.ljust(width)}{rule.description}")
        lines.append("")
    print("\n".join(lines).rstrip())
    return 0


def _command_list(args: argparse.Namespace) -> int:
    """The ``list-*`` subcommands: print one registry.

    Fully driven by :data:`LIST_COMMANDS`; the registry object is resolved
    by attribute name from :mod:`repro.api` so a new registry never needs
    its own command function.
    """
    from .. import api

    attr, _ = LIST_COMMANDS[args.figure]
    print(getattr(api, attr).describe())
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python -m repro`` / ``repro-experiments``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _load_plugins(args)
    if args.figure in LIST_COMMANDS:
        return _command_list(args)
    if args.figure == "check":
        try:
            return _command_check(args)
        except (KeyError, ValueError, OSError) as exc:
            # Unknown rule names carry did-you-mean hints; unreadable or
            # unparsable paths print cleanly without a traceback.
            print(f"repro check: error: {exc}", file=sys.stderr)
            return 2
    if args.figure == "list-rules":
        try:
            return _command_list_rules(args)
        except KeyError as exc:
            print(f"repro list-rules: error: {exc}", file=sys.stderr)
            return 2
    if args.figure == "bench":
        try:
            return _command_bench(args)
        except (RuntimeError, ValueError) as exc:
            print(f"repro bench: error: {exc}", file=sys.stderr)
            return 2
    if args.figure == "run":
        try:
            return _command_run(args)
        except (KeyError, TypeError, ValueError) as exc:
            # Registry lookups raise KeyError subclasses with did-you-mean
            # hints and parameter validation raises TypeError; show the
            # message without a traceback.
            print(f"repro run: error: {exc}", file=sys.stderr)
            return 2
    if args.figure == "serve":
        try:
            return _command_serve(args)
        except (KeyError, TypeError, ValueError, OSError) as exc:
            # Registry typos, bad snapshot payloads and missing plan or
            # snapshot files all print cleanly without a traceback.
            print(f"repro serve: error: {exc}", file=sys.stderr)
            return 2
    if args.figure == "plan":
        try:
            return _command_plan(args)
        except (KeyError, TypeError, ValueError, OSError) as exc:
            # PlanError/SpoolError are ValueErrors, registry typos KeyErrors
            # and missing plan/spool files OSErrors; all print cleanly.
            print(f"repro plan: error: {exc}", file=sys.stderr)
            return 2
    config = _config_from_args(args)
    figure = _run_figure(args, config)
    print(format_figure_table(figure))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
