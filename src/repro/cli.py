"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``experiments [NAME ...] [--jobs N] [--replications R]``
    Run paper experiments by name (all when no names given) and print
    the reproduced tables.  ``--list`` shows the available names;
    ``--jobs N`` fans independent runs inside each experiment out over
    N worker processes (identical output, less wall clock);
    ``--replications R`` overrides the Monte-Carlo replication count of
    the experiments that have one (``figure8-pooled``, ``robustness``).
    ``run`` is an alias, and names may use underscores
    (``figure8_pooled``).
``trace MOVIE [--gops N] [--seed S] [--out FILE]``
    Generate a calibrated synthetic trace and write it as an ASCII
    trace file (stdout by default).
``permute N B``
    Print the ``calculatePermutation(N, B)`` transmission order and its
    certified worst-case CLF.
``bounds N``
    Print the Theorem-1 bracket for every burst size of a window.
``replay FILE [--loss-map]``
    Summarize a saved session JSON (written by
    ``repro.experiments.persist.save_session``).
``serve [--sessions K] [--capacity-mbps C] [--seed S] ...]``
    Run ``K`` concurrent sessions from the seeded load generator over
    one shared bottleneck (``repro.serve``) and print the admission,
    shedding and per-session CLF outcome.  ``--scheduler`` picks the
    bandwidth split (``fair`` or ``priority``), ``--no-shedding`` /
    ``--no-admission`` disable the managed-server arms,
    ``--fast`` routes a single-bottleneck run through the window-batched
    fast path (bit-for-bit identical results), ``--shards S`` fans the
    fleet out over ``S`` independent bottleneck shards
    (``repro.serve.hierarchy.run_hierarchy``, always batched), and
    ``--manifest-out FILE`` records a service run manifest.
``scenario [--smoke] [--seed S] [--replications R] [--out FILE]``
    Run the regime-switching scenario matrix (Equation-1 tracking lag
    across channel phase switches) and print the per-arm table;
    ``--out`` writes the run manifest (the committed
    ``manifests/scenario_matrix.json``).  ``scenario emit`` writes an
    example ``ScenarioSpec`` JSON and ``scenario run FILE`` serves the
    fleet a spec file describes (``--shards`` fans it out;
    ``--event-loop`` picks the engine of a single-bottleneck run).
``obs dump EXPERIMENT [--jobs N] [--replications R] [--out FILE]``
    Run one experiment with metrics enabled and write its JSON run
    manifest (stdout by default).
``obs diff A B``
    Compare two run manifests (metrics, backend, timing).
``obs validate FILE``
    Check a manifest against the schema in ``tools/manifest_schema.json``.

``experiments --metrics`` records metrics during a normal experiment
run and writes one manifest per experiment to ``--manifest-dir``
(default ``manifests/``); ``REPRO_METRICS=1`` does the same from the
environment.
"""

from __future__ import annotations

import argparse
import sys
from itertools import islice
from typing import List, Optional

from repro._version import __version__


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Error spreading for continuous-media streaming (ICDCS 2000 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    for alias in ("experiments", "run"):
        experiments = commands.add_parser(
            alias, help="run paper experiments and print their tables"
        )
        experiments.add_argument(
            "names", nargs="*", help="experiment names (default: all)"
        )
        experiments.add_argument(
            "--list", action="store_true", help="list available experiment names"
        )
        experiments.add_argument(
            "--jobs",
            type=int,
            default=1,
            metavar="N",
            help="worker processes for per-experiment fan-out (default 1)",
        )
        experiments.add_argument(
            "--replications",
            type=int,
            default=None,
            metavar="R",
            help="Monte-Carlo replication count for experiments that have "
            "one (figure8-pooled, robustness, capacity); others ignore it",
        )
        experiments.add_argument(
            "--metrics",
            action="store_true",
            help="record metrics and write one run manifest per experiment "
            "(also enabled by REPRO_METRICS=1)",
        )
        experiments.add_argument(
            "--manifest-dir",
            default="manifests",
            metavar="DIR",
            help="where --metrics writes run manifests (default ./manifests)",
        )

    trace = commands.add_parser("trace", help="generate a calibrated synthetic trace")
    trace.add_argument("movie", help="catalog name, e.g. star_wars")
    trace.add_argument("--gops", type=int, default=50)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--out", default="-", help="output file (default stdout)")

    permute = commands.add_parser(
        "permute", help="print calculatePermutation(N, B) and its certificate"
    )
    permute.add_argument("n", type=int)
    permute.add_argument("b", type=int)

    bounds = commands.add_parser(
        "bounds", help="print the Theorem-1 bracket for a window size"
    )
    bounds.add_argument("n", type=int)

    replay = commands.add_parser(
        "replay", help="summarize a saved session JSON (see repro.experiments.persist)"
    )
    replay.add_argument("path", help="session file written by save_session")
    replay.add_argument(
        "--loss-map", action="store_true", help="also print the per-window loss map"
    )

    serve = commands.add_parser(
        "serve", help="run concurrent sessions over one shared bottleneck"
    )
    serve.add_argument(
        "--sessions", type=int, default=4, metavar="K", help="sessions to submit"
    )
    serve.add_argument(
        "--capacity-mbps",
        type=float,
        default=2.4,
        metavar="C",
        help="bottleneck capacity in Mbps (default 2.4)",
    )
    serve.add_argument(
        "--seed", type=int, default=0, help="load-generator seed (default 0)"
    )
    serve.add_argument(
        "--scheduler",
        choices=["fair", "priority"],
        default="fair",
        help="bandwidth split across sessions (default fair)",
    )
    serve.add_argument(
        "--gops", type=int, default=8, help="GOPs per generated stream"
    )
    serve.add_argument(
        "--windows",
        type=int,
        default=4,
        metavar="W",
        help="buffer windows each session streams",
    )
    serve.add_argument(
        "--mean-interarrival",
        type=float,
        default=0.25,
        metavar="T",
        help="mean exponential arrival gap, seconds (0 = all at once)",
    )
    serve.add_argument(
        "--no-shedding",
        action="store_true",
        help="disable graceful load shedding (unmanaged baseline)",
    )
    serve.add_argument(
        "--no-admission",
        action="store_true",
        help="admit every session regardless of critical-layer demand",
    )
    serve.add_argument(
        "--fast",
        action="store_true",
        help="use the window-batched fast path for a single-bottleneck run "
        "(bit-for-bit identical; sharded runs are always batched)",
    )
    serve.add_argument(
        "--shards",
        default="1",
        metavar="S",
        help=(
            "fan the fleet out over S bottleneck shards (worker processes); "
            "'auto' derives S from the usable CPU cores "
            "(os.process_cpu_count, falling back to os.cpu_count), "
            "capped by the fleet size"
        ),
    )
    serve.add_argument(
        "--manifest-out",
        default=None,
        metavar="FILE",
        help="record metrics and write a service run manifest",
    )

    serve_actions = serve.add_subparsers(dest="serve_action")
    plan = serve_actions.add_parser(
        "plan",
        help=(
            "capacity-planning sweep: K x offered-load arms through the "
            "hierarchical fan-out (repro.serve.hierarchy)"
        ),
    )
    plan.add_argument(
        "--seed",
        dest="plan_seed",
        type=int,
        default=0,
        help="load-generator base seed (default 0)",
    )
    plan.add_argument(
        "--smoke",
        dest="plan_smoke",
        action="store_true",
        help="tiny CI profile (one K=64 family) instead of the full sweep",
    )
    plan.add_argument(
        "--jobs",
        dest="plan_jobs",
        type=int,
        default=1,
        metavar="N",
        help="process-pool cap for each arm's workers (default 1)",
    )
    plan.add_argument(
        "--target-cost",
        dest="plan_target_cost",
        type=int,
        default=None,
        metavar="SW",
        help="override the planner's session-windows budget per shard",
    )
    plan.add_argument(
        "--out",
        dest="plan_out",
        default=None,
        metavar="FILE",
        help="write a run manifest (the committed manifests/capacity_plan.json)",
    )

    gateway = commands.add_parser(
        "gateway", help="real-network serving gateway (RTSP control + UDP data)"
    )
    gateway_actions = gateway.add_subparsers(dest="gateway_action", required=True)

    probe = gateway_actions.add_parser(
        "probe",
        help="run a seeded loopback session and pin it against the simulator",
    )
    probe.add_argument("--seed", type=int, default=0, help="channel seed (default 0)")
    probe.add_argument(
        "--gops", type=int, default=8, help="GOPs in the generated stream"
    )
    probe.add_argument(
        "--windows",
        type=int,
        default=4,
        metavar="W",
        help="buffer windows to stream (default 4)",
    )
    probe.add_argument(
        "--reorder-span",
        type=int,
        default=0,
        metavar="S",
        help="deterministic datagram reorder buffer size (default 0)",
    )
    probe.add_argument(
        "--burst-policy",
        choices=["equation1", "quantile"],
        default="equation1",
        help="sender burst-bound policy (default equation1)",
    )
    probe.add_argument(
        "--quiet", action="store_true", help="print only the verdict line"
    )

    gateway_serve = gateway_actions.add_parser(
        "serve", help="run the gateway server on real sockets until interrupted"
    )
    gateway_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    gateway_serve.add_argument(
        "--control-port",
        type=int,
        default=8554,
        help="TCP control port (default 8554, 0 = ephemeral)",
    )
    gateway_serve.add_argument(
        "--data-port",
        type=int,
        default=0,
        help="UDP data port (default ephemeral)",
    )

    scenario = commands.add_parser(
        "scenario",
        help=(
            "regime-switching scenario matrix: Equation-1 tracking lag "
            "across channel phase switches (repro.scenario)"
        ),
    )
    scenario.add_argument(
        "--seed", type=int, default=0, help="matrix base seed (default 0)"
    )
    scenario.add_argument(
        "--smoke",
        action="store_true",
        help="tiny CI profile (4 rows, 10 windows) instead of the default",
    )
    scenario.add_argument(
        "--replications",
        type=int,
        default=None,
        metavar="R",
        help="override the replication row count per arm",
    )
    scenario.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="accepted for CLI uniformity (the sweep runs in-process)",
    )
    scenario.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write a run manifest (the committed manifests/scenario_matrix.json)",
    )

    scenario_actions = scenario.add_subparsers(dest="scenario_action")
    emit = scenario_actions.add_parser(
        "emit", help="write an example ScenarioSpec JSON (validated)"
    )
    emit.add_argument(
        "--name", default="flash-regime-switch", help="scenario name"
    )
    emit.add_argument(
        "--seed", dest="emit_seed", type=int, default=0, help="scenario seed"
    )
    emit.add_argument(
        "--out", dest="emit_out", default="-", help="spec file (default stdout)"
    )

    scenario_run = scenario_actions.add_parser(
        "run", help="serve the fleet described by a ScenarioSpec JSON file"
    )
    scenario_run.add_argument("spec", help="ScenarioSpec JSON file")
    scenario_run.add_argument(
        "--event-loop",
        action="store_true",
        help="serve a single-bottleneck run on the per-packet event loop "
        "instead of the fast path (bit-for-bit identical results; sharded "
        "runs are always batched)",
    )
    scenario_run.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="S",
        help="fan out over S bottleneck shards (LoadSpec-expressible "
        "scenarios only)",
    )

    obs_cmd = commands.add_parser(
        "obs", help="dump, diff and validate observability run manifests"
    )
    obs_actions = obs_cmd.add_subparsers(dest="obs_action", required=True)

    dump = obs_actions.add_parser(
        "dump", help="run one experiment with metrics on and emit its manifest"
    )
    dump.add_argument("experiment", help="experiment name (see experiments --list)")
    dump.add_argument("--jobs", type=int, default=1, metavar="N")
    dump.add_argument(
        "--replications",
        type=int,
        default=None,
        metavar="R",
        help="Monte-Carlo replication count (experiments that have one)",
    )
    dump.add_argument(
        "--out", default="-", help="manifest file (default stdout)"
    )
    dump.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the experiment's rendered table",
    )

    diff = obs_actions.add_parser("diff", help="compare two run manifests")
    diff.add_argument("manifest_a")
    diff.add_argument("manifest_b")

    validate = obs_actions.add_parser(
        "validate", help="check a manifest against tools/manifest_schema.json"
    )
    validate.add_argument("path")
    validate.add_argument(
        "--schema", default=None, help="alternative JSON schema file"
    )

    return parser


def _cmd_experiments(args: argparse.Namespace, out) -> int:
    from repro import obs
    from repro.experiments.runner import (
        available_experiments,
        normalize_name,
        run_all,
        run_with_manifest,
    )

    if args.list:
        for name in available_experiments():
            print(name, file=out)
        return 0
    names = args.names or None
    failures = 0
    with_metrics = args.metrics or obs.enabled()
    if with_metrics:
        from pathlib import Path

        from repro.experiments.persist import save_run_manifest

        selected = (
            [normalize_name(name) for name in names]
            if names is not None
            else available_experiments()
        )
        for name in selected:
            rendered, shape, manifest = run_with_manifest(
                name, jobs=args.jobs, replications=args.replications
            )
            path = save_run_manifest(
                manifest, Path(args.manifest_dir) / f"{name}.json"
            )
            print(f"=== {name} ===", file=out)
            print(rendered, file=out)
            print(f"[manifest {path}]", file=out)
            if shape is not None:
                verdict = "HOLDS" if shape else "VIOLATED"
                print(f"[shape {verdict}]", file=out)
                if not shape:
                    failures += 1
            print(file=out)
        return 1 if failures else 0
    for name, (rendered, shape) in run_all(
        names, jobs=args.jobs, replications=args.replications
    ).items():
        print(f"=== {name} ===", file=out)
        print(rendered, file=out)
        if shape is not None:
            verdict = "HOLDS" if shape else "VIOLATED"
            print(f"[shape {verdict}]", file=out)
            if not shape:
                failures += 1
        print(file=out)
    return 1 if failures else 0


def _labelled_outcomes(result) -> list:
    """``(label, outcome)`` table rows; a sharded run's labels read
    ``"{shard}:{session_id}"``."""
    from repro.serve import HierarchyResult

    if not isinstance(result, HierarchyResult):
        return [
            (outcome.request.session_id, outcome) for outcome in result.outcomes
        ]
    outcomes = iter(result.outcomes)
    return [
        (f"{task.index}:{outcome.request.session_id}", outcome)
        for task in result.plan.shard_tasks
        for outcome in islice(outcomes, task.spec.sessions)
    ]


def _cmd_serve(args: argparse.Namespace, out) -> int:
    import time

    from repro import obs
    from repro.experiments.reporting import render_table
    from repro.errors import ConfigurationError
    from repro.serve import (
        LoadSpec,
        build_service_manifest,
        generate_requests,
        make_scheduler,
        resolve_auto_shards,
        run_hierarchy,
        serve_sessions,
    )

    if getattr(args, "serve_action", None) == "plan":
        return _cmd_serve_plan(args, out)
    if args.shards == "auto":
        try:
            shards = resolve_auto_shards(args.sessions)
        except ConfigurationError as exc:
            print(str(exc), file=out)
            return 2
    else:
        try:
            shards = int(args.shards)
        except ValueError:
            print("--shards must be an integer or 'auto'", file=out)
            return 2
        if shards < 1:
            print("--shards must be at least 1", file=out)
            return 2
    # --manifest-out records metrics for this command only: an in-process
    # caller finds recording as it left it.
    was_enabled = obs.enabled()
    if args.manifest_out is not None:
        obs.enable()
        obs.reset()
    try:
        spec = LoadSpec(
            sessions=args.sessions,
            seed=args.seed,
            mean_interarrival=args.mean_interarrival,
            gop_count=args.gops,
            max_windows=args.windows,
        )
        started = time.perf_counter()
        if shards > 1:
            result = run_hierarchy(
                spec,
                args.capacity_mbps * 1e6,
                shards=shards,
                scheduler=args.scheduler,
                shedding=not args.no_shedding,
                admission=not args.no_admission,
            )
        else:
            result = serve_sessions(
                generate_requests(spec),
                args.capacity_mbps * 1e6,
                fast=args.fast,
                scheduler=make_scheduler(args.scheduler),
                shedding=not args.no_shedding,
                admission=not args.no_admission,
            )
        wall = time.perf_counter() - started
        labelled = _labelled_outcomes(result)
        rows = []
        for label, outcome in labelled:
            session = outcome.result
            rows.append(
                (
                    label,
                    outcome.request.priority,
                    "yes" if outcome.admitted else "NO",
                    f"{session.mean_clf:.2f}" if session else "-",
                    session.stream_clf if session else "-",
                    outcome.shed_frames,
                    f"{outcome.min_share_bps / 1e6:.2f}" if outcome.admitted else "-",
                )
            )
        print(
            render_table(
                ["session", "prio", "admitted", "mean CLF", "stream CLF", "shed",
                 "min share Mbps"],
                rows,
                title=result.describe(),
            ),
            file=out,
        )
        for label, outcome in labelled:
            if not outcome.admitted:
                print(f"rejected {label}: {outcome.reason}", file=out)
        if args.manifest_out is not None:
            from repro.experiments.persist import save_run_manifest

            manifest = build_service_manifest(
                result, seed=args.seed, wall_seconds=wall
            )
            path = save_run_manifest(manifest, args.manifest_out)
            print(f"wrote manifest to {path}", file=out)
        return 0
    finally:
        if not was_enabled:
            obs.disable()


def _cmd_serve_plan(args: argparse.Namespace, out) -> int:
    import time
    from dataclasses import replace

    from repro import accel, obs
    from repro.experiments.capacity_plan import (
        full_sweep_config,
        run_capacity_plan,
        smoke_config,
    )

    config = (
        smoke_config(args.plan_seed)
        if args.plan_smoke
        else full_sweep_config(args.plan_seed)
    )
    if args.plan_target_cost is not None:
        config = replace(config, target_shard_cost=args.plan_target_cost)
    # Metrics are snapshotted from a fresh registry so a seed-pinned run
    # writes a reproducible manifest (only the timing section moves —
    # `repro obs diff` already ignores wall clocks).
    obs.reset()
    obs.set_info("accel.backend", accel.backend_name())
    started = time.perf_counter()
    result = run_capacity_plan(config, jobs=args.plan_jobs)
    wall = time.perf_counter() - started
    print(result.render(), file=out)
    for perf in result.performance:
        print(
            f"  {perf['label']}: {perf['wall_seconds']:.2f}s wall, "
            f"{perf['sessions_per_second']:,.0f} sessions/s",
            file=out,
        )
    if args.plan_out is not None:
        from repro.experiments.persist import build_run_manifest, save_run_manifest

        manifest = build_run_manifest(
            experiment="capacity-plan",
            config={
                "profile": "smoke" if args.plan_smoke else "full",
                "target_shard_cost": config.target_shard_cost,
                "jobs": args.plan_jobs,
            },
            seed=config.base_seed,
            backend=accel.backend_name(),
            metrics=obs.snapshot(),
            wall_seconds=wall,
            shape_holds=result.shape_holds,
            summary=result.summary_dict(),
        )
        path = save_run_manifest(manifest, args.plan_out)
        print(f"wrote manifest to {path}", file=out)
    return 0 if result.shape_holds else 1


def _cmd_scenario(args: argparse.Namespace, out) -> int:
    action = getattr(args, "scenario_action", None)
    if action == "emit":
        return _cmd_scenario_emit(args, out)
    if action == "run":
        return _cmd_scenario_run(args, out)

    import time

    from repro import accel, obs
    from repro.experiments.scenario import (
        default_matrix_config,
        run_scenario_matrix,
        smoke_config,
    )

    config = (
        smoke_config(args.seed) if args.smoke else default_matrix_config(args.seed)
    )
    # Same discipline as `serve plan`: snapshot from a fresh registry so
    # a seed-pinned run writes a reproducible manifest.
    obs.reset()
    obs.set_info("accel.backend", accel.backend_name())
    started = time.perf_counter()
    result = run_scenario_matrix(
        config, replications=args.replications, jobs=args.jobs
    )
    wall = time.perf_counter() - started
    print(result.render(), file=out)
    if args.out is not None:
        from repro.experiments.persist import build_run_manifest, save_run_manifest

        manifest = build_run_manifest(
            experiment="scenario",
            config={
                "profile": "smoke" if args.smoke else "default",
                "replications": args.replications,
                "jobs": args.jobs,
            },
            seed=config.base_seed,
            backend=accel.backend_name(),
            metrics=obs.snapshot(),
            wall_seconds=wall,
            shape_holds=result.shape_holds,
            summary=result.summary_dict(),
        )
        path = save_run_manifest(manifest, args.out)
        print(f"wrote manifest to {path}", file=out)
    return 0 if result.shape_holds else 1


def _cmd_scenario_emit(args: argparse.Namespace, out) -> int:
    from repro.network.markov import GilbertPhase
    from repro.scenario import (
        ChannelSpec,
        LoadSpec,
        ScenarioSpec,
        to_json,
        validate_spec_dict,
    )
    from repro.scenario.spec import to_dict

    spec = ScenarioSpec(
        name=args.name,
        seed=args.emit_seed,
        channel=ChannelSpec(
            phases=(
                GilbertPhase(packets=120, p_good=0.99, p_bad=0.3),
                GilbertPhase(packets=1_000_000_000, p_good=0.85, p_bad=0.75),
            ),
        ),
        load=LoadSpec(arrival="flash"),
    )
    errors = validate_spec_dict(to_dict(spec))
    if errors:  # pragma: no cover - example spec is schema-pinned
        for error in errors:
            print(error, file=out)
        return 1
    text = to_json(spec)
    if args.emit_out == "-":
        print(text, file=out)
    else:
        from pathlib import Path

        path = Path(args.emit_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n", encoding="utf-8")
        print(f"wrote scenario spec to {path}", file=out)
    return 0


def _cmd_scenario_run(args: argparse.Namespace, out) -> int:
    from pathlib import Path

    from repro.errors import ConfigurationError
    from repro.experiments.reporting import render_table
    from repro.scenario import from_json, run_scenario

    try:
        spec = from_json(Path(args.spec).read_text(encoding="utf-8"))
    except OSError as exc:
        print(f"cannot read spec: {exc}", file=out)
        return 2
    except ConfigurationError as exc:
        print(str(exc), file=out)
        return 2
    try:
        result = run_scenario(
            spec, fast=not args.event_loop, shards=args.shards
        )
    except ConfigurationError as exc:
        print(str(exc), file=out)
        return 2
    labelled = _labelled_outcomes(result)
    rows = []
    for label, outcome in labelled:
        session = outcome.result
        rows.append(
            (
                label,
                outcome.request.priority,
                "yes" if outcome.admitted else "NO",
                f"{session.mean_clf:.2f}" if session else "-",
                session.stream_clf if session else "-",
                outcome.shed_frames,
            )
        )
    print(
        render_table(
            ["session", "prio", "admitted", "mean CLF", "stream CLF", "shed"],
            rows,
            title=f"scenario {spec.name!r}: {result.describe()}",
        ),
        file=out,
    )
    for label, outcome in labelled:
        if not outcome.admitted:
            print(f"rejected {label}: {outcome.reason}", file=out)
    return 0


def _cmd_obs(args: argparse.Namespace, out) -> int:
    import json

    from repro.obs.manifest import (
        diff_manifests,
        load_manifest,
        load_schema,
        render_diff,
        validate_manifest,
    )

    if args.obs_action == "dump":
        from repro.experiments.persist import save_run_manifest
        from repro.experiments.runner import run_with_manifest

        rendered, shape, manifest = run_with_manifest(
            args.experiment, jobs=args.jobs, replications=args.replications
        )
        if not args.quiet:
            print(rendered, file=out)
            if shape is not None:
                print(f"[shape {'HOLDS' if shape else 'VIOLATED'}]", file=out)
        if args.out == "-":
            print(json.dumps(manifest, indent=2), file=out)
        else:
            path = save_run_manifest(manifest, args.out)
            print(f"wrote manifest to {path}", file=out)
        return 0
    if args.obs_action == "diff":
        diff = diff_manifests(
            load_manifest(args.manifest_a), load_manifest(args.manifest_b)
        )
        print(render_diff(diff), file=out)
        # Wall-clock differs between any two real runs; it is shown but
        # does not make the manifests "different" for the exit code.
        header = {k: v for k, v in diff["header"].items() if k != "wall_seconds"}
        identical = not (header or diff["added"] or diff["removed"] or diff["changed"])
        return 0 if identical else 1
    if args.obs_action == "validate":
        schema = load_schema(args.schema) if args.schema else None
        errors = validate_manifest(load_manifest(args.path), schema)
        if errors:
            for error in errors:
                print(error, file=out)
            return 1
        print(f"{args.path}: valid run manifest", file=out)
        return 0
    raise AssertionError(f"unhandled obs action {args.obs_action!r}")


def _cmd_trace(args: argparse.Namespace, out) -> int:
    from repro.traces.io import write_trace
    from repro.traces.synthetic import calibrated_stream

    stream = calibrated_stream(args.movie, gop_count=args.gops, seed=args.seed)
    if args.out == "-":
        write_trace(stream, out)
    else:
        write_trace(stream, args.out)
        print(
            f"wrote {len(stream)} frames ({stream.total_bits} bits) to {args.out}",
            file=out,
        )
    return 0


def _cmd_permute(args: argparse.Namespace, out) -> int:
    from repro.core.cpo import calculate_permutation
    from repro.core.evaluation import worst_case_clf

    perm = calculate_permutation(args.n, args.b)
    clf = worst_case_clf(perm, args.b)
    print(" ".join(str(frame) for frame in perm.order), file=out)
    print(f"certified worst-case CLF for bursts <= {args.b}: {clf}", file=out)
    return 0


def _cmd_bounds(args: argparse.Namespace, out) -> int:
    from repro.core.bounds import theorem1_bracket
    from repro.experiments.reporting import render_table

    rows = []
    for b in range(1, args.n + 1):
        lower, upper = theorem1_bracket(args.n, b)
        rows.append((b, lower, upper, upper - lower))
    print(
        render_table(
            ["burst", "lower bound", "achieved", "gap"],
            rows,
            title=f"Theorem 1 bracket, window n={args.n}",
        ),
        file=out,
    )
    return 0


def _cmd_replay(args: argparse.Namespace, out) -> int:
    from repro.experiments.persist import load_session_summary, series_from_saved
    from repro.experiments.reporting import render_loss_map, render_series

    data = load_session_summary(args.path)
    series = series_from_saved(data, label=args.path)
    summary = data["summary"]
    config = data["config"]
    mode = "scrambled" if config.get("scramble") else "in-order"
    print(
        f"{args.path}: {len(data['windows'])} windows, {mode}, "
        f"p_bad={config.get('p_bad')}, seed={config.get('seed')}",
        file=out,
    )
    print(
        f"mean CLF {summary['mean_clf']:.2f}, dev {summary['clf_deviation']:.2f}, "
        f"stream CLF {summary['stream_clf']}",
        file=out,
    )
    print(render_series("CLF per window", series.clf_values), file=out)
    if args.loss_map:

        class _Window:
            def __init__(self, record):
                self.frames = record["frames"]
                self.decodable = set(record["decodable"])

        print(
            render_loss_map(
                [_Window(w) for w in data["windows"]],
                label="playout (.=played x=lost)",
            ),
            file=out,
        )
    return 0


def _cmd_gateway(args: argparse.Namespace, out) -> int:
    if args.gateway_action == "probe":
        from repro.gateway.probe import ProbeSpec, run_loopback_probe

        overrides = {}
        if args.burst_policy != "equation1":
            overrides["burst_policy"] = args.burst_policy
        spec = ProbeSpec(
            seed=args.seed,
            gops=args.gops,
            max_windows=args.windows,
            reorder_span=args.reorder_span,
            config_overrides=overrides,
        )
        outcome = run_loopback_probe(spec)
        lines = outcome.summary_lines()
        if args.quiet:
            lines = lines[-1:]
        for line in lines:
            print(line, file=out)
        return 0 if outcome.matches else 1

    import asyncio

    from repro.gateway.server import GatewayServer

    async def _serve_forever() -> None:
        server = GatewayServer(
            host=args.host,
            control_port=args.control_port,
            data_port=args.data_port,
        )
        await server.start()
        print(
            f"gateway listening: control rtsp://{args.host}:"
            f"{server.control_port} data udp/{server.data_port}",
            file=out,
        )
        try:
            await asyncio.Event().wait()
        finally:
            await server.stop()

    try:
        asyncio.run(_serve_forever())
    except KeyboardInterrupt:
        print("gateway stopped", file=out)
    return 0


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    handlers = {
        "experiments": _cmd_experiments,
        "run": _cmd_experiments,
        "trace": _cmd_trace,
        "permute": _cmd_permute,
        "bounds": _cmd_bounds,
        "replay": _cmd_replay,
        "serve": _cmd_serve,
        "scenario": _cmd_scenario,
        "gateway": _cmd_gateway,
        "obs": _cmd_obs,
    }
    return handlers[args.command](args, out)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
