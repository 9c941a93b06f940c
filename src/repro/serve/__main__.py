"""Run the scheduling service: ``python -m repro.serve [options]``.

Without ``--shards`` it serves one simulated machine; ``--shards N`` puts
a fleet of N machines behind a topology-aware router on the same port.
Both speak one newline-JSON protocol, so ``python -m repro.serve.loadgen
--connect HOST:PORT`` drives either unchanged.

Examples::

    python -m repro.serve --machine small --port 7077
    python -m repro.serve --queue-capacity 32 --cache-dir .cache
    python -m repro.serve --snapshot-out metrics.json   # final snapshot
    python -m repro.serve --shards 4 --high-water 8 \\
        --expose-shards          # each shard also gets its own port
    python -m repro.serve --shards 3 --shard-crash 0.4 \\
        --fault-seed 7           # seeded chaos: a whole shard may die
    python -m repro.serve --shards 3 --shard-crash 0.4 \\
        --respawn 2 --heartbeat-every 5 --suspect-after 2  # self-healing:
        # crashes are found by missed heartbeats, tenants migrate warm,
        # and the supervisor respawns the dead shard at a new epoch

The server prints its bound address on startup (with ``--expose-shards``,
every shard's too) and serves until a client sends the ``drain`` op or a
signal arrives.  SIGINT *and* SIGTERM drain gracefully: admitted jobs
finish on every live machine, new submissions are rejected with the typed
``draining`` error, and (with ``--snapshot-out``) a final metrics
snapshot is written atomically — its job counters always conserve
(``submitted == completed + failed``, nothing in flight after a drain).
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import functools
import signal
import sys
from typing import Any

from repro.exp.cliopts import (
    add_campaign_arguments,
    add_machine_argument,
    config_from_args,
    resolve_machine,
)
from repro.serve.faults import FaultPlan, parse_fault_spec
from repro.serve.federation import (
    FederationRouter,
    FederationService,
    Membership,
    ShardFaultPlan,
    ShardSupervisor,
    build_shards,
    respawn_factory,
)
from repro.serve.frontend import FrontEnd
from repro.serve.server import SchedulingService

__all__ = ["main"]

_UNSET = object()


def _build_parser() -> tuple[argparse.ArgumentParser, list[argparse.Action]]:
    """The parser plus the options that only a federation takes."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Multi-tenant taskloop scheduling service on one "
        "simulated NUMA machine, or (--shards N) on a fleet of them behind "
        "a topology-aware router.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=7077, help="bind port (0 = ephemeral)")
    parser.add_argument(
        "--queue-capacity",
        type=int,
        default=16,
        help="bounded admission queue size (per shard); submissions beyond "
        "it are rejected with the typed queue_full error",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="concurrent job slots (default: one per NUMA node)",
    )
    parser.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="attempt budget per job: crashes/transient errors requeue the "
        "job until the budget is exhausted (then a typed JobFailed)",
    )
    parser.add_argument(
        "--default-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="running-time deadline applied to jobs that set none; the "
        "watchdog cancels overruns (default: no deadline)",
    )
    parser.add_argument(
        "--fault-spec",
        default=None,
        metavar="SPEC",
        help='inject a seeded fault plan, e.g. "crash=0.1,transient=0.2" '
        "(chaos testing against a live server; each shard draws from its "
        "own derived seed)",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="fault plan RNG seed, also of --shard-crash (default 0)",
    )
    parser.add_argument(
        "--snapshot-out",
        default=None,
        metavar="PATH",
        help="after the drain, write the final metrics snapshot to PATH "
        "as JSON (atomic tmp-file + rename write)",
    )
    add_machine_argument(parser)
    # campaign flags set the *defaults* jobs inherit (seeds, cache, noise)
    add_campaign_arguments(parser)

    fleet = parser.add_argument_group("federation (every option here needs --shards)")
    fleet.add_argument("--shards", type=int, default=None, metavar="N",
                       help="run N SchedulingService shards behind a router")
    only = [
        fleet.add_argument("--expose-shards", action="store_true",
                           help="give every shard its own ephemeral TCP port "
                           "next to the router (printed on startup)"),
        fleet.add_argument("--high-water", type=int, default=None,
                           metavar="DEPTH",
                           help="per-shard queue depth beyond which the router "
                           "sheds the youngest waiting jobs onto the ring's "
                           "next shard (default: no rebalancing)"),
        fleet.add_argument("--vnodes", type=int, default=64,
                           help="virtual nodes per shard on the hash ring"),
        fleet.add_argument("--ring-seed", type=int, default=0,
                           help="consistent-hash ring placement seed"),
        fleet.add_argument("--shard-crash", type=float, default=0.0,
                           metavar="PROB",
                           help="probability that a whole shard dies at a "
                           "seeded placement count (its jobs requeue elsewhere)"),
        fleet.add_argument("--crash-after", type=int, nargs=2, default=(1, 4),
                           metavar=("MIN", "MAX"),
                           help="placement-count window a crashing shard's "
                           "death is drawn from (default 1 4)"),
    ]
    healing = parser.add_argument_group("self-healing (membership layer; needs --shards)")
    only += [
        healing.add_argument("--membership", action="store_true",
                             help="enable the logical-clock failure detector: "
                             "seeded shard crashes turn silent and are found "
                             "by missed heartbeats instead of router omniscience"),
        healing.add_argument("--heartbeat-every", type=int, default=5,
                             metavar="PLACEMENTS",
                             help="poll every shard each N router placements "
                             "(the logical heartbeat period, default 5)"),
        healing.add_argument("--suspect-after", type=int, default=2,
                             metavar="POLLS",
                             help="missed polls before a shard is SUSPECT and "
                             "stops taking new placements (default 2)"),
        healing.add_argument("--confirm-after", type=int, default=3,
                             metavar="POLLS",
                             help="missed polls before a death is confirmed and "
                             "recovery runs (must exceed --suspect-after; "
                             "default 3)"),
        healing.add_argument("--respawn", type=int, default=None, metavar="N",
                             help="supervise confirmed-dead shards: respawn each "
                             "up to N times at a new epoch with a fresh derived "
                             "fault seed (implies --membership)"),
    ]
    return parser, only


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser, fleet_only = _build_parser()
    # pre-seeding the federation-only options with a sentinel tells a
    # flag given on the command line from one left at its default
    args = parser.parse_args(
        argv, namespace=argparse.Namespace(**{a.dest: _UNSET for a in fleet_only})
    )
    given = [a.option_strings[0] for a in fleet_only if getattr(args, a.dest) is not _UNSET]
    if args.shards is None and given:
        parser.error(f"{', '.join(given)} only apply to a federation; add --shards N")
    for action in fleet_only:
        if getattr(args, action.dest) is _UNSET:
            setattr(args, action.dest, action.default)
    if args.shards is not None and args.shards < 1:
        parser.error(f"--shards must be >= 1, got {args.shards}")
    if args.confirm_after <= args.suspect_after:
        parser.error(
            f"--confirm-after ({args.confirm_after}) must exceed "
            f"--suspect-after ({args.suspect_after})"
        )
    return args


def _machine_recipe(args: argparse.Namespace) -> dict[str, Any]:
    """The keywords every SchedulingService (standalone or shard) takes."""
    return dict(
        config=config_from_args(args, seeds_default=1),
        queue_capacity=args.queue_capacity,
        workers=args.workers,
        max_attempts=args.max_attempts,
        default_deadline_s=args.default_deadline,
    )


def _build_federation(args: argparse.Namespace) -> FederationService:
    """Construct the fleet + router + front-end from parsed flags."""
    topology = functools.partial(resolve_machine, args.machine)
    recipe = dict(
        _machine_recipe(args),
        fault_probabilities=(
            parse_fault_spec(args.fault_spec) if args.fault_spec is not None else None
        ),
        fault_seed=args.fault_seed,
    )
    shard_plan = None
    if args.shard_crash > 0.0:
        lo, hi = args.crash_after
        shard_plan = ShardFaultPlan(
            args.shard_crash, seed=args.fault_seed, min_placements=lo, max_placements=hi
        )
    membership = None
    supervisor = None
    if args.membership or args.respawn is not None:
        membership = Membership(
            heartbeat_every=args.heartbeat_every,
            suspect_after=args.suspect_after,
            confirm_after=args.confirm_after,
        )
        if args.respawn is not None:
            supervisor = ShardSupervisor(
                respawn_factory(topology, **recipe), max_respawns=args.respawn
            )
    router = FederationRouter(
        build_shards(args.shards, topology, **recipe),
        seed=args.ring_seed,
        vnodes=args.vnodes,
        high_water=args.high_water,
        shard_fault_plan=shard_plan,
        membership=membership,
        supervisor=supervisor,
    )
    return FederationService(router)


async def _start(args: argparse.Namespace) -> tuple[FrontEnd, str, int, list[str]]:
    """Build and start the tier the flags ask for; also its banner lines."""
    if args.shards is None:
        plan = None
        if args.fault_spec is not None:
            plan = FaultPlan.from_spec(args.fault_spec, seed=args.fault_seed)
        service = SchedulingService(
            resolve_machine(args.machine), fault_plan=plan, **_machine_recipe(args)
        )
        host, port = await service.start(args.host, args.port)
        return service, host, port, [f"serving {service.topology.describe()}"]
    federation = _build_federation(args)
    host, port = await federation.start(
        args.host, args.port, expose_shards=args.expose_shards
    )
    shards = federation.router.live_shards
    banner = [f"federation of {len(shards)} shard(s), "
              f"{shards[0].service.topology.describe()} each"]
    if args.expose_shards:
        banner += [f"  {s.shard_id} listening on {s.host}:{s.port}" for s in shards]
    return federation, host, port, banner


def _drain_summary(snapshot: dict[str, Any]) -> list[str]:
    if "router" not in snapshot:
        jobs = snapshot["jobs"]
        return [f"drained: {jobs['completed']} completed, {jobs['failed']} failed, "
                f"{jobs['rejected_total']} rejected"]
    router = snapshot["router"]
    states = router["job_states"]
    lines = [f"drained: {states['completed']} completed, {states['failed']} "
             f"failed across {len(snapshot['fleet']['alive'])} live shard(s); "
             f"{router['migrations']} migration(s), "
             f"{router['shard_deaths']} shard death(s)"]
    membership = snapshot.get("membership")
    if membership is not None:
        respawns = membership.get("respawns") or {}
        lines.append(
            f"self-healing: {membership['heartbeats']} heartbeat(s), "
            f"{membership['deaths_confirmed']} confirmed death(s), "
            f"{respawns.get('respawns_total', 0)} respawn(s), "
            f"{membership['migrations_completed']} warm migration(s), "
            f"{membership['migrations_dropped']} dropped"
        )
    return lines


async def _serve(args: argparse.Namespace) -> int:
    front, host, port, banner = await _start(args)
    # signal → event: the handler runs on the loop, so the drain (and the
    # final snapshot write) happen in ordinary task context, not inside a
    # signal frame.  Installed before the readiness line is printed — a
    # supervisor may SIGTERM the instant it sees the address.
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    installed: list[signal.Signals] = []
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop.set)
            installed.append(sig)
        except (NotImplementedError, RuntimeError):
            pass  # non-unix event loop: ctrl-c falls back to KeyboardInterrupt
    print("\n".join(banner))
    print(f"listening on {host}:{port}; SIGINT/SIGTERM drain gracefully", flush=True)
    try:
        # a signal or a client's wire `drain` op, whichever comes first
        waits = [asyncio.ensure_future(front.wait_drained()),
                 asyncio.ensure_future(stop.wait())]
        try:
            await asyncio.wait(waits, return_when=asyncio.FIRST_COMPLETED)
        except (KeyboardInterrupt, asyncio.CancelledError):  # repro: noqa EXC001 -- top of the CLI: ctrl-c *is* the drain signal; nothing above this frame needs the cancellation, and re-raising would traceback at the terminal
            pass
        finally:
            for w in waits:
                w.cancel()
        print("draining: finishing admitted jobs, rejecting new ones", flush=True)
        snapshot = await front.drain()
        print("\n".join(_drain_summary(snapshot)))
        if args.snapshot_out:
            out = front.persist_snapshot(args.snapshot_out)
            print(f"final metrics snapshot written to {out}")
    finally:
        for sig in installed:
            loop.remove_signal_handler(sig)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    with contextlib.suppress(KeyboardInterrupt):
        return asyncio.run(_serve(args))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
