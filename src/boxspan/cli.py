"""Command-line interface: generate, build, verify, bench.

Exit codes: 0 when every asserted bound holds, 1 on a bound violation,
2 on usage or IO errors.  :func:`main` maps the errors every command shares
to 2: an ``OSError``, a ``ValueError`` (a malformed file included) and a
grid too large for the engine.  A command catches only what means something
else to it.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys
import tempfile
import time
from itertools import combinations

import numpy as np

from . import files
from .generators import CrowdedRegionError, GenConfig, random_instance, slab_instance
from .geodesic import GeodesicSolver, GridTooLargeError
from .geometry import Environment, validate_environment
from .spanner import build_spanner
from .verification import (NORM_RATIO, STRETCH_BOUND_L1, VIA_DETOUR_FACTOR,
                           check_via_triples, norm_conversion_check,
                           scaling_sweep, spanning_ratio, via_triples)

EXIT_OK = 0
EXIT_BOUND = 1
EXIT_USAGE = 2


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _check_writable(path: str | None) -> None:
    """Raise the OSError, naming ``path``, that writing a file at ``path``
    would raise, if there is a path: a file that cannot be written fails
    before the work."""
    if path:
        try:
            tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(path))).close()
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None


def _check_distinct(outputs: dict[str, str | None], inputs: dict[str, str]) -> None:
    """Raise ValueError, naming both flags, if an output path names the same
    file as another path of the command: writing it would replace that file."""
    paths = {flag: os.path.realpath(path) for flag, path in {**outputs, **inputs}.items() if path}
    for flag, other in combinations(paths, 2):
        if flag in outputs and paths[flag] == paths[other]:
            raise ValueError(f"{flag} and {other} name the same file: {outputs[flag]}")


def cmd_generate(args: argparse.Namespace) -> int:
    try:
        if args.mode == "random":
            cfg = GenConfig(seed=args.seed, n=args.n, m=args.m, gap=args.gap,
                            extent=args.extent, placement=args.placement)
            env = random_instance(cfg)
        else:
            env = slab_instance(args.n, args.eps, args.s, args.delta)
    except RuntimeError as exc:
        return _fail(str(exc))
    files.save_instance(args.out, env)
    print(f"wrote {args.out}: n={env.n} m={len(env.obstacles)} valid=yes")
    return EXIT_OK


def _load_valid_instance(path: str) -> Environment:
    env = files.load_instance(path)
    if env.n == 0:
        raise files.FormatError("instance has no points")
    corners = np.concatenate([env.point_coords, env.obstacle_lo, env.obstacle_hi])
    with np.errstate(over="ignore", invalid="ignore"):
        span = float((corners.max(axis=0) - corners.min(axis=0)).sum())
    if not np.isfinite(span):
        raise files.FormatError("instance coordinates overflow: the coordinate spans "
                                f"of its points and obstacle corners sum to {span}")
    violations = validate_environment(env)
    if violations:
        raise files.FormatError(
            "instance is invalid:\n  " + "\n  ".join(violations))
    return env


def cmd_build(args: argparse.Namespace) -> int:
    _check_distinct({"--out": args.out, "--report": args.report}, {"--in": args.in_path})
    _check_writable(args.out)
    _check_writable(args.report)
    env = _load_valid_instance(args.in_path)
    t0 = time.perf_counter()
    solver = GeodesicSolver(env)
    graph = build_spanner(env, solver)
    elapsed = time.perf_counter() - t0
    files.save_graph(args.out, graph)
    if args.report:
        files.write_json_atomic(args.report, {
            "n": graph.n,
            "m": len(env.obstacles),
            "edge_count": graph.edge_count,
            "pair_size_sums": graph.stats["size_sums"],
            "pair_counts": graph.stats["pair_counts"],
            "apex_free": graph.stats["apex_free"],
            "apex_interior": graph.stats["apex_interior"],
            "emissions": graph.stats["emissions"],
            "grid_stage_runs": solver.grid_stage_runs,
            "build_seconds": elapsed,
        })
    size_sum = sum(graph.stats["size_sums"].values())
    print(f"wrote {args.out}: n={graph.n} edges={graph.edge_count} "
          f"pair_size_sum={size_sum} seconds={elapsed:.2f}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.detour_samples < 0:
        return _fail("--detour-samples must be nonnegative")
    _check_distinct({"--report": args.report}, {"--instance": args.instance, "--graph": args.graph})
    _check_writable(args.report)
    env = _load_valid_instance(args.instance)
    graph = files.load_graph(args.graph)
    solver = GeodesicSolver(env)
    report = spanning_ratio(env, graph, solver=solver)
    triples = via_triples(env, args.detour_samples, np.random.default_rng(args.seed))
    passes, worst = check_via_triples(triples, solver)
    norm_ok = norm_conversion_check(env)
    stretch_ok = report.within_bound()
    if report.understated:
        i, j = report.understated
        print(f"bound violation: the graph distance of points {i} and {j} is below "
              "their geodesic distance", file=sys.stderr)
    total = len(triples)
    samples_ok = passes == total
    payload = {
        "n": env.n,
        "edge_count": graph.edge_count,
        "max_stretch_l1": report.max_ratio,
        "argmax_pair": list(report.argmax) if report.argmax else None,
        "stretch_bound_l1": STRETCH_BOUND_L1,
        "stretch_l2_analytic": report.l2_ratio_analytic,
        "stretch_bound_l2": NORM_RATIO * STRETCH_BOUND_L1,
        "detour_samples": total,
        "detour_passes": passes,
        "detour_max_ratio": worst,
        "detour_factor": VIA_DETOUR_FACTOR,
        "norm_sandwich_ok": norm_ok,
        "bounds_hold": bool(stretch_ok and samples_ok and norm_ok),
    }
    if args.report:
        files.write_json_atomic(args.report, payload)
    print(f"max L1 stretch {report.max_ratio:.6f} (bound {STRETCH_BOUND_L1}), "
          f"analytic L2 stretch {report.l2_ratio_analytic:.6f}, "
          f"detour samples {passes}/{total}, norm sandwich {'ok' if norm_ok else 'FAIL'}")
    return EXIT_OK if payload["bounds_hold"] else EXIT_BOUND


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        sizes = [int(v) for v in args.sizes.split(",") if v.strip()]
    except ValueError:
        return _fail(f"could not parse sizes {args.sizes!r}")
    _check_writable(args.report)
    try:
        rows = scaling_sweep(sizes, trials=args.trials, seed=args.seed, m=args.m,
                             placement=args.placement)
    except (CrowdedRegionError, GridTooLargeError) as exc:
        return _fail(str(exc))
    except RuntimeError as exc:
        print(f"bound violation: {exc}", file=sys.stderr)
        return EXIT_BOUND
    table = [dataclasses.asdict(r) for r in rows]
    if args.report:
        if args.report.endswith(".csv"):
            with files._atomic_open(args.report) as fh:
                writer = csv.DictWriter(fh, fieldnames=[k for k in table[0] if k != "runs"],
                                        extrasaction="ignore")
                writer.writeheader()
                writer.writerows(table)
        else:
            files.write_json_atomic(args.report, {"rows": table})
    print(f"{'n':>6} {'edges':>10} {'edges/(n log2(n)^3)':>20} {'max stretch':>12}")
    for r in rows:
        print(f"{r.n:>6} {r.median_edges:>10.0f} {r.normalized_edges:>20.4f} "
              f"{r.max_stretch:>12.6f}")
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxspan",
        description="Geodesic spanners for points in 3-space amid box obstacles.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a random or slab-family instance")
    gen.add_argument("--mode", choices=("random", "slabs"), default="random")
    gen.add_argument("--n", type=int, required=True, help="number of points")
    gen.add_argument("--m", type=int, default=0, help="number of obstacles (random mode)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--gap", type=float, default=0.02)
    gen.add_argument("--extent", type=float, default=1.0)
    gen.add_argument("--placement", choices=("free", "mixed"), default="free")
    gen.add_argument("--eps", type=float, default=0.1, help="point spread (slabs mode)")
    gen.add_argument("--s", type=float, default=2.1, help="slab side length (slabs mode)")
    gen.add_argument("--delta", type=float, default=1e-3, help="slab thickness (slabs mode)")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate)

    build = sub.add_parser("build", help="build a spanner from an instance file")
    build.add_argument("--in", dest="in_path", required=True)
    build.add_argument("--out", required=True)
    build.add_argument("--report", default=None)
    build.set_defaults(func=cmd_build)

    verify = sub.add_parser("verify", help="measure stretch and check the bounds")
    verify.add_argument("--instance", required=True)
    verify.add_argument("--graph", required=True)
    verify.add_argument("--detour-samples", dest="detour_samples", type=int, default=1000)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--report", default=None)
    verify.set_defaults(func=cmd_verify)

    bench = sub.add_parser("bench", help="edge-count scaling sweep")
    bench.add_argument("--sizes", required=True, help="comma-separated point counts")
    bench.add_argument("--trials", type=int, default=3)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--m", type=int, default=8)
    bench.add_argument("--placement", choices=("free", "mixed"), default="free")
    bench.add_argument("--report", default=None)
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seed", 0) < 0:
        return _fail(f"--seed must be nonnegative, got {args.seed}")
    try:
        return args.func(args)
    except GridTooLargeError as exc:
        return _fail(f"instance too large for the grid approach: {exc}")
    except (OSError, ValueError) as exc:
        return _fail(str(exc))


def entry() -> None:
    sys.exit(main())
