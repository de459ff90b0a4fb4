#!/usr/bin/env python3
"""boxspan benchmark: generate -> build -> verify, end to end and per layer.

Run from the root of a boxspan checkout:

    python3 perfbench/run.py --workload scatter --seed 0 --seconds 50 --trace 0

A run derives a batch of instances from ``--seed``.  For each instance in
turn it generates, validates and writes the instance (the set-up), then runs
``boxspan build`` and ``boxspan verify --detour-samples 1000`` in-process
through ``boxspan.cli.main``, pass after pass over the batch, for
``--seconds`` seconds.  Each command makes its own ``GeodesicSolver`` exactly
as separate CLI processes would, so no cache carries over between build and
verify.  Only the set-up and the ``cli.main`` calls are timed; every output
check runs outside the timed region.  A batch, rather than one instance,
keeps the figures steady from seed to seed: obstacle layouts make single
instances differ by 20-30% in build and verify time.

``--trace 0`` reports the end-to-end metrics; a timing is, per instance, the
median over its passes, summed over the batch.  ``--trace 1`` alternates
untraced and traced passes, reports the per-layer metrics of the traced
passes (see ``tracing.py``) and the tracing overhead, and writes the spans of
the last traced pass to ``.perfbench_out/``.

Standard output lists every metric by name with its unit, the operations
attempted and failed, and a SHA-256 over the sorted edge lists of the batch;
its last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 when every operation
succeeded, 1 when one failed and 2 when the benchmark cannot run at all (no
boxspan sources).

The load is one process and one thread: ``main`` pins the BLAS and OpenMP
pools to 1 before numpy is imported.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

DETOUR_SAMPLES = 1000
ORACLE_RESOLUTIONS = (1 / 8, 1 / 16, 1 / 32)
SPOT_PAIRS = 2
SETUP_REPEATS = 3  # per untraced step; a set-up takes milliseconds

# Batch size and random_instance parameters per workload.  Why each workload
# exists, and which layers it loads or bypasses, is recorded in
# BENCHMARK.json.
WORKLOADS = {
    "open": {"instances": 4, "params": dict(n=768, m=0)},
    "scatter": {"instances": 16, "params": dict(n=64, m=8, placement="free")},
}

THREAD_POOLS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

E2E_UNITS = {"setup_s": "s", "build_s": "s", "verify_s": "s", "peak_rss_mb": "MB",
             "edge_count": "count", "max_stretch": "ratio"}


def import_package() -> None:
    """Import boxspan from this checkout's src/, never from anywhere else."""
    if not (SRC / "boxspan" / "__init__.py").is_file():
        raise ImportError(f"no boxspan sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import boxspan

    if Path(boxspan.__file__).resolve().parent != SRC / "boxspan":
        raise ImportError(f"boxspan was imported from {boxspan.__file__}, not {SRC}")


def instance_seed(seed: int, index: int) -> int:
    """Seed of the index-th instance of a run, as scaling_sweep derives its trials."""
    import numpy as np

    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


def run_cli(argv: list[str]) -> tuple[float, str | None]:
    """Time one ``boxspan.cli.main`` call; returns (seconds, problem or None)."""
    from boxspan import cli

    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed operation, not a failed benchmark
            return time.perf_counter() - t0, traceback.format_exc(limit=4)
        elapsed = time.perf_counter() - t0
    return elapsed, None if code == 0 else f"exit code {code}"


def edge_digest(graph_path: Path) -> str:
    """SHA-256 of the sorted edge list, weights written with repr()."""
    with open(graph_path) as fh:
        edges = sorted(tuple(e) for e in json.load(fh)["edges"])
    h = hashlib.sha256()
    for i, j, w in edges:
        h.update(f"{i} {j} {float(w)!r}\n".encode())
    return h.hexdigest()


class Instance:
    """One seeded instance of a batch and the files its commands read and write."""

    def __init__(self, seed: int, params: dict, workdir: Path):
        from boxspan.generators import GenConfig

        self.seed = seed
        self.cfg = GenConfig(seed=seed, **params)
        workdir.mkdir(parents=True, exist_ok=True)
        self.instance = workdir / "instance.json"
        self.graph = workdir / "graph.json"
        self.build_report = workdir / "build.json"
        self.verify_report = workdir / "verify.json"
        self.env = None

    def setup(self) -> tuple[float, str | None]:
        """Generate, validate and write the instance; returns (seconds, problem)."""
        from boxspan import files, generators, geometry

        t0 = time.perf_counter()
        try:
            env = generators.random_instance(self.cfg)
            violations = geometry.validate_environment(env)
            files.save_instance(str(self.instance), env)
        except (ValueError, RuntimeError, OSError) as exc:
            return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if violations:
            return elapsed, f"invalid instance: {violations[:3]}"
        if self.env is not None and env != self.env:
            return elapsed, "the same seed generated another instance"
        self.env = env
        return elapsed, None

    def obstacle_arrays(self):
        import numpy as np

        lo = np.array([b.lo.as_tuple() for b in self.env.obstacles], dtype=float)
        hi = np.array([b.hi.as_tuple() for b in self.env.obstacles], dtype=float)
        return lo.reshape(-1, 3), hi.reshape(-1, 3)

    def build_argv(self) -> list[str]:
        return ["build", "--in", str(self.instance), "--out", str(self.graph),
                "--report", str(self.build_report)]

    def verify_argv(self) -> list[str]:
        return ["verify", "--instance", str(self.instance), "--graph", str(self.graph),
                "--detour-samples", str(DETOUR_SAMPLES), "--seed", str(self.seed),
                "--report", str(self.verify_report)]

    def check_build(self) -> tuple[str | None, dict]:
        """Edge budget, edge-list digest and size of what one build wrote."""
        try:
            with open(self.build_report) as fh:
                report = json.load(fh)
            budget = 6 * sum(report["pair_size_sums"].values())
            if report["edge_count"] > budget:
                return f"edge budget broken: {report['edge_count']} > {budget}", {}
            return None, {"edge_count": report["edge_count"],
                          "digest": edge_digest(self.graph),
                          "graph_bytes": self.graph.stat().st_size}
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return f"unreadable build output: {exc!r}", {}

    def check_verify(self) -> tuple[str | None, dict]:
        """Via-sample passes and the bounds flag of what one verify wrote."""
        try:
            with open(self.verify_report) as fh:
                report = json.load(fh)
            samples, passes = report["detour_samples"], report["detour_passes"]
            if samples != DETOUR_SAMPLES or passes < samples:
                return f"via samples passed {passes}/{samples} of {DETOUR_SAMPLES}", {}
            if report["bounds_hold"] is not True:
                return "bounds_hold is not true", {}
            return None, {"max_stretch": report["max_stretch_l1"]}
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return f"unreadable verify output: {exc!r}", {}


def spot_check(env, seed: int) -> str | None:
    """Engine against the fine-lattice oracle on a few seeded pairs.

    Sources are visited in a seeded order.  Pairs with sigma > L1 are taken
    first, then pairs whose box meets an obstacle.  The oracle ladder must be
    non-increasing, the engine at most the finest oracle plus 1e-9 and within
    6 resolutions of it.  Without obstacles, every distance from two seeded
    sources must equal L1 exactly.
    """
    import numpy as np
    from boxspan.geodesic import GeodesicSolver, oracle_fine_grid_distance
    from boxspan.geometry import points_array

    solver = GeodesicSolver(env)
    pts = points_array(env.points)
    order = np.random.default_rng([seed, 6]).permutation(env.n)
    if not env.obstacles:
        for i in order[:2]:
            sigma = solver.distances_from(env.points[i], env.points)
            if not np.array_equal(sigma, np.abs(pts - pts[i]).sum(axis=1)):
                return f"sigma differs from L1 from source {i} without obstacles"
        return None
    lo = np.array([b.lo.as_tuple() for b in env.obstacles])
    hi = np.array([b.hi.as_tuple() for b in env.obstacles])
    detours: list[tuple[int, int]] = []
    blocked: list[tuple[int, int]] = []
    for i in order[:64]:
        sigma = solver.distances_from(env.points[i], env.points)
        l1 = np.abs(pts - pts[i]).sum(axis=1)
        detours += [(int(i), int(j)) for j in np.nonzero(sigma > l1)[0]]
        if len(detours) >= SPOT_PAIRS:
            break
        blo, bhi = np.minimum(pts, pts[i]), np.maximum(pts, pts[i])
        meets = ((lo[:, None] < bhi) & (hi[:, None] > blo)).all(axis=2).any(axis=0)
        blocked += [(int(i), int(j)) for j in np.nonzero(meets)[0]]
    for i, j in (detours + blocked)[:SPOT_PAIRS]:
        p, q = env.points[i], env.points[j]
        engine = solver.distance(p, q)
        ladder = [oracle_fine_grid_distance(env, p, q, r) for r in ORACLE_RESOLUTIONS]
        if not ladder[0] >= ladder[1] - 1e-12 >= ladder[2] - 2e-12:
            return f"oracle ladder rises on pair ({i},{j}): {ladder}"
        if engine > ladder[-1] + 1e-9:
            return f"engine {engine} above oracle {ladder[-1]} on pair ({i},{j})"
        if ladder[-1] - engine > 6 * ORACLE_RESOLUTIONS[-1]:
            return f"engine {engine} and oracle {ladder[-1]} too far apart on pair ({i},{j})"
    return None


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
            spec: dict | None = None) -> dict:
    """One benchmark run in ``workdir``; returns the result object and run facts.

    Each step takes one instance through set-up, build and verify; steps
    cycle over the batch until the next step would end after ``seconds``.
    With ``trace`` every second pass is traced, and the run ends only after
    a whole pass.
    """
    spec = WORKLOADS[name] if spec is None else spec
    batch = [Instance(instance_seed(seed, k), spec["params"], workdir / str(k))
             for k in range(spec["instances"])]
    K = len(batch)
    attempted, notes = 0, []

    def record(kind: str, k: int, problem: str | None) -> bool:
        nonlocal attempted
        attempted += 1
        if problem is not None:
            notes.append(f"{kind} of instance {k} (seed {batch[k].seed}): {problem}")
        return problem is None

    times = {key: [[] for _ in range(K)] for key in ("setup", "build", "verify", "traced")}
    facts: list[dict] = [{} for _ in range(K)]
    layers: list[dict] = []
    tracer = None
    deadline = time.perf_counter() + seconds
    step = 0
    while not notes:
        k, traced = step % K, trace and (step // K) % 2 == 1
        step_start = time.perf_counter()
        if k == 0:
            pass_start = step_start
        if traced:
            from tracing import Tracer, instrument

            if k == 0:
                tracer = Tracer()

        @contextlib.contextmanager
        def stage(command: str):
            """Run one command of the step, inside a command span when traced."""
            if not traced:
                yield
                return
            with instrument(tracer), tracer.span_command(command, k):
                yield

        with stage("setup"):
            setups = [batch[k].setup() for _ in range(1 if traced else SETUP_REPEATS)]
        if not all([record("generate", k, problem) for _, problem in setups]):
            break
        with stage("build"):
            tb, problem = run_cli(batch[k].build_argv())
        problem, built = batch[k].check_build() if problem is None else (problem, {})
        if not record("build", k, problem):
            break
        with stage("verify"):
            tv, problem = run_cli(batch[k].verify_argv())
        problem, verified = batch[k].check_verify() if problem is None else (problem, {})
        if not record("verify", k, problem):
            break
        for key, value in {**built, **verified}.items():
            if facts[k].setdefault(key, value) != value:
                notes.append(f"{key} of instance {k} differs between passes")
        if traced:
            times["traced"][k].append(tb + tv)
            if k == K - 1:
                from tracing import layer_metrics

                layers.append(layer_metrics(
                    tracer, [inst.obstacle_arrays() + (inst.env.n,) for inst in batch],
                    sum(f["edge_count"] for f in facts), sum(f["graph_bytes"] for f in facts)))
        else:
            times["setup"][k] += [elapsed for elapsed, _ in setups]
            times["build"][k].append(tb)
            times["verify"][k].append(tv)
        step += 1
        # Stop when the next step (the next pass, when tracing) would overrun.
        now = time.perf_counter()
        if all(times["build"]) and (not trace or all(times["traced"])):
            if not trace and now + (now - step_start) > deadline:
                break
            if trace and k == K - 1 and now + (now - pass_start) > deadline:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if not notes:
        problem = spot_check(batch[0].env, batch[0].seed)
        if problem is not None:
            notes.append(f"verify of instance 0: spot check: {problem}")
    failed = len(notes)

    def batch_total(key: str) -> float:
        """Per instance the median over its passes, summed over the batch."""
        return sum(statistics.median(v) for v in times[key] if v)

    if trace:
        metrics = {key: statistics.median(m[key] for m in layers)
                   for key in (layers[0] if layers else {})}
        if layers:
            metrics["trace.overhead_ratio"] = batch_total("traced") / (
                batch_total("build") + batch_total("verify"))
        from tracing import unit_of

        units = {key: unit_of(key) for key in metrics}
    else:
        stretches = [f["max_stretch"] for f in facts if "max_stretch" in f]
        metrics = {
            "setup_s": batch_total("setup"),
            "build_s": batch_total("build"),
            "verify_s": batch_total("verify"),
            "peak_rss_mb": peak_rss_mb,
            "edge_count": sum(f.get("edge_count", 0) for f in facts),
            # Mean over the batch of each instance's maximum stretch: the
            # maximum of one instance varies too much from seed to seed.
            "max_stretch": statistics.fmean(stretches) if stretches else 0.0,
        }
        units = E2E_UNITS
    digest = hashlib.sha256("".join(f.get("digest", "-") for f in facts).encode()).hexdigest()
    return {
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
        "notes": notes,
        "digest": digest,
        "passes": step / K,
        "tracer": tracer,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for pool in THREAD_POOLS:  # before numpy is first imported
        os.environ[pool] = "1"
    try:
        import_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = run["result"]
    if run["tracer"] is not None:
        span_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
        run["tracer"].write(str(span_path))
        print(f"spans written to {span_path.relative_to(ROOT)}")
    for note in run["notes"]:
        print(f"FAILED {note}")
    print(f"workload {args.workload} seed {args.seed} passes {run['passes']:.2f}")
    print(f"edge_digest {run['digest']}")
    for key, metric in result["metrics"].items():
        print(f"{key:<42} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{'attempted':<42} {result['attempted']:>16d}")
    print(f"{'failed':<42} {result['failed']:>16d}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
