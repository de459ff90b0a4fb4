"""In-memory spans around the public call boundaries of the boxspan layers.

A traced command runs with each boundary in ``BOUNDARIES`` replaced by a
wrapper that records one span: name, start, end, parent span and command id.
Nothing inside a span is read beyond its arguments and its return value.
Geodesic queries are classified after the run from (p, q, sigma) with the
benchmark's own numpy code, so classifying costs no time inside any span.

Spans are stored column by column, and records hold only numbers, strings
and tuples of them.  Hundreds of thousands of per-span objects that the
garbage collector must track would otherwise slow the traced program by a
third on the ``open`` workload.

Untraced runs never call :func:`instrument`, so they execute the package
exactly as shipped.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

import numpy as np

import boxspan.cli as cli
import boxspan.files as files
import boxspan.generators as generators
import boxspan.geodesic as geodesic
import boxspan.geometry as geometry
import boxspan.spanner as spanner
import boxspan.verification as verification

# Relative slack for "sigma equals L1": a grid path sums its steps in another
# order than the L1 formula, which may move the last bit.
L1_REL_TOL = 1e-12


def _distance_record(args, result):
    return (args[1].as_tuple(), args[2].as_tuple(), float(result))


def _targets_record(args, result):
    return len(args[2])


def _cspd_record(args, result):
    return (len(result.pairs), result.size_sum)


def _apex_interior_record(args, result):
    return result[0] != args[0].apex


# (owner, attribute, span name, record).  A name imported with
# ``from .x import f`` is patched in the module that looks it up, so the
# owner is the caller's module while the span name is the callee's layer.
BOUNDARIES = (
    (generators, "random_instance", "generators.random_instance", None),
    (geometry, "validate_environment", "geometry.validate_environment", None),
    (cli, "validate_environment", "geometry.validate_environment", None),
    (files, "save_instance", "files.save_instance", None),
    (files, "load_instance", "files.load_instance", None),
    (files, "save_graph", "files.save_graph", None),
    (files, "load_graph", "files.load_graph", None),
    (cli, "build_spanner", "spanner.build_spanner", None),
    (spanner, "build_cspd", "cspd.build_cspd", _cspd_record),
    (spanner, "candidate_points", "spanner.candidate_points", _apex_interior_record),
    (spanner, "select_center", "spanner.select_center", None),
    (cli, "spanning_ratio", "verification.spanning_ratio", None),
    (verification, "dijkstra", "verification.apsp", None),
    (cli, "norm_conversion_check", "verification.norm_check", None),
    (geodesic.GeodesicSolver, "distance", "geodesic.distance", _distance_record),
    (geodesic.GeodesicSolver, "distances_from", "geodesic.distances_from",
     _targets_record),
)


class Tracer:
    """Span store: span k is (name, start, end, parent, command, record)[k].

    ``parent`` is the index of the enclosing span, -1 for a command span.
    A command span's record is the index of the instance it ran on.
    """

    def __init__(self) -> None:
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.command: list[str | None] = []
        self.record: list = []
        self._stack: list[int] = []
        self._command: str | None = None

    def __len__(self) -> int:
        return len(self.name)

    def _open(self, name: str) -> int:
        k = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.command.append(self._command)
        self.record.append(None)
        self.end.append(0.0)
        self._stack.append(k)
        self.start.append(time.perf_counter())
        return k

    def _close(self, k: int) -> None:
        self.end[k] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, record=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            k = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(k)
            if record is not None:
                self.record[k] = record(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def span_command(self, command: str, instance: int):
        """Top-level span ``cli.<command>``; spans opened inside carry ``command``."""
        self._command = command
        k = self._open(f"cli.{command}")
        self.record[k] = instance
        try:
            yield
        finally:
            self._close(k)
            self._command = None

    def roots(self) -> list[int]:
        """Index of the command span above each span."""
        out: list[int] = []
        for k, parent in enumerate(self.parent):
            out.append(k if parent < 0 else out[parent])
        return out

    def write(self, path: str) -> None:
        instance = [self.record[r] for r in self.roots()]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "command", "instance"],
                       "spans": list(zip(self.name, self.start, self.end, self.parent,
                                         self.command, instance))}, fh)
            fh.write("\n")


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Patch every boundary in BOUNDARIES for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, record in BOUNDARIES:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, record))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.endswith(("ratio", "yield", "coverage")):
        return "ratio"
    if metric.endswith("bytes"):
        return "bytes"
    return "count"


def _classify(records: list, obs_lo: np.ndarray, obs_hi: np.ndarray) -> np.ndarray:
    """Outcome per (p, q, sigma): 0 box free, 1 obstructed but L1, 2 detour.

    Box free: no obstacle's open interior meets the closed box of p and q.
    Detour: sigma exceeds L1.  Obstructed L1: neither.
    """
    p = np.array([r[0] for r in records], dtype=float).reshape(-1, 3)
    q = np.array([r[1] for r in records], dtype=float).reshape(-1, 3)
    sigma = np.array([r[2] for r in records], dtype=float)
    l1 = np.abs(p - q).sum(axis=1)
    blocked = np.zeros(len(records), dtype=bool)
    lo, hi = np.minimum(p, q), np.maximum(p, q)
    for k in range(len(obs_lo)):
        blocked |= ((obs_lo[k] < hi) & (obs_hi[k] > lo)).all(axis=1)
    outcome = np.where(blocked, 1, 0)
    outcome[sigma > l1 * (1.0 + L1_REL_TOL)] = 2
    return outcome


def layer_metrics(t: Tracer, instances: list, edge_count: int,
                  graph_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass over a batch of instances.

    ``instances[k]`` is (obstacle lo corners, hi corners, point count) of the
    instance that command spans with record k ran on.  ``.s`` and ``.self_s``
    are self seconds (span time minus child spans), summed over the batch;
    ``cli.<command>.s`` is the whole command span.  Ratios are taken of the
    batch sums.
    """
    spans = range(len(t))
    dur = [e - s for s, e in zip(t.start, t.end)]
    self_s = list(dur)
    for k in spans:
        if t.parent[k] >= 0:
            self_s[t.parent[k]] -= dur[k]
    root = t.roots()

    count: dict[tuple, int] = defaultdict(int)
    secs: dict[tuple, float] = defaultdict(float)
    for k in spans:
        count[t.command[k], t.name[k]] += 1
        secs[t.command[k], t.name[k]] += self_s[k]

    def issuer(k: int) -> str:
        """Name of the nearest enclosing span outside the geodesic layer."""
        k = t.parent[k]
        while t.name[k].startswith("geodesic."):
            k = t.parent[k]
        return t.name[k]

    def named(name: str, command: str | None = None) -> list[int]:
        return [k for k in spans
                if t.name[k] == name and (command is None or t.command[k] == command)]

    out: dict[str, float] = {}
    decompositions = [t.record[k] for k in named("cspd.build_cspd")]
    pairs = sum(d[0] for d in decompositions)
    out["cspd.build_cspd.calls"] = count["build", "cspd.build_cspd"]
    out["cspd.build_cspd.s"] = secs["build", "cspd.build_cspd"]
    out["cspd.pairs"] = pairs
    out["cspd.size_sum"] = sum(d[1] for d in decompositions)

    weights = [k for k in named("geodesic.distance")
               if t.name[t.parent[k]] == "spanner.build_spanner"]
    out["spanner.build_spanner.self_s"] = secs["build", "spanner.build_spanner"]
    for name in ("select_center", "candidate_points"):
        out[f"spanner.{name}.calls"] = count["build", f"spanner.{name}"]
        out[f"spanner.{name}.s"] = secs["build", f"spanner.{name}"]
    out["spanner.edge_weights.calls"] = len(weights)
    out["spanner.edge_weights.s"] = sum(dur[k] for k in weights)
    out["spanner.edge_yield"] = edge_count / max(len(weights), 1)

    interior = sum(1 for k in named("spanner.candidate_points") if t.record[k])
    out["geometry.apex_interior"] = interior
    out["geometry.apex_interior_ratio"] = interior / max(pairs, 1)
    out["geometry.validate_environment.s"] = (secs["build", "geometry.validate_environment"]
                                              + secs["verify", "geometry.validate_environment"])

    sigma_gt_l1 = 0
    for cmd in ("build", "verify"):
        pre = f"{cmd}.geodesic"
        calls = named("geodesic.distance", cmd)
        # A command makes one solver, so "asked before" means within the command.
        seen: set = set()
        first: dict[int, list[int]] = defaultdict(list)
        for k in calls:
            p, q, _ = t.record[k]
            key = (root[k], min(p, q), max(p, q))
            if key not in seen:
                seen.add(key)
                first[t.record[root[k]]].append(k)
        outcome: dict[int, int] = {}
        for instance, ks in first.items():
            lo, hi, _ = instances[instance]
            outcome.update(zip(ks, _classify([t.record[k] for k in ks], lo, hi).tolist()))
        out[f"{pre}.distance.calls"] = len(calls)
        out[f"{pre}.distance.s"] = secs[cmd, "geodesic.distance"]
        out[f"{pre}.distances_from.calls"] = count[cmd, "geodesic.distances_from"]
        out[f"{pre}.distances_from.targets"] = sum(
            t.record[k] for k in named("geodesic.distances_from", cmd))
        out[f"{pre}.distances_from.s"] = secs[cmd, "geodesic.distances_from"]
        out[f"{pre}.repeat.n"] = len(calls) - len(outcome)
        for code, label in enumerate(("box_free", "obstructed_l1", "detour")):
            picked = [k for k, o in outcome.items() if o == code]
            out[f"{pre}.{label}.n"] = len(picked)
            out[f"{pre}.{label}.s"] = sum(dur[k] for k in picked)
        settled = out[f"{pre}.obstructed_l1.n"]
        out[f"{pre}.l1_settled_ratio"] = settled / max(settled + out[f"{pre}.detour.n"], 1)
        if cmd == "verify":
            sigma_gt_l1 = sum(1 for k, o in outcome.items()
                              if o == 2 and issuer(k) == "verification.spanning_ratio")

    via = [k for k in named("geodesic.distance", "verify") if issuer(k) == "cli.verify"]
    all_pairs = sum(n * (n - 1) // 2 for _, _, n in instances)
    out["verification.spanning_ratio.self_s"] = secs["verify", "verification.spanning_ratio"]
    out["verification.apsp.s"] = secs["verify", "verification.apsp"]
    out["verification.norm_check.s"] = secs["verify", "verification.norm_check"]
    out["verification.via_samples.n"] = len(via)
    out["verification.via_samples.s"] = sum(dur[k] for k in via)
    out["verification.sigma_gt_l1_ratio"] = sigma_gt_l1 / max(all_pairs, 1)

    out["generators.random_instance.s"] = secs["setup", "generators.random_instance"]
    out["files.save_instance.s"] = secs["setup", "files.save_instance"]
    out["files.load_instance.s"] = (secs["build", "files.load_instance"]
                                    + secs["verify", "files.load_instance"])
    out["files.save_graph.s"] = secs["build", "files.save_graph"]
    out["files.load_graph.s"] = secs["verify", "files.load_graph"]
    out["files.graph_bytes"] = graph_bytes

    for cmd in ("build", "verify"):
        top = named(f"cli.{cmd}")
        out[f"cli.{cmd}.s"] = sum(dur[k] for k in top)
        out[f"trace.{cmd}.coverage"] = 1.0 - sum(self_s[k] for k in top) / max(
            out[f"cli.{cmd}.s"], 1e-12)
    return out
