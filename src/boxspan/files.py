"""JSON interchange formats for instances, graphs, and reports.

Instance files: ``{"points": [[x,y,z], ...], "obstacles": [{"lo": [...],
"hi": [...]}, ...]}``.  Graph files: ``{"n": int, "edges": [[i, j, weight],
...], "metric": "L1-geodesic"}`` with ``i < j``.  All writes are atomic
(temp file + rename).
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import tempfile
from typing import Any, Iterator, TextIO

from .geometry import AxisBox, Environment, Point3
from .spanner import SpannerGraph

GRAPH_METRIC = "L1-geodesic"


class FormatError(ValueError):
    """A file does not match the expected schema."""


@contextlib.contextmanager
def _atomic_open(path: str) -> Iterator[TextIO]:
    """A text file that replaces ``path`` only once the block completes."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path: str, payload: Any) -> None:
    with _atomic_open(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _triple(value: Any, what: str) -> tuple[float, float, float]:
    if (not isinstance(value, list) or len(value) != 3
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)):
        raise FormatError(f"{what} must be a list of 3 numbers, got {value!r}")
    try:
        return (float(value[0]), float(value[1]), float(value[2]))
    except OverflowError:
        raise FormatError(f"instance coordinates overflow: a {what} has an integer "
                          "coordinate too large for a float") from None


def save_instance(path: str, env: Environment) -> None:
    payload = {
        "points": [[p.x, p.y, p.z] for p in env.points],
        "obstacles": [{"lo": [b.lo.x, b.lo.y, b.lo.z], "hi": [b.hi.x, b.hi.y, b.hi.z]}
                      for b in env.obstacles],
    }
    write_json_atomic(path, payload)


def load_instance(path: str) -> Environment:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or not isinstance(data.get("points"), list):
        raise FormatError("instance file must be an object with a 'points' list")
    if not isinstance(data.get("obstacles", []), list):
        raise FormatError("instance 'obstacles' must be a list")
    try:
        points = [Point3(*_triple(p, "point")) for p in data["points"]]
        obstacles = []
        for entry in data.get("obstacles", []):
            if not isinstance(entry, dict) or "lo" not in entry or "hi" not in entry:
                raise FormatError("each obstacle needs 'lo' and 'hi' corners")
            obstacles.append(AxisBox(Point3(*_triple(entry["lo"], "obstacle corner")),
                                     Point3(*_triple(entry["hi"], "obstacle corner"))))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    return Environment(obstacles, points)


def _json_number(w: float) -> str:
    """A float as ``json.dump`` writes it."""
    if math.isfinite(w):
        return float.__repr__(w)
    return "NaN" if w != w else ("Infinity" if w > 0 else "-Infinity")


def _graph_chunks(graph: SpannerGraph) -> Iterator[str]:
    """The graph payload as ``write_json_atomic`` writes it, edge by edge:
    json's indenting encoder is pure Python and several times slower."""
    yield f'{{\n  "n": {graph.n},\n  "edges": '
    edges = graph.edge_list()
    if edges:
        sep = "[\n"
        for i, j, w in edges:
            yield f"{sep}    [\n      {i},\n      {j},\n      {_json_number(w)}\n    ]"
            sep = ",\n"
        yield "\n  ],\n"
    else:
        yield "[],\n"
    yield f'  "metric": {json.dumps(GRAPH_METRIC)}\n}}\n'


def save_graph(path: str, graph: SpannerGraph) -> None:
    """Write ``{"n", "edges": [[i, j, weight], ...], "metric"}`` byte for
    byte as ``write_json_atomic`` would."""
    with _atomic_open(path) as fh:
        fh.writelines(_graph_chunks(graph))


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def load_graph(path: str) -> SpannerGraph:
    """Read a graph file; raise FormatError unless ``n`` and every endpoint
    are (non-boolean) integers and every weight is a finite positive number."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or not _is_int(data.get("n")):
        raise FormatError("graph file must be an object with an integer 'n'")
    if not isinstance(data.get("edges", []), list):
        raise FormatError("graph 'edges' must be a list")
    n = data["n"]
    graph = SpannerGraph(n=n)
    for entry in data.get("edges", []):
        if not isinstance(entry, list) or len(entry) != 3:
            raise FormatError(f"edge must be [i, j, weight], got {entry!r}")
        i, j, w = entry
        if not _is_int(i) or not _is_int(j):
            raise FormatError(f"edge endpoints must be integers, got {entry!r}")
        if not 0 <= i < j < n:
            raise FormatError(f"edge ({i},{j}) out of range or not i < j for n={n}")
        if not isinstance(w, (int, float)) or isinstance(w, bool):
            raise FormatError(f"edge ({i},{j}) weight must be a number, got {w!r}")
        try:
            w = float(w)
        except OverflowError:
            w = math.inf
        if not (w > 0 and math.isfinite(w)):
            raise FormatError(f"edge ({i},{j}) must have finite positive weight, got {w}")
        if (i, j) in graph.edges:
            raise FormatError(f"duplicate edge ({i},{j})")
        graph.edges[(i, j)] = w
    return graph
