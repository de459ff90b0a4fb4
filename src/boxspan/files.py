"""JSON interchange formats for instances, graphs, and reports.

Instance files: ``{"points": [[x,y,z], ...], "obstacles": [{"lo": [...],
"hi": [...]}, ...]}``.  Graph files: ``{"n": int, "edges": [[i, j, weight],
...], "metric": "L1-geodesic"}`` with ``i < j``.  All writes are atomic
(temp file + rename).
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import os
import tempfile
from itertools import repeat
from typing import Any, Callable, Iterator, TextIO

import numpy as np

from .geometry import AxisBox, Environment, Point3
from .spanner import SpannerGraph

GRAPH_METRIC = "L1-geodesic"


class FormatError(ValueError):
    """A file does not match the expected schema."""


@contextlib.contextmanager
def _atomic_open(path: str) -> Iterator[TextIO]:
    """A text file that replaces ``path`` only once the block completes.  A
    temporary file that cannot be made raises an OSError naming ``path``."""
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@contextlib.contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector, and enable it again afterwards only
    if it was enabled before.  Parsing a graph file makes a few containers
    per edge, none of them in a cycle, and each full collection that their
    allocations set off would walk every tracked object of the process."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


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


# Items per block of save_instance and save_graph: each block is one
# str.join, so the writers hold one block's text at a time, never the whole file.
_WRITE_BLOCK = 1 << 12
# A point, and an obstacle, of an instance file as json.dump with indent=2 writes it.
_POINT_TEXT = "    [\n      {},\n      {},\n      {}\n    ]".format
_OBSTACLE_TEXT = ('    {{\n      "lo": [\n        {},\n        {},\n        {}\n      ],\n'
                  '      "hi": [\n        {},\n        {},\n        {}\n      ]\n    }}').format


def _write_items(fh: TextIO, values: list, width: int, text: Callable[..., str]) -> None:
    """Write the JSON list of the items that ``text`` makes of each ``width``
    consecutive values, a block of items at a time."""
    if not values:
        fh.write("[]")
        return
    fh.write("[\n")
    step = width * _WRITE_BLOCK
    for start in range(0, len(values), step):
        if start:
            fh.write(",\n")
        numbers = [float.__repr__(v) if type(v) is float else json.dumps(v)
                   for v in values[start:start + step]]
        fh.write(",\n".join(map(text, *(numbers[a::width] for a in range(width)))))
    fh.write("\n  ]")


def save_instance(path: str, env: Environment) -> None:
    """Write ``{"points": [[x, y, z], ...], "obstacles": [{"lo": [x, y, z],
    "hi": [x, y, z]}, ...]}`` byte for byte as ``write_json_atomic`` would.

    json's indenting encoder is pure Python and makes a write call per
    token, so the text is joined here, a block of items per write.  A
    coordinate whose type is float is written as ``float.__repr__`` writes
    it, any other (int, bool, a float subclass) as ``json.dumps`` does; one
    that json rejects raises TypeError before the file is opened.
    """
    points = [v for p in env.points for v in (p.x, p.y, p.z)]
    corners = [v for b in env.obstacles for c in (b.lo, b.hi) for v in (c.x, c.y, c.z)]
    for v in points + corners:
        if type(v) is not float:
            json.dumps(v)
    with _atomic_open(path) as fh:
        fh.write('{\n  "points": ')
        _write_items(fh, points, 3, _POINT_TEXT)
        fh.write(',\n  "obstacles": ')
        _write_items(fh, corners, 6, _OBSTACLE_TEXT)
        fh.write("\n}\n")


def _read_json(path: str) -> Any:
    """The JSON value in the file; FormatError, naming the file, if its text
    is not UTF-8 JSON."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise FormatError(f"{path}: {exc}") from None


def load_instance(path: str) -> Environment:
    data = _read_json(path)
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


_EDGE_SEP = "\n    ],\n"


def save_graph(path: str, graph: SpannerGraph) -> None:
    """Write ``{"n", "edges": [[i, j, weight], ...], "metric"}`` byte for
    byte as ``write_json_atomic`` would, the edges sorted by (i, j).

    json's indenting encoder is pure Python and several times slower, so the
    edges are written from their sorted columns, a block at a time: an edge
    is its i line and its j line, both from per-vertex strings, and the repr
    of its weight.  Weights must be floats (TypeError; only a dict store can
    hold anything else) and endpoints lie in 0..n-1 (ValueError); nothing is
    written otherwise.
    """
    n = graph.n
    if graph._edges is not None and not all(map(isinstance, graph._edges.values(),
                                                repeat(float))):
        raise TypeError("edge weights must be floats")
    i, j, w = graph.edge_columns()
    if len(i) and (min(i.min(), j.min()) < 0 or max(i.max(), j.max()) >= n):
        raise ValueError(f"edge endpoints must lie in 0..{n - 1}")
    # Unique keys, in the order sorted() puts (i, j).  The stable argsort is
    # the one build_cspd already runs: the default quicksort's code adds
    # about 0.3 MB to the process's peak RSS.
    order = np.argsort(i * n + j, kind="stable")
    i_lines = [f"    [\n      {v},\n      " for v in range(n)]
    j_lines = [f"{v},\n      " for v in range(n)]
    with _atomic_open(path) as fh:
        fh.write(f'{{\n  "n": {n},\n  "edges": ')
        if len(order):
            fh.write("[\n")
            for start in range(0, len(order), _WRITE_BLOCK):
                if start:
                    fh.write(_EDGE_SEP)
                k = order[start:start + _WRITE_BLOCK]
                text = _EDGE_SEP.join(map("".join, zip(map(i_lines.__getitem__, i[k].tolist()),
                                                          map(j_lines.__getitem__, j[k].tolist()),
                                                          map(float.__repr__, w[k].tolist()))))
                # repr writes inf and nan where json writes Infinity and NaN;
                # nothing else in the text contains either word
                fh.write(text.replace("inf", "Infinity").replace("nan", "NaN"))
            fh.write("\n    ]\n  ],\n")
        else:
            fh.write("[],\n")
        fh.write(f'  "metric": {json.dumps(GRAPH_METRIC)}\n}}\n')


@_collector_paused()
def load_graph(path: str) -> SpannerGraph:
    """Read a graph file; raise FormatError unless ``n`` and every endpoint
    are (non-boolean) integers, every weight is a finite positive number, and
    ``edges`` and ``metric`` (:data:`GRAPH_METRIC`) are present.

    The checks test ``type(v) is int``, which is exact for ``json.load``
    output: ``bool`` is a type of its own.  The cyclic collector is paused
    while the file is parsed and checked.  The graph holds the edges as its
    (i, j, w) columns, in file order.
    """
    data = _read_json(path)
    if not isinstance(data, dict) or type(data.get("n")) is not int:
        raise FormatError("graph file must be an object with an integer 'n'")
    if not isinstance(data.get("edges"), list):
        raise FormatError("graph 'edges' must be a list")
    n = data["n"]
    seen, ends_i, ends_j, weights = set(), [], [], []
    for entry in data["edges"]:
        if type(entry) is not list or len(entry) != 3:
            raise FormatError(f"edge must be [i, j, weight], got {entry!r}")
        i, j, w = entry
        if type(i) is not int or type(j) is not int:
            raise FormatError(f"edge endpoints must be integers, got {entry!r}")
        if not 0 <= i < j < n:
            raise FormatError(f"edge ({i},{j}) out of range or not i < j for n={n}")
        if type(w) is not float:
            if type(w) is not int:
                raise FormatError(f"edge ({i},{j}) weight must be a number, got {w!r}")
            try:
                w = float(w)
            except OverflowError:
                w = math.inf
        if not 0 < w < math.inf:
            raise FormatError(f"edge ({i},{j}) must have finite positive weight, got {w}")
        key = i * n + j
        if key in seen:
            raise FormatError(f"duplicate edge ({i},{j})")
        seen.add(key)
        ends_i.append(i)
        ends_j.append(j)
        weights.append(w)
    try:
        ends = np.array(ends_i, dtype=np.int64), np.array(ends_j, dtype=np.int64)
    except OverflowError:
        raise FormatError(f"edge endpoints must be below 2**63, got n={n}") from None
    if data.get("metric") != GRAPH_METRIC:
        raise FormatError(f"graph 'metric' must be {GRAPH_METRIC!r}, got {data.get('metric')!r}")
    return SpannerGraph(n, columns=(*ends, np.array(weights)))
