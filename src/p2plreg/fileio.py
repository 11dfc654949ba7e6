"""File formats: ascii PLY and XYZN clouds, gt.txt transforms, weight and score CSVs.

Numbers in cloud files are written with 9 significant digits, which is
enough for the 1e-6 acceptance tolerances and makes save/load/save
round-trips byte-identical. Ground-truth transforms use 17 significant
digits so they survive a reload at 1e-12.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from .cloud import PointCloud
from .geometry import RigidTransform

FLOAT_FMT = "%.9g"
EXACT_FMT = "%.17g"


class ParseError(ValueError):
    """Malformed input file; carries the 1-based offending line number and
    the file's path once the reader has named it."""

    def __init__(self, message: str, line: int, path=None):
        where = f"line {line}" if path is None else f"{path}: line {line}"
        super().__init__(f"{where}: {message}")
        self.message = message
        self.line = line
        self.path = path


@contextmanager
def _naming(path):
    """Name ``path`` in each ValueError its reader raises: a ``ParseError``
    keeps its line, any other gets the path in front. OSError names it already."""
    try:
        yield
    except ParseError as exc:
        raise ParseError(exc.message, exc.line, path) from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _format_row(values) -> str:
    return " ".join(FLOAT_FMT % v for v in values)


def save(path, cloud: PointCloud) -> None:
    """Write a cloud as PLY or XYZN, chosen by the file extension."""
    path = Path(path)
    if path.suffix.lower() == ".ply":
        _save_ply(path, cloud)
    else:
        _save_xyzn(path, cloud)


def load(path) -> PointCloud:
    """Read a PLY or XYZN cloud, chosen by the file extension."""
    with _naming(path):
        file = Path(path)
        if file.suffix.lower() == ".ply":
            return _load_ply(file)
        return _load_xyzn(file)


def _save_ply(path: Path, cloud: PointCloud) -> None:
    n = len(cloud)
    lines = [
        "ply",
        "format ascii 1.0",
        f"element vertex {n}",
        "property float x",
        "property float y",
        "property float z",
    ]
    if cloud.has_normals:
        lines += ["property float nx", "property float ny", "property float nz"]
    lines.append("end_header")
    if cloud.has_normals:
        data = np.hstack([cloud.positions, cloud.normals])
    else:
        data = cloud.positions
    lines += [_format_row(row) for row in data]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _load_ply(path: Path) -> PointCloud:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].strip() != "ply":
        raise ParseError("missing 'ply' magic", 1)
    n_vertex: int | None = None
    properties: list[str] = []
    body_start = None
    in_vertex_element = False
    for i, raw in enumerate(lines[1:], start=2):
        tokens = raw.split()
        if not tokens or tokens[0] == "comment":
            continue
        if tokens[0] == "format":
            if tokens[1:] != ["ascii", "1.0"]:
                raise ParseError("only 'format ascii 1.0' is supported", i)
        elif tokens[0] == "element":
            if len(tokens) != 3:
                raise ParseError("malformed element declaration", i)
            try:
                count = int(tokens[2])
            except ValueError:
                raise ParseError(f"{tokens[1]} count is not an integer", i) from None
            in_vertex_element = tokens[1] == "vertex"
            if in_vertex_element:
                n_vertex = count
            elif count != 0:
                raise ParseError(f"unsupported non-empty element '{tokens[1]}'", i)
        elif tokens[0] == "property":
            if in_vertex_element:
                if len(tokens) != 3 or tokens[1] not in ("float", "double", "float32", "float64"):
                    raise ParseError("unsupported vertex property", i)
                properties.append(tokens[2])
        elif tokens[0] == "end_header":
            body_start = i
            break
        else:
            raise ParseError(f"unexpected header token '{tokens[0]}'", i)
    if body_start is None:
        raise ParseError("missing end_header", len(lines))
    if n_vertex is None:
        raise ParseError("missing 'element vertex' declaration", body_start)
    has_pos = properties[:3] == ["x", "y", "z"]
    if not has_pos:
        raise ParseError("vertex properties must start with x y z", body_start)
    has_normals = properties[3:6] == ["nx", "ny", "nz"]
    width = len(properties)

    body = lines[body_start:]
    data = _numeric_rows(body, width, body_start + 1)
    count = len(data)
    if count != n_vertex:
        raise ParseError(
            f"header declares {n_vertex} vertices but body has {count}",
            body_start + 1 + len(body),
        )
    normals = data[:, 3:6] if has_normals else None
    return PointCloud(data[:, :3], normals)


def _save_xyzn(path: Path, cloud: PointCloud) -> None:
    normals = cloud.require_normals()
    data = np.hstack([cloud.positions, normals])
    text = "\n".join(_format_row(row) for row in data)
    path.write_text(text + "\n", encoding="utf-8")


def _numeric_rows(
    lines: list[str], width: int, first: int = 1, sep: str | None = None
) -> NDArray[np.float64]:
    """(rows, width) floats from text lines, skipping blank lines.

    Values are split on ``sep`` (whitespace when None). ``first`` is the
    file's line number of ``lines[0]``; errors report the line number of the
    offending line. The lines are parsed in one pass (``_fast_rows``); when
    that pass declines them, ``_checked_rows``, the only path that raises
    ``ParseError``, reads them one at a time.
    """
    data = _fast_rows(lines, width, sep)
    return _checked_rows(lines, width, first, sep) if data is None else data


def _fast_rows(lines, width, sep) -> NDArray[np.float64] | None:
    """``_numeric_rows`` in one ``np.loadtxt`` pass, or None to decline.

    loadtxt reads a number to the same float as ``float`` does but accepts
    fewer spellings (not ``1_0``, for one), so it declines on any parse
    failure and on a width other than ``width``, and never accepts a line
    that ``_checked_rows`` rejects. Input with no data is declined too, as
    loadtxt warns on it.
    """
    if not any(map(str.strip, lines)):
        return None
    try:
        data = np.loadtxt(lines, dtype=np.float64, ndmin=2, comments=None, delimiter=sep)
    except ValueError:
        return None
    return data if data.shape[1] == width else None


def _checked_rows(lines, width, first, sep) -> NDArray[np.float64]:
    """``_numeric_rows`` one line at a time through ``float``, raising
    ``ParseError`` at the first bad line."""
    rows = []
    for i, raw in enumerate(lines, start=first):
        if not raw.strip():
            continue
        values = raw.split(sep)
        if len(values) != width:
            raise ParseError(f"expected {width} values per line, found {len(values)}", i)
        try:
            rows.append([float(v) for v in values])
        except ValueError:
            raise ParseError("non-numeric value", i) from None
    return np.array(rows, dtype=np.float64).reshape(len(rows), width)


def _load_xyzn(path: Path) -> PointCloud:
    data = _numeric_rows(path.read_text(encoding="utf-8").splitlines(), 6)
    if len(data) == 0:
        raise ParseError("empty cloud file", 1)
    return PointCloud(data[:, :3], data[:, 3:6])


def save_transform(path, t: RigidTransform) -> None:
    """Write a transform as 3 lines of 4 floats, row-major [R | t]."""
    rows = np.hstack([t.rotation, t.translation.reshape(3, 1)])
    text = "\n".join(" ".join(EXACT_FMT % v for v in row) for row in rows)
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_transform(path) -> RigidTransform:
    with _naming(path):
        m = _numeric_rows(Path(path).read_text(encoding="utf-8").splitlines(), 4)
        if len(m) != 3:
            raise ParseError(f"expected 3 rows, found {len(m)}", len(m) + 1)
        return RigidTransform(m[:, :3], m[:, 3])


def load_weights(path) -> NDArray[np.float64]:
    """(N,) per-source reliabilities from a header-free CSV of one column."""
    with _naming(path):
        return _numeric_rows(Path(path).read_text(encoding="utf-8").splitlines(), 1, sep=",")[:, 0]


def load_scores_csv(path) -> NDArray[np.float64]:
    """Header-free CSV of N rows and M columns of assignment scores.

    M is the width of the first non-blank row; a row of another width or a
    non-numeric value raises ``ParseError`` with the path and line number.
    """
    with _naming(path):
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        first = next((raw for raw in lines if raw.strip()), None)
        if first is None:
            raise ParseError("empty scores file", 1)
        return _numeric_rows(lines, len(first.split(",")), sep=",")


def ensure_dir(path) -> Path:
    p = Path(path)
    os.makedirs(p, exist_ok=True)
    return p
