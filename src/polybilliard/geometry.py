"""Geometric core: labeled convex polyhedra, mirror reflection, ray casting.

Everything is float64 with explicit tolerances (no exact arithmetic kernel).
A cast reports its hit's distance to the boundary of the hit face, so callers
can treat a hit too close to an edge or vertex as singular instead of
silently continuing along an unreliable orbit.
"""

from __future__ import annotations

import math
import numbers
import operator
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np


class PreconditionFailed(ValueError):
    """A caller's input breaks a documented precondition of the package."""


class NonConvex(Exception):
    """Some vertex lies strictly outside a face plane."""


class OpenSurface(Exception):
    """An edge is not shared by exactly two faces."""


class DegenerateFace(Exception):
    """A face polygon is collinear, non-convex as a polygon, non-planar, or
    coplanar with a face that shares an edge with it."""


class LabelNotReachable(PreconditionFailed):
    """A face label is unknown, or cannot extend a beam's word."""


@dataclass(frozen=True)
class Tolerances:
    """The two lengths the library's verdicts read, settable per solid;
    each must be finite and positive.

    plane : point-on-plane and edge/vertex hit classification
    sing  : near-singular flag radius around edges (non-terminal)
    """

    plane: float = 1e-9
    sing: float = 1e-7

    def __post_init__(self):
        for name, value in vars(self).items():
            # a bool is a numbers.Real, and True would act as 1.0
            if not (isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))
                    and 0.0 < value < math.inf):
                raise PreconditionFailed(f"tolerance {name} must be finite and positive, "
                                         f"got {value!r}")


DEFAULT_TOL = Tolerances()
ANGLE = 1e-9        # tangency threshold on <theta, normal>: a cosine, so it needs no scale


# ---------------------------------------------------------------------------
# small vector helpers
# ---------------------------------------------------------------------------

def vec3(x) -> np.ndarray:
    try:
        v = np.asarray(x, dtype=float)
    except (TypeError, ValueError):             # a ragged list, a non-number
        raise PreconditionFailed(f"expected a 3-vector of numbers, got {x!r}") from None
    if v.shape != (3,):
        raise PreconditionFailed(f"expected a 3-vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise PreconditionFailed("non-finite coordinates")
    return v


def as_int(x, message: str) -> int:
    """``x`` as an int, for an integer of any type; any other ``x``, a bool
    too (``operator.index`` reads it as 0 or 1), raises
    :class:`PreconditionFailed` with ``message``."""
    try:
        return operator.index(None if isinstance(x, (bool, np.bool_)) else x)
    except TypeError:
        raise PreconditionFailed(message) from None


def as_count(x, name: str, least: int) -> int:
    """``x`` as an int, for an integer of any type that is at least
    ``least``; otherwise :class:`PreconditionFailed` names ``name``."""
    x = as_int(x, f"{name} must be an integer, got {x!r}")
    if x < least:
        raise PreconditionFailed(f"{name} must be >= {least}")
    return x


def unit(v) -> np.ndarray:
    """Normalize ``v``; raise if its norm is at most 1e-12."""
    v = vec3(v)
    n = math.sqrt(float(v @ v))     # np.linalg.norm's bits, without its wrapper
    if n <= 1e-12:
        raise PreconditionFailed("cannot normalize a zero vector")
    return v / n


def point_line_distance(q, p, x) -> float:
    """Distance from point ``q`` to the line through ``p`` with unit direction ``x``."""
    w = np.asarray(q, float) - p
    return float(np.linalg.norm(w - (w @ x) * x))


def line_line_distance(p1, x1, p2, x2) -> float:
    """Distance between two (infinite) lines given by point + unit direction."""
    n = np.cross(x1, x2)
    nn = float(np.linalg.norm(n))
    if nn < 1e-14:
        return point_line_distance(p2, p1, x1)
    return abs(float((p2 - p1) @ n)) / nn


def _newell_normal(pts: np.ndarray) -> np.ndarray:
    nxt = np.roll(pts, -1, axis=0)
    n = np.array([
        np.sum((pts[:, 1] - nxt[:, 1]) * (pts[:, 2] + nxt[:, 2])),
        np.sum((pts[:, 2] - nxt[:, 2]) * (pts[:, 0] + nxt[:, 0])),
        np.sum((pts[:, 0] - nxt[:, 0]) * (pts[:, 1] + nxt[:, 1])),
    ])
    return n


def tangent_frame(v: np.ndarray) -> np.ndarray:
    """Rows (t1, t2) completing the unit vector ``v`` to the orthonormal
    frame (t1, t2, v): t1 = unit(v x a) with a = e_x, or e_y when
    |v_0| >= 0.9, and t2 = v x t1."""
    a = (1.0, 0.0, 0.0) if abs(v[0]) < 0.9 else (0.0, 1.0, 0.0)
    v = v.tolist()
    t1 = unit(_cross(v, a)).tolist()
    return np.array([t1, _cross(v, t1)])


def _cross(a, b) -> list[float]:
    """``np.cross`` of two float 3-sequences, by its own formula in floats,
    so the same bits at a fraction of the cost."""
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

class Polyhedron:
    """Immutable convex polyhedron with labeled faces and its edge arrays.

    Construct through :func:`validate` (or the solid builders below), never
    directly; the constructor trusts its inputs and builds every per-solid
    table once, read-only, so instances are safe to share across threads.

    Face f is ``labels[f]``, its vertex-index cycle ``boundaries[f]``
    (counter-clockwise seen from inside), and its plane {x : <n, x> + c = 0}
    with ``normals[f]`` the unit inward n and ``offsets[f]`` the c.  Edge e
    joins vertices ``edge_endpoints[e]`` = (i, j), i < j, with the rows in
    sorted order, and is shared by the faces ``edge_faces[e]``.

    The edge distance, (F, F), for hit face f and face g: ``inv_sin`` is
    1 / sin of the angle between their normals where they share an edge,
    else nan.  For q in f's plane, s_g(q) / sin is the signed distance
    within that plane to the line of f∩g (s_g: signed distance to plane g),
    positive on f's side, so the least ``s_g(q) * inv_sin`` over the faces
    g across f's edges is q's distance to the boundary of f inside f, and
    negative outside it.  The table is symmetric, and the batch kernel
    relies on it: it reads column f as row f.  Scalar ``rows``, per face in
    Python floats: ``(nx, ny, nz, c, sides)``, its plane and, per edge by
    increasing id, the side row ``(ux, uy, uz, c', edge id)`` of the face g
    across it: <u, q> + c' = (s_g(q) - cos s_f(q)) / sin, which is s_g(q) /
    sin in f's plane and stays so as q moves along n_f (u is the unit
    normal of the edge in f's plane).  The reflection across face f is x ->
    ``reflection_linear[f] @ x + reflection_translation[f]``, and
    ``frames[f]`` has the orthonormal rows (t1, t2, n), n the inward normal.
    """

    def __init__(self, vertices: np.ndarray, labels: list[str],
                 boundaries: tuple[tuple[int, ...], ...], normals: np.ndarray,
                 offsets: np.ndarray, edge_endpoints: np.ndarray,
                 edge_faces: np.ndarray, tol: Tolerances):
        self.vertices, self.labels, self.boundaries = vertices, labels, boundaries
        N, c = self.normals, self.offsets = normals, offsets
        self.edge_endpoints, self.edge_faces = edge_endpoints, edge_faces
        self.tol = tol
        self._label_index = {lab: i for i, lab in enumerate(labels)}
        self._face_polys = [vertices[list(b)] for b in boundaries]

        fa, fb = edge_faces.T
        self.inv_sin = np.full((len(labels), len(labels)), np.nan)
        self.inv_sin[fa, fb] = self.inv_sin[fb, fa] = 1.0 / np.linalg.norm(
            np.cross(N[fa], N[fb]), axis=1)
        rows = []
        for f in range(len(labels)):
            sides = []
            for e in np.flatnonzero((edge_faces == f).any(axis=1)).tolist():
                g = int(edge_faces[e].sum()) - f            # the face across edge e
                cos = float(N[f] @ N[g])
                side = np.append(N[g] - cos * N[f], c[g] - cos * c[f]) * self.inv_sin[f, g]
                sides.append((*side.tolist(), e))
            rows.append((*N[f].tolist(), float(c[f]), tuple(sides)))
        self.rows = tuple(rows)
        # the reflection across each face plane: x - 2 (<n, x> + c) n
        self.reflection_linear = np.eye(3) - 2.0 * N[:, :, None] * N[:, None, :]
        self.reflection_translation = -2.0 * c[:, None] * N
        self.frames = np.array([np.vstack([tangent_frame(n), n]) for n in N])
        for a in (vertices, N, c, edge_endpoints, edge_faces, self.inv_sin, self.frames,
                  self.reflection_linear, self.reflection_translation, *self._face_polys):
            a.setflags(write=False)

    # -- queries ------------------------------------------------------------

    @property
    def n_faces(self) -> int:
        return len(self.labels)

    def face_index(self, label: str) -> int:
        try:
            return self._label_index[label]
        except KeyError:
            raise LabelNotReachable(f"unknown face label {label!r}") from None

    def face_id(self, f) -> int:
        """``f`` as a face id: an integer of any type in 0..F-1; a bool or
        any other ``f`` raises :class:`PreconditionFailed`."""
        f = as_int(f, f"face id {f!r} is not an integer")
        if not 0 <= f < self.n_faces:
            raise PreconditionFailed(f"face id {f} out of range 0..{self.n_faces - 1}")
        return f

    def face_ids(self, faces) -> np.ndarray:
        """``faces`` as a 1-D intp array of face ids.  An empty one may have
        any dtype; otherwise an array that is not 1-D or of an integer dtype,
        or an id outside 0..F-1, raises :class:`PreconditionFailed`."""
        ids = np.asarray(faces)
        if ids.ndim != 1 or (ids.size and ids.dtype.kind not in "iu"):
            raise PreconditionFailed(
                f"face ids must be a 1-D integer array, got {ids.dtype} of shape {ids.shape}")
        out = (ids < 0) | (ids >= self.n_faces)
        if out.any():
            raise PreconditionFailed(
                f"face id {ids[out][0]} out of range 0..{self.n_faces - 1}")
        return ids.astype(np.intp)

    def face_polygon(self, f: int) -> np.ndarray:
        return self._face_polys[f]

    def point_in_face(self, f: int, q) -> bool:
        """Is ``q`` (assumed on the face plane) inside face ``f``, or at
        most ``plane`` outside it?"""
        return self.nearest_edge(f, q)[0] >= -self.tol.plane

    def nearest_edge(self, f: int, q) -> tuple[float, int]:
        """The signed distance from ``q``, moved along the normal onto the
        plane of face ``f``, to the boundary of ``f``, and the id of the
        edge that attains it (the first one in a tie): the distance to the
        nearest edge inside the face, negative outside it.  It is the
        neighbour-plane distance of the side rows (see above), as
        :func:`_cast` takes it.  Rounding moves it by about 1e-15 *
        (|q| + |c_g|) * ``inv_sin[f, g]``, which :func:`validate` keeps
        under ``plane`` / 2: under 5e-13 at a dihedral 1e-3 from pi."""
        return _side_distance(self.rows[self.face_id(f)][4], *np.asarray(q, float).tolist())


def _side_distance(sides, qx: float, qy: float, qz: float) -> tuple[float, int]:
    """The least ``<u, q> + c'`` over a face's side rows ``(ux, uy, uz, c',
    edge id)`` (see :class:`Polyhedron`), and the edge id that attains it."""
    dist, edge = math.inf, -1
    for ux, uy, uz, c, e in sides:
        d = ux * qx + uy * qy + uz * qz + c
        if d < dist:
            dist, edge = d, e
    return dist, edge


def _check_edge_angles(V, labels, N, edge_faces, plane: float) -> None:
    """Raise :class:`DegenerateFace` for two faces that share an edge and are
    coplanar to within rounding: the distance to their edge rounds by about
    2e-15 * R / sin (R the largest vertex norm, which bounds |q| and every
    |c|), and that must stay under ``plane`` / 2.  Exactly coplanar faces
    (sin 0) are refused too, so ``Polyhedron.inv_sin`` is finite."""
    fa, fb = edge_faces.T
    sin = np.linalg.norm(np.cross(N[fa], N[fb]), axis=1)
    least = 4e-15 * float(np.linalg.norm(V, axis=1).max()) / plane
    bad = np.flatnonzero(sin < least)
    if bad.size:
        e = bad[0]
        raise DegenerateFace(f"faces {labels[fa[e]]!r} and {labels[fb[e]]!r} are coplanar "
                             f"to within rounding (sin {sin[e]:.3g} of their angle, "
                             f"under {least:.3g})")


# ---------------------------------------------------------------------------
# validation and file format
# ---------------------------------------------------------------------------

def validate(vertices, faces, tol: Tolerances | None = None) -> Polyhedron:
    """Build a :class:`Polyhedron` from raw vertex and face lists.

    ``faces`` entries are ``{"label": str, "vertices": [i, ...]}`` dicts or
    ``(label, indices)`` pairs; vertex indices are 0-based and each polygon
    must be convex and planar.  Normals are oriented inward and the edge
    arrays require every edge to be shared by exactly two faces.
    """
    tol = tol or DEFAULT_TOL
    try:
        V = np.array(vertices, dtype=float)    # a copy: the constructor freezes it
    except (TypeError, ValueError):            # ragged rows, non-numbers
        V = np.empty(0)
    if V.ndim != 2 or V.shape[1] != 3:
        raise PreconditionFailed("vertices must be an (N, 3) array of numbers")
    if not np.all(np.isfinite(V)):
        raise PreconditionFailed("vertex coordinates must be finite")
    if len(V) < 4:
        raise PreconditionFailed("a solid needs at least 4 vertices")

    if not isinstance(faces, Iterable):
        raise PreconditionFailed("faces must be a list")
    face_specs: list[tuple[str, list[int]]] = []
    for fs in faces:
        try:
            label, idx = (fs["label"], fs.get("vertices")) if isinstance(fs, dict) else fs
        except (KeyError, TypeError, ValueError):
            raise PreconditionFailed(f"face {fs!r} is no {{'label', 'vertices'}} dict "
                                     "or (label, indices) pair") from None
        if isinstance(idx, (str, bytes)) or not isinstance(idx, Iterable):
            raise PreconditionFailed(f"face {label!r}: vertex index list is missing or not a list")
        bad = f"face {label!r} has a non-integer vertex index"
        idx = [as_int(i, bad) for i in idx]
        if len(idx) < 3:
            raise PreconditionFailed(f"face {label!r} has fewer than 3 vertices")
        if len(set(idx)) != len(idx):
            raise PreconditionFailed(f"face {label!r} repeats a vertex")
        if min(idx) < 0 or max(idx) >= len(V):
            raise PreconditionFailed(f"face {label!r} has an out-of-range vertex index")
        face_specs.append((label, idx))
    if len(face_specs) < 4:
        raise PreconditionFailed("a solid needs at least 4 faces")
    labels = [lab for lab, _ in face_specs]
    if not all(isinstance(lab, str) and lab for lab in labels) or len(set(labels)) != len(labels):
        raise PreconditionFailed("face labels must be distinct non-empty strings")

    centroid = V.mean(axis=0)
    normals, offsets, boundaries = [], [], []
    for label, idx in face_specs:
        pts = V[idx]
        n = _newell_normal(pts)
        nn = float(np.linalg.norm(n))
        if nn <= 1e-12 * max(1.0, float(np.abs(pts).max()) ** 2):
            raise DegenerateFace(f"face {label!r} is collinear")
        n = n / nn
        c = -float(n @ pts.mean(axis=0))
        if float(n @ centroid) + c < 0.0:
            n, c = -n, -c
            idx = idx[::-1]
        normals.append(n)
        offsets.append(c)
        boundaries.append(tuple(idx))
    N, C = np.array(normals), np.array(offsets)

    # convexity first: a vertex pushed past another face's plane must report
    # NonConvex even though it also warps its own faces out of planarity
    for label, n, c in zip(labels, N, C):
        d = V @ n + c
        worst = float(d.min())
        if worst < -tol.plane:
            raise NonConvex(
                f"vertex {int(d.argmin())} lies {-worst:.3g} outside face {label!r}")

    for label, idx, n, c in zip(labels, boundaries, N, C):
        pts = V[list(idx)]
        dev = float(np.abs(pts @ n + c).max())
        if dev > max(tol.plane, 1e-12 * max(1.0, float(np.abs(pts).max()))):
            raise DegenerateFace(f"face {label!r} is not planar (deviation {dev:.3g})")
        edges_v = np.roll(pts, -1, axis=0) - pts
        turns = np.cross(edges_v, np.roll(edges_v, -1, axis=0)) @ n
        if np.any(turns < -tol.plane):
            raise DegenerateFace(f"face {label!r} polygon is not convex")

    edge_map: dict[tuple[int, int], list[int]] = {}
    for f, idx in enumerate(boundaries):
        for a in range(len(idx)):
            i, j = idx[a], idx[(a + 1) % len(idx)]
            edge_map.setdefault((min(i, j), max(i, j)), []).append(f)
    edges = sorted(edge_map.items())
    for (i, j), fs in edges:
        if len(fs) != 2:
            raise OpenSurface(f"edge ({i},{j}) belongs to {len(fs)} faces, expected 2")
    edge_endpoints, edge_faces = (np.array(a) for a in zip(*edges))
    _check_edge_angles(V, labels, N, edge_faces, tol.plane)
    return Polyhedron(V, labels, tuple(boundaries), N, C, edge_endpoints, edge_faces, tol)


def load_polyhedron(data: dict, tol: Tolerances | None = None) -> Polyhedron:
    """Build a polyhedron from the JSON format, parsed into a dict:

    ``{"vertices": [[x,y,z],...], "faces": [{"label": "a", "vertices": [...]}]}``
    with 0-based indices.
    """
    if not isinstance(data, dict) or "vertices" not in data or "faces" not in data:
        raise PreconditionFailed("polyhedron JSON needs 'vertices' and 'faces' keys")
    return validate(data["vertices"], data["faces"], tol=tol)


def dump_polyhedron(P: Polyhedron) -> dict:
    """Inverse of :func:`load_polyhedron`; polygons counter-clockwise from outside."""
    return {
        "vertices": [list(map(float, v)) for v in P.vertices],
        "faces": [{"label": label, "vertices": [int(i) for i in idx[::-1]]}
                  for label, idx in zip(P.labels, P.boundaries)],
    }


# ---------------------------------------------------------------------------
# reflection and ray casting
# ---------------------------------------------------------------------------

def reflect_direction(theta, n) -> np.ndarray:
    """Mirror a direction across a plane with unit normal n: theta - 2 <theta, n> n."""
    theta, n = np.asarray(theta, float), np.asarray(n, float)
    return theta - 2.0 * float(theta @ n) * n


def _cast(m, theta, P: Polyhedron) -> tuple[int, float, tuple, float, int]:
    """The scalar stepping kernel: ``(f, t, q, edist, edge)`` for the ray
    ``m + t * theta``, in plain floats; f = -1 when no face lies ahead.

    With F of about 6, a numpy call costs more than the arithmetic it does,
    so this walks the per-solid float ``rows`` of :class:`Polyhedron`.  A
    face counts as hit at t > 0: from a point on its face plane off its
    edges every other plane lies over ``plane`` * sin phi ahead, far above
    rounding (see :func:`validate`).  Among faces hit at the same distance
    the lowest face id wins.  ``q`` is the hit point, the float triple
    ``(x, y, z)``, and ``edist`` and ``edge`` are its
    :meth:`Polyhedron.nearest_edge` in face f.
    """
    neg_angle, rows = -ANGLE, P.rows
    mx, my, mz = m
    tx, ty, tz = theta
    tf, f = math.inf, -1
    for k, (nx, ny, nz, c, _) in enumerate(rows):
        d = nx * tx + ny * ty + nz * tz
        if d < neg_angle:
            t = (nx * mx + ny * my + nz * mz + c) / -d
            if 0.0 < t < tf:
                tf, f = t, k
    if f < 0:
        return -1, tf, None, math.inf, -1
    qx, qy, qz = q = mx + tf * tx, my + tf * ty, mz + tf * tz
    edist, edge = _side_distance(rows[f][4], qx, qy, qz)
    return f, tf, q, edist, edge


# ---------------------------------------------------------------------------
# canonical solids
# ---------------------------------------------------------------------------

def box(ax: float, ay: float, az: float, tol: Tolerances | None = None) -> Polyhedron:
    """Axis-aligned box [0,ax] x [0,ay] x [0,az] with faces x0,x1,y0,y1,z0,z1."""
    vs = [(x, y, z) for z in (0.0, az) for y in (0.0, ay) for x in (0.0, ax)]
    # index: x + 2*y + 4*z over {0,1}^3 scaled
    faces = [
        ("x0", [0, 4, 6, 2]),
        ("x1", [1, 3, 7, 5]),
        ("y0", [0, 1, 5, 4]),
        ("y1", [2, 6, 7, 3]),
        ("z0", [0, 2, 3, 1]),
        ("z1", [4, 5, 7, 6]),
    ]
    return validate(vs, faces, tol=tol)


def unit_cube(tol: Tolerances | None = None) -> Polyhedron:
    return box(1.0, 1.0, 1.0, tol=tol)


def regular_tetrahedron(tol: Tolerances | None = None) -> Polyhedron:
    vs = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    faces = [
        ("a", [1, 2, 3]),
        ("b", [0, 3, 2]),
        ("c", [0, 1, 3]),
        ("d", [0, 2, 1]),
    ]
    return validate(vs, faces, tol=tol)
