"""Geometric core: labeled convex polyhedra, mirror reflection, ray casting.

Everything is float64 with explicit tolerances (no exact arithmetic kernel).
Hits that land too close to an edge or vertex are classified conservatively,
so callers can treat them as singular instead of silently continuing along
an unreliable orbit.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np


class NonConvex(Exception):
    """Some vertex lies strictly outside a face plane."""


class OpenSurface(Exception):
    """An edge is not shared by exactly two faces."""


class DegenerateFace(Exception):
    """A face polygon is collinear, non-convex as a polygon, or non-planar."""


class NoAdvance(Exception):
    """Ray direction does not advance into the interior from its start point."""


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used throughout the library.

    plane : point-on-plane and edge/vertex hit classification
    step  : minimum ray advance before a boundary hit counts
    angle : tangency threshold on <theta, normal>
    sing  : near-singular flag radius around edges (non-terminal)
    """

    plane: float = 1e-9
    step: float = 1e-9
    angle: float = 1e-9
    sing: float = 1e-7


DEFAULT_TOL = Tolerances()


# ---------------------------------------------------------------------------
# small vector helpers
# ---------------------------------------------------------------------------

def vec3(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite coordinates")
    return v


def unit(v) -> np.ndarray:
    """Normalize ``v``; raise if its norm is at most 1e-12."""
    v = vec3(v)
    n = float(np.linalg.norm(v))
    if n <= 1e-12:
        raise ValueError("cannot normalize a zero vector")
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


def segment_segment_distance(p1, q1, p2, q2):
    """Distance between segments [p1,q1] and [p2,q2] (clamped closest points).

    The arguments broadcast over their leading axes, the last one holding
    x, y, z.  A segment shorter than 1e-15 counts as its first point.
    """
    d1, d2, r = np.subtract(q1, p1), np.subtract(q2, p2), np.subtract(p1, p2)
    a, b, e = (d1 * d1).sum(-1), (d1 * d2).sum(-1), (d2 * d2).sum(-1)
    c, f = (d1 * r).sum(-1), (d2 * r).sum(-1)
    denom = a * e - b * b
    # every branch is computed everywhere, then selected; t = -inf clamps to 0
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(denom > 1e-30, np.clip((b * f - c * e) / denom, 0.0, 1.0), 0.0)
        t = np.where(e > 1e-30, (b * s + f) / e, -np.inf)
        s = np.where(t < 0.0, np.clip(-c / a, 0.0, 1.0),
                     np.where(t > 1.0, np.clip((b - c) / a, 0.0, 1.0), s))
    s, t = np.where(a > 1e-30, s, 0.0)[..., None], np.clip(t, 0.0, 1.0)[..., None]
    return np.linalg.norm(p1 + s * d1 - (p2 + t * d2), axis=-1)


def farthest_pair(pts: np.ndarray) -> tuple[float, int, int]:
    """Largest distance between two rows of ``pts`` and the first pair
    (i, j) in row-major order that attains it, by ``argmax``'s tie rule."""
    d = pts[:, None, :] - pts[None, :, :]
    d2 = (d * d).sum(axis=2)
    i, j = np.unravel_index(np.argmax(d2), d2.shape)
    return float(np.sqrt(d2[i, j])), int(i), int(j)


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
    a = np.array([1.0, 0.0, 0.0]) if abs(v[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    t1 = unit(np.cross(v, a))
    return np.vstack([t1, np.cross(v, t1)])


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Plane:
    """Oriented plane {x : <normal, x> + offset = 0} with unit normal."""

    normal: np.ndarray
    offset: float

    def signed(self, pts) -> np.ndarray:
        return np.asarray(pts, float) @ self.normal + self.offset


@dataclass(frozen=True)
class Face:
    """Labeled convex boundary polygon; ``plane.normal`` points into the solid."""

    label: str
    plane: Plane
    boundary: tuple[int, ...]


@dataclass(frozen=True)
class Edge:
    endpoints: tuple[int, int]
    point: np.ndarray          # one endpoint
    direction: np.ndarray      # unit, along the edge
    faces: tuple[int, int]     # the two incident face ids


class Polyhedron:
    """Immutable convex polyhedron with labeled faces and derived edges.

    Construct through :func:`validate` (or the solid builders below), never
    directly; the constructor trusts its inputs and builds every per-solid
    table once, read-only, so instances are safe to share across threads.

    Batch stepping tables, (F, F), for hit face f and face g: ``inv_sin`` is
    1 / sin of the angle between their normals where they share an edge,
    else 0, and ``edge_mask`` is 0 there and +inf elsewhere.  For q inside
    f, s_g(q) / sin is the distance within f to the line of f∩g (s_g: signed
    distance to plane g), so ``min_g(s_g(q) * inv_sin + edge_mask)`` is q's
    distance to the boundary of f.  Outside f it fails: q can be nearer an
    edge's line than the edge.  Both tables are symmetric, and the batch
    kernel relies on it: it reads column f as row f.  Scalar ``rows``, per
    face in Python floats: plane ``(nx, ny, nz, c)``, vertices ``(x, y, z,
    id)``, edges ``(ax, ay, az, bx - ax, by - ay, bz - az, squared length,
    id)`` from endpoint a to endpoint b.  The reflection across face f is
    x -> ``reflection_linear[f] @ x + reflection_translation[f]``, and
    ``frames[f]`` has the orthonormal rows (t1, t2, n), n the inward normal.
    """

    def __init__(self, vertices: np.ndarray, faces: list[Face],
                 edges: list[Edge], tol: Tolerances):
        self.vertices = vertices
        self.faces = faces
        self.edges = edges
        self.tol = tol
        N = self.normals = np.array([f.plane.normal for f in faces])
        c = self.offsets = np.array([f.plane.offset for f in faces])
        self.labels = [f.label for f in faces]
        self._label_index = {f.label: i for i, f in enumerate(faces)}
        face_edges: list[list[int]] = [[] for _ in faces]
        for e_id, e in enumerate(edges):
            for f in e.faces:
                face_edges[f].append(e_id)
        self._face_polys = [vertices[list(f.boundary)] for f in faces]

        fa, fb = np.array([e.faces for e in edges]).T
        self.inv_sin = np.zeros((len(faces), len(faces)))
        self.inv_sin[fa, fb] = self.inv_sin[fb, fa] = 1.0 / np.linalg.norm(
            np.cross(N[fa], N[fb]), axis=1)
        self.edge_mask = np.where(self.inv_sin > 0.0, 0.0, np.inf)
        rows = []
        for f, face in enumerate(faces):
            segs = []
            for e_id in face_edges[f]:
                i, j = edges[e_id].endpoints
                seg = vertices[j] - vertices[i]
                segs.append((*vertices[i].tolist(), *seg.tolist(), float(seg @ seg), e_id))
            verts = tuple((*vertices[v].tolist(), v) for v in face.boundary)
            rows.append((*N[f].tolist(), float(c[f]), verts, tuple(segs)))
        self.rows = tuple(rows)
        # Isometry.reflection of each face plane: x - 2 (<n, x> + c) n
        self.reflection_linear = np.eye(3) - 2.0 * N[:, :, None] * N[:, None, :]
        self.reflection_translation = -2.0 * c[:, None] * N
        self.frames = np.array([np.vstack([tangent_frame(n), n]) for n in N])
        for a in (N, c, self.inv_sin, self.edge_mask, self.reflection_linear,
                  self.reflection_translation, self.frames, *self._face_polys):
            a.setflags(write=False)

    # -- queries ------------------------------------------------------------

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    def face_index(self, label: str) -> int:
        try:
            return self._label_index[label]
        except KeyError:
            raise KeyError(f"unknown face label {label!r}") from None

    def face_polygon(self, f: int) -> np.ndarray:
        return self._face_polys[f]

    def diameter(self) -> float:
        """Largest distance between two vertices."""
        return farthest_pair(self.vertices)[0]

    def signed_distances(self, pts) -> np.ndarray:
        """Signed distances to all face planes; >= 0 everywhere iff inside."""
        return np.asarray(pts, float) @ self.normals.T + self.offsets

    def point_in_face(self, f: int, q) -> bool:
        """Is ``q`` (assumed on the face plane) inside the face polygon?"""
        poly = self.face_polygon(f)
        n = self.normals[f]
        nxt = np.roll(poly, -1, axis=0)
        side = np.cross(n, nxt - poly)          # points into the polygon
        rel = np.asarray(q, float) - poly
        return bool(np.all(np.einsum("ij,ij->i", rel, side) >= -self.tol.plane * np.linalg.norm(side, axis=1)))

    def nearest_edge(self, f: int, q) -> tuple[float, int]:
        """Distance from ``q`` to the nearest boundary edge of face ``f``,
        and that edge's id."""
        qx, qy, qz = np.asarray(q, float).tolist()
        r2, e = _nearest_edge(self.rows[f][5], qx, qy, qz)
        return math.sqrt(r2), e

    def with_tolerances(self, tol: Tolerances) -> "Polyhedron":
        return Polyhedron(self.vertices, self.faces, self.edges, tol)


# ---------------------------------------------------------------------------
# validation and file format
# ---------------------------------------------------------------------------

def validate(vertices, faces, tol: Tolerances | None = None) -> Polyhedron:
    """Build a :class:`Polyhedron` from raw vertex and face lists.

    ``faces`` entries are ``{"label": str, "vertices": [i, ...]}`` dicts or
    ``(label, indices)`` pairs; vertex indices are 0-based and each polygon
    must be convex and planar.  Normals are oriented inward and the derived
    edge table requires every edge to be shared by exactly two faces.
    """
    tol = tol or DEFAULT_TOL
    V = np.array(vertices, dtype=float)        # a copy: it is frozen below
    if V.ndim != 2 or V.shape[1] != 3:
        raise ValueError("vertices must be an (N, 3) array")
    if not np.all(np.isfinite(V)):
        raise ValueError("vertex coordinates must be finite")
    if len(V) < 4:
        raise ValueError("a solid needs at least 4 vertices")

    face_specs: list[tuple[str, list[int]]] = []
    for fs in faces:
        if isinstance(fs, dict):
            label, idx = fs["label"], fs.get("vertices")
        else:
            label, idx = fs
        if isinstance(idx, (str, bytes)) or not isinstance(idx, Iterable):
            raise ValueError(f"face {label!r}: vertex index list is missing or not a list")
        try:
            idx = [operator.index(i) for i in idx]
        except TypeError:
            raise ValueError(f"face {label!r} has a non-integer vertex index") from None
        if len(idx) < 3:
            raise ValueError(f"face {label!r} has fewer than 3 vertices")
        if len(set(idx)) != len(idx):
            raise ValueError(f"face {label!r} repeats a vertex")
        if min(idx) < 0 or max(idx) >= len(V):
            raise ValueError(f"face {label!r} has an out-of-range vertex index")
        face_specs.append((str(label), idx))
    if len(face_specs) < 4:
        raise ValueError("a solid needs at least 4 faces")
    labels = [lab for lab, _ in face_specs]
    if any(not lab for lab in labels) or len(set(labels)) != len(labels):
        raise ValueError("face labels must be distinct non-empty strings")

    centroid = V.mean(axis=0)
    planes: list[Plane] = []
    boundaries: list[list[int]] = []
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
        planes.append(Plane(n, c))
        boundaries.append(idx)

    # convexity first: a vertex pushed past another face's plane must report
    # NonConvex even though it also warps its own faces out of planarity
    for (label, _), pl in zip(face_specs, planes):
        d = V @ pl.normal + pl.offset
        worst = float(d.min())
        if worst < -tol.plane:
            raise NonConvex(
                f"vertex {int(d.argmin())} lies {-worst:.3g} outside face {label!r}")

    face_objs: list[Face] = []
    for (label, _), pl, idx in zip(face_specs, planes, boundaries):
        pts = V[idx]
        dev = float(np.abs(pl.signed(pts)).max())
        if dev > max(tol.plane, 1e-12 * max(1.0, float(np.abs(pts).max()))):
            raise DegenerateFace(f"face {label!r} is not planar (deviation {dev:.3g})")
        edges_v = np.roll(pts, -1, axis=0) - pts
        turns = np.cross(edges_v, np.roll(edges_v, -1, axis=0)) @ pl.normal
        if np.any(turns < -tol.plane):
            raise DegenerateFace(f"face {label!r} polygon is not convex")
        face_objs.append(Face(label, pl, tuple(idx)))

    edge_map: dict[tuple[int, int], list[int]] = {}
    for f, face in enumerate(face_objs):
        idx = face.boundary
        for a in range(len(idx)):
            i, j = idx[a], idx[(a + 1) % len(idx)]
            edge_map.setdefault((min(i, j), max(i, j)), []).append(f)
    edges: list[Edge] = []
    for (i, j), fs in sorted(edge_map.items()):
        if len(fs) != 2:
            raise OpenSurface(f"edge ({i},{j}) belongs to {len(fs)} faces, expected 2")
        edges.append(Edge((i, j), V[i].copy(), unit(V[j] - V[i]), (fs[0], fs[1])))

    for a in (V, *(pl.normal for pl in planes), *(a for e in edges for a in (e.point, e.direction))):
        a.setflags(write=False)
    return Polyhedron(V, face_objs, edges, tol)


def load_polyhedron(data: dict, tol: Tolerances | None = None) -> Polyhedron:
    """Build a polyhedron from the JSON format, parsed into a dict:

    ``{"vertices": [[x,y,z],...], "faces": [{"label": "a", "vertices": [...]}]}``
    with 0-based indices.
    """
    if not isinstance(data, dict) or "vertices" not in data or "faces" not in data:
        raise ValueError("polyhedron JSON needs 'vertices' and 'faces' keys")
    return validate(data["vertices"], data["faces"], tol=tol)


def dump_polyhedron(P: Polyhedron) -> dict:
    """Inverse of :func:`load_polyhedron`; polygons counter-clockwise from outside."""
    return {
        "vertices": [list(map(float, v)) for v in P.vertices],
        "faces": [
            {"label": f.label, "vertices": [int(i) for i in f.boundary[::-1]]}
            for f in P.faces
        ],
    }


# ---------------------------------------------------------------------------
# reflection and ray casting
# ---------------------------------------------------------------------------

def reflect_direction(theta, face: Face) -> np.ndarray:
    """Mirror a direction across a face plane: theta - 2 <theta, n> n."""
    theta = np.asarray(theta, float)
    n = face.plane.normal
    return theta - 2.0 * float(theta @ n) * n


class HitKind(Enum):
    FACE = "face"
    EDGE = "edge"
    VERTEX = "vertex"


class Hit(NamedTuple):
    """First boundary intersection of a ray with the polyhedron surface.

    ``edge_distance`` is the distance from the hit point to the nearest
    boundary edge of the hit face (finite for FACE hits), used by callers to
    flag unreliable near-edge passages.  A named tuple, cheap to build per bounce.
    """

    kind: HitKind
    point: np.ndarray
    length: float
    face: int | None = None
    edge: int | None = None
    vertex: int | None = None
    edge_distance: float = float("inf")


def first_hit(m: np.ndarray, theta: np.ndarray, P: Polyhedron) -> Hit:
    """First boundary hit of the ray ``m + t * theta``, without start checks.

    The scalar stepping kernel: callers must already know the ray advances
    into the interior (``orbit`` checks this itself, so
    ``classify_phase_point`` is the validated single ray).  With F of about
    6, a numpy call costs more than the arithmetic it does, so this walks the
    per-solid float ``rows`` of :class:`Polyhedron` instead.  Among faces hit at
    the same distance the lowest face id wins.
    """
    tol = P.tol
    rows = P.rows
    mx, my, mz = m.tolist()
    tx, ty, tz = theta.tolist()
    tf, f = math.inf, -1
    for k, (nx, ny, nz, c, _, _) in enumerate(rows):
        d = nx * tx + ny * ty + nz * tz
        if d < -tol.angle:
            t = (nx * mx + ny * my + nz * mz + c) / -d
            if tol.step < t < tf:
                tf, f = t, k
    if f < 0:
        raise NoAdvance("ray does not reach the boundary")
    qx, qy, qz = mx + tf * tx, my + tf * ty, mz + tf * tz
    q = np.array((qx, qy, qz))
    _, _, _, _, verts, edges = rows[f]

    best, edge = _nearest_edge(edges, qx, qy, qz)
    # a vertex within plane is an endpoint of an edge within plane, up to
    # rounding, so only a hit near an edge can be a vertex hit
    if best <= 4.0 * tol.plane * tol.plane:
        r2v, vertex = math.inf, -1
        for x, y, z, v in verts:
            dx, dy, dz = x - qx, y - qy, z - qz
            r2 = dx * dx + dy * dy + dz * dz
            if r2 < r2v:
                r2v, vertex = r2, v
        if r2v <= tol.plane * tol.plane:
            return Hit(HitKind.VERTEX, q, tf, face=f, vertex=vertex, edge_distance=0.0)
    edist = math.sqrt(best)
    if edist <= tol.plane:
        return Hit(HitKind.EDGE, q, tf, face=f, edge=edge, edge_distance=edist)
    # positional: keyword arguments make a NamedTuple's constructor slower
    return Hit(HitKind.FACE, q, tf, f, None, None, edist)


def _nearest_edge(edges, qx: float, qy: float, qz: float) -> tuple[float, int]:
    """Squared distance from q to the nearest of a face's clipped edge
    segments, given as its rows in ``Polyhedron.rows``, and that edge's id; the
    first edge wins a tie.  Both endpoints of an edge are at distance 0."""
    best, edge = math.inf, -1
    for ax, ay, az, ex, ey, ez, l2, e in edges:
        wx, wy, wz = qx - ax, qy - ay, qz - az
        s = (wx * ex + wy * ey + wz * ez) / l2
        s = 0.0 if s < 0.0 else 1.0 if s > 1.0 else s    # np.clip(s, 0, 1)
        dx, dy, dz = wx - s * ex, wy - s * ey, wz - s * ez
        r2 = dx * dx + dy * dy + dz * dz
        if r2 < best:
            best, edge = r2, e
    return best, edge


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
