"""Trajectory unfolding and the closure of the face-reflection group.

Unfolding replaces each bounce by a straight-line continuation while the
polyhedron is reflected across the crossed face; composing those reflections
gives one cumulative isometry per bounce, by a prefix product over arrays.
The group machinery closes the set of *linear* reflection parts under
multiplication and reports whether the closure is finite within a bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import TYPE_CHECKING

import numpy as np

from .geometry import Plane, Polyhedron

if TYPE_CHECKING:  # pragma: no cover
    from .billiard import OrbitRecord


@dataclass(frozen=True)
class Isometry:
    """Affine isometry x -> linear @ x + translation with orthogonal linear part."""

    linear: np.ndarray
    translation: np.ndarray

    @staticmethod
    def identity() -> "Isometry":
        return Isometry(np.eye(3), np.zeros(3))

    @staticmethod
    def reflection(plane: Plane) -> "Isometry":
        """Reflection across {x : <n, x> + c = 0}: x -> x - 2 (<n,x> + c) n."""
        n = plane.normal
        return Isometry(np.eye(3) - 2.0 * np.outer(n, n), -2.0 * plane.offset * n)

    def apply(self, pts) -> np.ndarray:
        return np.asarray(pts, float) @ self.linear.T + self.translation

    def apply_direction(self, d) -> np.ndarray:
        return self.linear @ np.asarray(d, float)

    def compose(self, other: "Isometry") -> "Isometry":
        """Return self o other (``other`` acts first)."""
        return Isometry(self.linear @ other.linear,
                        self.linear @ other.translation + self.translation)

    def is_translation(self, tol: float = 1e-9) -> bool:
        return bool(np.abs(self.linear - np.eye(3)).max() <= tol)


def reorthogonalize(M: np.ndarray) -> np.ndarray:
    """Snap a drifting product of orthogonal matrices back onto O(3)."""
    u, _, vt = np.linalg.svd(M)
    return u @ vt


def _prefix_isometries(P: Polyhedron, faces: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Linear parts (L, 3, 3) and translations (L, 3) of
    :func:`cumulative_isometries` by a Hillis-Steele scan: entry k starts as
    the reflection across ``faces[k]`` (entry 0 as the identity), and the
    pass with stride s composes entry k - s with entry k."""
    idx = np.asarray(faces, dtype=np.intp)
    lin, trans = P.reflection_linear[idx], P.reflection_translation[idx]
    lin[0], trans[0] = np.eye(3), 0.0
    s, L = 1, len(faces)
    while s < L:
        # both right-hand sides read entries from before this pass
        trans[s:] = np.einsum("lij,lj->li", lin[:-s], trans[s:]) + trans[:-s]
        lin[s:] = lin[:-s] @ lin[s:]
        s *= 2
    lin.setflags(write=False)        # the Isometry objects built on them share them
    trans.setflags(write=False)
    return lin, trans


def cumulative_isometries(P: Polyhedron, faces: list[int]) -> list[Isometry]:
    """Cumulative unfolding isometry per bounce for a face-id itinerary.

    Entry k maps folded coordinates of the k-th bounce into the unfolded
    picture; entry 0 is the identity (the itinerary's first face is where the
    orbit starts and contributes no reflection).  The entries are views into
    one read-only (L, 3, 3) and one read-only (L, 3) array.
    """
    return [Isometry(a, t) for a, t in zip(*_prefix_isometries(P, faces))]


@dataclass
class UnfoldingTrack:
    """Straight-line realization of an orbit: cumulative isometries as arrays,
    points, and the per-bounce ``isometries`` and ``face_polygons`` on demand."""

    linear: np.ndarray                 # (L, 3, 3) cumulative isometries
    translation: np.ndarray            # (L, 3)
    points: np.ndarray                 # (L, 3) unfolded bounce points
    residual: float                    # max point-to-line distance
    path_length: float
    faces: list[int]                   # hit face per bounce
    polyhedron: Polyhedron

    @property
    def relative_residual(self) -> float:
        return self.residual / max(self.path_length, 1e-300)

    @cached_property
    def isometries(self) -> list[Isometry]:
        return [Isometry(a, t) for a, t in zip(self.linear, self.translation)]

    @cached_property
    def face_polygons(self) -> list[np.ndarray]:     # unfolded copy of each hit face
        P = self.polyhedron
        verts = np.einsum("lij,vj->lvi", self.linear, P.vertices) + self.translation[:, None, :]
        return [verts[k, list(P.faces[f].boundary)] for k, f in enumerate(self.faces)]


def unfold_orbit(record: "OrbitRecord", P: Polyhedron) -> UnfoldingTrack:
    """Unfold a recorded orbit so its bounce points become colinear."""
    if len(record.points) < 1:
        raise ValueError("record has no bounces to unfold")
    faces = [pp.face for pp in record.points]
    lin, trans = _prefix_isometries(P, faces)
    folded = np.array([pp.m for pp in record.points])
    pts = np.einsum("lij,lj->li", lin, folded) + trans
    p0 = pts[0]
    theta = record.points[0].theta
    rel = pts - p0
    dist = np.linalg.norm(rel - np.outer(rel @ theta, theta), axis=1)
    path = float(np.linalg.norm(pts[-1] - p0))
    return UnfoldingTrack(lin, trans, pts, float(dist.max()), path, faces, P)


# re-orthogonalize every few multiplications; orthogonal products drift slowly
_RENORM_EVERY = 64
# absolute: entries of orthogonal matrices lie in [-1, 1]
_DEDUP_TOL = 1e-8
# side of the dedup buckets, absolute like _DEDUP_TOL and about 12 000 times
# wider, so a lookup probes one bucket unless an entry lies within
# _DEDUP_TOL of a bucket boundary; a power of two, so entry / _BUCKET is exact
_BUCKET = 2.0 ** -13


class _MatrixBuckets:
    """3x3 matrices hashed on ``floor(entry / _BUCKET)`` per entry.

    A stored matrix within ``_DEDUP_TOL`` of a query in max-abs has each
    entry within ``_DEDUP_TOL`` of the query's, so its key is among the
    probed keys: per entry, the buckets of ``x - _DEDUP_TOL`` and
    ``x + _DEDUP_TOL``.  Lookups thus agree with a linear scan.
    """

    def __init__(self, mats=()):
        self._buckets: dict[int, list[np.ndarray]] = {}
        for M in mats:
            self.add(M)

    def find(self, M: np.ndarray) -> bool:
        """Is a stored matrix within ``_DEDUP_TOL`` of ``M`` in every entry?"""
        x = M.ravel().tolist()
        lo = [math.floor((v - _DEDUP_TOL) / _BUCKET) for v in x]
        hi = [math.floor((v + _DEDUP_TOL) / _BUCKET) for v in x]
        cells = [lo] if lo == hi else product(*({a, b} for a, b in zip(lo, hi)))
        for cell in cells:
            for y in self._buckets.get(_bucket_key(cell), ()):
                if max(abs(a - b) for a, b in zip(x, y.ravel().tolist())) <= _DEDUP_TOL:
                    return True
        return False

    def add(self, M: np.ndarray) -> None:
        cell = [math.floor(v / _BUCKET) for v in M.ravel().tolist()]
        self._buckets.setdefault(_bucket_key(cell), []).append(M)


def _bucket_key(cell) -> int:
    """Pack nine bucket indices into one int, 16 bits apiece: smaller than a
    tuple of ints, and distinct for entries below 4 in magnitude.  Larger
    entries may share a key, which adds bucket members but hides no match."""
    key = 0
    for k in cell:
        key = (key << 16) + k
    return key


@dataclass
class GroupClosure:
    """Result of closing the linear face reflections under multiplication."""

    elements: np.ndarray    # (K, 3, 3) orthogonal matrices, identity first
    closed: bool

    @property
    def order(self) -> int | None:
        return len(self.elements) if self.closed else None

    @cached_property
    def _buckets(self) -> _MatrixBuckets:
        return _MatrixBuckets(self.elements)

    def contains(self, M: np.ndarray) -> bool:
        """Is ``M`` an element, up to the closure's own 1e-8 max-abs tolerance?"""
        return self._buckets.find(np.asarray(M, float))


def generate_group(P: Polyhedron, bound: int = 10000) -> GroupClosure:
    """Breadth-first closure of the face-reflection linear parts.

    Stops as soon as no new element appears (``closed=True``) or the element
    count exceeds ``bound`` (``closed=False``; evidence, not proof, that the
    group is infinite).
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    gens: list[np.ndarray] = []
    seen = _MatrixBuckets()
    for R in P.reflection_linear:
        if not seen.find(R):
            seen.add(R)
            gens.append(R)

    elements = [np.eye(3)]
    found = _MatrixBuckets(elements)
    depth = [0]
    frontier = list(range(len(elements)))
    while frontier:
        new_frontier: list[int] = []
        for i in frontier:
            for g in gens:
                cand = g @ elements[i]
                d = depth[i] + 1
                if d % _RENORM_EVERY == 0:
                    cand = reorthogonalize(cand)
                if found.find(cand):
                    continue
                found.add(cand)
                elements.append(cand)
                depth.append(d)
                new_frontier.append(len(elements) - 1)
                if len(elements) > bound:
                    return GroupClosure(np.array(elements), False)
        frontier = new_frontier
    return GroupClosure(np.array(elements), True)
