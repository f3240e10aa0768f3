"""Trajectory unfolding and the closure of the face-reflection group.

Unfolding replaces each bounce by a straight-line continuation while the
polyhedron is reflected across the crossed face; composing those reflections
gives one cumulative isometry per bounce.  The group machinery closes the set
of *linear* reflection parts under multiplication and reports whether the
closure is finite within a bound.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    def inverse(self) -> "Isometry":
        lt = self.linear.T
        return Isometry(lt, -(lt @ self.translation))

    def orthogonality_error(self) -> float:
        return float(np.abs(self.linear @ self.linear.T - np.eye(3)).max())

    def is_translation(self, tol: float = 1e-9) -> bool:
        return bool(np.abs(self.linear - np.eye(3)).max() <= tol)


def reorthogonalize(M: np.ndarray) -> np.ndarray:
    """Snap a drifting product of orthogonal matrices back onto O(3)."""
    u, _, vt = np.linalg.svd(M)
    return u @ vt


def cumulative_isometries(P: Polyhedron, faces: list[int]) -> list[Isometry]:
    """Cumulative unfolding isometry per bounce for a face-id itinerary.

    Entry k maps folded coordinates of the k-th bounce into the unfolded
    picture; entry 0 is the identity (the itinerary's first face is where the
    orbit starts and contributes no reflection).
    """
    reflections = {f: Isometry.reflection(P.faces[f].plane) for f in set(faces[1:])}
    isos = [Isometry.identity()]
    for f in faces[1:]:
        isos.append(isos[-1].compose(reflections[f]))
    return isos


@dataclass
class UnfoldingTrack:
    """Straight-line realization of an orbit: isometries, points, face copies."""

    isometries: list[Isometry]
    points: np.ndarray                 # (L, 3) unfolded bounce points
    face_polygons: list[np.ndarray]    # unfolded copy of each hit face
    line_point: np.ndarray
    line_direction: np.ndarray
    residual: float                    # max point-to-line distance
    path_length: float

    @property
    def relative_residual(self) -> float:
        return self.residual / max(self.path_length, 1e-300)


def unfold_orbit(record: "OrbitRecord", P: Polyhedron) -> UnfoldingTrack:
    """Unfold a recorded orbit so its bounce points become colinear."""
    if len(record.points) < 1:
        raise ValueError("record has no bounces to unfold")
    faces = [pp.face for pp in record.points]
    isos = cumulative_isometries(P, faces)
    folded = np.array([pp.m for pp in record.points])
    lin = np.array([iso.linear for iso in isos])              # (L, 3, 3)
    trans = np.array([iso.translation for iso in isos])       # (L, 3)
    pts = np.einsum("lij,lj->li", lin, folded) + trans
    verts = np.einsum("lij,vj->lvi", lin, P.vertices) + trans[:, None, :]
    bounds = [np.array(face.boundary) for face in P.faces]
    polys = [verts[k, bounds[f]] for k, f in enumerate(faces)]
    p0 = pts[0]
    theta = record.points[0].theta
    rel = pts - p0
    dist = np.linalg.norm(rel - np.outer(rel @ theta, theta), axis=1)
    path = float(np.linalg.norm(pts[-1] - p0)) if len(pts) > 1 else 0.0
    return UnfoldingTrack(isos, pts, polys, p0.copy(), theta.copy(),
                          float(dist.max()), path)


@dataclass
class GroupClosure:
    """Result of closing the linear face reflections under multiplication."""

    elements: np.ndarray    # (K, 3, 3) orthogonal matrices, identity first
    closed: bool
    bound: int

    @property
    def order(self) -> int | None:
        return len(self.elements) if self.closed else None

    def contains(self, M: np.ndarray, tol: float = 1e-8) -> bool:
        return bool(np.abs(self.elements - M).max(axis=(1, 2)).min() <= tol)


# re-orthogonalize every few multiplications; orthogonal products drift slowly
_RENORM_EVERY = 64
_DEDUP_TOL = 1e-8


def generate_group(P: Polyhedron, bound: int = 10000) -> GroupClosure:
    """Breadth-first closure of the face-reflection linear parts.

    Stops as soon as no new element appears (``closed=True``) or the element
    count exceeds ``bound`` (``closed=False``; evidence, not proof, that the
    group is infinite).
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    gens: list[np.ndarray] = []
    for f in P.faces:
        R = Isometry.reflection(f.plane).linear
        if not any(np.abs(R - g).max() <= _DEDUP_TOL for g in gens):
            gens.append(R)

    elements = [np.eye(3)]
    stack = np.array(elements)
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
                if np.abs(stack - cand).max(axis=(1, 2)).min() <= _DEDUP_TOL:
                    continue
                elements.append(cand)
                depth.append(d)
                new_frontier.append(len(elements) - 1)
                stack = np.concatenate([stack, cand[None]], axis=0)
                if len(elements) > bound:
                    return GroupClosure(stack, False, bound)
        frontier = new_frontier
    return GroupClosure(stack, True, bound)
