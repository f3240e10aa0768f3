"""Trajectory unfolding and the closure of the face-reflection group.

Unfolding replaces each bounce by a straight-line continuation while the
polyhedron is reflected across the crossed face; composing those reflections
gives one cumulative isometry per bounce, by a prefix product over arrays.
The group machinery closes the set of *linear* reflection parts under
multiplication and reports whether the closure is finite within a bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .geometry import Polyhedron, PreconditionFailed, as_count

if TYPE_CHECKING:  # pragma: no cover
    from .billiard import OrbitRecord


def cumulative_isometries(P: Polyhedron, faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative unfolding isometry per bounce for a face-id itinerary, as
    read-only linear parts (L, 3, 3) and translations (L, 3).

    Entry k maps folded coordinates of the k-th bounce into the unfolded
    picture; entry 0 is the identity (the itinerary's first face is where the
    orbit starts and contributes no reflection).  A Hillis-Steele scan: entry
    k starts as the reflection across ``faces[k]``, and the pass with stride
    s composes entry k - s with entry k.  Face ids are read by
    :meth:`Polyhedron.face_ids`, and an empty itinerary is refused.
    """
    idx = P.face_ids(faces)
    if len(idx) == 0:
        raise PreconditionFailed("itinerary has no faces")
    lin, trans = P.reflection_linear[idx], P.reflection_translation[idx]
    lin[0], trans[0] = np.eye(3), 0.0
    s, L = 1, len(idx)
    while s < L:
        # both right-hand sides read entries from before this pass
        trans[s:] = np.einsum("lij,lj->li", lin[:-s], trans[s:]) + trans[:-s]
        lin[s:] = lin[:-s] @ lin[s:]
        s *= 2
    lin.setflags(write=False)
    trans.setflags(write=False)
    return lin, trans


@dataclass
class UnfoldingTrack:
    """Straight-line realization of an orbit: its cumulative isometries as
    arrays and its unfolded bounce points."""

    linear: np.ndarray                 # (L, 3, 3) cumulative isometries
    translation: np.ndarray            # (L, 3)
    points: np.ndarray                 # (L, 3) unfolded bounce points
    residual: float                    # max point-to-line distance
    path_length: float

    @property
    def relative_residual(self) -> float:
        return self.residual / max(self.path_length, 1e-300)


def unfold_orbit(record: "OrbitRecord", P: Polyhedron) -> UnfoldingTrack:
    """Unfold a recorded orbit so its bounce points become colinear."""
    if record.n_bounces < 1:
        raise PreconditionFailed("record has no bounces to unfold")
    lin, trans = cumulative_isometries(P, record.faces)
    pts = np.einsum("lij,lj->li", lin, record.m) + trans
    p0 = pts[0]
    theta = record.theta[0]
    rel = pts - p0
    dist = np.linalg.norm(rel - np.outer(rel @ theta, theta), axis=1)
    path = float(np.linalg.norm(pts[-1] - p0))
    return UnfoldingTrack(lin, trans, pts, float(dist.max()), path)


# absolute: entries of orthogonal matrices lie in [-1, 1]
_DEDUP_TOL = 1e-8
# a matrix is hashed on one number: its entries, clipped to +-4, which moves
# no two entries further apart, projected onto the square roots of the first
# nine primes, which have no rational relation, so distinct elements project apart
_WEIGHTS = np.sqrt([2.0, 3.0, 5.0, 7.0, 11.0, 13.0, 17.0, 19.0, 23.0])
# matrices within _DEDUP_TOL in every entry project within half of this;
# the projection rounds by about 1e-13
_REACH = 2 * _DEDUP_TOL * float(_WEIGHTS.sum())
# key width, about 216 * _REACH, so a lookup probes one key, or two near a
# key boundary; a power of two, so x / _BUCKET is exact
_BUCKET = 2.0 ** -13
# products per absorb, for speed: the queue's next _BATCH // len(G) elements
# times every generator.  The tetrahedron's closure to 3000 elements took 5.3 ms
# at 512, 6.5 ms at 64 and 5.7 ms uncapped (median of 20 calls, 5 alternating
# rounds, 2 vCPUs, numpy 2.4)
_BATCH = 512


def _project(flat: np.ndarray) -> np.ndarray:
    """The rows of the (K, 9) ``flat``, clipped to +-4, dotted with ``_WEIGHTS``."""
    return np.clip(flat, -4.0, 4.0) @ _WEIGHTS


def _key(x: np.ndarray) -> list[int]:
    return np.floor(x / _BUCKET).astype(np.int64).tolist()


def _probes(x: np.ndarray) -> list[tuple[int, ...]]:
    """Per projection in ``x``, the keys that may hold a match: those of
    ``x - _REACH`` and ``x + _REACH``, one key or two adjacent ones."""
    return [(lo,) if lo == hi else (lo, hi)
            for lo, hi in zip(_key(x - _REACH), _key(x + _REACH))]


class _MatrixBuckets:
    """A stack of 3x3 matrices, empty at first, whose row indices are hashed
    on the keys of their projections.  A stored matrix within ``_DEDUP_TOL``
    of a query in max-abs has its key among the query's probes, so lookups
    agree with a linear scan."""

    def __init__(self):
        self.stack = np.empty((0, 3, 3))
        self.count = 0
        self._index: dict[int, list[int]] = {}

    @property
    def elements(self) -> np.ndarray:
        return self.stack[:self.count]

    def _stored_match(self, flat: np.ndarray, probes: list[tuple[int, ...]]) -> np.ndarray:
        """Per row of ``flat``, is a stored matrix within ``_DEDUP_TOL`` of it?"""
        rows: list[int] = []
        idx: list[int] = []
        get = self._index.get
        for r, keys in enumerate(probes):
            for key in keys:
                members = get(key)
                if members:
                    rows += [r] * len(members)
                    idx += members
        hit = np.zeros(len(flat), dtype=bool)
        if idx:
            gap = np.abs(flat[rows] - self.stack.reshape(-1, 9)[idx]).max(axis=1)
            hit[np.asarray(rows)[gap <= _DEDUP_TOL]] = True
        return hit

    def absorb(self, X: np.ndarray, bound: float) -> bool:
        """Store, in order, each matrix of the (K, 3, 3) ``X`` that no stored
        matrix matches, earlier rows of ``X`` included; False as soon as more
        than ``bound`` are stored."""
        flat = X.reshape(-1, 9)
        x = _project(flat)
        probes, own = _probes(x), _key(x)
        # every row against the matrices stored before this call at once, then
        # in order against the rows this call keeps, which are few
        kept: list[int] = []
        fresh: dict[int, list[int]] = {}
        for r in np.flatnonzero(~self._stored_match(flat, probes)).tolist():
            near = [q for key in probes[r] for q in fresh.get(key, ())]
            if near and np.abs(flat[near] - flat[r]).max(axis=1).min() <= _DEDUP_TOL:
                continue
            kept.append(r)
            fresh.setdefault(own[r], []).append(r)
            if self.count + len(kept) > bound:
                break
        first, self.count = self.count, self.count + len(kept)
        if self.count > len(self.stack):
            grown = np.empty((max(self.count, 2 * len(self.stack)), 3, 3))
            grown[:first] = self.stack[:first]
            self.stack = grown
        self.stack[first:self.count] = X[kept]
        for i, r in enumerate(kept, first):
            self._index.setdefault(own[r], []).append(i)
        return self.count <= bound


@dataclass
class GroupClosure:
    """Result of closing the linear face reflections under multiplication."""

    elements: np.ndarray    # (K, 3, 3) orthogonal matrices, identity first
    closed: bool

    @property
    def order(self) -> int | None:
        return len(self.elements) if self.closed else None

    def contains(self, M: np.ndarray) -> bool:
        """Is the 3x3 ``M`` an element, up to the closure's own 1e-8 max-abs
        tolerance, by a scan of the elements?  A matrix with a nan or
        infinite entry is none."""
        try:
            M = np.asarray(M, float)
        except (TypeError, ValueError):         # a ragged list, a non-number
            raise PreconditionFailed(f"expected a 3x3 matrix of numbers, got {M!r}") from None
        if M.shape != (3, 3):
            raise PreconditionFailed(f"expected a 3x3 matrix, got shape {M.shape}")
        return bool(np.isfinite(M).all()) and bool(
            np.abs(self.elements - M).max(axis=(1, 2)).min(initial=np.inf) <= _DEDUP_TOL)


def generate_group(P: Polyhedron, bound: int = 10000) -> GroupClosure:
    """Closure of the face-reflection linear parts, by one FIFO queue.

    The store holds the identity, then the distinct reflections (the
    generators) in first-occurrence order, and is itself the queue: each
    step multiplies its next elements, in index order, by every generator
    in one stacked product and appends, in order, the products no earlier
    element matches, so the elements and their order are a breadth-first
    closure's.  Stops when the queue is empty (``closed=True``) or the
    count exceeds ``bound`` (``closed=False``; evidence, not proof, that the
    group is infinite).  Nothing snaps products onto O(3): max |E^T E - I|
    grows linearly, 2e-14 at 10^4 elements and 2e-13 at 10^5 (tol 1e-8).
    """
    bound = as_count(bound, "bound", 1)
    found = _MatrixBuckets()
    found.absorb(np.eye(3)[None], bound)
    closed = found.absorb(P.reflection_linear, bound)
    G = found.elements[None, 1:]    # rows the store never rewrites
    step = max(1, _BATCH // G.shape[1])
    start = 1
    while closed and start < found.count:
        stop = min(start + step, found.count)
        closed = found.absorb(np.matmul(G, found.stack[start:stop, None]).reshape(-1, 3, 3), bound)
        start = stop
    return GroupClosure(found.elements.copy(), closed)
