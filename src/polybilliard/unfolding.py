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
from typing import TYPE_CHECKING

import numpy as np

from .geometry import Polyhedron, PreconditionFailed

if TYPE_CHECKING:  # pragma: no cover
    from .billiard import OrbitRecord


def reorthogonalize(M: np.ndarray) -> np.ndarray:
    """Snap a drifting product of orthogonal matrices back onto O(3)."""
    u, _, vt = np.linalg.svd(M)
    return u @ vt


def cumulative_isometries(P: Polyhedron, faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative unfolding isometry per bounce for a face-id itinerary, as
    read-only linear parts (L, 3, 3) and translations (L, 3).

    Entry k maps folded coordinates of the k-th bounce into the unfolded
    picture; entry 0 is the identity (the itinerary's first face is where the
    orbit starts and contributes no reflection).  A Hillis-Steele scan: entry
    k starts as the reflection across ``faces[k]``, and the pass with stride
    s composes entry k - s with entry k.
    """
    idx = np.asarray(faces, dtype=np.intp)
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


# re-orthogonalize every few multiplications; orthogonal products drift slowly
_RENORM_EVERY = 64
# absolute: entries of orthogonal matrices lie in [-1, 1]
_DEDUP_TOL = 1e-8
# side of the dedup buckets, absolute like _DEDUP_TOL and about 12 000 times
# wider, so a lookup probes one bucket unless an entry lies within
# _DEDUP_TOL of a bucket boundary; a power of two, so entry / _BUCKET is
# exact.  The boundaries are the odd multiples of _BUCKET / 2, which puts 0,
# +-1/2 and +-1, the entries of the identity and of signed permutations,
# mid-bucket
_BUCKET = 2.0 ** -13
# entries are clipped to this before hashing, so the division cannot
# overflow and bucket indices stay exact in int64; the clip is monotone,
# so it hides no match
_CLIP = 2.0 ** 30
# candidates hashed per numpy batch of the closure, which bounds its memory
_BATCH = 512


def _cells(X: np.ndarray) -> np.ndarray:
    """``floor(x / _BUCKET + 1/2)`` per entry, as int64: monotone in x, since
    the division is exact and the addition rounds monotonically."""
    return np.floor(np.clip(X, -_CLIP, _CLIP) / _BUCKET + 0.5).astype(np.int64)


def _keys(cells: np.ndarray) -> list[bytes]:
    """Pack rows of nine bucket indices into 18-byte keys, 16 bits apiece:
    distinct for entries in [-4, 4 - _BUCKET / 2).  Entries outside it may
    share a key, which adds bucket members but hides no match."""
    return cells.astype(np.uint16).view(np.dtype((np.void, 18))).ravel().tolist()


class _MatrixBuckets:
    """A stack of 3x3 matrices whose row indices are hashed on
    ``floor(entry / _BUCKET + 1/2)`` per entry.

    A stored matrix within ``_DEDUP_TOL`` of a query in max-abs has each
    entry within ``_DEDUP_TOL`` of the query's, so its key is among the
    probed keys: per entry, the buckets of ``x - _DEDUP_TOL`` and
    ``x + _DEDUP_TOL``.  Lookups thus agree with a linear scan.
    """

    def __init__(self, stack: np.ndarray):
        self.stack = np.ascontiguousarray(stack, dtype=float)
        self.count = len(self.stack)
        self._buckets: dict[bytes, list[int]] = {}
        for i, key in enumerate(_keys(_cells(self.stack.reshape(-1, 9)))):
            self._buckets.setdefault(key, []).append(i)

    @property
    def elements(self) -> np.ndarray:
        return self.stack[:self.count]

    def _probes(self, flat: np.ndarray) -> list[list[bytes]]:
        """Per row of the (K, 9) ``flat``, the keys that may hold a match."""
        lo, hi = _cells(flat - _DEDUP_TOL), _cells(flat + _DEDUP_TOL)
        probes = [[key] for key in _keys(lo)]
        for r in np.flatnonzero((lo != hi).any(axis=1)).tolist():
            m = np.flatnonzero(lo[r] != hi[r])        # there hi = lo + 1
            cells = np.repeat(lo[r:r + 1], 1 << len(m), axis=0)
            cells[:, m] += (np.arange(1 << len(m))[:, None] >> np.arange(len(m))) & 1
            probes[r] = _keys(cells)
        return probes

    def _stored_match(self, flat: np.ndarray, probes: list[list[bytes]]) -> np.ndarray:
        """Per row of ``flat``, is a stored matrix within ``_DEDUP_TOL`` of it?"""
        rows: list[int] = []
        idx: list[int] = []
        get = self._buckets.get
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

    def find(self, M: np.ndarray) -> bool:
        """Is a stored matrix within ``_DEDUP_TOL`` of ``M`` in every entry?"""
        flat = M.reshape(1, 9)
        return bool(self._stored_match(flat, self._probes(flat))[0])

    def absorb(self, X: np.ndarray, bound: float) -> bool:
        """Store, in order, each matrix of the (K, 3, 3) ``X`` that no stored
        matrix matches, earlier rows of ``X`` included; False as soon as more
        than ``bound`` are stored."""
        flat = X.reshape(-1, 9)
        probes = self._probes(flat)
        own = _keys(_cells(flat))
        # every row against the matrices stored before this call at once, then
        # in order against the rows this call keeps, which are few
        kept: list[int] = []
        fresh: dict[bytes, list[int]] = {}
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
            self._buckets.setdefault(own[r], []).append(i)
        return self.count <= bound


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
        """Is ``M`` an element, up to the closure's own 1e-8 max-abs tolerance?
        A matrix with a nan or infinite entry is none."""
        M = np.asarray(M, float)
        return bool(np.isfinite(M).all()) and self._buckets.find(M)


def generate_group(P: Polyhedron, bound: int = 10000) -> GroupClosure:
    """Breadth-first closure of the face-reflection linear parts.

    Each BFS level multiplies every generator onto every element of the
    previous level in one stacked product, then keeps, in order, the
    products no earlier element matches.  Stops as soon as no new element
    appears (``closed=True``) or the element count exceeds ``bound``
    (``closed=False``; evidence, not proof, that the group is infinite).
    """
    if bound < 1:
        raise PreconditionFailed("bound must be >= 1")
    gens = _MatrixBuckets(np.empty((0, 3, 3)))
    gens.absorb(P.reflection_linear, math.inf)
    G = gens.elements[None]

    found = _MatrixBuckets(np.eye(3)[None])
    start, depth = 0, 0
    step = max(1, _BATCH // G.shape[1])
    while start < found.count:
        depth += 1                  # of every candidate this level
        stop = found.count
        for s in range(start, stop, step):
            cands = np.matmul(G, found.stack[s:min(s + step, stop), None]).reshape(-1, 3, 3)
            # snap only the candidates examined before the bound is hit
            batches = ((reorthogonalize(c)[None] for c in cands)
                       if depth % _RENORM_EVERY == 0 else (cands,))
            for batch in batches:
                if not found.absorb(batch, bound):
                    return GroupClosure(found.elements.copy(), False)
        start = stop
    return GroupClosure(found.elements.copy(), True)
