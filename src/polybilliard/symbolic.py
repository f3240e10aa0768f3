"""Coding-side machinery: beams, cell classification, word complexity.

A beam is the set of parallel lines with a fixed direction whose base points
form a convex cross-section in the plane orthogonal to that direction.
Propagating a beam by a face label intersects the cross-section with the
projection of the label's unfolded face copy, so after a word the section is
exactly the set of base points whose orbit code starts with that word.  The
coding is defined on non-singular lines only, and for a fixed direction the
lines that realize a word form an open set: a section with no area holds only
singular lines (in a face plane, or through an edge or a vertex), so it is
emptied, and a face copy seen edge-on empties the beam at once.  A cell is
thus a polygon (a tube) or empty.  A beam keeps its solid, its direction, its
section, its word and the folded frame that maps the next face into the
section plane, not its unfolding: tubes go with periodic words, detected by
composing the word's reflections, at most ``k_max`` of them, in plain floats
until the unfolding becomes a pure translation along the beam direction.

The complexity estimator samples orbits in bulk, codes each reliable word as
one integer, builds the per-length distinct factor sets by a recurrence from
the longest length down, and reports their sizes as explicit lower bounds
for the number of length-n words together with their normalized logarithms.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .billiard import run_word_batch, sample_inward_directions, sample_points_in_face
from .geometry import (ANGLE, LabelNotReachable, Polyhedron, PreconditionFailed, as_count,
                       as_int, tangent_frame, unit)


# ---------------------------------------------------------------------------
# 2D convex sections
# ---------------------------------------------------------------------------

# absolute, in section coordinates: merges clip points that are one vertex
# computed twice; sections of solids built by ``validate`` are of size ~1
_DEDUPE_TOL = 1e-12


def _dedupe(pts: list) -> list:
    if len(pts) < 2:
        return pts
    keep = [pts[0]]
    qx, qy = pts[0]
    for p in pts[1:]:
        if abs(p[0] - qx) > _DEDUPE_TOL or abs(p[1] - qy) > _DEDUPE_TOL:
            keep.append(p)
            qx, qy = p
    px, py = keep[0]
    if len(keep) > 1 and abs(px - qx) <= _DEDUPE_TOL and abs(py - qy) <= _DEDUPE_TOL:
        keep.pop()
    return keep


def _clip_convex(subject: list, clip_ccw: list) -> list | None:
    """``subject``, a convex polygon of ``(x, y)`` float pairs, clipped to
    each edge's half-plane of the CCW polygon ``clip_ccw`` in turn, or
    ``None`` when no point of it lies outside any of them.  Sections have
    3-6 points, so Python floats beat numpy here, as in ``geometry._cast``.
    Every section arrives deduplicated, so a half-plane that holds every
    point leaves the section as it is, and only one that cuts it pays for
    a clip."""
    out, cut = subject, False
    for (ax, ay), (bx, by) in zip(clip_ccw, clip_ccw[1:] + clip_ccw[:1]):
        ex, ey = bx - ax, by - ay
        # interior of a CCW polygon: <(ey, -ex), p - a> <= 0; nan is outside
        nx, ny, c = ey, -ex, ey * ax + -ex * ay
        d = [x * nx + y * ny - c for x, y in out]
        for v in d:
            if not v <= 0.0:
                break
        else:
            continue                    # no point outside
        pts, out, cut = out, [], True
        for p, (qx, qy), dp, dq in zip(pts, pts[1:] + pts[:1], d, d[1:] + d[:1]):
            if dp <= 0.0:
                out.append(p)
            if (dp <= 0.0) != (dq <= 0.0):
                px, py = p
                t = dp / (dp - dq)
                out.append((px + t * (qx - px), py + t * (qy - py)))
        out = _dedupe(out)
        if not out:
            return []
    return out if cut else None


def _area2(pts: list) -> float:
    """Twice the signed shoelace area of a polygon of ``(x, y)`` pairs, of
    at least one point, summed from the edge (p0, p1) on."""
    s = 0.0
    ax, ay = pts[0]
    for bx, by in pts[1:] + pts[:1]:
        s += ax * by - bx * ay
        ax, ay = bx, by
    return s


def _ensure_ccw(pts: list) -> list:
    """Reverse a polygon of ``(x, y)`` pairs whose shoelace area is negative."""
    return pts[::-1] if _area2(pts) < 0.0 else pts


# absolute, in section coordinates: area over size is a width, within sqrt 2.
# Clipping a section of singular lines leaves a sliver as wide as rounding,
# about 1e-16 times the unfolded coordinates, however small the section, so
# the bound is on the width itself; like _DEDUPE_TOL it suits solids of size ~1
_DEG_TOL = 1e-8


def _open(pts: list) -> list:
    """The section, or ``[]`` when it has no area: fewer than 3 points, or an
    area of at most ``_DEG_TOL`` times its size, the larger side of its
    bounding box (within sqrt 2 of its diameter)."""
    if len(pts) < 3:
        return []
    xs, ys = zip(*pts)
    size = max(max(xs) - min(xs), max(ys) - min(ys))
    return pts if 0.5 * abs(_area2(pts)) > _DEG_TOL * size else []


# ---------------------------------------------------------------------------
# beams
# ---------------------------------------------------------------------------

class Beam:
    """Parallel lines with direction ``theta`` over a convex cross-section.

    ``section``, a read-only (K, 2) array, lives in the plane through
    ``origin`` orthogonal to ``theta``, spanned by the rows of ``axes``.
    Besides these the beam keeps its solid, its word and, in place of its
    unfolding, the folded frame ``_frame`` that ``propagate_beam`` steps, 11
    floats: with x -> L x + t the unfolding by the word's reflections, which
    maps the next folded face into the straight picture, A = axes @ L,
    c = axes @ (t - origin) and u = L.T @ theta, so the unfolded copy of a
    folded point v projects to A v + c, and that of a folded face normal n
    meets theta at u . n.
    """

    def __init__(self, solid: Polyhedron, theta: np.ndarray, origin: np.ndarray,
                 axes: np.ndarray, section: list, word: list[str], frame: tuple):
        self.solid, self.theta, self.origin, self.axes = solid, theta, origin, axes
        # [float pairs, their array once read], shared by the children it does not cut
        self._section, self.word, self._frame = section, word, frame

    @property
    def section(self) -> np.ndarray:                 # (K, 2)
        held = self._section
        if held[1] is None:
            a = held[1] = np.array(held[0]).reshape(-1, 2)
            a.setflags(write=False)
        return held[1]

    @property
    def is_empty(self) -> bool:
        return not self._section[0]


def make_beam(P: Polyhedron, label: str, theta) -> Beam:
    """Beam of all lines entering through one full face at a fixed direction."""
    f = P.face_index(label)
    theta = unit(theta)
    if float(theta @ P.normals[f]) <= ANGLE:
        raise PreconditionFailed(f"direction is tangent to face {label!r}")
    poly, axes = P.face_polygon(f), tangent_frame(theta)
    origin = poly.mean(axis=0)
    section = _open(_dedupe(_ensure_ccw(((poly - origin) @ axes.T).tolist())))
    frame = (*axes.ravel().tolist(), *(-(axes @ origin)).tolist(), *theta.tolist())
    return Beam(P, theta, origin, axes, [section, None], [label], frame)


def propagate_beam(b: Beam, label: str, P: Polyhedron) -> Beam:
    """Extend the beam's word by one label.

    The new cross-section is the old one intersected with the projection of
    the label's unfolded face copy (exact convex clipping), emptied when it
    has no area (``_open``).  A face copy seen edge-on empties the beam: the
    lines that cross it lie in its plane.  A geometric miss yields an empty
    beam, and an empty beam extends to an empty beam; a label equal to the
    previous one, or unknown, raises.  A child shares the section no
    half-plane cuts: beam arrays are read-only.
    """
    if b.word and label == b.word[-1]:
        raise LabelNotReachable("consecutive labels cannot repeat on a convex solid")
    f = P.face_index(label)
    nx, ny, nz, cf, _ = P.rows[f]
    a0, a1, a2, b0, b1, b2, c0, c1, u0, u1, u2 = b._frame
    un = u0 * nx + u1 * ny + u2 * nz
    section = b._section
    if section[0]:
        if abs(un) <= ANGLE:
            cut = []
        else:
            # the face copy, projected onto the section plane
            shadow = [(a0 * x + a1 * y + a2 * z + c0, b0 * x + b1 * y + b2 * z + c1)
                      for x, y, z in P.face_polygon(f).tolist()]
            cut = _clip_convex(section[0], _ensure_ccw(shadow))
        if cut is not None:             # an uncut section was open already
            section = [_open(cut), None]
    # the frame composed with the reflection x -> x - 2 (n . x + cf) n
    an, bn, un = 2.0 * (a0 * nx + a1 * ny + a2 * nz), 2.0 * (b0 * nx + b1 * ny + b2 * nz), 2.0 * un
    frame = (a0 - an * nx, a1 - an * ny, a2 - an * nz, b0 - bn * nx, b1 - bn * ny, b2 - bn * nz,
             c0 - cf * an, c1 - cf * bn, u0 - un * nx, u1 - un * ny, u2 - un * nz)
    return Beam(P, b.theta, b.origin, b.axes, section, b.word + [label], frame)


@dataclass(frozen=True)
class CellClass:
    """Shape of a limiting cross-section: a tube (open, with its area) or empty."""

    kind: str                  # "tube" | "empty"
    area: float | None = None


# periods' translations (detect_periodicity)
_PERIOD_TOL = 1e-9


def classify_cell(b: Beam) -> CellClass:
    """The beam's cell: ``empty``, or a ``tube`` with its section's area."""
    if b.is_empty:
        return CellClass("empty")
    return CellClass("tube", area=0.5 * abs(_area2(b._section[0])))


def _forward_along(t: tuple, theta: tuple) -> bool:
    """Is the translation ``t`` a step forward along the unit ``theta``: longer
    than ``_PERIOD_TOL``, off ``theta`` by at most ``_PERIOD_TOL`` of its
    length, and at a positive dot with it?  Both are float triples."""
    tx, ty, tz = t
    ux, uy, uz = theta
    tn, s = math.hypot(tx, ty, tz), tx * ux + ty * uy + tz * uz
    return (tn > _PERIOD_TOL and s > 0.0
            and math.hypot(tx - s * ux, ty - s * uy, tz - s * uz) <= _PERIOD_TOL * tn)


def detect_periodicity(b: Beam, k_max: int) -> int | None:
    """Smallest period k <= k_max whose unfolding is a translation along the
    beam direction and whose word repeats with that period; None otherwise.
    ``k_max`` must be an integer >= 1.  The unfolding after k reflections is
    composed here, in plain floats, from the first k + 1 labels of the word,
    so at most ``k_max`` reflections are composed, whatever the word's length."""
    k_max = as_count(k_max, "k_max", 1)
    if b.is_empty:          # no line realizes its word
        return None
    P, w, theta = b.solid, b.word, b.theta.tolist()
    # x -> L x + t, L row by row
    l0, l1, l2, m0, m1, m2, n0, n1, n2 = 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0
    t0 = t1 = t2 = 0.0
    for k in range(1, min(k_max, len(w) - 1) + 1):
        nx, ny, nz, cf, _ = P.rows[P.face_index(w[k])]
        # the unfolding composed with the reflection x -> x - 2 (n . x + cf) n
        p0, p1, p2 = (2.0 * (l0 * nx + l1 * ny + l2 * nz), 2.0 * (m0 * nx + m1 * ny + m2 * nz),
                      2.0 * (n0 * nx + n1 * ny + n2 * nz))
        l0, l1, l2, m0, m1, m2, n0, n1, n2 = (l0 - p0 * nx, l1 - p0 * ny, l2 - p0 * nz,
                                              m0 - p1 * nx, m1 - p1 * ny, m2 - p1 * nz,
                                              n0 - p2 * nx, n1 - p2 * ny, n2 - p2 * nz)
        t0, t1, t2 = t0 - cf * p0, t1 - cf * p1, t2 - cf * p2
        if w[k:] != w[:-k]:             # the word does not repeat with period k
            continue
        if all(abs(x) <= _PERIOD_TOL for x in (l0 - 1.0, l1, l2, m0, m1 - 1.0, m2,
                                                 n0, n1, n2 - 1.0)) \
                and _forward_along((t0, t1, t2), theta):
            return k
    return None


# ---------------------------------------------------------------------------
# word complexity
# ---------------------------------------------------------------------------

@dataclass
class ComplexityTable:
    """Sampled lower bounds for the number of distinct length-n words."""

    n: np.ndarray
    p_hat: np.ndarray
    log_p_over_n: np.ndarray
    budget: int
    seed: int
    n_max: int
    discarded: int              # near-singular orbits dropped entirely
    singular: int               # orbits cut short by an exact edge/vertex hit
    labels: list[str]
    word_codes: dict[int, np.ndarray]       # sorted distinct codes per length
    tiles: tuple[int, int]

    @property
    def extendability_ok(self) -> bool:
        """Sampled counts should inherit p(n+1) >= p(n) from word extendability."""
        return bool(np.all(np.diff(self.p_hat) >= 0))

    def words(self, n: int) -> list[tuple[str, ...]]:
        """Decode the distinct words of length ``n`` back to label tuples."""
        n = as_int(n, f"word length {n!r} is not an integer")
        if not 1 <= n <= self.n_max:
            raise PreconditionFailed(f"word length must be in 1..{self.n_max}, got {n!r}")
        F = len(self.labels)
        # the inverse of _chunk_complexity's powers product: digits, first first
        digits = self.word_codes[n][:, None] // F ** np.arange(n - 1, -1, -1, dtype=np.int64) % F
        return [tuple(self.labels[d] for d in row) for row in digits.tolist()]

    def factor_closure_holds(self, workers: int = 1) -> bool:
        """Every counted (n+1)-word must have both its n-prefix and n-suffix
        among the counted n-words, whose codes must be strictly increasing.
        Each length is checked on its own, on ``workers`` threads."""
        base = len(self.labels)

        def level_holds(n: int) -> bool:
            longer = self.word_codes.get(n + 1)
            shorter = self.word_codes.get(n)
            if longer is None or shorter is None or len(longer) == 0:
                return True
            if not np.all(shorter[1:] > shorter[:-1]):
                return False
            # with ``shorter`` distinct, adding the factors adds no new value
            # exactly when all of them are in it
            s = np.concatenate([shorter, longer // base, longer % base ** n])
            s.sort()
            return np.count_nonzero(s[1:] != s[:-1]) + 1 == len(shorter)

        return all(_map(level_holds, range(1, self.n_max), workers))


def _sorted_distinct(s: np.ndarray) -> np.ndarray:
    """Sort ``s`` in place and return its distinct values."""
    s.sort()
    keep = np.empty(len(s), dtype=bool)
    keep[:1] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return np.compress(keep, s)         # a boolean index is several times slower


def _map(fn, items, workers: int) -> list:
    """``[fn(x) for x in items]``, on a pool of ``workers`` threads when
    there is more than one worker and more than one item."""
    workers = as_count(workers, "workers", 1)
    items = list(items)
    if workers == 1 or len(items) < 2:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items))


# equal-area direction tiles of the inward hemisphere: polar x azimuthal
_TILES = (4, 8)


def _chunk_complexity(P: Polyhedron, seed: int, chunk_idx: int, start: int,
                      stop: int, n_max: int
                      ) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Sample one chunk; return the code and length of each reliable word,
    plus the chunk's discarded and singular-terminated counts."""
    rng = np.random.default_rng([seed, chunk_idx])
    F = P.n_faces
    tw, tp = _TILES
    g = np.arange(start, stop)
    faces = g % F
    tile = (g // F) % (tw * tp)
    iw = tile % tw
    ip = tile // tw
    m = sample_points_in_face(P, faces, rng)
    theta = sample_inward_directions(
        P, faces, rng,
        w_lo=iw / tw, w_hi=(iw + 1) / tw,
        phi_lo=ip * 2.0 * np.pi / tp, phi_hi=(ip + 1) * 2.0 * np.pi / tp)
    words, lengths, flags = run_word_batch(P, m, theta, faces, n_max)

    powers = F ** np.arange(n_max - 1, -1, -1, dtype=np.int64)
    # the full-width code over zeroed padding, cut down to each word's length
    codes = (np.maximum(words, 0).astype(np.int64) @ powers) // powers[lengths - 1]
    return codes[~flags], lengths[~flags], int(flags.sum()), int((lengths < n_max).sum())


def estimate_complexity(P: Polyhedron, n_max: int, budget: int, seed: int = 0,
                        chunk_size: int = 65536, workers: int = 1) -> ComplexityTable:
    """Sample ``budget`` orbits and count distinct word factors per length.

    Initial conditions are stratified: faces round-robin, directions binned
    into the equal-area tiles of the inward hemisphere (4 polar x 8
    azimuthal), with per-chunk jitter from a seeded generator.  Words
    flagged near-singular are discarded outright; words cut short by an exact
    singular hit contribute the factors of their reliable prefix.  Chunks
    return word codes only; the factor sets are built once, over all chunks'
    codes, so results are deterministic for a given seed and independent of
    chunking order or worker count.
    """
    n_max = as_count(n_max, "n_max", 2)
    budget = as_count(budget, "budget", 1)
    seed = as_count(seed, "seed", 0)
    chunk_size = as_count(chunk_size, "chunk_size", 1)
    F = P.n_faces
    if F ** n_max >= 2 ** 62:
        raise PreconditionFailed("alphabet too large for integer word codes at this n_max")
    bounds = list(range(0, budget, chunk_size)) + [budget]
    jobs = [(i, bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]

    def chunk(job):
        return _chunk_complexity(P, seed, *job, n_max)

    codes, lengths, discarded, singular = zip(*_map(chunk, jobs, workers))
    codes, lengths = np.concatenate(codes), np.concatenate(lengths)
    full = lengths == n_max
    short, short_len = codes[~full], lengths[~full]
    # equal words have equal factors, so only distinct full-length words
    # take part; sorting then dropping repeats beats np.unique's hashing here
    top = longer = _sorted_distinct(codes[full])
    word_codes: dict[int, np.ndarray] = {n_max: top}
    for n in range(n_max - 1, 0, -1):
        # an n-factor is the prefix of an (n+1)-factor or the n-suffix of its
        # word; the n-suffixes of the (n+1)-factors, with the words exactly n
        # long, may stand in for the latter, so sort whichever list is shorter
        if len(longer) <= len(top) + np.count_nonzero(short_len > n):
            tails = [longer % F ** n, short[short_len == n]]
        else:
            tails = [top % F ** n, short[short_len >= n] % F ** n]
        longer = word_codes[n] = _sorted_distinct(np.concatenate([longer // F, *tails]))

    ns = np.arange(1, n_max + 1)
    p_hat = np.array([len(word_codes[n]) for n in ns], dtype=np.int64)
    with np.errstate(divide="ignore"):
        lpn = np.where(p_hat > 0, np.log(np.maximum(p_hat, 1)) / ns, -np.inf)
    return ComplexityTable(ns, p_hat, lpn, budget, seed, n_max, sum(discarded),
                           sum(singular), list(P.labels), word_codes, _TILES)
