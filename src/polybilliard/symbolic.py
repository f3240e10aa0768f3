"""Coding-side machinery: beams, cell classification, word complexity.

A beam is the set of parallel lines with a fixed direction whose base points
form a convex cross-section in the plane orthogonal to that direction.
Propagating a beam by a face label intersects the cross-section with the
projection of the label's unfolded face copy, so after a word the section is
exactly the set of base points whose orbit code starts with that word.
Sections shrink to polygons (tubes), segments (strips), or points; tubes go
with periodic words, detected through the cumulative unfolding isometry
becoming a pure translation along the beam direction.

The complexity estimator samples orbits in bulk, codes each reliable word as
one integer, builds the per-length distinct factor sets by a recurrence from
the longest length down, and reports their sizes as explicit lower bounds
for the number of length-n words together with their normalized logarithms.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .billiard import run_word_batch, sample_inward_directions, sample_points_in_face
from .geometry import Polyhedron, farthest_pair, tangent_frame, unit
from .unfolding import Isometry


class LabelNotReachable(Exception):
    """The requested label cannot extend this beam's word."""


# ---------------------------------------------------------------------------
# 2D convex sections
# ---------------------------------------------------------------------------

_EMPTY2 = np.zeros((0, 2))


def _polygon_area(pts: np.ndarray) -> float:
    if len(pts) < 3:
        return 0.0
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


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


def _clip_half(pts: list, nx: float, ny: float, c: float) -> list:
    """Clip a convex section (point/segment/polygon), given as a list of
    ``(x, y)`` float pairs, to {p : <(nx, ny), p> <= c}.  Sections have 3-6
    points, so Python floats beat numpy here, as in ``first_hit``."""
    if not pts:
        return []
    d = [x * nx + y * ny - c for x, y in pts]
    if len(pts) == 1:
        return pts if d[0] <= 0.0 else []
    if len(pts) == 2:
        ina, inb = d[0] <= 0.0, d[1] <= 0.0
        if ina and inb:
            return pts
        if not ina and not inb:
            return []
        (ax, ay), (bx, by) = pts
        t = d[0] / (d[0] - d[1])
        x = (ax + t * (bx - ax), ay + t * (by - ay))
        return [pts[0], x] if ina else [x, pts[1]]
    out = []
    K = len(pts)
    for i in range(K):
        j = (i + 1) % K
        ina, inb = d[i] <= 0.0, d[j] <= 0.0
        if ina:
            out.append(pts[i])
        if ina != inb:
            (ax, ay), (bx, by) = pts[i], pts[j]
            t = d[i] / (d[i] - d[j])
            out.append((ax + t * (bx - ax), ay + t * (by - ay)))
    return _dedupe(out)


def _clip_convex(subject: list, clip_ccw: list) -> list:
    out = subject
    K = len(clip_ccw)
    for i in range(K):
        ax, ay = clip_ccw[i]
        bx, by = clip_ccw[(i + 1) % K]
        ex, ey = bx - ax, by - ay
        # interior of a CCW polygon: <(ey, -ex), p - a> <= 0
        out = _clip_half(out, ey, -ex, ey * ax + -ex * ay)
        if not out:
            return []
    return out


def _ensure_ccw(pts: list) -> list:
    """Reverse a polygon of ``(x, y)`` pairs whose shoelace area is negative."""
    K = len(pts)
    area2 = sum(pts[i][0] * pts[(i + 1) % K][1] - pts[(i + 1) % K][0] * pts[i][1]
                for i in range(K))
    return pts[::-1] if area2 < 0.0 else pts


# ---------------------------------------------------------------------------
# beams
# ---------------------------------------------------------------------------

@dataclass
class Beam:
    """Parallel lines with direction ``theta`` over a convex cross-section.

    ``section`` lives in the plane through ``origin`` orthogonal to ``theta``,
    spanned by the rows of ``axes``; ``isometries[k]`` is the cumulative
    unfolding after the first ``k`` reflections of the word (entry 0 is the
    identity), so ``isometry`` maps the next folded face into the straight
    picture.
    """

    theta: np.ndarray
    origin: np.ndarray
    axes: np.ndarray                         # (2, 3)
    section: np.ndarray                      # (K, 2)
    word: list[str]
    isometries: list[Isometry] = field(default_factory=lambda: [Isometry.identity()])

    @property
    def isometry(self) -> Isometry:
        return self.isometries[-1]

    @property
    def is_empty(self) -> bool:
        return len(self.section) == 0

    def project(self, pts3) -> np.ndarray:
        return (np.atleast_2d(np.asarray(pts3, float)) - self.origin) @ self.axes.T


def make_beam(P: Polyhedron, label: str, theta) -> Beam:
    """Beam of all lines entering through one full face at a fixed direction."""
    f = P.face_index(label)
    theta = unit(theta)
    if float(theta @ P.normals[f]) <= P.tol.angle:
        raise ValueError(f"direction is tangent to face {label!r}")
    origin = P.face_polygon(f).mean(axis=0)
    beam = Beam(theta, origin, tangent_frame(theta), _EMPTY2, [label])
    beam.section = np.array(_ensure_ccw(beam.project(P.face_polygon(f)).tolist()))
    return beam


# absolute: a zero-length guard before dividing by the length of a face
# copy's projection, so any positive floor is sound
_SEGMENT_TOL = 1e-15


def propagate_beam(b: Beam, label: str, P: Polyhedron) -> Beam:
    """Extend the beam's word by one label.

    The new cross-section is the old one intersected with the projection of
    the label's unfolded face copy (exact convex clipping; a face copy seen
    edge-on clips to a segment).  A geometric miss yields an empty beam; a
    label equal to the previous one, or unknown, raises.
    """
    if b.is_empty:
        raise ValueError("cannot propagate an empty beam")
    if label not in P.labels:
        raise LabelNotReachable(f"unknown face label {label!r}")
    if b.word and label == b.word[-1]:
        raise LabelNotReachable("consecutive labels cannot repeat on a convex solid")
    f = P.face_index(label)
    iso = b.isometry
    poly3 = iso.apply(P.face_polygon(f))
    n3 = iso.apply_direction(P.faces[f].plane.normal)
    verts2 = b.project(poly3)
    section = b.section.tolist()

    if abs(float(n3 @ b.theta)) <= P.tol.angle:
        # face copy is parallel to the beam: its projection is a segment
        _, i, j = farthest_pair(verts2)
        a = verts2[i]
        dir2 = verts2[j] - a
        L = float(np.linalg.norm(dir2))
        if L < _SEGMENT_TOL:
            section = []
        else:
            dir2 = dir2 / L
            s = ((verts2 - a) @ dir2).tolist()
            (ux, uy), (ax, ay) = dir2.tolist(), a.tolist()
            for nx, ny, c in ((-uy, ux, -uy * ax + ux * ay),
                              (uy, -ux, uy * ax + -ux * ay),
                              (-ux, -uy, -(ux * ax + uy * ay) - min(s)),
                              (ux, uy, (ux * ax + uy * ay) + max(s))):
                section = _clip_half(section, nx, ny, c)
    else:
        section = _clip_convex(section, _ensure_ccw(verts2.tolist()))

    new_iso = iso.compose(Isometry(P.reflection_linear[f], P.reflection_translation[f]))
    section = np.array(section).reshape(-1, 2)
    return Beam(b.theta, b.origin, b.axes, section, b.word + [label],
                b.isometries + [new_iso])


@dataclass(frozen=True)
class CellClass:
    """Shape of a limiting cross-section: tube (2D), strip (1D), point, empty."""

    kind: str                  # "tube" | "strip" | "point" | "empty"
    width: float | None = None
    area: float | None = None


# degenerate cross-sections (classify_cell), periods' translations (detect_periodicity)
_DEG_TOL = 1e-8
_PERIOD_TOL = 1e-9


def classify_cell(b: Beam) -> CellClass:
    """Classify the beam's cross-section by diameter and area thresholds."""
    pts = b.section
    if len(pts) == 0:
        return CellClass("empty")
    diam = farthest_pair(pts)[0]
    if diam <= _DEG_TOL:
        return CellClass("point")
    area = abs(_polygon_area(pts))
    if area <= _DEG_TOL * diam:
        return CellClass("strip", width=diam)
    return CellClass("tube", area=area)


def detect_periodicity(b: Beam, k_max: int) -> int | None:
    """Smallest period k <= k_max whose unfolding is a translation along the
    beam direction and whose word repeats with that period; None otherwise."""
    w = b.word
    for k in range(1, min(k_max, len(w) - 1) + 1):
        if any(w[i] != w[i + k] for i in range(len(w) - k)):
            continue
        iso = b.isometries[k]
        if not iso.is_translation(_PERIOD_TOL):
            continue
        t = iso.translation
        tn = float(np.linalg.norm(t))
        if tn <= _PERIOD_TOL:
            continue
        if float(np.linalg.norm(t - (t @ b.theta) * b.theta)) > _PERIOD_TOL * tn:
            continue
        if float(t @ b.theta) <= 0.0:
            continue
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
        base = len(self.labels)
        out = []
        for code in self.word_codes[n]:
            c = int(code)
            rev = []
            for _ in range(n):
                rev.append(self.labels[c % base])
                c //= base
            out.append(tuple(reversed(rev)))
        return out

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
    if workers < 1:
        raise ValueError("workers must be >= 1")
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
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    F = P.n_faces
    if F ** n_max >= 2 ** 62:
        raise ValueError("alphabet too large for integer word codes at this n_max")
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
