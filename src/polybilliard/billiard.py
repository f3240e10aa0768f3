"""The billiard map on the boundary phase space, with singularity tracking.

A phase point is a boundary point plus an inward unit direction.  One step
casts the forward ray, reflects at the hit face, and refuses to continue when
the ray meets an edge or vertex or runs inside a face: the map is only
defined away from those singular lines, and no continuation convention is
invented for them.  Orbits additionally flag bounces that pass suspiciously
close to an edge so downstream statistics can discard unreliable words.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .geometry import (Hit, HitKind, NoAdvance, Polyhedron, first_hit,
                       segment_segment_distance, unit, vec3)
from .transversal import EdgeLine
from .unfolding import Isometry, _prefix_isometries


class SingularInput(Exception):
    """The step was asked to continue an orbit that leaves the phase space."""


class EmptyReport(Exception):
    """No discontinuities were found along the orbit."""


class PhasePoint(NamedTuple):
    """Boundary point ``m`` on face ``face`` with inward unit direction ``theta``."""

    face: int
    m: np.ndarray
    theta: np.ndarray


def phase_point(P: Polyhedron, m, theta, face: int | str | None = None) -> PhasePoint:
    """Validated phase point; the face is located from ``m`` when omitted."""
    m = vec3(m)
    theta = unit(theta)
    if face is None:
        s = np.abs(P.signed_distances(m))
        cands = [f for f in np.flatnonzero(s <= P.tol.plane)
                 if P.point_in_face(int(f), m)]
        if not cands:
            raise ValueError("point does not lie on any face")
        face = int(cands[0])
    elif isinstance(face, str):
        face = P.face_index(face)
    elif not 0 <= face < P.n_faces:
        raise ValueError(f"face id {face} out of range 0..{P.n_faces - 1}")
    if abs(float(P.faces[face].plane.signed(m))) > 10 * P.tol.plane:
        raise ValueError("point does not lie on the given face plane")
    if not P.point_in_face(face, m):
        raise ValueError("point lies outside the given face")
    if float(theta @ P.normals[face]) <= 0.0:
        raise ValueError("direction does not point into the interior")
    return PhasePoint(face, m, theta)


class SingularityKind(Enum):
    EDGE_HIT = "edge-hit"
    VERTEX_HIT = "vertex-hit"
    TANGENT_IN_FACE = "tangent-in-face"


@dataclass(frozen=True)
class SingularityEvent:
    """Where and how an orbit left the phase space; :func:`discontinuity_report`
    gives its edge, or the edges through its vertex, in unfolded coordinates."""

    kind: SingularityKind
    step: int
    point: np.ndarray
    edge: int | None = None
    vertex: int | None = None
    face: int | None = None


@dataclass
class OrbitRecord:
    """A coded orbit: phase points from the start on, their face-label word, terminal state."""

    points: list[PhasePoint]
    word: list[str]
    singularity: SingularityEvent | None = None
    near_singular_steps: list[int] = field(default_factory=list)

    @property
    def completed(self) -> bool:
        return self.singularity is None

    @property
    def n_bounces(self) -> int:
        return len(self.points)


def _event(hit: Hit | None, points: list[PhasePoint]) -> SingularityEvent:
    """The singularity that ends an orbit at its last point, whose forward
    ``hit`` is an edge or vertex (``None``: a ray inside the face)."""
    step, last = len(points) - 1, points[-1]
    if hit is None:
        return SingularityEvent(SingularityKind.TANGENT_IN_FACE, step,
                                last.m.copy(), face=last.face)
    kind = SingularityKind.EDGE_HIT if hit.kind is HitKind.EDGE else SingularityKind.VERTEX_HIT
    return SingularityEvent(kind, step, hit.point, edge=hit.edge,
                            vertex=hit.vertex, face=hit.face)


def classify_phase_point(x: PhasePoint, P: Polyhedron) -> SingularityEvent | None:
    """``None`` when the forward ray lands transversally inside a face,
    otherwise the singularity event (edge, vertex, or in-face tangency)."""
    return orbit(x, 1, P).singularity


def billiard_step(x: PhasePoint, P: Polyhedron) -> PhasePoint:
    """One application of the billiard map.  Raises :class:`SingularInput`
    instead of stepping through an edge, vertex, or tangency."""
    rec = orbit(x, 2, P)
    if rec.singularity is not None:
        raise SingularInput(f"singular phase point: {rec.singularity.kind.value}")
    return rec.points[1]


def orbit(x: PhasePoint, n_max: int, P: Polyhedron) -> OrbitRecord:
    """Iterate the map until ``n_max`` bounces are recorded or the orbit
    turns singular; the word collects one face label per recorded bounce.

    The start is checked for sitting on an edge, and the forward ray of every
    recorded point but the last is cast and checked; so the start's ray is
    checked even for ``n_max == 1``, and a completed orbit casts ``n_max - 1``
    rays (one for ``n_max == 1``).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    points = [x]
    flagged: list[int] = []
    normals = P.normals.tolist()

    # a start on an edge of its face has no continuation convention
    dist, edge = P.nearest_edge(x.face, x.m)
    if dist <= P.tol.plane:
        hit = Hit(HitKind.EDGE, x.m.copy(), 0.0, face=x.face, edge=edge,
                  edge_distance=dist)
    m, theta = x.m, x.theta
    tx, ty, tz = theta.tolist()
    # theta . n of the last point; the start's by numpy, whose dot can round
    # otherwise than the float sum, which flips rays at the `angle` threshold
    cos_n = float(theta @ P.normals[x.face])
    while not dist <= P.tol.plane:       # the start is off its face's edges
        # the last point's forward hit, None when its ray runs inside its face
        try:
            hit = first_hit(m, theta, P) if cos_n > P.tol.angle else None
        except NoAdvance:
            hit = None
        # n_max == 1: the start's ray is checked, not followed
        if hit is None or hit.kind is not HitKind.FACE or len(points) == n_max:
            break
        # reflect_direction in floats: theta - 2 <theta, n> n
        nx, ny, nz = normals[hit.face]
        k = 2.0 * (tx * nx + ty * ny + tz * nz)
        tx, ty, tz = tx - k * nx, ty - k * ny, tz - k * nz
        cos_n = tx * nx + ty * ny + tz * nz
        m, theta = hit.point, np.array((tx, ty, tz))
        points.append(PhasePoint(hit.face, m, theta))
        if hit.edge_distance <= P.tol.sing:
            flagged.append(len(points) - 1)
        if len(points) == n_max:
            break
    ended = hit is None or hit.kind is not HitKind.FACE
    return OrbitRecord(points, [P.labels[p.face] for p in points],
                       _event(hit, points) if ended else None, flagged)


def discontinuity_report(record: OrbitRecord, P: Polyhedron,
                         radius: float = 0.0) -> list[EdgeLine]:
    """Unfolded edge lines met (or approached within ``radius``) by an orbit.

    Each line is an edge at a step k, moved by the unfolding isometry of k.
    A terminal edge hit gives its edge, a vertex hit every edge through the
    vertex; a positive radius first adds, in (k, edge) order, every edge
    within ``radius`` of segment k.  Equal lines are reported once.  Raises
    :class:`EmptyReport` when nothing is found.
    """
    pts, ev = record.points, record.singularity
    pairs = []
    if radius > 0.0:
        # segment k ends at point k + 1 or at the terminal edge/vertex hit
        ends = [p.m for p in pts[1:]]
        if ev is not None and ev.kind is not SingularityKind.TANGENT_IN_FACE:
            ends.append(ev.point)
        ends = np.reshape(ends, (-1, 1, 3))
        starts = np.reshape([p.m for p in pts[:len(ends)]], (-1, 1, 3))
        ij = P.vertices[[e.endpoints for e in P.edges]]        # (E, 2, 3)
        dist = segment_segment_distance(starts, ends, ij[:, 0], ij[:, 1])
        pairs = np.argwhere(dist <= radius).tolist()            # row-major (k, edge)
    if ev is not None:          # the edge hit, or every edge through the vertex hit
        pairs += [(ev.step, i) for i, e in enumerate(P.edges)
                  if i == ev.edge or ev.vertex in e.endpoints]
    lin, trans = _prefix_isometries(P, [p.face for p in pts])
    found: dict[tuple, EdgeLine] = {}       # insertion-ordered, one line per key
    for k, i in pairs:
        iso, e = Isometry(lin[k], trans[k]), P.edges[i]
        point, direction = iso.apply(e.point), iso.apply_direction(e.direction)
        d = direction if direction[int(np.argmax(np.abs(direction)))] >= 0.0 else -direction
        key = tuple(np.round(np.concatenate([point - (point @ d) * d, d]), 9))
        found.setdefault(key, EdgeLine(point, direction))
    if not found:
        raise EmptyReport("no discontinuities within the requested radius")
    return list(found.values())


# ---------------------------------------------------------------------------
# sampling and batched word generation
# ---------------------------------------------------------------------------

def sample_points_in_face(P: Polyhedron, faces: np.ndarray,
                          rng: np.random.Generator) -> np.ndarray:
    """A uniform point in the polygon of each face in ``faces``, via its
    triangle fan; the faces draw from ``rng`` in face-id order."""
    m = np.empty((len(faces), 3))
    for f in range(P.n_faces):
        rows = np.flatnonzero(faces == f)
        if rows.size == 0:
            continue
        poly = P.face_polygon(f)
        v0 = poly[0]
        tri_a = poly[1:-1] - v0
        tri_b = poly[2:] - v0
        areas = 0.5 * np.linalg.norm(np.cross(tri_a, tri_b), axis=1)
        idx = rng.choice(len(areas), size=rows.size, p=areas / areas.sum())
        r1 = np.sqrt(rng.random(rows.size))
        r2 = rng.random(rows.size)
        m[rows] = v0 + (r1 * (1 - r2))[:, None] * tri_a[idx] + (r1 * r2)[:, None] * tri_b[idx]
    return m


def sample_inward_directions(P: Polyhedron, faces: np.ndarray,
                             rng: np.random.Generator,
                             w_lo: np.ndarray | float = 0.0,
                             w_hi: np.ndarray | float = 1.0,
                             phi_lo: np.ndarray | float = 0.0,
                             phi_hi: np.ndarray | float = 2.0 * np.pi) -> np.ndarray:
    """Directions uniform w.r.t. area on the inward hemisphere of each face.

    ``w`` is the cosine of the polar angle from the inward normal; restricting
    (w, phi) to sub-ranges yields equal-area stratification tiles.
    """
    count = len(faces)
    w = rng.uniform(0.0, 1.0, count) * (np.asarray(w_hi) - np.asarray(w_lo)) + w_lo
    phi = rng.uniform(0.0, 1.0, count) * (np.asarray(phi_hi) - np.asarray(phi_lo)) + phi_lo
    r = np.sqrt(np.maximum(0.0, 1.0 - w * w))
    fr = P.frames[faces]                               # (B, 3, 3) rows t1,t2,n
    local = np.stack([r * np.cos(phi), r * np.sin(phi), w], axis=1)
    return np.einsum("bi,bij->bj", local, fr)


def random_phase_points(P: Polyhedron, count: int,
                        rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(m, theta, face) arrays sampled uniformly over faces x inward hemisphere."""
    faces = rng.integers(0, P.n_faces, count)
    m = sample_points_in_face(P, faces, rng)
    theta = sample_inward_directions(P, faces, rng)
    return m, theta, faces


# rows stepped together by run_word_batch: each (F, _BLOCK) temporary of a
# small solid (393 KB at F = 6) then stays in L2 across the bounce loop
_BLOCK = 8192


def run_word_batch(P: Polyhedron, m: np.ndarray, theta: np.ndarray,
                   face: np.ndarray, n_labels: int
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Iterate many billiard rays at once and record their label words.

    Returns ``(words, lengths, flags)``: an (B, n_labels) int16 array of face
    indices padded with -1 past each orbit's termination, the number of valid
    labels per row, and a near-singular flag per row (some bounce passed
    within the ``sing`` tolerance of an edge).  Semantics match iterating
    :func:`billiard_step`, including conservative edge-hit termination.
    """
    face = np.asarray(face).astype(np.int64)
    words = np.full((len(face), n_labels), -1, dtype=np.int16)
    words[:, 0] = face
    lengths = np.ones(len(face), dtype=np.int64)
    flags = np.zeros(len(face), dtype=bool)

    # tangent starts never advance
    theta = np.asarray(theta, float)
    rows = np.flatnonzero(np.einsum("bj,bj->b", theta, P.normals[face]) > P.tol.angle)
    m = np.asarray(m, float)
    for lo in range(0, rows.size, _BLOCK):
        block = rows[lo:lo + _BLOCK]
        _step_block(P, m[block].T.copy(), theta[block].T.copy(), block, words, lengths, flags)
    return words, lengths, flags


def _step_block(P: Polyhedron, m: np.ndarray, theta: np.ndarray, rows: np.ndarray,
                words: np.ndarray, lengths: np.ndarray, flags: np.ndarray) -> None:
    """Step the rays ``rows`` of :func:`run_word_batch`, face-major: ``m`` and
    ``theta`` are (3, b), every per-face quantity is (F, b), so each reduction
    over faces runs along axis 0.  Writes into ``words``, ``lengths`` and
    ``flags`` in place, and overwrites ``theta``.

    The bounce loop takes no data-dependent branch per element: masked ray
    lengths become inf by an ``fmax``, :func:`_first_min` counts the hit
    face, and the edge distance is an ``fmin`` that skips, as nan, the faces
    sharing no edge with the hit face."""
    tol, N = P.tol, P.normals
    N_out = -N
    offsets = P.offsets[:, None]
    # inv_sin with nan off the edges: an fmin over faces skips those faces
    inv_sin = np.where(P.edge_mask == 0.0, P.inv_sin, np.nan)
    s = N @ m + offsets
    # a start on an edge of its face ends at once, as in orbit; the start
    # lies in its face, so its edge-line distance is its edge distance
    keep = _edge_distance(inv_sin, s, words[rows, 0]) > tol.plane
    if not keep.all():
        m, theta, s = (a.compress(keep, axis=1) for a in (m, theta, s))
        rows = rows[keep]
    for k in range(1, words.shape[1]):
        if rows.size == 0:
            break
        d = N_out @ theta               # outward normals: t = s / d, no negation
        # a row with no forward hit (tstar = inf) gets inf/nan below
        with np.errstate(divide="ignore", invalid="ignore"):
            bad = d <= tol.angle
            t = np.divide(s, d, out=s)              # in s's storage
            bad |= t <= tol.step
            # bad * inf is nan (0 * inf) where fmax keeps t and inf where it
            # masks t, a nan t (0/0 at d = 0) too
            np.fmax(t, np.multiply(bad, np.inf), out=t)
            tstar = t.min(axis=0)
            fstar = _first_min(t, tstar)
            q = theta * tstar
            q += m
            # s(q) serves this edge test (see Polyhedron) and the next face choice
            s = N @ q
            s += offsets
            edist = _edge_distance(inv_sin, s, fstar)

        keep = np.isfinite(tstar) & (edist > tol.plane)
        flags[rows[keep & (edist <= tol.sing)]] = True
        if not keep.all():
            lengths[rows[~keep]] = k                # the labels before this step
            # compress: boolean column indexing of an (F, b) array is slower
            q, s, theta = (a.compress(keep, axis=1) for a in (q, s, theta))
            rows, fstar = rows[keep], fstar[keep]
        words[rows, k] = fstar

        # theta - 2 <theta, n> n
        nvec = np.take(N.T, fstar, axis=1)
        c = np.einsum("jb,jb->b", theta, nvec)
        c *= 2.0
        nvec *= c
        theta -= nvec
        m = q
    lengths[rows] = words.shape[1]                  # the rows still running


def _first_min(t: np.ndarray, tstar: np.ndarray) -> np.ndarray:
    """The first row attaining each column's minimum ``tstar`` of the (F, b)
    array ``t``, which holds no nan: ``np.argmin(t, axis=0)`` by counting
    the leading rows that miss it, one running pass per row.  A column of inf
    gives row 0.  The count's dtype is the smallest that holds F."""
    miss = (t != tstar).view(np.uint8)
    run = miss[0].copy()
    count = run.astype(np.min_scalar_type(len(t)))
    for row in miss[1:]:
        run &= row
        count += run
    return count.astype(np.intp)


def _edge_distance(inv_sin: np.ndarray, s: np.ndarray, face: np.ndarray) -> np.ndarray:
    """Distance of each point q to the boundary of its face ``face``, for q
    inside that face: the fmin over faces g of ``s[g] * inv_sin[face, g]``,
    ``s`` holding q's (F, b) signed distances to the face planes and
    ``inv_sin`` being ``Polyhedron.inv_sin`` with nan where two faces share
    no edge (see :class:`Polyhedron`).  ``inv_sin`` is symmetric, so its
    column gather is the row gather."""
    x = np.take(inv_sin, face, axis=1)
    x *= s
    return np.fmin.reduce(x, axis=0)
