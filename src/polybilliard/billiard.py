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

from .geometry import ANGLE, Polyhedron, PreconditionFailed, _cast, as_count, unit, vec3


class SingularInput(PreconditionFailed):
    """The step was asked to continue an orbit that leaves the phase space."""


class PhasePoint(NamedTuple):
    """Boundary point ``m`` on face ``face`` with inward unit direction ``theta``."""

    face: int
    m: np.ndarray
    theta: np.ndarray


def phase_point(P: Polyhedron, m, theta, face: int | str | None = None) -> PhasePoint:
    """Validated phase point, moved along the normal onto its face plane.  A
    face accepts the start when ``m`` lies within 10 * ``plane`` of its plane
    and in the face (:meth:`Polyhedron.point_in_face`) and ``theta`` enters
    it.  When ``face`` is omitted it is the first face that accepts the
    start, nearest plane first, planes within ``plane`` counting as equally
    near, so by id."""
    m = vec3(m)
    theta = unit(theta)
    s = (P.normals * m).sum(axis=1) + P.offsets
    if face is None:
        faces = np.argsort(np.maximum(np.abs(s), P.tol.plane), kind="stable").tolist()
    else:
        faces = [P.face_index(face) if isinstance(face, str) else P.face_id(face)]
    for f in faces:
        if abs(s[f]) > 10 * P.tol.plane:
            why = "point does not lie on the given face plane"
        elif not P.point_in_face(f, m):
            why = "point lies outside the given face"
        elif float(theta @ P.normals[f]) <= 0.0:
            why = "direction does not point into the interior"
        else:
            return PhasePoint(f, m - s[f] * P.normals[f], theta)
    raise PreconditionFailed(why if face is not None else
                             "point lies on no face that the direction enters")


class SingularityKind(Enum):
    EDGE_HIT = "edge-hit"
    VERTEX_HIT = "vertex-hit"
    TANGENT_IN_FACE = "tangent-in-face"


@dataclass(frozen=True)
class SingularityEvent:
    """Where and how an orbit left the phase space: the step, the point, and
    the edge, vertex or face that ended it."""

    kind: SingularityKind
    step: int
    point: np.ndarray
    edge: int | None = None
    vertex: int | None = None
    face: int | None = None


@dataclass
class OrbitRecord:
    """A coded orbit from the start on: per recorded bounce, its face id,
    boundary point and outgoing direction, as the (L,), (L, 3) and (L, 3)
    arrays ``faces``, ``m`` and ``theta``; the face-label word; the terminal
    state."""

    faces: np.ndarray
    m: np.ndarray
    theta: np.ndarray
    word: list[str]
    singularity: SingularityEvent | None = None
    near_singular_steps: list[int] = field(default_factory=list)

    @property
    def completed(self) -> bool:
        return self.singularity is None

    @property
    def n_bounces(self) -> int:
        return len(self.faces)


def _near_end(P: Polyhedron, f: int, q: tuple, edist: float, edge: int,
              step: int) -> SingularityEvent | None:
    """The end at step ``step`` of an orbit whose forward cast (see
    ``geometry._cast``) meets face f at the float triple ``q``, at most 2 *
    ``plane`` from the boundary of the face: a VERTEX_HIT within ``plane``
    of a vertex of the face, else an EDGE_HIT within ``plane`` of an edge
    (or outside the face), else ``None``, a face hit.  A vertex within
    ``plane`` of q lies on two edge lines within ``plane`` of it, so only
    such a cast can meet a vertex; 2 * ``plane`` leaves a margin of
    ``plane`` for rounding.  Few casts get here, so it is numpy."""
    plane = P.tol.plane
    d = P.face_polygon(f) - q
    r2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2]
    i = int(r2.argmin())                # the first nearest vertex
    if r2[i] <= plane * plane:
        return SingularityEvent(SingularityKind.VERTEX_HIT, step, np.array(q),
                                vertex=P.boundaries[f][i], face=f)
    if edist <= plane:
        return SingularityEvent(SingularityKind.EDGE_HIT, step, np.array(q), edge=edge, face=f)
    return None


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
    return PhasePoint(int(rec.faces[1]), rec.m[1], rec.theta[1])


def _start_cos(theta: np.ndarray, n: np.ndarray) -> np.ndarray:
    """theta . n over the last axis of two (..., 3) arrays: the one product
    that decides whether a start is tangent, on both stepping paths.  numpy
    takes a stacked (1, 3) @ (3, 1) matmul as the 1-D dot of each pair,
    which rounds otherwise than ``einsum`` and the float sum; either would
    flip starts at the ``ANGLE`` threshold from one path to the other."""
    return np.matmul(theta[..., None, :], n[..., :, None])[..., 0, 0]


def orbit(x: PhasePoint, n_max: int, P: Polyhedron) -> OrbitRecord:
    """Iterate the map until ``n_max`` bounces are recorded or the orbit
    turns singular; the word collects one face label per recorded bounce.

    The start is checked for sitting on an edge, and the forward ray of every
    recorded point but the last is cast and checked; so the start's ray is
    checked even for ``n_max == 1``, and a completed orbit casts ``n_max - 1``
    rays (one for ``n_max == 1``).  A cast is the plain-float kernel
    ``geometry._cast``; only one within 2 * ``plane`` of the boundary is
    classified further, by :func:`_near_end`.  The end, if any, is a
    :class:`SingularityEvent` whose point is a new array.
    """
    n_max = as_count(n_max, "n_max", 1)
    tol, rows, cast = P.tol, P.rows, _cast
    plane2, sing = 2.0 * tol.plane, tol.sing
    # the last point and direction, as float triples; every recorded one
    # goes into flat x, y, z lists, made (L, 3) arrays when the orbit ends
    m, (tx, ty, tz) = tuple(x.m.tolist()), x.theta.tolist()
    faces, ms, thetas = [x.face], [*m], [tx, ty, tz]
    flagged: list[int] = []

    # a start on an edge of its face, or outside it, has no continuation convention
    dist, edge = P.nearest_edge(x.face, x.m)
    end = SingularityEvent(SingularityKind.EDGE_HIT, 0, np.array(m), edge=edge,
                           face=x.face) if dist <= tol.plane else None
    # theta . n of the last point; the start's as run_word_batch takes it
    cos_n = float(_start_cos(x.theta, P.normals[x.face]))
    while end is None:
        # the last point's forward cast: f = -1 when its ray runs inside
        # its face or meets no face ahead
        f = -1
        if cos_n > ANGLE:
            f, _, q, edist, edge = cast(m, (tx, ty, tz), P)
        if f < 0:
            end = SingularityEvent(SingularityKind.TANGENT_IN_FACE, len(faces) - 1,
                                   np.array(m), face=faces[-1])
            break
        if not edist > plane2:           # near the boundary: _near_end decides
            end = _near_end(P, f, q, edist, edge, len(faces) - 1)
            if end is not None:
                break
        # n_max == 1: the start's ray is checked, not followed
        if len(faces) == n_max:
            break
        # reflect_direction in floats: theta - 2 <theta, n> n
        nx, ny, nz, _, _ = rows[f]
        k = 2.0 * (tx * nx + ty * ny + tz * nz)
        tx, ty, tz = tx - k * nx, ty - k * ny, tz - k * nz
        cos_n = tx * nx + ty * ny + tz * nz
        m = q
        faces.append(f)
        ms += q
        thetas += tx, ty, tz
        if edist <= sing:
            flagged.append(len(faces) - 1)
        if len(faces) == n_max:
            break
    return OrbitRecord(np.array(faces), np.array(ms).reshape(-1, 3),
                       np.array(thetas).reshape(-1, 3), [P.labels[f] for f in faces],
                       end, flagged)


# ---------------------------------------------------------------------------
# sampling and batched word generation
# ---------------------------------------------------------------------------

def sample_points_in_face(P: Polyhedron, faces: np.ndarray,
                          rng: np.random.Generator) -> np.ndarray:
    """A uniform point in the polygon of each face in ``faces``, via its
    triangle fan; the faces draw from ``rng`` in face-id order."""
    faces = P.face_ids(faces)
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
    faces = P.face_ids(faces)
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
    faces = rng.integers(0, P.n_faces, as_count(count, "count", 0))
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
    Face ids are read by :meth:`Polyhedron.face_ids`, as by the samplers.
    """
    n_labels = as_count(n_labels, "n_labels", 1)
    face = P.face_ids(face)
    words = np.full((len(face), n_labels), -1, dtype=np.int16)
    words[:, 0] = face
    lengths = np.ones(len(face), dtype=np.int64)
    flags = np.zeros(len(face), dtype=bool)

    # starts move onto their face planes by phase_point's sums, bit for bit
    n = P.normals[face]
    m = np.asarray(m, float)
    m = m - ((m * n).sum(axis=1) + P.offsets[face])[:, None] * n
    # tangent starts never advance
    theta = np.asarray(theta, float)
    rows = np.flatnonzero(_start_cos(theta, n) > ANGLE)
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
    offsets, inv_sin = P.offsets[:, None], P.inv_sin
    s = N @ m + offsets
    # a start on an edge of its face ends at once, as in orbit; the start
    # lies on its face plane, so its edge-line distance is its edge distance
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
            bad = d <= ANGLE
            t = np.divide(s, d, out=s)              # in s's storage
            bad |= t <= 0.0
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
    ``inv_sin`` being ``Polyhedron.inv_sin``, nan where two faces share no
    edge.  ``inv_sin`` is symmetric, so its column gather is the row gather."""
    x = np.take(inv_sin, face, axis=1)
    x *= s
    return np.fmin.reduce(x, axis=0)
