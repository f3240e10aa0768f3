"""Incidence geometry of lines through skew edges.

A line leaving a base edge at offset ``m`` (measured along the edge from its
reference point) with direction ``theta`` meets another edge iff either the
two edges are coplanar and ``theta`` lies in their common plane (a linear
form vanishes), or the edges are skew and the offset is forced:

    m = <(p1 - p0) ^ x1, theta> / <u ^ x1, theta>

with ``u`` the base direction, ``p1, x1`` point and direction of the other
edge, and ``^`` the cross product.  Lines meeting three pairwise-skew edges
sweep the one quadric through the three edges, so a probe line not
contained in it crosses it at most twice, a tangency counted once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import line_line_distance, unit, vec3


class IdenticalLines(Exception):
    """The two edges describe the same line."""


class NotPairwiseSkew(Exception):
    """Some pair of edges is coplanar (or parallel) where skewness is required."""


@dataclass(frozen=True)
class EdgeLine:
    """An (unbounded) edge line: a point on it and a unit direction."""

    point: np.ndarray
    direction: np.ndarray

    @staticmethod
    def of(point, direction) -> "EdgeLine":
        return EdgeLine(vec3(point), unit(direction))

    def at(self, t: float) -> np.ndarray:
        return self.point + t * self.direction


@dataclass(frozen=True)
class CoplanarConstraint:
    """Incidence reduces to a linear form on directions: form @ theta == 0."""

    form: np.ndarray


@dataclass(frozen=True)
class RationalConstraint:
    """Incidence pins the base offset: m = <numerator, theta> / <denominator, theta>."""

    numerator: np.ndarray
    denominator: np.ndarray


TransversalConstraint = CoplanarConstraint | RationalConstraint

# coplanarity of two edges, a vanishing rational denominator, and a line
# meeting an edge (times the scene scale)
_COPLANAR_TOL = 1e-10
_DEN_TOL = 1e-10
_MEET_TOL = 1e-8
# transversals are sampled through a2.at(s) for s in [-3, 3]
_SAMPLE_SPAN = 3.0
# probe coefficients: relative to the probe's scale, the rounding below
# which a coefficient (or the discriminant, times 4|c2|) counts as zero
_ROUND_TOL = 1e-12


def pair_constraint(a0: EdgeLine, a1: EdgeLine) -> TransversalConstraint:
    """Constraint for lines from base edge ``a0`` to meet edge ``a1``.

    Offsets ``m`` are measured along ``a0.direction`` from ``a0.point``; all
    vectors are computed in coordinates translated so the base point is the
    origin, which the rational form requires.
    """
    u = a0.direction
    p = a1.point - a0.point
    x1 = a1.direction
    b = np.cross(u, x1)
    bn = float(np.linalg.norm(b))
    if bn < 1e-12:
        # parallel edges: coplanar, possibly identical
        perp = p - (p @ u) * u
        if float(np.linalg.norm(perp)) < 1e-12:
            raise IdenticalLines("edges span the same line")
        return CoplanarConstraint(unit(np.cross(u, p)))
    scale = max(1.0, float(np.linalg.norm(p)))
    if abs(float(p @ b)) <= _COPLANAR_TOL * bn * scale:
        return CoplanarConstraint(b / bn)
    return RationalConstraint(np.cross(p, x1), b)


def eval_constraint(c: TransversalConstraint, theta) -> float | None:
    """Evaluate a constraint at a direction.

    Rational: the forced offset, or ``None`` when the denominator is below
    1e-10 (direction parallel to the critical plane).  Coplanar: the
    linear residual, zero exactly on the incidence plane.
    """
    theta = np.asarray(theta, float)
    if isinstance(c, CoplanarConstraint):
        return float(c.form @ theta)
    den = float(c.denominator @ theta)
    if abs(den) < _DEN_TOL:
        return None
    return float(c.numerator @ theta) / den


def _require_skew(edges: tuple[EdgeLine, ...]) -> None:
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            try:
                con = pair_constraint(edges[i], edges[j])
            except IdenticalLines:
                raise NotPairwiseSkew(f"a{i}/a{j}: edges are identical")
            if not isinstance(con, RationalConstraint):
                raise NotPairwiseSkew(f"a{i}/a{j}: edges are coplanar")


def _cross(a, b) -> tuple:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


@dataclass
class TripleSurface:
    """The quadric swept by lines meeting three pairwise-skew edges.

    Three pairwise-skew lines lie on exactly one quadric, and the lines of
    its other ruling are their transversals.  It is the zero set of

        f(X) = det[(X - p0) ^ d0, (X - p1) ^ d1, (X - p2) ^ d2],

    which vanishes exactly when the planes through X and each edge share a
    line.  The cubic terms cancel because (X ^ a) ^ (X ^ b) = <X, a ^ b> X.
    Measure lengths from p0 in units of ``L``, the largest distance between
    two of the edge lines: Y = (X - p0) / L, q_i = (p_i - p0) / L and
    moments m_i = q_i ^ d_i, so m0 = 0 and

        f / L^3 = <Y, d0 ^ (m1 ^ m2)> - <Y, d2 ^ d0><Y, m1> - <Y, d0 ^ d1><Y, m2>.

    In these units neither the terms nor the probe tolerances depend on
    where the edges sit or how large they are.  ``points`` and
    ``directions`` are read-only (3, 3) arrays whose rows are the edges'
    points and unit directions; the terms are kept as float tuples, so a
    probe does no per-surface work.
    """

    points: np.ndarray
    directions: np.ndarray

    def __post_init__(self):
        P, D = self.points, self.directions
        for a in (P, D):
            a.setflags(write=False)
        self._length = L = max(line_line_distance(P[i], D[i], P[j], D[j])
                               for i, j in ((0, 1), (0, 2), (1, 2)))
        p, d = P.tolist(), D.tolist()
        q = [tuple((x - y) / L for x, y in zip(pi, p[0])) for pi in p]
        self._edges = tuple(zip(q, map(tuple, d)))
        m1, m2 = _cross(q[1], d[1]), _cross(q[2], d[2])
        self._linear = _cross(d[0], _cross(m1, m2))
        self._quadratic = ((_cross(d[2], d[0]), m1), (_cross(d[0], d[1]), m2))

    def contains(self, pts, tol: float = 1e-8) -> np.ndarray:
        """Surface membership for world points (boolean array).

        ``|f(X)|`` is compared with ``tol * L`` times ``|u1||u2| + |u0||u2|
        + |u0||u1|``, ``u_i = (X - p_i) ^ d_i``, which bounds the slope of f
        at X: a point within about ``tol * L`` of the surface passes, and so
        does every point of the three edges.
        """
        X = np.atleast_2d(np.asarray(pts, float))
        u = np.cross(X[:, None, :] - self.points, self.directions)
        n = np.linalg.norm(u, axis=2)
        slope = n[:, 1] * n[:, 2] + n[:, 0] * n[:, 2] + n[:, 0] * n[:, 1]
        return np.abs(np.linalg.det(u)) <= tol * self._length * slope


def triple_surface(a0: EdgeLine, a1: EdgeLine, a2: EdgeLine) -> TripleSurface:
    """Build the transversal surface of three pairwise-skew edges."""
    edges = (a0, a1, a2)
    _require_skew(edges)
    return TripleSurface(np.array([a.point for a in edges]),
                         np.array([a.direction for a in edges]))


ON_SURFACE = "on-surface"


def count_line_surface_intersections(line: EdgeLine, S: TripleSurface) -> int | str:
    """Count the points where a probe line crosses the surface.

    Along ``c + t e``, in the surface's units, the quadric is ``c2 t^2 +
    c1 t + c0``, counted against the scale ``prod(1 + |u_i| + |v_i|)`` with
    ``u_i = (Y - q_i) ^ d_i`` at ``Y = (c - p0) / L`` and ``v_i = e ^ d_i``,
    which bounds every coefficient.  The probe lies on the surface
    (:data:`ON_SURFACE`) when all three vanish against it.  A vanishing
    ``c2`` leaves at most one crossing; a discriminant within rounding of
    zero is a tangency, counted once; otherwise its sign gives two crossings
    or none.  So a probe not on the surface crosses it at most twice.  The
    kernel runs on Python floats.
    """
    y, e = ((line.point - S.points[0]) / S._length).tolist(), line.direction.tolist()
    scale = 1.0
    for q, d in S._edges:
        u = _cross((y[0] - q[0], y[1] - q[1], y[2] - q[2]), d)
        scale *= 1.0 + math.hypot(*u) + math.hypot(*_cross(e, d))
    c2, c1, c0 = 0.0, _dot(e, S._linear), _dot(y, S._linear)
    for a, m in S._quadratic:
        ya, ea, ym, em = _dot(y, a), _dot(e, a), _dot(y, m), _dot(e, m)
        c2 -= ea * em
        c1 -= ya * em + ea * ym
        c0 -= ya * ym
    tol = _ROUND_TOL * scale
    if abs(c2) <= tol:
        if abs(c1) > tol:
            return 1
        return ON_SURFACE if abs(c0) <= tol else 0
    disc = c1 * c1 - 4.0 * c2 * c0
    if abs(disc) <= 4.0 * abs(c2) * tol:
        return 1
    return 2 if disc > 0.0 else 0


def sample_transversals(a0: EdgeLine, a1: EdgeLine, a2: EdgeLine,
                        count: int = 33) -> list[EdgeLine]:
    """Lines meeting all three pairwise-skew edges.

    For each of ``count`` sampled points ``q`` on ``a2`` the unique line
    through ``q`` meeting ``a0`` and ``a1`` is the intersection of the planes
    spanned by ``(q, a0)`` and ``(q, a1)``; samples where that construction
    degenerates or fails verification are skipped.
    """
    scale = 1.0 + max(float(np.linalg.norm(a.point)) for a in (a0, a1, a2))
    lines: list[EdgeLine] = []
    for s in np.linspace(-_SAMPLE_SPAN, _SAMPLE_SPAN, count):
        q = a2.at(float(s))
        n0 = np.cross(a0.point - q, a0.direction)
        n1 = np.cross(a1.point - q, a1.direction)
        m0, m1 = np.linalg.norm(n0), np.linalg.norm(n1)
        if m0 < 1e-12 * scale or m1 < 1e-12 * scale:
            continue
        d = np.cross(n0 / m0, n1 / m1)
        if float(np.linalg.norm(d)) < 1e-10:
            continue
        cand = EdgeLine(q, unit(d))
        if (line_line_distance(cand.point, cand.direction, a0.point, a0.direction)
                <= _MEET_TOL * scale
                and line_line_distance(cand.point, cand.direction, a1.point, a1.direction)
                <= _MEET_TOL * scale):
            lines.append(cand)
    return lines


def independence_check(a0: EdgeLine, a1: EdgeLine, a2: EdgeLine, a3: EdgeLine) -> str:
    """Decide whether a fourth edge is forced by the first three.

    A fourth edge skew to the three meets every transversal of (a0, a1, a2)
    exactly when it lies on their quadric: ``"dependent"`` when the probe
    count of ``a3`` is :data:`ON_SURFACE`, ``"independent"`` otherwise.  All
    four edges must be pairwise skew.
    """
    _require_skew((a0, a1, a2, a3))
    if count_line_surface_intersections(a3, triple_surface(a0, a1, a2)) == ON_SURFACE:
        return "dependent"
    return "independent"
