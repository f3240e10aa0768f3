"""Incidence geometry of lines through skew edges.

A line leaving a base edge at offset ``m`` (measured along the edge from its
reference point) with direction ``theta`` meets another edge iff either the
two edges are coplanar and ``theta`` lies in their common plane (a linear
form vanishes), or the edges are skew and the offset is forced:

    m = <(p1 - p0) ^ x1, theta> / <u ^ x1, theta>

with ``u`` the base direction, ``p1, x1`` point and direction of the other
edge, and ``^`` the cross product.  Lines meeting three pairwise-skew edges
sweep a surface; in an adapted frame with the base direction as first axis
the surface is the zero set of a cleared-denominator polynomial of degree at
most three along any straight probe, so a probe not contained in the surface
crosses it at most four times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import line_line_distance, tangent_frame, unit, vec3


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

# coplanarity of two edges, a vanishing rational denominator, a line
# meeting an edge (times the scene scale), surface membership of probe
# points, and merging of nearby roots along a probe
_COPLANAR_TOL = 1e-10
_DEN_TOL = 1e-10
_MEET_TOL = 1e-8
_ON_TOL = 1e-7
_MERGE_TOL = 1e-7
# transversals are sampled through a2.at(s) for s in [-3, 3]
_SAMPLE_SPAN = 3.0
# probe residuals: relative to the coefficient scale ``char`` of a cubic in
# the surface's coefficients and the probe's offset, below which the residual
# vanishes identically along the probe
_ZERO_TOL = 1e-10
# relative to the largest coefficient: leading terms below it are
# cancellation noise, not degree
_TRIM_TOL = 1e-12
# relative to 1 + |Re r|: a double root splits into a conjugate pair of size
# about sqrt(machine epsilon) ~ 1e-8, which is still one real crossing
_IMAG_TOL = 1e-7


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


def _require_skew(a: EdgeLine, b: EdgeLine, what: str) -> RationalConstraint:
    try:
        con = pair_constraint(a, b)
    except IdenticalLines:
        raise NotPairwiseSkew(f"{what}: edges are identical")
    if not isinstance(con, RationalConstraint):
        raise NotPairwiseSkew(f"{what}: edges are coplanar")
    return con


@dataclass
class TripleSurface:
    """Surface swept by lines meeting three pairwise-skew edges.

    The adapted frame maps the base edge point to the origin and its
    direction to the first axis; ``coeff_num[i]``/``coeff_den[i]`` are the
    rational-constraint vectors of the other two edges in that frame.  The
    surface is the locus where the two forced offsets agree, expressed as a
    height field ``P1 = f(P2, P3)`` away from its denominator locus and as
    the zero set of the cleared-denominator residual ``P1 B1 alpha + beta
    (B1 + a1_0) - A1 alpha`` (terms of :meth:`_height`) everywhere.

    The arrays are read-only: the coefficient rows are also kept as float
    tuples, with the surface's factor ``(1 + max|num|)(1 + max|den|)^2`` of
    the probe scale ``char``, so a probe does no per-surface work.
    """

    origin: np.ndarray
    frame: np.ndarray            # (3,3) rotation; rows are adapted axes
    coeff_num: np.ndarray        # (2,3)
    coeff_den: np.ndarray        # (2,3), first components ~0

    def __post_init__(self):
        for a in (self.origin, self.frame, self.coeff_num, self.coeff_den):
            a.setflags(write=False)
        num, den = self.coeff_num.tolist(), self.coeff_den.tolist()
        self._num = tuple(map(tuple, num))
        self._den = tuple(map(tuple, den))
        self._char = ((1.0 + max(abs(x) for row in num for x in row))
                      * (1.0 + max(abs(x) for row in den for x in row)) ** 2)

    def to_adapted(self, pts) -> np.ndarray:
        return (np.asarray(pts, float) - self.origin) @ self.frame.T

    def _height(self, P2: float, P3: float):
        """``(height or None, B1, alpha, A1, beta)`` over (P2, P3), in floats."""
        (a10, a11, a12), (a20, a21, a22) = self._num
        (_, b11, b12), (_, b21, b22) = self._den
        B1 = b11 * P2 + b12 * P3
        B2 = b21 * P2 + b22 * P3
        alpha = a10 * B2 - a20 * B1
        A1 = a11 * P2 + a12 * P3
        A2 = a21 * P2 + a22 * P3
        beta = A1 * B2 - A2 * B1
        tiny = 1e-12 * (1.0 + abs(P2) + abs(P3))
        h = None
        if not abs(alpha) < tiny * (1.0 + abs(a10) + abs(a20)):
            q = -beta / alpha
            if abs(B1) >= abs(B2):
                if not abs(B1) < tiny:
                    h = (a10 * q + A1) / B1 + q
            elif not abs(B2) < tiny:
                h = (a20 * q + A2) / B2 + q
        return h, B1, alpha, A1, beta

    def height(self, P2: float, P3: float) -> float | None:
        """First adapted coordinate of the surface over (P2, P3), if defined."""
        return self._height(P2, P3)[0]

    def _member(self, P1: float, P2: float, P3: float, tol: float) -> bool:
        """Membership of an adapted point: the height test where the height
        is defined, else the cleared residual against its term sizes."""
        h, B1, alpha, A1, beta = self._height(P2, P3)
        if h is not None:
            return abs(P1 - h) <= tol * (1.0 + abs(P1) + abs(h))
        e = beta * (B1 + self._num[0][0])
        res = P1 * B1 * alpha + e - A1 * alpha
        mag = abs(P1 * B1 * alpha) + abs(e) + abs(A1 * alpha)
        return abs(res) <= tol * (1.0 + mag)

    def contains(self, pts, tol: float = 1e-8) -> np.ndarray:
        """Surface membership for world points (boolean array)."""
        ad = np.atleast_2d(self.to_adapted(pts)).tolist()
        return np.array([self._member(P1, P2, P3, tol) for P1, P2, P3 in ad], dtype=bool)

    def _residual(self, c, d) -> list[float]:
        """Ascending coefficients of the residual along the adapted line
        ``c + t d``, with trailing exact zeros trimmed (degree <= 3).

        Each factor of the residual is linear in t, so the products are
        spelled out on ``(constant, slope)`` float pairs.
        """
        c0, c1, c2 = c
        d0, d1, d2 = d
        (a10, a11, a12), (a20, a21, a22) = self._num
        (_, b11, b12), (_, b21, b22) = self._den
        B10, B11 = b11 * c1 + b12 * c2, b11 * d1 + b12 * d2
        B20, B21 = b21 * c1 + b22 * c2, b21 * d1 + b22 * d2
        A10, A11 = a11 * c1 + a12 * c2, a11 * d1 + a12 * d2
        A20, A21 = a21 * c1 + a22 * c2, a21 * d1 + a22 * d2
        al0, al1 = a10 * B20 - a20 * B10, a10 * B21 - a20 * B11
        # beta = A1 B2 - A2 B1 and q = P1 B1, both quadratic
        be0 = A10 * B20 - A20 * B10
        be1 = (A10 * B21 + A11 * B20) - (A20 * B11 + A21 * B10)
        be2 = A11 * B21 - A21 * B11
        q0, q1, q2 = c0 * B10, c0 * B11 + d0 * B10, d0 * B11
        e0 = B10 + a10
        res = [(q0 * al0 + be0 * e0) - A10 * al0,
               (q0 * al1 + q1 * al0 + (be0 * B11 + be1 * e0)) - (A10 * al1 + A11 * al0),
               (q1 * al1 + q2 * al0 + (be1 * B11 + be2 * e0)) - A11 * al1,
               q2 * al1 + be2 * B11]
        while len(res) > 1 and res[-1] == 0.0:
            res.pop()
        return res

    def residual_poly_along(self, line: EdgeLine) -> np.ndarray:
        """Ascending coefficients of the residual along ``line`` (degree <= 3),
        trailing exact zeros trimmed, as ``numpy.polynomial`` does."""
        return np.array(self._residual(self.to_adapted(line.point).tolist(),
                                       (self.frame @ line.direction).tolist()))


def triple_surface(a0: EdgeLine, a1: EdgeLine, a2: EdgeLine) -> TripleSurface:
    """Build the transversal surface of three pairwise-skew edges."""
    c1 = _require_skew(a0, a1, "a0/a1")
    c2 = _require_skew(a0, a2, "a0/a2")
    _require_skew(a1, a2, "a1/a2")
    frame = np.vstack([a0.direction, tangent_frame(a0.direction)])
    num = np.array([frame @ c1.numerator, frame @ c2.numerator])
    den = np.array([frame @ c1.denominator, frame @ c2.denominator])
    return TripleSurface(a0.point.copy(), frame, num, den)


ON_SURFACE = "on-surface"


def _companion(c: list[float]) -> np.ndarray:
    """Companion matrix of ``sum c[i] t^i`` (degree >= 2), built as numpy
    2.x's ``polycompanion`` builds it: ones on the subdiagonal and last
    column ``-c[:-1] / c[-1]``, so its eigenvalues are ``polyroots``'s."""
    n = len(c) - 1
    top = c[-1]
    mat = [[0.0] * n for _ in range(n)]
    for i in range(n):
        if i:
            mat[i][i - 1] = 1.0
        mat[i][-1] = 0.0 - c[i] / top
    return np.array(mat)


def _roots(c: list[float]) -> list:
    """Complex (or real) roots of ``sum c[i] t^i``, degree 1 to 3, with a
    nonzero leading coefficient."""
    if len(c) == 2:
        return [-c[0] / c[1]]
    return np.linalg.eigvals(_companion(c)).tolist()


def count_line_surface_intersections(line: EdgeLine, S: TripleSurface) -> int | str:
    """Count parameter values where a probe line crosses the surface.

    Real roots of the degree <= 3 cleared residual are isolated, merged when
    closer than 1e-7 (tangencies), and each surviving root is
    verified against surface membership so spurious zeros of the cleared
    denominators are not counted.  Returns :data:`ON_SURFACE` when the
    residual vanishes identically along the line and sampled points confirm
    membership.

    The residual, its trim and the membership tests run on Python floats;
    the adapted transforms of the line and of the root points and the
    companion eigenvalues stay numpy calls, which round as the
    ``numpy.polynomial`` path did.
    """
    c_ad = S.to_adapted(line.point)
    coeffs = S._residual(c_ad.tolist(), (S.frame @ line.direction).tolist())
    cmax = max(map(abs, coeffs))
    # np.linalg.norm computes sqrt(x.dot(x)); the same dot rounds the same
    char = S._char * (1.0 + math.sqrt(float(c_ad.dot(c_ad)))) ** 3
    if cmax <= _ZERO_TOL * char:
        probes = line.point[None, :] + np.linspace(-3.0, 3.0, 9)[:, None] * line.direction
        if bool(S.contains(probes, tol=_ON_TOL).all()):
            return ON_SURFACE
        return 0
    # drop trailing coefficients at or below the trim tolerance
    tol = _TRIM_TOL * cmax
    n = len(coeffs)
    while n and not abs(coeffs[n - 1]) > tol:
        n -= 1
    if n <= 1:
        return 0
    real = sorted(r.real for r in _roots(coeffs[:n])
                  if abs(r.imag) <= _IMAG_TOL * (1.0 + abs(r.real)))
    merged: list[float] = []
    for r in real:
        if not merged or r - merged[-1] > _MERGE_TOL:
            merged.append(r)
    if not merged:
        return 0
    pts = line.point + np.array(merged)[:, None] * line.direction
    return sum(S._member(P1, P2, P3, _ON_TOL) for P1, P2, P3 in S.to_adapted(pts).tolist())


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

    ``"dependent"`` when every sampled transversal of (a0, a1, a2) also meets
    ``a3`` within tolerance (numerically: a3 lies on their surface),
    ``"independent"`` otherwise.  All four edges must be pairwise skew.
    """
    edges = (a0, a1, a2, a3)
    for i in range(4):
        for j in range(i + 1, 4):
            _require_skew(edges[i], edges[j], f"a{i}/a{j}")
    lines = sample_transversals(a0, a1, a2, count=41)
    if not lines:
        raise NotPairwiseSkew("transversal sampler produced no lines")
    scale = 1.0 + max(float(np.linalg.norm(a.point)) for a in edges)
    for line in lines:
        if (line_line_distance(line.point, line.direction, a3.point, a3.direction)
                > _MEET_TOL * scale):
            return "independent"
    return "dependent"
