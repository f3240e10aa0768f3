import math
from fractions import Fraction

import numpy as np
import pytest

from polybilliard import transversal as tv
from polybilliard.geometry import PreconditionFailed, _cross, line_line_distance

SQRT3 = np.sqrt(3.0)
SQRT30 = np.sqrt(30.0)


def _incidence_offset(a0, a1, theta):
    """Oracle: solve the 3x3 linear system  m*u + lam*theta - s*x1 = p1 - p0
    for the base offset m, independently of the cross-product formula."""
    A = np.column_stack([a0.direction, theta, -a1.direction])
    try:
        sol = np.linalg.solve(A, a1.point - a0.point)
    except np.linalg.LinAlgError:
        return None
    return float(sol[0])


def _random_skew_pair(rng, min_sep=0.2):
    while True:
        a0 = tv.EdgeLine.of(rng.normal(size=3), rng.normal(size=3))
        a1 = tv.EdgeLine.of(rng.normal(size=3), rng.normal(size=3))
        b = np.cross(a0.direction, a1.direction)
        if np.linalg.norm(b) < min_sep:
            continue
        if abs((a1.point - a0.point) @ b) / np.linalg.norm(b) < min_sep:
            continue
        return a0, a1


X_AXIS = tv.EdgeLine.of([0, 0, 0], [1, 0, 0])
A1 = tv.EdgeLine.of([0, 1, 0], [0, 0, 1])
A2 = tv.EdgeLine.of([2, 0, 1], [0, 1, 0])


# ---------------------------------------------------------------------------
# pair constraints
# ---------------------------------------------------------------------------

def test_rational_coefficients_frozen():
    c = tv.pair_constraint(X_AXIS, A1)
    assert isinstance(c, tv.RationalConstraint)
    assert np.allclose(c.numerator, [1.0, 0.0, 0.0])
    assert np.allclose(c.denominator, [0.0, -1.0, 0.0])


def test_parallel_pair_is_coplanar():
    c = tv.pair_constraint(X_AXIS, tv.EdgeLine.of([0, 1, 0], [1, 0, 0]))
    assert isinstance(c, tv.CoplanarConstraint)
    assert np.allclose(np.abs(c.form), [0.0, 0.0, 1.0])


def test_identical_lines_rejected():
    with pytest.raises(tv.IdenticalLines):
        tv.pair_constraint(X_AXIS, tv.EdgeLine.of([5, 0, 0], [-1, 0, 0]))


def test_eval_frozen_values():
    c = tv.pair_constraint(X_AXIS, A1)
    assert abs(tv.eval_constraint(c, np.array([1, 2, 5.0]) / SQRT30) - (-0.5)) < 1e-12
    assert abs(tv.eval_constraint(c, np.array([1, -1, 1.0]) / SQRT3) - 1.0) < 1e-12
    # oracle agrees and the incident ray really meets A1
    theta = np.array([1, 2, 5.0]) / SQRT30
    m = tv.eval_constraint(c, theta)
    assert abs(m - _incidence_offset(X_AXIS, A1, theta)) < 1e-12
    lam = 1.0 / theta[1]
    assert np.allclose(np.array([m, 0, 0]) + lam * theta, [0, 1.0, 2.5])


def test_eval_undefined_denominator():
    c = tv.pair_constraint(X_AXIS, A1)
    assert tv.eval_constraint(c, np.array([0.0, 0.0, 1.0])) is None


def test_coplanar_residual_vanishes_in_plane():
    c = tv.pair_constraint(X_AXIS, tv.EdgeLine.of([0, 1, 0], [1, 1, 0]))
    assert isinstance(c, tv.CoplanarConstraint)
    rng = np.random.default_rng(2)
    for _ in range(50):
        v = rng.normal(size=3)
        v[2] = 0.0                       # in the incidence plane z = 0
        v /= np.linalg.norm(v)
        assert abs(tv.eval_constraint(c, v)) < 1e-12
    assert abs(tv.eval_constraint(c, np.array([0, 0, 1.0]))) > 0.9


def test_oracle_equivalence_random_pairs():
    rng = np.random.default_rng(3)
    for _ in range(300):
        a0, a1 = _random_skew_pair(rng)
        con = tv.pair_constraint(a0, a1)
        assert isinstance(con, tv.RationalConstraint)
        theta = rng.normal(size=3)
        theta /= np.linalg.norm(theta)
        if abs(con.denominator @ theta) < 1e-3:
            continue
        m = tv.eval_constraint(con, theta)
        m_direct = _incidence_offset(a0, a1, theta)
        assert m_direct is not None
        assert abs(m - m_direct) < 1e-8


def test_homogeneity():
    rng = np.random.default_rng(4)
    c = tv.pair_constraint(X_AXIS, A1)
    for _ in range(50):
        theta = rng.normal(size=3)
        if abs(c.denominator @ theta) < 1e-6:
            continue
        for lam in (0.1, 2.0, 17.0):
            assert abs(tv.eval_constraint(c, lam * theta)
                       - tv.eval_constraint(c, theta)) < 1e-9


def test_frame_invariance():
    rng = np.random.default_rng(5)
    a0, a1 = _random_skew_pair(rng)
    con = tv.pair_constraint(a0, a1)
    # random rigid motion
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    shift = rng.normal(size=3)
    a0m = tv.EdgeLine.of(q @ a0.point + shift, q @ a0.direction)
    a1m = tv.EdgeLine.of(q @ a1.point + shift, q @ a1.direction)
    conm = tv.pair_constraint(a0m, a1m)
    for _ in range(50):
        theta = rng.normal(size=3)
        theta /= np.linalg.norm(theta)
        if abs(con.denominator @ theta) < 1e-3:
            continue
        m = tv.eval_constraint(con, theta)
        mm = tv.eval_constraint(conm, q @ theta)
        assert abs(m - mm) < 1e-8


# ---------------------------------------------------------------------------
# the three-edge surface
# ---------------------------------------------------------------------------

def _brute_transversals(a0, a1, a2):
    """Oracle sampler: for a grid of offsets m on a0, scan the pencil of lines
    from a0.at(m) through points of a1 and bisect the coplanarity determinant
    with a2 down to the incident line.  No cross-product constraint algebra."""
    def copl(base, s):
        # zero iff the line base -> a1.at(s) meets a2
        d1 = a1.at(s) - base
        return float(np.linalg.det(np.column_stack(
            [d1, a2.point - base, a2.point + a2.direction - base])))

    lines = []
    for m in np.linspace(-3, 3, 31):
        base = a0.at(m)
        grid = np.linspace(-6, 6, 121)
        vals = [copl(base, s) for s in grid]
        for i in range(len(grid) - 1):
            if vals[i] == 0.0 or vals[i] * vals[i + 1] > 0:
                continue
            lo, hi = grid[i], grid[i + 1]
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if copl(base, lo) * copl(base, mid) <= 0:
                    hi = mid
                else:
                    lo = mid
            d = a1.at(0.5 * (lo + hi)) - base
            nd = np.linalg.norm(d)
            if nd > 1e-9:
                lines.append(tv.EdgeLine(base, d / nd))
    return lines


def test_surface_frozen_example():
    S = tv.triple_surface(X_AXIS, A1, A2)
    assert bool(S.contains([2.0, -1.0, 1.0])[0])
    line = tv.EdgeLine.of([1, 0, 0], np.array([1.0, -1.0, 1.0]) / SQRT3)
    assert tv.count_line_surface_intersections(line, S) == tv.ON_SURFACE


def test_generator_edges_on_surface():
    S = tv.triple_surface(X_AXIS, A1, A2)
    for t in np.linspace(-2, 2, 9):
        assert bool(S.contains(A1.at(t))[0])
        assert bool(S.contains(A2.at(t))[0])


def test_brute_force_sampler_agrees():
    S = tv.triple_surface(X_AXIS, A1, A2)
    lines = _brute_transversals(X_AXIS, A1, A2)
    assert len(lines) > 20
    for line in lines:
        pts = np.array([line.at(t) for t in (-1.0, 0.0, 0.5, 2.0)])
        assert bool(S.contains(pts, tol=1e-6).all())


def test_regulus_surface():
    # rulings x = const of the saddle z = x*y; transversals are the other family
    b0 = tv.EdgeLine.of([0, 0, 0], [0, 1, 0])
    b1 = tv.EdgeLine.of([1, 0, 0], np.array([0, 1, 1.0]) / np.sqrt(2))
    b2 = tv.EdgeLine.of([2, 0, 0], np.array([0, 1, 2.0]) / np.sqrt(5))
    S = tv.triple_surface(b0, b1, b2)
    lines = tv.sample_transversals(b0, b1, b2, count=21)
    assert len(lines) >= 15
    for line in lines:
        pts = np.array([line.at(t) for t in np.linspace(-2, 2, 7)])
        assert bool(S.contains(pts, tol=1e-8).all())
    # saddle points (x, y, xy) lie on the surface
    for x in (-1.0, 0.5, 2.5):
        for y in (-2.0, 0.3, 1.7):
            assert bool(S.contains([x, y, x * y], tol=1e-8)[0])


def test_probe_intersections_bounded():
    S = tv.triple_surface(X_AXIS, A1, A2)
    rng = np.random.default_rng(7)
    seen = 0
    for _ in range(300):
        probe = tv.EdgeLine.of(rng.normal(size=3) * 2.0, rng.normal(size=3))
        c = tv.count_line_surface_intersections(probe, S)
        if c == tv.ON_SURFACE:
            continue
        assert 0 <= c <= 2          # a quadric
        seen = max(seen, c)
    assert seen >= 1


def test_counts_invariant_under_scaling_and_translation():
    # the surface measures lengths in units of its edges' spread, so a
    # scaled and moved scene gives the same counts and memberships
    rng = np.random.default_rng(9)
    probes = [(2.0 * rng.normal(size=3), rng.normal(size=3)) for _ in range(300)]
    pts = [a.at(t) for a in (A1, A2) for t in (-1.0, 0.5)] + list(rng.normal(size=(50, 3)))
    results = set()
    for s in (1e-5, 1e-2, 1.0, 1e2, 1e5):
        shift = s * np.array([3.0, -2.1, 0.9])
        S = tv.triple_surface(*(tv.EdgeLine.of(s * a.point + shift, a.direction)
                                for a in (X_AXIS, A1, A2)))
        counts = tuple(tv.count_line_surface_intersections(tv.EdgeLine.of(s * p + shift, d), S)
                       for p, d in probes)
        inside = tuple(S.contains([s * x + shift for x in pts]))
        results.add((counts, inside))
    assert len(results) == 1
    counts, inside = results.pop()
    assert {0, 2} <= set(counts) and inside[:4] == (True,) * 4 and not any(inside[4:])


def test_not_pairwise_skew_rejected():
    with pytest.raises(tv.NotPairwiseSkew):
        tv.triple_surface(X_AXIS, tv.EdgeLine.of([0, 1, 0], [1, 0, 0]), A2)
    with pytest.raises(tv.NotPairwiseSkew):
        tv.independence_check(X_AXIS, A1, A2, A1)


def test_independence_ruling_dependent():
    lines = tv.sample_transversals(X_AXIS, A1, A2, count=9)
    t1, t2, t3 = lines[0], lines[len(lines) // 2], lines[-1]
    q = t3.at(0.37)
    n0 = np.cross(t1.point - q, t1.direction)
    n1 = np.cross(t2.point - q, t2.direction)
    ruling = tv.EdgeLine.of(q, np.cross(n0, n1))
    assert tv.independence_check(X_AXIS, A1, A2, ruling) == "dependent"


def test_independence_generic_line():
    a3 = tv.EdgeLine.of([0.3, -2.0, 1.4], [0.5, 0.4, -0.8])
    assert tv.independence_check(X_AXIS, A1, A2, a3) == "independent"
    rng = np.random.default_rng(8)
    hits = 0
    for _ in range(20):
        a3 = tv.EdgeLine.of(rng.normal(size=3) * 2, rng.normal(size=3))
        try:
            verdict = tv.independence_check(X_AXIS, A1, A2, a3)
        except tv.NotPairwiseSkew:
            continue
        hits += verdict == "independent"
    assert hits >= 18


def _hyperboloid_rulings(rng, on_regulus):
    """Four rulings (cos f, sin f, 0) + s (-sin f, cos f, 1) of x^2 + y^2 -
    z^2 = 1 at random angles f, under a random well-conditioned affine map,
    which keeps them one ruling family of a quadric.  Off the regulus the
    fourth direction is turned by about 1e-3."""
    while True:
        A = rng.normal(size=(3, 3))
        if np.linalg.cond(A) < 20:
            break
    b = rng.normal(size=3)
    phis = rng.uniform(0.0, 2 * np.pi, 4)
    pts = [A @ np.array([np.cos(f), np.sin(f), 0.0]) + b for f in phis]
    dirs = [A @ np.array([-np.sin(f), np.cos(f), 1.0]) for f in phis]
    if not on_regulus:
        dirs[3] = dirs[3] + 1e-3 * np.linalg.norm(dirs[3]) * rng.normal(size=3)
    return [tv.EdgeLine.of(p, d) for p, d in zip(pts, dirs)]


def test_independence_reads_the_regulus():
    # the verdicts of the sampled check (41 transversals, each within 1e-8
    # of the fourth edge) on the same quadruples
    rng = np.random.default_rng(61)
    for on_regulus, verdict in ((True, "dependent"), (False, "independent")):
        for _ in range(400):
            edges = _hyperboloid_rulings(rng, on_regulus)
            assert tv.independence_check(*edges) == verdict
    # x = a, z = a*y for a = 0..3 are one ruling family of z = x*y; the
    # line (3 + s, s, 3s) is off that saddle
    rulings = [tv.EdgeLine.of([a, 0, 0], [0, 1, a]) for a in range(4)]
    assert tv.independence_check(*rulings) == "dependent"
    off = tv.EdgeLine.of([3, 0, 0], [1, 1, 3])
    assert tv.independence_check(*rulings[:3], off) == "independent"


# ---------------------------------------------------------------------------
# the probe kernel and membership against exact arithmetic
# ---------------------------------------------------------------------------

def test_counts_do_not_depend_on_the_base_point():
    # the probe is re-based at its point nearest p0, so a far base point on
    # the same line gives the same count; without it, moving these probes of
    # the benchmark's surface by 1e4 changed 75 of 500 counts, and by 1e5
    # read every one as a tangency
    S = tv.triple_surface(tv.EdgeLine.of([0, 0, 0], [1, 0, 0]),
                          tv.EdgeLine.of([0, 1, 0], [0, 0, 1]),
                          tv.EdgeLine.of([2, 0, 1], [0, 1, 0]))
    rng = np.random.default_rng(31)
    lines = [tv.EdgeLine.of(2.0 * rng.normal(size=3), rng.normal(size=3)) for _ in range(500)]
    counts = [tv.count_line_surface_intersections(line, S) for line in lines]
    assert {0, 2} <= set(counts)
    for s in (1e2, 1e4, 1e6):
        moved = [tv.EdgeLine(line.point + s * line.direction, line.direction) for line in lines]
        assert [tv.count_line_surface_intersections(line, S) for line in moved] == counts


@pytest.mark.parametrize("count, message", [
    (2.5, "count must be an integer, got 2.5"), (True, "count must be an integer, got True"),
    ("5", "count must be an integer, got '5'"), (-1, "count must be >= 0")])
def test_sample_transversals_count_must_be_a_count(count, message):
    with pytest.raises(PreconditionFailed, match=f"^{message}$"):
        tv.sample_transversals(X_AXIS, A1, A2, count=count)


def test_sample_transversals_reads_numpy_counts():
    assert tv.sample_transversals(X_AXIS, A1, A2, count=0) == []
    lines = tv.sample_transversals(X_AXIS, A1, A2, count=np.int64(9))
    ref = tv.sample_transversals(X_AXIS, A1, A2, count=9)
    assert len(lines) == len(ref) > 0
    assert all(a.point.tobytes() == b.point.tobytes() for a, b in zip(lines, ref))


def _check_skipped(a0, a1, a2, skipped):
    """The lines of a 9-sample run meet all three edges, and start at every
    sampled point of ``a2`` but the parameters in ``skipped``."""
    lines = tv.sample_transversals(a0, a1, a2, count=9)
    scale = 1.0 + max(float(np.linalg.norm(a.point)) for a in (a0, a1, a2))
    for line in lines:
        for a in (a0, a1, a2):
            assert line_line_distance(line.point, line.direction, a.point, a.direction) \
                <= tv._MEET_TOL * scale
    starts = [a2.at(float(s)) for s in np.linspace(-tv._SAMPLE_SPAN, tv._SAMPLE_SPAN, 9)
              if float(s) not in skipped]
    assert [line.point.tobytes() for line in lines] == [q.tobytes() for q in starts]


def test_sample_on_the_first_edge_is_skipped():
    # a2 crosses the x axis at its middle sample, so no plane through that
    # point and a0 exists: the m0 test skips it
    _check_skipped(X_AXIS, A1, tv.EdgeLine.of([0.5, 0, 0], [0, 1, 1]), {0.0})


def test_sample_in_the_plane_of_coplanar_edges_is_skipped():
    # a0 and a1 span the plane z = 0 and meet at (-1, 0, 0); at its middle
    # sample a2 lies in that plane, where the planes through the sample and
    # each edge coincide: the |d| test skips it
    a1 = tv.EdgeLine.of([0, 1, 0], [1, 1, 0])
    _check_skipped(X_AXIS, a1, tv.EdgeLine.of([2, 5, 0], [0, 0, 1]), {0.0})


def _xcross(a, b):
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def _xdet(a, b, c):
    bc = _xcross(b, c)
    return a[0] * bc[0] + a[1] * bc[1] + a[2] * bc[2]


def _exact_moments(S, point, direction=None):
    """``u_i = (c - p_i) ^ d_i`` (and ``v_i = e ^ d_i``) in ``Fraction``
    arithmetic on the float inputs, with their float norms."""
    c = [Fraction(x) for x in np.asarray(point, float).tolist()]
    e = None if direction is None else [Fraction(x) for x in direction.tolist()]
    u, v = [], []
    for p, d in zip(S.points.tolist(), S.directions.tolist()):
        d = [Fraction(x) for x in d]
        u.append(_xcross([ci - Fraction(pi) for ci, pi in zip(c, p)], d))
        if e is not None:
            v.append(_xcross(e, d))
    norm = lambda w: float(np.linalg.norm([float(x) for x in w]))
    return u, v, [norm(w) for w in u], [norm(w) for w in v]


def _exact_probe(S, line):
    """Exact crossings of ``line`` with the surface, and whether the exact
    discriminant is within rounding of zero at the kernel's scale.

    Along ``c + t e``, ``f = det[u_i + t v_i]``; its cubic term ``det[v_i]``
    vanishes because every ``v_i`` is normal to ``e``.  The band is the
    kernel's, in the surface's unit of length ``L``: the discriminant is
    below ``4|c2|`` (or, when ``c2`` is tiny, ``tol * scale``) times ``tol *
    scale``, so that rounding the coefficients can move it across zero."""
    u, v, nu, nv = _exact_moments(S, line.point, line.direction)
    assert _xdet(*v) == 0
    L = S._length
    c0 = _xdet(*u) / Fraction(L) ** 3
    c1 = (_xdet(v[0], u[1], u[2]) + _xdet(u[0], v[1], u[2]) + _xdet(u[0], u[1], v[2])) / Fraction(L) ** 2
    c2 = (_xdet(v[0], v[1], u[2]) + _xdet(v[0], u[1], v[2]) + _xdet(u[0], v[1], v[2])) / Fraction(L)
    disc = c1 * c1 - 4 * c2 * c0
    tol = Fraction(tv._ROUND_TOL * float(np.prod(1.0 + np.array(nu) / L + np.array(nv))))
    near = abs(disc) <= max(4 * abs(c2), tol) * tol
    if c2 == 0:
        return (1 if c1 else tv.ON_SURFACE if c0 == 0 else 0), near
    return (2 if disc > 0 else 1 if disc == 0 else 0), near


def _moved_surface(rng):
    """The X_AXIS, A1, A2 surface under a random rigid motion."""
    Q, R = np.linalg.qr(rng.normal(size=(3, 3)))
    Q = Q * np.sign(np.diag(R))
    shift = rng.normal(size=3)
    edges = [tv.EdgeLine.of(Q @ e.point + shift, Q @ e.direction) for e in (X_AXIS, A1, A2)]
    return edges, Q, shift


def _near_base_probes(rng, base, Q):
    """Probes through points 1e-4 to 1e-8 off the base edge, which lies on
    the surface."""
    lines = []
    for eps in np.logspace(-4, -8, 9):
        for _ in range(20):
            w = Q[:, 1:] @ rng.normal(size=2)
            p = base.at(rng.uniform(-2.0, 2.0)) + eps * w / np.linalg.norm(w)
            lines.append(tv.EdgeLine.of(p, rng.normal(size=3)))
    return lines


def _near_parallel_probes(rng, base, Q):
    """Probes turned 1e-3 to 1e-7 off the base direction, along which the
    quadric has no quadratic term: ``c2`` is small."""
    lines = []
    for eps in np.logspace(-3, -7, 9):
        for _ in range(20):
            w = Q[:, 1:] @ rng.normal(size=2)
            p = base.at(rng.uniform(-2.0, 2.0)) + Q[:, 1:] @ rng.normal(size=2)
            lines.append(tv.EdgeLine.of(p, base.direction + eps * w / np.linalg.norm(w)))
    return lines


def _saddle_tangents(rng):
    """Lines in the tangent plane of z = xy at a point, off the rulings: the
    probe quadratic has a double root there."""
    lines = []
    for _ in range(60):
        x0, y0 = rng.uniform(-2.0, 2.0, size=2)
        a, b = rng.normal(size=2)
        lines.append(tv.EdgeLine.of([x0, y0, x0 * y0], [a, b, y0 * a + x0 * b]))
    return lines


SADDLE_EDGES = (tv.EdgeLine.of([0, 0, 0], [0, 1, 0]),
                tv.EdgeLine.of([1, 0, 0], np.array([0, 1, 1.0]) / np.sqrt(2)),
                tv.EdgeLine.of([2, 0, 0], np.array([0, 1, 2.0]) / np.sqrt(5)))


def test_probe_counts_match_reference():
    rng = np.random.default_rng(43)
    cases = []
    for _ in range(3):
        edges, Q, shift = _moved_surface(rng)
        S = tv.triple_surface(*edges)
        lines = [tv.EdgeLine.of(Q @ (2.0 * rng.normal(size=3)) + shift, Q @ rng.normal(size=3))
                 for _ in range(2000)]
        # along the base edge the quadratic term vanishes
        lines += [tv.EdgeLine(edges[0].point + s * v, edges[0].direction)
                  for s in (0.5, 1.5) for v in (Q[:, 1], Q[:, 2])]
        lines += _near_base_probes(rng, edges[0], Q)
        lines += _near_parallel_probes(rng, edges[0], Q)
        cases.append((S, lines, None))
        cases.append((S, tv.sample_transversals(*edges, count=15), tv.ON_SURFACE))
    saddle = tv.triple_surface(*SADDLE_EDGES)
    cases.append((saddle, _saddle_tangents(rng), 1))
    cases.append((saddle, tv.sample_transversals(*SADDLE_EDGES, count=15), tv.ON_SURFACE))
    seen = set()
    for S, lines, expect in cases:
        for line in lines:
            got = tv.count_line_surface_intersections(line, S)
            ref, near = _exact_probe(S, line)
            if not near:
                assert got == ref
                assert type(got) is type(ref)
            if expect is not None:
                assert got == expect
            assert got == tv.ON_SURFACE or 0 <= got <= 2
            seen.add(got)
    assert {0, 1, 2, tv.ON_SURFACE} <= seen


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _helper_count(line, S):
    """The probe kernel over numpy's prelude, ``_cross``, ``_dot`` and
    ``hypot`` of unpacked lists: the kernel's operations, in its order."""
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
    tol = tv._ROUND_TOL * scale
    if abs(c2) <= tol:
        return (1 if abs(c1) > tol else tv.ON_SURFACE if abs(c0) <= tol else 0)
    disc = c1 * c1 - 4.0 * c2 * c0
    return 1 if abs(disc) <= 4.0 * abs(c2) * tol else 2 if disc > 0.0 else 0


def test_probe_counts_match_the_helper_kernel():
    # the written-out kernel must take every branch as the helper one does,
    # on the tolerance bands too: near the base edge, near its direction,
    # tangent to the saddle and on it
    rng = np.random.default_rng(47)
    cases = []
    for _ in range(2):
        edges, Q, shift = _moved_surface(rng)
        lines = [tv.EdgeLine.of(Q @ (2.0 * rng.normal(size=3)) + shift, Q @ rng.normal(size=3))
                 for _ in range(2000)]
        lines += _near_base_probes(rng, edges[0], Q) + _near_parallel_probes(rng, edges[0], Q)
        lines += tv.sample_transversals(*edges, count=15)
        cases.append((tv.triple_surface(*edges), lines))
    rulings = [tv.EdgeLine.of([a, 0, 0], [0, 1, a]) for a in np.linspace(-3.0, 3.0, 13)]
    cases.append((tv.triple_surface(*SADDLE_EDGES),
                  rulings + _saddle_tangents(rng)
                  + tv.sample_transversals(*SADDLE_EDGES, count=33)))
    seen = set()
    for S, lines in cases:
        for line in lines:
            got, ref = tv.count_line_surface_intersections(line, S), _helper_count(line, S)
            assert got == ref and type(got) is type(ref)
            seen.add(got)
    assert seen == {0, 1, 2, tv.ON_SURFACE}


@pytest.mark.parametrize("point, direction", [
    ([np.nan, 0.0, 0.0], [0.0, 0.0, 1.0]),
    ([0.0, np.inf, 0.0], [0.0, 0.0, 1.0]),
    ([0.0, 0.5, 0.0], [np.nan, 0.0, 1.0]),
    ([0.0, 0.5, 0.0], [0.0, -np.inf, 1.0]),
])
def test_probe_refuses_non_finite_lines(point, direction):
    # EdgeLine.of refuses these; a line built directly must not count 0
    S = tv.triple_surface(X_AXIS, A1, A2)
    with pytest.raises(PreconditionFailed, match="non-finite"):
        tv.count_line_surface_intersections(tv.EdgeLine(np.array(point), np.array(direction)), S)


# two probes of the exact-geometry benchmark workload (seed 1, passes 4 and
# 13) that an earlier cubic-residual kernel counted once: each crosses twice
_BENCH_PROBES = [
    ([([0.027995016620815865, 0.11457115332651811, 1.4573363123244916],
       [-0.34716959537574926, -0.911348738361785, -0.22117131173147514]),
      ([-0.8889853027937993, 0.49387829425623936, 1.33375157764423],
       [0.19652064994017432, 0.15990487774331175, -0.9673727638408]),
      ([-0.4698235241905082, -1.5482214456537398, 0.047620925020741334],
       [-0.9169803194146153, 0.37930714092972134, -0.12358473468026165])],
     ([1.137765389953334, -0.2629247331968684, -0.024233586829636167],
      [0.617538037629537, -0.13543269772381442, -0.7747933637221672])),
    ([([0.41428647970719545, -0.07915395666290541, -0.9178902225935024],
       [-0.2965178159615141, -0.9550271025953269, -0.0006466264676769044]),
      ([-0.24204430890490347, 0.12413237081441582, -0.1913198096391876],
       [-0.6937629859953857, 0.21586547285093682, -0.6870917092307313]),
      ([-0.8725121382112184, -1.7733426890026218, -1.6062751847595873],
       [-0.656330788612099, 0.20328632747732125, 0.7265704129543149])],
     ([2.3906713157919803, 1.1984232834771398, -3.129987921199924],
      [0.5599789878084785, -0.08983720010147829, -0.823621764337805])),
]


def test_benchmark_probes_count_both_crossings():
    for edges, (p, d) in _BENCH_PROBES:
        S = tv.triple_surface(*(tv.EdgeLine(np.array(q), np.array(x)) for q, x in edges))
        line = tv.EdgeLine(np.array(p), np.array(d))
        assert _exact_probe(S, line) == (2, False)
        assert tv.count_line_surface_intersections(line, S) == 2


def test_membership_matches_reference():
    rng = np.random.default_rng(45)
    moved, Q, _ = _moved_surface(rng)
    # each surface's edges, and two unit normals of its base edge
    surfaces = [(moved, Q[:, 1:]), ((X_AXIS, A1, A2), np.eye(3)[:, 1:]),
                (SADDLE_EDGES, np.eye(3)[:, [0, 2]])]
    for edges, normals in surfaces:
        S = tv.triple_surface(*edges)
        base = edges[0]
        pts = [rng.normal(size=3) * 2.0 for _ in range(300)]
        # 1e-4 down to 1e-12 off the base edge
        for scale in np.logspace(-4, -12, 17):
            for _ in range(10):
                pts.append(base.at(rng.uniform(-3, 3)) + normals @ (scale * rng.normal(size=2)))
        # 1e-6 to 10 off the base edge along one normal, on both sides
        w = normals @ np.array([0.6, 0.8])
        for scale in np.logspace(-6, 1, 71):
            for sign in (1.0, -1.0):
                pts.append(base.at(rng.uniform(-3, 3)) + sign * scale * w)
        pts = np.array(pts)
        for tol in (1e-7, 1e-8):
            got = S.contains(pts, tol=tol)
            assert got.dtype == bool and got.shape == (len(pts),)
            for X, g in zip(pts, got):
                # |f| against tol * L times the slope bound sum |u_j||u_k|
                u, _, (n0, n1, n2), _ = _exact_moments(S, X)
                slope = Fraction(S._length * (n1 * n2 + n0 * n2 + n0 * n1))
                margin = abs(_xdet(*u)) - Fraction(tol) * slope
                if abs(margin) > Fraction(tv._ROUND_TOL) * slope:
                    assert g == (margin < 0)
        # points on the surface, built without it: of the three edges, of
        # transversals found by bisection, and of the saddle
        on = [a.at(t) for a in edges for t in np.linspace(-2, 2, 9)]
        on += [l.at(t) for l in _brute_transversals(*edges) for t in (-1.0, 0.0, 0.5, 2.0)]
        if edges is SADDLE_EDGES:
            on += [[x, y, x * y] for x in (-1.0, 0.5, 2.5) for y in (-2.0, 0.3, 1.7)]
        assert len(on) > 100
        for tol in (1e-7, 1e-8):
            assert S.contains(np.array(on), tol=tol).all()
    S = tv.triple_surface(X_AXIS, A1, A2)
    assert S.contains([2.0, -1.0, 1.0]).all()


def test_surface_arrays_are_read_only():
    S = tv.triple_surface(X_AXIS, A1, A2)
    for a in (S.points, S.directions):
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 7.0
