import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from polybilliard import transversal as tv
from polybilliard.geometry import tangent_frame

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


def test_surface_rows_match_per_edge_loop():
    # the rows as built per edge before they were read off the pair constraints
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 100:
        a0, a1, a2 = (tv.EdgeLine.of(10.0 * rng.normal(size=3), rng.normal(size=3))
                      for _ in range(3))
        try:
            S = tv.triple_surface(a0, a1, a2)
        except tv.NotPairwiseSkew:
            continue
        frame = np.vstack([a0.direction, tangent_frame(a0.direction)])
        num, den = np.empty((2, 3)), np.empty((2, 3))
        for i, a in enumerate((a1, a2)):
            num[i] = frame @ np.cross(a.point - a0.point, a.direction)
            den[i] = frame @ np.cross(a0.direction, a.direction)
        assert S.origin.tobytes() == a0.point.tobytes()
        assert S.frame.tobytes() == frame.tobytes()
        assert S.coeff_num.tobytes() == num.tobytes()
        assert S.coeff_den.tobytes() == den.tobytes()
        checked += 1


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
        assert 0 <= c <= 4
        seen = max(seen, c)
    assert seen >= 1


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


# ---------------------------------------------------------------------------
# closed-form probe polynomial against the numpy.polynomial reference
# ---------------------------------------------------------------------------

def _reference_residual_poly(S, line):
    c = S.to_adapted(line.point)
    d = S.frame @ line.direction
    (a1, a2), (b1, b2) = S.coeff_num, S.coeff_den
    lin = lambda v: np.array([v[1] * c[1] + v[2] * c[2], v[1] * d[1] + v[2] * d[2]])
    P1 = np.array([c[0], d[0]])
    B1, B2 = lin(b1), lin(b2)
    A1, A2 = lin(a1), lin(a2)
    alpha = a1[0] * B2 - a2[0] * B1
    beta = npoly.polysub(npoly.polymul(A1, B2), npoly.polymul(A2, B1))
    res = npoly.polymul(npoly.polymul(P1, B1), alpha)
    res = npoly.polyadd(res, npoly.polymul(beta, npoly.polyadd(B1, [a1[0]])))
    return npoly.polysub(res, npoly.polymul(A1, alpha))


def test_probe_polynomial_matches_reference():
    rng = np.random.default_rng(41)
    Q, R = np.linalg.qr(rng.normal(size=(3, 3)))
    Q = Q * np.sign(np.diag(R))
    shift = rng.normal(size=3)
    edges = [tv.EdgeLine.of(Q @ e.point + shift, Q @ e.direction) for e in (X_AXIS, A1, A2)]
    S = tv.triple_surface(*edges)
    lines = [tv.EdgeLine.of(Q @ (2.0 * rng.normal(size=3)) + shift, Q @ rng.normal(size=3))
             for _ in range(2000)]
    # probes along the base edge: the top coefficients vanish and are trimmed
    lines += [tv.EdgeLine(edges[0].point + s * v, edges[0].direction)
              for s in (0.5, 1.5) for v in (Q[:, 1], Q[:, 2])]
    lines.append(tv.EdgeLine(np.zeros(3), np.array([1.0, 0.0, 0.0])))
    S_axis = tv.triple_surface(X_AXIS, A1, A2)
    for k, line in enumerate(lines):
        surface = S_axis if k == len(lines) - 1 else S
        got, ref = surface.residual_poly_along(line), _reference_residual_poly(surface, line)
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
    assert len(S_axis.residual_poly_along(lines[-1])) < 4


# ---------------------------------------------------------------------------
# float probe kernel against the numpy.polynomial reference
# ---------------------------------------------------------------------------

def _reference_pieces(S, P2, P3):
    (a1, a2), (b1, b2) = S.coeff_num, S.coeff_den
    B1 = b1[1] * P2 + b1[2] * P3
    B2 = b2[1] * P2 + b2[2] * P3
    alpha = a1[0] * B2 - a2[0] * B1
    A1 = a1[1] * P2 + a1[2] * P3
    A2 = a2[1] * P2 + a2[2] * P3
    beta = A1 * B2 - A2 * B1
    return B1, B2, alpha, A1, A2, beta


def _reference_height(S, P2, P3):
    (a1, a2), _ = S.coeff_num, S.coeff_den
    B1, B2, alpha, A1, A2, beta = _reference_pieces(S, P2, P3)
    tiny = 1e-12 * (1.0 + abs(P2) + abs(P3))
    if abs(alpha) < tiny * (1.0 + abs(a1[0]) + abs(a2[0])):
        return None
    q = -beta / alpha
    if abs(B1) >= abs(B2):
        if abs(B1) < tiny:
            return None
        return (a1[0] * q + A1) / B1 + q
    if abs(B2) < tiny:
        return None
    return (a2[0] * q + A2) / B2 + q


def _reference_contains(S, pts, tol=1e-8):
    """The per-point numpy membership loop the float routine replaced."""
    ad = np.atleast_2d(S.to_adapted(pts))
    out = np.zeros(len(ad), dtype=bool)
    for i, (P1, P2, P3) in enumerate(ad):
        h = _reference_height(S, P2, P3)
        if h is not None:
            out[i] = abs(P1 - h) <= tol * (1.0 + abs(P1) + abs(h))
            continue
        (a1, _), _ = S.coeff_num, S.coeff_den
        B1, B2, alpha, A1, A2, beta = _reference_pieces(S, P2, P3)
        res = P1 * B1 * alpha + beta * (B1 + a1[0]) - A1 * alpha
        mag = abs(P1 * B1 * alpha) + abs(beta * (B1 + a1[0])) + abs(A1 * alpha)
        out[i] = abs(res) <= tol * (1.0 + mag)
    return out


def _reference_count(line, S):
    """``count_line_surface_intersections`` on numpy.polynomial, as it was
    before the float kernel, over the reference residual and membership."""
    coeffs = _reference_residual_poly(S, line)
    cmax = float(np.abs(coeffs).max())
    c_ad = S.to_adapted(line.point)
    char = ((1.0 + float(np.abs(S.coeff_num).max()))
            * (1.0 + float(np.abs(S.coeff_den).max())) ** 2
            * (1.0 + float(np.linalg.norm(c_ad))) ** 3)
    if cmax <= 1e-10 * char:
        probes = line.point[None, :] + np.linspace(-3.0, 3.0, 9)[:, None] * line.direction
        if bool(_reference_contains(S, probes, tol=1e-7).all()):
            return tv.ON_SURFACE
        return 0
    trimmed = npoly.polytrim(coeffs, tol=1e-12 * cmax)
    if len(trimmed) <= 1:
        return 0
    roots = npoly.polyroots(trimmed)
    real = sorted(float(r.real) for r in roots
                  if abs(r.imag) <= 1e-7 * (1.0 + abs(r.real)))
    merged: list[float] = []
    for r in real:
        if not merged or r - merged[-1] > 1e-7:
            merged.append(r)
    pts = [line.at(t) for t in merged]
    if not pts:
        return 0
    on = _reference_contains(S, np.array(pts), tol=1e-7)
    return int(on.sum())


def _moved_surface(rng):
    """The X_AXIS, A1, A2 surface under a random rigid motion."""
    Q, R = np.linalg.qr(rng.normal(size=(3, 3)))
    Q = Q * np.sign(np.diag(R))
    shift = rng.normal(size=3)
    edges = [tv.EdgeLine.of(Q @ e.point + shift, Q @ e.direction) for e in (X_AXIS, A1, A2)]
    return edges, Q, shift


def _near_base_probes(rng, base, Q):
    """Probes through points 1e-4 to 1e-8 off the base edge: P2, P3 near the
    denominator locus of the surface's height."""
    lines = []
    for eps in np.logspace(-4, -8, 9):
        for _ in range(20):
            w = Q[:, 1:] @ rng.normal(size=2)
            p = base.at(rng.uniform(-2.0, 2.0)) + eps * w / np.linalg.norm(w)
            lines.append(tv.EdgeLine.of(p, rng.normal(size=3)))
    return lines


def _near_parallel_probes(rng, base, Q):
    """Probes turned 1e-3 to 1e-7 off the base direction: the top residual
    coefficients fall through the trim tolerance."""
    lines = []
    for eps in np.logspace(-3, -7, 9):
        for _ in range(20):
            w = Q[:, 1:] @ rng.normal(size=2)
            p = base.at(rng.uniform(-2.0, 2.0)) + Q[:, 1:] @ rng.normal(size=2)
            lines.append(tv.EdgeLine.of(p, base.direction + eps * w / np.linalg.norm(w)))
    return lines


def _saddle_tangents(rng):
    """Lines in the tangent plane of z = xy at a point, off the rulings: the
    residual has a double root there."""
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
        # along the base edge the degree drops
        lines += [tv.EdgeLine(edges[0].point + s * v, edges[0].direction)
                  for s in (0.5, 1.5) for v in (Q[:, 1], Q[:, 2])]
        lines += _near_base_probes(rng, edges[0], Q)
        lines += _near_parallel_probes(rng, edges[0], Q)
        cases.append((S, lines, None))
        cases.append((S, tv.sample_transversals(*edges, count=15), tv.ON_SURFACE))
    saddle = tv.triple_surface(*SADDLE_EDGES)
    cases.append((saddle, _saddle_tangents(rng), None))
    cases.append((saddle, tv.sample_transversals(*SADDLE_EDGES, count=15), tv.ON_SURFACE))
    seen = set()
    for S, lines, expect in cases:
        for line in lines:
            got = tv.count_line_surface_intersections(line, S)
            assert got == _reference_count(line, S)
            assert type(got) is type(_reference_count(line, S))
            if expect is not None:
                assert got == expect
            seen.add(got)
    assert {0, 1, 2, tv.ON_SURFACE} <= seen


def _companion_used_by_polyroots(c):
    """The matrix the installed ``npoly.polyroots`` hands to ``eigvals``."""
    used = []
    eigvals = np.linalg.eigvals

    def spy(m):
        used.append(np.array(m))
        return eigvals(m)

    np.linalg.eigvals = spy
    try:
        npoly.polyroots(c)
    finally:
        np.linalg.eigvals = eigvals
    return used[0] if used else None


def test_probe_roots_match_polyroots():
    rng = np.random.default_rng(44)
    edges, Q, shift = _moved_surface(rng)
    S = tv.triple_surface(*edges)
    lines = [tv.EdgeLine.of(Q @ (2.0 * rng.normal(size=3)) + shift, Q @ rng.normal(size=3))
             for _ in range(500)]
    lines += [tv.EdgeLine(edges[0].point + 0.5 * Q[:, 1], edges[0].direction)]
    lines += _near_base_probes(rng, edges[0], Q)
    lines += _near_parallel_probes(rng, edges[0], Q)
    polys = []
    for line in lines:
        c = S.residual_poly_along(line)
        trimmed = npoly.polytrim(c, tol=1e-12 * float(np.abs(c).max()))
        if len(trimmed) >= 2:
            polys.append(trimmed)
    assert {len(c) for c in polys} >= {2, 4}
    compared = 0
    for c in polys:
        got = np.array(tv._roots(c.tolist()))
        ref = npoly.polyroots(c)
        assert np.allclose(np.sort_complex(got), np.sort_complex(ref), rtol=1e-9, atol=1e-9)
        if len(c) > 2:
            # numpy releases differ in the companion matrix polyroots uses;
            # bitwise equality holds where it is the kernel's
            M = tv._companion(c.tolist())
            assert M.tobytes() == npoly.polycompanion(c).tobytes()
            used = _companion_used_by_polyroots(c)
            if used is None or used.tobytes() != M.tobytes():
                continue
        got.sort()
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        compared += 1
    if np.__version__.startswith("2."):
        assert compared == len(polys)


def test_membership_matches_reference():
    rng = np.random.default_rng(45)
    edges, Q, shift = _moved_surface(rng)
    moved = tv.triple_surface(*edges)
    surfaces = [moved, tv.triple_surface(X_AXIS, A1, A2), tv.triple_surface(*SADDLE_EDGES)]
    heights = set()
    for S in surfaces:
        pts = [rng.normal(size=3) * 2.0 for _ in range(300)]
        # near the base edge, P2 and P3 from 1e-4 down to 1e-12
        for scale in np.logspace(-4, -12, 17):
            for _ in range(10):
                ad = np.array([rng.uniform(-3, 3), *(scale * rng.normal(size=2))])
                pts.append(S.origin + S.frame.T @ ad)
        # on the line alpha = 0 of the (P2, P3) plane the height is undefined
        # at every scale, and the residual decides
        (a10, _, _), (a20, _, _) = S.coeff_num
        (_, b11, b12), (_, b21, b22) = S.coeff_den
        w = np.array([a20 * b12 - a10 * b22, a10 * b21 - a20 * b11])
        for scale in np.logspace(-6, 1, 71):
            for sign in (1.0, -1.0):
                ad = np.array([rng.uniform(-3, 3), *(sign * scale * w / np.linalg.norm(w))])
                pts.append(S.origin + S.frame.T @ ad)
        # points on the surface through its height
        for _ in range(100):
            P2, P3 = rng.normal(size=2)
            h = _reference_height(S, P2, P3)
            if h is not None:
                pts.append(S.origin + S.frame.T @ np.array([h, P2, P3]))
        pts = np.array(pts)
        for tol in (1e-7, 1e-8):
            got = S.contains(pts, tol=tol)
            assert got.dtype == bool and np.array_equal(got, _reference_contains(S, pts, tol))
        for P1, P2, P3 in S.to_adapted(pts):
            h = S.height(P2, P3)
            assert h == _reference_height(S, P2, P3)
            heights.add(h is None)
    assert heights == {True, False}
    # the frozen examples above
    S = surfaces[1]
    frozen = np.array([[2.0, -1.0, 1.0], *(a.at(t) for a in (A1, A2) for t in np.linspace(-2, 2, 9))])
    assert np.array_equal(S.contains(frozen), _reference_contains(S, frozen))
    assert S.contains(frozen).all()
    S = surfaces[2]
    saddle = np.array([[x, y, x * y] for x in (-1.0, 0.5, 2.5) for y in (-2.0, 0.3, 1.7)])
    assert np.array_equal(S.contains(saddle), _reference_contains(S, saddle))
    assert S.contains(saddle).all()


def test_surface_arrays_are_read_only():
    S = tv.triple_surface(X_AXIS, A1, A2)
    for a in (S.origin, S.frame, S.coeff_num, S.coeff_den):
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 7.0
