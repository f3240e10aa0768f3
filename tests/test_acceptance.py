"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a single PASS line (visible with ``pytest -s`` or in the
captured output) so a run yields a one-line verdict per criterion.
"""

import time

import numpy as np
import pytest

from polybilliard import billiard as bl
from polybilliard import symbolic as sy
from polybilliard import transversal as tv
from polybilliard import unfolding as uf
from polybilliard.geometry import box, reflect_direction, regular_tetrahedron, unit_cube

CUBE = unit_cube()

X_AXIS = tv.EdgeLine.of([0, 0, 0], [1, 0, 0])
A1 = tv.EdgeLine.of([0, 1, 0], [0, 0, 1])
A2 = tv.EdgeLine.of([2, 0, 1], [0, 1, 0])


def _report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


@pytest.fixture(scope="module")
def complexity_runs():
    t0 = time.time()
    base = sy.estimate_complexity(CUBE, 12, 1_000_000, seed=7, workers=4)
    doubled = sy.estimate_complexity(CUBE, 12, 2_000_000, seed=7, workers=4)
    return base, doubled, time.time() - t0


def test_criterion_1_mirror_law_and_involution():
    t0 = time.time()
    rng = np.random.default_rng(101)
    thetas = rng.normal(size=(10_000, 3))
    thetas /= np.linalg.norm(thetas, axis=1, keepdims=True)
    faces = rng.integers(0, 6, 10_000)
    for i in range(10_000):
        n = CUBE.normals[int(faces[i])]
        theta = thetas[i]
        once = reflect_direction(theta, n)
        twice = reflect_direction(once, n)
        assert np.abs(twice - theta).max() < 1e-12
        tang_before = theta - (theta @ n) * n
        tang_after = once - (once @ n) * n
        assert np.abs(tang_before - tang_after).max() < 1e-10
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(1, f"10^4 reflections: involution <1e-12, tangential <1e-10 "
               f"({elapsed:.2f}s)")


def test_criterion_2_unfolding_colinearity():
    t0 = time.time()
    rng = np.random.default_rng(202)
    done = 0
    worst = 0.0
    while done < 100:
        m, th, f = bl.random_phase_points(CUBE, 1, rng)
        rec = bl.orbit(bl.PhasePoint(int(f[0]), m[0], th[0]), 1000, CUBE)
        if not rec.completed:
            continue
        track = uf.unfold_orbit(rec, CUBE)
        assert track.relative_residual < 1e-9
        worst = max(worst, track.relative_residual)
        done += 1
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _report(2, f"100 orbits x 1000 bounces colinear, worst relative residual "
               f"{worst:.2e} ({elapsed:.1f}s)")


def test_criterion_3_transversal_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(303)
    checked = 0
    while checked < 1000:
        a0 = tv.EdgeLine.of(rng.normal(size=3), rng.normal(size=3))
        a1 = tv.EdgeLine.of(rng.normal(size=3), rng.normal(size=3))
        b = np.cross(a0.direction, a1.direction)
        if np.linalg.norm(b) < 0.2:
            continue
        if abs((a1.point - a0.point) @ b) / np.linalg.norm(b) < 0.2:
            continue
        con = tv.pair_constraint(a0, a1)
        assert isinstance(con, tv.RationalConstraint)
        theta = rng.normal(size=3)
        theta /= np.linalg.norm(theta)
        if abs(con.denominator @ theta) < 1e-3:
            continue
        m = tv.eval_constraint(con, theta)
        sol = np.linalg.solve(np.column_stack([a0.direction, theta, -a1.direction]),
                              a1.point - a0.point)
        assert abs(m - sol[0]) < 1e-8
        checked += 1
    # coplanar pairs: the linear form vanishes exactly on the incidence plane
    for _ in range(100):
        p0 = rng.normal(size=3)
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        w = rng.normal(size=3)
        w -= (w @ u) * u
        w /= np.linalg.norm(w)
        a0 = tv.EdgeLine.of(p0, u)
        alpha, beta = rng.normal(size=2)
        x1 = np.cos(beta) * u + np.sin(beta) * w
        a1 = tv.EdgeLine.of(p0 + 1.7 * w + alpha * u, x1)
        con = tv.pair_constraint(a0, a1)
        assert isinstance(con, tv.CoplanarConstraint)
        for _ in range(5):
            inplane = rng.normal() * u + rng.normal() * w
            inplane /= np.linalg.norm(inplane)
            assert abs(tv.eval_constraint(con, inplane)) < 1e-10
        off = np.cross(u, w)
        assert abs(tv.eval_constraint(con, off)) > 0.99
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(3, f"1000 skew pairs match the direct incidence solve <1e-8; "
               f"coplanar forms vanish on their planes ({elapsed:.2f}s)")


def test_criterion_4_surface_intersection_bound():
    t0 = time.time()
    S = tv.triple_surface(X_AXIS, A1, A2)
    rng = np.random.default_rng(404)
    max_count = 0
    for _ in range(1000):
        probe = tv.EdgeLine.of(rng.normal(size=3) * 2.0, rng.normal(size=3))
        c = tv.count_line_surface_intersections(probe, S)
        if c == tv.ON_SURFACE:
            continue
        assert c <= 4
        max_count = max(max_count, c)
    lines = tv.sample_transversals(X_AXIS, A1, A2, count=33)
    assert len(lines) >= 25
    for line in lines:
        pts = np.array([line.at(t) for t in np.linspace(-2.0, 2.0, 7)])
        assert bool(S.contains(pts, tol=1e-8).all())
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report(4, f"1000 probe lines cross the 3-edge surface <= 4 times "
               f"(max seen {max_count}); sampled transversals satisfy the "
               f"residual <1e-8 ({elapsed:.1f}s)")


def test_criterion_5_tube_implies_periodic():
    t0 = time.time()
    k_max = 12
    cube_cases = [
        ((0, 0, 1), "z0", 2), ((0, 1, 0), "y0", 2), ((1, 0, 0), "x0", 2),
        ((1, 0, 1), "z0", 4), ((0, 1, 1), "z0", 4), ((1, 1, 0), "x0", 4),
        ((1, 1, 1), "z0", 6), ((2, 0, 1), "z0", 6), ((1, 0, 2), "z0", 6),
        ((1, 2, 2), "z0", 10),
    ]
    B = box(2.0, 1.0, 1.0)
    box_cases = [
        ((0, 0, 1), "z0", 2), ((1, 0, 0), "x0", 2), ((2, 0, 1), "z0", 4),
        ((0, 1, 1), "z0", 4), ((2, 1, 0), "x0", 4), ((2, 1, 1), "z0", 6),
        ((4, 0, 1), "z0", 6), ((2, 0, 2), "z0", 6), ((2, 2, 1), "z0", 8),
        ((4, 1, 0), "x0", 6),
    ]
    base = {"z0": np.array([0.3171, 0.4419, 0.0]),
            "y0": np.array([0.3171, 0.0, 0.4419]),
            "x0": np.array([0.0, 0.3171, 0.4419])}
    checked = 0
    for P, cases in ((CUBE, cube_cases), (B, box_cases)):
        for vec, face, expect in cases:
            theta = np.asarray(vec, float)
            theta /= np.linalg.norm(theta)
            m = base[face] * np.array([P.vertices[:, i].max() for i in range(3)])
            x = bl.phase_point(P, m, theta, face=face)
            rec = bl.orbit(x, 2 * k_max + 1, P)
            assert rec.completed, (vec, face)
            beam = sy.make_beam(P, rec.word[0], theta)
            for lab in rec.word[1:]:
                beam = sy.propagate_beam(beam, lab, P)
            cell = sy.classify_cell(beam)
            assert cell.kind == "tube", (vec, face, cell)
            k = sy.detect_periodicity(beam, k_max)
            assert k == expect, (vec, face, k, expect)
            lin, trans = uf.cumulative_isometries(P, [P.face_index(lab) for lab in beam.word])
            assert np.abs(lin[k] - np.eye(3)).max() <= 1e-9
            t = trans[k]
            assert np.linalg.norm(t - (t @ theta) * theta) < 1e-9 * np.linalg.norm(t)
            checked += 1
    assert checked == 20
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report(5, f"20 rational directions in cube and box: every tube is periodic "
               f"with the hand-computed period ({elapsed:.1f}s)")


def test_criterion_6_complexity_trend(complexity_runs):
    base, doubled, elapsed = complexity_runs
    assert base.p_hat[0] == 6
    assert base.p_hat[1] == 30
    seq = base.log_p_over_n[3:]            # n = 4 .. 12
    assert np.all(np.diff(seq) < 0.0)
    rel = np.abs(doubled.p_hat[:8] - base.p_hat[:8]) / base.p_hat[:8]
    assert np.all(rel < 0.01)
    assert elapsed < 300.0
    _report(6, f"cube 10^6 orbits: p(1)=6, p(2)=30, log p(n)/n strictly "
               f"decreasing on n=4..12, doubled budget moves n<=8 counts by "
               f"max {rel.max():.2%} ({elapsed:.0f}s)")


def test_criterion_7_group_closure():
    t0 = time.time()
    c1 = uf.generate_group(CUBE, bound=1000)
    assert c1.closed and c1.order == 8
    c2 = uf.generate_group(box(2.0, 1.0, 0.5), bound=1000)
    assert c2.closed and c2.order == 8
    c3 = uf.generate_group(regular_tetrahedron(), bound=1000)
    assert not c3.closed
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(7, f"cube order 8, box order 8, tetrahedron NOT_CLOSED(1000) "
               f"({elapsed:.2f}s)")


def test_criterion_8_factor_closure(complexity_runs):
    base, _, _ = complexity_runs
    t0 = time.time()
    assert base.factor_closure_holds()
    # decoded spot check on the longest two lengths
    F = len(base.labels)
    for n in (10, 11):
        longer = set(map(int, base.word_codes[n + 1]))
        shorter = set(map(int, base.word_codes[n]))
        for code in list(longer)[:2000]:
            assert code // F in shorter
            assert code % (F ** n) in shorter
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report(8, f"every counted (n+1)-word has both n-factors counted, all "
               f"n < 12 ({elapsed:.1f}s)")
