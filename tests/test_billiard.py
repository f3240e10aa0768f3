import warnings

import numpy as np
import pytest

import polybilliard as pb
from polybilliard import billiard as bl
from polybilliard.geometry import (Tolerances, box, point_line_distance, regular_tetrahedron,
                                  unit, unit_cube, validate)
from polybilliard.unfolding import cumulative_isometries

SQRT2 = np.sqrt(2.0)
SQRT3 = np.sqrt(3.0)


@pytest.fixture(scope="module")
def cube():
    return unit_cube()


def _pp(cube, m, theta):
    return bl.phase_point(cube, m, np.asarray(theta, float) / np.linalg.norm(theta))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_regular(cube):
    assert bl.classify_phase_point(_pp(cube, [0.5, 0.5, 0.0], [0, 0, 1.0]), cube) is None


def test_classify_edge_hit(cube):
    x = _pp(cube, [0.5, 0.5, 0.0], [1.0, 1.0, 1.0])
    ev = bl.classify_phase_point(x, cube)
    assert ev is not None and ev.kind is bl.SingularityKind.EDGE_HIT
    assert np.allclose(ev.point, [1.0, 1.0, 0.5])
    assert ev.step == 0
    # single-step unfolding is the identity: unfolded edge equals the folded one
    (line,) = bl.discontinuity_report(bl.orbit(x, 1, cube), cube)
    assert np.allclose(np.abs(line.direction), [0, 0, 1.0])
    assert np.allclose(line.point[:2], [1.0, 1.0])


def test_classify_tangent(cube):
    # exactly tangent, and tilted inward by theta . n = 1e-10 (below angle)
    for theta in ([1.0, 0.0, 0.0], [1.0, 0.0, 1e-10]):
        x = bl.PhasePoint(cube.face_index("z0"), np.array([0.5, 0.5, 0.0]),
                          np.array(theta))
        ev = bl.classify_phase_point(x, cube)
        assert ev is not None and ev.kind is bl.SingularityKind.TANGENT_IN_FACE
        assert ev.step == 0 and ev.face == x.face


def test_start_tangency_decided_by_numpy_dot():
    # starts tilted inward by exactly `angle`: numpy's dot decides which are
    # tangent; the plain float sum rounds otherwise for about a tenth of them
    for P in (_rotated_box(), regular_tetrahedron()):
        for f in range(P.n_faces):
            t1, t2, n = P.frames[f]
            m = P.face_polygon(f).mean(axis=0)
            for phi in np.linspace(0.0, 2.0 * np.pi, 50):
                w = P.tol.angle
                theta = np.sqrt(1 - w * w) * (np.cos(phi) * t1 + np.sin(phi) * t2) + w * n
                ev = bl.classify_phase_point(bl.PhasePoint(f, m, theta), P)
                tangent = ev is not None and ev.kind is bl.SingularityKind.TANGENT_IN_FACE
                assert tangent == (float(theta @ P.normals[f]) <= P.tol.angle)


def test_start_on_edge_rejected_as_singular(cube):
    # no continuation convention exists for edge starts, even inward ones
    x = bl.PhasePoint(cube.face_index("z0"), np.array([0.5, 0.0, 0.0]),
                      np.array([0.0, 1.0, 1.0]) / SQRT2)
    ev = bl.classify_phase_point(x, cube)
    assert ev is not None and ev.kind is bl.SingularityKind.EDGE_HIT
    # the edge the start lies on: z0 meets y0 along y = z = 0
    assert set(cube.edges[ev.edge].faces) == {cube.face_index("z0"), cube.face_index("y0")}
    with pytest.raises(bl.SingularInput):
        bl.billiard_step(x, cube)
    rec = bl.orbit(x, 5, cube)
    assert not rec.completed and rec.singularity.step == 0
    assert rec.singularity.edge == ev.edge
    # a start on any edge of z0 reports that edge
    z0 = cube.face_index("z0")
    for e_id in (e_id for e_id, e in enumerate(cube.edges) if z0 in e.faces):
        a, b = cube.vertices[list(cube.edges[e_id].endpoints)]
        x = bl.PhasePoint(z0, 0.5 * (a + b), np.array([0.0, 0.0, 1.0]))
        ev = bl.classify_phase_point(x, cube)
        assert ev.kind is bl.SingularityKind.EDGE_HIT and ev.edge == e_id
    # on the x0/z0 edge, also moving along the floor or into the far face
    x0 = cube.face_index("x0")
    for theta in ([1.0, 0.0, 0.0], unit([0.3, 0.2, 1.0])):
        x = bl.PhasePoint(z0, np.array([0.0, 0.5, 0.0]), np.array(theta))
        ev = bl.classify_phase_point(x, cube)
        assert ev.kind is bl.SingularityKind.EDGE_HIT and ev.step == 0
        assert set(cube.edges[ev.edge].faces) == {z0, x0}


def test_phase_point_validation(cube):
    with pytest.raises(ValueError):
        bl.phase_point(cube, [0.5, 0.5, 0.5], [0, 0, 1.0])   # not on the boundary
    with pytest.raises(ValueError):
        bl.phase_point(cube, [0.5, 0.5, 0.0], [0, 0, -1.0])  # points outward
    x = bl.phase_point(cube, [0.5, 0.5, 0.0], [0, 0, 1.0])
    assert cube.labels[x.face] == "z0"
    for face in (-1, 7):                                     # no such face id
        with pytest.raises(ValueError, match="out of range"):
            bl.phase_point(cube, [0.5, 0.5, 1.0], [0, 0, -1.0], face=face)
    with pytest.raises(ValueError, match="outside the given face"):
        bl.phase_point(cube, [1.5, 0.5, 0.0], [0.1, 0.2, 1.0], face="z0")


def test_phase_point_rejects_non_finite_input(cube):
    # float64 arrays included: they take vec3's one checked path
    for theta in ([np.nan, 0.0, 1.0], [np.inf, 0.0, 1.0], [0.0, 0.0, np.inf]):
        with pytest.raises(ValueError, match="non-finite"):
            bl.phase_point(cube, np.array([0.5, 0.5, 0.0]), np.array(theta))
    with pytest.raises(ValueError, match="non-finite"):
        bl.phase_point(cube, np.array([np.nan, 0.5, 0.0]), np.array([0.0, 0.0, 1.0]))


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def test_step_axis(cube):
    y = bl.billiard_step(_pp(cube, [0.5, 0.5, 0.0], [0, 0, 1.0]), cube)
    assert cube.labels[y.face] == "z1"
    assert np.allclose(y.m, [0.5, 0.5, 1.0])
    assert np.allclose(y.theta, [0, 0, -1.0])


def test_step_slanted_and_period_four(cube):
    x = _pp(cube, [0.25, 0.5, 0.0], [1.0, 0.0, 1.0])
    y = bl.billiard_step(x, cube)
    assert cube.labels[y.face] == "x1"
    assert np.allclose(y.m, [1.0, 0.5, 0.75])
    assert np.allclose(y.theta, np.array([-1.0, 0.0, 1.0]) / SQRT2)
    z = x
    for _ in range(4):
        z = bl.billiard_step(z, cube)
    assert z.face == x.face
    assert np.abs(z.m - x.m).max() < 1e-12
    assert np.abs(z.theta - x.theta).max() < 1e-12


def test_step_refuses_singular(cube):
    with pytest.raises(bl.SingularInput):
        bl.billiard_step(_pp(cube, [0.5, 0.5, 0.0], [1.0, 1.0, 1.0]), cube)


def test_step_agrees_with_classify(cube):
    rng = np.random.default_rng(11)
    m, th, f = bl.random_phase_points(cube, 500, rng)
    for i in range(500):
        x = bl.PhasePoint(int(f[i]), m[i], th[i])
        ev = bl.classify_phase_point(x, cube)
        if ev is None:
            bl.billiard_step(x, cube)
        else:
            with pytest.raises(bl.SingularInput):
                bl.billiard_step(x, cube)


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

def test_orbit_bouncing(cube):
    rec = bl.orbit(_pp(cube, [0.5, 0.5, 0.0], [0, 0, 1.0]), 6, cube)
    assert rec.completed
    assert rec.word == ["z0", "z1", "z0", "z1", "z0", "z1"]
    assert rec.n_bounces == 6


def test_orbit_period_four_word(cube):
    rec = bl.orbit(_pp(cube, [0.25, 0.5, 0.0], [1.0, 0.0, 1.0]), 8, cube)
    assert rec.completed
    assert rec.word == ["z0", "x1", "z1", "x0"] * 2


def test_orbit_singular_at_start(cube):
    for n_max in (1, 3, 20):
        rec = bl.orbit(_pp(cube, [0.5, 0.5, 0.0], [1.0, 1.0, 1.0]), n_max, cube)
        assert not rec.completed
        assert rec.singularity.kind is bl.SingularityKind.EDGE_HIT
        assert rec.singularity.step == 0
        assert rec.word == ["z0"]


def test_orbit_casts_one_ray_per_recorded_bounce_but_the_last(cube, monkeypatch):
    # the start's ray is reused for the first bounce; the last point's
    # forward ray is never cast, except that n_max = 1 checks the start's
    calls = []
    first_hit = bl.first_hit

    def counting_first_hit(m, theta, P):
        calls.append(1)
        return first_hit(m, theta, P)

    monkeypatch.setattr(bl, "first_hit", counting_first_hit)
    x = _pp(cube, [0.3141, 0.2718, 0.0], [0.5772, 0.6931, 1.0])
    for n, expected in ((1, 1), (2, 1), (5, 4), (1000, 999)):
        calls.clear()
        rec = bl.orbit(x, n, cube)
        assert rec.completed and rec.n_bounces == n
        assert len(calls) == expected, n


def test_hit_and_phase_point_are_immutable(cube):
    x = _pp(cube, [0.3141, 0.2718, 0.0], [0.5772, 0.6931, 1.0])
    hit = bl.first_hit(x.m, x.theta, cube)
    for obj, name, value in ((x, "face", 1), (x, "theta", x.theta), (hit, "face", 0),
                             (hit, "edge_distance", 0.0)):
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
    assert hit.kind is pb.HitKind.FACE and hit.edge is None and hit.vertex is None


def test_orbit_consecutive_labels_differ(cube):
    rng = np.random.default_rng(12)
    m, th, f = bl.random_phase_points(cube, 100, rng)
    for i in range(100):
        rec = bl.orbit(bl.PhasePoint(int(f[i]), m[i], th[i]), 50, cube)
        for a, b in zip(rec.word, rec.word[1:]):
            assert a != b


def test_specular_conservation(cube):
    rng = np.random.default_rng(13)
    m, th, f = bl.random_phase_points(cube, 200, rng)
    for i in range(200):
        x = bl.PhasePoint(int(f[i]), m[i], th[i])
        rec = bl.orbit(x, 10, cube)
        for a, b in zip(rec.points, rec.points[1:]):
            n = cube.normals[b.face]
            before = a.theta
            after = b.theta
            assert np.abs((before - (before @ n) * n)
                          - (after - (after @ n) * n)).max() < 1e-10
            assert abs((before @ n) + (after @ n)) < 1e-10


def test_time_reversibility(cube):
    rng = np.random.default_rng(14)
    for _ in range(20):
        m, th, f = bl.random_phase_points(cube, 1, rng)
        x = bl.PhasePoint(int(f[0]), m[0], th[0])
        rec = bl.orbit(x, 101, cube)
        if not rec.completed:
            continue
        k = rec.n_bounces - 1
        last = rec.points[-1]
        # at the k-th point the stored direction is outgoing; the reversed
        # orbit leaves with the negated incoming one, i.e. the reflection
        back_theta = pb.reflect_direction(-last.theta, cube.faces[last.face])
        back = bl.PhasePoint(last.face, last.m, back_theta)
        rev = bl.orbit(back, k + 1, cube)
        assert rev.completed
        assert np.abs(rev.points[-1].m - x.m).max() < 1e-7


# ---------------------------------------------------------------------------
# discontinuity report
# ---------------------------------------------------------------------------

def test_report_for_singular_orbit(cube):
    rec = bl.orbit(_pp(cube, [0.5, 0.5, 0.0], [1.0, 1.0, 1.0]), 5, cube)
    lines = bl.discontinuity_report(rec, cube)
    assert len(lines) == 1
    (line,) = lines
    assert np.allclose(np.abs(line.direction), [0, 0, 1.0])
    assert np.allclose(line.point[:2], [1.0, 1.0])


def test_report_empty_for_regular_orbit(cube):
    rec = bl.orbit(_pp(cube, [0.5, 0.5, 0.0], [0, 0, 1.0]), 4, cube)
    with pytest.raises(bl.EmptyReport):
        bl.discontinuity_report(rec, cube)


def test_report_near_misses_with_radius(cube):
    rec = bl.orbit(_pp(cube, [0.5, 0.5, 0.0], [0, 0, 1.0]), 4, cube)
    lines = bl.discontinuity_report(rec, cube, radius=0.5)
    assert len(lines) >= 4  # every vertical cube edge is half a unit away


def test_report_unfolded_edge_after_bounces(cube):
    # hand trace: (0.5,0,0.25) + t(2,2,1)/3 bounces on x1 at (1,.5,.5), on y1
    # at (.5,1,.75), then meets x=0 and z=1 together at (0,.5,1): the x0/z1
    # edge.  Its endpoint (0,0,1) unfolds through y=1 then x=1 to (2,2,1).
    theta = np.array([1.0, 1.0, 0.5])
    theta /= np.linalg.norm(theta)
    x = bl.phase_point(cube, [0.5, 0.0, 0.25], theta, face="y0")
    rec = bl.orbit(x, 10, cube)
    assert not rec.completed
    assert rec.singularity.kind is bl.SingularityKind.EDGE_HIT
    assert rec.word == ["y0", "x1", "y1"]
    assert np.allclose(rec.singularity.point, [0.0, 0.5, 1.0])
    lines = bl.discontinuity_report(rec, cube)
    assert np.allclose(np.abs(lines[0].direction), [0, 1.0, 0])
    assert np.allclose(lines[0].point, [2.0, 2.0, 1.0])


def test_report_vertex_hit_gives_its_edges(cube):
    # aimed at (2,1,1), the image of the vertex (0,1,1) across x=1: the ray
    # bounces on x1 at (1,1/3,2/3) and then ends in that vertex
    m = np.array([0.5, 0.0, 0.5])
    rec = bl.orbit(_pp(cube, m, np.subtract([2.0, 1.0, 1.0], m)), 10, cube)
    ev = rec.singularity
    assert ev.kind is bl.SingularityKind.VERTEX_HIT and ev.step == 1
    assert rec.word == ["y0", "x1"]
    lines = bl.discontinuity_report(rec, cube)
    # the three edges through the vertex, unfolded through (2,1,1)
    assert len(lines) == 3
    assert sorted(np.argmax(np.abs(line.direction)) for line in lines) == [0, 1, 2]
    for line in lines:
        assert np.allclose(np.sort(np.abs(line.direction)), [0, 0, 1.0])
        assert point_line_distance([2.0, 1.0, 1.0], line.point, line.direction) < 1e-12


def test_report_of_start_on_an_edge_with_radius(cube):
    # the orbit ends at step 0, so its one segment has no length; it gives
    # the start's distance to each edge, without a floating-point warning
    x = bl.phase_point(cube, [0.5, 0.0, 0.0], [0.0, 0.6, 0.8], face="z0")
    rec = bl.orbit(x, 5, cube)
    assert rec.singularity.kind is bl.SingularityKind.EDGE_HIT and len(rec.points) == 1
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        near = bl.discontinuity_report(rec, cube, radius=0.55)
        far = bl.discontinuity_report(rec, cube, radius=1.05)
    # the edge under the start; the four edges 0.5 away that end at (0,0,0)
    # or (1,0,0) join it, and at 1.05 also (0,1,0)-(1,1,0) and (0,0,1)-(1,0,1)
    assert np.allclose(np.abs(near[0].direction), [1.0, 0, 0])
    assert np.allclose(near[0].point[1:], 0.0)
    assert len(near) == 5 and len(far) == 7


def _vertex_bound_orbits(rng, count):
    """Tetrahedron starts whose orbits end at a vertex after 100-500 bounces.

    Each is the time reversal of an orbit that leaves a point 1e-4 from a
    vertex (run under the default tolerances, which accept that start)."""
    T = regular_tetrahedron()
    starts = []
    while len(starts) < count:
        f = int(rng.integers(0, T.n_faces))
        poly = T.face_polygon(f)
        m = poly[0] + 1e-4 * unit(poly.mean(axis=0) - poly[0])
        t1, t2, n = T.frames[f]
        w = rng.uniform(0.2, 1.0)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        theta = np.sqrt(1 - w * w) * (np.cos(phi) * t1 + np.sin(phi) * t2) + w * n
        fwd = bl.orbit(bl.PhasePoint(f, m, theta), int(rng.integers(100, 500)), T)
        if fwd.completed:
            last = fwd.points[-1]
            back = pb.reflect_direction(-last.theta, T.faces[last.face])
            starts.append(bl.PhasePoint(last.face, last.m, back))
    return starts


def test_terminal_event_unfolds_by_its_step_isometry():
    # a wide plane tolerance ends long tetrahedron orbits at edges; vertex
    # hits are about 1000 times rarer, so those starts are engineered
    P = regular_tetrahedron(Tolerances(plane=1e-3))
    rng = np.random.default_rng(16)
    m, th, f = bl.random_phase_points(P, 40, rng)
    starts = [bl.PhasePoint(int(f[i]), m[i], th[i]) for i in range(40)]
    steps = {bl.SingularityKind.EDGE_HIT: [], bl.SingularityKind.VERTEX_HIT: []}
    for x in starts + _vertex_bound_orbits(rng, 20):
        rec = bl.orbit(x, 1000, P)
        ev = rec.singularity
        if ev is None or ev.kind not in steps:
            continue
        steps[ev.kind].append(ev.step)
        assert ev.step == rec.n_bounces - 1
        iso = cumulative_isometries(P, [p.face for p in rec.points])[ev.step]
        lines = bl.discontinuity_report(rec, P)
        # the edge hit, or every edge through the vertex hit, in edge order
        edges = [e for i, e in enumerate(P.edges) if i == ev.edge or ev.vertex in e.endpoints]
        assert len(lines) == len(edges) == (1 if ev.edge is not None else 3)
        for line, e in zip(lines, edges):
            assert np.array_equal(line.point, iso.apply(e.point))
            assert np.array_equal(line.direction, iso.apply_direction(e.direction))
            if ev.vertex is not None:
                v = iso.apply(P.vertices[ev.vertex])
                assert point_line_distance(v, line.point, line.direction) <= 1e-12 * (
                    1.0 + np.abs(v).max())
    assert all(max(s, default=0) >= 100 for s in steps.values())


def test_singular_event_needs_no_unfolding(cube, monkeypatch):
    # an edge- or vertex-ending orbit records its hit; only the report unfolds
    calls = []
    prefix = bl._prefix_isometries

    def counting_prefix(P, faces):
        calls.append(1)
        return prefix(P, faces)

    monkeypatch.setattr(bl, "_prefix_isometries", counting_prefix)
    m = np.array([0.5, 0.0, 0.5])
    edge = bl.orbit(_pp(cube, [0.5, 0.5, 0.0], [1.0, 1.0, 1.0]), 10, cube)
    vertex = bl.orbit(_pp(cube, m, np.subtract([2.0, 1.0, 1.0], m)), 10, cube)
    assert edge.singularity.kind is bl.SingularityKind.EDGE_HIT
    assert vertex.singularity.kind is bl.SingularityKind.VERTEX_HIT
    assert calls == []
    bl.discontinuity_report(vertex, cube)
    assert calls == [1]


# ---------------------------------------------------------------------------
# batch stepping
# ---------------------------------------------------------------------------

def test_batch_matches_scalar(cube):
    # skew normals too: the cube's axis-aligned ones round the same either way
    for P in (cube, regular_tetrahedron(), box(2.0, 1.0, 0.5)):
        rng = np.random.default_rng(15)
        m, th, f = bl.random_phase_points(P, 300, rng)
        words, lengths, flags = bl.run_word_batch(P, m, th, f, 12)
        for i in range(300):
            rec = bl.orbit(bl.PhasePoint(int(f[i]), m[i], th[i]), 12, P)
            scalar_word = [P.face_index(w) for w in rec.word]
            assert lengths[i] == len(scalar_word)
            assert list(words[i, :lengths[i]]) == scalar_word
            assert bool(flags[i]) == bool(rec.near_singular_steps)


def test_batch_matches_orbit_for_starts_near_edges():
    # starts on an edge of their face, or within `plane` of one, end at once
    # in orbit (an EDGE_HIT at step 0), and so in the batch; starts just
    # beyond `plane` are stepped
    tol = Tolerances(plane=1e-3, sing=1e-2)
    offsets = np.array([0.0, 0.5, 0.99, 1.01, 2.0, 20.0]) * tol.plane
    for P in (unit_cube(tol), regular_tetrahedron(tol), _rotated_box(tol)):
        rng = np.random.default_rng(8)
        m, f = [], []
        for e in P.edges:
            a, b = P.vertices[list(e.endpoints)]
            for g in e.faces:
                w = P.face_polygon(g).mean(axis=0) - a
                inward = unit(w - (w @ e.direction) * e.direction)
                for delta in offsets:
                    m.append(a + rng.uniform(0.2, 0.8) * (b - a) + delta * inward)
                    f.append(g)
        m, f = np.array(m), np.array(f)
        th = bl.sample_inward_directions(P, f, rng, w_lo=0.2)
        words, lengths, flags = bl.run_word_batch(P, m, th, f, 8)
        on_edge = offsets[np.arange(len(f)) % len(offsets)] <= tol.plane
        for i in range(len(f)):
            rec = bl.orbit(bl.PhasePoint(int(f[i]), m[i], th[i]), 8, P)
            ev = rec.singularity
            # the start's own edge event is placed at the start itself
            assert (ev is not None and np.array_equal(ev.point, m[i])) == on_edge[i]
            scalar_word = [P.face_index(w) for w in rec.word]
            assert lengths[i] == len(scalar_word)
            assert list(words[i, :lengths[i]]) == scalar_word
            assert bool(flags[i]) == bool(rec.near_singular_steps)
        assert (lengths[on_edge] == 1).all() and not flags[on_edge].any()
        assert (lengths[~on_edge] > 1).mean() > 0.5


def test_near_singular_flag_tolerance(cube):
    wide = cube.with_tolerances(Tolerances(sing=1e-2))
    x = bl.phase_point(wide, [0.5, 0.999, 0.0], [0, 0, 1.0])
    rec = bl.orbit(x, 2, wide)
    assert rec.completed and rec.near_singular_steps == [1]
    x = bl.phase_point(cube, [0.5, 0.999, 0.0], [0, 0, 1.0])
    assert bl.orbit(x, 2, cube).near_singular_steps == []
    # a bounce exactly `sing` from an edge: both stepping paths flag it
    x = bl.phase_point(cube, [1e-7, 0.5, 1.0], [0, 0, -1.0])
    _, _, flags = bl.run_word_batch(cube, x.m[None], x.theta[None], np.array([x.face]), 2)
    assert bool(flags[0]) and bl.orbit(x, 2, cube).near_singular_steps == [1]


def _reference_sample_one_face(P, f, count, rng):
    """The sampler as it was when it drew for one face at a time."""
    poly = P.face_polygon(f)
    v0 = poly[0]
    tri_a = poly[1:-1] - v0
    tri_b = poly[2:] - v0
    areas = 0.5 * np.linalg.norm(np.cross(tri_a, tri_b), axis=1)
    idx = rng.choice(len(areas), size=count, p=areas / areas.sum())
    r1 = np.sqrt(rng.random(count))
    r2 = rng.random(count)
    return v0 + (r1 * (1 - r2))[:, None] * tri_a[idx] + (r1 * r2)[:, None] * tri_b[idx]


def test_sampler_matches_one_face_loop(cube):
    rng = np.random.default_rng(24)
    for P in (cube, regular_tetrahedron(), _octahedron()):
        for seed in range(5):
            # shuffled rows, with some faces drawing no point at all
            present = rng.permutation(P.n_faces)[:P.n_faces - 1 - seed % 3]
            faces = rng.permutation(np.repeat(present, rng.integers(1, 30, present.size)))
            got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = bl.sample_points_in_face(P, faces, got_rng)
            ref = np.empty((len(faces), 3))
            for f in range(P.n_faces):
                rows = np.flatnonzero(faces == f)
                if rows.size:
                    ref[rows] = _reference_sample_one_face(P, f, rows.size, ref_rng)
            assert got.tobytes() == ref.tobytes()
            assert got_rng.random() == ref_rng.random()     # the same draws were made


def test_batch_padding(cube):
    m = np.array([[0.5, 0.5, 0.0]])
    th = np.array([[1.0, 1.0, 1.0]]) / SQRT3
    f = np.array([cube.face_index("z0")])
    words, lengths, flags = bl.run_word_batch(cube, m, th, f, 8)
    assert lengths[0] == 1
    assert np.all(words[0, 1:] == -1)


def _padded_edges(P):
    """Per-face edge start points, unit directions and lengths, padded to the
    most edges per face (pads far away), built from ``P.edges``."""
    per_face = [[k for k, e in enumerate(P.edges) if f in e.faces]
                for f in range(P.n_faces)]
    e_max = max(map(len, per_face))
    A = np.full((P.n_faces, e_max, 3), 1e30)
    U = np.zeros((P.n_faces, e_max, 3))
    L = np.zeros((P.n_faces, e_max))
    for f, ids in enumerate(per_face):
        for k, e in enumerate(ids):
            i, j = P.edges[e].endpoints
            seg = P.vertices[j] - P.vertices[i]
            L[f, k] = np.linalg.norm(seg)
            A[f, k], U[f, k] = P.vertices[i], seg / L[f, k]
    return A, U, L


def _reference_run_word_batch(P, m, theta, face, n_labels):
    """The clipped point-segment formulation of :func:`billiard.run_word_batch`."""
    tol = P.tol
    N = P.normals
    off = P.offsets
    A, U, L = _padded_edges(P)

    def edge_distance(q, f):
        # clipped distance to the nearest edge of face f, as orbit measures it
        w = q[:, None, :] - A[f]
        tt = np.clip(np.einsum("bej,bej->be", w, U[f]), 0.0, L[f])
        return np.linalg.norm(w - tt[..., None] * U[f], axis=2).min(axis=1)

    B = len(m)
    words = np.full((B, n_labels), -1, dtype=np.int16)
    lengths = np.zeros(B, dtype=np.int64)
    flags = np.zeros(B, dtype=bool)

    m = np.asarray(m, float).copy()
    theta = np.asarray(theta, float).copy()
    face = np.asarray(face).astype(np.int64)
    words[:, 0] = face
    lengths[:] = 1

    # tangent starts and starts on an edge of their face never advance
    good = np.einsum("bj,bj->b", theta, N[face]) > tol.angle
    good &= edge_distance(m, face) > tol.plane
    rows = np.flatnonzero(good)
    m, theta = m[rows], theta[rows]

    for k in range(1, n_labels):
        if rows.size == 0:
            break
        s = m @ N.T + off
        d = theta @ N.T
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(d < -tol.angle, s / -d, np.inf)
        t[t <= tol.step] = np.inf
        fstar = np.argmin(t, axis=1)
        tstar = np.take_along_axis(t, fstar[:, None], axis=1)[:, 0]
        ok = np.isfinite(tstar)
        q = m + tstar[:, None] * theta

        edist = edge_distance(q, fstar)

        keep = ok & (edist > tol.plane)
        flags[rows[keep & (edist <= tol.sing)]] = True
        rows = rows[keep]
        words[rows, k] = fstar[keep].astype(np.int16)
        lengths[rows] = k + 1

        q, theta, fstar = q[keep], theta[keep], fstar[keep]
        nvec = N[fstar]
        theta = theta - 2.0 * np.einsum("bj,bj->b", theta, nvec)[:, None] * nvec
        m = q
    return words, lengths, flags


def _octahedron(tol=None):
    # faces meeting at a vertex only, and parallel opposite faces;
    # validate orients each face
    vs = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    faces = [(f"o{x}{y}{z}", [x, y, z]) for x in (0, 1) for y in (2, 3) for z in (4, 5)]
    return validate(vs, faces, tol=tol)


def _rotated_box(tol=None):
    rng = np.random.default_rng(17)
    Q, R = np.linalg.qr(rng.normal(size=(3, 3)))
    Q = Q * np.sign(np.diag(R))
    B = box(2.0, 1.0, 0.5)
    faces = [(f.label, list(f.boundary)) for f in B.faces]
    return validate(B.vertices @ Q.T + [0.3, -1.0, 2.0], faces, tol=tol)


def _assert_batch_matches_reference(P, m, th, f, n_labels):
    got = bl.run_word_batch(P, m, th, f, n_labels)
    ref = _reference_run_word_batch(P, m, th, f, n_labels)
    for a, b in zip(got, ref):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    return got


@pytest.mark.parametrize("wide", [False, True], ids=["default-tol", "wide-tol"])
def test_batch_matches_reference_kernel(wide):
    tol = Tolerances(plane=1e-3, sing=1e-2) if wide else None
    solids = {
        "cube": unit_cube(tol), "tetrahedron": regular_tetrahedron(tol),
        "box": box(2.0, 1.0, 0.5, tol), "rotated-box": _rotated_box(tol),
        "octahedron": _octahedron(tol),
    }
    for name, P in solids.items():
        rng = np.random.default_rng(sorted(solids).index(name))
        m, th, f = bl.random_phase_points(P, 4000, rng)
        words, lengths, flags = _assert_batch_matches_reference(P, m, th, f, 12)
        if wide:
            assert flags.any() and (lengths < 12).any(), name
        else:
            assert (lengths == 12).all(), name


def test_batch_matches_reference_kernel_near_edges(cube):
    # from z0 toward x1 at in-face distance delta from the x1/y1 edge; the
    # reflected ray then meets y1 about delta from that edge again
    x1, z0 = cube.face_index("x1"), cube.face_index("z0")
    tol = cube.tol
    cases = {0.5 * tol.plane: (1, False), 2.0 * tol.plane: (3, True),
             0.5 * tol.sing: (3, True), 2.0 * tol.sing: (3, False)}
    m = np.full((len(cases) + 1, 3), [0.5, 0.5, 0.0])
    aims = [[1.0, 1.0 - delta, 0.5] for delta in cases] + [[1.0, 1.0, 1.0]]
    th = np.array([unit(np.subtract(a, m[0])) for a in aims])
    f = np.full(len(m), z0)
    words, lengths, flags = _assert_batch_matches_reference(cube, m, th, f, 3)
    for i, (length, flagged) in enumerate(cases.values()):
        assert (lengths[i], flags[i]) == (length, flagged)
        assert length == 1 or words[i, 1] == x1
    assert lengths[-1] == 1                              # into a vertex


@pytest.mark.parametrize("F", [4, 6, 14, 300])
def test_first_min_is_argmin(F):
    # exact ties, all-inf columns, and first minima at the last row, whose
    # index overflows a uint8 count for F = 300
    rng = np.random.default_rng(F)
    t = rng.integers(0, 3, size=(F, 3000)).astype(float)
    t[rng.random(t.shape) < 0.5] = np.inf
    t[:, :100] = np.inf
    t[:, 100:200] = np.inf
    t[-1, 100:200] = 1.0
    got = bl._first_min(t, t.min(axis=0))
    assert got.dtype == np.intp
    assert np.array_equal(got, np.argmin(t, axis=0))


def _prism(n, tol=None):
    """Right prism over a regular n-gon: n + 2 faces."""
    a = 2.0 * np.pi * np.arange(n) / n
    ring = np.stack([np.cos(a), np.sin(a)], axis=1)
    vs = np.vstack([np.column_stack([ring, np.zeros(n)]), np.column_stack([ring, np.ones(n)])])
    faces = [("bottom", list(range(n))), ("top", list(range(n, 2 * n)))]
    faces += [(f"s{i}", [i, (i + 1) % n, n + (i + 1) % n, n + i]) for i in range(n)]
    return validate(vs, faces, tol=tol)


def test_batch_matches_reference_kernel_with_300_faces():
    # hit-face ids above 255 need a wider count in the face choice
    P = _prism(298)
    m, th, f = bl.random_phase_points(P, 1500, np.random.default_rng(3))
    words, lengths, flags = _assert_batch_matches_reference(P, m, th, f, 8)
    assert words.max() > 255 and (lengths > 1).all()


def test_batch_tables_are_symmetric():
    # run_word_batch reads column f of these tables as row f
    for P in (unit_cube(), regular_tetrahedron(), _rotated_box(), _octahedron()):
        for a in (P.inv_sin, P.edge_mask):
            assert np.array_equal(a, a.T)


def _edge_aim(P, face):
    """A point 0.5 * plane inside face g from the midpoint of an edge g∩h
    that face ``face`` does not bound: a ray from ``face`` meets it at once."""
    e = next(e for e in P.edges if face not in e.faces)
    i, j = e.endpoints
    mid = 0.5 * (P.vertices[i] + P.vertices[j])
    w = P.face_polygon(e.faces[0]).mean(axis=0) - mid
    return mid + 0.5 * P.tol.plane * unit(w - (w @ e.direction) * e.direction)


def test_batch_matches_reference_across_blocks():
    # rows end and are flagged in every block; a tangent start and an
    # immediate edge hit sit on either side of the first block boundary
    tol = Tolerances(plane=1e-3, sing=1e-2)
    block = bl._BLOCK
    B = 2 * block + 37
    for seed, P in enumerate((unit_cube(tol), regular_tetrahedron(tol), _rotated_box(tol))):
        m, th, f = bl.random_phase_points(P, B, np.random.default_rng(seed))
        th[block - 1] = P.frames[f[block - 1], 0]
        th[block] = unit(_edge_aim(P, f[block]) - m[block])
        words, lengths, flags = _assert_batch_matches_reference(P, m, th, f, 30)
        assert lengths[block - 1] == 1 and lengths[block] == 1
        for lo, hi in ((0, block), (block, 2 * block), (2 * block, B)):
            assert flags[lo:hi].any() and (lengths[lo:hi] < 30).any()
        cuts = [0, 5000, block, block + 1, B]
        parts = [bl.run_word_batch(P, m[a:b], th[a:b], f[a:b], 30)
                 for a, b in zip(cuts, cuts[1:])]
        for got, part in zip((words, lengths, flags), zip(*parts)):
            assert np.array_equal(got, np.concatenate(part))
