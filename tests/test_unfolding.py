import numpy as np
import pytest

from polybilliard import billiard as bl
from polybilliard import symbolic as sy
from polybilliard import unfolding as uf
from polybilliard.geometry import (Plane, Tolerances, box, regular_tetrahedron, unit,
                                  unit_cube, validate)

SQRT2 = np.sqrt(2.0)


@pytest.fixture(scope="module")
def cube():
    return unit_cube()


def _orbit(cube, m, theta, n):
    theta = np.asarray(theta, float)
    x = bl.phase_point(cube, m, theta / np.linalg.norm(theta))
    rec = bl.orbit(x, n, cube)
    assert rec.completed
    return rec


# ---------------------------------------------------------------------------
# isometries
# ---------------------------------------------------------------------------

def test_reflection_isometry():
    pl = Plane(np.array([0.0, 0.0, 1.0]), -1.0)   # plane z = 1
    R = uf.Isometry.reflection(pl)
    assert np.allclose(R.apply([0.3, 0.4, 0.0]), [0.3, 0.4, 2.0])
    assert np.allclose(R.compose(R).linear, np.eye(3))
    assert np.allclose(R.compose(R).translation, 0.0)
    assert np.abs(R.linear @ R.linear.T - np.eye(3)).max() < 1e-15


def test_compose_order():
    Rz0 = uf.Isometry.reflection(Plane(np.array([0.0, 0.0, 1.0]), 0.0))
    Rz1 = uf.Isometry.reflection(Plane(np.array([0.0, 0.0, 1.0]), -1.0))
    # Rz1 o Rz0 maps z -> 2 + z: a pure translation by (0,0,2)
    G = Rz1.compose(Rz0)
    assert G.is_translation(1e-12)
    assert np.allclose(G.translation, [0, 0, 2.0])


# ---------------------------------------------------------------------------
# orbit unfolding
# ---------------------------------------------------------------------------

def test_unfold_bouncing_orbit(cube):
    rec = _orbit(cube, [0.5, 0.5, 0.0], [0, 0, 1.0], 6)
    track = uf.unfold_orbit(rec, cube)
    expect = np.array([[0.5, 0.5, float(k)] for k in range(6)])
    assert np.abs(track.points - expect).max() < 1e-12
    assert track.residual < 1e-12


def test_unfold_period_four(cube):
    rec = _orbit(cube, [0.25, 0.5, 0.0], [1.0, 0, 1.0], 8)
    track = uf.unfold_orbit(rec, cube)
    theta = np.array([1.0, 0, 1.0]) / SQRT2
    lam = (track.points - track.points[0]) @ theta
    recon = track.points[0] + lam[:, None] * theta
    assert np.abs(track.points - recon).max() < 1e-12
    assert np.allclose(track.points[2], [1.25, 0.5, 1.0])
    assert np.allclose(track.points[-1], [4.0, 0.5, 3.75])


def test_unfold_single_bounce_mirror(cube):
    # one reflection: the point after the bounce unfolds to its mirror image
    rec = _orbit(cube, [0.25, 0.5, 0.0], [1.0, 0, 1.0], 3)
    track = uf.unfold_orbit(rec, cube)
    folded_third = rec.points[2].m
    mirrored = folded_third.copy()
    mirrored[0] = 2.0 - mirrored[0]    # reflect across x = 1
    assert np.allclose(track.points[2], mirrored)
    assert np.allclose(track.points[1], rec.points[1].m)


def test_unfolded_faces_contain_unfolded_points(cube):
    for P in (cube, regular_tetrahedron()):
        rng = np.random.default_rng(5)
        done = 0
        for _ in range(10):
            m, th, f = bl.random_phase_points(P, 1, rng)
            rec = bl.orbit(bl.PhasePoint(int(f[0]), m[0], th[0]), 40, P)
            if not rec.completed:
                continue
            track = uf.unfold_orbit(rec, P)
            for k, (pt, poly) in enumerate(zip(track.points, track.face_polygons)):
                iso_poly = track.isometries[k].apply(P.face_polygon(rec.points[k].face))
                assert np.abs(poly - iso_poly).max() <= 1e-12
                n = np.cross(poly[1] - poly[0], poly[2] - poly[0])
                n /= np.linalg.norm(n)
                assert abs((pt - poly[0]) @ n) < 1e-9
            done += 1
        assert done >= 5


def test_unfold_colinearity_long(cube):
    rng = np.random.default_rng(6)
    done = 0
    while done < 20:
        m, th, f = bl.random_phase_points(cube, 1, rng)
        rec = bl.orbit(bl.PhasePoint(int(f[0]), m[0], th[0]), 200, cube)
        if not rec.completed or rec.near_singular_steps:
            continue
        track = uf.unfold_orbit(rec, cube)
        assert track.relative_residual < 1e-9
        done += 1


def test_no_reflection_built_after_construction(cube, monkeypatch):
    calls = []
    reflection = uf.Isometry.reflection

    def counting_reflection(plane):
        calls.append(1)
        return reflection(plane)

    monkeypatch.setattr(uf.Isometry, "reflection", staticmethod(counting_reflection))
    # step-0 edge events unfold by the identity: a ray into an edge, a start on one
    for m, theta in (([0.5, 0.5, 0.0], [1.0, 1.0, 1.0]), ([0.5, 0.0, 0.0], [0.0, 1.0, 1.0])):
        theta = np.array(theta) / np.linalg.norm(theta)
        rec = bl.orbit(bl.PhasePoint(cube.face_index("z0"), np.array(m), theta), 1, cube)
        ev = rec.singularity
        assert ev.kind is bl.SingularityKind.EDGE_HIT and ev.step == 0
        e = cube.edges[ev.edge]
        (line,) = bl.discontinuity_report(rec, cube)
        assert np.array_equal(line.point, e.point)
        assert np.array_equal(line.direction, e.direction)
    rec = _orbit(cube, [0.3141, 0.2718, 0.0], [0.5772, 0.6931, 1.0], 1000)
    uf.unfold_orbit(rec, cube)
    uf.generate_group(cube, bound=100)
    beam = sy.make_beam(cube, "z0", rec.points[0].theta)
    for label in rec.word[1:20]:
        beam = sy.propagate_beam(beam, label, cube)
    assert len(beam.isometries) == 20 and not beam.is_empty
    assert len(calls) == 0


def _reference_frame(n):
    """The face frame as built per call before the tables: e_x as the
    helper unless |n_0| >= 0.9, cross, normalise, cross."""
    a = np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    t1 = unit(np.cross(n, a))
    return np.vstack([t1, np.cross(n, t1), n])


@pytest.mark.parametrize("name", ["cube", "tetra", "rotated-box"])
def test_face_tables_match_per_face_builds(name):
    P = _moved(box(2.0, 1.0, 0.5), 5) if name == "rotated-box" else (
        unit_cube() if name == "cube" else regular_tetrahedron())
    for f, face in enumerate(P.faces):
        R = uf.Isometry.reflection(face.plane)
        assert P.reflection_linear[f].tobytes() == R.linear.tobytes()
        assert P.reflection_translation[f].tobytes() == R.translation.tobytes()
        assert P.frames[f].tobytes() == _reference_frame(face.plane.normal).tobytes()


# ---------------------------------------------------------------------------
# reflection group closure
# ---------------------------------------------------------------------------

def test_cube_group_order_eight(cube):
    closure = uf.generate_group(cube, bound=100)
    assert closure.closed
    assert closure.order == 8
    # exactly the diagonal sign matrices
    for M in closure.elements:
        assert np.allclose(M, np.diag(np.diag(M)), atol=1e-12)
        assert np.allclose(np.abs(np.diag(M)), 1.0)
    signs = {tuple(int(x) for x in np.sign(np.diag(M))) for M in closure.elements}
    assert len(signs) == 8


def test_box_group_same_as_cube():
    closure = uf.generate_group(box(2.0, 1.0, 0.5), bound=100)
    assert closure.closed and closure.order == 8


def test_tetrahedron_group_not_closed():
    closure = uf.generate_group(regular_tetrahedron(), bound=1000)
    assert not closure.closed
    assert closure.order is None
    assert len(closure.elements) > 1000


def test_closure_contains_identity_and_inverses(cube):
    closure = uf.generate_group(cube, bound=100)
    assert closure.contains(np.eye(3))
    for M in closure.elements:
        assert closure.contains(M.T)   # orthogonal inverse


def test_closure_closed_under_generators(cube):
    closure = uf.generate_group(cube, bound=100)
    gens = {tuple(np.round(np.eye(3) - 2 * np.outer(f.plane.normal, f.plane.normal), 9).ravel())
            for f in cube.faces}
    for M in closure.elements:
        for gt in gens:
            G = np.array(gt).reshape(3, 3)
            assert closure.contains(G @ M)


# ---------------------------------------------------------------------------
# hashed closure against the quadratic reference
# ---------------------------------------------------------------------------

def _reference_generate_group(P, bound):
    """The quadratic closure: each candidate is compared with every stored
    element, and the stack is re-concatenated per element added."""
    gens = []
    for f in P.faces:
        R = uf.Isometry.reflection(f.plane).linear
        if not any(np.abs(R - g).max() <= 1e-8 for g in gens):
            gens.append(R)
    elements = [np.eye(3)]
    stack = np.array(elements)
    depth = [0]
    frontier = [0]
    while frontier:
        new_frontier = []
        for i in frontier:
            for g in gens:
                cand = g @ elements[i]
                d = depth[i] + 1
                if d % 64 == 0:
                    cand = uf.reorthogonalize(cand)
                if np.abs(stack - cand).max(axis=(1, 2)).min() <= 1e-8:
                    continue
                elements.append(cand)
                depth.append(d)
                new_frontier.append(len(elements) - 1)
                stack = np.concatenate([stack, cand[None]], axis=0)
                if len(elements) > bound:
                    return stack, False
        frontier = new_frontier
    return stack, True


def _moved(P, seed):
    rng = np.random.default_rng(seed)
    Q, R = np.linalg.qr(rng.normal(size=(3, 3)))
    Q = Q * np.sign(np.diag(R))
    faces = [(f.label, list(f.boundary)) for f in P.faces]
    return validate(P.vertices @ Q.T + rng.normal(size=3), faces)


def _prism(triangle):
    base = np.c_[np.asarray(triangle, float), np.zeros(3)]
    faces = [("b", [0, 1, 2]), ("t", [3, 4, 5]),
             ("s0", [0, 1, 4, 3]), ("s1", [1, 2, 5, 4]), ("s2", [2, 0, 3, 5])]
    return validate(np.vstack([base, base + [0.0, 0.0, 1.0]]), faces)


_REFERENCE_SOLIDS = {
    "cube": (unit_cube, None),
    "box": (lambda: box(2.0, 1.0, 0.5), None),
    "tetra": (regular_tetrahedron, None),
    # right prisms: entries 0, +-1/2 and +-1 sit on bucket boundaries, and
    # rounded products land a hair to either side of them
    "equilateral-prism": (lambda: _prism([[0, 0], [1, 0], [0.5, np.sqrt(3.0) / 2]]), 12),
    "isosceles-prism": (lambda: _prism([[0, 0], [1, 0], [0, 1]]), 16),
}


@pytest.mark.parametrize("moved", [False, True], ids=["plain", "rotated"])
@pytest.mark.parametrize("name", list(_REFERENCE_SOLIDS))
def test_closure_matches_quadratic_reference(name, moved):
    build, order = _REFERENCE_SOLIDS[name]
    P = _moved(build(), 3) if moved else build()
    closure = uf.generate_group(P, bound=3000)
    ref, closed = _reference_generate_group(P, 3000)
    assert closure.closed == closed
    assert closure.elements.shape == ref.shape
    assert closure.elements.tobytes() == ref.tobytes()     # same values, same order
    if order is not None:
        assert closure.order == order


def test_contains_across_bucket_boundary(cube):
    h = uf._BUCKET
    # 0 and 1 are bucket boundaries: the stored entries sit just below them,
    # the query 8e-9 away just above, so all nine entries change bucket
    stored = np.eye(3) - 4e-9
    closure = uf.GroupClosure(stored[None], True)
    query = np.eye(3) + 4e-9
    assert np.all(np.floor(query / h) != np.floor(stored / h))
    assert closure.contains(query)
    assert not closure.contains(np.eye(3) + 7e-9)
    closure = uf.generate_group(cube, bound=100)
    for M in closure.elements:
        assert closure.contains(M - 5e-9)
        assert not closure.contains(M - 2e-8)


# ---------------------------------------------------------------------------
# prefix-product unfolding against the sequential reference
# ---------------------------------------------------------------------------

def _reference_cumulative_isometries(P, faces):
    """The sequential kernel: one ``compose`` per bounce, the crossed faces'
    reflections built once."""
    reflections = {f: uf.Isometry.reflection(P.faces[f].plane) for f in set(faces[1:])}
    isos = [uf.Isometry.identity()]
    for f in faces[1:]:
        isos.append(isos[-1].compose(reflections[f]))
    return isos


def _long_orbits(P, seed, count=4, n=1000):
    rng = np.random.default_rng(seed)
    recs = []
    while len(recs) < count:
        m, th, f = bl.random_phase_points(P, 1, rng)
        rec = bl.orbit(bl.PhasePoint(int(f[0]), m[0], th[0]), n, P)
        if rec.completed:
            recs.append(rec)
    return recs


_SCAN_SOLIDS = {
    "cube": unit_cube,
    "box": lambda: box(2.0, 1.0, 0.5),
    "tetra": regular_tetrahedron,
    "rotated-box": lambda: _moved(box(2.0, 1.0, 0.5), 3),
}


@pytest.mark.parametrize("name", list(_SCAN_SOLIDS))
def test_prefix_scan_matches_sequential_reference(name):
    P = _SCAN_SOLIDS[name]()
    for rec in _long_orbits(P, 31):
        faces = [p.face for p in rec.points]
        lin, trans = uf._prefix_isometries(P, faces)
        ref = _reference_cumulative_isometries(P, faces)
        ref_lin = np.array([iso.linear for iso in ref])
        ref_trans = np.array([iso.translation for iso in ref])
        assert lin.shape == (1000, 3, 3) and trans.shape == (1000, 3)
        if name in ("cube", "box"):
            # entries 0, +-1 and sums of doubled offsets: every product is exact
            assert lin.tobytes() == ref_lin.tobytes()
            assert trans.tobytes() == ref_trans.tobytes()
        else:
            assert np.all(np.abs(lin - ref_lin) <= 1e-13 * (1.0 + np.abs(ref_lin)))
            # a translation component near 0 beside others of size ~700 keeps
            # an absolute rounding error of the others' size in either kernel,
            # so translations are compared on the scale of their largest entry
            scale = 1.0 + np.abs(ref_trans).max(axis=1, keepdims=True)
            assert np.all(np.abs(trans - ref_trans) <= 1e-13 * scale)
        track = uf.unfold_orbit(rec, P)
        assert track.relative_residual < 1e-9
        ref_pts = np.array([iso.apply(p.m) for iso, p in zip(ref, rec.points)])
        assert np.all(np.abs(track.points - ref_pts)
                      <= 1e-13 * (1.0 + np.abs(ref_pts).max(axis=1, keepdims=True)))


def test_terminal_event_within_rounding_of_sequential_reference():
    # reports take their isometry from the scan, so on solids whose products
    # round they differ from the sequential product in the last bits only
    P = regular_tetrahedron(Tolerances(plane=1e-3))
    rng = np.random.default_rng(16)
    m, th, f = bl.random_phase_points(P, 40, rng)
    late = 0
    for i in range(40):
        rec = bl.orbit(bl.PhasePoint(int(f[i]), m[i], th[i]), 1000, P)
        ev = rec.singularity
        if ev is None or ev.kind is not bl.SingularityKind.EDGE_HIT:
            continue
        late += ev.step >= 100
        iso = _reference_cumulative_isometries(P, [p.face for p in rec.points])[ev.step]
        e, line = P.edges[ev.edge], bl.discontinuity_report(rec, P)[0]
        for got, ref in ((line.point, iso.apply(e.point)),
                         (line.direction, iso.apply_direction(e.direction))):
            assert np.abs(got - ref).max() <= 1e-13 * (1.0 + np.abs(ref).max())
    assert late > 0


def test_cumulative_isometries_short_itineraries(cube):
    assert len(uf.cumulative_isometries(cube, [4])) == 1
    (iso,) = uf.cumulative_isometries(cube, [4])
    assert np.array_equal(iso.linear, np.eye(3)) and np.array_equal(iso.translation, np.zeros(3))
    for faces in ([4, 5], [4, 1, 0], [0, 1, 0, 1, 2, 3, 4, 5, 4]):
        got = uf.cumulative_isometries(cube, faces)
        ref = _reference_cumulative_isometries(cube, faces)
        for a, b in zip(got, ref):
            assert a.linear.tobytes() == b.linear.tobytes()
            assert a.translation.tobytes() == b.translation.tobytes()


def test_track_properties_are_lazy_and_consistent(cube):
    rec = _orbit(cube, [0.3141, 0.2718, 0.0], [0.5772, 0.6931, 1.0], 50)
    track = uf.unfold_orbit(rec, cube)
    assert "isometries" not in vars(track) and "face_polygons" not in vars(track)
    for k, iso in enumerate(track.isometries):
        assert np.array_equal(iso.linear, track.linear[k])
        assert np.array_equal(iso.translation, track.translation[k])
    assert track.isometries is track.isometries
    assert len(track.face_polygons) == rec.n_bounces
    # the isometries are views into the track's arrays, which reject writes
    for a in (track.linear, track.isometries[3].translation,
              uf.cumulative_isometries(cube, [4, 1, 0])[2].linear):
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_orbit_and_unfold_compose_no_isometry(monkeypatch):
    calls = []
    compose = uf.Isometry.compose

    def counting_compose(self, other):
        calls.append(1)
        return compose(self, other)

    monkeypatch.setattr(uf.Isometry, "compose", counting_compose)
    for P in (unit_cube(), regular_tetrahedron()):
        (rec,) = _long_orbits(P, 32, count=1)
        track = uf.unfold_orbit(rec, P)
        assert rec.n_bounces == 1000 and track.relative_residual < 1e-9
    # an orbit that ends on an edge after some bounces unfolds its event too
    theta = np.array([1.0, 1.0, 0.5]) / 1.5
    cube = unit_cube()
    rec = bl.orbit(bl.phase_point(cube, [0.5, 0.0, 0.25], theta, face="y0"), 10, cube)
    assert rec.singularity.kind is bl.SingularityKind.EDGE_HIT and rec.singularity.step == 2
    bl.discontinuity_report(rec, cube, radius=0.1)
    assert calls == []
