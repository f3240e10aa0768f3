import numpy as np
import pytest

from polybilliard import billiard as bl
from polybilliard import symbolic as sy
from polybilliard import unfolding as uf
from polybilliard.geometry import (PreconditionFailed, Tolerances, box, point_line_distance,
                                  regular_tetrahedron, unit, unit_cube, validate)

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


def _reflection(n, c):
    """The reflection across {x : <n, x> + c = 0}, n a unit normal, as its
    linear part and translation: x -> x - 2 (<n, x> + c) n."""
    n = np.asarray(n, float)
    return np.eye(3) - 2.0 * np.outer(n, n), -2.0 * c * n


# ---------------------------------------------------------------------------
# isometries
# ---------------------------------------------------------------------------

def test_reflection_isometry():
    R, r = _reflection(np.array([0.0, 0.0, 1.0]), -1.0)   # plane z = 1
    assert np.allclose(np.array([0.3, 0.4, 0.0]) @ R.T + r, [0.3, 0.4, 2.0])
    assert np.allclose(R @ R, np.eye(3))
    assert np.allclose(R @ r + r, 0.0)
    assert np.abs(R @ R.T - np.eye(3)).max() < 1e-15


def test_compose_order(cube):
    # entry 2 is Rz1 o Rz0, which maps z -> 2 + z: a pure translation by (0,0,2)
    faces = [cube.face_index(label) for label in ("x0", "z1", "z0")]
    lin, trans = uf.cumulative_isometries(cube, faces)
    assert np.abs(lin[2] - np.eye(3)).max() <= 1e-12
    assert np.allclose(trans[2], [0, 0, 2.0])


# ---------------------------------------------------------------------------
# orbit unfolding
# ---------------------------------------------------------------------------

def test_unfold_refuses_an_empty_record(cube):
    empty = bl.OrbitRecord(np.empty(0, dtype=int), np.empty((0, 3)), np.empty((0, 3)), [])
    with pytest.raises(PreconditionFailed, match="no bounces"):
        uf.unfold_orbit(empty, cube)


@pytest.mark.parametrize("faces, message", [
    ([], "no faces"), ([0, -1], "face id -1 out of range 0..5"),
    ([0, 6], "face id 6 out of range 0..5"), ([0.0, 1.0], "integer array")])
def test_cumulative_isometries_refuses_bad_itineraries(cube, faces, message):
    # -1 used to act as face z1, and 6 and [] leaked numpy's IndexError
    with pytest.raises(PreconditionFailed, match=message):
        uf.cumulative_isometries(cube, faces)
    lin, trans = uf.cumulative_isometries(cube, np.array([4, 5], dtype=np.int8))
    assert np.allclose(trans[1], [0, 0, 2.0])


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
    folded_third = rec.m[2]
    mirrored = folded_third.copy()
    mirrored[0] = 2.0 - mirrored[0]    # reflect across x = 1
    assert np.allclose(track.points[2], mirrored)
    assert np.allclose(track.points[1], rec.m[1])


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
            for k, pt in enumerate(track.points):
                poly = P.face_polygon(rec.faces[k]) @ track.linear[k].T + track.translation[k]
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


def test_no_reflection_built_after_construction(cube):
    # step-0 edge events unfold by the identity: a ray into an edge, a start on one
    for m, theta in (([0.5, 0.5, 0.0], [1.0, 1.0, 1.0]), ([0.5, 0.0, 0.0], [0.0, 1.0, 1.0])):
        theta = np.array(theta) / np.linalg.norm(theta)
        rec = bl.orbit(bl.PhasePoint(cube.face_index("z0"), np.array(m), theta), 1, cube)
        ev = rec.singularity
        assert ev.kind is bl.SingularityKind.EDGE_HIT and ev.step == 0
        lin, trans = uf.cumulative_isometries(cube, rec.faces)
        a, b = cube.vertices[cube.edge_endpoints[ev.edge]]
        assert np.array_equal(a @ lin[0].T + trans[0], a)
        assert np.array_equal(lin[0] @ unit(b - a), unit(b - a))
    rec = _orbit(cube, [0.3141, 0.2718, 0.0], [0.5772, 0.6931, 1.0], 1000)
    uf.unfold_orbit(rec, cube)
    uf.generate_group(cube, bound=100)
    beam = sy.make_beam(cube, "z0", rec.theta[0])
    for label in rec.word[1:20]:
        beam = sy.propagate_beam(beam, label, cube)
    lin, trans = uf.cumulative_isometries(cube, [cube.face_index(lab) for lab in beam.word])
    assert len(lin) == len(trans) == 20 and not beam.is_empty


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
    for f, (n, c) in enumerate(zip(P.normals, P.offsets)):
        R, r = _reflection(n, c)
        assert P.reflection_linear[f].tobytes() == R.tobytes()
        assert P.reflection_translation[f].tobytes() == r.tobytes()
        assert P.frames[f].tobytes() == _reference_frame(n).tobytes()


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


@pytest.mark.parametrize("bound, message", [
    (2.5, "bound must be an integer, got 2.5"), (True, "bound must be an integer, got True"),
    ("5", "bound must be an integer, got '5'"), (-1, "bound must be >= 1")])
def test_group_bound_must_be_a_count(cube, bound, message):
    # 2.5 used to run, and True to close nothing but report NOT_CLOSED
    with pytest.raises(PreconditionFailed, match=f"^{message}$"):
        uf.generate_group(cube, bound=bound)


def test_group_bound_reads_numpy_integers(cube):
    assert uf.generate_group(cube, bound=np.int64(100)).order == 8
    assert not uf.generate_group(regular_tetrahedron(), bound=np.int32(50)).closed


def test_deep_closure_stays_orthogonal():
    # the base angles arctan(sqrt 2) and arctan(1/sqrt 2) are no rational
    # multiples of pi: the group is infinite and grows by 8 elements a BFS
    # level, so 10 000 elements lie about 1250 levels deep.  Nothing snaps
    # the products back onto O(3); rounding alone moves them (2.1e-14 measured)
    closure = uf.generate_group(_sqrt2_prism(), bound=10000)
    assert closure.closed is False
    E = closure.elements
    assert len(E) == 10001
    assert np.abs(np.einsum("kji,kjl->kil", E, E) - np.eye(3)).max() <= 1e-12


def test_closure_contains_identity_and_inverses(cube):
    closure = uf.generate_group(cube, bound=100)
    assert closure.contains(np.eye(3))
    for M in closure.elements:
        assert closure.contains(M.T)   # orthogonal inverse


def test_closure_closed_under_generators(cube):
    closure = uf.generate_group(cube, bound=100)
    gens = {tuple(np.round(np.eye(3) - 2 * np.outer(n, n), 9).ravel()) for n in cube.normals}
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
    for n, c in zip(P.normals, P.offsets):
        R = _reflection(n, c)[0]
        if not any(np.abs(R - g).max() <= 1e-8 for g in gens):
            gens.append(R)
    elements = [np.eye(3)]
    stack = np.array(elements)
    frontier = [0]
    while frontier:
        new_frontier = []
        for i in frontier:
            for g in gens:
                cand = g @ elements[i]
                if np.abs(stack - cand).max(axis=(1, 2)).min() <= 1e-8:
                    continue
                elements.append(cand)
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
    faces = [(label, list(idx)) for label, idx in zip(P.labels, P.boundaries)]
    return validate(P.vertices @ Q.T + rng.normal(size=3), faces)


def _prism(triangle):
    base = np.c_[np.asarray(triangle, float), np.zeros(3)]
    faces = [("b", [0, 1, 2]), ("t", [3, 4, 5]),
             ("s0", [0, 1, 4, 3]), ("s1", [1, 2, 5, 4]), ("s2", [2, 0, 3, 5])]
    return validate(np.vstack([base, base + [0.0, 0.0, 1.0]]), faces)


def _sqrt2_prism():
    return _prism([[0, 0], [1, 0], [0, np.sqrt(2.0)]])


_REFERENCE_SOLIDS = {
    "cube": (unit_cube, None, 3000),
    "box": (lambda: box(2.0, 1.0, 0.5), None, 3000),
    "tetra": (regular_tetrahedron, None, 3000),
    # right prisms: rounded products land a hair to either side of the
    # entries 0, +-1/2 and +-1
    "equilateral-prism": (lambda: _prism([[0, 0], [1, 0], [0.5, np.sqrt(3.0) / 2]]), 12, 3000),
    "isosceles-prism": (lambda: _prism([[0, 0], [1, 0], [0, 1]]), 16, 3000),
    # an infinite group that grows by 8 elements a level: the bound is about
    # 125 levels deep
    "sqrt2-prism": (_sqrt2_prism, None, 1000),
}


@pytest.mark.parametrize("moved", [False, True], ids=["plain", "rotated"])
@pytest.mark.parametrize("name", list(_REFERENCE_SOLIDS))
def test_closure_matches_quadratic_reference(name, moved):
    build, order, bound = _REFERENCE_SOLIDS[name]
    P = _moved(build(), 3) if moved else build()
    closure = uf.generate_group(P, bound=bound)
    ref, closed = _reference_generate_group(P, bound)
    assert closure.closed == closed
    assert closure.elements.shape == ref.shape
    assert closure.elements.tobytes() == ref.tobytes()     # same values, same order
    if order is not None:
        assert closure.order == order


def _key(M):
    return np.floor(uf._project(M.reshape(1, 9))[0] / uf._BUCKET)


def _onto_key_boundary(M, offset=0.0):
    """The (K, 3, 3) ``M`` moved along the all-ones matrix until each
    projection lies ``offset`` from the nearest key boundary."""
    x = uf._project(M.reshape(-1, 9))
    target = uf._BUCKET * np.round(x / uf._BUCKET) + offset
    return M + ((target - x) / uf._WEIGHTS.sum())[:, None, None]


def test_contains_across_bucket_boundary(cube):
    # the stored matrix projects just below a key boundary and the query,
    # 8e-9 away in every entry, just above it, or the other way round
    tetra = uf.generate_group(regular_tetrahedron(), bound=50).elements
    for edge in _onto_key_boundary(np.stack([np.eye(3), tetra[40]])):
        for side in (1.0, -1.0):
            stored = edge - side * 4e-9
            closure = uf.GroupClosure(stored[None], True)
            query = edge + side * 4e-9
            assert _key(query) == _key(stored) + side
            assert closure.contains(query)
            assert not closure.contains(edge + side * 7e-9)
            # the store's own lookup across the boundary: absorb keeps a
            # matrix 11e-9 from the stored one, and not one 8e-9 from it
            buckets = uf._MatrixBuckets()
            for M, count in ((stored, 1), (query, 1), (edge + side * 7e-9, 2)):
                assert buckets.absorb(M[None], np.inf)
                assert buckets.count == count
    assert uf.GroupClosure(np.empty((0, 3, 3)), True).contains(np.eye(3)) is False
    closure = uf.generate_group(cube, bound=100)
    for M in closure.elements:
        assert closure.contains(M - 5e-9)
        assert not closure.contains(M - 2e-8)


def test_contains_matches_linear_scan():
    # stored: group elements, copies scaled past +-4 and copies moved by 8 in
    # one entry, whose entries past +-4 are clipped before projecting;
    # queries: each stored matrix with one or two entries moved by
    # +-(0.5..2)e-8, around the tolerance
    rng = np.random.default_rng(7)
    E = uf.generate_group(regular_tetrahedron(), bound=200).elements
    moved = E[:40].copy()
    moved[:, 1, 2] += 8.0
    stored = np.concatenate([E, 5.0 * E[:40], 37.0 * E[40:80], moved])
    closure = uf.GroupClosure(stored, False)
    answers = []
    for M in np.concatenate([stored, stored[rng.permutation(len(stored))[:100]]]):
        Q = M.copy()
        for i in rng.choice(9, size=rng.integers(1, 3), replace=False):
            Q.flat[i] += rng.uniform(0.5e-8, 2e-8) * rng.choice([-1.0, 1.0])
        expect = bool(np.abs(stored - Q).max(axis=(1, 2)).min() <= 1e-8)
        assert closure.contains(Q) == expect
        answers.append(expect)
    assert 50 < sum(answers) < len(answers) - 50


def test_absorb_matches_sequential_scan_near_bucket_boundaries():
    # projections within _REACH of a key boundary, and copies with one or two
    # entries moved by up to 2e-8: the closure's batch store keeps exactly
    # the matrices a one-by-one linear scan keeps, in the same order
    rng = np.random.default_rng(8)
    base = rng.uniform(-1.0, 1.0, (60, 3, 3))
    base = _onto_key_boundary(base, rng.uniform(-uf._REACH, uf._REACH, 60))
    X = np.repeat(base, 4, axis=0)
    for k in range(240):
        for i in rng.choice(9, size=rng.integers(1, 3) if k % 4 else 0, replace=False):
            X[k].flat[i] += rng.uniform(-2e-8, 2e-8)
    X = X[rng.permutation(240)]
    kept = []
    for M in X:
        if not any(np.abs(K - M).max() <= 1e-8 for K in kept):
            kept.append(M)
    assert 70 < len(kept) < 200
    for split in (240, 7):          # one batch, and batches that store across calls
        buckets = uf._MatrixBuckets()
        for s in range(0, 240, split):
            assert buckets.absorb(X[s:s + split], np.inf)
        assert buckets.elements.tobytes() == np.array(kept).tobytes()


def test_contains_refuses_non_finite_matrices(cube):
    closure = uf.generate_group(cube, bound=100)
    for bad in (np.nan, np.inf, -np.inf):
        M = np.eye(3)
        M[1, 2] = bad
        assert closure.contains(M) is False
    # huge finite entries hash without an overflow warning and match nothing
    assert closure.contains(np.full((3, 3), 1e308)) is False
    assert closure.contains(np.diag([-1.0, 1.0, 1.0])) is True


def test_contains_refuses_other_shapes(cube):
    closure = uf.generate_group(cube, bound=100)
    for bad in (np.eye(3).ravel(), np.eye(3)[:, :, None], np.eye(2), np.eye(3)[None],
                [["a"] * 3] * 3):
        with pytest.raises(PreconditionFailed, match="3x3"):
            closure.contains(bad)
    assert closure.contains(np.eye(3).tolist()) is True


# ---------------------------------------------------------------------------
# prefix-product unfolding against the sequential reference
# ---------------------------------------------------------------------------

def _reference_cumulative_isometries(P, faces):
    """The sequential kernel: one composition per bounce, the crossed faces'
    reflections built once; linear parts (L, 3, 3) and translations (L, 3)."""
    reflections = {f: _reflection(P.normals[f], P.offsets[f]) for f in set(faces[1:])}
    isos = [(np.eye(3), np.zeros(3))]
    for f in faces[1:]:
        (A, a), (R, r) = isos[-1], reflections[f]
        isos.append((A @ R, A @ r + a))
    return np.array([A for A, _ in isos]), np.array([a for _, a in isos])


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
        faces = rec.faces.tolist()
        lin, trans = uf.cumulative_isometries(P, faces)
        ref_lin, ref_trans = _reference_cumulative_isometries(P, faces)
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
        ref_pts = np.array([m @ A.T + a for A, a, m in zip(ref_lin, ref_trans, rec.m)])
        assert np.all(np.abs(track.points - ref_pts)
                      <= 1e-13 * (1.0 + np.abs(ref_pts).max(axis=1, keepdims=True)))


def test_terminal_event_within_rounding_of_sequential_reference():
    # the scan's isometry of the event's step moves the hit edge as the
    # sequential product does, up to its last bits on solids whose products
    # round
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
        ref_lin, ref_trans = _reference_cumulative_isometries(P, rec.faces.tolist())
        lin, trans = uf.cumulative_isometries(P, rec.faces)
        A, t = ref_lin[ev.step], ref_trans[ev.step]
        B, u = lin[ev.step], trans[ev.step]
        a, b = P.vertices[P.edge_endpoints[ev.edge]]
        for got, ref in ((a @ B.T + u, a @ A.T + t), (B @ unit(b - a), A @ unit(b - a))):
            assert np.abs(got - ref).max() <= 1e-13 * (1.0 + np.abs(ref).max())
    assert late > 0


def test_cumulative_isometries_short_itineraries(cube):
    lin, trans = uf.cumulative_isometries(cube, [4])
    assert lin.shape == (1, 3, 3) and trans.shape == (1, 3)
    assert np.array_equal(lin[0], np.eye(3)) and np.array_equal(trans[0], np.zeros(3))
    for faces in ([4, 5], [4, 1, 0], [0, 1, 0, 1, 2, 3, 4, 5, 4]):
        lin, trans = uf.cumulative_isometries(cube, faces)
        ref_lin, ref_trans = _reference_cumulative_isometries(cube, faces)
        assert len(lin) == len(trans) == len(ref_lin)
        for k in range(len(ref_lin)):
            assert lin[k].tobytes() == ref_lin[k].tobytes()
            assert trans[k].tobytes() == ref_trans[k].tobytes()


def test_track_holds_the_read_only_cumulative_isometries(cube):
    rec = _orbit(cube, [0.3141, 0.2718, 0.0], [0.5772, 0.6931, 1.0], 50)
    track = uf.unfold_orbit(rec, cube)
    lin, trans = uf.cumulative_isometries(cube, rec.faces)
    assert track.linear.tobytes() == lin.tobytes()
    assert track.translation.tobytes() == trans.tobytes()
    assert len(track.points) == rec.n_bounces
    # the track's arrays, and the scan's, reject writes
    for a in (track.linear, track.translation[3], uf.cumulative_isometries(cube, [4, 1, 0])[0][2]):
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_orbit_and_unfold_compose_no_isometry():
    for P in (unit_cube(), regular_tetrahedron()):
        (rec,) = _long_orbits(P, 32, count=1)
        track = uf.unfold_orbit(rec, P)
        assert rec.n_bounces == 1000 and track.relative_residual < 1e-9
    # an orbit that ends on an edge after some bounces unfolds its event too
    theta = np.array([1.0, 1.0, 0.5]) / 1.5
    cube = unit_cube()
    rec = bl.orbit(bl.phase_point(cube, [0.5, 0.0, 0.25], theta, face="y0"), 10, cube)
    ev = rec.singularity
    assert ev.kind is bl.SingularityKind.EDGE_HIT and ev.step == 2
    lin, trans = uf.cumulative_isometries(cube, rec.faces)
    a, b = cube.vertices[cube.edge_endpoints[ev.edge]]
    hit = ev.point @ lin[2].T + trans[2]
    assert point_line_distance(hit, a @ lin[2].T + trans[2], lin[2] @ unit(b - a)) <= 1e-15
