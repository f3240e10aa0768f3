import json

import numpy as np
import pytest

from polybilliard import billiard as bl
from polybilliard import geometry as g
from polybilliard.unfolding import Isometry, _prefix_isometries

SQRT2 = np.sqrt(2.0)
SQRT3 = np.sqrt(3.0)


@pytest.fixture(scope="module")
def cube():
    return g.unit_cube()


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_cube_counts(cube):
    assert cube.n_faces == 6
    assert len(cube.edges) == 12
    assert len(cube.vertices) == 8
    assert sorted(cube.labels) == ["x0", "x1", "y0", "y1", "z0", "z1"]


def test_tetrahedron_counts():
    T = g.regular_tetrahedron()
    assert T.n_faces == 4
    assert len(T.edges) == 6


def test_normals_point_inward(cube):
    c = cube.vertices.mean(axis=0)
    assert np.all(cube.signed_distances(c) > 0)
    # every vertex on at least three face planes
    s = np.abs(cube.signed_distances(cube.vertices))
    assert np.all((s <= 1e-12).sum(axis=1) >= 3)


def test_pushed_out_vertex_is_nonconvex():
    # displace (1,1,1) to (2,2,2): it then violates the x=1/y=1/z=1 planes
    cube = g.unit_cube()
    vs = cube.vertices.copy()
    corner = int(np.argmin(np.linalg.norm(vs - np.array([1.0, 1.0, 1.0]), axis=1)))
    vs = np.array(vs)
    vs[corner] = [2.0, 2.0, 2.0]
    faces = [(f.label, list(f.boundary)) for f in cube.faces]
    with pytest.raises(g.NonConvex):
        g.validate(vs, faces)


def test_open_surface_detected():
    cube = g.unit_cube()
    faces = [(f.label, list(f.boundary)) for f in cube.faces][:-1]
    with pytest.raises((g.OpenSurface, ValueError)):
        g.validate(cube.vertices, faces)


def test_collinear_face_rejected():
    vs = [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1)]
    faces = [("bad", [0, 1, 2]), ("a", [0, 1, 4]), ("b", [1, 2, 4]), ("c", [0, 3, 4])]
    with pytest.raises(g.DegenerateFace):
        g.validate(vs, faces)


def test_non_integer_vertex_index_rejected(cube):
    # truncating i + 0.9, or parsing str(i), would give the cube back
    faces = [(f.label, list(f.boundary)) for f in cube.faces]
    i = faces[0][1][0]
    for bad in (i + 0.9, str(i)):
        faces[0][1][0] = bad
        with pytest.raises(ValueError, match="non-integer vertex index"):
            g.validate(cube.vertices, faces)
    # an index list that is no list at all is not a bad index
    faces[0] = ("x0", 5)
    with pytest.raises(ValueError, match="vertex index list is missing or not a list"):
        g.validate(cube.vertices, faces)


def test_duplicate_labels_rejected(cube):
    faces = [("same", list(f.boundary)) for f in cube.faces]
    with pytest.raises(ValueError):
        g.validate(cube.vertices, faces)


def test_polyhedron_arrays_are_read_only():
    P = g.unit_cube()
    arrays = [P.vertices, P.normals, P.offsets, P.inv_sin, P.edge_mask, P.reflection_linear,
              P.reflection_translation, P.frames, *P.frames[0],
              *(P.face_polygon(f) for f in range(P.n_faces))]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 7.0


def test_validate_leaves_callers_vertices_alone():
    cube = g.unit_cube()
    V = np.array(cube.vertices)                  # float64 and writable
    P = g.validate(V, [(f.label, list(f.boundary)) for f in cube.faces])
    assert V.flags.writeable and P.vertices is not V
    assert not P.vertices.flags.writeable
    before = P.vertices.copy()
    V[0, 0] = 0.1
    assert np.array_equal(P.vertices, before)


def test_face_planes_and_edges_are_read_only():
    P = g.unit_cube()
    z0 = P.face_index("z0")
    centre = (0.5, 0.5, 0.0)
    assert P.point_in_face(z0, centre)
    arrays = [*(f.plane.normal for f in P.faces),
              *(a for e in P.edges for a in (e.point, e.direction))]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[:] *= -1
    assert P.point_in_face(z0, centre)
    assert np.array_equal(P.normals[z0], [0.0, 0.0, 1.0])


def test_diameter_is_largest_vertex_distance():
    assert g.regular_tetrahedron().diameter() == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-15)
    assert g.unit_cube().diameter() == pytest.approx(np.sqrt(3.0), rel=1e-15)
    assert g.box(2, 1, 0.5).diameter() == pytest.approx(np.sqrt(5.25), rel=1e-15)


def _old_farthest_scans(pts):
    """The three scans ``farthest_pair`` replaced: ``Polyhedron.diameter``,
    the cell diameter of ``classify_cell`` and the strip endpoints of the
    edge-on branch of ``propagate_beam``."""
    diameter = float(np.sqrt((((pts[:, None] - pts[None]) ** 2).sum(axis=2)).max()))
    d = pts[:, None, :] - pts[None, :, :]
    cell = 0.0 if len(pts) < 2 else float(np.sqrt((d * d).sum(axis=2)).max())
    i, j = np.unravel_index(np.argmax((d * d).sum(axis=2)), d.shape[:2])
    return diameter, cell, int(i), int(j)


def test_farthest_pair_matches_old_scans():
    rng = np.random.default_rng(17)
    for k in range(4000):
        dim, count = 2 + k % 2, int(rng.integers(1, 12))
        # every other set on a small integer grid, where ties are common
        pts = rng.normal(size=(count, dim)) if k % 4 < 2 else \
            rng.integers(-2, 3, size=(count, dim)).astype(float)
        dist, i, j = g.farthest_pair(pts)
        diameter, cell, oi, oj = _old_farthest_scans(pts)
        assert dist == diameter == cell and (i, j) == (oi, oj)


def test_farthest_pair_tie_rule():
    # both diagonals of the unit square tie: the first pair in row-major order wins
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert g.farthest_pair(square) == (np.sqrt(2.0), 0, 2)
    assert g.farthest_pair(square[[1, 2, 3, 0]]) == (np.sqrt(2.0), 0, 2)
    assert g.farthest_pair(square[:1]) == (0.0, 0, 0)


def test_json_round_trip(cube):
    data = g.dump_polyhedron(cube)
    again = g.load_polyhedron(json.loads(json.dumps(data)))
    assert again.n_faces == 6 and len(again.edges) == 12
    assert np.allclose(again.vertices, cube.vertices)
    for a, b in zip(again.faces, cube.faces):
        assert a.label == b.label
        assert np.allclose(a.plane.normal, b.plane.normal)


# ---------------------------------------------------------------------------
# reflection
# ---------------------------------------------------------------------------

def test_reflect_floor_mirror(cube):
    floor = cube.faces[cube.face_index("z0")]
    out = g.reflect_direction(np.array([0.3, -0.4, -0.5]), floor)
    assert np.allclose(out, [0.3, -0.4, 0.5])


def test_reflect_tangent_fixed(cube):
    floor = cube.faces[cube.face_index("z0")]
    theta = np.array([1.0, 1.0, 0.0]) / SQRT2
    assert np.allclose(g.reflect_direction(theta, floor), theta)


def test_reflect_involution_and_norm(cube):
    rng = np.random.default_rng(0)
    for _ in range(1000):
        theta = rng.normal(size=3)
        theta /= np.linalg.norm(theta)
        face = cube.faces[rng.integers(0, 6)]
        once = g.reflect_direction(theta, face)
        twice = g.reflect_direction(once, face)
        assert np.abs(twice - theta).max() < 1e-12
        assert abs(np.linalg.norm(once) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# ray casting
# ---------------------------------------------------------------------------

def test_cast_axis_ray(cube):
    hit = g.first_hit(np.array([0.5, 0.5, 0.0]), np.array([0.0, 0.0, 1.0]), cube)
    assert hit.kind is g.HitKind.FACE
    assert cube.labels[hit.face] == "z1"
    assert np.allclose(hit.point, [0.5, 0.5, 1.0])
    assert abs(hit.length - 1.0) < 1e-12


def test_cast_diagonal_hits_edge(cube):
    # equal x/y advance reaches the planes x=1 and y=1 together at z=0.5
    hit = g.first_hit(np.array([0.5, 0.5, 0.0]), np.array([1.0, 1.0, 1.0]) / SQRT3, cube)
    assert hit.kind is g.HitKind.EDGE
    assert np.allclose(hit.point, [1.0, 1.0, 0.5])
    assert abs(hit.length - 0.5 * SQRT3) < 1e-12
    e = cube.edges[hit.edge]
    pts = cube.vertices[list(e.endpoints)]
    assert np.allclose(pts[:, 0], 1.0) and np.allclose(pts[:, 1], 1.0)


def test_cast_slanted_ray(cube):
    hit = g.first_hit(np.array([0.25, 0.5, 0.0]), np.array([1.0, 0.0, 1.0]) / SQRT2, cube)
    assert hit.kind is g.HitKind.FACE
    assert cube.labels[hit.face] == "x1"
    assert np.allclose(hit.point, [1.0, 0.5, 0.75])


def test_cast_corner_hits_vertex(cube):
    hit = g.first_hit(np.array([0.25, 0.25, 0.0]), np.array([1.0, 1.0, 4.0 / 3.0]), cube)
    assert hit.kind is g.HitKind.VERTEX
    assert np.allclose(hit.point, [1.0, 1.0, 1.0])


def test_no_advance_outward_and_tangent(cube):
    # the in-face tangent start is covered by the orbit (test_classify_tangent)
    with pytest.raises(g.NoAdvance):
        g.first_hit(np.array([0.5, 0.5, 0.0]), np.array([0.0, 0.0, -1.0]), cube)


def test_hit_point_on_face(cube):
    rng = np.random.default_rng(3)
    for _ in range(300):
        m = np.array([rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9), 0.0])
        theta = rng.normal(size=3)
        theta[2] = abs(theta[2]) + 0.2
        theta /= np.linalg.norm(theta)
        hit = g.first_hit(m, theta, cube)
        pl = cube.faces[hit.face].plane
        assert abs(pl.signed(hit.point)) < 1e-9
        assert cube.point_in_face(hit.face, hit.point)


def test_segments_between_boundary_points_stay_inside(cube):
    rng = np.random.default_rng(4)
    T = g.regular_tetrahedron()
    for P in (cube, T):
        for _ in range(200):
            fa, fb = rng.integers(0, P.n_faces, 2)
            pa = _random_in_face(P, int(fa), rng)
            pb = _random_in_face(P, int(fb), rng)
            lam = rng.uniform(0, 1, 5)[:, None]
            pts = pa + lam * (pb - pa)
            assert np.all(P.signed_distances(pts).min(axis=1) >= -1e-9)


def _random_in_face(P, f, rng):
    poly = P.face_polygon(f)
    w = rng.random(len(poly))
    w /= w.sum()
    return w @ poly


def test_distance_helpers():
    d = g.segment_segment_distance(np.array([0, 0, 0.0]), np.array([1, 0, 0.0]),
                                   np.array([0, 1, 1.0]), np.array([1, 1, 1.0]))
    assert abs(d - np.sqrt(2)) < 1e-12
    assert g.line_line_distance(np.zeros(3), np.array([1.0, 0, 0]),
                                np.array([0, 1.0, 0]), np.array([0, 0, 1.0])) == 1.0


def test_vec3_rejects_non_finite_arrays():
    # a float64 3-vector takes the same checked path as any other input
    for bad in ([np.nan, 0, 1], [np.inf, 0, 1], [0, -np.inf, 1]):
        with pytest.raises(ValueError, match="non-finite"):
            g.vec3(np.array(bad, dtype=float))
        with pytest.raises(ValueError, match="non-finite"):
            g.unit(np.array(bad, dtype=float))


def _reference_segment_distance(p1, q1, p2, q2) -> float:
    """The scalar clamped-closest-points routine that
    :func:`geometry.segment_segment_distance` replaced."""
    d1 = q1 - p1
    d2 = q2 - p2
    r = p1 - p2
    a = float(d1 @ d1)
    e = float(d2 @ d2)
    f = float(d2 @ r)
    if a <= 1e-30 and e <= 1e-30:
        return float(np.linalg.norm(r))
    if a <= 1e-30:
        t = np.clip(f / e, 0.0, 1.0)
        return float(np.linalg.norm(p1 - (p2 + t * d2)))
    c = float(d1 @ r)
    if e <= 1e-30:
        s = np.clip(-c / a, 0.0, 1.0)
        return float(np.linalg.norm(p1 + s * d1 - p2))
    b = float(d1 @ d2)
    denom = a * e - b * b
    s = np.clip((b * f - c * e) / denom, 0.0, 1.0) if denom > 1e-30 else 0.0
    t = (b * s + f) / e
    if t < 0.0:
        t = 0.0
        s = np.clip(-c / a, 0.0, 1.0)
    elif t > 1.0:
        t = 1.0
        s = np.clip((b - c) / a, 0.0, 1.0)
    return float(np.linalg.norm(p1 + s * d1 - (p2 + t * d2)))


def _segment_pairs(rng, count):
    """(4, count, 3) endpoints p1, q1, p2, q2: random pairs, then parallel,
    crossing, touching, zero-length first, zero-length second and both
    zero-length ones, a seventh of the rows each."""
    p1, q1, p2, q2 = rng.normal(size=(4, count, 3))
    k = np.array_split(np.arange(count), 7)
    shift = rng.normal(size=(len(k[1]), 3))
    p2[k[1]], q2[k[1]] = p1[k[1]] + shift, p1[k[1]] + shift + 2.5 * (q1[k[1]] - p1[k[1]])
    # crossing: both segments pass through a point at a random parameter
    x = p1[k[2]] + rng.random((len(k[2]), 1)) * (q1[k[2]] - p1[k[2]])
    p2[k[2]], q2[k[2]] = x - (q2[k[2]] - p2[k[2]]), x + (q2[k[2]] - p2[k[2]])
    p2[k[3]] = q1[k[3]]                                   # touching at an end
    q1[k[4]] = p1[k[4]]
    q2[k[5]] = p2[k[5]]
    q1[k[6]], q2[k[6]] = p1[k[6]], p2[k[6]]
    return p1, q1, p2, q2


def test_segment_distance_matches_scalar_reference():
    rng = np.random.default_rng(21)
    pairs = _segment_pairs(rng, 7000)
    got = g.segment_segment_distance(*pairs)
    assert got.shape == (7000,)
    ref = np.array([_reference_segment_distance(*row) for row in zip(*pairs)])
    assert np.abs(got - ref).max() <= 1e-12 * max(1.0, ref.max())
    # crossing and touching segments meet
    k = np.array_split(np.arange(7000), 7)
    assert got[k[2]].max() <= 1e-12 and got[k[3]].max() <= 1e-12
    # single 3-vectors give a scalar, and broadcasting gives the outer table
    one = g.segment_segment_distance(*(a[0] for a in pairs))
    assert np.ndim(one) == 0 and abs(one - ref[0]) <= 1e-12
    p1, q1, p2, q2 = (a[:40] for a in pairs)
    table = g.segment_segment_distance(p1[:, None], q1[:, None], p2, q2)
    assert table.shape == (40, 40)
    assert abs(table[3, 5] - _reference_segment_distance(p1[3], q1[3], p2[5], q2[5])) <= 1e-12


def test_segment_distance_zero_length_first_segment(cube):
    # a point-like first segment gives its point's distance to the second
    e = cube.edges[0]
    v0, v1 = cube.vertices[list(e.endpoints)]
    p = 0.5 * (v0 + v1)
    assert g.segment_segment_distance(p, p, v0, v1) == 0.0
    q = p + 0.25 * np.cross(e.direction, [1.0, 2.0, 3.0]) / np.linalg.norm(
        np.cross(e.direction, [1.0, 2.0, 3.0]))
    assert abs(g.segment_segment_distance(q, q, v0, v1) - 0.25) <= 1e-15
    beyond = v1 + 0.5 * e.direction * np.sign((v1 - v0) @ e.direction)
    assert abs(g.segment_segment_distance(beyond, beyond, v0, v1) - 0.5) <= 1e-15


def _reference_report(rec, P, radius):
    """The report as the double loop over segments and edges built it: one
    reference distance call per pair, then the line of the terminal edge
    hit, or of each edge through the terminal vertex hit."""
    lin, trans = _prefix_isometries(P, [p.face for p in rec.points])
    ev = rec.singularity
    ends = [p.m for p in rec.points[1:]]
    if ev is not None and ev.kind is not bl.SingularityKind.TANGENT_IN_FACE:
        ends.append(ev.point)
    lines = []
    for k, b in enumerate(ends):
        iso = Isometry(lin[k], trans[k])
        for e in P.edges:
            v0, v1 = P.vertices[list(e.endpoints)]
            if _reference_segment_distance(rec.points[k].m, b, v0, v1) <= radius:
                lines.append((iso.apply(e.point), iso.apply_direction(e.direction)))
    if ev is not None and ev.kind is not bl.SingularityKind.TANGENT_IN_FACE:
        iso = Isometry(lin[ev.step], trans[ev.step])
        for i, e in enumerate(P.edges):
            if i == ev.edge or ev.vertex in e.endpoints:
                lines.append((iso.apply(e.point), iso.apply_direction(e.direction)))
    found = {}
    for point, direction in lines:
        d = direction if direction[int(np.argmax(np.abs(direction)))] >= 0.0 else -direction
        key = tuple(np.round(np.concatenate([point - (point @ d) * d, d]), 9))
        found.setdefault(key, (point, direction))
    return list(found.values())


def _aimed_starts(P, rng, count):
    """Starts aimed at a vertex or an edge midpoint, straight or through its
    mirror image in a face plane: orbits that end on an edge or a vertex."""
    targets = [*P.vertices, *(P.vertices[list(e.endpoints)].mean(axis=0) for e in P.edges)]
    starts = []
    while len(starts) < count:
        f, h = (int(i) for i in rng.integers(P.n_faces, size=2))
        (m,) = bl.sample_points_in_face(P, np.array([f]), rng)
        x = targets[rng.integers(len(targets))]
        if len(starts) % 2:
            x = x - 2.0 * (P.normals[h] @ x + P.offsets[h]) * P.normals[h]
        d = x - m
        if d @ P.normals[f] > 1e-3 * np.linalg.norm(d):
            starts.append(bl.PhasePoint(f, m, g.unit(d)))
    return starts


@pytest.mark.parametrize("name", ["cube", "tetrahedron", "rotated-box"])
def test_report_near_misses_match_pairwise_loop(name):
    # random starts give completed orbits (or, under wide tolerances, some
    # that end singular); aimed ones end on an edge or a vertex
    P0 = SOLIDS[name]()
    rng = np.random.default_rng(5)
    checked, kinds = 0, set()
    for P in (P0, P0.with_tolerances(g.Tolerances(plane=1e-3, sing=1e-2))):
        m, th, f = bl.random_phase_points(P, 4, rng)
        starts = [bl.PhasePoint(int(f[i]), m[i], th[i]) for i in range(4)]
        for x in starts + _aimed_starts(P, rng, 8):
            rec = bl.orbit(x, 60, P)
            kinds.add(None if rec.completed else rec.singularity.kind)
            for radius in (1e-3, 0.05, 0.3):
                ref = _reference_report(rec, P, radius)
                try:
                    got = bl.discontinuity_report(rec, P, radius)
                except bl.EmptyReport:
                    got = []
                assert len(got) == len(ref)
                for line, (point, direction) in zip(got, ref):
                    assert np.array_equal(line.point, point)
                    assert np.array_equal(line.direction, direction)
                checked += len(ref)
    assert checked > 50
    assert {None, bl.SingularityKind.EDGE_HIT, bl.SingularityKind.VERTEX_HIT} <= kinds


# ---------------------------------------------------------------------------
# first_hit against a numpy reference
# ---------------------------------------------------------------------------

def _reference_first_hit(m, theta, P):
    """The vectorized numpy formulation of :func:`geometry.first_hit`."""
    tol = P.tol
    s = P.signed_distances(m)
    d = P.normals @ theta
    t = np.full(len(d), np.inf)
    np.divide(s, -d, out=t, where=d < -tol.angle)
    t[t <= tol.step] = np.inf
    f = int(np.argmin(t))
    tf = float(t[f])
    if not np.isfinite(tf):
        raise g.NoAdvance("ray does not reach the boundary")
    q = m + tf * theta

    verts = P.face_polygon(f)
    diff = verts - q
    vdist2 = np.einsum("ij,ij->i", diff, diff)
    v_local = int(vdist2.argmin())
    if vdist2[v_local] <= tol.plane * tol.plane:
        return g.Hit(g.HitKind.VERTEX, q, tf, face=f,
                     vertex=int(P.faces[f].boundary[v_local]), edge_distance=0.0)
    # the face's edges from the edge list, not from the stepping tables
    ids = [k for k, e in enumerate(P.edges) if f in e.faces]
    A = P.vertices[[P.edges[k].endpoints[0] for k in ids]]
    seg = P.vertices[[P.edges[k].endpoints[1] for k in ids]] - A
    L = np.linalg.norm(seg, axis=1)
    U = seg / L[:, None]
    w = q - A
    tt = np.clip(np.einsum("ej,ej->e", w, U), 0.0, L)
    dvec = w - tt[:, None] * U
    ed2 = np.einsum("ej,ej->e", dvec, dvec)
    k = int(ed2.argmin())
    edist = float(np.sqrt(ed2[k]))
    if edist <= tol.plane:
        return g.Hit(g.HitKind.EDGE, q, tf, face=f, edge=int(ids[k]), edge_distance=edist)
    return g.Hit(g.HitKind.FACE, q, tf, face=f, edge_distance=edist)


def _outcome(fn, m, theta, P):
    try:
        return fn(m, theta, P)
    except g.NoAdvance:
        return None


def _assert_same_hit(m, theta, P, tie=False):
    """Both kernels agree; returns the hit (None for NoAdvance).

    With ``tie`` the ray is aimed at an edge or vertex, where several face
    planes are reached at the same length up to rounding; the kernels sum in
    different orders, so each may pick another of those faces.
    """
    m, theta = np.asarray(m, float), np.asarray(theta, float)
    got = _outcome(g.first_hit, m, theta, P)
    ref = _outcome(_reference_first_hit, m, theta, P)
    assert (got is None) == (ref is None)
    if got is None:
        return None
    assert (got.kind, got.edge, got.vertex) == (ref.kind, ref.edge, ref.vertex)
    if not tie or got.kind is g.HitKind.FACE:
        assert got.face == ref.face
    elif got.kind is g.HitKind.EDGE:
        assert {got.face, ref.face} <= set(P.edges[got.edge].faces)
    else:
        assert all(got.vertex in P.faces[h.face].boundary for h in (got, ref))
    assert isinstance(got.point, np.ndarray) and got.point.shape == (3,)
    # the kernels sum in different orders: allow 1e-12 per unit of ray length
    # (rays inside these solids are at most 3 long; outward rays from the
    # boundary cross far-away face planes outside the solid)
    tol = 1e-12 * max(1.0, ref.length)
    assert np.abs(got.point - ref.point).max() <= tol
    assert abs(got.length - ref.length) <= tol
    assert abs(got.edge_distance - ref.edge_distance) <= tol
    return got


def _rotated_box():
    rng = np.random.default_rng(17)
    Q, R = np.linalg.qr(rng.normal(size=(3, 3)))
    Q = Q * np.sign(np.diag(R))
    B = g.box(2.0, 1.0, 0.5)
    faces = [(f.label, list(f.boundary)) for f in B.faces]
    return g.validate(B.vertices @ Q.T + [0.3, -1.0, 2.0], faces)


SOLIDS = {
    "cube": g.unit_cube,
    "tetrahedron": g.regular_tetrahedron,
    "box": lambda: g.box(2.0, 1.0, 0.5),
    "rotated-box": _rotated_box,
}


@pytest.mark.parametrize("name", sorted(SOLIDS))
def test_first_hit_matches_reference(name):
    P = SOLIDS[name]()
    rng = np.random.default_rng(sorted(SOLIDS).index(name))
    V = P.vertices
    # interior starts: random convex combinations of the vertices
    w = rng.random((10_000, len(V)))
    starts = (w / w.sum(axis=1, keepdims=True)) @ V
    dirs = rng.normal(size=(10_000, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    kinds = set()
    for m, theta in zip(starts, dirs):
        kinds.add(_assert_same_hit(m, theta, P).kind)
    assert kinds == {g.HitKind.FACE}
    # rays aimed at every vertex and at random points of every edge
    for m in starts[:20]:
        for v in range(len(V)):
            kinds.add(_assert_same_hit(m, g.unit(V[v] - m), P, tie=True).kind)
        for e in P.edges:
            a, b = V[list(e.endpoints)]
            q = a + rng.random() * (b - a)
            kinds.add(_assert_same_hit(m, g.unit(q - m), P, tie=True).kind)
    assert {g.HitKind.EDGE, g.HitKind.VERTEX} <= kinds
    # 1e-6 from a vertex, inside its face: a face hit, though near the vertex
    for f in range(P.n_faces):
        poly = P.face_polygon(f)
        for v in poly:
            q = v + 1e-6 * g.unit(poly.mean(axis=0) - v)
            assert _assert_same_hit(starts[0], g.unit(q - starts[0]), P).kind is g.HitKind.FACE
    # boundary starts at vertices and face centres, with directions into and
    # out of the solid, so some rays never reach a face plane
    no_advance = 0
    for v in range(len(V)):
        for theta in dirs[:200]:
            no_advance += _assert_same_hit(V[v], theta, P, tie=True) is None
    for f in range(P.n_faces):
        m = P.face_polygon(f).mean(axis=0)
        n = P.normals[f]
        no_advance += _assert_same_hit(m, -n, P) is None
        for theta in dirs[:50]:
            _assert_same_hit(m, theta, P)
    assert no_advance > 0
    assert _assert_same_hit(starts[0], np.zeros(3), P) is None


def test_first_hit_matches_reference_on_engineered_rays(cube):
    rays = [([0.5, 0.5, 0.0], [0.0, 0.0, 1.0]),                       # axis
            ([0.5, 0.5, 0.0], np.array([1.0, 1.0, 1.0]) / SQRT3),     # edge
            ([0.25, 0.5, 0.0], np.array([1.0, 0.0, 1.0]) / SQRT2),    # slanted
            ([0.25, 0.25, 0.0], np.array([1.0, 1.0, 4.0 / 3.0])),     # vertex
            ([0.5, 0.5, 0.0], [0.0, 0.0, -1.0])]                      # no advance
    hits = [_assert_same_hit(m, theta, cube) for m, theta in rays]
    assert [h and h.kind for h in hits] == [g.HitKind.FACE, g.HitKind.EDGE, g.HitKind.FACE,
                                             g.HitKind.VERTEX, None]


@pytest.mark.parametrize("name", sorted(SOLIDS))
def test_first_hit_matches_reference_near_vertices(name):
    # first_hit scans a face's vertices only for a hit within 2 * plane of an
    # edge; aim 0.5, 1.5 and 2.5 * plane from each vertex, into its face and
    # along one of its edges, on both sides of either threshold
    P = SOLIDS[name]()
    start = P.vertices.mean(axis=0)
    found = {}
    for f in range(P.n_faces):
        poly = P.face_polygon(f)
        for i, v in enumerate(poly):
            for w in (poly.mean(axis=0) - v, poly[i - 1] - v):
                for mult in (0.5, 1.5, 2.5):
                    q = v + mult * P.tol.plane * g.unit(w)
                    hit = _assert_same_hit(start, g.unit(q - start), P, tie=True)
                    found.setdefault(mult, set()).add(hit.kind)
    assert found[0.5] == {g.HitKind.VERTEX}
    assert g.HitKind.VERTEX not in found[1.5] | found[2.5]
    assert found[1.5] | found[2.5] >= {g.HitKind.EDGE, g.HitKind.FACE}


# ---------------------------------------------------------------------------
# nearest edge of a face against a numpy clipped-segment oracle
# ---------------------------------------------------------------------------

def _oracle_edge_distances(P, f, q):
    """Face ``f``'s edge ids and the distances from ``q`` to those segments."""
    ids = [k for k, e in enumerate(P.edges) if f in e.faces]
    a = P.vertices[[P.edges[k].endpoints[0] for k in ids]]
    ab = P.vertices[[P.edges[k].endpoints[1] for k in ids]] - a
    t = np.clip(np.einsum("ej,ej->e", q - a, ab) / np.einsum("ej,ej->e", ab, ab), 0.0, 1.0)
    return ids, np.linalg.norm(q - (a + t[:, None] * ab), axis=1)


def _assert_nearest_edge(P, f, q):
    dist, edge = P.nearest_edge(f, q)
    ids, ref = _oracle_edge_distances(P, f, np.asarray(q, float))
    k = int(ref.argmin())
    assert abs(dist - ref[k]) <= 1e-13
    assert (dist <= P.tol.plane) == (ref[k] <= P.tol.plane)
    # the edge is a nearest one, and the oracle's unless two are tied
    assert edge in ids and ref[ids.index(edge)] <= ref[k] + 1e-13
    if np.sort(ref)[1] > ref[k] + 1e-13:
        assert edge == ids[k]
    return dist, edge


@pytest.mark.parametrize("name", ["cube", "tetrahedron", "rotated-box"])
def test_nearest_edge_matches_oracle(name):
    P = SOLIDS[name]()
    rng = np.random.default_rng(5)
    plane = P.tol.plane
    for f in range(P.n_faces):
        n = P.normals[f]
        for e_id in (e_id for e_id, e in enumerate(P.edges) if f in e.faces):
            a, b = P.vertices[list(P.edges[e_id].endpoints)]
            u = g.unit(b - a)
            inward = np.cross(n, u)
            if inward @ (P.face_polygon(f).mean(axis=0) - a) < 0.0:
                inward = -inward
            # on both vertices: distance 0, an edge through that vertex
            for v in (a, b):
                dist, edge = _assert_nearest_edge(P, f, v)
                assert dist <= 1e-15 and v.tolist() in P.vertices[
                    list(P.edges[edge].endpoints)].tolist()
            # beyond either end of the edge, in the face plane; on the edge's
            # line that end is nearest (no face angle here exceeds 90 degrees)
            for end, out in ((a, -u), (b, u)):
                for r in (1e-3, 0.5, 2.0):
                    dist, _ = _assert_nearest_edge(P, f, end + r * out)
                    assert abs(dist - r) <= 1e-14
                    _assert_nearest_edge(P, f, end + r * out + rng.uniform(-1, 1) * inward)
            # 0.5x and 2x plane inside the face from a random point of the edge
            mid = a + rng.uniform(0.2, 0.8) * (b - a)
            for k in (0.5, 2.0):
                dist, edge = _assert_nearest_edge(P, f, mid + k * plane * inward)
                assert edge == e_id and abs(dist - k * plane) <= 1e-14
                assert (dist <= plane) == (k < 1.0)
        # random points in and around the face
        poly = P.face_polygon(f)
        w = rng.random((50, len(poly)))
        for q in (w / w.sum(axis=1, keepdims=True)) @ poly:
            _assert_nearest_edge(P, f, q)
            _assert_nearest_edge(P, f, q + 3.0 * (q - poly.mean(axis=0)))

