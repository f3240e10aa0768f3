import json
import math
import re
import warnings
from enum import Enum
from typing import NamedTuple

import numpy as np
import pytest

from polybilliard import billiard as bl
from polybilliard import geometry as g

SQRT2 = np.sqrt(2.0)
SQRT3 = np.sqrt(3.0)


@pytest.fixture(scope="module")
def cube():
    return g.unit_cube()


def _faces(P):
    """The faces of ``P`` as ``validate`` reads them: fresh (label, indices) pairs."""
    return [(label, list(idx)) for label, idx in zip(P.labels, P.boundaries)]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_cube_counts(cube):
    assert cube.n_faces == 6
    assert len(cube.edge_endpoints) == 12
    assert len(cube.vertices) == 8
    assert sorted(cube.labels) == ["x0", "x1", "y0", "y1", "z0", "z1"]


def test_tetrahedron_counts():
    T = g.regular_tetrahedron()
    assert T.n_faces == 4
    assert len(T.edge_endpoints) == 6


def test_normals_point_inward(cube):
    c = cube.vertices.mean(axis=0)
    assert np.all(c @ cube.normals.T + cube.offsets > 0)
    # every vertex on at least three face planes
    s = np.abs(cube.vertices @ cube.normals.T + cube.offsets)
    assert np.all((s <= 1e-12).sum(axis=1) >= 3)


def test_pushed_out_vertex_is_nonconvex():
    # displace (1,1,1) to (2,2,2): it then violates the x=1/y=1/z=1 planes
    cube = g.unit_cube()
    vs = cube.vertices.copy()
    corner = int(np.argmin(np.linalg.norm(vs - np.array([1.0, 1.0, 1.0]), axis=1)))
    vs = np.array(vs)
    vs[corner] = [2.0, 2.0, 2.0]
    faces = _faces(cube)
    with pytest.raises(g.NonConvex):
        g.validate(vs, faces)


def test_open_surface_detected():
    cube = g.unit_cube()
    faces = _faces(cube)[:-1]
    with pytest.raises((g.OpenSurface, ValueError)):
        g.validate(cube.vertices, faces)


def test_collinear_face_rejected():
    vs = [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1)]
    faces = [("bad", [0, 1, 2]), ("a", [0, 1, 4]), ("b", [1, 2, 4]), ("c", [0, 3, 4])]
    with pytest.raises(g.DegenerateFace):
        g.validate(vs, faces)


def test_as_count_reads_integers_at_least_the_minimum():
    assert g.as_count(3, "n", 1) == 3 and g.as_count(0, "seed", 0) == 0
    x = g.as_count(np.int64(7), "n", 2)
    assert x == 7 and type(x) is int
    for bad in (2.5, 3.0, True, np.bool_(False), "5", None):
        message = re.escape(f"n must be an integer, got {bad!r}")
        with pytest.raises(g.PreconditionFailed, match=f"^{message}$"):
            g.as_count(bad, "n", 0)
    for bad in (-1, 0, np.int32(1)):
        with pytest.raises(g.PreconditionFailed, match="^--steps must be >= 2$"):
            g.as_count(bad, "--steps", 2)


def test_non_integer_vertex_index_rejected(cube):
    # truncating i + 0.9, or parsing str(i), would give the cube back
    faces = _faces(cube)
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
    faces = [("same", idx) for _, idx in _faces(cube)]
    with pytest.raises(ValueError):
        g.validate(cube.vertices, faces)


def _with_face0(idx):
    """The cube with the vertex cycle of its first face replaced by ``idx``."""
    def build(cube):
        faces = _faces(cube)
        faces[0] = (faces[0][0], idx)
        return cube.vertices, faces
    return build


def _cube_with_true_index(cube):
    # every vertex index 1 given as True, which operator.index reads as 1
    return cube.vertices, [(lab, [True if i == 1 else i for i in idx])
                           for lab, idx in _faces(cube)]


def _cube_with_label(label):
    """The cube with the label of its first face replaced by ``label``."""
    return lambda cube: (cube.vertices, [(label, _faces(cube)[0][1]), *_faces(cube)[1:]])


def _hexagonal_prism_pushed(cube):
    # one top vertex pushed 2.5e-9 into the solid: the top face's vertices lie
    # within 0.83e-9 outside its mean plane, inside the 1e-9 convexity
    # tolerance, and up to 1.25e-9 inside it, past the planarity one; on a
    # quad face the deviations are equal and the convexity check fires first
    ring = np.exp(1j * np.pi / 3 * np.arange(6))
    base = np.c_[ring.real, ring.imag, np.zeros(6)]
    top = base + [0.0, 0.0, 1.0]
    top[0, 2] -= 2.5e-9
    faces = [("b", list(range(6))), ("t", list(range(6, 12)))] + [
        (f"s{k}", [k, (k + 1) % 6, 6 + (k + 1) % 6, 6 + k]) for k in range(6)]
    return np.vstack([base, top]), faces


def _cube_with_dented_face(cube):
    # the centre of face z1 spliced into its cycle: planar, but reflex there
    faces = _faces(cube)
    k = cube.face_index("z1")
    idx = faces[k][1]
    faces[k] = ("z1", idx[:2] + [8] + idx[2:])
    return np.vstack([cube.vertices, [0.5, 0.5, 1.0]]), faces


@pytest.mark.parametrize("build, error, message", [
    (lambda c: (c.vertices[:, :2], _faces(c)), g.PreconditionFailed, r"\(N, 3\) array"),
    (lambda c: (np.where(c.vertices > 0.5, np.nan, c.vertices), _faces(c)),
     g.PreconditionFailed, "finite"),
    (lambda c: (c.vertices[:3], [("a", [0, 1, 2])] * 4), g.PreconditionFailed,
     "at least 4 vertices"),
    (_with_face0([0, 4]), g.PreconditionFailed, "fewer than 3 vertices"),
    (_with_face0([0, 4, 4, 2]), g.PreconditionFailed, "repeats a vertex"),
    (_with_face0([0, 4, 6, 8]), g.PreconditionFailed, "out-of-range"),
    (_with_face0([0, 4, 6, -1]), g.PreconditionFailed, "out-of-range"),
    (_cube_with_true_index, g.PreconditionFailed, "non-integer vertex index"),
    (_cube_with_label(None), g.PreconditionFailed, "distinct non-empty strings"),
    (_cube_with_label(7), g.PreconditionFailed, "distinct non-empty strings"),
    (lambda c: (c.vertices, _faces(c)[:3]), g.PreconditionFailed, "at least 4 faces"),
    (_hexagonal_prism_pushed, g.DegenerateFace, "not planar"),
    (_cube_with_dented_face, g.DegenerateFace, "polygon is not convex"),
], ids=["not-n-by-3", "non-finite", "3-vertices", "2-gon", "repeat", "index-8",
        "index-minus-1", "index-true", "label-none", "label-7", "3-faces", "non-planar",
        "non-convex-polygon"])
def test_validate_rejections(cube, build, error, message):
    vertices, faces = build(cube)
    with pytest.raises(error, match=message):
        g.validate(vertices, faces)


@pytest.mark.parametrize("data", [
    {"vertices": [[0, 0, 0]]}, {"faces": []}, [[[0, 0, 0]], []], "cube"])
def test_load_polyhedron_needs_both_keys(data):
    with pytest.raises(g.PreconditionFailed, match="needs 'vertices' and 'faces' keys"):
        g.load_polyhedron(data)


def test_polyhedron_arrays_are_read_only():
    P = g.unit_cube()
    arrays = [P.vertices, P.normals, P.offsets, P.edge_endpoints, P.edge_faces, P.inv_sin,
              P.reflection_linear, P.reflection_translation, P.frames, *P.frames[0],
              *(P.face_polygon(f) for f in range(P.n_faces))]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 7.0


def test_validate_leaves_callers_vertices_alone():
    cube = g.unit_cube()
    V = np.array(cube.vertices)                  # float64 and writable
    P = g.validate(V, _faces(cube))
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
    arrays = [*P.normals, P.offsets]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[:] *= -1
    assert P.point_in_face(z0, centre)
    assert np.array_equal(P.normals[z0], [0.0, 0.0, 1.0])


# scalar face ids that name no face of the cube, with the refusal each meets
_BAD_FACE_ID = [(-1, "face id -1 out of range 0..5"), (6, "face id 6 out of range 0..5"),
                (2.5, "face id 2.5 is not an integer"), (True, "face id True is not an integer")]


@pytest.mark.parametrize("f, message", _BAD_FACE_ID)
def test_nearest_edge_refuses_a_bad_face_id(cube, f, message):
    with pytest.raises(g.PreconditionFailed, match=re.escape(message)):
        cube.nearest_edge(f, (0.5, 0.5, 0.0))
    assert cube.nearest_edge(np.int64(4), (0.5, 0.5, 0.0)) == (0.5, 0)


@pytest.mark.parametrize("f, message", _BAD_FACE_ID)
def test_point_in_face_refuses_a_bad_face_id(cube, f, message):
    with pytest.raises(g.PreconditionFailed, match=re.escape(message)):
        cube.point_in_face(f, (0.5, 0.5, 1.0))
    assert cube.point_in_face(np.int64(5), (0.5, 0.5, 1.0))


def _np_cross_frame(v):
    """``tangent_frame`` by ``np.cross``, as it was built before its float cross."""
    a = np.array([1.0, 0.0, 0.0]) if abs(v[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    t1 = g.unit(np.cross(v, a))
    return np.vstack([t1, np.cross(v, t1)])


@pytest.mark.parametrize("helper", ["e_x", "e_y"])
def test_tangent_frame_matches_numpy_cross(helper):
    # |v_0| < 0.9 takes e_x as the helper, |v_0| >= 0.9 takes e_y; the axes,
    # signed zeros and the 0.9 boundary go first
    rng = np.random.default_rng(23)
    V = rng.normal(size=(10000, 3))
    lo, hi = (0.9, 1.0) if helper == "e_y" else (0.0, 0.9)
    V[:, 0] = rng.choice([-1.0, 1.0], 10000) * rng.uniform(lo, hi, 10000)
    V[:, 1:] *= np.sqrt(1.0 - V[:, :1] ** 2) / np.linalg.norm(V[:, 1:], axis=1)[:, None]
    if helper == "e_y":
        edge = [[1.0, 0.0, 0.0], [-1.0, -0.0, 0.0], [0.9, 0.0, np.sqrt(0.19)]]
    else:
        edge = [[0.0, 1.0, 0.0], [0.0, 0.0, -1.0], [-0.0, -1.0, 0.0],
                [np.nextafter(0.9, 0.0), np.sqrt(0.19), 0.0]]
    V = np.concatenate([np.array(edge), V])
    assert np.all((np.abs(V[:, 0]) >= 0.9) == (helper == "e_y"))
    for v in V:
        assert g.tangent_frame(v).tobytes() == _np_cross_frame(v).tobytes()


def test_json_round_trip(cube):
    data = g.dump_polyhedron(cube)
    again = g.load_polyhedron(json.loads(json.dumps(data)))
    assert again.n_faces == 6 and len(again.edge_endpoints) == 12
    assert np.allclose(again.vertices, cube.vertices)
    assert again.labels == cube.labels
    assert np.allclose(again.normals, cube.normals)


# ---------------------------------------------------------------------------
# reflection
# ---------------------------------------------------------------------------

def test_reflect_floor_mirror(cube):
    floor = cube.normals[cube.face_index("z0")]
    out = g.reflect_direction(np.array([0.3, -0.4, -0.5]), floor)
    assert np.allclose(out, [0.3, -0.4, 0.5])


def test_reflect_tangent_fixed(cube):
    floor = cube.normals[cube.face_index("z0")]
    theta = np.array([1.0, 1.0, 0.0]) / SQRT2
    assert np.allclose(g.reflect_direction(theta, floor), theta)


def test_reflect_involution_and_norm(cube):
    rng = np.random.default_rng(0)
    for _ in range(1000):
        theta = rng.normal(size=3)
        theta /= np.linalg.norm(theta)
        n = cube.normals[rng.integers(0, 6)]
        once = g.reflect_direction(theta, n)
        twice = g.reflect_direction(once, n)
        assert np.abs(twice - theta).max() < 1e-12
        assert abs(np.linalg.norm(once) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# ray casting
# ---------------------------------------------------------------------------

class _HitKind(Enum):
    FACE = "face"
    EDGE = "edge"
    VERTEX = "vertex"


class _Hit(NamedTuple):
    """A ray's first boundary hit, as these tests read it.  ``point`` is the
    float triple of the hit; ``edge_distance`` its signed distance to the
    boundary of the hit face (0 for a VERTEX hit), negative outside it."""

    kind: _HitKind
    point: tuple
    length: float
    face: int | None = None
    edge: int | None = None
    vertex: int | None = None
    edge_distance: float = math.inf


def _first_hit(m, theta, P):
    """The first hit of the ray ``m + t * theta`` as ``billiard.orbit``
    takes it: the cast kernel, a FACE hit over 2 * ``plane`` from the
    boundary, else what ``billiard._near_end`` makes of it; None where the
    ray meets no face ahead."""
    f, t, q, edist, edge = g._cast(m, theta, P)
    if f < 0:
        return None
    end = bl._near_end(P, f, q, edist, edge, 0) if edist <= 2.0 * P.tol.plane else None
    if end is None:
        return _Hit(_HitKind.FACE, q, t, f, None, None, edist)
    if end.kind is bl.SingularityKind.VERTEX_HIT:
        return _Hit(_HitKind.VERTEX, q, t, f, None, end.vertex, 0.0)
    return _Hit(_HitKind.EDGE, q, t, f, end.edge, None, edist)


def test_cast_axis_ray(cube):
    hit = _first_hit(np.array([0.5, 0.5, 0.0]), np.array([0.0, 0.0, 1.0]), cube)
    assert hit.kind is _HitKind.FACE
    assert cube.labels[hit.face] == "z1"
    assert np.allclose(hit.point, [0.5, 0.5, 1.0])
    assert abs(hit.length - 1.0) < 1e-12


def test_cast_diagonal_hits_edge(cube):
    # equal x/y advance reaches the planes x=1 and y=1 together at z=0.5
    hit = _first_hit(np.array([0.5, 0.5, 0.0]), np.array([1.0, 1.0, 1.0]) / SQRT3, cube)
    assert hit.kind is _HitKind.EDGE
    assert np.allclose(hit.point, [1.0, 1.0, 0.5])
    assert abs(hit.length - 0.5 * SQRT3) < 1e-12
    pts = cube.vertices[cube.edge_endpoints[hit.edge]]
    assert np.allclose(pts[:, 0], 1.0) and np.allclose(pts[:, 1], 1.0)


def test_cast_slanted_ray(cube):
    hit = _first_hit(np.array([0.25, 0.5, 0.0]), np.array([1.0, 0.0, 1.0]) / SQRT2, cube)
    assert hit.kind is _HitKind.FACE
    assert cube.labels[hit.face] == "x1"
    assert np.allclose(hit.point, [1.0, 0.5, 0.75])


def test_cast_corner_hits_vertex(cube):
    hit = _first_hit(np.array([0.25, 0.25, 0.0]), np.array([1.0, 1.0, 4.0 / 3.0]), cube)
    assert hit.kind is _HitKind.VERTEX
    assert np.allclose(hit.point, [1.0, 1.0, 1.0])


def test_no_advance_outward_and_tangent(cube):
    # the in-face tangent start is covered by the orbit (test_classify_tangent)
    assert g._cast(np.array([0.5, 0.5, 0.0]), np.array([0.0, 0.0, -1.0]), cube)[0] == -1


def test_hit_point_on_face(cube):
    rng = np.random.default_rng(3)
    for _ in range(300):
        m = np.array([rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9), 0.0])
        theta = rng.normal(size=3)
        theta[2] = abs(theta[2]) + 0.2
        theta /= np.linalg.norm(theta)
        hit = _first_hit(m, theta, cube)
        assert abs(cube.normals[hit.face] @ hit.point + cube.offsets[hit.face]) < 1e-9
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
            assert np.all((pts @ P.normals.T + P.offsets).min(axis=1) >= -1e-9)


def _random_in_face(P, f, rng):
    poly = P.face_polygon(f)
    w = rng.random(len(poly))
    w /= w.sum()
    return w @ poly


def test_distance_helpers():
    assert g.line_line_distance(np.zeros(3), np.array([1.0, 0, 0]),
                                np.array([0, 1.0, 0]), np.array([0, 0, 1.0])) == 1.0


def test_vec3_rejects_non_finite_arrays():
    # a float64 3-vector takes the same checked path as any other input
    for bad in ([np.nan, 0, 1], [np.inf, 0, 1], [0, -np.inf, 1]):
        with pytest.raises(ValueError, match="non-finite"):
            g.vec3(np.array(bad, dtype=float))
        with pytest.raises(ValueError, match="non-finite"):
            g.unit(np.array(bad, dtype=float))


def test_unit_has_the_bits_of_dividing_by_the_norm():
    # unit takes its norm as sqrt(v @ v), without np.linalg.norm's wrapper;
    # the quotient stays that of the norm, at every scale from 1e-8 to 1e8
    rng = np.random.default_rng(39)
    v = rng.normal(size=(20_000, 3)) * 10.0 ** rng.uniform(-8.0, 8.0, size=(20_000, 1))
    got = np.array([g.unit(x) for x in v])
    ref = np.array([x / np.linalg.norm(x) for x in v])
    assert got.tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# _first_hit against a numpy reference
# ---------------------------------------------------------------------------

def _reference_first_hit(m, theta, P):
    """The vectorized numpy formulation of :func:`_first_hit`."""
    tol = P.tol
    s = np.asarray(m, float) @ P.normals.T + P.offsets
    d = P.normals @ theta
    t = np.full(len(d), np.inf)
    np.divide(s, -d, out=t, where=d < -g.ANGLE)
    t[t <= 0.0] = np.inf
    f = int(np.argmin(t))
    tf = float(t[f])
    if not np.isfinite(tf):
        return None
    q = m + tf * theta

    verts = P.face_polygon(f)
    diff = verts - q
    vdist2 = np.einsum("ij,ij->i", diff, diff)
    v_local = int(vdist2.argmin())
    if vdist2[v_local] <= tol.plane * tol.plane:
        return _Hit(_HitKind.VERTEX, q, tf, face=f,
                     vertex=int(P.boundaries[f][v_local]), edge_distance=0.0)
    # the face's edges from the edge arrays, not from the stepping tables
    ids = [k for k, fs in enumerate(P.edge_faces.tolist()) if f in fs]
    A = P.vertices[P.edge_endpoints[ids, 0]]
    seg = P.vertices[P.edge_endpoints[ids, 1]] - A
    L = np.linalg.norm(seg, axis=1)
    U = seg / L[:, None]
    w = q - A
    tt = np.clip(np.einsum("ej,ej->e", w, U), 0.0, L)
    dvec = w - tt[:, None] * U
    ed2 = np.einsum("ej,ej->e", dvec, dvec)
    k = int(ed2.argmin())
    edist = float(np.sqrt(ed2[k]))
    if edist <= tol.plane:
        return _Hit(_HitKind.EDGE, q, tf, face=f, edge=int(ids[k]), edge_distance=edist)
    return _Hit(_HitKind.FACE, q, tf, face=f, edge_distance=edist)


def _hit_bits(hit):
    """A hit's fields, its floats as bytes; None for None."""
    if hit is None:
        return None
    return (hit.kind, hit.face, hit.edge, hit.vertex,
            np.array([*hit.point, hit.length, hit.edge_distance]).tobytes())


def _assert_same_hit(m, theta, P, tie=False, edges=()):
    """Both kernels agree; returns the hit (None where no face lies ahead).

    With ``tie`` the ray is aimed at an edge or vertex, where several face
    planes are reached at the same length up to rounding; the kernels sum in
    different orders, so each may pick another of those faces.  The ray is
    aimed equally near the ``edges``, so an EDGE hit may name any of them.
    """
    m, theta = np.asarray(m, float), np.asarray(theta, float)
    got = _first_hit(m, theta, P)
    ref = _reference_first_hit(m, theta, P)
    assert (got is None) == (ref is None)
    # float triples, as orbit passes them, give the same hit to the bit
    assert _hit_bits(_first_hit(tuple(m.tolist()), tuple(theta.tolist()), P)) == _hit_bits(got)
    if got is None:
        return None
    # the kernels sum in different orders: allow 1e-12 per unit of ray length
    # (rays inside these solids are at most 3 long; outward rays from the
    # boundary cross far-away face planes outside the solid)
    tol = 1e-12 * max(1.0, ref.length)
    ids, side = _side_distances(P, got.face, np.array(got.point))
    outside = side.min() < -tol
    if outside:
        # a ray from the boundary aimed outward meets a plane outside its
        # face; the reference measures the distance to the nearest edge
        # there, _first_hit the (negative) one past the farthest-crossed
        # edge line, so the hit is an EDGE or VERTEX hit
        assert got.kind is (_HitKind.VERTEX if ref.kind is _HitKind.VERTEX
                            else _HitKind.EDGE)
        assert got.vertex == ref.vertex
        if got.kind is _HitKind.EDGE:
            assert got.edge_distance < 0.0
            assert abs(got.edge_distance - side.min()) <= tol
            assert side[ids.index(got.edge)] <= side.min() + tol
    else:
        assert (got.kind, got.vertex) == (ref.kind, ref.vertex)
        assert got.edge == ref.edge or {got.edge, ref.edge} <= set(edges)
        assert abs(got.edge_distance - ref.edge_distance) <= tol
    if not tie or got.kind is _HitKind.FACE:
        assert got.face == ref.face
    elif got.kind is _HitKind.EDGE:
        assert {got.face, ref.face} <= set(P.edge_faces[got.edge].tolist())
    else:
        assert all(got.vertex in P.boundaries[h.face] for h in (got, ref))
    assert isinstance(got.point, tuple) and len(got.point) == 3
    assert all(isinstance(x, float) for x in got.point)
    assert np.abs(got.point - ref.point).max() <= tol
    assert abs(got.length - ref.length) <= tol
    return got


def _side_distances(P, f, q):
    """Face ``f``'s edge ids and the signed distances from ``q``, in f's
    plane, to the lines of those edges, positive inside f: the side-product
    test, by numpy."""
    ids = [k for k, fs in enumerate(P.edge_faces.tolist()) if f in fs]
    a, b = P.vertices[P.edge_endpoints[ids]].transpose(1, 0, 2)
    inward = np.cross(P.normals[f], b - a)
    inward /= np.linalg.norm(inward, axis=1)[:, None]
    inward *= np.sign(np.einsum("ej,ej->e", P.face_polygon(f).mean(axis=0) - a, inward))[:, None]
    return ids, np.einsum("ej,ej->e", q - a, inward)


def _rotated_box(tol=None):
    rng = np.random.default_rng(17)
    Q, R = np.linalg.qr(rng.normal(size=(3, 3)))
    Q = Q * np.sign(np.diag(R))
    B = g.box(2.0, 1.0, 0.5)
    faces = _faces(B)
    return g.validate(B.vertices @ Q.T + [0.3, -1.0, 2.0], faces, tol)


def _roof(rise=5e-4, tol=None):
    """A box [0, 2] x [0, 1] x [0, 1] whose top rises ``rise`` to a ridge at
    x = 1: the two roof faces meet at a dihedral 2 * ``rise`` from pi, so
    their 1 / sin is about 1 / (2 * ``rise``), by default 1e3, the largest
    among these solids."""
    h = 1.0 + rise
    vs = [(0, 0, 0), (2, 0, 0), (2, 1, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1),
          (2, 0, 1), (2, 1, 1), (1, 0, h), (1, 1, h)]
    faces = [("z0", [0, 3, 2, 1]), ("x0", [0, 4, 5, 3]), ("x1", [1, 2, 7, 6]),
             ("y0", [0, 1, 6, 8, 4]), ("y1", [3, 5, 9, 7, 2]),
             ("ra", [4, 8, 9, 5]), ("rb", [8, 6, 7, 9])]
    return g.validate(vs, faces, tol)


SOLIDS = {
    "cube": g.unit_cube,
    "tetrahedron": g.regular_tetrahedron,
    "box": lambda tol=None: g.box(2.0, 1.0, 0.5, tol=tol),
    "rotated-box": _rotated_box,
    "roof": _roof,
}


@pytest.mark.parametrize("name", sorted(SOLIDS))
def test_edge_arrays_list_each_side_once(name):
    # E = V + F - 2 (Euler); rows (i, j) with i < j, strictly sorted; (i, j)
    # is a side of the boundaries of its two faces and of no other face
    P = SOLIDS[name]()
    E = len(P.vertices) + P.n_faces - 2
    for a in (P.edge_endpoints, P.edge_faces):
        assert a.dtype.kind == "i" and a.shape == (E, 2)
    rows = [tuple(r) for r in P.edge_endpoints.tolist()]
    assert all(i < j for i, j in rows) and rows == sorted(set(rows))
    sides = [{frozenset((b[k - 1], b[k])) for k in range(len(b))} for b in P.boundaries]
    for ij, fs in zip(rows, P.edge_faces.tolist()):
        assert [f for f, s in enumerate(sides) if frozenset(ij) in s] == sorted(fs)



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
    assert kinds == {_HitKind.FACE}
    # rays aimed at every vertex and at random points of every edge
    for m in starts[:20]:
        for v in range(len(V)):
            kinds.add(_assert_same_hit(m, g.unit(V[v] - m), P, tie=True).kind)
        for a, b in V[P.edge_endpoints]:
            q = a + rng.random() * (b - a)
            kinds.add(_assert_same_hit(m, g.unit(q - m), P, tie=True).kind)
    assert {_HitKind.EDGE, _HitKind.VERTEX} <= kinds
    # 1e-6 from a vertex, inside its face: a face hit, though near the vertex
    for f in range(P.n_faces):
        poly = P.face_polygon(f)
        for v in poly:
            q = v + 1e-6 * g.unit(poly.mean(axis=0) - v)
            assert _assert_same_hit(starts[0], g.unit(q - starts[0]), P).kind is _HitKind.FACE
    # starts 1e-12 outside the boundary at vertices and face centres, with
    # directions into and out of the solid, so some rays never reach a face
    # plane and some meet one outside its face.  Every plane through the
    # start lies behind the ray (t < 0) or is entered from outside, by far
    # more than rounding: on the boundary itself the sign of t ~ 1e-16 would
    # be the kernels' rounding, and a hit counts at any t > 0
    no_advance = outside = 0
    centre = V.mean(axis=0)
    for v in range(len(V)):
        for theta in dirs[:200]:
            hit = _assert_same_hit(V[v] + 1e-12 * g.unit(V[v] - centre), theta, P, tie=True)
            no_advance += hit is None
            outside += hit is not None and hit.edge_distance < -P.tol.plane
    for f in range(P.n_faces):
        n = P.normals[f]
        m = P.face_polygon(f).mean(axis=0) - 1e-12 * n
        no_advance += _assert_same_hit(m, -n, P) is None
        for theta in dirs[:50]:
            hit = _assert_same_hit(m, theta, P)
            outside += hit is not None and hit.edge_distance < -P.tol.plane
    assert no_advance > 0 and outside > 0
    assert _assert_same_hit(starts[0], np.zeros(3), P) is None


def test_first_hit_matches_reference_on_engineered_rays(cube):
    rays = [([0.5, 0.5, 0.0], [0.0, 0.0, 1.0]),                       # axis
            ([0.5, 0.5, 0.0], np.array([1.0, 1.0, 1.0]) / SQRT3),     # edge
            ([0.25, 0.5, 0.0], np.array([1.0, 0.0, 1.0]) / SQRT2),    # slanted
            ([0.25, 0.25, 0.0], np.array([1.0, 1.0, 4.0 / 3.0])),     # vertex
            ([0.5, 0.5, 0.0], [0.0, 0.0, -1.0])]                      # no advance
    hits = [_assert_same_hit(m, theta, cube) for m, theta in rays]
    assert [h and h.kind for h in hits] == [_HitKind.FACE, _HitKind.EDGE, _HitKind.FACE,
                                             _HitKind.VERTEX, None]


@pytest.mark.parametrize("name", sorted(SOLIDS))
def test_first_hit_matches_reference_near_vertices(name):
    # _first_hit scans a face's vertices only for a hit within 2 * plane of an
    # edge; aim 0.5, 1.5 and 2.5 * plane from each vertex, into its face and
    # along one of its edges, on both sides of either threshold
    P = SOLIDS[name]()
    start = P.vertices.mean(axis=0)
    found = {}
    for f in range(P.n_faces):
        poly = P.face_polygon(f)
        for i, v in enumerate(poly):
            # into the face both edges at v can be equally near
            at_v = [e for e, ij in enumerate(P.edge_endpoints.tolist())
                    if P.boundaries[f][i] in ij and f in P.edge_faces[e]]
            for w, edges in ((poly.mean(axis=0) - v, at_v), (poly[i - 1] - v, ())):
                for mult in (0.5, 1.5, 2.5):
                    q = v + mult * P.tol.plane * g.unit(w)
                    hit = _assert_same_hit(start, g.unit(q - start), P, tie=True, edges=edges)
                    found.setdefault(mult, set()).add(hit.kind)
    assert found[0.5] == {_HitKind.VERTEX}
    assert _HitKind.VERTEX not in found[1.5] | found[2.5]
    assert found[1.5] | found[2.5] >= {_HitKind.EDGE, _HitKind.FACE}


def _inward(P, f, a, b):
    """The unit vector in face ``f``'s plane normal to its side a-b, into the face."""
    inward = g.unit(np.cross(P.normals[f], b - a))
    return inward if inward @ (P.face_polygon(f).mean(axis=0) - a) > 0.0 else -inward


# offsets from an edge or a vertex, in units of plane, on both sides of the
# EDGE and VERTEX verdicts at 1 and of _first_hit's vertex scan at 2
_BAND = (0.5, 0.99, 1.01, 1.5, 1.99, 2.01, 2.5, 4.0)


@pytest.mark.parametrize("name", sorted(SOLIDS))
def test_first_hit_matches_reference_across_the_screen_band(name):
    # _first_hit returns a hit over 2 * plane from every edge line as a FACE
    # hit and scans the vertices for every nearer one; aim at each offset
    # from each edge's midpoint, and from each vertex along the bisector of
    # its face angle
    P = SOLIDS[name]()
    plane, start = P.tol.plane, P.vertices.mean(axis=0)
    found = {}
    for f in range(P.n_faces):
        poly = P.face_polygon(f)
        for i, v in enumerate(poly):
            a, b = poly[i - 1], poly[(i + 1) % len(poly)]
            # on the bisector both edges at v are equally near
            at_v = [e for e, ij in enumerate(P.edge_endpoints.tolist())
                    if P.boundaries[f][i] in ij and f in P.edge_faces[e]]
            targets = [((a + v) / 2.0, _inward(P, f, a, v), (), "edge"),
                       (v, g.unit(g.unit(a - v) + g.unit(b - v)), at_v, "vertex")]
            for base, out, edges, where in targets:
                for k in _BAND:
                    q = base + k * plane * out
                    hit = _assert_same_hit(start, g.unit(q - start), P, edges=edges)
                    found.setdefault((where, k), set()).add(hit.kind)
    for k in _BAND:
        assert found["edge", k] == {_HitKind.EDGE if k < 1.0 else _HitKind.FACE}
        assert (found["vertex", k] == {_HitKind.VERTEX} if k < 1.0
                else _HitKind.VERTEX not in found["vertex", k])
    assert found["vertex", 4.0] == {_HitKind.FACE}


def test_validate_refuses_coplanar_neighbours():
    # z0 split along its diagonal into two coplanar triangles: no plane
    # distance measures the diagonal (1 / sin is inf), so validate refuses
    # the solid, as given and rigidly moved, before it divides by that sin;
    # the roof's faces, at a dihedral 1e-3 from pi, are a solid.  Near flat
    # is refused too, where the rounding of the distance, 2e-15 * 2.45 / sin
    # on the roof, would exceed plane / 2: sin 9.8e-6 at the default plane
    vs = np.array([(x, y, z) for z in (0.0, 1.0) for y in (0.0, 1.0) for x in (0.0, 1.0)])
    faces = [*((lab, idx) for lab, idx in _faces(g.unit_cube()) if lab != "z0"),
             ("z0a", [0, 2, 3]), ("z0b", [0, 3, 1])]
    rng = np.random.default_rng(33)
    motions = [(np.eye(3), np.zeros(3))]
    for _ in range(3):
        Q, R = np.linalg.qr(rng.normal(size=(3, 3)))
        Q = Q * np.sign(np.diag(R))
        Q[:, 0] *= np.linalg.det(Q)                             # a rotation
        motions.append((Q, rng.normal(size=3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")                          # no 1 / sin 0
        for Q, shift in motions:
            with pytest.raises(g.DegenerateFace, match="faces 'z0a' and 'z0b' are coplanar"):
                g.validate(vs @ Q.T + shift, faces)
        roof = _roof()
        assert 8e4 < np.nanmax(_roof(6e-6).inv_sin) < 9e4
        for refuse in (lambda: _roof(4e-6), lambda: _roof(tol=g.Tolerances(plane=1e-12))):
            with pytest.raises(g.DegenerateFace, match="faces 'ra' and 'rb' are coplanar"):
                refuse()
    assert 900.0 < np.nanmax(roof.inv_sin) < 1100.0
    assert _roof(tol=g.Tolerances(plane=1e-11)).tol.plane == 1e-11
    assert g.unit_cube(g.Tolerances(plane=1e-14)).tol.plane == 1e-14


def test_tolerances_refuse_a_field_not_finite_and_positive():
    # unrefused, plane 0 divided by zero in the edge-angle gate, -1e-9 put
    # a vertex outside its face (NonConvex), nan or a negative sing built a
    # solid with no error, and a string failed the comparison (TypeError)
    for field, bad in (("plane", 0.0), ("plane", -1e-9), ("plane", math.nan),
                       ("sing", -1.0), ("sing", "1e-7"), ("plane", True)):
        message = f"tolerance {field} must be finite and positive, got {bad!r}"
        with pytest.raises(g.PreconditionFailed, match=re.escape(message)):
            g.unit_cube(g.Tolerances(**{field: bad}))


def _clipped_first_hit(m, theta, P):
    """``_first_hit`` by the clipped segment distance in place of the
    neighbour planes, the reference for orbits: every hit measures its
    distance to each edge of its face."""
    neg_angle, plane = -g.ANGLE, P.tol.plane
    mx, my, mz = m
    tx, ty, tz = theta
    tf, f = math.inf, -1
    for k, (nx, ny, nz, c, *_) in enumerate(P.rows):
        d = nx * tx + ny * ty + nz * tz
        if d < neg_angle:
            t = (nx * mx + ny * my + nz * mz + c) / -d
            if 0.0 < t < tf:
                tf, f = t, k
    if f < 0:
        return None
    qx, qy, qz = q = mx + tf * tx, my + tf * ty, mz + tf * tz
    edges = []
    for e in np.flatnonzero((P.edge_faces == f).any(axis=1)).tolist():
        a, b = P.vertices[P.edge_endpoints[e]]
        edges.append((*a.tolist(), *(b - a).tolist(), float((b - a) @ (b - a)), e))
    best, edge = math.inf, -1
    for ax, ay, az, ex, ey, ez, l2, e in edges:
        wx, wy, wz = qx - ax, qy - ay, qz - az
        s = (wx * ex + wy * ey + wz * ez) / l2
        s = 0.0 if s < 0.0 else 1.0 if s > 1.0 else s
        dx, dy, dz = wx - s * ex, wy - s * ey, wz - s * ez
        r2 = dx * dx + dy * dy + dz * dz
        if r2 < best:
            best, edge = r2, e
    if best <= 4.0 * plane * plane:
        r2v, vertex = math.inf, -1
        for (x, y, z), v in zip(P.face_polygon(f).tolist(), P.boundaries[f]):
            dx, dy, dz = x - qx, y - qy, z - qz
            r2 = dx * dx + dy * dy + dz * dz
            if r2 < r2v:
                r2v, vertex = r2, v
        if r2v <= plane * plane:
            return _Hit(_HitKind.VERTEX, q, tf, face=f, vertex=vertex, edge_distance=0.0)
    edist = math.sqrt(best)
    if edist <= plane:
        return _Hit(_HitKind.EDGE, q, tf, face=f, edge=edge, edge_distance=edist)
    return _Hit(_HitKind.FACE, q, tf, f, None, None, edist)


def _reference_orbit(x, n_max, P, first_hit):
    """``billiard.orbit`` over whole hits, the reference for its cast-kernel
    loop: the same loop with every cast made by ``first_hit``, a kernel
    shaped like :func:`_first_hit`."""
    tol, rows = P.tol, P.rows
    m, (tx, ty, tz) = tuple(x.m.tolist()), x.theta.tolist()
    faces, ms, thetas = [x.face], [*m], [tx, ty, tz]
    flagged = []

    dist, edge = P.nearest_edge(x.face, x.m)
    if dist <= tol.plane:
        hit = _Hit(_HitKind.EDGE, m, 0.0, face=x.face, edge=edge, edge_distance=dist)
    cos_n = float(bl._start_cos(x.theta, P.normals[x.face]))
    while not dist <= tol.plane:
        hit = first_hit(m, (tx, ty, tz), P) if cos_n > g.ANGLE else None
        if hit is None or hit.kind is not _HitKind.FACE or len(faces) == n_max:
            break
        nx, ny, nz, _, _ = rows[hit.face]
        k = 2.0 * (tx * nx + ty * ny + tz * nz)
        tx, ty, tz = tx - k * nx, ty - k * ny, tz - k * nz
        cos_n = tx * nx + ty * ny + tz * nz
        m = hit.point
        faces.append(hit.face)
        ms += m
        thetas += tx, ty, tz
        if hit.edge_distance <= tol.sing:
            flagged.append(len(faces) - 1)
        if len(faces) == n_max:
            break
    K, end = bl.SingularityKind, None
    if hit is None:
        end = bl.SingularityEvent(K.TANGENT_IN_FACE, len(faces) - 1, np.array(m),
                                  face=faces[-1])
    elif hit.kind is not _HitKind.FACE:
        end = bl.SingularityEvent(K.VERTEX_HIT if hit.kind is _HitKind.VERTEX else K.EDGE_HIT,
                                  len(faces) - 1, np.array(hit.point), edge=hit.edge,
                                  vertex=hit.vertex, face=hit.face)
    return bl.OrbitRecord(np.array(faces), np.array(ms).reshape(-1, 3),
                          np.array(thetas).reshape(-1, 3), [P.labels[f] for f in faces],
                          end, flagged)


def _orbit_bits(rec):
    """An orbit record's fields, its arrays as bytes."""
    ev = rec.singularity
    return (rec.faces.tobytes(), rec.m.tobytes(), rec.theta.tobytes(), rec.word,
            rec.near_singular_steps,
            ev and (ev.kind, ev.step, ev.point.tobytes(), ev.edge, ev.vertex, ev.face))


@pytest.mark.parametrize("name", sorted(SOLIDS))
def test_orbits_are_the_clipped_distance_stepping_bitwise(name):
    # inside a face the neighbour planes give the clipped distance up to
    # rounding, so no orbit moves: random starts, and starts 0.5 to 3 * plane from an edge,
    # under the default tolerances and under coarse ones that end orbits on
    # edges and flag bounces near them.  orbit steps by the cast kernel, so
    # the reference is the loop over whole hits, run with the clipped
    # distance and with _first_hit
    rng = np.random.default_rng(32 + sorted(SOLIDS).index(name))
    ended = flagged = 0
    for P in (SOLIDS[name](), SOLIDS[name](tol=g.Tolerances(plane=1e-3, sing=1e-2))):
        m, theta, faces = bl.random_phase_points(P, 40, rng)
        starts = [(bl.PhasePoint(int(f), x, t), 200) for f, x, t in zip(faces, m, theta)]
        for f in range(P.n_faces):
            poly = P.face_polygon(f)
            for i, v in enumerate(poly):
                a = poly[i - 1]
                x = a + rng.uniform(0.1, 0.9) * (v - a) \
                    + rng.uniform(0.5, 3.0) * P.tol.plane * _inward(P, f, a, v)
                t = bl.sample_inward_directions(P, np.array([f]), rng)[0]
                starts.append((bl.phase_point(P, x, t, face=f), 20))
        for x, n in starts:
            rec = bl.orbit(x, n, P)
            for first_hit in (_clipped_first_hit, _first_hit):
                assert _orbit_bits(rec) == _orbit_bits(_reference_orbit(x, n, P, first_hit))
            ended += not rec.completed
            flagged += len(rec.near_singular_steps)
    assert ended > 0 and flagged > 0


# ---------------------------------------------------------------------------
# nearest edge of a face against numpy oracles: the clipped segments inside
# the face, the side-product test outside it
# ---------------------------------------------------------------------------

def _oracle_edge_distances(P, f, q):
    """Face ``f``'s edge ids and the distances from ``q`` to those segments."""
    ids = [k for k, fs in enumerate(P.edge_faces.tolist()) if f in fs]
    a = P.vertices[P.edge_endpoints[ids, 0]]
    ab = P.vertices[P.edge_endpoints[ids, 1]] - a
    t = np.clip(np.einsum("ej,ej->e", q - a, ab) / np.einsum("ej,ej->e", ab, ab), 0.0, 1.0)
    return ids, np.linalg.norm(q - (a + t[:, None] * ab), axis=1)


def _assert_nearest_edge(P, f, q):
    q = np.asarray(q, float)
    dist, edge = P.nearest_edge(f, q)
    assert P.point_in_face(f, q) == (dist >= -P.tol.plane)
    ids, side = _side_distances(P, f, q)
    if side.min() < -1e-13:
        # outside: minus the distance past the farthest-crossed edge line,
        # at most the distance to the face
        assert dist < 0.0 and abs(dist - side.min()) <= 1e-13
        assert side[ids.index(edge)] <= side.min() + 1e-13
        assert -dist <= _oracle_edge_distances(P, f, q)[1].min() + 1e-13
        return dist, edge
    ids, ref = _oracle_edge_distances(P, f, q)
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
        for e_id in (e_id for e_id, fs in enumerate(P.edge_faces.tolist()) if f in fs):
            a, b = P.vertices[P.edge_endpoints[e_id]]
            u, inward = g.unit(b - a), _inward(P, f, a, b)
            # on both vertices: distance 0, an edge through that vertex
            for v in (a, b):
                dist, edge = _assert_nearest_edge(P, f, v)
                assert abs(dist) <= 1e-15 and v.tolist() in P.vertices[
                    P.edge_endpoints[edge]].tolist()
            # beyond either end of the edge, in the face plane: outside the
            # face on the edge's line (no face angle here exceeds 90
            # degrees), and on either side of it
            for end, out in ((a, -u), (b, u)):
                for r in (1e-3, 0.5, 2.0):
                    dist, _ = _assert_nearest_edge(P, f, end + r * out)
                    assert -r - 1e-14 <= dist < 0.0
                    _assert_nearest_edge(P, f, end + r * out + rng.uniform(-1, 1) * inward)
            # 0.5x and 2x plane inside the face from a random point of the
            # edge, and outside it
            mid = a + rng.uniform(0.2, 0.8) * (b - a)
            for k in (-2.0, -0.5, 0.5, 2.0):
                dist, edge = _assert_nearest_edge(P, f, mid + k * plane * inward)
                assert edge == e_id and abs(dist - k * plane) <= 1e-14
                assert (dist <= plane) == (k < 1.0)
                assert P.point_in_face(f, mid + k * plane * inward) == (k > -1.0)
        # random points in and around the face
        poly = P.face_polygon(f)
        w = rng.random((50, len(poly)))
        for q in (w / w.sum(axis=1, keepdims=True)) @ poly:
            _assert_nearest_edge(P, f, q)
            _assert_nearest_edge(P, f, q + 3.0 * (q - poly.mean(axis=0)))



@pytest.mark.parametrize("name", [*sorted(SOLIDS), "flat-roof"])
def test_starts_across_an_edge_meet_one_edge_distance(name):
    # phase_point's face test and orbit's start check read one signed edge
    # distance, of the start moved onto its face plane: 2 * plane outside
    # the face is refused, within plane of an edge on either side ends at
    # once on that edge, 2 * plane inside steps.  A start up to 10 * plane
    # off the plane is moved onto it, so it follows the orbit of the start
    # on the plane, and run_word_batch, which moves its starts alike, gives
    # that orbit's word.  phase_point finds that face and that moved start
    # when the face is not given and the start lies on its outer side; moved
    # into the solid, it can lie nearer the neighbour's plane, inside that
    # face, so it is found there unless the direction does not enter the
    # neighbour.  The flat roof's ridge is near the largest 1 / sin that
    # validate accepts
    P = SOLIDS[name]() if name in SOLIDS else _roof(6e-6)
    rng = np.random.default_rng(34)
    plane = P.tol.plane
    starts, words = [], []
    for e, (ends, fs) in enumerate(zip(P.edge_endpoints, P.edge_faces.tolist())):
        a, b = P.vertices[ends]
        on = a + rng.uniform(0.2, 0.8) * (b - a)
        for f in fs:
            inward = _inward(P, f, a, b)
            across = sum(fs) - f                # the face across edge e
            # into the solid and away from the edge
            theta = g.unit(P.normals[f] + rng.uniform(0.2, 1.0) * inward
                           + rng.uniform(-1.0, 1.0) * g.unit(b - a))
            for k in (-2.0, -0.5, 0.5, 2.0):
                for h in (0.0, -9.0, -5.0, 5.0, 9.0):
                    m = on + k * plane * inward + h * plane * P.normals[f]
                    dist, edge = P.nearest_edge(f, m)
                    assert abs(dist - k * plane) <= 0.1 * plane and edge == e
                    if k < -1.0:
                        with pytest.raises(g.PreconditionFailed, match="outside the given face"):
                            bl.phase_point(P, m, theta, face=f)
                        continue
                    x = bl.phase_point(P, m, theta, face=f)
                    assert abs(float(P.normals[f] @ x.m + P.offsets[f])) <= 1e-15
                    if k > 1.0 and (h <= 0.0 or float(theta @ P.normals[across]) <= 0.0):
                        found = bl.phase_point(P, m, theta)
                        assert found.face == f and np.array_equal(found.m, x.m)
                    rec = bl.orbit(x, 20, P)
                    ev = rec.singularity
                    if h == 0.0:
                        word, kind = rec.word, ev and ev.kind
                    assert (rec.word, ev and ev.kind) == (word, kind)
                    if k < 1.0:
                        assert ev.kind is bl.SingularityKind.EDGE_HIT
                        assert (ev.step, ev.edge, ev.face) == (0, e, f)
                    else:
                        assert rec.completed and rec.n_bounces == 20
                    starts.append((m, theta, f))
                    words.append(rec.word)
    m, theta, f = (np.array(a) for a in zip(*starts))
    got, lengths, _ = bl.run_word_batch(P, m, theta, f, 20)
    for row, n, word in zip(got, lengths, words):
        assert [P.labels[i] for i in row[:n]] == word
