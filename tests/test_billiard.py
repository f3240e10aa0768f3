import inspect
from fractions import Fraction

import numpy as np
import pytest

import polybilliard as pb
from polybilliard import billiard as bl
from polybilliard.geometry import (ANGLE, Tolerances, box, point_line_distance,
                                  regular_tetrahedron, unit, unit_cube, validate)
from polybilliard.unfolding import cumulative_isometries

SQRT2 = np.sqrt(2.0)
SQRT3 = np.sqrt(3.0)


@pytest.fixture(scope="module")
def cube():
    return unit_cube()


def _pp(cube, m, theta):
    return bl.phase_point(cube, m, np.asarray(theta, float) / np.linalg.norm(theta))


def _unfolded_edge(P, rec, k, e):
    """Edge ``e`` as a point and unit direction, moved by the unfolding
    isometry of step ``k`` of the orbit ``rec``."""
    lin, trans = cumulative_isometries(P, rec.faces)
    a, b = P.vertices[P.edge_endpoints[e]]
    return a @ lin[k].T + trans[k], lin[k] @ unit(b - a)


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
    point, direction = _unfolded_edge(cube, bl.orbit(x, 1, cube), 0, ev.edge)
    assert np.allclose(np.abs(direction), [0, 0, 1.0])
    assert np.allclose(point[:2], [1.0, 1.0])


def test_classify_tangent(cube):
    # exactly tangent, and tilted inward by theta . n = 1e-10 (below angle)
    for theta in ([1.0, 0.0, 0.0], [1.0, 0.0, 1e-10]):
        x = bl.PhasePoint(cube.face_index("z0"), np.array([0.5, 0.5, 0.0]),
                          np.array(theta))
        ev = bl.classify_phase_point(x, cube)
        assert ev is not None and ev.kind is bl.SingularityKind.TANGENT_IN_FACE
        assert ev.step == 0 and ev.face == x.face


def test_start_tangency_decided_by_numpy_dot():
    # starts tilted inward by exactly ANGLE: numpy's dot decides which are
    # tangent; the plain float sum rounds otherwise for about a tenth of them
    for P in (_rotated_box(), regular_tetrahedron()):
        for f in range(P.n_faces):
            t1, t2, n = P.frames[f]
            m = P.face_polygon(f).mean(axis=0)
            for phi in np.linspace(0.0, 2.0 * np.pi, 50):
                w = ANGLE
                theta = np.sqrt(1 - w * w) * (np.cos(phi) * t1 + np.sin(phi) * t2) + w * n
                ev = bl.classify_phase_point(bl.PhasePoint(f, m, theta), P)
                tangent = ev is not None and ev.kind is bl.SingularityKind.TANGENT_IN_FACE
                assert tangent == (float(theta @ P.normals[f]) <= ANGLE)


def test_start_tangency_agrees_between_orbit_and_batch():
    # face-centre starts whose theta . n lies within about 1e-16 of ANGLE:
    # both paths take the product alike, so they agree on every tangency
    rng = np.random.default_rng(3)
    for P in (_rotated_box(), regular_tetrahedron()):
        f = rng.integers(0, P.n_faces, 2000)
        m = np.array([P.face_polygon(i).mean(axis=0) for i in f.tolist()])
        t1, t2, n = P.frames[f].transpose(1, 0, 2)
        phi = rng.uniform(0.0, 2.0 * np.pi, len(f))[:, None]
        w = ANGLE * (1.0 + rng.uniform(-1e-7, 1e-7, len(f)))[:, None]
        theta = np.sqrt(1 - w * w) * (np.cos(phi) * t1 + np.sin(phi) * t2) + w * n
        words, lengths, _ = bl.run_word_batch(P, m, theta, f, 6)
        for i in range(len(f)):
            rec = bl.orbit(bl.PhasePoint(int(f[i]), m[i], theta[i]), 6, P)
            assert [P.labels[j] for j in words[i, :lengths[i]]] == rec.word, i


def test_start_on_edge_rejected_as_singular(cube):
    # no continuation convention exists for edge starts, even inward ones
    x = bl.PhasePoint(cube.face_index("z0"), np.array([0.5, 0.0, 0.0]),
                      np.array([0.0, 1.0, 1.0]) / SQRT2)
    ev = bl.classify_phase_point(x, cube)
    assert ev is not None and ev.kind is bl.SingularityKind.EDGE_HIT
    # the edge the start lies on: z0 meets y0 along y = z = 0
    assert set(cube.edge_faces[ev.edge].tolist()) == {cube.face_index("z0"), cube.face_index("y0")}
    with pytest.raises(bl.SingularInput):
        bl.billiard_step(x, cube)
    rec = bl.orbit(x, 5, cube)
    assert not rec.completed and rec.singularity.step == 0
    assert rec.singularity.edge == ev.edge
    # a start on any edge of z0 reports that edge
    z0 = cube.face_index("z0")
    for e_id in (e_id for e_id, fs in enumerate(cube.edge_faces.tolist()) if z0 in fs):
        a, b = cube.vertices[cube.edge_endpoints[e_id]]
        x = bl.PhasePoint(z0, 0.5 * (a + b), np.array([0.0, 0.0, 1.0]))
        ev = bl.classify_phase_point(x, cube)
        assert ev.kind is bl.SingularityKind.EDGE_HIT and ev.edge == e_id
    # on the x0/z0 edge, also moving along the floor or into the far face
    x0 = cube.face_index("x0")
    for theta in ([1.0, 0.0, 0.0], unit([0.3, 0.2, 1.0])):
        x = bl.PhasePoint(z0, np.array([0.0, 0.5, 0.0]), np.array(theta))
        ev = bl.classify_phase_point(x, cube)
        assert ev.kind is bl.SingularityKind.EDGE_HIT and ev.step == 0
        assert set(cube.edge_faces[ev.edge].tolist()) == {z0, x0}


def test_phase_point_validation(cube):
    with pytest.raises(ValueError):
        bl.phase_point(cube, [0.5, 0.5, 0.5], [0, 0, 1.0])   # not on the boundary
    with pytest.raises(ValueError):
        bl.phase_point(cube, [0.5, 0.5, 0.0], [0, 0, -1.0])  # points outward
    x = bl.phase_point(cube, [0.5, 0.5, 0.0], [0, 0, 1.0])
    assert cube.labels[x.face] == "z0"
    # 5 * plane off z0's plane is accepted, found or given; 2 * plane inside
    # z0 and 5 * plane above it is 2 * plane from y0's plane, inside y0
    for m, label in (([0.5, 0.5, -5e-9], "z0"), ([0.5, 2e-9, 5e-9], "y0")):
        x = bl.phase_point(cube, m, [0, 0.6, 0.8])
        assert cube.labels[x.face] == label
        assert np.array_equal(x.m, bl.phase_point(cube, m, [0, 0.6, 0.8], face=label).m)
    # the same point aimed away from y0 is a start of z0, the nearest plane
    # whose face holds it and whose face the direction enters
    x = bl.phase_point(cube, [0.5, 2e-9, 5e-9], [0, -0.6, 0.8])
    assert cube.labels[x.face] == "z0"
    assert np.array_equal(x.m, bl.phase_point(cube, [0.5, 2e-9, 5e-9], [0, -0.6, 0.8],
                                              face="z0").m)
    with pytest.raises(pb.PreconditionFailed):                  # on no face
        bl.phase_point(cube, [0.5, 0.5, 0.5], [0, 0, 1.0])
    for face in (-1, 7):                                     # no such face id
        with pytest.raises(ValueError, match="out of range"):
            bl.phase_point(cube, [0.5, 0.5, 1.0], [0, 0, -1.0], face=face)
    with pytest.raises(ValueError, match="outside the given face"):
        bl.phase_point(cube, [1.5, 0.5, 0.0], [0.1, 0.2, 1.0], face="z0")


def test_phase_point_refuses_a_point_off_the_given_face_plane(cube):
    with pytest.raises(pb.PreconditionFailed, match="does not lie on the given face plane"):
        bl.phase_point(cube, (0.5, 0.5, 0.3), [0.1, 0.2, 1.0], face="z0")


def test_orbit_that_cannot_advance_is_tangent_at_its_start(cube, monkeypatch):
    # a ray that meets no face ahead of it: the cast kernel finds no face
    # (f = -1), and the orbit ends where it began
    x = bl.phase_point(cube, [0.5, 0.5, 0.0], unit([0.3, 0.2, 1.0]), face="z0")
    casts = []

    def cast(*args):
        casts.append(args)
        return -1, float("inf"), None, float("inf"), -1

    monkeypatch.setattr(bl, "_cast", cast)
    rec = bl.orbit(x, 5, cube)
    assert len(casts) == 1 and rec.n_bounces == 1
    assert rec.singularity.kind is bl.SingularityKind.TANGENT_IN_FACE
    assert rec.singularity.step == 0 and rec.singularity.face == cube.face_index("z0")


def test_hit_just_past_the_start_face_edge_is_an_edge_hit():
    # a start on face a, just over plane from its edge with b, aimed straight
    # at b: the hit lies about 0.95 * plane along the ray, and a third of
    # plane from that edge in b, so the orbit ends on the edge at step 0
    P = regular_tetrahedron()
    a, b = P.face_index("a"), P.face_index("b")
    e = next(e for e, fs in enumerate(P.edge_faces.tolist()) if set(fs) == {a, b})
    na, nb = P.normals[a], P.normals[b]
    inward = unit(nb - (na @ nb) * na)      # in a's plane, away from the edge
    mid = P.vertices[P.edge_endpoints[e]].mean(axis=0)
    for k in (1.01, 1.03, 1.05):
        x = bl.phase_point(P, mid + k * P.tol.plane * inward, -nb, face="a")
        ev = bl.classify_phase_point(x, P)
        assert ev is not None and ev.kind is bl.SingularityKind.EDGE_HIT, k
        assert (ev.step, ev.edge, ev.face) == (0, e, b)


def test_phase_point_refuses_a_non_integer_face_id(cube):
    m, theta = [0.5, 0.5, 1.0], [0.1, 0.2, -1.0]
    for face in (True, False, np.True_, 5.0, np.float64(5.0), [5]):
        with pytest.raises(pb.PreconditionFailed, match="not an integer"):
            bl.phase_point(cube, m, theta, face=face)
    # a numpy integer is stored as the plain int it stands for
    x = bl.phase_point(cube, m, theta, face=np.int64(cube.face_index("z1")))
    assert type(x.face) is int and cube.labels[x.face] == "z1"


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
    cast = bl._cast

    def counting_cast(m, theta, P):
        calls.append(1)
        return cast(m, theta, P)

    monkeypatch.setattr(bl, "_cast", counting_cast)
    x = _pp(cube, [0.3141, 0.2718, 0.0], [0.5772, 0.6931, 1.0])
    for n, expected in ((1, 1), (2, 1), (5, 4), (1000, 999)):
        calls.clear()
        rec = bl.orbit(x, n, cube)
        assert rec.completed and rec.n_bounces == n
        assert len(calls) == expected, n


@pytest.mark.parametrize("name", ["cube", "tetrahedron", "box"])
def test_orbit_rows_are_single_steps(name):
    # row k of a completed orbit is billiard_step of row k - 1, bit for bit;
    # and, past orbit's float triples, the face hit of row k - 1 as ndarrays:
    # the cast kernel's, over 2 * plane from the boundary or no end by _near_end
    P = {"cube": unit_cube, "tetrahedron": regular_tetrahedron,
         "box": lambda: box(2.0, 1.0, 0.5)}[name]()
    m, th, f = bl.random_phase_points(P, 30, np.random.default_rng(17))
    checked = 0
    for i in range(30):
        rec = bl.orbit(bl.PhasePoint(int(f[i]), m[i], th[i]), 25, P)
        if not rec.completed:
            continue
        assert rec.faces.shape == (25,) and rec.m.shape == rec.theta.shape == (25, 3)
        assert rec.word == [P.labels[g] for g in rec.faces]
        for k in range(1, 25):
            x = bl.PhasePoint(int(rec.faces[k - 1]), rec.m[k - 1], rec.theta[k - 1])
            y = bl.billiard_step(x, P)
            assert y.face == rec.faces[k]
            face, _, q, edist, edge = bl._cast(x.m, x.theta, P)
            assert edist > 2.0 * P.tol.plane or bl._near_end(P, face, q, edist, edge, 0) is None
            assert face == rec.faces[k]
            assert np.array(q).tobytes() == rec.m[k].tobytes()
            assert y.m.tobytes() == rec.m[k].tobytes()
            assert y.theta.tobytes() == rec.theta[k].tobytes()
        checked += 1
    assert checked >= 20


def test_singularity_point_is_an_array_of_its_own(cube):
    # every way an orbit ends gives a (3,) array that owns its data and
    # shares none with the start's m, even where it is the start's point
    K = bl.SingularityKind
    ends = [(K.EDGE_HIT, [0.5, 0.0, 0.0], [0.0, 1.0, 1.0], True),        # start on an edge
            (K.EDGE_HIT, [0.5, 0.5, 0.0], [1.0, 1.0, 1.0], False),
            (K.VERTEX_HIT, [0.5, 0.5, 0.0], [1.0, 1.0, 2.0], False),
            (K.TANGENT_IN_FACE, [0.5, 0.5, 0.0], [1.0, 0.0, 0.0], True)]
    for kind, m, theta, at_start in ends:
        x = bl.PhasePoint(cube.face_index("z0"), np.array(m), unit(theta))
        for n_max in (1, 3):
            ev = bl.orbit(x, n_max, cube).singularity
            assert ev.kind is kind and ev.step == 0
            assert isinstance(ev.point, np.ndarray) and ev.point.shape == (3,)
            assert ev.point.dtype == float and ev.point.flags.owndata
            assert not np.shares_memory(ev.point, x.m)
            assert (ev.point.tobytes() == x.m.tobytes()) == at_start


def test_counts_must_be_integers(cube):
    # a bool or a non-integer count is refused, not run as 1 or never reached
    x = _pp(cube, [0.3141, 0.2718, 0.0], [0.5772, 0.6931, 1.0])
    m, th, f = bl.random_phase_points(cube, 4, np.random.default_rng(0))
    for bad in (2.5, 3.0, True, np.bool_(True), "3", None):
        with pytest.raises(pb.PreconditionFailed, match="n_max must be an integer"):
            bl.orbit(x, bad, cube)
        with pytest.raises(pb.PreconditionFailed, match="n_labels must be an integer"):
            bl.run_word_batch(cube, m, th, f, bad)
    assert bl.orbit(x, np.int64(3), cube).n_bounces == 3
    assert bl.run_word_batch(cube, m, th, f, np.int64(3))[0].shape == (4, 3)


def test_hit_and_phase_point_are_immutable(cube):
    # an orbit's end, here an edge hit, is a frozen SingularityEvent
    x = _pp(cube, [0.3141, 0.2718, 0.0], [0.5772, 0.6931, 1.0])
    hit = bl.orbit(_pp(cube, [0.5, 0.5, 0.0], [1.0, 1.0, 1.0]), 5, cube).singularity
    for obj, name, value in ((x, "face", 1), (x, "theta", x.theta), (hit, "face", 0),
                             (hit, "step", 1)):
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
    assert hit.kind is bl.SingularityKind.EDGE_HIT and hit.edge is not None
    assert hit.vertex is None


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
        for k in range(1, rec.n_bounces):
            n = cube.normals[rec.faces[k]]
            before = rec.theta[k - 1]
            after = rec.theta[k]
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
        # at the k-th point the stored direction is outgoing; the reversed
        # orbit leaves with the negated incoming one, i.e. the reflection
        back_theta = pb.reflect_direction(-rec.theta[k], cube.normals[rec.faces[k]])
        back = bl.PhasePoint(int(rec.faces[k]), rec.m[k], back_theta)
        rev = bl.orbit(back, k + 1, cube)
        assert rev.completed
        assert np.abs(rev.m[-1] - x.m).max() < 1e-7


# ---------------------------------------------------------------------------
# terminal events in unfolded coordinates
# ---------------------------------------------------------------------------

def test_orbit_unfolded_edge_after_bounces(cube):
    # hand trace: (0.5,0,0.25) + t(2,2,1)/3 bounces on x1 at (1,.5,.5), on y1
    # at (.5,1,.75), then meets x=0 and z=1 together at (0,.5,1): the x0/z1
    # edge.  Its endpoint (0,0,1) unfolds through y=1 then x=1 to (2,2,1).
    theta = np.array([1.0, 1.0, 0.5])
    theta /= np.linalg.norm(theta)
    x = bl.phase_point(cube, [0.5, 0.0, 0.25], theta, face="y0")
    rec = bl.orbit(x, 10, cube)
    ev = rec.singularity
    assert ev.kind is bl.SingularityKind.EDGE_HIT and ev.step == 2
    assert rec.word == ["y0", "x1", "y1"]
    assert np.allclose(ev.point, [0.0, 0.5, 1.0])
    point, direction = _unfolded_edge(cube, rec, ev.step, ev.edge)
    assert np.allclose(np.abs(direction), [0, 1.0, 0])
    assert np.allclose(point, [2.0, 2.0, 1.0])


def test_orbit_vertex_hit_unfolds_its_edges(cube):
    # aimed at (2,1,1), the image of the vertex (0,1,1) across x=1: the ray
    # bounces on x1 at (1,1/3,2/3) and then ends in that vertex
    m = np.array([0.5, 0.0, 0.5])
    rec = bl.orbit(_pp(cube, m, np.subtract([2.0, 1.0, 1.0], m)), 10, cube)
    ev = rec.singularity
    assert ev.kind is bl.SingularityKind.VERTEX_HIT and ev.step == 1
    assert rec.word == ["y0", "x1"]
    assert np.allclose(ev.point, [0.0, 1.0, 1.0])
    # the three edges through the vertex, unfolded through (2,1,1)
    lines = [_unfolded_edge(cube, rec, ev.step, e)
             for e, ends in enumerate(cube.edge_endpoints.tolist()) if ev.vertex in ends]
    assert len(lines) == 3
    assert sorted(np.argmax(np.abs(d)) for _, d in lines) == [0, 1, 2]
    for point, direction in lines:
        assert np.allclose(np.sort(np.abs(direction)), [0, 0, 1.0])
        assert point_line_distance([2.0, 1.0, 1.0], point, direction) < 1e-12


def test_orbit_of_a_start_on_an_edge_is_one_row(cube):
    # the orbit ends at step 0 on the edge under the start, and its record
    # is one row: the start itself
    x = bl.phase_point(cube, [0.5, 0.0, 0.0], [0.0, 0.6, 0.8], face="z0")
    rec = bl.orbit(x, 5, cube)
    assert rec.singularity.kind is bl.SingularityKind.EDGE_HIT and rec.n_bounces == 1
    assert rec.faces.shape == (1,) and rec.m.shape == (1, 3) and rec.theta.shape == (1, 3)
    assert rec.faces[0] == x.face and rec.word == ["z0"]
    assert np.array_equal(rec.m[0], x.m) and np.array_equal(rec.theta[0], x.theta)
    point, direction = _unfolded_edge(cube, rec, 0, rec.singularity.edge)
    assert np.allclose(np.abs(direction), [1.0, 0, 0])
    assert np.allclose(point[1:], 0.0)


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
            last = int(fwd.faces[-1])
            back = pb.reflect_direction(-fwd.theta[-1], T.normals[last])
            starts.append(bl.PhasePoint(last, fwd.m[-1], back))
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
        # the edge hit, or every edge through the vertex hit, unfolded by
        # the isometry of the event's step, passes within plane of the
        # unfolded hit point (and through the unfolded vertex)
        edges = [e for e, ends in enumerate(P.edge_endpoints.tolist())
                 if e == ev.edge or ev.vertex in ends]
        assert len(edges) == (1 if ev.edge is not None else 3)
        lin, trans = cumulative_isometries(P, rec.faces)
        A, t = lin[ev.step], trans[ev.step]
        hit = ev.point @ A.T + t
        scale = 1e-12 * (1.0 + np.abs(hit).max())
        for a, b in P.vertices[P.edge_endpoints[edges]]:
            point, direction = a @ A.T + t, A @ unit(b - a)
            assert point_line_distance(hit, point, direction) <= P.tol.plane + scale
            if ev.vertex is not None:
                v = P.vertices[ev.vertex] @ A.T + t
                assert point_line_distance(v, point, direction) <= scale
    assert all(max(s, default=0) >= 100 for s in steps.values())


def test_singular_event_needs_no_unfolding(cube):
    # an edge- or vertex-ending orbit records its hit; the stepper never unfolds
    m = np.array([0.5, 0.0, 0.5])
    edge = bl.orbit(_pp(cube, [0.5, 0.5, 0.0], [1.0, 1.0, 1.0]), 10, cube)
    vertex = bl.orbit(_pp(cube, m, np.subtract([2.0, 1.0, 1.0], m)), 10, cube)
    assert edge.singularity.kind is bl.SingularityKind.EDGE_HIT
    assert vertex.singularity.kind is bl.SingularityKind.VERTEX_HIT
    assert "cumulative_isometries" not in inspect.getsource(bl)


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
        for ends, fs in zip(P.edge_endpoints, P.edge_faces.tolist()):
            a, b = P.vertices[ends]
            u = unit(b - a)
            for g in fs:
                w = P.face_polygon(g).mean(axis=0) - a
                inward = unit(w - (w @ u) * u)
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


# ---------------------------------------------------------------------------
# exact rational replay: every float is a rational, so a solid whose faces
# are exactly planar, with a float start, has an orbit that can be followed
# in Fraction with no tolerance at all
# ---------------------------------------------------------------------------

def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _mirror(x, n, h, k):
    """x - k (n.x - h) n / |n|^2: the reflection across the plane n.x = h
    for k = 2, the foot on it for k = 1."""
    c = k * (_dot(n, x) - h) / _dot(n, n)
    return [xi - c * ni for xi, ni in zip(x, n)]


def _exact_planes(P):
    """Per face, its plane {x : n.x = h} in Fraction, n = (b - a) x (c - a)
    for its first three vertices a, b, c, pointing inward; every vertex of
    the face lies exactly on it."""
    V = [[Fraction(x) for x in v] for v in P.vertices.tolist()]
    centre = [sum(col) / len(V) for col in zip(*V)]
    planes = []
    for boundary in P.boundaries:
        a, b, c = (V[i] for i in boundary[:3])
        u, w = [p - q for p, q in zip(b, a)], [p - q for p, q in zip(c, a)]
        n = [u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2], u[0] * w[1] - u[1] * w[0]]
        h = _dot(n, a)
        assert all(_dot(n, V[i]) == h for i in boundary)
        if _dot(n, centre) < h:
            n, h = [-x for x in n], -h
        planes.append((n, h))
    return planes


def _exact_word(planes, f, m, theta, n_labels):
    """The face ids of the exact orbit of the float start (m, theta) on face
    f, moved onto its plane first: per bounce the least positive t over the
    other planes, and a tie, a hit on an edge or vertex, ends the word."""
    m = _mirror([Fraction(x) for x in m], *planes[f], 1)
    theta = [Fraction(x) for x in theta]
    word = [f]
    while len(word) < n_labels:
        ts = [((h - _dot(n, m)) / d, g) for g, (n, h) in enumerate(planes)
              if g != f and (d := _dot(n, theta)) < 0]
        t, f = min(tt for tt in ts if tt[0] > 0)
        if sum(tt[0] == t for tt in ts) > 1:
            break
        m = [x + t * y for x, y in zip(m, theta)]
        theta = _mirror(theta, planes[f][0], 0, 2)
        word.append(f)
    return word


def _sqrt2_prism():
    """The right prism over (0, 0), (1, 0), (0, sqrt 2): its faces are
    exactly planar in floats, and its reflection group is infinite."""
    b = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, SQRT2, 0.0]])
    return validate(np.vstack([b, b + [0.0, 0.0, 1.0]]),
                    [("b", [0, 1, 2]), ("t", [3, 4, 5]), ("s0", [0, 1, 4, 3]),
                     ("s1", [1, 2, 5, 4]), ("s2", [2, 0, 3, 5])])


@pytest.mark.parametrize("name", ["cube", "box", "tetrahedron", "prism"])
def test_words_match_exact_rational_replay(name):
    # uniform starts, and starts 1e-10 to 1e-5 inside an edge of their face
    # aimed at a point as far inside an edge of another face (under plane:
    # the orbit stops at once or at that hit; under sing: flagged): both
    # float paths give the exact word on a row that is neither flagged nor
    # stopped, and a prefix of it on the others
    P = {"cube": unit_cube, "box": lambda: box(2.0, 1.0, 0.5),
         "tetrahedron": regular_tetrahedron, "prism": _sqrt2_prism}[name]()
    planes, n_labels = _exact_planes(P), 12
    rng = np.random.default_rng(17)
    edges = P.edge_faces.tolist()

    def near_edge(e, g):
        a, b = P.vertices[P.edge_endpoints[e]]
        u = unit(b - a)
        w = P.face_polygon(g).mean(axis=0) - a
        return a + rng.uniform(0.2, 0.8) * (b - a) \
            + 10.0 ** rng.uniform(-10, -5) * unit(w - (w @ u) * u)

    starts = [bl.phase_point(P, x, t, face=int(g))
              for x, t, g in zip(*bl.random_phase_points(P, 200, rng))]
    for e, fs in enumerate(edges):
        for g in fs + fs:
            x = near_edge(e, g)
            # an edge that g does not bound, so the ray leaves g's plane
            e2 = rng.choice([k for k, hs in enumerate(edges) if g not in hs])
            target = near_edge(e2, edges[e2][rng.integers(2)])
            starts.append(bl.phase_point(P, x, unit(target - x), face=g))
    # rays from a dyadic point of each face at each vertex and edge midpoint
    # off it, kept where the floats are exact (the point on the face's plane,
    # the direction the target minus it): the exact orbit ties at its first
    # hit.  phase_point would round their directions, so only the batch runs
    # them
    ties = []
    for g, boundary in enumerate(P.boundaries):
        w = 0.5 ** np.arange(1, len(boundary) + 1)
        w[-1] *= 2.0
        x = w @ P.face_polygon(g)
        exact_x = [Fraction(v) for v in x.tolist()]
        if _dot(planes[g][0], exact_x) != planes[g][1]:
            continue
        targets = [v for i, v in enumerate(P.vertices) if i not in boundary]
        targets += [P.vertices[ends].mean(axis=0)
                    for ends, fs in zip(P.edge_endpoints, edges) if g not in fs]
        ties += [bl.PhasePoint(g, x, t - x) for t in targets
                 if [Fraction(v) for v in (t - x).tolist()]
                 == [Fraction(v) - u for v, u in zip(t.tolist(), exact_x)]]
    f, m, theta = (np.array(a) for a in zip(*starts, *ties))
    words, lengths, flags = bl.run_word_batch(P, m, theta, f, n_labels)
    whole = cut = 0
    for i, x in enumerate(starts + ties):
        exact = _exact_word(planes, x.face, x.m, x.theta, n_labels)
        got = [(words[i, :lengths[i]].tolist(), flags[i])]
        if i < len(starts):
            rec = bl.orbit(x, n_labels, P)
            got.append((rec.faces.tolist(), rec.near_singular_steps))
        else:
            assert exact == [x.face]
        for word, flagged in got:
            if flagged or len(word) < n_labels:
                assert word == exact[:len(word)]
                cut += 1
            else:
                assert word == exact
                whole += 1
    assert whole > 300 and cut > 20 + len(ties) and len(ties) >= 12
    assert flags.any() and (lengths[:len(starts)] < n_labels).any()


@pytest.mark.parametrize("count, message", [
    (-1, "count must be >= 0"), (2.5, "count must be an integer, got 2.5"),
    (True, "count must be an integer, got True")])
def test_random_phase_points_count_must_be_a_count(cube, count, message):
    # -1 used to leak numpy's ValueError, 2.5 and True a TypeError
    with pytest.raises(pb.PreconditionFailed, match=f"^{message}$"):
        bl.random_phase_points(cube, count, np.random.default_rng(0))


def test_random_phase_points_reads_numpy_counts(cube):
    m, th, f = bl.random_phase_points(cube, np.int64(3), np.random.default_rng(0))
    assert m.shape == th.shape == (3, 3) and f.shape == (3,)


# face ids that name no face of the cube, with the refusal each one meets
_BAD_FACE_IDS = [([0, 7], "face id 7 out of range 0..5"),
                 ([-1, 0], "face id -1 out of range 0..5"),
                 ([6, 0], "face id 6 out of range 0..5"), ([2.5, 0.0], "integer array"),
                 ([True, False], "integer array"), ([[0, 1]], "1-D")]


@pytest.mark.parametrize("faces, message", _BAD_FACE_IDS)
def test_sample_points_in_face_refuses_bad_face_ids(cube, faces, message):
    # 7, -1 and 2.5 used to return uninitialised rows
    with pytest.raises(pb.PreconditionFailed, match=message):
        bl.sample_points_in_face(cube, faces, np.random.default_rng(0))
    assert bl.sample_points_in_face(cube, [], np.random.default_rng(0)).shape == (0, 3)


@pytest.mark.parametrize("faces, message", _BAD_FACE_IDS)
def test_sample_inward_directions_refuses_bad_face_ids(cube, faces, message):
    # -1 used to draw directions into face z1
    with pytest.raises(pb.PreconditionFailed, match=message):
        bl.sample_inward_directions(cube, faces, np.random.default_rng(0))


@pytest.mark.parametrize("faces, message", _BAD_FACE_IDS)
def test_run_word_batch_refuses_bad_face_ids(cube, faces, message):
    # -1 used to step from face z1 and record the padding marker as a label
    m, th, _ = bl.random_phase_points(cube, 2, np.random.default_rng(0))
    with pytest.raises(pb.PreconditionFailed, match=message):
        bl.run_word_batch(cube, m, th, faces, 4)
    words, _, _ = bl.run_word_batch(cube, m[:0], th[:0], [], 4)
    assert words.shape == (0, 4)


def test_batch_refuses_fewer_than_one_label(cube):
    m, th, f = bl.random_phase_points(cube, 4, np.random.default_rng(0))
    for n_labels in (0, -1):
        with pytest.raises(pb.PreconditionFailed, match="n_labels must be >= 1"):
            bl.run_word_batch(cube, m, th, f, n_labels)


def test_near_singular_flag_tolerance(cube):
    wide = unit_cube(Tolerances(sing=1e-2))
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
    most edges per face (pads far away), built from ``P.edge_faces``."""
    per_face = [[k for k, fs in enumerate(P.edge_faces.tolist()) if f in fs]
                for f in range(P.n_faces)]
    e_max = max(map(len, per_face))
    A = np.full((P.n_faces, e_max, 3), 1e30)
    U = np.zeros((P.n_faces, e_max, 3))
    L = np.zeros((P.n_faces, e_max))
    for f, ids in enumerate(per_face):
        for k, e in enumerate(ids):
            i, j = P.edge_endpoints[e]
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
        # clipped distance to the nearest edge of face f: inside f, the
        # neighbour-plane distance orbit takes, up to rounding
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

    # starts move onto their face planes; tangent starts and starts on an
    # edge of their face never advance
    m -= ((m * N[face]).sum(axis=1) + off[face])[:, None] * N[face]
    good = np.einsum("bj,bj->b", theta, N[face]) > ANGLE
    good &= edge_distance(m, face) > tol.plane
    rows = np.flatnonzero(good)
    m, theta = m[rows], theta[rows]

    for k in range(1, n_labels):
        if rows.size == 0:
            break
        s = m @ N.T + off
        d = theta @ N.T
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(d < -ANGLE, s / -d, np.inf)
        t[t <= 0.0] = np.inf
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
    faces = [(label, list(idx)) for label, idx in zip(B.labels, B.boundaries)]
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
    # run_word_batch reads column f of inv_sin as row f, and its fmin skips
    # the nan entries: exactly the face pairs that share no edge, the
    # diagonal and, on the octahedron, faces meeting only at a vertex
    for P in (unit_cube(), regular_tetrahedron(), _rotated_box(), _octahedron()):
        assert np.array_equal(P.inv_sin, P.inv_sin.T, equal_nan=True)
        shared = np.zeros((P.n_faces, P.n_faces), dtype=bool)
        for f, g in P.edge_faces:
            shared[f, g] = shared[g, f] = True
        assert np.array_equal(np.isnan(P.inv_sin), ~shared)
        assert (P.inv_sin[shared] >= 1.0 - 1e-12).all()    # 1 / sin
    # an octahedron face shares an edge with 3 faces, only a vertex with 3
    # more, and nothing with the opposite face
    assert (np.isnan(_octahedron().inv_sin).sum(axis=1) == 5).all()


def _edge_aim(P, face):
    """A point 0.5 * plane inside face g from the midpoint of an edge g∩h
    that face ``face`` does not bound: a ray from ``face`` meets it at once."""
    e = next(e for e, fs in enumerate(P.edge_faces.tolist()) if face not in fs)
    i, j = P.edge_endpoints[e]
    mid = 0.5 * (P.vertices[i] + P.vertices[j])
    u = unit(P.vertices[j] - P.vertices[i])
    w = P.face_polygon(P.edge_faces[e, 0]).mean(axis=0) - mid
    return mid + 0.5 * P.tol.plane * unit(w - (w @ u) * u)


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
