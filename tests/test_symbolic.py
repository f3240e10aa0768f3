import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest

from polybilliard import billiard as bl
from polybilliard import symbolic as sy
from polybilliard import unfolding as uf
from polybilliard.geometry import (ANGLE, PreconditionFailed, Tolerances, box,
                                  regular_tetrahedron, unit, unit_cube, validate)

SQRT2 = np.sqrt(2.0)


@pytest.fixture(scope="module")
def cube():
    return unit_cube()


@dataclasses.dataclass
class _Beam:
    """A beam built in the test, with the fields ``classify_cell`` and
    ``detect_periodicity`` read, the folded frame ``_float_propagate`` steps,
    and the numpy unfolding ``_ref_propagate`` steps instead."""

    solid: object
    theta: np.ndarray
    origin: np.ndarray
    axes: np.ndarray
    section: np.ndarray
    word: list
    _frame: tuple = ()
    linear: np.ndarray | None = None
    translation: np.ndarray | None = None

    @property
    def _section(self):
        return [self.section.tolist()]

    @property
    def is_empty(self):
        return len(self.section) == 0


def _beam_along(cube, label, theta, word):
    b = sy.make_beam(cube, label, theta)
    for lab in word:
        b = sy.propagate_beam(b, lab, cube)
    return b


def _unfolding(b):
    """The unfolding of a beam's word, from the prefix scan."""
    return uf.cumulative_isometries(b.solid, [b.solid.face_index(lab) for lab in b.word])


def _projected_frame(b, lin, t):
    """The folded frame (A, c, u) of ``sy.Beam`` for the unfolding entries
    x -> lin[k] x + t[k], one row of 11 per entry."""
    A = np.einsum("ij,kjl->kil", b.axes, lin).reshape(-1, 6)
    c = (t - b.origin) @ b.axes.T
    u = np.einsum("kji,j->ki", lin, b.theta)
    return np.hstack([A, c, u])


def test_polyhedron_attributes_unchanged_by_use():
    P = unit_cube()
    before = dict(vars(P))
    x = bl.phase_point(P, [0.3141, 0.2718, 0.0], np.array([0.5772, 0.6931, 1.0]) / 1.3)
    rec = bl.orbit(x, 50, P)
    bl.run_word_batch(P, *bl.random_phase_points(P, 64, np.random.default_rng(0)), 8)
    sy.estimate_complexity(P, 4, 256, chunk_size=64, workers=2)
    _beam_along(P, "z0", rec.theta[0], rec.word[1:10])
    uf.generate_group(P, bound=100)
    after = vars(P)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


# ---------------------------------------------------------------------------
# beams and cells
# ---------------------------------------------------------------------------

def test_axis_beam_full_square(cube):
    b = _beam_along(cube, "z0", [0, 0, 1.0], ["z1", "z0", "z1", "z0", "z1"])
    cell = sy.classify_cell(b)
    assert cell.kind == "tube"
    assert abs(cell.area - 1.0) < 1e-12


def test_period_four_beam_stabilizes(cube):
    theta = np.array([1.0, 0, 1.0]) / SQRT2
    word = ["x1", "z1", "x0", "z0"] * 3
    b1 = _beam_along(cube, "z0", theta, word[:4])
    b2 = _beam_along(cube, "z0", theta, word)
    c1, c2 = sy.classify_cell(b1), sy.classify_cell(b2)
    assert c1.kind == c2.kind == "tube"
    # the full open square survives; its slanted shadow has area 1/sqrt(2)
    assert abs(c1.area - 1.0 / SQRT2) < 1e-9
    assert abs(c2.area - c1.area) < 1e-12


def test_projection_overlap_clips_band(cube):
    # at (1,0,1)/sqrt2 the x1 shadow covers the whole bottom-face shadow;
    # at (1,0,2)/sqrt5 only lines with x > 1/2 reach x1 before z1, so the
    # section clips to the half band of shadow area 0.5 * (2/sqrt5)
    theta = np.array([1.0, 0, 1.0]) / SQRT2
    b = _beam_along(cube, "z0", theta, ["x1"])
    assert abs(sy.classify_cell(b).area - 1.0 / SQRT2) < 1e-12
    theta = np.array([1.0, 0, 2.0]) / np.sqrt(5.0)
    b = _beam_along(cube, "z0", theta, ["x1"])
    cell = sy.classify_cell(b)
    assert cell.kind == "tube"
    assert abs(cell.area - 1.0 / np.sqrt(5.0)) < 1e-9


def test_grazing_face_gives_empty(cube):
    # x1 is parallel to theta: the lines that cross its copy lie in its
    # plane, so they are tangent, singular, and code no word
    theta = np.array([0.0, 1.0, 1.0]) / SQRT2
    b = _beam_along(cube, "z0", theta, ["x1"])
    assert b.is_empty and b.section.shape == (0, 2)
    assert sy.classify_cell(b) == sy.CellClass("empty")


def test_window_slides_off_square(cube):
    # shadow of the k-th z-face copy shifts by -k/2 in x: tube, then the
    # second copy meets the section along one side only, a set of lines
    # through an edge with no area, so the cell is empty, and stays empty
    theta = np.array([1.0, 0, 2.0]) / np.sqrt(5.0)
    b = sy.make_beam(cube, "z0", theta)
    b = sy.propagate_beam(b, "z1", cube)
    assert sy.classify_cell(b).kind == "tube"
    b = sy.propagate_beam(b, "z0", cube)
    assert sy.classify_cell(b).kind == "empty"
    assert b.is_empty
    b = sy.propagate_beam(b, "z1", cube)
    assert sy.classify_cell(b).kind == "empty"
    assert b.is_empty


def test_label_errors(cube):
    b = sy.make_beam(cube, "z0", [0, 0, 1.0])
    with pytest.raises(sy.LabelNotReachable):
        sy.propagate_beam(b, "z0", cube)       # consecutive repeat
    with pytest.raises(sy.LabelNotReachable):
        sy.propagate_beam(b, "nope", cube)     # unknown label
    theta = np.array([1.0, 0, 2.0]) / np.sqrt(5.0)
    b = _beam_along(cube, "z0", theta, ["z1", "z0"])
    assert sy.propagate_beam(b, "z1", cube).is_empty      # a geometric miss
    with pytest.raises(ValueError):
        sy.make_beam(cube, "z0", [1.0, 0, 0])  # tangent direction


def test_propagate_empty_beam(cube):
    # no line realizes an empty beam's word, so none realizes a longer one;
    # its labels are still checked
    theta = np.array([1.0, 0, 2.0]) / np.sqrt(5.0)
    b = _beam_along(cube, "z0", theta, ["z1", "z0", "z1"])
    assert b.is_empty
    for label in ("x0", "z0", "y1", "z1"):
        b = sy.propagate_beam(b, label, cube)
        assert b.is_empty and b.section.shape == (0, 2)
        assert sy.classify_cell(b).kind == "empty"
    assert b.word == ["z0", "z1", "z0", "z1", "x0", "z0", "y1", "z1"]
    lin, t = _unfolding(b)
    assert lin.shape == (len(b.word), 3, 3) and t.shape == (len(b.word), 3)
    # an empty beam still steps its frame
    assert np.abs(np.array(b._frame) - _projected_frame(b, lin, t)[-1]).max() <= 1e-12
    for label in ("z1", "nope"):                # a repeat, an unknown label
        with pytest.raises(sy.LabelNotReachable):
            sy.propagate_beam(b, label, cube)


def test_beam_arrays_are_read_only(cube):
    # a child shares the section no face copy cuts: z1's copy at (0, 0, 1)
    # projects onto z0's square
    b = sy.make_beam(cube, "z0", [0, 0, 1.0])
    c = sy.propagate_beam(b, "z1", cube)
    assert c.section is b.section and len(c.section) == 4
    cut = sy.propagate_beam(sy.make_beam(cube, "z0", [0.3, 0.2, 1.0]), "z1", cube)
    empty = _beam_along(cube, "z0", np.array([1.0, 0, 1.0]) / SQRT2, ["y1"])
    assert empty.is_empty and not cut.is_empty
    for beam in (b, c, cut, empty):
        with pytest.raises(ValueError, match="read-only"):
            beam.section[...] = 0.0


def test_section_area_never_increases(cube):
    rng = np.random.default_rng(20)
    for _ in range(20):
        m, th, f = bl.random_phase_points(cube, 1, rng)
        rec = bl.orbit(bl.PhasePoint(int(f[0]), m[0], th[0]), 10, cube)
        if rec.n_bounces < 2:
            continue
        b = sy.make_beam(cube, rec.word[0], rec.theta[0])
        prev = abs(sy._area2(b.section.tolist()))
        for lab in rec.word[1:]:
            b = sy.propagate_beam(b, lab, cube)
            cur = abs(sy._area2(b.section.tolist()))
            assert cur <= prev + 1e-12
            prev = cur


def _section_contains(b, m, slack):
    """Does the projection of the base point ``m`` lie within ``slack`` of
    the beam's cross-section (a point, a segment or a CCW polygon)?"""
    q, pts = (m - b.origin) @ b.axes.T, b.section
    if len(pts) < 3:
        a, e = pts[0], pts[-1] - pts[0]
        t = np.clip((q - a) @ e / max(e @ e, 1e-300), 0.0, 1.0)
        return np.linalg.norm(q - (a + t * e)) <= slack
    e = np.roll(pts, -1, axis=0) - pts
    inward = np.stack([-e[:, 1], e[:, 0]], axis=1)
    return np.all(np.einsum("ij,ij->i", q - pts, inward)
                  >= -slack * np.linalg.norm(inward, axis=1))


def test_beam_orbit_consistency(cube):
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 30:
        m, th, f = bl.random_phase_points(cube, 1, rng)
        rec = bl.orbit(bl.PhasePoint(int(f[0]), m[0], th[0]), 12, cube)
        if not rec.completed or rec.near_singular_steps:
            continue
        b = sy.make_beam(cube, rec.word[0], rec.theta[0])
        for lab in rec.word[1:]:
            b = sy.propagate_beam(b, lab, cube)
            assert _section_contains(b, rec.m[0], slack=1e-8)
        checked += 1


# ---------------------------------------------------------------------------
# periodicity
# ---------------------------------------------------------------------------

def test_axis_period_two(cube):
    b = _beam_along(cube, "z0", [0, 0, 1.0], ["z1", "z0", "z1", "z0"])
    assert sy.detect_periodicity(b, 10) == 2


def test_diagonal_period_four(cube):
    theta = np.array([1.0, 0, 1.0]) / SQRT2
    b = _beam_along(cube, "z0", theta, ["x1", "z1", "x0", "z0", "x1", "z1", "x0", "z0"])
    assert sy.detect_periodicity(b, 10) == 4
    # the 4-step unfolding is the translation by (2, 0, 2)
    lin, t = _unfolding(b)
    assert np.abs(lin[4] - np.eye(3)).max() <= 1e-12
    assert np.allclose(t[4], [2.0, 0.0, 2.0])


def test_empty_beam_has_no_period(cube):
    # the word repeats with period 4 and its 4-step unfolding is the
    # translation by (2, 0, 2), but the section empties after four labels:
    # no line realizes the word, so it has no period
    theta = np.array([1.0, 0, 1.0]) / SQRT2
    b = _beam_along(cube, "z0", theta, ["z1", "x1", "x0", "z0", "z1", "x1", "x0"])
    assert b.is_empty and sy.classify_cell(b).kind == "empty"
    assert np.abs(_unfolding(b)[0][4] - np.eye(3)).max() <= 1e-12
    assert sy.detect_periodicity(b, 10) is None


def test_irrational_direction_not_detected(cube):
    theta = np.array([1.0, np.sqrt(2.0), np.sqrt(3.0)])
    theta /= np.linalg.norm(theta)
    x = bl.phase_point(cube, [0.31, 0.47, 0.0], theta)
    rec = bl.orbit(x, 40, cube)
    assert rec.completed
    b = sy.make_beam(cube, rec.word[0], theta)
    for lab in rec.word[1:]:
        b = sy.propagate_beam(b, lab, cube)
    assert not b.is_empty
    assert sy.detect_periodicity(b, 50) is None


def test_box_period_four():
    B = box(2.0, 1.0, 1.0)
    theta = np.array([2.0, 0, 1.0]) / np.sqrt(5.0)
    x = bl.phase_point(B, [0.62, 0.5, 0.0], theta)
    rec = bl.orbit(x, 9, B)
    assert rec.completed
    b = sy.make_beam(B, rec.word[0], theta)
    for lab in rec.word[1:]:
        b = sy.propagate_beam(b, lab, B)
    assert sy.classify_cell(b).kind == "tube"
    assert sy.detect_periodicity(b, 8) == 4


def _box_word(dims, start, m, d, length):
    """Face word of the box orbit from ``m`` on face ``start`` along ``d``,
    read off the unfolded straight line, which crosses x_i = k * dims[i]
    (face i0 for even k, i1 for odd k) in time order; and the least gap
    between crossing times."""
    events = []
    for i in range(3):
        if d[i] == 0:
            continue
        for k in range(1, length + 1) if d[i] > 0 else range(0, -length, -1):
            t = (k * dims[i] - m[i]) / d[i]
            if t > 1e-12:
                events.append((t, i, k))
    events = sorted(events)[:length - 1]
    times = [0.0] + [t for t, _, _ in events]
    return [start] + ["xyz"[i] + str(k % 2) for _, i, k in events], min(np.diff(times))


def test_integer_box_directions_are_tubes_of_their_period():
    # an independent oracle: on a box with integer sides an integer direction
    # d closes up after 2 * sum(c) bounces, with c the coprime integer vector
    # along (|d_i| / dims[i]); the beam of its 37-label word is a tube of
    # that period, found with k_max = 18
    rng = np.random.default_rng(40)
    solids = {(1, 1, 1): unit_cube(), (2, 1, 1): box(2.0, 1.0, 1.0)}
    cells = 0
    while cells < 40:
        dims = (1, 1, 1) if cells % 2 == 0 else (2, 1, 1)
        d = rng.integers(-2, 3, size=3)
        if not d.any():
            continue
        i = int(rng.choice(np.flatnonzero(d)))
        m = rng.uniform(0.05, 0.95, 3) * dims
        m[i] = 0.0 if d[i] > 0 else dims[i]
        word, gap = _box_word(dims, "xyz"[i] + ("0" if d[i] > 0 else "1"), m, d, 37)
        if gap < 1e-6:
            continue
        c = [abs(int(d[j])) * 2 // dims[j] for j in range(3)]     # 2 = lcm of the sides
        period = 2 * sum(x // np.gcd.reduce(c) for x in c)
        b = _beam_along(solids[dims], word[0], unit(d.astype(float)), word[1:])
        assert len(word) == 37 and sy.classify_cell(b).kind == "tube"
        assert sy.detect_periodicity(b, 18) == period
        cells += 1


@pytest.mark.parametrize("k_max", [2.5, True, np.bool_(True), "4", None])
def test_period_bound_must_be_an_integer(cube, k_max):
    b = _beam_along(cube, "z0", [0, 0, 1.0], ["z1", "z0", "z1", "z0"])
    with pytest.raises(PreconditionFailed, match="k_max must be an integer"):
        sy.detect_periodicity(b, k_max)


@pytest.mark.parametrize("k_max", [0, -1, np.int64(-3)])
def test_period_bound_must_be_positive(cube, k_max):
    # refused before the beam is read, an empty one too
    for word in (["z1", "z0", "z1", "z0"], ["y1"]):
        b = _beam_along(cube, "z0", np.array([1.0, 0, 1.0]) / SQRT2, word)
        with pytest.raises(PreconditionFailed, match="k_max must be >= 1"):
            sy.detect_periodicity(b, k_max)
    b = _beam_along(cube, "z0", [0, 0, 1.0], ["z1", "z0", "z1", "z0"])
    assert sy.detect_periodicity(b, np.int64(1)) is None
    assert sy.detect_periodicity(b, np.int32(2)) == 2


def test_repeating_tube_off_the_direction_has_no_period(cube):
    # z0,z1,z0,z1,z0 at a slant: entry 2 is the identity plus (0, 0, 2),
    # a translation off theta, so the tube does not close up
    theta = unit([0.1, 0.0, 1.0])
    b = _beam_along(cube, "z0", theta, ["z1", "z0", "z1", "z0"])
    cell = sy.classify_cell(b)
    assert cell.kind == "tube" and cell.area == pytest.approx(0.597, abs=1e-3)
    lin, t = _unfolding(b)
    assert np.array_equal(lin[2], np.eye(3))
    assert np.array_equal(t[2], [0.0, 0.0, 2.0])
    assert sy.detect_periodicity(b, 8) is None


def test_period_needs_an_identity_linear_part(cube):
    # a hand-built beam whose word repeats with period 2, and whose 2-step
    # unfolding, across x1 then z0, moves the origin by (2, 0, 0) along
    # theta but turns (x, z) to (-x, -z): a glide, not a translation, so no
    # period; the 4-step unfolding is the identity with no translation
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    b = _Beam(cube, np.array([1.0, 0.0, 0.0]), np.zeros(3), np.eye(3)[1:], square,
              ["z0", "x1", "z0", "x1", "z0"])
    lin, t = _unfolding(b)
    assert np.array_equal(lin[2], np.diag([-1.0, 1.0, -1.0])) and np.array_equal(t[2], [2, 0, 0])
    assert sy.detect_periodicity(b, 4) is None


def test_period_needs_a_forward_translation():
    # an unfolding that is the identity closes up only by a translation
    # forward along theta: a zero translation and one against theta are no
    # period, one along theta is
    theta = (0.0, 0.0, 1.0)
    assert not sy._forward_along((0.0, 0.0, 0.0), theta)
    assert not sy._forward_along((0.0, 0.0, -2.0), theta)
    assert sy._forward_along((0.0, 0.0, 2.0), theta)
    assert not sy._forward_along((0.0, 1e-6, 2.0), theta)     # off theta


# ---------------------------------------------------------------------------
# complexity estimation
# ---------------------------------------------------------------------------

def test_small_alphabet_counts(cube):
    tab = sy.estimate_complexity(cube, 4, 20000, seed=7)
    assert tab.p_hat[0] == 6
    assert tab.p_hat[1] == 30
    assert sorted(tab.words(1)) == sorted([(l,) for l in cube.labels])
    for w in tab.words(2):
        assert w[0] != w[1]


def test_cube_three_letter_words_exact(cube):
    # combinatorial oracle: (A, B, A) with B adjacent to A is impossible (the
    # bounce on B preserves the velocity component that leaves A), removing
    # 6*4 = 24 of the 6*5*5 = 150 candidate words; all others occur
    tab = sy.estimate_complexity(cube, 3, 60000, seed=13)
    assert tab.p_hat[2] == 126
    opposite = {"x0": "x1", "x1": "x0", "y0": "y1", "y1": "y0", "z0": "z1", "z1": "z0"}
    for w in tab.words(3):
        if w[0] == w[2]:
            assert w[1] == opposite[w[0]]


def test_tetrahedron_counts():
    T = regular_tetrahedron()
    tab = sy.estimate_complexity(T, 3, 8000, seed=1)
    assert tab.p_hat[0] == 4
    assert tab.p_hat[1] == 12


def test_budget_monotone_with_aligned_chunks(cube):
    small = sy.estimate_complexity(cube, 6, 10000, seed=3, chunk_size=10000)
    big = sy.estimate_complexity(cube, 6, 30000, seed=3, chunk_size=10000)
    assert np.all(big.p_hat >= small.p_hat)
    # aligned chunking makes the smaller run's samples a strict subset
    for n in range(1, 7):
        assert np.isin(small.word_codes[n], big.word_codes[n]).all()


def test_deterministic_and_thread_invariant(cube):
    a = sy.estimate_complexity(cube, 5, 30000, seed=9, chunk_size=8192, workers=1)
    b = sy.estimate_complexity(cube, 5, 30000, seed=9, chunk_size=8192, workers=4)
    assert np.array_equal(a.p_hat, b.p_hat)
    for n in range(1, 6):
        assert np.array_equal(a.word_codes[n], b.word_codes[n])


def test_factor_closure_and_extendability(cube):
    tab = sy.estimate_complexity(cube, 6, 40000, seed=5)
    assert tab.factor_closure_holds()
    assert np.all(np.diff(tab.p_hat) >= 0)


def test_word_decode_round_trip(cube):
    tab = sy.estimate_complexity(cube, 3, 5000, seed=2)
    for w in tab.words(3):
        assert len(w) == 3
        assert all(lab in cube.labels for lab in w)
        assert w[0] != w[1] and w[1] != w[2]


def test_word_code_endianness(cube):
    tab = sy.estimate_complexity(cube, 2, 5000, seed=2)
    i_z0, i_z1 = cube.face_index("z0"), cube.face_index("z1")
    code = i_z0 * cube.n_faces + i_z1   # big-endian: first label is the high digit
    assert code in tab.word_codes[2]
    assert ("z0", "z1") in tab.words(2)
    assert tab.extendability_ok


def test_words_refuses_lengths_outside_the_table(cube):
    tab = sy.estimate_complexity(cube, 4, 2000, seed=7)
    assert len(tab.words(4)) == tab.p_hat[3]
    for n in (0, -1, 5):
        with pytest.raises(PreconditionFailed, match=r"1\.\.4"):
            tab.words(n)


def test_words_refuses_non_integer_lengths(cube):
    tab = sy.estimate_complexity(cube, 4, 2000, seed=7)
    for n in (2.5, 2.0, True, np.bool_(True), "2", None):
        with pytest.raises(PreconditionFailed, match="not an integer"):
            tab.words(n)
    assert tab.words(np.int64(2)) == tab.words(2)


def test_complexity_counts_must_be_integers(cube):
    # a seed too is refused before numpy's generator sees it, not stored as True
    for bad in (100.5, 4.0, True, np.bool_(True), "4", None):
        for name, args, kw in (("n_max", (bad, 100), {}), ("budget", (4, bad), {}),
                               ("seed", (4, 100), {"seed": bad}),
                               ("chunk_size", (4, 100), {"chunk_size": bad}),
                               ("workers", (4, 100), {"workers": bad})):
            with pytest.raises(PreconditionFailed, match=f"{name} must be an integer"):
                sy.estimate_complexity(cube, *args, **kw)
    tab = sy.estimate_complexity(cube, np.int64(3), np.int64(100), seed=np.int64(5),
                                 chunk_size=np.int64(64))
    assert type(tab.budget) is int and type(tab.n_max) is int and type(tab.seed) is int


def test_words_decode_codes_in_order():
    # the decoded words are the codes' base-F digits, first label first,
    # in code order, up to the longest codes the table holds
    P = regular_tetrahedron()
    tab = sy.estimate_complexity(P, 14, 3000, seed=4)
    F = P.n_faces
    for n in (1, 2, 7, 14):
        codes = tab.word_codes[n].tolist()
        ref = [tuple(P.labels[c // F ** (n - 1 - i) % F] for i in range(n)) for c in codes]
        assert tab.words(n) == ref and len(ref) == tab.p_hat[n - 1] > 0


def test_complexity_preconditions(cube):
    with pytest.raises(ValueError):
        sy.estimate_complexity(cube, 1, 100)
    with pytest.raises(ValueError):
        sy.estimate_complexity(cube, 4, 0)
    for chunk_size in (0, -5):
        with pytest.raises(ValueError, match="chunk_size"):
            sy.estimate_complexity(cube, 4, 1000, chunk_size=chunk_size)
    for workers in (0, -2):
        with pytest.raises(ValueError, match="workers"):
            sy.estimate_complexity(cube, 4, 1000, workers=workers)
    with pytest.raises(PreconditionFailed, match="^seed must be >= 0$"):
        sy.estimate_complexity(cube, 4, 1000, seed=-1)
    # 6 ** 24 >= 2 ** 62: the codes would overflow int64
    with pytest.raises(PreconditionFailed, match="alphabet too large"):
        sy.estimate_complexity(cube, 24, 10)


def test_flagged_words_are_discarded(cube):
    wide = unit_cube(Tolerances(sing=5e-2))
    tab = sy.estimate_complexity(wide, 4, 4000, seed=0)
    assert tab.discarded > 0
    narrow = sy.estimate_complexity(cube, 4, 4000, seed=0)
    assert tab.discarded > narrow.discarded


@pytest.mark.parametrize("solid, n_max, budget, tol", [
    ("cube", 8, 4000, None),
    ("tetra", 16, 3000, None),
    ("cube", 8, 4000, Tolerances(plane=1e-3, sing=1e-2)),
    ("cube", 5, 20000, None),           # most full-length words repeat
])
def test_factor_sets_match_window_oracle(monkeypatch, solid, n_max, budget, tol):
    # independent oracle: every n-window of every unflagged word the stepper
    # returned, collected as plain tuples of labels
    P = unit_cube(tol) if solid == "cube" else regular_tetrahedron(tol)
    returned = []

    def recording(*args, **kwargs):
        out = bl.run_word_batch(*args, **kwargs)
        returned.append(out)
        return out

    monkeypatch.setattr(sy, "run_word_batch", recording)
    tab = sy.estimate_complexity(P, n_max, budget, seed=11, chunk_size=1000, workers=1)
    assert len(returned) == -(-budget // 1000)
    windows = {n: set() for n in range(1, n_max + 1)}
    for words, lengths, flags in returned:
        for row, L, flagged in zip(words, lengths, flags):
            if flagged:
                continue
            w = tuple(P.labels[i] for i in row[:L])
            for n in range(1, L + 1):
                windows[n].update(w[i:i + n] for i in range(L - n + 1))
    for n in range(1, n_max + 1):
        assert set(tab.words(n)) == windows[n]
        assert tab.p_hat[n - 1] == len(windows[n])
    if tol is not None:
        # short and dropped words both reach the recurrence
        assert tab.singular > 0 and tab.discarded > 0


def _without(tab, n, codes):
    return dataclasses.replace(tab, word_codes={**tab.word_codes, n: codes})


def test_factor_closure_detects_missing_factors(cube):
    tab = sy.estimate_complexity(cube, 6, 20000, seed=5)

    def holds(t):
        # the lengths are checked independently, so the pool cannot change a verdict
        verdict = t.factor_closure_holds(workers=1)
        assert t.factor_closure_holds(workers=2) is verdict
        return verdict

    assert holds(tab)
    F = len(tab.labels)
    for n in range(tab.n_max - 1, 0, -1):
        prefixes = set((tab.word_codes[n + 1] // F).tolist())
        suffixes = set((tab.word_codes[n + 1] % F ** n).tolist())
        if prefixes - suffixes and suffixes - prefixes:
            break
    else:
        pytest.fail("no length with prefix-only and suffix-only factors")
    shorter = tab.word_codes[n]
    only_prefix = min(prefixes - suffixes)
    only_suffix = min(suffixes - prefixes)
    largest = int(shorter[-1])
    assert largest in prefixes | suffixes
    for code in (only_prefix, only_suffix, largest):
        assert not holds(_without(tab, n, shorter[shorter != code]))
        # the same loss hidden by a repeated neighbour, so the length is unchanged
        i = int(np.searchsorted(shorter, code))
        padded = shorter.copy()
        padded[i] = shorter[i - 1] if i > 0 else shorter[i + 1]
        assert not holds(_without(tab, n, padded))
    assert not holds(_without(tab, n, shorter[:0]))
    # every factor present, but two codes out of order
    swapped = shorter.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    assert not holds(_without(tab, n, swapped))


def _reference_word_codes(codes, lengths, F, n_max):
    """The per-length recurrence over every word, one np.sort per length."""
    word_codes = {}
    longer = np.array([], dtype=np.int64)
    for n in range(n_max, 0, -1):
        s = np.sort(np.concatenate([longer // F, codes[lengths >= n] % F ** n]))
        longer = word_codes[n] = s[np.diff(s, prepend=-1) != 0]
    return word_codes


@pytest.mark.parametrize("solid, n_max, budget, tol", [
    ("cube", 5, 20000, None),                               # most full-length words repeat
    ("tetra", 30, 2000, None),                              # wide sets at middle lengths
    ("cube", 12, 3000, Tolerances(plane=1e-3, sing=1e-2)),  # short words exist
])
def test_word_codes_match_reference_recurrence(monkeypatch, solid, n_max, budget, tol):
    P = unit_cube(tol) if solid == "cube" else regular_tetrahedron(tol)
    chunks = []
    chunk_complexity = sy._chunk_complexity

    def recording(*args):
        out = chunk_complexity(*args)
        chunks.append(out)
        return out

    monkeypatch.setattr(sy, "_chunk_complexity", recording)
    tab = sy.estimate_complexity(P, n_max, budget, seed=11, chunk_size=1000, workers=1)
    codes = np.concatenate([c[0] for c in chunks])
    lengths = np.concatenate([c[1] for c in chunks])
    ref = _reference_word_codes(codes, lengths, P.n_faces, n_max)
    monkeypatch.undo()
    two = sy.estimate_complexity(P, n_max, budget, seed=11, chunk_size=1000, workers=2)
    for n in range(1, n_max + 1):
        for got in (tab.word_codes[n], two.word_codes[n]):
            assert got.dtype == ref[n].dtype
            assert np.array_equal(got, ref[n]), n
    if tol is not None:
        assert (lengths < n_max).any()
    else:
        assert len(np.unique(codes[lengths == n_max])) < len(codes)


# ---------------------------------------------------------------------------
# float clipping against the numpy reference
# ---------------------------------------------------------------------------

def _ref_polygon_area(pts):
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _ref_dedupe(pts, tol=1e-12):
    if len(pts) < 2:
        return pts
    keep = [0]
    for i in range(1, len(pts)):
        if np.abs(pts[i] - pts[keep[-1]]).max() > tol:
            keep.append(i)
    if len(keep) > 1 and np.abs(pts[keep[0]] - pts[keep[-1]]).max() <= tol:
        keep.pop()
    return pts[keep]


def _ref_clip_half(pts, n2, c):
    empty = np.zeros((0, 2))
    if len(pts) == 0:
        return empty
    d = pts @ n2 - c
    if len(pts) == 1:
        return pts if d[0] <= 0.0 else empty
    if len(pts) == 2:
        ina, inb = d[0] <= 0.0, d[1] <= 0.0
        if ina and inb:
            return pts
        if not ina and not inb:
            return empty
        t = d[0] / (d[0] - d[1])
        x = pts[0] + t * (pts[1] - pts[0])
        return np.array([pts[0], x]) if ina else np.array([x, pts[1]])
    out = []
    K = len(pts)
    for i in range(K):
        j = (i + 1) % K
        ina, inb = d[i] <= 0.0, d[j] <= 0.0
        if ina:
            out.append(pts[i])
        if ina != inb:
            t = d[i] / (d[i] - d[j])
            out.append(pts[i] + t * (pts[j] - pts[i]))
    return _ref_dedupe(np.array(out)) if out else empty


def _ref_clip_convex(subject, clip_ccw):
    out = subject
    K = len(clip_ccw)
    for i in range(K):
        a = clip_ccw[i]
        e = clip_ccw[(i + 1) % K] - a
        n2 = np.array([e[1], -e[0]])
        out = _ref_clip_half(out, n2, float(n2 @ a))
        if len(out) == 0:
            return np.zeros((0, 2))
    return out


def _ref_open(pts):
    """The section, or none when it has no area: numpy's area against the
    diameter, where the library takes the bounding box's larger side."""
    if len(pts) < 3:
        return np.zeros((0, 2))
    d = pts[:, None, :] - pts[None, :, :]
    diameter = float(np.sqrt((d * d).sum(axis=2)).max())
    return pts if abs(_ref_polygon_area(pts)) > 1e-8 * diameter else np.zeros((0, 2))


def _ref_beam(b):
    """The library beam ``b`` of one label as a reference beam, whose
    unfolding is the identity."""
    return _Beam(b.solid, b.theta, b.origin, b.axes, b.section, b.word,
                 linear=np.eye(3)[None], translation=np.zeros((1, 3)))


def _ref_propagate(b, label, P):
    """The numpy propagation: a new reflection per call, numpy clipping,
    open cells (an edge-on face copy, or a clip with no area, empties)."""
    f = P.face_index(label)
    lin, t = b.linear[-1], b.translation[-1]
    verts2 = (P.face_polygon(f) @ lin.T + t - b.origin) @ b.axes.T
    n3 = lin @ P.normals[f]
    if abs(float(n3 @ b.theta)) <= ANGLE:
        section = np.zeros((0, 2))
    else:
        clip = verts2[::-1] if _ref_polygon_area(verts2) < 0.0 else verts2
        section = _ref_open(_ref_clip_convex(b.section, clip))
    # compose with the reflection x -> (I - 2 n n^T) x - 2 c n across face f
    n, c = P.normals[f], P.offsets[f]
    R, r = np.eye(3) - 2.0 * np.outer(n, n), -2.0 * c * n
    return _Beam(P, b.theta, b.origin, b.axes, section, b.word + [label],
                 linear=np.concatenate([b.linear, [lin @ R]]),
                 translation=np.concatenate([b.translation, [lin @ r + t]]))


def _distance_to_section(q, pts):
    """Euclidean distance from q to the convex hull of a CCW section."""
    if len(pts) == 1:
        return float(np.linalg.norm(q - pts[0]))
    edges = [(pts[i], pts[(i + 1) % len(pts)]) for i in range(len(pts) if len(pts) > 2 else 1)]
    if len(pts) > 2 and all((b - a)[0] * (q - a)[1] - (b - a)[1] * (q - a)[0] >= 0.0
                            for a, b in edges):
        return 0.0
    dist = []
    for a, b in edges:
        e = b - a
        t = np.clip((q - a) @ e / max(e @ e, 1e-300), 0.0, 1.0)
        dist.append(float(np.linalg.norm(q - a - t * e)))
    return min(dist)


def _section_distance(A, B):
    """Hausdorff distance between two convex sections, as sets: a collinear
    vertex that one clip keeps and the other drops does not count."""
    return max(max(_distance_to_section(q, B) for q in A),
               max(_distance_to_section(q, A) for q in B))


def _box_words(rng, count):
    """Orbit words on random boxes, at generic and at integer directions."""
    out = []
    while len(out) < count:
        dims = rng.uniform(0.5, 2.0, size=3)
        if len(out) % 2:
            dims = rng.integers(1, 3, size=3).astype(float)
            theta = rng.integers(-2, 3, size=3).astype(float)
        else:
            theta = rng.normal(size=3)
        if not theta.any():
            continue
        P = box(*dims)
        theta /= np.linalg.norm(theta)
        f = int(rng.choice([k for k in range(6) if theta @ P.normals[k] > 1e-3]))
        m = bl.sample_points_in_face(P, np.array([f]), rng)[0]
        rec = bl.orbit(bl.PhasePoint(f, m, theta), 25, P)
        if rec.completed and not rec.near_singular_steps:
            out.append((P, theta, rec.word))
    return out


def _solid_words(P, rng, count, directions=None):
    """Orbit words on ``P`` from random starts, at random directions or, when
    given, at directions drawn from ``directions``."""
    out = []
    while len(out) < count:
        theta = rng.normal(size=3) if directions is None else \
            directions[rng.integers(len(directions))]
        theta = theta / np.linalg.norm(theta)
        inward = [k for k in range(P.n_faces) if theta @ P.normals[k] > 1e-3]
        f = int(rng.choice(inward))
        m = bl.sample_points_in_face(P, np.array([f]), rng)[0]
        rec = bl.orbit(bl.PhasePoint(f, m, theta), 25, P)
        if rec.completed and not rec.near_singular_steps:
            out.append((P, theta, rec.word))
    return out


def _rotated_box(rng):
    """box(2, 1, 1) turned by a random rotation Q and moved; returns it and Q."""
    Q, R = np.linalg.qr(rng.normal(size=(3, 3)))
    Q = Q * np.sign(np.diag(R))
    B = box(2.0, 1.0, 1.0)
    return validate(B.vertices @ Q.T + rng.normal(size=3), list(zip(B.labels, B.boundaries))), Q


def _rotated_box_words(rng, count):
    """Words on a rotated box(2, 1, 1), half of them at rotated integer
    directions, whose cells are periodic tubes."""
    P, Q = _rotated_box(rng)
    d = np.array([v for v in np.ndindex(5, 5, 5) if any(v != np.array([2, 2, 2]))]) - 2.0
    return (_solid_words(P, rng, count // 2)
            + _solid_words(P, rng, count - count // 2, directions=d @ Q.T))


def _check_against_reference(words):
    for P, theta, word in words:
        b = sy.make_beam(P, word[0], theta)
        ref = _ref_beam(b)
        for label in word[1:]:
            b, ref = sy.propagate_beam(b, label, P), _ref_propagate(ref, label, P)
            assert b.is_empty == ref.is_empty
            if not b.is_empty:
                assert _section_distance(b.section, ref.section) <= 1e-12
            assert sy.classify_cell(b).kind == sy.classify_cell(ref).kind
            frame = _projected_frame(ref, ref.linear[-1:], ref.translation[-1:])[0]
            assert np.abs(np.array(b._frame) - frame).max() <= 1e-12
        assert sy.detect_periodicity(b, 12) == sy.detect_periodicity(ref, 12)


def test_float_clipping_matches_numpy_reference():
    _check_against_reference(_box_words(np.random.default_rng(31), 80))


@pytest.mark.parametrize("solid", ["tetra", "rotated-box"])
def test_float_clipping_matches_numpy_reference_off_axis(solid):
    # faces off the coordinate planes: the clip's early return and the
    # shadow's arithmetic must hold there too
    rng = np.random.default_rng(33)
    _check_against_reference(_solid_words(regular_tetrahedron(), rng, 60) if solid == "tetra"
                             else _rotated_box_words(rng, 60))


def _ref_period(b, k_max):
    """The period scan over numpy arrays: the checks of ``detect_periodicity``
    on the entries of the word's unfolding from the prefix scan."""
    if b.is_empty:
        return None
    w, theta = b.word, b.theta
    lin, trans = _unfolding(b)
    for k in range(1, min(k_max, len(w) - 1) + 1):
        if w[k:] != w[:-k]:
            continue
        if not np.abs(lin[k] - np.eye(3)).max() <= 1e-9:
            continue
        t = trans[k]
        tn = float(np.linalg.norm(t))
        if tn <= 1e-9 or float(np.linalg.norm(t - (t @ theta) * theta)) > 1e-9 * tn:
            continue
        if float(t @ theta) <= 0.0:
            continue
        return k
    return None


@pytest.mark.parametrize("solid", ["box", "tetra", "rotated-box"])
def test_period_matches_numpy_scan(solid):
    # the float composition against an independent numpy oracle, at bounds
    # below, among and above the periods, and past the 25-label words
    rng = np.random.default_rng(34)
    words = (_box_words(rng, 300) if solid == "box" else
             _solid_words(regular_tetrahedron(), rng, 200) if solid == "tetra" else
             _rotated_box_words(rng, 300))
    periods = set()
    for P, theta, word in words:
        b = _beam_along(P, word[0], theta, word[1:])
        for k_max in (1, 3, 12, 40):
            k = sy.detect_periodicity(b, k_max)
            assert k == _ref_period(b, k_max), (word, k_max)
            periods.add(k)
    # integer directions on boxes close up at several periods
    assert len(periods) >= (1 if solid == "tetra" else 6), periods


def test_period_composes_at_most_k_max_reflections(cube, monkeypatch):
    # a 201-label axis word repeats at period 2; a bound of 5 reads 6 labels
    b = _beam_along(cube, "z0", [0, 0, 1.0], ["z1", "z0"] * 100)
    seen = []
    index = cube.face_index
    monkeypatch.setattr(cube, "face_index", lambda lab: seen.append(lab) or index(lab))
    assert sy.detect_periodicity(b, 1) is None and len(seen) == 1
    assert sy.detect_periodicity(b, 5) == 2 and len(seen) == 3
    seen.clear()
    b.word[3] = "x1"        # now the word never repeats: every k <= 5 is composed
    assert sy.detect_periodicity(b, 5) is None and len(seen) == 5


@pytest.mark.parametrize("solid", ["cube", "box", "tetra", "rotated-box"])
def test_folded_frame_follows_the_unfolding(solid):
    # the 11 floats propagate_beam steps instead of the unfolding, over
    # 200-label orbit words whose unfolded copies lie up to ~200 away
    rng = np.random.default_rng(38)
    P = {"cube": unit_cube, "box": lambda: box(2.0, 1.0, 0.5), "tetra": regular_tetrahedron,
         "rotated-box": lambda: _rotated_box(rng)[0]}[solid]()
    words = 0
    while words < 4:
        theta = unit(rng.normal(size=3))
        f = int(rng.choice([k for k in range(P.n_faces) if theta @ P.normals[k] > 1e-3]))
        rec = bl.orbit(bl.PhasePoint(f, bl.sample_points_in_face(P, np.array([f]), rng)[0],
                                     theta), 200, P)
        if not rec.completed:
            continue
        b = sy.make_beam(P, rec.word[0], theta)
        frames = [b._frame]
        for label in rec.word[1:]:
            b = sy.propagate_beam(b, label, P)
            frames.append(b._frame)
        frames = np.array(frames)
        assert frames.shape == (200, 11)
        assert np.abs(frames - _projected_frame(b, *_unfolding(b))).max() <= 1e-12
        words += 1


def test_float_clipping_matches_numpy_reference_edge_on(cube):
    # a face copy parallel to the beam projects to a segment, and empties
    # it: x1 after a clip by y1's copy, which leaves a tube or nothing
    rng = np.random.default_rng(32)
    for _ in range(40):
        theta = np.array([0.0, *rng.uniform(0.2, 1.0, 2)])
        theta /= np.linalg.norm(theta)
        b = sy.make_beam(cube, "z0", theta)
        ref = _ref_beam(b)
        for label in ("y1", "x1", "z1"):
            b, ref = sy.propagate_beam(b, label, cube), _ref_propagate(ref, label, cube)
            assert b.is_empty == ref.is_empty
            if not b.is_empty:
                assert _section_distance(b.section, ref.section) <= 1e-12
            assert sy.classify_cell(b).kind == sy.classify_cell(ref).kind
            if label == "x1":
                assert b.is_empty


# ---------------------------------------------------------------------------
# bitwise: the float clip by every half-plane in turn
# ---------------------------------------------------------------------------

def _float_area2(pts):
    return sum(ax * by - bx * ay for (ax, ay), (bx, by) in zip(pts, pts[1:] + pts[:1]))


def _float_clip_half(pts, nx, ny, c):
    d = [x * nx + y * ny - c for x, y in pts]
    if all(v <= 0.0 for v in d):
        return pts
    out = []
    for i in range(len(pts)):
        j = (i + 1) % len(pts)
        ina, inb = d[i] <= 0.0, d[j] <= 0.0
        if ina:
            out.append(pts[i])
        if ina != inb:
            (ax, ay), (bx, by) = pts[i], pts[j]
            t = d[i] / (d[i] - d[j])
            out.append((ax + t * (bx - ax), ay + t * (by - ay)))
    return sy._dedupe(out)


def _float_propagate(b, label, P):
    """The float propagation that clips by every half-plane of the face
    copy in turn, sums areas with ``sum``, builds a new section array each
    step; returns the beam and whether a half-plane cut its section.  The
    face copy's shadow and the edge-on test come from the folded frame
    (A, c, u) of ``sy.Beam``, stepped here by the same float formulas."""
    f = P.face_index(label)
    old = section = b.section.tolist()
    a0, a1, a2, b0, b1, b2, c0, c1, u0, u1, u2 = b._frame
    (nx, ny, nz), cf = P.normals[f].tolist(), float(P.offsets[f])
    un = u0 * nx + u1 * ny + u2 * nz
    if abs(un) <= ANGLE:
        section = []
    else:
        clip = [(a0 * x + a1 * y + a2 * z + c0, b0 * x + b1 * y + b2 * z + c1)
                for x, y, z in P.face_polygon(f).tolist()]
        clip = clip[::-1] if _float_area2(clip) < 0.0 else clip
        for i in range(len(clip)):
            (ax, ay), (bx, by) = clip[i], clip[(i + 1) % len(clip)]
            ex, ey = bx - ax, by - ay
            section = _float_clip_half(section, ey, -ex, ey * ax + -ex * ay)
            if not section:
                break
        if section and section is not old:
            xs, ys = zip(*section)
            size = max(max(xs) - min(xs), max(ys) - min(ys))
            if len(section) < 3 or 0.5 * abs(_float_area2(section)) <= sy._DEG_TOL * size:
                section = []
    an, bn = a0 * nx + a1 * ny + a2 * nz, b0 * nx + b1 * ny + b2 * nz
    frame = (a0 - 2.0 * an * nx, a1 - 2.0 * an * ny, a2 - 2.0 * an * nz,
             b0 - 2.0 * bn * nx, b1 - 2.0 * bn * ny, b2 - 2.0 * bn * nz,
             c0 - 2.0 * cf * an, c1 - 2.0 * cf * bn,
             u0 - 2.0 * un * nx, u1 - 2.0 * un * ny, u2 - 2.0 * un * nz)
    child = _Beam(P, b.theta, b.origin, b.axes, np.array(section).reshape(-1, 2),
                  b.word + [label], frame)
    return child, section is not old


@pytest.mark.parametrize("solid", ["box", "tetra", "rotated-box"])
def test_sections_are_the_float_clip_bitwise(solid):
    rng = np.random.default_rng(36)
    words = (_box_words(rng, 80) if solid == "box" else
             _solid_words(regular_tetrahedron(), rng, 60) if solid == "tetra" else
             _rotated_box_words(rng, 60))
    # random walks on the labels too, whose beams mostly empty on the way
    for P, theta, word in words[:30]:
        walk = word[:2]
        while len(walk) < len(word):
            walk.append(str(rng.choice([x for x in P.labels if x != walk[-1]])))
        words.append((P, theta, walk))
    cuts = kept = emptied = 0
    for P, theta, word in words:
        b = ref = sy.make_beam(P, word[0], theta)
        for label in word[1:]:
            b, (ref, was_cut) = sy.propagate_beam(b, label, P), _float_propagate(ref, label, P)
            assert b.section.shape == ref.section.shape
            assert b.section.tobytes() == ref.section.tobytes()
            assert np.array(b._frame).tobytes() == np.array(ref._frame).tobytes()
            cuts += was_cut and not ref.is_empty
            kept += not was_cut and not ref.is_empty
        emptied += ref.is_empty
        assert sy.classify_cell(b) == sy.classify_cell(ref)
        assert sy.detect_periodicity(b, 12) == sy.detect_periodicity(ref, 12)
    # both paths of the clip loop are taken, many times, and some beams empty
    assert cuts >= 100 and kept >= 100 and emptied >= 10


# ---------------------------------------------------------------------------
# open cells: an exact oracle, and theta moved by one ulp
# ---------------------------------------------------------------------------

def _frac_area2(pts):
    return sum(ax * by - bx * ay for (ax, ay), (bx, by) in zip(pts, pts[1:] + pts[:1]))


def _frac_clip(subject, clip):
    """Exact closed clip of a convex, possibly degenerate, ``subject`` by a
    convex polygon ``clip`` of positive area, both lists of Fraction pairs."""
    if _frac_area2(clip) < 0:
        clip = clip[::-1]
    out = subject
    for (ax, ay), (bx, by) in zip(clip, clip[1:] + clip[:1]):
        d = [(bx - ax) * (y - ay) - (by - ay) * (x - ax) for x, y in out]
        if min(d, default=0) >= 0:
            continue
        pts, out = out, []
        for i, j in zip(range(len(pts)), [*range(1, len(pts)), 0]):
            if d[i] >= 0:
                out.append(pts[i])
            if (d[i] >= 0) != (d[j] >= 0):
                t = d[i] / (d[i] - d[j])
                out.append((pts[i][0] + t * (pts[j][0] - pts[i][0]),
                            pts[i][1] + t * (pts[j][1] - pts[i][1])))
    return out


class _ExactBeam:
    """A beam over a box in ``Fraction``: the rational direction ``theta``
    (unnormalised, theta_z != 0) and the box's reflections, entries 0, +-1
    and binary offsets, are exact.  Sections are projected along theta onto
    z = 0 by p -> p - (p_z / theta_z) theta, which scales every area by one
    constant, so an area is zero exactly when the orthogonal one is.  The
    section is closed; ``None`` after a face copy seen edge-on."""

    def __init__(self, P, theta, word, lin, t, section):
        self.P, self.theta, self.word, self.lin, self.t = P, theta, word, lin, t
        self.section = section

    @classmethod
    def make(cls, P, theta, label):
        eye = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
        b = cls(P, theta, [label], eye, [Fraction(0)] * 3, None)
        b.section = b.shadow(label)
        return b

    def shadow(self, label):
        """The projected copy of face ``label`` under the word's unfolding."""
        tx, ty, tz = self.theta
        kx, ky = tx / tz, ty / tz
        out = []
        for v in self.P.face_polygon(self.P.face_index(label)).tolist():
            # the box's unfolding has one nonzero entry per row
            x, y, z = (sum(a * Fraction(w) for a, w in zip(row, v) if a) + c
                       for row, c in zip(self.lin, self.t))
            out.append((x - z * kx, y - z * ky))
        return out

    def clip(self, label):
        """The closed section after ``label``."""
        shadow = self.shadow(label)
        return None if _frac_area2(shadow) == 0 or self.section is None \
            else _frac_clip(self.section, shadow)

    def extend(self, label, section):
        """The beam of the word extended by ``label``, with its ``clip``."""
        f = self.P.face_index(label)
        n = [Fraction(v) for v in self.P.normals[f]]
        c = Fraction(self.P.offsets[f])
        # x -> R x + r with R = I - 2 n n^T and r = -2 c n, after the unfolding
        lin = [[row[j] - 2 * n[j] * sum(a * b for a, b in zip(row, n)) for j in range(3)]
               for row in self.lin]
        t = [sum(a * b for a, b in zip(row, n)) * -2 * c + s for row, s in zip(self.lin, self.t)]
        return _ExactBeam(self.P, self.theta, self.word + [label], lin, t, section)

    @property
    def is_empty(self):
        """The open cell is empty exactly when the closed one has no area."""
        return self.section is None or _frac_area2(self.section) == 0


def _exact_walks(rng, count):
    """Seeded (solid, theta, exact beams) walks, each up to its first empty
    cell.  A step keeps an open cell seven times in eight when it can; else
    it takes a label that empties the cell: a miss, a closed clip of no area
    (lines through an edge or a vertex), or a face copy seen edge-on."""
    solids = [unit_cube(), box(2.0, 1.0, 0.5)]
    halves = [Fraction(k, 2) for k in range(-4, 5)]
    out = []
    while len(out) < count:
        P = solids[len(out) % 2]
        theta = [halves[i] for i in rng.integers(9, size=3)]
        if theta[2] == 0:
            continue
        inward = [f for f in range(6) if sum(a * b for a, b in zip(P.normals[f], theta)) > 0]
        beams = [_ExactBeam.make(P, theta, P.labels[int(rng.choice(inward))])]
        for _ in range(int(rng.integers(2, 12))):
            last = beams[-1]
            clips = [(lab, last.clip(lab)) for lab in P.labels if lab != last.word[-1]]
            live = [c for c in clips if c[1] and _frac_area2(c[1]) != 0]
            dead = [c for c in clips if not c[1] or _frac_area2(c[1]) == 0]
            pool = live if live and (rng.random() < 0.875 or not dead) else dead
            lab, section = pool[rng.integers(len(pool))]
            beams.append(last.extend(lab, section))
            if beams[-1].is_empty:
                break
        out.append((P, theta, beams))
    return out


def test_open_cells_match_exact_oracle():
    # the float kind of every prefix equals the exact one, on the box and on
    # a rigid motion of it, where clipping singular lines leaves slivers of
    # rounding area rather than points; the test has teeth only where the
    # exact clip leaves a point or a segment, so 20 walks must meet one.  A
    # tube's area is the exact one: the oracle projects along theta onto
    # z = 0, which scales areas by |theta| / |theta_z|
    rng = np.random.default_rng(41)
    singular = 0
    for P, theta, beams in _exact_walks(rng, 240):
        Q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        Q[:, 0] *= np.sign(np.linalg.det(Q))
        moved = validate(P.vertices @ Q.T + rng.normal(size=3), list(zip(P.labels, P.boundaries)))
        direction = np.array(theta, float)
        for solid, th in ((P, direction), (moved, Q @ direction)):
            b = sy.make_beam(solid, beams[0].word[0], th)
            assert not b.is_empty and not beams[0].is_empty
            for e in beams:
                if e is not beams[0]:
                    b = sy.propagate_beam(b, e.word[-1], solid)
                assert b.is_empty == e.is_empty, (P.vertices.max(axis=0), theta, e.word)
                cell = sy.classify_cell(b)
                assert cell.kind == ("empty" if e.is_empty else "tube")
                if not e.is_empty:
                    exact = float(abs(_frac_area2(e.section) * theta[2])) / 2
                    exact /= np.linalg.norm(direction)
                    assert abs(cell.area - exact) <= 1e-12 * exact, (theta, e.word)
        singular += bool(beams[-1].section) and beams[-1].is_empty
    assert singular >= 20


# ---------------------------------------------------------------------------
# the beam tree at a fixed direction, against an exact one
# ---------------------------------------------------------------------------

def _float_tree_counts(P, theta, n_max):
    """Open cells per word length 1..n_max: one beam per face that lines
    along ``theta`` enter, each open beam extended by every other label."""
    level = [sy.make_beam(P, lab, theta) for lab, n in zip(P.labels, P.normals)
             if float(unit(theta) @ n) > ANGLE]
    counts = [len(level)]
    while len(counts) < n_max:
        level = [c for b in level for lab in P.labels if lab != b.word[-1]
                 for c in [sy.propagate_beam(b, lab, P)] if not c.is_empty]
        counts.append(len(level))
    return counts


def _fdot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _exact_tree_counts(P, theta, n_max):
    """The same tree in ``Fraction``, with no tolerance.  Every float is a
    rational, so a solid whose faces' float vertices lie exactly on planes is
    an exact rational solid: the face normals n = (v1 - v0) ^ (v2 - v0) and
    the reflections x -> x - 2 (n.x - h) n / |n|^2 are exact.  Sections are
    projected along the float unit ``theta`` onto the coordinate plane of its
    largest component, an affine map that scales every area by one constant,
    so a cell is open exactly when its closed section has area > 0.  A beam
    keeps its unfolding followed by that projection, two rows (M, m)."""
    th = [Fraction(v) for v in unit(theta)]
    k = max(range(3), key=lambda i: abs(th[i]))
    proj = [[int(r == c) - int(c == k) * th[r] / th[k] for c in range(3)]
            for r in range(3) if r != k]
    polys = [[[Fraction(x) for x in v] for v in P.face_polygon(f).tolist()]
             for f in range(len(P.labels))]
    refl, enter = [], []
    for f, (poly, inward) in enumerate(zip(polys, P.normals)):
        (ax, ay, az), (bx, by, bz) = ([a - b for a, b in zip(v, poly[0])] for v in poly[1:3])
        n = [ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx]
        n = n if np.dot(np.array(n, float), inward) > 0 else [-a for a in n]
        h, nn = _fdot(n, poly[0]), _fdot(n, n)
        assert all(_fdot(n, v) == h for v in poly)          # planar faces
        # x -> R x + r; R is symmetric, so its rows are its columns
        refl.append(([[int(r == c) - 2 * n[r] * n[c] / nn for c in range(3)] for r in range(3)],
                     [2 * h * a / nn for a in n]))
        if _fdot(n, th) > 0:                                 # lines enter here
            enter.append(f)

    def shadow(M, m, f):
        return [(_fdot(M[0], v) + m[0], _fdot(M[1], v) + m[1]) for v in polys[f]]

    zero = [Fraction(0)] * 2
    level = [(f, proj, zero, shadow(proj, zero, f)) for f in enter]
    counts = [len(level)]
    while len(counts) < n_max:
        children = []
        for last, M, m, section in level:
            for g, (R, r) in enumerate(refl):
                cut = shadow(M, m, g) if g != last else []
                if _frac_area2(cut) == 0:             # the last face, or seen edge-on
                    continue
                cell = _frac_clip(section, cut)
                if _frac_area2(cell) != 0:
                    children.append((g, [[_fdot(row, col) for col in R] for row in M],
                                     [_fdot(row, r) + c for row, c in zip(M, m)], cell))
        level = children
        counts.append(len(level))
    return counts


@pytest.mark.parametrize("solid, theta, expect", [
    (unit_cube, (1.0, SQRT2, np.pi / 2), [n * n + n + 1 for n in range(1, 13)]),
    (lambda: box(2.0, 1.0, 0.5), (2.0, SQRT2, np.pi / 4), [n * n + n + 1 for n in range(1, 11)]),
    (regular_tetrahedron, (0.3, SQRT2, np.pi / 2), [1, 3, 6, 10, 17, 26, 39, 58, 74, 90, 105, 118]),
], ids=["cube", "box", "tetra"])
def test_beam_tree_counts_match_exact_tree(solid, theta, expect):
    # the float tree's emptiness test, _open's _DEG_TOL, against area > 0
    P = solid()
    counts = _float_tree_counts(P, theta, len(expect))
    assert counts == _exact_tree_counts(P, theta, len(expect))
    assert counts == expect


def _ulp_neighbours(theta):
    """``theta`` moved by -1, 0 or +1 ulp in each component: 27 directions."""
    for steps in itertools.product((-1.0, 0.0, 1.0), repeat=3):
        yield np.array([np.nextafter(v, s * np.inf) if s else v for v, s in zip(theta, steps)])


def _kind_and_period(P, theta, word, k_max=12):
    b = _beam_along(P, word[0], theta, word[1:])
    return sy.classify_cell(b).kind, sy.detect_periodicity(b, k_max)


def test_cell_kind_and_period_survive_one_ulp(cube):
    # lines from z0 at (1, 0, 1) reach z1 before x1 only through the edge
    # x = 0, z = 0: singular lines, which used to leave a strip of period 4
    # one ulp below unit([1, 0, 1]) and nothing at it
    word = ["z0", "z1", "x1", "x0", "z0", "z1", "x1", "x0"]
    for theta in _ulp_neighbours(unit(np.array([1.0, 0.0, 1.0]))):
        assert _kind_and_period(cube, theta, word) == ("empty", None), theta
    # the periodic tubes of acceptance criterion 5
    cases = [(unit_cube(), v, face) for v, face in (
        ((0, 0, 1), "z0"), ((0, 1, 0), "y0"), ((1, 0, 0), "x0"), ((1, 0, 1), "z0"),
        ((0, 1, 1), "z0"), ((1, 1, 0), "x0"), ((1, 1, 1), "z0"), ((2, 0, 1), "z0"),
        ((1, 0, 2), "z0"), ((1, 2, 2), "z0"))]
    cases += [(box(2.0, 1.0, 1.0), v, face) for v, face in (
        ((0, 0, 1), "z0"), ((1, 0, 0), "x0"), ((2, 0, 1), "z0"), ((0, 1, 1), "z0"),
        ((2, 1, 0), "x0"), ((2, 1, 1), "z0"), ((4, 0, 1), "z0"), ((2, 0, 2), "z0"),
        ((2, 2, 1), "z0"), ((4, 1, 0), "x0"))]
    base = {"z0": [0.3171, 0.4419, 0.0], "y0": [0.3171, 0.0, 0.4419],
            "x0": [0.0, 0.3171, 0.4419]}
    for P, v, face in cases:
        theta = unit(np.array(v, float))
        m = np.array(base[face]) * P.vertices.max(axis=0)
        word = bl.orbit(bl.phase_point(P, m, theta, face=face), 25, P).word
        expect = _kind_and_period(P, theta, word)
        assert expect[0] == "tube" and expect[1] is not None, (v, face)
        for moved in _ulp_neighbours(theta):
            assert _kind_and_period(P, moved, word) == expect, (v, face, moved)
