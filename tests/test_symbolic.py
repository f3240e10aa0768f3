import dataclasses

import numpy as np
import pytest

from polybilliard import billiard as bl
from polybilliard import symbolic as sy
from polybilliard import unfolding as uf
from polybilliard.geometry import Tolerances, box, regular_tetrahedron, unit_cube

SQRT2 = np.sqrt(2.0)


@pytest.fixture(scope="module")
def cube():
    return unit_cube()


def _beam_along(cube, label, theta, word):
    b = sy.make_beam(cube, label, theta)
    for lab in word:
        b = sy.propagate_beam(b, lab, cube)
    return b


def test_polyhedron_attributes_unchanged_by_use():
    P = unit_cube()
    before = dict(vars(P))
    x = bl.phase_point(P, [0.3141, 0.2718, 0.0], np.array([0.5772, 0.6931, 1.0]) / 1.3)
    rec = bl.orbit(x, 50, P)
    bl.run_word_batch(P, *bl.random_phase_points(P, 64, np.random.default_rng(0)), 8)
    sy.estimate_complexity(P, 4, 256, chunk_size=64, workers=2)
    _beam_along(P, "z0", rec.points[0].theta, rec.word[1:10])
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


def test_grazing_face_gives_strip(cube):
    theta = np.array([0.0, 1.0, 1.0]) / SQRT2
    b = _beam_along(cube, "z0", theta, ["x1"])
    cell = sy.classify_cell(b)
    assert cell.kind == "strip"
    assert abs(cell.width - 1.0 / SQRT2) < 1e-9


def test_window_slides_off_square(cube):
    # shadow of the k-th z-face copy shifts by -k/2 in x: tube, strip, empty
    theta = np.array([1.0, 0, 2.0]) / np.sqrt(5.0)
    b = sy.make_beam(cube, "z0", theta)
    b = sy.propagate_beam(b, "z1", cube)
    assert sy.classify_cell(b).kind == "tube"
    b = sy.propagate_beam(b, "z0", cube)
    cell = sy.classify_cell(b)
    assert cell.kind == "strip"
    assert abs(cell.width - 1.0) < 1e-9
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


def test_section_area_never_increases(cube):
    rng = np.random.default_rng(20)
    for _ in range(20):
        m, th, f = bl.random_phase_points(cube, 1, rng)
        rec = bl.orbit(bl.PhasePoint(int(f[0]), m[0], th[0]), 10, cube)
        if rec.n_bounces < 2:
            continue
        b = sy.make_beam(cube, rec.word[0], rec.points[0].theta)
        prev = abs(sy._polygon_area(b.section))
        for lab in rec.word[1:]:
            b = sy.propagate_beam(b, lab, cube)
            cur = abs(sy._polygon_area(b.section))
            assert cur <= prev + 1e-12
            prev = cur


def _section_contains(b, m, slack):
    """Does the projection of the base point ``m`` lie within ``slack`` of
    the beam's cross-section (a point, a segment or a CCW polygon)?"""
    q, pts = b.project(m)[0], b.section
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
        b = sy.make_beam(cube, rec.word[0], rec.points[0].theta)
        for lab in rec.word[1:]:
            b = sy.propagate_beam(b, lab, cube)
            assert _section_contains(b, rec.points[0].m, slack=1e-8)
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
    iso = b.isometries[4]
    assert iso.is_translation(1e-12)
    assert np.allclose(iso.translation, [2.0, 0.0, 2.0])


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


def test_flagged_words_are_discarded(cube):
    wide = cube.with_tolerances(Tolerances(sing=5e-2))
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
    P = unit_cube() if solid == "cube" else regular_tetrahedron()
    if tol is not None:
        P = P.with_tolerances(tol)
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
    P = unit_cube() if solid == "cube" else regular_tetrahedron()
    if tol is not None:
        P = P.with_tolerances(tol)
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


def _ref_propagate(b, label, P):
    """The numpy propagation: a new reflection per call, numpy clipping."""
    f = P.face_index(label)
    iso = b.isometry
    verts2 = b.project(iso.apply(P.face_polygon(f)))
    n3 = iso.apply_direction(P.faces[f].plane.normal)
    if abs(float(n3 @ b.theta)) <= P.tol.angle:
        d = verts2[:, None, :] - verts2[None, :, :]
        i, j = np.unravel_index(np.argmax((d * d).sum(axis=2)), d.shape[:2])
        a = verts2[i]
        dir2 = verts2[j] - a
        L = float(np.linalg.norm(dir2))
        if L < 1e-15:
            section = np.zeros((0, 2))
        else:
            dir2 = dir2 / L
            perp = np.array([-dir2[1], dir2[0]])
            s = (verts2 - a) @ dir2
            section = _ref_clip_half(b.section, perp, float(perp @ a))
            section = _ref_clip_half(section, -perp, float(-perp @ a))
            section = _ref_clip_half(section, -dir2, -float(dir2 @ a) - float(s.min()))
            section = _ref_clip_half(section, dir2, float(dir2 @ a) + float(s.max()))
    else:
        clip = verts2[::-1] if _ref_polygon_area(verts2) < 0.0 else verts2
        section = _ref_clip_convex(b.section, clip)
    new_iso = iso.compose(uf.Isometry.reflection(P.faces[f].plane))
    return sy.Beam(b.theta, b.origin, b.axes, section, b.word + [label],
                   b.isometries + [new_iso])


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


def test_float_clipping_matches_numpy_reference():
    rng = np.random.default_rng(31)
    for P, theta, word in _box_words(rng, 80):
        b = ref = sy.make_beam(P, word[0], theta)
        for label in word[1:]:
            b, ref = sy.propagate_beam(b, label, P), _ref_propagate(ref, label, P)
            assert b.is_empty == ref.is_empty
            if not b.is_empty:
                assert _section_distance(b.section, ref.section) <= 1e-12
            assert sy.classify_cell(b).kind == sy.classify_cell(ref).kind
            assert b.isometry.linear.tobytes() == ref.isometry.linear.tobytes()
            assert b.isometry.translation.tobytes() == ref.isometry.translation.tobytes()
        assert sy.detect_periodicity(b, 12) == sy.detect_periodicity(ref, 12)


def test_float_clipping_matches_numpy_reference_edge_on(cube):
    # a face copy parallel to the beam projects to a segment: strips
    rng = np.random.default_rng(32)
    for _ in range(40):
        theta = np.array([0.0, *rng.uniform(0.2, 1.0, 2)])
        theta /= np.linalg.norm(theta)
        b = ref = sy.make_beam(cube, "z0", theta)
        for label in ("x1", "y1", "z1"):
            b, ref = sy.propagate_beam(b, label, cube), _ref_propagate(ref, label, cube)
            assert b.is_empty == ref.is_empty
            if not b.is_empty:
                assert _section_distance(b.section, ref.section) <= 1e-12
            cell, ref_cell = sy.classify_cell(b), sy.classify_cell(ref)
            assert cell.kind == ref_cell.kind
            if cell.kind == "strip":
                assert abs(cell.width - ref_cell.width) <= 1e-12
