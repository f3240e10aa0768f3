"""The four benchmark workloads: seeded inputs, measured passes, output checks.

A workload is a closed loop run by one client: a *pass* is a fixed list of
calls into the package's public entry points, each call starting when the
previous one returned.  ``make_inputs(k)`` builds the inputs of pass ``k``
from the benchmark seed alone (the package only receives them);
``run_pass`` makes the timed calls and returns their raw outputs;
``check_pass`` runs untimed afterwards and counts the operations whose
output disagrees with an independent oracle.  ``run_checks`` holds the
once-per-run checks (reference-path re-coding, thread determinism).

All solids are written out here as literal vertex/face lists, so the
benchmark does not depend on the package's own solid builders.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from polybilliard import billiard, cli, geometry, symbolic, transversal, unfolding

# ---------------------------------------------------------------------------
# literal solids (vertex index of the box corner (x, y, z) is x + 2y + 4z)
# ---------------------------------------------------------------------------

_BOX_FACES = [("x0", [0, 4, 6, 2]), ("x1", [1, 3, 7, 5]),
              ("y0", [0, 1, 5, 4]), ("y1", [2, 6, 7, 3]),
              ("z0", [0, 2, 3, 1]), ("z1", [4, 5, 7, 6])]
_TETRA_VERTICES = [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]
_TETRA_FACES = [("a", [1, 2, 3]), ("b", [0, 3, 2]),
                ("c", [0, 1, 3]), ("d", [0, 2, 1])]


def box_json(dims=(1.0, 1.0, 1.0), rotation: np.ndarray | None = None) -> dict:
    verts = np.array([(x * dims[0], y * dims[1], z * dims[2])
                      for z in (0, 1) for y in (0, 1) for x in (0, 1)], float)
    if rotation is not None:
        verts = verts @ rotation.T
    return {"vertices": verts.tolist(),
            "faces": [{"label": lab, "vertices": idx} for lab, idx in _BOX_FACES]}


def tetra_json(rotation: np.ndarray | None = None) -> dict:
    verts = np.array(_TETRA_VERTICES, float)
    if rotation is not None:
        verts = verts @ rotation.T
    return {"vertices": verts.tolist(),
            "faces": [{"label": lab, "vertices": idx} for lab, idx in _TETRA_FACES]}


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def pass_rng(seed: int, k: int, stream: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, k, stream])


# ---------------------------------------------------------------------------
# phase points drawn by the benchmark itself (no package sampler involved)
# ---------------------------------------------------------------------------

def _face_geometry(solid: dict) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """(label, polygon, inward unit normal) per face of a literal solid."""
    V = np.asarray(solid["vertices"], float)
    centre = V.mean(axis=0)
    out = []
    for face in solid["faces"]:
        poly = V[face["vertices"]]
        n = np.cross(poly[1] - poly[0], poly[2] - poly[0])
        n /= np.linalg.norm(n)
        if n @ (centre - poly[0]) < 0:
            n = -n
        out.append((face["label"], poly, n))
    return out


def random_starts(solid: dict, count: int, rng: np.random.Generator
                  ) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """``count`` (label, point, inward unit direction) triples, faces uniform,
    points uniform by area inside the face, directions uniform on the inward
    hemisphere."""
    faces = _face_geometry(solid)
    out = []
    for _ in range(count):
        label, poly, n = faces[int(rng.integers(len(faces)))]
        tris = [(poly[0], poly[i], poly[i + 1]) for i in range(1, len(poly) - 1)]
        areas = np.array([np.linalg.norm(np.cross(b - a, c - a)) for a, b, c in tris])
        a, b, c = tris[int(rng.choice(len(tris), p=areas / areas.sum()))]
        r1, r2 = math.sqrt(rng.random()), rng.random()
        m = a + r1 * (1 - r2) * (b - a) + r1 * r2 * (c - a)
        while True:
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            if abs(v @ n) > 1e-6:
                break
        out.append((label, m, v if v @ n > 0 else -v))
    return out


class Corruption:
    """Damages exactly one result of the named kind, for the self-tests."""

    def __init__(self, kind: str | None):
        self.kind = kind

    def take(self, kind: str) -> bool:
        if self.kind != kind:
            return False
        self.kind = None
        return True


def _op(fn, *args):
    """Run one closed-loop call; returns (result or exception, seconds)."""
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except Exception as e:                     # recorded as a failed operation
        out = e
    return out, time.perf_counter() - t0


@dataclass
class PassResult:
    wall_s: float
    work: float                     # work items done in the pass
    ops: int                        # operations attempted
    op_s: list[float] = field(default_factory=list)
    raw: object = None
    span_range: tuple[int, int] | None = None     # traced runs: this pass's spans
    cal_s: float = 0.0              # calibration kernel time around the pass
    ref_s: float = 0.0              # wall_s in reference seconds
    rss_mb: float = 0.0             # process peak RSS after the pass


@dataclass
class CheckResult:
    failed: int = 0
    dropped: int = 0
    messages: list[str] = field(default_factory=list)

    def fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(msg)


# ---------------------------------------------------------------------------
# complexity workloads: the CLI ``complexity`` subcommand, in-process
# ---------------------------------------------------------------------------

class ComplexityWorkload:
    work_item = "sampled orbit"

    def __init__(self, name: str, solid: dict, n_max: int, budget: int,
                 threads: int, seed: int, workdir: Path, corrupt: str | None = None,
                 recode_points: int = 256, determinism_budget: int = 4096):
        self.name = name
        self.solid = solid
        self.n_max = n_max
        self.budget = budget
        self.threads = threads
        self.seed = seed
        self.corrupt = Corruption(corrupt)
        self.recode_points = recode_points
        self.determinism_budget = determinism_budget
        self.poly_path = workdir / f"{name}.json"
        self.out_path = workdir / f"{name}.csv"
        self.poly_path.write_text(json.dumps(solid))
        self.P = geometry.load_polyhedron(json.loads(self.poly_path.read_text()))
        self.digests: list[str] = []
        self.dropped_frac: list[float] = []

    def make_inputs(self, k: int) -> list[str]:
        cli_seed = int(pass_rng(self.seed, k).integers(2 ** 31))
        return ["complexity", str(self.poly_path), "--nmax", str(self.n_max),
                "--budget", str(self.budget), "--seed", str(cli_seed),
                "--threads", str(self.threads), "--out", str(self.out_path)]

    def run_pass(self, argv: list[str], threads: int | None = None) -> PassResult:
        if threads is not None:
            argv = list(argv)
            argv[argv.index("--threads") + 1] = str(threads)
        code, dt = _op(cli.main, argv)
        return PassResult(dt, self.budget, 1, [dt], code)

    def check_pass(self, argv: list[str], res: PassResult) -> CheckResult:
        chk = CheckResult()
        if res.raw != 0:
            chk.fail(f"complexity exit code {res.raw!r}")
            return chk
        rows = [line.split(",") for line in self.out_path.read_text().splitlines()
                if line and not line.startswith("#")][1:]
        p_hat = [int(r[1]) for r in rows]
        meta = json.loads(Path(str(self.out_path) + ".meta.json").read_text())
        F = self.P.n_faces
        digest = hashlib.sha256(",".join(map(str, p_hat)).encode()).hexdigest()[:16]
        self.digests.append(f"{argv[argv.index('--seed') + 1]}:{digest}")
        self.dropped_frac.append((meta["discarded_near_singular"]
                                  + meta["singular_terminated"]) / self.budget)
        if len(p_hat) != self.n_max:
            chk.fail(f"table has {len(p_hat)} rows, expected {self.n_max}")
        elif p_hat[0] != F or p_hat[1] != F * (F - 1):
            chk.fail(f"p(1), p(2) = {p_hat[:2]}, expected {F}, {F * (F - 1)}")
        elif meta["factor_closure"] is not True:
            chk.fail("factor closure does not hold")
        return chk

    def run_checks(self) -> tuple[int, CheckResult]:
        """Re-code benchmark phase points on both stepping paths, and compare
        word sets built with one and with two worker threads."""
        chk = CheckResult()
        rng = pass_rng(self.seed, 0, stream=1)
        P = self.P
        starts = random_starts(self.solid, self.recode_points, rng)
        m = np.array([s[1] for s in starts])
        th = np.array([s[2] for s in starts])
        faces = np.array([P.face_index(s[0]) for s in starts])
        words, lengths, _ = billiard.run_word_batch(P, m, th, faces, self.n_max)
        if self.corrupt.take("word-code"):
            words[0, 1] = (words[0, 1] + 1) % P.n_faces
        for i, (lab, mi, ti) in enumerate(starts):
            rec = billiard.orbit(billiard.phase_point(P, mi, ti, face=lab), self.n_max, P)
            batch = [P.labels[w] for w in words[i, :lengths[i]]]
            if batch != rec.word:
                chk.fail(f"start {i}: batch word {batch} != scalar word {rec.word}")
        tables = [symbolic.estimate_complexity(P, self.n_max, self.determinism_budget,
                                               seed=self.seed, chunk_size=512,
                                               workers=w) for w in (1, 2)]
        same = all(np.array_equal(tables[0].word_codes[n], tables[1].word_codes[n])
                   for n in range(1, self.n_max + 1))
        if not same:
            chk.fail("word_codes differ between 1 and 2 worker threads")
        return self.recode_points + 1, chk

    def report(self) -> dict:
        return {"p_hat_digests": self.digests,
                "dropped_frac": float(np.median(self.dropped_frac)) if self.dropped_frac else None}


# ---------------------------------------------------------------------------
# orbit-unfold: scalar orbits of 1000 bounces, then their unfolding
# ---------------------------------------------------------------------------

class OrbitUnfoldWorkload:
    work_item = "bounce"

    def __init__(self, seed: int, orbits_per_pass: int = 10, bounces: int = 1000,
                 corrupt: str | None = None):
        self.seed = seed
        self.orbits_per_pass = orbits_per_pass
        self.bounces = bounces
        self.corrupt = Corruption(corrupt)
        self.solids = [box_json(), tetra_json()]
        self.polys = [geometry.load_polyhedron(s) for s in self.solids]
        self.orbit_ms: list[float] = []
        self.attempted = 0
        self.dropped = 0

    def make_inputs(self, k: int) -> list[tuple[geometry.Polyhedron, billiard.PhasePoint]]:
        rng = pass_rng(self.seed, k)
        out = []
        for i in range(self.orbits_per_pass):
            j = i % 2                  # alternate cube and tetrahedron
            (lab, m, th), = random_starts(self.solids[j], 1, rng)
            out.append((self.polys[j], billiard.phase_point(self.polys[j], m, th, face=lab)))
        return out

    def _one(self, P, x):
        rec = billiard.orbit(x, self.bounces, P)
        return rec, unfolding.unfold_orbit(rec, P)

    def run_pass(self, inputs) -> PassResult:
        t0 = time.perf_counter()
        results, op_s = [], []
        for P, x in inputs:
            out, dt = _op(self._one, P, x)
            results.append(out)
            op_s.append(dt)
        wall = time.perf_counter() - t0
        work = sum(out[0].n_bounces - 1 for out in results if isinstance(out, tuple))
        return PassResult(wall, work, len(inputs), op_s, results)

    def check_pass(self, inputs, res: PassResult) -> CheckResult:
        chk = CheckResult()
        for i, out in enumerate(res.raw):
            self.attempted += 1
            if not isinstance(out, tuple):
                chk.fail(f"orbit {i}: {type(out).__name__}: {out}")
                continue
            rec, track = out
            rel = track.relative_residual
            if self.corrupt.take("residual"):
                rel *= 1e12
            if not rec.completed:
                chk.dropped += 1
                self.dropped += 1
            elif rec.n_bounces != self.bounces:
                chk.fail(f"orbit {i}: {rec.n_bounces} bounces, expected {self.bounces}")
            elif not rel < 1e-9:
                chk.fail(f"orbit {i}: relative residual {rel:.3g} >= 1e-9")
        self.orbit_ms.extend(1e3 * t for t in res.op_s)
        return chk

    def run_checks(self) -> tuple[int, CheckResult]:
        return 0, CheckResult()

    def report(self) -> dict:
        ms = np.array(self.orbit_ms)
        return {"orbit_ms_p50": float(np.percentile(ms, 50)),
                "orbit_ms_p90": float(np.percentile(ms, 90)),
                "orbit_ms_samples": int(ms.size),
                "dropped_frac": self.dropped / max(self.attempted, 1)}


# ---------------------------------------------------------------------------
# exact-geometry: group closure, beam cells, transversal probes (no stepping)
# ---------------------------------------------------------------------------

def box_word(dims, start: str, m: np.ndarray, d: np.ndarray, length: int
             ) -> tuple[list[str], float]:
    """Face word of the box orbit from ``m`` on face ``start`` with direction
    ``d``, read off the unfolded straight line: it crosses the planes
    x_i = k * dims[i] in time order, and plane k belongs to face i0 for even
    k and i1 for odd k.  Also returns the smallest gap between crossing
    times, so near-edge starts can be redrawn."""
    events = []
    for i in range(3):
        if d[i] == 0:
            continue
        ks = range(1, length + 1) if d[i] > 0 else range(0, -length, -1)
        for k in ks:
            t = (k * dims[i] - m[i]) / d[i]
            if t > 1e-12:
                events.append((t, i, k))
    events.sort()
    events = events[:length - 1]
    word = [start] + ["xyz"[i] + str(k % 2) for _, i, k in events]
    times = [0.0] + [t for t, _, _ in events]
    return word, float(np.min(np.diff(times)))


def box_period(dims, d) -> int:
    """Period of a rational box direction: the unfolded line closes up after
    2 * sum(c_i) bounces, where c is the coprime integer vector proportional
    to (|d_i| / dims[i])."""
    lcm = math.lcm(*[int(x) for x in dims])
    c = [abs(int(d[i])) * lcm // int(dims[i]) for i in range(3)]
    g = math.gcd(*c)
    return 2 * sum(x // g for x in c)


_PROBE_EDGES = [((0, 0, 0), (1, 0, 0)), ((0, 1, 0), (0, 0, 1)), ((2, 0, 1), (0, 1, 0))]


class ExactGeometryWorkload:
    work_item = "geometry task"

    def __init__(self, seed: int, group_bound: int = 3000, cells: int = 40,
                 probes: int = 2000, k_max: int = 18, corrupt: str | None = None):
        self.seed = seed
        self.group_bound = group_bound
        self.cells = cells
        self.probes = probes
        self.k_max = k_max
        self.corrupt = Corruption(corrupt)
        self.cell_solids = {(1, 1, 1): geometry.load_polyhedron(box_json((1, 1, 1))),
                            (2, 1, 1): geometry.load_polyhedron(box_json((2, 1, 1)))}

    def make_inputs(self, k: int) -> dict:
        rng = pass_rng(self.seed, k)
        R = random_rotation(rng)
        groups = [("cube", geometry.load_polyhedron(box_json((1, 1, 1), R)), 1000, 8),
                  ("box", geometry.load_polyhedron(box_json((2, 1, 0.5), R)), 1000, 8),
                  ("tetra", geometry.load_polyhedron(tetra_json(R)), self.group_bound, None)]
        cells = []
        while len(cells) < self.cells:
            dims = (1, 1, 1) if len(cells) % 2 == 0 else (2, 1, 1)
            d = rng.integers(-2, 3, size=3)
            if not d.any():
                continue
            i = int(rng.choice(np.flatnonzero(d)))
            m = rng.uniform(0.05, 0.95, 3) * dims
            m[i] = 0.0 if d[i] > 0 else dims[i]
            start = "xyz"[i] + ("0" if d[i] > 0 else "1")
            word, gap = box_word(dims, start, m, d, 2 * self.k_max + 1)
            if gap < 1e-6:
                continue
            theta = d / np.linalg.norm(d)
            cells.append((self.cell_solids[dims], theta, word, box_period(dims, d)))
        c = rng.normal(size=3)
        edges = [transversal.EdgeLine.of(R @ np.array(p, float) + c, R @ np.array(x, float))
                 for p, x in _PROBE_EDGES]
        lines = [transversal.EdgeLine.of(R @ (2.0 * rng.normal(size=3)) + c,
                                         R @ rng.normal(size=3))
                 for _ in range(self.probes)]
        return {"groups": groups, "cells": cells, "edges": edges, "lines": lines}

    def _cell(self, P, theta, word):
        beam = symbolic.make_beam(P, word[0], theta)
        for label in word[1:]:
            beam = symbolic.propagate_beam(beam, label, P)
        return symbolic.classify_cell(beam).kind, symbolic.detect_periodicity(beam, self.k_max)

    def _probes(self, edges, lines):
        S = transversal.triple_surface(*edges)
        return [transversal.count_line_surface_intersections(line, S) for line in lines]

    def run_pass(self, inputs) -> PassResult:
        t0 = time.perf_counter()
        groups = [_op(unfolding.generate_group, P, bound)[0]
                  for _, P, bound, _ in inputs["groups"]]
        cells = [_op(self._cell, P, theta, word)[0]
                 for P, theta, word, _ in inputs["cells"]]
        counts, _ = _op(self._probes, inputs["edges"], inputs["lines"])
        wall = time.perf_counter() - t0
        ops = len(groups) + len(cells) + len(inputs["lines"])
        return PassResult(wall, ops, ops, [], (groups, cells, counts))

    def check_pass(self, inputs, res: PassResult) -> CheckResult:
        chk = CheckResult()
        groups, cells, counts = res.raw
        for (name, _, bound, order), g in zip(inputs["groups"], groups):
            if isinstance(g, Exception):
                chk.fail(f"group {name}: {type(g).__name__}: {g}")
            elif order is not None and not (g.closed and g.order == order):
                chk.fail(f"group {name}: closed={g.closed} order={g.order}, expected {order}")
            elif order is None and g.closed:
                chk.fail(f"group {name}: closed with order {g.order}, expected NOT_CLOSED")
        for j, ((_, theta, word, period), out) in enumerate(zip(inputs["cells"], cells)):
            if isinstance(out, Exception):
                chk.fail(f"cell {''.join(word)}: {type(out).__name__}: {out}")
                continue
            kind, k = out
            if self.corrupt.take("period"):
                k = (k or 0) + 1
            if kind != "tube" or k != period:
                chk.fail(f"cell {np.round(theta, 3)}: {kind} period {k}, expected tube {period}")
        if isinstance(counts, Exception):
            for _ in inputs["lines"]:
                chk.fail(f"probes: {type(counts).__name__}: {counts}")
        else:
            for c in counts:
                if c != transversal.ON_SURFACE and not (isinstance(c, int) and 0 <= c <= 4):
                    chk.fail(f"probe count {c!r} outside 0..4")
        return chk

    def run_checks(self) -> tuple[int, CheckResult]:
        return 0, CheckResult()

    def report(self) -> dict:
        return {}


# ---------------------------------------------------------------------------

WORKLOADS = ("cube-n12", "tetra-n30", "orbit-unfold", "exact-geometry")


def build(name: str, seed: int, workdir: Path, smoke: bool = False,
          corrupt: str | None = None):
    """Construct a workload at benchmark size, or at tiny size for ``smoke``."""
    if name == "cube-n12":
        return ComplexityWorkload(name, box_json(), 12, 2 ** 10 if smoke else 2 ** 18, 2,
                                  seed, workdir, corrupt,
                                  recode_points=16 if smoke else 256,
                                  determinism_budget=2048 if smoke else 4096)
    if name == "tetra-n30":
        return ComplexityWorkload(name, tetra_json(), 30, 2 ** 9 if smoke else 2 ** 14, 2,
                                  seed, workdir, corrupt,
                                  recode_points=16 if smoke else 256,
                                  determinism_budget=1024 if smoke else 4096)
    if name == "orbit-unfold":
        return OrbitUnfoldWorkload(seed, orbits_per_pass=2 if smoke else 10,
                                   bounces=50 if smoke else 1000, corrupt=corrupt)
    if name == "exact-geometry":
        if smoke:
            return ExactGeometryWorkload(seed, group_bound=200, cells=4, probes=50,
                                         corrupt=corrupt)
        return ExactGeometryWorkload(seed, corrupt=corrupt)
    raise ValueError(f"unknown workload {name!r}; have {', '.join(WORKLOADS)}")
