"""Command-line front end.

Subcommands: simulate, code, unfold, group, transversal, cell, complexity.
Exit codes: 0 ok, 2 parse problem, 3 non-convex input, 4 precondition
violated, 5 internal error.  Every artifact embeds a hash of the resolved
configuration so reruns are attributable; outputs are deterministic for a
fixed seed regardless of --threads.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import billiard, geometry, symbolic, transversal, unfolding

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NONCONVEX = 3
EXIT_PRECONDITION = 4
EXIT_INTERNAL = 5

_PRECONDITION_ERRORS = (
    billiard.SingularInput, billiard.EmptyReport, geometry.NoAdvance,
    transversal.IdenticalLines, transversal.NotPairwiseSkew,
    symbolic.LabelNotReachable, ValueError, KeyError,
)
_GEOMETRY_ERRORS = (geometry.NonConvex, geometry.OpenSurface,
                    geometry.DegenerateFace)


class _ParseFailure(Exception):
    pass


def _parse_vec(text: str) -> np.ndarray:
    parts = [_parse_finite(x, "vector component") for x in text.split(",")]
    if len(parts) != 3:
        raise _ParseFailure(f"expected 3 components, got {len(parts)}")
    return np.array(parts)


def _parse_direction(text: str) -> np.ndarray:
    v = _parse_vec(text)
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise _ParseFailure("direction must be nonzero")
    if abs(n - 1.0) > 1e-6:
        print(f"warning: |theta| = {n:.9g}, normalizing", file=sys.stderr)
    return v / n


def _parse_finite(text: str, what: str) -> float:
    try:
        x = float(text)
    except ValueError:
        raise _ParseFailure(f"{what} expects a number, got {text!r}")
    if not np.isfinite(x):
        raise _ParseFailure(f"{what} must be finite, got {text!r}")
    return x


def _parse_budget(text: str) -> int:
    return int(_parse_finite(text, "--budget"))


def _parse_tolerances(pairs: list[str]) -> geometry.Tolerances:
    fields = {f.name for f in dataclasses.fields(geometry.Tolerances)}
    overrides: dict[str, float] = {}
    for item in pairs or []:
        if "=" not in item:
            raise _ParseFailure(f"--tol expects name=value, got {item!r}")
        name, _, val = item.partition("=")
        if name not in fields:
            raise _ParseFailure(f"unknown tolerance {name!r} (have {sorted(fields)})")
        x = _parse_finite(val, f"--tol {name}")
        if not (1e-14 <= x <= 1e-3):
            raise ValueError(f"tolerance {name} out of sane bounds [1e-14, 1e-3]")
        overrides[name] = x
    return dataclasses.replace(geometry.Tolerances(), **overrides)


def _load_polyhedron(args) -> geometry.Polyhedron:
    """The ``polyhedron`` argument of a subcommand, under its ``--tol`` overrides."""
    tol, path = _parse_tolerances(args.tol), args.polyhedron
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise _ParseFailure(f"cannot read {path}: {e}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise _ParseFailure(f"bad JSON in {path}: {e}")
    try:
        return geometry.load_polyhedron(data, tol=tol)
    except _GEOMETRY_ERRORS:
        raise
    except (ValueError, KeyError, TypeError) as e:
        # a missing key or a wrongly typed entry is as malformed as a bad value
        raise _ParseFailure(f"bad polyhedron in {path}: {type(e).__name__}: {e}")


_NON_SEMANTIC_KEYS = {"func", "out", "threads"}


def _config_hash(ns: argparse.Namespace) -> str:
    payload = {k: v for k, v in sorted(vars(ns).items())
               if k not in _NON_SEMANTIC_KEYS}
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _emit(out: str | None, text: str) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _json_line(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), allow_nan=True)


def _orbit(args) -> tuple[geometry.Polyhedron, billiard.OrbitRecord]:
    """The solid and the ``--steps`` orbit from ``--m``/``--theta``/``--face``."""
    P = _load_polyhedron(args)
    theta = _parse_direction(args.theta)
    x = billiard.phase_point(P, _parse_vec(args.m), theta, face=args.face)
    return P, billiard.orbit(x, args.steps, P)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    P, rec = _orbit(args)
    lines = [_json_line({"config_hash": _config_hash(args), "command": "simulate",
                         "status": "completed" if rec.completed else "singular"})]
    for k, pp in enumerate(rec.points):
        lines.append(_json_line({"n": k, "face": P.labels[pp.face],
                                 "m": [float(v) for v in pp.m],
                                 "theta": [float(v) for v in pp.theta]}))
    _emit(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_code(args) -> int:
    P, rec = _orbit(args)
    out = {
        "config_hash": _config_hash(args),
        "word": rec.word,
        "status": "completed" if rec.completed else "singular",
        "near_singular_steps": rec.near_singular_steps,
    }
    if rec.singularity is not None:
        out["singularity"] = {"kind": rec.singularity.kind.value,
                              "step": rec.singularity.step}
    _emit(args.out, json.dumps(out, indent=2) + "\n")
    return EXIT_OK


def _cmd_unfold(args) -> int:
    P, rec = _orbit(args)
    track = unfolding.unfold_orbit(rec, P)
    lines = [_json_line({"config_hash": _config_hash(args), "command": "unfold",
                         "residual": track.residual,
                         "relative_residual": track.relative_residual})]
    for k, p in enumerate(track.points):
        lines.append(_json_line({"n": k, "point": [float(v) for v in p]}))
    _emit(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_group(args) -> int:
    P = _load_polyhedron(args)
    closure = unfolding.generate_group(P, bound=args.bound)
    if closure.closed:
        print(closure.order)
    else:
        print(f"NOT_CLOSED({args.bound})")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "config_hash": _config_hash(args),
            "closed": closure.closed,
            "order": closure.order,
            "bound": args.bound,
        }, indent=2) + "\n")
    return EXIT_OK


def _cmd_transversal(args) -> int:
    if args.samples < 0:
        raise ValueError("--samples must be >= 0")
    if args.probes < 0:
        raise ValueError("--probes must be >= 0")
    try:
        data = json.loads(Path(args.edges).read_text())
        raw = data["edges"]
        edges = [transversal.EdgeLine.of(e["p"], e["x"]) for e in raw]
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise _ParseFailure(f"bad edges file: {e}")
    if not 2 <= len(edges) <= 4:
        raise _ParseFailure("edges file must contain 2, 3, or 4 edges")

    out: dict = {"config_hash": _config_hash(args), "n_edges": len(edges)}
    if len(edges) == 2:
        con = transversal.pair_constraint(edges[0], edges[1])
        if isinstance(con, transversal.RationalConstraint):
            out["constraint"] = {"kind": "rational",
                                 "numerator": list(map(float, con.numerator)),
                                 "denominator": list(map(float, con.denominator))}
        else:
            out["constraint"] = {"kind": "coplanar",
                                 "form": list(map(float, con.form))}
    elif len(edges) == 3:
        S = transversal.triple_surface(*edges)
        lines = transversal.sample_transversals(*edges, count=args.samples)
        out["transversals"] = [{"point": list(map(float, l.point)),
                                "direction": list(map(float, l.direction))}
                               for l in lines]
        out["transversals_on_surface"] = int(sum(
            transversal.count_line_surface_intersections(l, S) == transversal.ON_SURFACE
            for l in lines))
        rng = np.random.default_rng(args.seed)
        counts = []
        for _ in range(args.probes):
            probe = transversal.EdgeLine.of(rng.normal(size=3), rng.normal(size=3))
            c = transversal.count_line_surface_intersections(probe, S)
            counts.append(-1 if c == transversal.ON_SURFACE else int(c))
        out["probe_counts"] = counts
        out["max_probe_count"] = max((c for c in counts if c >= 0), default=0)
    else:
        out["independence"] = transversal.independence_check(*edges)
    _emit(args.out, json.dumps(out, indent=2) + "\n")
    return EXIT_OK


def _cmd_cell(args) -> int:
    if args.kmax < 1:
        raise ValueError("--kmax must be >= 1")
    P = _load_polyhedron(args)
    theta = _parse_direction(args.theta)
    word = [w.strip() for w in args.word.split(",") if w.strip()]
    if not word:
        raise ValueError("word must contain at least one label")
    for label in word:
        P.face_index(label)     # an unknown label raises, even past an empty prefix
    if any(a == b for a, b in zip(word, word[1:])):
        raise symbolic.LabelNotReachable("consecutive labels cannot repeat on a convex solid")
    beam = symbolic.make_beam(P, word[0], theta)
    for label in word[1:]:
        if beam.is_empty:       # no line realizes the prefix, so none the word
            break
        beam = symbolic.propagate_beam(beam, label, P)
    cell = symbolic.classify_cell(beam)
    out = {"config_hash": _config_hash(args), "word": word, "kind": cell.kind}
    if cell.width is not None:
        out["width"] = cell.width
    if cell.area is not None:
        out["area"] = cell.area
    out["period"] = None if beam.is_empty else symbolic.detect_periodicity(beam, args.kmax)
    _emit(args.out, json.dumps(out, indent=2) + "\n")
    return EXIT_OK


def _cmd_complexity(args) -> int:
    P = _load_polyhedron(args)
    table = symbolic.estimate_complexity(P, args.nmax, _parse_budget(args.budget),
                                         seed=args.seed, workers=args.threads)
    h = _config_hash(args)
    rows = [f"# config_hash={h}", "n,p_hat,log_p_over_n"]
    for n, p, l in zip(table.n, table.p_hat, table.log_p_over_n):
        rows.append(f"{n},{p},{l:.12g}")
    _emit(args.out, "\n".join(rows) + "\n")
    meta = {
        "config_hash": h,
        "budget": table.budget,
        "seed": table.seed,
        "n_max": table.n_max,
        "discarded_near_singular": table.discarded,
        "singular_terminated": table.singular,
        "stratification_tiles": list(table.tiles),
        "labels": table.labels,
        "factor_closure": table.factor_closure_holds(workers=args.threads),
        "extendability_ok": table.extendability_ok,
    }
    if args.out:
        Path(args.out + ".meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    else:
        print(json.dumps(meta, indent=2), file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------

def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="polybilliard",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("polyhedron", help="polyhedron JSON file")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--tol", action="append", default=[],
                       help="tolerance override name=value (repeatable)")

    def orbit_flags(p):
        p.add_argument("--m", required=True, help="start point x,y,z")
        p.add_argument("--theta", required=True, help="direction x,y,z (normalized)")
        p.add_argument("--face", default=None, help="start face label (else located)")
        p.add_argument("--steps", type=int, default=100, help="bounces to record")

    p = sub.add_parser("simulate", help="iterate the map, one JSON line per bounce")
    common(p); orbit_flags(p); p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("code", help="face-label word of an orbit")
    common(p); orbit_flags(p); p.set_defaults(func=_cmd_code)

    p = sub.add_parser("unfold", help="straight-line unfolding of an orbit")
    common(p); orbit_flags(p); p.set_defaults(func=_cmd_unfold)

    p = sub.add_parser("group", help="close the face-reflection group")
    common(p)
    p.add_argument("--bound", type=int, default=10000)
    p.set_defaults(func=_cmd_group)

    p = sub.add_parser("transversal", help="edge incidence constraints and surface")
    p.add_argument("edges", help="JSON file {'edges': [{'p': [...], 'x': [...]}, ...]}")
    p.add_argument("--out", default=None)
    p.add_argument("--samples", type=int, default=33)
    p.add_argument("--probes", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_transversal)

    p = sub.add_parser("cell", help="classify the cell of (direction, word)")
    common(p)
    p.add_argument("--theta", required=True)
    p.add_argument("--word", required=True, help="comma-separated face labels")
    p.add_argument("--kmax", type=int, default=32, help="max period to test")
    p.set_defaults(func=_cmd_cell)

    p = sub.add_parser("complexity", help="sampled word-complexity table (CSV)")
    common(p)
    p.add_argument("--nmax", type=int, default=12)
    p.add_argument("--budget", default="100000", help="orbit count (accepts 1e6)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=_usable_cpus())
    p.set_defaults(func=_cmd_complexity)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except _ParseFailure as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except _GEOMETRY_ERRORS as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_NONCONVEX
    except _PRECONDITION_ERRORS as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_PRECONDITION
    except Exception as e:  # pragma: no cover - defensive
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
