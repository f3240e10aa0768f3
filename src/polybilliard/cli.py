"""Command-line front end.

Subcommands: simulate, code, unfold, group, transversal, cell, complexity.
Exit codes: 0 ok, 2 parse problem, 3 non-convex input, 4 precondition
violated (``geometry.PreconditionFailed``), 5 internal error (any other
exception, a ``ValueError`` too).  Artifacts embed a hash of the resolved
configuration; outputs are deterministic for a fixed seed at any --threads.
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

_SOLID_ERRORS = (geometry.NonConvex, geometry.OpenSurface, geometry.DegenerateFace)


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
    x = _parse_finite(text, "--budget")
    if x >= 1 and not x.is_integer():
        raise geometry.PreconditionFailed(f"--budget must be a whole number, got {text!r}")
    return int(x)


def _parse_word(text: str) -> list[str]:
    word = [w.strip() for w in text.split(",") if w.strip()]
    if not word:
        raise geometry.PreconditionFailed("word must contain at least one label")
    return word


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
            raise geometry.PreconditionFailed(
                f"tolerance {name} out of sane bounds [1e-14, 1e-3]")
        overrides[name] = x
    return dataclasses.replace(geometry.Tolerances(), **overrides)


# main replaces each of these flags' text by its parsed value, once, so the
# commands and the config hash read one resolved configuration
_PARSERS = {"tol": _parse_tolerances, "budget": _parse_budget, "m": _parse_vec,
            "theta": _parse_direction, "word": _parse_word}


# each count flag's least value; main checks them before any work
_MINIMA = {"steps": 1, "bound": 1, "kmax": 1, "nmax": 2, "threads": 1,
           "seed": 0, "samples": 0, "probes": 0}


def _load_polyhedron(args) -> geometry.Polyhedron:
    """The ``polyhedron`` argument of a subcommand, under its ``--tol`` overrides."""
    path = args.polyhedron
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise _ParseFailure(f"cannot read {path}: {e}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise _ParseFailure(f"bad JSON in {path}: {e}")
    try:
        return geometry.load_polyhedron(data, tol=args.tol)
    except geometry.PreconditionFailed as e:
        raise _ParseFailure(f"bad polyhedron in {path}: {type(e).__name__}: {e}")


_NON_SEMANTIC_KEYS = {"func", "out", "threads"}


def _config_hash(ns: argparse.Namespace) -> str:
    """Hash of the resolved configuration: ``--budget 1e3`` and ``1000``,
    ``--theta 1,0,1`` and ``2,0,2``, ``--word z0,x1`` and ``z0, x1,``, or
    ``--tol`` flags in any order or spelling out a default, hash alike."""
    payload = {k: v for k, v in vars(ns).items() if k not in _NON_SEMANTIC_KEYS}
    blob = json.dumps(payload, sort_keys=True, default=_resolved_json).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _resolved_json(v):
    """A parsed flag value as JSON: a vector's floats, a ``Tolerances``' fields."""
    return v.tolist() if isinstance(v, np.ndarray) else dataclasses.asdict(v)


def _emit(out: str | None, text: str) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as e:
        raise _ParseFailure(f"cannot write {out}: {e}")


def _json_line(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), allow_nan=True)


def _orbit(args) -> tuple[geometry.Polyhedron, billiard.OrbitRecord]:
    """The solid and the ``--steps`` orbit from ``--m``/``--theta``/``--face``."""
    P = _load_polyhedron(args)
    x = billiard.phase_point(P, args.m, args.theta, face=args.face)
    return P, billiard.orbit(x, args.steps, P)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    _, rec = _orbit(args)
    lines = [_json_line({"config_hash": _config_hash(args), "command": "simulate",
                         "status": "completed" if rec.completed else "singular"})]
    for k, (label, m, theta) in enumerate(zip(rec.word, rec.m.tolist(), rec.theta.tolist())):
        lines.append(_json_line({"n": k, "face": label, "m": m, "theta": theta}))
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
    if args.out:
        _emit(args.out, json.dumps({
            "config_hash": _config_hash(args),
            "closed": closure.closed,
            "order": closure.order,
            "bound": args.bound,
        }, indent=2) + "\n")
    if closure.closed:
        print(closure.order)
    else:
        print(f"NOT_CLOSED({args.bound})")
    return EXIT_OK


def _cmd_transversal(args) -> int:
    try:
        edges = transversal.load_edges(json.loads(Path(args.edges).read_text()))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError,
            geometry.PreconditionFailed) as e:
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
    P = _load_polyhedron(args)
    beam = symbolic.make_beam(P, args.word[0], args.theta)
    for label in args.word[1:]:
        beam = symbolic.propagate_beam(beam, label, P)
    cell = symbolic.classify_cell(beam)
    out = {"config_hash": _config_hash(args), "word": args.word, "kind": cell.kind}
    if cell.area is not None:
        out["area"] = cell.area
    out["period"] = symbolic.detect_periodicity(beam, args.kmax)
    _emit(args.out, json.dumps(out, indent=2) + "\n")
    return EXIT_OK


def _cmd_complexity(args) -> int:
    P = _load_polyhedron(args)
    table = symbolic.estimate_complexity(P, args.nmax, args.budget,
                                         seed=args.seed, workers=args.threads)
    h = _config_hash(args)
    rows = [f"# config_hash={h}", "n,p_hat,log_p_over_n"]
    for n, p, l in zip(table.n, table.p_hat, table.log_p_over_n):
        rows.append(f"{n},{p},{l:.12g}")
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
    meta_text = json.dumps(meta, indent=2) + "\n"
    _emit(args.out, "\n".join(rows) + "\n")
    if not args.out:
        sys.stderr.write(meta_text)
        return EXIT_OK
    try:
        _emit(args.out + ".meta.json", meta_text)
    except _ParseFailure:       # no table without its sidecar
        Path(args.out).unlink(missing_ok=True)
        raise
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
        for flag, parse in _PARSERS.items():
            if flag in vars(args):
                setattr(args, flag, parse(getattr(args, flag)))
        for flag, least in _MINIMA.items():
            geometry.as_count(getattr(args, flag, least), f"--{flag}", least)
        return args.func(args)
    except _ParseFailure as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except _SOLID_ERRORS as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_NONCONVEX
    except geometry.PreconditionFailed as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_PRECONDITION
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
