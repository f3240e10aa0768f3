"""polybilliard benchmark: one workload per invocation, result as a JSON line.

    python3 perfbench/run.py --workload cube-n12 --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy.  Each workload repeats a
fixed pass of closed-loop calls for ``--seconds`` (at least three passes),
checks every pass's outputs untimed, and prints human-readable metric lines
followed by one JSON object as the last line of standard output.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half the
time on untraced passes and half on passes with the per-layer hooks of
``spans.py`` installed, all on the inputs of pass 0, and reports the
per-layer metrics together with the tracing overhead.  ``--smoke`` shrinks
every workload for the benchmark's own tests, and ``--corrupt`` damages one
result before it is checked, to show that the checks catch it.
"""

from __future__ import annotations

import argparse
import os
import sys

# one BLAS thread per process, so the complexity pool is the only parallelism;
# this must happen before numpy is first imported
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import gc                                                     # noqa: E402
import json                                                   # noqa: E402
import platform                                               # noqa: E402
import resource                                               # noqa: E402
import shutil                                                 # noqa: E402
import statistics                                             # noqa: E402
import subprocess                                             # noqa: E402
import time                                                   # noqa: E402
from pathlib import Path                                      # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())   # metric names and units
SETUP_PROBES = 9
CORRUPTIONS = ("word-code", "residual", "period")


def _import_package():
    """Import polybilliard from ROOT/src; exit with an error when the checkout lacks it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import polybilliard
    except ImportError as e:
        sys.exit(f"perfbench: cannot import polybilliard from {src}: {e}")
    if Path(polybilliard.__file__).resolve().parent.parent != src:
        sys.exit(f"perfbench: polybilliard resolved to {polybilliard.__file__}, "
                 f"not to the checkout's {src}")


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def run_notes(args) -> dict:
    import numpy as np
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(str(idx / "level")).strip()
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(str(idx / "size")).strip()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    os_threads = next((line.split()[1] for line in _read("/proc/self/status").splitlines()
                       if line.startswith("Threads:")), "unknown")
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "caches": caches or "unknown", "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_env": BLAS_ENV,
            "os_threads_after_import": os_threads, "git_commit": commit or "unknown"}


class Calibration:
    """A fixed numpy kernel owned by the benchmark, timed next to every pass.

    Its time tracks how fast the machine runs right now (other tenants,
    clock changes), independently of the package under test.  ``bracket``
    converts a raw time measured between two kernel runs into reference
    seconds: raw * REF_S / (mean kernel time)."""

    REF_S = 0.028              # the kernel's time on an idle 2-vCPU Xeon KVM guest

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.np = np
        self.small = rng.normal(size=(200, 3, 3))        # L1-sized, interpreter-bound
        self.medium = rng.normal(size=(3000, 3, 3))      # L2-sized
        self.keys = rng.integers(0, 1 << 40, 400_000)    # L3/memory-sized
        self.vecs = rng.normal(size=(100_000, 6))
        self()                                           # warm up
        self.last = self()

    def __call__(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        for i in range(300):
            np.abs(self.small - self.small[i % 200]).max(axis=(1, 2)).min()
        for i in range(60):
            np.abs(self.medium - self.medium[i]).max(axis=(1, 2)).min()
        np.sort(self.keys)
        for _ in range(2):
            np.argmin(self.vecs @ self.vecs[:6].T, axis=1)
        return time.perf_counter() - t0

    def bracket(self, raw_s: float) -> tuple[float, float]:
        """(kernel time around a measurement just taken, its reference seconds)."""
        before, self.last = self.last, self()
        cal_s = (before + self.last) / 2
        return cal_s, raw_s * self.REF_S / cal_s


def measure(wl, cal: Calibration, seconds: float, inputs_for, on_pass=None
            ) -> tuple[list, int, int, list]:
    """Run passes back to back until ``seconds`` are spent (at least three);
    returns (pass results, ops attempted, ops failed, failure messages)."""
    results, attempted, failed, messages = [], 0, 0, []
    t_end = time.perf_counter() + seconds
    k = 0
    cal.last = cal()
    while k < 3 or time.perf_counter() < t_end:
        inputs = inputs_for(k)
        mark = on_pass() if on_pass else None
        res = wl.run_pass(inputs)
        res.cal_s, res.ref_s = cal.bracket(res.wall_s)
        res.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if on_pass:
            res.span_range = (mark, on_pass())
        chk = wl.check_pass(inputs, res)
        res.raw = None                 # keep no garbage from earlier passes alive
        results.append(res)
        gc.collect()
        attempted += res.ops
        failed += chk.failed
        messages += chk.messages
        k += 1
    return results, attempted, failed, messages


def setup_seconds(args, cal: Calibration) -> tuple[list[float], list[float]]:
    """Process start to the first timed call, in fresh processes; returns
    raw seconds and reference seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    raw, ref = [], []
    cal.last = cal()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError(f"setup probe failed: {line!r}")
        raw.append(t1 - t0)
        ref.append(cal.bracket(t1 - t0)[1])
    return raw, ref


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes for self-tests")
    ap.add_argument("--corrupt", choices=CORRUPTIONS, default=None,
                    help="damage one result before it is checked")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _import_package()
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; have {', '.join(workloads.WORKLOADS)}")
    workdir = HERE / "_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.build(args.workload, args.seed, workdir, args.smoke, args.corrupt)
        inputs0 = wl.make_inputs(0)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        cal = Calibration()
        if args.trace:
            result = traced_run(args, wl, cal, inputs0, Tracer)
        else:
            result = untraced_run(args, wl, cal, inputs0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass                        # another run still uses it
    print(json.dumps(result), flush=True)
    return 0


def _finish(wl, attempted, failed, messages, metrics, units, extra, notes) -> dict:
    extra_ops, chk = wl.run_checks()              # once per run, untimed
    attempted += extra_ops
    failed += chk.failed
    messages += chk.messages
    notes.update(wl.report())
    notes.update(extra)
    notes["failed_frac"] = failed / attempted
    print("notes " + json.dumps(notes))
    for msg in messages:
        print("check failed: " + msg)
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def untraced_run(args, wl, cal, inputs0) -> dict:
    inputs_for = lambda k: inputs0 if k == 0 else wl.make_inputs(k)   # noqa: E731
    results, attempted, failed, messages = measure(wl, cal, args.seconds, inputs_for)
    raw_setup, setup = setup_seconds(args, cal)
    walls = [r.wall_s for r in results]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(r.ref_s for r in results),
        "work_per_s": statistics.median(r.work / r.ref_s for r in results),
        # through the first pass: later passes only add allocator-arena
        # fragmentation that depends on which pool thread ran which chunk
        "peak_rss_mb": results[0].rss_mb,
    }
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    extra = {"work_item": wl.work_item, "passes": len(results),
             "raw_wall_s": statistics.median(walls),
             "raw_setup_s": statistics.median(raw_setup), "setup_samples": len(setup),
             "pass_wall_s": walls, "cal_s": [r.cal_s for r in results]}
    if hasattr(wl, "budget"):
        extra["orbits_per_s"] = wl.budget / metrics["wall_s"]
    elif wl.work_item == "bounce":
        extra["bounces_per_s"] = metrics["work_per_s"]
    return _finish(wl, attempted, failed, messages, metrics, units, extra,
                   run_notes(args))


def traced_run(args, wl, cal, inputs0, Tracer) -> dict:
    same = lambda k: inputs0                                           # noqa: E731
    plain, attempted, failed, messages = measure(wl, cal, args.seconds / 2, same)
    tracer = Tracer()
    with tracer:
        traced, a2, f2, m2 = measure(wl, cal, args.seconds / 2, same, on_pass=tracer.mark)
    attempted, failed, messages = attempted + a2, failed + f2, messages + m2
    per_pass = [tracer.layer_metrics(*r.span_range) for r in traced]
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}

    plain_wall = statistics.median(r.ref_s for r in plain)
    speedup = 0.0
    if hasattr(wl, "threads"):                    # plain single-threaded baseline pass
        single = wl.run_pass(inputs0, threads=1)
        single.cal_s, single.ref_s = cal.bracket(single.wall_s)
        chk = wl.check_pass(inputs0, single)
        attempted, failed, messages = attempted + single.ops, failed + chk.failed, \
            messages + chk.messages
        speedup = single.ref_s / plain_wall
    metrics["symbolic.pool_speedup"] = speedup
    metrics["trace.overhead_s"] = statistics.median(r.ref_s for r in traced) - plain_wall
    metrics["trace.missing_hooks"] = len(tracer.missing)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    extra = {"traced_passes": len(traced), "untraced_passes": len(plain),
             "untraced_wall_s": plain_wall, "missing_hooks": tracer.missing,
             "missing_metrics": tracer.missing_metrics(), "spans": len(tracer.spans)}
    metrics = {name: metrics[name] for name in units}
    return _finish(wl, attempted, failed, messages, metrics, units, extra,
                   run_notes(args))


if __name__ == "__main__":
    sys.exit(main())
