"""evhybrid's benchmark: one workload per call, one JSON result line.

    python3 perfbench/run.py --workload toy-train --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``. With
``--trace 0`` the result holds the end-to-end metrics, measured untraced.
With ``--trace 1`` it holds the per-layer metrics: the run measures half its
time untraced, then replays the same units from an identical set-up with a
span around every call into a layer, and checks that both give the same
outputs. Manifests and spans go to ``.bench_out/``. See NOTES.md.
"""

from __future__ import annotations

import os

# BLAS must be pinned before numpy loads: one thread keeps runs steady on a
# shared two-core machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from calibrate import Calibration  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("toy-train", "toy-stream", "sensor-deploy")
SETUP_REPEATS = 3
CAL_EVERY_S = 0.5
CAL_RUNS = 5  # kernel runs a unit's time is divided by: the nearest ones
# setup_s is in seconds at this kernel time, the kernel's time on the machine
# the benchmark was built on when it ran fastest
CAL_REFERENCE_MS = 10.0
SNN_LAYERS = 2  # configs/toy.ini's spiking stack
BITS = (8, 6, 4, 2)

# Per-layer metrics of the traced run. A layer a workload never calls reads 0.
TIMED_SPANS = [
    "events.read", "events.bin",
    *[f"snn{i}.{d}" for i in range(1, SNN_LAYERS + 1) for d in ("fwd", "bwd")],
    "bridge.fwd", "bridge.bwd", "ann1.fwd", "ann1.bwd", "lstm1.fwd", "head.fwd", "head.bwd",
    "model.decode", "train.optim",
    "quantize.fuse", "quantize.fxp_fwd", "quantize.float_ref", "quantize.compare",
    "profiling.acs",
]
LAYERS = ("events", "snn", "bridge", "ann", "model", "train", "quantize", "profiling")

# The raw latency and real-time factor, as each workload's users name them.
USER_NAMES = {
    "toy-train": {"step_ms.p50": "train_step_ms.p50", "rtf": "train_rtf"},
    "toy-stream": {"step_ms.p50": "infer_window_ms.p50", "rtf": "infer_rtf"},
    "sensor-deploy": {"step_ms.p50": "deploy_window_ms.p50", "rtf": "deploy_rtf"},
}


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _tail(ms: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile, up to p90, with ten samples beyond it."""
    if len(ms) < 20:
        return None
    p = min(90, int(100 * (1 - 10 / len(ms))))
    return p, statistics.quantiles(ms, n=100)[p - 1]


def _source_hash() -> str:
    h = hashlib.sha256()
    for sub, pattern in (("src", "*.py"), ("configs", "*.ini")):
        for path in sorted((ROOT / sub).rglob(pattern)):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _manifest(workload, args, np) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "config_hash": workload.config_hash(),
        "source_hash": _source_hash(),
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _guarded(fn, k):
    from workloads import UnitResult

    try:
        return fn(k)
    except Exception as exc:  # a unit that raises is a failed unit; the loop goes on
        return UnitResult(ms=float("nan"), errors=[f"unit {k}: {type(exc).__name__}: {exc}"])


def _measure(workload, st, seconds: float, keep: bool, cal=None) -> list:
    """Untraced closed loop: units until ``seconds`` have passed. With a
    calibration, its kernel runs between units every ``CAL_EVERY_S``, and
    each result gets ``cal_ms``, the kernel's time around that unit."""
    results, spans = [], []
    t0 = last_cal = time.perf_counter()
    while not results or time.perf_counter() - t0 < seconds:
        start = time.perf_counter()
        results.append(_guarded(lambda k: workload.run(st, k, keep), len(results)))
        spans.append((start, time.perf_counter()))
        if cal is not None and time.perf_counter() - last_cal >= CAL_EVERY_S:
            cal()
            last_cal = time.perf_counter()
    if cal is not None:
        cal()
        for r, (start, end) in zip(results, spans):
            r.cal_ms = cal.around(start, end, CAL_RUNS)
    return results


def _untraced(workload, states, setup_times, cal, seconds, manifest) -> tuple[dict, list, list]:
    (st,) = states
    # each set-up is scaled by the kernel time just before and after it
    setup_s = statistics.median(s * CAL_REFERENCE_MS / ms for s, ms in setup_times)
    results = _measure(workload, st, seconds, keep=False, cal=cal)
    errors = workload.final_check(st, results)
    ok = [r for r in results if r.ms == r.ms]
    ms = [r.ms for r in ok]
    busy = sum(ms) + sum(r.extra_ms for r in results)
    covered = len(results) * workload.windows_per_unit * workload.cfg.simulation.window_ms
    metrics = {
        "step_cal.p50": (statistics.median(r.ms / r.cal_ms for r in ok), "cal"),
        "step_cal.mean": (statistics.fmean((r.ms + r.extra_ms) / r.cal_ms for r in ok), "cal"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    names = USER_NAMES[workload.name]
    raw = {
        names["step_ms.p50"]: (statistics.median(ms), "ms"),
        names["rtf"]: (busy / covered, "ratio"),
        "calibration_ms.p50": (statistics.median(cal.ms), "ms"),
        "setup_s.raw": (statistics.median(s for s, _ in setup_times), "s"),
    }
    tail = _tail(ms)
    if tail:
        raw[names["step_ms.p50"].replace(".p50", f".p{tail[0]}")] = (tail[1], "ms")
    manifest["raw"] = {k: {"value": v, "unit": u} for k, (v, u) in raw.items()}
    _print_metrics(workload, metrics)
    print("  as measured on this machine, not gated:")
    _print_metrics(None, raw)
    if not tail:
        print(f"  no tail percentile: {len(ms)} samples, fewer than 20")
    return metrics, results, errors


def _counted(units: list) -> dict[str, float]:
    total: dict[str, float] = {}
    for r in units:
        for key, v in r.counts.items():
            total[key] = total.get(key, 0) + v
    return total


def _per_layer(workload, tracer, traced, probe: int, overhead: float) -> tuple[dict, dict]:
    """Per-layer metrics: span times per unit over the traced pass, and counts
    over its first ``probe`` units, which are the same on every run."""
    from evhybrid.profiling import count_dense_macs

    n = len(traced)
    by_name, by_layer = tracer.totals_ms()
    metrics: dict[str, tuple[float, str]] = {}
    for name in TIMED_SPANS:
        metrics[f"{name}_ms"] = (by_name.get(name, 0.0) / n, "ms")
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (by_layer.get(layer, 0.0) / n, "ms")
    macs = count_dense_macs(workload.cfg).per_layer
    fwd_windows = _counted(traced).get("windows", 0)
    for name in [f"snn{i}" for i in range(1, SNN_LAYERS + 1)] + ["bridge"]:
        fwd_s = by_name.get(f"{name}.fwd", 0.0) / 1e3
        rate = macs[name].macs * fwd_windows / fwd_s / 1e9 if fwd_s else 0.0
        metrics[f"{name}.gmac_per_s"] = (rate, "GMAC/s")

    c = _counted(traced[:probe])
    windows = c.get("windows", 0) or 1
    counts = {
        "events.per_window": c.get("events", 0) / windows,
        "model.detections_per_window": c.get("detections", 0) / windows,
        "tape.nodes_per_step": c.get("tape_nodes", 0) / probe,
        "quantize.overflow_count": c.get("overflow", 0),
        "profiling.acs_per_window": c.get("profiling.acs", 0) / windows,
    }
    for i in range(1, SNN_LAYERS + 1):
        cells = c.get(f"snn{i}.cells", 0)
        counts[f"snn{i}.spike_density"] = c.get(f"snn{i}.spikes", 0) / cells if cells else 0.0
        counts[f"snn{i}.acs"] = c.get(f"snn{i}.acs", 0) / windows
    for bits in BITS:
        for i in range(1, SNN_LAYERS + 1):
            counts[f"quantize.int{bits}.mismatch.snn{i}"] = c.get(f"int{bits}.mismatch.snn{i}", 0)
    for bits in (8, 2):
        cells = c.get(f"int{bits}.cells", 0)
        wrong = sum(c.get(f"int{bits}.mismatch.snn{i}", 0) for i in range(1, SNN_LAYERS + 1))
        counts[f"quantize.int{bits}.match_rate"] = 1 - wrong / cells if cells else 0.0
    for key, v in counts.items():
        metrics[key] = (v, "frac" if key.endswith(("density", "match_rate")) else "count")
    metrics["trace.overhead_frac"] = (overhead, "frac")
    # analytic MACs join the counts that must repeat, without being metrics
    counts.update({f"{name}.macs": lc.macs for name, lc in macs.items()})
    return metrics, counts


def _traced(workload, states, cal, seconds, manifest) -> tuple[dict, list, list]:
    from tracer import Tracer

    ref_st, st = states
    ref = _measure(workload, ref_st, seconds / 2, keep=True, cal=cal)
    errors = workload.final_check(ref_st, ref)
    probe = workload.probe_units(st)
    tracer = Tracer()
    traced = [
        _guarded(lambda k: workload.run_traced(st, k, tracer), k) for k in range(max(len(ref), probe))
    ]
    errors += workload.final_check(st, traced)
    errors += workload.guard(ref, traced)
    traced_ms = tracer.unit_ms()
    n = min(len(ref), len(traced_ms))
    overhead = sum(traced_ms[:n]) / sum(r.ms + r.extra_ms for r in ref[:n]) - 1
    metrics, counts = _per_layer(workload, tracer, traced, probe, overhead)
    manifest["counts"] = counts
    manifest["steady"] = _counts_steady(manifest)
    spans = OUT / f"{workload.name}-seed{manifest['seed']}-spans.json"
    spans.write_text(json.dumps(tracer.to_records()))
    _print_metrics(workload, metrics)
    print(f"  counts equal to the last traced run of this seed: {manifest['steady']}")
    return metrics, ref + traced, errors


def _counts_steady(manifest: dict) -> bool | None:
    """Whether the counts equal those of the previous traced run of the same
    seed and source; None when there is none to compare with."""
    path = OUT / f"{manifest['workload']}-seed{manifest['seed']}-trace1.json"
    try:
        prev = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if prev.get("source_hash") != manifest["source_hash"] or "counts" not in prev:
        return None
    return prev["counts"] == manifest["counts"]


def _print_metrics(workload, metrics) -> None:
    if workload is not None:
        print(f"workload {workload.name}")
    for key, (v, unit) in metrics.items():
        print(f"  {key:<34} {v:14.4f} {unit}")


def run_one(args) -> int:
    src = ROOT / "src" / "evhybrid"
    if not src.is_dir():
        return _fail(f"no package source at {src}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import evhybrid
    from workloads import WORKLOADS

    if Path(evhybrid.__file__).resolve().parent != src.resolve():
        return _fail(f"imported evhybrid from {evhybrid.__file__}, not {src}")
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](ROOT, args.seed)
    manifest = _manifest(workload, args, np)

    setup_times, states, prints = [], [], set()
    cal = Calibration()
    cal()
    try:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            states.append(workload.setup())
            t1 = time.perf_counter()
            cal()
            setup_times.append((t1 - t0, cal.around(t0, t1, 2)))
            prints.add(workload.fingerprint(states[-1]))
        manifest["setup_s_raw"] = [s for s, _ in setup_times]
        # only the set-ups the run uses stay in memory
        while len(states) > 1 + args.trace:
            workload.cleanup(states.pop(0))
        if args.trace:
            metrics, units, errors = _traced(workload, states, cal, args.seconds, manifest)
        else:
            metrics, units, errors = _untraced(workload, states, setup_times, cal, args.seconds, manifest)
    finally:
        for st in states:
            workload.cleanup(st)
    if len(prints) != 1:
        errors.append("set-up is not deterministic: repeated set-ups differ")
    failed = sum(1 for r in units if r.errors)
    errors += [e for r in units for e in r.errors]
    for e in errors[:20]:
        print(f"  FAIL {e}", file=sys.stderr)
    print(f"  ops_failed_frac {failed / len(units):.4f} ({failed} of {len(units)})")

    result = {
        "correct": not errors,
        "attempted": len(units),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    manifest.update(unit_ms=[r.ms for r in units], calibration_ms=cal.ms, errors=errors, **result)
    path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(manifest, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so that peak RSS is its own."""
    ok = True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        ok &= subprocess.run(cmd, cwd=ROOT).returncode == 0
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
