"""Benchmark of anisomag: time to a verified limit, one process, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The run imports anisomag from
``src/``, times set-up, then runs units of the workload in a closed loop (each
starts when the previous one ends): at least ``MIN_UNITS`` units
(``MIN_PAIRS`` pairs when traced), then more while a unit as long as the
median so far would still end within ``--seconds``.  Every
unit's outputs are checked; any failed check or exception makes the run exit
with code 1.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end ones.  With ``--trace 1`` every unit runs twice on
the same inputs, untraced and traced (alternating which goes first); the
traced values must equal the untraced ones bit for bit, the metrics are the
per-layer ones, and the spans are written to ``.bench_trace/``.  README.md
describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_UNITS = 3  # untraced runs
MIN_PAIRS = 2  # traced runs: each pair runs one unit untraced and traced
SETUP_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "solve_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "rel_gap": "ratio",
    "err_rel": "ratio",
}

_COUNT, _SECONDS = "count", "s"
PER_LAYER = {
    "bodies.ray_interval.calls": _COUNT,
    "bodies.ray_interval.rays": _COUNT,
    "bodies.ray_interval.self_s": _SECONDS,
    "bodies.ray_interval.flop": "flop",
    "bodies.ray_interval.bytes_computed": "B",
    "bodies.ray_interval.flop_per_byte": "flop/B",
    "bodies.contains.points": _COUNT,
    "bodies.contains.self_s": _SECONDS,
    "bodies.gauge.points": _COUNT,
    "bodies.gauge.self_s": _SECONDS,
    "bodies.sample_uniform.points": _COUNT,
    "bodies.sample_uniform.self_s": _SECONDS,
    "spheres.rule.calls": _COUNT,
    "spheres.rule.nodes": _COUNT,
    "spheres.rule.self_s": _SECONDS,
    "grids.points": _COUNT,
    "grids.self_s": _SECONDS,
    "fields.u_eval.dense_points": _COUNT,
    "fields.u_eval.flat_points": _COUNT,
    "fields.u_eval.flat_share": "ratio",
    "fields.u_eval.self_s": _SECONDS,
    "fields.a_eval.points": _COUNT,
    "fields.a_eval.self_s": _SECONDS,
    "fields.grad.points": _COUNT,
    "fields.grad.self_s": _SECONDS,
    "norms.modulus_pow.elements": _COUNT,
    "norms.modulus_pow.self_s": _SECONDS,
    "norms.kernel.builds": _COUNT,
    "norms.kernel.self_s": _SECONDS,
    "norms.norms_pow_p.contractions": _COUNT,
    "norms.norms_pow_p.self_s": _SECONDS,
    "norms.norms_pow_p.flop": "flop",
    "norms.norms_pow_p.bytes_computed": "B",
    "norms.norms_pow_p.flop_per_byte": "flop/B",
    "norms.moment_norm_batch.vectors": _COUNT,
    "norms.moment_norm_batch.self_s": _SECONDS,
    "norms.moment_norm_sphere.calls": _COUNT,
    "norms.moment_norm_sphere.self_s": _SECONDS,
    "functionals.gagliardo.calls": _COUNT,
    "functionals.gagliardo.self_s": _SECONDS,
    "functionals.nguyen.calls": _COUNT,
    "functionals.nguyen.self_s": _SECONDS,
    "functionals.bbm.calls": _COUNT,
    "functionals.bbm.self_s": _SECONDS,
    "energy.local_energy.self_s": _SECONDS,
    "energy.anisotropic_perimeter.self_s": _SECONDS,
    "limits.extrapolate.calls": _COUNT,
    "limits.extrapolate.self_s": _SECONDS,
    "limits.run_study.self_s": _SECONDS,
    "unit.self_s": _SECONDS,
    "trace.overhead_s": _SECONDS,
    "trace.overhead_frac": "ratio",
}

# A fresh interpreter imports anisomag and builds the inputs; it reports the
# time from its first statement, so interpreter start-up is not counted.
_SETUP_PROBE = (
    "import sys, time; t0 = time.perf_counter(); sys.path[:0] = sys.argv[1:3]; "
    "import workloads; workloads.WORKLOADS[sys.argv[3]].setup(); "
    "print(repr(time.perf_counter() - t0))"
)


def setup_probe(name: str) -> float:
    """Set-up time of ``name`` measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(HERE), name],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def git_sha() -> str:
    """HEAD commit read from ``.git`` in the checkout, or "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def run(workload, inputs: dict, seconds: float, trace: bool, setup_s: list[float],
        min_units: int) -> dict:
    """Run units of ``workload`` on ``inputs`` and return the result object.

    ``setup_s`` holds the measured set-up times; the result's ``units`` list
    and ``spans`` (traced runs) are for the report, not part of the printed
    result line.
    """
    import spans
    import workloads

    snapshot = workloads.load_snapshot(workload.name)
    tracer = spans.Tracer()
    units, layer_runs, overheads = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    passes = []  # wall time of each pass through the loop
    # a pass starts only if one of median length would end within ``seconds``,
    # so a run's length does not hinge on where its last unit ends
    while len(units) < min_units or (
            time.perf_counter() - start + statistics.median(passes) <= seconds):
        k = len(units)
        t_pass = time.perf_counter()
        try:
            if not trace:
                result, wall = _timed(workload.run, inputs, snapshot)
            else:
                def traced():
                    with tracer.installed(), tracer.unit(k):
                        return workload.run(tracer.traced_inputs(inputs), snapshot)

                plain = functools.partial(workload.run, inputs, snapshot)
                # alternate which copy runs first, so that warm-up favours neither
                if k % 2:
                    (traced_result, traced_wall), (result, wall) = _timed(traced), _timed(plain)
                else:
                    (result, wall), (traced_result, traced_wall) = _timed(plain), _timed(traced)
                if traced_result != result:
                    raise AssertionError("tracing changed the unit's values")
                layer_runs.append(spans.unit_metrics(tracer, k))
                overheads.append((traced_wall - wall, (traced_wall - wall) / wall))
        except Exception:  # a failed unit is counted, reported and the run goes on
            import traceback

            traceback.print_exc()
            units.append(None)
            attempted += 1
            failed += 1
            continue
        finally:
            passes.append(time.perf_counter() - t_pass)
        units.append((wall, result))
        attempted += result.ops
        failed += result.failed

    done = [u for u in units if u is not None]
    if trace:
        metrics = layer_metrics(layer_runs, overheads)
    else:
        metrics = {
            "solve_s": statistics.median(wall for wall, _ in done) if done else None,
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if done:
            metrics["rel_gap"] = done[0][1].rel_gap
            metrics["err_rel"] = done[0][1].err_rel
    table = PER_LAYER if trace else END_TO_END
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": table[k]} for k, v in metrics.items() if v is not None},
        "units": units,
        "spans": tracer.to_records() if trace else None,
    }


def layer_metrics(layer_runs: list[dict], overheads: list) -> dict:
    """Per-layer metrics: counts of the first unit, times as medians over units."""
    first = layer_runs[0]
    out = {}
    for name, unit in PER_LAYER.items():
        if unit == _SECONDS:
            out[name] = statistics.median(run.get(name, 0.0) for run in layer_runs)
        else:
            out[name] = int(first.get(name, 0))
    dense, flat = first.get("fields.u_eval.dense_points", 0), first.get("fields.u_eval.flat_points", 0)
    out["fields.u_eval.flat_share"] = flat / (dense + flat) if dense + flat else 0.0
    for kernel in ("bodies.ray_interval", "norms.norms_pow_p"):
        nbytes = first.get(f"{kernel}.bytes_computed", 0)
        out[f"{kernel}.flop_per_byte"] = first.get(f"{kernel}.flop", 0) / nbytes if nbytes else 0.0
    out["trace.overhead_s"] = statistics.median(d for d, _ in overheads)
    out["trace.overhead_frac"] = statistics.median(f for _, f in overheads)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "anisomag").is_dir():
        parser.error(f"no anisomag sources under {SRC}: run from a source checkout")
    # one thread in the math libraries too; set before numpy loads, and
    # inherited by the set-up probes
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    t0 = time.perf_counter()
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.setup()
    setup_s = [time.perf_counter() - t0]
    setup_s += [setup_probe(args.workload) for _ in range(SETUP_REPEATS - 1)]

    result = run(workload, inputs, args.seconds, bool(args.trace), setup_s,
                 MIN_PAIRS if args.trace else MIN_UNITS)
    walls = [u[0] for u in result["units"] if u is not None]
    meta = metadata()
    print(json.dumps({"metadata": meta, "workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "setup_s": setup_s, "unit_s": walls}))
    print(f"# {args.workload}: {len(walls)} units, solve_s median over {len(walls)} samples "
          f"(too few for a high percentile), failed_frac "
          f"{result['failed'] / result['attempted']:.6g} ({result['failed']}/{result['attempted']})")
    if result["spans"] is not None:
        out = ROOT / ".bench_trace"
        out.mkdir(exist_ok=True)
        path = out / f"{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"metadata": meta, "spans": result["spans"]}))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
