"""One workload in one fresh Python process; started by ``run.py``.

Set-up (interpreter start, importing ``tailkit``, fitting the bundled
profile, generating the first inputs) is timed from the launch instant
``--t0`` that ``run.py`` passes on the ``time.monotonic`` clock, which all
processes of the machine share. The worker prints one JSON object with its
raw results as the last line of its standard output.

In the traced run each operation runs twice on the same inputs, traced
and untraced in alternating order; the tracing overhead is the median of
their differences. The layer calls a workload makes only for tracing
follow that pair and its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # the package under test, from this checkout

import numpy  # noqa: E402
import scipy  # noqa: E402
import tailkit  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402
from tracer import END, NAME, PARENT, START, Tracer  # noqa: E402
from workloads import PARALLEL_JOBS, WORKLOADS, percentile  # noqa: E402

# per-layer metric -> (unit, traced span name, span tag, end-to-end metric it should move)
LAYER_SPANS = {
    "profile.fit_ms": ("ms", "bench.fit", None, "setup_s, every workload"),
    "skeleton.generate_ms": ("ms", "skeleton.generate_skeleton", None,
                             "designs_per_s (sweep), loop_ms_p50 (design_loop)"),
    "tendon.route_ms": ("ms", "tendon.route_cables", None,
                        "designs_per_s (sweep), loop_ms_p50 (design_loop)"),
    "tendon.bend_ms_p50": ("ms", "tendon.bend_from_cables", "taut",
                           "pose_ms_p50, poses_per_s (pose_stream)"),
    "tendon.bend_slack_ms_p50": ("ms", "tendon.bend_from_cables", "slack",
                                 "pose_ms_p50, poses_per_s (pose_stream)"),
    "hydro.kinematics_ms": ("ms", "hydro.sample_kinematics", None,
                            "designs_per_s (sweep), swim_ms_p50 (design_loop); not pose_stream"),
    "hydro.speed_ms": ("ms", "hydro.steady_speed_from_history", None,
                       "swim_ms_p50 (design_loop), designs_per_s (sweep)"),
    "hydro.calibrate_ms": ("ms", "hydro.calibrate", None, "swim_ms_p50 (design_loop)"),
    "energetics.log_load_ms": ("ms", "bench.log_load", None, "loop_ms_p50 (design_loop)"),
    "energetics.average_power_ms": ("ms", "energetics.average_power", None,
                                    "loop_ms_p50 (design_loop)"),
    "explorer.sweep_serial_s": ("s", "explorer.run_sweep", None, "designs_per_s (sweep)"),
    "explorer.pareto_ms": ("ms", "explorer.pareto_front", None, "designs_per_s (sweep)"),
    "explorer.emit_csv_ms": ("ms", "explorer.emit_report", None, "designs_per_s (sweep)"),
    "export.to_json_ms": ("ms", "export.skeleton_to_json", None, "loop_ms_p50 (design_loop)"),
    "export.from_json_ms": ("ms", "export.skeleton_from_json", None,
                            "loop_ms_p50 (design_loop)"),
    "export.svg_ms": ("ms", "export.skeleton_to_svg", None, "loop_ms_p50 (design_loop)"),
    "cli.sweep_ms": ("ms", "cli.sweep", None, "designs_per_s (sweep)"),
    "cli.skeleton_ms": ("ms", "cli.skeleton", None, "loop_ms_p50 (design_loop)"),
    "cli.export_ms": ("ms", "cli.export", None, "loop_ms_p50 (design_loop)"),
    "cli.swim_ms": ("ms", "cli.swim", None, "swim_ms_p50, loop_ms_p50 (design_loop)"),
    "cli.analyze_ms": ("ms", "cli.analyze", None, "loop_ms_p50 (design_loop)"),
}

# per-layer metric -> (unit, reduction of the workload's values, what it tells)
LAYER_VALUES = {
    "tendon.constraint_residual_max_m": ("m", max, "quality: must stay <= 1e-9 m"),
    "hydro.calibration_miss_rel": ("ratio", max, "quality: must stay <= 1e-3"),
    "energetics.log_rows_per_s": ("1/s", max, "loop_ms_p50 (design_loop)"),
    "explorer.parallel_efficiency": (
        "ratio", lambda v: percentile(v, 50),
        f"designs_per_s (sweep); --jobs 1 command / ({PARALLEL_JOBS} x --jobs {PARALLEL_JOBS} command)"),
    "trace.overhead_ms": ("ms", lambda v: percentile(v, 50),
                          "traced minus untraced run of the same operation, p50"),
}


def layer_metrics(tracer: Tracer, extras: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics; a function the workload never calls reads 0 with n=0."""
    metrics, lines = {}, []

    def put(name, value, unit, n, note):
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"  {name:34s} {value:14.6g} {unit:6s} n={n:<6d} -> {note}")

    for name, (unit, span, tag, note) in LAYER_SPANS.items():
        durs = tracer.durations(span, tag)
        scale = 1e3 if unit == "ms" else 1.0
        put(name, percentile(durs, 50) * scale if durs else 0.0, unit, len(durs), note)

    for name, (unit, reduce, note) in LAYER_VALUES.items():
        vals = extras.get(name, [])
        put(name, reduce(vals) if vals else 0.0, unit, len(vals), note)

    design = {i for i, s in enumerate(tracer.spans) if s[NAME] == "bench.design"}
    base = sum(tracer.spans[i][END] - tracer.spans[i][START] for i in design)
    kin = sum(s[END] - s[START] for s in tracer.spans
              if s[NAME] == "hydro.sample_kinematics" and s[PARENT] in design)
    put("hydro.kinematics_share", kin / base if base else 0.0, "ratio", len(design),
        f"share of per-design time (sweep); base {base * 1e3:.1f} ms over {len(design)} designs")
    return metrics, lines


def end_to_end(wl, ops: list[dict], host: HostSpeed) -> tuple[dict, list]:
    """Generic end-to-end metrics, and report lines under the workload's own names.

    The timings of BENCHMARK.json are at reference speed (see
    ``hostspeed.py``); the wall-clock ones are report lines. The p90 is
    reported but is not a metric of BENCHMARK.json: a run holds too few
    sweep commands or loops for it.
    """
    seconds = [op["s"] for op in ops]
    scaled = [op["s"] * host.scale(op["t0"], op["t0"] + op["s"]) for op in ops]
    units = sum(op["units"] for op in ops if not op["failed"])
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # the untraced run starts no pool
    thr, op = wl.throughput_name, wl.op_name
    values = {
        "peak_rss_mb": (kib / 1024.0, "MB", 1, "peak_rss_mb"),
        "norm_throughput_per_s": (units / sum(scaled), "1/s", units, f"{thr}_norm"),
        "norm_op_ms_p50": (percentile(scaled, 50) * 1e3, "ms", len(ops), f"{op}_ms_p50_norm"),
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, u, _, _) in values.items()}
    report = [(alias, v, u, n) for v, u, n, alias in values.values()]
    report += [(thr, units / sum(seconds), "1/s", units),
               (f"{op}_ms_p50", percentile(seconds, 50) * 1e3, "ms", len(ops)),
               (f"{op}_ms_p90", percentile(seconds, 90) * 1e3, "ms", len(ops)),
               ("reference_ms_p50", statistics.median(host.seconds) * 1e3, "ms",
                len(host.seconds))]
    return metrics, report + wl.extra_report(ops)


def run_op(wl, tracer: Tracer, i: int, inputs, traced: bool) -> tuple[dict, object, list[str]]:
    """One timed operation and its output checks."""
    tracer.enabled = traced
    started = time.perf_counter()
    outputs = None
    try:
        seconds, units, parts, outputs = wl.run(i, inputs)
        errs = wl.check(inputs, outputs)
    except Exception:  # an operation that raises is counted as failed
        seconds, units, parts = time.perf_counter() - started, 0, {}
        errs = [traceback.format_exc(limit=3)]
    return ({"t0": started, "s": seconds, "units": units, "parts": parts, "traced": traced,
             "failed": bool(errs)}, outputs, errs)


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "parallel_jobs": PARALLEL_JOBS,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    if not Path(tailkit.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"tailkit imported from {tailkit.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 1
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        tracer = Tracer(bool(args.trace))
        wl = WORKLOADS[args.workload](args.seed, args.tiny, workdir, tracer)
        inputs = wl.prepare(0)
        setup_s = time.monotonic() - args.t0
        host = HostSpeed()
        setup = {"setup_s": setup_s, "setup_scale": 1.0}
        if not args.trace:  # set-up at reference speed, from samples taken right after it
            host.sample(force=True)
            now = time.perf_counter()
            setup["setup_scale"] = host.scale(now, now)
        if args.setup_only:
            print(json.dumps(setup))
            return 0

        ops, errors, overhead = [], [], []
        deadline = time.monotonic() + args.seconds
        i = 0
        while not ops or time.monotonic() < deadline:
            if i:
                inputs = wl.prepare(i)
            tracer.op_id = i
            if not args.trace:
                host.sample()
            # traced runs repeat each operation untraced, in alternating order
            modes = [False, True][:: 1 if i % 2 == 0 else -1] if args.trace else [False]
            passed = {}
            for traced in modes:
                op, outputs, errs = run_op(wl, tracer, i, inputs, traced)
                ops.append(op)
                errors.extend(f"op {i}: {e}" for e in errs)
                if not errs:
                    passed[traced] = op["s"]
            if len(passed) == 2:
                overhead.append((passed[True] - passed[False]) * 1e3)
                tracer.enabled = True
                try:
                    errs = wl.trace_extra(i, inputs, outputs, passed[False])
                except Exception:  # counted as a failed operation
                    errs = [traceback.format_exc(limit=3)]
                ops[-1]["failed"] = bool(errs)
                errors.extend(f"op {i}: {e}" for e in errs)
            i += 1
        if not args.trace:
            host.sample(force=True)

        result = {
            **setup,
            "attempted": len(ops),
            "failed": sum(op["failed"] for op in ops),
            "errors": errors[:10],
            "env": environment(),
        }
        if args.trace:
            extras = {**wl.layer_extras(), "trace.overhead_ms": overhead}
            result["metrics"], result["lines"] = layer_metrics(tracer, extras)
            trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.write(trace_path, {"workload": args.workload, "seed": args.seed,
                                      "env": result["env"]})
            result["trace_file"] = str(trace_path.relative_to(ROOT))
            result["self_ms_by_module"] = tracer.self_ms_by_module()
        else:
            result["metrics"], result["report"] = end_to_end(wl, ops, host)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
