"""tailkit benchmark: run one seeded workload and print its metrics.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from anywhere; the package under test is ``src/tailkit`` of the checkout
this file sits in (nothing is installed or built). Workloads: ``sweep``,
``design_loop`` and ``pose_stream`` (see ``workloads.py`` for why each).

With ``--trace 0`` the run prints the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it prints the per-layer metrics from spans around each
public layer call and writes every span to ``.bench_out/``. The lines
before the last one are for people: each metric under the workload's own
name, with its unit and sample count. The last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Every workload runs in fresh Python processes with BLAS pinned to one
thread, so the traced run's two sweep pool workers do not oversubscribe two
cores. The timings of BENCHMARK.json are at reference speed (see
``hostspeed.py``); the wall-clock ones are report lines. Set-up time is the
median over ``SETUP_PROBES`` processes that only set up plus the measuring
process itself; traced runs skip those probes. The exit code is 0 only if
every process finished and printed its result; a failed output check still
exits 0 but reports ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "design_loop", "pose_stream")
SETUP_PROBES = 6
TIME_LIMIT_S = 170.0  # the whole run, probes included
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class RunError(Exception):
    pass


def launch(args, deadline: float, setup_only: bool) -> dict:
    """Start one worker process, wait for it, and return its JSON result."""
    env = dict(os.environ, **{name: "1" for name in PINNED_THREADS})
    env.pop("PYTHONPATH", None)  # the worker puts this checkout's src/ first itself
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--t0", repr(time.monotonic())]
    argv += ["--setup-only"] * setup_only + ["--tiny"] * args.tiny
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env, cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and its pool processes
        proc.communicate()
        raise RunError(f"{args.workload} worker ran past the {TIME_LIMIT_S:.0f} s limit")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RunError(f"{args.workload} worker exited {proc.returncode}:\n{err[-3000:]}")
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True, help="measuring time of one run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs, for the harness smoke test")
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        # set-up time is reported from untraced runs only
        probes = 0 if args.trace else SETUP_PROBES
        setup = [launch(args, deadline, True) for _ in range(probes)]
        result = launch(args, deadline, False)
    except (RunError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    setup.append(result)
    setup_wall = [probe["setup_s"] for probe in setup]
    setup_norm = [probe["setup_s"] * probe["setup_scale"] for probe in setup]

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print(f"env {json.dumps(result['env'])}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'failed_ratio':34s} {failed / attempted:14.6g} {'ratio':6s} n={attempted}")
    if args.trace:
        metrics = result["metrics"]
        print("\n".join(result["lines"]))
        print(f"self time by module, ms: {json.dumps(result['self_ms_by_module'])}")
        print(f"spans written to {result['trace_file']}")
    else:
        metrics = {"setup_s": {"value": statistics.median(setup_norm), "unit": "s"},
                   **result["metrics"]}
        lines = [("setup_s", metrics["setup_s"]["value"], "s", len(setup)),
                 ("setup_s_wall", statistics.median(setup_wall), "s", len(setup))]
        for name, value, unit, n in lines + result["report"]:
            print(f"  {name:34s} {value:14.6g} {unit:6s} n={n}")
        print(f"setup samples, wall s: {' '.join(f'{s:.4f}' for s in setup_wall)}")
    for message in result["errors"]:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
