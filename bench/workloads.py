"""The three benchmark workloads: seeded inputs, the timed operation, output
checks, and the extra layer calls made only in the traced run.

Each workload is a closed loop with one caller: operation ``i + 1`` starts
after operation ``i`` has finished and been checked. Inputs come only from
the seed, so the same seed gives the same inputs; the package sees nothing
but the generated files, argv and Python values.

Why these workloads (measured on the seed code, 2 CPUs):

- ``sweep``: the designer's main job, ``tailkit sweep --grid G --jobs 1``
  on a fresh 4-point grid each time. About 99 % of its time is
  ``hydro.sample_kinematics`` (64 ``tendon`` bend solves per design), so a
  solver or batching change shows here first. The traced run also runs
  each grid with ``--jobs 2``, which settles whether ``--jobs`` pays; the
  timed command stays in one process, because two pool workers on a
  2-vCPU shared host measured the neighbours more than the code. Grids never repeat
  within a run, so a cross-call result cache cannot fake a gain.
- ``design_loop``: the time to one calibrated answer for a new design:
  ``skeleton``, ``export --svg``, ``swim --calibrate-speed`` and
  ``analyze`` on a synthetic tank log. It runs the kinematics twice per
  ``swim``, the speed and calibration loops, the JSON round trip in
  ``export`` and the log ingestion in ``energetics``, none of which
  ``sweep`` touches.
- ``pose_stream``: a controller embedding the library, calling
  ``tendon.bend_from_cables`` directly for single poses at large strokes on
  designs built once. A batched-kinematics change should show no
  gain here; a faster single solve or a per-design chain cache should.
  Commands that shorten both cables are left out because most of them are
  geometrically infeasible and the solver rejects them by design.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

from tailkit import cli, energetics, explorer, export, hydro, profile, skeleton, tendon
from tracer import Tracer

AMPLITUDE_M = 0.008  # the paper's actuation
FREQUENCY_HZ = 1.5
PARALLEL_JOBS = 2  # the traced run's --jobs comparison
H2_RANGE = (1.0, 2.0)  # h1:h2 = 1:h2, spanning the paper's 1:1 and 1:2
TAPER_RANGE = (1.0, 3.0)
RIB_COUNTS = range(4, 11)
RIB_PAIRS = ((4, 10), (5, 9), (6, 8))  # a sweep grid's rib counts, in turn
# The six stock designs (h1:h2 1:1 or 1:2, taper 1, 2 or 3) at every rib
# count. One design's kinematics can cost twice another's, so design_loop
# and pose_stream visit this whole set and the seed draws the order and the
# rest of the inputs; the spread between seeds then measures the code
# rather than which designs were drawn. Sweep grids are stratified instead.
DESIGN_SET = tuple(skeleton.SkeletonSpec(n_ribs=n, h1_h2=h1h2, thickness_ratio=taper)
                   for n in RIB_COUNTS for h1h2, taper in skeleton.PRESET_PARAMS)
LOG_SECONDS = 40.0  # tank log length: 40k power rows, 4k track rows
FIT_REPEATS = 5  # profile fits timed in the traced set-up

CHECK_REL_TOL = 1e-9
CALIBRATION_TOL = 1e-3  # 0.1 %, as promised by hydro.calibrate
CONSTRAINT_TOL_M = 1e-9
SLACK_TOL_M = 1e-12


def cli_call(argv: list[str]) -> tuple[int, str, str]:
    """Run ``tailkit.cli.main`` in-process; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return float(np.percentile(values, q))


def _strata(rng: random.Random, lo: float, hi: float, n: int, digits: int) -> list[float]:
    """One value from each of n equal parts of [lo, hi), rounded and distinct."""
    width, unit = (hi - lo) / n, 10.0 ** -digits
    return [round(rng.uniform(lo + k * width, lo + (k + 1) * width - unit), digits)
            for k in range(n)]


def fit_curves(tracer: Tracer):
    """The bundled-profile fit, once untraced (it fills the package's own
    cache) and ``FIT_REPEATS`` more times as timed profile calls when traced."""
    curves = explorer.default_curves()
    if tracer.enabled:
        for _ in range(FIT_REPEATS):
            with tracer.span("bench.fit"):
                with tracer.span("profile.load_reference_profile"):
                    samples = profile.load_reference_profile()
                with tracer.span("profile.excise_dorsal"):
                    samples = profile.excise_dorsal(samples)
                with tracer.span("profile.interpolate_gap"):
                    samples = profile.interpolate_gap(samples, cli.DEFAULT_FILL)
                with tracer.span("profile.fit_polynomial"):
                    profile.fit_polynomial(samples)
    return curves


class Workload:
    """Interface the worker drives; see the module docstring for the loop."""

    def __init__(self, seed: int, tiny: bool, workdir: Path, tracer: Tracer):
        self.seed, self.tiny, self.dir, self.tracer = seed, tiny, workdir, tracer
        self.curves = fit_curves(tracer)

    def prepare(self, i: int):
        """Inputs of operation ``i`` (untimed)."""
        raise NotImplementedError

    def run(self, i: int, inputs) -> tuple[float, int, dict, object]:
        """The timed operation: (seconds, work units done, seconds per part, outputs)."""
        raise NotImplementedError

    def check(self, inputs, outputs) -> list[str]:
        """Output checks; each message marks the operation as failed."""
        raise NotImplementedError

    def trace_extra(self, i: int, inputs, outputs, op_seconds: float) -> list[str]:
        """Layer calls made only in the traced run; returns check failures."""
        return []

    def layer_extras(self) -> dict[str, list[float]]:
        """Per-layer values not derived from span durations alone."""
        return {}

    def extra_report(self, ops: list[dict]) -> list[tuple[str, float, str, int]]:
        """More end-to-end lines of this workload: (name, value, unit, samples)."""
        return []


class Sweep(Workload):
    throughput_name, op_name = "designs_per_s", "sweep"

    def __init__(self, *args):
        super().__init__(*args)
        self.seen: set[str] = set()
        self.efficiencies: list[float] = []
        self.first_pair = random.Random(f"sweep:{self.seed}").randrange(len(RIB_PAIRS))

    def prepare(self, i):
        rng = random.Random(f"sweep:{self.seed}:{i}")
        ribs = RIB_PAIRS[(self.first_pair + i) % len(RIB_PAIRS)]
        while True:
            doc = {
                "h1_h2_values": [[1.0, h] for h in _strata(rng, *H2_RANGE, 2, 2)],
                "thickness_ratios": _strata(rng, *TAPER_RANGE, 1, 3),
                "n_ribs_values": list(ribs[:1] if self.tiny else ribs),
                "actuation": {"amplitude_m": AMPLITUDE_M, "frequency_hz": FREQUENCY_HZ},
            }
            key = json.dumps(doc, sort_keys=True)
            if key not in self.seen:
                break
        self.seen.add(key)
        path = self.dir / f"grid-{i}.json"
        path.write_text(key + "\n", encoding="utf-8")
        return doc, path

    def run(self, i, inputs):
        doc, path = inputs
        out = self.dir / f"sweep-{i}.csv"
        t0 = time.perf_counter()
        with self.tracer.span("cli.sweep"):
            rc, _, err = cli_call(["sweep", "--grid", str(path), "--jobs", "1",
                                   "--out", str(out)])
        seconds = time.perf_counter() - t0
        size = len(doc["h1_h2_values"]) * len(doc["thickness_ratios"]) * len(doc["n_ribs_values"])
        return seconds, size, {}, (rc, err, out)

    def check(self, inputs, outputs):
        doc, _ = inputs
        rc, err, out = outputs
        if rc != 0:
            return [f"sweep exited {rc}: {err.strip()}"]
        with out.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        errors = []
        if tuple(rows[0]) != explorer.REPORT_COLUMNS:
            return [f"CSV header {rows[0]} is not REPORT_COLUMNS"]
        recs = [dict(zip(rows[0], r)) for r in rows[1:]]
        want = {(h1, h2, t, n) for h1, h2 in doc["h1_h2_values"]
                for t in doc["thickness_ratios"] for n in doc["n_ribs_values"]}
        got = [(float(r["h1"]), float(r["h2"]), float(r["thickness_ratio"]), int(r["n_ribs"]))
               for r in recs]
        if len(got) != len(want) or set(got) != want:
            errors.append(f"{len(got)} rows do not cover the {len(want)} grid points once")
        if len({r["label"] for r in recs}) != len(recs):
            errors.append("duplicate labels")
        bad = [r["label"] for r in recs if r["source"] != explorer.SOURCE_SIMULATED
               or not all(r[c] for c in ("speed_mm_s", "power_w", "mass_kg", "cot"))]
        if bad:
            return errors + [f"error or non-simulated rows: {bad}"]
        speed = [float(r["speed_mm_s"]) / 1e3 for r in recs]
        cot = [float(r["cot"]) for r in recs]
        for r, u, c in zip(recs, speed, cot):
            want_cot = float(r["power_w"]) / (float(r["mass_kg"]) * u)
            if rel_err(c, want_cot) > CHECK_REL_TOL:
                errors.append(f"{r['label']}: cot {c} != power/(mass*speed) {want_cot}")
        front = [not any(u2 >= u1 and c2 <= c1 and (u2 > u1 or c2 < c1)
                         for u2, c2 in zip(speed, cot))
                 for u1, c1 in zip(speed, cot)]
        flags = [r["pareto"] == "true" for r in recs]
        if flags != front:
            errors.append(f"pareto flags {flags} differ from the recomputed front {front}")
        return errors

    def trace_extra(self, i, inputs, outputs, op_seconds):
        doc, path = inputs
        _, _, out = outputs
        tr = self.tracer
        errors = []
        parallel_out = self.dir / f"sweep-{i}-jobs{PARALLEL_JOBS}.csv"
        with tr.span("bench.sweep_parallel"):
            t0 = time.perf_counter()
            rc, _, err = cli_call(["sweep", "--grid", str(path), "--jobs", str(PARALLEL_JOBS),
                                   "--out", str(parallel_out)])
            parallel = time.perf_counter() - t0
        if rc != 0:
            errors.append(f"sweep --jobs {PARALLEL_JOBS} exited {rc}: {err.strip()}")
        elif parallel_out.read_bytes() != out.read_bytes():
            errors.append(f"--jobs {PARALLEL_JOBS} CSV is not byte-identical to --jobs 1")
        self.efficiencies.append(op_seconds / (PARALLEL_JOBS * parallel))
        grid = explorer.DesignGrid.from_dict(doc)
        with tr.span("explorer.run_sweep"):
            records = explorer.run_sweep(grid, jobs=1)
        with tr.span("explorer.pareto_front"):
            explorer.pareto_front(records)
        with tr.span("explorer.emit_report"):
            text = explorer.emit_report(records, "csv")
        if text.encode("utf-8") != out.read_bytes():
            errors.append("run_sweep CSV is not byte-identical to the command's")
        # the layers of explorer.evaluate_design, called one by one on two points
        upper, lower = self.curves
        for j in range(1 if self.tiny else 2):
            rec = records[(2 * i + j) % len(records)]
            with tr.span("bench.design"):
                with tr.span("skeleton.generate_skeleton"):
                    graph = skeleton.generate_skeleton(rec.spec, upper, lower)
                with tr.span("tendon.route_cables"):
                    routing = tendon.route_cables(graph)
                with tr.span("tendon.segment_stiffnesses"):
                    k = tendon.segment_stiffnesses(rec.spec)
                with tr.span("hydro.sample_kinematics"):
                    history = hydro.sample_kinematics(graph, routing, k, AMPLITUDE_M,
                                                      FREQUENCY_HZ)
                with tr.span("hydro.steady_speed_from_history"):
                    hydro.steady_speed_from_history(history, grid.hydro)
                with tr.span("energetics.predict_power"):
                    energetics.predict_power(grid.power, AMPLITUDE_M, FREQUENCY_HZ)
        return errors

    def layer_extras(self):
        return {"explorer.parallel_efficiency": self.efficiencies}


def _tank_log(rng: random.Random, seconds: float):
    """Synthetic tank run: power at 1 kHz, track at 100 Hz."""
    gen = np.random.default_rng(rng.getrandbits(64))
    t = np.arange(int(seconds * 1000) + 1) / 1000.0
    volts = 7.4 + 0.05 * gen.standard_normal(t.size)
    amps = (0.6 + 0.9 * np.abs(np.sin(2 * math.pi * FREQUENCY_HZ * t + gen.uniform(0, math.pi)))
            + 0.02 * gen.standard_normal(t.size))
    tt = np.arange(int(seconds * 100) + 1) / 100.0
    x = gen.uniform(0.08, 0.2) * tt + 0.0005 * gen.standard_normal(tt.size)
    return t, volts, amps, tt, x


def _write_csv(path: Path, header: tuple[str, ...], *cols: np.ndarray) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(map(repr, row)) for row in zip(*(c.tolist() for c in cols)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _balanced_walk(rng: random.Random) -> list:
    """The design set in six blocks of seven designs, one per rib count, so
    that a run which stops part-way through the set is still balanced."""
    n_types = len(skeleton.PRESET_PARAMS)
    blocks = [[DESIGN_SET[r * n_types + (r + b) % n_types] for r in range(len(RIB_COUNTS))]
              for b in range(n_types)]
    rng.shuffle(blocks)
    for block in blocks:
        rng.shuffle(block)
    return [spec for block in blocks for spec in block]


class DesignLoop(Workload):
    throughput_name, op_name = "loops_per_s", "loop"
    COMMANDS = ("skeleton", "export", "swim", "analyze")

    def __init__(self, *args):
        super().__init__(*args)
        self.designs = _balanced_walk(random.Random(f"design_loop:{self.seed}"))
        self.misses: list[float] = []
        self.log_rows: list[int] = []

    def prepare(self, i):
        rng = random.Random(f"design_loop:{self.seed}:{i}")
        spec = self.designs[i % len(self.designs)]
        target = round(rng.uniform(0.080, 0.200), 6)  # m/s
        t, volts, amps, tt, x = _tank_log(rng, 2.0 if self.tiny else LOG_SECONDS)
        paths = {name: self.dir / f"{name}-{i}.{ext}" for name, ext in
                 (("skeleton", "json"), ("svg", "svg"), ("power", "csv"), ("track", "csv"))}
        _write_csv(paths["power"], energetics.POWER_CSV_HEADER, t, volts, amps)
        _write_csv(paths["track"], energetics.TRACK_CSV_HEADER, tt, x)
        watts = volts * amps
        power = float(np.sum((watts[1:] + watts[:-1]) * np.diff(t)) / 2.0 / (t[-1] - t[0]))
        speed = float((x[-1] - x[0]) / (tt[-1] - tt[0]))
        return spec, target, paths, power, speed, t.size + tt.size

    def run(self, i, inputs):
        spec, target, paths, *_ = inputs
        h1, h2 = spec.h1_h2
        argvs = {
            "skeleton": ["skeleton", "--h1h2", f"{h1!r}:{h2!r}",
                         "--thickness-ratio", repr(spec.thickness_ratio),
                         "--ribs", str(spec.n_ribs), "--out", str(paths["skeleton"])],
            "export": ["export", "--skeleton", str(paths["skeleton"]), "--svg", str(paths["svg"])],
            "swim": ["swim", "--skeleton", str(paths["skeleton"]), "--amplitude", repr(AMPLITUDE_M),
                     "--freq", repr(FREQUENCY_HZ), "--calibrate-speed", repr(target)],
            "analyze": ["analyze", "--power-log", str(paths["power"]),
                        "--track", str(paths["track"])],
        }
        parts, results = {}, {}
        t_start = time.perf_counter()
        for name in self.COMMANDS:
            t0 = time.perf_counter()
            with self.tracer.span(f"cli.{name}"):
                results[name] = cli_call(argvs[name])
            parts[name] = time.perf_counter() - t0
            if results[name][0] != 0:
                break
        return time.perf_counter() - t_start, 1, parts, results

    def check(self, inputs, outputs):
        _, target, paths, power, speed, _ = inputs
        for name in self.COMMANDS:
            rc, _, err = outputs.get(name, (None, "", "not run"))
            if rc != 0:
                return [f"{name} exited {rc}: {err.strip()}"]
        errors = []
        swim = json.loads(outputs["swim"][1])
        if rel_err(swim["speed_mm_s"] / 1e3, target) > CALIBRATION_TOL:
            errors.append(f"calibrated speed {swim['speed_mm_s']} mm/s misses {target} m/s")
        analyze = json.loads(outputs["analyze"][1])
        if rel_err(analyze["power_w"], power) > CHECK_REL_TOL:
            errors.append(f"analyze power {analyze['power_w']} W != trapezoid {power} W")
        if rel_err(analyze["speed_m_s"], speed) > CHECK_REL_TOL:
            errors.append(f"analyze speed {analyze['speed_m_s']} m/s != slope {speed} m/s")
        try:
            root = ET.parse(paths["svg"]).getroot()
            if not root.tag.endswith("svg"):
                errors.append(f"SVG root element is {root.tag}")
        except ET.ParseError as e:
            errors.append(f"SVG does not parse: {e}")
        return errors

    def trace_extra(self, i, inputs, outputs, op_seconds):
        spec, target, paths, _, _, rows = inputs
        tr = self.tracer
        with tr.span("skeleton.generate_skeleton"):
            graph = skeleton.generate_skeleton(spec, *self.curves)
        with tr.span("export.skeleton_to_json"):
            text = export.skeleton_to_json(graph)
        with tr.span("export.skeleton_from_json"):
            graph = export.skeleton_from_json(text)
        with tr.span("export.skeleton_to_svg"):
            export.skeleton_to_svg(graph)
        with tr.span("tendon.route_cables"):
            routing = tendon.route_cables(graph)
        with tr.span("tendon.stiffnesses_from_graph"):
            k = tendon.stiffnesses_from_graph(graph)
        with tr.span("hydro.calibrate"):
            params = hydro.calibrate(graph, routing, k, AMPLITUDE_M, FREQUENCY_HZ,
                                     hydro.HydroParams(), target)
        with tr.span("hydro.sample_kinematics"):
            history = hydro.sample_kinematics(graph, routing, k, AMPLITUDE_M, FREQUENCY_HZ)
        with tr.span("hydro.steady_speed_from_history"):
            speed = hydro.steady_speed_from_history(history, params)
        with tr.span("bench.log_load"):
            with tr.span("energetics.load_power_log"):
                power_log = energetics.load_power_log(paths["power"])
            with tr.span("energetics.load_track"):
                track = energetics.load_track(paths["track"])
        self.log_rows.append(rows)
        log = energetics.MeasurementLog(samples=power_log.samples, track=track.track)
        with tr.span("energetics.average_power"):
            energetics.average_power(log)
        with tr.span("energetics.speed_from_track"):
            energetics.speed_from_track(log)
        miss = rel_err(speed, target)
        self.misses.append(miss)
        return [f"calibration misses its target by {miss:.2e}"] if miss > CALIBRATION_TOL else []

    def layer_extras(self):
        load_s = sum(self.tracer.durations("bench.log_load"))
        return {"hydro.calibration_miss_rel": self.misses,
                "energetics.log_rows_per_s": [sum(self.log_rows) / load_s] if load_s else []}

    def extra_report(self, ops):
        swim = [op["parts"]["swim"] * 1e3 for op in ops if "swim" in op["parts"]]
        return [("swim_ms_p50", percentile(swim, 50) if swim else 0.0, "ms", len(swim))]


class PoseStream(Workload):
    """Single poses from a controller that keeps the paid-out cable slack.

    Shortening one cable by s lengthens the other cable's path by about
    s times the ratio of their lever arms about the spine (h2/h1 when the
    top cable pulls), since each guide sits that far from the spine. The
    solver treats a paid-out cable as force-free, so the controller pays
    the antagonist out by at least that much and caps the stroke so the
    payout stays within the motor travel limit.
    """

    throughput_name, op_name = "poses_per_s", "pose"
    SLACK_SHARE = 0.2  # commands that pay out both cables
    STROKE_MAX = 0.98  # share of the motor travel limit
    LEVER_MARGIN = 1.05

    def __init__(self, *args):
        super().__init__(*args)
        self.rng = random.Random(f"pose_stream:{self.seed}")
        self.designs = []
        for spec in DESIGN_SET:  # each routed once
            with self.tracer.span("skeleton.generate_skeleton"):
                graph = skeleton.generate_skeleton(spec, *self.curves)
            with self.tracer.span("tendon.route_cables"):
                routing = tendon.route_cables(graph)
            self.designs.append((spec, graph, routing, tendon.segment_stiffnesses(spec)))
        self.residuals: list[float] = []

    def prepare(self, i):
        # drawn in operation order from one stream, so a seed fixes the sequence
        rng = self.rng
        spec, graph, routing, k = rng.choice(self.designs)
        travel = tendon.TRAVEL_LIMIT_FRACTION * self.STROKE_MAX
        slack = {"top": routing.slack_length_top, "bottom": routing.slack_length_bottom}
        delta = {c: -rng.uniform(0.0, travel) * slack[c] for c in slack}
        kind = "slack"
        if rng.random() >= self.SLACK_SHARE:
            kind = "taut"
            taut, other = ("top", "bottom") if rng.random() < 0.5 else ("bottom", "top")
            h1, h2 = spec.h1_h2
            lever = self.LEVER_MARGIN * (h2 / h1 if taut == "top" else h1 / h2)
            payout_max = travel * slack[other]
            delta[taut] = rng.uniform(0.02, 1.0) * min(travel * slack[taut], payout_max / lever)
            delta[other] = -rng.uniform(lever * delta[taut], payout_max)
        cmd = tendon.ActuationCommand(delta["top"], delta["bottom"])
        return graph, routing, k, cmd, kind

    def run(self, i, inputs):
        graph, routing, k, cmd, kind = inputs
        t0 = time.perf_counter()
        with self.tracer.span("tendon.bend_from_cables", kind):
            pose = tendon.bend_from_cables(graph, routing, cmd, k)
        return time.perf_counter() - t0, 1, {}, pose

    def check(self, inputs, pose):
        graph, routing, _, cmd, _ = inputs
        with self.tracer.span("tendon.cable_lengths"):
            lengths = tendon.cable_lengths(graph, routing, pose)
        errors = []
        for name, length, slack, delta in (
            ("top", lengths[0], routing.slack_length_top, cmd.delta_top),
            ("bottom", lengths[1], routing.slack_length_bottom, cmd.delta_bottom),
        ):
            if delta > 0:
                residual = abs(length - (slack - delta))
                self.residuals.append(residual)
                if residual > CONSTRAINT_TOL_M:
                    errors.append(f"taut {name} cable misses its length by {residual:.2e} m")
            elif length > slack - delta + SLACK_TOL_M:
                errors.append(f"slack {name} cable is {length - slack + delta:.2e} m too long")
        return errors

    def layer_extras(self):
        return {"tendon.constraint_residual_max_m": self.residuals}


WORKLOADS = {"sweep": Sweep, "design_loop": DesignLoop, "pose_stream": PoseStream}
