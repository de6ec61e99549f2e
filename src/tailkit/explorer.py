"""Design-space sweeps and speed/COT Pareto extraction.

A sweep walks the Cartesian grid of (h1:h2, thickness ratio, rib count),
evaluates each design with the calibrated hydro surrogate and the power
model, and collects one record per grid point. The points, sorted by rib
count, are evaluated in chunks that share one bend solve whatever their
rib counts, and worker processes, if any, take whole chunks. A chunk
that raises is split in half, and each half evaluated as a chunk, until
each failing point stands alone. Failed points become error records:
they stay in reports (with the reason, in the JSON form) but never abort
the sweep and are excluded from Pareto analysis.

Simulated numbers and the bundled measured reference values for the six
stock skeleton types must never be conflated, so every record carries a
source tag: ``simulated`` or ``paper-reference``.

This module owns the report CSV: its one writer serves both sweep
reports and Pareto fronts, and ``pareto_report_csv`` ranks a report read
back from disk. The JSON report goes through ``formats``.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass, replace
from functools import lru_cache

from .energetics import DERIVED_MASS_KG, POWER_FIELDS, PowerModel, SwimResult, predict_power
from .errors import ValidationError
from .formats import Array, Fields, boolean, dump_json, load_json, nullable, number, string, whole
from .hydro import HYDRO_FIELDS, HydroParams, sample_kinematics_stack, steady_speeds
from .profile import (
    PolyCurve,
    excise_dorsal,
    fit_polynomial,
    interpolate_gap,
    load_reference_profile,
)
from .skeleton import PRESET_NAMES, SkeletonSpec, six_presets
from .tendon import (
    DEFAULT_AMPLITUDE_M,
    DEFAULT_FREQUENCY_HZ,
    Chain,
    check_actuation,
    stack_stiffnesses,
)

# A sweep's designs, sorted by rib count, are evaluated together, at most
# this many per bend solve whatever their rib counts: the time per design
# stops falling at 8 to 16 designs, while a chunk's arrays keep growing.
STACK_SIZE = 16

# Each grid axis with the spec field it sets, its label prefix and value
# format, in label order.
_AXES = (
    ("h1_h2_values", "h1_h2", "h", lambda h1h2: f"{h1h2[0]:g}-{h1h2[1]:g}"),
    ("thickness_ratios", "thickness_ratio", "t", lambda ratio: f"{ratio:g}"),
    ("n_ribs_values", "n_ribs", "r", str),
)

SOURCE_SIMULATED = "simulated"
SOURCE_REFERENCE = "paper-reference"

# The report CSV columns; the metrics, speed_mm_s to cot, are empty for a failed design.
REPORT_COLUMNS = ("label", "h1", "h2", "thickness_ratio", "n_ribs", "speed_mm_s", "speed_bl_s",
                  "power_w", "mass_kg", "cot", "pareto", "source")

# Measured swim metrics of the six stock skeleton types, in
# ``skeleton.PRESET_NAMES`` order: (speed mm/s, speed bl/s, COT). Mass and
# per-row power are derived from these via COT = P/(m*v), not measured.
REFERENCE_MEASUREMENTS = (
    (133.5607, 0.411, 146.0),
    (125.4027, 0.386, 136.0),
    (127.8671, 0.393, 136.0),
    (163.1813, 0.502, 95.0),
    (86.8601, 0.267, 175.0),
    (78.7879, 0.243, 193.0),
)


@dataclass(frozen=True)
class DesignGrid:
    """Cartesian design grid plus the evaluation context."""

    h1_h2_values: tuple[tuple[float, float], ...] = ((1.0, 1.0), (1.0, 2.0))
    thickness_ratios: tuple[float, ...] = (1.0, 2.0, 3.0)
    n_ribs_values: tuple[int, ...] = (6,)
    base_spec: SkeletonSpec = SkeletonSpec()
    actuation: tuple[float, float] = (DEFAULT_AMPLITUDE_M, DEFAULT_FREQUENCY_HZ)
    hydro: HydroParams = HydroParams()
    power: PowerModel = PowerModel()

    def __post_init__(self):
        if not self.h1_h2_values or not self.thickness_ratios or not self.n_ribs_values:
            raise ValidationError("grid value lists must be non-empty")
        check_actuation(*self.actuation)
        for name, attr, _, fmt in _AXES:
            values = getattr(self, name)
            # each spec check involves at most one axis, so this covers every point
            for value in values:
                try:
                    replace(self.base_spec, **{attr: value})
                except ValidationError as e:
                    raise ValidationError(f"grid {name} {value!r}: {e}") from None
            labels = [fmt(v) for v in values]
            for j, label in enumerate(labels):
                i = labels.index(label)
                if i != j:
                    raise ValidationError(
                        f"grid {name} {values[i]!r} and {values[j]!r} would share "
                        f"the label {label!r}"
                    )

    @property
    def size(self) -> int:
        return len(self.h1_h2_values) * len(self.thickness_ratios) * len(self.n_ribs_values)

    def to_dict(self) -> dict:
        return _GRID_FIELDS.write(self)

    @classmethod
    def from_dict(cls, d) -> "DesignGrid":
        return _GRID_FIELDS(d, "grid JSON: $")


@dataclass(frozen=True)
class DesignRecord:
    """One evaluated (or failed) design."""

    label: str
    spec: SkeletonSpec
    result: SwimResult | None
    source: str = SOURCE_SIMULATED
    error: str | None = None

    def __post_init__(self):
        if (self.result is None) == (self.error is None):
            raise ValidationError("a record carries either a result or an error reason")


_SPEC_FIELDS = Fields(
    lambda h1, h2, **rest: SkeletonSpec(h1_h2=(h1, h2), **rest),
    ("body_length", "body_length_m", number), ("head_fraction", "head_fraction", number),
    ("n_ribs", "n_ribs", whole), ("h1", "h1", number), ("h2", "h2", number),
    ("thickness_first", "thickness_first_mm", number),
    ("thickness_ratio", "thickness_ratio", number), ("spine_shape", "spine_shape", string))
_GRID_FIELDS = Fields(
    DesignGrid, ("h1_h2_values", "h1_h2_values", Array(Array(number, 2))),
    ("thickness_ratios", "thickness_ratios", Array(number)),
    ("n_ribs_values", "n_ribs_values", Array(whole)), ("base_spec", "base_spec", _SPEC_FIELDS),
    ("actuation", "actuation", Fields(check_actuation, ("amplitude", "amplitude_m", number),
                                      ("frequency", "frequency_hz", number))),
    ("hydro", "hydro", HYDRO_FIELDS), ("power", "power", POWER_FIELDS), defaults=True)


@lru_cache(maxsize=1)
def default_curves() -> tuple[PolyCurve, PolyCurve]:
    """Fitted contours of the bundled profile, standard pipeline."""
    samples = interpolate_gap(excise_dorsal(load_reference_profile()), 20)
    upper, lower, _ = fit_polynomial(samples)
    return upper, lower


def _evaluate_specs(
    specs: list[SkeletonSpec],
    amplitude: float,
    frequency: float,
    hydro: HydroParams,
    power: PowerModel,
    curves: tuple[PolyCurve, PolyCurve],
    mass: float = DERIVED_MASS_KG,
) -> list[SwimResult]:
    """``evaluate_design`` of specs, as one chunk: each run of consecutive
    specs of one rib count gets one chain straight from their rib stations,
    without a skeleton graph, and one stiffness computation; one kinematics
    solve serves every chain, and every speed comes from the stacked
    midlines; raises whenever a design alone would."""
    groups = [list(run) for _, run in itertools.groupby(specs, key=lambda spec: spec.n_ribs)]
    histories = sample_kinematics_stack([Chain.from_specs(group, *curves) for group in groups],
                                        list(map(stack_stiffnesses, groups)), amplitude, frequency)
    watts = predict_power(power, amplitude, frequency)
    return [
        SwimResult.from_power(speed=speed, power=watts, mass=mass, body_length=spec.body_length)
        for spec, speed in zip(specs, steady_speeds(histories, hydro))
    ]


def evaluate_design(
    spec: SkeletonSpec,
    amplitude: float,
    frequency: float,
    hydro: HydroParams,
    power: PowerModel,
    curves: tuple[PolyCurve, PolyCurve] | None = None,
    mass: float = DERIVED_MASS_KG,
) -> SwimResult:
    """Simulate one design end to end: skeleton, cables, speed, power."""
    curves = curves if curves is not None else default_curves()
    (result,) = _evaluate_specs([spec], amplitude, frequency, hydro, power, curves, mass)
    return result


def _grid_points(grid: DesignGrid) -> list[tuple[str, SkeletonSpec]]:
    points = []
    for values in itertools.product(*(getattr(grid, name) for name, *_ in _AXES)):
        spec = replace(grid.base_spec, **{attr: v for (_, attr, _, _), v in zip(_AXES, values)})
        label = "_".join(prefix + fmt(v) for (_, _, prefix, fmt), v in zip(_AXES, values))
        points.append((label, spec))
    return points


def _evaluate_stack(points: list[tuple[str, SkeletonSpec]], context: tuple) -> list[DesignRecord]:
    """A record of each (label, spec) point, all evaluated in ``context``
    (amplitude, frequency, hydro, power, curves) by one ``_evaluate_specs``
    call. If that call raises, each half is evaluated the same way, so only
    a failing design ends up alone, and its error record keeps the exact
    text ``evaluate_design`` raises for it."""
    try:
        results = _evaluate_specs([spec for _, spec in points], *context)
    except Exception as e:  # per-point failures must not abort the sweep
        if len(points) == 1:
            ((label, spec),) = points
            return [DesignRecord(label=label, spec=spec, result=None, error=str(e))]
        half = len(points) // 2
        return _evaluate_stack(points[:half], context) + _evaluate_stack(points[half:], context)
    return [DesignRecord(label=label, spec=spec, result=result)
            for (label, spec), result in zip(points, results)]


def run_sweep(
    grid: DesignGrid,
    jobs: int = 1,
    curves: tuple[PolyCurve, PolyCurve] | None = None,
) -> list[DesignRecord]:
    """Evaluate every grid point; output is sorted by label, so results
    do not depend on the evaluation schedule.

    The points, sorted by rib count, are cut into chunks of at most
    ``STACK_SIZE`` designs, one bend solve each, whatever their rib counts;
    with ``jobs`` > 1 and more than one chunk, the chunks are spread over
    up to that many worker processes, one per chunk at most.
    """
    context = (*grid.actuation, grid.hydro, grid.power,
               curves if curves is not None else default_curves())
    points = sorted(_grid_points(grid), key=lambda point: point[1].n_ribs)
    stacks = [points[i:i + STACK_SIZE] for i in range(0, len(points), STACK_SIZE)]
    workers = min(jobs, len(stacks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loaded only for a pool
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_evaluate_stack, stacks, [context] * len(stacks)))
    else:
        done = [_evaluate_stack(stack, context) for stack in stacks]
    return sorted((record for stack in done for record in stack), key=lambda r: r.label)


def non_dominated(points: list[tuple[float, float]]) -> list[bool]:
    """Flags of points not dominated under (maximize speed, minimize cot)."""
    flags = []
    for i, (s_i, c_i) in enumerate(points):
        dominated = any(
            s_j >= s_i and c_j <= c_i and (s_j > s_i or c_j < c_i)
            for j, (s_j, c_j) in enumerate(points)
            if j != i
        )
        flags.append(not dominated)
    return flags


def _front_order(points: list[tuple[float, float, str]]) -> list[int]:
    """Indices of the non-dominated (speed, cot, label) points, fastest
    first, equal speeds by label."""
    flags = non_dominated([(speed, cot) for speed, cot, _ in points])
    kept = [i for i, keep in enumerate(flags) if keep]
    return sorted(kept, key=lambda i: (-points[i][0], points[i][2]))


def pareto_front(records: list[DesignRecord]) -> list[DesignRecord]:
    """Non-dominated records (speed up, COT down), sorted by speed, descending.

    Records that tie on both metrics are all retained. Error records are
    excluded from the analysis.
    """
    valid = [r for r in records if r.result is not None]
    if not valid:
        raise ValidationError("pareto_front needs at least one record with a valid result")
    order = _front_order([(r.result.speed, r.result.cot, r.label) for r in valid])
    return [valid[i] for i in order]


def reference_records() -> list[DesignRecord]:
    """The bundled measured reference dataset for the six stock types.

    Speed and COT are as published; mass is the derived default and each
    row's power is back-derived through COT = P/(m*v) so the records are
    internally consistent.
    """
    records = []
    for label, spec, (speed_mm, bl_s, cot_val) in zip(
        PRESET_NAMES, six_presets(), REFERENCE_MEASUREMENTS, strict=True
    ):
        speed = speed_mm / 1000.0
        result = SwimResult(
            speed=speed,
            speed_bl=bl_s,
            power=cot_val * DERIVED_MASS_KG * speed,
            mass=DERIVED_MASS_KG,
            cot=cot_val,
            body_length=spec.body_length,
        )
        records.append(
            DesignRecord(label=label, spec=spec, result=result, source=SOURCE_REFERENCE)
        )
    return records


def _row_values(record: DesignRecord, pareto: bool) -> tuple:
    """A record's report row in ``_ROW_FIELDS`` order; a failed design has no metrics."""
    spec, r = record.spec, record.result
    metrics = (None,) * 6 if r is None else (
        r.speed * 1000.0, r.speed_bl, r.power, r.mass, r.cot, r.speed)
    return (record.label, spec.h1, spec.h2, spec.thickness_ratio, spec.n_ribs, pareto,
            record.source, *metrics, record.error, spec)


def emit_report(records: list[DesignRecord], fmt: str) -> str:
    """Render records as ``csv``, ``json``, or ``plot`` (speed/COT pairs).

    Column and key order is fixed. The CSV carries the pinned column set;
    the JSON mirrors it and additionally keeps the full spec and any
    error reason, which makes it lossless for round-tripping.
    """
    if not records:
        raise ValidationError("cannot emit a report for zero records")
    front_labels = set()
    if any(r.result is not None for r in records):
        front_labels = {r.label for r in pareto_front(records)}

    rows = (_row_values(rec, rec.label in front_labels) for rec in records)
    if fmt == "csv":  # the CSV's columns from the same values, without the spec's dict
        return _report_csv(dict(zip(_ROW_FIELDS.keys, row)) for row in rows)

    if fmt == "json":
        return dump_json([_ROW_FIELDS.write(row) for row in rows])

    if fmt == "plot":
        lines = ["speed_mm_s,cot"]
        for rec in records:
            if rec.result is not None:
                lines.append(f"{rec.result.speed * 1000.0!r},{rec.result.cot!r}")
        return "\n".join(lines) + "\n"

    raise ValidationError(f"unknown report format {fmt!r} (expected csv, json or plot)")


def _report_csv(rows) -> str:
    """The report CSV: REPORT_COLUMNS order, lowercase booleans, an empty
    cell for a missing value."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    for row in rows:
        writer.writerow(
            [
                "" if row[c] is None else (str(row[c]).lower() if c == "pareto" else row[c])
                for c in REPORT_COLUMNS
            ]
        )
    return buf.getvalue()


def pareto_report_csv(text: str) -> str:
    """The Pareto front of a report CSV among rows with speed and COT; its
    rows are copied verbatim except for ``pareto``, which becomes ``true``."""
    reader = csv.DictReader(io.StringIO(text))
    if tuple(reader.fieldnames or ()) != REPORT_COLUMNS:
        raise ValidationError(f"records CSV must have columns {','.join(REPORT_COLUMNS)}")
    rows = list(reader)
    if any(None in r or None in r.values() for r in rows):
        raise ValidationError(f"records CSV rows must have {len(REPORT_COLUMNS)} cells")
    scored = [r for r in rows if r["speed_mm_s"] and r["cot"]]
    if not scored:
        raise ValidationError("no records with speed and COT to rank")
    try:
        points = [(float(r["speed_mm_s"]), float(r["cot"]), r["label"]) for r in scored]
    except ValueError as e:
        raise ValidationError(f"records CSV has non-numeric metrics: {e}") from None
    return _report_csv({**scored[i], "pareto": "true"} for i in _front_order(points))


def _record(label, source, error, spec, speed_bl, power, mass, cot, speed, **derived):
    result = None
    if error is None:
        if None in (speed_bl, power, mass, cot, speed):
            raise ValidationError("a record without an error needs every metric")
        result = SwimResult(speed=speed, speed_bl=speed_bl, power=power, mass=mass, cot=cot,
                            body_length=spec.body_length)
    return DesignRecord(label=label, spec=spec, result=result, source=source, error=error)


# The report JSON row in file order, for both directions. h1 to n_ribs,
# pareto and speed_mm_s repeat the spec, the front and the m/s speed (which
# keeps the round trip bit-exact): they are read, type-checked and dropped.
_ROW_FIELDS = Fields(
    _record, ("label", "label", string), ("h1", "h1", number), ("h2", "h2", number),
    ("thickness_ratio", "thickness_ratio", number), ("n_ribs", "n_ribs", whole),
    ("pareto", "pareto", boolean), ("source", "source", string),
    ("speed_mm_s", "speed_mm_s", nullable(number)), ("speed_bl", "speed_bl_s", nullable(number)),
    ("power", "power_w", nullable(number)), ("mass", "mass_kg", nullable(number)),
    ("cot", "cot", nullable(number)), ("speed", "speed_m_s", nullable(number)),
    ("error", "error", nullable(string)), ("spec", "spec", _SPEC_FIELDS))


def parse_report_json(text: str) -> list[DesignRecord]:
    """Inverse of emit_report(..., 'json')."""
    return list(Array(_ROW_FIELDS)(load_json(text, "report JSON"), "report JSON: $"))
