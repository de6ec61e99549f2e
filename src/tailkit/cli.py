"""Command-line surface: fit, skeleton, bend, swim, sweep, pareto, export, analyze.

Every command validates its inputs before any output file is opened and
writes through a temp-file/rename pair, so a failing run never leaves a
partial artifact. Exit codes: 0 success, 1 validation error, 2
computation error. Files are parsed and rendered by the library
modules (``formats`` and ``explorer``); this module only opens and
writes them. A plain-text config file (``key = value`` lines, #
comments) can override built-in defaults; explicit flags always win.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import tempfile
from pathlib import Path

from . import energetics, explorer, hydro, skeleton, tendon
from .energetics import PowerModel, SwimResult
from .errors import ComputationError, ValidationError, require_finite
from .export import skeleton_from_json, skeleton_to_json, skeleton_to_svg
from .formats import Fields, dump_json, load_json
from .profile import (
    CURVE_FIELDS,
    DEFAULT_DEGREE,
    DORSAL_EXCISE_HI,
    DORSAL_EXCISE_LO,
    PolyCurve,
    excise_dorsal,
    fit_polynomial,
    interpolate_gap,
    load_profile,
)

DEFAULT_FILL = 20


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as validation errors (exit 1)."""

    def error(self, message):
        raise ValidationError(message)


def _read_config(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    p = Path(path)
    if not p.is_file():
        raise ValidationError(f"config file not found: {path}")
    out: dict[str, str] = {}
    for lineno, line in enumerate(p.read_text(encoding="utf-8").splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"config line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def _resolve(explicit, config: dict, key: str, default, cast):
    if explicit is not None:
        return explicit
    if key in config:
        try:
            return cast(config[key])
        except ValueError:
            raise ValidationError(f"config key {key}: cannot parse {config[key]!r}") from None
    return default


def _require_input(path: str, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise ValidationError(f"{what} not found: {path}")
    return p


def _check_output(path: str) -> Path:
    p = Path(path)
    if not p.parent.exists():
        raise ValidationError(f"output directory does not exist: {p.parent}")
    if p.is_dir():
        raise ValidationError(f"output path is a directory: {path}")
    return p


def _atomic_write(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# The curves of a fit document; `tailkit fit` adds its "report".
_CURVES = Fields(lambda upper, lower: (upper, lower), ("upper", "upper", CURVE_FIELDS),
                 ("lower", "lower", CURVE_FIELDS))


def _load_curves(path: str | None) -> tuple[PolyCurve, PolyCurve]:
    if path is None:
        return explorer.default_curves()
    return _CURVES(_load_json(path, "curves file"), "curves file: $")


def _load_json(path: str, what: str):
    return load_json(_require_input(path, what).read_text(encoding="utf-8"), what)


def _load_skeleton(path: str):
    return skeleton_from_json(_require_input(path, "skeleton JSON").read_text(encoding="utf-8"))


def _parse_pair(text: str, flag: str, form: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValidationError(f"{flag} expects {form}, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise ValidationError(f"{flag} expects numbers, got {text!r}") from None


def _cmd_fit(args) -> int:
    config = _read_config(args.config)
    degree = _resolve(args.degree, config, "degree", DEFAULT_DEGREE, int)
    fill = _resolve(args.fill, config, "fill", None, int)
    excise_text = _resolve(args.excise, config, "excise",
                           f"{DORSAL_EXCISE_LO}:{DORSAL_EXCISE_HI}", str)
    window = None if excise_text == "none" else _parse_pair(
        excise_text, "--excise", "LO:HI or 'none'"
    )
    src = _require_input(args.profile, "profile CSV")
    out = _check_output(args.out)

    samples = load_profile(src, min_rows=max(degree + 2, 4))
    if window is not None:
        samples = excise_dorsal(samples, window[0], window[1], min_remaining=degree + 2)
        if fill is None:
            fill = DEFAULT_FILL
    samples = interpolate_gap(samples, fill or 0)
    upper, lower, report = fit_polynomial(samples, degree)
    doc = {
        **_CURVES.write((upper, lower)),
        "report": {
            "mse_upper_m2": report.mse_upper,
            "mse_lower_m2": report.mse_lower,
            "residual_max_m": report.residual_max,
            "degree": report.degree,
        },
    }
    _atomic_write(out, dump_json(doc))
    return 0


def _cmd_skeleton(args) -> int:
    config = _read_config(args.config)
    out = _check_output(args.out)
    curves = _load_curves(args.curves)
    if args.preset is not None:
        spec = skeleton.preset(args.preset)
    else:
        if args.h1h2 is None:
            raise ValidationError("provide either --preset or --h1h2")
        spec = skeleton.SkeletonSpec(
            body_length=_resolve(args.body_length, config, "body_length_m",
                                 skeleton.DEFAULT_BODY_LENGTH_M, float),
            head_fraction=_resolve(args.head_fraction, config, "head_fraction",
                                   skeleton.DEFAULT_HEAD_FRACTION, float),
            n_ribs=_resolve(args.ribs, config, "n_ribs", skeleton.DEFAULT_N_RIBS, int),
            h1_h2=_parse_pair(args.h1h2, "--h1h2", "H1:H2"),
            thickness_first=_resolve(args.thickness_first, config, "thickness_first_mm",
                                     skeleton.DEFAULT_THICKNESS_FIRST_MM, float),
            thickness_ratio=args.thickness_ratio if args.thickness_ratio is not None else 1.0,
        )
    graph = skeleton.generate_skeleton(spec, *curves)
    _atomic_write(out, skeleton_to_json(graph))
    return 0


def _cmd_bend(args) -> int:
    config = _read_config(args.config)
    k_ref = _resolve(args.k_ref, config, "k_ref", tendon.DEFAULT_K_REF, float)
    out = _check_output(args.out)
    graph = _load_skeleton(args.skeleton)
    routing = tendon.route_cables(graph)
    stiffnesses = tendon.stiffnesses_from_graph(graph, k_ref)
    cmd = tendon.ActuationCommand(delta_top=args.delta_top, delta_bottom=args.delta_bottom)
    pose = tendon.bend_from_cables(graph, routing, cmd, stiffnesses)
    doc = {
        "segment_angles_rad": list(pose.segment_angles),
        "midline": [[x, y] for x, y in pose.midline],
    }
    _atomic_write(out, dump_json(doc))
    return 0


def _swim_result(args, config) -> SwimResult:
    amplitude = _resolve(args.amplitude, config, "amplitude_m", tendon.DEFAULT_AMPLITUDE_M, float)
    frequency = _resolve(args.freq, config, "frequency_hz", tendon.DEFAULT_FREQUENCY_HZ, float)
    k_ref = _resolve(args.k_ref, config, "k_ref", tendon.DEFAULT_K_REF, float)
    mass = _resolve(args.mass, config, "mass_kg", energetics.DERIVED_MASS_KG, float)
    n_samples = _resolve(args.samples, config, "n_samples", hydro.DEFAULT_N_SAMPLES, int)

    graph = _load_skeleton(args.skeleton)
    body_length = (args.body_length if args.body_length is not None
                   else skeleton.infer_body_length(graph))
    params = hydro.HydroParams()
    if args.hydro is not None:
        params = hydro.HydroParams.from_dict(_load_json(args.hydro, "hydro JSON"))
    routing = tendon.route_cables(graph)
    stiffnesses = tendon.stiffnesses_from_graph(graph, k_ref)
    if args.calibrate_speed is not None:
        params = hydro.calibrate(
            graph, routing, stiffnesses, amplitude, frequency, params,
            args.calibrate_speed, n_samples,
        )
    speed = hydro.steady_speed(
        graph, routing, stiffnesses, amplitude, frequency, params, n_samples
    )
    if speed <= 0:
        raise ComputationError("predicted speed is zero; cost of transport is undefined")
    power = energetics.predict_power(PowerModel(), amplitude, frequency)
    return SwimResult.from_power(speed=speed, power=power, mass=mass, body_length=body_length)


def _cmd_swim(args) -> int:
    config = _read_config(args.config)
    result = _swim_result(args, config)
    sys.stdout.write(dump_json(result.to_dict()))
    return 0


def _cmd_sweep(args) -> int:
    config = _read_config(args.config)
    jobs = _resolve(args.jobs, config, "jobs", 1, int)
    if (args.grid is None) == (not args.reference):
        raise ValidationError("provide exactly one of --grid or --reference")
    out = _check_output(args.out)
    plot_out = _check_output(args.plot_out) if args.plot_out else None
    json_out = _check_output(args.json_out) if args.json_out else None

    if args.reference:
        records = explorer.reference_records()
    else:
        grid = explorer.DesignGrid.from_dict(_load_json(args.grid, "grid JSON"))
        records = explorer.run_sweep(grid, jobs=jobs)

    _atomic_write(out, explorer.emit_report(records, "csv"))
    if plot_out is not None:
        _atomic_write(plot_out, explorer.emit_report(records, "plot"))
    if json_out is not None:
        _atomic_write(json_out, explorer.emit_report(records, "json"))
    return 0


def _cmd_pareto(args) -> int:
    src = _require_input(args.records, "records CSV")
    out = _check_output(args.out)
    _atomic_write(out, explorer.pareto_report_csv(src.read_text(encoding="utf-8")))
    return 0


def _cmd_export(args) -> int:
    out = _check_output(args.svg)
    graph = _load_skeleton(args.skeleton)
    _atomic_write(out, skeleton_to_svg(graph).text)
    return 0


def _cmd_analyze(args) -> int:
    config = _read_config(args.config)
    mass = _resolve(args.mass, config, "mass_kg", energetics.DERIVED_MASS_KG, float)
    require_finite("mass", mass)
    if mass <= 0:  # cot() checks it too, but is skipped when the speed is not positive
        raise ValidationError("mass must be positive")
    power = energetics.average_power(
        energetics.load_power_log(_require_input(args.power_log, "power log CSV"))
    )
    speed = energetics.speed_from_track(
        energetics.load_track(_require_input(args.track, "track CSV"))
    )
    cot_value = energetics.cot(power, mass, speed) if speed > 0 else None
    if cot_value is None:
        print("note: non-positive speed, cost of transport undefined", file=sys.stderr)
    sys.stdout.write(dump_json({
        "power_w": power,
        "speed_m_s": speed,
        "speed_mm_s": speed * 1000.0,
        "mass_kg": mass,
        "cot": cot_value,
    }))
    return 0


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process and shared by every
    ``main`` call: parsing does not change it, so callers must not either."""
    parser = _Parser(prog="tailkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", help="key = value file overriding built-in defaults")

    p = sub.add_parser("fit", help="fit profile contours with high-order polynomials")
    p.add_argument("--profile", required=True, help="profile CSV (x_m,y_upper_m,y_lower_m)")
    p.add_argument("--degree", type=int, help=f"fit degree (default {DEFAULT_DEGREE})")
    p.add_argument("--excise", help="dorsal window LO:HI in meters, or 'none' "
                                    f"(default {DORSAL_EXCISE_LO}:{DORSAL_EXCISE_HI})")
    p.add_argument("--fill", type=int, help=f"gap-fill point count (default {DEFAULT_FILL} "
                                            "when excising, else 0)")
    p.add_argument("--out", required=True, help="output JSON with both curves and fit report")
    add_config(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("skeleton", help="generate a skeleton graph from design parameters")
    p.add_argument("--preset", help="stock design name (type1 .. type6)")
    p.add_argument("--h1h2", help="spine height ratio H1:H2, e.g. 1:2")
    p.add_argument("--thickness-ratio", type=float, help="first:last rib thickness ratio")
    p.add_argument("--ribs", type=int, help="rib count")
    p.add_argument("--body-length", type=float, help="robot body length in meters")
    p.add_argument("--head-fraction", type=float, help="head share of body length")
    p.add_argument("--thickness-first", type=float, help="first rib thickness in mm")
    p.add_argument("--curves", help="fit JSON from 'tailkit fit' (default: bundled profile)")
    p.add_argument("--out", required=True, help="output skeleton JSON")
    add_config(p)
    p.set_defaults(func=_cmd_skeleton)

    p = sub.add_parser("bend", help="solve the pose for commanded cable shortenings")
    p.add_argument("--skeleton", required=True, help="skeleton JSON")
    p.add_argument("--delta-top", type=float, required=True, help="top shortening, m")
    p.add_argument("--delta-bottom", type=float, required=True, help="bottom shortening, m")
    p.add_argument("--k-ref", type=float, help="reference joint stiffness, N*m/rad")
    p.add_argument("--out", required=True, help="output pose JSON")
    add_config(p)
    p.set_defaults(func=_cmd_bend)

    p = sub.add_parser("swim", help="predict cruise speed, power and COT for a skeleton")
    p.add_argument("--skeleton", required=True, help="skeleton JSON")
    p.add_argument("--amplitude", type=float, help="cable stroke amplitude, m")
    p.add_argument("--freq", type=float, help="actuation frequency, Hz")
    p.add_argument("--calibrate-speed", type=float, help="calibrate drag to hit this speed, m/s")
    p.add_argument("--mass", type=float, help="robot mass, kg (default: derived)")
    p.add_argument("--body-length", type=float, help="body length, m (default: inferred)")
    p.add_argument("--hydro", help="hydro parameter JSON")
    p.add_argument("--k-ref", type=float, help="reference joint stiffness, N*m/rad")
    p.add_argument("--samples", type=int, help="kinematics samples per period")
    add_config(p)
    p.set_defaults(func=_cmd_swim)

    p = sub.add_parser("sweep", help="evaluate a design grid (or emit reference records)")
    p.add_argument("--grid", help="design grid JSON")
    p.add_argument("--reference", action="store_true",
                   help="emit the bundled measured reference records instead of simulating")
    p.add_argument("--out", required=True, help="output report CSV")
    p.add_argument("--jobs", type=int,
                   help="worker processes (default 1: a design takes about 0.3 ms, "
                        "so a process pool pays off only from about 200 grid points)")
    p.add_argument("--plot-out", help="also write speed/COT scatter CSV here")
    p.add_argument("--json-out", help="also write the lossless JSON report here")
    add_config(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("pareto", help="extract the speed/COT Pareto front from a report CSV")
    p.add_argument("--records", required=True, help="report CSV from 'tailkit sweep'")
    p.add_argument("--out", required=True, help="output CSV with front rows only")
    add_config(p)
    p.set_defaults(func=_cmd_pareto)

    p = sub.add_parser("export", help="render a skeleton to printable SVG")
    p.add_argument("--skeleton", required=True, help="skeleton JSON")
    p.add_argument("--svg", required=True, help="output SVG path")
    add_config(p)
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("analyze", help="average power, speed and COT from measured logs")
    p.add_argument("--power-log", required=True, help="CSV with t_s,voltage_v,current_a")
    p.add_argument("--track", required=True, help="CSV with t_s,x_m")
    p.add_argument("--mass", type=float, help="robot mass, kg (default: derived)")
    add_config(p)
    p.set_defaults(func=_cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as e:
        print(f"error: an input file is not UTF-8 text ({e})", file=sys.stderr)
        return 1
    except ComputationError as e:
        print(f"computation error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
