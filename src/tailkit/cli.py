"""Command-line surface: fit, skeleton, bend, swim, sweep, pareto, export, analyze.

Every command validates its inputs before any output file is opened and
writes through a temp-file/rename pair, so a failing run never leaves a
partial artifact. Exit codes: 0 success, 1 validation error, 2
computation error. Files are parsed and rendered by the library
modules (``formats`` and ``explorer``); this module only opens and
writes them. Each subcommand's settings are declared once, in
``SETTINGS``: a setting whose flag is not given takes its key's value
from the ``--config`` file (``key = value`` lines, # comments), or else
its default.
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

# The settings of each subcommand: (flag, config key, type, default, help).
# One config file serves every subcommand; each reads only its own keys.
_K_REF = ("--k-ref", "k_ref", float, tendon.DEFAULT_K_REF, "reference joint stiffness, N*m/rad")
_MASS = ("--mass", "mass_kg", float, energetics.DERIVED_MASS_KG,
         "robot mass, kg; the default is derived, not measured")
SETTINGS = {
    "fit": (
        ("--degree", "degree", int, DEFAULT_DEGREE, "fit degree"),
        ("--excise", "excise", str, f"{DORSAL_EXCISE_LO}:{DORSAL_EXCISE_HI}",
         "dorsal window LO:HI in meters, or 'none'"),
        ("--fill", "fill", int, None,
         f"gap-fill point count; unset, {DEFAULT_FILL} when excising, else 0"),
    ),
    "skeleton": (
        ("--ribs", "n_ribs", int, skeleton.DEFAULT_N_RIBS, "rib count"),
        ("--body-length", "body_length_m", float, skeleton.DEFAULT_BODY_LENGTH_M,
         "robot body length in meters"),
        ("--head-fraction", "head_fraction", float, skeleton.DEFAULT_HEAD_FRACTION,
         "head share of body length"),
        ("--thickness-first", "thickness_first_mm", float, skeleton.DEFAULT_THICKNESS_FIRST_MM,
         "first rib thickness in mm"),
    ),
    "bend": (_K_REF,),
    "swim": (
        ("--amplitude", "amplitude_m", float, tendon.DEFAULT_AMPLITUDE_M,
         "cable stroke amplitude, m"),
        ("--freq", "frequency_hz", float, tendon.DEFAULT_FREQUENCY_HZ, "actuation frequency, Hz"),
        _K_REF,
        _MASS,
        ("--samples", "n_samples", int, hydro.DEFAULT_N_SAMPLES, "kinematics samples per period"),
    ),
    "sweep": (
        ("--jobs", "jobs", int, 1, "worker processes; a design takes about 0.15 ms, so a "
                                   "process pool pays off only from about 300 grid points"),
    ),
    "pareto": (), "export": (),
    "analyze": (_MASS,),
}
_CONFIG_KEYS = tuple(dict.fromkeys(row[1] for rows in SETTINGS.values() for row in rows))


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
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ValidationError(f"config line {lineno}: {key!r} is not a known key; "
                                  f"the keys are {', '.join(_CONFIG_KEYS)}")
        out[key] = value.strip()
    return out


def _fill_settings(args) -> None:
    """Set each setting whose flag was not given from the config file, or
    else to its default."""
    config = _read_config(args.config)
    for flag, key, cast, default, _ in SETTINGS[args.command]:
        dest = flag[2:].replace("-", "_")
        if getattr(args, dest) is None:
            try:
                setattr(args, dest, cast(config[key]) if key in config else default)
            except ValueError:
                raise ValidationError(f"config key {key}: cannot parse {config[key]!r}") from None


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
    window = None if args.excise == "none" else _parse_pair(
        args.excise, "--excise", "LO:HI or 'none'"
    )
    src = _require_input(args.profile, "profile CSV")
    out = _check_output(args.out)

    samples = load_profile(src, min_rows=max(args.degree + 2, 4))
    if window is not None:
        samples = excise_dorsal(samples, *window, min_remaining=args.degree + 2)
    fill = (0 if window is None else DEFAULT_FILL) if args.fill is None else args.fill
    samples = interpolate_gap(samples, fill)
    upper, lower, report = fit_polynomial(samples, args.degree)
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
    out = _check_output(args.out)
    curves = _load_curves(args.curves)
    if args.preset is None:
        h1_h2 = _parse_pair(args.h1h2, "--h1h2", "H1:H2")
        ratio = 1.0 if args.thickness_ratio is None else args.thickness_ratio
    elif args.thickness_ratio is not None:
        raise ValidationError("--preset fixes the thickness ratio; drop --thickness-ratio")
    else:
        stock = skeleton.preset(args.preset)
        h1_h2, ratio = stock.h1_h2, stock.thickness_ratio
    spec = skeleton.SkeletonSpec(
        body_length=args.body_length, head_fraction=args.head_fraction, n_ribs=args.ribs,
        h1_h2=h1_h2, thickness_first=args.thickness_first, thickness_ratio=ratio)
    graph = skeleton.generate_skeleton(spec, *curves)
    _atomic_write(out, skeleton_to_json(graph))
    return 0


def _cmd_bend(args) -> int:
    out = _check_output(args.out)
    graph = _load_skeleton(args.skeleton)
    routing = tendon.route_cables(graph)
    stiffnesses = tendon.stiffnesses_from_graph(graph, args.k_ref)
    cmd = tendon.ActuationCommand(delta_top=args.delta_top, delta_bottom=args.delta_bottom)
    pose = tendon.bend_from_cables(graph, routing, cmd, stiffnesses)
    doc = {
        "segment_angles_rad": list(pose.segment_angles),
        "midline": [[x, y] for x, y in pose.midline],
    }
    _atomic_write(out, dump_json(doc))
    return 0


def _cmd_swim(args) -> int:
    graph = _load_skeleton(args.skeleton)
    body_length = (args.body_length if args.body_length is not None
                   else skeleton.infer_body_length(graph))
    params = hydro.HydroParams()
    if args.hydro is not None:
        params = hydro.HydroParams.from_dict(_load_json(args.hydro, "hydro JSON"))
    history = hydro.sample_kinematics(
        graph, tendon.route_cables(graph), tendon.stiffnesses_from_graph(graph, args.k_ref),
        args.amplitude, args.freq, args.samples,
    )
    if args.calibrate_speed is not None:
        params = hydro.calibrate_from_history(history, params, args.calibrate_speed)
    speed = hydro.steady_speed_from_history(history, params)
    if speed <= 0:
        raise ComputationError("predicted speed is zero; cost of transport is undefined")
    power = energetics.predict_power(PowerModel(), args.amplitude, args.freq)
    result = SwimResult.from_power(speed=speed, power=power, mass=args.mass,
                                   body_length=body_length)
    sys.stdout.write(dump_json(result.to_dict()))
    return 0


def _cmd_sweep(args) -> int:
    if (args.grid is None) == (not args.reference):
        raise ValidationError("provide exactly one of --grid or --reference")
    out = _check_output(args.out)
    plot_out = _check_output(args.plot_out) if args.plot_out else None
    json_out = _check_output(args.json_out) if args.json_out else None

    if args.reference:
        records = explorer.reference_records()
    else:
        grid = explorer.DesignGrid.from_dict(_load_json(args.grid, "grid JSON"))
        records = explorer.run_sweep(grid, jobs=args.jobs)

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
    require_finite("mass", args.mass)
    if args.mass <= 0:  # cot() checks it too, but is skipped when the speed is not positive
        raise ValidationError("mass must be positive")
    power = energetics.average_power(
        energetics.load_power_log(_require_input(args.power_log, "power log CSV"))
    )
    speed = energetics.speed_from_track(
        energetics.load_track(_require_input(args.track, "track CSV"))
    )
    cot_value = energetics.cot(power, args.mass, speed) if speed > 0 else None
    if cot_value is None:
        print("note: non-positive speed, cost of transport undefined", file=sys.stderr)
    sys.stdout.write(dump_json({
        "power_w": power,
        "speed_m_s": speed,
        "speed_mm_s": speed * 1000.0,
        "mass_kg": args.mass,
        "cot": cot_value,
    }))
    return 0


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process and shared by every
    ``main`` call: parsing does not change it, so callers must not either."""
    parser = _Parser(prog="tailkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, text):
        p = sub.add_parser(name, help=text)
        p.set_defaults(func=func)
        return p

    p = command("fit", _cmd_fit, "fit profile contours with high-order polynomials")
    p.add_argument("--profile", required=True, help="profile CSV (x_m,y_upper_m,y_lower_m)")
    p.add_argument("--out", required=True, help="output JSON with both curves and fit report")

    p = command("skeleton", _cmd_skeleton, "generate a skeleton graph from design parameters")
    design = p.add_mutually_exclusive_group(required=True)
    design.add_argument("--preset", help="stock design name (type1 .. type6); it fixes h1:h2 "
                                         "and the thickness ratio")
    design.add_argument("--h1h2", help="spine height ratio H1:H2, e.g. 1:2")
    p.add_argument("--thickness-ratio", type=float,
                   help="first:last rib thickness ratio, with --h1h2 (default 1)")
    p.add_argument("--curves", help="fit JSON from 'tailkit fit' (default: bundled profile)")
    p.add_argument("--out", required=True, help="output skeleton JSON")

    p = command("bend", _cmd_bend, "solve the pose for commanded cable shortenings")
    p.add_argument("--skeleton", required=True, help="skeleton JSON")
    p.add_argument("--delta-top", type=float, required=True, help="top shortening, m")
    p.add_argument("--delta-bottom", type=float, required=True, help="bottom shortening, m")
    p.add_argument("--out", required=True, help="output pose JSON")

    p = command("swim", _cmd_swim, "predict cruise speed, power and COT for a skeleton")
    p.add_argument("--skeleton", required=True, help="skeleton JSON")
    p.add_argument("--calibrate-speed", type=float, help="calibrate drag to hit this speed, m/s")
    p.add_argument("--body-length", type=float, help="body length, m (default: inferred)")
    p.add_argument("--hydro", help="hydro parameter JSON")

    p = command("sweep", _cmd_sweep, "evaluate a design grid (or emit reference records)")
    p.add_argument("--grid", help="design grid JSON")
    p.add_argument("--reference", action="store_true",
                   help="emit the bundled measured reference records instead of simulating")
    p.add_argument("--out", required=True, help="output report CSV")
    p.add_argument("--plot-out", help="also write speed/COT scatter CSV here")
    p.add_argument("--json-out", help="also write the lossless JSON report here")

    p = command("pareto", _cmd_pareto, "extract the speed/COT Pareto front from a report CSV")
    p.add_argument("--records", required=True, help="report CSV from 'tailkit sweep'")
    p.add_argument("--out", required=True, help="output CSV with front rows only")

    p = command("export", _cmd_export, "render a skeleton to printable SVG")
    p.add_argument("--skeleton", required=True, help="skeleton JSON")
    p.add_argument("--svg", required=True, help="output SVG path")

    p = command("analyze", _cmd_analyze, "average power, speed and COT from measured logs")
    p.add_argument("--power-log", required=True, help="CSV with t_s,voltage_v,current_a")
    p.add_argument("--track", required=True, help="CSV with t_s,x_m")

    for name, p in sub.choices.items():
        for flag, key, cast, default, text in SETTINGS[name]:
            shown = "" if default is None else f"default {default}, "
            p.add_argument(flag, type=cast, help=f"{text} ({shown}config key {key})")
        p.add_argument("--config", help="'key = value' file of settings; a flag beats its key")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _fill_settings(args)
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
