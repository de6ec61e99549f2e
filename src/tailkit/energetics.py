"""Cost-of-transport arithmetic, power estimation, and measured-log ingestion.

The cost of transport used throughout is COT = P / (m * v) with power in
watts, mass in kilograms and speed in m/s. Note the convention: there is
no gravitational normalization (the common nondimensional form divides
by m*g*v); the bundled reference measurements only reproduce under this
convention, so it is applied verbatim and documented here.

The robot's mass is not directly known; the default below is derived by
inverting COT = P/(m*v) at the best design's measured operating point
(9.33 W, 0.163181 m/s, COT 95) and is flagged as derived wherever it
appears. Both logs are numeric CSVs, read by ``formats.read_numeric_csv``
(a plain log file straight by ``np.loadtxt``) into float arrays that stay
arrays through ``MeasurementLog`` to the result. Finite inputs can still
overflow a double on the way to a mean power, a speed or a cost of
transport; that is refused with the quantity's name, not passed on as inf
or NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, require_finite
from .formats import Fields, number, read_numeric_csv

# Measured electrical operating points of the physical robot.
P_IDLE_W = 0.48
P_ACTUATION_FULL_W = 9.33
BATTERY_WH = 1.85

# Derived, not measured: mass from inverting COT = P/(m*v).
DERIVED_MASS_KG = 0.6022

DEFAULT_F_REF_HZ = 1.5
DEFAULT_AMPLITUDE_REF_M = 0.008

POWER_CSV_HEADER = ("t_s", "voltage_v", "current_a")
TRACK_CSV_HEADER = ("t_s", "x_m")


@dataclass(frozen=True)
class PowerModel:
    """Interpolates electrical power between the idle and full-actuation
    operating points: P = p_idle + (p_full - p_idle) * (A/A_ref)**exponent * (f/f_ref),
    with f_ref = DEFAULT_F_REF_HZ."""

    p_idle: float = P_IDLE_W
    p_actuation_full: float = P_ACTUATION_FULL_W
    amplitude_ref: float = DEFAULT_AMPLITUDE_REF_M
    exponent: float = 2.0

    def __post_init__(self):
        require_finite("power model parameters", self.p_idle, self.p_actuation_full,
                       self.amplitude_ref, self.exponent)
        if self.p_idle < 0:
            raise ValidationError("idle power cannot be negative")
        if self.p_actuation_full <= self.p_idle:
            raise ValidationError("full-actuation power must exceed idle power")
        if self.amplitude_ref <= 0:
            raise ValidationError("amplitude_ref must be positive")

    def to_dict(self) -> dict:
        return POWER_FIELDS.write(self)

    @classmethod
    def from_dict(cls, d) -> "PowerModel":
        return POWER_FIELDS(d, "power model JSON: $")


POWER_FIELDS = Fields(
    PowerModel, ("p_idle", "p_idle_w", number), ("p_actuation_full", "p_actuation_full_w", number),
    ("amplitude_ref", "amplitude_ref_m", number), ("exponent", "exponent", number))


@dataclass(frozen=True)
class SwimResult:
    """One design's swim metrics. Speeds in m/s and body-lengths/s."""

    speed: float
    speed_bl: float
    power: float
    mass: float
    cot: float
    body_length: float

    _CONSISTENCY_RTOL = 0.01  # printed reference values are rounded

    def __post_init__(self):
        require_finite("mass", self.mass)
        require_finite("body_length", self.body_length)
        require_finite("speed, power and cost of transport", self.speed, self.speed_bl,
                       self.power, self.cot)
        if self.speed < 0:
            raise ValidationError("speed cannot be negative")
        if self.mass <= 0 or self.body_length <= 0:
            raise ValidationError("mass and body_length must be positive")
        if self.speed > 0:
            if abs(self.cot * self.mass * self.speed - self.power) > self._CONSISTENCY_RTOL * self.power:
                raise ValidationError("cot, power, mass and speed are inconsistent")
            if abs(self.speed_bl * self.body_length - self.speed) > self._CONSISTENCY_RTOL * self.speed:
                raise ValidationError("speed_bl and speed are inconsistent")

    @classmethod
    def from_power(
        cls, speed: float, power: float, mass: float, body_length: float
    ) -> "SwimResult":
        if speed <= 0:
            raise ValidationError("cost of transport is undefined at zero speed")
        return cls(
            speed=speed,
            speed_bl=speed_bl(speed, body_length),
            power=power,
            mass=mass,
            cot=cot(power, mass, speed),
            body_length=body_length,
        )

    def to_dict(self) -> dict:
        return {
            "speed_mm_s": self.speed * 1000.0,
            "speed_bl_s": self.speed_bl,
            "power_w": self.power,
            "mass_kg": self.mass,
            "cot": self.cot,
            "body_length_m": self.body_length,
        }


@dataclass(frozen=True, eq=False)
class MeasurementLog:
    """Electrical samples (t, V, I) as an (n, 3) float array and/or tracked
    positions (t, x) as an (n, 2) float array; sequences of rows are converted."""

    samples: np.ndarray = ()
    track: np.ndarray = ()

    def __post_init__(self):
        for name, width in (("samples", 3), ("track", 2)):
            rows = np.asarray(getattr(self, name), dtype=float)
            if rows.size == 0:
                rows = rows.reshape(0, width)
            if rows.ndim != 2 or rows.shape[1] != width:
                raise ValidationError(f"{name} rows must have {width} values each")
            # NaN compares false, so a NaN time fails this check too; a
            # comparison, unlike np.diff, cannot overflow
            times = rows[:, 0]
            if not np.all(times[1:] > times[:-1]):
                raise ValidationError(f"{name} times must be strictly increasing")
            object.__setattr__(self, name, rows)


def cot(power: float, mass: float, speed: float) -> float:
    """Cost of transport P/(m*v); undefined at zero speed."""
    require_finite("mass", mass)
    require_finite("power and speed", power, speed)
    if mass <= 0:
        raise ValidationError("mass must be positive")
    if speed <= 0:
        raise ValidationError("cost of transport is undefined for speed <= 0")
    m_v = mass * speed
    value = power / m_v if m_v else power / mass / speed  # m*v underflowed to zero
    return _refuse_overflow("cost of transport", value)


def speed_bl(speed: float, body_length: float) -> float:
    """Speed in body lengths per second."""
    if body_length <= 0:
        raise ValidationError("body_length must be positive")
    return speed / body_length


def runtime_hours(battery_wh: float, power_w: float) -> float:
    """Runtime on a battery of the given capacity."""
    if power_w <= 0:
        raise ValidationError("power must be positive")
    return battery_wh / power_w


def predict_power(model: PowerModel, amplitude: float, frequency: float) -> float:
    """Electrical power estimate for an actuation setting, W."""
    if amplitude < 0 or frequency < 0:
        raise ValidationError("amplitude and frequency cannot be negative")
    span = model.p_actuation_full - model.p_idle
    return model.p_idle + span * (amplitude / model.amplitude_ref) ** model.exponent * (
        frequency / DEFAULT_F_REF_HZ
    )


def average_power(log: MeasurementLog) -> float:
    """Time-weighted mean electrical power of a measured log, W."""
    if len(log.samples) < 2:
        raise ValidationError("need at least 2 electrical samples")
    t, volts, amps = log.samples.T
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, by name
        power = float(np.trapezoid(volts * amps, t) / (t[-1] - t[0]))
    return _refuse_overflow("average power", power)


def speed_from_track(log: MeasurementLog) -> float:
    """Mean speed over a tracked run; negative if the run went backward."""
    if len(log.track) < 2:
        raise ValidationError("need at least 2 track points")
    (t0, x0), (t1, x1) = log.track[[0, -1]].tolist()
    return _refuse_overflow("track speed", (x1 - x0) / (t1 - t0))  # times strictly increase


def _refuse_overflow(name: str, value: float) -> float:
    """``value``, unless the finite inputs it came from overflowed a double."""
    if not math.isfinite(value):
        raise ValidationError(f"{name} overflows a double ({value})")
    return value


def load_power_log(source) -> MeasurementLog:
    """Read an electrical log CSV with header ``t_s,voltage_v,current_a``."""
    return MeasurementLog(samples=read_numeric_csv(source, POWER_CSV_HEADER))


def load_track(source) -> MeasurementLog:
    """Read a displacement track CSV with header ``t_s,x_m``."""
    return MeasurementLog(track=read_numeric_csv(source, TRACK_CSV_HEADER))
