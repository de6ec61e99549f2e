"""Body-profile ingestion, dorsal-fin excision, gap interpolation and
polynomial curve fitting.

The pipeline mirrors how a side-view hull contour becomes a pair of
smooth analytic curves: load digitized (x, y_upper, y_lower) samples
from a numeric CSV (``formats.read_numeric_csv``), cut the dorsal-fin
region out of the upper contour, bridge the gap with a natural cubic
spline, then least-squares fit a high-order polynomial to each contour
on the chord normalized to [0, 1].

High-degree monomial fits are numerically treacherous (the plain
Vandermonde system at degree 17 has a condition number around 1e13), so
the solve runs in a Chebyshev basis, where the design matrix is
well-conditioned, and converts the solution to monomial coefficients
afterwards. Chebyshev coefficients below the solve's noise floor are
zeroed before conversion so that representation noise does not get
amplified into spurious monomial terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from numpy.polynomial import polynomial as _poly

from .errors import ComputationError, ValidationError
from .formats import Array, Fields, integer, number, read_numeric_csv

DEFAULT_DEGREE = 17

# Dorsal-fin excision window on the unit-chord source profile, meters.
DORSAL_EXCISE_LO = 0.40
DORSAL_EXCISE_HI = 0.61

PROFILE_CSV_HEADER = ("x_m", "y_upper_m", "y_lower_m")

# Chebyshev coefficients smaller than this (relative to the largest one)
# are numerical noise of the double-precision solve, not signal.
_CHEB_NOISE_FLOOR = 128 * np.finfo(float).eps


@dataclass(frozen=True)
class ProfileSamples:
    """Digitized upper/lower body contour points, x strictly increasing."""

    points_upper: tuple[tuple[float, float], ...]
    points_lower: tuple[tuple[float, float], ...]
    body_length: float

    def __post_init__(self):
        for name, pts in (("upper", self.points_upper), ("lower", self.points_lower)):
            if len(pts) < 2:
                raise ValidationError(f"{name} contour needs at least 2 points")
            xs = np.array([p[0] for p in pts])
            if not np.all(np.diff(xs) > 0):
                raise ValidationError(f"{name} contour x values must be strictly increasing")
        lower_y = dict(self.points_lower)
        for x, y in self.points_upper:
            yl = lower_y.get(x)
            if yl is not None and y < yl:
                raise ValidationError(f"upper contour below lower contour at x={x}")
        if self.body_length <= 0:
            raise ValidationError("body_length must be positive")
        if abs(self.body_length - (self.x_max - self.x_min)) > 1e-9:
            raise ValidationError("body_length must equal the chord extent max(x) - min(x)")

    @property
    def x_min(self) -> float:
        return min(self.points_upper[0][0], self.points_lower[0][0])

    @property
    def x_max(self) -> float:
        return max(self.points_upper[-1][0], self.points_lower[-1][0])


@dataclass(frozen=True)
class PolyCurve:
    """Polynomial contour y(x) = sum(c_i * x**i) on the normalized chord."""

    coefficients: tuple[float, ...]
    domain: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        if len(self.coefficients) < 2:
            raise ValidationError("a curve needs at least degree 1 (2 coefficients)")
        if not all(np.isfinite(self.coefficients)):
            raise ValidationError("curve coefficients must be finite")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def to_dict(self) -> dict:
        return CURVE_FIELDS.write(self)

    @classmethod
    def from_dict(cls, d) -> "PolyCurve":
        return CURVE_FIELDS(d, "curve JSON: $")


def _curve(degree: int, domain: tuple[float, float], coefficients: tuple[float, ...]) -> PolyCurve:
    if degree != len(coefficients) - 1:
        raise ValidationError("degree field inconsistent with coefficient count")
    return PolyCurve(coefficients=coefficients, domain=domain)


CURVE_FIELDS = Fields(_curve, ("degree", "degree", integer), ("domain", "domain", Array(number, 2)),
                      ("coefficients", "coefficients", Array(number)))


@dataclass(frozen=True)
class FitReport:
    """Per-curve fit quality of one fit_polynomial call."""

    mse_upper: float
    mse_lower: float
    residual_max: float
    degree: int

    def __post_init__(self):
        if self.mse_upper < 0 or self.mse_lower < 0 or self.residual_max < 0:
            raise ValidationError("fit errors cannot be negative")


def load_profile(csv_source, min_rows: int = DEFAULT_DEGREE + 2) -> ProfileSamples:
    """Read a profile CSV (header ``x_m,y_upper_m,y_lower_m``) into samples."""
    data = read_numeric_csv(csv_source, PROFILE_CSV_HEADER)
    if len(data) < min_rows:
        raise ValidationError(f"need at least {min_rows} samples, got {len(data)}")
    rows = data.tolist()  # ProfileSamples holds Python floats
    xs = [x for x, _, _ in rows]
    return ProfileSamples(
        points_upper=tuple((x, yu) for x, yu, _ in rows),
        points_lower=tuple((x, yl) for x, _, yl in rows),
        body_length=max(xs) - min(xs),
    )


def reference_profile_path() -> Path:
    """Path of the bundled synthetic unit-chord reference profile."""
    return Path(__file__).parent / "data" / "profile_ref.csv"


def load_reference_profile() -> ProfileSamples:
    return load_profile(reference_profile_path())


def excise_dorsal(
    samples: ProfileSamples,
    x_lo: float = DORSAL_EXCISE_LO,
    x_hi: float = DORSAL_EXCISE_HI,
    min_remaining: int = DEFAULT_DEGREE + 2,
) -> ProfileSamples:
    """Drop upper-contour points with x in the closed window [x_lo, x_hi].

    The lower contour is untouched; sample ordering is preserved.
    """
    if not x_lo < x_hi:
        raise ValidationError(f"excision window is empty: [{x_lo}, {x_hi}]")
    if x_lo < samples.x_min or x_hi > samples.x_max:
        raise ValidationError("excision window must lie within the chord")
    kept = tuple(p for p in samples.points_upper if not (x_lo <= p[0] <= x_hi))
    if len(kept) == len(samples.points_upper):
        return samples
    if len(kept) < min_remaining:
        raise ValidationError(
            f"excision leaves {len(kept)} upper points, need at least {min_remaining}"
        )
    return ProfileSamples(
        points_upper=kept,
        points_lower=samples.points_lower,
        body_length=samples.body_length,
    )


def _find_gap(xs: np.ndarray) -> tuple[int, float, float]:
    spacings = np.diff(xs)
    # np.median's bits from a sort (np.median would load numpy.ma)
    ranked = np.sort(spacings).tolist()
    mid = len(ranked) // 2
    median = ranked[mid] if len(ranked) % 2 else (ranked[mid - 1] + ranked[mid]) / 2
    i = int(np.argmax(spacings))
    if spacings[i] <= 2.0 * median:
        raise ValidationError("upper contour has no gap to interpolate")
    return i, float(xs[i]), float(xs[i + 1])


def _natural_cubic_spline(x: np.ndarray, y: np.ndarray, x_eval: np.ndarray) -> np.ndarray:
    """Values at ``x_eval`` of the natural cubic spline through (x, y).

    ``x`` is strictly increasing with at least 2 points. The knot slopes
    s solve the tridiagonal system that scipy's
    ``CubicSpline(x, y, bc_type="natural")`` builds, eliminated with
    partial pivoting in the order of LAPACK's dgtsv, and each piece is
    evaluated as y + s*z + c1*z**2 + c0*z**3 as scipy's ``PPoly`` does,
    so the values agree with scipy's to the last bit.
    """
    n = len(x)
    dx = np.diff(x)
    slope = np.diff(y) / dx
    # row i: dl[i-1]*s[i-1] + d[i]*s[i] + du[i]*s[i+1] = b[i]; the natural
    # ends (zero second derivative) fill rows 0 and n-1
    d = np.empty(n)
    d[0], d[-1] = 2 * dx[0], 2 * dx[-1]
    d[1:-1] = 2 * (dx[:-1] + dx[1:])
    du = np.concatenate([dx[:1], dx[:-1]]).tolist()
    dl = np.concatenate([dx[1:], dx[-1:]]).tolist()
    b = np.empty(n)
    b[0], b[-1] = 3 * (y[1] - y[0]), 3 * (y[-1] - y[-2])
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    d, b = d.tolist(), b.tolist()
    du2 = [0.0] * n  # fill-in of the second superdiagonal by row swaps
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            fact = dl[i] / d[i]
            d[i + 1] -= fact * du[i]
            b[i + 1] -= fact * b[i]
        else:
            fact = d[i] / dl[i]
            below = d[i + 1]
            d[i], d[i + 1] = dl[i], du[i] - fact * below
            if i < n - 2:
                du2[i] = du[i + 1]
                du[i + 1] = -fact * du2[i]
            du[i] = below
            b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    s = [0.0] * n
    s[-1] = b[-1] / d[-1]
    s[-2] = (b[-2] - du[-1] * s[-1]) / d[-2]
    for i in range(n - 3, -1, -1):
        s[i] = (b[i] - du[i] * s[i + 1] - du2[i] * s[i + 2]) / d[i]
    s = np.array(s)
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    c0, c1 = t / dx, (slope - s[:-1]) / dx - t
    i = np.clip(np.searchsorted(x, x_eval, side="right") - 1, 0, n - 2)
    z = x_eval - x[i]
    return y[i] + s[i] * z + c1[i] * (z * z) + c0[i] * (z * z * z)


def interpolate_gap(samples: ProfileSamples, n_fill: int) -> ProfileSamples:
    """Bridge the largest upper-contour gap with a natural cubic spline.

    Inserts n_fill new points spaced uniformly across the open gap; all
    pre-existing points are kept as-is. The inserted points inherit C1
    continuity from the spline by construction.
    """
    if n_fill < 0:
        raise ValidationError("n_fill cannot be negative")
    if n_fill == 0:
        return samples
    if len(samples.points_upper) < 4:
        raise ValidationError("cubic gap interpolation needs at least 4 upper points")
    xs = np.array([p[0] for p in samples.points_upper])
    ys = np.array([p[1] for p in samples.points_upper])
    _, gap_lo, gap_hi = _find_gap(xs)
    fill_x = gap_lo + (gap_hi - gap_lo) * np.arange(1, n_fill + 1) / (n_fill + 1)
    fill_y = _natural_cubic_spline(xs, ys, fill_x)
    merged = sorted(
        list(samples.points_upper) + [(float(x), float(y)) for x, y in zip(fill_x, fill_y)]
    )
    return ProfileSamples(
        points_upper=tuple(merged),
        points_lower=samples.points_lower,
        body_length=samples.body_length,
    )


def _lstsq_poly(x_norm: np.ndarray, y: np.ndarray, degree: int) -> np.ndarray:
    """Least-squares monomial coefficients on [0, 1] via a Chebyshev solve."""
    # distinct values of the finite x, sorted (np.unique would load numpy.ma)
    if 1 + np.count_nonzero(np.diff(np.sort(x_norm))) < degree + 1:
        raise ComputationError("rank-deficient fit: fewer distinct x values than coefficients")
    t = 2.0 * x_norm - 1.0
    design = _cheb.chebvander(t, degree)
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < degree + 1:
        raise ComputationError(f"rank-deficient fit: rank {rank} < {degree + 1}")
    coef[np.abs(coef) < _CHEB_NOISE_FLOOR * np.abs(coef).max()] = 0.0
    # T_k(2x - 1) expanded into monomials of x
    mono_t = _cheb.cheb2poly(coef)
    composed = np.polynomial.Polynomial(mono_t)(np.polynomial.Polynomial([-1.0, 2.0]))
    out = np.zeros(degree + 1)
    out[: len(composed.coef)] = composed.coef
    return out


def fit_polynomial(
    samples: ProfileSamples, degree: int = DEFAULT_DEGREE
) -> tuple[PolyCurve, PolyCurve, FitReport]:
    """Fit both contours with degree-``degree`` polynomials on the
    normalized chord and report per-curve mean squared errors."""
    if degree < 1:
        raise ValidationError("fit degree must be at least 1")
    x0, chord = samples.x_min, samples.body_length
    curves = []
    mses = []
    residual_max = 0.0
    for pts in (samples.points_upper, samples.points_lower):
        if len(pts) < degree + 1:
            raise ValidationError(
                f"need at least {degree + 1} points per contour, got {len(pts)}"
            )
        x = (np.array([p[0] for p in pts]) - x0) / chord
        y = np.array([p[1] for p in pts])
        coef = _lstsq_poly(x, y, degree)
        resid = y - _poly.polyval(x, coef)
        mses.append(float(np.mean(resid**2)))
        residual_max = max(residual_max, float(np.abs(resid).max()))
        curves.append(PolyCurve(coefficients=tuple(float(c) for c in coef)))
    report = FitReport(
        mse_upper=mses[0], mse_lower=mses[1], residual_max=residual_max, degree=degree
    )
    return curves[0], curves[1], report


def eval_profile(curve: PolyCurve, x):
    """Evaluate the curve at normalized chord position(s) x in [0, 1]."""
    arr = np.asarray(x, dtype=float)
    points = arr.ravel().tolist()
    lo, hi = curve.domain
    if any(t < lo or t > hi for t in points):
        raise ValidationError(f"evaluation point outside the curve domain [{lo}, {hi}]")
    # Horner's rule on Python floats, in the operation order of numpy's
    # polyval: the same bits, without a numpy call per coefficient
    last, *rest = curve.coefficients[::-1]
    vals = []
    for t in points:
        val = last + t * 0
        for c in rest:
            val = c + val * t
        vals.append(val)
    return vals[0] if np.isscalar(x) or arr.ndim == 0 else np.reshape(vals, arr.shape)
