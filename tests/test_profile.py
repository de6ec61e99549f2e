import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tailkit.errors import ComputationError, ValidationError
from tailkit.profile import (
    FitReport,
    PolyCurve,
    ProfileSamples,
    _lstsq_poly,
    _natural_cubic_spline,
    eval_profile,
    excise_dorsal,
    fit_polynomial,
    interpolate_gap,
    load_profile,
)

ORACLE = json.loads((Path(__file__).parent / "data" / "fit_oracle.json").read_text())


def make_samples(x, yu, yl):
    return ProfileSamples(
        points_upper=tuple(zip(map(float, x), map(float, yu))),
        points_lower=tuple(zip(map(float, x), map(float, yl))),
        body_length=float(max(x) - min(x)),
    )


class TestLoad:
    def test_bundled_profile(self, reference_samples):
        assert len(reference_samples.points_upper) == 201
        assert len(reference_samples.points_lower) == 201
        assert reference_samples.x_min == 0.0
        assert reference_samples.x_max == 1.0
        assert reference_samples.body_length == 1.0

    def test_single_row_is_rejected(self):
        src = io.StringIO("x_m,y_upper_m,y_lower_m\n0.0,0.1,-0.1\n")
        with pytest.raises(ValidationError, match="at least"):
            load_profile(src)

    def test_descending_x_is_rejected(self):
        rows = "\n".join(f"{1.0 - 0.05 * i},0.1,-0.1" for i in range(20))
        with pytest.raises(ValidationError, match="strictly increasing"):
            load_profile(io.StringIO("x_m,y_upper_m,y_lower_m\n" + rows))

    def test_malformed_row_names_line(self):
        text = "x_m,y_upper_m,y_lower_m\n0.0,0.1,-0.1\n0.1,oops,-0.1\n"
        with pytest.raises(ValidationError, match="line 3"):
            load_profile(io.StringIO(text))

    def test_wrong_header(self):
        with pytest.raises(ValidationError, match="header"):
            load_profile(io.StringIO("x,yu,yl\n0,1,-1\n"))

    def test_crossing_contours_rejected(self):
        x = np.linspace(0, 1, 20)
        with pytest.raises(ValidationError, match="below lower"):
            make_samples(x, -np.ones(20), np.ones(20))


class TestExcise:
    def test_point_inside_window_removed(self, reference_samples):
        out = excise_dorsal(reference_samples)
        xs = [p[0] for p in out.points_upper]
        assert 0.50 not in xs
        assert all(not (0.40 <= x <= 0.61) for x in xs)

    def test_point_just_outside_retained(self, reference_samples):
        out = excise_dorsal(reference_samples)
        assert any(abs(x - 0.39) < 1e-12 for x, _ in out.points_upper)

    def test_window_endpoints_inclusive(self, reference_samples):
        out = excise_dorsal(reference_samples)
        xs = [p[0] for p in out.points_upper]
        assert 0.40 not in xs and 0.61 not in xs

    def test_lower_contour_untouched(self, reference_samples):
        out = excise_dorsal(reference_samples)
        assert out.points_lower == reference_samples.points_lower

    def test_no_points_in_window_is_identity(self, reference_samples):
        out = excise_dorsal(reference_samples, 0.401, 0.404)
        assert out is reference_samples

    def test_idempotent(self, reference_samples):
        once = excise_dorsal(reference_samples)
        twice = excise_dorsal(once)
        assert twice == once

    def test_empty_window_rejected(self, reference_samples):
        with pytest.raises(ValidationError):
            excise_dorsal(reference_samples, 0.61, 0.40)

    def test_window_outside_chord_rejected(self, reference_samples):
        with pytest.raises(ValidationError):
            excise_dorsal(reference_samples, 0.5, 1.5)

    def test_excessive_excision_rejected(self, reference_samples):
        with pytest.raises(ValidationError, match="leaves"):
            excise_dorsal(reference_samples, 0.005, 0.995)

    @given(lo=st.floats(0.05, 0.8), width=st.floats(0.01, 0.15))
    @settings(max_examples=25, deadline=None)
    def test_idempotence_property(self, reference_samples, lo, width):
        once = excise_dorsal(reference_samples, lo, lo + width)
        assert excise_dorsal(once, lo, lo + width) == once


def natural_spline_oracle(x, y, x_eval):
    """Independent natural cubic spline: assemble and solve the classic
    tridiagonal second-derivative system directly."""
    x, y = np.asarray(x), np.asarray(y)
    n = len(x)
    h = np.diff(x)
    a = np.zeros((n, n))
    rhs = np.zeros(n)
    a[0, 0] = 1.0
    a[-1, -1] = 1.0
    for i in range(1, n - 1):
        a[i, i - 1] = h[i - 1]
        a[i, i] = 2.0 * (h[i - 1] + h[i])
        a[i, i + 1] = h[i]
        rhs[i] = 3.0 * ((y[i + 1] - y[i]) / h[i] - (y[i] - y[i - 1]) / h[i - 1])
    c = np.linalg.solve(a, rhs)
    out = []
    for xv in np.atleast_1d(x_eval):
        i = np.searchsorted(x, xv) - 1
        i = min(max(i, 0), n - 2)
        dx = xv - x[i]
        b = (y[i + 1] - y[i]) / h[i] - h[i] * (2.0 * c[i] + c[i + 1]) / 3.0
        d = (c[i + 1] - c[i]) / (3.0 * h[i])
        out.append(y[i] + b * dx + c[i] * dx**2 + d * dx**3)
    return np.array(out)


class TestInterpolateGap:
    def test_fill_count_and_location(self, reference_samples):
        excised = excise_dorsal(reference_samples)
        filled = interpolate_gap(excised, 20)
        new = set(filled.points_upper) - set(excised.points_upper)
        assert len(new) == 20
        assert all(0.40 < x < 0.61 for x, _ in new)

    def test_matches_independent_spline_oracle(self, reference_samples):
        excised = excise_dorsal(reference_samples)
        filled = interpolate_gap(excised, 20)
        new = sorted(set(filled.points_upper) - set(excised.points_upper))
        xs = np.array([p[0] for p in excised.points_upper])
        ys = np.array([p[1] for p in excised.points_upper])
        expected = natural_spline_oracle(xs, ys, [p[0] for p in new])
        got = np.array([p[1] for p in new])
        assert np.abs(got - expected).max() <= 1e-12

    def test_zero_fill_is_identity(self, reference_samples):
        excised = excise_dorsal(reference_samples)
        assert interpolate_gap(excised, 0) is excised

    def test_existing_points_unchanged(self, reference_samples):
        excised = excise_dorsal(reference_samples)
        filled = interpolate_gap(excised, 20)
        assert set(excised.points_upper) <= set(filled.points_upper)
        assert filled.points_lower == excised.points_lower

    def test_inserted_points_within_spline_range(self, reference_samples):
        excised = excise_dorsal(reference_samples)
        filled = interpolate_gap(excised, 20)
        new = sorted(set(filled.points_upper) - set(excised.points_upper))
        xs = np.array([p[0] for p in excised.points_upper])
        ys = np.array([p[1] for p in excised.points_upper])
        dense = natural_spline_oracle(xs, ys, np.linspace(new[0][0], new[-1][0], 2001))
        eps = 1e-9
        assert all(dense.min() - eps <= y <= dense.max() + eps for _, y in new)

    @given(
        x0=st.floats(-10.0, 10.0),
        steps=st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=40),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_spline_is_scipy_bit_for_bit(self, x0, steps, data):
        # the bundled profile's fill, and so the fit output bytes, depend on it
        from scipy.interpolate import CubicSpline

        x = x0 + np.cumsum([0.0] + steps)
        assume(np.all(np.diff(x) > 0))  # no step lost to rounding against x0
        y = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=len(x),
                                        max_size=len(x))))
        x_eval = np.array(data.draw(st.lists(st.floats(x[0] - 1.0, x[-1] + 1.0),
                                             min_size=1, max_size=30)) + list(x))
        expected = CubicSpline(x, y, bc_type="natural")(x_eval)
        assert np.array_equal(_natural_cubic_spline(x, y, x_eval), expected)

    def test_too_few_points_rejected(self):
        x = [0.0, 0.1, 0.9]
        samples = make_samples(x, [0.1, 0.2, 0.1], [-0.1, -0.2, -0.1])
        with pytest.raises(ValidationError, match="at least 4"):
            interpolate_gap(samples, 5)

    def test_no_gap_rejected(self, reference_samples):
        with pytest.raises(ValidationError, match="no gap"):
            interpolate_gap(reference_samples, 5)


class TestFit:
    def test_bundled_profile_mse(self, fitted_curves):
        _, _, report = fitted_curves
        assert report.mse_upper <= 5e-6
        assert report.mse_lower <= 5e-6
        assert report.degree == 17

    def test_matches_exact_oracle(self, fitted_curves):
        upper, lower, _ = fitted_curves
        for curve, key in ((upper, "upper"), (lower, "lower")):
            expected = np.array(ORACLE[f"coefficients_{key}"])
            got = np.array(curve.coefficients)
            rel = np.abs(got - expected) / np.abs(expected)
            assert rel.max() <= 1e-6

    def test_exact_cubic_data(self):
        x = np.linspace(0, 1, 60)
        y = 0.3 - 0.2 * x + 1.7 * x**2 - 0.9 * x**3
        samples = make_samples(x, y, y - 1.0)
        upper, _, report = fit_polynomial(samples)
        assert report.mse_upper <= 1e-18
        evaluated = eval_profile(upper, x)
        assert np.abs(evaluated - y).max() <= 1e-9

    def test_constant_data(self):
        x = np.linspace(0, 1, 40)
        samples = make_samples(x, np.full(40, 0.1), np.full(40, -0.1))
        upper, _, _ = fit_polynomial(samples)
        assert upper.coefficients[0] == pytest.approx(0.1, abs=1e-9)
        assert max(abs(c) for c in upper.coefficients[1:]) <= 1e-9

    def test_degree_zero_rejected(self, reference_samples):
        with pytest.raises(ValidationError, match="degree"):
            fit_polynomial(reference_samples, degree=0)

    def test_too_few_points_rejected(self):
        x = np.linspace(0, 1, 10)
        samples = make_samples(x, np.linspace(0.1, 0.2, 10), np.full(10, -0.1))
        with pytest.raises(ValidationError, match="at least 18"):
            fit_polynomial(samples)

    def test_rank_deficient_rejected(self):
        x = np.array([0.0, 0.5, 1.0] * 10)  # only 3 distinct abscissae
        with pytest.raises(ComputationError, match="rank"):
            _lstsq_poly(x, np.ones_like(x), 17)

    def test_first_order_optimality(self, pipeline_samples, fitted_curves):
        upper, _, _ = fitted_curves
        xs = np.array([p[0] for p in pipeline_samples.points_upper])
        ys = np.array([p[1] for p in pipeline_samples.points_upper])
        design = np.vander(xs, 18, increasing=True)
        coef = np.array(upper.coefficients)
        ssr0 = np.sum((ys - design @ coef) ** 2)
        for i in range(18):
            for sign in (1e-6, -1e-6):
                perturbed = coef.copy()
                perturbed[i] += sign
                assert np.sum((ys - design @ perturbed) ** 2) >= ssr0

    def test_upper_stays_above_lower(self, fitted_curves):
        upper, lower, _ = fitted_curves
        x = np.linspace(0, 1, 1001)
        assert np.all(eval_profile(upper, x) >= eval_profile(lower, x))


class TestEval:
    def test_constant_term_at_zero(self, fitted_curves):
        upper, _, _ = fitted_curves
        assert eval_profile(upper, 0.0) == upper.coefficients[0]

    def test_linear_case(self):
        curve = PolyCurve(coefficients=(0.0, 1.0))
        assert eval_profile(curve, 0.5) == 0.5

    def test_residual_bound_at_samples(self, pipeline_samples, fitted_curves):
        upper, _, report = fitted_curves
        xs = np.array([p[0] for p in pipeline_samples.points_upper])
        ys = np.array([p[1] for p in pipeline_samples.points_upper])
        resid = np.abs(eval_profile(upper, xs) - ys)
        assert resid.max() <= 10.0 * np.sqrt(report.mse_upper)

    @pytest.mark.parametrize("x", [-0.1, 1.1, 2.0])
    def test_outside_domain_rejected(self, fitted_curves, x):
        upper, _, _ = fitted_curves
        with pytest.raises(ValidationError, match="domain"):
            eval_profile(upper, x)


class TestPolyCurveSchema:
    def test_round_trip(self, fitted_curves):
        upper, _, _ = fitted_curves
        doc = upper.to_dict()
        assert doc["degree"] == 17
        assert doc["domain"] == [0.0, 1.0]
        assert len(doc["coefficients"]) == 18
        assert PolyCurve.from_dict(json.loads(json.dumps(doc))) == upper

    def test_inconsistent_degree_rejected(self):
        with pytest.raises(ValidationError, match="degree"):
            PolyCurve.from_dict({"degree": 3, "domain": [0, 1], "coefficients": [1.0, 2.0]})

    def test_fit_report_validation(self):
        with pytest.raises(ValidationError):
            FitReport(mse_upper=-1.0, mse_lower=0.0, residual_max=0.0, degree=17)
