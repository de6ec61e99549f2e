from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import make_symmetric_graph
from tailkit.errors import ComputationError, ValidationError
from tailkit.hydro import (
    MAX_SPEED_M_S,
    HydroParams,
    MidlineHistory,
    calibrate,
    calibrate_from_history,
    drag_force,
    mean_thrust,
    sample_kinematics,
    sample_kinematics_stack,
    steady_speed,
    steady_speed_from_history,
    steady_speeds,
)
from tailkit.skeleton import generate_skeleton
from tailkit.tendon import Chain, route_cables, segment_stiffnesses

AMPLITUDE = 0.008
FREQUENCY = 1.5
UNIFORM_K = [0.05, 0.05, 0.05]


@pytest.fixture(scope="module")
def type4_history(type4_design):
    _, graph, routing, stiffnesses = type4_design
    return sample_kinematics(graph, routing, stiffnesses, AMPLITUDE, FREQUENCY, 64)


@pytest.fixture(scope="module")
def calibrated(type4_design):
    _, graph, routing, stiffnesses = type4_design
    return calibrate(
        graph, routing, stiffnesses, AMPLITUDE, FREQUENCY, HydroParams(), 0.163181
    )


def static_history(y_offsets, n=16, stations=5):
    """Hand-built history: straight midlines displaced by y_offsets[t]."""
    period = 1.0
    times = tuple(period * i / n for i in range(n))
    midlines = tuple(
        tuple((0.1 * s, y_offsets[i % len(y_offsets)]) for s in range(stations))
        for i in range(n)
    )
    return MidlineHistory(times=times, midlines=midlines, period=period)


class TestSampleKinematics:
    def test_zero_amplitude_is_static(self, type4_design):
        _, graph, routing, stiffnesses = type4_design
        history = sample_kinematics(graph, routing, stiffnesses, 0.0, FREQUENCY, 16)
        assert (history.midlines == history.midlines[0]).all()

    def test_time_grid_spans_one_period(self, type4_design):
        _, graph, routing, stiffnesses = type4_design
        history = sample_kinematics(graph, routing, stiffnesses, 0.001, 1.5, 32)
        assert history.times[0] == 0.0
        assert history.period == pytest.approx(2.0 / 3.0)
        assert history.times[-1] < history.period
        assert len(history.times) == 32

    def test_half_period_mirrors_displacement_on_symmetric_rig(self):
        graph = make_symmetric_graph()
        routing = route_cables(graph)
        history = sample_kinematics(graph, routing, UNIFORM_K, 0.01, 1.0, 32)
        y = np.array([[p[1] for p in m] for m in history.midlines])
        # phase pi is sample 16; lateral displacements negate
        assert np.abs(y[16] + y[0]).max() <= 1e-9
        assert np.abs(y[24] + y[8]).max() <= 1e-9

    def test_stack_equals_each_design_alone(self, type4_design, fitted_curves):
        upper, lower, _ = fitted_curves
        spec, graph, routing, stiffnesses = type4_design
        other = replace(spec, h1_h2=(1.0, 1.0), thickness_ratio=2.5)
        graph2 = generate_skeleton(other, upper, lower)
        designs = [(graph, routing, stiffnesses),
                   (graph2, route_cables(graph2), segment_stiffnesses(other))]
        chain = Chain.from_specs([spec, other], upper, lower)
        (stacked,) = sample_kinematics_stack([chain], [[k for *_, k in designs]], AMPLITUDE,
                                             FREQUENCY, 32)
        assert stacked.midlines.shape == (2, 32, 6, 2)
        speeds = steady_speeds([stacked], HydroParams())
        for design, midlines, speed in zip(designs, stacked.midlines, speeds):
            alone = sample_kinematics(*design, AMPLITUDE, FREQUENCY, 32)
            assert stacked.period == alone.period
            assert stacked.times.tobytes() == alone.times.tobytes()
            assert midlines.tobytes() == alone.midlines.tobytes()
            assert speed == steady_speed_from_history(alone, HydroParams())

    def test_too_few_samples_rejected(self, type4_design):
        _, graph, routing, stiffnesses = type4_design
        with pytest.raises(ValidationError, match="16"):
            sample_kinematics(graph, routing, stiffnesses, AMPLITUDE, FREQUENCY, 8)

    @pytest.mark.parametrize("frequency", [0.0, -1.5, float("nan"), float("inf")])
    def test_bad_frequency_rejected(self, type4_design, frequency):
        _, graph, routing, stiffnesses = type4_design
        with pytest.raises(ValidationError, match="frequency"):
            sample_kinematics(graph, routing, stiffnesses, AMPLITUDE, frequency, 16)

    @pytest.mark.parametrize("amplitude", [-0.001, float("nan"), float("inf")])
    def test_bad_amplitude_rejected(self, type4_design, amplitude):
        _, graph, routing, stiffnesses = type4_design
        with pytest.raises(ValidationError, match="amplitude"):
            sample_kinematics(graph, routing, stiffnesses, amplitude, FREQUENCY, 16)


class TestHistoryValidation:
    def test_nonuniform_steps_rejected(self):
        with pytest.raises(ValidationError, match="uniform"):
            MidlineHistory(
                times=(0.0, 0.1, 0.35),
                midlines=(((0, 0), (1, 0)),) * 3,
                period=1.0,
            )

    def test_station_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="stations"):
            MidlineHistory(
                times=(0.0, 0.5),
                midlines=(((0, 0), (1, 0)), ((0, 0), (1, 0), (2, 0))),
                period=1.0,
            )

    @pytest.mark.parametrize("times, midlines, period, match", [
        ((0.0, float("nan"), 0.5), (((0, 0), (1, 0)),) * 3, 1.0, "finite"),
        ((0.0, 0.25, float("inf")), (((0, 0), (1, 0)),) * 3, 1.0, "finite"),
        ((0.0, 0.25, 0.5), (((0, 0), (1, float("nan"))),) * 3, 1.0, "finite"),
        ((0.0, 0.25, 0.5), (((0, 0), (float("-inf"), 0)),) * 3, 1.0, "finite"),
        ((0.0, 0.25, 0.5), (((0, 0), (1, 0)),) * 3, float("nan"), "finite"),
        ((0.0, 0.25, 0.5), (((0, 0, 0), (1, 0, 0)),) * 3, 1.0, r"\(x, y\) pairs"),
        ((0.0, 0.25, 0.5), ((0, 1),) * 3, 1.0, r"\(x, y\) pairs"),
    ], ids=["nan-time", "inf-time", "nan-y", "inf-x", "nan-period", "xyz-points", "scalar-points"])
    def test_bad_values_rejected(self, times, midlines, period, match):
        with pytest.raises(ValidationError, match=match):
            MidlineHistory(times=times, midlines=midlines, period=period)

    def test_nested_sequences_become_arrays(self):
        history = static_history([0.01, -0.01], n=4, stations=3)
        assert history.times.shape == (4,) and history.midlines.shape == (4, 3, 2)
        assert history.midlines.dtype == np.float64


class TestMeanThrust:
    def test_static_midline_drags_at_speed(self):
        history = static_history([0.02])
        thrust = mean_thrust(history, 0.5, HydroParams())
        assert thrust <= 0.0

    def test_moving_midline_thrusts_at_rest(self, type4_history):
        assert mean_thrust(type4_history, 0.0, HydroParams()) > 0.0

    def test_any_history_nonnegative_at_rest(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            offsets = rng.normal(0, 0.01, 16)
            history = static_history(offsets)
            assert mean_thrust(history, 0.0, HydroParams()) >= 0.0

    def test_quadratic_in_amplitude_at_rest(self, type4_design):
        _, graph, routing, stiffnesses = type4_design
        small = sample_kinematics(graph, routing, stiffnesses, 0.001, FREQUENCY, 32)
        double = sample_kinematics(graph, routing, stiffnesses, 0.002, FREQUENCY, 32)
        ratio = mean_thrust(double, 0.0, HydroParams()) / mean_thrust(small, 0.0, HydroParams())
        assert ratio == pytest.approx(4.0, rel=0.05)

    def test_too_few_samples_rejected(self):
        history = MidlineHistory(
            times=(0.0, 0.5),
            midlines=(((0, 0), (1, 0)), ((0, 0.01), (1, 0.01))),
            period=1.0,
        )
        with pytest.raises(ValidationError, match="3 time samples"):
            mean_thrust(history, 0.0, HydroParams())


class TestDrag:
    def test_zero_at_rest(self):
        assert drag_force(0.0, HydroParams()) == 0.0

    def test_quadratic_in_speed(self):
        params = HydroParams()
        assert drag_force(0.4, params) == pytest.approx(4.0 * drag_force(0.2, params))

    def test_reference_arithmetic(self):
        params = HydroParams(rho=1000.0, drag_coeff=0.5, frontal_area=0.003)
        expected = 0.5 * 1000.0 * 0.5 * 0.003 * 0.1632**2
        assert drag_force(0.1632, params) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.01998, rel=1e-3)

    def test_monotone_increasing(self):
        params = HydroParams()
        speeds = np.linspace(0, 1.5, 30)
        drags = [drag_force(float(u), params) for u in speeds]
        assert all(b > a for a, b in zip(drags, drags[1:]))


class TestSteadySpeed:
    def test_zero_amplitude_rests(self, type4_design):
        _, graph, routing, stiffnesses = type4_design
        assert steady_speed(graph, routing, stiffnesses, 0.0, FREQUENCY, HydroParams()) == 0.0

    @pytest.mark.parametrize("frequency, n_samples, match", [
        (-1.0, 64, "frequency"),
        (FREQUENCY, 3, "16 samples"),
    ])
    def test_zero_amplitude_still_checks_inputs(self, type4_design, frequency, n_samples, match):
        _, graph, routing, stiffnesses = type4_design
        with pytest.raises(ValidationError, match=match):
            steady_speed(graph, routing, stiffnesses, 0.0, frequency, HydroParams(), n_samples)

    def test_balance_residual_at_root(self, type4_history, calibrated):
        u_star = steady_speed_from_history(type4_history, calibrated)
        residual = mean_thrust(type4_history, u_star, calibrated) - drag_force(u_star, calibrated)
        assert abs(residual) <= 1e-6

    def test_more_drag_swims_slower(self, type4_history, calibrated):
        u_base = steady_speed_from_history(type4_history, calibrated)
        doubled = replace(calibrated, drag_coeff=2.0 * calibrated.drag_coeff)
        assert steady_speed_from_history(type4_history, doubled) < u_base

    def test_sampling_resolution_converged(self, type4_design, calibrated):
        _, graph, routing, stiffnesses = type4_design
        u64 = steady_speed(graph, routing, stiffnesses, AMPLITUDE, FREQUENCY, calibrated, 64)
        u128 = steady_speed(graph, routing, stiffnesses, AMPLITUDE, FREQUENCY, calibrated, 128)
        assert abs(u64 - u128) / u64 <= 0.005

    @pytest.mark.parametrize("which", ["default", "calibrated"])
    def test_closed_form_matches_bracketed_root(self, type4_history, calibrated, which):
        params = HydroParams() if which == "default" else calibrated

        def balance(u):
            return mean_thrust(type4_history, u, params) - drag_force(u, params)

        root = brentq(balance, 0.0, MAX_SPEED_M_S, xtol=1e-15, rtol=8.9e-16)
        u_star = steady_speed_from_history(type4_history, params)
        assert u_star == pytest.approx(root, rel=1e-12)

    def test_speed_limit_raises(self, type4_design):
        # a fast, nearly drag-free tail would balance above MAX_SPEED_M_S
        _, graph, routing, stiffnesses = type4_design
        history = sample_kinematics(graph, routing, stiffnesses, AMPLITUDE, 5.0)
        with pytest.raises(ComputationError, match="balance below"):
            steady_speed_from_history(history, HydroParams(drag_coeff=1e-3))
        # drag set test-side so the balance falls just either side of the limit
        params = HydroParams()
        a = mean_thrust(history, 0.0, params)
        b = a - mean_thrust(history, 1.0, params)
        for factor in (0.99, 1.01):
            u = factor * MAX_SPEED_M_S
            cd = 2.0 * (a - b * u**2) / (params.rho * params.frontal_area * u**2)
            balanced = replace(params, drag_coeff=cd)
            if factor < 1.0:
                assert steady_speed_from_history(history, balanced) == pytest.approx(u)
            else:
                with pytest.raises(ComputationError, match="balance below"):
                    steady_speed_from_history(history, balanced)

    def test_density_scaling_leaves_speed_unchanged(self, type4_history, calibrated):
        u_base = steady_speed_from_history(type4_history, calibrated)
        heavy = replace(calibrated, rho=3.0 * calibrated.rho)
        assert steady_speed_from_history(type4_history, heavy) == pytest.approx(
            u_base, rel=1e-9
        )


class TestCalibrate:
    def test_hits_target(self, type4_design, calibrated):
        _, graph, routing, stiffnesses = type4_design
        speed = steady_speed(graph, routing, stiffnesses, AMPLITUDE, FREQUENCY, calibrated)
        assert 0.16302 <= speed <= 0.16334

    def test_hits_target_exactly(self, type4_history, calibrated):
        speed = steady_speed_from_history(type4_history, calibrated)
        assert speed == pytest.approx(0.163181, rel=1e-12)

    def test_equals_calibration_from_the_sampled_history(self, type4_history, calibrated):
        assert calibrate_from_history(type4_history, HydroParams(), 0.163181) == calibrated

    def test_fixed_point(self, type4_design, type4_history, calibrated):
        _, graph, routing, stiffnesses = type4_design
        current = steady_speed_from_history(type4_history, calibrated)
        again = calibrate(
            graph, routing, stiffnesses, AMPLITUDE, FREQUENCY, calibrated, current
        )
        assert again.drag_coeff == pytest.approx(calibrated.drag_coeff, rel=1e-3)

    def test_halving_target_raises_drag(self, type4_design, calibrated):
        _, graph, routing, stiffnesses = type4_design
        slower = calibrate(
            graph, routing, stiffnesses, AMPLITUDE, FREQUENCY, calibrated, 0.163181 / 2
        )
        assert slower.drag_coeff > calibrated.drag_coeff

    def test_unreachable_target_rejected(self, type4_design):
        _, graph, routing, stiffnesses = type4_design
        with pytest.raises(ComputationError, match="unreachable"):
            calibrate(graph, routing, stiffnesses, AMPLITUDE, FREQUENCY, HydroParams(), 5.0)

    def test_nonpositive_target_rejected(self, type4_design):
        _, graph, routing, stiffnesses = type4_design
        with pytest.raises(ValidationError):
            calibrate(graph, routing, stiffnesses, AMPLITUDE, FREQUENCY, HydroParams(), 0.0)

    @pytest.mark.parametrize("target", [float("nan"), float("inf")])
    def test_nonfinite_target_rejected(self, type4_design, target):
        _, graph, routing, stiffnesses = type4_design
        with pytest.raises(ValidationError, match="finite"):
            calibrate(graph, routing, stiffnesses, AMPLITUDE, FREQUENCY, HydroParams(), target)

    @pytest.mark.parametrize("target", [1e-300, 1e300])
    def test_target_with_an_unrepresentable_square_rejected(self, type4_design, target):
        # the square underflows to 0 or overflows, which once escaped as
        # ZeroDivisionError or OverflowError
        _, graph, routing, stiffnesses = type4_design
        with pytest.raises(ValidationError, match="finite nonzero square"):
            calibrate(graph, routing, stiffnesses, AMPLITUDE, FREQUENCY, HydroParams(), target)


class TestParams:
    def test_positive_fields_enforced(self):
        with pytest.raises(ValidationError):
            HydroParams(rho=0.0)
        with pytest.raises(ValidationError):
            HydroParams(tip_span=-0.1)

    @pytest.mark.parametrize("field", [
        "rho", "drag_coeff", "frontal_area", "added_mass_coeff", "tip_span",
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_fields_rejected(self, field, value):
        with pytest.raises(ValidationError, match="finite"):
            HydroParams(**{field: value})

    def test_dict_round_trip(self):
        params = HydroParams(drag_coeff=3.2)
        assert HydroParams.from_dict(params.to_dict()) == params
