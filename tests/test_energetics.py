import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailkit.energetics import (
    BATTERY_WH,
    DERIVED_MASS_KG,
    P_ACTUATION_FULL_W,
    P_IDLE_W,
    MeasurementLog,
    PowerModel,
    SwimResult,
    average_power,
    cot,
    load_power_log,
    load_track,
    predict_power,
    runtime_hours,
    speed_bl,
    speed_from_track,
)
from tailkit.errors import ValidationError

# published swim metrics of the six stock types: (mm/s, bl/s, COT)
REFERENCE_ROWS = [
    (133.5607, 0.411, 146.0),
    (125.4027, 0.386, 136.0),
    (127.8671, 0.393, 136.0),
    (163.1813, 0.502, 95.0),
    (86.8601, 0.267, 175.0),
    (78.7879, 0.243, 193.0),
]

positive = st.floats(1e-3, 1e3)


class TestCot:
    def test_best_design_operating_point(self):
        assert cot(P_ACTUATION_FULL_W, DERIVED_MASS_KG, 0.163181) == pytest.approx(
            94.95, abs=0.01
        )

    def test_identity(self):
        assert cot(1.0, 1.0, 1.0) == 1.0

    def test_linear_in_power(self):
        assert cot(2.0, 1.0, 1.0) == 2.0

    @pytest.mark.parametrize("mass,speed", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -0.5)])
    def test_domain_errors(self, mass, speed):
        with pytest.raises(ValidationError):
            cot(1.0, mass, speed)

    @given(power=positive, mass=positive, speed=positive)
    @settings(max_examples=100, deadline=None)
    def test_inversions_round_trip(self, power, mass, speed):
        value = cot(power, mass, speed)
        assert power / (value * speed) == pytest.approx(mass, rel=1e-12)
        assert value * mass * speed == pytest.approx(power, rel=1e-12)


    @pytest.mark.parametrize("args, name", [
        ((1.0, float("nan"), 0.1), "mass"),
        ((1.0, float("inf"), 0.1), "mass"),
        ((float("nan"), 1.0, 0.1), "power and speed"),
        ((1.0, 1.0, float("inf")), "power and speed"),
    ])
    def test_non_finite_inputs_rejected(self, args, name):
        with pytest.raises(ValidationError, match=f"^{name} must be finite"):
            cot(*args)

    def test_underflowed_mass_times_speed(self):
        assert 1e-200 * 1e-200 == 0.0
        assert cot(1e-300, 1e-200, 1e-200) == pytest.approx(1e100, rel=1e-12)
        with pytest.raises(ValidationError, match=r"^cost of transport overflows a double \(inf\)"):
            cot(1.0, 1e-200, 1e-200)

class TestSpeedBl:
    def test_best_design_row(self):
        assert speed_bl(0.1631813, 0.3251) == pytest.approx(0.502, abs=0.002)

    def test_slowest_stock_row(self):
        assert speed_bl(0.1335607, 0.3251) == pytest.approx(0.411, abs=0.002)

    def test_zero_speed(self):
        assert speed_bl(0.0, 0.3251) == 0.0

    def test_single_body_length_explains_all_rows(self):
        for mm_s, bl_s, _ in REFERENCE_ROWS:
            assert speed_bl(mm_s / 1000.0, 0.3251) == pytest.approx(bl_s, rel=0.005)

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ValidationError):
            speed_bl(0.1, 0.0)


class TestRuntime:
    def test_idle_runtime(self):
        assert runtime_hours(BATTERY_WH, P_IDLE_W) == pytest.approx(3.854, abs=0.005)

    def test_full_actuation_runtime(self):
        assert runtime_hours(BATTERY_WH, P_ACTUATION_FULL_W) == pytest.approx(0.198, abs=0.003)

    @given(x=positive)
    @settings(max_examples=50, deadline=None)
    def test_equal_battery_and_power(self, x):
        assert runtime_hours(x, x) == pytest.approx(1.0, rel=1e-12)

    @given(battery=positive, power=positive, scale=st.floats(0.01, 100.0))
    @settings(max_examples=50, deadline=None)
    def test_homogeneous(self, battery, power, scale):
        assert runtime_hours(scale * battery, scale * power) == pytest.approx(
            runtime_hours(battery, power), rel=1e-12
        )

    def test_nonpositive_power_rejected(self):
        with pytest.raises(ValidationError):
            runtime_hours(1.85, 0.0)


class TestPredictPower:
    def test_idle_floor(self):
        assert predict_power(PowerModel(), 0.0, 1.5) == pytest.approx(P_IDLE_W)

    def test_full_actuation_ceiling(self):
        model = PowerModel()
        assert predict_power(model, model.amplitude_ref, 1.5) == pytest.approx(
            P_ACTUATION_FULL_W
        )

    def test_half_amplitude_arithmetic(self):
        model = PowerModel()
        expected = 0.48 + (9.33 - 0.48) * 0.25
        assert predict_power(model, model.amplitude_ref / 2, 1.5) == pytest.approx(expected)
        assert expected == pytest.approx(2.6925)

    def test_never_below_idle(self):
        model = PowerModel()
        for amplitude in (0.0, 0.001, 0.004, 0.008):
            for frequency in (0.0, 0.5, 1.5, 3.0):
                assert predict_power(model, amplitude, frequency) >= model.p_idle

    def test_model_validation(self):
        with pytest.raises(ValidationError):
            PowerModel(p_idle=-0.1)
        with pytest.raises(ValidationError):
            PowerModel(p_actuation_full=0.3)

    def test_dict_round_trip(self):
        model = PowerModel(exponent=1.5)
        assert PowerModel.from_dict(model.to_dict()) == model

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p_idle": float("nan")},
            {"p_actuation_full": float("inf")},
            {"amplitude_ref": float("nan")},
            {"exponent": float("nan")},
        ],
    )
    def test_non_finite_parameters_rejected(self, kwargs):
        with pytest.raises(ValidationError, match="finite"):
            PowerModel(**kwargs)


class TestAveragePower:
    def test_constant_log_is_pointwise_power(self):
        samples = tuple((float(t), 3.7, 1.0) for t in range(7))
        assert average_power(MeasurementLog(samples=samples)) == pytest.approx(3.7, rel=1e-12)

    def test_linear_ramp_trapezoid(self):
        log = MeasurementLog(samples=((0.0, 3.7, 0.0), (1.0, 3.7, 2.0)))
        assert average_power(log) == pytest.approx(3.7)

    def test_single_sample_rejected(self):
        with pytest.raises(ValidationError, match="2 electrical samples"):
            average_power(MeasurementLog(samples=((0.0, 3.7, 1.0),)))

    def test_nonmonotone_times_rejected(self):
        with pytest.raises(ValidationError, match="increasing"):
            MeasurementLog(samples=((0.0, 3.7, 1.0), (0.0, 3.7, 1.0)))

    @pytest.mark.parametrize("samples", [((0.0, 1e200, 1e200), (1.0, 1e200, 1e200)),
                                         ((-1e308, 3.7, 1.0), (1e308, 3.7, 1.0))],
                             ids=["watts", "time-span"])
    def test_overflow_refused_by_name(self, samples):
        with pytest.raises(ValidationError, match="^average power overflows a double"):
            average_power(MeasurementLog(samples=samples))


    @pytest.mark.parametrize("times", [(0.0, float("nan"), 2.0), (float("nan"), 1.0, 2.0),
                                       (0.0, 1.0, float("nan"))])
    def test_nan_time_rejected(self, times):
        with pytest.raises(ValidationError, match="samples times must be strictly increasing"):
            MeasurementLog(samples=tuple((t, 3.7, 1.0) for t in times))
        with pytest.raises(ValidationError, match="track times must be strictly increasing"):
            MeasurementLog(track=tuple((t, 0.0) for t in times))

    def test_rows_of_the_wrong_width_rejected(self):
        with pytest.raises(ValidationError, match="samples rows must have 3 values"):
            MeasurementLog(samples=((0.0, 3.7), (1.0, 3.7)))
        with pytest.raises(ValidationError, match="track rows must have 2 values"):
            MeasurementLog(track=np.zeros(4))

    @given(steps=st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=40),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_columns_match_the_row_by_row_reference(self, steps, seed):
        """Array columns give the bits of the row-by-row trapezoid."""
        rng = np.random.default_rng(seed)
        t = np.concatenate([[0.0], np.cumsum(steps)]).tolist()
        rows = tuple(zip(t, rng.uniform(3.0, 4.2, len(t)).tolist(),
                         rng.uniform(0.0, 3.0, len(t)).tolist()))
        times = np.array([r[0] for r in rows])
        watts = np.array([r[1] * r[2] for r in rows])
        reference = float(np.trapezoid(watts, times) / (times[-1] - times[0]))
        assert average_power(MeasurementLog(samples=rows)) == reference
        assert average_power(MeasurementLog(samples=np.array(rows))) == reference

class TestSpeedFromTrack:
    def test_reference_speed_reproduced(self):
        log = MeasurementLog(track=((0.0, 0.0), (10.0, 1.631813)))
        assert speed_from_track(log) == pytest.approx(0.1631813, rel=1e-12)

    def test_stationary(self):
        log = MeasurementLog(track=((0.0, 0.5), (5.0, 0.5)))
        assert speed_from_track(log) == 0.0

    def test_backward_is_negative_not_error(self):
        log = MeasurementLog(track=((0.0, 1.0), (2.0, 0.0)))
        assert speed_from_track(log) == pytest.approx(-0.5)

    def test_single_point_rejected(self):
        with pytest.raises(ValidationError, match="2 track points"):
            speed_from_track(MeasurementLog(track=((0.0, 0.0),)))

    def test_overflow_refused_by_name(self):
        log = MeasurementLog(track=((0.0, -1e308), (0.5, 1e308)))
        with pytest.raises(ValidationError, match=r"^track speed overflows a double \(inf\)"):
            speed_from_track(log)


    def test_speed_is_a_python_float(self):
        speed = speed_from_track(MeasurementLog(track=np.array([[0.0, 0.0], [4.0, 0.6]])))
        assert type(speed) is float and speed == 0.6 / 4.0

class TestCsvLoaders:
    def test_power_log_round_trip(self):
        text = "t_s,voltage_v,current_a\n0.0,3.7,0.5\n1.0,3.7,0.6\n"
        log = load_power_log(io.StringIO(text))
        assert log.samples.tolist() == [[0.0, 3.7, 0.5], [1.0, 3.7, 0.6]]

    def test_track_round_trip(self):
        text = "t_s,x_m\n0.0,0.0\n2.0,0.3\n"
        log = load_track(io.StringIO(text))
        assert log.track.tolist() == [[0.0, 0.0], [2.0, 0.3]]

    def test_wrong_header_rejected(self):
        with pytest.raises(ValidationError, match="header"):
            load_power_log(io.StringIO("t,v,i\n0,1,2\n"))

    def test_bad_line_numbered(self):
        text = "t_s,x_m\n0.0,0.0\nnope,0.1\n"
        with pytest.raises(ValidationError, match="line 3"):
            load_track(io.StringIO(text))


    def test_non_finite_value_names_its_line(self):
        text = "t_s,voltage_v,current_a\n0.0,3.7,0.5\n\n1.0,3.7,nan\n"
        with pytest.raises(ValidationError, match="line 4: non-finite"):
            load_power_log(io.StringIO(text))

class TestSwimResult:
    def test_from_power_consistency(self):
        result = SwimResult.from_power(
            speed=0.163181, power=9.33, mass=DERIVED_MASS_KG, body_length=0.3251
        )
        assert result.cot == pytest.approx(94.95, abs=0.01)
        assert result.speed_bl == pytest.approx(0.502, abs=0.002)

    def test_zero_speed_rejected(self):
        with pytest.raises(ValidationError):
            SwimResult.from_power(speed=0.0, power=1.0, mass=1.0, body_length=0.3)

    def test_inconsistent_cot_rejected(self):
        with pytest.raises(ValidationError, match="inconsistent"):
            SwimResult(
                speed=0.1, speed_bl=0.3077, power=9.33, mass=0.6, cot=500.0,
                body_length=0.325,
            )

    def test_dict_keys_carry_units(self):
        result = SwimResult.from_power(0.15, 5.0, 0.6, 0.3251)
        assert set(result.to_dict()) == {
            "speed_mm_s", "speed_bl_s", "power_w", "mass_kg", "cot", "body_length_m",
        }

    @pytest.mark.parametrize("field, name", [
        ("mass", "mass"), ("body_length", "body_length"), ("speed", "speed"), ("power", "power"),
    ])
    def test_non_finite_values_rejected(self, field, name):
        values = dict(speed=0.15, speed_bl=0.15 / 0.3251, power=5.0, mass=0.6,
                      cot=5.0 / (0.6 * 0.15), body_length=0.3251)
        values[field] = float("nan")
        with pytest.raises(ValidationError, match=f"{name}.* must be finite"):
            SwimResult(**values)
