import contextlib
import io
import json
import random
import tempfile
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailkit import explorer, skeleton, tendon
from tailkit.cli import main
from tailkit.energetics import DERIVED_MASS_KG, PowerModel, SwimResult
from tailkit.errors import ValidationError
from tailkit.hydro import HydroParams
from tailkit.explorer import (
    REPORT_COLUMNS,
    SOURCE_REFERENCE,
    STACK_SIZE,
    DesignGrid,
    DesignRecord,
    emit_report,
    evaluate_design,
    non_dominated,
    pareto_front,
    pareto_report_csv,
    parse_report_json,
    reference_records,
    run_sweep,
    spec_from_dict,
    spec_to_dict,
)
from tailkit.skeleton import SkeletonSpec, generate_skeleton
from tailkit.tendon import ActuationCommand, TailPose, bend_from_cables


@pytest.fixture(scope="module")
def small_grid():
    # 4 ribs keeps the per-point solve cheap
    return DesignGrid(
        h1_h2_values=((1.0, 1.0), (1.0, 2.0)),
        thickness_ratios=(1.0, 3.0),
        n_ribs_values=(4,),
    )


@pytest.fixture(scope="module")
def small_records(small_grid):
    return run_sweep(small_grid)


class TestGrid:
    def test_size(self, small_grid):
        assert small_grid.size == 4

    def test_empty_axis_rejected(self):
        with pytest.raises(ValidationError, match="non-empty"):
            DesignGrid(thickness_ratios=())

    def test_dict_round_trip(self, small_grid):
        assert DesignGrid.from_dict(json.loads(json.dumps(small_grid.to_dict()))) == small_grid

    def test_spec_dict_round_trip(self):
        spec = SkeletonSpec(h1_h2=(1.0, 2.0), thickness_ratio=2.5, n_ribs=7)
        assert spec_from_dict(spec_to_dict(spec)) == spec

    @pytest.mark.parametrize("value", [6.9, "6", True])
    def test_rib_count_is_never_truncated(self, value):
        grid = {"n_ribs_values": [4, value]}
        with pytest.raises(ValidationError) as caught:
            DesignGrid.from_dict(grid)
        assert str(caught.value) == (
            f"grid JSON: $.n_ribs_values[1] must be a whole number, got {value!r}")
        spec = {**spec_to_dict(SkeletonSpec()), "n_ribs": value}
        with pytest.raises(ValidationError) as caught:
            spec_from_dict(spec)
        assert str(caught.value) == (
            f"skeleton spec JSON: $.n_ribs must be a whole number, got {value!r}")
        with pytest.raises(ValidationError) as caught:
            DesignGrid.from_dict({"base_spec": spec})
        assert str(caught.value) == (
            f"grid JSON: $.base_spec.n_ribs must be a whole number, got {value!r}")

    def test_integral_float_rib_count_accepted(self):
        assert DesignGrid.from_dict({"n_ribs_values": [4, 6.0]}).n_ribs_values == (4, 6)
        spec = {**spec_to_dict(SkeletonSpec()), "n_ribs": 7.0}
        assert spec_from_dict(spec) == SkeletonSpec(n_ribs=7)

    def test_pinned_labels(self):
        grid = DesignGrid(h1_h2_values=((1.0, 1.0), (1.0, 1.25)), thickness_ratios=(2.0, 0.125),
                          n_ribs_values=(4, 12))
        assert [label for label, _ in explorer._grid_points(grid)] == [
            "h1-1_t2_r4", "h1-1_t2_r12", "h1-1_t0.125_r4", "h1-1_t0.125_r12",
            "h1-1.25_t2_r4", "h1-1.25_t2_r12", "h1-1.25_t0.125_r4", "h1-1.25_t0.125_r12",
        ]

    @pytest.mark.parametrize("axis, values, named", [
        ("h1_h2_values", ((1, 1.0000001), (1, 1.0000002)),
         "(1, 1.0000001) and (1, 1.0000002) would share the label '1-1'"),
        ("h1_h2_values", ((1.0, 2.0), (1.0, 1.0), (1.0, 2.0)),
         "(1.0, 2.0) and (1.0, 2.0) would share the label '1-2'"),
        ("thickness_ratios", (1.0, 2.0, 2.0000001), "2.0 and 2.0000001 would share the label '2'"),
        ("n_ribs_values", (4, 6, 6), "6 and 6 would share the label '6'"),
    ])
    def test_values_that_share_a_label_rejected(self, axis, values, named):
        # one label per row: pareto flags are assigned by label
        with pytest.raises(ValidationError) as caught:
            DesignGrid(**{axis: values})
        assert str(caught.value) == f"grid {axis} {named}"

    @pytest.mark.parametrize("doc, named", [
        ({"h1_h2_values": [[-1, 1]]}, "h1_h2_values (-1.0, 1.0): h1 and h2 must be positive"),
        ({"h1_h2_values": [[1, 1], [1e-20, 1]]}, "h1_h2_values (1e-20, 1.0): h1:h2 1e-20:1 "),
        ({"base_spec": spec_to_dict(SkeletonSpec(thickness_first=1e-300)),
          "thickness_ratios": [1, 1e300]}, "thickness_ratios 1e+300: last rib thickness"),
        ({"n_ribs_values": [4, 1]}, "n_ribs_values 1: need at least 2 ribs"),
    ], ids=["negative-h1", "spine-above-top", "thickness-underflow", "one-rib"])
    def test_axis_value_refused_at_load(self, tmp_path, capsys, doc, named):
        # each value of an axis is checked against the base spec before any point runs
        grid, out = tmp_path / "grid.json", tmp_path / "report.csv"
        grid.write_text(json.dumps(doc))
        assert main(["sweep", "--grid", str(grid), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: grid JSON: $: grid {named}")
        assert err.count("\n") == 1
        assert not out.exists()


def _json_type(value) -> str:
    return {type(None): "null", bool: "boolean", int: "number", float: "number",
            str: "string", list: "array", dict: "object"}[type(value)]


def _json_paths(value, route=()):
    """(route, JSON path) of every value in a JSON document, the root included."""
    yield route, "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in route)
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _json_paths(item, route + (key,))


def _replaced(doc, route, new):
    if not route:
        return new
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in route[:-1]:
        parent = parent[key]
    parent[route[-1]] = new
    return doc


def _at(doc, route):
    for key in route:
        doc = doc[key]
    return doc


_VALID_GRID = DesignGrid(h1_h2_values=((1.0, 1.0), (1.0, 2.0)), thickness_ratios=(1.0, 3.0),
                         n_ribs_values=(4, 6)).to_dict()
_GRID_PATHS = list(_json_paths(_VALID_GRID))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=5,
)


@st.composite
def _broken_grids(draw):
    """A valid grid document with the value at one JSON path replaced by a
    value of another JSON type, or a rib count by a non-whole number."""
    route, path = draw(st.sampled_from(_GRID_PATHS))
    old = _at(_VALID_GRID, route)
    is_rib_count = route[:1] == ("n_ribs_values",) or route == ("base_spec", "n_ribs")
    if is_rib_count and draw(st.booleans()):
        new = draw(st.floats(-100, 100).filter(lambda v: not v.is_integer()))
    else:
        new = draw(_JSON_VALUES.filter(lambda v: _json_type(v) != _json_type(old)))
    return _replaced(_VALID_GRID, route, new), path


class TestGridDocuments:
    @settings(max_examples=300, deadline=None)
    @given(_broken_grids())
    def test_refusal_names_the_path(self, case):
        # any other exception type, or a grid read from the document, fails
        doc, path = case
        with pytest.raises(ValidationError) as caught:
            DesignGrid.from_dict(doc)
        assert path in str(caught.value)

    @settings(max_examples=5, deadline=None)
    @given(_broken_grids())
    def test_sweep_exits_1_and_writes_nothing(self, case):
        doc, path = case
        with tempfile.TemporaryDirectory() as tmp:
            grid, out = Path(tmp) / "grid.json", Path(tmp) / "report.csv"
            grid.write_text(json.dumps(doc))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert main(["sweep", "--grid", str(grid), "--out", str(out)]) == 1
            assert err.getvalue().startswith("error: grid JSON: ")
            assert path in err.getvalue()
            assert "Traceback" not in err.getvalue()
            assert not out.exists()


def _mixed_tasks(grid: DesignGrid) -> list[tuple]:
    """Every grid point of ``grid`` plus one whose head reaches past the tip,
    as run_sweep's tasks."""
    points = explorer._grid_points(grid)
    label, spec = points[0]
    points.append((label + "_head", replace(spec, head_fraction=0.99)))
    return [(label, spec, *grid.actuation, grid.hydro, grid.power, explorer.default_curves())
            for label, spec in points]


class TestSweep:
    def test_stacked_records_equal_one_at_a_time(self, monkeypatch):
        # two rib counts; at 3 cm strokes on h1:h2 = 1:8 both 4-rib designs
        # fail in the bend solve, and the added point fails before it
        grid = DesignGrid(h1_h2_values=((1.0, 8.0),), thickness_ratios=(0.2, 1.0),
                          n_ribs_values=(4, 12), actuation=(0.03, 1.5))
        tasks = _mixed_tasks(grid)
        monkeypatch.setattr(explorer, "_grid_points", lambda g: [task[:2] for task in tasks])
        alone = sorted((explorer._evaluate_point(task) for task in tasks),
                       key=lambda r: r.label)
        errors = {r.label: r.error for r in alone if r.error is not None}
        assert sorted(errors) == ["h1-8_t0.2_r4", "h1-8_t0.2_r4_head", "h1-8_t1_r4"]
        assert "head region" in errors["h1-8_t0.2_r4_head"]
        assert "geometric limit" in errors["h1-8_t0.2_r4"]
        assert "geometric limit" in errors["h1-8_t1_r4"]
        for jobs in (1, 2):
            records = run_sweep(grid, jobs=jobs)
            assert records == alone
            assert emit_report(records, "json") == emit_report(alone, "json")

    def test_one_bend_solve_per_stack(self, monkeypatch):
        calls = []
        solve = tendon._solve_one_cable

        def counting(*args):
            calls.append(len(args[-1]))
            return solve(*args)

        monkeypatch.setattr(tendon, "_solve_one_cable", counting)
        ratios = tuple(1.0 + j / 8 for j in range(STACK_SIZE + 1))
        grid = DesignGrid(h1_h2_values=((1.0, 2.0),), thickness_ratios=ratios,
                          n_ribs_values=(4, 5))
        records = run_sweep(grid)
        assert all(r.result is not None for r in records)
        # per rib count, one full stack and one of a single design; 63 of the
        # 64 phases are taut
        assert calls == [63 * STACK_SIZE, 63, 63 * STACK_SIZE, 63]

    def test_six_stock_combinations(self):
        grid = DesignGrid(n_ribs_values=(4,))
        records = run_sweep(grid)
        assert len(records) == 6
        assert all(r.result is not None for r in records)

    def test_records_sorted_by_label(self, small_records):
        labels = [r.label for r in small_records]
        assert labels == sorted(labels)

    def test_repeat_is_byte_identical(self, small_grid, small_records):
        again = run_sweep(small_grid)
        assert emit_report(again, "csv") == emit_report(small_records, "csv")
        assert emit_report(again, "json") == emit_report(small_records, "json")

    def test_parallel_matches_serial(self, small_grid, small_records):
        parallel = run_sweep(small_grid, jobs=2)
        assert parallel == small_records

    def test_failed_point_becomes_error_record(self):
        grid = DesignGrid(
            h1_h2_values=((1.0, 1.0),),
            thickness_ratios=(1.0,),
            n_ribs_values=(4,),
            base_spec=SkeletonSpec(head_fraction=0.99),  # head reaches past the tip
        )
        records = run_sweep(grid)
        assert len(records) == 1
        assert records[0].result is None
        assert "head region" in records[0].error

    def test_no_skeleton_graph_on_the_sweep_path(self, monkeypatch, small_grid, small_records):
        # each design's chain comes straight from its spec: no graph, no
        # routing and no guide matching
        def refuse(*args, **kwargs):
            raise AssertionError("built through the skeleton graph")

        for module, name in ((skeleton, "generate_skeleton"), (skeleton, "SkeletonGraph"),
                             (tendon, "route_cables"), (tendon, "CableRouting"),
                             (tendon, "_guide_ids")):
            monkeypatch.setattr(module, name, refuse)
        assert run_sweep(small_grid) == small_records

    @pytest.mark.parametrize("base, h1h2, ratio, swap", [
        (SkeletonSpec(head_fraction=0.99), (1.0, 1.0), 1.0, False),  # head region past the tip
        (SkeletonSpec(), (1.0, 1.0), 1.0, True),  # curves swapped: non-positive rib span
    ])
    def test_point_fails_as_its_skeleton_does(self, fitted_curves, base, h1h2, ratio, swap):
        upper, lower, _ = fitted_curves
        curves = (lower, upper) if swap else (upper, lower)
        grid = DesignGrid(h1_h2_values=(h1h2,), thickness_ratios=(ratio,), n_ribs_values=(4,),
                          base_spec=base)
        (record,) = run_sweep(grid, curves=curves)
        with pytest.raises(ValidationError) as caught:
            generate_skeleton(record.spec, *curves)
        assert record.error == str(caught.value)

    def test_evaluate_design_result_shape(self):
        result = evaluate_design(
            SkeletonSpec(n_ribs=4), 0.008, 1.5, HydroParams(), PowerModel()
        )
        assert result.speed > 0
        assert result.mass == DERIVED_MASS_KG


class TestStackedEvaluation:
    """A stack of designs of one rib count gives each design the result it
    gets alone, bit for bit, and raises exactly when one of them alone does."""

    @staticmethod
    def outcomes(specs, amplitude, curves):
        """The stack's results (or None if it raised) and each design's alone
        (a result, or the exception it raised)."""
        args = (amplitude, 1.5, HydroParams(), PowerModel(), curves)
        alone = []
        for spec in specs:
            try:
                alone.append(explorer._evaluate_specs([spec], *args)[0])
            except Exception as e:
                alone.append(e)
        try:
            stacked = explorer._evaluate_specs(specs, *args)
        except Exception:
            stacked = None
        return stacked, alone

    def assert_stack_agrees(self, specs, amplitude, curves):
        stacked, alone = self.outcomes(specs, amplitude, curves)
        failures = [a for a in alone if isinstance(a, Exception)]
        if stacked is None:
            assert failures
        else:
            assert not failures
            assert len(stacked) == len(specs)
            for got, want in zip(stacked, alone):
                assert np.array(astuple(got)).tobytes() == np.array(astuple(want)).tobytes()
        return failures

    def test_random_stacks(self, fitted_curves):
        rng = random.Random(327)
        curves = fitted_curves[:2]
        raised = 0
        for _ in range(100):
            n_ribs = rng.randint(2, 14)
            amplitude = rng.uniform(0.008, 0.04)
            specs = []
            for _ in range(rng.randint(1, 16)):
                lever = rng.uniform(1.0, 8.0)
                specs.append(SkeletonSpec(
                    n_ribs=n_ribs, h1_h2=rng.choice([(1.0, lever), (lever, 1.0)]),
                    thickness_ratio=rng.uniform(0.2, 4.0)))
            raised += bool(self.assert_stack_agrees(specs, amplitude, curves))
        assert 0 < raised < 100  # both outcomes are exercised

    @pytest.mark.parametrize("odd, message", [
        (SkeletonSpec(n_ribs=4, head_fraction=0.99), "head region"),
        (SkeletonSpec(n_ribs=4, h1_h2=(1.0, 8.0)), "geometric limit"),
    ], ids=["head-past-tip", "geometric-limit"])
    def test_one_failing_design_fails_the_stack(self, fitted_curves, odd, message):
        curves = fitted_curves[:2]
        specs = [SkeletonSpec(n_ribs=4), odd, SkeletonSpec(n_ribs=4, thickness_ratio=2.0)]
        (failure,) = self.assert_stack_agrees(specs, 0.03, curves)
        assert message in str(failure)
        assert self.assert_stack_agrees(specs[::2], 0.03, curves) == []

    def test_swapped_curves_fail_every_design(self, fitted_curves):
        upper, lower, _ = fitted_curves
        specs = [SkeletonSpec(n_ribs=4), SkeletonSpec(n_ribs=4, h1_h2=(1.0, 2.0))]
        failures = self.assert_stack_agrees(specs, 0.008, (lower, upper))
        assert len(failures) == 2 and all("span is not positive" in str(f) for f in failures)

    def test_designs_that_share_no_stations(self, fitted_curves):
        specs = [SkeletonSpec(n_ribs=6), SkeletonSpec(n_ribs=6, body_length=0.5),
                 SkeletonSpec(n_ribs=6, head_fraction=0.4, h1_h2=(1.0, 2.0)),
                 SkeletonSpec(n_ribs=6, body_length=0.5, thickness_ratio=3.0)]
        assert self.assert_stack_agrees(specs, 0.008, fitted_curves[:2]) == []


class TestPareto:
    def test_reference_front_is_type4(self):
        front = pareto_front(reference_records())
        assert [r.label for r in front] == ["type4"]

    def test_exhaustive_pairwise_dominance(self):
        records = reference_records()
        best = next(r for r in records if r.label == "type4")
        others = [r for r in records if r.label != "type4"]
        assert len(others) == 5
        for other in others:
            assert best.result.speed > other.result.speed
            assert best.result.cot < other.result.cot

    def test_single_record_front(self):
        record = reference_records()[0]
        assert pareto_front([record]) == [record]

    def test_ties_keep_all(self):
        a = reference_records()[0]
        b = DesignRecord(label="clone", spec=a.spec, result=a.result, source=a.source)
        front = pareto_front([a, b])
        assert len(front) == 2

    def test_front_members_undominated_and_rest_dominated(self, small_records):
        front = pareto_front(small_records)
        front_labels = {r.label for r in front}
        valid = [r for r in small_records if r.result is not None]
        for record in valid:
            dominated_by_front = any(
                f.result.speed >= record.result.speed
                and f.result.cot <= record.result.cot
                and (f.result.speed > record.result.speed or f.result.cot < record.result.cot)
                for f in front
            )
            if record.label in front_labels:
                assert not dominated_by_front
            else:
                assert dominated_by_front

    @given(order=st.permutations(range(6)))
    @settings(max_examples=30, deadline=None)
    def test_permutation_invariant(self, order):
        records = reference_records()
        shuffled = [records[i] for i in order]
        assert pareto_front(shuffled) == pareto_front(records)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            pareto_front([])

    def test_non_dominated_helper(self):
        flags = non_dominated([(1.0, 1.0), (2.0, 0.5), (0.5, 2.0)])
        assert flags == [False, True, False]


class TestReferenceRecords:
    def test_row_values(self):
        records = reference_records()
        assert records[0].result.speed == pytest.approx(0.1335607, rel=1e-12)
        assert records[0].result.cot == 146.0
        assert records[3].result.speed == pytest.approx(0.1631813, rel=1e-12)
        assert records[3].result.cot == 95.0
        assert records[5].result.cot == 193.0

    def test_source_tag(self):
        assert all(r.source == SOURCE_REFERENCE for r in reference_records())

    def test_best_row_power_matches_measured_draw(self):
        # back-derived power for the best design lands on the measured 9.33 W
        best = reference_records()[3]
        assert best.result.power == pytest.approx(9.33, abs=0.01)

    def test_derived_mass_everywhere(self):
        assert all(r.result.mass == DERIVED_MASS_KG for r in reference_records())


class TestReports:
    def test_csv_shape(self):
        text = emit_report(reference_records(), "csv")
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(REPORT_COLUMNS)
        assert len(lines) == 7
        assert sum(1 for line in lines[1:] if ",true," in line) == 1
        assert "type4" in next(line for line in lines[1:] if ",true," in line)

    def test_json_round_trip(self, small_records):
        assert parse_report_json(emit_report(small_records, "json")) == small_records

    def test_json_round_trip_reference(self):
        records = reference_records()
        assert parse_report_json(emit_report(records, "json")) == records

    def test_plot_data(self):
        text = emit_report(reference_records(), "plot")
        lines = text.strip().split("\n")
        assert lines[0] == "speed_mm_s,cot"
        assert len(lines) == 7

    def test_error_record_kept_in_report_with_reason(self):
        spec = SkeletonSpec(n_ribs=4)
        bad = DesignRecord(label="broken", spec=spec, result=None, error="solver exploded")
        good = reference_records()[0]
        text = emit_report([bad, good], "csv")
        lines = text.strip().split("\n")
        assert len(lines) == 3
        assert lines[1].startswith("broken,")
        assert ",,,,," in lines[1]  # metrics empty
        parsed = parse_report_json(emit_report([bad, good], "json"))
        assert parsed[0].error == "solver exploded"

    def test_pareto_csv_ranks_like_pareto_front(self):
        def record(label, speed, cot):
            result = SwimResult(
                speed=speed, speed_bl=speed / 0.3251, power=cot * DERIVED_MASS_KG * speed,
                mass=DERIVED_MASS_KG, cot=cot, body_length=0.3251,
            )
            return DesignRecord(label=label, spec=SkeletonSpec(), result=result)

        records = [
            record("c", 0.10, 80.0), record("b", 0.15, 120.0), record("a", 0.15, 120.0),
            record("d", 0.12, 130.0), record("e", 0.08, 70.0),
        ]
        report = emit_report(records, "csv").split("\n")
        front = pareto_report_csv("\n".join(report)).split("\n")
        assert front[0] == report[0]
        assert [line.split(",")[0] for line in front[1:-1]] == ["a", "b", "c", "e"]
        assert [r.label for r in pareto_front(records)] == ["a", "b", "c", "e"]
        assert set(front[1:-1]) == {line for line in report[1:-1] if ",true," in line}

    @pytest.mark.parametrize("text", ["[NaN]", '[{"label": "x"}]', '["x"]'])
    def test_bad_report_json_rejected(self, text):
        with pytest.raises(ValidationError):
            parse_report_json(text)

    def test_every_row_key_is_required(self):
        doc = json.loads(emit_report(reference_records(), "json"))
        for key in doc[1]:
            row = {k: v for k, v in doc[1].items() if k != key}
            with pytest.raises(ValidationError) as caught:
                parse_report_json(json.dumps([doc[0], row]))
            assert str(caught.value) == f"report JSON: $[1].{key} is missing"

    @pytest.mark.parametrize("key, value, must", [
        ("pareto", "true", "a boolean"), ("pareto", 1, "a boolean"), ("h1", "1", "a number"),
        ("n_ribs", 6.5, "a whole number"), ("speed_mm_s", "163", "a number"),
    ])
    def test_derived_keys_are_type_checked(self, key, value, must):
        doc = json.loads(emit_report(reference_records(), "json"))
        doc[1][key] = value
        with pytest.raises(ValidationError) as caught:
            parse_report_json(json.dumps(doc))
        assert str(caught.value) == f"report JSON: $[1].{key} must be {must}, got {value!r}"

    def test_empty_report_rejected(self):
        with pytest.raises(ValidationError):
            emit_report([], "csv")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValidationError, match="format"):
            emit_report(reference_records(), "xml")


class TestRecordValidation:
    def test_result_xor_error(self):
        spec = SkeletonSpec()
        with pytest.raises(ValidationError):
            DesignRecord(label="x", spec=spec, result=None, error=None)


def test_kinematics_build_no_pose_objects(monkeypatch, type4_design):
    """A design's phases stay arrays from the bend solve to the thrust
    estimate: evaluate_design builds no TailPose, while the single-pose
    bend_from_cables builds exactly one."""
    built = []
    post_init = TailPose.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(TailPose, "__post_init__", counting)
    spec, graph, routing, stiffnesses = type4_design
    assert evaluate_design(spec, 0.008, 1.5, HydroParams(), PowerModel()).speed > 0
    assert built == []
    bend_from_cables(graph, routing, ActuationCommand(0.004, -0.004), stiffnesses)
    assert len(built) == 1
