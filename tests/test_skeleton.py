import random
import re

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailkit.errors import ValidationError
from tailkit.export import skeleton_to_json
from tailkit.skeleton import (
    Node,
    Rib,
    SkeletonGraph,
    SkeletonSpec,
    generate_skeleton,
    infer_body_length,
    preset,
    rib_stations,
    rib_thicknesses,
    six_presets,
    spine_segment_thicknesses,
)


class TestSpec:
    def test_defaults_valid(self):
        spec = SkeletonSpec()
        assert spec.body_length == pytest.approx(0.3251)
        assert spec.n_ribs == 6

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"body_length": 0.0},
            {"head_fraction": 0.0},
            {"head_fraction": 1.0},
            {"n_ribs": 1},
            {"h1_h2": (0.0, 1.0)},
            {"h1_h2": (1.0, -2.0)},
            {"thickness_first": 0.0},
            {"thickness_ratio": 0.0},
            {"spine_shape": "spiral"},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            SkeletonSpec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"body_length": float("nan")},
            {"head_fraction": float("nan")},
            {"h1_h2": (1.0, float("inf"))},
            {"thickness_first": float("inf")},
            {"thickness_ratio": float("nan")},
        ],
    )
    def test_non_finite_values_rejected(self, kwargs):
        with pytest.raises(ValidationError, match="finite"):
            SkeletonSpec(**kwargs)

    @pytest.mark.parametrize("kwargs, named", [
        ({"h1_h2": (1e-20, 1.0)}, "h1:h2 1e-20:1"),
        ({"h1_h2": (1e308, 1e308)}, "h1:h2 1e+308:1e+308"),  # h1 + h2 overflows
        ({"thickness_first": 1e-300, "thickness_ratio": 1e300}, "last rib thickness"),
        ({"thickness_ratio": 1e-308}, "last rib thickness"),
    ], ids=["spine-above-top", "spine-sum-overflow", "thickness-underflow", "thickness-overflow"])
    def test_degenerate_design_refused(self, kwargs, named):
        with pytest.raises(ValidationError, match=re.escape(named)):
            SkeletonSpec(**kwargs)


class TestThicknesses:
    def test_six_rib_taper(self):
        spec = SkeletonSpec(n_ribs=6, thickness_ratio=3.0, thickness_first=3.0)
        assert rib_thicknesses(spec) == pytest.approx([3.0, 2.6, 2.2, 1.8, 1.4, 1.0])

    def test_unit_ratio_is_constant(self):
        spec = SkeletonSpec(n_ribs=5, thickness_ratio=1.0, thickness_first=2.5)
        assert rib_thicknesses(spec) == pytest.approx([2.5] * 5)

    def test_two_ribs(self):
        spec = SkeletonSpec(n_ribs=2, thickness_ratio=2.0, thickness_first=2.0)
        assert rib_thicknesses(spec) == pytest.approx([2.0, 1.0])

    @given(
        ratio=st.floats(1.01, 10.0),
        n_ribs=st.integers(2, 12),
        first=st.floats(0.5, 8.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_endpoints_exact_and_monotone(self, ratio, n_ribs, first):
        spec = SkeletonSpec(n_ribs=n_ribs, thickness_ratio=ratio, thickness_first=first)
        ts = rib_thicknesses(spec)
        assert ts[0] == first
        assert ts[-1] == first / ratio
        assert all(a > b for a, b in zip(ts, ts[1:]))

    def test_segments_inherit_head_adjacent_rib(self):
        spec = SkeletonSpec(n_ribs=3, thickness_ratio=3.0, thickness_first=3.0)
        assert spine_segment_thicknesses(spec) == pytest.approx([3.0, 2.0])

    def test_uniform_segments(self):
        spec = SkeletonSpec(n_ribs=4, thickness_ratio=1.0)
        assert len(set(spine_segment_thicknesses(spec))) == 1

    def test_two_rib_single_segment(self):
        spec = SkeletonSpec(n_ribs=2, thickness_first=2.2)
        assert spine_segment_thicknesses(spec) == [2.2]


class TestPresets:
    def test_type4(self):
        specs = six_presets()
        assert specs[3].h1_h2 == (1.0, 2.0)
        assert specs[3].thickness_ratio == 1.0

    def test_type1(self):
        specs = six_presets()
        assert specs[0].h1_h2 == (1.0, 1.0)
        assert specs[0].thickness_ratio == 1.0

    def test_all_constructible(self):
        assert len(six_presets()) == 6

    def test_lookup_by_name(self):
        assert preset("type4") == six_presets()[3]
        with pytest.raises(ValidationError, match="unknown preset"):
            preset("type9")


class TestGenerate:
    def test_first_rib_clears_head(self, fitted_curves):
        upper, lower, _ = fitted_curves
        graph = generate_skeleton(SkeletonSpec(), upper, lower)
        assert min(r.x for r in graph.ribs) >= 0.10725
        assert graph.head_boundary_x == pytest.approx(0.33 * 0.3251)

    def test_symmetric_partition_is_midpoint(self, fitted_curves):
        upper, lower, _ = fitted_curves
        graph = generate_skeleton(SkeletonSpec(h1_h2=(1.0, 1.0)), upper, lower)
        for rib in graph.ribs:
            assert rib.y_spine == pytest.approx((rib.y_top + rib.y_bottom) / 2, rel=1e-12)

    def test_pinned_partition_convention(self, fitted_curves):
        # h1 is the share above the rod: 1:2 puts the rod at 2/3 height
        upper, lower, _ = fitted_curves
        graph = generate_skeleton(SkeletonSpec(h1_h2=(1.0, 2.0)), upper, lower)
        for rib in graph.ribs:
            above = rib.y_top - rib.y_spine
            below = rib.y_spine - rib.y_bottom
            assert above / below == pytest.approx(0.5, rel=1e-12)
            assert rib.y_spine == pytest.approx(
                rib.y_bottom + 2.0 / 3.0 * (rib.y_top - rib.y_bottom), rel=1e-12
            )

    @given(h1=st.floats(0.2, 5.0), h2=st.floats(0.2, 5.0))
    @settings(max_examples=25, deadline=None)
    def test_partition_ratio_property(self, fitted_curves, h1, h2):
        upper, lower, _ = fitted_curves
        graph = generate_skeleton(SkeletonSpec(h1_h2=(h1, h2)), upper, lower)
        for rib in graph.ribs:
            ratio = (rib.y_top - rib.y_spine) / (rib.y_spine - rib.y_bottom)
            assert ratio == pytest.approx(h1 / h2, rel=1e-12)

    def test_deterministic_and_byte_identical(self, fitted_curves):
        upper, lower, _ = fitted_curves
        a = generate_skeleton(six_presets()[3], upper, lower)
        b = generate_skeleton(six_presets()[3], upper, lower)
        assert a == b
        assert skeleton_to_json(a) == skeleton_to_json(b)

    def test_ribs_stay_out_of_head(self, fitted_curves):
        upper, lower, _ = fitted_curves
        for spec in six_presets():
            graph = generate_skeleton(spec, upper, lower)
            assert all(r.x >= graph.head_boundary_x for r in graph.ribs)

    def test_rib_spans_positive_and_within_profile(self, fitted_curves):
        upper, lower, _ = fitted_curves
        graph = generate_skeleton(SkeletonSpec(n_ribs=9), upper, lower)
        assert all(r.y_top > r.y_bottom for r in graph.ribs)

    def test_structure_counts(self, fitted_curves):
        upper, lower, _ = fitted_curves
        n = 6
        graph = generate_skeleton(SkeletonSpec(n_ribs=n), upper, lower)
        assert len(graph.nodes) == 3 * n
        assert len(graph.ribs) == n
        assert len(graph.bars) == 2 * n + (n - 1)
        assert len(graph.strings) == 2 * (n - 1)

    def test_negative_span_rejected(self, fitted_curves):
        upper, lower, _ = fitted_curves
        with pytest.raises(ValidationError, match="span"):
            generate_skeleton(SkeletonSpec(), lower, upper)  # curves swapped

    def test_head_reaching_tip_rejected(self, fitted_curves):
        upper, lower, _ = fitted_curves
        with pytest.raises(ValidationError, match="head region"):
            generate_skeleton(SkeletonSpec(head_fraction=0.98), upper, lower)

    def test_spine_between_guides_near_the_share_limit(self, fitted_curves):
        # a spine share just below 1 must not round a spine point past its top
        # guide; h1/h2 from 1.12e-16 (above 2**-53, so that h1 + h2 > h2) to 1e-14
        rng = random.Random(16)
        specs = [SkeletonSpec(n_ribs=12, body_length=rng.uniform(0.05, 2.0),
                              head_fraction=rng.uniform(0.05, 0.9),
                              h1_h2=(10 ** rng.uniform(-15.95, -14) * h2, h2))
                 for h2 in (10 ** rng.uniform(-6, 6) for _ in range(2000))]
        x, y_top, y_spine, y_bottom = rib_stations(specs, *fitted_curves[:2])
        assert np.all(y_bottom <= y_spine) and np.all(y_spine <= y_top)

    def test_body_length_inference(self, fitted_curves):
        upper, lower, _ = fitted_curves
        graph = generate_skeleton(SkeletonSpec(), upper, lower)
        assert infer_body_length(graph) == pytest.approx(0.3251, rel=1e-12)


class TestGraphValidation:
    def test_edge_to_missing_node_rejected(self):
        nodes = (Node(0, 0.0, 0.0), Node(1, 0.1, 0.0))
        with pytest.raises(ValidationError, match="missing node"):
            SkeletonGraph(nodes, ((0, 7),), (), (), 0.0)

    def test_duplicate_edge_rejected(self):
        nodes = (Node(0, 0.0, 0.0), Node(1, 0.1, 0.0))
        with pytest.raises(ValidationError, match="duplicate edge"):
            SkeletonGraph(nodes, ((0, 1), (1, 0)), (), (), 0.0)

    def test_rib_in_head_region_rejected(self):
        nodes = (Node(0, 0.0, 0.0), Node(1, 0.1, 0.0))
        rib = Rib(x=0.05, y_top=0.1, y_bottom=-0.1, y_spine=0.0, thickness=1.0)
        with pytest.raises(ValidationError, match="head region"):
            SkeletonGraph(nodes, ((0, 1),), (), (rib,), 0.2)

    def test_rib_ordering_invariant(self):
        with pytest.raises(ValidationError):
            Rib(x=0.1, y_top=-0.1, y_bottom=0.1, y_spine=0.0, thickness=1.0)
