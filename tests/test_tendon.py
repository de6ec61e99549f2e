import math
import random
from dataclasses import replace

import numpy as np
import pytest

from conftest import chain_arrays, fk_cable_length, make_symmetric_graph
from tailkit import tendon
from tailkit.errors import ComputationError, ValidationError
from tailkit.skeleton import SkeletonGraph, SkeletonSpec, generate_skeleton, six_presets
from tailkit.tendon import (
    CONSTRAINT_TOL_M,
    MAX_BEND_RAD,
    TRAVEL_LIMIT_FRACTION,
    ActuationCommand,
    Chain,
    TailPose,
    _solve_one_cable,
    actuation_waveform,
    bend_antagonistic,
    bend_antagonistic_stack,
    bend_from_cables,
    cable_lengths,
    route_cables,
    segment_stiffnesses,
    stiffnesses_from_graph,
)

UNIFORM_K = [0.05, 0.05, 0.05]


@pytest.fixture(scope="module")
def rig():
    graph = make_symmetric_graph()
    return graph, route_cables(graph)


def stacked_chain(*rigs):
    """One Chain of routed graphs with the same rib count, design i from rigs[i]."""
    rows = []
    for graph, _ in rigs:
        tops, spines, bottoms = tendon._guide_ids(graph)
        node = {n.id: n for n in graph.nodes}
        rows.append([[node[i].x for i in spines]]
                    + [[node[i].y for i in ids] for ids in (tops, spines, bottoms)])
    slacks = [[r.slack_length_top for _, r in rigs], [r.slack_length_bottom for _, r in rigs]]
    return Chain(*np.array(rows).transpose(1, 0, 2), *slacks)


class TestRouting:
    def test_type4_has_six_guides_per_cable(self, type4_design):
        _, graph, routing, _ = type4_design
        assert len(routing.top_guides) == 6
        assert len(routing.bottom_guides) == 6

    def test_slack_is_straight_polyline_length(self, rig):
        graph, routing = rig
        # 4 equally spaced ribs, straight horizontal cable paths
        assert routing.slack_length_top == pytest.approx(0.15, abs=1e-15)
        assert routing.slack_length_bottom == pytest.approx(0.15, abs=1e-15)

    def test_two_rib_slack_is_euclidean_distance(self):
        graph = make_symmetric_graph(n_ribs=2, spacing=0.07)
        routing = route_cables(graph)
        assert routing.slack_length_top == pytest.approx(0.07)

    def test_graph_without_strings_rejected(self, rig):
        graph, _ = rig
        bare = SkeletonGraph(graph.nodes, graph.bars, (), graph.ribs, graph.head_boundary_x)
        with pytest.raises(ValidationError, match="strings"):
            route_cables(bare)

    def test_single_rib_rejected(self):
        graph = make_symmetric_graph(n_ribs=2)
        one_rib = SkeletonGraph(
            graph.nodes[:3], graph.bars[:2], (), graph.ribs[:1], graph.head_boundary_x
        )
        with pytest.raises(ValidationError):
            route_cables(one_rib)


class TestStiffness:
    def test_uniform_thickness_uniform_stiffness(self):
        spec = SkeletonSpec(n_ribs=6, thickness_ratio=1.0)
        assert len(set(segment_stiffnesses(spec))) == 1

    def test_cubic_scaling(self):
        spec = SkeletonSpec(n_ribs=2, thickness_ratio=2.0, thickness_first=3.0)
        k = segment_stiffnesses(spec, k_ref=0.05)
        assert k[0] == pytest.approx(0.05)
        # a segment twice as thick as another is 8x stiffer
        half_spec = SkeletonSpec(n_ribs=2, thickness_ratio=1.0, thickness_first=1.5)
        k_half = 0.05 * (1.5 / 3.0) ** 3
        assert segment_stiffnesses(half_spec, k_ref=0.05)[0] / k_half == pytest.approx(8.0)

    def test_taper_3_to_1_last_segment(self):
        spec = SkeletonSpec(n_ribs=6, thickness_ratio=3.0, thickness_first=3.0)
        k = segment_stiffnesses(spec)
        assert k[-1] / k[0] == pytest.approx((1.4 / 3.0) ** 3, rel=1e-12)

    def test_segments_inherit_head_adjacent_rib(self):
        spec = SkeletonSpec(n_ribs=3, thickness_ratio=3.0, thickness_first=3.0)
        assert segment_stiffnesses(spec, k_ref=0.05) == pytest.approx([0.05, 0.05 * (2 / 3) ** 3])

    def test_two_rib_single_segment(self):
        spec = SkeletonSpec(n_ribs=2, thickness_ratio=2.0, thickness_first=2.2)
        assert segment_stiffnesses(spec, k_ref=0.05) == [0.05]

    def test_graph_recovery_matches_spec(self, type4_design):
        spec, graph, _, _ = type4_design
        assert stiffnesses_from_graph(graph) == pytest.approx(segment_stiffnesses(spec))


class TestBend:
    def test_zero_command_is_straight(self, rig):
        graph, routing = rig
        pose = bend_from_cables(graph, routing, ActuationCommand(0.0, 0.0), UNIFORM_K)
        assert pose.segment_angles == (0.0, 0.0, 0.0)
        spine_y = [p[1] for p in pose.midline]
        assert spine_y == pytest.approx([0.0] * 4, abs=1e-15)

    def test_uniform_case_bends_uniformly(self, rig):
        graph, routing = rig
        pose = bend_from_cables(graph, routing, ActuationCommand(0.01, -0.01), UNIFORM_K)
        angles = np.array(pose.segment_angles)
        assert np.ptp(angles) <= 1e-9
        assert angles[0] > 0

    def test_soft_tail_concentrates_bending(self, rig):
        graph, routing = rig
        spec = SkeletonSpec(n_ribs=4, thickness_ratio=3.0)
        k = segment_stiffnesses(spec)
        pose = bend_from_cables(graph, routing, ActuationCommand(0.01, -0.01), k)
        angles = np.array(pose.segment_angles)
        assert np.all(np.diff(angles) > 0)

    def test_constraint_satisfied_to_tolerance(self, rig):
        graph, routing = rig
        for delta in (0.003, 0.012, 0.027):
            pose = bend_from_cables(graph, routing, ActuationCommand(delta, -delta), UNIFORM_K)
            top, _ = cable_lengths(graph, routing, pose)
            assert abs(top - (routing.slack_length_top - delta)) <= 1e-9

    def test_antisymmetry(self, rig):
        graph, routing = rig
        up = bend_from_cables(graph, routing, ActuationCommand(0.011, -0.011), UNIFORM_K)
        down = bend_from_cables(graph, routing, ActuationCommand(-0.011, 0.011), UNIFORM_K)
        mirrored = np.array(up.segment_angles) + np.array(down.segment_angles)
        assert np.abs(mirrored).max() <= 1e-9

    def test_midline_inextensible(self, rig, type4_design):
        _, graph4, routing4, k4 = type4_design
        for graph, routing, k, delta in (
            (rig[0], rig[1], UNIFORM_K, 0.02),
            (graph4, routing4, k4, 0.008),
        ):
            straight = bend_from_cables(graph, routing, ActuationCommand(0.0, 0.0), k)
            bent = bend_from_cables(graph, routing, ActuationCommand(delta, -delta), k)

            def arc(midline):
                return sum(
                    math.hypot(b[0] - a[0], b[1] - a[1])
                    for a, b in zip(midline, midline[1:])
                )

            assert abs(arc(bent.midline) - arc(straight.midline)) <= 1e-9

    def test_monotone_tip_authority(self, rig):
        graph, routing = rig
        tips = []
        for delta in np.linspace(0.001, 0.028, 8):
            pose = bend_from_cables(graph, routing, ActuationCommand(float(delta), 0.0), UNIFORM_K)
            tips.append(pose.midline[-1][1])
        assert all(b > a for a, b in zip(tips, tips[1:]))

    def test_energy_beats_feasible_alternatives(self, rig):
        # any perturbed pose meeting the same cable length has more energy
        graph, routing = rig
        delta = 0.015
        pose = bend_from_cables(graph, routing, ActuationCommand(delta, -delta), UNIFORM_K)
        theta = np.array(pose.segment_angles)
        energy = 0.5 * np.sum(np.array(UNIFORM_K) * theta**2)
        spine0, seg_vec, off_top, _ = chain_arrays(graph)
        target = routing.slack_length_top - delta
        rng = np.random.default_rng(42)
        found = 0
        for _ in range(200):
            probe = theta + rng.normal(0.0, 0.05, 3)
            # restore feasibility by rescaling the third angle via bisection
            lo, hi = -0.6, 0.6
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                probe[2] = mid
                if fk_cable_length(probe, spine0, seg_vec, off_top) > target:
                    lo = mid
                else:
                    hi = mid
            if abs(fk_cable_length(probe, spine0, seg_vec, off_top) - target) > 1e-9:
                continue
            found += 1
            probe_energy = 0.5 * np.sum(np.array(UNIFORM_K) * probe**2)
            assert probe_energy >= energy - 1e-12
        assert found > 100

    def test_travel_limit_enforced(self, rig):
        graph, routing = rig
        with pytest.raises(ValidationError, match="travel limit"):
            bend_from_cables(graph, routing, ActuationCommand(0.0301, 0.0), UNIFORM_K)

    def test_geometric_limit_reported(self, rig):
        # below the travel limit but beyond what the geometry can shorten
        graph = make_symmetric_graph(half_span=0.004)
        routing = route_cables(graph)
        with pytest.raises(ComputationError, match="geometric limit"):
            bend_from_cables(graph, routing, ActuationCommand(0.02, 0.0), UNIFORM_K)

    def test_wrong_stiffness_count_rejected(self, rig):
        graph, routing = rig
        with pytest.raises(ValidationError, match="stiffnesses"):
            bend_from_cables(graph, routing, ActuationCommand(0.0, 0.0), [0.05, 0.05])


class TestTwoCableBend:
    def test_meets_both_lengths_at_a_stationary_point(self, type4_design):
        # both cables shortened: both constraints hold, and the joint torques
        # k*theta are balanced by the two cable tensions alone
        _, graph, routing, k = type4_design
        cmd = ActuationCommand(0.003, 0.001)
        pose = bend_from_cables(graph, routing, cmd, k)
        top, bottom = cable_lengths(graph, routing, pose)
        assert abs(top - (routing.slack_length_top - cmd.delta_top)) <= CONSTRAINT_TOL_M
        assert abs(bottom - (routing.slack_length_bottom - cmd.delta_bottom)) <= CONSTRAINT_TOL_M
        theta = np.asarray(pose.segment_angles)
        spine0, seg_vec, off_top, off_bot = chain_arrays(graph)
        grads = np.stack([fk_length_and_grad(theta, spine0, seg_vec, off)[1]
                          for off in (off_top, off_bot)], axis=1)
        torques = np.asarray(k) * theta
        tensions = np.linalg.lstsq(grads, torques, rcond=None)[0]
        assert np.abs(grads @ tensions - torques).max() <= 1e-9 * max(k)


class TestCertificate:
    def test_pinned_pose_is_a_certified_minimum(self, type4_design):
        _, graph, routing, k = type4_design
        chain, k = Chain.from_graph(graph, routing), np.asarray(k)
        target = np.subtract(chain.slack, (0.003, 0.001))
        theta, lam = tendon._solve_constrained(chain, k, target)
        assert lam == pytest.approx([-10.83, -5.39], abs=0.01)  # both cables pull
        tendon._certify_minimum(chain, k, theta, lam)
        pose = bend_from_cables(graph, routing, ActuationCommand(0.003, 0.001), k)
        assert np.array(pose.segment_angles).tobytes() == theta.tobytes()

    def test_pushing_cable_refused(self, type4_design):
        _, graph, routing, k = type4_design
        chain = Chain.from_graph(graph, routing)
        with pytest.raises(ComputationError, match=r"needs the bottom cable to push \(0.5 N\)"):
            tendon._certify_minimum(chain, np.asarray(k), np.zeros(chain.n_seg),
                                    np.array([-1.0, 0.5]))


class TestChainFromSpec:
    @pytest.mark.parametrize("h1h2", [(1.0, 1.0), (1.0, 2.0), (2.0, 1.0), (1.0, 8.0)])
    def test_equals_chain_of_routed_skeleton(self, fitted_curves, h1h2):
        # design i of a stacked chain is, byte for byte, the chain of spec i's
        # routed skeleton; the stack mixes h1:h2, tapers and body lengths
        upper, lower, _ = fitted_curves
        for n_ribs in range(2, 13):
            specs = [SkeletonSpec(n_ribs=n_ribs, h1_h2=hh, thickness_ratio=ratio,
                                  body_length=length)
                     for hh in (h1h2, (1.0, 1.0)) for ratio in (0.2, 1.0, 3.0)
                     for length in (0.3251, 0.5)]
            direct = Chain.from_specs(specs, upper, lower)
            assert direct.slack.shape == (2, len(specs))
            assert direct.p.shape == (2, len(specs), n_ribs - 1)
            for i, spec in enumerate(specs):
                graph = generate_skeleton(spec, upper, lower)
                routing = route_cables(graph)
                routed = Chain.from_graph(graph, routing)
                for name in ("p", "q", "c", "slack"):
                    assert getattr(direct, name)[:, i].tobytes() == getattr(routed, name).tobytes()
                for name in ("seg_vec", "spine0"):
                    assert getattr(direct, name)[i].tobytes() == getattr(routed, name).tobytes()
                slack = (routing.slack_length_top, routing.slack_length_bottom)
                assert routed.slack.tobytes() == np.array(slack).tobytes()

    def test_single_chain_has_no_design_axis(self, type4_design):
        _, graph, routing, _ = type4_design
        chain = Chain.from_graph(graph, routing)
        assert chain.slack.shape == (2,) and chain.p.shape == (2, 5)
        assert chain.spine0.shape == (6, 2)


class TestBatchedBend:
    @pytest.fixture(scope="class")
    def preset_designs(self, fitted_curves):
        upper, lower, _ = fitted_curves
        designs = []
        for spec in six_presets():
            for n_ribs in (4, 10):
                spec_n = replace(spec, n_ribs=n_ribs)
                graph = generate_skeleton(spec_n, upper, lower)
                designs.append((graph, route_cables(graph), segment_stiffnesses(spec_n), spec_n))
        return designs

    def test_matches_single_pose_solver_on_presets(self, preset_designs):
        # one period of the default waveform, both cables taut in turn
        deltas = [actuation_waveform(0.008, 1.5, j / (64 * 1.5)).delta_top for j in range(64)]
        for graph, routing, k, _ in preset_designs:
            angles, midlines = bend_antagonistic(graph, routing, deltas, k)
            assert len(angles) == len(midlines) == len(deltas)
            for delta, theta, midline in zip(deltas, angles, midlines):
                ref = bend_from_cables(graph, routing, ActuationCommand(delta, -delta), k)
                gap = np.abs(np.subtract(theta, ref.segment_angles)).max()
                assert gap <= 1e-7
                # the batched midline row against the boundary pose
                assert np.abs(midline - np.array(ref.midline)).max() <= 1e-9
                pose = TailPose(segment_angles=tuple(theta), midline=tuple(map(tuple, midline)))
                top, bottom = cable_lengths(graph, routing, pose)
                if delta > 0:
                    assert abs(top - (routing.slack_length_top - delta)) <= 1e-9
                elif delta < 0:
                    assert abs(bottom - (routing.slack_length_bottom + delta)) <= 1e-9

    def test_zero_deltas_are_straight(self, rig):
        graph, routing = rig
        angles, midlines = bend_antagonistic(graph, routing, [0.0, 0.0], UNIFORM_K)
        straight = bend_from_cables(graph, routing, ActuationCommand(0.0, 0.0), UNIFORM_K)
        assert angles.shape == (2, 3) and midlines.shape == (2, 4, 2)
        assert (angles == straight.segment_angles).all()
        assert (midlines == straight.midline).all()

    def test_empty_batch(self, rig):
        graph, routing = rig
        angles, midlines = bend_antagonistic(graph, routing, [], UNIFORM_K)
        assert angles.shape == (0, 3) and midlines.shape == (0, 4, 2)

    def test_checks_match_single_pose(self, rig):
        graph, routing = rig
        with pytest.raises(ValidationError, match="travel limit"):
            bend_antagonistic(graph, routing, [0.01, -0.0301], UNIFORM_K)
        with pytest.raises(ValidationError, match="stiffnesses"):
            bend_antagonistic(graph, routing, [0.01], [0.05, 0.05])
        with pytest.raises(ValidationError, match="finite"):
            bend_antagonistic(graph, routing, [0.01, float("nan")], UNIFORM_K)
        narrow = make_symmetric_graph(half_span=0.004)
        with pytest.raises(ComputationError, match="geometric limit"):
            bend_antagonistic(narrow, route_cables(narrow), [0.005, -0.02], UNIFORM_K)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_stiffness_refused(self, rig, bad):
        # refused before any Newton step, not after the load continuation
        graph, routing = rig
        with pytest.raises(ValidationError, match="must be positive and finite"):
            bend_antagonistic(graph, routing, [0.004, -0.004], [bad, 0.05, 0.05])
        with pytest.raises(ValidationError, match="must be positive and finite"):
            bend_from_cables(graph, routing, ActuationCommand(0.004, -0.004), [0.05, bad, 0.05])

    def test_first_short_phase_is_named(self):
        narrow = make_symmetric_graph(half_span=0.004)  # either cable >= 0.1385 m
        routing = route_cables(narrow)
        for deltas, target in (([0.001, 0.012, -0.02, 0.015], "0.138"),
                               ([0.005, -0.014, 0.02], "0.136")):
            with pytest.raises(ComputationError) as caught:
                bend_antagonistic(narrow, routing, deltas, UNIFORM_K)
            assert str(caught.value) == (
                "commanded shortening exceeds the geometric limit "
                f"(min achievable length 0.1385 m, target {target} m)"
            )

    def test_stack_equals_each_design_alone(self, preset_designs, fitted_curves):
        # a chunk of one chain per joint count, solved chain by chain and all at once
        deltas = [actuation_waveform(0.008, 1.5, j / (64 * 1.5)).delta_top for j in range(64)]
        stacks = [[d for d in preset_designs if len(d[2]) == n_seg] for n_seg in (3, 9)]
        chains = [Chain.from_specs([spec for *_, spec in stack], *fitted_curves[:2])
                  for stack in stacks]
        stiffnesses = [[k for _, _, k, _ in stack] for stack in stacks]
        apart = [bend_antagonistic_stack([chain], [k], deltas)[0]
                 for chain, k in zip(chains, stiffnesses)]
        together = bend_antagonistic_stack(chains, stiffnesses, deltas)
        for stack, (angles, midlines) in zip(stacks + stacks, apart + together):
            n_seg = len(stack[0][2])
            assert angles.shape == (6, 64, n_seg) and midlines.shape == (6, 64, n_seg + 1, 2)
            for (graph, routing, k, _), theta, midline in zip(stack, angles, midlines):
                alone = bend_antagonistic(graph, routing, deltas, k)
                assert theta.tobytes() == alone[0].tobytes()
                assert midline.tobytes() == alone[1].tobytes()

    def test_stack_checks_every_design(self, rig):
        narrow = make_symmetric_graph(half_span=0.004)
        short = make_symmetric_graph(spacing=0.01)  # slack 0.03 m: travel limit 6 mm
        chain = stacked_chain(rig, (narrow, route_cables(narrow)))
        with pytest.raises(ValidationError, match="expected 3 segment stiffnesses, got 2"):
            bend_antagonistic_stack([chain], [[[0.05, 0.05]] * 2], [0.001])
        with pytest.raises(ValidationError, match="expected 3 segment stiffnesses, got 3"):
            bend_antagonistic_stack([chain], [[UNIFORM_K]], [0.001])  # one row for two designs
        with pytest.raises(ValidationError, match="must be positive"):
            bend_antagonistic_stack([chain], [[UNIFORM_K, [0.05, -0.05, 0.05]]], [0.001])
        with pytest.raises(ComputationError, match="target 0.138 m"):
            bend_antagonistic_stack([chain], [[UNIFORM_K] * 2], [0.001, 0.012])
        with pytest.raises(ValidationError, match=r"delta_top 0.007 m exceeds .* slack 0.03 m"):
            bend_antagonistic_stack([stacked_chain(rig, (short, route_cables(short)))],
                                    [[UNIFORM_K] * 2], [0.001, 0.007])

    def test_closed_form_min_length_is_grid_minimum(self, rig, type4_design):
        _, graph4, routing4, _ = type4_design
        bound = MAX_BEND_RAD - 1e-6
        grid = np.linspace(-bound, bound, 200_001)
        for graph, routing in (rig, (graph4, routing4)):
            closed_form = Chain.from_graph(graph, routing).min_cable_lengths()
            _, seg_vec, off_top, off_bot = chain_arrays(graph)
            for closed, off in zip(closed_form, (off_top, off_bot)):
                # segment i runs from guide i to guide i+1 rotated by theta_i
                ax = seg_vec[:, 0][:, None]
                ay = (seg_vec[:, 1] + off[1:])[:, None]
                c, s = np.cos(grid), np.sin(grid)
                lengths = np.hypot(c * ax - s * ay, s * ax + c * ay - off[:-1][:, None])
                grid_min = float(np.sum(lengths.min(axis=1)))
                assert closed <= grid_min
                assert grid_min - closed <= 1e-9


def fk_length_and_grad(theta, spine0, seg_vec, guide_off_y):
    """One cable's length and its gradient in the joint angles, by forward
    kinematics of the chain; independent of ``tendon``'s formulas.

    Joint i turns guides i+1 onward about spine point i, so only the
    cable segment from guide i to guide i+1 changes length with theta_i.
    """
    phi = np.cumsum(theta)
    c, s = np.cos(phi), np.sin(phi)
    steps = np.stack([c * seg_vec[:, 0] - s * seg_vec[:, 1],
                      s * seg_vec[:, 0] + c * seg_vec[:, 1]], axis=1)
    spine = spine0[0] + np.concatenate([np.zeros((1, 2)), np.cumsum(steps, axis=0)])
    rot = np.concatenate([[0.0], phi])
    guides = spine + guide_off_y[:, None] * np.stack([-np.sin(rot), np.cos(rot)], axis=1)
    seg = np.diff(guides, axis=0)
    ell = np.hypot(seg[:, 0], seg[:, 1])
    arm = guides[1:] - spine[:-1]
    return float(ell.sum()), (seg[:, 1] * arm[:, 0] - seg[:, 0] * arm[:, 1]) / ell


def root_kkt_oracle(graph, top, target, k):
    """Minimum-energy angles with one taut cable by scipy's ``root`` on the
    KKT system, ramping the target from the slack length as the load
    continuation of the original single-pose solver did."""
    from scipy.optimize import root

    spine0, seg_vec, off_top, off_bot = chain_arrays(graph)
    off = off_top if top else off_bot
    k = np.asarray(k, dtype=float)
    n = len(k)
    slack = fk_length_and_grad(np.zeros(n), spine0, seg_vec, off)[0]

    def kkt(z, frac):
        length, grad = fk_length_and_grad(z[:n], spine0, seg_vec, off)
        return np.append(k * z[:n] - z[n] * grad, length - (slack + frac * (target - slack)))

    z, n_steps, step = np.zeros(n + 1), 4, 0
    while step < n_steps:
        frac = (step + 1) / n_steps
        sol = root(kkt, z, args=(frac,), method="hybr", tol=1e-13)
        res = kkt(sol.x, frac)
        if abs(res[n]) <= CONSTRAINT_TOL_M and np.abs(res[:n]).max() <= 1e-9 * k.max():
            z, step = sol.x, step + 1
        elif n_steps < 64:
            n_steps, step = 2 * n_steps, 2 * step
        else:
            raise ComputationError("oracle: no converged pose at this target")
    if np.any(np.abs(z[:n]) >= MAX_BEND_RAD):
        raise ComputationError("oracle: pose outside the angle range")
    return z[:n]


def pose_stream_commands(spec, routing, rng, n_per_cable):
    """Single-cable commands drawn as the benchmark's pose stream draws
    them: a stroke up to 98 % of the motor travel, the other cable paid out
    by at least its lever-arm share; the last per cable is the largest stroke."""
    travel = TRAVEL_LIMIT_FRACTION * 0.98
    slack = {"top": routing.slack_length_top, "bottom": routing.slack_length_bottom}
    h1, h2 = spec.h1_h2
    for taut, other in (("top", "bottom"), ("bottom", "top")):
        lever = 1.05 * (h2 / h1 if taut == "top" else h1 / h2)
        payout_max = travel * slack[other]
        stroke_max = min(travel * slack[taut], payout_max / lever)
        for j in range(n_per_cable):
            stroke = stroke_max if j == n_per_cable - 1 else rng.uniform(0.02, 1.0) * stroke_max
            delta = {taut: stroke, other: -rng.uniform(lever * stroke, payout_max)}
            yield ActuationCommand(delta["top"], delta["bottom"]), taut == "top"


def assert_matches_oracle(graph, routing, cmd, top, k):
    """bend_from_cables and the root oracle agree: the same angles to
    1e-7 rad with the taut cable at its length to 1e-9 m, or the same
    exception type."""
    target = (routing.slack_length_top - cmd.delta_top if top
              else routing.slack_length_bottom - cmd.delta_bottom)
    outcome = []
    for solve in (lambda: bend_from_cables(graph, routing, cmd, k).segment_angles,
                  lambda: root_kkt_oracle(graph, top, target, k)):
        try:
            outcome.append(np.asarray(solve()))
        except (ComputationError, ValidationError) as e:
            outcome.append(type(e))
    got, expected = outcome
    if isinstance(expected, type) or isinstance(got, type):
        assert got is expected
        return
    assert np.abs(got - expected).max() <= 1e-7
    spine0, seg_vec, off_top, off_bot = chain_arrays(graph)
    length = fk_length_and_grad(got, spine0, seg_vec, off_top if top else off_bot)[0]
    assert abs(length - target) <= 1e-9


class TestSinglePoseOracle:
    def test_presets_match_root_oracle(self, fitted_curves):
        upper, lower, _ = fitted_curves
        rng = random.Random("single-pose-oracle")
        for spec in six_presets():
            for n_ribs in (4, 7, 10):
                spec_n = replace(spec, n_ribs=n_ribs)
                graph = generate_skeleton(spec_n, upper, lower)
                routing = route_cables(graph)
                k = segment_stiffnesses(spec_n)
                for cmd, top in pose_stream_commands(spec_n, routing, rng, 4):
                    assert_matches_oracle(graph, routing, cmd, top, k)

    @pytest.mark.parametrize("half_span, delta", [(0.004, 0.02), (0.01, 0.0299)])
    def test_beyond_geometric_limit_fails_like_oracle(self, half_span, delta):
        graph = make_symmetric_graph(half_span=half_span)
        routing = route_cables(graph)
        for cmd, top in ((ActuationCommand(delta, 0.0), True),
                         (ActuationCommand(0.0, delta), False)):
            assert_matches_oracle(graph, routing, cmd, top, UNIFORM_K)
            with pytest.raises(ComputationError, match="geometric limit"):
                bend_from_cables(graph, routing, cmd, UNIFORM_K)

    def test_uneven_stiffness_solves_by_continuation(self, fitted_curves, monkeypatch):
        # from the straight pose, Newton cycles on the first case and settles
        # past +-pi/2 on the second; the load continuation on the same
        # Newton step solves both
        ramps = []
        continue_load = tendon._continue_load

        def counting(*args):
            ramps.append(args)
            return continue_load(*args)

        monkeypatch.setattr(tendon, "_continue_load", counting)
        upper, lower, _ = fitted_curves
        spec = SkeletonSpec(n_ribs=12, thickness_ratio=0.2)  # tail 125x stiffer
        cases = [(generate_skeleton(spec, upper, lower), segment_stiffnesses(spec), 0.98),
                 (make_symmetric_graph(half_span=0.03), [1.0, 1.0, 1e-3], 0.997)]
        for graph, k, share in cases:
            routing = route_cables(graph)
            delta = share * TRAVEL_LIMIT_FRACTION * routing.slack_length_top
            target = routing.slack_length_top - delta
            theta = _solve_one_cable(*Chain.from_graph(graph, routing).rows([0]), np.array([k]),
                                     np.array([1e-9 * max(k)]), np.array([target]))[0]
            assert np.abs(theta).max() < MAX_BEND_RAD
            assert np.abs(theta - root_kkt_oracle(graph, True, target, k)).max() <= 1e-7
            spine0, seg_vec, off_top, _ = chain_arrays(graph)
            assert abs(fk_length_and_grad(theta, spine0, seg_vec, off_top)[0] - target) <= 1e-9
            assert_matches_oracle(graph, routing, ActuationCommand(delta, 0.0), True, k)
        assert len(ramps) == 2 * len(cases)  # _solve_one_cable, then bend_from_cables

    def test_antagonistic_stroke_on_uneven_design_matches_single_poses(self, fitted_curves):
        # at a 4 cm stroke some phases of the 0.2-taper design need the
        # continuation; each row keeps its own schedule, in a batch or a stack
        upper, lower, _ = fitted_curves
        designs = []
        specs = (SkeletonSpec(n_ribs=12, thickness_ratio=0.2),
                 SkeletonSpec(n_ribs=12, h1_h2=(1.0, 8.0), thickness_ratio=0.2),
                 SkeletonSpec(n_ribs=12))
        for spec in specs:
            graph = generate_skeleton(spec, upper, lower)
            designs.append((graph, route_cables(graph), segment_stiffnesses(spec)))
        deltas = [actuation_waveform(0.04, 1.5, j / (64 * 1.5)).delta_top for j in range(64)]
        ((stacked, _),) = bend_antagonistic_stack([Chain.from_specs(specs, upper, lower)],
                                                  [[k for *_, k in designs]], deltas)
        graph, routing, k = designs[0]
        angles, _ = bend_antagonistic(graph, routing, deltas, k)
        for delta, theta in zip(deltas, angles):
            pose = bend_from_cables(graph, routing, ActuationCommand(delta, -delta), k)
            assert theta.tobytes() == np.array(pose.segment_angles).tobytes()
        for (graph, routing, k), theta in zip(designs, stacked):
            assert theta.tobytes() == bend_antagonistic(graph, routing, deltas, k)[0].tobytes()


class TestCableLengths:
    def test_straight_pose_returns_slack(self, rig):
        graph, routing = rig
        pose = bend_from_cables(graph, routing, ActuationCommand(0.0, 0.0), UNIFORM_K)
        top, bottom = cable_lengths(graph, routing, pose)
        assert top == pytest.approx(routing.slack_length_top, abs=1e-12)
        assert bottom == pytest.approx(routing.slack_length_bottom, abs=1e-12)

    def test_roundtrip_commanded_length(self, rig):
        graph, routing = rig
        delta = 0.017
        pose = bend_from_cables(graph, routing, ActuationCommand(delta, -delta), UNIFORM_K)
        top, _ = cable_lengths(graph, routing, pose)
        assert abs(top - (routing.slack_length_top - delta)) <= 1e-9

    def test_mirrored_pose_swaps_cables(self, rig):
        graph, routing = rig
        pose = bend_from_cables(graph, routing, ActuationCommand(0.013, -0.013), UNIFORM_K)
        mirrored = type(pose)(
            segment_angles=tuple(-a for a in pose.segment_angles),
            midline=tuple((x, -y) for x, y in pose.midline),
        )
        top, bottom = cable_lengths(graph, routing, pose)
        top_m, bottom_m = cable_lengths(graph, routing, mirrored)
        assert top_m == pytest.approx(bottom, abs=1e-12)
        assert bottom_m == pytest.approx(top, abs=1e-12)


class TestWaveform:
    def test_phase_origin(self):
        cmd = actuation_waveform(0.008, 1.5, 0.0)
        assert cmd.delta_top == 0.0
        assert cmd.delta_bottom == 0.0

    def test_quarter_period(self):
        amplitude, frequency = 0.008, 1.5
        cmd = actuation_waveform(amplitude, frequency, 1.0 / (4.0 * frequency))
        assert cmd.delta_top == pytest.approx(amplitude, rel=1e-12)
        assert cmd.delta_bottom == pytest.approx(-amplitude, rel=1e-12)

    def test_zero_mean_over_period(self):
        amplitude, frequency = 0.008, 1.5
        n = 256
        deltas = [
            actuation_waveform(amplitude, frequency, i / (n * frequency)).delta_top
            for i in range(n)
        ]
        assert abs(sum(deltas) / n) <= 1e-12

    def test_antagonistic_pair(self):
        cmd = actuation_waveform(0.005, 2.0, 0.0937)
        assert cmd.delta_top == -cmd.delta_bottom

    def test_invalid_arguments(self):
        with pytest.raises(ValidationError):
            actuation_waveform(-0.001, 1.0, 0.0)
        with pytest.raises(ValidationError):
            actuation_waveform(0.001, 0.0, 0.0)

    @pytest.mark.parametrize("frequency", [1e308, 3e307])
    def test_frequency_whose_angular_frequency_overflows_rejected(self, frequency):
        with pytest.raises(ValidationError) as caught:
            actuation_waveform(0.001, frequency, 0.0)
        assert str(caught.value) == f"frequency {frequency!r} Hz is too high: 2*pi*f overflows"

    @pytest.mark.parametrize(
        "args", [(float("nan"), 0.0), (0.0, float("-inf")), (0.0, 0.0, float("nan"))]
    )
    def test_non_finite_command_rejected(self, args):
        with pytest.raises(ValidationError, match="finite"):
            ActuationCommand(*args)
