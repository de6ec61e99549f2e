import numpy as np
import pytest

from tailkit.profile import (
    excise_dorsal,
    fit_polynomial,
    interpolate_gap,
    load_reference_profile,
)
from tailkit.skeleton import Node, Rib, SkeletonGraph, generate_skeleton, six_presets
from tailkit.tendon import route_cables, segment_stiffnesses


@pytest.fixture(scope="session")
def reference_samples():
    return load_reference_profile()


@pytest.fixture(scope="session")
def pipeline_samples(reference_samples):
    return interpolate_gap(excise_dorsal(reference_samples), 20)


@pytest.fixture(scope="session")
def fitted_curves(pipeline_samples):
    upper, lower, report = fit_polynomial(pipeline_samples)
    return upper, lower, report


@pytest.fixture(scope="session")
def type4_design(fitted_curves):
    upper, lower, _ = fitted_curves
    spec = six_presets()[3]
    graph = generate_skeleton(spec, upper, lower)
    routing = route_cables(graph)
    stiffnesses = segment_stiffnesses(spec)
    return spec, graph, routing, stiffnesses


def make_symmetric_graph(n_ribs=4, spacing=0.05, half_span=0.03, head_x=0.1):
    """Hand-built rig with a horizontal spine and equal guide offsets, so
    mirror-symmetry arguments hold exactly."""
    nodes, ribs, bars, strings = [], [], [], []
    for i in range(n_ribs):
        x = head_x + i * spacing
        t, s, b = 3 * i, 3 * i + 1, 3 * i + 2
        nodes += [Node(t, x, half_span), Node(s, x, 0.0), Node(b, x, -half_span)]
        ribs.append(Rib(x=x, y_top=half_span, y_bottom=-half_span, y_spine=0.0, thickness=3.0))
        bars += [(t, s), (s, b)]
        if i > 0:
            bars.append((3 * (i - 1) + 1, s))
            strings += [(3 * (i - 1), t), (3 * (i - 1) + 2, b)]
    return SkeletonGraph(
        nodes=tuple(nodes), bars=tuple(bars), strings=tuple(strings),
        ribs=tuple(ribs), head_boundary_x=head_x,
    )


def fk_cable_length(theta, spine0, seg_vec, guide_off_y):
    """Brute-force forward kinematics of the jointed chain; independent of
    the production solver's separable length formulas.

    theta has shape (..., n_seg); returns the top-cable polyline length
    when guide_off_y > 0 (bottom when negative), shape (...).
    """
    theta = np.asarray(theta)
    n_seg = theta.shape[-1]
    phi = np.cumsum(theta, axis=-1)
    batch = theta.shape[:-1]
    px = np.empty(batch + (n_seg + 1,))
    py = np.empty(batch + (n_seg + 1,))
    px[..., 0] = spine0[0, 0]
    py[..., 0] = spine0[0, 1]
    for i in range(n_seg):
        c, s = np.cos(phi[..., i]), np.sin(phi[..., i])
        px[..., i + 1] = px[..., i] + c * seg_vec[i, 0] - s * seg_vec[i, 1]
        py[..., i + 1] = py[..., i] + s * seg_vec[i, 0] + c * seg_vec[i, 1]
    rot = np.zeros(batch + (n_seg + 1,))
    rot[..., 1:] = phi
    gx = px - np.sin(rot) * guide_off_y
    gy = py + np.cos(rot) * guide_off_y
    return np.sum(np.hypot(np.diff(gx, axis=-1), np.diff(gy, axis=-1)), axis=-1)


def oracle_bend(target_length, stiffness, spine0, seg_vec, guide_off_y,
                lo=-0.2, hi=0.45, res=1e-3, iters=40):
    """Constrained brute force for a 3-joint chain with one taut top cable.

    Grids (theta1, theta2) at ``res``, solves theta3 from the length
    constraint by bisection on the forward kinematics, and returns the
    feasible triple of least spring energy. Only the feasible cells are
    bisected; they keep their row-major order, so the first of equal
    minima is the one a search over the whole grid finds.
    """
    t1 = np.arange(lo, hi + res / 2, res)
    t2 = np.arange(lo, hi + res / 2, res)
    g1, g2 = np.meshgrid(t1, t2, indexing="ij")
    th = np.stack([g1, g2, np.full(g1.shape, lo)], axis=-1)
    f_lo = fk_cable_length(th, spine0, seg_vec, guide_off_y) - target_length
    th[..., 2] = hi
    f_hi = fk_cable_length(th, spine0, seg_vec, guide_off_y) - target_length
    feasible = (f_lo > 0) & (f_hi < 0)  # length decreases in theta3 on this range
    th = th[feasible]  # (cells, 3), row-major
    a = np.full(len(th), lo)
    b = np.full(len(th), hi)
    for _ in range(iters):
        mid = 0.5 * (a + b)
        th[:, 2] = mid
        f_mid = fk_cable_length(th, spine0, seg_vec, guide_off_y) - target_length
        go_up = f_mid > 0
        a = np.where(go_up, mid, a)
        b = np.where(go_up, b, mid)
    t3 = 0.5 * (a + b)
    energy = 0.5 * (stiffness[0] * th[:, 0]**2 + stiffness[1] * th[:, 1]**2
                    + stiffness[2] * t3**2)
    i = np.argmin(energy)
    return np.array([th[i, 0], th[i, 1], t3[i]]), float(energy[i])


def chain_arrays(graph):
    """Spine points, segment vectors and guide offsets of a graph, for the
    test-side forward kinematics."""
    ribs = sorted(graph.ribs, key=lambda r: r.x)
    spine0 = np.array([[r.x, r.y_spine] for r in ribs])
    seg_vec = np.diff(spine0, axis=0)
    off_top = np.array([r.y_top - r.y_spine for r in ribs])
    off_bot = np.array([r.y_bottom - r.y_spine for r in ribs])
    return spine0, seg_vec, off_top, off_bot
