"""Two-cable antagonistic actuation of a fish-bone skeleton.

The tail is modeled as a serial chain: one bending joint at each rib
(except the tail-most), with the spine segment behind it rotating
rigidly. A torsional spring of stiffness k_i sits at joint i; shortening
a cable by delta forces the polyline length through that cable's guides
to slack - delta, and the tail settles into the pose that minimizes the
total elastic energy sum(1/2 * k_i * theta_i**2) subject to the taut-
cable length constraints. Cables are tension-only: a command that pays
a cable out (delta <= 0) leaves it slack and unconstraining.

The solve is quasi-static (no tail inertia) and exploits that the
polyline length decomposes into per-joint terms: the cable segment
between guides i and i+1 has length |R(theta_i) a_i - b_i| with a_i, b_i
fixed by the straight-pose geometry (``Chain``, from a routed graph or
straight from the rib stations of specs), so lengths, their derivatives
and the geometric shortening limit are closed-form. A pose with one taut
cable, whether a single command (``bend_from_cables``) or a run of
antagonistic ones solved together, as over a swimming period
(``bend_antagonistic``), comes from a bordered Newton iteration that
costs O(n_seg) per step; a batch stays as angle and midline arrays. Rows
of that iteration never mix, so a sweep builds one chain for several
designs with the same joint count, its arrays carrying a design axis, and
solves all their phases at once (``bend_antagonistic_stack``), each
getting the bits it gets alone; a row Newton fails on is solved again
under load continuation. Only a
command that shortens both cables needs a general root find with load
continuation, the only use of scipy, imported on that path alone; its
pose is refused unless it is certified a constrained minimum. Joint
stiffnesses, from a spec or from a graph's ribs, follow one cubic law in
rib thickness, which refuses a stiffness that overflows a double.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ComputationError, ValidationError, require_finite
from .formats import Fields, number
from .profile import PolyCurve
from .skeleton import SkeletonGraph, SkeletonSpec, rib_stations, spine_segment_thicknesses

DEFAULT_K_REF = 0.05  # N*m/rad at the reference (first-rib) thickness
DEFAULT_AMPLITUDE_M = 0.008
DEFAULT_FREQUENCY_HZ = 1.5

TRAVEL_LIMIT_FRACTION = 0.2
CONSTRAINT_TOL_M = 1e-9
MAX_BEND_RAD = math.pi / 2
NEWTON_MAX_ITER = 30
GUIDE_MATCH_TOL_M = 1e-6


@dataclass(frozen=True)
class CableRouting:
    """Guide node ids (head to tail) and straight-pose slack lengths."""

    top_guides: tuple[int, ...]
    bottom_guides: tuple[int, ...]
    slack_length_top: float
    slack_length_bottom: float

    def __post_init__(self):
        if len(self.top_guides) < 2 or len(self.bottom_guides) < 2:
            raise ValidationError("each cable needs at least 2 guides")
        if self.slack_length_top <= 0 or self.slack_length_bottom <= 0:
            raise ValidationError("slack lengths must be positive")


@dataclass(frozen=True)
class TailPose:
    """Joint angles and the resulting spine midline."""

    segment_angles: tuple[float, ...]
    midline: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.midline) != len(self.segment_angles) + 1:
            raise ValidationError("midline must have one more point than there are joints")
        if any(abs(a) >= MAX_BEND_RAD for a in self.segment_angles):
            raise ValidationError("joint angle beyond +-pi/2 is outside the model's validity")


@dataclass(frozen=True)
class ActuationCommand:
    """Commanded cable shortenings, + = shorter, in meters."""

    delta_top: float
    delta_bottom: float
    timestamp: float = 0.0

    def __post_init__(self):
        require_finite("actuation command", self.delta_top, self.delta_bottom, self.timestamp)

    def to_dict(self) -> dict:
        return COMMAND_FIELDS.write(self)

    @classmethod
    def from_dict(cls, d) -> "ActuationCommand":
        return COMMAND_FIELDS(d, "actuation command JSON: $")


COMMAND_FIELDS = Fields(
    ActuationCommand, ("delta_top", "delta_top_m", number),
    ("delta_bottom", "delta_bottom_m", number), ("timestamp", "timestamp_s", number))


def _guide_ids(graph: SkeletonGraph) -> tuple[list[int], list[int], list[int]]:
    """Node ids of each rib's top guide, spine point and bottom guide, ribs
    head to tail. A rib endpoint matches the node at its exact coordinates,
    or else the nearest node within ``GUIDE_MATCH_TOL_M``, so hand-edited
    coordinates still match; the node's coordinates are the geometry."""
    index = {(n.x, n.y): n.id for n in graph.nodes}
    ribs = sorted(graph.ribs, key=lambda r: r.x)
    ends = [(r.x, y) for r in ribs for y in (r.y_top, r.y_spine, r.y_bottom)]
    ids = list(map(index.get, ends))
    while None in ids:
        j = ids.index(None)
        x, y = ends[j]
        gap, ids[j] = min(((math.hypot(nx - x, ny - y), i) for (nx, ny), i in index.items()),
                          default=(math.inf, None))
        if gap > GUIDE_MATCH_TOL_M:
            raise ValidationError(
                f"rib at x={x:.4f} has no guide/spine nodes within {GUIDE_MATCH_TOL_M:g} m"
            )
    return ids[0::3], ids[1::3], ids[2::3]


def _polyline_length(x, y) -> float:
    """Length of the polyline through the points (x[i], y[i]), summed in
    order: a cable's straight-pose slack length from its guides, head to tail."""
    return float(sum(math.hypot(x1 - x0, y1 - y0)
                     for x0, x1, y0, y1 in zip(x, x[1:], y, y[1:])))


def route_cables(graph: SkeletonGraph) -> CableRouting:
    """Thread one cable through all top guides and one through all bottom
    guides; slack lengths are the straight-pose polyline lengths."""
    if len(graph.ribs) < 2:
        raise ValidationError("cable routing needs at least 2 ribs")
    if not graph.strings:
        raise ValidationError("graph has no strings to route cables along")
    tops, _, bottoms = _guide_ids(graph)
    node = {n.id: n for n in graph.nodes}
    slack_top, slack_bottom = (_polyline_length([node[i].x for i in ids], [node[i].y for i in ids])
                               for ids in (tops, bottoms))
    return CableRouting(top_guides=tuple(tops), bottom_guides=tuple(bottoms),
                        slack_length_top=slack_top, slack_length_bottom=slack_bottom)


def segment_stiffnesses(spec: SkeletonSpec, k_ref: float = DEFAULT_K_REF) -> list[float]:
    """Torsional stiffness per spine segment, cubic in member thickness.

    Beam bending stiffness scales with the cube of the in-plane width,
    so k_i = k_ref * (t_i / t_first)**3 with t_i the segment thickness.
    k_ref is a calibration constant; poses depend only on stiffness
    ratios, so its absolute value does not affect kinematics.
    """
    return _cubic_stiffnesses(spine_segment_thicknesses(spec), spec.thickness_first, k_ref)


def stiffnesses_from_graph(graph: SkeletonGraph, k_ref: float = DEFAULT_K_REF) -> list[float]:
    """Segment stiffnesses recovered from a graph's rib thicknesses."""
    ribs = sorted(graph.ribs, key=lambda r: r.x)
    if len(ribs) < 2:
        raise ValidationError("need at least 2 ribs")
    return _cubic_stiffnesses([r.thickness for r in ribs[:-1]], ribs[0].thickness, k_ref)


def _cubic_stiffnesses(thicknesses, t_first: float, k_ref: float) -> list[float]:
    """k_ref * (t / t_first)**3 per segment thickness t, in Python floats."""
    require_finite("k_ref", k_ref)
    try:
        k = [k_ref * (t / t_first) ** 3 for t in thicknesses]
        if all(map(math.isfinite, k)):
            return k
    except OverflowError:  # float ** raises where * gives inf
        pass
    raise ValidationError(f"segment stiffness overflows: ribs up to {max(thicknesses):g} mm "
                          f"thick against {t_first:g} mm at the first rib")


def _segment_terms(
    p: np.ndarray, q: np.ndarray, c: np.ndarray, theta: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Segment lengths l = sqrt(c - 2 * (p * cos + q * sin)) of ``theta`` and
    their derivatives l', l'', element by element."""
    cos, sin = np.cos(theta), np.sin(theta)
    pc = p * cos + q * sin
    ell = np.sqrt(c - 2.0 * pc)
    d1 = (p * sin - q * cos) / ell
    return ell, d1, (pc - d1**2) / ell


def _midlines(theta: np.ndarray, seg_vec: np.ndarray, origin: np.ndarray) -> np.ndarray:
    """Spine points of the poses ``theta`` (..., n_seg) of a chain whose
    straight segments are ``seg_vec`` (..., n_seg, 2) from ``origin`` (..., 2):
    (..., n_seg + 1, 2). Leading axes broadcast, so one call serves a stack
    of chains."""
    phi = np.cumsum(theta, axis=-1)
    cos, sin = np.cos(phi), np.sin(phi)
    vx, vy = seg_vec[..., 0], seg_vec[..., 1]
    pts = np.empty(theta.shape[:-1] + (theta.shape[-1] + 1, 2))
    pts[..., 0, :] = origin
    pts[..., 1:, 0] = cos * vx - sin * vy
    pts[..., 1:, 1] = sin * vx + cos * vy
    return np.cumsum(pts, axis=-2)


class Chain:
    """Straight-pose geometry of one design's joint chain, or of a stack's.

    Built from each rib's station ``x`` and heights ``y_top``, ``y_spine``
    and ``y_bottom`` (float arrays, head to tail; (designs, n_ribs) for a
    stack), with the two cables' slack lengths. Cable segment i joins guide
    i to guide i+1 and has length |R(theta_i) a_i - b_i| with a_i, b_i fixed
    by the straight pose, so

        l_i**2 = C_i - 2 * (p_i * cos(theta_i) + q_i * sin(theta_i)),

    with p = a . b and q = a x b. Row 0 of ``p``, ``q`` and ``c`` belongs
    to the top cable, row 1 to the bottom one, as in ``slack``; a stack's
    designs follow on the next axis.
    """

    def __init__(self, x, y_top, y_spine, y_bottom, slack_top, slack_bottom):
        self.slack = np.array([slack_top, slack_bottom])
        self.spine0 = np.array([x.T, y_spine.T]).T  # (..., n_ribs, 2)
        self.seg_vec = self.spine0[..., 1:, :] - self.spine0[..., :-1, :]  # (..., n_seg, 2)
        self.n_seg = self.seg_vec.shape[-2]
        # guides sit straight above/below their spine point: b_i = (0, off_i),
        # a_i = seg_vec_i + (0, off_i+1)
        off = np.array([y_top, y_bottom]) - y_spine
        ax = self.seg_vec[..., 0]
        ay = self.seg_vec[..., 1] + off[..., 1:]
        by = off[..., :-1]
        self.p = ay * by
        self.q = ax * by
        self.c = ax**2 + ay**2 + by**2

    @classmethod
    def from_graph(cls, graph: SkeletonGraph, routing: CableRouting) -> "Chain":
        """The chain of a routed graph; each rib's matched nodes are its geometry."""
        tops, spines, bottoms = _guide_ids(graph)
        if list(routing.top_guides) != tops or list(routing.bottom_guides) != bottoms:
            raise ValidationError("routing does not match this graph's guides")
        node = {n.id: n for n in graph.nodes}
        rows = [[node[i].x for i in spines]] + [[node[i].y for i in ids]
                                                for ids in (tops, spines, bottoms)]
        return cls(*np.array(rows), routing.slack_length_top, routing.slack_length_bottom)

    @classmethod
    def from_specs(cls, specs, upper: PolyCurve, lower: PolyCurve) -> "Chain":
        """The chains of specs of one rib count, stacked: design i is, bit for
        bit, the chain of ``generate_skeleton(specs[i], upper, lower)`` routed
        by ``route_cables``, straight from the rib stations."""
        x, y_top, y_spine, y_bottom = rib_stations(specs, upper, lower)
        slack = ([_polyline_length(*xy) for xy in zip(x.tolist(), y.tolist())]
                 for y in (y_top, y_bottom))
        return cls(x, y_top, y_spine, y_bottom, *slack)

    def rows(self, cable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``p``, ``q`` and ``c`` of cable row ``cable`` (0 top, 1 bottom), or
        of an array of them, one row per entry."""
        return self.p[cable], self.q[cable], self.c[cable]

    def segment_lengths(
        self, theta: np.ndarray, cable
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cable segment lengths l and their derivatives l', l'' in theta;
        ``cable`` as in ``rows``, with one row of ``theta`` per entry."""
        return _segment_terms(*self.rows(cable), theta)

    def cable_length(self, theta: np.ndarray, cable: int) -> float:
        return float(np.sum(self.segment_lengths(theta, cable)[0]))

    def min_cable_lengths(self) -> np.ndarray:
        """Geometric lower bound of each cable's length over admissible angles.

        Segment i is shortest at theta_i = atan2(q_i, p_i); on the bounded
        angle range the nearest bound takes its place.
        """
        bound = MAX_BEND_RAD - 1e-6
        theta = np.clip(np.arctan2(self.q, self.p), -bound, bound)
        return np.sum(_segment_terms(self.p, self.q, self.c, theta)[0], axis=-1)

    def pose(self, theta: np.ndarray) -> TailPose:
        """The pose of one row of joint angles ``theta`` (n_seg,)."""
        midline = tuple(map(tuple, _midlines(theta, self.seg_vec, self.spine0[0]).tolist()))
        return TailPose(segment_angles=tuple(theta.tolist()), midline=midline)


def _check_stiffnesses(chain: Chain, stiffnesses) -> np.ndarray:
    k = np.asarray(stiffnesses, dtype=float)
    if k.shape != chain.slack.shape[1:] + (chain.n_seg,):
        raise ValidationError(
            f"expected {chain.n_seg} segment stiffnesses, got {k.shape[-1] if k.ndim else 1}"
        )
    if np.any(k <= 0):
        raise ValidationError("segment stiffnesses must be positive")
    return k


def _check_travel(chain: Chain, delta_top: float, delta_bottom: float) -> None:
    # the design with the least slack of a cable passes its limit first
    least = chain.slack.reshape(2, -1).min(axis=1).tolist()
    for name, delta, slack in zip(("top", "bottom"), (delta_top, delta_bottom), least):
        if abs(delta) > TRAVEL_LIMIT_FRACTION * slack + 1e-15:
            raise ValidationError(
                f"delta_{name} {delta:.4g} m exceeds the motor travel limit "
                f"({TRAVEL_LIMIT_FRACTION:.0%} of slack {slack:.4g} m)"
            )


def _check_reachable(feasible_min: np.ndarray, target: np.ndarray) -> None:
    """Refuse the first target (in row-major order) shorter than its cable's
    geometric limit."""
    short = target < feasible_min
    if short.any():
        first = np.unravel_index(np.argmax(short), short.shape)
        raise ComputationError(
            f"commanded shortening exceeds the geometric limit "
            f"(min achievable length {feasible_min[first]:.4g} m, target {target[first]:.4g} m)"
        )


def _check_angle_range(theta: np.ndarray) -> None:
    if np.any(np.abs(theta) >= MAX_BEND_RAD):
        raise ComputationError("bend solve left the model's angle range (+-pi/2)")


def _continue_load(solve_at, z):
    """Load continuation (Nocedal & Wright, *Numerical Optimization*, 11.3):
    ``solve_at(z, frac)`` solves at load fraction ``frac`` from ``z``, or
    raises ComputationError; fractions 1/n, 2/n, ..., 1 are solved in turn,
    each from the last, and a failed step doubles n from 4, up to 64."""
    n_steps, step = 4, 0
    while step < n_steps:
        try:
            z, step = solve_at(z, (step + 1) / n_steps), step + 1
        except ComputationError:
            if n_steps == 64:
                raise
            n_steps, step = 2 * n_steps, 2 * step
    return z


def _solve_constrained(chain: Chain, k, target) -> list[np.ndarray]:
    """Angles and multipliers lambda of minimum spring energy with both
    cables taut at lengths ``target`` (a pulling cable has lambda < 0).

    A root find on the stationarity system k_i*theta_i = sum_a lambda_a *
    dL_a/dtheta_i and the two length constraints, under load continuation.
    The bordered Newton step of ``_solve_one_cable`` with a second row and
    the same continuation fails, or converges to a stationary pose that is
    not the minimum-energy one, on many commands this root find solves.
    """
    from scipy.optimize import root  # the only scipy import of the package

    n = chain.n_seg
    slacks = [chain.cable_length(np.zeros(n), cable) for cable in (0, 1)]
    stat_tol = 1e-9 * float(np.max(k))

    def kkt(z: np.ndarray, frac: float) -> np.ndarray:
        theta, lam = z[:n], z[n:]
        r = k * theta
        g = np.empty(2)
        for cable, slack in enumerate(slacks):
            ell, d1, _ = chain.segment_lengths(theta, cable)
            r -= lam[cable] * d1
            g[cable] = float(np.sum(ell)) - (slack + frac * (target[cable] - slack))
        return np.concatenate([r, g])

    def solve_at(z: np.ndarray, frac: float) -> np.ndarray:
        sol = root(kkt, z, args=(frac,), method="hybr", tol=1e-13)
        # hybr can flag "no progress" after it has already converged, so
        # accept on the actual residual rather than the status flag
        res = kkt(sol.x, frac)
        if not (np.abs(res[n:]).max() <= CONSTRAINT_TOL_M and np.abs(res[:n]).max() <= stat_tol):
            raise ComputationError(
                f"bend solve did not converge (constraint residual {np.abs(res[n:]).max():.2e} m)"
            )
        return sol.x

    return np.split(_continue_load(solve_at, np.zeros(n + 2)), [n])


def _certify_minimum(chain: Chain, k, theta, lam) -> None:
    """Refuse a two-cable pose unless no cable pushes (lambda <= 0) and the
    Hessian of the Lagrangian, diag(k - sum_a lambda_a * l_a''), is positive
    definite on the null space of the constraint Jacobian (N&W 12.5)."""
    for name, pull in zip(("top", "bottom"), lam.tolist()):
        if pull > 0:
            raise ComputationError(f"two-cable bend needs the {name} cable to push ({pull:.3g} N)")
    _, d1, d2 = chain.segment_lengths(np.stack([theta, theta]), np.arange(2))
    null = np.linalg.svd(d1)[2][2:]  # rows span the null space of the 2 x n Jacobian
    lowest = np.linalg.eigvalsh(null @ ((k - lam @ d2)[:, None] * null.T)).min(initial=np.inf)
    if not lowest > 0:
        raise ComputationError(f"two-cable bend is a saddle point, not a minimum (reduced "
                               f"Hessian eigenvalue {lowest:.3g})")


def _newton(p, q, c, k, stat_tol, target, theta, lam) -> tuple[np.ndarray, np.ndarray]:
    """Up to ``NEWTON_MAX_ITER`` steps of ``_solve_one_cable``'s iteration on
    ``theta`` and ``lam``, in place; returns the rows unconverged at the last
    check and the constraint residuals there."""
    for _ in range(NEWTON_MAX_ITER):
        ell, d1, d2 = _segment_terms(p, q, c, theta)
        r = k * theta - lam[:, None] * d1
        g = ell.sum(axis=1) - target
        active = ~((np.abs(g) <= CONSTRAINT_TOL_M) & (np.abs(r).max(axis=1) <= stat_tol))
        if not active.any():
            break
        diag = k - lam[:, None] * d2
        w = d1 / diag
        dlam = ((w * r).sum(axis=1) - g) / (w * d1).sum(axis=1)
        dtheta = (dlam[:, None] * d1 - r) / diag
        np.add(theta, dtheta, out=theta, where=active[:, None])
        np.add(lam, dlam, out=lam, where=active)
    return active, g


def _solve_one_cable(
    p: np.ndarray, q: np.ndarray, c: np.ndarray, k: np.ndarray, stat_tol: np.ndarray,
    target: np.ndarray,
) -> np.ndarray:
    """Minimum-energy angles of many poses, each with one taut cable.

    Row j pulls a cable with geometry ``p[j], q[j], c[j]`` (see ``Chain``)
    to length ``target[j]`` against joint stiffnesses ``k[j]``, and is
    stationary within ``stat_tol[j]``. Newton's method on the stationarity
    system k_i*theta_i = lambda * l_i'(theta_i) and the constraint
    sum_i l_i(theta_i) = target, from the straight pose: each length term
    depends on one angle, so the Jacobian is diagonal plus one bordering
    row and column, and a step costs O(n_seg) by the Schur complement of
    the diagonal. A row on which this cycles or settles past +-pi/2 (joint
    stiffnesses ~100x apart) is solved again alone, its target ramped from
    the slack length by ``_continue_load``, and must then end inside
    +-pi/2. Rows never mix, so the rows of several designs with the same
    joint count can share one call, each getting the bits it gets alone.
    """
    theta, lam = np.zeros(p.shape), np.zeros(len(target))
    active, _ = _newton(p, q, c, k, stat_tol, target, theta, lam)
    for j in (active | (np.abs(theta) >= MAX_BEND_RAD).any(axis=1)).nonzero()[0].tolist():
        row = [a[j : j + 1] for a in (p, q, c, k, stat_tol)]
        slack = np.sqrt(row[2] - 2.0 * row[0]).sum(axis=1)

        def solve_at(z, frac):
            theta_j, lam_j = z[0].copy(), z[1].copy()
            active, g = _newton(*row, slack + frac * (target[j] - slack), theta_j, lam_j)
            if active.any():
                raise ComputationError(f"bend solve did not converge in {NEWTON_MAX_ITER} Newton "
                                       f"steps (constraint residual {abs(g[0]):.2e} m)")
            return theta_j, lam_j

        theta[j] = _continue_load(solve_at, (np.zeros(row[0].shape), np.zeros(1)))[0][0]
        _check_angle_range(theta[j])
    return theta


def _solve_taut(feasible_min, rows, k, k_max, target: np.ndarray) -> np.ndarray:
    """``_solve_one_cable`` on ``rows`` (p, q, c), one pose per entry of
    ``target``, with the checks of every single-taut solve: targets no
    shorter than ``feasible_min``, and each row's stationarity tolerance
    scaled by its largest stiffness ``k_max``; the poses it returns lie
    inside the angle range."""
    _check_reachable(feasible_min, target)
    return _solve_one_cable(*rows, k, 1e-9 * k_max, target.ravel())


def bend_from_cables(
    graph: SkeletonGraph,
    routing: CableRouting,
    cmd: ActuationCommand,
    stiffnesses: list[float] | tuple[float, ...] | np.ndarray,
) -> TailPose:
    """Pose of minimum elastic energy under the commanded cable lengths."""
    chain = Chain.from_graph(graph, routing)
    k = _check_stiffnesses(chain, stiffnesses)
    _check_travel(chain, cmd.delta_top, cmd.delta_bottom)

    target = np.subtract(chain.slack, (cmd.delta_top, cmd.delta_bottom))
    taut = [cable for cable, delta in enumerate((cmd.delta_top, cmd.delta_bottom)) if delta > 0]
    if len(taut) == 2:
        _check_reachable(chain.min_cable_lengths(), target)
        theta, lam = _solve_constrained(chain, k, target)
        _check_angle_range(theta)
        _certify_minimum(chain, k, theta, lam)
    elif taut:
        theta = _solve_taut(chain.min_cable_lengths()[taut], chain.rows(taut), k[None],
                            k.max(keepdims=True), target[taut])[0]
    else:
        theta = np.zeros(chain.n_seg)
    return chain.pose(theta)


def bend_antagonistic(
    graph: SkeletonGraph,
    routing: CableRouting,
    deltas: list[float] | tuple[float, ...] | np.ndarray,
    stiffnesses: list[float] | tuple[float, ...] | np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Poses for many antagonistic commands at once, one per entry of ``deltas``.

    Entry d commands ``ActuationCommand(d, -d)``: the top cable shortens by
    d and the bottom one pays out, or the reverse when d < 0, so at most
    one cable is taut. Returns float arrays of the joint angles (n, n_seg)
    and midlines (n, n_seg + 1, 2), all solved together; row j is the pose
    ``bend_from_cables`` returns for command j, to solver tolerance.
    """
    return bend_antagonistic_stack(Chain.from_graph(graph, routing), stiffnesses, deltas)


def bend_antagonistic_stack(
    chain: Chain, stiffnesses, deltas: list[float] | tuple[float, ...] | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``bend_antagonistic`` for each design of a stacked ``chain`` under the
    same commands, with ``stiffnesses`` (designs, n_seg).

    Each check of the one-design call runs once over the stack, which raises
    whenever a design alone would; then all taut phases go through one
    Newton solve. Returns angles (designs, n, n_seg) and midlines (designs,
    n, n_seg + 1, 2), with no designs axis for a graph's chain; entry i
    equals, bit for bit, what ``bend_antagonistic`` returns for design i alone.
    """
    k = _check_stiffnesses(chain, stiffnesses)
    d = np.asarray(deltas, dtype=float)
    if d.ndim != 1 or not np.all(np.isfinite(d)):
        raise ValidationError("antagonistic deltas must be a sequence of finite numbers")
    if d.size:
        worst = float(d[np.argmax(np.abs(d))])
        _check_travel(chain, worst, -worst)

    n = chain.n_seg
    theta = np.zeros(k.shape[:-1] + (d.size, n))
    taut = d != 0.0
    if taut.any():
        cable = np.where(d[taut] > 0, 0, 1)
        # the rows of chain.rows(cable), and so all below, are phase-major
        target = (chain.slack[cable].T - np.abs(d[taut])).T  # (taut phases, designs)
        rows = [r.reshape(-1, n) for r in chain.rows(cable)]
        k_rows = np.repeat(k[None], cable.size, axis=0).reshape(-1, n)
        k_max = np.repeat(k.max(axis=-1)[None], cable.size, axis=0).ravel()
        solved = _solve_taut(chain.min_cable_lengths()[cable], rows, k_rows, k_max, target)
        theta[..., taut, :] = solved.reshape(target.shape + (n,)).swapaxes(0, -2)
    return theta, _midlines(theta, chain.seg_vec[..., None, :, :], chain.spine0[..., None, 0, :])


def cable_lengths(
    graph: SkeletonGraph, routing: CableRouting, pose: TailPose
) -> tuple[float, float]:
    """Polyline cable lengths through the displaced guides of a pose."""
    chain = Chain.from_graph(graph, routing)
    theta = np.asarray(pose.segment_angles, dtype=float)
    if theta.shape != (chain.n_seg,):
        raise ValidationError(f"pose has {len(theta)} angles, graph needs {chain.n_seg}")
    return chain.cable_length(theta, 0), chain.cable_length(theta, 1)


def check_actuation(amplitude: float, frequency: float) -> tuple[float, float]:
    """(amplitude, frequency), if finite with frequency > 0 and amplitude >= 0."""
    if not (math.isfinite(frequency) and frequency > 0):
        raise ValidationError("frequency must be finite and positive")
    if not (math.isfinite(amplitude) and amplitude >= 0):
        raise ValidationError("amplitude must be finite and nonnegative")
    return amplitude, frequency


def waveform_delta(amplitude: float, frequency: float, t: float) -> float:
    """Top-cable shortening of the antagonistic sinusoid at time ``t``;
    the caller checks the amplitude and frequency (``check_actuation``)."""
    return amplitude * math.sin(2.0 * math.pi * frequency * t)


def actuation_waveform(amplitude: float, frequency: float, t: float) -> ActuationCommand:
    """Antagonistic sinusoid: top shortens as the bottom pays out."""
    check_actuation(amplitude, frequency)
    delta = waveform_delta(amplitude, frequency, t)
    return ActuationCommand(delta_top=delta, delta_bottom=-delta, timestamp=t)
