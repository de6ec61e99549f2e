"""Parametric fish-bone skeleton generation.

A skeleton is a 2D tensegrity-style graph: rigid bars (ribs and the
segmented middle rod) plus tension-only strings (the cable paths along
the top and bottom rib tips). Ribs sit at uniform stations across the
tail region; the middle rod splits each rib at the height ratio h1:h2,
with h1 the share ABOVE the rod and h2 the share below, so h1:h2 = 1:2
puts the rod at 2/3 of the rib height (a "higher tail"). Rib thickness
tapers linearly from the head-most to the tail-most rib; each rod
segment inherits the thickness of its head-adjacent rib.

``SkeletonSpec`` refuses a degenerate design where it is built: a spine
share h2 / (h1 + h2) that rounds to 0 or 1, and a last rib thickness
thickness_first / thickness_ratio that is not finite and positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, require_finite
from .profile import PolyCurve, eval_profile

# Robot-scale defaults; the reference profile is a unit-chord shape that
# generation scales down to body_length.
DEFAULT_BODY_LENGTH_M = 0.3251
DEFAULT_HEAD_FRACTION = 0.33
DEFAULT_N_RIBS = 6
DEFAULT_THICKNESS_FIRST_MM = 3.0

# Keeps the last rib off the fluke tip, where the profile pinches shut.
TIP_MARGIN_FRACTION = 0.03


@dataclass(frozen=True)
class SkeletonSpec:
    """Tunable design parameters of one skeleton."""

    body_length: float = DEFAULT_BODY_LENGTH_M
    head_fraction: float = DEFAULT_HEAD_FRACTION
    n_ribs: int = DEFAULT_N_RIBS
    h1_h2: tuple[float, float] = (1.0, 1.0)
    thickness_first: float = DEFAULT_THICKNESS_FIRST_MM
    thickness_ratio: float = 1.0
    spine_shape: str = "straight"

    def __post_init__(self):
        require_finite("skeleton spec values", self.body_length, self.head_fraction,
                       *self.h1_h2, self.thickness_first, self.thickness_ratio)
        if self.body_length <= 0:
            raise ValidationError("body_length must be positive")
        if not 0 < self.head_fraction < 1:
            raise ValidationError("head_fraction must be in (0, 1)")
        if self.n_ribs < 2:
            raise ValidationError("need at least 2 ribs")
        h1, h2 = self.h1_h2
        if h1 <= 0 or h2 <= 0:
            raise ValidationError("h1 and h2 must be positive")
        # a share below 1 keeps each spine point at or below its top guide despite
        # rounding; h1 <= ~1e-16 * h2 rounds the share to 1
        if not 0.0 < h2 / (h1 + h2) < 1.0:
            raise ValidationError(f"h1:h2 {h1:g}:{h2:g} leaves no rib on one side of the spine "
                                  f"(spine share h2/(h1+h2) is {h2 / (h1 + h2):g})")
        if self.thickness_first <= 0:
            raise ValidationError("thickness_first must be positive")
        # ratio < 1 (thickening toward the tail) is allowed but unusual
        if self.thickness_ratio <= 0:
            raise ValidationError("thickness_ratio must be positive")
        t_last = self.thickness_first / self.thickness_ratio
        if not 0.0 < t_last < math.inf:
            raise ValidationError(f"last rib thickness thickness_first/thickness_ratio is "
                                  f"{t_last:g} mm; it must be finite and positive")
        if self.spine_shape != "straight":
            raise ValidationError(f"unsupported spine_shape {self.spine_shape!r}")

    h1 = property(lambda self: self.h1_h2[0])
    h2 = property(lambda self: self.h1_h2[1])


@dataclass(frozen=True)
class Rib:
    """One rib: a vertical rigid member spanning the body profile."""

    x: float
    y_top: float
    y_bottom: float
    y_spine: float
    thickness: float  # mm

    def __post_init__(self):
        if not self.y_bottom <= self.y_spine <= self.y_top:
            raise ValidationError("rib requires y_bottom <= y_spine <= y_top")
        if self.thickness <= 0:
            raise ValidationError("rib thickness must be positive")


@dataclass(frozen=True)
class Node:
    id: int
    x: float
    y: float


@dataclass(frozen=True)
class SkeletonGraph:
    """Realized node/bar/string/rib geometry. Lengths in meters,
    thicknesses in mm."""

    nodes: tuple[Node, ...]
    bars: tuple[tuple[int, int], ...]
    strings: tuple[tuple[int, int], ...]
    ribs: tuple[Rib, ...]
    head_boundary_x: float

    def __post_init__(self):
        ids = {n.id for n in self.nodes}
        if len(ids) != len(self.nodes):
            raise ValidationError("duplicate node ids")
        seen: set[tuple[int, int]] = set()
        for kind, edges in (("bar", self.bars), ("string", self.strings)):
            for a, b in edges:
                if a not in ids or b not in ids:
                    raise ValidationError(f"{kind} ({a}, {b}) references a missing node")
                if a == b:
                    raise ValidationError(f"{kind} ({a}, {b}) is a self-loop")
                key = (min(a, b), max(a, b))
                if key in seen:
                    raise ValidationError(f"duplicate edge ({a}, {b})")
                seen.add(key)
        for rib in self.ribs:
            if rib.x < self.head_boundary_x - 1e-12:
                raise ValidationError(
                    f"rib at x={rib.x} intrudes into the head region "
                    f"(boundary {self.head_boundary_x})"
                )


def rib_thicknesses(spec: SkeletonSpec) -> list[float]:
    """Linear taper from thickness_first down to thickness_first/ratio, mm.

    linspace keeps both endpoints exact, which downstream stiffness
    ratios rely on.
    """
    return taper_thicknesses([spec])[0].tolist()


def taper_thicknesses(specs) -> np.ndarray:
    """``rib_thicknesses`` of specs of one rib count, (designs, n_ribs), from
    one np.linspace call with array endpoints. linspace takes another branch
    for every row once one row's step is zero (an untapered design), so in a
    mix those rows get a call of their own, as each gets alone."""
    first = np.array([spec.thickness_first for spec in specs])
    last = np.array([spec.thickness_first / spec.thickness_ratio for spec in specs])
    n_ribs = specs[0].n_ribs
    flat = (last - first) / (n_ribs - 1) == 0
    if flat.all() or not flat.any():
        return np.linspace(first, last, n_ribs).T
    out = np.empty((n_ribs, len(specs)))
    for rows in (flat, ~flat):
        out[:, rows] = np.linspace(first[rows], last[rows], n_ribs)
    return out.T


def station_key(spec: SkeletonSpec) -> tuple[float, float, int]:
    """What a spec's rib stations and rib heights depend on: its body length,
    head fraction and rib count. Specs that differ only in h1:h2 or taper
    share them, and so their cables' slack lengths."""
    return spec.body_length, spec.head_fraction, spec.n_ribs


def rib_stations(specs, upper: PolyCurve, lower: PolyCurve) -> tuple[np.ndarray, ...]:
    """Each rib's x, y_top, y_spine and y_bottom in meters, head to tail, for
    specs of one rib count: (designs, n_ribs) arrays, row i from specs[i].

    Ribs sit at uniform stations from the head boundary to the tip margin;
    the curves are unit-chord shapes, so all geometry scales by the body
    length. Specs with the same body length and head fraction share their
    stations, so each curve is evaluated once per such pair.
    """
    keys = list(map(station_key, specs))
    shared = {}
    for length, head_fraction, n_ribs in dict.fromkeys(keys):
        head_x, tip_x = head_fraction * length, length * (1.0 - TIP_MARGIN_FRACTION)
        if head_x >= tip_x:
            raise ValidationError("head region reaches past the last usable profile station")
        stations = np.linspace(head_x, tip_x, n_ribs)
        y_top, y_bot = (eval_profile(curve, stations / length) * length for curve in (upper, lower))
        spans = y_top - y_bot
        if np.any(spans <= 0):
            raise ValidationError(f"rib span is not positive at x={stations[spans <= 0][0]:.4f}")
        shared[length, head_fraction, n_ribs] = stations, y_top, y_bot
    x, y_top, y_bot = (np.array(rows) for rows in zip(*map(shared.get, keys)))
    share = np.array([[spec.h2 / (spec.h1 + spec.h2)] for spec in specs])
    return x, y_top, y_bot + share * (y_top - y_bot), y_bot


def generate_skeleton(spec: SkeletonSpec, upper: PolyCurve, lower: PolyCurve) -> SkeletonGraph:
    """Place ribs on the profile (``rib_stations``) and wire up bars and
    cable-guide strings.

    Per rib there are three nodes (top guide, spine, bottom guide); bars
    form the two rib halves and the rod segments between consecutive spine
    nodes; strings chain the top guides and the bottom guides (the two
    cable paths).
    """
    stations = rib_stations([spec], upper, lower)
    ribs_at = zip(*(a[0].tolist() for a in stations), rib_thicknesses(spec))
    nodes: list[Node] = []
    ribs: list[Rib] = []
    bars: list[tuple[int, int]] = []
    strings: list[tuple[int, int]] = []
    for i, (x, y_top, y_spine, y_bot, thickness) in enumerate(ribs_at):
        top_id, spine_id, bot_id = 3 * i, 3 * i + 1, 3 * i + 2
        nodes += [Node(top_id, x, y_top), Node(spine_id, x, y_spine), Node(bot_id, x, y_bot)]
        ribs.append(Rib(x=x, y_top=y_top, y_bottom=y_bot, y_spine=y_spine, thickness=thickness))
        bars += [(top_id, spine_id), (spine_id, bot_id)]
        if i > 0:
            bars.append((3 * (i - 1) + 1, spine_id))
            strings += [(3 * (i - 1), top_id), (3 * (i - 1) + 2, bot_id)]
    return SkeletonGraph(nodes=tuple(nodes), bars=tuple(bars), strings=tuple(strings),
                         ribs=tuple(ribs), head_boundary_x=spec.head_fraction * spec.body_length)


# The six stock designs: (h1:h2, thickness ratio) per type 1..6.
PRESET_PARAMS = (
    ((1.0, 1.0), 1.0),
    ((1.0, 1.0), 2.0),
    ((1.0, 1.0), 3.0),
    ((1.0, 2.0), 1.0),
    ((1.0, 2.0), 2.0),
    ((1.0, 2.0), 3.0),
)
PRESET_NAMES = tuple(f"type{i}" for i in range(1, 7))


def six_presets() -> list[SkeletonSpec]:
    """The six stock skeleton specs (types 1-6)."""
    return [
        SkeletonSpec(h1_h2=h1h2, thickness_ratio=ratio)
        for h1h2, ratio in PRESET_PARAMS
    ]


def preset(name: str) -> SkeletonSpec:
    """Look up a stock spec by name ('type1' .. 'type6')."""
    try:
        idx = PRESET_NAMES.index(name)
    except ValueError:
        raise ValidationError(
            f"unknown preset {name!r}; expected one of {', '.join(PRESET_NAMES)}"
        ) from None
    return six_presets()[idx]


def infer_body_length(graph: SkeletonGraph) -> float:
    """Recover body length from the tail-most rib station.

    Generation places the last rib at body_length * (1 - tip margin);
    graphs from other sources are only approximately covered.
    """
    if not graph.ribs:
        raise ValidationError("graph has no ribs")
    return max(r.x for r in graph.ribs) / (1.0 - TIP_MARGIN_FRACTION)
