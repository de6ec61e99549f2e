"""Fabrication-ready 2D output of skeleton geometry.

The SVG view is a flat print layout: one user unit = 1 mm, four decimal
places everywhere so identical graphs serialize to identical bytes.
Ribs render as stroked vertical segments whose stroke width is the
member thickness (visually a filled rectangle); bars are stroked
polylines at their local member thickness; strings are thin dashed
lines; a dashed vertical marker shows the head/tail boundary. Element
order is fixed: ribs head to tail, then bars, then strings, then the
boundary marker.

The JSON form is the lossless interchange format for skeleton graphs.
It is read and written through ``formats``, so it is strict JSON both
ways; errors in the document's structure name the offending JSON path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError
from .formats import Array, Fields, dump_json, integer, load_json, number
from .skeleton import Node, Rib, SkeletonGraph

STRING_STROKE_MM = 0.3


@dataclass(frozen=True)
class SvgDocument:
    """A finished drawing: size in mm plus ordered element markup."""

    width_mm: float
    height_mm: float
    elements: tuple[str, ...]

    @property
    def text(self) -> str:
        body = "\n".join(f"  {e}" for e in self.elements)
        return (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width_mm:.4f}mm" '
            f'height="{self.height_mm:.4f}mm" '
            f'viewBox="0 0 {self.width_mm:.4f} {self.height_mm:.4f}">\n'
            f"{body}\n</svg>\n"
        )


def _rib_thickness_at(graph: SkeletonGraph, x: float) -> float:
    for rib in graph.ribs:
        if math.isclose(rib.x, x, rel_tol=0.0, abs_tol=1e-9):
            return rib.thickness
    raise ValidationError(f"no rib at x={x}; cannot determine member thickness")


def skeleton_to_svg(graph: SkeletonGraph) -> SvgDocument:
    """Render a skeleton graph to a millimeter-scale SVG document."""
    if not graph.nodes or not graph.ribs:
        raise ValidationError("cannot render an empty skeleton")
    xs = [n.x for n in graph.nodes]
    ys = [n.y for n in graph.nodes]
    x_min, y_max = min(xs), max(ys)
    width = (max(xs) - x_min) * 1000.0
    height = (y_max - min(ys)) * 1000.0

    def px(x: float) -> str:
        return f"{(x - x_min) * 1000.0:.4f}"

    def py(y: float) -> str:
        return f"{(y_max - y) * 1000.0:.4f}"

    elements: list[str] = []
    node = {n.id: n for n in graph.nodes}
    for rib in sorted(graph.ribs, key=lambda r: r.x):
        elements.append(
            f'<line class="rib" x1="{px(rib.x)}" y1="{py(rib.y_bottom)}" '
            f'x2="{px(rib.x)}" y2="{py(rib.y_top)}" stroke="black" '
            f'stroke-width="{rib.thickness:.4f}" stroke-linecap="butt"/>'
        )
    for a, b in graph.bars:
        na, nb = node[a], node[b]
        head_most = na if na.x <= nb.x else nb
        thickness = _rib_thickness_at(graph, head_most.x)
        elements.append(
            f'<line class="bar" x1="{px(na.x)}" y1="{py(na.y)}" '
            f'x2="{px(nb.x)}" y2="{py(nb.y)}" stroke="black" '
            f'stroke-width="{thickness:.4f}" stroke-linecap="round"/>'
        )
    for a, b in graph.strings:
        na, nb = node[a], node[b]
        elements.append(
            f'<line class="string" x1="{px(na.x)}" y1="{py(na.y)}" '
            f'x2="{px(nb.x)}" y2="{py(nb.y)}" stroke="red" '
            f'stroke-width="{STRING_STROKE_MM}" stroke-dasharray="2 1.5"/>'
        )
    elements.append(
        f'<line class="head-boundary" x1="{px(graph.head_boundary_x)}" y1="{py(min(ys))}" '
        f'x2="{px(graph.head_boundary_x)}" y2="{py(y_max)}" stroke="green" '
        f'stroke-width="{STRING_STROKE_MM}" stroke-dasharray="1 1"/>'
    )
    return SvgDocument(width_mm=width, height_mm=height, elements=tuple(elements))


_NODE = Fields(Node, ("id", "id", integer), ("x", "x", number), ("y", "y", number))
_RIB = Fields(Rib, ("x", "x", number), ("y_top", "y_top", number),
              ("y_bottom", "y_bottom", number), ("y_spine", "y_spine", number),
              ("thickness", "thickness_mm", number))
_EDGES = Array(Array(integer, 2))
_SKELETON = Fields(SkeletonGraph, ("nodes", "nodes", Array(_NODE)), ("bars", "bars", _EDGES),
                   ("strings", "strings", _EDGES), ("ribs", "ribs", Array(_RIB)),
                   ("head_boundary_x", "head_boundary_x", number))


def skeleton_to_json(graph: SkeletonGraph) -> str:
    """Serialize a skeleton graph to its interchange JSON."""
    return dump_json(_SKELETON.write(graph))


def skeleton_from_json(text: str) -> SkeletonGraph:
    """Parse the interchange JSON back into a validated skeleton graph."""
    return _SKELETON(load_json(text, "skeleton JSON"), "skeleton JSON: $")
