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
from .formats import dump_json, load_json
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


# Rib attribute and skeleton JSON key, in the key order of the file.
_RIB_KEYS = (("x", "x"), ("y_top", "y_top"), ("y_bottom", "y_bottom"), ("y_spine", "y_spine"),
             ("thickness", "thickness_mm"))


def skeleton_to_json(graph: SkeletonGraph) -> str:
    """Serialize a skeleton graph to its interchange JSON."""
    doc = {
        "nodes": [{"id": n.id, "x": n.x, "y": n.y} for n in graph.nodes],
        "bars": [list(b) for b in graph.bars],
        "strings": [list(s) for s in graph.strings],
        "ribs": [{key: getattr(r, attr) for attr, key in _RIB_KEYS} for r in graph.ribs],
        "head_boundary_x": graph.head_boundary_x,
    }
    return dump_json(doc)


def _field(obj: dict, key: str, path: str, kind):
    """``obj[key]`` of the object at ``path``, checked by ``kind(value, its path)``."""
    if key not in obj:
        raise ValidationError(f"skeleton JSON: missing {path}.{key}")
    return kind(obj[key], f"{path}.{key}")


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"skeleton JSON: {path} must be a number, got {value!r}")
    return float(value)


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"skeleton JSON: {path} must be an integer, got {value!r}")
    return value


def _array(value, path: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"skeleton JSON: {path} must be an array")
    return value


def _objects(doc: dict, key: str) -> list[tuple[dict, str]]:
    """The objects of the array ``$.key``, each with its path."""
    items = []
    for i, item in enumerate(_field(doc, key, "$", _array)):
        path = f"$.{key}[{i}]"
        if not isinstance(item, dict):
            raise ValidationError(f"skeleton JSON: {path} must be an object")
        items.append((item, path))
    return items


def _edge_list(value, path: str) -> tuple[tuple[int, int], ...]:
    edges = []
    for i, pair in enumerate(_array(value, path)):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValidationError(f"skeleton JSON: {path}[{i}] must be a [a, b] pair")
        edges.append((_integer(pair[0], f"{path}[{i}][0]"), _integer(pair[1], f"{path}[{i}][1]")))
    return tuple(edges)


def skeleton_from_json(text: str) -> SkeletonGraph:
    """Parse the interchange JSON back into a validated skeleton graph."""
    doc = load_json(text, "skeleton JSON")
    if not isinstance(doc, dict):
        raise ValidationError("skeleton JSON: top level must be an object")
    nodes = tuple(
        Node(
            id=_field(n, "id", path, _integer),
            x=_field(n, "x", path, _number),
            y=_field(n, "y", path, _number),
        )
        for n, path in _objects(doc, "nodes")
    )
    bars = _field(doc, "bars", "$", _edge_list)
    strings = _field(doc, "strings", "$", _edge_list)
    ribs = tuple(
        Rib(**{attr: _field(r, key, path, _number) for attr, key in _RIB_KEYS})
        for r, path in _objects(doc, "ribs")
    )
    return SkeletonGraph(
        nodes=nodes,
        bars=bars,
        strings=strings,
        ribs=ribs,
        head_boundary_x=_field(doc, "head_boundary_x", "$", _number),
    )
