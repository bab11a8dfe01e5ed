"""Hand-rolled SVG emitters (no plotting dependency)."""

from __future__ import annotations

import numpy as np

VIEW = 600
PAD = 2.0  # data units of padding around the point extent
CLASS_COLORS = ("#d62728", "#1f77b4", "#2ca02c", "#e8c000")
RADIUS = 2.0  # scatter point radius, viewport units


def _project(pts: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    span = np.maximum(hi - lo, 1e-9)
    xy = (pts - lo) / span * VIEW
    xy[:, 1] = VIEW - xy[:, 1]  # SVG y grows downward
    return xy


def _write_frame(path, body: list[str]) -> None:
    """`body`'s elements on a white VIEW x VIEW canvas, one per line."""
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{VIEW}" height="{VIEW}" '
        f'viewBox="0 0 {VIEW} {VIEW}">',
        f'<rect width="{VIEW}" height="{VIEW}" fill="white"/>',
        *body,
        "</svg>",
    ]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def scatter_svg(path, points_by_class: dict[int, np.ndarray]) -> None:
    """Fixed 600x600 viewport scatter, one fill color per class."""
    all_pts = np.concatenate(list(points_by_class.values()))
    lo = all_pts.min(axis=0) - PAD
    hi = all_pts.max(axis=0) + PAD
    body = []
    for c in sorted(points_by_class):
        color = CLASS_COLORS[c % len(CLASS_COLORS)]
        for x, y in _project(points_by_class[c], lo, hi):
            body.append(
                f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{RADIUS}" fill="{color}" '
                f'fill-opacity="0.6"/>'
            )
    _write_frame(path, body)


def curves_svg(path, series: dict[str, list[tuple[float, float]]]) -> None:
    """Polyline chart for (x, y) series, e.g. controllability over iterations."""
    xs = [p[0] for pts in series.values() for p in pts]
    ys = [p[1] for pts in series.values() for p in pts]
    lo = np.array([min(xs), min(ys) - 0.02])
    hi = np.array([max(xs), max(ys) + 0.02])
    body = []
    for i, (name, pts) in enumerate(sorted(series.items())):
        color = CLASS_COLORS[i % len(CLASS_COLORS)]
        xy = _project(np.array(pts, dtype=float), lo, hi)
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in xy)
        body.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="2"><title>{name}</title></polyline>'
        )
    _write_frame(path, body)
