"""Tiny SVG emitter: heatmaps, bar reliability diagrams, histograms.

rect/line/text primitives only; every chart is also written as CSV by the
callers so nothing here is load-bearing for analysis.
"""

from __future__ import annotations

import numpy as np


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class SvgCanvas:
    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self.parts: list[str] = []

    def rect(self, x, y, w, h, fill: str, opacity: float = 1.0):
        self.parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{h:.2f}" '
            f'fill="{fill}" fill-opacity="{opacity:.3f}"/>')

    def line(self, x1, y1, x2, y2, stroke: str = "#333", width: float = 1.0,
             dash: str | None = None):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{stroke}" stroke-width="{width:.2f}"{d}/>')

    def circle(self, x, y, r, fill: str):
        self.parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r:.2f}" fill="{fill}"/>')

    def text(self, x, y, s: str, size: int = 12, anchor: str = "start"):
        self.parts.append(
            f'<text x="{x:.2f}" y="{y:.2f}" font-size="{size}" '
            f'font-family="sans-serif" text-anchor="{anchor}">{_esc(s)}</text>')

    def to_string(self) -> str:
        body = "\n".join(self.parts)
        return (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">\n'
            f'{body}\n</svg>\n')


def viridis_like(v: float) -> str:
    """Map [0, 1] to a dark-blue -> teal -> yellow ramp."""
    v = min(max(float(v), 0.0), 1.0)
    stops = [
        (0.0, (68, 1, 84)),
        (0.25, (59, 82, 139)),
        (0.5, (33, 145, 140)),
        (0.75, (94, 201, 98)),
        (1.0, (253, 231, 37)),
    ]
    for (a, ca), (b, cb) in zip(stops, stops[1:]):
        if v <= b:
            t = 0.0 if b == a else (v - a) / (b - a)
            r, g, bl = (round(x + t * (y - x)) for x, y in zip(ca, cb))
            return f"rgb({r},{g},{bl})"
    return "rgb(253,231,37)"


def heatmap_svg(values: np.ndarray, title: str, points: list | None = None,
                bounds: tuple[float, float, float, float] | None = None) -> str:
    """Grid heatmap of values in [0, 1]; values[i, j] is the cell at row i (y)
    and column j (x), row 0 at the bottom. Optional scatter overlay of
    (x, y, color) points."""
    rows, cols = values.shape
    margin, cell_px = 30, 4
    w, h = cols * cell_px, rows * cell_px
    canvas = SvgCanvas(w + 2 * margin, h + 2 * margin + 20)
    for i in range(rows):
        for j in range(cols):
            canvas.rect(margin + j * cell_px, margin + (rows - 1 - i) * cell_px,
                        cell_px, cell_px, viridis_like(values[i, j]))
    if points and bounds:
        x0, x1, y0, y1 = bounds
        for px, py, color in points:
            cx = margin + (px - x0) / (x1 - x0) * w
            cy = margin + h - (py - y0) / (y1 - y0) * h
            if margin <= cx <= margin + w and margin <= cy <= margin + h:
                canvas.circle(cx, cy, 1.6, color)
    canvas.text(margin, margin - 10, title, size=13)
    canvas.text(margin, margin + h + 16, "min=0", size=10)
    canvas.text(margin + w, margin + h + 16, "max=1", size=10, anchor="end")
    return canvas.to_string()


def reliability_svg(bins: list, title: str) -> str:
    """Accuracy-vs-confidence bars over M bins with the identity diagonal."""
    m = len(bins)
    size, margin = 300, 40
    canvas = SvgCanvas(size + 2 * margin, size + 2 * margin)
    ox, oy = margin, margin + size  # plot origin (bottom left)
    for s in bins:
        x = ox + (s.bin - 1) / m * size
        bw = size / m
        if s.count > 0:
            bh = s.acc * size
            canvas.rect(x, oy - bh, bw, bh, "#4477aa", opacity=0.8)
            canvas.rect(x, oy - s.conf * size, bw, 2, "#cc3311")
    canvas.line(ox, oy, ox + size, oy - size, stroke="#555", dash="4,3")
    canvas.line(ox, oy, ox + size, oy, stroke="#000")
    canvas.line(ox, oy, ox, oy - size, stroke="#000")
    canvas.text(ox, margin - 10, title, size=13)
    canvas.text(ox + size / 2, oy + 24, "confidence", size=11, anchor="middle")
    canvas.text(ox - 28, oy - size / 2, "acc", size=11)
    return canvas.to_string()


SERIES_COLORS = ["#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee",
                 "#aa3377", "#bbbbbb", "#000000"]


def histogram_svg(series: list[tuple[str, np.ndarray]], bins: np.ndarray,
                  title: str) -> str:
    """Overlaid step histograms of (name, counts) series on shared bin edges."""
    size, margin = 320, 45
    canvas = SvgCanvas(size + 2 * margin + 140, size + 2 * margin)
    ox, oy = margin, margin + size
    peak = max(1, max(int(cnt.max()) for _, cnt in series))
    for k, (name, cnt) in enumerate(series):
        color = SERIES_COLORS[k % len(SERIES_COLORS)]
        for j, c in enumerate(cnt):
            x = ox + (bins[j] - bins[0]) / (bins[-1] - bins[0]) * size
            wpx = (bins[j + 1] - bins[j]) / (bins[-1] - bins[0]) * size
            hpx = c / peak * size
            if c:
                canvas.rect(x, oy - hpx, wpx, hpx, color, opacity=0.45)
        canvas.rect(ox + size + 12, margin + 16 * k, 10, 10, color)
        canvas.text(ox + size + 26, margin + 16 * k + 9, name, size=10)
    canvas.line(ox, oy, ox + size, oy, stroke="#000")
    canvas.line(ox, oy, ox, oy - size, stroke="#000")
    canvas.text(ox, margin - 10, title, size=13)
    return canvas.to_string()
