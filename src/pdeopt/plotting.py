"""Minimal self-contained SVG line plots (no external renderer)."""

from __future__ import annotations

import math

import numpy as np

_PALETTE = ["#c0392b", "#2980b9", "#27ae60", "#8e44ad", "#d68910", "#16a085", "#7f8c8d"]

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 20, 34, 48


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10 ** math.floor(math.log10(raw))
    step = min(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    start = math.ceil(lo / step) * step
    out = []
    v = start
    while v <= hi + 1e-12 * abs(step):
        out.append(round(v, 12))
        v += step
    return out


def _span(v: np.ndarray) -> tuple[float, float]:
    if v.size == 0:
        return 0.0, 1.0
    lo, hi = float(v.min()), float(v.max())
    return lo, hi if hi > lo else lo + 1.0


def emit_plot(series, path, title: str = "", xlabel: str = "", ylabel: str = "") -> None:
    """Write a labeled multi-polyline SVG.

    ``series`` is a list of (label, xs, ys) with equal-length pairs.  Legend
    entries appear in input order.  Points with a non-finite coordinate (a
    diverged loss) are left out of their polyline and of the axis ranges.
    """
    if not series:
        raise ValueError("series must be non-empty")
    prepared = []
    for label, xs, ys in series:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.shape != ys.shape or xs.ndim != 1 or len(xs) == 0:
            raise ValueError(f"series {label!r}: x and y must be equal-length 1D arrays")
        finite = np.isfinite(xs) & np.isfinite(ys)
        prepared.append((str(label), xs[finite], ys[finite]))

    x_lo, x_hi = _span(np.concatenate([xs for _, xs, _ in prepared]))
    y_lo, y_hi = _span(np.concatenate([ys for _, _, ys in prepared]))
    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def sx(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * pw

    def sy(y):
        return _MT + ph - (y - y_lo) / (y_hi - y_lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_ML}" y1="{_MT + ph}" x2="{_ML + pw}" y2="{_MT + ph}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_MT + ph}" stroke="black"/>',
    ]
    for tx in _ticks(x_lo, x_hi):
        px = sx(tx)
        parts.append(f'<line x1="{px:.1f}" y1="{_MT + ph}" x2="{px:.1f}" y2="{_MT + ph + 5}" stroke="black"/>')
        parts.append(f'<text x="{px:.1f}" y="{_MT + ph + 18}" text-anchor="middle">{tx:g}</text>')
    for ty in _ticks(y_lo, y_hi):
        py = sy(ty)
        parts.append(f'<line x1="{_ML - 5}" y1="{py:.1f}" x2="{_ML}" y2="{py:.1f}" stroke="black"/>')
        parts.append(f'<text x="{_ML - 8}" y="{py + 4:.1f}" text-anchor="end">{ty:g}</text>')
    if title:
        parts.append(f'<text x="{_W / 2:.0f}" y="20" text-anchor="middle" font-size="14">{title}</text>')
    if xlabel:
        parts.append(f'<text x="{_ML + pw / 2:.0f}" y="{_H - 10}" text-anchor="middle">{xlabel}</text>')
    if ylabel:
        parts.append(f'<text x="16" y="{_MT + ph / 2:.0f}" text-anchor="middle" '
                     f'transform="rotate(-90 16 {_MT + ph / 2:.0f})">{ylabel}</text>')
    for idx, (label, xs, ys) in enumerate(prepared):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
    ly = _MT + 8
    for idx, (label, _, _) in enumerate(prepared):
        color = _PALETTE[idx % len(_PALETTE)]
        parts.append(f'<line x1="{_ML + pw - 130}" y1="{ly}" x2="{_ML + pw - 105}" y2="{ly}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{_ML + pw - 100}" y="{ly + 4}">{label}</text>')
        ly += 16
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
