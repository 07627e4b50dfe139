"""Minimal standalone SVG plots: data markers, one fitted line, envelope
curves.  No external assets, so emitted files are self-contained and easy
to check structurally (one ``class="fit"`` path, one ``class="envelope"``
path per envelope curve).
"""

from __future__ import annotations

import numpy as np

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 30, 50
_HEAT_CELLS = 96


def _transform(vals: np.ndarray, lo: float, hi: float, log: bool,
               px_lo: float, px_hi: float) -> np.ndarray:
    if log:
        vals, lo, hi = np.log10(vals), np.log10(lo), np.log10(hi)
    if hi == lo:
        hi = lo + 1.0
    return px_lo + (vals - lo) / (hi - lo) * (px_hi - px_lo)


def _ticks(lo: float, hi: float, log: bool) -> np.ndarray:
    if log:
        lo_e, hi_e = np.floor(np.log10(lo)), np.ceil(np.log10(hi))
        return 10.0 ** np.arange(lo_e, hi_e + 1)
    return np.linspace(lo, hi, 5)


def _check_positive(name: str, vals: np.ndarray):
    bad = np.flatnonzero(~(np.asarray(vals) > 0))
    if len(bad):
        i = int(bad[0])
        raise ValueError(
            f"log axis requires positive values: {name} sample {i} "
            f"is {np.asarray(vals)[i]!r}")


def emit_plot(series, envelopes, path, *, logy: bool, title: str,
              xlabel: str, ylabel: str, logx: bool = False, fit=None) -> None:
    """Write a standalone SVG.

    ``series``: (t, y) arrays drawn as circle markers.
    ``envelopes``: iterable of (label, t, y) drawn as dashed paths.
    ``fit``: optional (t, y) polyline drawn as the single fitted line.
    """
    t, y = (np.asarray(v, dtype=float) for v in series)
    if t.size == 0:
        raise ValueError("empty series")
    curves = [(str(lbl), np.asarray(ct, float), np.asarray(cy, float))
              for lbl, ct, cy in envelopes]
    if logx:
        _check_positive("series t", t)
        for lbl, ct, _ in curves:
            _check_positive(f"envelope {lbl} t", ct)
    if logy:
        _check_positive("series y", y)
        for lbl, _, cy in curves:
            _check_positive(f"envelope {lbl} y", cy)
    if fit is not None:
        ft, fy = (np.asarray(v, float) for v in fit)
        if logx:
            _check_positive("fit t", ft)
        if logy:
            _check_positive("fit y", fy)

    all_t = np.concatenate([t] + [c[1] for c in curves] +
                           ([ft] if fit is not None else []))
    all_y = np.concatenate([y] + [c[2] for c in curves] +
                           ([fy] if fit is not None else []))
    t_lo, t_hi = float(all_t.min()), float(all_t.max())
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    if not logx and t_hi > t_lo:
        pad = 0.05 * (t_hi - t_lo)
        t_lo, t_hi = t_lo - pad, t_hi + pad
    if not logy and y_hi > y_lo:
        pad = 0.05 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad
    if logx and t_hi == t_lo:
        t_lo, t_hi = t_lo / 2, t_hi * 2
    if logy and y_hi == y_lo:
        y_lo, y_hi = y_lo / 2, y_hi * 2
    if t_hi == t_lo:
        t_lo, t_hi = t_lo - 1, t_hi + 1
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1, y_hi + 1

    def xm(v):
        return _transform(np.asarray(v, float), t_lo, t_hi, logx, _ML, _W - _MR)

    def ym(v):
        return _transform(np.asarray(v, float), y_lo, y_hi, logy, _H - _MB, _MT)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W-_ML-_MR}" height="{_H-_MT-_MB}" '
        'fill="none" stroke="black" stroke-width="1"/>',
    ]
    if title:
        parts.append(f'<text x="{_W/2:.1f}" y="20" text-anchor="middle" '
                     f'font-size="14">{title}</text>')
    parts.append(f'<text x="{_W/2:.1f}" y="{_H-12}" text-anchor="middle" '
                 f'font-size="12">{xlabel}</text>')
    parts.append(f'<text x="16" y="{_H/2:.1f}" text-anchor="middle" '
                 f'font-size="12" transform="rotate(-90 16 {_H/2:.1f})">{ylabel}</text>')

    for tv in _ticks(t_lo, t_hi, logx):
        px = float(xm(tv))
        if _ML - 1 <= px <= _W - _MR + 1:
            parts.append(f'<line x1="{px:.1f}" y1="{_H-_MB}" x2="{px:.1f}" '
                         f'y2="{_H-_MB+5}" stroke="black"/>')
            parts.append(f'<text x="{px:.1f}" y="{_H-_MB+18}" text-anchor="middle" '
                         f'font-size="10">{tv:.3g}</text>')
    for tv in _ticks(y_lo, y_hi, logy):
        py = float(ym(tv))
        if _MT - 1 <= py <= _H - _MB + 1:
            parts.append(f'<line x1="{_ML-5}" y1="{py:.1f}" x2="{_ML}" '
                         f'y2="{py:.1f}" stroke="black"/>')
            parts.append(f'<text x="{_ML-8}" y="{py+3:.1f}" text-anchor="end" '
                         f'font-size="10">{tv:.3g}</text>')

    dash = ["6 3", "2 3", "8 2 2 2"]
    for i, (lbl, ct, cy) in enumerate(curves):
        pts = " L ".join(f"{a:.2f},{b:.2f}" for a, b in zip(xm(ct), ym(cy)))
        parts.append(f'<path class="envelope" d="M {pts}" '
                     f'fill="none" stroke="#c03030" stroke-width="1.5" '
                     f'stroke-dasharray="{dash[i % len(dash)]}"><title>{lbl}</title></path>')
    if fit is not None:
        pts = " L ".join(f"{a:.2f},{b:.2f}" for a, b in zip(xm(ft), ym(fy)))
        parts.append(f'<path class="fit" d="M {pts}" fill="none" '
                     'stroke="#3060c0" stroke-width="1.5"/>')
    for a, b in zip(xm(t), ym(y)):
        parts.append(f'<circle class="data" cx="{a:.2f}" cy="{b:.2f}" r="2.5" '
                     'fill="black"/>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def emit_heatmap(values: np.ndarray, path, title: str) -> None:
    """Standalone SVG heat map of a 2-D array (block-averaged down to at
    most ``_HEAT_CELLS`` per axis)."""
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 2:
        raise ValueError("heat map needs a 2-D array")
    sx = max(1, vals.shape[0] // _HEAT_CELLS)
    sy = max(1, vals.shape[1] // _HEAT_CELLS)
    nx, ny = vals.shape[0] // sx, vals.shape[1] // sy
    block = vals[: nx * sx, : ny * sy].reshape(nx, sx, ny, sy).mean(axis=(1, 3))
    lo, hi = float(block.min()), float(block.max())
    span = hi - lo if hi > lo else 1.0
    side = 480
    w, h = side / nx, side / ny
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{side}" '
        f'height="{side + 28}" viewBox="0 0 {side} {side + 28}">',
        f'<rect width="{side}" height="{side + 28}" fill="white"/>',
    ]
    if title:
        parts.append(f'<text x="{side/2:.0f}" y="18" text-anchor="middle" '
                     f'font-size="13">{title}</text>')
    for i in range(nx):
        for j in range(ny):
            z = (block[i, j] - lo) / span
            r = int(255 * z)
            b = int(255 * (1.0 - z))
            g = int(90 + 80 * z * (1 - z) * 4)
            parts.append(
                f'<rect class="cell" x="{i*w:.2f}" y="{28 + side - (j+1)*h:.2f}" '
                f'width="{w + 0.5:.2f}" height="{h + 0.5:.2f}" '
                f'fill="rgb({r},{g},{b})"/>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
