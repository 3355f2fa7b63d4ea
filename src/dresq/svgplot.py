"""Minimal deterministic SVG emission: line plots and heatmaps.

No external plotting dependency and no timestamps or random ids, so a
given dataset always serializes to the same bytes. CSV stays the
authoritative output; these figures are for eyeballing.
"""

from __future__ import annotations

import io
import math

import numpy as np

WIDTH = 720
HEIGHT = 480
MARGIN_LEFT = 72
MARGIN_RIGHT = 24
MARGIN_TOP = 24
MARGIN_BOTTOM = 56

PALETTE = ("#1f6fb2", "#d1495b", "#3e8e41", "#8d5fd3", "#c98a1c", "#4a4a4a")


def _fmt(x: float) -> str:
    return f"{x:.2f}".rstrip("0").rstrip(".")


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    for m in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= m * mag:
            step = m * mag
            break
    start = math.ceil(lo / step) * step
    out = []
    v = start
    while v <= hi + 1e-12 * step:
        out.append(round(v, 12))
        v += step
    return out


class _Canvas:
    def __init__(self, x_range, y_range, x_label, y_label, title):
        self.buf = io.StringIO()
        self.x_lo, self.x_hi = x_range
        self.y_lo, self.y_hi = y_range
        if self.x_hi <= self.x_lo:
            self.x_hi = self.x_lo + 1.0
        if self.y_hi <= self.y_lo:
            self.y_hi = self.y_lo + 1.0
        self.buf.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}">\n'
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n'
        )
        self._axes(x_label, y_label, title)

    def px(self, x: float) -> float:
        frac = (x - self.x_lo) / (self.x_hi - self.x_lo)
        return MARGIN_LEFT + frac * (WIDTH - MARGIN_LEFT - MARGIN_RIGHT)

    def py(self, y: float) -> float:
        frac = (y - self.y_lo) / (self.y_hi - self.y_lo)
        return HEIGHT - MARGIN_BOTTOM - frac * (HEIGHT - MARGIN_TOP - MARGIN_BOTTOM)

    def _axes(self, x_label, y_label, title):
        b = self.buf
        x0, x1 = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
        y0, y1 = HEIGHT - MARGIN_BOTTOM, MARGIN_TOP
        b.write(f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" '
                f'fill="none" stroke="#333" stroke-width="1"/>\n')
        for tx in _ticks(self.x_lo, self.x_hi):
            px = self.px(tx)
            b.write(f'<line x1="{px:.1f}" y1="{y0}" x2="{px:.1f}" y2="{y0 + 5}" stroke="#333"/>\n')
            b.write(f'<text x="{px:.1f}" y="{y0 + 18}" font-size="11" '
                    f'text-anchor="middle" font-family="sans-serif">{_fmt(tx)}</text>\n')
        for ty in _ticks(self.y_lo, self.y_hi):
            py = self.py(ty)
            b.write(f'<line x1="{x0 - 5}" y1="{py:.1f}" x2="{x0}" y2="{py:.1f}" stroke="#333"/>\n')
            b.write(f'<text x="{x0 - 8}" y="{py + 4:.1f}" font-size="11" '
                    f'text-anchor="end" font-family="sans-serif">{_fmt(ty)}</text>\n')
        b.write(f'<text x="{(x0 + x1) / 2:.1f}" y="{HEIGHT - 16}" font-size="13" '
                f'text-anchor="middle" font-family="sans-serif">{x_label}</text>\n')
        b.write(f'<text x="18" y="{(y0 + y1) / 2:.1f}" font-size="13" text-anchor="middle" '
                f'font-family="sans-serif" transform="rotate(-90 18 {(y0 + y1) / 2:.1f})">'
                f'{y_label}</text>\n')
        if title:
            b.write(f'<text x="{(x0 + x1) / 2:.1f}" y="16" font-size="14" '
                    f'text-anchor="middle" font-family="sans-serif">{title}</text>\n')

    def finish(self) -> str:
        self.buf.write("</svg>\n")
        return self.buf.getvalue()


def line_plot(
    x,
    series: dict[str, np.ndarray],
    x_label: str,
    y_label: str,
    title: str = "",
    markers: dict[str, float] | None = None,
) -> str:
    """Polyline plot of one or more named series over a shared x axis.

    ``markers`` draws labeled vertical reference lines.
    """
    x = np.asarray(x, dtype=float)
    all_y = np.concatenate([np.asarray(v, dtype=float).ravel() for v in series.values()])
    finite = all_y[np.isfinite(all_y)]
    y_lo, y_hi = (float(finite.min()), float(finite.max())) if finite.size else (0.0, 1.0)
    pad = 0.05 * (y_hi - y_lo or 1.0)
    cv = _Canvas((float(x.min()), float(x.max())), (y_lo - pad, y_hi + pad), x_label, y_label, title)
    for si, (name, y) in enumerate(series.items()):
        y = np.asarray(y, dtype=float)
        color = PALETTE[si % len(PALETTE)]
        pts = " ".join(
            f"{cv.px(xi):.2f},{cv.py(yi):.2f}" for xi, yi in zip(x, y) if math.isfinite(yi)
        )
        cv.buf.write(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>\n')
        cv.buf.write(
            f'<text x="{WIDTH - MARGIN_RIGHT - 6}" y="{MARGIN_TOP + 16 + 14 * si}" '
            f'font-size="11" text-anchor="end" font-family="sans-serif" '
            f'fill="{color}">{name}</text>\n'
        )
    for name, xv in (markers or {}).items():
        px = cv.px(xv)
        cv.buf.write(
            f'<line x1="{px:.2f}" y1="{MARGIN_TOP}" x2="{px:.2f}" '
            f'y2="{HEIGHT - MARGIN_BOTTOM}" stroke="#888" stroke-dasharray="4 3"/>\n'
        )
        cv.buf.write(
            f'<text x="{px + 4:.2f}" y="{MARGIN_TOP + 12}" font-size="10" '
            f'font-family="sans-serif" fill="#555">{name}</text>\n'
        )
    return cv.finish()


_HEX = np.array([f"{k:02x}" for k in range(256)], dtype=object)


def _heat_channels(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map [0, 1] to the 8-bit channels of a dark-blue to yellow ramp."""
    v = np.clip(v, 0.0, 1.0)
    r = (255 * np.minimum(1.0, 1.8 * v)).astype(int)
    # Python's float pow, not numpy's: the two differ in the last ulp of
    # some values, which can move a channel by one step
    g = (255 * np.array([c ** 1.3 for c in v.ravel().tolist()])).astype(int).reshape(v.shape)
    b = (255 * np.maximum(0.0, 0.55 - 0.55 * v) + 60 * (1 - v)).astype(int)
    return r, g, np.minimum(b, 255)


def heatmap(x, y, z, x_label: str, y_label: str, title: str = "") -> str:
    """Cell-per-pixel-block heatmap; z indexed as z[i, j] = z(x[i], y[j]).

    Both axes must be strictly ascending, or ValueError is raised. Each
    column's x and width and each row's y and height are formatted once;
    the cells are an (nx, ny, 8) array of string pieces, filled from those
    and the cells' colour channels by broadcasting, and written as one join.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    if not np.isfinite(z).all():
        raise ValueError("heatmap values must be finite")
    for name, axis in (("x", x), ("y", y)):
        if not (np.diff(axis) > 0).all():
            raise ValueError(f"heatmap {name} axis must be strictly ascending")
    z_lo, z_hi = float(z.min()), float(z.max())
    span = z_hi - z_lo or 1.0
    cv = _Canvas(
        (float(x.min()), float(x.max())), (float(y.min()), float(y.max())),
        x_label, y_label, title,
    )
    half_x = 0.5 * (x[1] - x[0]) if len(x) > 1 else 0.5
    half_y = 0.5 * (y[1] - y[0]) if len(y) > 1 else 0.5
    px0, px1 = cv.px(np.maximum(x - half_x, cv.x_lo)), cv.px(np.minimum(x + half_x, cv.x_hi))
    py1, py0 = cv.py(np.maximum(y - half_y, cv.y_lo)), cv.py(np.minimum(y + half_y, cv.y_hi))
    cols = [(f'<rect x="{a:.2f}', f"{b - a:.2f}") for a, b in zip(px0.tolist(), px1.tolist())]
    rows = [(f'" y="{a:.2f}" width="', f'" height="{b - a:.2f}" fill="#')
            for a, b in zip(py0.tolist(), py1.tolist())]
    # a cell's pieces: x and width from its column (0, 2) interleaved with
    # y and height from its row (1, 3), then its r, g, b and the close
    pieces = np.empty((len(x), len(y), 8), dtype=object)
    pieces[:, :, 0:4:2] = np.array(cols, dtype=object)[:, None]
    pieces[:, :, 1:4:2] = np.array(rows, dtype=object)[None]
    pieces[:, :, 4:7] = _HEX[np.stack(_heat_channels((z - z_lo) / span), axis=-1)]
    pieces[:, :, 7] = '"/>\n'
    cv.buf.write("".join(pieces.ravel().tolist()))
    return cv.finish()
