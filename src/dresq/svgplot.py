"""Minimal deterministic SVG emission: line plots and heatmaps.

No external plotting dependency and no timestamps or random ids, so a
given dataset always serializes to the same bytes on every machine. Line
plots are vector graphics; a heatmap's cells are raster, one embedded PNG
with a pixel per cell, whose stored (uncompressed) deflate blocks are
written here. CSV stays the authoritative output; these figures are for
eyeballing.
"""

from __future__ import annotations

import binascii
import io
import math
import struct
import zlib

import numpy as np

WIDTH = 720
HEIGHT = 480
MARGIN_LEFT = 72
MARGIN_RIGHT = 24
MARGIN_TOP = 24
MARGIN_BOTTOM = 56

PALETTE = ("#1f6fb2", "#d1495b", "#3e8e41", "#8d5fd3", "#c98a1c", "#4a4a4a")


def _text(s: str) -> str:
    """``s`` as SVG character data, with ``&``, ``<`` and ``>`` escaped."""
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


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
        if v + step == v:  # a step below the spacing of floats at v
            break
        v += step
    return out


class _Canvas:
    def __init__(self, x_range, y_range, x_label, y_label, title):
        self.buf = io.StringIO()
        self.x_lo, self.x_hi = x_range
        self.y_lo, self.y_hi = y_range
        # a flat axis is widened by 1, or by enough to leave |lo|'s float
        # spacing where 1 would vanish in it
        if self.x_hi <= self.x_lo:
            self.x_hi = self.x_lo + max(1.0, abs(self.x_lo) * 2**-40)
        if self.y_hi <= self.y_lo:
            self.y_hi = self.y_lo + max(1.0, abs(self.y_lo) * 2**-40)
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
                f'text-anchor="middle" font-family="sans-serif">{_text(x_label)}</text>\n')
        b.write(f'<text x="18" y="{(y0 + y1) / 2:.1f}" font-size="13" text-anchor="middle" '
                f'font-family="sans-serif" transform="rotate(-90 18 {(y0 + y1) / 2:.1f})">'
                f'{_text(y_label)}</text>\n')
        if title:
            b.write(f'<text x="{(x0 + x1) / 2:.1f}" y="16" font-size="14" '
                    f'text-anchor="middle" font-family="sans-serif">{_text(title)}</text>\n')

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
    # points are mapped as Python floats: the same text as numpy scalars, faster
    xs = x.tolist()
    for si, (name, y) in enumerate(series.items()):
        y = np.asarray(y, dtype=float).tolist()
        color = PALETTE[si % len(PALETTE)]
        pts = " ".join(
            f"{cv.px(xi):.2f},{cv.py(yi):.2f}" for xi, yi in zip(xs, y) if math.isfinite(yi)
        )
        cv.buf.write(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>\n')
        cv.buf.write(
            f'<text x="{WIDTH - MARGIN_RIGHT - 6}" y="{MARGIN_TOP + 16 + 14 * si}" '
            f'font-size="11" text-anchor="end" font-family="sans-serif" '
            f'fill="{color}">{_text(name)}</text>\n'
        )
    for name, xv in (markers or {}).items():
        px = cv.px(xv)
        cv.buf.write(
            f'<line x1="{px:.2f}" y1="{MARGIN_TOP}" x2="{px:.2f}" '
            f'y2="{HEIGHT - MARGIN_BOTTOM}" stroke="#888" stroke-dasharray="4 3"/>\n'
        )
        cv.buf.write(
            f'<text x="{px + 4:.2f}" y="{MARGIN_TOP + 12}" font-size="10" '
            f'font-family="sans-serif" fill="#555">{_text(name)}</text>\n'
        )
    return cv.finish()


def _heat_channels(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map [0, 1] to the 8-bit channels of a dark-blue to yellow ramp."""
    v = np.clip(v, 0.0, 1.0)
    r = (255 * np.minimum(1.0, 1.8 * v)).astype(int)
    # green is Python's float pow, not numpy's: the two differ in the last
    # ulp of some values, which moves a channel by one step only where
    # 255·v^1.3 sits at an integer, so numpy's power is recomputed there
    g = 255 * np.power(v, 1.3)
    near = np.flatnonzero(np.abs(g - np.rint(g)) <= 1e-9)
    g.flat[near] = [255 * c ** 1.3 for c in v.flat[near].tolist()]
    b = (255 * np.maximum(0.0, 0.55 - 0.55 * v) + 60 * (1 - v)).astype(int)
    return r, g.astype(int), np.minimum(b, 255)


def _png(rgb: np.ndarray) -> bytes:
    """An (rows, columns, 3) uint8 array as an 8-bit RGB PNG.

    The image data is zlib-wrapped stored deflate blocks, written here
    rather than by a compressor, so its bytes depend on no zlib version or
    buffer size; each row opens with filter byte 0.
    """
    rows, cols = rgb.shape[:2]
    raw = np.zeros((rows, 1 + 3 * cols), dtype=np.uint8)
    raw[:, 1:] = rgb.reshape(rows, -1)
    raw = raw.tobytes()
    blocks = [b"\x78\x01"]
    for at in range(0, len(raw), 0xFFFF):
        block = raw[at:at + 0xFFFF]
        blocks.append(struct.pack("<BHH", at + 0xFFFF >= len(raw), len(block), 0xFFFF ^ len(block)))
        blocks.append(block)
    blocks.append(struct.pack(">I", zlib.adler32(raw)))

    def chunk(tag: bytes, data: bytes) -> bytes:
        return struct.pack(">I", len(data)) + tag + data + struct.pack(">I", zlib.crc32(tag + data))

    return (b"\x89PNG\r\n\x1a\n"
            + chunk(b"IHDR", struct.pack(">IIBBBBB", cols, rows, 8, 2, 0, 0, 0))
            + chunk(b"IDAT", b"".join(blocks)) + chunk(b"IEND", b""))


def _cell_range(axis: np.ndarray) -> tuple[float, float]:
    """The plotted range of a heatmap axis: its first to last point, or for a
    single point the unit-wide cell around it."""
    if axis.size == 1:
        return float(axis[0]) - 0.5, float(axis[0]) + 0.5
    return float(axis.min()), float(axis.max())


def heatmap(x, y, z, x_label: str, y_label: str, title: str = "") -> str:
    """Heatmap of z[i, j] = z(x[i], y[j]) as one embedded raster image.

    Both axes must be strictly ascending and uniform to rounding (steps
    within 1e-9 of the first), or ValueError is raised: one pixel per cell
    cannot show unequal cells. The cells are an nx × ny RGB PNG, largest y
    on top, stretched over the cells' extent and clipped to the plot frame.
    The frame spans an axis from its first to its last point, or over the
    unit-wide cell around its one point, so every cell keeps its place and
    colour and the cells fill the frame. The PNG holds stored deflate
    blocks, so the figure has the same bytes on every machine.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    if not np.isfinite(z).all():
        raise ValueError("heatmap values must be finite")
    for name, axis in (("x", x), ("y", y)):
        step = np.diff(axis)
        if not (step > 0).all():
            raise ValueError(f"heatmap {name} axis must be strictly ascending")
        if (np.abs(step - step[:1]) > 1e-9 * step[:1]).any():
            raise ValueError(f"heatmap {name} axis must be uniform")
    z_lo, z_hi = float(z.min()), float(z.max())
    span = z_hi - z_lo or 1.0
    cv = _Canvas(_cell_range(x), _cell_range(y), x_label, y_label, title)
    half_x = 0.5 * (x[1] - x[0]) if len(x) > 1 else 0.5
    half_y = 0.5 * (y[1] - y[0]) if len(y) > 1 else 0.5
    rgb = np.stack(_heat_channels((z - z_lo) / span), axis=-1).astype(np.uint8)
    png = binascii.b2a_base64(_png(rgb.transpose(1, 0, 2)[::-1]), newline=False).decode()
    # the image spans every cell whole; the clip keeps the part of each
    # edge cell inside the frame
    left, right = cv.px(x[0] - half_x), cv.px(x[-1] + half_x)
    top, bottom = cv.py(y[-1] + half_y), cv.py(y[0] - half_y)
    cv.buf.write(
        f'<clipPath id="heatmap-cells"><rect x="{MARGIN_LEFT:.2f}" y="{MARGIN_TOP:.2f}" '
        f'width="{WIDTH - MARGIN_LEFT - MARGIN_RIGHT:.2f}" '
        f'height="{HEIGHT - MARGIN_TOP - MARGIN_BOTTOM:.2f}"/></clipPath>\n'
        f'<image xmlns:xlink="http://www.w3.org/1999/xlink" x="{left:.2f}" y="{top:.2f}" '
        f'width="{right - left:.2f}" height="{bottom - top:.2f}" preserveAspectRatio="none" '
        f'style="image-rendering:pixelated" clip-path="url(#heatmap-cells)" '
        f'xlink:href="data:image/png;base64,{png}"/>\n'
    )
    return cv.finish()
