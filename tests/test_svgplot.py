import base64
import math
import re
import struct
import xml.etree.ElementTree as ET
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import svg_coordinates
from dresq import svgplot
from dresq.svgplot import _Canvas, heatmap


def reference_heat_color(v):
    v = min(max(v, 0.0), 1.0)
    r = int(255 * min(1.0, 1.8 * v))
    g = int(255 * (v ** 1.3))
    b = int(255 * max(0.0, 0.55 - 0.55 * v) + 60 * (1 - v))
    return f"#{r:02x}{g:02x}{min(b, 255):02x}"


def reference_heatmap(x, y, z, x_label, y_label, title=""):
    """The cell-by-cell loop of rects whose places and colours the heatmap's
    pixels must reproduce."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    z_lo, z_hi = float(z.min()), float(z.max())
    span = z_hi - z_lo or 1.0
    # an axis of one point is drawn over the unit-wide cell around it
    cv = _Canvas(
        *[(float(a.min()), float(a.max())) if a.size > 1 else (a[0] - 0.5, a[0] + 0.5)
          for a in (x, y)],
        x_label, y_label, title,
    )
    half_x = 0.5 * (x[1] - x[0]) if len(x) > 1 else 0.5
    half_y = 0.5 * (y[1] - y[0]) if len(y) > 1 else 0.5
    for i, xi in enumerate(x):
        px0, px1 = cv.px(max(xi - half_x, cv.x_lo)), cv.px(min(xi + half_x, cv.x_hi))
        for j, yj in enumerate(y):
            py1, py0 = cv.py(max(yj - half_y, cv.y_lo)), cv.py(min(yj + half_y, cv.y_hi))
            color = reference_heat_color((z[i, j] - z_lo) / span)
            cv.buf.write(
                f'<rect x="{px0:.2f}" y="{py0:.2f}" width="{px1 - px0:.2f}" '
                f'height="{py1 - py0:.2f}" fill="{color}"/>\n'
            )
    return cv.finish()


@st.composite
def grids(draw):
    nx = draw(st.integers(1, 9))
    ny = draw(st.integers(1, 9))
    x0 = draw(st.floats(-50, 50))
    y0 = draw(st.floats(0, 3000))
    x = x0 + draw(st.floats(0.01, 10)) * np.arange(nx)
    y = y0 + draw(st.floats(0.01, 500)) * np.arange(ny)
    kind = draw(st.sampled_from(["random", "constant", "unit"]))
    if kind == "constant":
        z = np.full((nx, ny), draw(st.floats(-1, 2)))
    else:
        z = draw(arrays(float, (nx, ny), elements=st.floats(0, 1)))
        if kind == "unit":
            # both ends of the colour ramp, where the channels saturate
            z.flat[0] = 0.0
            z.flat[-1] = 1.0
    return x, y, z


RECT = re.compile(
    r'<rect x="([-\d.]+)" y="([-\d.]+)" width="([-\d.]+)" height="([-\d.]+)"'
    r'(?: fill="#([0-9a-f]{6})")?/>'
)
IMAGE = re.compile(
    r'<image xmlns:xlink="http://www.w3.org/1999/xlink" x="([-\d.]+)" y="([-\d.]+)" '
    r'width="([-\d.]+)" height="([-\d.]+)" .*xlink:href="data:image/png;base64,([^"]+)"/>'
)


def png_pixels(png):
    """The (rows, columns, 3) pixels of an 8-bit RGB PNG whose rows all use filter 0."""
    assert png[:8] == b"\x89PNG\r\n\x1a\n"
    chunks, at = {}, 8
    while at < len(png):
        (size,) = struct.unpack(">I", png[at:at + 4])
        tag, data = png[at + 4:at + 8], png[at + 8:at + 8 + size]
        assert struct.unpack(">I", png[at + 8 + size:at + 12 + size])[0] == zlib.crc32(tag + data)
        chunks[tag] = data
        at += 12 + size
    cols, rows, depth, colour, *_ = struct.unpack(">IIBBBBB", chunks[b"IHDR"])
    assert (depth, colour) == (8, 2)
    raw = np.frombuffer(zlib.decompress(chunks[b"IDAT"]), dtype=np.uint8).reshape(rows, -1)
    assert (raw[:, 0] == 0).all()
    return raw[:, 1:].reshape(rows, cols, 3)


def decoded_heatmap(svg):
    """The heatmap's clip rect, image rect and pixels (largest y on the top row)."""
    clip = re.search(r'<clipPath id="heatmap-cells">(<rect [^>]*/>)</clipPath>', svg).group(1)
    *place, data = IMAGE.search(svg).groups()
    return (tuple(map(float, RECT.match(clip).groups()[:4])), tuple(map(float, place)),
            png_pixels(base64.b64decode(data)))


def check_against_reference(x, y, z):
    """The heatmap draws each reference cell's colour in its place, and the
    rest of the figure is the reference's byte for byte."""
    svg = heatmap(x, y, z, "x", "y", "t")
    ref = reference_heatmap(x, y, z, "x", "y", "t")
    ref_cells = RECT.findall(ref)
    assert len(ref_cells) == x.size * y.size
    cells = np.array([c[:4] for c in ref_cells], dtype=float).reshape(x.size, y.size, 4)
    fills = np.array([[int(c[4][k:k + 2], 16) for k in (0, 2, 4)] for c in ref_cells])
    (cx, cy, cw, ch), (ix, iy, iw, ih), pixels = decoded_heatmap(svg)
    # cell (i, j) is pixel (ny - 1 - j, i)
    assert pixels.shape == (y.size, x.size, 3)
    assert np.array_equal(pixels[::-1].transpose(1, 0, 2).reshape(-1, 3), fills)
    # the clip is the union of the cells; each of x, y, width and height is
    # rounded to 0.01 on its own
    assert (cx, cy) == (cells[..., 0].min(), cells[..., 1].min())
    assert abs(cx + cw - (cells[..., 0] + cells[..., 2]).max()) <= 0.0101
    assert abs(cy + ch - (cells[..., 1] + cells[..., 3]).max()) <= 0.0101
    left, right = svgplot.MARGIN_LEFT, svgplot.WIDTH - svgplot.MARGIN_RIGHT
    top, bottom = svgplot.MARGIN_TOP, svgplot.HEIGHT - svgplot.MARGIN_BOTTOM
    assert min(cw, ch, iw, ih) > 0
    assert left - 0.005 <= cx and cx + cw <= right + 0.01
    assert top - 0.005 <= cy and cy + ch <= bottom + 0.01
    # the image's pixels are the size of a cell not cut by the frame
    if x.size > 2:
        assert abs(iw / x.size - cells[1, 0, 2]) <= 0.0101
    if y.size > 2:
        assert abs(ih / y.size - cells[0, 1, 3]) <= 0.0101
    # pixel i's centre is column i's centre, and row j's is row j's
    pitch_x, pitch_y = iw / x.size, ih / y.size
    centres_x = cells[:, 0, 0] + cells[:, 0, 2] / 2
    centres_y = cells[0, :, 1] + cells[0, :, 3] / 2
    inner = slice(1, -1)  # the edge cells are cut by the frame
    assert np.allclose(ix + pitch_x * (np.arange(x.size) + 0.5)[inner], centres_x[inner],
                       atol=0.02)
    assert np.allclose(iy + pitch_y * (y.size - np.arange(y.size) - 0.5)[inner],
                       centres_y[inner], atol=0.02)
    head = svg[:svg.index('<clipPath id="heatmap-cells">')]
    assert ref.startswith(head) and svg.endswith("/>\n</svg>\n")
    return svg


@settings(max_examples=150, deadline=None)
@given(grids())
def test_heatmap_pixels_match_the_reference_cells(grid):
    check_against_reference(*grid)


def test_heatmap_pixels_match_the_reference_cells_on_chevron_grid():
    rng = np.random.default_rng(7)
    x = np.linspace(-20, 20, 41)
    y = np.linspace(0, 2000, 201)
    svg = check_against_reference(x, y, rng.random((41, 201)) ** 3)
    assert len(svg) < 40_000
    ET.fromstring(svg)


def test_heatmap_image_and_clip_stay_inside_the_frame():
    # one column: its axis spans the unit-wide cell around the point, so the
    # column's image covers the frame from edge to edge and the clip is the
    # frame; along the other axis the edge cells are cut at the frame
    x, y = np.array([3.0]), np.linspace(0.0, 10.0, 11)
    (cx, cy, cw, ch), (ix, iy, iw, ih), pixels = decoded_heatmap(
        check_against_reference(x, y, np.arange(11.0)[None]))
    left, right = svgplot.MARGIN_LEFT, svgplot.WIDTH - svgplot.MARGIN_RIGHT
    top, bottom = svgplot.MARGIN_TOP, svgplot.HEIGHT - svgplot.MARGIN_BOTTOM
    assert (cx, cy, cw, ch) == (left, top, right - left, bottom - top)
    assert (ix, iw) == (left, right - left) and pixels.shape == (11, 1, 3)
    assert iy < top and iy + ih > bottom
    # one point on both axes: the one cell is the frame
    (cx, cy, cw, ch), (ix, iy, iw, ih), pixels = decoded_heatmap(
        check_against_reference(np.array([-2.0]), np.array([40.0]), np.array([[0.3]])))
    assert (cx, cy, cw, ch) == (ix, iy, iw, ih) == (left, top, right - left, bottom - top)
    assert pixels.shape == (1, 1, 3)


def test_heat_colors_use_the_float_pow_of_each_cell():
    # values where the green channel steps, 255·v^1.3 = k: numpy's SIMD
    # array power and the scalar pow disagree in the last ulp on some of
    # these (e.g. 0.5743010615247592 gives 123 against 124)
    v = np.concatenate([(np.arange(256) / 255) ** (1 / 1.3), np.linspace(0.0, 1.0, 2001)])
    expected = [reference_heat_color(a) for a in v]
    r, g, b = svgplot._heat_channels(v)
    assert [f"#{c[0]:02x}{c[1]:02x}{c[2]:02x}" for c in zip(r, g, b)] == expected


@pytest.mark.parametrize("axis", [[1.0, 0.0, -1.0], [0.0, 0.0], [0.0, math.nan]])
def test_heatmap_rejects_axes_not_strictly_ascending(axis):
    z = np.zeros((len(axis), len(axis)))
    with pytest.raises(ValueError, match="x axis must be strictly ascending"):
        heatmap(axis, np.arange(len(axis)), z, "x", "y")
    with pytest.raises(ValueError, match="y axis must be strictly ascending"):
        heatmap(np.arange(len(axis)), axis, z, "x", "y")


@pytest.mark.parametrize("axis", [[0.0, 1.0, 3.0], [0.0, 2.0, 3.0], [0.0, 1.0, 2.0 + 1e-8]])
def test_heatmap_rejects_axes_not_uniform(axis):
    # one pixel a cell cannot show cells of unequal size
    z = np.zeros((len(axis), len(axis)))
    with pytest.raises(ValueError, match="x axis must be uniform"):
        heatmap(axis, np.arange(len(axis)), z, "x", "y")
    with pytest.raises(ValueError, match="y axis must be uniform"):
        heatmap(np.arange(len(axis)), axis, z, "x", "y")


def test_heatmap_accepts_axes_uniform_to_rounding():
    # the chevron's grids, and steps that differ in their last bits or by
    # less than 1e-9 of the step
    for axis in (np.linspace(0.0, 2000.0, 201), np.linspace(-20.0, 20.0, 41),
                 2999.0 + 0.01 * np.arange(9), np.array([0.0, 1.0, 2.0 + 1e-10])):
        heatmap(axis, axis, np.zeros((axis.size, axis.size)), "x", "y")


def test_text_is_escaped():
    name = "a < b & c > d"
    for svg in (svgplot.line_plot([0.0, 1.0], {name: [0.0, 1.0]}, name, name, name,
                                  markers={name: 0.5}),
                heatmap([0.0, 1.0], [0.0, 1.0], np.eye(2), name, name, name)):
        texts = [t.text for t in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")]
        assert texts.count(name) == (5 if "polyline" in svg else 3)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_heatmap_rejects_non_finite_values(bad):
    z = np.zeros((2, 2))
    z[1, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        heatmap([0.0, 1.0], [0.0, 1.0], z, "x", "y")


def test_ticks_of_an_empty_range_are_its_one_end():
    assert svgplot._ticks(2.5, 2.5) == ([2.5], 2)
    assert svgplot._ticks(3.0, 1.0) == ([3.0], 2)


@pytest.mark.parametrize("lo, hi, step, decimals", [
    (4.4, 4.86, 0.1, 2), (4.5, 4.6, 0.02, 2), (4.5, 4.62, 0.025, 3), (4.5, 4.501, 0.00025, 5),
    (0.0, 2000.0, 500.0, 2),
])
def test_tick_labels_get_the_decimals_of_the_step_and_at_least_two(lo, hi, step, decimals):
    ticks, got = svgplot._ticks(lo, hi)
    assert got == decimals
    assert np.diff(ticks) == pytest.approx(step, rel=1e-9)


def test_tick_labels_of_a_1_mhz_wide_axis_are_distinct():
    # at two decimals every x tick of 4.5-4.501 GHz read "4.5"
    svg = svgplot.line_plot(np.linspace(4.5, 4.501, 5), {"s": np.arange(5.0)}, "x", "y")
    labels = [t.text for t in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")
              if t.get("font-size") == "11" and t.get("text-anchor") == "middle"]
    assert labels == ["4.5", "4.50025", "4.5005", "4.50075"]


def test_canvas_widens_a_flat_range_to_one_unit():
    # a flat axis would divide by its zero width when a value is placed
    cv = _Canvas((1.0, 1.0), (2.0, 2.0), "x", "y", "")
    assert (cv.x_hi, cv.y_hi) == (2.0, 3.0)
    assert cv.px(1.0) == svgplot.MARGIN_LEFT
    assert cv.py(2.0) == svgplot.HEIGHT - svgplot.MARGIN_BOTTOM


@pytest.fixture
def tick_budget(monkeypatch):
    """Fail a figure after 100 axis ticks: ``_ticks`` rounds each tick once, and a
    tick loop that never ends fills memory long before the watchdog fires."""
    ticks = []

    def counted(v, ndigits):
        ticks.append(v)
        if len(ticks) > 100:
            raise AssertionError("more than 100 axis ticks")
        return round(v, ndigits)

    monkeypatch.setattr(svgplot, "round", counted, raising=False)


@pytest.mark.usefixtures("tick_budget")
@pytest.mark.parametrize("ulps", [1, 2])
def test_ticks_of_a_span_of_ulps_are_a_few(ulps):
    # the tick step of a span of one or two ulps at 4.5 is below the float
    # spacing there, or barely above it: adding it must not loop forever
    hi = 4.5
    for _ in range(ulps):
        hi = math.nextafter(hi, 5.0)
    ticks, _ = svgplot._ticks(4.5, hi)
    assert 1 <= len(ticks) <= 3
    assert ticks[0] == 4.5


def test_canvas_widens_a_flat_range_where_one_unit_vanishes():
    # 1e17 + 1 rounds back to 1e17: the axis must still get a nonzero width
    cv = _Canvas((4.6, 4.6), (1e17, 1e17), "x", "y", "")
    assert cv.y_hi > cv.y_lo == 1e17
    assert cv.py(1e17) == svgplot.HEIGHT - svgplot.MARGIN_BOTTOM


@pytest.mark.parametrize("x, y", [
    ([4.5, math.nextafter(4.5, 5.0)], [1.0, 2.0]),
    ([4.6], [1e17]),
], ids=["x-span-of-one-ulp", "flat-y-at-1e17"])
@pytest.mark.usefixtures("tick_budget")
def test_line_plot_of_a_degenerate_axis_has_finite_coordinates(x, y):
    svg = svgplot.line_plot(np.array(x), {"s": np.array(y)}, "x", "y")
    ET.fromstring(svg)
    values = svg_coordinates(svg)
    assert values and all(math.isfinite(v) for v in values)
