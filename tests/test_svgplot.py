import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from dresq import svgplot
from dresq.svgplot import _Canvas, heatmap


def reference_heat_color(v):
    v = min(max(v, 0.0), 1.0)
    r = int(255 * min(1.0, 1.8 * v))
    g = int(255 * (v ** 1.3))
    b = int(255 * max(0.0, 0.55 - 0.55 * v) + 60 * (1 - v))
    return f"#{r:02x}{g:02x}{min(b, 255):02x}"


def reference_heatmap(x, y, z, x_label, y_label, title=""):
    """The cell-by-cell loop the heatmap must reproduce byte for byte."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    z_lo, z_hi = float(z.min()), float(z.max())
    span = z_hi - z_lo or 1.0
    cv = _Canvas(
        (float(x.min()), float(x.max())), (float(y.min()), float(y.max())),
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


@settings(max_examples=150, deadline=None)
@given(grids())
def test_heatmap_matches_cell_loop(grid):
    x, y, z = grid
    assert heatmap(x, y, z, "x", "y", "t") == reference_heatmap(x, y, z, "x", "y", "t")


def test_heatmap_matches_cell_loop_on_chevron_grid():
    rng = np.random.default_rng(7)
    x = np.linspace(-20, 20, 41)
    y = np.linspace(0, 2000, 201)
    z = rng.random((41, 201)) ** 3
    assert heatmap(x, y, z, "d", "t") == reference_heatmap(x, y, z, "d", "t")


def test_heat_colors_use_the_float_pow_of_each_cell():
    # values where the green channel steps, 255·v^1.3 = k: numpy's SIMD
    # array power and the scalar pow disagree in the last ulp on some of
    # these (e.g. 0.5743010615247592 gives 123 against 124)
    v = np.concatenate([(np.arange(256) / 255) ** (1 / 1.3), np.linspace(0.0, 1.0, 2001)])
    expected = [reference_heat_color(a) for a in v]
    r, g, b = svgplot._heat_channels(v)
    assert [f"#{c[0]:02x}{c[1]:02x}{c[2]:02x}" for c in zip(r, g, b)] == expected


CELL = re.compile(
    r'<rect x="([-\d.]+)" y="([-\d.]+)" width="([-\d.]+)" height="([-\d.]+)" fill="#[0-9a-f]{6}"/>'
)


@settings(max_examples=150, deadline=None)
@given(grids())
def test_heatmap_cells_have_positive_size_inside_the_frame(grid):
    x, y, z = grid
    cells = [tuple(map(float, m)) for m in CELL.findall(heatmap(x, y, z, "x", "y"))]
    assert len(cells) == x.size * y.size
    left, right = svgplot.MARGIN_LEFT, svgplot.WIDTH - svgplot.MARGIN_RIGHT
    top, bottom = svgplot.MARGIN_TOP, svgplot.HEIGHT - svgplot.MARGIN_BOTTOM
    # each of x, y, width and height is rounded to 0.01 on its own
    for px, py, w, h in cells:
        assert w > 0 and h > 0
        assert left - 0.005 <= px and px + w <= right + 0.01
        assert top - 0.005 <= py and py + h <= bottom + 0.01


@pytest.mark.parametrize("axis", [[1.0, 0.0, -1.0], [0.0, 0.0], [0.0, math.nan]])
def test_heatmap_rejects_axes_not_strictly_ascending(axis):
    z = np.zeros((len(axis), len(axis)))
    with pytest.raises(ValueError, match="x axis must be strictly ascending"):
        heatmap(axis, np.arange(len(axis)), z, "x", "y")
    with pytest.raises(ValueError, match="y axis must be strictly ascending"):
        heatmap(np.arange(len(axis)), axis, z, "x", "y")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_heatmap_rejects_non_finite_values(bad):
    z = np.zeros((2, 2))
    z[1, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        heatmap([0.0, 1.0], [0.0, 1.0], z, "x", "y")
