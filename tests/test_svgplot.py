"""The heat map's text against the per-cell loop it was built with, and
its cap on the cells per axis."""

import re

import numpy as np
import pytest

from pflab.svgplot import _HEAT_CELLS, emit_heatmap

from oracles import heatmap_per_cell


def _field(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


@pytest.mark.parametrize("values, title", [
    (_field((128, 128)), "|u| at t = 0.2"),
    (_field((7, 5), 1), "small"),
    (_field((200, 97), 2), "ragged"),
    (np.full((40, 40), 3.5), "constant"),  # hi == lo: the span of 1
    (_field((16, 16), 3), ""),  # no title line
], ids=["128x128", "7x5", "200x97", "constant", "untitled"])
def test_the_heat_map_is_the_per_cell_loop_byte_for_byte(values, title):
    text = emit_heatmap(values, title)
    assert text.encode() == heatmap_per_cell(values, title).encode()
    assert text.startswith("<svg") and text.endswith("</svg>\n")
    assert ("<text" in text) == bool(title)


def _cell_columns(text):
    """The distinct x and y positions of the cells."""
    xs = set(re.findall(r'class="cell" x="([^"]+)"', text))
    ys = set(re.findall(r'class="cell" x="[^"]+" y="([^"]+)"', text))
    return len(xs), len(ys)


def test_the_heat_map_keeps_at_most_its_cap_of_cells_per_axis():
    assert _HEAT_CELLS == 96
    for n in range(90, 201):
        text = emit_heatmap(_field((n, 290 - n), n), "")
        nx, ny = _cell_columns(text)
        assert nx <= _HEAT_CELLS and ny <= _HEAT_CELLS, n
        assert text.count('class="cell"') == nx * ny
    # the 128^2 field of the Taylor-Green run averages 2 x 2 blocks
    assert _cell_columns(emit_heatmap(_field((128, 128)), "")) == (64, 64)


def test_the_heat_map_shows_every_node():
    # 200 x 97 takes 3 x 2 blocks: 66 full ones and a last one of 2 rows,
    # 48 full ones and a last one of 1 column; a spike on the last node
    # colours its own cell alone, at full scale
    values = np.zeros((200, 97))
    values[-1, -1] = 1.0
    text = emit_heatmap(values, "")
    assert _cell_columns(text) == (67, 49)
    assert text.count("rgb(255,") == 1
    assert re.search(r'x="(\S+)" y="28.00" \S+ \S+ fill="rgb\(255,', text)[1] == \
        f"{66 * 480 / 67:.2f}"


def test_the_heat_map_needs_a_2d_array():
    with pytest.raises(ValueError, match="2-D"):
        emit_heatmap(np.zeros(5), "")
