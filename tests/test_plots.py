"""The SVG renderers: memory that follows the arrays rather than the text,
and coordinate text that matches the one-point formatter."""

import os
import tracemalloc

import numpy as np
import pytest

from marketgan import plots
from marketgan.cli import _series_pair_csv_chunks
from marketgan.market_data import atomic_write_text, returns_to_prices

ROWS = 50_000
MAX_PEAK_PER_CSV_BYTE = 4.0


@pytest.fixture(scope="module")
def plot_csvs(tmp_path_factory):
    """returns.csv and prices.csv as evaluate writes them, 50,000 rows each."""
    out = tmp_path_factory.mktemp("plots")
    rng = np.random.default_rng(7)
    cand = rng.standard_t(4, ROWS) * 0.01
    ref = rng.standard_t(4, ROWS - 1000) * 0.01   # shorter: its last cells are empty
    atomic_write_text(out / "returns.csv", _series_pair_csv_chunks(cand, ref))
    atomic_write_text(out / "prices.csv", _series_pair_csv_chunks(
        returns_to_prices(cand, 1.0), returns_to_prices(ref, 1.0)))
    return out


@pytest.mark.parametrize("name", ["returns", "prices"])
def test_render_peak_memory_stays_below_four_times_the_csv(plot_csvs, name):
    # reading every row into Python strings peaked at about 15x the CSV's size
    csv_path = plot_csvs / f"{name}.csv"
    renderer = plots.RENDERERS[f"{name}.csv"]
    tracemalloc.start()
    try:
        renderer(csv_path, plot_csvs / f"{name}.svg")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = os.path.getsize(csv_path)
    assert peak < MAX_PEAK_PER_CSV_BYTE * size, f"peak {peak} B for a {size} B CSV"
    assert (plot_csvs / f"{name}.svg").read_text().count("<polyline") == 2


def test_polyline_matches_the_one_point_format():
    # values around every rounding edge of two decimals, negative zero included
    rng = np.random.default_rng(3)
    xs = np.concatenate([[-0.004, -0.005, -0.0049999, -0.0, 0.0, 0.005, -1e-300],
                         rng.normal(0, 0.01, 5000), rng.normal(0, 400, 5000)])
    ys = xs[::-1].copy()

    def same(v):
        return v

    text = "".join(plots._polyline(same, same, xs, ys, "#000"))
    expected = " ".join(f"{plots._fmt(x)},{plots._fmt(y)}" for x, y in zip(xs, ys))
    assert text == (f'<polyline points="{expected}" fill="none" stroke="#000" '
                    f'stroke-width="1.2"/>')
    assert len(xs) > plots.POLYLINE_BLOCK    # more than one block


def test_scale_maps_arrays_with_the_bits_of_scalars():
    rng = np.random.default_rng(4)
    values = np.concatenate([rng.normal(0, 1e3, 1000), [0.0, -0.0, 1e308, -1e308]])
    to_svg = plots._scale(-1e308, 1e308, plots.MARGIN_LEFT, plots.WIDTH)
    mapped = to_svg(values)
    assert mapped.tolist() == [to_svg(v) for v in values.tolist()]
