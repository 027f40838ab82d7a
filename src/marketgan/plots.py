"""Deterministic SVG rendering of the plot-data CSVs written by evaluate.

Each renderer is a pure function of the CSV's bytes: identical input bytes
produce identical output bytes. No timestamps, no randomness, and all
coordinates are formatted with a fixed precision.

Memory follows the arrays, not the text: a CSV is read in one pass straight
into one float64 array per column (no list of rows), and each polyline is
mapped, formatted and written a block of points at a time into the
temp file that atomic_write_text renames at the end.
"""

import array
import csv
import math
import sys

import numpy as np

from .market_data import DataError, atomic_write_text, open_input

WIDTH = 640
HEIGHT = 360
MARGIN_LEFT = 56
MARGIN_RIGHT = 16
MARGIN_TOP = 28
MARGIN_BOTTOM = 40

CANDIDATE_COLOR = "#1f6fb2"
REFERENCE_COLOR = "#8a8a8a"
BAND_COLOR = "#b03a3a"
AXIS_COLOR = "#333333"

POLYLINE_BLOCK = 4096     # points formatted per chunk of a polyline


def _fmt(x: float) -> str:
    """Fixed-precision coordinate text, with negative zero normalized."""
    s = f"{x:.2f}"
    return "0.00" if s == "-0.00" else s


def _tick_label(x: float) -> str:
    s = f"{x:.4g}"
    return "0" if s == "-0" else s


def _read_columns(path, expected_header, skip=()):
    """The columns of a plot CSV as float64 arrays, read in one pass with no
    list of rows. A cell of a column after the first whose stripped text is
    in ``skip`` is NaN: that point is not drawn. Errors name the first
    problem in this order: an empty file, a wrong header, no rows, a ragged
    row, then the first cell that is not a finite number in the leftmost
    column that has one. Rows count from 1 after the header."""
    width = len(expected_header)
    columns = [array.array("d") for _ in range(width)]
    skips = [()] + [skip] * (width - 1)
    bad = [None] * width        # (row, text) of each column's first bad cell
    with open_input(path) as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None:
            raise DataError(f"plot data {path} is empty")
        header = tuple(h.strip() for h in first)
        if header != tuple(expected_header):
            raise DataError(
                f"plot data {path} has header {header}, expected {tuple(expected_header)}")
        n = 0
        for n, row in enumerate(reader, 1):
            if len(row) != width:
                raise DataError(f"plot data {path} row {n} has {len(row)} fields, "
                                f"expected {width}")
            for j, text in enumerate(row):
                try:
                    v = float(text)
                except ValueError:
                    v = math.nan
                if not math.isfinite(v):
                    if text.strip() not in skips[j] and bad[j] is None:
                        bad[j] = (n, text.strip())
                    v = math.nan
                columns[j].append(v)
    if n == 0:
        raise DataError(f"plot data {path} has a header but no rows")
    for j, found in enumerate(bad):
        if found is not None:
            raise DataError(f"plot data {path} row {found[0]} field {j + 1} is "
                            f"{found[1]!r}, not a finite number")
    return [np.frombuffer(c, dtype=np.float64) for c in columns]


# Axis arithmetic takes differences of quarters (hi / 4 - lo / 4): for finite
# values they cannot overflow, even when hi - lo would, and dividing by 4 is
# exact, so every coordinate has the bits of the plain formula.

def _in_range(x: float) -> float:
    """``x`` clamped to the finite float64 range, for an axis end padded past it."""
    return max(-sys.float_info.max, min(x, sys.float_info.max))


def _scale(lo: float, hi: float, out_lo: float, out_hi: float):
    """Return a closure mapping [lo, hi] affinely onto [out_lo, out_hi]."""
    span = hi / 4 - lo / 4
    if span <= 0.0:
        span = 0.25
    factor = (out_hi - out_lo) / span
    lo4 = lo / 4

    def to_svg(v: float) -> float:
        return out_lo + (v / 4 - lo4) * factor

    return to_svg


def _tick(lo: float, hi: float, i: int) -> float:
    """The i-th of five evenly spaced axis ticks from lo to hi (rounding can
    carry the last one just past hi, and so past the float64 range)."""
    return _in_range(4 * (lo / 4 + (hi / 4 - lo / 4) / 4 * i))


def _frame(x_lo, x_hi, y_lo, y_hi, title, x_label, y_label):
    """Axes, ticks and labels shared by every plot. Returns (parts, sx, sy)."""
    sx = _scale(x_lo, x_hi, MARGIN_LEFT, WIDTH - MARGIN_RIGHT)
    sy = _scale(y_lo, y_hi, HEIGHT - MARGIN_BOTTOM, MARGIN_TOP)
    x0, x1 = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
    y0, y1 = HEIGHT - MARGIN_BOTTOM, MARGIN_TOP
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<text x="{(x0 + x1) / 2:.1f}" y="18" font-family="monospace" font-size="13" '
        f'text-anchor="middle" fill="{AXIS_COLOR}">{title}</text>',
    ]
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" '
                 f'stroke="{AXIS_COLOR}" stroke-width="1"/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" '
                 f'stroke="{AXIS_COLOR}" stroke-width="1"/>')
    for i in range(5):
        xv = _tick(x_lo, x_hi, i)
        px = sx(xv)
        parts.append(f'<line x1="{_fmt(px)}" y1="{y0}" x2="{_fmt(px)}" y2="{y0 + 4}" '
                     f'stroke="{AXIS_COLOR}" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt(px)}" y="{y0 + 16}" font-family="monospace" '
                     f'font-size="10" text-anchor="middle" fill="{AXIS_COLOR}">'
                     f'{_tick_label(xv)}</text>')
        yv = _tick(y_lo, y_hi, i)
        py = sy(yv)
        parts.append(f'<line x1="{x0 - 4}" y1="{_fmt(py)}" x2="{x0}" y2="{_fmt(py)}" '
                     f'stroke="{AXIS_COLOR}" stroke-width="1"/>')
        parts.append(f'<text x="{x0 - 6}" y="{_fmt(py + 3)}" font-family="monospace" '
                     f'font-size="10" text-anchor="end" fill="{AXIS_COLOR}">'
                     f'{_tick_label(yv)}</text>')
    parts.append(f'<text x="{(x0 + x1) / 2:.1f}" y="{HEIGHT - 6}" font-family="monospace" '
                 f'font-size="11" text-anchor="middle" fill="{AXIS_COLOR}">{x_label}</text>')
    parts.append(f'<text x="14" y="{(y0 + y1) / 2:.1f}" font-family="monospace" '
                 f'font-size="11" text-anchor="middle" fill="{AXIS_COLOR}" '
                 f'transform="rotate(-90 14 {(y0 + y1) / 2:.1f})">{y_label}</text>')
    return parts, sx, sy


def _polyline(sx, sy, xs, ys, color, width="1.2"):
    """Chunks of a polyline through the points (sx(xs[i]), sy(ys[i])), the
    points mapped and formatted POLYLINE_BLOCK at a time."""
    yield '<polyline points="'
    for start in range(0, len(xs), POLYLINE_BLOCK):
        block = slice(start, start + POLYLINE_BLOCK)
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in
                          zip(sx(xs[block]).tolist(), sy(ys[block]).tolist()))
        # _fmt's negative zero rule: in fixed two-decimal text "-0.00" can
        # only occur as a whole coordinate
        yield (" " if start else "") + coords.replace("-0.00", "0.00")
    yield f'" fill="none" stroke="{color}" stroke-width="{width}"/>'


def _legend(parts, entries):
    x = WIDTH - MARGIN_RIGHT - 150
    y = MARGIN_TOP + 6
    for label, color in entries:
        parts.append(f'<line x1="{x}" y1="{y}" x2="{x + 18}" y2="{y}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{x + 24}" y="{y + 3}" font-family="monospace" '
                     f'font-size="10" fill="{AXIS_COLOR}">{label}</text>')
        y += 14


def _finish(parts, svg_path):
    """Write the parts, each a line of text or an iterable of chunks of one
    (a polyline), as the SVG file."""
    parts.append("</svg>")

    def chunks():
        for part in parts:
            if isinstance(part, str):
                yield part
            else:
                yield from part
            yield "\n"

    atomic_write_text(svg_path, chunks())


def render_acf(csv_path, svg_path):
    """Bar chart of candidate autocorrelations with the reference series and
    the white-noise confidence band drawn on top."""
    lag_col, cand_col, ref_col, band_col = _read_columns(
        csv_path, ("lag", "candidate", "reference", "band"))
    lags = [int(v) for v in lag_col.tolist()]
    cand, ref = cand_col.tolist(), ref_col.tolist()
    band = float(band_col[0])
    peak = _in_range(max(max(abs(v) for v in cand + ref), band) * 1.15)
    peak = max(peak, 1e-6)
    parts, sx, sy = _frame(min(lags) - 0.5, max(lags) + 0.5, -peak, peak,
                           "autocorrelation", "lag", "correlation")
    zero_y = sy(0.0)
    half = (sx(min(lags) + 1) - sx(min(lags))) * 0.35 if len(lags) > 1 else 8.0
    for lag, v in zip(lags, cand):
        cx = sx(lag)
        top = sy(max(v, 0.0))
        bot = sy(min(v, 0.0))
        parts.append(f'<rect x="{_fmt(cx - half)}" y="{_fmt(top)}" '
                     f'width="{_fmt(2 * half)}" height="{_fmt(bot - top)}" '
                     f'fill="{CANDIDATE_COLOR}" fill-opacity="0.8"/>')
    parts.append(_polyline(sx, sy, np.trunc(lag_col), ref_col, REFERENCE_COLOR))
    for level in (band, -band):
        py = sy(level)
        parts.append(f'<line x1="{MARGIN_LEFT}" y1="{_fmt(py)}" '
                     f'x2="{WIDTH - MARGIN_RIGHT}" y2="{_fmt(py)}" '
                     f'stroke="{BAND_COLOR}" stroke-width="1" stroke-dasharray="5,4"/>')
    parts.append(f'<line x1="{MARGIN_LEFT}" y1="{_fmt(zero_y)}" '
                 f'x2="{WIDTH - MARGIN_RIGHT}" y2="{_fmt(zero_y)}" '
                 f'stroke="{AXIS_COLOR}" stroke-width="0.5"/>')
    _legend(parts, [("candidate", CANDIDATE_COLOR), ("reference", REFERENCE_COLOR),
                    ("band", BAND_COLOR)])
    _finish(parts, svg_path)


def render_pdf(csv_path, svg_path):
    """Overlaid empirical densities of candidate and reference returns."""
    centers, cand, ref = _read_columns(
        csv_path, ("bin_center", "candidate_density", "reference_density"))
    top = _in_range(max(max(cand.tolist()), max(ref.tolist())) * 1.1)
    top = max(top, 1e-6)
    parts, sx, sy = _frame(min(centers.tolist()), max(centers.tolist()), 0.0, top,
                           "return distribution", "log return", "density")
    parts.append(_polyline(sx, sy, centers, ref, REFERENCE_COLOR))
    parts.append(_polyline(sx, sy, centers, cand, CANDIDATE_COLOR))
    _legend(parts, [("candidate", CANDIDATE_COLOR), ("reference", REFERENCE_COLOR)])
    _finish(parts, svg_path)


def _render_series_pair(csv_path, svg_path, header, title, y_label, skip):
    index, cand, ref = _read_columns(csv_path, header, skip)
    index = np.trunc(index)     # an index cell is read as int(float(text))
    drawn = [(index[~np.isnan(v)], v[~np.isnan(v)]) for v in (cand, ref)]
    values = [v for _, v in drawn if v.size]
    if not values:
        raise DataError(f"plot data {csv_path} has no numeric values")
    lo = float(min(v.min() for v in values))
    hi = float(max(v.max() for v in values))
    pad = (hi - lo) * 0.05 or max(abs(hi), 1e-6) * 0.05
    parts, sx, sy = _frame(int(index.min()), int(index.max()),
                           _in_range(lo - pad), _in_range(hi + pad), title, "index", y_label)
    (cand_x, cand_y), (ref_x, ref_y) = drawn
    if ref_y.size:
        parts.append(_polyline(sx, sy, ref_x, ref_y, REFERENCE_COLOR, width="0.8"))
    if cand_y.size:
        parts.append(_polyline(sx, sy, cand_x, cand_y, CANDIDATE_COLOR, width="0.8"))
    _legend(parts, [("candidate", CANDIDATE_COLOR), ("reference", REFERENCE_COLOR)])
    _finish(parts, svg_path)


def render_returns(csv_path, svg_path):
    """Both return series; an empty cell is past the end of the shorter one."""
    _render_series_pair(csv_path, svg_path, ("index", "candidate", "reference"),
                        "log returns", "log return", ("",))


def render_prices(csv_path, svg_path):
    """Both price paths; a price past the float64 range, which evaluate
    writes as inf, is not drawn."""
    _render_series_pair(csv_path, svg_path, ("index", "candidate", "reference"),
                        "price paths (p0 = 1)", "price", ("", "inf"))


RENDERERS = {
    "acf.csv": render_acf,
    "pdf.csv": render_pdf,
    "returns.csv": render_returns,
    "prices.csv": render_prices,
}
