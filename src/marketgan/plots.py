"""Deterministic SVG rendering of the plot-data CSVs written by evaluate.

Each renderer is a pure function of the parsed rows: identical input bytes
produce identical output bytes. No timestamps, no randomness, and all
coordinates are formatted with a fixed precision.
"""

import csv

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


def _fmt(x: float) -> str:
    """Fixed-precision coordinate text, with negative zero normalized."""
    s = f"{x:.2f}"
    return "0.00" if s == "-0.00" else s


def _tick_label(x: float) -> str:
    s = f"{x:.4g}"
    return "0" if s == "-0" else s


def _read_rows(path, expected_header):
    with open_input(path) as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise DataError(f"plot data {path} is empty")
    header = tuple(h.strip() for h in rows[0])
    if header != tuple(expected_header):
        raise DataError(
            f"plot data {path} has header {header}, expected {tuple(expected_header)}")
    if len(rows) < 2:
        raise DataError(f"plot data {path} has a header but no rows")
    return rows[1:]


def _cell(text: str):
    text = text.strip()
    return None if text == "" else float(text)


def _scale(lo: float, hi: float, out_lo: float, out_hi: float):
    """Return a closure mapping [lo, hi] affinely onto [out_lo, out_hi]."""
    span = hi - lo
    if span <= 0.0:
        span = 1.0
    factor = (out_hi - out_lo) / span

    def to_svg(v: float) -> float:
        return out_lo + (v - lo) * factor

    return to_svg


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
        xv = x_lo + (x_hi - x_lo) * i / 4
        px = sx(xv)
        parts.append(f'<line x1="{_fmt(px)}" y1="{y0}" x2="{_fmt(px)}" y2="{y0 + 4}" '
                     f'stroke="{AXIS_COLOR}" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt(px)}" y="{y0 + 16}" font-family="monospace" '
                     f'font-size="10" text-anchor="middle" fill="{AXIS_COLOR}">'
                     f'{_tick_label(xv)}</text>')
        yv = y_lo + (y_hi - y_lo) * i / 4
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


def _polyline(points, color, width="1.2"):
    coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
    return (f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"/>')


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
    parts.append("</svg>")
    atomic_write_text(svg_path, "\n".join(parts) + "\n")


def render_acf(csv_path, svg_path):
    """Bar chart of candidate autocorrelations with the reference series and
    the white-noise confidence band drawn on top."""
    rows = _read_rows(csv_path, ("lag", "candidate", "reference", "band"))
    lags = [int(float(r[0])) for r in rows]
    cand = [float(r[1]) for r in rows]
    ref = [float(r[2]) for r in rows]
    band = float(rows[0][3])
    peak = max(max(abs(v) for v in cand + ref), band) * 1.15
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
    parts.append(_polyline([(sx(l), sy(v)) for l, v in zip(lags, ref)],
                           REFERENCE_COLOR))
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
    rows = _read_rows(csv_path, ("bin_center", "candidate_density", "reference_density"))
    centers = [float(r[0]) for r in rows]
    cand = [float(r[1]) for r in rows]
    ref = [float(r[2]) for r in rows]
    top = max(max(cand), max(ref)) * 1.1
    top = max(top, 1e-6)
    parts, sx, sy = _frame(min(centers), max(centers), 0.0, top,
                           "return distribution", "log return", "density")
    parts.append(_polyline([(sx(c), sy(v)) for c, v in zip(centers, ref)],
                           REFERENCE_COLOR))
    parts.append(_polyline([(sx(c), sy(v)) for c, v in zip(centers, cand)],
                           CANDIDATE_COLOR))
    _legend(parts, [("candidate", CANDIDATE_COLOR), ("reference", REFERENCE_COLOR)])
    _finish(parts, svg_path)


def _render_series_pair(csv_path, svg_path, header, title, y_label):
    rows = _read_rows(csv_path, header)
    idx = [int(float(r[0])) for r in rows]
    cand = [(i, _cell(r[1])) for i, r in zip(idx, rows)]
    ref = [(i, _cell(r[2])) for i, r in zip(idx, rows)]
    cand = [(i, v) for i, v in cand if v is not None]
    ref = [(i, v) for i, v in ref if v is not None]
    values = [v for _, v in cand] + [v for _, v in ref]
    if not values:
        raise DataError(f"plot data {csv_path} has no numeric values")
    lo, hi = min(values), max(values)
    pad = (hi - lo) * 0.05 or max(abs(hi), 1e-6) * 0.05
    parts, sx, sy = _frame(min(idx), max(idx), lo - pad, hi + pad,
                           title, "index", y_label)
    if ref:
        parts.append(_polyline([(sx(i), sy(v)) for i, v in ref],
                               REFERENCE_COLOR, width="0.8"))
    if cand:
        parts.append(_polyline([(sx(i), sy(v)) for i, v in cand],
                               CANDIDATE_COLOR, width="0.8"))
    _legend(parts, [("candidate", CANDIDATE_COLOR), ("reference", REFERENCE_COLOR)])
    _finish(parts, svg_path)


def render_returns(csv_path, svg_path):
    _render_series_pair(csv_path, svg_path, ("index", "candidate", "reference"),
                        "log returns", "log return")


def render_prices(csv_path, svg_path):
    _render_series_pair(csv_path, svg_path, ("index", "candidate", "reference"),
                        "price paths (p0 = 1)", "price")


RENDERERS = {
    "acf.csv": render_acf,
    "pdf.csv": render_pdf,
    "returns.csv": render_returns,
    "prices.csv": render_prices,
}
