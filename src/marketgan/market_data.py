"""Price ingestion, log-return transformation, windowing and inversion.

The training pipeline is: adjusted-close prices -> log returns ->
normalization by the global max absolute return -> overlapping windows.
Generated output walks the same path backwards, so the normalization
scale is part of the dataset (and of every checkpoint).
"""

from __future__ import annotations

import csv
import datetime
import importlib.resources
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


class DataError(ValueError):
    """Input data violates the CSV or series contract."""


@contextmanager
def open_input(path):
    """Open an input file as UTF-8 text with line endings untranslated.
    Every input file is read inside this block, so a file that cannot be
    read, or is not UTF-8, raises DataError."""
    try:
        with open(path, newline="", encoding="utf-8") as f:
            yield f
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"cannot read {path}: {e}") from e


def atomic_write_text(path, text: str):
    """Write via a temp file in the same directory plus rename, so readers
    never observe a half-written artifact."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


DATE_FORMAT = "YYYY-MM-DD"
PRICE_HEADER = ("date", "adjusted_close")
RETURN_HEADER = ("index", "log_return")


@dataclass
class PriceSeries:
    dates: list
    prices: np.ndarray

    def __post_init__(self):
        self.prices = np.asarray(self.prices, dtype=np.float64)
        if len(self.dates) != len(self.prices):
            raise DataError("dates and prices must have equal length")
        if not np.isfinite(self.prices).all():
            raise DataError("prices contain non-finite values")
        if (self.prices <= 0).any():
            bad = int(np.argmax(self.prices <= 0))
            raise DataError(f"non-positive price at position {bad} "
                            f"({self.dates[bad] if self.dates else '?'})")
        for i in range(1, len(self.dates)):
            if not self.dates[i - 1] < self.dates[i]:
                raise DataError(
                    f"dates not strictly increasing: row {i} ({self.dates[i - 1]}) "
                    f"vs row {i + 1} ({self.dates[i]})")

    def __len__(self):
        return len(self.prices)


@dataclass
class ReturnSeries:
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise DataError("a return series is one-dimensional")
        if not np.isfinite(self.values).all():
            raise DataError("returns contain non-finite values")

    def __len__(self):
        return len(self.values)


@dataclass
class WindowedDataset:
    windows: np.ndarray    # [n_windows, window_length], values in [-1, 1]
    window_length: int
    stride: int
    scale: float           # multiply by this to recover raw log returns

    def __post_init__(self):
        self.windows = np.asarray(self.windows, dtype=np.float64)
        if self.windows.ndim != 2 or self.windows.shape[1] != self.window_length:
            raise DataError("window matrix does not match the declared length")
        if self.scale <= 0:
            raise DataError("normalization scale must be positive")

    def __len__(self):
        return self.windows.shape[0]


def _parse_iso_date(text: str, row: int) -> str:
    parts = text.split("-")
    ok = (len(text) == 10 and len(parts) == 3
          and all(p.isdigit() for p in parts)
          and len(parts[0]) == 4 and len(parts[1]) == 2 and len(parts[2]) == 2)
    if not ok:
        raise DataError(f"row {row}: invalid ISO date {text!r} (expected {DATE_FORMAT})")
    # the shape is right; the calendar decides whether the day exists
    try:
        datetime.date.fromisoformat(text)
    except ValueError as e:
        raise DataError(f"row {row}: invalid ISO date {text!r} ({e})") from e
    return text


def ingest_csv(path) -> PriceSeries:
    """Read a `date,adjusted_close` CSV into a validated PriceSeries.

    Row numbers in error messages count the header as row 1.
    """
    dates, prices = [], []
    with open_input(path) as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file")
        if tuple(h.strip() for h in header) != PRICE_HEADER:
            raise DataError(
                f"{path}: expected header {','.join(PRICE_HEADER)!r}, got {header!r}")
        for row_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise DataError(f"row {row_no}: expected 2 fields, got {len(row)}")
            date = _parse_iso_date(row[0].strip(), row_no)
            raw = row[1].strip()
            if not raw:
                raise DataError(f"row {row_no}: missing price")
            try:
                price = float(raw)
            except ValueError as e:
                raise DataError(f"row {row_no}: invalid price {raw!r}") from e
            if not np.isfinite(price):
                raise DataError(f"row {row_no}: non-finite price")
            if price <= 0:
                raise DataError(f"row {row_no}: non-positive price {price}")
            if dates and not dates[-1] < date:
                raise DataError(
                    f"rows {row_no - 1} and {row_no}: dates out of order "
                    f"({dates[-1]!r} then {date!r})")
            dates.append(date)
            prices.append(price)
    if not dates:
        raise DataError(f"{path}: no data rows")
    return PriceSeries(dates, np.array(prices))


def to_log_returns(p) -> ReturnSeries:
    """r_t = ln(p_t / p_{t-1}); accepts a PriceSeries or a raw price array."""
    if isinstance(p, PriceSeries):
        prices = p.prices
    else:
        prices = np.asarray(p, dtype=np.float64)
        if (prices <= 0).any():
            raise DataError("prices must be positive")
    if len(prices) < 2:
        raise DataError("need at least 2 prices to form returns")
    return ReturnSeries(np.diff(np.log(prices)))


def normalize_and_window(r, window_length: int, stride: int = 1) -> WindowedDataset:
    """Scale returns into [-1, 1] by the global max |r| and cut overlapping
    windows: floor((N - L)/stride) + 1 of them."""
    values = r.values if isinstance(r, ReturnSeries) else np.asarray(r, dtype=np.float64)
    n = len(values)
    length = int(window_length)
    stride = int(stride)
    if length < 1:
        raise DataError("window length must be >= 1")
    if stride < 1:
        raise DataError("stride must be >= 1")
    if n < length:
        raise DataError(f"series of length {n} is shorter than window length {length}")
    scale = float(np.max(np.abs(values)))
    if scale == 0.0:
        raise DataError("cannot normalize an all-zero return series")
    normalized = values / scale
    windows = np.lib.stride_tricks.sliding_window_view(normalized, length)[::stride]
    return WindowedDataset(windows.copy(), length, stride, scale)


def returns_to_prices(r, p0: float) -> np.ndarray:
    """Rebuild a price path p_t = p0 * exp(cumulative sum of returns).

    The result has length len(r) + 1 and starts at p0.
    """
    if p0 <= 0:
        raise DataError(f"initial price must be positive, got {p0}")
    values = r.values if isinstance(r, ReturnSeries) else np.asarray(r, dtype=np.float64)
    prices = np.empty(len(values) + 1)
    prices[0] = p0
    prices[1:] = p0 * np.exp(np.cumsum(values))
    return prices


def write_returns_csv(path, values: np.ndarray):
    """Write an `index,log_return` CSV atomically, each value as its
    shortest round-tripping decimal text."""
    lines = [",".join(RETURN_HEADER)]
    lines.extend(f"{i},{float(v)!r}"
                 for i, v in enumerate(np.asarray(values, dtype=np.float64)))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_returns_csv(path) -> ReturnSeries:
    """Read an `index,log_return` CSV (the generate command's output)."""
    values = []
    with open_input(path) as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file")
        if tuple(h.strip() for h in header) != RETURN_HEADER:
            raise DataError(
                f"{path}: expected header {','.join(RETURN_HEADER)!r}, got {header!r}")
        for row_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise DataError(f"row {row_no}: expected 2 fields, got {len(row)}")
            try:
                values.append(float(row[1]))
            except ValueError as e:
                raise DataError(f"row {row_no}: invalid return {row[1]!r}") from e
    if not values:
        raise DataError(f"{path}: no data rows")
    return ReturnSeries(np.array(values))


def load_return_series(path) -> ReturnSeries:
    """Read either CSV dialect (prices or returns), deciding by header."""
    with open_input(path) as f:
        header = f.readline().strip()
    cols = tuple(h.strip() for h in header.split(","))
    if cols == PRICE_HEADER:
        return to_log_returns(ingest_csv(path))
    if cols == RETURN_HEADER:
        return read_returns_csv(path)
    raise DataError(
        f"{path}: unrecognized header {header!r}; expected "
        f"{','.join(PRICE_HEADER)!r} or {','.join(RETURN_HEADER)!r}")


def fixture_path():
    """Path to the bundled synthetic S&P 500 style daily fixture."""
    return importlib.resources.files("marketgan").joinpath("data/sp500_fixture.csv")
