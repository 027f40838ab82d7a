"""Price ingestion, log-return transformation, windowing and inversion.

The training pipeline is: adjusted-close prices -> log returns ->
normalization by the global max absolute return -> overlapping windows.
Generated output walks the same path backwards, so the normalization
scale is part of the dataset (and of every checkpoint).

Both input CSV dialects, `date,adjusted_close` and `index,log_return`,
go through one row reader (_csv_rows): it opens the file once, checks the
header and the field count and skips blank rows, and each dialect's
reader parses only its own fields, checking every row as it is read.
"""

from __future__ import annotations

import array
import csv
import datetime
import importlib.resources
import itertools
import math
import os
import re
import tempfile
from contextlib import closing, contextmanager
from dataclasses import dataclass

import numpy as np


class DataError(ValueError):
    """Input data violates the CSV or series contract."""


@contextmanager
def open_input(path):
    """Open an input file as UTF-8 text with line endings untranslated.
    Every input file is read inside this block, so a file that cannot be
    read, is not UTF-8, or holds a CSV field past the csv module's limit
    raises DataError."""
    try:
        with open(path, newline="", encoding="utf-8") as f:
            yield f
    except (OSError, UnicodeDecodeError, csv.Error) as e:
        raise DataError(f"cannot read {path}: {e}") from e


def atomic_write_text(path, text):
    """Write ``text``, a str or an iterable of str chunks written in order,
    via a temp file in the same directory plus rename, so readers never
    observe a half-written artifact. A chunked artifact is never held in
    memory whole. If the write fails part-way the temp file is removed and
    the file at ``path`` is left as it was."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as f:
            f.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


DATE_FORMAT = "YYYY-MM-DD"
PRICE_HEADER = ("date", "adjusted_close")
RETURN_HEADER = ("index", "log_return")
_ISO_DATE = re.compile(r"\d{4}-\d{2}-\d{2}", re.ASCII)


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


def _csv_rows(path, *headers):
    """Read a two-column CSV in one pass: the file is opened once, and its
    header is read once and must be one of ``headers``. Yields that header
    first, then ``(row number, field 1, field 2)`` for every non-blank row.
    Row numbers count the header as row 1. Callers close the generator
    (contextlib.closing), so a row they refuse closes the file at once."""
    with open_input(path) as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file")
        names = tuple(h.strip() for h in header)
        if names not in headers:
            expected = " or ".join(repr(",".join(h)) for h in headers)
            if len(headers) == 1:
                raise DataError(f"{path}: expected header {expected}, got {header!r}")
            raise DataError(
                f"{path}: unrecognized header {','.join(header)!r}; expected {expected}")
        yield names
        empty = True
        for row_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise DataError(f"row {row_no}: expected 2 fields, got {len(row)}")
            empty = False
            yield row_no, row[0], row[1]
    if empty:
        raise DataError(f"{path}: no data rows")


def _parse_iso_date(text: str, row: int) -> str:
    if not _ISO_DATE.fullmatch(text):
        raise DataError(f"row {row}: invalid ISO date {text!r} (expected {DATE_FORMAT})")
    # the shape is right; the calendar decides whether the day exists
    try:
        datetime.date.fromisoformat(text)
    except ValueError as e:
        raise DataError(f"row {row}: invalid ISO date {text!r} ({e})") from e
    return text


def _read_prices(rows) -> np.ndarray:
    """The prices of `date,adjusted_close` rows, each checked as it is
    read; only the previous row's date is kept for the order check."""
    prices = array.array("d")
    last_row, last_date = 0, ""
    for row_no, date, raw in rows:
        date = _parse_iso_date(date.strip(), row_no)
        raw = raw.strip()
        if not raw:
            raise DataError(f"row {row_no}: missing price")
        try:
            price = float(raw)
        except ValueError as e:
            raise DataError(f"row {row_no}: invalid price {raw!r}") from e
        if not math.isfinite(price):
            raise DataError(f"row {row_no}: non-finite price")
        if price <= 0:
            raise DataError(f"row {row_no}: non-positive price {price}")
        if not last_date < date:
            raise DataError(f"rows {last_row} and {row_no}: dates out of order "
                            f"({last_date!r} then {date!r})")
        last_row, last_date = row_no, date
        prices.append(price)
    return np.frombuffer(prices)


def _read_returns(rows) -> ReturnSeries:
    """The values of `index,log_return` rows. They fill a float64
    array.array, which the returned array wraps, so the read holds no
    Python float per row."""
    values = array.array("d")
    for row_no, _index, raw in rows:
        try:
            values.append(float(raw))
        except ValueError as e:
            raise DataError(f"row {row_no}: invalid return {raw!r}") from e
    return ReturnSeries(np.frombuffer(values))


def ingest_csv(path) -> np.ndarray:
    """Read a `date,adjusted_close` CSV into its price array: every date a
    real calendar day after the one before, every price finite and
    positive. Row numbers in error messages count the header as row 1."""
    with closing(_csv_rows(path, PRICE_HEADER)) as rows:
        next(rows)
        return _read_prices(rows)


def to_log_returns(prices) -> ReturnSeries:
    """r_t = ln(p_t / p_{t-1}) of a positive price array."""
    prices = np.asarray(prices, dtype=np.float64)
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


BLOCK_LINES = 4096


def csv_chunks(header: str, lines):
    """The text of a CSV as chunks for atomic_write_text: the header, then
    ``lines`` BLOCK_LINES at a time, every line LF-terminated."""
    yield header + "\n"
    lines = iter(lines)
    while block := list(itertools.islice(lines, BLOCK_LINES)):
        block.append("")
        yield "\n".join(block)


def iter_floats(values):
    """The entries of a 1-D array as Python floats, converted a block at a
    time."""
    values = np.asarray(values, dtype=np.float64)
    for start in range(0, len(values), BLOCK_LINES):
        yield from values[start: start + BLOCK_LINES].tolist()


def index_value_chunks(header: str, values):
    """csv_chunks of an `index,value` CSV, each value as its shortest
    round-tripping decimal text."""
    return csv_chunks(header, (f"{i},{v!r}" for i, v in enumerate(iter_floats(values))))


def write_returns_csv(path, values: np.ndarray):
    """Write an `index,log_return` CSV atomically, each value as its
    shortest round-tripping decimal text."""
    atomic_write_text(path, index_value_chunks(",".join(RETURN_HEADER), values))


def read_returns_csv(path) -> ReturnSeries:
    """Read an `index,log_return` CSV (the generate command's output)."""
    with closing(_csv_rows(path, RETURN_HEADER)) as rows:
        next(rows)
        return _read_returns(rows)


def load_return_series(path) -> ReturnSeries:
    """Read either CSV dialect (prices or returns), deciding by header."""
    with closing(_csv_rows(path, PRICE_HEADER, RETURN_HEADER)) as rows:
        if next(rows) == PRICE_HEADER:
            return to_log_returns(_read_prices(rows))
        return _read_returns(rows)


def fixture_path():
    """Path to the bundled synthetic S&P 500 style daily fixture."""
    return importlib.resources.files("marketgan").joinpath("data/sp500_fixture.csv")
