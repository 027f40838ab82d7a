"""Tests for CSV ingestion, log-return transforms, windowing and inversion."""

import csv
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketgan.market_data import (
    DataError,
    ReturnSeries,
    BLOCK_LINES,
    WindowedDataset,
    atomic_write_text,
    csv_chunks,
    fixture_path,
    ingest_csv,
    load_return_series,
    normalize_and_window,
    read_returns_csv,
    returns_to_prices,
    to_log_returns,
    write_returns_csv,
)

GOOD_CSV = """date,adjusted_close
2020-01-02,100.0
2020-01-03,101.5
2020-01-06,99.25
"""


def make_csv(tmp_path, text, name="prices.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestReturnSeries:
    def test_accepts_one_dimensional(self):
        rs = ReturnSeries([0.01, -0.02])
        assert len(rs) == 2

    def test_rejects_matrix(self):
        with pytest.raises(DataError, match="one-dimensional"):
            ReturnSeries(np.zeros((2, 2)))

    def test_rejects_nan(self):
        with pytest.raises(DataError, match="non-finite"):
            ReturnSeries([0.0, np.nan])


class TestWindowedDataset:
    def test_shape_must_match_declared_length(self):
        with pytest.raises(DataError, match="declared length"):
            WindowedDataset(np.zeros((2, 3)), window_length=4, stride=1, scale=1.0)

    def test_scale_must_be_positive(self):
        with pytest.raises(DataError, match="positive"):
            WindowedDataset(np.zeros((2, 3)), window_length=3, stride=1, scale=0.0)


class TestIngestCsv:
    def test_happy_path(self, tmp_path):
        prices = ingest_csv(make_csv(tmp_path, GOOD_CSV))
        assert prices.dtype == np.float64
        np.testing.assert_array_equal(prices, [100.0, 101.5, 99.25])

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            ingest_csv(tmp_path / "absent.csv")

    def test_field_past_the_csv_limit(self, tmp_path):
        # the csv module refuses a field over 128 KiB with csv.Error
        path = make_csv(tmp_path, GOOD_CSV + "2020-01-07," + "1" * 200_000 + "\n")
        with pytest.raises(DataError, match="cannot read .*field larger than field limit"):
            ingest_csv(path)

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataError, match="empty file"):
            ingest_csv(make_csv(tmp_path, ""))

    def test_wrong_header(self, tmp_path):
        with pytest.raises(DataError, match="expected header"):
            ingest_csv(make_csv(tmp_path, "day,close\n2020-01-02,1.0\n"))

    def test_header_only(self, tmp_path):
        with pytest.raises(DataError, match="no data rows"):
            ingest_csv(make_csv(tmp_path, "date,adjusted_close\n"))

    def test_wrong_field_count_names_row(self, tmp_path):
        text = "date,adjusted_close\n2020-01-02,1.0,extra\n"
        with pytest.raises(DataError, match="row 2: expected 2 fields, got 3"):
            ingest_csv(make_csv(tmp_path, text))

    def test_invalid_date_names_row(self, tmp_path):
        text = "date,adjusted_close\n2020-01-02,1.0\n20-1-3,1.0\n"
        with pytest.raises(DataError, match="row 3: invalid ISO date"):
            ingest_csv(make_csv(tmp_path, text))

    def test_month_out_of_range(self, tmp_path):
        text = "date,adjusted_close\n2020-13-01,1.0\n"
        with pytest.raises(DataError, match="row 2: invalid ISO date"):
            ingest_csv(make_csv(tmp_path, text))

    # "\u00b2" passes str.isdigit() but is no ASCII digit
    @pytest.mark.parametrize("day", ["2021-02-31", "2021-04-31", "2019-02-29", "2020-00-10",
                                     "2020-0\u00b2-01"])
    def test_impossible_calendar_day(self, tmp_path, day):
        text = f"date,adjusted_close\n2019-01-02,1.0\n{day},1.0\n"
        with pytest.raises(DataError, match=f"row 3: invalid ISO date '{day}'"):
            ingest_csv(make_csv(tmp_path, text))

    def test_leap_day_accepted(self, tmp_path):
        prices = ingest_csv(make_csv(tmp_path, "date,adjusted_close\n2020-02-29,1.0\n"))
        np.testing.assert_array_equal(prices, [1.0])

    def test_missing_price(self, tmp_path):
        text = "date,adjusted_close\n2020-01-02,\n"
        with pytest.raises(DataError, match="row 2: missing price"):
            ingest_csv(make_csv(tmp_path, text))

    def test_unparseable_price(self, tmp_path):
        text = "date,adjusted_close\n2020-01-02,12o.5\n"
        with pytest.raises(DataError, match="row 2: invalid price"):
            ingest_csv(make_csv(tmp_path, text))

    def test_non_finite_price_string(self, tmp_path):
        for bad in ("inf", "nan"):
            text = f"date,adjusted_close\n2020-01-02,{bad}\n"
            with pytest.raises(DataError, match="row 2: non-finite price"):
                ingest_csv(make_csv(tmp_path, text))

    def test_non_positive_price(self, tmp_path):
        text = "date,adjusted_close\n2020-01-02,100.0\n2020-01-03,-3.0\n"
        with pytest.raises(DataError, match="row 3: non-positive price"):
            ingest_csv(make_csv(tmp_path, text))

    def test_out_of_order_dates_name_both_rows(self, tmp_path):
        text = "date,adjusted_close\n2020-01-06,1.0\n2020-01-03,1.0\n"
        with pytest.raises(DataError, match="rows 2 and 3: dates out of order"):
            ingest_csv(make_csv(tmp_path, text))
        # a repeated date is out of order too
        text = "date,adjusted_close\n2020-01-06,1.0\n2020-01-06,1.0\n"
        with pytest.raises(DataError, match="rows 2 and 3: dates out of order"):
            ingest_csv(make_csv(tmp_path, text))
        # blank rows between the two dated rows do not shift the first number
        text = "date,adjusted_close\n2020-01-06,1.0\n\n\n2020-01-03,1.0\n"
        with pytest.raises(DataError, match="rows 2 and 5: dates out of order"):
            ingest_csv(make_csv(tmp_path, text))

    def test_blank_lines_skipped_but_counted(self, tmp_path):
        text = "date,adjusted_close\n2020-01-02,100.0\n\n2020-01-03,101.0\n"
        assert len(ingest_csv(make_csv(tmp_path, text))) == 2
        bad = "date,adjusted_close\n\nbad-date,1.0\n"
        with pytest.raises(DataError, match="row 3: invalid ISO date"):
            ingest_csv(make_csv(tmp_path, bad))


class TestToLogReturns:
    def test_hand_computed_value(self):
        rs = to_log_returns(np.array([100.0, 110.0]))
        np.testing.assert_allclose(rs.values, [np.log(1.1)], rtol=1e-12)

    def test_matches_diff_of_logs(self, rng):
        prices = np.exp(rng.normal(0.0, 0.2, size=50)) * 100.0
        rs = to_log_returns(prices)
        np.testing.assert_array_equal(rs.values, np.diff(np.log(prices)))

    def test_accepts_price_series(self, tmp_path):
        # the price array that ingest_csv reads
        prices = ingest_csv(make_csv(tmp_path, GOOD_CSV))
        rs = to_log_returns(prices)
        np.testing.assert_array_equal(rs.values, np.diff(np.log(prices)))
        assert len(rs) == len(prices) - 1

    def test_rejects_non_positive_raw_prices(self):
        with pytest.raises(DataError, match="positive"):
            to_log_returns(np.array([1.0, -2.0]))

    def test_needs_two_prices(self):
        with pytest.raises(DataError, match="at least 2"):
            to_log_returns(np.array([5.0]))


class TestNormalizeAndWindow:
    def test_window_count_formula(self):
        values = np.sin(np.arange(100.0) + 1.0) + 1.5
        for length, stride in [(10, 1), (10, 3), (100, 1), (7, 7), (1, 4)]:
            ds = normalize_and_window(values, length, stride)
            assert len(ds) == (100 - length) // stride + 1
            assert ds.windows.shape == (len(ds), length)

    def test_scale_is_global_max_abs(self):
        values = np.array([0.01, -0.05, 0.02, 0.03])
        ds = normalize_and_window(values, 2)
        assert ds.scale == 0.05
        assert ds.windows.min() == -1.0

    def test_windows_match_manual_slices(self):
        values = np.arange(1.0, 11.0)
        ds = normalize_and_window(values, 4, stride=3)
        expected = np.stack([values[0:4], values[3:7], values[6:10]]) / 10.0
        np.testing.assert_array_equal(ds.windows, expected)

    def test_denormalize_recovers_returns(self, rng):
        values = rng.normal(0.0, 0.02, size=64)
        ds = normalize_and_window(values, 16, stride=5)
        recovered = ds.windows * ds.scale
        for i in range(len(ds)):
            start = i * 5
            np.testing.assert_allclose(recovered[i], values[start:start + 16],
                                       rtol=1e-15)

    def test_accepts_return_series(self):
        ds = normalize_and_window(ReturnSeries([0.1, -0.2, 0.3]), 2)
        assert len(ds) == 2

    def test_rejects_bad_arguments(self):
        values = np.ones(8)
        with pytest.raises(DataError, match="window length"):
            normalize_and_window(values, 0)
        with pytest.raises(DataError, match="stride"):
            normalize_and_window(values, 4, stride=0)
        with pytest.raises(DataError, match="shorter than window"):
            normalize_and_window(values, 9)
        with pytest.raises(DataError, match="all-zero"):
            normalize_and_window(np.zeros(8), 4)

    def test_windows_are_a_copy(self):
        values = np.arange(1.0, 7.0)
        ds = normalize_and_window(values, 3)
        ds.windows[0, 0] = 99.0
        assert values[0] == 1.0


class TestReturnsToPrices:
    def test_length_and_start(self):
        prices = returns_to_prices(np.array([0.01, -0.02, 0.005]), p0=50.0)
        assert prices.shape == (4,)
        assert prices[0] == 50.0

    def test_doubling_returns(self):
        prices = returns_to_prices(np.array([np.log(2.0), np.log(2.0)]), p0=1.0)
        np.testing.assert_allclose(prices, [1.0, 2.0, 4.0], rtol=1e-15)

    def test_roundtrip_through_log_returns(self, rng):
        r = rng.normal(0.0, 0.01, size=300)
        prices = returns_to_prices(r, p0=123.4)
        np.testing.assert_allclose(to_log_returns(prices).values, r, atol=1e-12)

    def test_rejects_non_positive_start(self):
        with pytest.raises(DataError, match="initial price"):
            returns_to_prices(np.array([0.1]), p0=0.0)


class TestReturnsCsvRoundtrip:
    def test_bit_exact_roundtrip(self, tmp_path):
        values = np.array([0.1, -3.141592653589793e-05, 1e-17, 0.0, -0.25])
        path = tmp_path / "returns.csv"
        write_returns_csv(path, values)
        np.testing.assert_array_equal(read_returns_csv(path).values, values)

    def test_written_format(self, tmp_path):
        path = tmp_path / "returns.csv"
        write_returns_csv(path, np.array([0.5, -0.5]))
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.split(b"\n")[0] == b"index,log_return"
        assert raw.split(b"\n")[1] == b"0,0.5"

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=30))
    def test_bytes_match_csv_writer(self, values):
        # the text the csv module writes for the same rows, byte for byte
        with tempfile.TemporaryDirectory() as tmp:
            ref = os.path.join(tmp, "ref.csv")
            with open(ref, "w", newline="", encoding="utf-8") as f:
                writer = csv.writer(f, lineterminator="\n")
                writer.writerow(("index", "log_return"))
                for i, v in enumerate(values):
                    writer.writerow([i, repr(float(v))])
            path = os.path.join(tmp, "returns.csv")
            write_returns_csv(path, np.array(values, dtype=np.float64))
            with open(path, "rb") as got, open(ref, "rb") as want:
                assert got.read() == want.read()

    def test_write_is_atomic(self, tmp_path, monkeypatch):
        # a failed write leaves the old file in place and no temp file behind
        path = tmp_path / "returns.csv"
        write_returns_csv(path, np.array([0.5]))
        before = path.read_bytes()

        def fail(*_args):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError):
            write_returns_csv(path, np.array([0.25, 0.75]))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["returns.csv"]

    def test_read_peak_memory_stays_below_twice_the_array(self, tmp_path):
        # a list of Python floats turned into an array peaked at about 5x, and
        # a list of the price CSV's dates at about 10x
        rng = np.random.default_rng(0)
        returns = tmp_path / "returns.csv"
        write_returns_csv(returns, rng.normal(0.0, 0.02, 100_000))
        # tracemalloc slows the price read about tenfold, so it reads fewer rows
        days = (np.datetime64("1970-01-01") + np.arange(20_000)).astype(str)
        quotes = (100.0 + rng.random(20_000)).tolist()
        prices = make_csv(tmp_path, "date,adjusted_close\n" + "".join(
            f"{d},{p!r}\n" for d, p in zip(days, quotes)))
        for read, path, rows in [(lambda p: read_returns_csv(p).values, returns, 100_000),
                                 (ingest_csv, prices, 20_000)]:
            tracemalloc.start()
            try:
                values = read(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(values) == rows
            assert peak < 2 * values.nbytes, \
                f"{path.name}: peak {peak} B for a {values.nbytes} B array"

    def test_read_rejects_wrong_header(self, tmp_path):
        path = make_csv(tmp_path, "a,b\n0,0.1\n", name="r.csv")
        with pytest.raises(DataError, match="expected header"):
            read_returns_csv(path)

    def test_read_rejects_bad_value(self, tmp_path):
        path = make_csv(tmp_path, "index,log_return\n0,zero\n", name="r.csv")
        with pytest.raises(DataError, match="row 2: invalid return"):
            read_returns_csv(path)

    def test_read_rejects_empty_and_missing(self, tmp_path):
        with pytest.raises(DataError, match="empty file"):
            read_returns_csv(make_csv(tmp_path, "", name="e.csv"))
        with pytest.raises(DataError, match="no data rows"):
            read_returns_csv(make_csv(tmp_path, "index,log_return\n", name="h.csv"))
        with pytest.raises(DataError, match="cannot read"):
            read_returns_csv(tmp_path / "gone.csv")


class TestLoadReturnSeries:
    def test_detects_price_header(self, tmp_path):
        rs = load_return_series(make_csv(tmp_path, GOOD_CSV))
        assert len(rs) == 2
        np.testing.assert_allclose(rs.values[0], np.log(101.5 / 100.0), rtol=1e-12)

    def test_detects_return_header(self, tmp_path):
        path = tmp_path / "r.csv"
        write_returns_csv(path, np.array([0.01, 0.02]))
        rs = load_return_series(path)
        np.testing.assert_array_equal(rs.values, [0.01, 0.02])

    def test_rejects_unknown_header(self, tmp_path):
        path = make_csv(tmp_path, "time,value\n1,2\n")
        with pytest.raises(DataError, match="unrecognized header"):
            load_return_series(path)

    def test_reads_the_header_as_the_readers_do(self, tmp_path):
        quoted = make_csv(tmp_path, '"date","adjusted_close"\n' + GOOD_CSV.split("\n", 1)[1])
        np.testing.assert_array_equal(load_return_series(quoted).values,
                                      to_log_returns(ingest_csv(quoted)).values)
        with pytest.raises(DataError, match="empty file"):
            load_return_series(make_csv(tmp_path, "", name="empty.csv"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_return_series(tmp_path / "gone.csv")


class TestBundledFixture:
    def test_loads_and_has_expected_size(self):
        prices = ingest_csv(fixture_path())
        assert len(prices) == 5030
        rs = to_log_returns(prices)
        assert len(rs) == 5029

    def test_frozen_summary_statistics(self):
        rs = load_return_series(fixture_path())
        assert float(np.mean(rs.values)) == pytest.approx(8.101158578085222e-05,
                                                          rel=1e-12)
        assert float(np.std(rs.values)) == pytest.approx(0.011467365483225342,
                                                         rel=1e-12)


class TestAtomicWriteText:
    def test_writes_and_overwrites(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "first\n")
        assert path.read_text(encoding="utf-8") == "first\n"
        atomic_write_text(path, "second\n")
        assert path.read_text(encoding="utf-8") == "second\n"

    def test_leaves_no_temp_files(self, tmp_path):
        atomic_write_text(tmp_path / "out.txt", "x")
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_line_endings_are_preserved(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "a\nb\n")
        assert path.read_bytes() == b"a\nb\n"

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            atomic_write_text(tmp_path / "nodir" / "out.txt", "x")

    def test_writes_chunks_in_order(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, (part for part in ["a,b\n", "", "1,2", "\n"]))
        assert path.read_bytes() == b"a,b\n1,2\n"

    def test_chunks_that_fail_part_way_leave_the_old_file(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "old\n")

        def chunks():
            yield "new " * 100_000     # past any write buffer: the temp file has data
            raise RuntimeError("generator failed")

        with pytest.raises(RuntimeError, match="generator failed"):
            atomic_write_text(path, chunks())
        assert path.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["out.txt"]      # no .tmp-*~ left behind

    @pytest.mark.parametrize("n", [0, 1, BLOCK_LINES, BLOCK_LINES + 1, 2 * BLOCK_LINES + 3])
    def test_csv_chunks_are_the_joined_lines(self, n):
        lines = [f"{i},{i * 0.5!r}" for i in range(n)]
        chunks = list(csv_chunks("i,v", iter(lines)))
        assert "".join(chunks) == "\n".join(["i,v"] + lines) + "\n"
        assert len(chunks) == 1 + -(-n // BLOCK_LINES)


class TestProperties:
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_csv_roundtrip_is_bit_exact(self, values):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "r.csv")
            write_returns_csv(path, np.array(values))
            out = read_returns_csv(path).values
        np.testing.assert_array_equal(out, np.array(values))

    @given(st.lists(st.floats(min_value=-0.05, max_value=0.05),
                    min_size=1, max_size=200),
           st.floats(min_value=0.1, max_value=1000.0))
    @settings(max_examples=100)
    def test_price_path_roundtrip(self, returns, p0):
        r = np.array(returns)
        prices = returns_to_prices(r, p0)
        assert prices[0] == p0
        assert prices.shape == (len(r) + 1,)
        np.testing.assert_allclose(to_log_returns(prices).values, r, atol=1e-12)

    @given(st.integers(min_value=1, max_value=200),
           st.data())
    @settings(max_examples=100)
    def test_window_count_formula(self, n, data):
        length = data.draw(st.integers(min_value=1, max_value=n))
        stride = data.draw(st.integers(min_value=1, max_value=10))
        values = np.sin(np.arange(float(n)) + 1.0) + 1.5
        ds = normalize_and_window(values, length, stride)
        assert len(ds) == (n - length) // stride + 1

    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=4,
                    max_size=60).filter(lambda v: any(x != 0.0 for x in v)))
    @settings(max_examples=100)
    def test_unit_stride_windows_peak_at_one(self, values):
        ds = normalize_and_window(np.array(values), 4, stride=1)
        peaks = np.abs(ds.windows)
        assert peaks.max() == 1.0
        assert peaks.max() <= 1.0
