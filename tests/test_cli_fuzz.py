"""Fuzz test of the CLI's exit-code contract, run in process.

Hypothesis mutates every input of every command: the raw bytes of a file,
rows and cells of a CSV, fields of a JSON config or checkpoint, and the
flags (also flags given after ``train --resume``). Whatever it makes,
``main`` must return 0, 2, 3 or 4 and print no traceback.

Numbers that size an allocation or a loop (epochs, widths, ``--n``,
``--bins``) are drawn from small sets, so every example stays cheap.
Inputs once found to break the contract are pinned as explicit examples.
"""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import huge_config_checkpoint, overflowing_series
from marketgan.cli import main
from marketgan.market_data import write_returns_csv

EXIT_CODES = {0, 2, 3, 4}
# drawing a checkpoint mutant re-reads the whole document, which the
# too_slow health check can count against the strategy
FUZZ = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])

TRAIN_FLAGS = ["--variant", "mlp_gan", "--epochs", "1", "--batch-size", "8",
               "--seq-len", "8", "--latent-dim", "4", "--seed", "5"]
# the checkpoint that generate and train --resume read: a small conv preset
CKPT_FLAGS = ["--variant", "dcgan1d", "--epochs", "1", "--batch-size", "8",
              "--seq-len", "32", "--latent-dim", "4", "--seed", "3"]

SMALL_INTS = ["-1", "0", "1", "2", "3", "8", "32"]
REALS = ["nan", "inf", "-inf", "-1", "0", "1e-308", "1e308", "0.5", "10", "x", "1.5e"]
TRAIN_FLAG_VALUES = {
    "--variant": ["mlp_gan", "dcgan1d", "wgan_gp", "sagan1d", "gan"],
    "--epochs": ["-1", "0", "1", "2", "x"],
    "--batch-size": SMALL_INTS,
    "--seq-len": SMALL_INTS + ["33"],
    "--latent-dim": SMALL_INTS,
    "--n-critic": SMALL_INTS,
    "--window-stride": SMALL_INTS + ["1000"],
    "--checkpoint-interval": SMALL_INTS,
    "--seed": ["-1", "0", "5", str(2 ** 64), "1.5"],
    "--gp-lambda": REALS,
}
GENERATE_FLAG_VALUES = {
    "--n": ["-1", "0", "1", "7", "100", "x"],
    "--seed": ["-1", "0", "7", str(2 ** 64)],
    "--p0": REALS,
}
EVALUATE_FLAG_VALUES = {
    "--max-lag": ["-1", "0", "1", "20", "1000", "1999", "2000", "x"],
    "--bins": ["-1", "0", "1", "2", "50", "x"],
}

CELLS = st.one_of(
    st.sampled_from(["", " ", "nan", "inf", "-inf", "1e308", "-1e308", "0", "-0.0",
                     "1e-320", "abc", "2020-02-30", "2020-01-01", "1,2", '"', "é"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10 ** 6, 10 ** 6).map(str),
)
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.sampled_from([-1, 0, 1, 2, 3, 8]),
    st.sampled_from([0.5, 1.5, -0.0, 1e308, float("nan"), float("inf")]),
    st.text(max_size=6), st.just([]), st.just({}), st.just([1, 2]),
)


class Drawn:
    """Stands in for ``st.data()`` in an explicit example: each draw returns
    the next of the given values, in the order the property draws."""

    def __init__(self, *values):
        self.values = list(values)

    def draw(self, strategy, label=None):
        return self.values.pop(0)

    def __repr__(self):
        return f"Drawn({', '.join(map(repr, self.values))})"


def run(argv) -> int:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code in EXIT_CODES, (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), (argv, err.getvalue())
    return code


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """One valid input of each kind, for the mutations to start from."""
    root = tmp_path_factory.mktemp("fuzz")
    data = root / "returns.csv"
    write_returns_csv(data, np.random.default_rng(0).normal(0.0, 0.02, 60))
    prices = root / "prices.csv"
    path = 100.0 * np.exp(np.cumsum(np.random.default_rng(1).normal(0.0, 0.01, 60)))
    prices.write_text("date,adjusted_close\n" + "".join(
        f"2020-{1 + i // 28:02d}-{1 + i % 28:02d},{p!r}\n" for i, p in enumerate(path)))
    trained = root / "trained"
    assert run(["train", "--data", str(data), "--out", str(trained)] + CKPT_FLAGS) == 0
    big = root / "big.csv"
    write_returns_csv(big, np.random.default_rng(2).standard_t(5, 2000) * 0.01)
    # finite t(4) returns whose aggregated block sums overflow to inf: once
    # a traceback, because the profile re-checked the sums as an input series
    block_overflow = root / "block_overflow.csv"
    cand = np.random.default_rng(3).standard_t(4, 5000) * 0.01
    cand[100:164] = 1e307
    write_returns_csv(block_overflow, cand)
    evaluated = root / "evaluated"
    assert run(["evaluate", "--candidate", str(big), "--reference", str(data),
                "--out", str(evaluated)]) == 0
    return {"data": data, "prices": prices, "ckpt": trained / "checkpoint.json",
            "huge_ckpt": huge_config_checkpoint(trained / "checkpoint.json",
                                                root / "huge.json"),
            "big": big, "overflow": overflowing_series(root / "overflow.csv"),
            # "big" with its first return replaced where a power of the second
            # moment overflowed: at 6.56e77 in the excess kurtosis at aggregation
            # scale 63 (6.55e77 itself stays just below), at 2.52e104 in the skewness
            "big_6.56e77": overflowing_series(root / "big_6.56e77.csv", 6.56e77, 0),
            "big_2.52e104": overflowing_series(root / "big_2.52e104.csv", 2.52e104, 0),
            "block_overflow": block_overflow,
            "evaluated": evaluated}


# ----------------------------------------------------------------------
# mutations
# ----------------------------------------------------------------------

@st.composite
def byte_mutant(draw, original: bytes) -> bytes:
    """Overwrite, insert, delete or cut off a few bytes."""
    data = bytearray(original)
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["set", "insert", "delete", "truncate"]))
        if op == "set" and pos < len(data):
            data[pos] = draw(st.integers(0, 255))
        elif op == "insert":
            data[pos:pos] = draw(st.binary(min_size=1, max_size=8))
        elif op == "delete":
            del data[pos:pos + draw(st.integers(1, 16))]
        else:
            del data[pos:]
    return bytes(data)


@st.composite
def csv_mutant(draw, text: str) -> str:
    """Replace a cell, drop, repeat or reshape a row (the header included)."""
    rows = [line.split(",") for line in text.splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        op = draw(st.sampled_from(["cell", "cell", "drop", "repeat", "extra", "short"]))
        if op == "cell":
            j = draw(st.integers(0, len(rows[i]) - 1)) if rows[i] else 0
            rows[i][j:j + 1] = [draw(CELLS)]
        elif op == "drop":
            del rows[i]
        elif op == "repeat":
            rows.insert(i, list(rows[i]))
        elif op == "extra":
            rows[i].append(draw(CELLS))
        else:
            rows[i] = rows[i][:-1]
    return "".join(",".join(row) + "\n" for row in rows)


def _paths(doc, prefix=()):
    """Every (key or index) path into a JSON document."""
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _paths(value, prefix + (i,))


@st.composite
def json_mutant(draw, doc):
    """Set, delete or add one field anywhere in a JSON document."""
    doc = json.loads(json.dumps(doc))
    path = draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return draw(JSON_VALUES)
    *outer, last = path
    owner = doc
    for part in outer:
        owner = owner[part]
    op = draw(st.sampled_from(["set", "set", "delete", "add"]))
    if op == "set":
        owner[last] = draw(JSON_VALUES)
    elif op == "delete":
        del owner[last]
    elif isinstance(owner, dict):
        owner[draw(st.sampled_from(["bogus", "data", "window_stride", "kind"]))] = \
            draw(JSON_VALUES)
    else:
        owner.append(draw(JSON_VALUES))
    return doc


def flags(table: dict):
    """Up to three flags of a command with values from ``table``."""
    return st.lists(st.sampled_from(sorted(table)).flatmap(
        lambda flag: st.sampled_from(table[flag]).map(lambda value: [flag, value])),
        max_size=3).map(lambda pairs: [s for pair in pairs for s in pair])


def file_mutant(text: str):
    """A CSV or JSON file's text, mutated as bytes or as CSV rows."""
    return st.one_of(byte_mutant(text.encode()), csv_mutant(text).map(str.encode))


# ----------------------------------------------------------------------
# one property per command
# ----------------------------------------------------------------------

@FUZZ
@given(data=st.data())
def test_train(inputs, data):
    source = data.draw(st.sampled_from(["data", "prices"]))
    target = data.draw(st.sampled_from(["csv", "config", "flags"]))
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        csv_path = tmp / "input.csv"
        argv = ["train", "--data", str(csv_path), "--out", str(tmp / "out")] + TRAIN_FLAGS
        text = inputs[source].read_text()
        if target == "csv":
            csv_path.write_bytes(data.draw(file_mutant(text)))
        else:
            csv_path.write_text(text)
        if target == "config":
            config = {"gan_variant": "mlp_gan", "epochs": 1, "batch_size": 8, "seq_len": 8,
                      "latent_dim": 4, "data": str(csv_path)}
            mutant = data.draw(json_mutant(config))
            if isinstance(mutant, dict):
                mutant.setdefault("epochs", 1)  # not the default 1000, which takes minutes
            cfg_path = tmp / "config.json"
            cfg_path.write_text(json.dumps(mutant))
            argv = ["train", "--config", str(cfg_path), "--out", str(tmp / "out")]
        argv += data.draw(flags(TRAIN_FLAG_VALUES))
        run(argv)


@FUZZ
@given(data=st.data(), source=st.just("ckpt"))
@example(data=Drawn(False, []), source="huge_ckpt")
def test_train_resume(inputs, data, source):
    ckpt = inputs[source]
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        argv = ["train", "--resume", str(ckpt), "--data", str(inputs["data"]),
                "--out", str(tmp / "out")]
        if data.draw(st.booleans()):
            config = json.loads(ckpt.read_text())["config"]
            cfg_path = tmp / "config.json"
            cfg_path.write_text(json.dumps(data.draw(json_mutant(config))))
            argv += ["--config", str(cfg_path)]
        run(argv + data.draw(flags(TRAIN_FLAG_VALUES)))


@FUZZ
@given(data=st.data(), source=st.just("ckpt"))
@example(data=Drawn("none", False, []), source="huge_ckpt")
def test_generate(inputs, data, source):
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        ckpt = tmp / "checkpoint.json"
        text = inputs[source].read_text()
        how = data.draw(st.sampled_from(["bytes", "json", "none"]))
        if how == "bytes":
            ckpt.write_bytes(data.draw(byte_mutant(text.encode())))
        elif how == "json":
            ckpt.write_text(json.dumps(data.draw(json_mutant(json.loads(text)))))
        else:
            ckpt.write_text(text)
        argv = ["generate", "--checkpoint", str(ckpt), "--n", "20", "--out", str(tmp / "g")]
        if data.draw(st.booleans()):
            argv += ["--prices", "--p0", "100"]
        run(argv + data.draw(flags(GENERATE_FLAG_VALUES)))


@FUZZ
@given(data=st.data(), candidate=st.just("big"), reference=st.just("big"),
       mutate=st.just(True))
@example(data=Drawn([]), candidate="overflow", reference="big", mutate=False)
@example(data=Drawn([]), candidate="big", reference="overflow", mutate=False)
@example(data=Drawn([]), candidate="big_6.56e77", reference="big", mutate=False)
@example(data=Drawn([]), candidate="big_2.52e104", reference="big", mutate=False)
@example(data=Drawn([]), candidate="block_overflow", reference="big", mutate=False)
def test_evaluate(inputs, data, candidate, reference, mutate):
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        paths = {}
        for role, source in (("candidate", candidate), ("reference", reference)):
            paths[role] = tmp / f"{role}.csv"
            shutil.copy(inputs[source], paths[role])
        if mutate:
            mutated = paths[data.draw(st.sampled_from(sorted(paths)))]
            mutated.write_bytes(data.draw(file_mutant(mutated.read_text())))
        code = run(["evaluate", "--candidate", str(paths["candidate"]),
                    "--reference", str(paths["reference"]), "--out", str(tmp / "e")]
                   + data.draw(flags(EVALUATE_FLAG_VALUES)))
        if code == 0:  # what evaluate writes is standard JSON and renders
            json.loads((tmp / "e" / "report.json").read_text(),
                       parse_constant=lambda name: pytest.fail(f"report.json has {name}"))
            assert run(["report", "--out", str(tmp / "e")]) == 0


def test_evaluate_block_sums_that_overflow_exit_4(inputs, tmp_path):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["evaluate", "--candidate", str(inputs["block_overflow"]),
                     "--reference", str(inputs["data"]), "--out", str(tmp_path / "e")])
    assert code == 4
    # the mean's sum overflows too, and the report names its first non-finite entry
    assert err.getvalue() == ("error: statistic moments.mean is not finite: the values "
                              "are too large for float64\n")
    assert not (tmp_path / "e" / "report.json").exists()


@FUZZ
@given(data=st.data())
def test_report(inputs, data):
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        out = tmp / "e"
        shutil.copytree(inputs["evaluated"], out)
        name = data.draw(st.sampled_from(["acf.csv", "pdf.csv", "returns.csv", "prices.csv"]))
        (out / name).write_bytes(data.draw(file_mutant((out / name).read_text())))
        run(["report", "--out", str(out)])
