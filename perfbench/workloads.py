"""The four workloads of the marketgan benchmark and the phases they run.

Every workload is one closed-loop client in one process: each operation
starts only after the previous one finished. A run goes through the same
phases on every workload; the workloads differ in preset and data. 40%
of the run's seconds go to in-process training, the rest to CLI chains.

  setup     fresh processes: interpreter start -> import -> ingest/window ->
            build networks -> first parameter update (setup_probe.py)
  cli       the marketgan CLI as subprocesses: train, train --resume,
            generate, evaluate, report
  train     training.train/resume one epoch at a time, timed by record_hook
  generate  training.generate on the CLI's resumed checkpoint
  evaluate  stylized_facts.evaluate on 5000 heavy-tailed returns drawn from
            the seed
  speed     a fixed reference kernel timed between the operations above;
            timings are reported at the reference speed (class Speed)

The package is driven only through its public API and its CLI.
"""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

GENERATE_RETURNS = 50_000     # returns per generate call, CLI and in-process
EVALUATE_RETURNS = 5_000      # candidate length for stylized_facts.evaluate
TOY_VALUES = 2048             # N(0,1) values in the toy series
MIN_TIMED_STEPS = 100         # p90 needs >= 10 samples beyond it
SETUP_PROBES = 5
GENERATE_CALLS = 40
EVALUATE_CALLS = 300
MIN_TIMED_CHAINS = 2          # CLI chains after the first (warm-up) one
MAX_CHAINS = 7
CHILD_TIMEOUT_S = 150
TRAIN_SHARE = 0.4             # of --seconds for in-process training; the rest is CLI
FACT_NAMES = ("linear_unpredictability", "heavy_tails", "volatility_clustering",
              "gain_loss_asymmetry", "aggregational_gaussianity")
SVG_NAMES = ("acf.svg", "pdf.svg", "returns.svg", "prices.svg")
CLI_STEPS = ("train", "train_resume", "generate", "evaluate", "report")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    variant: str
    data: str                 # "toy" (generated from the seed) or "fixture"
    seq_len: int
    stride: int
    batch: int
    latent: int
    cli_epochs: int           # epochs of the CLI train; the resume adds one
    traced_epochs: int        # epochs of the traced training (first is warm-up)
    optimizer: tuple = ()     # flat config overrides, e.g. (("g_lr", 4e-4),)

    def flat_config(self, seed: int, epochs: int) -> dict:
        """The flat config both the CLI and TrainConfig.from_flat accept."""
        flat = {"gan_variant": self.variant, "epochs": epochs,
                "batch_size": self.batch, "seq_len": self.seq_len,
                "latent_dim": self.latent, "seed": seed,
                "checkpoint_interval": 1}
        flat.update(self.optimizer)
        return flat

    def windows_per_epoch(self, n_windows: int) -> int:
        # training drops a trailing singleton batch
        return n_windows - 1 if n_windows % self.batch == 1 else n_windows


WORKLOADS = {w.name: w for w in (
    Workload("toy-mlp",
             "dense matmuls, per-op autodiff dispatch, Adam over ~100k dense "
             "parameters per network and per-epoch overhead (4 steps per epoch); no conv, "
             "batch norm, attention or gradient penalty",
             "mlp_gan", "toy", 8, 4, 128, 16, cli_epochs=3,
             traced_epochs=40, optimizer=(("g_lr", 4e-4), ("d_lr", 8e-4))),
    Workload("fixture-sagan1d",
             "every conv, conv-transpose and batch-norm op at the documented "
             "shapes, and the only path through attention_forward and softmax; "
             "no double backward",
             "sagan1d", "fixture", 127, 12, 32, 100, cli_epochs=1,
             traced_epochs=5),
    Workload("fixture-wgan-gp",
             "autodiff.grad(create_graph=True) and losses.gradient_penalty with "
             "n_critic 5; the critic has no batch norm and no attention",
             "wgan_gp", "fixture", 127, 12, 32, 100, cli_epochs=1,
             traced_epochs=9),
)}


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return percentile(values, 50)


class Ledger:
    """Counts attempted operations and failures; a failed correctness
    check counts as a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"{what}: {detail}" if detail else what)
        return ok

    def call(self, what: str, fn, *args, **kwargs):
        """Run one operation; an exception is recorded, not raised."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # the harness keeps running and reports it
            self.failed += 1
            self.problems.append(f"{what}: {type(exc).__name__}: {exc}")
            return None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def prepare_data(workload: Workload, seed: int, work: str) -> str:
    """Path of the workload's input CSV; the toy series comes from the seed."""
    from marketgan import market_data
    if workload.data == "fixture":
        return str(market_data.fixture_path())
    path = os.path.join(work, "toy.csv")
    values = np.random.default_rng(seed).normal(0.0, 1.0, TOY_VALUES)
    market_data.write_returns_csv(path, values)
    return path


# ----------------------------------------------------------------------
# setup: fresh processes up to the first parameter update
# ----------------------------------------------------------------------

def measure_setup(workload: Workload, seed: int, data: str, ledger: Ledger,
                  probes: int) -> list:
    """(start, end, seconds to the first update) of each fresh process."""
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        t0 = time.monotonic()
        proc = ledger.call("setup probe", subprocess.run,
                           [sys.executable, probe, workload.name, str(seed), data, repr(t0)],
                           capture_output=True, text=True, env=child_env(), cwd=ROOT,
                           timeout=CHILD_TIMEOUT_S)
        end = time.perf_counter()
        if proc is None:
            continue
        if ledger.check("setup probe exit status", proc.returncode == 0, proc.stderr[-500:]):
            times.append((start, end, float(proc.stdout.strip().splitlines()[-1])))
    return times


# ----------------------------------------------------------------------
# cli: train -> train --resume -> generate -> evaluate -> report
# ----------------------------------------------------------------------

def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def run_cli_chain(workload: Workload, seed: int, data: str, out: str,
                  ledger: Ledger) -> dict | None:
    """One pass of the five CLI commands; wall seconds and bytes per step."""
    os.makedirs(out, exist_ok=True)
    first, resumed, gen, ev = (os.path.join(out, d) for d in ("a", "b", "g", "e"))
    train_args = ["train", "--data", data, "--out", first, "--variant", workload.variant,
                  "--epochs", str(workload.cli_epochs),
                  "--batch-size", str(workload.batch), "--seq-len", str(workload.seq_len),
                  "--latent-dim", str(workload.latent),
                  "--window-stride", str(workload.stride),
                  "--checkpoint-interval", "1", "--seed", str(seed)]
    if workload.optimizer:
        cfg = os.path.join(out, "optimizer.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(dict(workload.optimizer), fh)
        train_args += ["--config", cfg]
    commands = {
        "train": (train_args, first),
        "train_resume": (["train", "--resume", os.path.join(first, "checkpoint.json"),
                          "--data", data, "--out", resumed,
                          "--epochs", str(workload.cli_epochs + 1),
                          "--window-stride", str(workload.stride)], resumed),
        "generate": (["generate", "--checkpoint", os.path.join(resumed, "checkpoint.json"),
                      "--n", str(GENERATE_RETURNS), "--prices", "--p0", "100",
                      "--seed", str(seed), "--out", gen], gen),
        "evaluate": (["evaluate", "--candidate", os.path.join(gen, "generated.csv"),
                      "--reference", data, "--out", ev], ev),
        "report": (["report", "--out", ev], ev),
    }
    seconds, written = {}, {}
    start = time.perf_counter()
    for step in CLI_STEPS:
        args, target = commands[step]
        before = _dir_bytes(target) if os.path.isdir(target) else 0
        t0 = time.perf_counter()
        proc = ledger.call(f"cli {step}", subprocess.run,
                           [sys.executable, "-m", "marketgan.cli"] + args,
                           capture_output=True, text=True, env=child_env(), cwd=ROOT,
                           timeout=CHILD_TIMEOUT_S)
        seconds[step] = time.perf_counter() - t0
        if proc is None or not ledger.check(f"cli {step} exits 0", proc.returncode == 0,
                                            (proc.stderr or "")[-500:]):
            return None
        written[step] = _dir_bytes(target) - before
    end = time.perf_counter()
    _check_cli_outputs(gen, ev, ledger)
    return {"seconds": seconds, "bytes": written, "dir": out, "start": start, "end": end,
            "checkpoint": os.path.join(resumed, "checkpoint.json"),
            "losses": [os.path.join(first, "losses.csv"), os.path.join(resumed, "losses.csv")],
            "generated": os.path.join(gen, "generated.csv"), "evaluated": ev}


def _check_cli_outputs(gen: str, ev: str, ledger: Ledger):
    with open(os.path.join(gen, "generated.csv"), encoding="utf-8") as fh:
        rows = sum(1 for _ in fh) - 1
    ledger.check("generated.csv has n rows", rows == GENERATE_RETURNS, f"{rows} rows")
    try:
        with open(os.path.join(ev, "report.json"), encoding="utf-8") as fh:
            verdicts = json.load(fh).get("verdicts", {})
    except (OSError, ValueError) as exc:
        verdicts = {"error": str(exc)}
    ledger.check("report.json has the five verdicts",
                 sorted(verdicts) == sorted(FACT_NAMES), str(sorted(verdicts)))
    missing = [s for s in SVG_NAMES if not os.path.isfile(os.path.join(ev, s))]
    ledger.check("report wrote four SVGs", not missing, f"missing {missing}")


def read_losses_csv(path: str) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return [tuple(row) for row in list(csv.reader(fh))[1:]]


def loss_rows(history) -> list:
    """LossRecords in the CLI's losses.csv cell format."""
    def cell(v):
        return "" if v is None else repr(float(v))
    return [(str(r.step), str(r.epoch), r.phase, cell(r.d_loss), cell(r.g_loss),
             cell(r.gp_term)) for r in history]


# ----------------------------------------------------------------------
# train: one epoch per train/resume call, timed from record_hook
# ----------------------------------------------------------------------

@dataclass
class EpochTiming:
    start: float
    end: float
    marks: list               # (phase, perf_counter) after each update


class Trainer:
    """Trains from scratch, one epoch per run_epoch() call (train, then
    resume with one more epoch), which continues bit for bit like a
    straight run. Each epoch is timed, with a mark after every update."""

    def __init__(self, workload: Workload, seed: int, dataset, ledger: Ledger,
                 on_epoch=None):
        from marketgan import training
        self.training = training
        self.config = training.TrainConfig.from_flat(workload.flat_config(seed, epochs=1))
        self.dataset = dataset
        self.ledger = ledger
        self.on_epoch = on_epoch
        self.state = None
        self.failed = False
        self.timings: list[EpochTiming] = []
        self._marks: list = []

    def _record_hook(self, rec):
        self._marks.append((rec.phase, time.perf_counter()))

    def run_epoch(self) -> bool:
        if self.failed:
            return False
        t0 = time.perf_counter()
        if self.state is None:
            self.state = self.ledger.call("train", self.training.train, self.config,
                                          self.dataset, record_hook=self._record_hook)
            ok = self.state is not None
        else:
            self.state.config.epochs += 1
            ok = self.ledger.call("resume", self.training.resume, self.state, self.dataset,
                                  record_hook=self._record_hook) is not None
        if not ok:
            self.failed = True
            return False
        self.timings.append(EpochTiming(t0, time.perf_counter(), list(self._marks)))
        self._marks.clear()
        if self.on_epoch is not None:
            self.on_epoch(self.state)
        return True

    @property
    def timed(self) -> list:
        """Epoch timings after the first (warm-up) epoch."""
        return self.timings[1:]

    @property
    def timed_steps(self) -> int:
        return sum(steps_in(t) for t in self.timed)


def steps_in(timing: EpochTiming) -> int:
    return sum(1 for phase, _ in timing.marks if phase == "g")


def check_history(workload: Workload, state, n_windows: int, ledger: Ledger):
    """Finite losses, and per epoch the update counts the config implies."""
    n_critic = state.config.resolved_n_critic()
    batches = -(-workload.windows_per_epoch(n_windows) // workload.batch)
    per_epoch: dict = {}
    finite = True
    for rec in state.history:
        per_epoch.setdefault(rec.epoch, [0, 0])[rec.phase == "g"] += 1
        for v in (rec.d_loss, rec.g_loss, rec.gp_term):
            finite = finite and (v is None or math.isfinite(v))
    ledger.attempted += len(state.history)   # every update is an operation
    ledger.check("every recorded loss is finite", finite)
    want = [batches, -(-batches // n_critic)]
    wrong = {e: c for e, c in per_epoch.items() if c != want}
    ledger.check("updates per epoch match the config",
                 not wrong and len(per_epoch) == state.epoch,
                 f"want {want} per epoch, got {wrong}")


def _pace(speed, start: float, end: float) -> float:
    return 1.0 if speed is None else speed.factor(start, end)


def step_samples_ms(timings, speed=None) -> list:
    """Step = n_critic D updates + 1 G update; a step ends at its G record.
    With a Speed, each epoch's steps are at reference pace."""
    out = []
    for t in timings:
        pace = _pace(speed, t.start, t.end)
        prev = t.start
        for phase, at in t.marks:
            if phase == "g":
                out.append((at - prev) * 1e3 * pace)
                prev = at
    return out


def update_samples_ms(timings, phase: str) -> list:
    """record_hook intervals within an epoch (the first of each epoch,
    which also holds the epoch's start-up, is left out)."""
    out = []
    for t in timings:
        for (_, a), (ph, b) in zip(t.marks, t.marks[1:]):
            if ph == phase:
                out.append((b - a) * 1e3)
    return out


def epoch_overhead_ms(timings) -> list:
    """Epoch wall time not spent in updates: shuffle and batching before the
    first update (less a typical D update) plus the diversity diagnostic and
    loop after the last one."""
    d_typ = median(update_samples_ms(timings, "d") or [0.0]) / 1e3
    return [((t.end - t.marks[-1][1]) + max(0.0, t.marks[0][1] - t.start - d_typ)) * 1e3
            for t in timings if t.marks]


def windows_per_s(workload: Workload, n_windows: int, timings, speed=None) -> float:
    """Windows consumed by D updates per second of epoch wall time (per-epoch
    overhead included), over the median epoch so that a burst of machine
    noise in one epoch does not move it. With a Speed, at reference pace."""
    return workload.windows_per_epoch(n_windows) / median(
        [(t.end - t.start) * _pace(speed, t.start, t.end) for t in timings])


# ----------------------------------------------------------------------
# generate and evaluate
# ----------------------------------------------------------------------

def no_tick():
    """Stands in for Speed.tick where no reference kernel is timed."""


def generate_windows(workload: Workload) -> int:
    return -(-GENERATE_RETURNS // workload.seq_len)


def measure_generate(workload: Workload, state, seed: int, ledger: Ledger, calls: int,
                     tick=no_tick):
    """(start, end, windows/s) of each training.generate call, and the first
    call's returns."""
    from marketgan import training
    n = generate_windows(workload)
    rates, first = [], None
    for _ in range(calls):
        tick()
        t0 = time.perf_counter()
        windows = ledger.call("generate", training.generate, state, n, seed)
        t1 = time.perf_counter()
        if windows is None:
            continue
        if first is None:
            first = windows.reshape(-1)[:GENERATE_RETURNS] * state.data_scale
        rates.append((t0, t1, n / (t1 - t0)))
    tick()
    return rates, first


def candidate_returns(seed: int, n: int = EVALUATE_RETURNS):
    """n heavy-tailed daily returns (Student t, 4 degrees of freedom, scale
    1%) from the seed: the candidate that evaluate scores. evaluate's cost
    follows the sign pattern of its input (numpy's float power is about 20x
    slower on negative bases), so samples of a model in training, whose
    sign balance drifts from model to model, made its time swing with the
    seed and with how far training got."""
    return np.random.default_rng(seed).standard_t(4, n) * 0.01


def check_generated_matches_cli(values, path: str, ledger: Ledger):
    with open(path, newline="", encoding="utf-8") as fh:
        cells = [row[1] for row in list(csv.reader(fh))[1:]]
    same = values is not None and cells == [repr(float(v)) for v in values]
    ledger.check("training.generate matches the CLI's generated.csv", same)


def measure_evaluate(candidate, reference, ledger: Ledger, calls: int, tick=no_tick):
    """(start, end, ms) of each stylized_facts.evaluate call; each report is
    checked."""
    from marketgan import stylized_facts
    times = []
    for _ in range(calls):
        tick()
        t0 = time.perf_counter()
        report = ledger.call("evaluate", stylized_facts.evaluate, candidate, reference)
        t1 = time.perf_counter()
        if report is None:
            continue
        times.append((t0, t1, (t1 - t0) * 1e3))
        ledger.check("evaluate returns the five verdicts",
                     sorted(report.verdicts) == sorted(FACT_NAMES))
    tick()
    return times


def peak_rss_mib() -> float:
    """Peak RSS of the largest child process waited for so far."""
    import resource
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# speed: the shared machine's pace, from a fixed reference kernel
# ----------------------------------------------------------------------

REFERENCE_NOMINAL_MS = 2.0    # about the median burst on the build machine (README)
REFERENCE_GAP_S = 0.2         # at most one tick per this many seconds
REFERENCE_WINDOW_S = 5.0      # bursts this close to an interval set its factor
REFERENCE_MIN_BURSTS = 9


class Speed:
    """Times a fixed numpy kernel between the benchmark's operations.

    The kernel does not call marketgan and its inputs do not depend on the
    seed, so a change to the package cannot move it; what moves it is the
    pace of the machine, which on a shared host changes from one stretch of
    minutes to the next. A timing is reported at reference pace: multiplied
    by REFERENCE_NOMINAL_MS over the median burst around it. The kernel
    mixes what the workloads spend their time on: small ops dispatched from
    Python, a BLAS matmul and a pass over memory larger than the L2 cache."""

    def __init__(self):
        rng = np.random.default_rng(20210611)
        x, w = rng.normal(size=(32, 64)), rng.normal(size=(64, 64)) / 8.0
        a, b = rng.normal(size=(128, 256)), rng.normal(size=(256, 256))
        u, v, out = rng.normal(size=400_000), rng.normal(size=400_000), np.empty(400_000)

        def dispatch():
            y = x
            for _ in range(24):
                y = np.tanh(y @ w) * 0.9 + 0.05

        self._parts = (dispatch, lambda: a @ b, lambda: np.multiply(u, v, out=out))
        self.samples: list = []   # (perf_counter at the burst's end, ms)
        self._last = -math.inf

    def _burst_ms(self) -> float:
        """Each part once to warm up after whatever ran before, then timed."""
        total = 0.0
        for part in self._parts:
            part()
            t0 = time.perf_counter()
            part()
            total += time.perf_counter() - t0
        return total * 1e3

    def tick(self):
        """One burst, unless the last was less than REFERENCE_GAP_S ago.
        Call it only right after the process has been computing: after
        waiting for a child process the bursts read up to twice as slow,
        whatever the machine's pace."""
        if time.perf_counter() - self._last >= REFERENCE_GAP_S:
            ms = self._burst_ms()
            self._last = time.perf_counter()
            self.samples.append((self._last, ms))

    def factor(self, start: float, end: float) -> float:
        """Reference pace over the machine's pace around [start, end]: a
        time measured then, multiplied by this, is the time at reference pace."""
        near = [ms for at, ms in self.samples
                if start - REFERENCE_WINDOW_S <= at <= end + REFERENCE_WINDOW_S]
        if len(near) < REFERENCE_MIN_BURSTS:
            mid = (start + end) / 2
            near = [ms for _, ms in sorted(self.samples, key=lambda s: abs(s[0] - mid))
                    [:REFERENCE_MIN_BURSTS]]
        return REFERENCE_NOMINAL_MS / median(near)

    def median_ms(self) -> float:
        return median([ms for _, ms in self.samples])
