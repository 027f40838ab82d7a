"""marketgan benchmark: one workload per run, checked, with every metric by name.

    python3 perfbench/run.py --workload toy-mlp --seed 1 --seconds 20 --trace 0

Run it from the repository root (the package is imported from ./src).
--trace 0 prints the end-to-end metrics; --trace 1 runs the traced variant
and prints the per-layer metrics. The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}; `failed` over
`attempted` is the run's error rate. Lines above it are a readable
summary. A full record of the run goes to perfbench/out/. See README.md
in this directory for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys

# BLAS threads are pinned before numpy loads; children inherit the setting
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(min(BLAS_THREADS, os.cpu_count() or 1))

import time  # noqa: E402

import workloads as wl  # noqa: E402

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

END_TO_END = {
    "setup_s": "s",
    "train_windows_per_s": "windows/s",
    "step_ms.p50": "ms",
    "step_ms.p90": "ms",
    "pipeline_s": "s",
    "generate_windows_per_s": "windows/s",
    "evaluate_ms.p50": "ms",
    "evaluate_ms.p90": "ms",
    "peak_rss_mib": "MiB",
}

# per-layer metrics that every workload exercises; the printed breakdown
# also carries the workload-specific ones (conv, batch norm, attention,
# softmax, gradient penalty, double backward)
UNIVERSAL_OP_KINDS = ("matmul", "elementwise", "activation", "reduce", "shape")
PER_LAYER = {
    "autodiff.backward.ms_per_step": "ms",
    **{f"autodiff.op.{k}.{m}": u for k in UNIVERSAL_OP_KINDS
       for m, u in (("fwd_ms_per_step", "ms"), ("bwd_ms_per_step", "ms"),
                    ("calls_per_step", "count"))
       if not (k == "activation" and m == "bwd_ms_per_step")},
    "autodiff.op.calls_per_step": "count",
    "autodiff.op.matmul.flops_per_step": "flop",
    "autodiff.op.matmul.bytes_per_step": "bytes",
    "autodiff.self_ms_per_step": "ms",
    "layers.forward.generator.ms_per_step": "ms",
    "layers.forward.discriminator.ms_per_step": "ms",
    "layers.forward_eval.ms_per_window": "ms",
    "layers.self_ms_per_step": "ms",
    "losses.ms_per_step": "ms",
    "losses.self_ms_per_step": "ms",
    "optim.step.ms_per_update": "ms",
    "optim.param_count": "count",
    "optim.self_ms_per_step": "ms",
    "training.update_ms.d.p50": "ms",
    "training.update_ms.g.p50": "ms",
    "training.epoch_overhead_ms": "ms",
    "training.diversity_diagnostic.ms_per_epoch": "ms",
    "training.self_ms_per_step": "ms",
    "training.save_checkpoint.ms": "ms",
    "training.load_checkpoint.ms": "ms",
    "training.checkpoint_bytes": "bytes",
    "market_data.load_return_series.ms": "ms",
    "market_data.normalize_and_window.ms": "ms",
    **{f"stylized_facts.{f}.ms": "ms" for f in (
        "acf", "moments", "volatility_clustering_score",
        "aggregational_gaussianity_profile", "leverage_effect_score",
        "ks_statistic", "wasserstein1")},
    **{f"plots.render.{p}.{m}": u for p in ("acf", "pdf", "returns", "prices")
       for m, u in (("ms", "ms"), ("svg_bytes", "bytes"))},
    **{f"cli.{step}.s": "s" for step in wl.CLI_STEPS},
    "cli.bytes_written": "bytes",
    "trace.train_windows_per_s.untraced": "windows/s",
    "trace.train_windows_per_s.traced": "windows/s",
    "trace.overhead_pct": "%",
}

TRACED_REPEATS = 3          # ingest, checkpoint, generate and render calls
TRACED_EVALUATE_CALLS = 20


def build_block() -> dict:
    """The numeric build: timings and byte-identity hold only within one."""
    import numpy as np
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS"},
    }


# ----------------------------------------------------------------------
# shared by both runs
# ----------------------------------------------------------------------

ROUNDS = 30   # the untraced run spreads every activity over this many rounds


def _same_bytes(a, b) -> bool:
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def _quota(total: int, rnd: int) -> int:
    """Calls in round ``rnd`` so that the rounds add up to ``total``."""
    return total * (rnd + 1) // ROUNDS - total * rnd // ROUNDS


def start_session(w, seed, work):
    from marketgan import market_data
    data = wl.prepare_data(w, seed, work)
    returns = market_data.load_return_series(data)
    dataset = market_data.normalize_and_window(returns.values, w.seq_len, w.stride)
    return data, returns, dataset


def cli_chain(w, seed, data, work, ledger, chains) -> float:
    """Run one CLI chain; reruns must reproduce the first checkpoint byte
    for byte. Returns the wall seconds spent."""
    t0 = time.perf_counter()
    chain = wl.run_cli_chain(w, seed, data, os.path.join(work, f"chain{len(chains)}"), ledger)
    if chain is not None:
        if chains:
            ledger.check("CLI reruns give a byte-identical checkpoint",
                         _same_bytes(chain["checkpoint"], chains[0]["checkpoint"]))
        chains.append(chain)
    return time.perf_counter() - t0


def straight_trainer(w, seed, dataset, work, ledger):
    """A Trainer that saves its checkpoint at the CLI's resumed length."""
    from marketgan import training
    straight = os.path.join(work, "straight.json")

    def on_epoch(state):
        if state.epoch == w.cli_epochs + 1:
            ledger.call("save checkpoint", training.save_checkpoint, state, straight)

    return wl.Trainer(w, seed, dataset, ledger, on_epoch=on_epoch), straight


def check_training(w, trainer, chains, straight, n_windows, ledger):
    """Finite losses and update counts; and the in-process run must repeat
    the CLI run of the same seed: the same loss trace (train and resume),
    and a straight checkpoint byte-identical to the resumed one."""
    while len(trainer.timings) < w.cli_epochs + 2 and trainer.run_epoch():
        pass
    state = trainer.state
    if state is None:
        return
    wl.check_history(w, state, n_windows, ledger)
    if not chains:
        return
    cli_rows = [row for path in chains[0]["losses"] for row in wl.read_losses_csv(path)]
    ledger.check("same seed gives the same loss trace (CLI vs in-process)",
                 wl.loss_rows(state.history)[: len(cli_rows)] == cli_rows,
                 f"{len(cli_rows)} CLI records")
    ledger.check("resumed checkpoint is byte-identical to a straight run",
                 os.path.exists(straight) and _same_bytes(straight, chains[0]["checkpoint"]))


# ----------------------------------------------------------------------
# untraced run: the end-to-end metrics
# ----------------------------------------------------------------------

def run_untraced(w, seed, seconds, work, ledger, sizes) -> tuple[dict, dict]:
    """Training, CLI chains, generate and evaluate calls and set-up probes
    are interleaved over ROUNDS rounds, so that every metric samples the
    whole run rather than one stretch of it, and a reference kernel is
    timed between them (wl.Speed) so that every timing is reported at
    reference pace. Each round evaluates a fresh candidate series."""
    from marketgan import training
    speed = wl.Speed()
    tick = speed.tick
    data, returns, dataset = start_session(w, seed, work)
    chains: list = []
    cli_spent = cli_chain(w, seed, data, work, ledger, chains)   # warm-up, not timed
    peak_rss = wl.peak_rss_mib()        # the five commands of one chain
    loaded = None
    if chains:
        loaded = ledger.call("load checkpoint", training.load_checkpoint,
                             chains[0]["checkpoint"])
    if loaded is not None:
        _, first = wl.measure_generate(w, loaded, seed, ledger, 1)   # warm-up
        wl.check_generated_matches_cli(first, chains[0]["generated"], ledger)

    trainer, straight = straight_trainer(w, seed, dataset, work, ledger)
    train_budget = wl.TRAIN_SHARE * seconds
    cli_budget = (1 - wl.TRAIN_SHARE) * seconds
    train_spent = 0.0
    setup, generated, evaluated = [], [], []
    for rnd in range(ROUNDS):
        share = (rnd + 1) / ROUNDS
        while (train_spent < share * train_budget
               or trainer.timed_steps < share * sizes["min_steps"]):
            t0 = time.perf_counter()
            if not trainer.run_epoch():
                break
            train_spent += time.perf_counter() - t0
            tick()
        if loaded is not None:
            generated += wl.measure_generate(w, loaded, seed, ledger,
                                             _quota(sizes["generate_calls"], rnd), tick)[0]
        evaluated += wl.measure_evaluate(wl.candidate_returns(seed * ROUNDS + rnd),
                                         returns.values, ledger,
                                         _quota(sizes["evaluate_calls"], rnd), tick)
        setup += wl.measure_setup(w, seed, data, ledger, _quota(sizes["probes"], rnd))
        timed_chains = len(chains) - 1       # the first is warm-up
        if chains and len(chains) < sizes["max_chains"] and (
                cli_spent < share * cli_budget or timed_chains < share * sizes["min_chains"]):
            cli_spent += cli_chain(w, seed, data, work, ledger, chains)
    check_training(w, trainer, chains, straight, len(dataset), ledger)

    def paced(samples):        # times at reference pace
        return [value * speed.factor(start, end) for start, end, value in samples]

    timed = trainer.timed
    # per CLI command, the median over the timed chains at each chain's pace
    paced_steps = [{step: secs * speed.factor(c["start"], c["end"])
                    for step, secs in c["seconds"].items()} for c in chains[1:]]
    measured = {"setup_s": paced(setup), "step_ms": wl.step_samples_ms(timed, speed),
                "pipeline_s": paced_steps, "evaluate_ms": paced(evaluated),
                "generate_windows_per_s": [rate / speed.factor(start, end)
                                           for start, end, rate in generated]}
    raw = {"setup_s": [v for *_, v in setup], "step_ms": wl.step_samples_ms(timed),
           "pipeline_s": [c["seconds"] for c in chains[1:]],
           "evaluate_ms": [v for *_, v in evaluated],
           "generate_windows_per_s": [v for *_, v in generated]}

    def summarise(samples, pace):
        out = {}
        if samples["setup_s"]:
            out["setup_s"] = wl.median(samples["setup_s"])
        if timed:
            out["train_windows_per_s"] = wl.windows_per_s(w, len(dataset), timed, pace)
            out["step_ms.p50"] = wl.percentile(samples["step_ms"], 50)
            out["step_ms.p90"] = wl.percentile(samples["step_ms"], 90)
        if samples["pipeline_s"]:
            out["pipeline_s"] = sum(wl.median([c[step] for c in samples["pipeline_s"]])
                                    for step in wl.CLI_STEPS)
        if samples["generate_windows_per_s"]:
            out["generate_windows_per_s"] = wl.median(samples["generate_windows_per_s"])
        if samples["evaluate_ms"]:
            out["evaluate_ms.p50"] = wl.percentile(samples["evaluate_ms"], 50)
            out["evaluate_ms.p90"] = wl.percentile(samples["evaluate_ms"], 90)
        out["peak_rss_mib"] = peak_rss
        return out

    metrics = summarise(measured, speed)
    wall = summarise(raw, None)
    extra = {"wall_clock": wall,
             "reference_ms": {"median": speed.median_ms(), "bursts": len(speed.samples),
                              "nominal": wl.REFERENCE_NOMINAL_MS},
             "samples": {**measured, "timed_epochs": len(timed)}}
    return metrics, extra


# ----------------------------------------------------------------------
# traced run: the per-layer metrics
# ----------------------------------------------------------------------

def run_traced(w, seed, seconds, work, ledger, sizes, spans_path) -> tuple[dict, dict]:
    """Traced training alternates epoch by epoch with an untraced reference
    of the same seed, so both see the same stretch of the machine; then the
    other traced phases. The wrappers exist only between install() and
    remove()."""
    import marketgan
    import marketgan.cli  # noqa: F401  (imports every module the tracer wraps)
    from marketgan import market_data, training

    from tracing import Tracer

    data, returns, dataset = start_session(w, seed, work)
    chains: list = []
    cli_chain(w, seed, data, work, ledger, chains)
    tracer = Tracer()
    reference, straight = straight_trainer(w, seed, dataset, work, ledger)
    traced = wl.Trainer(w, seed, dataset, ledger)
    while (len(traced.timings) < sizes.get("traced_epochs", w.traced_epochs)
           and reference.run_epoch()):
        tracer.install(marketgan)
        try:
            if traced.timings:
                with tracer.phase("train"):
                    ok = traced.run_epoch()
            else:
                ok = traced.run_epoch()          # warm-up, not recorded
        finally:
            tracer.remove()
        if not ok:
            break
    began = time.perf_counter()            # the reference goes on alone
    while time.perf_counter() - began < wl.TRAIN_SHARE * seconds and reference.run_epoch():
        pass
    check_training(w, reference, chains, straight, len(dataset), ledger)
    state = traced.state
    if state is not None and reference.state is not None:
        ledger.check("traced run gives the untraced loss trace",
                     wl.loss_rows(state.history)
                     == wl.loss_rows(reference.state.history)[: len(state.history)])

    tracer.install(marketgan)
    svg_bytes = {}
    ckpt = os.path.join(work, "traced-checkpoint.json")
    try:
        with tracer.phase("ingest"):
            for _ in range(TRACED_REPEATS):
                market_data.normalize_and_window(
                    market_data.load_return_series(data).values, w.seq_len, w.stride)
        loaded = None
        with tracer.phase("checkpoint"):
            for _ in range(TRACED_REPEATS):
                ledger.call("save checkpoint", training.save_checkpoint, state, ckpt)
                loaded = ledger.call("load checkpoint", training.load_checkpoint, ckpt)
        if loaded is not None:
            with tracer.phase("generate"):
                wl.measure_generate(w, loaded, seed, ledger, TRACED_REPEATS)
        with tracer.phase("evaluate"):
            wl.measure_evaluate(wl.candidate_returns(seed), returns.values, ledger,
                                sizes["traced_evaluate_calls"])
        if chains:
            with tracer.phase("plots"):
                for plot in ("acf", "pdf", "returns", "prices"):
                    svg = os.path.join(work, f"{plot}.svg")
                    render = getattr(marketgan.plots, f"render_{plot}")
                    for _ in range(TRACED_REPEATS):
                        ledger.call(f"render {plot}", render,
                                    os.path.join(chains[0]["evaluated"], f"{plot}.csv"), svg)
                    if os.path.exists(svg):
                        svg_bytes[plot] = os.path.getsize(svg)
        tracer.write_spans(spans_path)
    finally:
        tracer.remove()

    breakdown = ledger.call("per-layer breakdown", layer_breakdown, w, tracer, traced,
                            reference, len(dataset), ckpt, chains, svg_bytes) or {}
    metrics = {k: breakdown[k] for k in PER_LAYER if k in breakdown}
    return metrics, {"breakdown": breakdown}


def layer_breakdown(w, tracer, traced, reference, n_windows, ckpt, chains,
                    svg_bytes) -> dict:
    """Every per-layer figure of the traced run. Op kinds report self time;
    named functions report inclusive time of their calls."""
    from tracing import OP_KINDS

    out = {}
    train = tracer.summary("train")
    state = traced.state
    steps = traced.timed_steps

    def per_step(total):
        return total / steps

    def total(summary, names, field):
        return sum(summary[n][field] for n in names if n in summary)

    for kind, fns in OP_KINDS.items():
        names = [f"autodiff.{f}" for f in fns]
        out[f"autodiff.op.{kind}.fwd_ms_per_step"] = per_step(total(train, names, "fwd_self_ms"))
        out[f"autodiff.op.{kind}.bwd_ms_per_step"] = per_step(total(train, names, "bwd_self_ms"))
        out[f"autodiff.op.{kind}.calls_per_step"] = per_step(total(train, names, "outer_calls"))
        if kind in ("matmul", "conv1d", "conv1d_transpose"):
            out[f"autodiff.op.{kind}.flops_per_step"] = per_step(total(train, names, "flops"))
            out[f"autodiff.op.{kind}.bytes_per_step"] = per_step(total(train, names, "bytes"))
    out["autodiff.op.calls_per_step"] = sum(
        out[f"autodiff.op.{k}.calls_per_step"] for k in OP_KINDS)
    out["autodiff.backward.ms_per_step"] = per_step(total(train, ["autodiff.backward"], "self_ms"))
    out["autodiff.grad.ms_per_step"] = per_step(total(train, ["autodiff.grad"], "self_ms"))
    for module in ("autodiff", "layers", "losses", "optim", "training"):
        names = [n for n in train if n.startswith(module + ".")]
        out[f"{module}.self_ms_per_step"] = per_step(total(train, names, "self_ms"))

    for role in ("generator", "discriminator"):
        out[f"layers.forward.{role}.ms_per_step"] = per_step(
            total(train, [f"layers.forward.{role}"], "incl_ms"))
    out["layers.attention_forward.ms_per_step"] = per_step(
        total(train, ["layers.attention_forward"], "incl_ms"))
    loss_fns = ("minimax_d_loss", "minimax_g_loss", "wasserstein_losses", "gradient_penalty")
    out["losses.ms_per_step"] = per_step(total(train, [f"losses.{f}" for f in loss_fns],
                                               "incl_ms"))
    out["losses.gradient_penalty.ms_per_step"] = per_step(
        total(train, ["losses.gradient_penalty"], "incl_ms"))
    out["losses.minimax.ms_per_step"] = per_step(
        total(train, ["losses.minimax_d_loss", "losses.minimax_g_loss"], "incl_ms"))
    opt = train["optim.Adam.step"]
    out["optim.step.ms_per_update"] = opt["incl_ms"] / opt["calls"]
    out["optim.param_count"] = sum(p.size for net in (state.g_net, state.d_net)
                                   for _, p in net.parameters())

    ref = reference.timed
    out["training.update_ms.d.p50"] = wl.median(wl.update_samples_ms(ref, "d"))
    out["training.update_ms.g.p50"] = wl.median(wl.update_samples_ms(ref, "g"))
    out["training.epoch_overhead_ms"] = wl.median(wl.epoch_overhead_ms(ref))
    out["training.diversity_diagnostic.ms_per_epoch"] = total(
        train, ["training.diversity_diagnostic"], "incl_ms") / len(traced.timed)

    ckpt_s = tracer.summary("checkpoint")
    for fn in ("save_checkpoint", "load_checkpoint"):
        name = f"training.{fn}"
        out[f"{name}.ms"] = ckpt_s[name]["incl_ms"] / ckpt_s[name]["calls"]
    out["training.checkpoint_bytes"] = os.path.getsize(ckpt)

    ingest = tracer.summary("ingest")
    for fn in ("load_return_series", "normalize_and_window"):
        name = f"market_data.{fn}"
        out[f"{name}.ms"] = ingest[name]["incl_ms"] / ingest[name]["calls"]

    gen = tracer.summary("generate")
    out["layers.forward_eval.ms_per_window"] = gen["layers.forward_eval"]["incl_ms"] / (
        TRACED_REPEATS * wl.generate_windows(w))

    ev = tracer.summary("evaluate")
    calls = ev["stylized_facts.evaluate"]["calls"]
    for name, row in ev.items():
        if name.startswith("stylized_facts.") and name != "stylized_facts.evaluate":
            out[f"{name}.ms"] = row["self_ms"] / calls

    if chains:
        plots = tracer.summary("plots")
        for plot, size in svg_bytes.items():
            row = plots[f"plots.render_{plot}"]
            out[f"plots.render.{plot}.ms"] = row["incl_ms"] / row["calls"]
            out[f"plots.render.{plot}.svg_bytes"] = size
        for step, secs in chains[0]["seconds"].items():
            out[f"cli.{step}.s"] = secs
        out["cli.bytes_written"] = sum(chains[0]["bytes"].values())

    untraced = wl.windows_per_s(w, n_windows, ref[: len(traced.timed)])
    traced_rate = wl.windows_per_s(w, n_windows, traced.timed)
    out["trace.train_windows_per_s.untraced"] = untraced
    out["trace.train_windows_per_s.traced"] = traced_rate
    out["trace.overhead_pct"] = (untraced / traced_rate - 1.0) * 100.0
    return out


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

FULL_SIZES = {"probes": wl.SETUP_PROBES, "min_steps": wl.MIN_TIMED_STEPS,
              "min_chains": wl.MIN_TIMED_CHAINS, "max_chains": wl.MAX_CHAINS, "generate_calls": wl.GENERATE_CALLS,
              "evaluate_calls": wl.EVALUATE_CALLS,
              "traced_evaluate_calls": TRACED_EVALUATE_CALLS}


def run(workload: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    """Run one workload; returns the result record (the last output line
    is its "line" entry)."""
    sizes = sizes or FULL_SIZES
    w = wl.WORKLOADS[workload]
    ledger = wl.Ledger()
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    work = os.path.join(OUT_DIR, f"work-{tag}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        if trace:
            metrics, extra = run_traced(w, seed, seconds, work, ledger, sizes,
                                        os.path.join(OUT_DIR, f"spans-{tag}.npz"))
            units = PER_LAYER
        else:
            metrics, extra = run_untraced(w, seed, seconds, work, ledger, sizes)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    missing = [k for k in units if k not in metrics]
    ledger.check("every metric was measured", not missing, f"missing {missing}")
    line = {"correct": ledger.failed == 0,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]}
                        for k in units if k in metrics}}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "why": w.why, "build": build_block(), "problems": ledger.problems,
              "line": line, **extra}
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(wl.SRC, "marketgan", "__init__.py")):
        print(f"error: marketgan sources not found under {wl.SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, wl.SRC)
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("build: " + json.dumps(record["build"]))
    for problem in record["problems"]:
        print(f"FAILED: {problem}")
    wall = record.get("wall_clock", {})
    if "reference_ms" in record:
        print("reference burst: " + json.dumps(record["reference_ms"]))
    for name, m in record["line"]["metrics"].items():
        raw = f"  (wall clock {wall[name]:.6g})" if name in wall else ""
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}{raw}")
    for name, value in sorted(record.get("breakdown", {}).items()):
        if name not in record["line"]["metrics"]:
            print(f"  (breakdown) {name:48s} {value:>16.6g}")
    print(json.dumps(record["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
