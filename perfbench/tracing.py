"""Span tracing for the benchmark's traced run.

The tracer wraps public functions and methods of the marketgan package
from the outside (no source file of the package changes). While a phase
is open, each call into a wrapped function records one span: name id,
start, end and the index of the enclosing span. Spans are held in memory
in compact typed arrays and summarised (or written out) when the phase
ends. A span's self time is its duration minus the durations of its
direct children.

No layer of marketgan has a queue or takes a lock, so the tracer records
busy time and counts only; there is no waiting time to report.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager

import numpy as np

# autodiff op kinds -> public op functions of that kind
OP_KINDS = {
    "matmul": ("matmul",),
    "conv1d": ("conv1d",),
    "conv1d_transpose": ("conv1d_transpose",),
    "batch_norm": ("batch_norm", "batch_norm_inference"),
    "softmax": ("softmax",),
    "elementwise": ("add", "sub", "mul", "div", "neg", "powc", "texp", "tlog",
                    "tsqrt", "clip"),
    "activation": ("activation", "relu", "leaky_relu", "tanh", "sigmoid"),
    "reduce": ("tsum", "tmean"),
    "shape": ("reshape", "transpose_last", "broadcast_to"),
}

BACKWARD_SPANS = ("autodiff.backward", "autodiff.grad")

# (module, attribute path) of every wrapped public callable besides the ops
FUNCTION_TARGETS = (
    ("autodiff", "backward"), ("autodiff", "grad"),
    ("layers", "Network.forward"), ("layers", "attention_forward"),
    ("losses", "minimax_d_loss"), ("losses", "minimax_g_loss"),
    ("losses", "wasserstein_losses"), ("losses", "gradient_penalty"),
    ("optim", "Adam.step"),
    ("training", "diversity_diagnostic"), ("training", "generate"),
    ("training", "save_checkpoint"), ("training", "load_checkpoint"),
    ("market_data", "load_return_series"), ("market_data", "normalize_and_window"),
    ("stylized_facts", "evaluate"), ("stylized_facts", "acf"),
    ("stylized_facts", "moments"), ("stylized_facts", "volatility_clustering_score"),
    ("stylized_facts", "aggregational_gaussianity_profile"),
    ("stylized_facts", "leverage_effect_score"), ("stylized_facts", "ks_statistic"),
    ("stylized_facts", "wasserstein1"),
    ("plots", "render_acf"), ("plots", "render_pdf"),
    ("plots", "render_returns"), ("plots", "render_prices"),
)

BYTES_PER_VALUE = 8  # every marketgan array is float64


def _matmul_work(x, w, out):
    return 2 * out.size * x.shape[-1], BYTES_PER_VALUE * (x.size + w.size + out.size)


def _taps(w):
    # kernels are [out_channels, in_channels, k]; a 1-D kernel is [k]
    return w.size // w.shape[0] if w.ndim == 3 else w.size


def _conv_work(x, w, out):
    # every output value is a dot product over in_channels * k taps
    return 2 * out.size * _taps(w), BYTES_PER_VALUE * (x.size + w.size + out.size)


def _conv_transpose_work(x, w, out):
    # every input value scatters into out_channels * k taps
    return 2 * x.size * _taps(w), BYTES_PER_VALUE * (x.size + w.size + out.size)


# computed work per call, from the operand shapes
WORK_COUNTERS = {"autodiff.matmul": _matmul_work, "autodiff.conv1d": _conv_work,
                 "autodiff.conv1d_transpose": _conv_transpose_work}


class SpanStore:
    """Spans of one phase, as parallel typed arrays."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.flops = {}      # name id -> computed floating-point operations
        self.bytes = {}      # name id -> computed bytes moved

    def __len__(self):
        return len(self.name)


class Tracer:
    """Installs span-recording wrappers; record only inside ``phase()``."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.kind_of: dict[str, str] = {}
        self.store: SpanStore | None = None
        self.current = -1
        self.phases: dict[str, SpanStore] = {}
        self._patches: list = []

    def name_id(self, name: str) -> int:
        idx = self._ids.get(name)
        if idx is None:
            idx = self._ids[name] = len(self.names)
            self.names.append(name)
        return idx

    # -- installing and removing wrappers --------------------------------
    def install(self, package):
        ad = package.autodiff
        for kind, fns in OP_KINDS.items():
            for fn in fns:
                if hasattr(ad, fn):
                    self.kind_of[f"autodiff.{fn}"] = kind
                    self._patch(ad, fn, f"autodiff.{fn}")
        for module_name, path in FUNCTION_TARGETS:
            owner = getattr(package, module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, attr):
                continue
            label = _forward_label if path == "Network.forward" else None
            self._patch(owner, attr, f"{module_name}.{path}", label)

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, name, label=None):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        fixed_id = self.name_id(name)
        work = WORK_COUNTERS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            store = tracer.store
            if store is None:
                return original(*args, **kwargs)
            nid = fixed_id if label is None else tracer.name_id(label(args, kwargs))
            idx = len(store.name)
            store.name.append(nid)
            store.parent.append(tracer.current)
            store.end.append(0.0)
            prev = tracer.current
            tracer.current = idx
            store.start.append(time.perf_counter())
            try:
                out = original(*args, **kwargs)
            finally:
                store.end[idx] = time.perf_counter()
                tracer.current = prev
            if work is not None:
                f, b = work(np.asarray(getattr(args[0], "data", args[0])),
                            np.asarray(getattr(args[1], "data", args[1])), out.data)
                store.flops[nid] = store.flops.get(nid, 0) + f
                store.bytes[nid] = store.bytes.get(nid, 0) + b
            return out

        functools.update_wrapper(wrapper, original)
        wrapper.__perfbench_wrapper__ = True
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    @contextmanager
    def phase(self, label: str):
        """Record spans into the store kept under ``label``."""
        self.store = self.phases.setdefault(label, SpanStore())
        self.current = -1
        try:
            yield self.store
        finally:
            self.store = None
            self.current = -1

    # -- summaries -------------------------------------------------------
    def summary(self, label: str) -> dict:
        """Per-name totals of one phase: calls, calls not nested in a call
        of the same op kind, inclusive ms, self ms (also split by whether a
        backward sweep encloses the call) and computed flops and bytes."""
        store = self.phases[label]
        n = len(store)
        names = np.frombuffer(store.name, dtype=np.int32)
        parent = np.frombuffer(store.parent, dtype=np.int32)
        dur = (np.frombuffer(store.end, dtype=np.float64)
               - np.frombuffer(store.start, dtype=np.float64))
        has_parent = parent >= 0
        child = np.zeros(n)
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child

        n_names = len(self.names)
        is_bwd = np.zeros(n_names, dtype=bool)
        for nm in BACKWARD_SPANS:
            if nm in self._ids:
                is_bwd[self._ids[nm]] = True
        kind_ids = np.full(n_names, -1)
        kinds = sorted(set(self.kind_of.values()))
        for nm, kind in self.kind_of.items():
            kind_ids[self._ids[nm]] = kinds.index(kind)
        # does any ancestor open a backward sweep?
        in_bwd = np.zeros(n, dtype=bool)
        # spans directly inside the same kind are nested calls, not new calls
        nested = np.zeros(n, dtype=bool)
        p = parent.copy()
        valid = p >= 0
        nested[valid] = ((kind_ids[names[p[valid]]] == kind_ids[names[valid]])
                         & (kind_ids[names[valid]] >= 0))
        while valid.any():
            in_bwd[valid] |= is_bwd[names[p[valid]]]
            p[valid] = parent[p[valid]]
            valid = p >= 0
        out = {}
        for nid, nm in enumerate(self.names):
            mask = names == nid
            if not mask.any():
                continue
            out[nm] = {
                "calls": int(mask.sum()),
                "outer_calls": int((mask & ~nested).sum()),
                "incl_ms": float(dur[mask].sum() * 1e3),
                "self_ms": float(self_time[mask].sum() * 1e3),
                "fwd_self_ms": float(self_time[mask & ~in_bwd].sum() * 1e3),
                "bwd_self_ms": float(self_time[mask & in_bwd].sum() * 1e3),
                "flops": int(store.flops.get(nid, 0)),
                "bytes": int(store.bytes.get(nid, 0)),
            }
        return out

    def write_spans(self, path):
        """Write every recorded span as compact columns (numpy .npz)."""
        arrays = {"names": np.array(self.names)}
        for label, store in self.phases.items():
            arrays[f"{label}.name"] = np.frombuffer(store.name, dtype=np.int32)
            arrays[f"{label}.parent"] = np.frombuffer(store.parent, dtype=np.int32)
            arrays[f"{label}.start"] = np.frombuffer(store.start, dtype=np.float64)
            arrays[f"{label}.end"] = np.frombuffer(store.end, dtype=np.float64)
        np.savez(path, **arrays)


def _forward_label(args, kwargs) -> str:
    net = args[0]
    mode = args[2] if len(args) > 2 else kwargs.get("mode", "train")
    if mode == "eval":
        return "layers.forward_eval"
    role = "generator" if net.spec.role == "generator" else "discriminator"
    return f"layers.forward.{role}"
