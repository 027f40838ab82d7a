"""Print the peak RSS and minor page faults of each command in one CLI chain
of a benchmark workload.

The benchmark reports one ``peak_rss_mib`` per run: the largest peak of
any of its CLI subprocesses, read from RUSAGE_CHILDREN, so it does not say
which command set it. This runs one chain of the same five commands
(train, train --resume, generate, evaluate, report), built by
perfbench/workloads.run_cli_chain, and reads each command's own peak RSS
and minor page faults (``ru_minflt``: pages the kernel mapped in without
disk I/O, as when freed memory handed back to it is touched again) from
the rusage that ``os.wait4`` returns when it reaps that command.

    python3 tools/peak_rss.py --workload toy-mlp --seed 1

Run it from a checkout; the package is imported from its ./src.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads as wl  # noqa: E402

POLL_S = 0.01


class Usage(NamedTuple):
    peak_mib: float
    minor_faults: int


class RusageLedger(wl.Ledger):
    """A Ledger that runs each CLI command itself, reaps it with os.wait4
    and keeps its Usage under the chain's step name."""

    def __init__(self):
        super().__init__()
        self.usage: dict[str, Usage] = {}

    def call(self, what, fn, *args, **kwargs):
        if fn is subprocess.run and what.startswith("cli "):
            return super().call(what, self._run, what[len("cli "):], *args, **kwargs)
        return super().call(what, fn, *args, **kwargs)

    def _run(self, step, cmd, *, env, cwd, timeout, **_):
        with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=cwd)
            deadline = time.monotonic() + timeout
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(POLL_S)
            proc.returncode = os.waitstatus_to_exitcode(status)    # reaped here
            self.usage[step] = Usage(usage.ru_maxrss / 1024.0,     # KiB on Linux
                                     usage.ru_minflt)
            out.seek(0)
            err.seek(0)
            return subprocess.CompletedProcess(
                cmd, proc.returncode, out.read().decode("utf-8", "replace"),
                err.read().decode("utf-8", "replace"))


def measure(workload: wl.Workload, seed: int, work: str) -> dict[str, Usage]:
    """{CLI step: Usage} of one chain run in ``work``. Raises RuntimeError
    naming what failed when the chain does not complete."""
    ledger = RusageLedger()
    data = wl.prepare_data(workload, seed, work)
    chain = wl.run_cli_chain(workload, seed, data, os.path.join(work, "chain"), ledger)
    if chain is None or ledger.failed:
        raise RuntimeError("; ".join(ledger.problems) or "the CLI chain did not complete")
    return ledger.usage


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    work = tempfile.mkdtemp(prefix="peak-rss-")
    try:
        usage = measure(wl.WORKLOADS[args.workload], args.seed, work)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for step, (mib, faults) in usage.items():
        print(f"{step:<14}{mib:8.1f} MiB{faults:10d} minor faults")
    print(f"{'max':<14}{max(u.peak_mib for u in usage.values()):8.1f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
