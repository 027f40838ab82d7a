"""Run the benchmark in alternating parent/change pairs and write BENCH_<pr>.json.

The change is this checkout's working tree; the parent is a git revision,
exported with ``git archive`` into a scratch directory (the benchmark needs
only the files, and an export leaves nothing registered in the repository).
For every seed and workload the two sides each run

    python3 perfbench/run.py --workload W --seed S --seconds T

from their own tree (T is ``run_seconds`` of BENCHMARK.json), alternating
which side goes first from seed to seed, and the result file
``perfbench/out/result-W-seedS-trace0.json`` is read after each run. The
output holds, per workload, end-to-end metric and side, the median,
quartiles and every run; the change's wins out of all pairs run; the
median gap (positive when the change is better) against the parent's
interquartile range; the bound from BENCHMARK.json; and the ``failed``
counts, with a flag set when the change fails more than the parent. It is
rewritten after every pair, so a run that is stopped early keeps what it
measured.

    python3 tools/bench_pairs.py --pr N --parent HEAD --seeds 1501-1510 \\
        --scratch /tmp/bench-parent
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 900


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.rstrip("\n")


def export_rev(rev: str, dest: str) -> str:
    """Write the files of ``rev`` into ``dest`` (which must not exist yet or
    be empty); returns the full commit id."""
    sha = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    if os.path.isdir(dest) and os.listdir(dest):
        raise SystemExit(f"error: {dest} is not empty")
    os.makedirs(dest, exist_ok=True)
    archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return sha


def parse_seeds(text: str) -> list[int]:
    """'1501-1510' or '7,9,11' (or a mix) -> a list of distinct seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        try:
            part_seeds = range(int(lo), int(hi or lo) + 1)
        except ValueError:
            raise SystemExit(f"error: --seeds part {part!r} is neither a seed nor a "
                             "range lo-hi of non-negative seeds") from None
        if not part_seeds:
            raise SystemExit(f"error: --seeds part {part!r} is an empty range")
        repeated = sorted(set(seeds) & set(part_seeds))
        if repeated:
            raise SystemExit(f"error: --seeds part {part!r} repeats seed {repeated[0]}")
        seeds.extend(part_seeds)
    return seeds


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``; its result record, or a record of the
    failure (no metrics) when the run did not finish."""
    result = os.path.join(tree, "perfbench", "out",
                          f"result-{workload}-seed{seed}-trace0.json")
    if os.path.exists(result):
        os.unlink(result)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    try:
        proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
        error = None if proc.returncode == 0 else proc.stderr[-500:]
    except subprocess.TimeoutExpired:
        error = f"timed out after {RUN_TIMEOUT_S} s"
    if error is None and os.path.exists(result):
        with open(result, encoding="utf-8") as fh:
            return json.load(fh)
    return {"error": error or "no result file", "build": None,
            "line": {"attempted": 0, "failed": None, "metrics": {}}}


def spread(values: list[float]) -> dict:
    """Median and quartiles (statistics.quantiles, exclusive method) of the runs."""
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0] if values else None
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


def _value(run: dict, name: str):
    metric = run["line"]["metrics"].get(name)
    return None if metric is None else metric["value"]


def _change_wins(p, c, higher: bool) -> bool:
    """Whether the change won one pair. A pair the change has no value for
    is a loss; one the parent alone has no value for is no win either."""
    if p is None or c is None:
        return False
    return c > p if higher else c < p


def summarize(metric: dict, runs: list[tuple[dict, dict]]) -> dict:
    """Compare one end-to-end metric over the pairs (parent, change). Wins
    are counted out of every pair run, so a pair whose change run failed
    counts against the change; each side's median and quartiles are over
    the runs that gave a value."""
    name, higher = metric["name"], metric["better"] == "higher"
    values = [(_value(p, name), _value(c, name)) for p, c in runs]
    parent = spread([p for p, _ in values if p is not None])
    change = spread([c for _, c in values if c is not None])
    out = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
           "parent": parent, "change": change, "pairs": len(values),
           "change_wins": sum(_change_wins(p, c, higher) for p, c in values)}
    if parent["runs"] and change["runs"]:
        gap = change["median"] - parent["median"]
        if not higher:
            gap = -gap
        iqr = parent["q3"] - parent["q1"]
        # how much worse the change's median is, as a share of the parent's
        worse = -gap / parent["median"] if parent["median"] else 0.0
        out.update(median_gap=gap, parent_iqr=iqr, gap_exceeds_parent_iqr=gap > iqr,
                   relative_change=(change["median"] - parent["median"]) / parent["median"]
                   if parent["median"] else None,
                   within_bound=worse <= metric["bound"])
    return out


def failures(pairs: list[tuple[dict, dict]]) -> dict:
    """Per side, the attempted and failed operations of every run, the
    failed total, and the runs that gave no result at all; the change
    fails more when either of its counts exceeds the parent's."""
    sides = ("parent", "change")
    out = {"attempted": {s: [pair[i]["line"]["attempted"] for pair in pairs]
                         for i, s in enumerate(sides)},
           "failed": {s: [pair[i]["line"]["failed"] for pair in pairs]
                      for i, s in enumerate(sides)},
           "errors": [r["error"] for pair in pairs for r in pair if "error" in r]}
    out["failed_total"] = {s: sum(n for n in out["failed"][s] if n is not None)
                           for s in sides}
    out["runs_lost"] = {s: sum("error" in pair[i] for pair in pairs)
                        for i, s in enumerate(sides)}
    out["change_fails_more"] = any(out[k]["change"] > out[k]["parent"]
                                   for k in ("failed_total", "runs_lost"))
    return out


def build_report(spec: dict, meta: dict, results: dict) -> dict:
    builds = [r["build"] for runs in results.values() for pair in runs["pairs"]
              for r in pair if r.get("build")]
    report = {"format": "marketgan-bench-pairs", **meta,
              "build": builds[0] if builds else None,
              "build_consistent": all(b == builds[0] for b in builds),
              "workloads": {}}
    for workload, runs in results.items():
        report["workloads"][workload] = {"seeds": runs["seeds"], "first": runs["first"],
                                         **failures(runs["pairs"]),
                                         "metrics": {m["name"]: summarize(m, runs["pairs"])
                                                     for m in spec["end_to_end"]}}
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True,
                        help="number for the output file name BENCH_<pr>.json")
    parser.add_argument("--parent", default="HEAD",
                        help="git revision of the parent side (default HEAD)")
    parser.add_argument("--seeds", required=True, help="e.g. 1501-1510 or 7,9,11")
    parser.add_argument("--scratch", required=True,
                        help="empty or missing directory for the parent's files")
    parser.add_argument("--workloads", nargs="+",
                        help="default: every workload in BENCHMARK.json")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads or known
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        parser.error(f"unknown workloads {unknown}; BENCHMARK.json has {known}")
    seconds = spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    out_path = os.path.join(ROOT, f"BENCH_{args.pr}.json")

    parent_tree = os.path.abspath(args.scratch)
    meta = {"pr": args.pr, "seconds": seconds,
            "command": spec["command"] + ["--workload", "<w>", "--seed", "<s>",
                                          "--seconds", str(seconds)],
            "parent": {"rev": args.parent, "commit": export_rev(args.parent, parent_tree)},
            "change": {"base_commit": _git("rev-parse", "HEAD"),
                       "uncommitted_files": sorted(
                           line[3:] for line in _git("status", "--porcelain").splitlines())}}
    trees = {"parent": parent_tree, "change": ROOT}
    results = {w: {"seeds": [], "first": [], "pairs": []} for w in workloads}
    for n, seed in enumerate(seeds):
        order = ("parent", "change") if n % 2 == 0 else ("change", "parent")
        for workload in workloads:
            record = {}
            for side in order:
                record[side] = run_once(trees[side], workload, seed, seconds)
                line = record[side]["line"]
                print(f"seed {seed} {workload} {side}: failed {line['failed']}, "
                      + ", ".join(f"{k} {v['value']:.6g}"
                                  for k, v in line["metrics"].items()
                                  if k in ("train_windows_per_s", "step_ms.p50")),
                      flush=True)
            runs = results[workload]
            runs["seeds"].append(seed)
            runs["first"].append(order[0])
            runs["pairs"].append((record["parent"], record["change"]))
            with open(out_path, "w", encoding="utf-8") as fh:
                json.dump(build_report(spec, meta, results), fh, indent=1)
                fh.write("\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
