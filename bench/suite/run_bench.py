#!/usr/bin/env python3
"""Runner of the repository benchmark (see README.md next to this file).

One run (the last stdout line is the JSON result):
  run_bench.py --workload W --seed S --seconds T --trace 0|1

Several runs, each workload in its own process, every run on its own seed:
  run_bench.py --runs N [--workloads a,b] [--seed-base S] [--out runs.json]
Pairs: this checkout (the change) and another checkout (the parent) run on
the same seed one after the other, alternating which side runs first:
  run_bench.py --pairs N --parent DIR [--workloads a,b] [--seed-base S] [--out pairs.json]
Calibration (seeds 1 and 2, N runs each):
  run_bench.py --calibrate [--runs 5] [--out calibration.json]
Verdicts per (workload, metric): better / same / worse / unresolved.
  run_bench.py --compare PARENT.json CHANGE.json   two --runs outputs (never "better")
  run_bench.py --compare PAIRS.json                a --pairs output
Checks of the benchmark itself:
  run_bench.py --self-test                 comparator flags injected regressions
  run_bench.py --smoke [--binary PATH]     every workload at smoke sizes, traced

The binary is built from source on first use, with CMake, into
$CARGO_TARGET_DIR/suite (default .bench_build/suite under the repository
root). Build output goes to stderr.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SUITE = Path(__file__).resolve().parent
WORKLOADS = ["bem-solve", "bh-cold", "service-open", "plan-churn"]
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def build_dir(root=ROOT, env=None):
    target = Path((os.environ if env is None else env).get("CARGO_TARGET_DIR", ".bench_build"))
    return (target if target.is_absolute() else root / target) / "suite"


def ensure_built():
    """Configure (once) and build treecode_bench; return the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("run_bench.py: treecode sources (src/) not found; cannot build")
    build = build_dir()
    steps = []
    if not (build / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(SUITE), "-B", str(build),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build), "--target", "treecode_bench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("run_bench.py: build failed: " + " ".join(cmd))
    return build / "treecode_bench"


def report_path(build, workload, seed, traced, smoke=False):
    return build / "reports" / f"{workload}-s{seed}-t{int(traced)}{'-smoke' if smoke else ''}.json"


def run_once(binary, workload, seed, seconds, traced, smoke=False):
    """Run one workload in its own process; return the report's results.
    The report goes to reports/ next to the binary."""
    out = report_path(Path(binary).parent, workload, seed, traced, smoke)
    out.parent.mkdir(parents=True, exist_ok=True)
    if out.exists():
        out.unlink()
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--json-out", str(out)]
    if traced:
        cmd.append("--traced")
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=RUN_TIMEOUT_S)
    if proc.returncode not in (0, 1) or not out.is_file():
        raise RuntimeError(f"{workload} seed {seed}: treecode_bench exited {proc.returncode}")
    with open(out, encoding="utf-8") as f:
        return json.load(f)["results"]


def result_line(results, spec, traced):
    """The one-line result: every end_to_end (untraced) or per_layer
    (traced) metric of BENCHMARK.json, with its unit."""
    block = results["layers"] if traced else results["e2e"]
    correct = bool(results["correct"])
    metrics = {}
    for m in spec["per_layer" if traced else "end_to_end"]:
        got = block.get(m["name"])
        if got is None or got["value"] is None or got["unit"] != m["unit"]:
            log(f"run_bench.py: metric {m['name']} missing or wrong unit: {got}")
            correct = False
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": correct, "attempted": int(results["attempted"]),
            "failed": int(results["failed"]), "metrics": metrics}


def iqr_share(values):
    """Distance between the first and third quartile, as a share of the
    median (statistics.quantiles, n=4)."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else 0.0


# ---- several runs ------------------------------------------------------------


def run_many(workloads, runs, seed_base, seconds, same_seed=False, traced_too=True):
    """`runs` untraced runs per workload on seeds seed_base, seed_base+1, ...
    (all seed_base when same_seed), plus one traced run on seed_base."""
    spec = load_spec()
    binary = ensure_built()
    doc = {"seconds": seconds, "workloads": {}}
    for w in workloads:
        entry = {"seeds": [], "untraced": [], "valid": [], "correct": [], "traced": []}
        for i in range(runs):
            seed = seed_base if same_seed else seed_base + i
            r = run_once(binary, w, seed, seconds, traced=False)
            line = result_line(r, spec, traced=False)
            entry["seeds"].append(seed)
            entry["untraced"].append({k: v["value"] for k, v in line["metrics"].items()})
            entry["valid"].append(bool(r["valid"]))
            entry["correct"].append(line["correct"] and line["failed"] == 0)
        if traced_too:
            r = run_once(binary, w, seed_base, seconds, traced=True)
            line = result_line(r, spec, traced=True)
            entry["traced"].append({k: v["value"] for k, v in line["metrics"].items()})
            entry["correct"].append(line["correct"] and line["failed"] == 0)
        doc["workloads"][w] = entry
    return doc


def run_side(root, workload, seed, seconds):
    """One untraced run through checkout `root`'s own run_bench.py, which
    builds that checkout's binary in its own .bench_build. Returns the e2e
    values, whether the run is valid, and whether it is correct."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(root / ".bench_build"))
    cmd = [sys.executable, str(root / "bench" / "suite" / "run_bench.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(float(seconds)), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=sys.stderr, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: {workload} seed {seed}: run_bench.py exited {proc.returncode}")
    with open(report_path(build_dir(root, env), workload, seed, False), encoding="utf-8") as f:
        results = json.load(f)["results"]
    line = result_line(results, load_spec(), traced=False)
    return ({k: v["value"] for k, v in line["metrics"].items()}, bool(results["valid"]),
            line["correct"] and line["failed"] == 0)


def run_pairs(parent_root, workloads, pairs, seed_base, seconds):
    """`pairs` pairs per workload: the parent checkout and this one run on
    the same seed, one right after the other, the parent first in even
    pairs and second in odd ones, so both sides see the same host."""
    doc = {"seconds": seconds, "parent": str(parent_root), "change": str(ROOT), "workloads": {}}
    for w in workloads:
        entry = {"seeds": [], "parent": [], "change": [], "valid": [], "correct": []}
        for i in range(pairs):
            seed = seed_base + i
            order = [("parent", parent_root), ("change", ROOT)]
            if i % 2:
                order.reverse()
            valid = correct = True
            for side, root in order:
                values, ok, right = run_side(root, w, seed, seconds)
                entry[side].append(values)
                valid &= ok
                correct &= right
            entry["seeds"].append(seed)
            entry["valid"].append(valid)
            entry["correct"].append(correct)
        doc["workloads"][w] = entry
    return doc


def valid_runs(entry):
    """The valid untraced runs of one workload of a --runs output."""
    return [run for run, ok in zip(entry["untraced"], entry["valid"]) if ok]


def metric_samples(entry, name):
    """Values of one e2e metric over the valid runs of a workload."""
    return [run[name] for run in valid_runs(entry)]


def summarize(doc, spec):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for w, entry in doc["workloads"].items():
        invalid = entry["valid"].count(False)
        print(f"== {w}: {len(entry['untraced'])} runs, seeds {entry['seeds']}"
              f"{f', {invalid} invalid (load generator late)' if invalid else ''},"
              f" all correct: {all(entry['correct'])}")
        for name in units:
            v = metric_samples(entry, name)
            if not v:
                continue
            spread = iqr_share(v)
            flag = "" if name == "setup_s" or spread <= bounds[name] else "  SPREAD > BOUND"
            print(f"  {name:18s} median {statistics.median(v):.6g} {units[name]:6s}"
                  f" spread {100 * spread:6.2f}%  bound {100 * bounds[name]:.0f}%{flag}")
        if entry["traced"]:
            traced = entry["traced"][0]["trace.op_p50_s"]
            base = statistics.median(metric_samples(entry, "op_p50_s") or [traced])
            print(f"  tracing overhead on op_p50_s: {traced - base:+.6g} s"
                  f" ({100 * (traced - base) / base:+.2f}%, traced {traced:.6g} s)")
            for name, value in entry["traced"][0].items():
                print(f"    {name:28s} {value:.6g}")


# ---- comparison ----------------------------------------------------------------


def verdict(parent, change, bound, better, paired):
    """better / same / worse / unresolved for one (workload, metric), with
    the change's median gain over the parent (> 0: the change is better).

    Pairs (--pairs) run alternately on one machine share the host's state,
    so they resolve changes smaller than the bound; two batches run apart
    can drift with the host by more than it. The pair rules need at least
    ten valid pairs.

    worse: the change's median is worse than the parent's by more than the
      bound; or, in pairs, the change loses at least nine tenths of the
      pairs, ties counting for neither, and its median loss exceeds the
      parent's own quartile spread.
    better: in pairs only, the same rule the other way round. Unpaired runs
      never read better.
    unresolved: otherwise, when the pairs go one way but by less than the
      parent's spread, when either side's quartile spread exceeds the
      bound, or when the median moved by more than the bound.
    same: otherwise."""
    mp, mc = statistics.median(parent), statistics.median(change)
    sign = -1.0 if better == "lower" else 1.0
    gain = sign * (mc - mp) / abs(mp) if mp else 0.0
    if -gain > bound:
        return "worse", gain
    if paired and len(parent) >= 10:
        wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
        losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
        if losses >= 0.9 * len(parent):
            return ("worse" if -gain > iqr_share(parent) else "unresolved"), gain
        if wins >= 0.9 * len(parent):
            return ("better" if gain > iqr_share(parent) else "unresolved"), gain
    if gain > bound or max(iqr_share(parent), iqr_share(change)) > bound:
        return "unresolved", gain
    return "same", gain


def compare(spec, doc, change_doc=None):
    """Rows (workload, metric, verdict, gain). With one document, `doc` is a
    --pairs output; with two, `doc` is the parent's --runs output and
    `change_doc` the change's."""
    paired = change_doc is None
    rows = []
    for w, entry in doc["workloads"].items():
        if paired:
            keep = [i for i, ok in enumerate(entry["valid"]) if ok]
            parent = [entry["parent"][i] for i in keep]
            change = [entry["change"][i] for i in keep]
        elif w in change_doc["workloads"]:
            parent, change = valid_runs(entry), valid_runs(change_doc["workloads"][w])
        else:
            continue
        for m in spec["end_to_end"]:
            a = [run[m["name"]] for run in parent]
            b = [run[m["name"]] for run in change]
            if not a or not b:
                rows.append((w, m["name"], "unresolved", 0.0))
                continue
            v, gain = verdict(a, b, m["bound"], m["better"], paired)
            rows.append((w, m["name"], v, gain))
    return rows


def print_compare(rows):
    for w, name, v, gain in rows:
        print(f"{w:14s} {name:18s} {v:10s} {100 * gain:+7.2f}%")
    return 1 if any(v == "worse" for _, _, v, _ in rows) else 0


# ---- self-test -----------------------------------------------------------------


def self_test():
    """The comparator on synthetic runs with known changes. Time metrics
    carry a host factor whose quartile spread over runs is the given share:
    5% and 13% bracket the spreads measured on a shared 4-core VM. Each
    check holds on every one of 20 draws."""
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    rng = random.Random(7)
    base = {"setup_s": 0.5, "op_p50_s": 0.02, "op_p90_s": 0.03, "rel_error": 3e-6,
            "bytes_per_source": 15000.0, "peak_rss_mb": 500.0}
    times = ("setup_s", "op_p50_s", "op_p90_s")

    def host(spread):
        return 1.0 + rng.gauss(0.0, spread / 1.349)  # quartiles of a normal: 1.349 sigma apart

    def run(h, scale):
        return {k: v * scale.get(k, 1.0) * (h if k in times else 1.0) for k, v in base.items()}

    def batch(spread, scale=None, drift=1.0):
        return [run(host(spread) * drift, scale or {}) for _ in range(10)]

    def unpaired(parent, change):
        def doc(runs):
            return {"workloads": {w: {"untraced": runs, "valid": [True] * len(runs)}
                                  for w in WORKLOADS}}
        return compare(spec, doc(parent), doc(change))

    def paired(spread, scale=None):
        # The two runs of a pair share the host's state, each with 1% of its own noise.
        entry = {"parent": [], "change": [], "valid": [True] * 10}
        for _ in range(10):
            h = host(spread)
            entry["parent"].append(run(h * host(0.01), {}))
            entry["change"].append(run(h * host(0.01), scale or {}))
        return compare(spec, {"workloads": {w: entry for w in WORKLOADS}})

    def of(metric, allowed):
        return lambda rows: all(v in allowed for _, m, v, _ in rows if m == metric)

    slower = {"op_p50_s": 1.2}
    checks = [
        ("identity at 1% spread: same",
         lambda: unpaired(batch(0.01), batch(0.01)), lambda rows: all(r[2] == "same" for r in rows)),
        ("20% op_p50_s slowdown in pairs at 5% spread: worse",
         lambda: paired(0.05, slower), of("op_p50_s", {"worse"})),
        ("20% op_p50_s slowdown in pairs at 13% spread: worse or unresolved",
         lambda: paired(0.13, slower), of("op_p50_s", {"worse", "unresolved"})),
        ("20% op_p50_s slowdown, unpaired at 5% spread: not better",
         lambda: unpaired(batch(0.05), batch(0.05, slower)),
         of("op_p50_s", {"worse", "unresolved", "same"})),
        ("op_p50_s slowdown by twice its bound, unpaired at 5% spread: worse",
         lambda: unpaired(batch(0.05), batch(0.05, {"op_p50_s": 1.0 + 2 * bounds["op_p50_s"]})),
         of("op_p50_s", {"worse"})),
        ("20% bytes_per_source growth: worse",
         lambda: unpaired(batch(0.05), batch(0.05, {"bytes_per_source": 1.2})),
         of("bytes_per_source", {"worse"})),
        ("15% host drift between unpaired batches, no change: not better",
         lambda: unpaired(batch(0.05), batch(0.05, drift=0.85)),
         of("op_p50_s", {"same", "unresolved"})),
        ("20% op_p50_s speed-up, unpaired: not better",
         lambda: unpaired(batch(0.05), batch(0.05, {"op_p50_s": 0.8})),
         of("op_p50_s", {"same", "unresolved"})),
        ("20% op_p50_s speed-up in pairs at 5% spread: better",
         lambda: paired(0.05, {"op_p50_s": 0.8}), of("op_p50_s", {"better"})),
        ("no change in pairs at 13% spread: neither better nor worse",
         lambda: paired(0.13), of("op_p50_s", {"same", "unresolved"})),
    ]
    ok = True
    for name, make, expect in checks:
        failed = None
        for _ in range(20):
            rows = make()
            if not expect(rows):
                failed = rows
                break
        ok &= failed is None
        print(f"self-test {name}: {'ok' if failed is None else 'FAILED'}")
        if failed is not None:
            print_compare(failed)
    return 0 if ok else 1


# ---- smoke -------------------------------------------------------------------------


def smoke(binary):
    """Every workload at smoke sizes, traced: correct, nothing failed, and
    exactly BENCHMARK.json's metrics present with their units."""
    spec = load_spec()
    binary = Path(binary) if binary else ensure_built()
    names = {m["name"] for m in spec["per_layer"]}
    ok = True
    start = time.monotonic()
    for w in WORKLOADS:
        r = run_once(binary, w, 1, 1.0, traced=True, smoke=True)
        problems = list(r["failures"])
        for traced in (False, True):
            line = result_line(r, spec, traced)
            if not line["correct"]:
                problems.append(f"metrics incomplete (traced={traced})")
        if set(r["layers"]) != names:
            problems.append(f"layer metrics differ from BENCHMARK.json: "
                            f"{sorted(set(r['layers']) ^ names)}")
        if r["failed"] or not r["correct"] or r["attempted"] < 1:
            problems.append(f"failed {r['failed']} of {r['attempted']}")
        ok &= not problems
        print(f"smoke {w}: {'ok' if not problems else 'FAILED'} ({r['attempted']} ops)")
        for p in problems:
            print(f"  {p}")
    print(f"smoke total {time.monotonic() - start:.1f} s")
    return 0 if ok else 1


# ---- calibration ------------------------------------------------------------------


def calibrate(runs, seconds):
    """Seeds 1 and 2, `runs` runs each: median and IQR share of every
    (workload, e2e metric), and whether the seed-2 median lies within the
    seed-1 bound."""
    spec = load_spec()
    per_seed = {s: run_many(WORKLOADS, runs, s, seconds, same_seed=True, traced_too=False)
                for s in (1, 2)}
    out = {"runs_per_seed": runs, "seconds": seconds, "workloads": {}}
    for w in WORKLOADS:
        rows = {}
        for m in spec["end_to_end"]:
            row = {}
            for s in (1, 2):
                v = metric_samples(per_seed[s]["workloads"][w], m["name"])
                row[f"seed{s}"] = {"median": statistics.median(v), "iqr_share": iqr_share(v),
                                   "runs": len(v)}
            m1, m2 = row["seed1"]["median"], row["seed2"]["median"]
            row["seed2_within_seed1_bound"] = abs(m2 - m1) <= m["bound"] * abs(m1)
            rows[m["name"]] = row
        out["workloads"][w] = rows
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--runs", type=int)
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seed-base", type=int, default=1)
    p.add_argument("--out")
    p.add_argument("--pairs", type=int)
    p.add_argument("--parent", type=Path)
    p.add_argument("--calibrate", action="store_true")
    p.add_argument("--compare", nargs="+", metavar="DOC")
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--binary")
    args = p.parse_args()

    if args.self_test:
        return self_test()
    if args.smoke:
        return smoke(args.binary)
    spec = load_spec()
    if args.compare:
        if len(args.compare) > 2:
            p.error("--compare takes one --pairs output or two --runs outputs")
        docs = []
        for path in args.compare:
            with open(path, encoding="utf-8") as f:
                docs.append(json.load(f))
        return print_compare(compare(spec, *docs))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = [w for w in args.workloads.split(",") if w]
    if args.calibrate:
        doc = calibrate(args.runs or 5, seconds)
        text = json.dumps(doc, indent=2)
        if args.out:
            Path(args.out).write_text(text + "\n", encoding="utf-8")
        print(text)
        return 0
    if args.pairs:
        if args.parent is None:
            p.error("--pairs needs --parent DIR, the parent commit's checkout")
        doc = run_pairs(args.parent.resolve(), workloads, args.pairs, args.seed_base, seconds)
        if args.out:
            Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        return print_compare(compare(spec, doc))
    if args.runs:
        doc = run_many(workloads, args.runs, args.seed_base, seconds)
        if args.out:
            Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        summarize(doc, spec)
        return 0
    if not args.workload:
        p.error("give --workload (or --runs, --pairs, --compare, --calibrate, --self-test, --smoke)")
    binary = ensure_built()
    results = run_once(binary, args.workload, args.seed, seconds, traced=bool(args.trace))
    print(json.dumps(result_line(results, spec, traced=bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
