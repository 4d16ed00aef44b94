#!/usr/bin/env python3
"""A/B comparison of two revisions or source trees on bench/tifl_bench.

Run from the repository root:

    python3 tools/bench_ab.py BASE CHANGE [--pairs N] [--seconds S] \\
        [--workload NAME ...] [--work DIR] [--json FILE] [--trace N]

BASE and CHANGE are git revisions of this repository, or directories
holding a source tree.  Each side is exported into WORK/<side>: a revision
with `git archive`, a directory by a copy that leaves out `.git`,
`.bench_build` and every `build*` directory, so no build tree (and no
CMake cache naming another checkout) travels with the sources.  Each side
then builds and runs through its own bench/tifl_bench/run.py.

Pair i (i = 1..N) runs one `--trace 0` run of each side at `--seed i`,
the base first in odd pairs and the change first in even ones.  For each
workload and each end-to-end metric of BENCHMARK.json the tool prints
both medians and quartiles over the pairs, the pairs the change won, and
a verdict against the metric's bound:

    unresolved    either side's quartile spread (q3 - q1) is wider than
                  the difference of the medians;
    better        the change's median is better;
    worse         it is worse by more than the bound (a share of the
                  base median);
    within bound  it is worse by no more than the bound.

Beside the verdict, which reads the two samples as two samples, the tool
reads the runs as pairs: `p` is the exact two-sided sign-test p-value of
the pairs won, with tied pairs dropped.  It is the chance of a split at
least this lopsided if either side were as likely to win each pair.

The same goes to --json FILE, with every run's metrics, fail_frac and
golden status.  --trace N adds N alternating pairs of `--trace 1` runs at
seed 1 and prints each per-layer metric's median per side: one traced
run per side is not enough on a machine whose speed drifts.

The verdict rule, checked with `python3 -m doctest tools/bench_ab.py`:

>>> verdict([100, 101, 102], [120, 121, 122], "higher", 0.25)
'better'
>>> verdict([100, 101, 102], [70, 71, 72], "higher", 0.25)
'worse'
>>> verdict([100, 101, 102], [90, 91, 92], "higher", 0.25)
'within bound'
>>> verdict([90, 100, 130], [95, 105, 110], "higher", 0.25)
'unresolved'
>>> verdict([1.0, 1.1, 1.2], [0.5, 0.55, 0.6], "lower", 0.25)
'better'

and the sign test:

>>> round(sign_test_p(10, 10), 4)
0.002
>>> round(sign_test_p(9, 10), 4)
0.0215
>>> sign_test_p(5, 10)
1.0
>>> sign_test_p(0, 0)
1.0
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

RUNNER = os.path.join("bench", "tifl_bench", "run.py")


def quantile(values, q):
    """Linear-interpolated quantile, as bench_tifl computes it.

    >>> quantile([4, 1, 3, 2], 0.5)
    2.5
    >>> quantile([4, 1, 3, 2], 0.25)
    1.75
    """
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def spread(values):
    return quantile(values, 0.75) - quantile(values, 0.25)


def verdict(base, change, better, bound):
    """Verdict on two samples of one metric (see the module docstring)."""
    b = quantile(base, 0.5)
    c = quantile(change, 0.5)
    diff = abs(c - b)
    if spread(base) > diff or spread(change) > diff:
        return "unresolved"
    gain = (c - b) if better == "higher" else (b - c)
    if gain > 0:
        return "better"
    return "worse" if -gain > bound * abs(b) else "within bound"


def sign_test_p(wins, pairs):
    """Exact two-sided sign-test p-value of `wins` out of `pairs` untied
    pairs: twice the binomial(pairs, 1/2) tail beyond the smaller side."""
    tail = sum(math.comb(pairs, i) for i in range(min(wins, pairs - wins) + 1))
    return min(1.0, 2.0 * tail / 2.0 ** pairs)


def run(cmd, cwd=None, **kwargs):
    return subprocess.run(cmd, cwd=cwd, check=True, **kwargs)


def export(source, dest):
    """Exports a revision or a source tree into `dest`; returns a label."""
    if os.path.isdir(dest):
        shutil.rmtree(dest)
    if os.path.isdir(source):
        def skip(directory, names):
            return [n for n in names
                    if os.path.isdir(os.path.join(directory, n)) and
                    (n in (".git", ".bench_build") or n.startswith("build"))]
        shutil.copytree(source, dest, ignore=skip, symlinks=True)
        return os.path.abspath(source)
    sha = run(["git", "rev-parse", "--verify", source + "^{commit}"],
              capture_output=True, text=True).stdout.strip()
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "archive", sha], stdout=subprocess.PIPE)
    run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError("git archive %s failed" % sha)
    return "%s (%s)" % (source, sha[:12])


def bench(tree, workload, seed, seconds, trace, out_json):
    """One bench_tifl run through the tree's run.py; returns its result."""
    if os.path.exists(out_json):
        os.remove(out_json)
    cmd = [sys.executable, RUNNER, "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace",
           "1" if trace else "0", "--json", out_json]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if not os.path.exists(out_json):
        raise RuntimeError("%s: %s seed %d wrote no result (exit %d):\n%s" %
                           (tree, workload, seed, proc.returncode,
                            proc.stderr[-2000:]))
    with open(out_json) as f:
        result = json.load(f)
    result["exit"] = proc.returncode
    return result


def value(result, name):
    entry = result["metrics"].get(name) or result["diagnostics"][name]
    return entry["value"]


def fmt(x):
    if abs(x) >= 1e4:
        return "%.1fk" % (x / 1e3)
    if abs(x) >= 100:
        return "%.0f" % x
    return "%.4g" % x


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", help="git revision or source directory")
    parser.add_argument("change", help="git revision or source directory")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        help="per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--workload", action="append",
                        help="repeatable (default: every BENCHMARK.json one)")
    parser.add_argument("--work", help="scratch directory (default: a new "
                        "temporary one)")
    parser.add_argument("--json", help="write the comparison here")
    parser.add_argument("--trace", type=int, default=0, metavar="N",
                        help="also compare N traced pairs at seed 1")
    args = parser.parse_args()
    if not os.path.exists(RUNNER):
        sys.exit("bench_ab.py: run from the repository root")

    work = os.path.abspath(args.work or tempfile.mkdtemp(prefix="bench_ab_"))
    os.makedirs(work, exist_ok=True)
    sides = {}
    for side in ("base", "change"):
        tree = os.path.join(work, side)
        label = export(getattr(args, side), tree)
        sides[side] = {"source": label, "tree": tree}
        print("# %s: %s -> %s" % (side, label, tree), flush=True)

    with open(os.path.join(sides["change"]["tree"], "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    report = {"base": sides["base"]["source"],
              "change": sides["change"]["source"], "pairs": args.pairs,
              "seconds": seconds, "workloads": {}}
    for workload in workloads:
        runs = {"base": [], "change": []}
        for i in range(1, args.pairs + 1):
            order = ("base", "change") if i % 2 else ("change", "base")
            for side in order:
                out = os.path.join(work, "%s-%s-%d.json" % (side, workload, i))
                runs[side].append(
                    bench(sides[side]["tree"], workload, i, seconds, False, out))
            print("# %s pair %d/%d done" % (workload, i, args.pairs),
                  flush=True)
        entry = {"runs": runs, "metrics": {}}
        for side in ("base", "change"):
            entry[side + "_failed_runs"] = sum(
                1 for r in runs[side] if r["exit"] != 0 or r["failed"] != 0)
            entry[side + "_max_fail_frac"] = max(
                value(r, "fail_frac") for r in runs[side])
            entry[side + "_golden_compared"] = sum(
                1 for r in runs[side] if r["golden"] == "compared")
        for m in metrics:
            b = [value(r, m["name"]) for r in runs["base"]]
            c = [value(r, m["name"]) for r in runs["change"]]
            sign = 1 if m["better"] == "higher" else -1
            median_b = quantile(b, 0.5)
            won = sum(1 for x, y in zip(b, c) if sign * (y - x) > 0)
            untied = sum(1 for x, y in zip(b, c) if x != y)
            entry["metrics"][m["name"]] = {
                "unit": m["unit"], "better": m["better"], "bound": m["bound"],
                "base": {"median": median_b, "q1": quantile(b, 0.25),
                         "q3": quantile(b, 0.75), "values": b},
                "change": {"median": quantile(c, 0.5),
                           "q1": quantile(c, 0.25), "q3": quantile(c, 0.75),
                           "values": c},
                "change_pct": (100.0 * (quantile(c, 0.5) - median_b) /
                               median_b if median_b else 0.0),
                "pairs_won": won,
                "sign_p": sign_test_p(won, untied),
                "verdict": verdict(b, c, m["better"], m["bound"]),
            }
        if args.trace:
            entry["traced"] = {"base": [], "change": []}
            for i in range(1, args.trace + 1):
                order = ("base", "change") if i % 2 else ("change", "base")
                for side in order:
                    out = os.path.join(work, "%s-%s-traced-%d.json" %
                                       (side, workload, i))
                    entry["traced"][side].append(
                        bench(sides[side]["tree"], workload, 1, seconds, True,
                              out))
        report["workloads"][workload] = entry
        print_workload(workload, entry, args.pairs)

    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=2)
            f.write("\n")
    return 0


def print_workload(workload, entry, pairs):
    print("\n%s (%d pairs; failed runs base %d, change %d; max fail_frac "
          "base %g, change %g; runs with goldens compared base %d, "
          "change %d)" %
          (workload, pairs, entry["base_failed_runs"],
           entry["change_failed_runs"], entry["base_max_fail_frac"],
           entry["change_max_fail_frac"], entry["base_golden_compared"],
           entry["change_golden_compared"]))
    print("%-14s %-26s %-26s %8s %5s %6s  %s" %
          ("metric", "base median [q1-q3]", "change median [q1-q3]",
           "change", "won", "p", "verdict (bound)"))
    for name, m in entry["metrics"].items():
        b, c = m["base"], m["change"]
        print("%-14s %-26s %-26s %+7.1f%% %2d/%-2d %6.3g  %s (%g%%)" %
              (name, "%s [%s-%s]" % (fmt(b["median"]), fmt(b["q1"]),
                                     fmt(b["q3"])),
               "%s [%s-%s]" % (fmt(c["median"]), fmt(c["q1"]), fmt(c["q3"])),
               m["change_pct"], m["pairs_won"], pairs, m["sign_p"],
               m["verdict"], 100 * m["bound"]))
    traced = entry.get("traced")
    if traced:
        print("traced, seed 1, medians of %d runs per side:" %
              len(traced["base"]))
        print("  %-42s %12s %12s %8s" %
              ("layer metric", "base", "change", "change"))
        for name in traced["base"][0]["metrics"]:
            x = quantile([value(r, name) for r in traced["base"]], 0.5)
            y = quantile([value(r, name) for r in traced["change"]], 0.5)
            pct = "%+7.1f%%" % (100.0 * (y - x) / x) if x else "       -"
            print("  %-42s %12s %12s %s" % (name, fmt(x), fmt(y), pct))
    sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main())
