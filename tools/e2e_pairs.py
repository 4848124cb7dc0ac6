#!/usr/bin/env python3
"""Alternating parent/change pairs of the end-to-end benchmark.

    python3 tools/e2e_pairs.py --parent DIR --change DIR --workload NAME \\
        --seed N --pairs N [--metric NAME] [--seconds N]

DIR is a checkout of the repository (the parent, e.g. from `git worktree
add`, and the change). Each pair runs `bench/e2e/run.py --trace 0` once in
each checkout, one after the other: the parent goes first on odd pairs and
the change first on even ones, so slow drifts of the host hit both sides
alike. Every run builds its checkout's bench_e2e first (incrementally), and
only the result JSON it prints is used.

For every end-to-end metric of BENCHMARK.json (read from the change
checkout) it prints one row per pair, both medians and quartiles, and how
many pairs the change won. Then it prints the verdicts:

  - claim (with --metric): that metric must win at least 9 of every 10
    pairs, and the gap between the medians must be wider than the parent's
    interquartile range;
  - bounds: every other metric's median must not be worse than the parent's
    by more than its BENCHMARK.json bound (a share of the parent median);
  - failures: the change's share of failed operations must not rise.

The exit status is 0 when every verdict passes, 1 when one fails and 2 on a
bad argument or a run that did not produce a result. Standard library only.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys


def fail(message):
    print(f"e2e_pairs: {message}", file=sys.stderr)
    sys.exit(2)


def run_once(checkout, args):
    """Runs one plain benchmark run in `checkout`; returns its result JSON."""
    cmd = [sys.executable, str(checkout / "bench" / "e2e" / "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"run in {checkout} failed (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if not result.get("correct", False):
        fail(f"run in {checkout} reported an incorrect result")
    return result


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) computes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(metric, a, b):
    """True when value a is strictly better than value b."""
    return a > b if metric["better"] == "higher" else a < b


def failed_share(result):
    attempted = result.get("attempted", 0)
    return result.get("failed", 0) / attempted if attempted else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=pathlib.Path)
    parser.add_argument("--change", required=True, type=pathlib.Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--metric",
                        help="the end-to-end metric the change claims to improve "
                             "(omit to judge every metric against its bound)")
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    names = [m["name"] for m in metrics]
    if args.metric is not None and args.metric not in names:
        parser.error(f"--metric must be one of {names}")

    runs = {"parent": [], "change": []}
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 == 1 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(getattr(args, side), args))
        print(f"pair {pair}/{args.pairs} done (first: {order[0]})", file=sys.stderr)

    def values(side, name):
        return [r["metrics"][name]["value"] for r in runs[side]]

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"pairs {args.pairs}")
    verdicts = []
    for m in metrics:
        name = m["name"]
        parent = values("parent", name)
        change = values("change", name)
        wins = sum(better(m, c, p) for p, c in zip(parent, change))
        print(f"\n{name} ({m['unit']}, {m['better']} is better)")
        print(f"{'pair':>4} {'parent':>14} {'change':>14} {'ratio':>7}  win")
        for i, (p, c) in enumerate(zip(parent, change), start=1):
            ratio = c / p if p else float("nan")
            print(f"{i:>4} {p:>14.6g} {c:>14.6g} {ratio:>7.3f}  "
                  f"{'yes' if better(m, c, p) else 'no'}")
        pq1, pmed, pq3 = quartiles(parent)
        cq1, cmed, cq3 = quartiles(change)
        print(f"parent median {pmed:.6g} (q1 {pq1:.6g}, q3 {pq3:.6g})")
        print(f"change median {cmed:.6g} (q1 {cq1:.6g}, q3 {cq3:.6g})")
        print(f"change wins {wins}/{args.pairs}")
        if name == args.metric:
            gap = cmed - pmed if m["better"] == "higher" else pmed - cmed
            iqr = pq3 - pq1
            ok = wins * 10 >= 9 * args.pairs and gap > iqr
            verdicts.append((f"claim {name}: {wins}/{args.pairs} wins, median gap "
                             f"{gap:.6g} vs parent IQR {iqr:.6g}", ok))
        else:
            worse = (pmed - cmed) if m["better"] == "higher" else (cmed - pmed)
            share = worse / pmed if pmed else 0.0
            verdicts.append((f"bound {name}: worse by {share:+.1%} "
                             f"(bound {m['bound']:.0%})", share <= m["bound"]))

    parent_failed = max(failed_share(r) for r in runs["parent"])
    change_failed = max(failed_share(r) for r in runs["change"])
    verdicts.append((f"failures: change {change_failed:.3%} vs parent {parent_failed:.3%}",
                     change_failed <= parent_failed))

    print("\nverdicts")
    for text, ok in verdicts:
        print(f"  {'PASS' if ok else 'FAIL'}  {text}")
    return 0 if all(ok for _, ok in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
