"""Alternating-pairs benchmark campaign: a parent checkout against a change.

    python3 tests/campaign.py PARENT_DIR CHANGE_DIR --workload grid400_doppler \\
        [--workload grid100_identify ...] --pairs 10 --seconds 40 \\
        --first-seed 100

Pair k of workload W runs ``python3 perfbench/run.py --workload W --seed
N+k --seconds S --trace 0`` once in each checkout, as a new process started
there; even pairs run the parent first, odd pairs the change.  Pair k of
every workload runs before pair k + 1 of any.  Only the last line of a
run's standard output, its result object, is read.

The script prints each pair as it finishes, then, per workload and per
end-to-end metric of ``BENCHMARK.json``, each side's median and quartiles,
how many pairs the change won and lost (ties count for neither side), and
whether a gain holds or a loss is flagged.  A gain holds when the change
wins at least nine tenths of the pairs and its median beats the parent's by
more than the parent's interquartile range; a loss is flagged when the
change loses at least nine tenths of the pairs and its median is worse
than the parent's by more than that range.  It exits 1 when a run fails,
reports a failed position, or a loss is flagged.

Like ``identity.py``, pytest does not collect this file.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys


def run_once(checkout, workload, seed, seconds):
    """The metric values of one benchmark run in ``checkout``."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"benchmark run in {checkout} exited "
                         f"{proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"benchmark run in {checkout} (seed {seed}) failed "
                         f"{result['failed']} of {result['attempted']} "
                         f"positions")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    """``(q1, median, q3)``, inclusive quartiles; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(name, better, pairs):
    """``(lines, lost)``: lines reporting one metric over the ``(parent,
    change)`` pairs, and whether a loss is flagged."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
    if not pairs:
        return [f"{name}: no values"], False
    parent = quartiles([p for p, _c in pairs])
    change = quartiles([c for _p, c in pairs])
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    losses = sum(sign * (c - p) < 0 for p, c in pairs)
    gain = sign * (change[1] - parent[1])
    iqr = parent[2] - parent[0]
    most = math.ceil(0.9 * len(pairs))
    holds = wins >= most and gain > iqr
    lost = losses >= most and -gain > iqr
    verdict = ("gain holds" if holds else "LOSS flagged" if lost
               else "neither a gain nor a loss shown")
    return [
        f"{name} ({better} is better)",
        f"  parent median {parent[1]:.6g}  quartiles {parent[0]:.6g} .. "
        f"{parent[2]:.6g}",
        f"  change median {change[1]:.6g}  quartiles {change[0]:.6g} .. "
        f"{change[2]:.6g}",
        f"  change wins {wins}/{len(pairs)}, loses {losses}/{len(pairs)}; "
        f"median gain {gain:.6g} against parent IQR {iqr:.6g}: {verdict}"], lost


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True, action="append",
                        help="a workload of the benchmark; repeat for more")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(args.parent, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]

    runs = {workload: [] for workload in args.workload}
    for k in range(args.pairs):
        seed = args.first_seed + k
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for workload in runs:
            got = {side: run_once(getattr(args, side), workload, seed,
                                  args.seconds) for side in order}
            runs[workload].append((got["parent"], got["change"]))
            print(f"{workload} pair {k + 1} seed {seed} ({order[0]} first): "
                  + "; ".join(f"{m['name']} {got['parent'].get(m['name'])} -> "
                              f"{got['change'].get(m['name'])}"
                              for m in metrics), flush=True)
    lost = []
    for workload, pairs in runs.items():
        print(f"== {workload}")
        for m in metrics:
            lines, loss = summarize(m["name"], m["better"], [
                (p.get(m["name"]), c.get(m["name"])) for p, c in pairs])
            print("\n".join(lines))
            lost += [f"{workload} {m['name']}"] * loss
    if lost:
        print("loss flagged: " + ", ".join(lost))
    return 1 if lost else 0


if __name__ == "__main__":
    sys.exit(main())
