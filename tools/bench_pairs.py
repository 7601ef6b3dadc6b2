"""Paired benchmark runs of two checkouts, and the claim rule read off them.

Usage, from anywhere::

    python3 tools/bench_pairs.py --parent OLD_CHECKOUT --change NEW_CHECKOUT \\
        --workload solve-small --seeds 201-210 [--seconds 20] [--out pairs.json]

For each workload and seed, ``python3 bench/run.py --workload W --seed S
--seconds T --trace 0`` runs once in each checkout, one after the other;
which checkout goes first alternates from pair to pair, so a drift of
the machine over time falls on both sides alike.  The last line a run
prints is its JSON result.  For every end-to-end metric that the
change's ``BENCHMARK.json`` lists, the report gives the median and
quartiles of each side, the change's wins (pairs in which it is better)
and the median's relative move against the metric's bound.  A metric
reads ``within`` or ``BEYOND`` its bound by that move, but
``unresolved`` when the parent's interquartile range, relative to its
median, is wider than the bound: such runs spread too widely to tell a
move of the bound's size.  Every change run reading better than every
parent run settles it as ``within`` all the same.  The claim rule holds
for a metric when the change wins at least 9 pairs in 10 and its median
is better than the parent's by more than the parent's interquartile
range.  ``--workload`` may be given more than once.  Not
part of the test suite; it writes nothing under either ``bench/`` but
the reports ``bench/run.py`` itself leaves in ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text: str) -> list:
    """``"201-210"`` or ``"5,9,12"`` (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += list(range(int(first), int(last or first) + 1))
    return seeds


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(old: list, new: list, spread: float, worse: float, bound: float, lower: bool) -> str:
    """``within``, ``BEYOND`` or ``unresolved`` (see the module docstring)."""
    if (max(new) < min(old)) if lower else (min(new) > max(old)):
        return "within"
    if spread > bound:
        return "unresolved"
    return "within" if worse <= bound else "BEYOND"


def summarize(pairs: list, spec: dict) -> list:
    """One row per end-to-end metric: medians, quartiles, wins, verdict and the claim rule."""
    rows = []
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        old = [p["parent"]["metrics"][name]["value"] for p in pairs]
        new = [p["change"]["metrics"][name]["value"] for p in pairs]
        wins = sum((b < a) if lower else (b > a) for a, b in zip(old, new))
        m_old, m_new = statistics.median(old), statistics.median(new)
        q1, q3 = quartiles(old)
        move = (m_new - m_old) / m_old if m_old else 0.0
        worse = move if lower else -move
        gap = (m_old - m_new) if lower else (m_new - m_old)
        spread = (q3 - q1) / abs(m_old) if m_old else float("inf")
        rows.append({
            "metric": name, "parent_median": m_old, "parent_q1": q1, "parent_q3": q3,
            "change_median": m_new, "change_q": quartiles(new), "wins": wins, "pairs": len(pairs),
            "relative_move": move, "parent_spread": spread, "bound": metric["bound"],
            "verdict": verdict(old, new, spread, worse, metric["bound"], lower),
            "claim_holds": wins >= 0.9 * len(pairs) and gap > q3 - q1,
        })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 201-210 or 5,9,12")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", help="write every run and the summary as JSON")
    args = parser.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    report = {}
    for workload in args.workload:
        pairs = []
        for i, seed in enumerate(parse_seeds(args.seeds)):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(getattr(args, side), workload, seed, args.seconds)
            pairs.append(pair)
            cells = "  ".join(f"{name} {pair['parent']['metrics'][name]['value']:.6g} -> "
                              f"{pair['change']['metrics'][name]['value']:.6g}"
                              for name in (m["name"] for m in spec["end_to_end"]))
            failed = (pair["parent"]["failed"], pair["change"]["failed"])
            print(f"{workload} seed {seed} ({order[0]} first): {cells}  failed {failed[0]} -> {failed[1]}",
                  flush=True)
        rows = summarize(pairs, spec)
        for r in rows:
            print(f"{workload} {r['metric']}: {r['parent_median']:.6g} [{r['parent_q1']:.6g}-{r['parent_q3']:.6g}]"
                  f" -> {r['change_median']:.6g}, wins {r['wins']}/{r['pairs']}, move {100 * r['relative_move']:+.2f}%"
                  f" ({r['verdict']} bound {100 * r['bound']:.0f}%, parent spread {100 * r['parent_spread']:.1f}%),"
                  f" claim rule {'holds' if r['claim_holds'] else 'does not hold'}", flush=True)
        report[workload] = {"pairs": pairs, "summary": rows}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
