"""Summarize benchmark result files: median, quartiles and spread per workload and metric.

    python3 bench/summarize.py .bench_work/results/*-trace0.json
    python3 bench/summarize.py --append LABEL .bench_work/results/*-trace0.json

Spread is (q3 - q1) / median with quartiles from ``statistics.quantiles(n=4)``.
With ``--append`` the summary becomes one line of ``bench/trajectory.jsonl``,
stamped with the commit, source digest and machine of the first result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

TRAJECTORY = Path(__file__).resolve().parent / "trajectory.jsonl"


def summarize(records: list[dict]) -> dict:
    by_workload: dict[str, dict[str, list[float]]] = {}
    runs: dict[str, dict] = {}
    for rec in records:
        metrics = by_workload.setdefault(rec["workload"], {})
        tally = runs.setdefault(rec["workload"], {"runs": 0, "attempted": 0, "failed": 0, "seeds": []})
        tally["runs"] += 1
        tally["attempted"] += rec["attempted"]
        tally["failed"] += rec["failed"]
        tally["seeds"].append(rec["seed"])
        for name, m in rec["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
    out = {}
    for workload, metrics in sorted(by_workload.items()):
        rows = {}
        for name, values in metrics.items():
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            rows[name] = {
                "n": len(values),
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0,
            }
        out[workload] = {**runs[workload], "metrics": rows}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("results", nargs="+", help="result JSON files written by run.py")
    parser.add_argument("--append", metavar="LABEL", help="append a trajectory point")
    args = parser.parse_args(argv)
    records = [json.loads(Path(p).read_text()) for p in args.results]
    summary = summarize(records)
    for workload, row in summary.items():
        print(f"{workload}: {row['runs']} runs, {row['failed']} of {row['attempted']} ops failed")
        for name, m in row["metrics"].items():
            print(
                f"  {name:<32} median {m['median']:<12.6g} q1 {m['q1']:<12.6g} "
                f"q3 {m['q3']:<12.6g} spread {m['spread']:.4f}"
            )
    if args.append:
        first = records[0]
        point = {
            "label": args.append,
            "seconds": first["seconds"],
            "stamp": first["stamp"],
            "workloads": summary,
        }
        with open(TRAJECTORY, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(point, sort_keys=True) + "\n")
        print(f"appended {args.append!r} to {TRAJECTORY}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
