#!/usr/bin/env python3
"""Rolling history of microbenchmark runs, as JSON Lines.

`append` folds freshly measured BENCH_<suite>.json files into one
history record (timestamp, label, per-suite medians and MADs) and
appends it to a gitignored JSONL file; `trend` prints a per-benchmark
median table over the most recent records so drift that stays inside
the bench gate's tolerance band is still visible across runs. Stdlib
only — runs anywhere CI has a Python 3.

Usage:
    scripts/bench_history.py append --dir . --suites dispatch predictors \
        [--label abc1234] [--history results/bench_history.jsonl]
    scripts/bench_history.py trend [--history results/bench_history.jsonl] \
        [--last 8]

Each history line is one run:

    {"ts": "2026-08-07T12:00:00+00:00", "label": "abc1234",
     "suites": {"dispatch": {"translate/plain":
                             {"median_ns": 17005.7, "mad_ns": 353.3}}}}

`append` also prints the trend afterwards, so a single CI step both
records and reports. The history file lives under `results/` and is
gitignored (`*.jsonl`) and accumulates locally. CI uploads it as an
artifact but never restores the previous one, so each CI run records
a one-entry history.

Exit status: 0 on success, 2 on unreadable/malformed input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

DEFAULT_HISTORY = Path("results/bench_history.jsonl")
DEFAULT_LAST = 8


def fail(msg: str) -> "sys.NoReturn":
    print(f"bench-history: {msg}", file=sys.stderr)
    sys.exit(2)


def load_suite(path: Path) -> dict[str, dict]:
    """Reads one BENCH_<suite>.json into {bench_id: {median_ns, mad_ns}}."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {path}: {e}")
    results = doc.get("results")
    if not isinstance(results, list):
        fail(f"{path} has no results array")
    out = {}
    for r in results:
        if not isinstance(r, dict) or "id" not in r or "median_ns" not in r:
            fail(f"{path} has a malformed result entry: {r!r}")
        out[r["id"]] = {
            "median_ns": float(r["median_ns"]),
            "mad_ns": float(r.get("mad_ns", 0.0)),
        }
    return out


def load_history(path: Path) -> list[dict]:
    """All recorded runs, oldest first; an absent file is an empty history."""
    if not path.exists():
        return []
    records = []
    for i, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as e:
            fail(f"{path}:{i}: bad history line: {e}")
    return records


def append(args: argparse.Namespace) -> int:
    label = args.label or os.environ.get("GITHUB_SHA", "local")[:12]
    record = {
        "ts": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "label": label,
        "suites": {s: load_suite(args.dir / f"BENCH_{s}.json") for s in args.suites},
    }
    args.history.parent.mkdir(parents=True, exist_ok=True)
    with args.history.open("a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    n = len(load_history(args.history))
    print(f"bench-history: appended run {label!r} to {args.history} ({n} recorded)")
    return trend_over(load_history(args.history), args.last)


def trend_over(records: list[dict], last: int) -> int:
    """Prints per-benchmark median columns for the most recent runs."""
    if not records:
        print("bench-history: no recorded runs")
        return 0
    window = records[-last:]
    suites = sorted({s for r in window for s in r.get("suites", {})})
    for suite in suites:
        ids = sorted({b for r in window for b in r.get("suites", {}).get(suite, {})})
        width = max(len(f"{suite}/{b}") for b in ids) + 2
        header = "".join(f"{r.get('label', '?')[:11]:>12}" for r in window)
        print(f"\n{suite} median_ns trend (oldest -> newest)")
        print(f"{'benchmark':<{width}}{header}{'delta':>9}")
        for bench_id in ids:
            cells, seen = [], []
            for r in window:
                row = r.get("suites", {}).get(suite, {}).get(bench_id)
                if row is None:
                    cells.append(f"{'-':>12}")
                else:
                    seen.append(row["median_ns"])
                    cells.append(f"{row['median_ns']:>12.0f}")
            delta = "-"
            if len(seen) >= 2 and seen[-2] > 0:
                delta = f"{100.0 * (seen[-1] - seen[-2]) / seen[-2]:+.1f}%"
            print(f"{f'{suite}/{bench_id}':<{width}}{''.join(cells)}{delta:>9}")
    return 0


def trend(args: argparse.Namespace) -> int:
    return trend_over(load_history(args.history), args.last)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_append = sub.add_parser("append", help="record fresh BENCH_*.json files, then print the trend")
    p_append.add_argument("--dir", type=Path, default=Path("."),
                          help="directory holding the fresh BENCH_*.json files (default: .)")
    p_append.add_argument("--suites", nargs="+", required=True,
                          help="suite names, e.g. dispatch predictors")
    p_append.add_argument("--label", default=None,
                          help="run label (default: GITHUB_SHA or 'local')")
    p_append.set_defaults(func=append)

    p_trend = sub.add_parser("trend", help="print the median trend table")
    p_trend.set_defaults(func=trend)

    for p in (p_append, p_trend):
        p.add_argument("--history", type=Path, default=DEFAULT_HISTORY,
                       help=f"history JSONL file (default: {DEFAULT_HISTORY})")
        p.add_argument("--last", type=int, default=DEFAULT_LAST,
                       help=f"how many recent runs the trend shows (default {DEFAULT_LAST})")
    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. piped into `head`
        sys.exit(0)
