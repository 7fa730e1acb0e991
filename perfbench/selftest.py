#!/usr/bin/env python3
"""Self-test of the benchmark's checks and output contract.

Run from the repository root:

    python3 perfbench/selftest.py

1. Plants one drift in a copy of each committed reference (one golden
   counter in perf_goldens.txt, one rate in modern_zoo.txt) and runs the
   workload that reads it against the copy. Each run must fail: non-zero
   exit, "correct": false and a mismatch ratio above zero.
2. Checks that the metric names a run prints equal the names in
   BENCHMARK.json: the end-to-end names for --trace 0 (taken from the
   drift runs, which still print their result) and the per-layer names
   for --trace 1 (one clean traced run, which must pass).
3. Checks that the benchmark exits non-zero without printing a result in
   a directory holding only BENCHMARK.json and perfbench/.

Takes about four minutes. Scratch files go under .perfbench_scratch/.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench_scratch", "selftest")
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def run(args, cwd=ROOT):
    """Runs the benchmark; returns (exit code, parsed last stdout line or None)."""
    p = subprocess.run(RUN + args, cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return p.returncode, result


def drifted_copy(src, dst, edit):
    with open(os.path.join(ROOT, src)) as f:
        text = f.read()
    changed = edit(text)
    assert changed != text, f"drift not planted in {src}"
    with open(dst, "w") as f:
        f.write(changed)
    return dst


def bump_golden_counter(text):
    # First line, third counter field (indirect_mispredicted): +1.
    first, rest = text.split("\n", 1)
    fields = first.split("\t")
    fields[4] = str(int(fields[4]) + 1)
    return "\t".join(fields) + "\n" + rest


def bump_zoo_rate(text):
    # The Gforth bench-gc plain row's first printed rate: +0.1.
    lines = text.split("\n")
    i = next(i for i, l in enumerate(lines) if l.startswith("plain "))
    tokens = lines[i].split()
    lines[i] = lines[i].replace(tokens[1], f"{float(tokens[1]) + 0.1:.1f}", 1)
    return "\n".join(lines)


def expect_failure(workload, flag, path, failures):
    code, result = run(["--workload", workload, "--seed", "1", "--seconds", "0",
                        "--trace", "0", flag, path])
    ok = (code != 0 and result is not None and result["correct"] is False
          and result["failed"] >= 1 and result["failed"] / result["attempted"] > 0)
    print(f"drift in {flag} -> {workload}: exit {code}, "
          f"failed {result and result['failed']}/{result and result['attempted']}: "
          f"{'ok' if ok else 'NOT DETECTED'}")
    if not ok:
        failures.append(f"{workload}: planted drift not detected")
    return result


def expect_names(result, section, bench, label, failures):
    want = [m["name"] for m in bench[section]]
    got = list(result["metrics"]) if result else []
    ok = sorted(got) == sorted(want)
    print(f"{label} metric names match BENCHMARK.json {section}: {'ok' if ok else 'NO'}")
    if not ok:
        failures.append(f"{label}: printed {sorted(set(got) ^ set(want))} differ")


def bare_directory_fails(failures):
    bare = os.path.join(SCRATCH, "bare")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("target", "__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "zoo-sweep",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=bare, capture_output=True, text=True, timeout=180)
    ok = p.returncode != 0 and not p.stdout.strip()
    print(f"bare directory: exit {p.returncode}, stdout empty: {not p.stdout.strip()}: "
          f"{'ok' if ok else 'NO'}")
    if not ok:
        failures.append("bare directory did not fail cleanly")


def main():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(os.path.join(SCRATCH, "bare"))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []
    goldens = drifted_copy("tests/fixtures/perf_goldens.txt",
                           os.path.join(SCRATCH, "perf_goldens.txt"), bump_golden_counter)
    zoo = drifted_copy("results/modern_zoo.txt",
                       os.path.join(SCRATCH, "modern_zoo.txt"), bump_zoo_rate)
    live = expect_failure("live-grid", "--goldens", goldens, failures)
    expect_failure("zoo-sweep", "--modern-zoo", zoo, failures)
    expect_names(live, "end_to_end", bench, "--trace 0", failures)

    code, traced = run(["--workload", "sampled-sweep", "--seed", "1", "--seconds", "2",
                        "--trace", "1"])
    if code != 0 or not traced or not traced["correct"]:
        failures.append(f"clean traced run failed (exit {code})")
    expect_names(traced, "per_layer", bench, "--trace 1", failures)

    bare_directory_fails(failures)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(SCRATCH))
    except OSError:
        pass
    for f in failures:
        print("FAIL:", f)
    print("self-test", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
