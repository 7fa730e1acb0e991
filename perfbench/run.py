#!/usr/bin/env python3
"""Build the perfbench binary from source and run one benchmark invocation.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The binary is built with `cargo build --release` into `$CARGO_TARGET_DIR`
(default `.bench_build`). Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. Untraced runs (`--trace 0`)
disable span recording with `IVM_SPANS=0`; every run uses one worker
(`IVM_JOBS=1`), full-size (non-smoke) inputs and a fixed glibc mmap
threshold.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# One run measures for --seconds plus set-up; stay under the 180 s limit.
RUN_TIMEOUT_S = 170


def arg(name, default):
    argv = sys.argv[1:]
    return argv[argv.index(name) + 1] if name in argv[:-1] else default


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    env["CARGO_NET_OFFLINE"] = "true"
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    env.pop("IVM_SMOKE", None)
    env.pop("IVM_TRACE_DIR", None)
    env["IVM_JOBS"] = "1"
    # A fixed glibc mmap threshold: the adaptive one makes peak RSS depend
    # on the order of large frees, which the seed permutes.
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    if arg("--trace", "0") == "0":
        env["IVM_SPANS"] = "0"
    else:
        env.pop("IVM_SPANS", None)
    exe = os.path.join(target, "release", "ivm-perfbench")
    try:
        run = subprocess.run([exe] + sys.argv[1:], cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
