#!/usr/bin/env python3
"""Build and run the live-cluster DVDC benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <ckpt-small|ckpt-large|rebuild> \
        --seed <n> --seconds <n> --trace <0|1>

Builds `perfbench/` (a Cargo package of its own that uses the
repository's crates by path) in release mode, offline, into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs it once. Its
standard output is passed through; the last line is the JSON result.
Exits non-zero when the build fails, the run fails or times out, or the
result line is malformed. See `perfbench/README.md`.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def source_sha256():
    """Digest of the sources the benchmark builds, for provenance where
    no git commit is available."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "vendor", "perfbench"):
        files += sorted(
            p
            for p in (ROOT / top).rglob("*")
            if p.is_file() and "out" not in p.relative_to(ROOT / top).parts[:1]
        )
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode() + b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["ckpt-small", "ckpt-large", "rebuild"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"error: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("error: build failed", file=sys.stderr)
        return 1

    env.update(
        DVDC_BENCH_COMMIT=git_commit(),
        DVDC_BENCH_SOURCE=source_sha256(),
        DVDC_BENCH_OUT=str(ROOT / "perfbench" / "out"),
    )
    cmd = [
        str(target / "release" / "dvdc-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
    ]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"error: benchmark run failed: {e}", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        ok = set(result) == RESULT_KEYS
    except (IndexError, ValueError, TypeError):
        ok = False
    if not ok:
        print("error: the last line of output is not a result object", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
