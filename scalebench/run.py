#!/usr/bin/env python3
"""Builds and runs the scale-tier benchmark for one workload.

Usage (from the root of a checkout):

    python3 scalebench/run.py --workload serve-write --seed 1 --seconds 8 --trace 0

Builds the benchmark package (scalebench/Cargo.toml) and the repository's `serviced`
daemon in release mode into $CARGO_TARGET_DIR (default: .bench_build), then runs the
benchmark binary, which prints its report and, as the last line of standard output, the
result JSON.  Build output goes to standard error.  Exits non-zero if a build fails, a
correctness check fails, or the run does not finish in time.
"""

import argparse
import hashlib
import os
import pathlib
import signal
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "scalebench"
RUN_TIMEOUT_S = 165


def build(args, env):
    """Runs one cargo build with its output on stderr; exits on failure."""
    result = subprocess.run(["cargo", "build", "--release", "--locked", *args],
                            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.exit(f"run.py: cargo build {' '.join(args)} failed")


def command_output(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unavailable"


def source_digest():
    """SHA-256 over the sources the benchmark builds, identifying the code under test
    when the checkout carries no git metadata."""
    digest = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", BENCH / "Cargo.toml"]
    for pattern in ("crates/**/*.rs", "crates/**/Cargo.toml", "vendor/**/*.rs",
                    "scalebench/src/**/*.rs"):
        files.extend(sorted(ROOT.glob(pattern)))
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    env = dict(os.environ)
    target = pathlib.Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build(["--manifest-path", str(BENCH / "Cargo.toml")], env)
    build(["--manifest-path", str(ROOT / "Cargo.toml"), "-p", "arbcolor_service",
           "--bin", "serviced"], env)

    git = (command_output(["git", "rev-parse", "HEAD"])
           if (ROOT / ".git").exists() else "unavailable (not a git checkout)")
    env.update({
        "SCALEBENCH_COMMIT": git,
        "SCALEBENCH_SOURCE_DIGEST": source_digest(),
        "SCALEBENCH_RUSTC": command_output(["rustc", "--version"]),
    })
    # A process group of its own, so a timeout also stops the daemons the benchmark spawned.
    child = subprocess.Popen(
        [str(target / "release" / "scalebench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--serviced", str(target / "release" / "serviced"),
         "--out", str(BENCH / "out")],
        cwd=ROOT, env=env, start_new_session=True)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        print(f"run.py: {args.workload} did not finish within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
