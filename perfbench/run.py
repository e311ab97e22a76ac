#!/usr/bin/env python3
"""Build the benchmark and the fcm-serve daemon from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <plan|serve-small|serve-large> \
        --seed <N> --seconds <S> --trace <0|1>

Both binaries are built offline in release mode into $CARGO_TARGET_DIR
(default: .bench_build under the repository root). Build output goes to
stderr; the benchmark's own stdout passes through unchanged, so its last
line is the JSON result. The exit code is the benchmark's, or 2 when the
repository sources are missing or do not build.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target_dir, manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, *extra]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    # stdout to stderr: only the benchmark may write the result line.
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode


def main():
    serve_manifest = os.path.join(ROOT, "crates", "serve", "Cargo.toml")
    bench_manifest = os.path.join(HERE, "Cargo.toml")
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml")) and os.path.isfile(serve_manifest)):
        print("run.py: repository sources not found next to perfbench/", file=sys.stderr)
        return 2
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target_dir):
        target_dir = os.path.join(ROOT, target_dir)
    if build(target_dir, serve_manifest, "--bin", "fcm-serve") != 0:
        return 2
    if build(target_dir, bench_manifest) != 0:
        return 2
    exe = os.path.join(target_dir, "release", "perfbench")
    return subprocess.run([exe, *sys.argv[1:]], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
