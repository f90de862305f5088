#!/usr/bin/env python3
"""Build and run the service-level benchmark from the repository root.

    python3 perfbench/run.py --workload quick|heavy|diverge --seed N \
        --seconds S --trace 0|1 [--smoke]

Builds `perfbench/` (a cargo package of its own that depends on the
repository's crates by path) in release mode, then runs it with the
given arguments plus the source revision. The last line of standard
output is the benchmark's JSON result; the exit status is the
benchmark's (1 when a verdict contradicts ground truth).
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NEEDED = ["Cargo.toml", "crates/server/Cargo.toml", "crates/benchgen/Cargo.toml"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def revision():
    """The git commit, or a digest of the sources outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if f.endswith((".rs", ".toml", ".lock")))
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "src-" + digest.hexdigest()[:16]


def main():
    args = sys.argv[1:]
    if "--workload" not in args and "--classify" not in args:
        fail("usage: run.py --workload quick|heavy|diverge [--seed N] [--seconds S] [--trace 0|1]")
    missing = [p for p in NEEDED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        fail(f"not inside the ringen repository ({', '.join(missing)} missing)")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        fail("cargo build failed")
    binary = os.path.join(target, "release", "ringen-perfbench")
    cmd = [binary, *args, "--commit", revision(),
           "--out", os.path.join(HERE, "out")]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT, env=env).returncode)


if __name__ == "__main__":
    main()
