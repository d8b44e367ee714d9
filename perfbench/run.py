#!/usr/bin/env python3
"""Build and run the wall-clock benchmark.

    python3 perfbench/run.py --workload raw|sophon|whatif-sweep \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR/perfbench,
or .bench_build/perfbench when that is unset, then runs the binary. The last
line of standard output is the result JSON; build output goes to stderr.
Exits non-zero without a result when the build fails.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_SEED = 1  # the held-out seed is 2; see perfbench/README.md


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure and build; returns the binary's path or None on failure."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out],
                ["cmake", "--build", out, "-j", jobs, "--target", "perfbench"]):
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              cwd=ROOT, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace"))
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return None
    return os.path.join(out, "perfbench")


def commit():
    """The checkout's git commit, or "unknown" when it is not a repository."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    done = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=False)
    return done.stdout.decode().strip() or "unknown"


def main(argv):
    binary = build()
    if binary is None:
        return 1
    args = list(argv)
    if "--seed" not in args:
        args += ["--seed", str(DEFAULT_SEED)]
    return subprocess.run([binary] + args + ["--commit", commit()], cwd=ROOT,
                          check=False).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
