#!/usr/bin/env python3
"""Build the gcm end-to-end benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 6 --trace 0
    python3 perfbench/run.py --selftest

The build tree is $CARGO_TARGET_DIR (default .bench_build) under the
checkout root; the first run configures and compiles the library and
the benchmark binary there, later runs only re-check it. Build output
goes to stderr, so the last line of stdout is the binary's result
object.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train-paper", "serve-hot", "serve-cold", "serve-unseen")


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build(tree):
    """Configure (once) and build the benchmark binary and its tests."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources at %s" % os.path.join(ROOT, "src"))
    # The compiler's temporary files stay in the build tree too.
    tmp = os.path.join(tree, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", tree,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, env=env)
    subprocess.run(["cmake", "--build", tree, "-j", str(len(os.sched_getaffinity(0))),
                    "--target", "perfbench", "perfbench_tests"],
                   stdout=sys.stderr, check=True, env=env)


def src_digest():
    """SHA-256 over the library sources: identifies the code without git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=6.0)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--selftest", action="store_true",
                    help="run the benchmark's own tests instead")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    tree = build_dir()
    try:
        build(tree)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)

    if args.selftest:
        return subprocess.run([os.path.join(tree, "perfbench_tests")]).returncode
    cmd = [os.path.join(tree, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--git-rev", git_rev(), "--src-digest", src_digest()]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
