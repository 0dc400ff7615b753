#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload iter-cube-laplace-20k --seed 1 --seconds 30 --trace 0

The Go toolchain's build cache, module cache and configuration all live in
the build directory ($CARGO_TARGET_DIR, default .bench_build), so the
benchmark writes nothing outside the checkout. A failed build exits non-zero
without printing a result.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_stamp():
    """The git revision when the checkout is a repository, else a digest of
    the Go sources, so every result names the code it measured."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, check=True, timeout=30).stdout.strip()
            return "git:" + rev
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOFLAGS": "",
    })
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                               stdout=sys.stderr, timeout=840)
    except (OSError, subprocess.SubprocessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    argv = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", args.trace, "--commit", source_stamp()]
    sys.stdout.flush()
    os.execv(binary, argv)


if __name__ == "__main__":
    sys.exit(main())
