#!/usr/bin/env python3
"""Build the photomosaic benchmark from the checkout's source and run it.

Usage (from the repository root):
    python3 perfbench/run.py --workload cold-upload --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py compare -base 'A/*.json' -new 'B/*.json'

The Go toolchain's build cache, the binary and every run artefact stay inside
the checkout: .bench_build/ (or $CARGO_TARGET_DIR) for the build, .bench_out/
for result, span and exact-count files. All arguments are passed through to
the Go program (perfbench/main.go); its exit code is returned unchanged.
"""
import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOWORK="off",
        GOTELEMETRY="off",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=here, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if built.returncode != 0:
        print("perfbench: build failed (is this a full checkout of the repository?)", file=sys.stderr)
        return built.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
