#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload exec-scc-pressure --seed 1 --seconds 20 --trace 0

The benchmark is the Go program in perfbench/ (a module of its own that
uses the repository's packages through a replace directive). This script
builds it into the build directory ($CARGO_TARGET_DIR, or .bench_build),
keeping the Go build cache and every other file the toolchain writes
inside that directory, then runs it with the given arguments from the
repository root and exits with its exit code. The benchmark's last line
of standard output is its JSON result. If the build fails (for example
when the repository's sources are missing) the script exits non-zero
without printing a result.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main():
    root = os.getcwd()
    bench_dir = os.path.join(root, "perfbench")
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    binary = os.path.join(build_dir, "perfbench")

    gotmp = os.path.join(build_dir, "gotmp")
    os.makedirs(gotmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOTMPDIR": gotmp,
        "GOCACHE": os.path.join(build_dir, "gocache"),
        "GOMODCACHE": os.path.join(build_dir, "gomodcache"),
        "GOPATH": os.path.join(build_dir, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build_dir, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    args = [binary, "-out", os.path.join(build_dir, "trace"),
            "-workdir", os.path.join(build_dir, "tmp")] + sys.argv[1:]
    try:
        run = subprocess.run(args, cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: run failed: {err}", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
