#!/usr/bin/env python3
"""Repository benchmark: builds the programs under test from source and runs
the benchmark driver on one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload battery --seed 1 --seconds 20 --trace 0

Workloads: battery, verify-fuzz, service-mix. The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Everything the build and the runs write goes under .bench_build/ in the
checkout, Go's build cache included. See perfbench/README.md.
"""

import argparse
import ctypes
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")
WORKLOADS = ("battery", "verify-fuzz", "service-mix")

# Files the benchmark needs from the repository besides its own.
REQUIRED = ("go.mod", "cmd/experiments/main.go", "cmd/striderd/main.go",
            "experiments_output.txt")

# Test and build files compiled into the programs under test, each mapped
# onto a package directory with go build -overlay.
OVERLAYS = {
    "cmd/experiments/zz_perfbench_test.go": "perfbench/overlay/experiments_test.go.in",
    "cmd/striderd/zz_perfbench_pprof.go": "perfbench/overlay/striderd_pprof.go.in",
}


def die_with_parent():
    """Has the kernel kill the driver if this process dies (PR_SET_PDEATHSIG)."""
    ctypes.CDLL(None).prctl(1, signal.SIGKILL)


def go_env():
    """Keeps the Go toolchain's caches and temporary files in the checkout."""
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-buildvcs=false",
        "CGO_ENABLED": "0",
    })
    os.makedirs(tmp, exist_ok=True)
    return env


def source_stamp():
    """Hashes every input of the build, so an unchanged tree is not rebuilt."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith((".go", ".go.in")) or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read() + b"\0")
    return h.hexdigest()


def build(env):
    stamp = source_stamp()
    stamp_path = os.path.join(BIN, "stamp")
    try:
        with open(stamp_path) as f:
            if f.read() == stamp:
                return
    except FileNotFoundError:
        pass
    os.makedirs(BIN, exist_ok=True)
    overlay = os.path.join(BUILD, "overlay.json")
    with open(overlay, "w") as f:
        json.dump({"Replace": {os.path.join(ROOT, k): os.path.join(ROOT, v)
                               for k, v in OVERLAYS.items()}}, f)
    steps = [
        (ROOT, ["go", "test", "-c", "-overlay", overlay,
                "-o", os.path.join(BIN, "experiments.test"), "./cmd/experiments"]),
        (ROOT, ["go", "build", "-overlay", overlay,
                "-o", os.path.join(BIN, "striderd"), "./cmd/striderd"]),
        (HERE, ["go", "build", "-o", os.path.join(BIN, "driver"), "./driver"]),
        (HERE, ["go", "build", "-o", os.path.join(BIN, "nop"), "./nop"]),
    ]
    for cwd, cmd in steps:
        if subprocess.call(cmd, cwd=cwd, env=env, stdout=sys.stderr) != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    with open(stamp_path, "w") as f:
        f.write(stamp)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be at least 1 and --seed not negative")
    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        sys.exit("perfbench: not a strider checkout, missing " + ", ".join(missing))
    env = go_env()
    build(env)
    work = os.path.join(BUILD, "work", args.workload)
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(BIN, "driver"), "-workload", args.workload,
           "-seed", str(args.seed), "-seconds", str(args.seconds),
           "-trace", str(args.trace), "-root", ROOT, "-bin", BIN, "-work", work]
    sys.stdout.flush()
    sys.exit(subprocess.call(cmd, env=env, preexec_fn=die_with_parent))


if __name__ == "__main__":
    main()
