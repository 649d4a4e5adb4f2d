#!/usr/bin/env python3
"""Build and run the P-sync simulator benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench/` (release, offline) against the simulator crates, prints
a run manifest line (`manifest {...}`: git rev, a hash of the sources built,
nproc, rustc -V, CPU model, seed), then runs the benchmark binary, whose
last stdout line is the JSON result. The manifest is also written next to
the traced runs' Chrome traces in `.perfbench_out/`.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["table3_mesh", "psync_fft2d", "collectives_mixed"]
# What the benchmark binary is built from; hashed into the manifest.
SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]
SKIP_DIRS = {"target", ".git"}


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def source_hash():
    h = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files = [path]
        else:
            files = []
            for d, dirs, names in os.walk(path):
                dirs[:] = sorted(x for x in dirs if x not in SKIP_DIRS)
                files += [os.path.join(d, n) for n in sorted(names)]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        cwd=ROOT, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode

    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_rev": command_output(["git", "rev-parse", "HEAD"]),
        "source_sha256": source_hash(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "rustc": command_output(["rustc", "-V"]),
    }
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    with open(os.path.join(out_dir, stem + ".manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)
    print("manifest " + json.dumps(manifest), flush=True)

    target = os.environ.get("CARGO_TARGET_DIR", os.path.join("perfbench", "target"))
    exe = os.path.join(ROOT, target, "release", "psync-perfbench")
    run = subprocess.run(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
