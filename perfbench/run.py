#!/usr/bin/env python3
"""Build and run the IAT simulator benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload leaky-dma|corun|corun-sampled|sweep \
        --seed N --seconds S --trace 0|1

Builds the `perfbench` binary from source (release profile, offline) into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs one measurement.
The binary's standard output passes through unchanged; its last line is
the JSON result. For `corun-sampled` the exact reference run it is graded
against is computed first, outside the timed run, and cached under the
target directory keyed by the binary's SHA-256 and the seed, so a rebuilt
program never reuses a stale reference. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["leaky-dma", "corun", "corun-sampled", "sweep"]
ROOT = Path(__file__).resolve().parent.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kw):
    """Run `cmd` to completion; kill and reap it if it outlives `timeout`."""
    proc = subprocess.Popen(cmd, cwd=ROOT, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 1
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description="IAT simulator benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    manifest = ROOT / "perfbench" / "Cargo.toml"
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)]
    if run(build, BUILD_TIMEOUT_S, env=env, stdout=sys.stderr) != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = target / "release" / "perfbench"
    out_dir = target / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)

    cmd = [str(binary), "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", str(out_dir)]
    if args.workload == "corun-sampled":
        ref = out_dir / f"corun-reference-{sha256(binary)[:16]}-seed{args.seed}.json"
        if not ref.exists():
            tmp = ref.with_suffix(f".tmp{os.getpid()}")
            code = run([str(binary), "reference", "--seed", str(args.seed), "--out", str(tmp)],
                       RUN_TIMEOUT_S, env=env, stdout=sys.stderr)
            if code != 0:
                tmp.unlink(missing_ok=True)
                print("perfbench: exact reference run failed", file=sys.stderr)
                return 1
            tmp.replace(ref)
        cmd += ["--reference", str(ref)]
    sys.stdout.flush()
    return run(cmd, RUN_TIMEOUT_S, env=env)


if __name__ == "__main__":
    sys.exit(main())
