#!/usr/bin/env python3
"""Build and run the CROSS benchmark for one workload and seed.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release profile) against the crates of
this checkout into $CARGO_TARGET_DIR (default `.bench_build`), prints a
`machine:` fingerprint line, then runs the workload in its own process.
The last line of standard output is the workload's JSON result. The
exit code is the workload's: non-zero when the build fails, a metric is
missing, or an output check fails.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A workload run may take 4 x --seconds plus set-up; stop it well before
# the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def fingerprint():
    """nproc, CPU model, L2/L3 sizes and the rustc version."""
    fp = {"nproc": os.cpu_count(), "machine": platform.machine()}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    fp["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for idx in sorted(os.listdir(cache_dir)):
            base = os.path.join(cache_dir, idx)
            try:
                with open(os.path.join(base, "level")) as f:
                    level = f.read().strip()
                with open(os.path.join(base, "type")) as f:
                    kind = f.read().strip()
                with open(os.path.join(base, "size")) as f:
                    size = f.read().strip()
            except OSError:
                continue
            if level in ("2", "3") and kind in ("Unified", "Data"):
                fp["l" + level] = size
    except OSError:
        pass
    try:
        fp["rustc"] = subprocess.run(
            ["rustc", "--version"], capture_output=True, text=True, timeout=30
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        fp["rustc"] = "unknown"
    return fp


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates")
    ):
        print("perfbench: the workspace crates are missing; nothing to build", file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
        env["CARGO_TARGET_DIR"] = target
    env.setdefault("CARGO_NET_OFFLINE", "true")
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 2
    print("machine: " + json.dumps(fingerprint(), sort_keys=True), flush=True)
    binary = os.path.join(target, "release", "perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", args.seed, "--seconds", args.seconds,
           "--trace", args.trace, "--out-dir", os.path.join(target, "perfbench-out")]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 124
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        return 130
    lines = out.strip().splitlines()
    if proc.returncode == 0 and not registered(lines[-1] if lines else "", args.trace == "1"):
        return 3
    sys.stdout.write(out)
    return proc.returncode


def registered(line, trace):
    """Whether the result's metric names are exactly BENCHMARK.json's."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        got = set(json.loads(line)["metrics"])
    except (OSError, ValueError, KeyError) as e:
        print(f"perfbench: cannot check the result against BENCHMARK.json: {e}", file=sys.stderr)
        return False
    want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if got != want:
        print(f"perfbench: metrics differ from BENCHMARK.json: {sorted(got ^ want)}",
              file=sys.stderr)
        return False
    return True


if __name__ == "__main__":
    sys.exit(main())
