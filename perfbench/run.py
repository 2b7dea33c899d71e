#!/usr/bin/env python3
"""Builds and runs one benchmark run from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the release `afd` binary (the shard workers) and the `perfbench`
package from this tree into $CARGO_TARGET_DIR (default `.bench_build`),
then runs `perfbench` in its own process group. Whatever way the run
ends, every process left in that group is killed and the run's scratch
directory (spill files) under `.bench_run/` is removed. The last stdout
line is the run's JSON result; the exit code is the run's.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.getcwd()
MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "Cargo.toml")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
# Under the 180 s a run may take, leaving time to clean up.
RUN_TIMEOUT_S = 170
SOURCE_DIRS = ["src", "crates", "compat", "perfbench"]


def source_hash():
    """A digest of the sources measured; the checkout is not a git repo."""
    digest = hashlib.sha256()
    paths = [p for p in ("Cargo.toml", "Cargo.lock") if os.path.isfile(p)]
    for top in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "target" and not d.startswith("."))
            paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in paths:
        digest.update(path.encode())
        with open(path, "rb") as f:
            digest.update(hashlib.sha256(f.read()).digest())
    return digest.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def build(env):
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "afd-cli", "--bin", "afd"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", MANIFEST],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit(f"run.py: build failed: {' '.join(cmd)}")


def check_result(lines, trace):
    """The result line must carry exactly the metrics BENCHMARK.json
    declares for this mode, each with a numeric value and its unit."""
    with open(SPEC) as f:
        spec = json.load(f)
    declared = spec["per_layer" if trace == "1" else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    result = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        raise ValueError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    for name, v in result["metrics"].items():
        if not isinstance(v["value"], (int, float)):
            raise ValueError(f"{name} has no numeric value")


def kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(env)
    env["PERFBENCH_COMMIT"] = commit()
    env["PERFBENCH_SOURCE"] = source_hash()

    runs = os.path.join(ROOT, ".bench_run")
    scratch = os.path.join(runs, str(os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--afd", os.path.join(target, "release", "afd"),
        "--scratch", scratch,
    ]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, start_new_session=True, stdout=subprocess.PIPE, text=True
    )
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    code = 1
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        lines = out.splitlines()
        code = proc.returncode
        if code == 0:
            check_result(lines, args.trace)
        print("\n".join(lines), flush=True)
    except subprocess.TimeoutExpired:
        print(f"run.py: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
    except (ValueError, KeyError, IndexError) as e:
        print(f"run.py: bad result: {e}", file=sys.stderr)
        code = 1
    finally:
        kill_group(proc)
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(runs)
        except OSError:
            pass
    sys.exit(code)


if __name__ == "__main__":
    main()
