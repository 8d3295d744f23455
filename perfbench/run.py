#!/usr/bin/env python3
"""Build the revtr benchmark from source and run one measurement.

    python3 perfbench/run.py --workload hot|miss|campaign|agents \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build): perfbench/CMakeLists.txt builds the repository's
libraries from src/ and the perfbench harness. The harness's stdout passes
through; its last line is the result object
{"correct", "attempted", "failed", "metrics"}, checked here against the
metric lists in BENCHMARK.json before it is printed.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run, after the build, must end well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Runs a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no program sources (src/CMakeLists.txt) in this checkout")
        return None
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]):
            log("configure failed")
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not run_quiet(["cmake", "--build", build_dir, "--target", "perfbench",
                      "-j", jobs]):
        log("build failed")
        return None
    return os.path.join(build_dir, "perfbench")


def stop_group(pgid):
    """Kills whatever is left in the harness's process group and waits until
    the group is empty."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.02)
    log("processes of the run survived SIGKILL")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def valid_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        log("last line is not JSON")
        return False
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log(f"unexpected result keys {sorted(result)}")
        return False
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        log(f"metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(want) - set(got))}, "
            f"extra {sorted(set(got) - set(want))}, "
            f"units {sorted(n for n in got if n in want and got[n] != want[n])}")
        return False
    if result["attempted"] < 1:
        log("nothing was attempted")
        return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    binary = build(build_dir)
    if binary is None:
        return 1
    # Sockets and span files; relative, so socket paths stay short.
    workdir = os.path.relpath(os.path.join(build_dir, "perfbench-run"), ROOT)
    os.makedirs(os.path.join(ROOT, workdir), exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    # Own process group: on timeout the harness and every process it started
    # go together.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    started = time.monotonic()
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"run exceeded {RUN_TIMEOUT_S} s; killed")
        return 1
    finally:
        stop_group(proc.pid)
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        log(f"perfbench exited with {proc.returncode} after "
            f"{time.monotonic() - started:.1f} s")
        return proc.returncode or 1
    if not valid_result(lines[-1], args.trace == 1):
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
