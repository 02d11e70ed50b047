#!/usr/bin/env python3
"""Build the benchmark from source and make one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository.  Builds
perfbench/main.exe with dune, runs one workload,
forwards its diagnostics and exits with its exit code.  The last line
of stdout is the JSON result, with each metric's unit from BENCHMARK.json
and 0 for the per-layer metrics of layers the workload does not run; see
perfbench/README.md.
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
DEADLINE_S = 175  # a run must end within 180 s
BUILD_DEADLINE_S = 850  # the first run in a checkout builds


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def metric_units(trace):
    """The metric names and units BENCHMARK.json lists for this mode."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def run_group(cmd, env, timeout):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("timed out after %d s" % timeout, 3)
    finally:
        # reap any straggler of the group, such as a set-up copy
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    start = time.monotonic()

    for need in ("dune-project", "lib", "perfbench/dune"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s is not a checkout of the repository (no %s)" % (ROOT, need))
    units = metric_units(args.trace == 1)

    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    env["CH_JOBS"] = "1"
    env.pop("CH_OBS", None)
    build = ["dune", "build", "--root", ".", "--cache=disabled", "--display=quiet",
             "perfbench/main.exe"]
    try:
        b = subprocess.run(build, cwd=ROOT, env=env, capture_output=True, text=True,
                           timeout=BUILD_DEADLINE_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if b.returncode != 0:
        sys.stderr.write(b.stdout + b.stderr)
        fail("build failed")

    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--tmp", os.path.join("perfbench", "_run")]
    # the first run builds; later runs keep the whole run under 180 s
    budget = max(DEADLINE_S - (time.monotonic() - start), 30)
    code, out = run_group(cmd, env, budget)
    lines = out.strip().splitlines()
    if code == 2 or not lines:
        sys.stdout.write(out)
        fail("run failed (exit %d)" % code, 2 if code == 2 else 1)
    sys.stdout.write("\n".join(lines[:-1]) + "\n" if len(lines) > 1 else "")

    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line", 1)
    values = result["metrics"]
    unknown = sorted(set(values) - set(units))
    missing = sorted(set(units) - set(values)) if args.trace == 0 else []
    if unknown or missing:
        fail("metrics differ from BENCHMARK.json: unknown %s, missing %s" % (unknown, missing), 1)
    result["metrics"] = {name: {"value": values.get(name, 0), "unit": unit}
                         for name, unit in units.items()}
    print(json.dumps(result))
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
