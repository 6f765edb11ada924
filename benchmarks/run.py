"""Run one benchmark workload of nearproj from outside and print its metrics.

    python3 benchmarks/run.py --workload tables|node_p2 \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the program is imported from
./src.  Every process starts with one BLAS/OpenMP thread.

--trace 0 prints the end-to-end metrics: wall_s (median over rounds of the
time one round of operations takes), setup_s (median over twelve fresh
processes, half started before the workload and half after, of the time
from process start until the imports are done) and peak_rss_mb (peak
resident set of the workload's process in its first round, read before that
round's last checks, so that it does not depend on how many rounds fit).
--trace 1 runs the workload with spans around the program's public
functions and prints the per-layer metrics instead (means over rounds).
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  See README.md next to this file.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD = os.path.join(HERE, "workload.py")
WORKLOADS = ("tables", "node_p2")
SETUP_PROBES = 12

SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


def child_env(root):
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), HERE])
    return env


def setup_samples(env, deadline, count, warm=False):
    """Times from process start until the workload's imports are done.  With
    `warm`, one unmeasured start first fills the bytecode caches."""
    samples = []
    for k in range(count + warm):
        start = time.monotonic()
        out = subprocess.run([sys.executable, WORKLOAD, "--setup-only"], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=max(1.0, deadline - start))
        if k or not warm:
            samples.append(float(out.stdout.split()[-1]) - start)
    return samples


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    package = os.path.join(root, "src", "nearproj", "__init__.py")
    if not os.path.isfile(package):
        print(f"error: no nearproj sources under {root}/src; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    # The workload stops starting rounds at --seconds; a last round slower
    # than the one before it may run over, and the set-up probes add ~8 s.
    timeout_s = 2 * args.seconds + 60
    deadline = time.monotonic() + timeout_s
    env = child_env(root)
    out_dir = os.path.join(HERE, "out")
    result_path = os.path.join(out_dir, f"result_{args.workload}.json")
    if os.path.exists(result_path):
        os.remove(result_path)

    # Half the set-up samples are taken before the workload and half after,
    # so that their median does not rest on one moment of the host's speed.
    setup = [] if args.trace else setup_samples(env, deadline, SETUP_PROBES // 2,
                                                warm=True)
    cmd = [sys.executable, WORKLOAD, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", out_dir]
    try:
        subprocess.run(cmd, env=env, check=True,
                       timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"error: workload {args.workload} did not end within {timeout_s} s",
              file=sys.stderr)
        return 1
    except subprocess.CalledProcessError as exc:
        print(f"error: workload {args.workload} exited {exc.returncode}",
              file=sys.stderr)
        return 1
    if not args.trace:
        setup += setup_samples(env, deadline, SETUP_PROBES - len(setup))
    with open(result_path) as fh:
        result = json.load(fh)
    if os.path.dirname(result["nearproj"]) != os.path.dirname(package):
        print(f"error: imported nearproj from {result['nearproj']}, not {package}",
              file=sys.stderr)
        return 1

    rounds = result["rounds"]
    if args.trace:
        metrics = {name: {"value": statistics.fmean(r["layers"][name] for r in rounds),
                          "unit": "s"} for name in rounds[0]["layers"]}
        counts = rounds[0]["counts"]
        for r in rounds[1:]:
            if r["counts"] != counts:
                result["problems"].append(f"counts differ between rounds: "
                                          f"{counts} vs {r['counts']}")
        metrics.update({name: {"value": value, "unit": "count"}
                        for name, value in counts.items()})
    else:
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds),
                       "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": rounds[0]["peak_rss_mb"], "unit": "MB"},
        }

    for failure in result["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    for problem in result["problems"]:
        print(f"incorrect: {problem}", file=sys.stderr)
    print(f"{args.workload}: {len(rounds)} round(s), {result['attempted']} "
          f"operations, {result['failed']} failed, "
          + ", ".join(f"{k} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()))
    print(json.dumps({"correct": not result["problems"],
                      "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
