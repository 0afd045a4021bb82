#!/usr/bin/env python3
"""A/A noise band: run the benchmark on one commit over several seeds and
report, per workload and end-to-end metric, the median, the quartiles and
the spread (interquartile range as a share of the median).

Run from the repository root, one run at a time (the host is shared):

    python3 perfbench/aa.py --seeds 1-10 --seconds 20 --out band.json
    python3 perfbench/aa.py --workloads sweep-small --seeds 1-5 --seconds 20

Quartiles are `statistics.quantiles(values, n=4)`, the estimator later
changes are judged with. The JSON written with `--out` also records the
host: `nproc`, the rustc version and the git revision, where available.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    done = subprocess.run(args, stdout=subprocess.PIPE, text=True, check=False)
    elapsed = time.monotonic() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    return result, elapsed


def seeds_of(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def host_facts():
    def out(args):
        try:
            return subprocess.run(args, stdout=subprocess.PIPE, text=True,
                                  check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None
    return {"nproc": os.cpu_count(), "rustc": out(["rustc", "--version"]),
            "git_rev": out(["git", "rev-parse", "HEAD"])}


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out")
    opts = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    band = {"host": host_facts(), "seconds": opts.seconds, "workloads": {}}
    for workload in opts.workloads.split(","):
        values, elapsed = {}, []
        for seed in seeds_of(opts.seeds):
            result, secs = run_once(bench["command"], workload, seed,
                                    opts.seconds)
            elapsed.append(secs)
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: wrong output")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {secs:.1f} s", file=sys.stderr)
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "values": vals}
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound} (spread/bound {spread / bound:.2f})"
            print(f"{workload:12} {name:28} median {med:<14.6g} q1 {q1:<14.6g} "
                  f"q3 {q3:<14.6g} spread {spread:.4f}{flag}")
        band["workloads"][workload] = {"seeds": seeds_of(opts.seeds),
                                       "run_wall_s": elapsed, "metrics": rows}
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump(band, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
