"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload social_p8_comm --seeds 1-5 --seconds 30

For every metric prints the median over the runs and the distance
between the first and third quartiles (``statistics.quantiles(n=4)``)
as a share of that median, next to the bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [*bench["command"], "--workload", args.workload, "--seed",
               str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        took = time.perf_counter() - t0
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: FAILED (exit {proc.returncode})\n{proc.stdout}")
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        for line in proc.stdout.splitlines():
            if line.startswith("host.probe_s ") and args.trace == 0:
                values.setdefault("host.probe_s", []).append(
                    float(line.split()[1])
                )
        print(f"seed {seed} ({took:.0f} s): " + " ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()
        ), flush=True)

    print(f"\n{'metric':44s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- wide"
        print(f"{name:44s} {med:12.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
