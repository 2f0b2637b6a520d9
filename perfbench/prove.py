"""Run every workload on seeds 1..10, twice, and report each end-to-end
metric's run-to-run spread and the drift between the two sets.

    python3 perfbench/prove.py [--out perfbench/baseline.json]

Each run measures BENCHMARK.json's ``run_seconds``. Spread is the distance
between the first and third quartiles of a set's ten values
(``statistics.quantiles(values, n=4)``) as a share of their median; drift is
how much worse the second set's median is than the first's, as a share of
the first. Both are printed next to the metric's bound, which they have to
stay inside; the last line gives the largest of them as a share of its
bound, set-up time included. With ``--out`` every sample of both sets, their
medians and quartiles, and the machine description are written there.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def spread_of(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / abs(median),
            "samples": samples}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]

    sets = []
    for n in range(SETS):
        values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
        for workload in workloads:
            for seed in SEEDS:
                result = run_once(workload, seed, seconds)
                for name, m in result["metrics"].items():
                    values[workload].setdefault(name, []).append(m["value"])
                print(f"set {n + 1} {workload} seed {seed}: " + "  ".join(
                    f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()),
                    flush=True)
        sets.append({w: {name: spread_of(s) for name, s in v.items()}
                     for w, v in values.items()})

    worst, worst_at = 0.0, ""
    for workload in workloads:
        print(workload)
        for name, metric in metrics.items():
            rows = [s[workload][name] for s in sets]
            first, last = rows[0]["median"], rows[-1]["median"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            drift = sign * (last - first) / abs(first)
            checks = {f"spread {i + 1}": r["spread"] for i, r in enumerate(rows)}
            checks["drift"] = drift
            for what, value in checks.items():
                if value / metric["bound"] > worst:
                    worst, worst_at = value / metric["bound"], f"{workload} {name} {what}"
            print(f"  {name:16s} medians " + " ".join(f"{r['median']:10.5g}" for r in rows)
                  + "  spreads " + " ".join(f"{r['spread']:6.3f}" for r in rows)
                  + f"  drift {drift:+6.3f}  bound {metric['bound']}")
    print(f"largest share of a bound: {worst:.3f} ({worst_at})")
    if args.out:
        sys.path.insert(0, HERE)
        from run import environment

        os.chdir(ROOT)
        summary = {"seeds": list(SEEDS), "seconds": seconds, "sets": sets,
                   "env": environment()}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
