"""Self-test of the benchmark at tiny sizes (about a minute and a half on 2 cores).

    python3 perfbench/selftest.py

For every workload it makes one untraced and two traced runs at
``--scale tiny`` and checks that

* each run is correct, exits 0 and fails no operation (ops_failed_frac 0);
* the metrics are exactly BENCHMARK.json's ``end_to_end`` (untraced) or
  ``per_layer`` (traced) names, each with its unit;
* the tracer wrapped and counted every target (``missing_targets`` in the
  run record is empty);
* the per-layer counts (``models.forest.fit.nodes``, ``stats.pearson.calls``,
  ``traces.write.bytes`` ...) repeat exactly across the two traced runs;
* forest fitting is the largest share of a traced pass on app-fingerprint,
  ahead of every other layer, and takes no time on trace-io.

Last, it copies only BENCHMARK.json and the benchmark into an empty
directory and checks that the benchmark exits non-zero there without
printing a result. Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COUNT_UNITS = ("count", "bytes")
SEED = 3


def run(workload: str, trace: int, cwd: str = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300, check=False)
    return proc.returncode, proc.stdout


def missing_targets(workload: str) -> list[str]:
    path = os.path.join(ROOT, ".perfbench_out", "records",
                        f"{workload}-seed{SEED}-trace1.json")
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)["missing_targets"]


def check_forest_share(workload: str, metrics: dict, problems: list) -> None:
    """Fit is the largest share on app-fingerprint and zero on trace-io."""
    fit = metrics["models.forest.fit.share"]["value"]
    if workload == "trace-io" and (fit != 0 or metrics["models.forest.fit.calls"]["value"]):
        problems.append(f"trace-io: forest fit share {fit}, expected 0")
    if workload == "app-fingerprint":
        others = {name: m["value"] for name, m in metrics.items()
                  if name.endswith("share") and not name.startswith("models.forest")}
        beaten = {name: v for name, v in others.items() if v >= fit}
        if beaten:
            problems.append(f"app-fingerprint: forest fit share {fit:.3f} not above {beaten}")


def result_of(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    if not lines:
        return {"correct": False, "attempted": 0, "failed": None, "metrics": {}}
    return json.loads(lines[-1])


def check_metrics(where: str, result: dict, expected: dict, problems: list) -> None:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        problems.append(f"{where}: missing {missing}, extra {extra}, wrong unit {wrong}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems: list[str] = []

    for workload in (w["name"] for w in bench["workloads"]):
        results = []
        for trace in (0, 1, 1):
            where = f"{workload} --trace {trace}"
            code, stdout = run(workload, trace)
            result = result_of(stdout)
            if code != 0 or not result["correct"] or result["failed"] != 0:
                problems.append(f"{where}: exit {code}, correct {result['correct']}, "
                                f"failed {result['failed']} of {result['attempted']}")
            check_metrics(where, result, per_layer if trace else end_to_end, problems)
            if trace and missing_targets(workload):
                problems.append(f"{where}: tracer missed {missing_targets(workload)}")
            results.append(result)
        first, second = (r["metrics"] for r in results[1:])
        if first:
            check_forest_share(workload, first, problems)
        for name, unit in per_layer.items():
            if unit in COUNT_UNITS and first.get(name) != second.get(name):
                problems.append(f"{workload}: {name} {first.get(name)} then {second.get(name)}")
        print(f"{workload}: checked", flush=True)

    bare = os.path.join(ROOT, ".perfbench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, stdout = run("trace-io", 0, cwd=bare)
    shutil.rmtree(bare)
    if code == 0 or stdout.strip():
        problems.append(f"without sources: exit {code}, stdout {stdout.strip()[:200]!r}")
    print("without sources: checked")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
