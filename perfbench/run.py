"""counterscope benchmark: one workload, one process, one closed-loop client.

Run from the repository root:

    python3 perfbench/run.py --workload app-fingerprint --seed 1 --seconds 58 --trace 0

Set-up is a fresh interpreter that imports the package and writes the
seeded inputs. It is timed before every pass of the workload's chain, and
after the last pass until there are SETUP_RUNS samples, so that its median
covers the whole run and not only its first seconds. The passes run in this
process, until the next pass would end after ``--seconds`` of pass time. Every pass writes the same files into the same directory; the
run is correct only if every operation succeeds, every pass writes
byte-identical outputs and the workload's checks pass.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics (see spans.py),
with the tracing overhead as the difference between the two. The last line
of standard output is one JSON object; a run record with every sample goes
to ``.perfbench_out/records/``. The exit code is 0 only for a correct run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

from spans import Tracer, layer_metrics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = ".perfbench_out"
SETUP_RUNS = 10
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "traces_per_s": "traces/s",
    "peak_rss_mb": "MB",
    "attack_accuracy": "fraction",
}
# Every subcommand any workload runs.
COMMANDS = ("gen_corpus", "prune", "screen", "train", "eval", "cv", "lopo",
            "defend_curve", "count", "defend_inject")


class OpFailed(Exception):
    pass


class Ops:
    """Runs and times the operations of one pass; the first failure ends it."""

    def __init__(self):
        self.calls: list[tuple[str, float]] = []
        self.failed = 0

    def cli(self, name: str, argv: list[str]) -> None:
        import counterscope.cli as cli  # looked up per call: the tracer may wrap main

        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects argv this way
            rc = exc.code
        self._record(name, perf_counter() - start, rc == 0,
                     f"{' '.join(argv)}: exit {rc}: {err.getvalue().strip()}")

    def _record(self, name: str, seconds: float, ok: bool, detail: str) -> None:
        self.calls.append((name, seconds))
        if not ok:
            self.failed += 1
            raise OpFailed(detail)


def summary(samples: list[float]) -> dict:
    """Quartiles of the samples; `value`, the figure reported, is the median
    unless the caller replaces it."""
    samples = list(samples)
    if len(samples) > 1:
        q1, median, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = median = q3 = samples[0]
    return {"value": median, "n": len(samples), "median": median, "q1": q1,
            "q3": q3, "samples": samples}


def digest(directory: str) -> str:
    h = hashlib.sha256()
    for base, dirs, files in os.walk(directory):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, directory).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
            h.update(b"\0")
    return h.hexdigest()


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_threads() -> dict[str, str]:
    """BLAS pool sizes a run uses: as set in the environment, else nproc."""
    return {v: os.environ.get(v, str(nproc())) for v in BLAS_VARS}


def environment() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh
                        if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "blas_threads": blas_threads(),
    }


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside
    a git work tree."""
    try:
        with open(os.path.join(".git", "HEAD"), "r", encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, "r", encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs"), "r", encoding="utf-8") as fh:
            return next((l.split()[0] for l in fh if l.rstrip().endswith(" " + ref)), None)
    except OSError:
        return None


def write_inputs(workload_name: str, seed: int, scale: str, inputs: str) -> None:
    import counterscope  # noqa: F401 - importing the package is part of set-up

    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    shutil.rmtree(inputs, ignore_errors=True)
    os.makedirs(inputs)
    workload.write_inputs(seed, workload.sizes[scale], inputs)


def time_setup(args) -> float:
    """Wall seconds of one fresh set-up process; it rewrites the same inputs."""
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale]
    start = perf_counter()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=120, check=False)
    seconds = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed with exit {proc.returncode}:\n{proc.stderr}")
    return seconds


def run_passes(args, workload, inputs: str, out: str, tracer, setup: list[float]):
    """Closed loop of passes, each after a set-up sample appended to `setup`;
    with a tracer, every second pass is traced. Set-up time does not count
    toward ``--seconds``."""
    min_passes = 4 if tracer else 2
    passes, failures = [], []
    measured = 0.0
    while True:
        setup.append(time_setup(args))
        start = perf_counter()
        traced = tracer is not None and len(passes) % 2 == 1
        ops = Ops()
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        if traced:
            tracer.reset()
            tracer.install()
        t0 = perf_counter()
        try:
            workload.run_pass(ops, inputs, out, args.seed)
        except OpFailed as exc:
            failures.append(str(exc))
        finally:
            seconds = perf_counter() - t0
            if traced:
                tracer.uninstall()
        record = {"traced": traced, "seconds": seconds, "calls": ops.calls,
                  "failed": ops.failed}
        if traced:
            record["layers"] = layer_metrics(tracer, seconds)
            record["spans"] = tracer.spans
        passes.append(record)
        if failures:
            break
        record["digest"] = digest(out)
        measured += perf_counter() - start
        typical = statistics.median(p["seconds"] for p in passes)
        if len(passes) >= min_passes and measured + typical > args.seconds:
            break
    return passes, failures


def command_samples(passes) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {}
    for p in passes:
        if not p["traced"]:
            for name, seconds in p["calls"]:
                samples.setdefault(name, []).append(seconds)
    return samples


def end_to_end(setup, passes, n_traces, quality) -> dict[str, dict]:
    seconds = [p["seconds"] for p in passes if not p["traced"]]
    # Throughput over the whole measured interval, not a median of per-pass
    # rates: pass times are bimodal on a shared host, and the median jumps
    # between the modes from run to run.
    throughput = summary([n_traces / s for s in seconds])
    throughput["value"] = n_traces * len(seconds) / sum(seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": summary(setup),
        "traces_per_s": throughput,
        "peak_rss_mb": summary([rss_mb]),
        "attack_accuracy": summary([quality]),
    }
    for name, unit in END_TO_END_UNITS.items():
        metrics[name]["unit"] = unit
    return metrics


def per_layer(passes, commands) -> tuple[dict[str, dict], list[str]]:
    traced = [p for p in passes if p["traced"]]
    untraced_s = [p["seconds"] for p in passes if not p["traced"]]
    traced_s = [p["seconds"] for p in traced]
    problems = []
    metrics = {}
    for name, (_, unit) in traced[0]["layers"].items():
        samples = [p["layers"][name][0] for p in traced]
        if unit in ("count", "bytes") and len(set(samples)) > 1:
            problems.append(f"{name} differs between traced passes: {samples}")
        metrics[name] = {"unit": unit, **summary(samples)}
    for name in COMMANDS:
        metrics[f"cmd.{name}_s"] = {"unit": "s", **summary(commands.get(name, [0.0]))}
    metrics["pass.untraced_s"] = {"unit": "s", **summary(untraced_s)}
    metrics["pass.traced_s"] = {"unit": "s", **summary(traced_s)}
    overhead = statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
    metrics["tracing_overhead"] = {"unit": "fraction", **summary([overhead])}
    return metrics, problems


def report(args, metrics, commands, attempted, failed, digests) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {attempted} attempted, {failed} failed  "
          f"ops_failed_frac {failed / max(attempted, 1):.4f}")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']:9s} "
              f"(q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n {m['n']})")
    for name, samples in ({} if args.trace else commands).items():
        s = summary(samples)
        print(f"  cmd {name:32s} {s['value']:14.6g} s         "
              f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n {s['n']})")
    print(f"digest {args.workload} {' '.join(sorted(set(digests))) or '-'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("app-fingerprint", "trace-io"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=58.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the self-test")
    parser.add_argument("--setup-only", action="store_true",
                        help="write the inputs and exit (the timed set-up step)")
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    if not os.path.isfile(os.path.join("src", "counterscope", "cli.py")):
        print(f"error: no counterscope sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.environ.update(blas_threads())  # before numpy is first imported
    os.environ.pop("COUNTERSCOPE_SEED", None)
    sys.path.insert(0, os.path.join(ROOT, "src"))

    run_dir = os.path.join(WORK, f"{args.workload}-s{args.seed}")
    inputs, out = os.path.join(run_dir, "inputs"), os.path.join(run_dir, "pass")
    if args.setup_only:
        write_inputs(args.workload, args.seed, args.scale, inputs)
        return 0

    import counterscope  # noqa: F401

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    setup: list[float] = []
    try:
        passes, problems = run_passes(args, workload, inputs, out, tracer, setup)
        while not problems and len(setup) < SETUP_RUNS:
            setup.append(time_setup(args))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if tracer and tracer.missing:
        problems.append(f"tracer could not wrap or count: {tracer.missing}")
    with open(os.path.join(inputs, "truth.json"), "r", encoding="utf-8") as fh:
        n_traces = json.load(fh)["n_traces"]

    digests = [p["digest"] for p in passes if "digest" in p]
    if len(set(digests)) > 1:
        problems.append(f"passes wrote different outputs: {digests}")
    quality = 0.0
    if not problems:
        quality, found = workload.check(inputs, out)
        problems.extend(found)

    commands = command_samples(passes)
    if args.trace and not problems:
        metrics, found = per_layer(passes, commands)
        problems.extend(found)
    elif args.trace:
        metrics = {}
    else:
        metrics = end_to_end(setup, passes, n_traces, quality)

    attempted = sum(len(p["calls"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    record_path = os.path.join(WORK, "records",
                               f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(record_path), exist_ok=True)
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "scale": args.scale, "env": environment(),
            "attempted": attempted, "failed": failed, "problems": problems,
            "missing_targets": tracer.missing if tracer else [],
            "passes": [{k: p.get(k) for k in ("traced", "seconds", "digest", "failed")}
                       for p in passes],
            "commands": {name: summary(s) for name, s in commands.items()},
            "metrics": metrics,
        }, fh, indent=1)
    if tracer:
        with open(record_path[:-len(".json")] + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump([{"pass": i, "spans": p["spans"]}
                       for i, p in enumerate(passes) if p["traced"]], fh)
    shutil.rmtree(run_dir, ignore_errors=True)

    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    report(args, metrics, commands, attempted, failed, digests)
    correct = not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
