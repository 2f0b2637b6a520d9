"""The benchmark workloads: seeded input generators, pass chains, checks.

A workload has three parts:

* ``write_inputs(seed, size, inputs)`` runs in the timed set-up process. It
  turns the seed into the files the program reads (corpus-spec JSON) plus
  ``truth.json``, the scripted facts the checks compare
  against. The program never sees the seed or the truth file.
* ``run_pass(ops, inputs, out, seed)`` is one closed-loop pass: the
  commands run one after another, each through ``counterscope.cli.main``,
  and each is recorded by ``ops`` as one operation.
* ``check(inputs, out)`` reads the written outputs and returns the attack
  quality (LOPO accuracy or the exact-count share) and a list of problems.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Sizes. FULL is the measured size; TINY is for the self-test only.
FULL = "full"
TINY = "tiny"

# The class geometry (which apps exist, their per-counter intensities) is a
# fixed catalogue, like a shipped dataset. The workload seed drives the
# captures: noise and join times. Seeding the geometry too would make
# accuracy swing from seed to seed.
APP_CATALOGUE_SEED = 7

IO_JOIN_SLOT_S = 10               # joins sit in distinct 10 s slots ...
IO_JOIN_JITTER_S = 5              # ... at a seeded offset inside the slot
IO_INJECT_SIGMA = "2"


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# app-fingerprint


APP_SIZES = {FULL: {"classes": 6, "reps": 5}, TINY: {"classes": 3, "reps": 5}}


def app_inputs(seed: int, size: dict, inputs: str) -> None:
    from counterscope.datasets import app_corpus_spec
    from counterscope.simulator import script_to_dict

    spec = app_corpus_spec(size["classes"], size["reps"], seed=APP_CATALOGUE_SEED)
    _write_json(os.path.join(inputs, "spec.json"), {
        "classes": [{"label": c.label, "script": script_to_dict(c.script)}
                    for c in spec.classes],
        "repetitions": size["reps"],
        "seed": seed,
    })
    _write_json(os.path.join(inputs, "truth.json"),
                {"n_traces": size["classes"] * size["reps"]})


def app_pass(ops, inputs: str, out: str, seed: int) -> None:
    manifest = f"{out}/corpus/manifest.jsonl"
    m = ["--manifest", manifest, "--seed", str(seed)]
    ops.cli("gen_corpus", ["gen-corpus", f"{inputs}/spec.json", "--out", f"{out}/corpus"])
    ops.cli("prune", ["prune", "--manifest", manifest, "--out", f"{out}/prune"])
    ops.cli("screen", ["screen", *m, "--out", f"{out}/screen"])
    ops.cli("train", ["train", *m, "--out", f"{out}/train"])
    ops.cli("eval", ["eval", "--manifest", manifest,
                     "--model-file", f"{out}/train/model.json", "--out", f"{out}/eval"])
    ops.cli("cv", ["cv", *m, "--k", "5", "--out", f"{out}/cv"])
    ops.cli("lopo", ["lopo", *m, "--out", f"{out}/lopo"])
    ops.cli("defend_curve", ["defend", "curve", *m, "--out", f"{out}/curve"])


def app_check(inputs: str, out: str) -> tuple[float, list[str]]:
    n_traces = _read_json(f"{inputs}/truth.json")["n_traces"]
    report = _read_json(f"{out}/lopo/report.json")
    problems = []
    total = sum(sum(row) for row in report["confusion"])
    if total != n_traces:
        problems.append(f"LOPO confusion counts {total} items, expected {n_traces}")
    # The shipped app corpus classifies at >= 0.95 (acceptance criterion 5);
    # this smaller corpus of the same kind must too.
    if report["accuracy"] < 0.95:
        problems.append(f"LOPO accuracy {report['accuracy']:.4f} below 0.95")
    return float(report["accuracy"]), problems


# ---------------------------------------------------------------------------
# trace-io


IO_SIZES = {FULL: {"duration_s": 600, "reps": 1, "max_joins": 9},
            TINY: {"duration_s": 120, "reps": 1, "max_joins": 3}}


def io_inputs(seed: int, size: dict, inputs: str) -> None:
    rng = np.random.default_rng(seed % 2**64)
    duration = size["duration_s"]
    # Slots 0-1 and the last two stay empty: the step detector needs a
    # clean lead-in and tail around every join.
    slots = np.arange(2, duration // IO_JOIN_SLOT_S - 2)
    classes, truth = [], {}
    for scene in ("vr", "ar"):
        for n in range(size["max_joins"] + 1):
            chosen = np.sort(rng.choice(slots, n, replace=False))
            joins = [float(s * IO_JOIN_SLOT_S + rng.integers(0, IO_JOIN_JITTER_S))
                     for s in chosen]
            label = f"{scene}-n{n}"
            classes.append({"label": label, "script": {
                "scene_type": scene, "duration_s": duration,
                "events": [{"kind": "avatar_join", "t_join": t} for t in joins]}})
            truth[label] = n
    _write_json(os.path.join(inputs, "spec.json"),
                {"classes": classes, "repetitions": size["reps"], "seed": seed})
    _write_json(os.path.join(inputs, "truth.json"),
                {"n_traces": len(classes) * size["reps"], "participants": truth})


def _manifest_traces(out: str) -> list[tuple[str, str]]:
    with open(f"{out}/corpus/manifest.jsonl", "r", encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    return [(f"{out}/corpus/{r['trace']}", r["label"]) for r in rows]


def io_pass(ops, inputs: str, out: str, seed: int) -> None:
    manifest = f"{out}/corpus/manifest.jsonl"
    ops.cli("gen_corpus", ["gen-corpus", f"{inputs}/spec.json", "--out", f"{out}/corpus"])
    ops.cli("prune", ["prune", "--manifest", manifest, "--out", f"{out}/prune"])
    traces = _manifest_traces(out)
    for i, (path, _) in enumerate(traces):
        ops.cli("count", ["count", "--trace", path, "--out", f"{out}/count/{i:04d}"])
    for i, (path, _) in enumerate(traces):
        ops.cli("defend_inject", ["defend", "inject", "--trace", path,
                                  "--sigma", IO_INJECT_SIGMA, "--seed", str(seed + i),
                                  "--out", f"{out}/inject/{i:04d}"])


def _shape(path: str) -> tuple[str, int]:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        return header, 1 + sum(1 for _ in fh)


def io_check(inputs: str, out: str) -> tuple[float, list[str]]:
    participants = _read_json(f"{inputs}/truth.json")["participants"]
    problems, exact = [], 0
    traces = _manifest_traces(out)
    for i, (path, label) in enumerate(traces):
        counted = _read_json(f"{out}/count/{i:04d}/count.json")["count"]
        exact += counted == participants[label]
        # VR noise sits at a quarter of the 4-sigma threshold, so VR counts
        # must be exact; AR (twice the noise) is allowed to over-count.
        if label.startswith("vr-") and counted != participants[label]:
            problems.append(f"{path}: counted {counted}, scripted {participants[label]}")
        injected = f"{out}/inject/{i:04d}/injected.csv"
        if _shape(injected) != _shape(path):
            problems.append(f"{injected}: header or length differs from {path}")
    return exact / len(traces), problems


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    loads: tuple[str, ...]
    bypasses: tuple[str, ...]
    sizes: dict
    write_inputs: Callable
    run_pass: Callable
    check: Callable


WORKLOADS = {w.name: w for w in (
    Workload(
        name="app-fingerprint",
        why=("The paper's main attack end to end: forest-bound, one wide fit "
             "plus many narrow ones (screen), with saturated accuracy as a check."),
        loads=("simulator", "traces", "features", "selection", "stats",
               "models.forest", "models.evaluation", "models.serialize",
               "defense", "plots", "cli"),
        bypasses=("stepcount",),
        sizes=APP_SIZES, write_inputs=app_inputs, run_pass=app_pass, check=app_check),
    Workload(
        name="trace-io",
        why=("Long meeting traces through CSV I/O, pruning, step counting and "
             "noise injection; no model, so forest changes must not move it."),
        loads=("simulator", "traces", "selection", "stats", "stepcount",
               "defense", "cli"),
        bypasses=("features", "models.forest", "models.evaluation",
                  "models.serialize", "plots"),
        sizes=IO_SIZES, write_inputs=io_inputs, run_pass=io_pass, check=io_check),
)}
