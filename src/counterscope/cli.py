"""Command-line entry point wiring the pipeline into reproducible runs.

Every subcommand writes its results plus an effective_config.json echo of
the resolved configuration into --out. Outputs are deterministic for a
fixed seed. Configuration precedence: flags > --config file > built-in
defaults; the COUNTERSCOPE_SEED environment variable replaces the built-in
default seed.

The model-taking commands go through features.Fingerprinter: train saves
one, eval loads one, and cv, lopo, grid, screen and defend curve fit one on
each training set they split off.

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 internal
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import plots, schema
from .catalog import builtin_catalog, load_catalog
from .defense import (
    DummyRender,
    GaussianNoise,
    detect_profiler_access,
    evaluate_countermeasure,
    inject_noise,
    read_access_log,
)
from .errors import DataError, DegenerateInputError, SchemaError, UnknownLabelError
from .features import (  # build_*, fit_normalizer: unused here, for perfbench/spans.py
    LAYOUT_STAT4,
    LAYOUTS,
    Fingerprinter,
    build_sequences,
    build_stat_features,
    fit_normalizer,
)
from .models import (
    FAMILIES,
    evaluate,
    grid_search,
    kfold_cv,
    load_model,
    lopo_cv,
    save_model,
    train_knn,
    train_linear_svm,
    train_mlp,
    train_rf,
)
from .selection import accuracy_screen, correlation_prune
from .simulator import (
    builtin_profile,
    generate_corpus,
    load_corpus_spec,
    load_profile,
    load_script,
    simulate,
)
from .stats import linreg, pearson
from .stepcount import (
    default_min_jumps,
    detect_steps,
    known_metrics,
    min_jump_for,
    vote_participants,
)
from .traces import read_manifest, read_wide_csv, write_manifest, write_wide_csv

SEED_ENV_VAR = "COUNTERSCOPE_SEED"
EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

_FINGERPRINT_METRICS = ("non_base_level_textures", "texture_l2_miss",
                        "gpu_bus_busy", "prims_trivially_rejected")


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the CLI contract reserves 2 for
    # data errors, so remap.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _default_seed() -> int:
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise DataError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
    return 0


# the allowed values of string keys, for their flags and their config values
_CHOICES = {"model": tuple(FAMILIES), "layout": LAYOUTS, "strategy": ("gaussian", "dummy")}


class RunConfig:
    """Resolved configuration: flag > config-file key > built-in default."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.file_values = {}
        if getattr(args, "config", None):
            self.file_values = schema.read(schema.load_json(args.config), dict,
                                           f"{args.config}: a config file")
        self.resolved = {}

    def get(self, key: str, default=None, kind: type | None = None, minimum=None):
        """The flag, else the config file's value, else `default`, read as
        `kind` (by default the type of `default`) by schema.read."""
        value = getattr(self.args, key, None)
        if value is None:
            value = self.file_values.get(key, default)
        if value is not default:  # a default needs no check
            kind = kind or type(default)
            value = schema.read(value, kind, self.where(key), minimum, _CHOICES.get(key),
                                default is None)
            value = float(value) if kind is float and value is not None else value
        self.resolved[key] = value
        return value

    def where(self, key: str) -> str:
        """Where the value of `key` came from: its flag, else the config file."""
        if getattr(self.args, key, None) is not None:
            return "--" + key.replace("_", "-")
        return f"{self.args.config}: field {key!r}"

    def seed(self) -> int:
        """The seed reduced modulo 2**64, as derive_seed does: -1 is 2**64 - 1."""
        return self.get("seed", _default_seed()) % 2**64

    def out_dir(self) -> str:
        out = getattr(self.args, "out")
        os.makedirs(out, exist_ok=True)
        self.resolved["out"] = out
        return out

    def catalog(self):
        path = self.get("catalog", None, str)
        return load_catalog(path) if path else builtin_catalog()

    def profile(self):
        path = self.get("profile", None, str)
        return load_profile(path) if path else builtin_profile()

    def write_effective(self, out_dir: str, command: str) -> None:
        payload = {"command": command}
        payload.update(self.resolved)
        with open(os.path.join(out_dir, "effective_config.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# trainer and Fingerprinter construction shared by the model-taking commands

def _trainer_factory(model_name: str, cfg: RunConfig, seed: int,
                     overrides: dict | None = None):
    """(trainer, params) of a FAMILIES entry: flags, then config values, then
    defaults, with `overrides` (one grid entry) replacing params of the same
    name."""
    family = FAMILIES[model_name]
    params = {p.arg: seed if p.key == "seed" else cfg.get(p.key, p.default, p.kind, p.minimum)
              for p in family.params}
    declared = {p.arg: p for p in family.params}
    for key, value in (overrides or {}).items():
        if key not in declared:
            raise DataError(f"unknown {model_name} parameter {key!r}; "
                            f"known: {', '.join(params)}")
        p = declared[key]
        params[key] = schema.read(value, p.kind, repr(key), p.minimum,
                                  nullable=p.default is None)
    # Looked up by name in this module's globals when it runs, so a wrapper
    # installed at counterscope.cli.train_rf (say) sees every fit.
    name = family.trainer.__name__
    return lambda X, y: globals()[name](X, y, **params), params


def _fitter(cfg: RunConfig, model_name: str, seed: int, overrides: dict | None = None):
    """(fit, params): fit(train corpus) -> a Fingerprinter over every corpus
    metric in the configured layout, with the trainer of _trainer_factory."""
    trainer, params = _trainer_factory(model_name, cfg, seed, overrides)
    layout = cfg.get("layout", LAYOUT_STAT4)
    return lambda train: Fingerprinter.fit(train, trainer, train.metrics, layout), params


def _report_outputs(report, out_dir: str) -> None:
    report.to_json(os.path.join(out_dir, "report.json"))
    report.to_csv(os.path.join(out_dir, "report.csv"))
    plots.heatmap(report.confusion, report.labels, report.labels,
                  os.path.join(out_dir, "confusion.svg"),
                  title="confusion matrix (rows=true, cols=predicted)")


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(cfg: RunConfig) -> int:
    out = cfg.out_dir()
    script = load_script(cfg.args.scene)
    catalog = cfg.catalog()
    result = simulate(script, catalog, cfg.profile())
    write_wide_csv(result.traces, os.path.join(out, "trace.csv"))
    from .traces import TraceSet

    pixels = TraceSet(["pixels"], result.ground_truth_pixels.reshape(-1, 1))
    write_wide_csv(pixels, os.path.join(out, "pixels.csv"))
    _write_json(os.path.join(out, "events.json"),
                [{"kind": ev.kind, "t_start": ev.t_start, "t_end": ev.t_end,
                  "detail": ev.detail} for ev in result.event_log])
    t = np.arange(result.traces.n_seconds)
    shown = [m for m in _FINGERPRINT_METRICS if m in result.traces.metrics]
    if shown:
        plots.line_plot({m: (t, result.traces.values(m)) for m in shown},
                        os.path.join(out, "fingerprint.svg"),
                        title="simulated metric fingerprint",
                        x_label="seconds", y_label="normalized value",
                        normalize=True)
    cfg.write_effective(out, "simulate")
    print(f"simulated {result.traces.n_seconds}s x {len(result.traces.metrics)} metrics -> {out}")
    return EXIT_OK


def cmd_gen_corpus(cfg: RunConfig) -> int:
    out = cfg.out_dir()
    spec = load_corpus_spec(cfg.args.corpus_spec)
    seed_flag = cfg.get("seed", None, int)
    if seed_flag is not None:
        import dataclasses

        spec = dataclasses.replace(spec, seed=seed_flag)
    corpus = generate_corpus(spec, cfg.catalog(), cfg.profile())
    manifest = write_manifest(corpus, out)
    cfg.write_effective(out, "gen-corpus")
    print(f"wrote {len(corpus)} traces and {manifest}")
    return EXIT_OK


def cmd_prune(cfg: RunConfig) -> int:
    out = cfg.out_dir()
    corpus = read_manifest(cfg.args.manifest)
    catalog = cfg.catalog()
    threshold = cfg.get("threshold", 0.90)
    report = correlation_prune(corpus, catalog.ids(), threshold)
    report.to_json(os.path.join(out, "prune_report.json"))
    cfg.write_effective(out, "prune")
    print(f"retained {len(report.retained)} of "
          f"{len(report.retained) + len(report.dropped)} metrics "
          f"(threshold {threshold})")
    for d in report.dropped:
        print(f"  dropped {d.dropped} (r={d.r:+.3f} with {d.kept})")
    return EXIT_OK


def cmd_screen(cfg: RunConfig) -> int:
    out = cfg.out_dir()
    corpus = read_manifest(cfg.args.manifest)
    seed = cfg.seed()
    threshold = cfg.get("threshold_acc", 0.60)
    trainer, _ = _trainer_factory("rf", cfg, seed)
    passing = accuracy_screen(corpus, trainer, threshold, seed)
    _write_json(os.path.join(out, "screened_metrics.json"),
                [{"metric": m, "accuracy": a} for m, a in passing])
    cfg.write_effective(out, "screen")
    print(f"{len(passing)} metrics pass accuracy > {threshold}")
    for m, a in passing:
        print(f"  {m}: {a:.3f}")
    return EXIT_OK


def cmd_train(cfg: RunConfig) -> int:
    out = cfg.out_dir()
    corpus = read_manifest(cfg.args.manifest)
    model_name = cfg.get("model", "rf")
    fit, params = _fitter(cfg, model_name, cfg.seed())
    save_model(fit(corpus), os.path.join(out, "model.json"))
    cfg.write_effective(out, "train")
    print(f"trained {model_name} ({params}) on {len(corpus)} items -> {out}/model.json")
    return EXIT_OK


def cmd_eval(cfg: RunConfig) -> int:
    out = cfg.out_dir()
    corpus = read_manifest(cfg.args.manifest)
    path = cfg.args.model_file
    fp = load_model(path)
    with schema.located(f"{path}: field 'metrics'"):
        features = fp.features(corpus)
    try:
        report = evaluate(fp.model, features, corpus.labels())
    except DegenerateInputError as exc:  # the model's own feature-width check
        raise DataError(f"{path}: field 'model' does not fit its metrics and "
                        f"layout: {exc}") from None
    except UnknownLabelError as exc:
        raise UnknownLabelError(f"{cfg.args.manifest}: {exc} ({path}: field 'classes')") from None
    _report_outputs(report, out)
    cfg.write_effective(out, "eval")
    print(f"accuracy {report.accuracy:.4f}  macro-F1 {report.macro_f1:.4f}")
    return EXIT_OK


def cmd_cv(cfg: RunConfig) -> int:
    out = cfg.out_dir()
    corpus = read_manifest(cfg.args.manifest)
    seed = cfg.seed()
    k = cfg.get("k", 5)
    fit, _ = _fitter(cfg, cfg.get("model", "rf"), seed)
    report = kfold_cv(corpus, fit, k=k, seed=seed)
    _report_outputs(report, out)
    cfg.write_effective(out, "cv")
    print(f"{k}-fold accuracy {report.fold_accuracy_mean:.4f} "
          f"+/- {report.fold_accuracy_std:.4f}")
    return EXIT_OK


def cmd_lopo(cfg: RunConfig) -> int:
    out = cfg.out_dir()
    corpus = read_manifest(cfg.args.manifest)
    fit, _ = _fitter(cfg, cfg.get("model", "rf"), cfg.seed())
    report = lopo_cv(corpus, fit)
    _report_outputs(report, out)
    cfg.write_effective(out, "lopo")
    print(f"LOPO over {len(report.folds)} groups: accuracy "
          f"{report.fold_accuracy_mean:.4f} +/- {report.fold_accuracy_std:.4f}")
    return EXIT_OK


def cmd_grid(cfg: RunConfig) -> int:
    out = cfg.out_dir()
    corpus = read_manifest(cfg.args.manifest)
    seed = cfg.seed()
    model_name = cfg.get("model", "rf")
    _trainer_factory(model_name, cfg, seed)  # the flags and config values, checked once
    grid = schema.load_json(cfg.args.grid)
    for i, entry in enumerate(schema.read(grid, list, f"{cfg.args.grid}: a grid")):
        with schema.located(f"{cfg.args.grid}: entry {i}"):
            _trainer_factory(model_name, cfg, seed, schema.read(entry, dict, "an entry"))
    best_params, report = grid_search(
        corpus, lambda entry: _fitter(cfg, model_name, seed, entry)[0], grid,
        k=cfg.get("k", 5), seed=seed)
    _write_json(os.path.join(out, "best_params.json"), best_params)
    _report_outputs(report, out)
    cfg.write_effective(out, "grid")
    print(f"best params {best_params}: accuracy "
          f"{report.fold_accuracy_mean:.4f} +/- {report.fold_accuracy_std:.4f}")
    return EXIT_OK


def cmd_count(cfg: RunConfig) -> int:
    out = cfg.out_dir()
    trace = read_wide_csv(cfg.args.trace)
    catalog = cfg.catalog()
    window = cfg.get("window", 3, minimum=1)
    gap = cfg.get("gap", 3, minimum=0)
    min_jump = cfg.get("min_jump", None, float, minimum=0)
    jumps = (min_jump if min_jump is not None
             else default_min_jumps(cfg.profile(), metrics=trace.metrics))
    # one detection per metric feeds both the vote and steps.csv
    events = {m: detect_steps(trace.values(m), min_jump_for(jumps, m), window, gap)
              for m in known_metrics(trace, catalog)}
    count, per_metric = vote_participants(events, catalog)
    from .stepcount import steps_to_csv

    steps_to_csv(events, os.path.join(out, "steps.csv"))
    _write_json(os.path.join(out, "count.json"),
                {"count": count, "per_metric": per_metric})
    cfg.write_effective(out, "count")
    print(f"estimated participants: {count}")
    return EXIT_OK


def cmd_correlate(cfg: RunConfig) -> int:
    out = cfg.out_dir()
    pixels = read_wide_csv(cfg.args.pixels)
    trace = read_wide_csv(cfg.args.trace)
    metric = cfg.get("metric", "non_base_level_textures")
    x = pixels.matrix[:, 0]
    y = trace.values(metric)
    if x.size != y.size:
        raise DataError(f"pixels ({x.size}s) and trace ({y.size}s) lengths differ")
    fit = linreg(x, y)
    r = pearson(x, y)
    payload = {"metric": metric, "slope": fit.slope, "intercept": fit.intercept,
               "r_squared": fit.r_squared, "pearson": r}
    _write_json(os.path.join(out, "correlation.json"), payload)
    plots.line_plot({"pixels": (np.arange(x.size), x),
                     metric: (np.arange(y.size), y)},
                    os.path.join(out, "correlation.svg"),
                    title=f"pixel coverage vs {metric}",
                    x_label="seconds", y_label="normalized value", normalize=True)
    cfg.write_effective(out, "correlate")
    print(f"pearson {r:.4f}  r_squared {fit.r_squared:.4f}  "
          f"slope {fit.slope:.4f}  intercept {fit.intercept:.4f}")
    return EXIT_OK


def _strategy_from_cfg(cfg: RunConfig, seed: int):
    kind = cfg.get("strategy", "gaussian")
    if kind == "gaussian":
        return GaussianNoise(cfg.get("sigma", 1.0), seed=seed)
    return DummyRender(cfg.get("rate", 1.0), size_s=cfg.get("size", 2.0),
                       depth_z=cfg.get("depth", 2.0), seed=seed)


def cmd_defend_inject(cfg: RunConfig) -> int:
    out = cfg.out_dir()
    trace = read_wide_csv(cfg.args.trace)
    strategy = _strategy_from_cfg(cfg, cfg.seed())
    noisy = inject_noise(trace, strategy, cfg.catalog(), cfg.profile())
    write_wide_csv(noisy, os.path.join(out, "injected.csv"))
    cfg.write_effective(out, "defend-inject")
    print(f"injected {strategy} -> {out}/injected.csv")
    return EXIT_OK


def cmd_defend_detect(cfg: RunConfig) -> int:
    out = cfg.out_dir()
    log = read_access_log(cfg.args.log)
    verdict = detect_profiler_access(
        log,
        min_events=cfg.get("min_events", 20, minimum=1),
        cv_threshold=cfg.get("cv_threshold", 0.1, minimum=0),
        expected_period_s=cfg.get("expected_period", 1.0, minimum=0),
        period_tolerance=cfg.get("period_tolerance", 0.25, minimum=0))
    _write_json(os.path.join(out, "verdict.json"), verdict.to_dict())
    cfg.write_effective(out, "defend-detect")
    print(f"flagged={verdict.flagged} cv={verdict.cv:.4f} n={verdict.n_events}"
          + (f" period={verdict.estimated_period_s:.3f}s" if verdict.flagged else ""))
    return EXIT_OK


def _levels(cfg: RunConfig) -> list[float]:
    """The noise levels: comma-separated sigma multipliers, each a finite
    number >= 0 and greater than the one before."""
    raw, where = cfg.get("levels", "0,2,5,10,25"), cfg.where("levels")
    levels = []
    for i, text in enumerate(raw.split(",")):
        try:
            value = float(text)
        except ValueError:
            raise SchemaError(f"{where}: entry {i} must be a number, got {text!r}") from None
        levels.append(schema.read(value, float, f"{where}: entry {i}", minimum=0))
        if i and levels[i] <= levels[i - 1]:
            raise SchemaError(f"{where}: entry {i} must be greater than entry {i - 1} "
                              f"({levels[i - 1]!r}), got {levels[i]!r}")
    return levels


def cmd_defend_curve(cfg: RunConfig) -> int:
    out = cfg.out_dir()
    corpus = read_manifest(cfg.args.manifest)
    seed = cfg.seed()
    sigmas = _levels(cfg)
    from .seeding import derive_seed

    strategies = [GaussianNoise(s, seed=derive_seed(seed, i))
                  for i, s in enumerate(sigmas)]
    trainer, _ = _trainer_factory(cfg.get("model", "rf"), cfg, seed)
    curve, clean = evaluate_countermeasure(
        corpus, trainer, strategies, seed=seed, catalog=cfg.catalog(),
        profile=cfg.profile())
    curve.to_csv(os.path.join(out, "degradation.csv"))
    clean.to_json(os.path.join(out, "clean_report.json"))
    levels = np.array([p.level for p in curve.points])
    plots.line_plot(
        {"accuracy": (levels, np.array([p.accuracy for p in curve.points])),
         "macro_f1": (levels, np.array([p.macro_f1 for p in curve.points]))},
        os.path.join(out, "degradation.svg"),
        title="attack accuracy vs injected noise",
        x_label="noise level (sigma multiplier)", y_label="score")
    cfg.write_effective(out, "defend-curve")
    for p in curve.points:
        print(f"  level {p.level}: accuracy {p.accuracy:.4f} macro_f1 {p.macro_f1:.4f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_common(sub, out_required: bool = True):
    sub.add_argument("--out", required=out_required, help="output directory")
    sub.add_argument("--config", help="JSON file of default parameter values")
    sub.add_argument("--catalog", help="metric catalog JSON (default: built-in)")
    sub.add_argument("--profile", help="metric response profile JSON (default: built-in)")
    sub.add_argument("--seed", type=int, help=f"RNG seed (default: ${SEED_ENV_VAR} or 0)")


def _add_model_flags(sub, keys=None):
    """--model, --layout and a flag per FAMILIES parameter key (one --lr and
    one --epochs for svm and mlp); `keys` keeps only the flags it names."""
    flags = {"model": {"choices": list(FAMILIES), "help": "classifier family (default rf)"},
             "layout": {"choices": list(LAYOUTS), "help": "feature layout (default stat4)"}}
    for kind, family in FAMILIES.items():
        for p in family.params:
            flag = flags.setdefault(p.key, {"type": p.kind, "help": ""})
            flag["help"] += f"{kind}: {p.arg} (default {p.default}, min {p.minimum}) "
    for key, flag in flags.items():
        if key != "seed" and (keys is None or key in keys):  # _add_common adds --seed
            sub.add_argument("--" + key.replace("_", "-"), dest=key, **flag)


@functools.cache  # parsing leaves the parser as it was, so main() reuses one
def build_parser() -> _Parser:
    parser = _Parser(prog="counterscope",
                     description="GPU-counter side-channel pipeline at desk scale")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("simulate", help="render a scene script into trace + pixel CSVs")
    p.add_argument("scene", help="scene script JSON")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = commands.add_parser("gen-corpus", help="generate a labeled corpus from a corpus spec")
    p.add_argument("corpus_spec", help="corpus spec JSON")
    _add_common(p)
    p.set_defaults(func=cmd_gen_corpus)

    p = commands.add_parser("prune", help="pairwise-correlation metric pruning")
    p.add_argument("--manifest", required=True)
    p.add_argument("--threshold", type=float, help="|r| redundancy threshold (default 0.90)")
    _add_common(p)
    p.set_defaults(func=cmd_prune)

    p = commands.add_parser("screen", help="per-metric accuracy screening")
    p.add_argument("--manifest", required=True)
    p.add_argument("--threshold-acc", dest="threshold_acc", type=float,
                   help="accuracy floor (default 0.60)")
    _add_model_flags(p, keys={"trees"})
    _add_common(p)
    p.set_defaults(func=cmd_screen)

    p = commands.add_parser("train", help="train a classifier on a manifest corpus")
    p.add_argument("--manifest", required=True)
    _add_model_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = commands.add_parser("eval", help="evaluate a saved model on a manifest corpus")
    p.add_argument("--manifest", required=True)
    p.add_argument("--model-file", dest="model_file", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = commands.add_parser("cv", help="stratified k-fold cross-validation")
    p.add_argument("--manifest", required=True)
    p.add_argument("--k", type=int, help="folds (default 5)")
    _add_model_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_cv)

    p = commands.add_parser("lopo", help="leave-one-group-out cross-validation")
    p.add_argument("--manifest", required=True)
    _add_model_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_lopo)

    p = commands.add_parser("grid", help="grid search with k-fold CV")
    p.add_argument("--manifest", required=True)
    p.add_argument("--grid", required=True, help="JSON array of parameter objects")
    p.add_argument("--k", type=int, help="folds (default 5)")
    _add_model_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_grid)

    p = commands.add_parser("count", help="participant counting via step detection")
    p.add_argument("--trace", required=True, help="wide CSV trace")
    p.add_argument("--min-jump", dest="min_jump", type=float,
                   help="global jump threshold (default: per-metric 4 sigma)")
    p.add_argument("--window", type=int, help="mean window seconds (default 3)")
    p.add_argument("--gap", type=int, help="merge gap seconds (default 3)")
    _add_common(p)
    p.set_defaults(func=cmd_count)

    p = commands.add_parser("correlate", help="pixel-vs-metric regression and correlation")
    p.add_argument("--pixels", required=True, help="pixel coverage CSV")
    p.add_argument("--trace", required=True, help="wide CSV trace")
    p.add_argument("--metric", help="metric id (default non_base_level_textures)")
    _add_common(p)
    p.set_defaults(func=cmd_correlate)

    p = commands.add_parser("defend", help="countermeasure experiments")
    defend = p.add_subparsers(dest="defend_command", required=True)

    d = defend.add_parser("inject", help="write a noise-perturbed copy of a trace")
    d.add_argument("--trace", required=True)
    d.add_argument("--strategy", choices=list(_CHOICES["strategy"]),
                   help="perturbation kind (default gaussian)")
    d.add_argument("--sigma", type=float, help="gaussian: sigma multiplier")
    d.add_argument("--rate", type=float, help="dummy: objects per second")
    d.add_argument("--size", type=float, help="dummy: object size")
    d.add_argument("--depth", type=float, help="dummy: object depth")
    _add_common(d)
    d.set_defaults(func=cmd_defend_inject)

    d = defend.add_parser("detect", help="flag repetitive profiler access in a timestamp log")
    d.add_argument("--log", required=True, help="one timestamp (seconds) per line")
    d.add_argument("--min-events", dest="min_events", type=int)
    d.add_argument("--cv-threshold", dest="cv_threshold", type=float)
    d.add_argument("--expected-period", dest="expected_period", type=float)
    d.add_argument("--period-tolerance", dest="period_tolerance", type=float)
    _add_common(d)
    d.set_defaults(func=cmd_defend_detect)

    d = defend.add_parser("curve", help="accuracy degradation curve under injected noise")
    d.add_argument("--manifest", required=True)
    d.add_argument("--levels", help="comma-separated sigma multipliers (default 0,2,5,10,25)")
    _add_model_flags(d, keys={"model", "trees"})
    _add_common(d)
    d.set_defaults(func=cmd_defend_curve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig(args)
        return args.func(cfg)
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - report and map to internal-error code
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
