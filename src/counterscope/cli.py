"""Command-line entry point wiring the pipeline into reproducible runs.

Every subcommand writes its results plus an effective_config.json echo of
the resolved configuration into --out. Outputs are deterministic for a
fixed seed. Configuration precedence: flags > --config file > built-in
defaults; the COUNTERSCOPE_SEED environment variable replaces the built-in
default seed.

COMMANDS declares every subcommand once: its handler, its help, its path
arguments and its options. Each option is a schema.Param, the one place that
gives its flag, its config key, its kind, its default, its bounds, its choices
and its help; `counterscope <cmd> --help` lists them. The model options come
from models.FAMILIES and the noise options from defense.STRATEGIES. A handler
reads its options through RunConfig, which checks each value against its
Param, names the flag or config key of a bad one, and records the value in
effective_config.json.

The model-taking commands go through features.Fingerprinter: train saves
one, eval loads one, and cv, lopo, grid, screen and defend curve fit one on
each training set they split off. correlate's pixels file holds exactly one
value column.

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 internal
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import plots, schema, stepcount
from .catalog import builtin_catalog, load_catalog
from .defense import (
    DEFAULT_CV_THRESHOLD,
    DEFAULT_EXPECTED_PERIOD_S,
    DEFAULT_MIN_EVENTS,
    DEFAULT_PERIOD_TOLERANCE_S,
    STRATEGIES,
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
from .models.evaluation import DEFAULT_FOLDS
from .schema import Param
from .seeding import derive_seed
from .selection import (
    DEFAULT_PRUNE_THRESHOLD,
    DEFAULT_SCREEN_THRESHOLD,
    accuracy_screen,
    correlation_prune,
)
from .simulator import (
    builtin_profile,
    generate_corpus,
    load_corpus_spec,
    load_profile,
    load_script,
    simulate,
)
from .stats import linreg, pearson
from .stepcount import (  # default_min_jumps, detect_steps: unused here, for perfbench/spans.py
    DEFAULT_MIN_GAP_S,
    DEFAULT_WINDOW_S,
    default_min_jumps,
    detect_steps,
)
from .traces import TraceSet, read_manifest, read_wide_csv, write_manifest, write_wide_csv

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
    env = os.environ.get(SEED_ENV_VAR, "0")
    try:
        return int(env)
    except ValueError:
        raise DataError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None


# the options every subcommand takes
_COMMON = (
    Param("catalog", str, None, help="metric catalog JSON; unset: built-in"),
    Param("profile", str, None, help="metric response profile JSON; unset: built-in"),
    Param("seed", int, None,
          help=f"RNG seed; unset: ${SEED_ENV_VAR}, else 0 (gen-corpus: the spec's seed)"),
)


class RunConfig:
    """Resolved configuration of one subcommand: flag > config-file key >
    the declared default, each value checked against its Param."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.name = args.subcommand
        self.command = COMMANDS[self.name]
        self.declared = {p.key: p for p in (*self.command.params, *_COMMON)}
        self.file_values = {}
        if args.config:
            self.file_values = schema.read(schema.load_json(args.config), dict,
                                           f"{args.config}: a config file")
        self.out = args.out
        os.makedirs(self.out, exist_ok=True)
        self.resolved = {"out": self.out}
        # checked here, as every command takes them, but recorded where they are read
        for key in ("catalog", "profile"):
            path = self.value(self.declared[key])
            if path and not os.path.isfile(path):
                raise DataError(f"{self.where(key)}: no such file {path!r}")

    def value(self, p: Param):
        """The flag, else the config file's value, else p.default, checked
        against `p`."""
        value = getattr(self.args, p.key, None)
        if value is None:
            value = self.file_values.get(p.key, p.default)
        if value is not p.default:  # a default needs no check
            value = p.read(value, self.where(p.key))
            value = float(value) if p.kind is float and value is not None else value
        return value

    def read(self, p: Param):
        """value(p), recorded."""
        self.resolved[p.key] = value = self.value(p)
        return value

    def get(self, key: str):
        """The value of the subcommand's option `key`."""
        return self.read(self.declared[key])

    def params(self, *keys: str) -> dict:
        """{library keyword: value} of the subcommand's options `keys`."""
        return {self.declared[key].keyword: self.get(key) for key in keys}

    def where(self, key: str) -> str:
        """Where the value of `key` came from: its flag, the config file, or
        the default."""
        flag = "--" + key.replace("_", "-")
        if getattr(self.args, key, None) is not None:
            return flag
        if key in self.file_values:
            return f"{self.args.config}: field {key!r}"
        return "default " + flag

    def seed(self) -> int:
        """The seed, by default $COUNTERSCOPE_SEED or 0, reduced modulo 2**64
        as derive_seed does: -1 is 2**64 - 1."""
        return self.read(self.declared["seed"]._replace(default=_default_seed())) % 2**64

    def catalog(self):
        path = self.get("catalog")
        return load_catalog(path) if path else builtin_catalog()

    def profile(self):
        path = self.get("profile")
        return load_profile(path) if path else builtin_profile()

    def write_effective(self) -> None:
        _write_json(os.path.join(self.out, "effective_config.json"),
                    {"command": self.name.replace(" ", "-"), **self.resolved})


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
    params = {p.keyword: seed if p.key == "seed" else cfg.read(p) for p in family.params}
    declared = {p.keyword: p for p in family.params}
    for key, value in (overrides or {}).items():
        if key not in declared:
            raise DataError(f"unknown {model_name} parameter {key!r}; "
                            f"known: {', '.join(params)}")
        p = declared[key]
        params[key] = p.read(value, repr(key))
    # Looked up by name in this module's globals when it runs, so a wrapper
    # installed at counterscope.cli.train_rf (say) sees every fit.
    name = family.trainer.__name__
    return lambda X, y: globals()[name](X, y, **params), params


def _fitter(cfg: RunConfig, model_name: str, seed: int, overrides: dict | None = None):
    """(fit, params): fit(train corpus) -> a Fingerprinter over every corpus
    metric in the configured layout, with the trainer of _trainer_factory."""
    trainer, params = _trainer_factory(model_name, cfg, seed, overrides)
    layout = cfg.get("layout")
    return lambda train: Fingerprinter.fit(train, trainer, train.metrics, layout), params


def _report_outputs(report, out_dir: str) -> None:
    report.to_json(os.path.join(out_dir, "report.json"))
    report.to_csv(os.path.join(out_dir, "report.csv"))
    plots.heatmap(report.confusion, report.labels, report.labels,
                  os.path.join(out_dir, "confusion.svg"),
                  title="confusion matrix (rows=true, cols=predicted)")


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(cfg: RunConfig, out: str) -> None:
    script = load_script(cfg.args.scene)
    catalog = cfg.catalog()
    result = simulate(script, catalog, cfg.profile())
    write_wide_csv(result.traces, os.path.join(out, "trace.csv"))
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
    print(f"simulated {result.traces.n_seconds}s x {len(result.traces.metrics)} metrics -> {out}")


def cmd_gen_corpus(cfg: RunConfig, out: str) -> None:
    spec = load_corpus_spec(cfg.args.corpus_spec)
    seed_flag = cfg.get("seed")
    if seed_flag is not None:
        spec = dataclasses.replace(spec, seed=seed_flag)
    corpus = generate_corpus(spec, cfg.catalog(), cfg.profile())
    manifest = write_manifest(corpus, out)
    print(f"wrote {len(corpus)} traces and {manifest}")


def cmd_prune(cfg: RunConfig, out: str) -> None:
    corpus = read_manifest(cfg.args.manifest)
    catalog = cfg.catalog()
    options = cfg.params("threshold")
    with schema.located(f"{cfg.args.manifest} (catalog {cfg.get('catalog') or 'built-in'})"):
        report = correlation_prune(corpus, catalog.ids(), **options)
    report.to_json(os.path.join(out, "prune_report.json"))
    print(f"retained {len(report.retained)} of "
          f"{len(report.retained) + len(report.dropped)} metrics "
          f"(threshold {options['threshold']})")
    for d in report.dropped:
        print(f"  dropped {d.dropped} (r={d.r:+.3f} with {d.kept})")


def cmd_screen(cfg: RunConfig, out: str) -> None:
    corpus = read_manifest(cfg.args.manifest)
    seed = cfg.seed()
    options = cfg.params("threshold_acc")
    trainer, _ = _trainer_factory("rf", cfg, seed)  # screening always uses the forest
    passing = accuracy_screen(corpus, trainer, split_seed=seed, **options)
    _write_json(os.path.join(out, "screened_metrics.json"),
                [{"metric": m, "accuracy": a} for m, a in passing])
    print(f"{len(passing)} metrics pass accuracy > {options['threshold_acc']}")
    for m, a in passing:
        print(f"  {m}: {a:.3f}")


def cmd_train(cfg: RunConfig, out: str) -> None:
    corpus = read_manifest(cfg.args.manifest)
    model_name = cfg.get("model")
    fit, params = _fitter(cfg, model_name, cfg.seed())
    save_model(fit(corpus), os.path.join(out, "model.json"))
    print(f"trained {model_name} ({params}) on {len(corpus)} items -> {out}/model.json")


def cmd_eval(cfg: RunConfig, out: str) -> None:
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
    print(f"accuracy {report.accuracy:.4f}  macro-F1 {report.macro_f1:.4f}")


def cmd_cv(cfg: RunConfig, out: str) -> None:
    corpus = read_manifest(cfg.args.manifest)
    seed = cfg.seed()
    k = cfg.get("k")
    fit, _ = _fitter(cfg, cfg.get("model"), seed)
    report = kfold_cv(corpus, fit, k=k, seed=seed)
    _report_outputs(report, out)
    print(f"{k}-fold accuracy {report.fold_accuracy_mean:.4f} "
          f"+/- {report.fold_accuracy_std:.4f}")


def cmd_lopo(cfg: RunConfig, out: str) -> None:
    corpus = read_manifest(cfg.args.manifest)
    fit, _ = _fitter(cfg, cfg.get("model"), cfg.seed())
    report = lopo_cv(corpus, fit)
    _report_outputs(report, out)
    print(f"LOPO over {len(report.folds)} groups: accuracy "
          f"{report.fold_accuracy_mean:.4f} +/- {report.fold_accuracy_std:.4f}")


def cmd_grid(cfg: RunConfig, out: str) -> None:
    corpus = read_manifest(cfg.args.manifest)
    seed = cfg.seed()
    model_name = cfg.get("model")
    _trainer_factory(model_name, cfg, seed)  # the flags and config values, checked once
    grid = schema.load_json(cfg.args.grid)
    for i, entry in enumerate(schema.read(grid, list, f"{cfg.args.grid}: a grid")):
        with schema.located(f"{cfg.args.grid}: entry {i}"):
            _trainer_factory(model_name, cfg, seed, schema.read(entry, dict, "an entry"))
    best_params, report = grid_search(
        corpus, lambda entry: _fitter(cfg, model_name, seed, entry)[0], grid,
        seed=seed, **cfg.params("k"))
    _write_json(os.path.join(out, "best_params.json"), best_params)
    _report_outputs(report, out)
    print(f"best params {best_params}: accuracy "
          f"{report.fold_accuracy_mean:.4f} +/- {report.fold_accuracy_std:.4f}")


def cmd_count(cfg: RunConfig, out: str) -> None:
    trace = read_wide_csv(cfg.args.trace)
    catalog = cfg.catalog()
    detection = cfg.params("window", "gap")
    min_jump = cfg.get("min_jump")
    profile = cfg.profile() if min_jump is None else None  # it feeds the default thresholds
    count, per_metric, events = stepcount.count_participants(
        trace, catalog, min_jump, profile=profile, **detection)
    stepcount.steps_to_csv(events, os.path.join(out, "steps.csv"))
    _write_json(os.path.join(out, "count.json"),
                {"count": count, "per_metric": per_metric})
    print(f"estimated participants: {count}")


def cmd_correlate(cfg: RunConfig, out: str) -> None:
    pixels = read_wide_csv(cfg.args.pixels)
    if len(pixels.metrics) != 1:
        raise SchemaError(f"{cfg.args.pixels}: a pixels file must hold exactly one value "
                          f"column, got {len(pixels.metrics)}")
    trace = read_wide_csv(cfg.args.trace)
    metric = cfg.get("metric")
    x = pixels.matrix[:, 0]
    with schema.located(f"{cfg.args.trace}: {cfg.where('metric')}"):
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
    print(f"pearson {r:.4f}  r_squared {fit.r_squared:.4f}  "
          f"slope {fit.slope:.4f}  intercept {fit.intercept:.4f}")


def cmd_defend_inject(cfg: RunConfig, out: str) -> None:
    trace = read_wide_csv(cfg.args.trace)
    seed = cfg.seed()
    cls, params = STRATEGIES[cfg.get("strategy")]
    strategy = cls(**cfg.params(*(p.key for p in params)), seed=seed)
    noisy = inject_noise(trace, strategy, cfg.catalog(), cfg.profile())
    write_wide_csv(noisy, os.path.join(out, "injected.csv"))
    print(f"injected {strategy} -> {out}/injected.csv")


def cmd_defend_detect(cfg: RunConfig, out: str) -> None:
    log = read_access_log(cfg.args.log)
    verdict = detect_profiler_access(log, **cfg.params(
        "min_events", "cv_threshold", "expected_period", "period_tolerance"))
    _write_json(os.path.join(out, "verdict.json"), verdict.to_dict())
    print(f"flagged={verdict.flagged} cv={verdict.cv:.4f} n={verdict.n_events}"
          + (f" period={verdict.estimated_period_s:.3f}s" if verdict.flagged else ""))


def _levels(cfg: RunConfig) -> list[float]:
    """The noise levels: comma-separated sigma multipliers, each a finite
    number >= 0 and greater than the one before."""
    raw, where = cfg.get("levels"), cfg.where("levels")
    levels = []
    for i, text in enumerate(raw.split(",")):
        try:
            value = float(text)
        except ValueError:
            raise SchemaError(f"{where}: entry {i} must be a number, got {text!r}") from None
        levels.append(schema.read(value, float, f"{where}: entry {i}", minimum=0,
                                  above=levels[-1] if levels else None))
    return levels


def cmd_defend_curve(cfg: RunConfig, out: str) -> None:
    corpus = read_manifest(cfg.args.manifest)
    seed = cfg.seed()
    sigmas = _levels(cfg)
    strategies = [GaussianNoise(s, seed=derive_seed(seed, i))
                  for i, s in enumerate(sigmas)]
    trainer, _ = _trainer_factory(cfg.get("model"), cfg, seed)
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
    for p in curve.points:
        print(f"  level {p.level}: accuracy {p.accuracy:.4f} macro_f1 {p.macro_f1:.4f}")


# ---------------------------------------------------------------------------
# parser


class Command(NamedTuple):
    """A subcommand: its handler, its help, its path arguments (a bare name is
    positional, a --name a required flag), its options, and the keys of the
    FAMILIES parameters it takes as flags."""

    handler: Callable[[RunConfig, str], None]  # (config, output directory)
    help: str
    paths: tuple[str, ...]
    params: tuple[Param, ...] = ()
    model_flags: tuple[str, ...] = ()


_PATHS = {"scene": "scene script JSON", "corpus_spec": "corpus spec JSON",
          "manifest": "JSON-lines manifest of a labeled corpus",
          "model_file": "model JSON written by train", "grid": "JSON array of parameter objects",
          "trace": "wide CSV trace", "pixels": "pixel coverage CSV of exactly one value column",
          "log": "one timestamp (seconds) per line"}
_MODEL = Param("model", str, "rf", choices=tuple(FAMILIES), help="classifier family")
_LAYOUT = Param("layout", str, LAYOUT_STAT4, choices=LAYOUTS, help="feature layout")
_FOLDS = Param("k", int, DEFAULT_FOLDS, 2, help="folds")
_ALL_MODEL = tuple(dict.fromkeys(p.key for f in FAMILIES.values() for p in f.params
                                 if p.key != "seed"))  # the run seed is --seed

COMMANDS = {
    "simulate": Command(cmd_simulate, "render a scene script into trace + pixel CSVs",
                        ("scene",)),
    "gen-corpus": Command(cmd_gen_corpus, "generate a labeled corpus from a corpus spec",
                          ("corpus_spec",)),
    "prune": Command(cmd_prune, "pairwise-correlation metric pruning", ("--manifest",), (
        Param("threshold", float, DEFAULT_PRUNE_THRESHOLD, above=0, maximum=1,
              help="|r| redundancy threshold"),)),
    "screen": Command(cmd_screen, "per-metric accuracy screening", ("--manifest",), (
        Param("threshold_acc", float, DEFAULT_SCREEN_THRESHOLD, above=0, maximum=1,
              help="accuracy floor"),), ("trees",)),
    "train": Command(cmd_train, "train a classifier on a manifest corpus", ("--manifest",),
                     (_MODEL, _LAYOUT), _ALL_MODEL),
    "eval": Command(cmd_eval, "evaluate a saved model on a manifest corpus",
                    ("--manifest", "--model-file")),
    "cv": Command(cmd_cv, "stratified k-fold cross-validation", ("--manifest",),
                  (_FOLDS, _MODEL, _LAYOUT), _ALL_MODEL),
    "lopo": Command(cmd_lopo, "leave-one-group-out cross-validation", ("--manifest",),
                    (_MODEL, _LAYOUT), _ALL_MODEL),
    "grid": Command(cmd_grid, "grid search with k-fold CV", ("--manifest", "--grid"),
                    (_FOLDS, _MODEL, _LAYOUT), _ALL_MODEL),
    "count": Command(cmd_count, "participant counting via step detection", ("--trace",), (
        Param("min_jump", float, None, 0,
              help="global jump threshold; unset: 4 sigma per metric of --profile"),
        Param("window", int, DEFAULT_WINDOW_S, 1, arg="window_w", help="mean window seconds"),
        Param("gap", int, DEFAULT_MIN_GAP_S, 0, arg="min_gap", help="merge gap seconds"))),
    "correlate": Command(cmd_correlate, "pixel-vs-metric regression and correlation",
                         ("--pixels", "--trace"), (
        Param("metric", str, "non_base_level_textures", help="metric id"),)),
    "defend inject": Command(cmd_defend_inject, "write a noise-perturbed copy of a trace",
                             ("--trace",), (
        Param("strategy", str, "gaussian", choices=tuple(STRATEGIES), help="perturbation kind"),
        *(p for _, params in STRATEGIES.values() for p in params))),
    "defend detect": Command(cmd_defend_detect,
                             "flag repetitive profiler access in a timestamp log", ("--log",), (
        Param("min_events", int, DEFAULT_MIN_EVENTS, 1, help="fewest reads flagged"),
        Param("cv_threshold", float, DEFAULT_CV_THRESHOLD, 0, help="gap variation flagged below"),
        Param("expected_period", float, DEFAULT_EXPECTED_PERIOD_S, 0, arg="expected_period_s",
              help="profiler tick seconds"),
        Param("period_tolerance", float, DEFAULT_PERIOD_TOLERANCE_S, 0, help="tick tolerance"))),
    "defend curve": Command(cmd_defend_curve, "accuracy degradation curve under injected noise",
                            ("--manifest",), (
        Param("levels", str, "0,2,5,10,25", help="comma-separated increasing sigma multipliers"),
        _MODEL), ("trees",)),
}


def _help(p: Param) -> str:
    """p.help, then its default and bounds where they are set."""
    shown = [f"{name} {value}" for name, value in (
        ("default", p.default), ("min", p.minimum), (">", p.above), ("max", p.maximum))
        if value is not None]
    return f"{p.help} ({', '.join(shown)})" if shown else p.help


def _model_flags(keys) -> list[Param]:
    """A flag per FAMILIES parameter key in `keys` (one --lr and one --epochs
    for svm and mlp), whose help gives each family's keyword, default and bounds."""
    texts = {}
    for kind, family in FAMILIES.items():
        for p in (p for p in family.params if p.key in keys):
            label = ", ".join(filter(None, (f"{kind}: {p.keyword}", p.help)))
            texts.setdefault((p.key, p.kind), []).append(_help(p._replace(help=label)))
    return [Param(key, kind, None, help="; ".join(t)) for (key, kind), t in texts.items()]


@functools.cache  # parsing leaves the parser as it was, so main() reuses one
def build_parser() -> _Parser:
    parser = _Parser(prog="counterscope",
                     description="GPU-counter side-channel pipeline at desk scale")
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for name, command in COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        if group not in groups:
            groups[group] = groups[""].add_parser(  # "defend"
                group, help="countermeasure experiments").add_subparsers(
                dest=f"{group}_command", required=True)
        sub = groups[group].add_parser(leaf, help=command.help)
        for path in command.paths:
            dest = path.lstrip("-").replace("-", "_")
            flag = {"dest": dest, "required": True} if path.startswith("--") else {}
            sub.add_argument(path, help=_PATHS[dest], **flag)
        sub.add_argument("--out", required=True, help="output directory")
        sub.add_argument("--config", help="JSON file of option values, by key")
        for p in (*command.params, *_model_flags(command.model_flags), *_COMMON):
            sub.add_argument("--" + p.key.replace("_", "-"), dest=p.key,
                             type=None if p.kind is str else p.kind,
                             choices=None if p.choices is None else list(p.choices),
                             help=_help(p))
        sub.set_defaults(subcommand=name)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig(args)
        cfg.command.handler(cfg, cfg.out)
        cfg.write_effective()
        return EXIT_OK
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - report and map to internal-error code
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
