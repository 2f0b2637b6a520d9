"""counterscope: a desk-scale GPU-counter side-channel pipeline.

Simulates 1 Hz GPU-metric traces from scripted AR/VR workloads, then runs
the analysis chain against them: metric pruning and screening, fingerprint
features, classification and evaluation protocols, participant counting via
step detection, and countermeasure experiments.
"""

from . import (
    catalog,
    datasets,
    defense,
    features,
    models,
    selection,
    simulator,
    stats,
    stepcount,
    traces,
)
from .catalog import MetricCatalog, MetricDescriptor, builtin_catalog, load_catalog
from .traces import LabeledCorpus, TraceSet, read_manifest, read_wide_csv

__version__ = "0.1.0"

__all__ = [
    "catalog",
    "datasets",
    "defense",
    "features",
    "models",
    "selection",
    "simulator",
    "stats",
    "stepcount",
    "traces",
    "MetricCatalog",
    "MetricDescriptor",
    "builtin_catalog",
    "load_catalog",
    "LabeledCorpus",
    "TraceSet",
    "read_manifest",
    "read_wide_csv",
    "__version__",
]
