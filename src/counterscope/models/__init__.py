"""Classifiers (random forest, linear SVM, k-NN, MLP), declared once in
FAMILIES, and the evaluation protocol (splits, k-fold CV, LOPO CV, grid
search, score reports)."""

from .evaluation import (
    ClassMetrics,
    EvaluationReport,
    confusion_matrix,
    evaluate,
    grid_search,
    kfold_cv,
    lopo_cv,
    split_corpus,
    stratified_folds,
    stratified_split,
)
from .forest import RandomForestModel, train_rf
from .linear import LinearSvmModel, train_linear_svm
from .mlp import MlpModel, MlpParams, init_params, loss_and_grads, train_mlp
from .neighbors import KnnModel, train_knn
from .serialize import FAMILIES, load_model, save_model

__all__ = [
    "ClassMetrics",
    "EvaluationReport",
    "confusion_matrix",
    "evaluate",
    "grid_search",
    "kfold_cv",
    "lopo_cv",
    "split_corpus",
    "stratified_folds",
    "stratified_split",
    "RandomForestModel",
    "train_rf",
    "LinearSvmModel",
    "train_linear_svm",
    "MlpModel",
    "MlpParams",
    "init_params",
    "loss_and_grads",
    "train_mlp",
    "KnnModel",
    "train_knn",
    "FAMILIES",
    "load_model",
    "save_model",
]
