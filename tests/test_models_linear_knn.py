import numpy as np
import pytest

from counterscope.errors import DegenerateInputError
from counterscope.features import Fingerprinter, NormalizationStats
from counterscope.models import train_knn, train_linear_svm
from counterscope.models.serialize import load_model, save_model


def fingerprinter(model):
    """`model` in a Fingerprinter, the form save_model writes."""
    return Fingerprinter(["m_a"], "stat4", NormalizationStats({"m_a": (0.0, 1.0)}), model)


def blobs(seed=0, n_per=40, gap=4.0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n_per, 2)) + [0.0, 0.0]
    b = rng.standard_normal((n_per, 2)) + [gap, gap]
    X = np.vstack([a, b])
    y = ["low"] * n_per + ["high"] * n_per
    return X, y


class TestLinearSvm:
    def test_separable_held_out_accuracy(self):
        X, y = blobs(seed=1)
        model = train_linear_svm(X, y, epochs=40, seed=0)
        Xq, yq = blobs(seed=2)
        assert model.predict(Xq) == yq

    def test_deterministic(self):
        X, y = blobs()
        a = train_linear_svm(X, y, seed=3)
        b = train_linear_svm(X, y, seed=3)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.biases, b.biases)

    def test_multiclass_one_vs_rest_shapes(self):
        # class centers in general position so each one-vs-rest cut exists
        rng = np.random.default_rng(0)
        centers = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]])
        X = np.vstack([rng.standard_normal((20, 2)) + c for c in centers])
        y = [f"c{k}" for k in range(3) for _ in range(20)]
        model = train_linear_svm(X, y, epochs=60, seed=0)
        assert model.weights.shape == (3, 2)
        assert model.predict(X) == y

    def test_serialization_round_trip(self, tmp_path):
        X, y = blobs()
        model = train_linear_svm(X, y, seed=1)
        path = tmp_path / "svm.json"
        save_model(fingerprinter(model), path)
        loaded = load_model(path).model
        assert loaded.predict(X) == model.predict(X)


class TestKnn:
    def test_k1_training_accuracy(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((30, 4))
        y = [f"c{i % 3}" for i in range(30)]
        model = train_knn(X, y, k=1)
        assert model.predict(X) == y

    def test_vote_tie_breaks_to_lowest_class_index(self):
        # k=2 with one neighbor from each class: 'a' < 'b' wins
        X = np.array([[0.0], [2.0]])
        model = train_knn(X, ["b", "a"], k=2)
        assert model.predict(np.array([[1.0]])) == ["a"]

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(DegenerateInputError):
            train_knn(np.zeros((3, 1)), ["a", "b", "a"], k=4)

    def test_held_out_blobs(self):
        X, y = blobs(seed=7)
        model = train_knn(X, y, k=5)
        Xq, yq = blobs(seed=8)
        assert model.predict(Xq) == yq

    def test_serialization_round_trip(self, tmp_path):
        X, y = blobs()
        model = train_knn(X, y, k=3)
        path = tmp_path / "knn.json"
        save_model(fingerprinter(model), path)
        loaded = load_model(path).model
        assert loaded.predict(X[:7]) == model.predict(X[:7])
