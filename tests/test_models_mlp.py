import numpy as np

from counterscope.models import train_mlp
from counterscope.models.mlp import MlpParams, init_params, loss_and_grads
from counterscope.features import Fingerprinter, NormalizationStats
from counterscope.models.serialize import load_model, save_model


def flatten(params):
    return np.concatenate([p.reshape(-1) for p in (params.w1, params.b1, params.w2, params.b2)])


def unflatten(vec, d, h, c):
    parts = np.split(vec, np.cumsum([d * h, h, h * c, c])[:-1])
    return MlpParams(parts[0].reshape(d, h), parts[1], parts[2].reshape(h, c), parts[3])


def finite_difference_gradient(params, X, y_idx, eps=1e-4):
    d, h = params.w1.shape
    c = params.w2.shape[1]
    flat = flatten(params)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        up = flat.copy()
        up[i] += eps
        down = flat.copy()
        down[i] -= eps
        loss_up, _ = loss_and_grads(unflatten(up, d, h, c), X, y_idx)
        loss_down, _ = loss_and_grads(unflatten(down, d, h, c), X, y_idx)
        grad[i] = (loss_up - loss_down) / (2.0 * eps)
    return grad


def max_relative_error(analytic, numeric):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return float(np.max(np.abs(analytic - numeric) / denom))


def test_gradient_check_10_random_batches():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((8, 6))
        y_idx = rng.integers(0, 3, 8)
        params = init_params(6, 16, 3, seed=100 + seed)
        _, grads = loss_and_grads(params, X, y_idx)
        numeric = finite_difference_gradient(params, X, y_idx)
        assert max_relative_error(flatten(grads), numeric) < 1e-4


def test_probabilities_sum_to_one():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((40, 4))
    y = [f"c{i % 3}" for i in range(40)]
    model = train_mlp(X, y, hidden_size=8, epochs=5, seed=0)
    proba = model.predict_proba(X)
    np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)


def test_learns_separable_blobs():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((40, 2))
    b = rng.standard_normal((40, 2)) + [5.0, 5.0]
    X = np.vstack([a, b])
    y = ["low"] * 40 + ["high"] * 40
    model = train_mlp(X, y, hidden_size=16, epochs=60, seed=0)
    assert model.predict(X) == y


def test_deterministic_training():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((30, 3))
    y = [f"c{i % 2}" for i in range(30)]
    a = train_mlp(X, y, hidden_size=8, epochs=10, seed=4)
    b = train_mlp(X, y, hidden_size=8, epochs=10, seed=4)
    np.testing.assert_array_equal(a.params.w1, b.params.w1)
    np.testing.assert_array_equal(a.params.w2, b.params.w2)


def test_training_reduces_loss():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((60, 4))
    y_idx = (X[:, 0] > 0).astype(int)
    params = init_params(4, 8, 2, seed=0)
    initial, _ = loss_and_grads(params, X, y_idx)
    model = train_mlp(X, [f"c{i}" for i in y_idx], hidden_size=8, epochs=50, seed=0)
    final, _ = loss_and_grads(model.params, X, y_idx)
    assert final < initial


def test_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    X = rng.standard_normal((30, 3))
    y = [f"c{i % 2}" for i in range(30)]
    model = train_mlp(X, y, hidden_size=8, epochs=10, seed=0)
    path = tmp_path / "mlp.json"
    save_model(Fingerprinter(["m_a"], "stat4", NormalizationStats({"m_a": (0.0, 1.0)}),
                             model), path)
    loaded = load_model(path).model
    np.testing.assert_array_equal(loaded.predict_proba(X), model.predict_proba(X))
