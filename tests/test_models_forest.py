import json

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from counterscope.errors import DegenerateInputError
from counterscope.models import RandomForestModel, train_rf
from counterscope.features import Fingerprinter, NormalizationStats
from counterscope.models.serialize import load_model, save_model
from forest_reference import reference_proba, train_reference


def separable_1d(n_per=30, seed=0):
    rng = np.random.default_rng(seed)
    neg = rng.uniform(-3.0, -0.5, n_per)
    pos = rng.uniform(0.5, 3.0, n_per)
    X = np.concatenate([neg, pos]).reshape(-1, 1)
    y = ["neg"] * n_per + ["pos"] * n_per
    return X, y


def test_separable_training_accuracy():
    X, y = separable_1d()
    model = train_rf(X, y, n_trees=20, seed=0)
    assert model.predict(X) == y


def test_identical_features_predict_majority():
    X = np.ones((9, 2))
    y = ["big"] * 6 + ["small"] * 3
    model = train_rf(X, y, n_trees=15, seed=1)
    assert model.predict(np.ones((4, 2))) == ["big"] * 4


def test_deterministic_given_seed():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((80, 6))
    y = [f"c{i % 3}" for i in range(80)]
    q = rng.standard_normal((25, 6))
    a = train_rf(X, y, n_trees=25, seed=7)
    b = train_rf(X, y, n_trees=25, seed=7)
    assert a.predict(q) == b.predict(q)
    assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())


def test_different_seed_changes_forest():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((60, 6))
    y = [f"c{i % 3}" for i in range(60)]
    a = train_rf(X, y, n_trees=10, seed=1)
    b = train_rf(X, y, n_trees=10, seed=2)
    assert json.dumps(a.to_dict()) != json.dumps(b.to_dict())


def test_trees_depend_only_on_seed_and_index():
    """Same seed twice gives equal to_dict() JSON, and growing the trees
    together couples none of them: a smaller forest is a prefix of a larger
    one."""
    rng = np.random.default_rng(3)
    X = rng.standard_normal((100, 8))
    y = [f"c{i % 4}" for i in range(100)]
    first = train_rf(X, y, n_trees=24, seed=9)
    again = train_rf(X, y, n_trees=24, seed=9)
    assert json.dumps(first.to_dict()) == json.dumps(again.to_dict())
    fewer = train_rf(X, y, n_trees=7, seed=9)
    assert [t.to_dict() for t in fewer.trees] == [t.to_dict() for t in first.trees[:7]]


def test_monotone_transform_invariance():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((90, 5))
    y = [f"c{i % 3}" for i in range(90)]
    q = rng.standard_normal((30, 5))
    Xt, qt = X.copy(), q.copy()
    Xt[:, 2] = np.exp(Xt[:, 2])
    qt[:, 2] = np.exp(qt[:, 2])
    plain = train_rf(X, y, n_trees=20, seed=5)
    warped = train_rf(Xt, y, n_trees=20, seed=5)
    assert plain.predict(q) == warped.predict(qt)


def test_leaves_store_distributions():
    X, y = separable_1d(n_per=10)
    model = train_rf(X, y, n_trees=3, seed=0)

    for tree in model.trees:
        leaves = tree.feature < 0
        assert (tree.left[leaves] == -1).all() and (tree.right[leaves] == -1).all()
        for dist in tree.value[leaves]:
            assert dist.sum() == pytest.approx(1.0, abs=1e-12)
            assert (dist >= 0).all()


def test_max_depth_respected():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((100, 4))
    y = [f"c{i % 2}" for i in range(100)]
    model = train_rf(X, y, n_trees=5, max_depth=2, seed=0)

    def depth(tree, node=0):
        if tree.feature[node] < 0:
            return 0
        return 1 + max(depth(tree, tree.left[node]), depth(tree, tree.right[node]))

    assert all(depth(t) <= 2 for t in model.trees)


def test_single_class_rejected():
    with pytest.raises(DegenerateInputError):
        train_rf(np.zeros((4, 2)), ["same"] * 4)


def test_row_label_mismatch_rejected():
    with pytest.raises(DegenerateInputError):
        train_rf(np.zeros((4, 2)), ["a", "b"])


def test_probabilities_sum_to_one():
    X, y = separable_1d()
    model = train_rf(X, y, n_trees=10, seed=0)
    proba = model.predict_proba(X[:5])
    np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-12)


def test_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    X = rng.standard_normal((60, 5))
    y = [f"c{i % 3}" for i in range(60)]
    q = rng.standard_normal((20, 5))
    model = train_rf(X, y, n_trees=12, seed=3)
    path = tmp_path / "model.json"
    norm = NormalizationStats({"m_a": (1.5, 2.0)})
    save_model(Fingerprinter(["m_a"], "stat4", norm, model), path)
    loaded = load_model(path)
    assert isinstance(loaded.model, RandomForestModel)
    assert loaded.model.predict(q) == model.predict(q)
    assert loaded.metrics == ["m_a"]
    assert loaded.layout == "stat4"
    assert loaded.normalizer == norm


# The recursive forest the lockstep one replaced, grown the old way; the two
# must agree bit for bit on trees and on probabilities.
@st.composite
def forest_problems(draw):
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 8))
    levels = draw(st.sampled_from([(0.0, 1.0), (-1.5, 0.0, 0.25, 2.0), tuple(range(-9, 10))]))
    X = draw(hnp.arrays(float, (n, d), elements=st.sampled_from(levels)))
    if d >= 2 and draw(st.booleans()):
        X[:, 1] = X[:, 0]  # duplicate column
    if d >= 3 and draw(st.booleans()):
        X[:, 2] = 4.0  # constant column
    n_classes = draw(st.integers(2, 8))
    codes = draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n))
    codes[:2] = [0, 1]
    params = {
        "n_trees": draw(st.integers(1, 8)),
        "max_depth": draw(st.sampled_from([None, 1, 2, 4])),
        "min_samples_split": draw(st.sampled_from([1, 2, 3, 7])),
        "feature_subsample": draw(st.sampled_from([None, 1, 2, d])),
        "seed": draw(st.integers(0, 2**63)),
    }
    queries = np.vstack([X, draw(hnp.arrays(float, (5, d), elements=st.floats(-10, 10))),
                         np.full((1, d), np.nan)])
    return X, [f"k{c}" for c in codes], params, queries


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(forest_problems())
def test_matches_recursive_reference(problem):
    X, y, params, queries = problem
    model = train_rf(X, y, **params)
    reference = train_reference(X, y, **params)
    assert json.dumps([t.to_dict() for t in model.trees]) == json.dumps(reference)
    want = reference_proba(reference, queries, len(model.classes)).tobytes()
    assert model.predict_proba(queries).tobytes() == want
    loaded = RandomForestModel.from_dict(json.loads(json.dumps(model.to_dict())))
    assert loaded.predict_proba(queries).tobytes() == want


def test_matches_recursive_reference_on_wide_many_class_matrix():
    rng = np.random.default_rng(11)
    X = np.round(rng.standard_normal((150, 40)), 1)
    y = [f"c{i % 12}" for i in range(150)]
    model = train_rf(X, y, n_trees=6, seed=4)
    reference = train_reference(X, y, n_trees=6, seed=4)
    assert json.dumps([t.to_dict() for t in model.trees]) == json.dumps(reference)
    assert model.predict_proba(X).tobytes() == reference_proba(reference, X, 12).tobytes()
