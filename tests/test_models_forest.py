import json

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from counterscope.errors import DegenerateInputError
from counterscope.models import RandomForestModel, forest, train_rf
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


def _check_against_reference(problem, warm):
    """Cold: the fit draws its trees' streams. Warm: a fit of the same shape
    on the rows reversed drew them first, its trees deeper or shallower."""
    X, y, params, queries = problem
    forest._streams.cache_clear()
    if warm:
        train_rf(X[::-1], y, **params)
    model = train_rf(X, y, **params)
    reference = train_reference(X, y, **params)
    assert json.dumps([t.to_dict() for t in model.trees]) == json.dumps(reference)
    want = reference_proba(reference, queries, len(model.classes)).tobytes()
    assert model.predict_proba(queries).tobytes() == want
    loaded = RandomForestModel.from_dict(json.loads(json.dumps(model.to_dict())))
    assert loaded.predict_proba(queries).tobytes() == want


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(forest_problems())
def test_matches_recursive_reference(problem):
    _check_against_reference(problem, warm=False)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(forest_problems())
def test_matches_recursive_reference_with_a_warm_memo(problem):
    _check_against_reference(problem, warm=True)


def test_matches_recursive_reference_on_wide_many_class_matrix():
    rng = np.random.default_rng(11)
    X = np.round(rng.standard_normal((150, 40)), 1)
    y = [f"c{i % 12}" for i in range(150)]
    model = train_rf(X, y, n_trees=6, seed=4)
    reference = train_reference(X, y, n_trees=6, seed=4)
    assert json.dumps([t.to_dict() for t in model.trees]) == json.dumps(reference)
    assert model.predict_proba(X).tobytes() == reference_proba(reference, X, 12).tobytes()


# The per-process memo of tree streams: a fit must not depend on what the
# memo held before it.

def _dicts(model):
    return json.dumps(model.to_dict())


def _shallow_and_deep(n=60, d=5):
    """Two problems of one shape: every tree of the first splits once, on
    whichever feature it draws; trees of the second need many draws (more
    than the first slots hold)."""
    halves = np.arange(n) % 2
    shallow = (np.repeat(halves[:, None], d, axis=1) + 0.0, [f"h{c}" for c in halves])
    deep = (np.random.default_rng(5).integers(0, 4, (n, d)) + 0.0,
            [f"c{c}" for c in np.arange(n) % 6])
    return shallow, deep


def test_cold_and_warm_memo_fit_equally():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((40, 6))
    y = [f"c{i % 4}" for i in range(40)]
    forest._streams.cache_clear()
    cold = train_rf(X, y, n_trees=12, seed=3)
    warm = train_rf(X, y, n_trees=12, seed=3)
    assert _dicts(warm) == _dicts(cold)


def test_fits_that_interleave_keys_fit_as_cold_ones():
    """Six keys, more than the memo keeps, fitted in an order that both
    reuses and evicts entries; every fit equals one with the memo empty."""
    rng = np.random.default_rng(9)
    X = rng.standard_normal((30, 7))
    y = [f"c{i % 3}" for i in range(30)]
    shapes = [(30, dict(seed=1, n_trees=6)), (30, dict(seed=2, n_trees=6)),
              (30, dict(seed=1, n_trees=4)), (30, dict(seed=1, n_trees=6, feature_subsample=1)),
              (25, dict(seed=1, n_trees=6)), (25, dict(seed=3, n_trees=5, feature_subsample=7))]
    assert len(shapes) > forest._STREAM_KEYS

    def fit(i):
        n, params = shapes[i]
        return _dicts(train_rf(X[:n], y[:n], **params))

    cold = []
    for i in range(len(shapes)):
        forest._streams.cache_clear()
        cold.append(fit(i))
    forest._streams.cache_clear()
    for i in (0, 1, 0, 2, 1, 0, 3, 4, 5, 0, 1, 2, 5, 4, 4):
        assert fit(i) == cold[i], i
    info = forest._streams.cache_info()
    assert info.hits >= 5 and info.misses > len(shapes)  # reused and evicted
    assert info.currsize == forest._STREAM_KEYS


def test_a_tree_that_outgrows_its_draws_extends_them():
    shallow, deep = _shallow_and_deep()
    forest._streams.cache_clear()
    cold_deep = _dicts(train_rf(*deep, n_trees=5, seed=2))
    forest._streams.cache_clear()
    cold_shallow = _dicts(train_rf(*shallow, n_trees=5, seed=2))
    entry = forest._streams((2, 5, 60, 5, 3))
    assert entry._drawn.tolist() == [1] * 5
    assert _dicts(train_rf(*deep, n_trees=5, seed=2)) == cold_deep
    assert entry._cand.shape[1] >= entry._drawn.max() > 8  # past the first slots
    # the longer lists serve both problems again
    assert _dicts(train_rf(*shallow, n_trees=5, seed=2)) == cold_shallow
    assert _dicts(train_rf(*deep, n_trees=5, seed=2)) == cold_deep


def test_memo_bootstrap_rows_are_read_only():
    forest._streams.cache_clear()
    X, y = separable_1d()
    train_rf(X, y, n_trees=3, seed=1)
    entry = forest._streams((1, 3, 60, 1, 1))
    assert forest._streams.cache_info().currsize == 1  # the fit's own entry
    with pytest.raises(ValueError):
        entry.boots[0] = 0


def test_an_extension_that_raises_leaves_no_entry():
    """The last tree's generator fails after the others drew; the entry,
    whose other generators moved past their lists, leaves the memo, and the
    next fit equals a cold one."""
    class Failing:
        def permutation(self, d):
            raise RuntimeError("draw failed")

    shallow, deep = _shallow_and_deep()
    forest._streams.cache_clear()
    cold_deep = _dicts(train_rf(*deep, n_trees=3, seed=4))
    forest._streams.cache_clear()
    train_rf(*shallow, n_trees=3, seed=4)
    forest._streams((4, 3, 60, 5, 3)).rngs[-1] = Failing()
    with pytest.raises(RuntimeError, match="draw failed"):
        train_rf(*deep, n_trees=3, seed=4)
    assert forest._streams.cache_info().currsize == 0
    assert _dicts(train_rf(*deep, n_trees=3, seed=4)) == cold_deep
