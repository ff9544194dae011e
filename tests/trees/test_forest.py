"""The packed forest against a naive per-row node walk.

Every predict path of ``repro.trees`` runs through ``PackedForest``;
its outputs must equal summing the trees one at a time bit for bit
(``np.array_equal``, not ``allclose``), including rows that sit exactly
on a split threshold, ±inf, NaN and the ``BUSY_CLAMP`` backlog stand-in.
The reference below walks each tree's nested dict form one row at a
time, independent of the packed layout.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.scheduling.distill import BUSY_CLAMP, _BitsGBDT
from repro.scheduling.policy_fast import PolicyModel
from repro.trees.decision_tree import DecisionTreeRegressor
from repro.trees.gbdt import (
    GradientBoostingClassifier,
    GradientBoostingRegressor,
    pack_regressors,
)

ARTIFACT = (
    Path(__file__).resolve().parents[2]
    / "benchmarks" / "results" / "policy_text_matching.json"
)


def walk(node, row):
    """The leaf value ``row`` reaches in a tree's nested dict form."""
    while "v" not in node:
        node = node["l"] if row[node["f"]] <= node["t"] else node["r"]
    return node["v"]


def naive_head(state, x):
    """A boosted regressor's ``to_dict`` form scored tree by tree."""
    out = np.full(x.shape[0], state["base"])
    for tree in state["trees"]:
        leaves = np.array([walk(tree["root"], row) for row in x])
        out += state["learning_rate"] * leaves
    return out


def splits(node):
    """Every ``(feature, threshold)`` split of a nested tree."""
    if "v" in node:
        return []
    return [(node["f"], node["t"])] + splits(node["l"]) + splits(node["r"])


def probe_rows(states, n_features, seed=0):
    """Random rows, one row exactly on each split threshold, and rows
    holding ±inf, NaN and ±BUSY_CLAMP, alone and mixed with finite
    values."""
    rng = np.random.default_rng(seed)
    on_split = [
        split
        for state in states
        for tree in state["trees"]
        for split in splits(tree["root"])
    ]
    rows = [rng.normal(scale=2.0, size=(32, n_features))]
    exact = rng.normal(size=(len(on_split), n_features))
    for i, (feature, threshold) in enumerate(on_split):
        exact[i, feature] = threshold
    rows.append(exact)
    for special in (np.inf, -np.inf, np.nan, BUSY_CLAMP, -BUSY_CLAMP):
        mixed = rng.normal(size=(8, n_features))
        mixed[rng.random(mixed.shape) < 0.4] = special
        rows += [np.full((1, n_features), special), mixed]
    return np.concatenate(rows)


def test_committed_artifact_bits_and_regret():
    state = json.loads(ARTIFACT.read_text())
    model = PolicyModel.load(ARTIFACT)
    heads = state["bits_model"]["models"]
    x = probe_rows(heads, len(state["feature_names"]))
    expected = np.clip(
        np.column_stack([naive_head(head, x) for head in heads]), 0.0, 1.0
    )
    assert np.array_equal(model.predict_bits(x), expected)

    regret = state["regret_model"]
    x = probe_rows([regret], len(state["regret_feature_names"]), seed=1)
    expected = naive_head(regret, x)
    assert np.array_equal(model.regret_model.predict(x), expected)
    assert [model.predict_regret(row) for row in x] == [
        max(0.0, value) for value in expected
    ]


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(300, 5))
    x[:, 4] = np.round(x[:, 4])  # ties put thresholds on exact values
    y = np.sin(x[:, 0]) + x[:, 1] * x[:, 2] + 0.1 * x[:, 4]
    return x, y


def test_fresh_regressor(data):
    x, y = data
    model = GradientBoostingRegressor(
        n_estimators=12, learning_rate=0.3, max_depth=4, min_samples_leaf=2
    ).fit(x, y)
    state = model.to_dict()
    probe = np.concatenate([x, probe_rows([state], x.shape[1])])
    assert np.array_equal(model.predict(probe), naive_head(state, probe))


def test_lone_tree(data):
    x, y = data
    tree = DecisionTreeRegressor(max_depth=5, min_samples_leaf=1).fit(x, y)
    root = tree.to_dict()["root"]
    probe = np.concatenate([
        x, probe_rows([{"trees": [{"root": root}]}], x.shape[1])
    ])
    assert np.array_equal(
        tree.predict(probe), np.array([walk(root, row) for row in probe])
    )


def test_fresh_classifier(data):
    x, y = data
    labels = np.digitize(y, np.quantile(y, [1 / 3, 2 / 3]))
    model = GradientBoostingClassifier(n_estimators=6, max_depth=3).fit(
        x, labels
    )
    states = [
        {
            "base": prior,
            "learning_rate": model.learning_rate,
            "trees": [tree.to_dict() for tree in trees],
        }
        for prior, trees in zip(model._prior, model._trees)
    ]
    probe = np.concatenate([x, probe_rows(states, x.shape[1])])
    expected = np.column_stack([naive_head(s, probe) for s in states])
    assert np.array_equal(model.decision_function(probe), expected)


def test_fresh_bit_heads(data):
    x, y = data
    bits = np.column_stack([y > 0, x[:, 0] > 0.5, x[:, 3] < 0]).astype(int)
    model = _BitsGBDT.fit(x, bits, n_estimators=8)
    states = [head.to_dict() for head in model.models]
    probe = np.concatenate([x, probe_rows(states, x.shape[1])])
    expected = np.clip(
        np.column_stack([naive_head(s, probe) for s in states]), 0.0, 1.0
    )
    assert np.array_equal(model.predict_bits(probe), expected)


def test_heads_of_unequal_length(data):
    # The shorter head is padded with -0.0 leaves, which must not change
    # its sums.
    x, y = data
    short = GradientBoostingRegressor(n_estimators=3, max_depth=2).fit(x, y)
    long = GradientBoostingRegressor(n_estimators=9, max_depth=4).fit(x, -y)
    probe = np.concatenate([
        x, probe_rows([short.to_dict(), long.to_dict()], x.shape[1])
    ])
    packed = pack_regressors([short, long]).predict(probe)
    assert np.array_equal(packed[:, 0], naive_head(short.to_dict(), probe))
    assert np.array_equal(packed[:, 1], naive_head(long.to_dict(), probe))


def test_padding_keeps_a_negative_zero_sum():
    # A -0.0 head sum must stay -0.0 past the padding (np.array_equal
    # cannot tell -0.0 from 0.0, so compare sign bits).
    def model(n_trees):
        return GradientBoostingRegressor.from_dict({
            "base": -0.0,
            "learning_rate": 0.5,
            "trees": [{"n_features": 1, "root": {"v": -0.0}}] * n_trees,
        })

    packed = pack_regressors([model(1), model(3)]).predict(np.zeros((2, 1)))
    assert np.array_equal(packed, np.zeros((2, 2)))
    assert np.signbit(packed).all()


def test_rejects_wrong_width(data):
    x, y = data
    model = GradientBoostingRegressor(n_estimators=2).fit(x, y)
    with pytest.raises(ValueError, match="shape"):
        model.predict(x[:, :4])
