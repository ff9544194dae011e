"""CART regression trees used as gradient-boosting weak learners."""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.trees.forest import PackedForest

#: Child index (and feature index) stored on leaves.
_LEAF = -1

#: One node while a tree is built: ``(feature, threshold, left, right,
#: value)``, in preorder.
_NodeRow = Tuple[int, float, int, int, float]


def _finite(what: str, raw: object) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value}")
    return value


class DecisionTreeRegressor:
    """A depth-limited CART regressor minimising squared error.

    Split candidates are quantiles of each feature rather than every
    distinct value, which keeps fitting fast on the residual targets that
    gradient boosting produces while losing essentially no quality.

    The fitted tree is five flat node arrays in preorder, root at 0:
    ``feature_``, ``threshold_``, ``left_``, ``right_`` and ``value_``. A
    row goes left at a split when ``x[feature] <= threshold`` (so NaN
    goes right); leaves have ``feature``, ``left`` and ``right`` set to
    -1 and carry the prediction in ``value`` (0.0 on splits).
    """

    def __init__(
        self,
        max_depth: int = 3,
        min_samples_leaf: int = 5,
        max_thresholds: int = 16,
    ):
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        if min_samples_leaf < 1:
            raise ValueError(
                f"min_samples_leaf must be >= 1, got {min_samples_leaf}"
            )
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_thresholds = max_thresholds
        self.n_features_: Optional[int] = None
        self.feature_: Optional[np.ndarray] = None
        self.threshold_: Optional[np.ndarray] = None
        self.left_: Optional[np.ndarray] = None
        self.right_: Optional[np.ndarray] = None
        self.value_: Optional[np.ndarray] = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        """Grow the tree on features ``x`` and real targets ``y``."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if x.ndim != 2:
            raise ValueError(f"x must be 2-d, got shape {x.shape}")
        if x.shape[0] != y.shape[0]:
            raise ValueError(
                f"x and y disagree on sample count: {x.shape[0]} vs {y.shape[0]}"
            )
        if x.shape[0] == 0:
            raise ValueError("cannot fit a tree on zero samples")
        nodes: List[_NodeRow] = []
        self._grow(x, y, depth=0, nodes=nodes)
        self._set_nodes(x.shape[1], nodes)
        return self

    def _set_nodes(self, n_features: int, nodes: List[_NodeRow]) -> None:
        feature, threshold, left, right, value = zip(*nodes)
        self.n_features_ = n_features
        self.feature_ = np.array(feature, dtype=np.intp)
        self.threshold_ = np.array(threshold, dtype=float)
        self.left_ = np.array(left, dtype=np.intp)
        self.right_ = np.array(right, dtype=np.intp)
        self.value_ = np.array(value, dtype=float)

    def _grow(
        self, x: np.ndarray, y: np.ndarray, depth: int, nodes: List[_NodeRow]
    ) -> int:
        index = len(nodes)
        nodes.append(None)
        split = None
        if not (
            depth >= self.max_depth
            or y.shape[0] < 2 * self.min_samples_leaf
            or np.allclose(y, y[0])
        ):
            split = self._best_split(x, y)
        if split is None:
            nodes[index] = (_LEAF, 0.0, _LEAF, _LEAF, float(y.mean()))
            return index
        feature, threshold, mask = split
        left = self._grow(x[mask], y[mask], depth + 1, nodes)
        right = self._grow(x[~mask], y[~mask], depth + 1, nodes)
        nodes[index] = (feature, threshold, left, right, 0.0)
        return index

    def _best_split(self, x: np.ndarray, y: np.ndarray):
        """Return ``(feature, threshold, left_mask)`` minimising SSE."""
        n = y.shape[0]
        base_sse = float(((y - y.mean()) ** 2).sum())
        best = None
        best_gain = 1e-12
        quantiles = np.linspace(0.0, 1.0, self.max_thresholds + 2)[1:-1]
        for feature in range(x.shape[1]):
            column = x[:, feature]
            thresholds = np.unique(np.quantile(column, quantiles))
            for threshold in thresholds:
                mask = column <= threshold
                n_left = int(mask.sum())
                if (
                    n_left < self.min_samples_leaf
                    or n - n_left < self.min_samples_leaf
                ):
                    continue
                left, right = y[mask], y[~mask]
                sse = float(
                    ((left - left.mean()) ** 2).sum()
                    + ((right - right.mean()) ** 2).sum()
                )
                gain = base_sse - sse
                if gain > best_gain:
                    best_gain = gain
                    best = (feature, float(threshold), mask)
        return best

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Leaf-mean prediction for each row of ``x``."""
        if self.value_ is None:
            raise RuntimeError("predict called before fit")
        # -0.0 is the additive identity, so the lone head returns the
        # leaf values unchanged.
        return PackedForest([(-0.0, 1.0, [self])]).predict(x)[:, 0]

    def depth(self) -> int:
        """Actual depth of the fitted tree."""
        if self.value_ is None:
            raise RuntimeError("depth called before fit")
        level, depth = np.zeros(1, dtype=np.intp), 0
        while True:
            level = level[self.left_[level] != _LEAF]
            if level.size == 0:
                return depth
            level = np.concatenate((self.left_[level], self.right_[level]))
            depth += 1

    def to_dict(self) -> Dict[str, object]:
        """The tree as nested JSON-ready dicts: ``{"n_features", "root"}``,
        with splits ``{"f", "t", "l", "r"}`` and leaves ``{"v"}``."""
        if self.value_ is None:
            raise RuntimeError("to_dict called before fit")

        def node(i: int) -> Dict[str, object]:
            if self.left_[i] == _LEAF:
                return {"v": float(self.value_[i])}
            return {
                "f": int(self.feature_[i]),
                "t": float(self.threshold_[i]),
                "l": node(self.left_[i]),
                "r": node(self.right_[i]),
            }

        return {"n_features": self.n_features_, "root": node(0)}

    @classmethod
    def from_dict(cls, state: Dict[str, object]) -> "DecisionTreeRegressor":
        """Rebuild a tree written by :meth:`to_dict`.

        Raises ``ValueError`` when the tree is malformed: ``n_features``
        below 1, a split missing a child (or its feature or threshold),
        a split feature outside ``[0, n_features)``, or a non-finite
        threshold or leaf value.
        """
        n_features = int(state["n_features"])
        if n_features < 1:
            raise ValueError(f"n_features must be >= 1, got {n_features}")
        nodes: List[_NodeRow] = []

        def add(node: Dict[str, object]) -> int:
            index = len(nodes)
            nodes.append(None)
            if "v" in node:
                value = _finite(f"leaf {index} value", node["v"])
                nodes[index] = (_LEAF, 0.0, _LEAF, _LEAF, value)
                return index
            missing = sorted({"f", "t", "l", "r"} - set(node))
            if missing:
                raise ValueError(f"split node {index} lacks {missing}")
            feature = int(node["f"])
            if not 0 <= feature < n_features:
                raise ValueError(
                    f"split node {index} reads feature {feature}, outside "
                    f"[0, {n_features})"
                )
            threshold = _finite(f"split node {index} threshold", node["t"])
            left = add(node["l"])
            right = add(node["r"])
            nodes[index] = (feature, threshold, left, right, 0.0)
            return index

        add(state["root"])
        tree = cls()
        tree._set_nodes(n_features, nodes)
        return tree
