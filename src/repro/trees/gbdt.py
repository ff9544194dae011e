"""Gradient-boosted trees (the stacking aggregator substrate).

``GradientBoostingClassifier`` fits one regression tree per class per
round on the softmax gradient, exactly the scheme XGBoost uses for
multi-class objectives (minus second-order weights and regularisation
terms that do not matter at this scale).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.nn.functional import one_hot, softmax
from repro.trees.decision_tree import DecisionTreeRegressor, _finite
from repro.trees.forest import PackedForest
from repro.utils.validation import check_in_range, check_positive


class GradientBoostingRegressor:
    """Least-squares gradient boosting."""

    def __init__(
        self,
        n_estimators: int = 50,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_leaf: int = 5,
    ):
        self.n_estimators = int(check_positive("n_estimators", n_estimators))
        self.learning_rate = check_in_range("learning_rate", learning_rate, 0.0, 1.0)
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self._trees: List[DecisionTreeRegressor] = []
        self._base: float = 0.0
        self._forest: Optional[PackedForest] = None

    @property
    def n_features_(self) -> Optional[int]:
        """Feature count the fitted trees read (None before fit)."""
        return None if self._forest is None else self._forest.n_features

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GradientBoostingRegressor":
        """Fit additive trees to least-squares residuals."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        self._base = float(y.mean())
        self._trees = []
        current = np.full_like(y, self._base)
        for _ in range(self.n_estimators):
            residual = y - current
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth, min_samples_leaf=self.min_samples_leaf
            ).fit(x, residual)
            current += self.learning_rate * tree.predict(x)
            self._trees.append(tree)
        self._forest = pack_regressors([self])
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Sum of the base score and all shrunken tree outputs."""
        if self._forest is None:
            raise RuntimeError("predict called before fit")
        return self._forest.predict(x)[:, 0]

    def to_dict(self) -> Dict[str, object]:
        """The fitted model as JSON-ready dicts (see
        :meth:`DecisionTreeRegressor.to_dict` for the trees)."""
        if self._forest is None:
            raise RuntimeError("to_dict called before fit")
        return {
            "base": self._base,
            "learning_rate": self.learning_rate,
            "trees": [tree.to_dict() for tree in self._trees],
        }

    @classmethod
    def from_dict(cls, state: Dict[str, object]) -> "GradientBoostingRegressor":
        """Rebuild a model written by :meth:`to_dict`; raises
        ``ValueError`` on a non-finite base, an out-of-range learning
        rate, no trees, trees that disagree on their feature count, or
        a malformed tree (:meth:`DecisionTreeRegressor.from_dict`)."""
        base = _finite("base", state["base"])
        model = cls(
            n_estimators=max(1, len(state["trees"])),
            learning_rate=float(state["learning_rate"]),
        )
        model._base = base
        model._trees = [
            DecisionTreeRegressor.from_dict(tree) for tree in state["trees"]
        ]
        model._forest = pack_regressors([model])
        return model


def pack_regressors(models: Sequence[GradientBoostingRegressor]) -> PackedForest:
    """One packed forest whose ``k``-th head is ``models[k]``: column
    ``k`` of its ``predict`` equals ``models[k].predict`` bit for bit."""
    return PackedForest(
        [(model._base, model.learning_rate, model._trees) for model in models]
    )


class GradientBoostingClassifier:
    """Softmax gradient boosting for (multi-class) classification."""

    def __init__(
        self,
        n_estimators: int = 40,
        learning_rate: float = 0.2,
        max_depth: int = 3,
        min_samples_leaf: int = 5,
    ):
        self.n_estimators = int(check_positive("n_estimators", n_estimators))
        self.learning_rate = check_in_range("learning_rate", learning_rate, 0.0, 1.0)
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self._prior: Optional[np.ndarray] = None
        #: ``_trees[k]`` holds class ``k``'s trees, one per round.
        self._trees: List[List[DecisionTreeRegressor]] = []
        self._forest: Optional[PackedForest] = None
        self.num_classes_: Optional[int] = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GradientBoostingClassifier":
        """Fit one tree per class per round on softmax gradients."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=int).ravel()
        if x.shape[0] != y.shape[0]:
            raise ValueError(
                f"x and y disagree on sample count: {x.shape[0]} vs {y.shape[0]}"
            )
        self.num_classes_ = int(y.max()) + 1
        if self.num_classes_ < 2:
            raise ValueError("need at least two classes to fit a classifier")
        targets = one_hot(y, self.num_classes_)
        # Log-prior initialisation matches XGBoost's base_score behaviour.
        counts = targets.mean(axis=0).clip(1e-6, None)
        self._prior = np.log(counts)
        scores = np.tile(self._prior, (x.shape[0], 1))
        self._trees = [[] for _ in range(self.num_classes_)]
        for _ in range(self.n_estimators):
            probs = softmax(scores)
            gradient = targets - probs
            for k in range(self.num_classes_):
                tree = DecisionTreeRegressor(
                    max_depth=self.max_depth,
                    min_samples_leaf=self.min_samples_leaf,
                ).fit(x, gradient[:, k])
                scores[:, k] += self.learning_rate * tree.predict(x)
                self._trees[k].append(tree)
        self._forest = PackedForest([
            (prior, self.learning_rate, trees)
            for prior, trees in zip(self._prior, self._trees)
        ])
        return self

    def decision_function(self, x: np.ndarray) -> np.ndarray:
        """Raw per-class scores (log-prior plus tree contributions)."""
        if self._forest is None:
            raise RuntimeError("predict called before fit")
        return self._forest.predict(x)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Class-probability matrix via softmax over the scores."""
        return softmax(self.decision_function(x))

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Hard class predictions."""
        return np.argmax(self.decision_function(x), axis=1)
