"""The packed forest: one vectorised evaluator for many boosted trees.

A :class:`PackedForest` concatenates the flat node arrays of every tree
of several boosted models (its *heads*) into shared arrays, offsetting
child indices so each tree keeps its own slice. Three layout changes
make scoring branch-free:

* every leaf becomes a self-loop (both children point back at the
  leaf, split on feature 0), so a row that reaches a leaf early stays
  there for the remaining steps;
* leaf values are stored pre-scaled by their head's learning rate;
* each head starts with a one-leaf tree holding its base score, and a
  head with fewer trees than the widest one is padded with one-leaf
  trees holding ``-0.0``.

Scoring ``n`` rows then takes ``depth`` vectorised steps over an
``(n, trees)`` node-index matrix, whatever the number of trees, and one
sum per head. The outputs are bit-identical to summing the trees one at
a time: ``lr * leaf`` is the same float product whether taken at pack
time or per call, each head is summed base-first in tree order with
``np.cumsum``, which accumulates strictly left to right, and ``-0.0``
is the IEEE additive identity (``x + -0.0 == x`` for every ``x``,
``-0.0`` included), so padding never changes a sum.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

#: One head: ``(base, learning_rate, trees)``; its output is
#: ``base + sum(learning_rate * tree(x) for tree in trees)``, summed in
#: tree order. Trees are fitted
#: :class:`~repro.trees.decision_tree.DecisionTreeRegressor` objects.
Head = Tuple[float, float, Sequence[object]]


def _one_leaf(value: float):
    """Node arrays of a tree that is a single leaf holding ``value``."""
    return (
        np.full(1, -1), np.zeros(1), np.full(1, -1), np.full(1, -1),
        np.full(1, value),
    )


class PackedForest:
    """The trees of several boosted heads in shared flat arrays.

    Args:
        heads: One ``(base, learning_rate, trees)`` triple per output
            column, each with at least one tree; every tree must read
            the same number of features.
    """

    def __init__(self, heads: Sequence[Head]):
        if not heads or any(not trees for _, _, trees in heads):
            raise ValueError("a packed forest needs at least one tree per head")
        widths = {tree.n_features_ for _, _, trees in heads for tree in trees}
        if len(widths) != 1:
            raise ValueError(
                f"trees disagree on their feature count: {sorted(widths)}"
            )
        self.n_features: int = widths.pop()
        width = max(len(trees) for _, _, trees in heads)
        parts = []  # (feature, threshold, left, right, value) per tree
        for base, rate, trees in heads:
            parts.append(_one_leaf(float(base)))
            parts += [
                (tree.feature_, tree.threshold_, tree.left_, tree.right_,
                 float(rate) * tree.value_)
                for tree in trees
            ]
            parts += [_one_leaf(-0.0)] * (width - len(trees))
        feature, threshold, left, right, value = (
            np.concatenate(column) for column in zip(*parts)
        )
        sizes = [len(part[4]) for part in parts]
        roots = np.cumsum([0] + sizes[:-1])
        offset = np.repeat(roots, sizes)
        leaf = left < 0
        own = np.arange(len(value))
        self._feature = np.where(leaf, 0, feature)
        self._threshold = threshold
        self._left = np.where(leaf, own, left + offset)
        self._right = np.where(leaf, own, right + offset)
        self._value = value
        self._roots = roots[None, :]
        self._shape = (len(heads), width + 1)
        self._depth = max(
            tree.depth() for _, _, trees in heads for tree in trees
        )

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Every head's output for each row of ``x``, shape
        ``(n, n_heads)``."""
        x = np.ascontiguousarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise ValueError(
                f"x must have shape (n, {self.n_features}), got {x.shape}"
            )
        n = x.shape[0]
        flat = x.ravel()
        row = np.arange(0, n * self.n_features, self.n_features)[:, None]
        node = self._roots.repeat(n, axis=0)
        for _ in range(self._depth):
            goes_left = flat[row + self._feature[node]] <= self._threshold[node]
            node = np.where(goes_left, self._left[node], self._right[node])
        terms = self._value[node].reshape(n, *self._shape)
        return terms.cumsum(axis=2)[:, :, -1]
