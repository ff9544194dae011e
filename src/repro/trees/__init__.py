"""From-scratch decision trees and gradient boosting.

This subpackage stands in for XGBoost, which the paper uses as the
stacking aggregation model for the text-matching ensemble. The boosted
trees here implement the same training scheme (additive trees fit to
loss gradients with shrinkage) at a scale appropriate for the synthetic
substrate.

Fitted trees are flat node arrays, and every prediction runs through
:class:`~repro.trees.forest.PackedForest`, which scores all trees of
one or more boosted models in a few vectorised steps.
"""

from repro.trees.decision_tree import DecisionTreeRegressor
from repro.trees.gbdt import GradientBoostingClassifier, GradientBoostingRegressor

__all__ = [
    "DecisionTreeRegressor",
    "GradientBoostingClassifier",
    "GradientBoostingRegressor",
]
