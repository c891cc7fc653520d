"""Classifier families, standardization, and cross-validated selection."""

from .ensemble import EnsembleParams, TreeEnsembleModel, fit_tree_ensemble
from .io import (
    CalibratedScorer,
    model_from_dict,
    model_to_dict,
    scorer_from_dict,
    scorer_to_dict,
)
from .logistic import (
    LogisticModel,
    fit_logistic,
    penalized_loss_grad,
    sample_weights,
    sigmoid,
)
from .matrix import FeatureMatrix, Standardization, standardize
from .selection import (
    DEFAULT_GRIDS,
    FAMILIES,
    TREE_FAMILIES,
    check_candidate,
    cv_grid_search,
    fit_family,
    fold_proba,
    stratified_folds,
)
from .tree import DecisionTree, grow_tree
