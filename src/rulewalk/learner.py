"""Linear rule scorer trained with cross-entropy.

One weight per candidate rule; a query's score is the logistic of the
weighted sum of its rule features.  Training is deterministic full-batch
gradient descent from zero.  Probabilities are clamped away from 0 and 1
before any log so the loss stays finite regardless of the weights.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataio import DataFormatError, open_text
from .rules import Query, evaluate
from .walk import reach_probability

CLAMP_EPS = 1e-7


@dataclass
class FeatureMatrix:
    features: np.ndarray  # (n_queries, n_rules), values in [0, 1]
    labels: np.ndarray    # (n_queries,), 0/1

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=float)
        if self.features.ndim != 2 or self.labels.shape != (self.features.shape[0],):
            raise ValueError("feature matrix and labels have mismatched shapes")


@dataclass
class ModelParams:
    theta: np.ndarray
    bias: float

    def __post_init__(self) -> None:
        self.theta = np.asarray(self.theta, dtype=float)


@dataclass
class TrainResult:
    params: ModelParams
    losses: list[float]


def _clamp(p):
    return np.clip(p, CLAMP_EPS, 1.0 - CLAMP_EPS)


def scores(features: np.ndarray, params: ModelParams) -> np.ndarray:
    """Logistic score of every feature row, clamped to (0, 1)."""
    z = params.bias + features @ params.theta
    return _clamp(1.0 / (1.0 + np.exp(-z)))


def loss(matrix: FeatureMatrix, params: ModelParams, l2: float = 0.0) -> float:
    """Mean negated cross-entropy plus l2 * ||theta||^2."""
    if l2 < 0:
        raise ValueError("l2 must be >= 0")
    return _loss_at(matrix, scores(matrix.features, params), params.theta, l2)


def gradient(
    matrix: FeatureMatrix, params: ModelParams, l2: float = 0.0
) -> tuple[np.ndarray, float]:
    """Analytic gradient (d/dtheta, d/dbias) of `loss`."""
    return _gradient_at(matrix, scores(matrix.features, params), params.theta, l2)


def _loss_at(matrix: FeatureMatrix, f: np.ndarray, theta: np.ndarray, l2: float) -> float:
    """`loss` at parameters whose scores of the matrix's rows are `f`."""
    y = matrix.labels
    ce = -(y * np.log(f) + (1.0 - y) * np.log(1.0 - f))
    return float(np.mean(ce) + l2 * float(theta @ theta))


def _gradient_at(
    matrix: FeatureMatrix, f: np.ndarray, theta: np.ndarray, l2: float
) -> tuple[np.ndarray, float]:
    """`gradient` at parameters whose scores of the matrix's rows are `f`."""
    residual = f - matrix.labels
    n = matrix.features.shape[0]
    grad_theta = matrix.features.T @ residual / n + 2.0 * l2 * theta
    grad_bias = float(np.mean(residual))
    return grad_theta, grad_bias


# an overflow shows up as the non-finite loss that `train` raises on
@np.errstate(over="ignore", invalid="ignore")
def train(
    matrix: FeatureMatrix,
    lr: float = 0.1,
    epochs: int = 500,
    l2: float = 1e-4,
) -> TrainResult:
    """Full-batch gradient descent from zero; deterministic given inputs.

    Each epoch steps along `gradient`, then records `loss` at the new
    parameters.  Both read the same scores, so each epoch computes them
    once and the next epoch's gradient reuses them.
    """
    if lr <= 0:
        raise ValueError("lr must be > 0")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if l2 < 0:
        raise ValueError("l2 must be >= 0")
    params = ModelParams(np.zeros(matrix.features.shape[1]), 0.0)
    f = scores(matrix.features, params)
    losses = []
    for epoch in range(epochs):
        grad_theta, grad_bias = _gradient_at(matrix, f, params.theta, l2)
        params.theta = params.theta - lr * grad_theta
        params.bias = params.bias - lr * grad_bias
        f = scores(matrix.features, params)
        current = _loss_at(matrix, f, params.theta, l2)
        if not np.isfinite(current):
            raise FloatingPointError(
                f"non-finite loss {current} at epoch {epoch} (lr={lr}, l2={l2})"
            )
        losses.append(current)
    return TrainResult(params, losses)


def build_features(rules, graphs, queries, labels, scorer: str = "binary") -> FeatureMatrix:
    """Feature matrix: one row per query, one column per rule.

    A binary feature is 1 when the rule grounds the query.  Queries that
    share a graph and a head tuple share one grounding search per rule:
    `evaluate` on the rule's head at those heads returns every tail tuple
    the rule predicts, and each query looks its own tails up.  A
    classification query names no entity, so its heads and tails are both
    `()`, and the search from them predicts `()` when the rule grounds the
    graph.  The reach scorer weights an event query's match by the walk
    reach score of its first tail (capped at 1), read from one
    `reach_probability` expansion per (graph, heads, rule body length).
    """
    if scorer not in ("binary", "reach"):
        raise ValueError(f"unknown feature scorer {scorer!r}")
    features = np.zeros((len(queries), len(rules)))
    by_heads: dict[tuple[int, tuple[int, ...]], list[int]] = {}
    for row, query in enumerate(queries):
        by_heads.setdefault((query.graph_index, query.heads), []).append(row)
    reach: dict[tuple, dict[int, float]] = {}
    for (index, heads), rows in by_heads.items():
        graph = graphs[index]
        grounding = Query(queries[rows[0]].predicate, heads, graph_index=index)
        for col, rule in enumerate(rules):
            predicted = evaluate(rule, graph, grounding)
            for row in rows:
                tails = queries[row].tails
                if tails not in predicted:
                    continue
                value = 1.0
                if scorer == "reach" and heads:
                    key = (index, heads, len(rule.body))
                    if key not in reach:
                        reach[key] = reach_probability(graph, set(heads), len(rule.body))
                    value = min(1.0, reach[key].get(tails[0], 0.0))
                features[row, col] = value
    return FeatureMatrix(features, np.array(labels, dtype=float))


# -- model file --------------------------------------------------------------


def save_model(path, params: ModelParams, rules) -> None:
    """Plain-text model: `bias <v>` then one `signature<TAB><weight>` per rule."""
    if len(rules) != params.theta.shape[0]:
        raise ValueError("one weight per rule required")
    lines = [f"bias {params.bias:.17g}"]
    for rule, weight in zip(rules, params.theta):
        lines.append(f"{rule.signature}\t{weight:.17g}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path, rules) -> ModelParams:
    """A `save_model` file's parameters for `rules`, in rule order, or DataFormatError.

    The file must weight each of `rules` once and no other rule.
    """
    with open_text(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("bias "):
        raise DataFormatError(f"{path}: model file must start with a bias line")
    bias = _finite(lines[0][5:], path, lines[0])
    weights: dict[str, float] = {}
    for ln in lines[1:]:
        sig, _, w = ln.rpartition("\t")
        if not sig:
            raise DataFormatError(f"{path}: malformed model line {ln!r}")
        if sig in weights:
            raise DataFormatError(f"{path}: more than one weight for rule {sig!r}")
        weights[sig] = _finite(w, path, ln)
    for rule in rules:
        if rule.signature not in weights:
            raise DataFormatError(
                f"{path}: no weight for rule {rule.signature!r}; "
                "the model was trained on other rules"
            )
    asked = {rule.signature for rule in rules}
    for sig in weights:
        if sig not in asked:
            raise DataFormatError(
                f"{path}: a weight for rule {sig!r}, which is not among the rules; "
                "the model was trained on other rules"
            )
    return ModelParams(np.array([weights[r.signature] for r in rules]), bias)


def _finite(text: str, path, line: str) -> float:
    """The number ending a model line; a NaN or infinity would make every score NaN."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise DataFormatError(f"{path}: model line {line!r} does not end in a finite number")
    return value
