"""Scorer, loss, analytic gradient vs finite differences, training."""
import math
import random

import numpy as np
import pytest

from rulewalk import learner
from rulewalk.dataio import DataFormatError
from rulewalk.learner import FeatureMatrix, ModelParams, loss, gradient, scores, train

from oracles import finite_difference_gradient


def toy_matrix():
    # linearly separable on the first feature
    features = np.array(
        [[1.0, 0.0], [1.0, 1.0], [0.0, 0.0], [0.0, 1.0]]
    )
    labels = np.array([1.0, 1.0, 0.0, 0.0])
    return FeatureMatrix(features, labels)


def test_score_at_zero_is_half():
    params = ModelParams(np.zeros(3), 0.0)
    assert scores(np.array([[1.0, 0.0, 1.0]]), params)[0] == 0.5


def test_score_closed_form():
    params = ModelParams(np.array([10.0]), 0.0)
    assert scores(np.array([[1.0]]), params)[0] == pytest.approx(
        1.0 / (1.0 + math.exp(-10)), abs=1e-12
    )
    assert scores(np.array([[0.0]]), params)[0] == 0.5


def test_score_dimension_mismatch():
    params = ModelParams(np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        scores(np.array([[1.0]]), params)


def test_score_monotone_in_active_weight():
    row = np.array([[1.0, 0.0]])
    low = ModelParams(np.array([0.5, 3.0]), 0.0)
    high = ModelParams(np.array([1.5, 3.0]), 0.0)
    assert scores(row, high)[0] > scores(row, low)[0]


def test_loss_at_zero_is_ln2():
    matrix = toy_matrix()
    params = ModelParams(np.zeros(2), 0.0)
    assert loss(matrix, params, l2=0.0) == pytest.approx(math.log(2), abs=1e-12)


def test_l2_term_is_exact():
    matrix = toy_matrix()
    params = ModelParams(np.array([1.0, 1.0]), 0.0)
    assert loss(matrix, params, 0.1) - loss(matrix, params, 0.0) == pytest.approx(0.2)


def test_gradient_matches_finite_differences():
    rng = random.Random(21)
    worst = 0.0
    for _ in range(100):
        n, m = 5, 4
        features = np.array(
            [[rng.random() for _ in range(m)] for _ in range(n)]
        )
        labels = np.array([float(rng.random() < 0.5) for _ in range(n)])
        matrix = FeatureMatrix(features, labels)
        params = ModelParams(
            np.array([rng.uniform(-2, 2) for _ in range(m)]), rng.uniform(-1, 1)
        )
        l2 = rng.choice([0.0, 1e-3, 1e-2])
        grad_theta, grad_bias = gradient(matrix, params, l2)
        fd_theta, fd_bias = finite_difference_gradient(matrix, params, l2)
        for a, b in zip(grad_theta, fd_theta):
            rel = abs(a - b) / (abs(a) + 1e-12)
            worst = max(worst, rel)
        worst = max(worst, abs(grad_bias - fd_bias) / (abs(grad_bias) + 1e-12))
    assert worst < 1e-5


def test_gradient_of_inactive_feature_is_pure_l2():
    features = np.array([[1.0, 0.0], [1.0, 0.0]])
    labels = np.array([1.0, 0.0])
    matrix = FeatureMatrix(features, labels)
    params = ModelParams(np.array([0.3, 0.7]), 0.0)
    grad_theta, _ = gradient(matrix, params, l2=0.05)
    assert grad_theta[1] == pytest.approx(2 * 0.05 * 0.7)


def test_gradient_balanced_symmetry():
    features = np.array([[1.0], [1.0]])
    labels = np.array([1.0, 0.0])
    matrix = FeatureMatrix(features, labels)
    _, grad_bias = gradient(matrix, ModelParams(np.zeros(1), 0.0), 0.0)
    assert grad_bias == 0.0


def test_train_separable_reaches_full_accuracy():
    matrix = toy_matrix()
    result = train(matrix, lr=1.0, epochs=1000, l2=0.0)
    preds = (scores(matrix.features, result.params) >= 0.5).tolist()
    assert preds == [bool(y) for y in matrix.labels]
    assert result.losses[-1] < 0.01


def test_train_loss_monotone_at_small_lr():
    matrix = toy_matrix()
    result = train(matrix, lr=0.01, epochs=200, l2=1e-4)
    diffs = np.diff(result.losses)
    if not (diffs <= 1e-12).all():
        result = train(matrix, lr=0.005, epochs=200, l2=1e-4)
        diffs = np.diff(result.losses)
        assert (diffs <= 1e-12).all()


def test_train_validates_hyperparameters():
    matrix = toy_matrix()
    with pytest.raises(ValueError):
        train(matrix, lr=0.1, epochs=0)
    with pytest.raises(ValueError):
        train(matrix, lr=0.0)


def test_train_is_deterministic():
    matrix = toy_matrix()
    a = train(matrix, lr=0.3, epochs=50)
    b = train(matrix, lr=0.3, epochs=50)
    assert a.losses == b.losses
    assert np.array_equal(a.params.theta, b.params.theta)


def test_row_permutation_reaches_same_optimum():
    matrix = toy_matrix()
    order = [2, 0, 3, 1]
    permuted = FeatureMatrix(matrix.features[order], matrix.labels[order])
    a = train(matrix, lr=0.2, epochs=800, l2=1e-3)
    b = train(permuted, lr=0.2, epochs=800, l2=1e-3)
    assert abs(a.losses[-1] - b.losses[-1]) < 1e-8


def test_model_file_round_trip(tmp_path):
    from rulewalk.constraints import IANetwork
    from rulewalk.rules import Atom, TemporalRule

    head = Atom("L", (), ())
    rules = []
    for name in ("P", "Q"):
        body = (Atom(name, (0,), (1,)),)
        rules.append(TemporalRule(head, body, IANetwork([0])))
    params = ModelParams(np.array([0.123456789012345678, -2.5]), 0.75)
    path = tmp_path / "model.txt"
    learner.save_model(path, params, rules)
    loaded = learner.load_model(path, rules)
    assert loaded.bias == params.bias
    assert loaded.theta[0] == params.theta[0]
    assert loaded.theta[1] == params.theta[1]
    # weights come back in the order of the rules asked for
    assert learner.load_model(path, rules[::-1]).theta.tolist() == [-2.5, params.theta[0]]
    other = TemporalRule(head, (Atom("R", (0,), (1,)),), IANetwork([0]))
    with pytest.raises(DataFormatError, match="no weight for rule 'L\\(\\) <- R\\(X0->X1\\)'"):
        learner.load_model(path, rules + [other])
