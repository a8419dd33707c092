"""Classifier oracles: exhaustive neighbors, finite differences, hand-built trees."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarwarn import models
from polarwarn.models import Dataset, ModelSpec
from polarwarn.models.linear import fit_log, log_loss_grad
from polarwarn.models.mlp import init_params, nn_loss_grad
from polarwarn.models.optim import lbfgs
from polarwarn.models.tree import tree_depth


def make_dataset(X, y, prefix="f"):
    X = np.asarray(X, dtype=float)
    return Dataset(
        features=X,
        labels=np.asarray(y, dtype=np.int8),
        feature_names=tuple(f"{prefix}{i}" for i in range(X.shape[1])),
    )


def separable_1d(n=30):
    rng = np.random.default_rng(0)
    x = np.concatenate([rng.normal(-1, 0.1, n), rng.normal(1, 0.1, n)])
    y = np.array([0] * n + [1] * n)
    return make_dataset(x.reshape(-1, 1), y)


XOR = make_dataset(
    [[0, 0], [0, 1], [1, 0], [1, 1]] * 4,
    [0, 1, 1, 0] * 4,
)


class TestStandardize:
    def test_zero_variance_column_maps_to_zero(self):
        X = np.array([[1.0, 0.0], [1.0, 2.0], [1.0, 4.0]])
        out = models.fit_standardizer(X).apply(X)
        assert np.all(out[:, 0] == 0.0)

    def test_two_point_column(self):
        X = np.array([[0.0], [2.0]])
        out = models.fit_standardizer(X).apply(X)
        assert out[:, 0].tolist() == [-1.0, 1.0]

    def test_transform_reusable_and_centered(self):
        rng = np.random.default_rng(1)
        X = rng.normal(3, 2, (40, 3))
        std = models.fit_standardizer(X)
        out = std.apply(X)
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-9)
        again = std.apply(X)
        assert np.array_equal(again, out)


class TestFitPredictContracts:
    def test_log_separable_is_perfect(self):
        ds = separable_1d()
        model = models.fit(ds, ModelSpec("log"))
        _, labels = models.predict(model, ds.features)
        assert np.array_equal(labels, ds.labels)

    def test_all_algorithms_learn_separable_data(self):
        ds = separable_1d()
        for algo in models.ALGORITHMS:
            model = models.fit(ds, ModelSpec(algo, seed=1))
            _, labels = models.predict(model, ds.features)
            accuracy = float(np.mean(labels == ds.labels))
            assert accuracy == 1.0, algo

    def test_xor_tree_vs_linear(self):
        dt = models.fit(XOR, ModelSpec("dt", {"max_depth": 4, "min_leaf": 1}))
        _, labels = models.predict(dt, XOR.features)
        assert np.array_equal(labels, XOR.labels)
        lin = models.fit(XOR, ModelSpec("lin"))
        _, lin_labels = models.predict(lin, XOR.features)
        assert float(np.mean(lin_labels == XOR.labels)) <= 0.75

    def test_same_seed_bit_identical(self):
        rng = np.random.default_rng(3)
        ds = make_dataset(rng.normal(0, 1, (50, 4)), rng.integers(0, 2, 50))
        for algo in models.ALGORITHMS:
            m1 = models.fit(ds, ModelSpec(algo, seed=9))
            m2 = models.fit(ds, ModelSpec(algo, seed=9))
            assert np.array_equal(m1.standardizer.mean, m2.standardizer.mean), algo
            assert np.array_equal(m1.standardizer.scale, m2.standardizer.scale), algo
            assert m1.params.keys() == m2.params.keys(), algo
            for key, value in m1.params.items():
                if isinstance(value, np.ndarray):
                    assert np.array_equal(value, m2.params[key]), (algo, key)
                else:
                    assert value == m2.params[key], (algo, key)

    def test_single_class_degenerate(self):
        ds = make_dataset([[0.0], [1.0]], [1, 1])
        for algo in ("lin", "log", "svm", "nn", "dt"):
            with pytest.raises(models.DegenerateFitError):
                models.fit(ds, ModelSpec(algo))
        knn = models.fit(ds, ModelSpec("knn", {"k": 1}))
        scores, labels = models.predict(knn, ds.features)
        assert labels.tolist() == [1, 1]

    def test_width_mismatch(self):
        ds = separable_1d()
        model = models.fit(ds, ModelSpec("log"))
        with pytest.raises(models.ShapeError):
            models.predict(model, np.zeros((3, 2)))

    def test_zero_weight_log_scores_half(self):
        ds = separable_1d()
        model = models.fit(ds, ModelSpec("log"))
        zeroed = models.TrainedModel(
            spec=model.spec,
            standardizer=model.standardizer,
            params={"weights": np.zeros(1), "bias": 0.0},
        )
        scores, _ = models.predict(zeroed, ds.features)
        assert np.all(scores == 0.5)

    def test_knn_invalid_k(self):
        with pytest.raises(ValueError):
            ModelSpec("knn", {"k": 4})
        with pytest.raises(ValueError):
            ModelSpec("knn", {"k": 0})


def brute_knn_scores(train_x, train_y, test_x, k):
    scores = []
    for row in test_x:
        dists = [(float(np.sum((tx - row) ** 2)), i) for i, tx in enumerate(train_x)]
        dists.sort(key=lambda t: (t[0], t[1]))
        nearest = [train_y[i] for _, i in dists[:k]]
        scores.append(sum(nearest) / k)
    return np.array(scores)


class TestKnnOracle:
    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            n = int(rng.integers(6, 60))
            d = int(rng.integers(1, 5))
            X = rng.normal(0, 1, (n, d))
            if trial % 3 == 0:
                X[rng.integers(n)] = X[rng.integers(n)]  # plant exact duplicates
            y = rng.integers(0, 2, n)
            test = rng.normal(0, 1, (12, d))
            ds = make_dataset(X, y)
            k = int(min(rng.choice([1, 3, 5]), n if n % 2 else n - 1))
            model = models.fit(ds, ModelSpec("knn", {"k": k}))
            scores, _ = models.predict(model, test)
            expected = brute_knn_scores(
                model.standardizer.apply(X), y, model.standardizer.apply(test), k
            )
            assert np.array_equal(scores, expected), trial

    def test_majority_of_five_points(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0], [4.0]])
        y = np.array([1, 1, 0, 0, 0])
        ds = make_dataset(X, y)
        model = models.fit(ds, ModelSpec("knn", {"k": 5}))
        scores, labels = models.predict(model, np.array([[2.0]]))
        assert scores[0] == pytest.approx(2 / 5)
        assert labels[0] == 0

    def test_equal_variance_scaling_keeps_neighbors(self):
        rng = np.random.default_rng(11)
        X = rng.normal(0, 1, (30, 3))
        X = (X - X.mean(0)) / X.std(0)  # equal unit variance
        y = rng.integers(0, 2, 30)
        test = rng.normal(0, 1, (8, 3))
        raw = brute_knn_scores(X, y, test, 5)
        model = models.fit(make_dataset(X, y), ModelSpec("knn", {"k": 5}))
        scores, _ = models.predict(model, test)
        assert np.allclose(scores, raw)


def central_difference(fun, theta, eps=1e-6):
    grad = np.zeros_like(theta)
    for i in range(len(theta)):
        up = theta.copy()
        down = theta.copy()
        up[i] += eps
        down[i] -= eps
        grad[i] = (fun(up) - fun(down)) / (2 * eps)
    return grad


class TestGradients:
    def test_log_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        X = rng.normal(0, 1, (40, 3))
        y = rng.integers(0, 2, 40).astype(float)
        for _ in range(10):
            theta = rng.normal(0, 1, 4)
            loss, grad = log_loss_grad(theta, X, y, reg=1.0)
            fd = central_difference(lambda t: log_loss_grad(t, X, y, 1.0)[0], theta)
            rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
            assert rel < 1e-4

    def test_nn_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        X = rng.normal(0, 1, (25, 3))
        y = rng.integers(0, 2, 25).astype(float)
        for trial in range(10):
            theta = init_params(3, 5, seed=trial) + rng.normal(0, 0.3, 3 * 5 + 5 + 5 + 1)
            loss, grad = nn_loss_grad(theta, X, y, h=5, reg=1e-4)
            fd = central_difference(lambda t: nn_loss_grad(t, X, y, 5, 1e-4)[0], theta)
            rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
            assert rel < 1e-4

    def test_log_converges_to_small_gradient(self):
        ds = separable_1d()
        model = models.fit(ds, ModelSpec("log"))
        std = model.standardizer.apply(ds.features)
        theta = np.concatenate([model.params["weights"], [model.params["bias"]]])
        _, grad = log_loss_grad(theta, std, ds.labels.astype(float), reg=1.0)
        assert float(np.linalg.norm(grad)) < 1e-5


def standardized(X, y):
    ds = make_dataset(X, y)
    return models.fit_standardizer(ds.features).apply(ds.features), ds.labels.astype(float)


def reference_log_loss(X, y, reg):
    """Loss at an independent quasi-Newton minimum of the same objective."""
    theta, _, _ = lbfgs(
        lambda t: log_loss_grad(t, X, y, reg), np.zeros(X.shape[1] + 1), max_iter=200, tol=1e-10
    )
    return log_loss_grad(theta, X, y, reg)[0]


class TestLogOptimality:
    HP = ModelSpec("log").hyperparameters

    def assert_optimal(self, X, y, hp=HP):
        params = fit_log(X, y, hp)
        theta = np.concatenate([params["weights"], [params["bias"]]])
        loss, grad = log_loss_grad(theta, X, y, hp["regularization"])
        assert params["converged"]
        assert float(np.linalg.norm(grad)) < hp["tol"]
        assert abs(loss - reference_log_loss(X, y, hp["regularization"])) < 1e-10
        # Newton steps converge quadratically; first-order descent needs hundreds
        assert params["n_iter"] <= 25

    def test_zero_variance_column(self):
        rng = np.random.default_rng(41)
        X = rng.normal(0, 1, (200, 5))
        X[:, 2] = 3.0
        y = (X[:, 0] + rng.normal(0, 1, 200) > 0).astype(int)
        Xs, ys = standardized(X, y)
        assert np.all(Xs[:, 2] == 0.0)
        self.assert_optimal(Xs, ys)

    def test_perfectly_separable(self):
        rng = np.random.default_rng(43)
        X = rng.normal(0, 1, (300, 4))
        y = (X @ np.array([1.0, -2.0, 0.5, 0.0]) > 0).astype(int)
        self.assert_optimal(*standardized(X, y))

    def test_class_imbalance_95_5(self):
        rng = np.random.default_rng(47)
        X = rng.normal(0, 1, (400, 6))
        y = np.zeros(400, dtype=int)
        y[:20] = 1
        X[:20] += 0.8
        self.assert_optimal(*standardized(X, y))

    def test_unpenalized_constant_column_has_singular_hessian(self):
        rng = np.random.default_rng(53)
        X = rng.normal(0, 1, (100, 3))
        X[:, 1] = 0.0
        y = (X[:, 0] + rng.normal(0, 1, 100) > 0).astype(float)
        self.assert_optimal(X, y, {**self.HP, "regularization": 0.0})

    @staticmethod
    def small_problem(seed):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(4, 80)), int(rng.integers(1, 6))
        X = rng.normal(0, 1, (n, d)) * rng.uniform(0.1, 5.0, d)
        y = rng.integers(0, 2, n)
        y[:2] = [0, 1]
        reg = float(rng.choice([0.01, 0.1, 1.0, 10.0]))
        return *standardized(X, y), {**TestLogOptimality.HP, "regularization": reg}

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_small_problems(self, seed):
        self.assert_optimal(*self.small_problem(seed))

    def test_converged_only_when_stop_rule_met(self):
        # seed 1067 (n=7, d=5, reg=0.01) reaches a gradient under tol after 8
        # steps while half the squared Newton decrement is still 1.1e-10
        X, y, hp = self.small_problem(1067)
        capped = fit_log(X, y, {**hp, "max_iter": 8})
        theta = np.concatenate([capped["weights"], [capped["bias"]]])
        _, grad = log_loss_grad(theta, X, y, hp["regularization"])
        assert capped["n_iter"] == 8
        assert float(np.linalg.norm(grad)) < hp["tol"]
        assert not capped["converged"]
        full = fit_log(X, y, hp)
        assert full["converged"] and full["n_iter"] == 9


class TestDecisionTree:
    def test_consistent_data_reaches_perfect_training_accuracy(self):
        rng = np.random.default_rng(23)
        for trial in range(10):
            n = int(rng.integers(4, 65))
            X = rng.normal(0, 1, (n, 3))
            y = rng.integers(0, 2, n)
            ds = make_dataset(X, y)
            model = models.fit(ds, ModelSpec("dt", {"max_depth": None, "min_leaf": 1}))
            _, labels = models.predict(model, X)
            assert np.array_equal(labels, y), trial

    def test_training_accuracy_non_decreasing_in_depth(self):
        rng = np.random.default_rng(29)
        X = rng.normal(0, 1, (120, 4))
        y = (X[:, 0] * X[:, 1] > 0).astype(int)
        ds = make_dataset(X, y)
        last = 0.0
        for depth in (1, 2, 4, 8, 16):
            model = models.fit(ds, ModelSpec("dt", {"max_depth": depth, "min_leaf": 1}))
            _, labels = models.predict(model, X)
            accuracy = float(np.mean(labels == y))
            assert accuracy >= last - 1e-12
            last = accuracy

    def test_depth_one_tree_by_hand(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        model = models.fit(make_dataset(X, y), ModelSpec("dt", {"max_depth": 1, "min_leaf": 1}))
        assert tree_depth(model.params) == 1
        root = model.params["root"]
        scores, labels = models.predict(model, X)
        assert labels.tolist() == [0, 0, 1, 1]
        assert root["left"]["score"] == 0.0 and root["right"]["score"] == 1.0


def test_default_specs_cover_all_algorithms():
    specs = models.default_specs(seed=4)
    assert tuple(s.algorithm for s in specs) == models.ALGORITHMS
    assert all(s.seed == 4 for s in specs)
