"""Classifier oracles: exhaustive neighbors, finite differences, hand-built trees,
and reference copies of earlier kernels that the current ones must match bit for bit."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from polarwarn import models
from polarwarn.models import Dataset, ModelSpec, neighbors, tree
from polarwarn.models.linear import fit_log, fit_svm, log_loss_grad, sigmoid
from polarwarn.models.mlp import _unpack, fit_nn, init_params, nn_loss_grad
from polarwarn.models.optim import lbfgs


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

    @pytest.mark.parametrize("algo", models.ALGORITHMS)
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_rejected(self, algo, value):
        model = models.fit(XOR, ModelSpec(algo))
        with pytest.raises(models.ShapeError, match="finite"):
            models.predict(model, np.array([[value, 1.0]]))

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


def scatter_sigmoid(z):
    """The stable logistic function written with a boolean mask per branch."""
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@given(st.lists(st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 800.0, -800.0])), max_size=60))
@settings(max_examples=200, deadline=None)
def test_sigmoid_matches_scatter_formula_bit_for_bit(values):
    z = np.array(values, dtype=float)
    got, want = sigmoid(z), scatter_sigmoid(z)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


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
        root = model.params["root"]
        assert root["left"]["leaf"] and root["right"]["leaf"]
        scores, labels = models.predict(model, X)
        assert labels.tolist() == [0, 0, 1, 1]
        assert root["left"]["score"] == 0.0 and root["right"]["score"] == 1.0


# ---------------------------------------------------------------------------
# Reference kernels: verbatim copies of the earlier nn, L-BFGS, svm, knn, dt
# and log kernels (per-row and per-feature loops, wrapper calls, fresh
# temporaries).  The current kernels must reproduce every value they give
# bit for bit.

_ARMIJO_C1 = 1e-4
_BACKTRACK_SHRINK = 0.5
_MAX_BACKTRACKS = 60


def ref_sigmoid(z):
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def ref_nn_loss_grad(theta, X, y, h, reg):
    n, d = X.shape
    w1, b1, w2, b2 = _unpack(theta, d, h)
    pre = X @ w1 + b1
    a = np.tanh(pre)
    z = a @ w2 + b2
    loss = float(
        np.mean(np.logaddexp(0.0, z) - y * z)
        + reg * (np.sum(w1 * w1) + np.sum(w2 * w2)) / (2 * n)
    )
    p = ref_sigmoid(z)
    dz = (p - y) / n
    gw2 = a.T @ dz + reg * w2 / n
    gb2 = float(np.sum(dz))
    da = np.outer(dz, w2)
    dpre = da * (1.0 - a * a)
    gw1 = X.T @ dpre + reg * w1 / n
    gb1 = dpre.sum(axis=0)
    grad = np.concatenate([gw1.ravel(), gb1, gw2, [gb2]])
    return loss, grad


def ref_armijo_step(fun_grad, x, f, g, direction, step0):
    descent = float(g @ direction)
    if descent >= 0.0:
        return None
    step = step0
    for _ in range(_MAX_BACKTRACKS):
        x_new = x + step * direction
        f_new, g_new = fun_grad(x_new)
        if np.isfinite(f_new) and f_new <= f + _ARMIJO_C1 * step * descent:
            return x_new, f_new, g_new, step
        step *= _BACKTRACK_SHRINK
    return None


def ref_lbfgs(fun_grad, x0, max_iter, tol, memory=10):
    x = np.asarray(x0, dtype=float).copy()
    f, g = fun_grad(x)
    s_hist = []
    y_hist = []
    rho_hist = []
    for it in range(max_iter):
        if float(np.linalg.norm(g)) < tol:
            return x, it, True
        q = g.copy()
        alphas = []
        for s, y, rho in zip(reversed(s_hist), reversed(y_hist), reversed(rho_hist)):
            a = rho * float(s @ q)
            alphas.append(a)
            q -= a * y
        if y_hist:
            y_last = y_hist[-1]
            gamma = float(s_hist[-1] @ y_last) / max(float(y_last @ y_last), 1e-300)
            q *= gamma
        for (s, y, rho), a in zip(zip(s_hist, y_hist, rho_hist), reversed(alphas)):
            b = rho * float(y @ q)
            q += (a - b) * s
        direction = -q
        res = ref_armijo_step(fun_grad, x, f, g, direction, 1.0)
        if res is None:
            res = ref_armijo_step(fun_grad, x, f, g, -g, 1.0)
            if res is None:
                return x, it, False
        x_new, f_new, g_new, _ = res
        s = x_new - x
        yv = g_new - g
        sy = float(s @ yv)
        if sy > 1e-10:
            s_hist.append(s)
            y_hist.append(yv)
            rho_hist.append(1.0 / sy)
            if len(s_hist) > memory:
                s_hist.pop(0)
                y_hist.pop(0)
                rho_hist.pop(0)
        x, f, g = x_new, f_new, g_new
    return x, max_iter, float(np.linalg.norm(g)) < tol


def ref_fit_svm(X, y, hp):
    reg = float(hp["regularization"])
    max_iter = int(hp["max_iter"])
    n, d = X.shape
    y_pm = 2.0 * y - 1.0
    w = np.zeros(d)
    b = 0.0
    for t in range(max_iter):
        margins = y_pm * (X @ w + b)
        viol = margins < 1.0
        gw = reg * w - (X[viol].T @ y_pm[viol]) / n
        gb = -float(np.sum(y_pm[viol])) / n
        eta = 1.0 / (reg * (t + 1))
        w -= eta * gw
        b -= eta * gb
    return {"weights": w, "bias": float(b)}


def ref_score_knn(params, X):
    train_x = params["train_x"]
    train_y = params["train_y"]
    k = min(int(params["k"]), train_x.shape[0])
    scores = np.empty(X.shape[0])
    for i, row in enumerate(X):
        d2 = np.sum((train_x - row) ** 2, axis=1)
        nearest = np.argsort(d2, kind="stable")[:k]
        scores[i] = float(np.mean(train_y[nearest]))
    return scores


def ref_best_split(X, y, min_leaf):
    n = X.shape[0]
    total_pos = float(np.sum(y))
    best = None  # (weighted_gini, feature, threshold)
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        pos = np.cumsum(y[order])
        left_sizes = np.arange(1, n)
        valid = (xs[:-1] < xs[1:]) & (left_sizes >= min_leaf) & (n - left_sizes >= min_leaf)
        if not np.any(valid):
            continue
        lp = pos[:-1]
        rp = total_pos - lp
        ln = left_sizes.astype(float)
        rn = (n - left_sizes).astype(float)
        g_left = 1.0 - (lp / ln) ** 2 - (1.0 - lp / ln) ** 2
        g_right = 1.0 - (rp / rn) ** 2 - (1.0 - rp / rn) ** 2
        weighted = (ln * g_left + rn * g_right) / n
        weighted = np.where(valid, weighted, np.inf)
        i = int(np.argmin(weighted))  # first minimum = lowest threshold
        if np.isfinite(weighted[i]) and (best is None or weighted[i] < best[0]):
            best = (float(weighted[i]), j, float((xs[i] + xs[i + 1]) / 2.0))
    return best


def ref_grow(X, y, depth, max_depth, min_leaf):
    n = len(y)
    n_pos = float(np.sum(y))
    if n_pos in (0.0, float(n)) or (max_depth is not None and depth >= max_depth) or n < 2 * min_leaf:
        return {"leaf": True, "score": n_pos / n, "n": n}
    split = ref_best_split(X, y, min_leaf)
    if split is None:
        return {"leaf": True, "score": n_pos / n, "n": n}
    _, feature, threshold = split
    mask = X[:, feature] <= threshold
    return {
        "leaf": False,
        "feature": feature,
        "threshold": threshold,
        "left": ref_grow(X[mask], y[mask], depth + 1, max_depth, min_leaf),
        "right": ref_grow(X[~mask], y[~mask], depth + 1, max_depth, min_leaf),
    }


def ref_log_loss_grad(theta, X, y, reg):
    n, d = X.shape
    w, b = theta[:d], theta[d]
    z = X @ w + b
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z) + reg * (w @ w) / (2 * n))
    p = ref_sigmoid(z)
    gw = X.T @ (p - y) / n + reg * w / n
    gb = float(np.mean(p - y))
    return loss, np.concatenate([gw, [gb]])


def ref_log_hessian(theta, X, reg):
    n, d = X.shape
    p = ref_sigmoid(X @ theta[:d] + theta[d])
    s = p * (1.0 - p) / n
    root = X * np.sqrt(s)[:, None]
    hess = np.empty((d + 1, d + 1))
    hess[:d, :d] = root.T @ root + (reg / n) * np.eye(d)
    hess[:d, d] = hess[d, :d] = X.T @ s
    hess[d, d] = s.sum()
    return hess


def ref_fit_log(X, y, hp):
    reg = float(hp["regularization"])
    max_iter, tol = int(hp["max_iter"]), float(hp["tol"])

    def fun_grad(t):
        return ref_log_loss_grad(t, X, y, reg)

    theta = np.zeros(X.shape[1] + 1)
    f, g = fun_grad(theta)
    n_iter = 0
    converged = False
    while n_iter < max_iter:
        hess = ref_log_hessian(theta, X, reg)
        try:
            direction = np.linalg.solve(hess, -g)
        except np.linalg.LinAlgError:  # exactly singular, e.g. reg=0 with a constant column
            direction = np.linalg.lstsq(hess, -g, rcond=None)[0]
        converged = float(np.linalg.norm(g)) < tol and -float(g @ direction) < 2.0 * tol**2
        if converged:
            break
        res = ref_armijo_step(fun_grad, theta, f, g, direction, 1.0)
        if res is None:
            break
        theta, f, g, _ = res
        n_iter += 1
    return {
        "weights": theta[:-1],
        "bias": float(theta[-1]),
        "n_iter": n_iter,
        "converged": converged,
    }


# Values with exact ties (a coarse grid) mixed with arbitrary ones, so sums
# round and distances and Gini scores tie.
TIE_VALUES = st.one_of(
    st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
    st.floats(-3.0, 3.0, allow_nan=False, allow_subnormal=False),
)

# Tie-heavy values whose pairwise midpoints are exact, so they lie strictly
# between the two values: the one case where a split threshold differs from
# the reference's is covered by its own test below.
SPLIT_VALUES = st.one_of(
    st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
    st.integers(-192, 192).map(lambda v: v / 64),
)


@st.composite
def matrices(draw, max_rows=30, max_cols=6, min_rows=1, elements=TIE_VALUES):
    n = draw(st.integers(min_rows, max_rows))
    d = draw(st.integers(1, max_cols))
    X = draw(arrays(np.float64, (n, d), elements=elements))
    if n > 1 and draw(st.booleans()):  # duplicated rows
        X[draw(st.integers(1, n - 1)):] = X[0]
    if draw(st.booleans()):  # a constant column
        X[:, draw(st.integers(0, d - 1))] = draw(elements)
    if d > 1 and draw(st.booleans()):  # a repeated column: tied scores across features
        X[:, d - 1] = X[:, 0]
    return X


def labels_for(draw, n):
    return draw(arrays(np.float64, n, elements=st.sampled_from([0.0, 1.0])))


@st.composite
def knn_problems(draw):
    train = draw(matrices(max_cols=20))
    n, d = train.shape
    y = labels_for(draw, n).astype(np.int8)
    queries = [draw(st.sampled_from(list(train)))] if draw(st.booleans()) else []
    rest = draw(arrays(np.float64, (draw(st.integers(0, 8)), d), elements=TIE_VALUES))
    X = np.vstack([np.array(queries).reshape(-1, d), rest])
    if X.shape[0] == 0:
        X = train[:1].copy()
    k = draw(st.sampled_from([1, 3, 5, 7, n, n + 2]))
    return {"train_x": train, "train_y": y, "k": k}, X


@given(knn_problems(), st.sampled_from([1, 7, 64, 1 << 15]))
@settings(max_examples=300, deadline=None)
def test_knn_scores_match_per_row_stable_sort(problem, block_floats):
    params, X = problem
    with mock.patch.object(neighbors, "_BLOCK_FLOATS", block_floats):
        got = neighbors.score_knn(params, X)
    assert np.array_equal(got, ref_score_knn(params, X))


def test_knn_blocks_with_ties_match_per_row_stable_sort():
    rng = np.random.default_rng(31)
    train = np.round(rng.normal(0, 1, (300, 20)), 1)  # five query rows per block
    train[200:250] = train[:50]
    queries = np.vstack([train[:20], np.round(rng.normal(0, 1, (40, 20)), 1)])
    params = {"train_x": train, "train_y": rng.integers(0, 2, 300).astype(np.int8), "k": 5}
    assert np.array_equal(neighbors.score_knn(params, queries), ref_score_knn(params, queries))


@given(matrices(min_rows=2, elements=SPLIT_VALUES), st.data())
@settings(max_examples=300, deadline=None)
def test_best_split_matches_per_feature_scan(X, data):
    y = labels_for(data.draw, X.shape[0])
    min_leaf = data.draw(st.integers(1, 4))
    assert tree._best_split(X, y, min_leaf) == ref_best_split(X, y, min_leaf)


@given(matrices(max_rows=40, elements=SPLIT_VALUES), st.data())
@settings(max_examples=150, deadline=None)
def test_tree_matches_per_feature_scan(X, data):
    y = labels_for(data.draw, X.shape[0])
    hp = {"max_depth": data.draw(st.sampled_from([None, 1, 10])),
          "min_leaf": data.draw(st.integers(1, 4))}
    assert tree.fit_dt(X, y, hp)["root"] == ref_grow(X, y, 0, hp["max_depth"], hp["min_leaf"])


def test_split_between_adjacent_floats_keeps_both_sides():
    # the midpoint of 1 and the float below it rounds up to 1, and that of two
    # values past half the largest float overflows: a threshold there sent
    # every row left, and the tree recursed until it failed
    for lo, hi in [(np.nextafter(1.0, 0.0), 1.0), (1e308, 1.7e308)]:
        X = np.array([[lo], [hi]] * 3)
        y = np.array([0.0, 1.0] * 3)
        for max_depth in (None, 10):
            root = tree.fit_dt(X, y, {"max_depth": max_depth, "min_leaf": 1})["root"]
            assert root["threshold"] == lo
            assert root["left"] == {"leaf": True, "score": 0.0, "n": 3}
            assert root["right"] == {"leaf": True, "score": 1.0, "n": 3}


def assert_same_params(got, want):
    assert got.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(got[key], value), key
        else:
            assert type(got[key]) is type(value) and got[key] == value, key


@given(matrices(max_rows=20, max_cols=4, min_rows=2), st.data())
@settings(max_examples=60, deadline=None)
def test_nn_matches_reference_kernels(X, data):
    y = labels_for(data.draw, X.shape[0])
    h = data.draw(st.integers(1, 4))
    reg = data.draw(st.sampled_from([0.0, 1e-4, 0.5]))
    theta = init_params(X.shape[1], h, data.draw(st.integers(0, 3)))
    theta += data.draw(arrays(np.float64, theta.shape, elements=TIE_VALUES))
    loss, grad = nn_loss_grad(theta, X, y, h, reg)
    ref_loss, ref_grad = ref_nn_loss_grad(theta, X, y, h, reg)
    assert loss == ref_loss and np.array_equal(grad, ref_grad)
    hp = {"hidden_size": h, "regularization": reg, "max_iter": data.draw(st.integers(1, 25)),
          "tol": data.draw(st.sampled_from([1e-6, 1e-2]))}
    seed = data.draw(st.integers(0, 3))
    want_theta, n_iter, converged = ref_lbfgs(
        lambda t: ref_nn_loss_grad(t, X, y, h, reg), init_params(X.shape[1], h, seed),
        max_iter=hp["max_iter"], tol=hp["tol"],
    )
    w1, b1, w2, b2 = _unpack(want_theta, X.shape[1], h)
    assert_same_params(fit_nn(X, y, hp, seed), {
        "w1": w1, "b1": b1, "w2": w2, "b2": float(b2),
        "n_iter": n_iter, "converged": converged,
    })


def test_nn_stopped_at_max_iter_matches_reference():
    rng = np.random.default_rng(37)
    X = rng.normal(0, 1, (60, 4))
    y = (X[:, 0] + 0.5 * rng.normal(0, 1, 60) > 0).astype(float)
    hp = {"hidden_size": 6, "regularization": 1e-4, "max_iter": 15, "tol": 1e-9}
    params = fit_nn(X, y, hp, seed=2)
    want_theta, n_iter, converged = ref_lbfgs(
        lambda t: ref_nn_loss_grad(t, X, y, 6, 1e-4), init_params(4, 6, 2), max_iter=15, tol=1e-9,
    )
    assert params["n_iter"] == n_iter == 15 and params["converged"] is converged is False
    w1, b1, w2, b2 = _unpack(want_theta, 4, 6)
    assert_same_params(params, {"w1": w1, "b1": b1, "w2": w2, "b2": float(b2),
                                "n_iter": n_iter, "converged": converged})


@given(matrices(max_cols=5), st.data())
@settings(max_examples=100, deadline=None)
def test_svm_matches_reference_kernel(X, data):
    y = labels_for(data.draw, X.shape[0])
    hp = {"regularization": data.draw(st.sampled_from([0.01, 1.0, 3.0])),
          "max_iter": data.draw(st.integers(1, 40))}
    assert_same_params(fit_svm(X, y, hp), ref_fit_svm(X, y, hp))


@given(matrices(max_cols=4, min_rows=2), st.data())
@settings(max_examples=100, deadline=None)
def test_log_matches_reference_kernel(X, data):
    y = labels_for(data.draw, X.shape[0])
    hp = {"regularization": data.draw(st.sampled_from([0.0, 1e-3, 1.0])),
          "max_iter": data.draw(st.integers(1, 30)),
          "tol": data.draw(st.sampled_from([1e-6, 1e-2]))}
    with np.errstate(over="ignore", invalid="ignore"):  # reg 0 lets separable weights grow
        assert_same_params(fit_log(X, y, hp), ref_fit_log(X, y, hp))
