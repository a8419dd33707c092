"""Metric formulas against brute-force counting and pairwise AUC oracles."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polarwarn import evaluation as ev
from polarwarn.models import Dataset, ModelSpec, fit, predict


def make_dataset(X, y):
    X = np.asarray(X, dtype=float)
    return Dataset(
        features=X,
        labels=np.asarray(y, dtype=np.int8),
        feature_names=tuple(f"f{i}" for i in range(X.shape[1])),
    )


class TestSplit:
    def test_exact_arithmetic_balanced_ten(self):
        y = np.array([0] * 5 + [1] * 5)
        train, test = ev.split_train_test(y, 0.6, seed=0)
        assert len(train) == 6 and len(test) == 4
        assert int(y[train].sum()) == 3 and int(y[test].sum()) == 2

    def test_same_seed_identical(self):
        rng = np.random.default_rng(0)
        y = rng.permutation(np.repeat([0, 1], 20))
        a = ev.split_train_test(y, 0.6, seed=3)
        b = ev.split_train_test(y, 0.6, seed=3)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_partition_property(self):
        rng = np.random.default_rng(1)
        y = rng.permutation(np.repeat([0, 1], 50))
        train, test = ev.split_train_test(y, 0.6, seed=5)
        assert np.array_equal(np.sort(np.concatenate([train, test])), np.arange(100))
        assert len(train) + len(test) == 100

    def test_small_class_error(self):
        with pytest.raises(ev.StratificationError):
            ev.split_train_test(np.array([0, 0, 1]), 0.6, seed=0)


def reference_split_train_test(labels, train_fraction, seed):
    """Reference stratified split for any number of classes of any sizes, with
    per-class train sizes by largest remainder; ``Protocol.cycles`` must agree
    with it on the balanced labels ``rebalance`` keeps."""
    y = np.asarray(labels)
    classes = np.unique(y)
    counts = {int(c): int(np.sum(y == c)) for c in classes}
    if any(n < 2 for n in counts.values()):
        raise ev.StratificationError(f"every class needs >= 2 rows for a stratified split: {counts}")
    total_train = int(round(train_fraction * len(y)))
    total_train = min(max(total_train, len(classes)), len(y) - len(classes))

    quotas = {c: train_fraction * n for c, n in counts.items()}
    base = {c: int(np.floor(q)) for c, q in quotas.items()}
    for c in counts:
        base[c] = min(max(base[c], 1), counts[c] - 1)
    remainder_order = sorted(counts, key=lambda c: (-(quotas[c] - np.floor(quotas[c])), c))
    i = 0
    while sum(base.values()) < total_train and i < 10 * len(counts):
        c = remainder_order[i % len(counts)]
        if base[c] < counts[c] - 1:
            base[c] += 1
        i += 1
    while sum(base.values()) > total_train:
        c = max(base, key=lambda cc: (base[cc] - quotas[cc], cc))
        if base[c] <= 1:
            break
        base[c] -= 1

    rng = np.random.default_rng(seed)
    train_parts = []
    test_parts = []
    for c in sorted(counts):
        shuffled = np.flatnonzero(y == c)[rng.permutation(counts[c])]
        train_parts.append(shuffled[: base[c]])
        test_parts.append(shuffled[base[c] :])
    return np.sort(np.concatenate(train_parts)), np.sort(np.concatenate(test_parts))


class TestRebalance:
    def test_undersamples_majority(self):
        y = np.array([0] * 80 + [1] * 20)
        kept = ev.rebalance(y, seed=0)
        assert int(np.sum(y[kept] == 0)) == 20
        assert int(np.sum(y[kept] == 1)) == 20

    def test_balanced_input_unchanged(self):
        kept = ev.rebalance(np.array([0] * 5 + [1] * 5), seed=0)
        assert np.array_equal(kept, np.arange(10))

    def test_minority_rows_all_kept(self):
        y = np.array([0] * 40 + [1] * 10)
        kept = ev.rebalance(y, seed=4)
        assert set(np.flatnonzero(y == 1).tolist()) <= set(kept.tolist())

    def test_seeds_vary_subset(self):
        y = np.array([0] * 80 + [1] * 20)
        a = ev.rebalance(y, seed=0)
        b = ev.rebalance(y, seed=1)
        assert len(a) == len(b) == 40
        assert not np.array_equal(a, b)

    def test_single_class_error(self):
        with pytest.raises(ev.StratificationError, match="rebalance requires both classes"):
            ev.rebalance(np.array([1, 1]), seed=0)


# Rows for seeds 0-2, recorded by running the Dataset-based protocol on a
# Dataset whose only column was np.arange(22), so each returned row carried
# its own index: one cycle (rebalance, then the split of the kept rows).
# Any change to the RNG calls or their order moves them.
PINNED_LABELS = np.array([0, 1, 1, 0, 0, 0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0])
PINNED_CYCLES = {
    0: ([5, 6, 7, 9, 11, 12, 16, 19], [0, 1, 2, 3, 8, 10]),
    1: ([0, 2, 4, 6, 8, 13, 17, 19], [1, 7, 9, 11, 16, 18]),
    2: ([1, 5, 6, 8, 9, 11, 12, 17], [2, 3, 4, 10, 16, 19]),
}


class TestIndexProtocol:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pinned_rng_order(self, seed):
        (train, test), = ev.Protocol(repeats=1, seed=seed).cycles(PINNED_LABELS)
        assert (train.tolist(), test.tolist()) == PINNED_CYCLES[seed]

    @given(
        st.integers(2, 60),
        st.integers(0, 60),
        st.integers(0, 2**31),
        st.integers(1, 6),
        st.sampled_from([0.05, 0.3, 0.5, 0.6, 0.75, 0.95]),
    )
    @settings(max_examples=150, deadline=None)
    def test_cycles_equal_reference_rebalance_then_split(self, m, extra, seed, repeats, fraction):
        # unbalanced labels whose minority class has m >= 2 rows
        rng = np.random.default_rng(seed)
        minority = int(rng.integers(0, 2))
        y = rng.permutation(np.repeat([minority, 1 - minority], [m, m + extra]))
        cycles = ev.Protocol(repeats=repeats, train_fraction=fraction, seed=seed).cycles(y)
        assert len(cycles) == repeats
        for i, (train, test) in enumerate(cycles):
            kept = ev.rebalance(y, seed + i)
            ref_train, ref_test = reference_split_train_test(y[kept], fraction, seed + i)
            assert train.dtype == kept[ref_train].dtype and test.dtype == kept[ref_test].dtype
            assert (train == kept[ref_train]).all() and len(train) == len(ref_train)
            assert (test == kept[ref_test]).all() and len(test) == len(ref_test)

    @given(
        st.lists(st.integers(0, 1), min_size=4, max_size=120),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.3, 0.5, 0.6, 0.8]),
    )
    @settings(max_examples=60, deadline=None)
    def test_cycle_indices(self, labels, seed, fraction):
        y = np.array(labels)
        m = min(int(np.sum(y == 0)), int(np.sum(y == 1)))
        assume(m >= 2)
        kept = ev.rebalance(y, seed)
        assert np.array_equal(kept, np.unique(kept))  # sorted, no repeats
        minority = 1 if np.sum(y == 1) == m else 0
        assert set(np.flatnonzero(y == minority).tolist()) <= set(kept.tolist())
        assert int(np.sum(y[kept] == 0)) == int(np.sum(y[kept] == 1)) == m

        train, test = ev.split_train_test(y[kept], fraction, seed)
        for part in (train, test):
            assert np.array_equal(part, np.unique(part))
        assert not set(train.tolist()) & set(test.tolist())
        assert np.array_equal(np.sort(np.concatenate([train, test])), np.arange(len(kept)))
        # two classes of m rows share round(fraction * 2m) train rows, at
        # least one and at most m - 1 each, by largest remainder
        total = min(max(int(round(fraction * len(kept))), 2), 2 * m - 2)
        assert len(train) == total
        for c in (0, 1):
            assert int(np.sum(y[kept][train] == c)) in (total // 2, (total + 1) // 2)
            # both sides hold both classes, as fit and roc_auc assume
            assert int(np.sum(y[kept][train] == c)) >= 1 and int(np.sum(y[kept][test] == c)) >= 1

        assert np.array_equal(ev.rebalance(y, seed), kept)
        again = ev.split_train_test(y[kept], fraction, seed)
        assert np.array_equal(again[0], train) and np.array_equal(again[1], test)


class TestConfusionMetrics:
    def test_perfect_predictions(self):
        rep = ev.confusion_metrics([1, 0, 1, 0], [1, 0, 1, 0])
        assert rep.accuracy == 1.0
        assert rep.per_class[1].f1 == 1.0
        assert rep.per_class[1].fp_rate == 0.0
        assert rep.mean_abs_err == 0.0

    def test_hand_confusion_matrix(self):
        rep = ev.confusion_metrics([1, 1, 0, 0], [1, 0, 0, 0])
        pos = rep.per_class[1]
        assert pos.precision == 1.0
        assert pos.recall == 0.5
        assert pos.f1 == pytest.approx(2 / 3)
        assert pos.fp_rate == 0.0
        assert rep.accuracy == 0.75
        assert rep.mean_abs_err == 0.25
        assert (rep.tp, rep.tn, rep.fp, rep.fn) == (1, 2, 0, 1)

    def test_all_positive_predictor(self):
        rep = ev.confusion_metrics([1, 1, 0, 0], [1, 1, 1, 1])
        assert rep.per_class[1].recall == 1.0
        assert rep.per_class[1].fp_rate == 1.0
        assert rep.accuracy == 0.5
        assert rep.per_class[0].flagged == ("precision",)
        assert rep.per_class[0].recall == 0.0

    def test_counts_sum_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 60))
            labels = rng.integers(0, 2, n)
            preds = rng.integers(0, 2, n)
            rep = ev.confusion_metrics(labels, preds)
            assert rep.tp + rep.tn + rep.fp + rep.fn == rep.n == n
            assert rep.accuracy == pytest.approx((rep.tp + rep.tn) / n)

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=80))
    @settings(max_examples=80, deadline=None)
    def test_weighted_recall_equals_accuracy(self, pairs):
        labels = [p[0] for p in pairs]
        preds = [p[1] for p in pairs]
        rep = ev.confusion_metrics(labels, preds)
        assert rep.weighted.recall == pytest.approx(rep.accuracy)

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_each_class_matches_its_own_count(self, pairs):
        labels, preds = np.array(pairs).T
        rep = ev.confusion_metrics(labels, preds)
        oracle = {c: class_metrics_oracle(labels, preds, c) for c in (0, 1)}
        assert rep.per_class == oracle
        weights = {c: oracle[c].support / len(labels) for c in oracle}
        for name in ("precision", "recall", "fp_rate", "f1"):
            assert getattr(rep.weighted, name) == sum(weights[c] * getattr(oracle[c], name) for c in oracle)
        assert rep.weighted.flagged == tuple(sorted(set(oracle[0].flagged) | set(oracle[1].flagged)))


def class_metrics_oracle(labels, predicted, positive):
    """One class's metrics counted from the vectors with that class as the positive one."""
    tp = int(np.sum((predicted == positive) & (labels == positive)))
    fp = int(np.sum((predicted == positive) & (labels != positive)))
    fn = int(np.sum((predicted != positive) & (labels == positive)))
    tn = int(np.sum((predicted != positive) & (labels != positive)))
    flagged = []
    if tp + fp > 0:
        precision = tp / (tp + fp)
    else:
        precision = 0.0
        flagged.append("precision")
    if tp + fn > 0:
        recall = tp / (tp + fn)
    else:
        recall = 0.0
        flagged.append("recall")
    if fp + tn > 0:
        fp_rate = fp / (fp + tn)
    else:
        fp_rate = 0.0
        flagged.append("fp_rate")
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return ev.ClassMetrics(precision=precision, recall=recall, fp_rate=fp_rate, f1=f1,
                           support=tp + fn, flagged=tuple(flagged))


def pairwise_auc(labels, scores):
    """O(n^2) concordant-pair oracle with half credit for ties."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=float)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


class TestRocAuc:
    def test_perfect_separation(self):
        assert ev.roc_auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0

    def test_all_ties_half(self):
        assert ev.roc_auc([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]) == 0.5

    def test_matches_pair_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(2, 50))
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = np.round(rng.normal(0, 1, n), 1)  # coarse -> frequent ties
            assert abs(ev.roc_auc(labels, scores) - pairwise_auc(labels, scores)) < 1e-9

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(-3, 3)), min_size=2, max_size=120))
    @settings(max_examples=150, deadline=None)
    def test_tie_heavy_integer_scores_match_pair_oracle(self, pairs):
        labels = [p[0] for p in pairs]
        labels[:2] = [0, 1]
        scores = [float(p[1]) for p in pairs]
        # midranks and pair counts are exact half-integers here, so equality is exact
        assert ev.roc_auc(labels, scores) == pairwise_auc(labels, scores)

    @given(
        st.lists(st.integers(0, 1), min_size=4, max_size=40),
        st.floats(min_value=0.1, max_value=5.0),
        st.floats(min_value=-3.0, max_value=3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_increasing_transform(self, labels, scale, shift):
        if len(set(labels)) < 2:
            labels = labels[: len(labels) // 2 * 2]
            labels = [0, 1] * (len(labels) // 2) or [0, 1]
        rng = np.random.default_rng(7)
        scores = rng.normal(0, 1, len(labels))
        transformed = np.exp(scale * scores) + shift
        assert ev.roc_auc(labels, scores) == pytest.approx(
            ev.roc_auc(labels, transformed), abs=1e-12
        )


class TestProtocol:
    def planted(self, n=120, seed=0):
        rng = np.random.default_rng(seed)
        signal = rng.normal(0, 1, n)
        y = (signal + rng.normal(0, 0.6, n) > 0).astype(int)
        noise = rng.normal(0, 1, (n, 2))
        X = np.column_stack([signal, noise])
        return make_dataset(X, y)

    def test_cycles_and_aggregate(self):
        ds = self.planted()
        cycles = ev.Protocol(repeats=5, seed=1).cycles(ds.labels)
        report = ev.run_cycles(ds, ModelSpec("log"), cycles)
        assert len(report.aucs) == 5 and report.auc > 0.8
        assert report.tp + report.tn + report.fp + report.fn == report.n

    @pytest.mark.parametrize("algorithm", ["log", "knn"])
    def test_run_cycles_equals_a_per_cycle_loop(self, algorithm):
        ds = self.planted()
        spec = ModelSpec(algorithm, seed=3)
        cycles = ev.Protocol(repeats=4, seed=2).cycles(ds.labels)
        labels, predicted, aucs = [], [], []
        for train, test in cycles:
            model = fit(Dataset(ds.features[train], ds.labels[train], ds.feature_names), spec)
            scores, guessed = predict(model, ds.features[test])
            labels.append(ds.labels[test])
            predicted.append(guessed)
            aucs.append(ev.roc_auc(ds.labels[test], scores))
        got = ev.run_cycles(ds, spec, cycles)
        assert got == ev.confusion_metrics(np.concatenate(labels), np.concatenate(predicted), aucs)
        assert got.aucs == tuple(aucs)
        assert got.auc == float(np.mean(aucs))

    def test_label_permutation_hovers_at_half(self):
        ds = self.planted(n=200)
        rng = np.random.default_rng(5)
        permuted = Dataset(
            features=ds.features,
            labels=rng.permutation(ds.labels),
            feature_names=ds.feature_names,
        )
        auc = ev.run_cycles(permuted, ModelSpec("log"), ev.Protocol(repeats=8, seed=2).cycles(permuted.labels)).auc
        assert 0.35 < auc < 0.65

    @pytest.mark.parametrize("repeats", [0, -3])
    def test_non_positive_repeats_rejected(self, repeats):
        with pytest.raises(ValueError, match=f"repeats must be at least 1, got {repeats}"):
            ev.Protocol(repeats=repeats)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, 1.5, -0.2, float("nan")])
    def test_train_fraction_outside_unit_interval_rejected(self, fraction):
        with pytest.raises(ValueError, match=r"train_fraction must be in \(0, 1\), got"):
            ev.Protocol(train_fraction=fraction)


class TestForwardStepwise:
    def test_oracle_feature_selected_first(self):
        rng = np.random.default_rng(3)
        y = rng.integers(0, 2, 80)
        X = np.column_stack([rng.normal(0, 1, 80), y.astype(float), rng.normal(0, 1, 80)])
        ds = make_dataset(X, y)
        result = ev.forward_stepwise(ds, ModelSpec("log"), 2, ev.Protocol(repeats=4, seed=0).cycles(ds.labels))
        assert result.features[0] == "f1"
        assert result.auc_trace[0] == 1.0

    def test_noise_columns_hover_at_half(self):
        rng = np.random.default_rng(9)
        X = rng.normal(0, 1, (150, 3))
        y = rng.integers(0, 2, 150)
        ds = make_dataset(X, y)
        result = ev.forward_stepwise(ds, ModelSpec("log"), 3, ev.Protocol(repeats=6, seed=1).cycles(ds.labels))
        assert all(0.3 < a < 0.7 for a in result.auc_trace)

    def test_single_class_labels_raise(self):
        # a failed evaluation is an error, not a candidate with AUC 0
        ds = make_dataset(np.eye(10)[:, :2], [0] * 10)
        with pytest.raises(ev.StratificationError, match="rebalance requires both classes"):
            ev.forward_stepwise(ds, ModelSpec("log"), 2, ev.Protocol(repeats=2, seed=0).cycles(ds.labels))

    def test_index_tie_break(self):
        # two identical perfect columns: the lower index must win
        y = np.array([0, 1] * 30)
        X = np.column_stack([y.astype(float), y.astype(float)])
        ds = make_dataset(X, y)
        result = ev.forward_stepwise(ds, ModelSpec("log"), 1, ev.Protocol(repeats=3, seed=0).cycles(ds.labels))
        assert result.features[0] == "f0"
