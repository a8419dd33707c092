"""Exceedance counting, polynomial fitting and threshold selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyval

from polarwarn import thresholds as th

FIXTURES = "fixtures"


class TestExceedanceCurve:
    def test_hand_counts(self):
        # 2, 1, 0 entities and 1, 0, 0 disputed ones reach the cuts
        curve = th.build_exceedance_curve(np.array([0.5, 1.5]), np.array([True, False]), [0.0, 1.0, 2.0])
        assert curve.ratio_dd.tolist() == [1.0, 0.0, 0.0]
        assert curve.ratio_de[:2].tolist() == [0.5, 0.0]
        assert np.isnan(curve.ratio_de[2])

    def test_no_disputed_means_zero_ratio(self):
        curve = th.build_exceedance_curve(np.array([0.5, 1.5]), np.array([False, False]), [0.0, 1.0])
        assert curve.ratio_dd.tolist() == [0.0, 0.0]

    def test_counts_non_increasing_and_bounded(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(0, 2, 500)
        disputed = np.isin(np.arange(500), rng.choice(500, 120, replace=False))
        curve = th.build_exceedance_curve(values, disputed, np.arange(0, 2, 0.01))
        assert np.all(np.diff(curve.ratio_dd) <= 0)
        assert np.all((curve.ratio_dd >= 0) & (curve.ratio_dd <= 1))
        defined = curve.ratio_de[np.isfinite(curve.ratio_de)]
        assert np.all((defined >= 0) & (defined <= 1))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_brute_force_filtering(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        values = rng.uniform(-0.5, 2.5, n)
        disputed = rng.uniform(size=n) < 0.4
        grid = np.sort(rng.uniform(0, 2, int(rng.integers(1, 30))))
        curve = th.build_exceedance_curve(values, disputed, grid)
        for j, delta in enumerate(grid):
            e = sum(1 for v in values.tolist() if v >= delta)
            d = sum(1 for k, v in zip(disputed.tolist(), values.tolist()) if k and v >= delta)
            n_disputed = sum(disputed.tolist())
            assert curve.ratio_dd[j] == (d / n_disputed if n_disputed else 0.0)
            if e:
                assert curve.ratio_de[j] == d / e
            else:
                assert np.isnan(curve.ratio_de[j])


class TestFitPolynomial:
    def test_recovers_exact_quadratic(self):
        x = np.linspace(0, 2, 40)
        fit = th.fit_polynomial(x, x**2, degree=2)
        assert fit(x) == pytest.approx(x**2, abs=1e-9)
        assert fit.rmse < 1e-10

    def test_constant_at_higher_degree(self):
        x = np.linspace(0, 1, 25)
        fit = th.fit_polynomial(x, np.full_like(x, 3.0), degree=3)
        assert fit(x) == pytest.approx(np.full_like(x, 3.0), abs=1e-9)
        assert fit.rmse < 1e-10

    def test_noise_floor(self):
        rng = np.random.default_rng(5)
        x = np.linspace(0, 2, 200)
        y = 1 / (1 + np.exp(8 * (x - 1))) + rng.normal(0, 0.02, len(x))
        fit = th.fit_polynomial(x, y, degree=7)
        assert fit.rmse < 0.02 * 1.5

    def test_rank_deficiency_error(self):
        x = np.array([0.0, 0.0, 1.0, 1.0, 2.0])
        with pytest.raises(th.FitError, match="rank-deficient"):
            th.fit_polynomial(x, x, degree=3)

    def test_too_few_points_error(self):
        with pytest.raises(th.FitError):
            th.fit_polynomial([0.0, 1.0], [0.0, 1.0], degree=2)

    def test_residuals_orthogonal_to_design(self):
        curve = th.load_fixture_curve(f"{FIXTURES}/fig2a.csv")
        for degree in (3, 5, 7, 10, 11):
            fit = th.fit_polynomial(curve.grid, curve.ratio_dd, degree)
            residual = fit(curve.grid) - curve.ratio_dd
            design = np.vander(curve.grid, degree + 1, increasing=True)
            assert np.max(np.abs(design.T @ residual)) < 1e-6

    @given(st.lists(st.floats(min_value=-2, max_value=2), min_size=4, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_recovers_any_cubic(self, coeffs):
        x = np.linspace(0, 2, 50)
        y = sum(c * x**k for k, c in enumerate(coeffs))
        fit = th.fit_polynomial(x, y, degree=3)
        assert np.allclose(fit(x), y, atol=1e-8)


def inflections(fit):
    return [x for x, _, _ in th._classified_inflections(fit)]


class TestInflectionPoints:
    def test_cubic_has_inflection_at_zero(self):
        x = np.linspace(-1, 1, 50)
        fit = th.fit_polynomial(x, x**3, degree=3)
        roots = inflections(fit)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(0.0, abs=1e-8)

    def test_quartic_touch_is_not_inflection(self):
        x = np.linspace(-1, 1, 50)
        fit = th.fit_polynomial(x, x**4, degree=4)
        assert inflections(fit) == []

    def test_two_plateau_curve_brackets(self):
        # two sigmoid drops with a plateau at 0.5 between them
        x = np.linspace(0, 2, 300)
        y = 0.5 / (1 + np.exp(20 * (x - 0.5))) + 0.5 / (1 + np.exp(20 * (x - 1.5)))
        fit = th.fit_polynomial(x, y, degree=5)
        roots = inflections(fit)
        assert len(roots) == 3
        assert roots[0] < 0.7 < roots[1] < 1.3 < roots[2]

    def test_needs_degree_three(self):
        x = np.linspace(0, 1, 10)
        fit = th.fit_polynomial(x, x**2, degree=2)
        assert inflections(fit) == []


def reference_bracketed_roots(coef, lo, hi):
    """The per-interval scan that ``th._bracketed_roots`` replaces with one vector test."""
    t = np.linspace(lo, hi, th._BRACKET_POINTS)
    v = polyval(t, coef)
    roots = []
    for i in range(len(t) - 1):
        if v[i] == 0.0:
            continue
        if v[i] * v[i + 1] < 0.0:
            a, b, fa = t[i], t[i + 1], v[i]
            while b - a > 1e-12:
                m = 0.5 * (a + b)
                fm = float(polyval(m, coef))
                if fa * fm <= 0.0:
                    b = m
                else:
                    a, fa = m, fm
            roots.append(0.5 * (a + b))
    return roots


class TestBracketedRoots:
    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=13))
    @settings(max_examples=40, deadline=None)
    def test_matches_reference(self, coef):
        coef = np.asarray(coef)
        assert th._bracketed_roots(coef, -1.0, 1.0) == reference_bracketed_roots(coef, -1.0, 1.0)

    @given(st.lists(st.integers(0, th._BRACKET_POINTS - 1), min_size=1, max_size=3),
           st.sampled_from([1.0, -0.5, 3.0]))
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_with_zeros_at_grid_points(self, at, scale):
        # (t - t[k]) factors with dyadic grid roots: Horner evaluates them exactly
        t = np.linspace(-1.0, 1.0, th._BRACKET_POINTS)
        coef = np.array([scale])
        for k in at:
            coef = np.convolve(coef, [-t[k], 1.0])
        assert np.all(polyval(t[at], coef) == 0.0)
        assert th._bracketed_roots(coef, -1.0, 1.0) == reference_bracketed_roots(coef, -1.0, 1.0)


class TestSelectThreshold:
    def sigmoid_curve(self, midpoint=1.0, scale=10.0):
        grid = np.arange(0, 2, 0.01)
        dd = 1 / (1 + np.exp(scale * (grid - midpoint)))
        return th.RatioCurve(grid=grid, ratio_dd=dd, ratio_de=np.full_like(grid, 0.5))

    def test_index_policy_and_first_fallback(self):
        curve = self.sigmoid_curve()
        sel3 = th.select_threshold(curve, "ratio_dd", 5, 3)
        sel1 = th.select_threshold(curve, "ratio_dd", 5, 1)
        assert sel1.threshold == sel3.inflections[0] or sel1.threshold in (0.0, 1.99)
        # a degree-3 fit of a sigmoid has a single inflection: index(3) falls back
        one = th.select_threshold(curve, "ratio_dd", 3, 3)
        assert one.threshold == pytest.approx(one.inflections[0], abs=1e-9)
        assert one.fallback and one.to_json_dict("m")["fallback"] is True
        assert not sel3.fallback and sel3.to_json_dict("m")["fallback"] is False

    def test_clamped_to_grid(self):
        curve = self.sigmoid_curve()
        sel = th.select_threshold(curve, "ratio_dd", 5, 1)
        assert 0.0 <= sel.threshold <= 1.99

    def test_selection_error_reports_inflections(self):
        grid = np.arange(0, 2, 0.01)
        rising = th.RatioCurve(grid=grid, ratio_dd=grid / 2, ratio_de=grid / 2)
        with pytest.raises(th.SelectionError) as err:
            th.select_threshold(rising, "ratio_dd", 3, None)
        assert isinstance(err.value.inflections, tuple)

    def test_plateau_rule_finds_second_drop(self):
        grid = np.arange(0, 2, 0.01)
        y = 0.5 / (1 + np.exp(12 * (grid - 0.4))) + 0.5 / (1 + np.exp(12 * (grid - 1.4)))
        curve = th.RatioCurve(grid=grid, ratio_dd=y, ratio_de=y)
        sel = th.select_threshold(curve, "ratio_dd", 9, None)
        # threshold sits between the plateau and the second drop's midpoint
        assert 0.7 < sel.threshold < 1.4

    def test_unknown_series_rejected(self):
        with pytest.raises(AttributeError):
            th.select_threshold(self.sigmoid_curve(), "ratio_xx", 10, None)


class TestFixtures:
    def test_fixture_files_load(self):
        for name in ("fig2a", "fig2b", "fig3a", "fig3b"):
            curve = th.load_fixture_curve(f"{FIXTURES}/{name}.csv")
            assert len(curve.grid) in (100, 200)
            assert curve.grid[0] == 0.0

    def test_missing_fixture_named(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="fig9z.csv"):
            th.load_fixture_curve(tmp_path / "fig9z.csv")

    def test_select_thresholds_bundle(self):
        curves = {
            th.MEASURE_PRESENTATION: th.load_fixture_curve(f"{FIXTURES}/fig2a.csv"),
            th.MEASURE_RESPONSE: th.load_fixture_curve(f"{FIXTURES}/fig3a.csv"),
            th.MEASURE_ENGAGEMENT: th.load_fixture_curve(f"{FIXTURES}/fig3b.csv"),
        }
        selections = th.select_thresholds(curves)
        assert set(selections) == set(curves)
        cuts_doc = th.thresholds_json(selections)
        assert set(cuts_doc["inflections"]) == set(curves)
        calibrated = {
            th.MEASURE_PRESENTATION: ("second_concavity_change", "ratio_dd", 10),
            th.MEASURE_RESPONSE: ("index(3)", "ratio_de", 12),
            th.MEASURE_ENGAGEMENT: ("index(2)", "ratio_dd", 9),
        }
        for measure, (policy, series, degree) in calibrated.items():
            doc = selections[measure].to_json_dict(measure)
            assert (doc["policy"], doc["series"], doc["degree"]) == (policy, series, degree)
            assert cuts_doc["policy"][measure] == policy

    def test_thresholds_json_reads_the_selections(self):
        curves = {m: th.load_fixture_curve(f"{FIXTURES}/{row.fixture}") for m, row in th.MEASURES.items()}
        selections = th.select_thresholds(curves)
        doc = th.thresholds_json(selections)
        assert (doc["delta_p"], doc["delta_r"], doc["rho_e"]) == tuple(
            selections[m].threshold
            for m in (th.MEASURE_PRESENTATION, th.MEASURE_RESPONSE, th.MEASURE_ENGAGEMENT))
        assert doc["inflections"] == {m: list(s.inflections) for m, s in selections.items()}
        only_presentation = {th.MEASURE_PRESENTATION: selections[th.MEASURE_PRESENTATION]}
        doc = th.thresholds_json(only_presentation)
        assert doc["delta_p"] == selections[th.MEASURE_PRESENTATION].threshold
        assert doc["delta_r"] is None and doc["rho_e"] is None
        assert list(doc["inflections"]) == list(doc["policy"]) == [th.MEASURE_PRESENTATION]
