"""Exceedance curves and data-driven threshold selection.

For a per-entity measure (presentation distance, response distance, engaged
fraction) we sweep a cut delta over a grid and count how many entities, and
how many disputed entities, sit at or above it.  The ratio curves

    ratio_dd(delta) = D_delta / D        (share of disputed entities kept)
    ratio_de(delta) = D_delta / E_delta  (disputed share among kept entities)

are fitted with a least-squares polynomial whose inflection points drive the
threshold choice.  Plateau-shaped curves use the ``second_concavity_change``
policy (the cut where the curve leaves its plateau and the final decline
begins); monotonic curves use an index policy over the ascending inflection
list, where the inflection is only a proxy for the separation point.

Each measure's row of ``MEASURES`` declares its entity column, grid, fit,
selection rule and indicator; the series, degree and inflection index are
calibrated against the reference curves shipped in ``fixtures/`` and
exercised by the acceptance suite.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
from numpy.polynomial.polynomial import polyder, polyval

from .corpus import CorpusError
from .errors import NumericError

RATIO_DD = "ratio_dd"
RATIO_DE = "ratio_de"

MEASURE_PRESENTATION = "presentation_distance"
MEASURE_RESPONSE = "response_distance"
MEASURE_ENGAGEMENT = "engagement"

# Slope cutoff (relative to the steepest inflection) below which a decline is
# not considered a genuine drop of the curve; guards against endpoint flare.
_DOMINANT_SLOPE_FRACTION = 0.5
# Grid used to bracket sign changes of the fitted second derivative.
_BRACKET_POINTS = 8193


class FitError(NumericError):
    """Least-squares system is unusable (too few points, rank deficiency)."""


class SelectionError(NumericError):
    """The fitted curve does not expose the inflection the policy requires."""

    def __init__(self, message: str, inflections: Sequence[float] = ()):
        super().__init__(message)
        self.inflections = tuple(inflections)


@dataclass(frozen=True)
class RatioCurve:
    """Ratio curves over an ascending grid, built from entity values or read from a fixture CSV."""

    grid: np.ndarray
    ratio_dd: np.ndarray
    ratio_de: np.ndarray  # nan where no entity reaches the cut


def build_exceedance_curve(values: np.ndarray, disputed: np.ndarray, grid: Sequence[float]) -> RatioCurve:
    """Ratio curves of the entities (all / disputed) whose value is >= each point of an ascending grid.

    ``values`` holds one value per entity and ``disputed`` is True for each
    disputed one, aligned with it.
    """
    grid = np.asarray(grid, dtype=float)
    vals = np.sort(values)
    disputed_vals = np.sort(values[disputed])
    e_counts = len(vals) - np.searchsorted(vals, grid, side="left")
    d_counts = len(disputed_vals) - np.searchsorted(disputed_vals, grid, side="left")
    n_disputed = len(disputed_vals)
    ratio_dd = d_counts / n_disputed if n_disputed else np.zeros_like(grid)
    ratio_de = np.where(e_counts > 0, d_counts / np.maximum(e_counts, 1), np.nan)
    return RatioCurve(
        grid=grid,
        ratio_dd=ratio_dd.astype(float),
        ratio_de=ratio_de.astype(float),
    )


@dataclass(frozen=True)
class PolynomialFit:
    """Least-squares polynomial in the affinely mapped variable t in [-1, 1] over ``domain``.

    ``scaled_coefficients`` are ascending powers of t; evaluation and root
    finding use only this better-conditioned form.
    """

    degree: int
    domain: tuple[float, float]
    rmse: float
    scaled_coefficients: tuple[float, ...]

    def __call__(self, x) -> np.ndarray:
        lo, hi = self.domain  # lo < hi: fit_polynomial needs distinct abscissae
        t = (2.0 * np.asarray(x, dtype=float) - lo - hi) / (hi - lo)
        return polyval(t, self.scaled_coefficients)


def fit_polynomial(x: Sequence[float], y: Sequence[float], degree: int) -> PolynomialFit:
    """Deterministic least-squares polynomial fit of the given degree.

    The solve runs in a scaled variable for conditioning.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if degree < 2:
        raise FitError(f"degree must be >= 2, got {degree}")
    if x.shape != y.shape or x.ndim != 1:
        raise FitError("x and y must be 1-d arrays of equal length")
    mask = np.isfinite(x) & np.isfinite(y)
    x, y = x[mask], y[mask]
    if len(x) < degree + 1:
        raise FitError(f"need at least {degree + 1} points for degree {degree}, got {len(x)}")
    if len(np.unique(x)) < degree + 1:
        raise FitError(
            f"rank-deficient fit: only {len(np.unique(x))} distinct x values for degree {degree}"
        )
    lo, hi = float(x.min()), float(x.max())
    t = (2.0 * x - lo - hi) / (hi - lo)
    design = np.vander(t, degree + 1, increasing=True)
    t_coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = design @ t_coef - y
    rmse = float(np.sqrt(np.mean(resid**2)))
    return PolynomialFit(
        degree=degree,
        domain=(lo, hi),
        rmse=rmse,
        scaled_coefficients=tuple(float(c) for c in t_coef),
    )


def _bracketed_roots(coef: np.ndarray, lo: float, hi: float) -> list[float]:
    """Sign-change roots of a polynomial on (lo, hi) via bracketing + bisection."""
    t = np.linspace(lo, hi, _BRACKET_POINTS)
    v = polyval(t, coef)
    roots = []
    for i in np.flatnonzero(v[:-1] * v[1:] < 0.0):
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


def _classified_inflections(fit: PolynomialFit) -> list[tuple[float, int, float]]:
    """(abscissa, concavity direction after the flip, |slope|) per inflection.

    Inflections lie strictly inside the domain, in ascending order.
    Direction +1 means the second derivative flips negative-to-positive
    (a local extreme of steepness on a falling curve), -1 the reverse.
    """
    d1 = polyder(fit.scaled_coefficients, 1)
    d2 = polyder(fit.scaled_coefficients, 2)
    lo, hi = fit.domain
    alpha = 2.0 / (hi - lo)
    out = []
    for r_t in _bracketed_roots(d2, -1.0, 1.0):
        eps = 1e-6
        after = float(polyval(min(r_t + eps, 1.0), d2))
        direction = 1 if after > 0 else -1
        slope = abs(float(polyval(r_t, d1))) * alpha
        x = lo + (r_t + 1.0) * (hi - lo) / 2.0
        out.append((x, direction, slope))
    return out


@dataclass(frozen=True)
class Measure:
    """One polarization measure: where its values live, how its cut is chosen, what it sets."""

    feature: str  # the features.EntityTable column holding the value
    indicator: str  # the features.EntityTable indicator column set from the cut
    cut: str  # the key of the cut in thresholds_json
    grid_hi: float  # the exceedance grid runs from 0 up to (not including) this bound
    series: str
    degree: int
    index: int | None  # 1-based inflection; None takes the second concavity change
    fixture: str  # the measure's reference curve in fixtures/


# Kept in this order: presentation, response, engagement.  Series, degree and
# index are calibrated against the fixtures; see tests/test_acceptance.py.
MEASURES: dict[str, Measure] = {
    MEASURE_PRESENTATION: Measure(
        "presentation_distance", "controversy", "delta_p", 2.0, RATIO_DD, 10, None, "fig2a.csv"
    ),
    MEASURE_RESPONSE: Measure(
        "response_dist_global", "perception", "delta_r", 2.0, RATIO_DE, 12, 3, "fig3a.csv"
    ),
    MEASURE_ENGAGEMENT: Measure(
        "engaged_fraction", "captivation", "rho_e", 1.0, RATIO_DD, 9, 2, "fig3b.csv"
    ),
}


@dataclass(frozen=True)
class ThresholdSelection:
    threshold: float
    inflections: tuple[float, ...]
    fit: PolynomialFit
    series: str
    index: int | None
    fallback: bool  # the fit has fewer than ``index`` inflections, so the first was taken

    @property
    def policy(self) -> str:
        return "second_concavity_change" if self.index is None else f"index({self.index})"

    def to_json_dict(self, measure: str = "") -> dict:
        return {
            "measure": measure,
            "threshold": self.threshold,
            "inflections": list(self.inflections),
            "degree": self.fit.degree,
            "rmse": self.fit.rmse,
            "policy": self.policy,
            "series": self.series,
            "fallback": self.fallback,
        }


def _second_concavity_change(classified: list[tuple[float, int, float]], decreasing: bool) -> float:
    """The inflection where the curve leaves its plateau into the final drop.

    ``classified`` is the fit's ``_classified_inflections``.  Steep
    inflections (direction aligned with the curve's overall movement) mark
    genuine declines; the threshold is the last flat-side inflection before
    the rightmost dominant one.
    """
    steep_dir = 1 if decreasing else -1
    steep = [c for c in classified if c[1] == steep_dir]
    flat = [c for c in classified if c[1] == -steep_dir]
    all_x = [c[0] for c in classified]
    if not steep or not flat:
        raise SelectionError(
            f"no plateau-to-decline structure in fit (inflections: {all_x})", all_x
        )
    max_slope = max(c[2] for c in steep)
    dominant = [c for c in steep if c[2] >= _DOMINANT_SLOPE_FRACTION * max_slope][-1]
    candidates = [c for c in flat if c[0] < dominant[0]]
    if not candidates:
        raise SelectionError(
            f"no concavity change precedes the final decline (inflections: {all_x})", all_x
        )
    return candidates[-1][0]


def select_threshold(curve, series: str, degree: int, index: int | None) -> ThresholdSelection:
    """Fit the ``series`` ratio curve and take the inflection ``index`` picks.

    ``index`` is 1-based over the ascending inflections, falling back to the
    first when the fit has fewer; None takes the second concavity change.
    Non-finite ratio points (undefined D/E where no entity survives the cut)
    are dropped from the fit, never imputed.  The result is clamped to the
    grid range.
    """
    grid = np.asarray(curve.grid, dtype=float)
    y = np.asarray(getattr(curve, series), dtype=float)
    fit = fit_polynomial(grid, y, degree)
    classified = _classified_inflections(fit)
    roots = [x for x, _, _ in classified]
    fallback = index is not None and len(roots) < index

    if index is None:
        decreasing = float(fit(grid[0])) >= float(fit(grid[-1]))
        chosen = _second_concavity_change(classified, decreasing)
    elif not roots:
        raise SelectionError("fit has no inflection points", roots)
    else:
        chosen = roots[0] if fallback else roots[index - 1]

    chosen = float(min(max(chosen, grid[0]), grid[-1]))
    return ThresholdSelection(
        threshold=chosen, inflections=tuple(roots), fit=fit, series=series, index=index,
        fallback=fallback,
    )


def select_thresholds(curves: Mapping[str, RatioCurve]) -> dict[str, ThresholdSelection]:
    """Select the cut of every supplied measure curve with its row of ``MEASURES``."""
    selections = {}
    for measure, curve in curves.items():
        row = MEASURES[measure]
        selections[measure] = select_threshold(curve, row.series, row.degree, row.index)
    return selections


def thresholds_json(selections: Mapping[str, ThresholdSelection]) -> dict:
    """The ``thresholds`` object of thresholds.json and an early warning's report.json.

    Each ``MEASURES`` row's ``cut`` key holds its measure's cut, None when
    the measure was not selected; ``inflections`` and ``policy`` hold the
    selected measures'.
    """
    doc = {row.cut: selections[m].threshold if m in selections else None for m, row in MEASURES.items()}
    doc["inflections"] = {m: list(s.inflections) for m, s in selections.items()}
    doc["policy"] = {m: s.policy for m, s in selections.items()}
    return doc


def load_fixture_curve(path: str | Path) -> RatioCurve:
    """Read a delta,ratio_dd,ratio_de CSV ('nan' marks undefined D/E); a bad column or cell is a CorpusError."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"fixture file not found: {path}")
    grid, dd, de = [], [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = {"delta", "ratio_dd", "ratio_de"}
        try:
            if reader.fieldnames is None or not required.issubset(reader.fieldnames):
                raise CorpusError(f"{path}: expected columns delta,ratio_dd,ratio_de")
            for row in reader:
                grid.append(float(row["delta"]))
                dd.append(float(row["ratio_dd"]))
                de.append(float(row["ratio_de"]))
        except (ValueError, TypeError, csv.Error) as exc:  # not a number, a missing cell, not UTF-8
            raise CorpusError(f"{path}: {exc}") from None
    return RatioCurve(
        grid=np.asarray(grid), ratio_dd=np.asarray(dd), ratio_de=np.asarray(de)
    )
