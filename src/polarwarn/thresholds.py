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

The per-measure defaults in ``DEFAULT_MEASURE_CONFIGS`` (series, degree,
policy) are calibrated against the reference curves shipped in
``fixtures/`` and exercised by the acceptance suite.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

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


class FitError(Exception):
    """Least-squares system is unusable (too few points, rank deficiency)."""


class SelectionError(Exception):
    """The fitted curve does not expose the inflection the policy requires."""

    def __init__(self, message: str, inflections: Sequence[float] = ()):
        super().__init__(message)
        self.inflections = tuple(inflections)


def default_grid(hi: float = 2.0, step: float = 0.01) -> np.ndarray:
    return np.arange(0.0, hi, step)


@dataclass(frozen=True)
class ExceedanceCurve:
    """Exact exceedance counts and ratio curves over an ascending grid."""

    grid: np.ndarray
    e_counts: np.ndarray
    d_counts: np.ndarray
    ratio_dd: np.ndarray
    ratio_de: np.ndarray  # nan where e_counts == 0
    n_disputed: int


@dataclass(frozen=True)
class RatioCurve:
    """Ratio curves alone, e.g. read back from a fixture CSV."""

    grid: np.ndarray
    ratio_dd: np.ndarray
    ratio_de: np.ndarray


def build_exceedance_curve(
    values: Mapping[str, float],
    disputed: Iterable[str],
    grid: Sequence[float],
) -> ExceedanceCurve:
    """Count entities (all / disputed) whose value is >= each grid point."""
    if not values:
        raise ValueError("no entity values supplied")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) == 0 or np.any(np.diff(grid) < 0):
        raise ValueError("grid must be a non-empty ascending sequence")
    vals = np.asarray(sorted(values.values()), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("entity values must be finite")
    disputed = set(disputed)
    disputed_vals = np.asarray(sorted(v for k, v in values.items() if k in disputed), dtype=float)
    e_counts = len(vals) - np.searchsorted(vals, grid, side="left")
    d_counts = len(disputed_vals) - np.searchsorted(disputed_vals, grid, side="left")
    n_disputed = len(disputed_vals)
    ratio_dd = d_counts / n_disputed if n_disputed else np.zeros_like(grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio_de = np.where(e_counts > 0, d_counts / np.maximum(e_counts, 1), np.nan)
    return ExceedanceCurve(
        grid=grid,
        e_counts=e_counts.astype(int),
        d_counts=d_counts.astype(int),
        ratio_dd=ratio_dd.astype(float),
        ratio_de=ratio_de.astype(float),
        n_disputed=n_disputed,
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
        return _polyval(np.asarray(self.scaled_coefficients), t)


def _polyval(coef: np.ndarray, t):
    out = np.zeros_like(t, dtype=float)
    for c in coef[::-1]:
        out = out * t + c
    return out


def _poly_derivative(coef: np.ndarray, order: int = 1) -> np.ndarray:
    c = np.asarray(coef, dtype=float)
    for _ in range(order):
        if len(c) <= 1:
            return np.zeros(1)
        c = c[1:] * np.arange(1, len(c))
    return c


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
    v = _polyval(coef, t)
    roots = []
    for i in range(len(t) - 1):
        if v[i] == 0.0:
            continue
        if v[i] * v[i + 1] < 0.0:
            a, b, fa = t[i], t[i + 1], v[i]
            while b - a > 1e-12:
                m = 0.5 * (a + b)
                fm = float(_polyval(coef, np.asarray(m)))
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
    if fit.degree < 3:
        raise ValueError("inflection points need degree >= 3")
    d1 = _poly_derivative(fit.scaled_coefficients, 1)
    d2 = _poly_derivative(fit.scaled_coefficients, 2)
    lo, hi = fit.domain
    alpha = 2.0 / (hi - lo)
    out = []
    for r_t in _bracketed_roots(d2, -1.0, 1.0):
        eps = 1e-6
        after = float(_polyval(d2, np.asarray(min(r_t + eps, 1.0))))
        direction = 1 if after > 0 else -1
        slope = abs(float(_polyval(d1, np.asarray(r_t)))) * alpha
        x = lo + (r_t + 1.0) * (hi - lo) / 2.0
        out.append((x, direction, slope))
    return out


def inflection_points(fit: PolynomialFit) -> list[float]:
    """Abscissae strictly inside the domain where the fit's concavity flips."""
    return [x for x, _, _ in _classified_inflections(fit)]


@dataclass(frozen=True)
class Policy:
    """How to pick the threshold from a fitted curve's inflection structure."""

    kind: str  # 'second_concavity_change' | 'index'
    k: int = 1

    @classmethod
    def second_concavity_change(cls) -> "Policy":
        return cls(kind="second_concavity_change")

    @classmethod
    def index(cls, k: int) -> "Policy":
        if k < 1:
            raise ValueError("index policy is 1-based")
        return cls(kind="index", k=k)

    def describe(self) -> str:
        return self.kind if self.kind != "index" else f"index({self.k})"


@dataclass(frozen=True)
class MeasureConfig:
    series: str
    degree: int
    policy: Policy


# Calibrated against fixtures/fig2a..fig3b; see tests/test_acceptance.py.
DEFAULT_MEASURE_CONFIGS: dict[str, MeasureConfig] = {
    MEASURE_PRESENTATION: MeasureConfig(RATIO_DD, 10, Policy.second_concavity_change()),
    MEASURE_RESPONSE: MeasureConfig(RATIO_DE, 12, Policy.index(3)),
    MEASURE_ENGAGEMENT: MeasureConfig(RATIO_DD, 9, Policy.index(2)),
}


@dataclass(frozen=True)
class ThresholdSelection:
    threshold: float
    inflections: tuple[float, ...]
    fit: PolynomialFit
    policy: Policy
    series: str

    def to_json_dict(self, measure: str = "") -> dict:
        return {
            "measure": measure,
            "threshold": self.threshold,
            "inflections": list(self.inflections),
            "degree": self.fit.degree,
            "rmse": self.fit.rmse,
            "policy": self.policy.describe(),
            "series": self.series,
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


def select_threshold(
    curve,
    policy: Policy | None = None,
    degree: int = 10,
    series: str = RATIO_DD,
) -> ThresholdSelection:
    """Fit the chosen ratio series and apply the selection policy.

    Non-finite ratio points (undefined D/E where no entity survives the cut)
    are dropped from the fit, never imputed.  The result is clamped to the
    grid range.
    """
    policy = policy or Policy.second_concavity_change()
    if series not in (RATIO_DD, RATIO_DE):
        raise ValueError(f"unknown series {series!r}")
    grid = np.asarray(curve.grid, dtype=float)
    y = np.asarray(getattr(curve, series), dtype=float)
    fit = fit_polynomial(grid, y, degree)
    classified = _classified_inflections(fit)
    roots = [x for x, _, _ in classified]

    if policy.kind == "second_concavity_change":
        decreasing = float(fit(grid[0])) >= float(fit(grid[-1]))
        chosen = _second_concavity_change(classified, decreasing)
    elif policy.kind == "index":
        if not roots:
            raise SelectionError("fit has no inflection points", roots)
        # fall back to the first inflection when the fit has fewer than k
        chosen = roots[policy.k - 1] if len(roots) >= policy.k else roots[0]
    else:
        raise ValueError(f"unknown policy kind {policy.kind!r}")

    chosen = float(min(max(chosen, grid[0]), grid[-1]))
    return ThresholdSelection(
        threshold=chosen,
        inflections=tuple(roots),
        fit=fit,
        policy=policy,
        series=series,
    )


@dataclass(frozen=True)
class ThresholdResult:
    """Selected cuts for the three measures plus the supporting inflections."""

    delta_p: float
    delta_r: float | None
    rho_e: float | None
    inflections: dict[str, tuple[float, ...]]
    policy: dict[str, str]

    def to_json_dict(self) -> dict:
        return {
            "delta_p": self.delta_p,
            "delta_r": self.delta_r,
            "rho_e": self.rho_e,
            "inflections": {k: list(v) for k, v in self.inflections.items()},
            "policy": dict(self.policy),
        }


def select_thresholds(
    curves: Mapping[str, object],
) -> tuple[ThresholdResult, dict[str, ThresholdSelection]]:
    """Run selection for every supplied measure curve with its default config."""
    if MEASURE_PRESENTATION not in curves:
        raise ValueError("presentation-distance curve is required")
    selections: dict[str, ThresholdSelection] = {}
    for measure, curve in curves.items():
        cfg = DEFAULT_MEASURE_CONFIGS.get(measure)
        if cfg is None:
            raise ValueError(f"no measure config for {measure!r}")
        selections[measure] = select_threshold(
            curve, policy=cfg.policy, degree=cfg.degree, series=cfg.series
        )
    result = ThresholdResult(
        delta_p=selections[MEASURE_PRESENTATION].threshold,
        delta_r=(
            selections[MEASURE_RESPONSE].threshold if MEASURE_RESPONSE in selections else None
        ),
        rho_e=(
            selections[MEASURE_ENGAGEMENT].threshold if MEASURE_ENGAGEMENT in selections else None
        ),
        inflections={m: s.inflections for m, s in selections.items()},
        policy={m: s.policy.describe() for m, s in selections.items()},
    )
    return result, selections


def load_fixture_curve(path: str | Path) -> RatioCurve:
    """Read a delta,ratio_dd,ratio_de CSV (literal 'nan' marks undefined D/E)."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"fixture file not found: {path}")
    grid, dd, de = [], [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = {"delta", "ratio_dd", "ratio_de"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValueError(f"{path}: expected columns delta,ratio_dd,ratio_de")
        for row in reader:
            grid.append(float(row["delta"]))
            dd.append(float(row["ratio_dd"]))
            de.append(float(row["ratio_de"]))
    return RatioCurve(
        grid=np.asarray(grid), ratio_dd=np.asarray(dd), ratio_de=np.asarray(de)
    )
