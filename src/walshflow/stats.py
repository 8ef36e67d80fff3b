"""Statistical verification: reports, test statistics, reference fits.

Small, composable pieces: a serializable report record, the classical
one-sample statistics used by the verification commands, a power-law
fit for coalescence levels, and the composite marginal-vs-semigroup
battery that compares sampled laws against quadrature references. The
Kolmogorov and chi-square survival functions and the error function are
built here from math, so the package needs numpy alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from walshflow.graph import GraphSpec, PiecewiseFunction, decay_family, slope_family, vector_eval
from walshflow.semigroup import wbm_semigroup_apply

__all__ = [
    "EmptySample",
    "ZeroExpected",
    "InsufficientSamples",
    "MIN_FIT_SAMPLES",
    "TestReport",
    "ks_statistic",
    "chi_square_rays",
    "PowerLawFit",
    "powerlaw_fit_coalescence",
    "folded_gaussian_cdf",
    "default_marginal_functions",
    "marginal_vs_semigroup",
]


class EmptySample(ValueError):
    """A statistic was requested on an empty sample."""


class ZeroExpected(ValueError):
    """A chi-square cell has zero expected count; drop impossible cells."""


class InsufficientSamples(ValueError):
    """Too few samples for a stable fit."""


# fewest merge levels above y that powerlaw_fit_coalescence fits
MIN_FIT_SAMPLES = 1000
# interior cdf window of the coalescence-law regression
_FIT_WINDOW = (0.1, 0.9)
# marginal_vs_semigroup's levels: KS and chi-square p-values must exceed
# their alpha, every test-function z-score must stay within the bound
_KS_ALPHA = 0.01
_CHI_ALPHA = 0.01
_Z_BOUND = 3.0


@dataclass(frozen=True)
class TestReport:
    """One verification outcome, serializable as a single JSON line."""

    __test__ = False  # keep pytest from collecting this despite the name

    name: str
    statistic: float
    threshold: float
    passed: bool
    replicas: int
    p_value: Optional[float] = None
    details: dict[str, float] = field(default_factory=dict)

    def to_json_line(self) -> str:
        payload = {
            "name": self.name,
            "statistic": self.statistic,
            "threshold": self.threshold,
            "passed": self.passed,
            "replicas": self.replicas,
            "p_value": self.p_value,
            "details": self.details,
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json_line(cls, line: str) -> "TestReport":
        raw = json.loads(line)
        return cls(
            name=raw["name"],
            statistic=raw["statistic"],
            threshold=raw["threshold"],
            passed=raw["passed"],
            replicas=raw["replicas"],
            p_value=raw.get("p_value"),
            details={k: float(v) for k, v in raw.get("details", {}).items()},
        )


def ks_statistic(samples: Sequence[float], cdf: Callable[[np.ndarray], np.ndarray]) -> tuple[float, float]:
    """One-sample Kolmogorov-Smirnov statistic against a continuous cdf.

    Returns (D, p); the p-value uses the Stephens small-sample correction
    of the asymptotic Kolmogorov law, accurate at the tails for n >~ 50.
    """
    arr = np.sort(np.asarray(samples, dtype=float))
    n = arr.size
    if n == 0:
        raise EmptySample("KS statistic of an empty sample")
    f = np.asarray(cdf(arr), dtype=float)
    grid = np.arange(1, n + 1) / n
    d_plus = float(np.max(grid - f))
    d_minus = float(np.max(f - (np.arange(n) / n)))
    d = max(d_plus, d_minus)
    root = math.sqrt(n)
    p = _kolmogorov_sf((root + 0.12 + 0.11 / root) * d)
    return d, min(max(p, 0.0), 1.0)


# terms of the Kolmogorov series: past the sixth, each side's terms fall
# below 1e-20 of the first, on its side of the switch at y = 1
_KOLMOGOROV_TERMS = range(1, 7)


def _kolmogorov_sf(y: float) -> float:
    """P(K > y) for the Kolmogorov distribution K.

    The alternating series 2 sum (-1)^(k-1) exp(-2 k^2 y^2) from y = 1
    up, and below 1 the complement of its theta dual,
    sqrt(2 pi) / y sum exp(-(2k - 1)^2 pi^2 / (8 y^2)); each converges
    fast on its side. y > 0, as every KS statistic is at least 1/(2n).
    """
    if y >= 1.0:
        return 2.0 * sum((-1) ** (k - 1) * math.exp(-2.0 * (k * y) ** 2) for k in _KOLMOGOROV_TERMS)
    c = -((math.pi / y) ** 2) / 8.0
    cdf = math.sqrt(2.0 * math.pi) / y * sum(math.exp(c * (2 * k - 1) ** 2) for k in _KOLMOGOROV_TERMS)
    return 1.0 - cdf


def chi_square_rays(counts: Sequence[float], probs: Sequence[float]) -> tuple[float, float]:
    """Pearson chi-square of observed ray counts against a ray law.

    Cells with zero expected mass are a caller error (drop rays the law
    cannot reach before calling); ZeroExpected is raised for them.
    """
    obs = np.asarray(counts, dtype=float)
    p = np.asarray(probs, dtype=float)
    if obs.shape != p.shape or obs.ndim != 1 or obs.size < 2:
        raise ValueError("need matching 1-d counts and probabilities, at least 2 cells")
    if np.any(obs < 0):
        raise ValueError("counts must be nonnegative")
    total = obs.sum()
    if total == 0:
        raise EmptySample("chi-square of an empty sample")
    if np.any(p <= 0.0):
        raise ZeroExpected("a cell has zero expected count")
    expected = total * p / p.sum()
    stat = float(np.sum((obs - expected) ** 2 / expected))
    return stat, _chi_square_sf(obs.size - 1, stat)


def _chi_square_sf(df: int, x: float) -> float:
    """P(X > x) for X chi-square with a positive integer df, at x >= 0.

    The finite recursion Q(k + 2) = Q(k) + (x/2)^(k/2) e^(-x/2) / Gamma(k/2 + 1)
    from Q(2) = e^(-x/2) at even df and Q(1) = erfc(sqrt(x/2)) at odd df;
    every term is positive.
    """
    half = x / 2.0
    if df % 2 == 0:
        k, total = 2, math.exp(-half)
        term = half * total
    else:
        k, total = 1, math.erfc(math.sqrt(half))
        term = math.sqrt(half) * math.exp(-half) / math.gamma(1.5)
    while k < df:
        total += term
        k += 2
        term *= half / (k / 2.0)
    return total


@dataclass(frozen=True)
class PowerLawFit:
    """Fit of log F(u) = lambda * log(1 - y/u) + intercept.

    The intercept absorbs right-censoring (truncated samples rescale the
    empirical cdf by a constant), so only the shape is asserted.
    """

    lambda_hat: float
    intercept: float
    r_squared: float
    n_used: int


def powerlaw_fit_coalescence(levels: Sequence[float], y: float) -> PowerLawFit:
    """Fit the coalescence-level law P(level <= u) = (1 - y/u)^lambda.

    The empirical CDF is evaluated at every distinct level and regressed
    on the log-transformed shape over the interior-quantile window.
    Levels at or below y carry no information (the transform diverges)
    and the outermost quantiles are numerically unstable, so both are
    excluded from the regression.
    """
    arr = np.asarray(levels, dtype=float)
    if arr.size < MIN_FIT_SAMPLES:
        raise InsufficientSamples(f"{arr.size} merge levels, need {MIN_FIT_SAMPLES}")
    distinct, counts = np.unique(arr, return_counts=True)
    cdf = np.cumsum(counts) / arr.size
    lo, hi = _FIT_WINDOW
    keep = (cdf >= lo) & (cdf <= hi) & (distinct > y * (1.0 + 1e-12))
    if np.count_nonzero(keep) < 5:
        raise InsufficientSamples("not enough distinct levels above y in the window")
    x = np.log1p(-y / distinct[keep])
    resp = np.log(cdf[keep])
    design = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(design, resp, rcond=None)
    fitted = design @ coef
    ss_res = float(np.sum((resp - fitted) ** 2))
    ss_tot = float(np.sum((resp - resp.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return PowerLawFit(
        lambda_hat=float(coef[0]),
        intercept=float(coef[1]),
        r_squared=r2,
        n_used=int(np.count_nonzero(keep)),
    )


# math.erf entry by entry; the object array it returns is cast to float
_erf = np.frompyfunc(math.erf, 1, 1)


def folded_gaussian_cdf(t: float) -> Callable[[np.ndarray], np.ndarray]:
    """Distribution of the radius at time t started at the junction."""
    scale = math.sqrt(t)
    return lambda r: np.asarray(_erf(np.asarray(r) / (scale * math.sqrt(2.0))), dtype=float)


def default_marginal_functions(spec: GraphSpec) -> list[tuple[str, PiecewiseFunction]]:
    """Three bounded test functions: radial decay, a radial bump, and a
    ray-dependent profile that couples ray choice to radius."""
    ones = (1.0,) * spec.n_rays
    coeffs = [0.5 + 0.5 * i / max(spec.n_rays - 1, 1) for i in range(spec.n_rays)]
    return [
        ("radial-decay", decay_family(ones)),
        ("radial-bump", slope_family(ones)),
        ("ray-profile", slope_family(coeffs)),
    ]


def _mean_of_function(
    fn: PiecewiseFunction, rays: np.ndarray, radii: np.ndarray
) -> tuple[float, float]:
    values = np.empty_like(radii)
    for ray in np.flatnonzero(np.bincount(rays)):
        mask = rays == ray
        values[mask] = vector_eval(fn.components[int(ray) - 1].value, radii[mask])
    return float(values.mean()), float(values.std(ddof=1))


def marginal_vs_semigroup(
    spec: GraphSpec, t: float, rays: Sequence[int], radii: Sequence[float]
) -> TestReport:
    """Composite battery: sampled time-t marginal from the junction
    against the semigroup.

    Three checks: ray occupancy conditioned on a positive radius against
    the ray weights (chi-square, skipped on a one-ray graph), the radius
    law against the folded Gaussian (KS), and sample means of
    default_marginal_functions against the quadrature values (z-tests);
    each p-value must exceed 1% and each |z| stay within 3. The KS p-value
    is only meaningful for continuum samplers; lattice marginals have a
    discreteness floor and should be compared through the statistic across
    levels instead.
    """
    ray_arr = np.asarray(rays, dtype=int)
    rad_arr = np.asarray(radii, dtype=float)
    if ray_arr.size == 0 or ray_arr.shape != rad_arr.shape:
        raise EmptySample("need matching non-empty ray and radius samples")
    n = ray_arr.size

    details: dict[str, float] = {}
    passed = True

    if spec.n_rays > 1:
        away = rad_arr > 0.0
        counts = np.array([np.sum(ray_arr[away] == k) for k in range(1, spec.n_rays + 1)])
        chi_stat, chi_p = chi_square_rays(counts, np.asarray(spec.alpha))
        details["chi2_stat"] = chi_stat
        details["chi2_p"] = chi_p
        passed = passed and chi_p > _CHI_ALPHA

    ks_stat, ks_p = ks_statistic(rad_arr, folded_gaussian_cdf(t))
    details["ks_stat"] = ks_stat
    details["ks_p"] = ks_p
    passed = passed and ks_p > _KS_ALPHA

    for fn_name, fn in default_marginal_functions(spec):
        reference = wbm_semigroup_apply(fn, spec, spec.origin, t)
        mean, std = _mean_of_function(fn, ray_arr, rad_arr)
        z = (mean - reference) / (std / math.sqrt(n)) if std > 0 else math.inf
        details[f"z_{fn_name}"] = z
        passed = passed and abs(z) <= _Z_BOUND

    return TestReport(
        name="marginal-vs-semigroup",
        statistic=ks_stat,
        threshold=_KS_ALPHA,
        passed=passed,
        replicas=int(n),
        p_value=ks_p,
        details=details,
    )
