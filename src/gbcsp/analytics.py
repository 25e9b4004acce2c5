"""Closed-form cost analytics for backtracking on Model GB instances.

Exact quantities
  * extend_probability(i): chance that one random constraint still admits a
    compatible tuple once the first i variables hold values; equals
    1 - p * i(i-1)...(i-k+1) / (n(n-1)...(n-k+1)), exactly 1 for i < k.
  * log_exact_expected_nodes: ln of 1 + d * sum_i d**i * g_i**t, the expected
    search-tree size of the all-solutions backtracker, evaluated end-to-end
    in the log domain (the sum overflows any fixed-width float well before
    n reaches interesting sizes).  Each g_i is one int/int true division
    (D P(n,k) - q P(i,k)) / (D P(n,k)), with D = d**k and P the falling
    factorial; Python rounds it correctly, so it equals
    float(extend_probability(i)) bit for bit.
  * log_expected_solutions: ln of d**n * (1-p)**t.

Thresholds
  * r_critical = -ln d / ln(1-p): above this density the expected solution
    count vanishes and instances are almost surely unsatisfiable.
  * uc_bound: density below which the unit-constraint heuristic succeeds
    with probability bounded away from zero (equals 1 for k = 2).
  * r_regime_boundary (r0) = (1-p) ln d / (p k): where the maximizer of the
    rate function leaves the boundary x = 1.

Asymptotics
  The summand of the expected-node sum is, per level fraction x = i/n,
  weight(x) * exp(n * f(x)) with rate function

      f(x) = x ln d + r ln(1 - p x**k),          0 <= x <= 1,

  and a smooth weight phi(x) = d * exp(r * sigma(x) / (1 - p x**k)) where
  sigma(x) = (k(k-1)p/2) (x**(k-1) - x**k) collects the O(1/n) part of the
  falling-factorial ratio.  Laplace evaluation of the sum gives

      T ~ 1 + prefactor(n, r) * exp(n * F(r)),   F(r) = max f,

  with the prefactor depending on where the maximum sits:
    r > r0 (interior max at zeta):  phi(zeta) * sqrt(2 pi n / -f''(zeta))
    r = r0 (flat boundary max):     phi(1)/2  * sqrt(2 pi n / -f''(1))
    r < r0 (boundary max, f'(1)>0): phi(1) / (d**(1 - r/r0) - 1)
  The boundary between the cases is measure zero, so case selection uses a
  relative band |r - r0| <= band * r0 (default 1e-9).  Inside the band with
  r > r0, F still comes from the interior maximum while zeta reads 1.

  predict bisects for zeta at most once, and its tol governs every
  asymptotic field: zeta, F, the prefactor and the asymptote.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .model import Params

CRITICAL_BAND = 1e-9
DEFAULT_TOL = 1e-12
NEAR_BAND_FACTOR = 1e3  # "near the critical band" = within band * this


class RegimeError(ValueError):
    """Raised when an operation needs a different density regime."""


@dataclass(frozen=True)
class AnalyticParams:
    """Real-valued (d, k, p, r) for continuous sweeps; requires the strict
    regime 0 < p < 1/d**(k-1) and r > 0."""

    d: float
    k: int
    p: float
    r: float

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"domain size must be >= 2, got {self.d}")
        if not isinstance(self.k, int) or self.k < 2:
            raise ValueError(f"arity must be an integer >= 2, got {self.k!r}")
        if not 0.0 < self.p < self.d ** (1 - self.k):
            raise ValueError(
                f"tightness p={self.p} outside the strict range (0, 1/d^(k-1)={self.d ** (1 - self.k)})"
            )
        if self.r <= 0.0:
            raise ValueError(f"density must be positive, got r={self.r}")

    @classmethod
    def from_params(cls, params: Params) -> "AnalyticParams":
        if not params.strict:
            raise RegimeError(f"analytics requires q < d, got q={params.q}, d={params.d}")
        if params.t < 1:
            raise RegimeError("analytics requires at least one constraint (r > 0)")
        return cls(d=float(params.d), k=params.k, p=params.p, r=params.r)


# --- exact path ---------------------------------------------------------


def extend_probability(i: int, params: Params) -> Fraction:
    """Exact rational survival probability of one random constraint at level i."""
    if not params.strict:
        raise RegimeError(f"extend probability needs q < d, got q={params.q}, d={params.d}")
    if not 0 <= i <= params.n - 1:
        raise ValueError(f"level {i} outside [0, {params.n - 1}]")
    den = params.d**params.k * math.perm(params.n, params.k)
    return Fraction(den - params.q * math.perm(i, params.k), den)


def extend_probability_float(i: int, n: int, k: int, p: float) -> float:
    prod = 1.0
    for j in range(k):
        prod *= (i - j) / (n - j)
    return 1.0 - p * prod


def _log_node_sum(d: float, t: float, survivals) -> float:
    """ln(1 + sum_i d**(i+1) * g_i**t) over the per-level survivals g_i, by
    one log-sum-exp over the n+1 terms."""
    ln_d = math.log(d)
    terms = [0.0]
    terms.extend((i + 1) * ln_d + t * math.log(g) for i, g in enumerate(survivals))
    m = max(terms)
    if math.isinf(m):
        return m
    return m + math.log(math.fsum(math.exp(x - m) for x in terms))


def _logaddexp(a: float, b: float) -> float:
    if a < b:
        a, b = b, a
    if math.isinf(a):
        return a
    return a + math.log1p(math.exp(b - a))


def log_exact_expected_nodes(params: Params) -> float:
    """ln(1 + d * sum_{i<n} d**i * g_i**t), each g_i correctly rounded."""
    if not params.strict:
        raise RegimeError(f"expected-node formula needs q < d, got q={params.q}, d={params.d}")
    n, k, q = params.n, params.k, params.q
    den = params.d**k * math.perm(n, k)
    survivals = ((den - q * math.perm(i, k)) / den for i in range(n))
    return _log_node_sum(params.d, params.t, survivals)


def log_exact_expected_nodes_at(n: int, ap: AnalyticParams) -> float:
    """Same sum with a real-valued constraint count t = r * n."""
    survivals = (extend_probability_float(i, n, ap.k, ap.p) for i in range(n))
    return _log_node_sum(ap.d, ap.r * n, survivals)


def log_expected_solutions(params: Params) -> float:
    """ln of d**n * (1-p)**t, the expected number of solutions."""
    return params.n * math.log(params.d) + params.t * math.log1p(-params.p)


# --- thresholds ----------------------------------------------------------


def r_critical(d: float, p: float) -> float:
    """First-moment unsatisfiability threshold -ln d / ln(1-p)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"tightness must lie in (0,1), got {p}")
    return -math.log(d) / math.log1p(-p)


def uc_bound(d: float, k: int) -> float:
    """Density bound under which the unit-constraint heuristic keeps a
    positive success probability; the k = 2 limit is exactly 1."""
    if d < 2 or k < 2:
        raise ValueError(f"need d >= 2 and k >= 2, got d={d}, k={k}")
    if k == 2:
        return 1.0
    return 2.0 * d ** (k - 2) / (k * (d - 1) ** (k - 2)) * ((k - 1) / (k - 2)) ** (k - 2)


def r_regime_boundary(d: float, k: int, p: float) -> float:
    """r0 = (1-p) ln d / (p k), where the rate-function maximizer detaches
    from x = 1."""
    if not 0.0 < p < d ** (1 - k):
        raise ValueError(f"tightness p={p} outside the strict range")
    return (1.0 - p) * math.log(d) / (p * k)


# --- rate function -------------------------------------------------------


def rate_function(x: float, ap: AnalyticParams) -> float:
    return x * math.log(ap.d) + ap.r * math.log1p(-ap.p * x**ap.k)


def rate_prime(x: float, ap: AnalyticParams) -> float:
    return math.log(ap.d) - ap.r * ap.p * ap.k * x ** (ap.k - 1) / (1.0 - ap.p * x**ap.k)


def rate_second(x: float, ap: AnalyticParams) -> float:
    k, p, r = ap.k, ap.p, ap.r
    return -r * p * k * ((k - 1) * x ** (k - 2) + p * x ** (2 * k - 2)) / (1.0 - p * x**k) ** 2


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and 0.0 < tol < 1.0):
        raise ValueError(f"tol must be a finite number in (0, 1), got {tol!r}")


def rate_argmax(ap: AnalyticParams, tol: float = DEFAULT_TOL) -> float:
    """Unique interior zero of the rate derivative, for r > r0, by bisection.

    The derivative is strictly decreasing with f'(0) = ln d > 0 > f'(1), so
    bisection always converges; iteration continues to (at least) the
    requested tolerance on both bracket width and residual, and to the
    floating-point floor when that is stricter.  Raises ValueError unless
    tol is finite and in (0, 1).
    """
    _check_tol(tol)
    r0 = r_regime_boundary(ap.d, ap.k, ap.p)
    if ap.r <= r0:
        raise RegimeError(f"no interior maximizer: r={ap.r} <= r0={r0}")
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fp = rate_prime(mid, ap)
        if fp == 0.0:
            return mid
        if fp > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol and abs(rate_prime(0.5 * (lo + hi), ap)) <= tol:
            break
    return 0.5 * (lo + hi)


def _peak(ap: AnalyticParams, tol: float) -> tuple[float, float]:
    """(x, f(x)) at the maximum of the rate function on [0, 1]; bisects only
    for r > r0, where the maximum leaves x = 1.  tol is checked either way."""
    _check_tol(tol)
    x = rate_argmax(ap, tol) if ap.r > r_regime_boundary(ap.d, ap.k, ap.p) else 1.0
    return x, rate_function(x, ap)


def rate_max(ap: AnalyticParams, tol: float = DEFAULT_TOL) -> float:
    """F(r): maximum of the rate function on [0, 1]; always positive."""
    return _peak(ap, tol)[1]


def rate_max_stationary_form(ap: AnalyticParams, tol: float = DEFAULT_TOL) -> float:
    """Algebraically equivalent form of F(r) for r > r0, obtained by
    eliminating r through the stationarity condition; used as a cross-check."""
    z = rate_argmax(ap, tol)
    y = ap.p * z**ap.k
    return (
        math.log(ap.d)
        / (ap.k * ap.p * z ** (ap.k - 1))
        * (ap.k * y + (1.0 - y) * math.log1p(-y))
    )


def survival_correction(x: float, k: int, p: float) -> float:
    """sigma(x): O(1/n) coefficient of the per-level survival probability."""
    return 0.5 * k * (k - 1) * p * (x ** (k - 1) - x**k)


def log_weight(x: float, ap: AnalyticParams) -> float:
    """ln phi(x), the smooth per-level weight of the asymptotic summand."""
    sigma = survival_correction(x, ap.k, ap.p)
    return math.log(ap.d) + ap.r * sigma / (1.0 - ap.p * x**ap.k)


# --- asymptotic estimate --------------------------------------------------


def classify_regime(ap: AnalyticParams, band: float = CRITICAL_BAND) -> str:
    r0 = r_regime_boundary(ap.d, ap.k, ap.p)
    if abs(ap.r - r0) <= band * r0:
        return "critical"
    return "supercritical" if ap.r > r0 else "subcritical"


def _critical_log_prefactor(n: int, ap: AnalyticParams) -> float:
    """ln of phi(1)/2 * sqrt(2 pi n / -f''(1)), the flat-boundary prefactor."""
    return (
        log_weight(1.0, ap)
        - math.log(2.0)
        + 0.5 * math.log(2.0 * math.pi * n / -rate_second(1.0, ap))
    )


def _asymptotics(
    n: int, ap: AnalyticParams, tol: float, band: float
) -> tuple[str, float, float, float, float]:
    """(regime, zeta, F, ln prefactor, ln(1 + prefactor * exp(n F))), all from
    one call of _peak."""
    regime = classify_regime(ap, band)
    x, big_f = _peak(ap, tol)
    if regime == "supercritical":
        lp = log_weight(x, ap) + 0.5 * math.log(2.0 * math.pi * n / -rate_second(x, ap))
    elif regime == "critical":
        # with r > r0 inside the band, F keeps the interior maximum
        x = 1.0
        lp = _critical_log_prefactor(n, ap)
    else:
        r0 = r_regime_boundary(ap.d, ap.k, ap.p)
        # denominator d**(1 - r/r0) - 1 > 0 strictly for r < r0
        lp = log_weight(1.0, ap) - math.log(math.expm1((1.0 - ap.r / r0) * math.log(ap.d)))
    return regime, x, big_f, lp, _logaddexp(0.0, lp + n * big_f)


def log_asymptotic_nodes_at(n: int, ap: AnalyticParams) -> tuple[float, float, str]:
    """(ln prefactor, ln(1 + prefactor * exp(n F)), regime)."""
    regime, _, _, lp, lta = _asymptotics(n, ap, DEFAULT_TOL, CRITICAL_BAND)
    return lp, lta, regime


# --- aggregate ------------------------------------------------------------


@dataclass(frozen=True)
class Prediction:
    """Every analytic output for one integer parameter set."""

    regime: str
    zeta: float
    F: float
    log_prefactor: float
    log_T_exact: float
    log_T_asym: float
    r0: float
    r_cr: float
    log_expected_solutions: float
    warnings: tuple[str, ...] = ()


def predict(params: Params, tol: float = DEFAULT_TOL, band: float = CRITICAL_BAND) -> Prediction:
    """Fill every Prediction field for a strict parameter set with t >= 1."""
    ap = AnalyticParams.from_params(params)
    r0 = r_regime_boundary(ap.d, ap.k, ap.p)
    regime, zeta, big_f, lp, lta = _asymptotics(params.n, ap, tol, band)
    warnings: list[str] = []
    if regime == "critical":
        warnings.append(
            "density sits inside the critical band around r0; the boundary-case "
            "prefactor was used (the off-boundary formulas are near-singular here)"
        )
    elif abs(ap.r - r0) <= band * NEAR_BAND_FACTOR * r0:
        lp_c = _critical_log_prefactor(params.n, ap)
        lta_c = _logaddexp(0.0, lp_c + params.n * big_f)
        warnings.append(
            f"density is within {band * NEAR_BAND_FACTOR:g} (relative) of r0; the "
            f"boundary-case estimate would give ln prefactor = {lp_c!r}, "
            f"ln nodes = {lta_c!r}"
        )
    return Prediction(
        regime=regime,
        zeta=zeta,
        F=big_f,
        log_prefactor=lp,
        log_T_exact=log_exact_expected_nodes(params),
        log_T_asym=lta,
        r0=r0,
        r_cr=r_critical(ap.d, ap.p),
        log_expected_solutions=log_expected_solutions(params),
        warnings=tuple(warnings),
    )
