"""Channel-level precision limits and the probe-incompatibility upper bound.

The phase bound comes from minimizing the expectation of the squared
phase-derivative of a gauge-equivalent Kraus family over the two free gauge
parameters (alpha, beta); the minimum depends on the probe only through the
sensing-mode photon-number mean and variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateChannel, InvalidInput


@dataclass(frozen=True)
class FundamentalLimits:
    """Single-parameter optima for a photon budget n at transmissivity eta."""

    f_phi_max_s12: float   # phase, loss in one mode (reference lossless)
    f_phi_max_s3: float    # phase, loss in both modes
    f_eta_max: float       # transmissivity
    n: float
    eta: float

    def weights(self):
        """diag(F_phi_max, F_eta_max), the default weights of the scalar bounds."""
        return ((self.f_phi_max_s12, 0.0), (0.0, self.f_eta_max))


@dataclass(frozen=True)
class KrausGauge:
    """Optimal gauge parameters of the phase-derivative minimization."""

    alpha: float
    beta: float


def fundamental_limits(n: float, eta: float) -> FundamentalLimits:
    """Closed-form maxima of the per-parameter information at budget n."""
    if n <= 0:
        raise InvalidInput("photon budget must be positive")
    if not (0.0 < eta < 1.0):
        raise DegenerateChannel(f"limits diverge or vanish at eta = {eta}")
    return FundamentalLimits(
        f_phi_max_s12=4.0 * eta * n / (1.0 - eta),
        f_phi_max_s3=eta * n / (1.0 - eta),
        f_eta_max=n / (eta * (1.0 - eta)),
        n=float(n),
        eta=float(eta),
    )


def gauge_phase_expectation(alpha: float, beta: float, mean_n: float,
                            second_n: float, eta: float) -> float:
    """Expectation of sum_m (d_phi K_m)' (d_phi K_m) in the (alpha, beta) gauge.

    Quadratic in n, so it only needs <n> and <n^2>.  Used as the grid oracle
    for the closed-form minimum below.
    """
    a_coef = eta - alpha * (1.0 - eta)
    n_coef = eta * (1.0 - eta) * (1.0 + alpha) ** 2 + 2.0 * beta * (alpha * (1.0 - eta) - eta)
    return a_coef ** 2 * second_n + n_coef * mean_n + beta ** 2


def phase_qnd_bound(mean_n: float, var_n: float, eta: float):
    """Gauge-minimized phase-information bound 4 eta <n> / (1-eta + eta <n>/Var n).

    Returns (value, gauge).  A vanishing variance pins the photon number and
    kills the bound's phase term: the value degenerates to 0 with the
    limiting gauge (alpha, beta) -> (-1, <n>).
    """
    if not (0.0 < eta < 1.0):
        raise DegenerateChannel(f"bound degenerates at eta = {eta}")
    if var_n <= 0.0:
        return 0.0, KrausGauge(alpha=-1.0, beta=float(mean_n))
    if math.isinf(var_n):
        return 4.0 * eta * mean_n / (1.0 - eta), KrausGauge(alpha=eta / (1.0 - eta),
                                                            beta=0.0)
    denom = var_n * (1.0 - eta) + mean_n * eta
    gauge = KrausGauge(alpha=eta * (var_n - mean_n) / denom,
                       beta=mean_n ** 2 * eta / denom)
    value = 4.0 * eta * mean_n / (1.0 - eta + eta * mean_n / var_n)
    return value, gauge


def probe_incomp_bound(mean_n: float, var_n: float, n_budget: float, eta: float) -> float:
    """Moment-based cap on the normalized information sum of any probe.

    Equals (1/2)(<n>/N)(1/(1 + (<n>/Var n)(eta/(1-eta))) + 1), the phase
    term being phase_qnd_bound over its Var n -> inf value; reaching 1
    requires <n> -> N together with super-Poissonian number statistics.
    """
    if not (0.0 < mean_n <= n_budget):
        raise InvalidInput("need 0 < mean_n <= n_budget")
    phase_part = phase_qnd_bound(mean_n, var_n, eta)[0] * (1.0 - eta) / (4.0 * eta * mean_n)
    return 0.5 * (mean_n / n_budget) * (phase_part + 1.0)
