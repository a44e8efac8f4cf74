"""Search-direction computation, certification, and step-sizing formulas.

Directions come with certificates checked by direct evaluation, each at the
constant the constructed direction meets: a negative-curvature direction d
must satisfy d'Hd <= lambda*||d||^2 < 0, g'd <= 0 and ||d|| <= |lambda|;
a descent direction s must make an angle with -g of cosine at least
DESCENT_COSINE[strategy].  Certificates are evaluated with a rounding
guard of 1e-12 relative to each term's scale (||H||*||d||^2 for d'Hd),
since several hold with equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ncopt.linalg import CONDITION_CAP, modified_newton_shift

_CERT_SLACK = 1e-12
# leftmost eigenvalues above -ZERO_CURVATURE_TOL count as nonnegative
ZERO_CURVATURE_TOL = 1e-12
# LipschitzState's update clamps: largest increase and decrease factors, floor
_CLAMP_UP, _CLAMP_DOWN, _ABSOLUTE_FLOOR = 1e3, 1e-3, 1e-3

# the cosine with -g each descent strategy's step is certified at: -g has
# cosine 1, and a step solving a system of condition number at most
# CONDITION_CAP has cosine at least 1/CONDITION_CAP
DESCENT_COSINE = {"steepest": 1.0, "modified_newton": 1.0 / CONDITION_CAP}
# the LipschitzState estimate each model kind reads and updates
_ESTIMATE = {"gradient": "L_current", "hessian": "sigma_current"}


class ConditionViolation(RuntimeError):
    """A direction or stepsize certificate failed its defining inequality."""


@dataclass
class LipschitzState:
    """Running curvature-constant estimates with their update clamps.

    In-loop increases move an estimate to max(rho*c, min(1e3*c, hat)), so
    every increase multiplies by at least rho and at most 1e3.  After an
    accepted step the corresponding estimate settles to
    max(1e-3, 1e-3*c, hat).
    """

    L_current: float = 1.0
    sigma_current: float = 1.0
    rho: float = 2.0

    def __post_init__(self):
        # written so that NaN fails each check
        if not (0.0 < self.L_current < math.inf and 0.0 < self.sigma_current < math.inf):
            raise ValueError("estimates must be positive and finite")
        if not self.rho > 1.0:
            raise ValueError("rho must exceed 1")
        if not self.rho <= _CLAMP_UP:
            raise ValueError("rho must be at most the clamp-up factor %g" % _CLAMP_UP)

    def inflate(self, kind, hat):
        value = getattr(self, _ESTIMATE[kind])
        return self._set(kind, max(self.rho * value, min(_CLAMP_UP * value, hat)))

    def settle(self, kind, hat):
        value = getattr(self, _ESTIMATE[kind])
        return self._set(kind, max(_ABSOLUTE_FLOOR, _CLAMP_DOWN * value, hat))

    def _set(self, kind, value):
        setattr(self, _ESTIMATE[kind], value)
        return value


@dataclass
class StepSizes:
    """Model-optimal stepsizes; a missing direction leaves its entry None."""

    alpha: float | None = None
    beta: float | None = None


def certify_curvature_direction(d, H, lam, g, check_norm_cap=True):
    """Check the negative-curvature conditions by direct evaluation.

    The norm cap ||d|| <= |lambda| applies to the deterministic
    construction; stochastic directions are scaled against the gradient
    estimate instead and skip it via check_norm_cap=False.
    """
    nd2 = float(d @ d)
    quad = float(d @ H @ d)
    # every comparison with NaN is false, so the checks below would pass it
    if not (math.isfinite(nd2) and math.isfinite(quad)):
        raise ConditionViolation("curvature direction or d'Hd is not finite")
    if nd2 == 0.0:
        raise ConditionViolation("curvature direction is zero")
    # d'Hd is rounded relative to ||H||*||d||^2, which |lambda|*||d||^2
    # understates when H is ill-conditioned
    scale = max(1.0, float(np.linalg.norm(H)) * nd2)
    if quad > lam * nd2 + _CERT_SLACK * scale:
        raise ConditionViolation(
            "curvature condition failed: d'Hd=%.6e > lambda*||d||^2=%.6e"
            % (quad, lam * nd2)
        )
    if quad >= _CERT_SLACK * scale:
        raise ConditionViolation("d'Hd must be negative, got %.6e" % quad)
    if g is not None and float(g @ d) > _CERT_SLACK * max(
        1.0, float(np.linalg.norm(g)) * np.sqrt(nd2)
    ):
        raise ConditionViolation("g'd must be nonpositive")
    if check_norm_cap and np.sqrt(nd2) > abs(lam) * (1.0 + _CERT_SLACK):
        raise ConditionViolation("||d|| exceeds |lambda|")


def negative_curvature_direction(eig, H, g):
    """Certified direction of negative curvature at a point with Hessian H
    and gradient g.

    `eig` must be the `leftmost_eigenpair(H, g)` result for this same H and
    g, so its vector is the unit vector of the leftmost eigenspace most
    aligned with -g when the eigenvalue is repeated.  Zero when the leftmost
    eigenvalue is above -ZERO_CURVATURE_TOL; otherwise that vector scaled
    to |lambda| and signed so that g'd <= 0 up to rounding, certified
    before return.
    """
    lam = eig.leftmost_value
    if lam >= -ZERO_CURVATURE_TOL:
        return np.zeros_like(eig.leftmost_vector)
    g = None if g is None else np.asarray(g, dtype=float)
    d = abs(lam) * eig.leftmost_vector
    # a vector orthogonal to g up to rounding keeps its fixed sign, so the
    # sign does not follow rounding noise; the certificate allows this g'd
    if g is not None and float(g @ d) > _CERT_SLACK * max(
        1.0, float(np.linalg.norm(g) * np.linalg.norm(d))
    ):
        d = -d
    if np.any(d != 0.0):
        certify_curvature_direction(d, H, lam, g)
    return d


def check_strategy(strategy):
    """Raise ValueError unless `strategy` names a descent strategy."""
    if strategy not in DESCENT_COSINE:
        raise ValueError("unknown strategy %r (options: %s)"
                         % (strategy, ", ".join(DESCENT_COSINE)))


def descent_direction(strategy, g, H=None, eig=None):
    """Descent direction by steepest descent or a modified-Newton solve.

    Returns s, whose realized cosine -g's/(||s|| ||g||) must meet
    DESCENT_COSINE[strategy].  For modified_newton, eig is the
    `leftmost_eigenpair` result for H, whose decomposition the shift and
    solve reuse; the caller's solver loop has factored H already, so it is
    required.
    """
    check_strategy(strategy)
    g = np.asarray(g, dtype=float)
    gnorm = float(np.linalg.norm(g))
    if gnorm == 0.0:
        raise ValueError("descent direction undefined at a zero gradient")
    if strategy == "steepest":
        s = -g
    else:
        if H is None or eig is None:
            raise ValueError("modified_newton strategy needs the Hessian and "
                             "its leftmost eigenpair")
        _, solve = modified_newton_shift(H, eig)
        s = solve(-g)
    snorm = float(np.linalg.norm(s))
    cosine = float(-(g @ s) / (snorm * gnorm))
    if cosine < DESCENT_COSINE[strategy] - _CERT_SLACK:
        raise ConditionViolation("descent cosine %.6e below required %.6e"
                                 % (cosine, DESCENT_COSINE[strategy]))
    return s


def model_reduction_descent(g, s, lipschitz_L, alpha):
    """Predicted decrease -alpha*g's - 0.5*L*alpha^2*||s||^2 of the
    quadratic upper model along s."""
    g = np.asarray(g, dtype=float)
    s = np.asarray(s, dtype=float)
    return float(-alpha * (g @ s) - 0.5 * lipschitz_L * alpha ** 2 * (s @ s))


def model_reduction_curvature(g, d, H, sigma, beta):
    """Predicted decrease -beta*g'd - 0.5*beta^2*d'Hd - sigma/6*beta^3*||d||^3
    of the cubic upper model along d."""
    g = np.asarray(g, dtype=float)
    d = np.asarray(d, dtype=float)
    curv = float(d @ np.asarray(H, dtype=float) @ d)
    dnorm3 = float(np.linalg.norm(d)) ** 3
    return float(-beta * (g @ d) - 0.5 * beta ** 2 * curv - (sigma / 6.0) * beta ** 3 * dnorm3)


def optimal_stepsizes(g, s, d, H, lipschitz):
    """Unique positive maximizers of the descent and curvature models.

    alpha = -g's / (L ||s||^2); beta is the positive root of the cubic
    model's derivative with c = d'Hd.  A missing (zero) direction leaves the
    corresponding entry None; g's >= 0 with s nonzero means the descent
    certificate is broken and raises.
    """
    g = np.asarray(g, dtype=float)
    alpha = beta = None
    if s is not None:
        s = np.asarray(s, dtype=float)
        ss = float(s @ s)
        if ss > 0.0:
            gs = float(g @ s)
            if gs >= 0.0:
                raise ConditionViolation("g's must be negative for a descent step")
            alpha = -gs / (lipschitz.L_current * ss)
    if d is not None:
        d = np.asarray(d, dtype=float)
        dnorm = float(np.linalg.norm(d))
        if dnorm > 0.0:
            c = float(d @ np.asarray(H, dtype=float) @ d)
            gd = float(g @ d)
            sigma = lipschitz.sigma_current
            dn3 = dnorm ** 3
            disc = c * c - 2.0 * sigma * dn3 * gd
            beta = (-c + np.sqrt(disc)) / (sigma * dn3)
            if not beta > 0.0:
                raise ConditionViolation(
                    "curvature stepsize %r not positive; certificate broken" % beta
                )
    return StepSizes(alpha=alpha, beta=beta)


def lipschitz_hat(kind, f_trial, f_current, model_reduction, stepsize,
                  direction_norm, current_estimate):
    """Constant that makes the model decrease match the observed decrease.

    kind "gradient" uses the quadratic model (factor 2 over the squared
    step); kind "hessian" uses the cubic model (factor 6 over the cubed
    step).
    """
    if stepsize <= 0.0 or direction_norm <= 0.0:
        raise ValueError("stepsize and direction norm must be positive")
    gap = f_trial - f_current + model_reduction
    if kind == "gradient":
        return current_estimate + 2.0 * gap / (stepsize ** 2 * direction_norm ** 2)
    if kind == "hessian":
        return current_estimate + 6.0 * gap / (stepsize ** 3 * direction_norm ** 3)
    raise ValueError("kind must be 'gradient' or 'hessian'")
