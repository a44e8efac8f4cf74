"""Search-direction computation, certification, and step-sizing formulas.

Directions come with certificates checked by direct evaluation: a
negative-curvature direction d must satisfy d'Hd <= gamma*lambda*||d||^2 < 0,
g'd <= 0 and ||d|| <= theta*|lambda|; a descent direction s must make an
angle with -g of cosine at least delta.  Certificates are evaluated with a
relative rounding guard of 1e-12 since several hold with equality at the
default constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ncopt.linalg import modified_newton_shift

_CERT_SLACK = 1e-12
# leftmost eigenvalues above -ZERO_CURVATURE_TOL count as nonnegative
ZERO_CURVATURE_TOL = 1e-12
# LipschitzState's update clamps: largest increase and decrease factors, floor
_CLAMP_UP, _CLAMP_DOWN, _ABSOLUTE_FLOOR = 1e3, 1e-3, 1e-3

DESCENT_STRATEGIES = ("steepest", "modified_newton")
# the LipschitzState estimate each model kind reads and updates
_ESTIMATE = {"gradient": "L_current", "hessian": "sigma_current"}


class ConditionViolation(RuntimeError):
    """A direction or stepsize certificate failed its defining inequality."""


@dataclass(frozen=True)
class DirectionCriteria:
    """Constants certifying direction quality; the defaults are all 1."""

    gamma: float = 1.0
    theta: float = 1.0
    delta: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        if not self.theta > 0.0:
            raise ValueError("theta must be positive")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must lie in (0, 1]")


def default_criteria(strategy):
    """The criteria a solver uses with `strategy` when given none: a
    modified-Newton step has cosine 1 with -g only where H is a multiple of
    I, so it is held to delta = 1e-8."""
    return DirectionCriteria(delta=1e-8 if strategy == "modified_newton" else 1.0)


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
        if self.L_current <= 0.0 or self.sigma_current <= 0.0:
            raise ValueError("estimates must be positive")
        if self.rho <= 1.0:
            raise ValueError("rho must exceed 1")
        if self.rho > _CLAMP_UP:
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


def certify_curvature_direction(d, H, lam, g, criteria, check_norm_cap=True):
    """Check the negative-curvature conditions by direct evaluation.

    The norm cap ||d|| <= theta*|lambda| applies to the deterministic
    construction; stochastic directions are scaled against the gradient
    estimate instead and skip it via check_norm_cap=False.
    """
    nd2 = float(d @ d)
    if nd2 == 0.0:
        raise ConditionViolation("curvature direction is zero")
    quad = float(d @ H @ d)
    scale = max(1.0, abs(lam) * nd2)
    if quad > criteria.gamma * lam * nd2 + _CERT_SLACK * scale:
        raise ConditionViolation(
            "curvature condition failed: d'Hd=%.6e > gamma*lambda*||d||^2=%.6e"
            % (quad, criteria.gamma * lam * nd2)
        )
    if quad >= _CERT_SLACK * scale:
        raise ConditionViolation("d'Hd must be negative, got %.6e" % quad)
    if g is not None and float(g @ d) > _CERT_SLACK * max(
        1.0, float(np.linalg.norm(g)) * np.sqrt(nd2)
    ):
        raise ConditionViolation("g'd must be nonpositive")
    if check_norm_cap:
        cap = criteria.theta * abs(lam)
        if np.sqrt(nd2) > cap * (1.0 + _CERT_SLACK):
            raise ConditionViolation("||d|| exceeds theta*|lambda|")


def negative_curvature_direction(eig, H, g, criteria=None):
    """Certified direction of negative curvature at a point with Hessian H
    and gradient g.

    `eig` must be the `leftmost_eigenpair(H, g)` result for this same H and
    g, so its vector is the unit vector of the leftmost eigenspace most
    aligned with -g when the eigenvalue is repeated.  Zero when the leftmost
    eigenvalue is above -ZERO_CURVATURE_TOL; otherwise that vector scaled
    to theta*|lambda| and signed so that g'd <= 0 up to rounding, certified
    before return.
    """
    criteria = criteria or DirectionCriteria()
    lam = eig.leftmost_value
    if lam >= -ZERO_CURVATURE_TOL:
        return np.zeros_like(eig.leftmost_vector)
    g = None if g is None else np.asarray(g, dtype=float)
    d = criteria.theta * abs(lam) * eig.leftmost_vector
    # a vector orthogonal to g up to rounding keeps its fixed sign, so the
    # sign does not follow rounding noise; the certificate allows this g'd
    if g is not None and float(g @ d) > _CERT_SLACK * max(
        1.0, float(np.linalg.norm(g) * np.linalg.norm(d))
    ):
        d = -d
    if np.any(d != 0.0):
        certify_curvature_direction(d, H, lam, g, criteria)
    return d


def descent_direction(strategy, g, H=None, criteria=None, eig=None):
    """Descent direction by steepest descent or a modified-Newton solve.

    Returns s, whose realized cosine -g's/(||s|| ||g||) must meet
    criteria.delta.  For modified_newton, eig is the `leftmost_eigenpair`
    result for H, whose decomposition the shift and solve reuse; the
    caller's solver loop has factored H already, so it is required.
    """
    criteria = criteria or DirectionCriteria()
    g = np.asarray(g, dtype=float)
    gnorm = float(np.linalg.norm(g))
    if gnorm == 0.0:
        raise ValueError("descent direction undefined at a zero gradient")
    if strategy == "steepest":
        s = -g
    elif strategy == "modified_newton":
        if H is None or eig is None:
            raise ValueError("modified_newton strategy needs the Hessian and "
                             "its leftmost eigenpair")
        _, solve = modified_newton_shift(H, eig)
        s = solve(-g)
    else:
        raise ValueError("unknown strategy %r (options: %s)"
                         % (strategy, ", ".join(DESCENT_STRATEGIES)))
    snorm = float(np.linalg.norm(s))
    cosine = float(-(g @ s) / (snorm * gnorm))
    if cosine < criteria.delta - _CERT_SLACK:
        raise ConditionViolation(
            "descent cosine %.6e below required delta %.6e" % (cosine, criteria.delta)
        )
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
