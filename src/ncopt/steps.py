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

from ncopt.linalg import eigenspace_direction, modified_newton_shift

_CERT_SLACK = 1e-12

DESCENT_STRATEGIES = ("steepest", "modified_newton")


class ConditionViolation(RuntimeError):
    """A direction or stepsize certificate failed its defining inequality."""


@dataclass(frozen=True)
class DirectionCriteria:
    """Constants certifying direction quality; the defaults are all 1."""

    gamma: float = 1.0
    theta: float = 1.0
    delta: float = 1.0
    zeta: float = 1.0
    eta: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        if self.theta <= 0.0:
            raise ValueError("theta must be positive")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must lie in (0, 1]")
        if not 0.0 < self.zeta <= 1.0:
            raise ValueError("zeta must lie in (0, 1]")
        if self.eta < 1.0:
            raise ValueError("eta must be at least 1")


@dataclass
class LipschitzState:
    """Running curvature-constant estimates with their update clamps.

    In-loop increases move an estimate to max(rho*c, min(clamp_up*c, hat)),
    so every increase multiplies by at least rho and at most clamp_up.
    After an accepted step the corresponding estimate settles to
    max(absolute_floor, clamp_down*c, hat).
    """

    L_current: float = 1.0
    sigma_current: float = 1.0
    rho: float = 2.0
    clamp_up_factor: float = 1e3
    clamp_down_factor: float = 1e-3
    absolute_floor: float = 1e-3

    def __post_init__(self):
        if self.L_current <= 0.0 or self.sigma_current <= 0.0:
            raise ValueError("estimates must be positive")
        if self.rho <= 1.0:
            raise ValueError("rho must exceed 1")
        if self.clamp_up_factor < self.rho:
            raise ValueError("clamp_up_factor must be at least rho")
        if not 0.0 < self.clamp_down_factor <= 1.0 or self.absolute_floor <= 0.0:
            raise ValueError("invalid clamp configuration")

    def inflate(self, kind, hat):
        value = self.L_current if kind == "gradient" else self.sigma_current
        value = max(self.rho * value, min(self.clamp_up_factor * value, hat))
        if kind == "gradient":
            self.L_current = value
        else:
            self.sigma_current = value
        return value

    def settle(self, kind, hat):
        value = self.L_current if kind == "gradient" else self.sigma_current
        value = max(self.absolute_floor, self.clamp_down_factor * value, hat)
        if kind == "gradient":
            self.L_current = value
        else:
            self.sigma_current = value
        return value


@dataclass
class StepSizes:
    """Model-optimal stepsizes; a missing direction leaves its entry None."""

    alpha: float | None = None
    beta: float | None = None


def direction_from_eigenpair(eig, g, criteria, zero_curvature_tol=1e-12):
    """Negative-curvature direction from an already-computed leftmost pair.

    Returns zero when the leftmost eigenvalue is above -zero_curvature_tol
    (eigenvalues that close to zero are treated as nonnegative to avoid
    amplifying eigenvector noise).  Otherwise the unit vector of the
    leftmost eigenspace picked by `eigenspace_direction` (the one most
    aligned with -g when the eigenvalue is repeated), scaled to
    theta*|lambda| and signed so that g'd <= 0 up to rounding.
    """
    lam = eig.leftmost_value
    if lam >= -zero_curvature_tol:
        return np.zeros_like(eig.leftmost_vector)
    d = criteria.theta * abs(lam) * eigenspace_direction(eig.leftmost_basis, g)
    # a vector orthogonal to g up to rounding keeps its fixed sign, so the
    # sign does not follow rounding noise; the certificate allows this g'd
    if g is not None and float(g @ d) > _CERT_SLACK * max(
        1.0, float(np.linalg.norm(g) * np.linalg.norm(d))
    ):
        d = -d
    return d


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


def negative_curvature_direction(eig, H, g, criteria=None, zero_curvature_tol=1e-12):
    """Certified direction of negative curvature at a point with Hessian H.

    `eig` is the `leftmost_eigenpair` result for H.  Zero when the leftmost
    eigenvalue is (numerically) nonnegative; otherwise
    `direction_from_eigenpair`'s direction, certified before return.
    """
    criteria = criteria or DirectionCriteria()
    g = None if g is None else np.asarray(g, dtype=float)
    d = direction_from_eigenpair(eig, g, criteria, zero_curvature_tol)
    if np.any(d != 0.0):
        certify_curvature_direction(d, H, eig.leftmost_value, g, criteria)
    return d


def descent_direction(strategy, g, H=None, criteria=None, condition_cap=1e8,
                      enforce_norm_band=True, eig=None):
    """Descent direction by steepest descent or a modified-Newton solve.

    Returns s.  The realized cosine -g's/(||s|| ||g||) must meet
    criteria.delta; with enforce_norm_band the ratio ||s||/||g|| must also
    lie in [zeta, eta] (required by the fixed-stepsize method; the adaptive
    method only needs the cosine condition).  For modified_newton, eig (the
    `leftmost_eigenpair` result for H, if already computed) lets the shift
    and solve reuse its decomposition.
    """
    criteria = criteria or DirectionCriteria()
    g = np.asarray(g, dtype=float)
    gnorm = float(np.linalg.norm(g))
    if gnorm == 0.0:
        raise ValueError("descent direction undefined at a zero gradient")
    if strategy == "steepest":
        s = -g
    elif strategy == "modified_newton":
        if H is None:
            raise ValueError("modified_newton strategy needs the Hessian")
        _, solve = modified_newton_shift(H, condition_cap=condition_cap, eig=eig)
        s = solve(-g)
    else:
        raise ValueError("unknown strategy %r (options: %s)"
                         % (strategy, ", ".join(DESCENT_STRATEGIES)))
    snorm = float(np.linalg.norm(s))
    cosine = float(-(g @ s) / (snorm * gnorm))
    ratio = snorm / gnorm
    if cosine < criteria.delta - _CERT_SLACK:
        raise ConditionViolation(
            "descent cosine %.6e below required delta %.6e" % (cosine, criteria.delta)
        )
    if enforce_norm_band and not (
        criteria.zeta - _CERT_SLACK <= ratio <= criteria.eta * (1.0 + _CERT_SLACK)
    ):
        raise ConditionViolation(
            "norm ratio %.6e outside [zeta, eta] = [%g, %g]"
            % (ratio, criteria.zeta, criteria.eta)
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
