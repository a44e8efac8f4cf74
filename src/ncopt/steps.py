"""Search-direction computation, certification, and step-sizing formulas.

Directions come with certificates checked by direct evaluation, each at the
constant the constructed direction meets: a negative-curvature direction d
must satisfy d'Hd <= lambda*||d||^2 < 0, g'd <= 0 and ||d|| <= |lambda|;
a descent direction s must make an angle with -g of cosine at least
DESCENT_COSINE[strategy].  Certificates are evaluated with a rounding
guard of 1e-12 relative to each term's scale (||H||*||d||^2 for d'Hd),
since several hold with equality.  H and lambda are read from one
`leftmost_eigenpair` result, its `matrix` (a nearly symmetric input
symmetrized) and `leftmost_value`, never from an H passed beside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ncopt.linalg import CONDITION_CAP, SMALLEST_NORMAL, modified_newton_shift, norm

_CERT_SLACK = 1e-12
# leftmost eigenvalues above -ZERO_CURVATURE_TOL count as nonnegative
ZERO_CURVATURE_TOL = 1e-12
# LipschitzState's update clamps: smallest and largest increase factors,
# largest decrease factor, floor
RHO, _CLAMP_UP, _CLAMP_DOWN, _ABSOLUTE_FLOOR = 2.0, 1e3, 1e-3, 1e-3

# the cosine with -g each descent strategy's step is certified at: -g has
# cosine 1, and a step solving a system of condition number at most
# CONDITION_CAP has cosine at least 1/CONDITION_CAP
DESCENT_COSINE = {"steepest": 1.0, "modified_newton": 1.0 / CONDITION_CAP}


class ConditionViolation(RuntimeError):
    """A direction or stepsize certificate failed its defining inequality."""


@dataclass
class LipschitzState:
    """Running curvature-constant estimates with their update clamps.

    In-loop increases move an estimate to max(RHO*c, min(1e3*c, hat)), so
    every increase multiplies by at least RHO and at most 1e3.  After an
    accepted step the corresponding estimate settles to
    max(1e-3, 1e-3*c, hat).  Both updates take the field they move by name,
    an UpperModel's `estimate`.
    """

    L_current: float = 1.0
    sigma_current: float = 1.0

    def __post_init__(self):
        # written so that NaN fails each check
        if not (0.0 < self.L_current < math.inf and 0.0 < self.sigma_current < math.inf):
            raise ValueError("estimates must be positive and finite")

    def inflate(self, estimate, hat):
        value = getattr(self, estimate)
        return self._set(estimate, max(RHO * value, min(_CLAMP_UP * value, hat)))

    def settle(self, estimate, hat):
        value = getattr(self, estimate)
        return self._set(estimate, max(_ABSOLUTE_FLOOR, _CLAMP_DOWN * value, hat))

    def _set(self, estimate, value):
        setattr(self, estimate, value)
        return value


def certify_curvature_direction(d, eig, g, check_norm_cap=True):
    """Check the negative-curvature conditions for eig by direct evaluation.

    The norm cap ||d|| <= |lambda| applies to the deterministic
    construction; stochastic directions are scaled against the gradient
    estimate instead and skip it via check_norm_cap=False.
    """
    H, lam = eig.matrix, eig.leftmost_value
    g = None if g is None else np.asarray(g, dtype=float)
    nd2 = float(d @ d)
    quad = float(d @ H @ d)
    # every comparison with NaN is false, so the checks below would pass it
    if not (math.isfinite(nd2) and math.isfinite(quad)):
        raise ConditionViolation("curvature direction or d'Hd is not finite")
    if nd2 == 0.0:
        raise ConditionViolation("curvature direction is zero")
    # d'Hd is rounded relative to ||H||*||d||^2, which |lambda|*||d||^2
    # understates when H is ill-conditioned
    scale = max(1.0, norm(H) * nd2)
    if quad > lam * nd2 + _CERT_SLACK * scale:
        raise ConditionViolation(
            "curvature condition failed: d'Hd=%.6e > lambda*||d||^2=%.6e"
            % (quad, lam * nd2)
        )
    if quad >= _CERT_SLACK * scale:
        raise ConditionViolation("d'Hd must be negative, got %.6e" % quad)
    if g is not None and float(g @ d) > _CERT_SLACK * max(
        1.0, norm(g) * math.sqrt(nd2)
    ):
        raise ConditionViolation("g'd must be nonpositive")
    if check_norm_cap and math.sqrt(nd2) > abs(lam) * (1.0 + _CERT_SLACK):
        raise ConditionViolation("||d|| exceeds |lambda|")


def negative_curvature_direction(eig, g):
    """Certified direction of negative curvature at a point with gradient g,
    for the Hessian of the `leftmost_eigenpair` result eig.

    For `leftmost_eigenpair(H, g)`, eig's vector is the unit vector of the
    leftmost eigenspace most aligned with -g when the eigenvalue is
    repeated.  Zero when the leftmost eigenvalue is above
    -ZERO_CURVATURE_TOL; otherwise that vector scaled to |lambda| and
    signed so that g'd <= 0 up to rounding, certified before return.
    """
    lam = eig.leftmost_value
    if lam >= -ZERO_CURVATURE_TOL:
        return np.zeros_like(eig.leftmost_vector)
    g = None if g is None else np.asarray(g, dtype=float)
    d = abs(lam) * eig.leftmost_vector
    # a vector orthogonal to g up to rounding keeps its fixed sign, so the
    # sign does not follow rounding noise; the certificate allows this g'd
    if g is not None and float(g @ d) > _CERT_SLACK * max(1.0, norm(g) * norm(d)):
        d = -d
    certify_curvature_direction(d, eig, g)
    return d


def check_strategy(strategy):
    """Raise ValueError unless `strategy` names a descent strategy."""
    if strategy not in DESCENT_COSINE:
        raise ValueError("unknown strategy %r (options: %s)"
                         % (strategy, ", ".join(DESCENT_COSINE)))


def descent_direction(strategy, g, eig=None):
    """Descent direction by steepest descent or a modified-Newton solve.

    Returns s, whose realized cosine -g's/(||s|| ||g||) must meet
    DESCENT_COSINE[strategy], or a zero step at a zero gradient.
    modified_newton requires eig, the `leftmost_eigenpair` result of the
    Hessian, whose matrix and decomposition the shift and solve reuse.
    """
    check_strategy(strategy)
    g = np.asarray(g, dtype=float)
    gnorm = norm(g)
    if gnorm == 0.0:
        return np.zeros_like(g)
    if strategy == "steepest":
        s = -g
    else:
        if eig is None:
            raise ValueError("modified_newton strategy needs the eigenpair")
        _, solve = modified_newton_shift(eig)
        s = solve(-g)
    scale = norm(s) * gnorm
    if SMALLEST_NORMAL <= scale < math.inf:
        cosine = float(-(g @ s) / scale)
    else:
        # ||s|| ||g|| overflowed or fell below the normal range, where g's
        # loses its low bits; each vector scaled to a largest entry of 1
        # has the same cosine, and an infinite or NaN entry still makes it
        # NaN
        g1, s1 = g / np.abs(g).max(), s / np.abs(s).max()
        cosine = float(-(g1 @ s1) / (norm(s1) * norm(g1)))
    # written so that a NaN cosine (an overflowed step) fails it
    if not cosine >= DESCENT_COSINE[strategy] - _CERT_SLACK:
        raise ConditionViolation("descent cosine %.6e below required %.6e"
                                 % (cosine, DESCENT_COSINE[strategy]))
    return s


@dataclass(frozen=True)
class UpperModel:
    """Upper model of f along one nonzero direction p at an iterate.

    A descent step gets the quadratic model in L,
    m(t) = -t g'p - L/2 t^2 p'p; a curvature step the cubic model in sigma,
    m(t) = -t g'p - t^2/2 p'Hp - sigma/6 t^3 ||p||^3.  The scalars are
    computed once per iterate; the stepsize, the reduction and the hat
    constant read them and the model's `estimate` in a LipschitzState.  A
    reduction that is not finite, a hat denominator that overflows or
    underflows to 0, raises ConditionViolation.
    """

    kind: str           # the step it sizes: "descent" or "curvature"
    estimate: str       # the LipschitzState field it reads and updates
    direction: np.ndarray
    gp: float           # g'p
    norm: float         # ||p||
    pp: float = math.nan     # p'p, quadratic model
    pHp: float = math.nan    # p'Hp, cubic model
    norm3: float = math.nan  # ||p||^3, cubic model

    @classmethod
    def quadratic(cls, g, s):
        return cls("descent", "L_current", s, float(g @ s), norm(s),
                   pp=float(s @ s))

    @classmethod
    def cubic(cls, g, d, H):
        d_norm = norm(d)
        try:
            return cls("curvature", "sigma_current", d, float(g @ d), d_norm,
                       pHp=float((d @ H) @ d), norm3=d_norm ** 3)
        except OverflowError:
            raise ConditionViolation("||d||^3 overflows at ||d||=%r" % d_norm) from None

    def stepsize(self, lipschitz):
        """The model's unique positive maximizer: -g'p / (L p'p), or the
        positive root of the cubic model's derivative.  g'p >= 0 along a
        descent step, or a nonpositive root, means a certificate is broken
        and raises; so does a stepsize that under- or overflows to 0 or
        inf."""
        c = getattr(lipschitz, self.estimate)
        if self.kind == "descent":
            if self.gp >= 0.0:
                raise ConditionViolation("g's must be negative for a descent step")
            denominator = c * self.pp
            alpha = -self.gp / denominator if denominator else math.inf
            # 0 or inf only where p'p or c*p'p under- or overflowed
            if not 0.0 < alpha < math.inf:
                raise ConditionViolation("descent stepsize %r not positive and finite"
                                         % alpha)
            return alpha
        disc = self.pHp * self.pHp - 2.0 * c * self.norm3 * self.gp
        beta = (-self.pHp + np.sqrt(disc)) / (c * self.norm3)
        # nonpositive where a certificate is broken; inf where c*||d||^3
        # underflowed or the root overflowed
        if not 0.0 < beta < math.inf:
            raise ConditionViolation(
                "curvature stepsize %r not positive and finite" % float(beta))
        return beta

    def reduction(self, lipschitz, t):
        """The decrease m(t) the model predicts for stepsize t."""
        c = getattr(lipschitz, self.estimate)
        try:
            if self.kind == "descent":
                m = float(-t * self.gp - 0.5 * c * t ** 2 * self.pp)
            else:
                m = float(-t * self.gp - 0.5 * t ** 2 * self.pHp
                          - (c / 6.0) * t ** 3 * self.norm3)
        except OverflowError:
            m = math.inf
        # a np.float64 stepsize (the curvature root) overflows to inf or
        # NaN where a Python float raises
        if not math.isfinite(m):
            raise ConditionViolation("model reduction overflows at t=%r" % float(t))
        return m

    def hat(self, lipschitz, t, reduction, f_trial, f_current):
        """The constant that makes the model's reduction at stepsize t match
        the observed decrease f_current - f_trial."""
        if t <= 0.0 or self.norm <= 0.0:
            raise ValueError("stepsize and direction norm must be positive")
        gap = f_trial - f_current + reduction
        c = getattr(lipschitz, self.estimate)
        try:
            if self.kind == "descent":
                factor, denominator = 2.0, t ** 2 * self.norm ** 2
            else:
                factor, denominator = 6.0, t ** 3 * self.norm3
        except OverflowError:
            denominator = math.inf
        if denominator == math.inf:
            raise ConditionViolation("hat constant overflows at t=%r" % float(t))
        if denominator == 0.0:
            raise ConditionViolation("hat constant's denominator underflows to 0 "
                                     "at t=%r" % float(t))
        return c + factor * gap / denominator


def upper_models(g, s, d, H):
    """One UpperModel per nonzero direction, the descent model first."""
    models = [UpperModel.quadratic(g, s)] if s.any() else []
    if d.any():
        models.append(UpperModel.cubic(g, d, H))
    return models


def optimal_stepsizes(models, lipschitz):
    """Each model's optimal stepsize at the current estimates and the
    reduction it predicts there, as (model, stepsize, reduction) triples."""
    trials = []
    for model in models:
        t = model.stepsize(lipschitz)
        trials.append((model, t, model.reduction(lipschitz, t)))
    return trials
