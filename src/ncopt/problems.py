"""Objective-function abstraction and the built-in analytic problem suite.

Every problem carries analytic gradient and Hessian.  Function evaluations
are counted in the wrapper so evaluation totals do not depend on solver
branch structure; a solve reports only the evaluations it made.
"""

from __future__ import annotations

import math

import numpy as np

from ncopt.linalg import all_finite


def integer_argument(name, value, minimum):
    """`value` as an int of at least `minimum` (0 or 1).  Any integral
    number passes, 2.0 and np.int64(2) too; anything else, a bool too, is
    a ValueError naming the argument."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            if value == int(value) and value >= minimum:
                return int(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValueError("%s must be a %s integer"
                     % (name, ("nonnegative", "positive")[minimum]))


def real_argument(name, value, positive=True):
    """`value`, unchanged, if it is a finite real number above 0 (at least
    0 where `positive` is false); anything else, NaN, a bool, None or a
    string too, is a ValueError naming the argument."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            if (0.0 < value if positive else 0.0 <= value) and value < math.inf:
                return value
        except (TypeError, ValueError):
            pass
    raise ValueError("%s must be %s and finite"
                     % (name, ("nonnegative", "positive")[positive]))


class EvaluationError(RuntimeError):
    """The objective produced a non-finite value; carries the offending point."""

    def __init__(self, message, x):
        super().__init__(message)
        self.x = np.asarray(x, dtype=float)


class ObjectiveProblem:
    """A twice-differentiable objective with counted evaluations.

    The counts run over the instance's life.  A point of the wrong shape
    or with a non-finite entry is a ValueError and not counted; a
    non-finite value, gradient norm or Hessian entry is an EvaluationError.
    Optional metadata: `lower_bound` (a value the objective never goes
    below), `known_minimizers` (for test assertions only), a documented
    local gradient Lipschitz estimate `local_gradient_lipschitz` for
    fixed-stepsize experiments, and a `default_start`.
    """

    def __init__(self, name, dimension, value_fn, gradient_fn, hessian_fn,
                 lower_bound=None, known_minimizers=None, default_start=None,
                 local_gradient_lipschitz=None):
        self._value_fn = value_fn
        self._gradient_fn = gradient_fn
        self._hessian_fn = hessian_fn
        self._describe(name, dimension, lower_bound, known_minimizers,
                       default_start, local_gradient_lipschitz)

    def _describe(self, name, dimension, lower_bound=None, known_minimizers=None,
                  default_start=None, local_gradient_lipschitz=None):
        """Set the name, dimension, metadata and counters; a subclass that
        defines `_value_fn`, `_gradient_fn` and `_hessian_fn` as methods
        calls this instead of `__init__`."""
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.name = name
        self.dimension = int(dimension)
        self.lower_bound = lower_bound
        self.known_minimizers = (
            None if known_minimizers is None
            else [np.asarray(m, dtype=float) for m in known_minimizers]
        )
        self.default_start = (
            np.zeros(dimension) if default_start is None
            else np.asarray(default_start, dtype=float)
        )
        self.local_gradient_lipschitz = local_gradient_lipschitz
        self.evaluation_count = 0
        self.gradient_count = 0
        self.hessian_count = 0

    def _check_dimension(self, x):
        """x, a float array, if it has the problem's shape (n,)."""
        if x.shape != (self.dimension,):
            raise ValueError(
                "point of dimension %s does not match problem dimension %d"
                % (x.shape, self.dimension)
            )
        return x

    def _check_point(self, x):
        x = self._check_dimension(np.asarray(x, dtype=float))
        if not all_finite(x):
            raise ValueError("point has non-finite coordinates")
        return x

    def _check_points(self, points):
        """points as an (R, n) float array, checked at once: a non-finite
        entry raises `_check_point`'s ValueError."""
        X = np.asarray(points, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dimension:
            raise ValueError("points of shape %s are not rows of dimension %d"
                             % (X.shape, self.dimension))
        if not all_finite(X):
            raise ValueError("point has non-finite coordinates")
        return X

    def evaluate(self, x):
        x = self._check_point(x)
        self.evaluation_count += 1
        value = float(self._value_fn(x))
        if not math.isfinite(value):
            raise EvaluationError("objective evaluated to %r" % value, x)
        return value

    def gradient(self, x):
        x = self._check_point(x)
        self.gradient_count += 1
        return finite_gradient(np.asarray(self._gradient_fn(x), dtype=float), x)

    def hessian(self, x):
        x = self._check_point(x)
        self.hessian_count += 1
        return finite_hessian(np.asarray(self._hessian_fn(x), dtype=float), x)


def finite_gradient(g, x, kind="gradient"):
    """g, if g'g is finite, which proves every entry finite and the norm
    representable; otherwise "<kind> norm is not finite" at x."""
    if not math.isfinite(float(g @ g)):
        raise EvaluationError("%s norm is not finite" % kind, x)
    return g


def finite_hessian(H, x, kind="Hessian"):
    """H, if every entry is finite; otherwise "<kind> has non-finite
    entries" at x."""
    if not all_finite(H):
        raise EvaluationError("%s has non-finite entries" % kind, x)
    return H


def _rotated_spectrum(rng, spectrum):
    """V diag(spectrum) V', symmetrized, with V the Q factor of an n-by-n
    standard normal draw from `rng`: a random symmetric matrix with the
    eigenvalues `spectrum`."""
    n = len(spectrum)
    V, _ = np.linalg.qr(rng.normal(size=(n, n)))
    Q = (V * spectrum) @ V.T
    return 0.5 * (Q + Q.T)


def sphere(n=2):
    """f(x) = 0.5 ||x||^2, the canonical convex sanity check."""
    return ObjectiveProblem(
        name="sphere",
        dimension=n,
        value_fn=lambda x: 0.5 * float(x @ x),
        gradient_fn=lambda x: x.copy(),
        hessian_fn=lambda x: np.eye(n),
        lower_bound=0.0,
        known_minimizers=[np.zeros(n)],
        default_start=np.full(n, 3.0),
        local_gradient_lipschitz=1.0,
    )


def quartic_saddle():
    """f(x, y) = (x^2 - 1)^2 / 4 + y^2 / 2.

    Strict saddle at the origin with Hessian diag(-1, 1); global minima at
    (+-1, 0).  On the box |x|, |y| <= 2 the gradient is 11-Lipschitz and the
    Hessian is sigma-Lipschitz with sigma <= 12.
    """

    def value(x):
        return 0.25 * (x[0] ** 2 - 1.0) ** 2 + 0.5 * x[1] ** 2

    def gradient(x):
        return np.array([x[0] ** 3 - x[0], x[1]])

    def hessian(x):
        return np.diag([3.0 * x[0] ** 2 - 1.0, 1.0])

    return ObjectiveProblem(
        name="quartic_saddle",
        dimension=2,
        value_fn=value,
        gradient_fn=gradient,
        hessian_fn=hessian,
        lower_bound=0.0,
        known_minimizers=[np.array([1.0, 0.0]), np.array([-1.0, 0.0])],
        default_start=np.array([0.0, 0.0]),
        local_gradient_lipschitz=11.0,
    )


def monkey_saddle():
    """Monkey saddle x^3 - 3xy^2 regularized by (x^2 + y^2)^2 / 4.

    In polar form f = r^3 cos(3t) + r^4/4 >= -27/4, attained at r = 3,
    cos(3t) = -1, so the origin is a degenerate critical point (zero
    Hessian) and the three minimizers sit at radius 3.
    """

    def value(x):
        r2 = x[0] ** 2 + x[1] ** 2
        return x[0] ** 3 - 3.0 * x[0] * x[1] ** 2 + 0.25 * r2 ** 2

    def gradient(x):
        r2 = x[0] ** 2 + x[1] ** 2
        return np.array([
            3.0 * x[0] ** 2 - 3.0 * x[1] ** 2 + x[0] * r2,
            -6.0 * x[0] * x[1] + x[1] * r2,
        ])

    def hessian(x):
        r2 = x[0] ** 2 + x[1] ** 2
        hxx = 6.0 * x[0] + r2 + 2.0 * x[0] ** 2
        hxy = -6.0 * x[1] + 2.0 * x[0] * x[1]
        hyy = -6.0 * x[0] + r2 + 2.0 * x[1] ** 2
        return np.array([[hxx, hxy], [hxy, hyy]])

    c = 3.0 * np.sqrt(3.0) / 2.0
    return ObjectiveProblem(
        name="monkey_saddle",
        dimension=2,
        value_fn=value,
        gradient_fn=gradient,
        hessian_fn=hessian,
        lower_bound=-6.75,
        known_minimizers=[np.array([-3.0, 0.0]), np.array([1.5, c]), np.array([1.5, -c])],
        default_start=np.array([0.5, -0.8]),
    )


def himmelblau():
    """Himmelblau's function: four global minima, a local maximum, saddles."""

    def value(x):
        return (x[0] ** 2 + x[1] - 11.0) ** 2 + (x[0] + x[1] ** 2 - 7.0) ** 2

    def gradient(x):
        u = x[0] ** 2 + x[1] - 11.0
        v = x[0] + x[1] ** 2 - 7.0
        return np.array([4.0 * x[0] * u + 2.0 * v, 2.0 * u + 4.0 * x[1] * v])

    def hessian(x):
        u = x[0] ** 2 + x[1] - 11.0
        v = x[0] + x[1] ** 2 - 7.0
        hxx = 4.0 * u + 8.0 * x[0] ** 2 + 2.0
        hxy = 4.0 * x[0] + 4.0 * x[1]
        hyy = 4.0 * v + 8.0 * x[1] ** 2 + 2.0
        return np.array([[hxx, hxy], [hxy, hyy]])

    return ObjectiveProblem(
        name="himmelblau",
        dimension=2,
        value_fn=value,
        gradient_fn=gradient,
        hessian_fn=hessian,
        lower_bound=0.0,
        known_minimizers=[
            np.array([3.0, 2.0]),
            np.array([-2.805118086952745, 3.131312518250573]),
            np.array([-3.779310253377747, -3.283185991286170]),
            np.array([3.584428340330492, -1.848126526964404]),
        ],
        default_start=np.array([0.0, 0.0]),
    )


def beale():
    """Beale's function, minimum 0 at (3, 0.5)."""
    coeffs = (1.5, 2.25, 2.625)

    def terms(x):
        return [c + x[0] * (x[1] ** i - 1.0) for i, c in enumerate(coeffs, start=1)]

    def value(x):
        return sum(t ** 2 for t in terms(x))

    def gradient(x):
        g = np.zeros(2)
        for i, c in enumerate(coeffs, start=1):
            t = c + x[0] * (x[1] ** i - 1.0)
            g[0] += 2.0 * t * (x[1] ** i - 1.0)
            g[1] += 2.0 * t * i * x[0] * x[1] ** (i - 1)
        return g

    def hessian(x):
        H = np.zeros((2, 2))
        for i, c in enumerate(coeffs, start=1):
            t = c + x[0] * (x[1] ** i - 1.0)
            tx = x[1] ** i - 1.0
            ty = i * x[0] * x[1] ** (i - 1)
            txy = i * x[1] ** (i - 1)
            tyy = i * (i - 1) * x[0] * x[1] ** (i - 2) if i > 1 else 0.0
            H[0, 0] += 2.0 * tx * tx
            H[0, 1] += 2.0 * (tx * ty + t * txy)
            H[1, 1] += 2.0 * (ty * ty + t * tyy)
        H[1, 0] = H[0, 1]
        return H

    return ObjectiveProblem(
        name="beale",
        dimension=2,
        value_fn=value,
        gradient_fn=gradient,
        hessian_fn=hessian,
        lower_bound=0.0,
        known_minimizers=[np.array([3.0, 0.5])],
        default_start=np.array([1.0, 1.0]),
    )


def rosenbrock(n=2):
    """The chained Rosenbrock function; minimum 0 at the all-ones point."""

    def value(x):
        return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))

    def gradient(x):
        g = np.zeros_like(x)
        g[:-1] = -400.0 * x[:-1] * (x[1:] - x[:-1] ** 2) - 2.0 * (1.0 - x[:-1])
        g[1:] += 200.0 * (x[1:] - x[:-1] ** 2)
        return g

    def hessian(x):
        H = np.diag(-400.0 * x[:-1], 1) + np.diag(-400.0 * x[:-1], -1)
        diag = np.zeros_like(x)
        diag[:-1] = 1200.0 * x[:-1] ** 2 - 400.0 * x[1:] + 2.0
        diag[1:] += 200.0
        return H + np.diag(diag)

    start = np.ones(n)
    start[::2] = -1.2
    return ObjectiveProblem(
        name="rosenbrock%d" % n,
        dimension=n,
        value_fn=value,
        gradient_fn=gradient,
        hessian_fn=hessian,
        lower_bound=0.0,
        known_minimizers=[np.ones(n)],
        default_start=start,
    )


def rastrigin():
    """Rastrigin's trigonometric sum in five variables: highly multimodal,
    minimum 0 at 0."""
    a, n = 10.0, 5

    def value(x):
        return float(a * n + np.sum(x ** 2 - a * np.cos(2.0 * np.pi * x)))

    def gradient(x):
        return 2.0 * x + 2.0 * np.pi * a * np.sin(2.0 * np.pi * x)

    def hessian(x):
        return np.diag(2.0 + 4.0 * np.pi ** 2 * a * np.cos(2.0 * np.pi * x))

    return ObjectiveProblem(
        name="rastrigin%d" % n,
        dimension=n,
        value_fn=value,
        gradient_fn=gradient,
        hessian_fn=hessian,
        lower_bound=0.0,
        known_minimizers=[np.zeros(n)],
        default_start=np.array([2.2, -1.3, 3.1, -0.4, 1.7]),
    )


def random_quadratic(n=10, spectrum=None, seed=20240):
    """Quadratic f(x) = 0.5 (x-c)' Q (x-c) with a prescribed spectrum.

    Q is a random orthogonal conjugation of diag(spectrum) and c a standard
    normal draw, both from the generator seeded with `seed`.  With a positive
    spectrum the problem is convex with minimum 0 at c; an indefinite
    spectrum gives an unbounded-below quadratic for negative-curvature
    exercises; each entry must be finite.  The gradient Lipschitz constant
    max|spectrum| is documented.
    """
    if spectrum is None:
        spectrum = np.logspace(0.0, 2.0, n)
    spectrum = np.asarray(spectrum, dtype=float)
    if spectrum.shape != (n,) or not all_finite(spectrum):
        raise ValueError("spectrum must hold n finite values")
    rng = np.random.default_rng(seed)
    Q = _rotated_spectrum(rng, spectrum)
    center = rng.normal(size=n)
    convex = bool(np.all(spectrum > 0.0))

    def value(x):
        u = x - center
        return 0.5 * float(u @ Q @ u)

    return ObjectiveProblem(
        name="random_quadratic%d" % n,
        dimension=n,
        value_fn=value,
        gradient_fn=lambda x: Q @ (x - center),
        hessian_fn=lambda x: Q.copy(),
        lower_bound=0.0 if convex else None,
        known_minimizers=[center] if convex else None,
        default_start=center + rng.normal(size=n),
        local_gradient_lipschitz=float(np.max(np.abs(spectrum))),
    )


def _two_layer_net():
    from ncopt.finite_sum import synthetic_two_layer_net

    return synthetic_two_layer_net()


def _quadratic_sum():
    from ncopt.finite_sum import random_quadratic_finite_sum

    return random_quadratic_finite_sum(n=10, components=20, seed=1234,
                                       name="quadratic_sum")


REGISTRY = {
    "sphere": sphere,
    "rosenbrock2": lambda: rosenbrock(2),
    "rosenbrock10": lambda: rosenbrock(10),
    "quartic_saddle": quartic_saddle,
    "monkey_saddle": monkey_saddle,
    "himmelblau": himmelblau,
    "beale": beale,
    "random_quadratic": random_quadratic,
    "rastrigin": rastrigin,
    "two_layer_net": _two_layer_net,
    "quadratic_sum": _quadratic_sum,
}


def list_problems():
    return sorted(REGISTRY)


def make_problem(name):
    """Build a fresh instance of a registered problem."""
    try:
        ctor = REGISTRY[name]
    except KeyError:
        raise KeyError(
            "unknown problem %r; available: %s" % (name, ", ".join(list_problems()))
        ) from None
    return ctor()
