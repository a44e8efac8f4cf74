"""Finite-sum objectives, mini-batch oracles, and dataset ingestion.

A finite-sum problem averages N component objectives; the full f, g, H are
the exact means over all components.  The stochastic oracle draws
mini-batches from independent persistent random streams, spawned once from
the seed, so a rerun with the same seed replays bit for bit regardless of
solver branch structure.
"""

from __future__ import annotations

import csv

import numpy as np

from ncopt.problems import ObjectiveProblem, integer_argument


class DatasetParseError(ValueError):
    """A dataset cell failed to parse; message cites the 1-based file row."""


class DatasetSchemaError(ValueError):
    """The dataset violates the expected shape (empty, ragged, too narrow)."""


def _mean(a):
    """float(np.mean(a)) of a float vector, bit for bit: numpy's pairwise
    sum, then one division by the length, without np.mean's dispatch."""
    return float(a.sum()) / len(a)


class FiniteSumProblem(ObjectiveProblem):
    """Mean of `component_count` component objectives.

    Subclasses implement `batch_value`, `batch_gradient` and
    `batch_hessian`: the mean over the components listed in an index array.
    """

    def __init__(self, name, dimension, component_count, **metadata):
        self.component_count = int(component_count)
        if self.component_count < 1:
            raise ValueError("component_count must be positive")
        self._all_indices = np.arange(self.component_count)
        super().__init__(
            name,
            dimension,
            value_fn=lambda x: self.batch_value(x, self._all_indices),
            gradient_fn=lambda x: self.batch_gradient(x, self._all_indices),
            hessian_fn=lambda x: self.batch_hessian(x, self._all_indices),
            **metadata,
        )

    def _rows(self, data, indices):
        """The rows of `data` listed in `indices`; the full batch
        (`_all_indices`, as `value`/`gradient`/`hessian` pass it) reads
        `data` in place instead of copying it."""
        return data if indices is self._all_indices else data[indices]

    def _set_records(self, features, labels):
        """Store (N, d) features and N labels as `features` and `labels`,
        contiguous, so the full batch read in place is laid out like the
        copy a fancy index makes."""
        features = np.ascontiguousarray(features, dtype=float)
        labels = np.ascontiguousarray(labels, dtype=float)
        if features.ndim != 2 or labels.shape != (features.shape[0],):
            raise ValueError("features must be (N, d) with matching labels")
        self.features = features
        self.labels = labels

    def batch_value_gradient(self, x, indices):
        """(batch_value, batch_gradient) on one batch, equal to the two
        separate calls; overridden where the two share work."""
        return self.batch_value(x, indices), self.batch_gradient(x, indices)

    def batch_gradients(self, x, batches):
        """The batch_gradient of each row of the (R, b) index array
        `batches`, as an (R, n) array; overridden where one pass evaluates
        them all."""
        return np.array([self.batch_gradient(x, batch) for batch in batches])


class QuadraticFiniteSum(FiniteSumProblem):
    """Components 0.5 (x - c_i)' Q_i (x - c_i) with mean Hessian Q.

    The Q_i are Q plus paired +-perturbations (so they average to Q exactly);
    with a positive definite Q the mean objective is a convex quadratic with
    computable minimizer and optimal value, while individual mini-batch
    Hessians can be indefinite.
    """

    def __init__(self, n=10, components=20, seed=1234, spectrum=None,
                 perturbation=2.5, center_scale=2.0, name=None):
        if components % 2 != 0:
            raise ValueError("components must be even (perturbations are paired)")
        rng = np.random.default_rng(seed)
        if spectrum is None:
            spectrum = np.linspace(1.0, 4.0, n)
        spectrum = np.asarray(spectrum, dtype=float)
        V, _ = np.linalg.qr(rng.normal(size=(n, n)))
        Q = (V * spectrum) @ V.T
        Q = 0.5 * (Q + Q.T)
        lam_min = float(np.min(spectrum))
        mats = np.empty((components, n, n))
        for j in range(components // 2):
            S = rng.normal(size=(n, n))
            S = 0.5 * (S + S.T)
            S *= perturbation * lam_min / max(np.linalg.norm(S, 2), 1e-12)
            mats[2 * j] = Q + S
            mats[2 * j + 1] = Q - S
        centers = rng.normal(scale=center_scale, size=(components, n))

        self.mean_matrix = Q
        self.matrices = mats
        self.centers = centers
        minimizer = np.linalg.solve(Q, np.einsum("kij,kj->i", mats, centers) / components)

        super().__init__(
            name or ("quadratic_sum%d" % n),
            dimension=n,
            component_count=components,
            known_minimizers=[minimizer],
            default_start=minimizer + rng.normal(scale=3.0, size=n),
            local_gradient_lipschitz=float(np.max(spectrum)),
        )
        self.lower_bound = self.batch_value(minimizer, self._all_indices)

    def _offsets(self, x, indices):
        """(u, Q): the rows x - c_i and the matrices Q_i of the batch."""
        return (x[None, :] - self._rows(self.centers, indices),
                self._rows(self.matrices, indices))

    def batch_value(self, x, indices):
        u, Q = self._offsets(x, indices)
        return 0.5 * _mean(np.einsum("ki,kij,kj->k", u, Q, u))

    def batch_gradient(self, x, indices):
        u, Q = self._offsets(x, indices)
        return np.einsum("kij,kj->i", Q, u) / len(u)

    def batch_value_gradient(self, x, indices):
        # one gather of the batch, then batch_value's and batch_gradient's
        # einsums
        u, Q = self._offsets(x, indices)
        return (0.5 * _mean(np.einsum("ki,kij,kj->k", u, Q, u)),
                np.einsum("kij,kj->i", Q, u) / len(u))

    def batch_gradients(self, x, batches):
        # batch_gradient's gather and einsum with a leading row axis: each
        # row sums the same products in the same order, bit for bit
        Q = self.matrices[batches]
        u = x - self.centers[batches]
        return np.einsum("rkij,rkj->ri", Q, u) / batches.shape[1]

    def batch_hessian(self, x, indices):
        # np.mean(Q, axis=0) bit for bit: its sum, then one division
        Q = self._rows(self.matrices, indices)
        return Q.sum(axis=0) / len(Q)


class LinearLeastSquaresProblem(FiniteSumProblem):
    """Components 0.5 (phi_i' x - y_i)^2 over feature/label records."""

    def __init__(self, features, labels, name="linear_least_squares"):
        self._set_records(features, labels)
        n, d = self.features.shape
        gram = self.features.T @ self.features / n
        super().__init__(
            name,
            dimension=d,
            component_count=n,
            lower_bound=0.0,
            local_gradient_lipschitz=float(np.linalg.eigvalsh(gram)[-1]),
        )

    def batch_value(self, x, indices):
        r = self._rows(self.features, indices) @ x - self._rows(self.labels, indices)
        return 0.5 * _mean(r * r)

    def batch_gradient(self, x, indices):
        phi = self._rows(self.features, indices)
        r = phi @ x - self._rows(self.labels, indices)
        return (r @ phi) / len(indices)

    def batch_hessian(self, x, indices):
        phi = self._rows(self.features, indices)
        return phi.T @ phi / len(indices)


class TwoLayerNetProblem(FiniteSumProblem):
    """Least-squares loss of a two-layer tanh network over a dataset.

    Parameters pack as [W1 (h*d, row-major), b1 (h), w2 (h), b2].  Component
    i is 0.5 * (net(x_i) - y_i)^2; gradients and Hessians are exact.
    """

    def __init__(self, features, labels, hidden_units=8, name="two_layer_net",
                 start_seed=5):
        self._set_records(features, labels)
        self.hidden_units = int(hidden_units)
        n_records, d = self.features.shape
        h = self.hidden_units
        dim = h * d + 2 * h + 1
        rng = np.random.default_rng(start_seed)
        super().__init__(
            name,
            dimension=dim,
            component_count=n_records,
            lower_bound=0.0,
            default_start=rng.normal(scale=0.2, size=dim),
        )
        self._scatter_flat, self._scatter_source = _second_order_layout(h, d)

    def _unpack(self, theta):
        h = self.hidden_units
        d = self.features.shape[1]
        W1 = theta[: h * d].reshape(h, d)
        b1 = theta[h * d: h * d + h]
        w2 = theta[h * d + h: h * d + 2 * h]
        b2 = theta[-1]
        return W1, b1, w2, b2

    def _forward(self, theta, indices):
        W1, b1, w2, b2 = self._unpack(theta)
        X = self._rows(self.features, indices)
        A = np.tanh(X @ W1.T + b1)
        residual = A @ w2 + b2 - self._rows(self.labels, indices)
        return X, A, residual, w2

    def batch_value(self, x, indices):
        _, _, r, _ = self._forward(x, indices)
        return 0.5 * _mean(r * r)

    def batch_gradient(self, x, indices):
        return self._gradient(*self._forward(x, indices))

    def batch_value_gradient(self, x, indices):
        X, A, r, w2 = self._forward(x, indices)
        return 0.5 * _mean(r * r), self._gradient(X, A, r, w2)

    @staticmethod
    def _gradient(X, A, r, w2):
        m = len(r)
        P = 1.0 - A * A
        U = P * w2
        RU = r[:, None] * U
        gW1 = RU.T @ X / m
        # the means as np.mean computes them, a sum and one division
        gb1 = RU.sum(axis=0) / m
        gw2 = (r[:, None] * A).sum(axis=0) / m
        gb2 = _mean(r)
        return np.concatenate([gW1.ravel(), gb1, gw2, [gb2]])

    def batch_hessian(self, x, indices):
        """Exact mean Hessian over the batch: the Gauss-Newton part J'J/m
        plus the residual-weighted second-order terms, which touch each
        entry of H at most once and are added in one scatter."""
        X, A, r, w2 = self._forward(x, indices)
        m, d = X.shape
        h = self.hidden_units
        P = 1.0 - A * A
        U = P * w2
        D = -2.0 * A * P * w2

        # sample-contiguous (Fortran-order) operands make the sum over
        # samples einsum's inner loop instead of a loop d entries long run
        # m*h times; each entry is still the same products summed over the
        # samples in the same order, so the bits do not change
        Xf, Pf, Uf, Df = (np.asfortranarray(a) for a in (X, P, U, D))
        JW1 = np.einsum("mi,mj->mij", Uf, Xf).reshape(m, h * d)
        J = np.concatenate([JW1, U, A, np.ones((m, 1))], axis=1)
        H = J.T @ J / m

        # folding r into D first turns the costliest term's 4-operand
        # einsum into a 3-operand one with the same products and order; the
        # two cheap terms keep r as an operand and their operands in C
        # order, because their folded 1-operand and sample-contiguous
        # 2-operand forms sum in another order
        terms = np.concatenate([
            np.einsum("m,mi->i", r, D),
            np.einsum("m,mi,mk->ik", r, Df, Xf).ravel(),
            np.einsum("m,mi,mk->ik", r, Pf, Xf).ravel(),
            np.einsum("mi,mj,mk->ijk", r[:, None] * Df, Xf, Xf).ravel(),
            np.einsum("m,mi->i", r, P),
        ]) / m
        H.reshape(-1)[self._scatter_flat] += terms[self._scatter_source]
        return 0.5 * (H + H.T)


def _second_order_layout(h, d):
    """Where the two-layer net's residual-weighted Hessian terms go.

    The terms are concatenated as [b1b1 (h), b1W1 (h*d), w2W1 (h*d),
    W1W1 (h*d*d), w2b1 (h)] and the parameters pack as [W1, b1, w2, b2].
    Returns (flat, source): term source[k] belongs to the row-major entry
    flat[k] of H.  Hidden unit i couples only its own parameters, each
    off-diagonal block is listed in both orientations, and no entry is
    listed twice.
    """
    n = h * d + 2 * h + 1
    W1 = np.arange(h * d).reshape(h, d)
    b1 = h * d + np.arange(h)
    w2 = b1 + h
    o_bb, o_bW, o_wW, o_WW, o_wb = np.cumsum([0, h, h * d, h * d, h * d * d])
    source = np.full((n, n), -1)
    source[b1, b1] = o_bb + np.arange(h)
    source[b1[:, None], W1] = source[W1, b1[:, None]] = o_bW + W1
    source[w2[:, None], W1] = source[W1, w2[:, None]] = o_wW + W1
    source[W1[:, :, None], W1[:, None, :]] = (
        o_WW + np.arange(h * d * d).reshape(h, d, d))
    source[w2, b1] = source[b1, w2] = o_wb + np.arange(h)
    flat = np.flatnonzero(source >= 0)
    return flat, source.ravel()[flat]


def synthetic_two_layer_net(records=500, feature_dim=4, hidden_units=8, seed=7,
                            noise=0.05, teacher_scale=1.0):
    """Seeded teacher-generated regression data behind a two-layer net."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(records, feature_dim))
    teacher_w1 = rng.normal(size=(3, feature_dim))
    teacher_w2 = rng.normal(size=3) * teacher_scale
    y = np.tanh(X @ teacher_w1.T) @ teacher_w2 + noise * rng.normal(size=records)
    return TwoLayerNetProblem(X, y, hidden_units=hidden_units)


def random_quadratic_finite_sum(n=10, components=20, seed=1234, **kwargs):
    return QuadraticFiniteSum(n=n, components=components, seed=seed, **kwargs)


def load_dataset(path, has_header=False, model="linear", hidden_units=8):
    """Load a numeric CSV (last column label, rest features) as a finite sum.

    `model` selects the per-record loss: "linear" least squares or a
    "two_layer" tanh network.  Malformed cells raise DatasetParseError citing
    the 1-based file row; empty or ragged files raise DatasetSchemaError.
    """
    rows = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        for line_no, cells in enumerate(reader, start=1):
            if line_no == 1 and has_header:
                continue
            if not cells or all(c.strip() == "" for c in cells):
                continue
            parsed = []
            for col, cell in enumerate(cells):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise DatasetParseError(
                        "row %d: cell %d (%r) is not numeric" % (line_no, col + 1, cell)
                    ) from None
            rows.append((line_no, parsed))
    if not rows:
        raise DatasetSchemaError("dataset %r has no data rows" % str(path))
    width = len(rows[0][1])
    if width < 2:
        raise DatasetSchemaError("dataset needs at least one feature column plus a label")
    for line_no, parsed in rows:
        if len(parsed) != width:
            raise DatasetSchemaError(
                "row %d has %d columns, expected %d" % (line_no, len(parsed), width)
            )
    data = np.array([parsed for _, parsed in rows])
    features, labels = data[:, :-1], data[:, -1]
    if model == "linear":
        return LinearLeastSquaresProblem(features, labels)
    if model == "two_layer":
        return TwoLayerNetProblem(features, labels, hidden_units=hidden_units)
    raise ValueError("unknown dataset model %r" % model)


STREAM_GRADIENT = 0
STREAM_HESSIAN = 1
STREAM_OMEGA = 2


class StochasticOracle:
    """Mini-batch sampler over a finite-sum problem.

    Three independent seeded streams (gradient, Hessian, curvature noise)
    are persistent generators, one per stream, built once from
    `np.random.SeedSequence(seed).spawn(3)` in that order; each draw
    continues its own stream.  Replays with the same seed are bitwise
    identical and drawing from one stream never perturbs another.  An
    oracle instance is single-consumer; give each solver run its own.
    """

    def __init__(self, problem, batch_size, seed):
        batch_size = integer_argument("batch_size", batch_size, 1)
        if batch_size > problem.component_count:
            raise ValueError(
                "batch_size %d exceeds component count %d"
                % (batch_size, problem.component_count)
            )
        self.problem = problem
        self.batch_size = batch_size
        self.seed = integer_argument("seed", seed, 0)
        self._generators = [np.random.default_rng(sequence) for sequence
                            in np.random.SeedSequence(self.seed).spawn(3)]
        self._counts = [0, 0, 0]

    def draw_count(self, stream):
        """How many draws the given stream has produced so far."""
        return self._counts[stream]

    def _next_generator(self, stream):
        self._counts[stream] += 1
        return self._generators[stream]

    def _draw_batch(self, stream):
        return self._next_generator(stream).choice(
            self.problem.component_count, size=self.batch_size, replace=False)

    def next_gradient_batch(self):
        return self._draw_batch(STREAM_GRADIENT)

    def next_hessian_batch(self):
        return self._draw_batch(STREAM_HESSIAN)

    def next_omega(self):
        """Uniform draw on [-1, 1] from the curvature-noise stream."""
        return float(self._next_generator(STREAM_OMEGA).uniform(-1.0, 1.0))
