"""Finite-sum objectives, mini-batch oracles, and dataset ingestion.

A finite-sum problem averages N component objectives; the full f, g, H are
the exact means over all components.  The stochastic oracle draws
mini-batches and curvature noise from three seeded streams, so a rerun with
the same seed replays bit for bit regardless of solver branch structure.
"""

from __future__ import annotations

import csv
import math
from operator import attrgetter

import numpy as np

from ncopt.linalg import all_finite, leftmost_eigenpair
from ncopt.problems import (
    ObjectiveProblem,
    _rotated_spectrum,
    finite_hessian,
    integer_argument,
    real_argument,
)


class DatasetParseError(ValueError):
    """A dataset cell failed to parse; message cites the 1-based file row."""


class DatasetSchemaError(ValueError):
    """The dataset violates the expected shape (empty, ragged, too narrow)."""


def _mean(a):
    """float(np.mean(a)) of a float vector, bit for bit: numpy's pairwise
    sum, then one division by the length, without np.mean's dispatch."""
    return float(np.add.reduce(a)) / len(a)


# the bytes a problem's complete table of sampled eigenpairs for one batch
# size may take, counted as its arrays' entries; past it no table is kept
_EIGEN_TABLE_BYTES = 1 << 22
# the bytes of the working array one stacked pass may take: the moment
# probe's gathered batch matrices (b n-by-n per draw), or full_gradients'
# offsets (N n-vectors per point)
_PROBE_CHUNK_BYTES = 1 << 18


def _read_only(*arrays):
    """Mark each array read-only, so a later write raises ValueError."""
    for a in arrays:
        a.flags.writeable = False


def _data_property(name):
    """A property with no setter over the private array `_<name>`, so that
    rebinding the attribute raises AttributeError."""
    return property(attrgetter("_" + name), doc="the read-only %s array" % name)


class FiniteSumProblem(ObjectiveProblem):
    """Mean of `component_count` component objectives.

    Subclasses implement `batch_value`, `batch_gradient` and
    `batch_hessian`: the mean over the components listed in an index array.
    `value`, `gradient` and `hessian` pass them `_all_indices`.  A subclass
    whose `batch_hessian` does not read x sets `hessian_reads_x = False`,
    and `sampled_eigenpair` then keeps a table of its sampled eigenpairs.

    A problem's data never change after it is built: its data arrays
    (`matrices`, `centers` and `mean_matrix`, or `features` and `labels`)
    are read-only, so a write into one raises ValueError, and each is a
    property without a setter, so rebinding one raises AttributeError.
    Every cache (the eigenpair tables, the net's forward slot) and every
    stacked pass (`full_gradients`) relies on that.
    """

    # whether batch_hessian reads x; see sampled_eigenpair
    hessian_reads_x = True

    def __init__(self, name, dimension, component_count, **metadata):
        self.component_count = int(component_count)
        if self.component_count < 1:
            raise ValueError("component_count must be positive")
        self._all_indices = np.arange(self.component_count)
        # batch size -> eigenpair table, or None where none is kept
        self._eigenpair_tables = {}
        # the full-batch hooks are the methods below, not closures over
        # self, so a problem is in no reference cycle and is freed with its
        # last reference, without waiting for the garbage collector
        self._describe(name, dimension, **metadata)

    def _value_fn(self, x):
        return self.batch_value(x, self._all_indices)

    def _gradient_fn(self, x):
        return self.batch_gradient(x, self._all_indices)

    def _hessian_fn(self, x):
        return self.batch_hessian(x, self._all_indices)

    def sampled_eigenpair(self, x, indices):
        """The `leftmost_eigenpair` of the batch Hessian at x over the
        index array `indices`; a non-finite entry of that Hessian raises
        EvaluationError ("sampled Hessian has non-finite entries").

        Where batch_hessian does not read x, a batch has the same pair at
        every point, and the problem keeps a table of them per batch size
        b: each entry is a batch's checked pair, made read-only and keyed
        by the batch's indices in their drawn order (the bytes of the
        index array, never sorted: a sum of three or more matrices, or
        phi'phi, rounds differently in another order).  A table is kept
        only where the complete one, perm(N, b) entries of 2n^2 + 2n
        doubles, fits within _EIGEN_TABLE_BYTES (4 MiB), so nothing is
        ever evicted; that is decided on a batch size's first call, and
        elsewhere nothing is stored.  A batch whose Hessian fails its
        check is never stored, and an entry is the pair computed afresh,
        so a solve is bit for bit the same warm or cold.
        """
        b = len(indices)
        tables = self._eigenpair_tables
        if b not in tables:
            n = self.dimension
            fits = (math.perm(self.component_count, b) * 8 * (2 * n * n + 2 * n)
                    <= _EIGEN_TABLE_BYTES)
            tables[b] = {} if fits and not self.hessian_reads_x else None
        table = tables[b]
        if table is not None:
            key = indices.tobytes()
            eig = table.get(key)
            if eig is not None:
                return eig
        eig = leftmost_eigenpair(finite_hessian(
            self.batch_hessian(x, indices), x, "sampled Hessian"))
        if table is not None:
            # every step that draws the batch shares the stored arrays
            _read_only(eig.leftmost_vector, eig.values, eig.vectors, eig.matrix)
            table[key] = eig
        return eig

    def _rows(self, data, indices):
        """The rows of `data` listed in the integer array `indices`, by
        `take`, which copies them as `data[indices]` does without its
        indexing dispatch; the full batch (`_all_indices`, as
        `value`/`gradient`/`hessian` pass it) reads `data` in place
        instead of copying it."""
        return data if indices is self._all_indices else data.take(indices, 0)

    def _set_records(self, features, labels):
        """Store copies of (N, d) features and N labels as `_features` and
        `_labels`, so a later write to the caller's arrays leaves the
        problem as built; C-ordered, so the full batch read in place is
        laid out like the copy a fancy index makes."""
        features = np.array(features, dtype=float, order="C", ndmin=1)
        labels = np.array(labels, dtype=float, order="C", ndmin=1)
        if features.ndim != 2 or labels.shape != (features.shape[0],):
            raise ValueError("features must be (N, d) with matching labels")
        # as load_dataset requires of a file
        if 0 in features.shape:
            raise ValueError("features need at least one record and one column")
        for name, data in (("features", features), ("labels", labels)):
            if not all_finite(data):
                raise ValueError("%s must be finite" % name)
        _read_only(features, labels)
        self._features = features
        self._labels = labels

    def batch_value_gradient(self, x, indices):
        """(batch_value, batch_gradient) on one batch, equal to the two
        separate calls; overridden where the two share work."""
        return self.batch_value(x, indices), self.batch_gradient(x, indices)

    def batch_gradients(self, x, batches):
        """The batch_gradient of each row of the (R, b) index array
        `batches`, as an (R, n) array; overridden where one pass evaluates
        them all."""
        return np.array([self.batch_gradient(x, batch) for batch in batches])

    def full_gradients(self, points):
        """The full-batch gradient at each row of the (R, n) array
        `points`, as an (R, n) array whose rows equal `gradient` there bit
        for bit; overridden where one pass evaluates them all.  The rows
        are checked once, by `_check_points`, and the gradients not at
        all; no evaluation counter moves."""
        X = self._check_points(points)
        return np.array([self.batch_gradient(x, self._all_indices)
                         for x in X]).reshape(X.shape)


class QuadraticFiniteSum(FiniteSumProblem):
    """Components 0.5 (x - c_i)' Q_i (x - c_i) with mean Hessian Q.

    Q has the eigenvalues `spectrum`, n finite positive values, so the mean
    objective is a convex quadratic with computable minimizer and optimal
    value; the Q_i are Q plus paired +-perturbations of spectral norm
    `perturbation` times Q's smallest eigenvalue, a finite value >= 0 (so
    they average to Q exactly), and individual mini-batch Hessians can be
    indefinite.  The centers c_i are normal draws of scale 2.  The batch
    Hessian does not read x, so the problem keeps a table of sampled
    eigenpairs (see `FiniteSumProblem.sampled_eigenpair`).
    """

    hessian_reads_x = False
    matrices = _data_property("matrices")
    centers = _data_property("centers")
    mean_matrix = _data_property("mean_matrix")

    def __init__(self, n=10, components=20, seed=1234, spectrum=None,
                 perturbation=2.5, name=None):
        n = integer_argument("n", n, 1)
        components = integer_argument("components", components, 1)
        if components % 2 != 0:
            raise ValueError("components must be even (perturbations are paired)")
        rng = np.random.default_rng(seed)
        if spectrum is None:
            spectrum = np.linspace(1.0, 4.0, n)
        spectrum = np.asarray(spectrum, dtype=float)
        # a spectrum that is not positive leaves the minimizer and lower
        # bound undefined (NaN fails both comparisons), and a perturbation
        # that is not finite makes every Q_i NaN
        positive = (spectrum > 0.0) & (spectrum < math.inf)
        if spectrum.shape != (n,) or not positive.all():
            raise ValueError("spectrum must hold n finite, positive values")
        real_argument("perturbation", perturbation, positive=False)
        Q = _rotated_spectrum(rng, spectrum)
        lam_min = float(np.min(spectrum))
        # one normal n-by-n draw per pair, in one call, each S scaled by
        # its spectral norm (`np.linalg.norm(S, 2)`, the largest singular
        # value)
        S = rng.normal(size=(components // 2, n, n))
        S = 0.5 * (S + S.transpose(0, 2, 1))
        spectral = np.linalg.svd(S, compute_uv=False).max(-1)
        S *= (perturbation * lam_min / np.maximum(spectral, 1e-12))[:, None, None]
        mats = np.empty((components, n, n))
        mats[0::2] = Q + S
        mats[1::2] = Q - S
        centers = rng.normal(scale=2.0, size=(components, n))

        _read_only(Q, mats, centers)
        self._mean_matrix = Q
        self._matrices = mats
        self._centers = centers
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
        return (x[None, :] - self._rows(self._centers, indices),
                self._rows(self._matrices, indices))

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
        Q = self._matrices[batches]
        u = x - self._centers[batches]
        return np.einsum("rkij,rkj->ri", Q, u) / batches.shape[1]

    def full_gradients(self, points):
        # the full batch's einsum with a leading row axis, each row the
        # same products summed in the same order, bit for bit; as many
        # rows a pass as keep their (rows, N, n) offsets within
        # _PROBE_CHUNK_BYTES
        X = self._check_points(points)
        N, n = self._centers.shape
        chunk = max(1, _PROBE_CHUNK_BYTES // (8 * N * n))
        G = np.empty_like(X)
        for start in range(0, len(X), chunk):
            u = X[start:start + chunk, None, :] - self._centers
            G[start:start + chunk] = np.einsum("kij,rkj->ri", self._matrices, u) / N
        return G

    def batch_hessian(self, x, indices):
        # np.mean(Q, axis=0) bit for bit: its sum, then one division
        Q = self._rows(self._matrices, indices)
        return Q.sum(axis=0) / len(Q)


class LinearLeastSquaresProblem(FiniteSumProblem):
    """Components 0.5 (phi_i' x - y_i)^2 over feature/label records.

    The documented gradient Lipschitz constant is the largest eigenvalue
    of the Gram matrix phi'phi/N, or None where that is not finite.  The
    batch Hessian does not read x, so the problem keeps a table of sampled
    eigenpairs (see `FiniteSumProblem.sampled_eigenpair`).
    """

    hessian_reads_x = False
    features, labels = _data_property("features"), _data_property("labels")

    def __init__(self, features, labels):
        self._set_records(features, labels)
        n, d = self._features.shape
        # features near the overflow threshold overflow the Gram matrix
        with np.errstate(over="ignore", invalid="ignore"):
            gram = self._features.T @ self._features / n
        top = float(np.linalg.eigvalsh(gram)[-1]) if all_finite(gram) else math.inf
        super().__init__(
            "linear_least_squares",
            dimension=d,
            component_count=n,
            lower_bound=0.0,
            local_gradient_lipschitz=top if math.isfinite(top) else None,
        )

    def batch_value(self, x, indices):
        r = self._rows(self._features, indices) @ x - self._rows(self._labels, indices)
        return 0.5 * _mean(r * r)

    def batch_gradient(self, x, indices):
        phi = self._rows(self._features, indices)
        r = phi @ x - self._rows(self._labels, indices)
        return (r @ phi) / len(indices)

    def batch_hessian(self, x, indices):
        phi = self._rows(self._features, indices)
        return phi.T @ phi / len(indices)


class TwoLayerNetProblem(FiniteSumProblem):
    """Least-squares loss of a two-layer tanh network over a dataset.

    Parameters pack as [W1 (h*d, row-major), b1 (h), w2 (h), b2].  Component
    i is 0.5 * (net(x_i) - y_i)^2; gradients and Hessians are exact.  The
    default start is a normal draw of scale 0.2 from the generator seeded
    with 5.

    The problem keeps one slot for the last full-batch point, so that f, g
    and H there share one forward pass: the tuple (key, A, r, P, U) of the
    parameter vector's exact bytes, the hidden activations A, the residuals
    r and the first-order factors P = 1 - A*A and U = P*w2.  The rows X of
    the full batch are `features`, and w2 is read from the parameter
    vector of each call, whose bytes are the key, so the slot copies
    nothing.  Only the full batch (`_all_indices`, which `value`,
    `gradient` and `hessian` pass) reads and fills it; sampled batches are
    never cached.  A call at another point replaces the slot, and so does
    a concurrent one, while each call reads the pass it found or made.
    """

    features, labels = _data_property("features"), _data_property("labels")

    def __init__(self, features, labels, hidden_units=8):
        self._set_records(features, labels)
        self.hidden_units = integer_argument("hidden_units", hidden_units, 1)
        n_records, d = self._features.shape
        h = self.hidden_units
        dim = h * d + 2 * h + 1
        super().__init__(
            "two_layer_net",
            dimension=dim,
            component_count=n_records,
            lower_bound=0.0,
            default_start=np.random.default_rng(5).normal(scale=0.2, size=dim),
        )
        self._scatter_flat, self._scatter_source = _second_order_layout(h, d)
        # where W1 (read as h-by-d), b1 and w2 lie in the parameter
        # vector; b2 is its last entry
        self._layout = (slice(h * d), (h, d), slice(h * d, h * d + h),
                        slice(h * d + h, h * d + 2 * h))
        self._slot = None

    def _forward(self, theta, indices):
        W1_at, W1_shape, b1_at, w2_at = self._layout
        w2 = theta[w2_at]
        if indices is self._all_indices:
            X, y = self._features, self._labels
        else:
            X, y = self._features.take(indices, 0), self._labels.take(indices)
        # tanh(X W1' + b1) and A w2 + b2 - y, each made in one array
        A = X @ theta[W1_at].reshape(W1_shape).T
        A += theta[b1_at]
        np.tanh(A, out=A)
        residual = A @ w2
        residual += theta[-1]
        residual -= y
        return X, A, residual, w2

    def _first_order(self, theta, indices):
        """(X, A, r, w2, P, U) on the batch; the full batch reads and fills
        the slot (see the class docstring)."""
        full = indices is self._all_indices
        if full:
            key = theta.tobytes()
            slot = self._slot
            if slot is not None and slot[0] == key:
                _, A, r, P, U = slot
                return self._features, A, r, theta[self._layout[3]], P, U
        X, A, r, w2 = self._forward(theta, indices)
        P = A * A
        np.subtract(1.0, P, out=P)
        U = P * w2
        if full:
            self._slot = (key, A, r, P, U)
        return X, A, r, w2, P, U

    def batch_value(self, x, indices):
        forward = self._first_order if indices is self._all_indices else self._forward
        r = forward(x, indices)[2]
        return 0.5 * _mean(r * r)

    def batch_gradient(self, x, indices):
        X, A, r, _, _, U = self._first_order(x, indices)
        return self._gradient(X, A, r, U)

    def batch_value_gradient(self, x, indices):
        X, A, r, _, _, U = self._first_order(x, indices)
        return 0.5 * _mean(r * r), self._gradient(X, A, r, U)

    @staticmethod
    def _gradient(X, A, r, U):
        RU = r[:, None] * U
        # the means as np.mean computes them, sums and one division each
        g = np.concatenate([(RU.T @ X).ravel(), np.add.reduce(RU, 0),
                            np.add.reduce(r[:, None] * A, 0),
                            [np.add.reduce(r)]])
        g /= len(r)
        return g

    def batch_hessian(self, x, indices):
        """Exact mean Hessian over the batch: the Gauss-Newton part J'J/m
        plus the residual-weighted second-order terms, which touch each
        entry of H at most once and are added in one scatter."""
        X, A, r, w2, P, U = self._first_order(x, indices)
        m, d = X.shape
        h = self.hidden_units
        D = -2.0 * A
        D *= P
        D *= w2

        # sample-contiguous (Fortran-order) operands make the sum over
        # samples einsum's inner loop instead of a loop d entries long run
        # m*h times; each entry is still the same products summed over the
        # samples in the same order, so the bits do not change
        Xf, Pf, Uf, Df = map(np.asfortranarray, (X, P, U, D))
        JW1 = np.einsum("mi,mj->mij", Uf, Xf).reshape(m, h * d)
        J = np.concatenate([JW1, U, A, np.ones((m, 1))], axis=1)
        H = J.T @ J
        H /= m

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
        ])
        terms /= m
        H.reshape(-1)[self._scatter_flat] += terms[self._scatter_source]
        # 0.5*(H + H'), not a no-op: J'J is exactly symmetric, but the
        # W1-W1 terms for (j, k) and (k, j) multiply X's columns in
        # different orders, so that block alone differs from its transpose
        # in the last bits
        H_sym = H + H.T
        H_sym *= 0.5
        return H_sym


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
    records = integer_argument("records", records, 1)
    feature_dim = integer_argument("feature_dim", feature_dim, 1)
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
    "two_layer" tanh network.  A cell that is not a finite number (malformed,
    nan or inf) raises DatasetParseError citing its 1-based file row and
    cell; empty or ragged files raise DatasetSchemaError.
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
                    value = float(cell)
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    raise DatasetParseError(
                        "row %d: cell %d (%r) is not a finite number"
                        % (line_no, col + 1, cell))
                parsed.append(value)
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


# how many draws a stream makes at once, and the bytes a block of batches
# and its working arrays may take; elsewhere each batch is a `choice` call
_DRAW_BLOCK = 256
_DRAW_BLOCK_BYTES = 1 << 21


def _draws_batches_in_blocks(n, b):
    """Whether a stream of batches of b out of n rows is drawn in blocks:
    where _DRAW_BLOCK batches' raw draws (8 bytes each, held about three
    times over) and taken table (n bytes per batch) fit within
    _DRAW_BLOCK_BYTES.  Past that size a block's 2b - 1 passes over its
    batches cost about what b per-call draws do.  The cap keeps n below
    8192, where numpy's choice always runs Floyd's algorithm; it shuffles
    the tail of arange(n) instead only where n > 10000 and b > n // 50."""
    return _DRAW_BLOCK * (48 * b + n) <= _DRAW_BLOCK_BYTES


def _choice_block(rng, n, b):
    """The next _DRAW_BLOCK draws of `rng.choice(n, size=b, replace=False)`
    as the rows of an array, bit for bit, where choice runs Floyd's
    algorithm (Bentley & Floyd, CACM 30(9), 1987) and then a Fisher-Yates
    shuffle.

    Each such draw makes 2b - 1 bounded draws whose bounds do not depend
    on earlier outcomes: Floyd's t_p on [0, n-b+p] for p = 0 .. b-1, then
    the shuffle's partner of position i on [0, i] for i = b-1 .. 1.  One
    `integers` call makes all of them for the block, in that order.  Floyd
    keeps t_p unless its batch has taken it already, and then takes n-b+p,
    which no earlier position can hold; a table of the values each batch
    has taken resolves position p of every batch at once, and the swaps of
    position i are made in every batch at once.
    """
    k = _DRAW_BLOCK
    bounds = np.concatenate([np.arange(n - b, n), np.arange(b - 1, 0, -1)])
    raw = rng.integers(0, np.tile(bounds, k), endpoint=True)
    # row p holds position p of every batch
    raw = raw.reshape(k, 2 * b - 1).T.copy()
    batches = raw[:b]
    cells = np.arange(k) * n
    taken = np.zeros(k * n, dtype=bool)
    for p, t in enumerate(batches):
        t[taken[cells + t]] = n - b + p
        taken[cells + t] = True
    flat = batches.reshape(-1)
    for i, partner in zip(range(b - 1, 0, -1), raw[b:] * k + np.arange(k)):
        swapped = flat[partner]
        flat[partner] = batches[i]
        batches[i] = swapped
    return np.ascontiguousarray(batches.T)


def _batch_draws(rng, n, b):
    """The stream of batches of b out of n rows from `rng`: the rows of
    successive `_choice_block` blocks, or one `choice` call per batch where
    a block would not fit (`_draws_batches_in_blocks`)."""
    if _draws_batches_in_blocks(n, b):
        while True:
            yield from _choice_block(rng, n, b)
    while True:
        yield rng.choice(n, size=b, replace=False)


def _omega_draws(rng):
    """The stream of `rng.uniform(-1.0, 1.0)` draws as Python floats,
    _DRAW_BLOCK to one `uniform` call."""
    while True:
        yield from rng.uniform(-1.0, 1.0, size=_DRAW_BLOCK).tolist()


class StochasticOracle:
    """Mini-batch sampler over a finite-sum problem.

    Three independent seeded streams (gradient batches, Hessian batches,
    curvature noise omega) draw from the generators
    `np.random.default_rng(s)` for s in `np.random.SeedSequence(seed).spawn(3)`,
    in that order.  Each stream is drawn in blocks, and its k-th draw equals
    its generator's k-th per-call `choice(N, size=b, replace=False)` or
    `uniform(-1.0, 1.0)` bit for bit, whatever the other streams do; so a
    replay with the same seed is bitwise identical.  An oracle instance is
    single-consumer; give each solver run its own.
    """

    def __init__(self, problem, batch_size, seed):
        batch_size = integer_argument("batch_size", batch_size, 1)
        n = problem.component_count
        if batch_size > n:
            raise ValueError("batch_size %d exceeds component count %d"
                             % (batch_size, n))
        self.problem = problem
        self.batch_size = batch_size
        self.seed = integer_argument("seed", seed, 0)
        gradient, hessian, omega = (
            np.random.default_rng(sequence)
            for sequence in np.random.SeedSequence(self.seed).spawn(3))
        self._gradient_batches = _batch_draws(gradient, n, batch_size)
        self._hessian_batches = _batch_draws(hessian, n, batch_size)
        self._omegas = _omega_draws(omega)

    def next_gradient_batch(self):
        return next(self._gradient_batches)

    def next_hessian_batch(self):
        return next(self._hessian_batches)

    def next_omega(self):
        """Uniform draw on [-1, 1] from the curvature-noise stream."""
        return next(self._omegas)
