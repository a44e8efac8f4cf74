import gc
import importlib.util
import itertools
import os
import struct
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ncopt import deterministic, finite_sum, steps
from ncopt.finite_sum import (
    _DRAW_BLOCK,
    DatasetParseError,
    DatasetSchemaError,
    LinearLeastSquaresProblem,
    StochasticOracle,
    TwoLayerNetProblem,
    _draws_batches_in_blocks,
    _mean,
    load_dataset,
    random_quadratic_finite_sum,
    synthetic_two_layer_net,
)
from ncopt.linalg import norm
from ncopt.problems import EvaluationError, make_problem
from ncopt.stochastic import (
    StochasticIterationRecord,
    StochasticReport,
    StochasticStepConfig,
    dynamic_stochastic_solve,
    expected_descent_check,
    two_step_stochastic_solve,
)
from reference_derivatives import central_gradient, central_hessian
from reference_finite_sum import (
    component_means,
    least_squares_component,
    quadratic_component,
)
from reference_two_layer import reference_batch_hessian


@pytest.fixture
def tiny_quadratic():
    return random_quadratic_finite_sum(n=3, components=4, seed=11)


class TestFiniteSumConsistency:
    def test_full_objective_is_component_mean(self, tiny_quadratic):
        p = tiny_quadratic
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.normal(size=3)
            direct, g_direct, H_direct = component_means(quadratic_component, p, x,
                                                         range(4))
            assert p.evaluate(x) == pytest.approx(direct, rel=1e-12)
            np.testing.assert_allclose(p.gradient(x), g_direct, rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(p.hessian(x), H_direct, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("make, component", [
        (lambda: random_quadratic_finite_sum(n=3, components=6, seed=11),
         quadratic_component),
        (lambda: LinearLeastSquaresProblem(
            np.random.default_rng(12).normal(size=(6, 3)),
            np.random.default_rng(13).normal(size=6)), least_squares_component),
    ], ids=["quadratic", "least_squares"])
    def test_batch_is_component_mean(self, make, component):
        p = make()
        rng = np.random.default_rng(14)
        for rows in (1, 4, 6):
            x = rng.normal(size=3)
            idx = rng.choice(6, size=rows, replace=False)
            value, g_loop, H_loop = component_means(component, p, x, idx)
            assert p.batch_value(x, idx) == pytest.approx(value, rel=1e-12)
            np.testing.assert_allclose(p.batch_gradient(x, idx), g_loop,
                                       rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(p.batch_hessian(x, idx), H_loop,
                                       rtol=1e-12, atol=1e-14)

    def test_mean_hessian_is_shared_matrix(self, tiny_quadratic):
        p = tiny_quadratic
        np.testing.assert_allclose(
            p.hessian(np.zeros(3)), p.mean_matrix, rtol=1e-12, atol=1e-13
        )

    def test_minimizer_and_lower_bound(self, tiny_quadratic):
        p = tiny_quadratic
        xstar = p.known_minimizers[0]
        assert np.linalg.norm(p.gradient(xstar)) <= 1e-10
        rng = np.random.default_rng(1)
        for _ in range(10):
            assert p.evaluate(xstar + rng.normal(size=3)) >= p.lower_bound - 1e-12


class TestTwoLayerNet:
    def test_dimension(self):
        p = synthetic_two_layer_net(records=50, feature_dim=4, hidden_units=8)
        assert p.dimension == 8 * 4 + 2 * 8 + 1
        assert p.component_count == 50

    def test_derivatives_match_finite_differences(self):
        p = synthetic_two_layer_net(records=12, feature_dim=3, hidden_units=4)
        rng = np.random.default_rng(2)
        for _ in range(4):
            x = rng.normal(scale=0.7, size=p.dimension)
            g = p.gradient(x)
            fd_g = central_gradient(p.evaluate, x, step=1e-6)
            assert np.linalg.norm(fd_g - g) <= 1e-5 * max(1.0, np.linalg.norm(g))
            H = p.hessian(x)
            assert np.max(np.abs(H - H.T)) == 0.0
            fd_H = central_hessian(p.gradient, x, step=1e-6)
            assert np.max(np.abs(fd_H - H)) <= 1e-4 * max(1.0, np.max(np.abs(H)))

    def test_batch_matches_component_loop(self):
        p = synthetic_two_layer_net(records=10, feature_dim=2, hidden_units=3)
        x = np.random.default_rng(3).normal(size=p.dimension)
        idx = np.array([1, 4, 7])
        # one-row batches are the components
        v_loop = np.mean([p.batch_value(x, np.array([i])) for i in idx])
        assert p.batch_value(x, idx) == pytest.approx(v_loop, rel=1e-12)
        g_loop = np.mean([p.batch_gradient(x, np.array([i])) for i in idx], axis=0)
        np.testing.assert_allclose(p.batch_gradient(x, idx), g_loop, rtol=1e-10, atol=1e-14)
        H_loop = np.mean([p.batch_hessian(x, np.array([i])) for i in idx], axis=0)
        np.testing.assert_allclose(p.batch_hessian(x, idx), H_loop, rtol=1e-10, atol=1e-13)

    @pytest.mark.parametrize("net, rows", [
        ((500, 4, 8), 1), ((500, 4, 8), 32), ((500, 4, 8), 500),
        ((40, 1, 1), 32), ((40, 3, 2), 7),
    ])
    def test_batch_hessian_bit_identical_to_loop_reference(self, net, rows):
        records, feature_dim, hidden_units = net
        p = synthetic_two_layer_net(records=records, feature_dim=feature_dim,
                                    hidden_units=hidden_units)
        rng = np.random.default_rng([rows, hidden_units])
        for scale in (0.2, 1.0, 3.0):
            x = rng.normal(scale=scale, size=p.dimension)
            idx = rng.choice(records, size=rows, replace=False)
            assert np.array_equal(p.batch_hessian(x, idx),
                                  reference_batch_hessian(p, x, idx))


@given(hidden_units=st.integers(1, 8), feature_dim=st.integers(1, 5),
       records=st.integers(1, 64), data=st.data())
def test_batch_hessian_bit_identical_to_reference_over_net_shapes(
        hidden_units, feature_dim, records, data):
    # batches from one row up to the full batch, which the library reads
    # in place through _all_indices
    rows = data.draw(st.integers(1, records), label="rows")
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    p = TwoLayerNetProblem(rng.normal(size=(records, feature_dim)),
                           rng.normal(size=records), hidden_units=hidden_units)
    x = rng.normal(scale=data.draw(st.sampled_from([0.2, 1.0, 3.0])),
                   size=p.dimension)
    idx = rng.choice(records, size=rows, replace=False)
    assert np.array_equal(p.batch_hessian(x, idx),
                          reference_batch_hessian(p, x, idx))
    assert np.array_equal(p.batch_hessian(x, p._all_indices),
                          reference_batch_hessian(p, x, np.arange(records)))


@pytest.mark.parametrize("make", [
    lambda: random_quadratic_finite_sum(n=4, components=6, seed=2),
    # a strided view of the data, as load_dataset passes it
    lambda: LinearLeastSquaresProblem(
        np.random.default_rng(4).normal(size=(9, 4))[:, :-1],
        np.random.default_rng(5).normal(size=(9, 2))[:, 0]),
    lambda: TwoLayerNetProblem(
        np.random.default_rng(7).normal(size=(30, 4))[:, 1:],
        np.random.default_rng(8).normal(size=30), hidden_units=4),
], ids=["quadratic", "least_squares", "two_layer_net"])
def test_full_batch_read_in_place_equals_fresh_indices(make):
    p = make()
    rng = np.random.default_rng(9)
    fresh = np.arange(p.component_count)
    for _ in range(3):
        x = rng.normal(size=p.dimension)
        assert p.batch_value(x, p._all_indices) == p.batch_value(x, fresh)
        for name in ("batch_gradient", "batch_hessian"):
            method = getattr(p, name)
            assert np.array_equal(method(x, p._all_indices), method(x, fresh)), name
        value, gradient = p.batch_value_gradient(x, p._all_indices)
        assert value == p.evaluate(x) == p.batch_value(x, fresh)
        assert np.array_equal(gradient, p.gradient(x))
        assert np.array_equal(p.hessian(x), p.batch_hessian(x, fresh))


def _small_net():
    return synthetic_two_layer_net(records=40, feature_dim=3, hidden_units=4)


def _full_batch_derivatives(p, x, order):
    """f, g and H of `p` at x, called in `order`, with the full batch's
    value and gradient from batch_value_gradient."""
    calls = {"f": p.evaluate, "g": p.gradient, "H": p.hessian}
    found = {name: calls[name](x) for name in order}
    found["fg"] = p.batch_value_gradient(x, p._all_indices)
    return found


def _assert_same_bits(found, expected):
    assert found["f"] == expected["f"]
    assert np.array_equal(found["g"], expected["g"])
    assert np.array_equal(found["H"], expected["H"])
    assert found["fg"][0] == expected["fg"][0]
    assert np.array_equal(found["fg"][1], expected["fg"][1])


class TestTwoLayerFullBatchSlot:
    """The net's one slot for the last full-batch point never changes a
    bit: every read equals a fresh problem's, which has no slot yet."""

    def test_points_x_y_x_with_sampled_calls_between_equal_fresh_problems(self):
        p = _small_net()
        rng = np.random.default_rng(21)
        x, y = (rng.normal(scale=0.7, size=p.dimension) for _ in range(2))
        batch = np.array([5, 0, 17])
        # each order fills the slot first for a value, gradient or Hessian
        for point, order in ((x, "fgH"), (y, "Hgf"), (x, "gHf"), (y, "fHg")):
            sampled = p.batch_hessian(point, batch), p.batch_value_gradient(point, batch)
            found = _full_batch_derivatives(p, point, order)
            fresh = _small_net()
            _assert_same_bits(found, _full_batch_derivatives(fresh, point, "fgH"))
            assert np.array_equal(sampled[0], fresh.batch_hessian(point, batch))
            assert sampled[1][0] == fresh.batch_value(point, batch)
            assert np.array_equal(sampled[1][1], fresh.batch_gradient(point, batch))

    def test_parameters_changed_in_place_are_evaluated_afresh(self):
        p = _small_net()
        h, d = p.hidden_units, p.features.shape[1]
        x = p.default_start.copy()
        p.evaluate(x)
        x[0] += 0.25
        _assert_same_bits(_full_batch_derivatives(p, x, "fgH"),
                          _full_batch_derivatives(_small_net(), x, "fgH"))
        # the slot holds no output weights: a new array with the slot's
        # bytes reads its own after the array the slot was made from changes
        y = x.copy()
        x[h * d + h: h * d + 2 * h] += 1.0
        _assert_same_bits(_full_batch_derivatives(p, y, "gHf"),
                          _full_batch_derivatives(_small_net(), y, "fgH"))

    def test_a_fresh_index_of_every_row_skips_the_slot_with_equal_bits(self):
        p = _small_net()
        x = p.default_start
        p.evaluate(x)
        fresh = np.arange(p.component_count)
        forwards = []
        forward = p._forward
        p._forward = lambda theta, indices: forwards.append(indices) or forward(
            theta, indices)
        assert p.batch_value(x, fresh) == p.evaluate(x)
        assert np.array_equal(p.batch_gradient(x, fresh), p.gradient(x))
        assert np.array_equal(p.batch_hessian(x, fresh), p.hessian(x))
        assert [indices is fresh for indices in forwards] == [True] * 3

    @pytest.mark.parametrize("solve", [
        lambda p: deterministic.dynamic_solve(
            p, termination=deterministic.TerminationSpec(max_iterations=8)),
        lambda p: deterministic.two_step_solve(
            p, alpha=0.1, beta=0.1,
            termination=deterministic.TerminationSpec(max_iterations=8)),
    ], ids=["dynamic", "two_step"])
    def test_one_full_batch_forward_pass_per_evaluated_point(self, solve):
        p = make_problem("two_layer_net")
        points, forwards = [], []
        for name in ("evaluate", "gradient", "hessian"):
            method = getattr(p, name)
            setattr(p, name, lambda x, method=method: points.append(x.tobytes())
                    or method(x))
        forward = p._forward
        p._forward = lambda theta, indices: forwards.append(indices) or forward(
            theta, indices)
        report = solve(p)
        assert len(report.records) == 9
        distinct = len(set(points))
        # f, g and H at each iterate, g alone at a two-step x_hat
        assert len(points) >= 2 * distinct
        assert len(forwards) == distinct
        assert all(indices is p._all_indices for indices in forwards)

    def test_traced_solve_counts_every_full_batch_call(self):
        # the slot sits behind the batch methods, so the benchmark's
        # finite_sum.batch_* spans still see every value, gradient and
        # Hessian
        tracer = _load_tracer().Tracer()
        with tracer.installed():
            deterministic.dynamic_solve(
                make_problem("two_layer_net"),
                termination=deterministic.TerminationSpec(max_iterations=5))
        calls = {name: total["calls"] for name, total in tracer.layer_totals().items()}
        for kind, wrapper in (("value", "evaluate"), ("gradient", "gradient"),
                              ("hessian", "hessian")):
            assert calls["finite_sum.batch_" + kind] == calls["problems." + wrapper] > 0
        assert tracer.counter_mismatches() == []


def test_traced_two_step_solve_decomposes_once_per_table_miss():
    # the table sits behind sampled_eigenpair, so the benchmark's spans see
    # one batch Hessian and one eigenpair for each batch met first
    problem = random_quadratic_finite_sum(n=4, components=6, seed=2)
    tracer = _load_tracer().Tracer()
    with tracer.installed():
        two_step_stochastic_solve(StochasticOracle(problem, 2, seed=3),
                                  StochasticStepConfig(alpha_constant=0.01), 100)
    calls = {name: total["calls"] for name, total in tracer.layer_totals().items()}
    misses = len(problem._eigenpair_tables[2])
    # 100 draws of 6*5 = 30 ordered batches of 2: at least 70 hits
    assert 0 < misses <= 30
    assert calls["linalg.leftmost_eigenpair"] == misses
    assert calls["finite_sum.batch_hessian"] == misses
    assert tracer.counter_mismatches() == []


@pytest.mark.parametrize("make", [
    lambda: make_problem("two_layer_net"),
    lambda: make_problem("quadratic_sum"),
    lambda: LinearLeastSquaresProblem(
        np.random.default_rng(4).normal(size=(9, 3)),
        np.random.default_rng(5).normal(size=9)),
], ids=["two_layer_net", "quadratic_sum", "least_squares"])
@pytest.mark.parametrize("solve", [
    lambda p: deterministic.dynamic_solve(
        p, termination=deterministic.TerminationSpec(max_iterations=3)),
    lambda p: dynamic_stochastic_solve(StochasticOracle(p, 2, seed=1), iterations=3),
    # fills the x-independent problems' tables of sampled eigenpairs
    lambda p: two_step_stochastic_solve(StochasticOracle(p, 2, seed=1),
                                        StochasticStepConfig(alpha_constant=0.01), 3),
], ids=["dynamic", "stoch_dynamic", "stoch_two_step"])
def test_problem_is_freed_with_its_last_reference(make, solve):
    # no reference cycle holds a finite-sum problem, so it goes as soon as
    # it and its report are dropped, with the garbage collector off
    gc.disable()
    try:
        p = make()
        report = solve(p)
        problem = weakref.ref(p)
        del p, report
        assert problem() is None
    finally:
        gc.enable()


def _net_records(records=6, features=2):
    rng = np.random.default_rng(15)
    return rng.normal(size=(records, features)), rng.normal(size=records)


# each integer argument of the finite-sum constructors: its name, its
# minimum and a constructor taking it
CONSTRUCTOR_INTEGERS = {
    "net_hidden_units": ("hidden_units", 1, lambda k: TwoLayerNetProblem(
        *_net_records(), hidden_units=k)),
    "synthetic_hidden_units": ("hidden_units", 1, lambda k: synthetic_two_layer_net(
        records=6, hidden_units=k)),
    "records": ("records", 1, lambda k: synthetic_two_layer_net(records=k)),
    "feature_dim": ("feature_dim", 1, lambda k: synthetic_two_layer_net(
        records=6, feature_dim=k)),
    "n": ("n", 1, lambda k: random_quadratic_finite_sum(n=k, components=4)),
    "components": ("components", 1, lambda k: random_quadratic_finite_sum(
        n=3, components=k)),
}


@pytest.mark.parametrize("place", CONSTRUCTOR_INTEGERS)
def test_constructors_follow_the_integer_rule(place):
    # an integral number of any type builds the plain int's problem; a
    # fraction, a bool, a string or a value below the minimum is a
    # ValueError naming the argument
    name, minimum, make = CONSTRUCTOR_INTEGERS[place]
    x = make(2).default_start
    for integral in (np.int64(2), 2.0):
        same = make(integral)
        assert same.evaluate(x) == make(2).evaluate(x)
        assert np.array_equal(same.hessian(x), make(2).hessian(x))
    for bad in (2.5, True, "3", minimum - 1):
        with pytest.raises(ValueError, match="^%s must be a " % name):
            make(bad)


def test_odd_components_rejected():
    with pytest.raises(ValueError, match="^components must be even"):
        random_quadratic_finite_sum(n=3, components=5)


@pytest.mark.parametrize("spectrum", [
    [-1.0, 2.0], [0.0, 2.0], [1.0, 2.0, 3.0], [np.nan, 2.0], [1.0, np.inf],
], ids=["indefinite", "singular", "wrong_length", "nan", "inf"])
def test_quadratic_spectrum_must_be_finite_and_positive(spectrum):
    # an indefinite spectrum used to build with a lower bound the objective
    # goes below and a saddle as its minimizer; a singular one solved a
    # singular Q; the others died in broadcasting or the start check
    with pytest.raises(ValueError, match="^spectrum must hold n finite, positive"):
        random_quadratic_finite_sum(n=2, components=4, spectrum=spectrum)


@pytest.mark.parametrize("perturbation", [np.nan, np.inf, -1.0],
                         ids=["nan", "inf", "negative"])
def test_quadratic_perturbation_must_be_finite_and_nonnegative(perturbation):
    # a NaN or infinite perturbation used to build NaN matrices, minimizer
    # and lower bound
    with pytest.raises(ValueError, match="^perturbation must be nonnegative and "
                       "finite$"):
        random_quadratic_finite_sum(n=3, components=4, perturbation=perturbation)


@pytest.mark.parametrize("make, name", [
    (lambda: LinearLeastSquaresProblem([[np.nan, 1.0], [1.0, 2.0]], [1.0, 2.0]),
     "features"),
    (lambda: LinearLeastSquaresProblem([[1.0, 1.0], [1.0, 2.0]], [np.inf, 2.0]),
     "labels"),
    (lambda: TwoLayerNetProblem(np.ones((3, 2)), [1.0, np.inf, 0.0]), "labels"),
    (lambda: TwoLayerNetProblem([[1.0, -np.inf], [0.0, 1.0]], [1.0, 0.0]),
     "features"),
    (lambda: synthetic_two_layer_net(records=10, feature_dim=2, noise=np.nan),
     "labels"),
], ids=["least_squares_features", "least_squares_labels", "net_labels",
        "net_features", "synthetic_noise"])
def test_records_must_be_finite(make, name):
    # these used to build, with no documented constant or with a NaN
    # label, and failed only at the first evaluation; load_dataset applies
    # the same rule to a file
    with pytest.raises(ValueError, match="^%s must be finite$" % name):
        make()


def test_quadratic_center_scale_is_fixed():
    # an infinite center_scale used to build NaN minimizers; the scale is
    # now the constant 2, so no value can be passed
    with pytest.raises(TypeError, match="center_scale"):
        random_quadratic_finite_sum(n=3, components=4, center_scale=np.inf)


def test_least_squares_overflowing_gram_documents_no_lipschitz_constant():
    # the Gram matrix overflows: no constant, where it used to be NaN with
    # a numpy overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = LinearLeastSquaresProblem(np.full((4, 2), 1e200), np.zeros(4))
    assert p.local_gradient_lipschitz is None
    with pytest.raises(ValueError, match="gradient Lipschitz constant is required"):
        expected_descent_check(p, np.zeros(2),
                               StochasticStepConfig(alpha_constant=0.1), 10)


@pytest.mark.parametrize("make", [
    LinearLeastSquaresProblem, TwoLayerNetProblem], ids=["least_squares", "net"])
@pytest.mark.parametrize("shape", [(5, 0), (0, 2)], ids=["no_column", "no_record"])
def test_records_need_a_row_and_a_feature_column(make, shape):
    # as load_dataset requires of a file
    with pytest.raises(ValueError, match="at least one record and one column"):
        make(np.zeros(shape), np.zeros(shape[0]))


@pytest.mark.parametrize("make", [
    LinearLeastSquaresProblem, TwoLayerNetProblem], ids=["least_squares", "net"])
def test_writes_to_the_callers_data_leave_the_problem_as_built(make):
    # the problem copies its records: scaling the caller's features once
    # moved f tenfold while the Lipschitz constant stayed as built
    features, labels = _net_records()
    built = make(features, labels)
    reference = make(features.copy(), labels.copy())
    features *= 10.0
    labels[:] = 5.0
    x = np.random.default_rng(16).normal(size=built.dimension)
    assert built.evaluate(x) == reference.evaluate(x)
    assert np.array_equal(built.gradient(x), reference.gradient(x))
    assert np.array_equal(built.hessian(x), reference.hessian(x))
    assert built.local_gradient_lipschitz == reference.local_gradient_lipschitz


@pytest.mark.parametrize("make", [
    lambda: random_quadratic_finite_sum(n=4, components=6, seed=2),
    lambda: LinearLeastSquaresProblem(
        np.random.default_rng(4).normal(size=(9, 3)),
        np.random.default_rng(5).normal(size=9)),
    lambda: synthetic_two_layer_net(records=30, feature_dim=3, hidden_units=4),
], ids=["quadratic", "least_squares", "two_layer_net"])
def test_batch_value_gradient_equals_separate_calls(make):
    p = make()
    rng = np.random.default_rng(6)
    for rows in (1, 3, p.component_count):
        x = rng.normal(size=p.dimension)
        idx = rng.choice(p.component_count, size=rows, replace=False)
        value, gradient = p.batch_value_gradient(x, idx)
        assert value == p.batch_value(x, idx)
        assert np.array_equal(gradient, p.batch_gradient(x, idx))


@pytest.mark.parametrize("make", [
    lambda: LinearLeastSquaresProblem(
        np.random.default_rng(4).normal(size=(9, 3)),
        np.random.default_rng(5).normal(size=9)),
    lambda: synthetic_two_layer_net(records=30, feature_dim=3, hidden_units=4),
], ids=["least_squares", "two_layer_net"])
def test_batch_gradients_base_form_stacks_batch_gradient(make):
    p = make()
    rng = np.random.default_rng(7)
    x = rng.normal(size=p.dimension)
    for rows, b in ((1, 1), (5, 3), (2, p.component_count)):
        batches = np.array([rng.choice(p.component_count, size=b, replace=False)
                            for _ in range(rows)])
        expected = np.array([p.batch_gradient(x, batch) for batch in batches])
        assert p.batch_gradients(x, batches).tobytes() == expected.tobytes()


@given(n=st.integers(1, 12), pairs=st.integers(1, 10), data=st.data())
def test_quadratic_batch_gradients_rows_are_batch_gradient_bit_for_bit(
        n, pairs, data):
    p = random_quadratic_finite_sum(n=n, components=2 * pairs, seed=n + pairs)
    b = data.draw(st.integers(1, p.component_count), label="batch_size")
    rows = data.draw(st.integers(1, 40), label="rows")
    x = data.draw(hnp.arrays(float, n, elements=st.floats(-1e3, 1e3)), label="x")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    batches = np.array([rng.choice(p.component_count, size=b, replace=False)
                        for _ in range(rows)])
    gradients = p.batch_gradients(x, batches)
    assert gradients.shape == (rows, n)
    for row, batch in zip(gradients, batches):
        assert row.tobytes() == p.batch_gradient(x, batch).tobytes()


def _scaled_points(data, n, count):
    """`count` points of dimension n, each scaled by a power of ten in
    [1e-150, 1e150]."""
    points = data.draw(hnp.arrays(float, (count, n), elements=st.floats(-10.0, 10.0)),
                       label="points")
    exponents = data.draw(hnp.arrays(int, (count, 1), elements=st.sampled_from(
        [-150, 150]) | st.integers(-150, 150)), label="exponents")
    return points * 10.0 ** exponents


def _check_exact_norms(problem, points, expected):
    """The exact norms of records at `points` are `expected`, row i's
    `norm(problem.gradient(points[i]))`, bit for bit; where one of those
    raised, the EvaluationError of the first at its x."""
    report = StochasticReport(problem.name, problem=problem, records=[
        StochasticIterationRecord(i, x, 0.0, 0.0, 0.0, 0.0)
        for i, x in enumerate(points, start=1)])
    raised = [i for i, value in enumerate(expected) if isinstance(value, EvaluationError)]
    if not raised:
        assert report.exact_gradient_norms().tobytes() == np.array(expected).tobytes()
        return
    first = raised[0]
    with pytest.raises(EvaluationError, match="^%s$" % expected[first]) as info:
        report.exact_gradient_norms()
    assert np.array_equal(info.value.x, expected[first].x)


def _gradient_norm(problem, x):
    try:
        return norm(problem.gradient(x))
    except EvaluationError as err:
        return err


@pytest.mark.filterwarnings("ignore:overflow encountered",
                            "ignore:invalid value encountered")
@given(n=st.integers(1, 12), pairs=st.integers(1, 20), data=st.data())
def test_quadratic_full_gradients_rows_are_gradient_bit_for_bit(n, pairs, data):
    # a spectrum scaled down to 1e-160 brings the squared norms of the
    # gradients below the smallest normal double, where norm rescales; one
    # scaled up to 1e10 brings them past the largest at the largest points,
    # and one scaled up to 1e160 at every point
    spectrum = np.linspace(1.0, 4.0, n) * data.draw(
        st.sampled_from([1e-160, 1.0, 1e10, 1e160]), label="spectrum_scale")
    p = random_quadratic_finite_sum(n=n, components=2 * pairs, seed=n + pairs,
                                    spectrum=spectrum)
    chunk = finite_sum._PROBE_CHUNK_BYTES // (8 * p.component_count * n)
    # rows drawn from a few distinct points, as many as one pass takes or
    # past it, so each row is checked against its point's own gradient
    distinct = _scaled_points(data, n, data.draw(st.integers(1, 6), label="distinct"))
    rows = data.draw(st.integers(1, 4) | st.integers(chunk - 1, chunk + 2), label="rows")
    which = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))).integers(
        len(distinct), size=rows)
    points = distinct[which]
    gradients = p.full_gradients(points)
    assert gradients.shape == (rows, n)
    # the gradient `gradient` returns, or checks and rejects
    expected = np.array([p._gradient_fn(x) for x in distinct])
    assert gradients.tobytes() == expected[which].tobytes()
    norms = [_gradient_norm(p, x) for x in distinct]
    _check_exact_norms(p, points, [norms[i] for i in which])


@pytest.mark.filterwarnings("ignore:overflow encountered",
                            "ignore:invalid value encountered")
@pytest.mark.parametrize("make", [
    lambda: LinearLeastSquaresProblem(
        np.random.default_rng(4).normal(size=(9, 3)),
        np.random.default_rng(5).normal(size=9)),
    lambda: synthetic_two_layer_net(records=30, feature_dim=3, hidden_units=4),
], ids=["least_squares", "two_layer_net"])
@given(data=st.data())
def test_full_gradients_base_form_rows_are_gradient_bit_for_bit(make, data):
    p = make()
    points = _scaled_points(data, p.dimension, data.draw(st.integers(1, 5), label="rows"))
    expected = np.array([p._gradient_fn(x) for x in points])
    assert p.full_gradients(points).tobytes() == expected.tobytes()
    _check_exact_norms(p, points, [_gradient_norm(p, x) for x in points])


@pytest.mark.parametrize("make", [
    lambda: random_quadratic_finite_sum(n=3, components=4, seed=11),
    lambda: LinearLeastSquaresProblem(*_net_records()),
    lambda: synthetic_two_layer_net(records=10, feature_dim=2, hidden_units=3),
], ids=["quadratic", "least_squares", "two_layer_net"])
def test_full_gradients_check_the_points_and_move_no_counter(make):
    p = make()
    with pytest.raises(ValueError, match="^point has non-finite coordinates$"):
        p.full_gradients(np.array([[0.0] * p.dimension, [np.nan] * p.dimension]))
    for shape in ((p.dimension,), (2, p.dimension + 1), (1, 1, p.dimension)):
        with pytest.raises(ValueError, match="^points of shape"):
            p.full_gradients(np.zeros(shape))
    assert p.full_gradients(np.zeros((0, p.dimension))).shape == (0, p.dimension)
    p.full_gradients(np.ones((3, p.dimension)))
    assert (p.evaluation_count, p.gradient_count, p.hessian_count) == (0, 0, 0)


@pytest.mark.parametrize("make, names", [
    (lambda: random_quadratic_finite_sum(n=3, components=4, seed=11),
     ("matrices", "centers", "mean_matrix")),
    (lambda: LinearLeastSquaresProblem(*_net_records()), ("features", "labels")),
    (lambda: TwoLayerNetProblem(*_net_records()), ("features", "labels")),
], ids=["quadratic", "least_squares", "two_layer_net"])
def test_data_arrays_are_read_only(make, names):
    # every cache and stacked pass assumes the data never change
    p = make()
    for name in names:
        data = getattr(p, name)
        with pytest.raises(ValueError, match="read-only"):
            data.flat[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            data *= 2.0


@given(hnp.arrays(float, st.integers(1, 300),
                  elements=st.floats(-1e6, 1e6) | st.floats(-1e-6, 1e-6)))
def test_mean_is_np_mean_bit_for_bit(a):
    assert struct.pack("<d", _mean(a)) == struct.pack("<d", float(np.mean(a)))


def test_quadratic_batch_hessian_is_the_mean_matrix_bit_for_bit():
    p = random_quadratic_finite_sum(n=4, components=6, seed=2)
    x = np.ones(4)
    for idx in (p._all_indices, np.array([3, 0, 5]), np.array([1])):
        expected = np.mean(p.matrices[idx], axis=0)
        assert p.batch_hessian(x, idx).tobytes() == expected.tobytes()


class TestLoadDataset:
    def _write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        return path

    def test_four_row_two_feature_csv(self, tmp_path):
        path = self._write(tmp_path, "1,2,3\n4,5,6\n7,8,9\n1,0,1\n")
        p = load_dataset(path)
        assert isinstance(p, LinearLeastSquaresProblem)
        assert p.component_count == 4
        assert p.dimension == 2

    def test_header_skipped_with_flag(self, tmp_path):
        path = self._write(tmp_path, "a,b,label\n1,2,3\n4,5,6\n")
        p = load_dataset(path, has_header=True)
        assert p.component_count == 2

    def test_empty_file_is_schema_error(self, tmp_path):
        path = self._write(tmp_path, "")
        with pytest.raises(DatasetSchemaError):
            load_dataset(path)

    def test_non_numeric_cell_cites_row(self, tmp_path):
        path = self._write(tmp_path, "1,2\n3,4\n5,oops\n")
        with pytest.raises(DatasetParseError, match="row 3"):
            load_dataset(path)

    def test_non_finite_cell_cites_row_and_cell(self, tmp_path):
        # float() parses nan and inf, which used to load as features
        path = self._write(tmp_path, "1,2,3\nnan,1,2\n3,inf,1\n")
        with pytest.raises(DatasetParseError,
                           match=r"^row 2: cell 1 \('nan'\) is not a finite number$"):
            load_dataset(path)
        path = self._write(tmp_path, "1,2,3\n3,-inf,1\n")
        with pytest.raises(DatasetParseError, match="^row 2: cell 2 "):
            load_dataset(path)

    def test_ragged_row_is_schema_error(self, tmp_path):
        path = self._write(tmp_path, "1,2,3\n4,5\n")
        with pytest.raises(DatasetSchemaError, match="row 2"):
            load_dataset(path)

    def test_single_column_is_schema_error(self, tmp_path):
        path = self._write(tmp_path, "1\n2\n")
        with pytest.raises(DatasetSchemaError):
            load_dataset(path)

    def test_two_layer_model(self, tmp_path):
        path = self._write(tmp_path, "1,2,3\n4,5,6\n7,8,9\n")
        p = load_dataset(path, model="two_layer", hidden_units=3)
        assert p.dimension == 3 * 2 + 2 * 3 + 1


TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")


def _load_tracer():
    """The benchmark's tracer module, loaded from its file without edits."""
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


class TestStochasticOracle:
    def test_batch_size_exceeding_components_rejected(self, tiny_quadratic):
        with pytest.raises(ValueError):
            StochasticOracle(tiny_quadratic, batch_size=5, seed=0)

    @pytest.mark.parametrize("name, value", [
        ("batch_size", 2.7), ("batch_size", True),
        ("seed", 1.9), ("seed", -0.5), ("seed", True),
    ], ids=["batch_size-fraction", "batch_size-bool", "seed-fraction",
            "seed-negative-fraction", "seed-bool"])
    def test_non_integral_or_bool_argument_rejected(self, tiny_quadratic, name,
                                                    value):
        kwargs = {"batch_size": 2, "seed": 0, name: value}
        with pytest.raises(ValueError, match=name):
            StochasticOracle(tiny_quadratic, **kwargs)

    def test_integral_arguments_of_other_types_accepted(self, tiny_quadratic):
        a = StochasticOracle(tiny_quadratic, batch_size=np.int64(2), seed=3.0)
        b = StochasticOracle(tiny_quadratic, batch_size=2, seed=3)
        assert (a.batch_size, a.seed) == (2, 3)
        np.testing.assert_array_equal(a.next_gradient_batch(), b.next_gradient_batch())

    @staticmethod
    def assert_draws_are_per_call_draws(oracle, counts):
        # stream j is default_rng(SeedSequence(seed).spawn(3)[j]); its k-th
        # draw equals that generator's k-th per-call choice or uniform,
        # whatever the other streams do, however the draws come in blocks
        n, b = oracle.problem.component_count, oracle.batch_size
        gradient, hessian, omega = (
            np.random.default_rng(s)
            for s in np.random.SeedSequence(oracle.seed).spawn(3))
        streams = [
            (oracle.next_gradient_batch,
             lambda: gradient.choice(n, size=b, replace=False)),
            (oracle.next_hessian_batch,
             lambda: hessian.choice(n, size=b, replace=False)),
            (oracle.next_omega, lambda: float(omega.uniform(-1.0, 1.0))),
        ]

        def assert_next_draws_agree(stream):
            draw, reference = streams[stream]
            drawn, expected = draw(), reference()
            assert type(drawn) is type(expected)
            np.testing.assert_array_equal(drawn, expected)

        order = np.repeat([0, 1, 2], counts)
        np.random.default_rng(oracle.seed).shuffle(order)
        for stream in order:
            assert_next_draws_agree(stream)
        # every stream has handed out exactly its own draws: each next draw
        # is still its reference's next one
        for stream in range(3):
            assert_next_draws_agree(stream)

    @pytest.mark.parametrize("seed", [0, 5, 2017])
    def test_streams_are_generators_spawned_from_the_seed(self, tiny_quadratic, seed):
        oracle = StochasticOracle(tiny_quadratic, batch_size=2, seed=seed)
        self.assert_draws_are_per_call_draws(oracle, [7, 3, 5])

    # (N, b, drawn in blocks): a block of 256 batches fits within the byte
    # cap at (8000, 4), not at (8001, 4) or past it; numpy's choice runs
    # Floyd's algorithm up to (10000, 200) and shuffles the tail of
    # arange(N) at (10001, 201)
    @pytest.mark.parametrize("n, b, blocks", [
        (4, 2, True), (20, 2, True), (40, 40, True), (500, 32, True),
        (8000, 4, True), (8001, 4, False), (10000, 200, False),
        (10001, 201, False),
    ])
    def test_every_draw_is_the_per_call_draw(self, n, b, blocks):
        assert _draws_batches_in_blocks(n, b) == blocks
        problem = LinearLeastSquaresProblem(np.ones((n, 1)), np.zeros(n))
        oracle = StochasticOracle(problem, batch_size=b, seed=11)
        # interleaved, and each stream past two block boundaries
        self.assert_draws_are_per_call_draws(
            oracle, [2 * _DRAW_BLOCK + 3, 2 * _DRAW_BLOCK + 1, 2 * _DRAW_BLOCK + 2])

    @pytest.mark.parametrize("stream", ["next_gradient_batch", "next_hessian_batch"])
    def test_batches_are_uniform_row_pairs(self, tiny_quadratic, stream):
        # N=4, batch 2: each of the 6 row pairs has probability 1/6
        oracle = StochasticOracle(tiny_quadratic, batch_size=2, seed=123)
        draws = 6000
        counts = dict.fromkeys(itertools.combinations(range(4), 2), 0)
        for _ in range(draws):
            batch = getattr(oracle, stream)()
            assert len(set(batch.tolist())) == 2
            counts[tuple(sorted(batch.tolist()))] += 1
        p = 1.0 / 6.0
        stderr = np.sqrt(p * (1.0 - p) / draws)
        for pair, count in counts.items():
            assert abs(count / draws - p) <= 5.0 * stderr, pair

    def test_tracer_oracle_span_wraps_the_draw_methods(self):
        # the benchmark's finite_sum.oracle span finds the draw methods by
        # name; after a rename its us_per_draw would read 0 without an error
        tracer = _load_tracer()
        module, cls_name, methods, _ = tracer.METHODS["finite_sum.oracle"]
        assert (module, cls_name) == ("ncopt.finite_sum", "StochasticOracle")
        for name in ("next_gradient_batch", "next_hessian_batch", "next_omega"):
            assert name in methods
            assert callable(vars(StochasticOracle).get(name)), name

    def test_every_function_the_tracer_patches_exists(self):
        # the tracer looks each one up by name, so a renamed or deleted one
        # breaks every traced benchmark run
        for span, (module, name, _) in _load_tracer().FUNCTIONS.items():
            assert callable(getattr(importlib.import_module(module), name, None)), \
                span

    def test_traced_dynamic_solve_sizes_once_per_inner_pass(self):
        # what `bench/run.py --trace 1` does around each solve: every span
        # installs, steps.optimal_stepsizes counts the inner passes, and the
        # originals come back
        tracer = _load_tracer().Tracer()
        originals = (steps.optimal_stepsizes, deterministic.optimal_stepsizes)
        with tracer.installed():
            report = deterministic.dynamic_solve(make_problem("quartic_saddle"),
                                                 x0=np.array([0.0, 0.0]))
        assert (steps.optimal_stepsizes, deterministic.optimal_stepsizes) == originals
        calls = {name: total["calls"] for name, total in tracer.layer_totals().items()}
        taken = [r for r in report.records if r.step_taken != "none"]
        assert calls["steps.optimal_stepsizes"] == sum(r.inner_loop_count
                                                       for r in taken) > len(taken)
        assert calls["steps.descent_direction"] == len(taken)
        assert calls["deterministic.dynamic_solve"] == 1
        assert tracer.counter_mismatches() == []

    def test_full_batch_estimates_are_exact(self, tiny_quadratic):
        p = tiny_quadratic
        oracle = StochasticOracle(p, batch_size=4, seed=3)
        x = np.array([0.3, -1.0, 2.0])
        v, g = p.batch_value_gradient(x, oracle.next_gradient_batch())
        H = p.batch_hessian(x, oracle.next_hessian_batch())
        assert v == pytest.approx(p.evaluate(x), rel=1e-12)
        np.testing.assert_allclose(g, p.gradient(x), rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(H, p.hessian(x), rtol=1e-12, atol=1e-13)

    def test_identical_seeds_replay_identically(self, tiny_quadratic):
        p = tiny_quadratic
        x = np.array([1.0, 2.0, -0.5])
        seq_a, seq_b = [], []
        for seq in (seq_a, seq_b):
            oracle = StochasticOracle(p, batch_size=2, seed=99)
            for _ in range(5):
                v, g = p.batch_value_gradient(x, oracle.next_gradient_batch())
                seq.extend([v, g, p.batch_hessian(x, oracle.next_hessian_batch()),
                            oracle.next_omega()])
        for a, b in zip(seq_a, seq_b):
            np.testing.assert_array_equal(a, b)

    def test_streams_are_independent(self, tiny_quadratic):
        a = StochasticOracle(tiny_quadratic, batch_size=2, seed=5)
        b = StochasticOracle(tiny_quadratic, batch_size=2, seed=5)
        a.next_gradient_batch()
        a.next_gradient_batch()
        omega = a.next_omega()
        # the hessian stream of `a` was never advanced
        np.testing.assert_array_equal(a.next_hessian_batch(), b.next_hessian_batch())
        # nor do the other streams' draws move the gradient or omega streams
        b.next_gradient_batch()
        b.next_gradient_batch()
        np.testing.assert_array_equal(a.next_gradient_batch(), b.next_gradient_batch())
        assert b.next_omega() == omega

    def test_omega_in_unit_interval(self, tiny_quadratic):
        oracle = StochasticOracle(tiny_quadratic, batch_size=1, seed=17)
        draws = np.array([oracle.next_omega() for _ in range(500)])
        assert np.all(draws >= -1.0) and np.all(draws <= 1.0)
        assert abs(draws.mean()) < 0.1

    def test_enumerated_batches_average_to_exact_gradient(self, tiny_quadratic):
        # N=4, batch 2: the 6 equally likely batches average to the gradient
        p = tiny_quadratic
        x = np.array([0.5, 0.5, -2.0])
        batches = list(itertools.combinations(range(4), 2))
        assert len(batches) == 6
        mean_estimate = np.mean(
            [p.batch_gradient(x, np.array(b)) for b in batches], axis=0
        )
        np.testing.assert_allclose(mean_estimate, p.gradient(x), rtol=1e-12, atol=1e-14)

    def test_sampled_batches_are_unbiased(self, tiny_quadratic):
        # empirical check that choice() draws subsets uniformly
        p = tiny_quadratic
        x = np.array([0.5, 0.5, -2.0])
        oracle = StochasticOracle(p, batch_size=2, seed=123)
        draws = np.mean(
            [p.batch_gradient(x, oracle.next_gradient_batch()) for _ in range(4000)],
            axis=0,
        )
        assert np.linalg.norm(draws - p.gradient(x)) < 0.35
