"""Per-primitive VJP checks against central finite differences."""

from __future__ import annotations

import numpy as np
import pytest

from lignn.model import autograd as ag

from fdcheck import central_diff, max_relative_error

RNG = np.random.default_rng(123)
TOL = 1e-6


def check(build_loss, arrays: dict[str, np.ndarray]):
    """build_loss(params: dict[str, Tensor]) -> Tensor scalar."""

    def forward_only():
        params = {k: ag.Tensor(v) for k, v in arrays.items()}
        return float(build_loss(params).data)

    params = {k: ag.parameter(v) for k, v in arrays.items()}
    loss = build_loss(params)
    loss.backward()
    analytic = {k: p.grad if p.grad is not None else np.zeros_like(p.data) for k, p in params.items()}
    numeric = central_diff(forward_only, arrays)
    err, name = max_relative_error(analytic, numeric)
    assert err < TOL, f"grad mismatch on {name}: {err}"


def test_add_mul_broadcast():
    arrays = {"a": RNG.normal(size=(3, 4)), "b": RNG.normal(size=(1, 4)), "c": RNG.normal(size=(3, 1))}
    check(lambda p: ag.tsum(ag.mul(ag.add(p["a"], p["b"]), p["c"])), arrays)


def test_sub_div():
    arrays = {"a": RNG.normal(size=(2, 3)), "b": RNG.uniform(1.0, 2.0, size=(2, 3))}
    check(lambda p: ag.tsum(ag.div(ag.sub(p["a"], p["b"]), p["b"])), arrays)


def test_matmul_2d():
    arrays = {"a": RNG.normal(size=(3, 4)), "b": RNG.normal(size=(4, 2))}
    check(lambda p: ag.tsum(ag.matmul(p["a"], p["b"])), arrays)


def test_matmul_batched_with_shared_rhs():
    arrays = {"a": RNG.normal(size=(2, 3, 4)), "b": RNG.normal(size=(4, 4))}
    check(lambda p: ag.tsum(ag.matmul(p["a"], p["b"])), arrays)


def test_matmul_batched_both():
    arrays = {"a": RNG.normal(size=(2, 3, 4)), "b": RNG.normal(size=(2, 4, 3))}
    c = ag.constant(RNG.normal(size=(2, 3, 3)))
    check(lambda p: ag.tsum(ag.mul(ag.matmul(p["a"], p["b"]), c)), arrays)


@pytest.mark.parametrize("op", [ag.softplus])
def test_elementwise(op):
    arrays = {"a": RNG.normal(size=(3, 3))}
    check(lambda p: ag.tsum(op(p["a"])), arrays)


def test_sqrt():
    arrays = {"a": RNG.uniform(0.5, 2.0, size=(3, 3))}
    c = ag.constant(RNG.normal(size=(3, 3)))
    check(lambda p: ag.tsum(ag.mul(ag.sqrt(p["a"]), c)), arrays)


def test_sum_axis_keepdims():
    arrays = {"a": RNG.normal(size=(3, 4))}
    c = ag.constant(RNG.normal(size=(3, 1)))
    check(lambda p: ag.tsum(ag.mul(ag.tsum(p["a"], axis=1, keepdims=True), c)), arrays)


def test_mean_axis():
    arrays = {"a": RNG.normal(size=(2, 3, 4))}
    c = ag.constant(RNG.normal(size=(2, 4)))
    check(lambda p: ag.tsum(ag.mul(ag.tmean(p["a"], axis=1), c)), arrays)


def test_reshape_swapaxes():
    arrays = {"a": RNG.normal(size=(2, 6))}
    c = ag.constant(RNG.normal(size=(2, 2, 3)))
    check(
        lambda p: ag.tsum(ag.mul(ag.swapaxes(ag.reshape(p["a"], (2, 3, 2)), 1, 2), c)),
        arrays,
    )


def test_concat_getitem():
    arrays = {"a": RNG.normal(size=(2, 3)), "b": RNG.normal(size=(2, 2))}
    w = ag.constant(RNG.normal(size=(2, 3)))
    def loss(p):
        c = ag.concat([p["a"], p["b"]], axis=1)
        return ag.tsum(ag.mul(c[:, 1:4], w))
    check(loss, arrays)


def test_gather_rows():
    arrays = {"t": RNG.normal(size=(5, 3))}
    idx = np.array([0, 2, 2, 4])
    c = ag.constant(RNG.normal(size=(4, 3)))
    check(lambda p: ag.tsum(ag.mul(ag.gather_rows(p["t"], idx), c)), arrays)


def test_segment_sum_weighted():
    arrays = {"x": RNG.normal(size=(6, 3))}
    ids = np.array([0, 0, 1, 1, 1, 3])
    w = RNG.uniform(0.5, 1.5, size=6)
    c = ag.constant(RNG.normal(size=(4, 3)))
    check(
        lambda p: ag.tsum(ag.mul(ag.segment_sum(p["x"], ids, 4, w), c)),
        arrays,
    )


def test_gather_mean_empty_segment():
    arrays = {"x": RNG.normal(size=(5, 2))}
    index = np.array([4, 0, 1, 1, 3, 0])
    ids = np.array([0, 0, 2, 2, 2, 0])  # segment 1 empty, rows read twice
    c = ag.constant(RNG.normal(size=(3, 2)))
    def loss(p):
        m = ag.gather_mean(p["x"], index, ids, 3)
        assert np.array_equal(m.data[1], [0.0, 0.0])
        return ag.tsum(ag.mul(m, c))
    check(loss, arrays)


def test_project():
    arrays = {
        "W0": RNG.normal(size=(3, 2)), "b0": RNG.normal(size=(1, 2)), "E0": RNG.normal(size=(4, 2)),
        "W1": RNG.normal(size=(2, 2)), "b1": RNG.normal(size=(1, 2)), "E1": RNG.normal(size=(3, 2)),
    }
    feats0, feats1 = RNG.normal(size=(3, 3)), RNG.normal(size=(2, 2))
    c = ag.constant(RNG.normal(size=(5, 4)))
    def loss(p):
        out = ag.project([
            ([1, 2, 4], feats0, p["W0"], p["b0"], p["E0"], np.array([3, 0, 3])),
            ([3, 0], feats1, p["W1"], p["b1"], p["E1"], np.array([2, 1])),
        ], 5)
        return ag.tsum(ag.mul(out, c))
    check(loss, arrays)


def test_concat_affine_tanh():
    arrays = {
        "x": RNG.normal(size=(3, 2)), "a": RNG.normal(size=(3, 3)),
        "W": RNG.normal(size=(5, 4)), "b": RNG.normal(size=(1, 4)),
    }
    c = ag.constant(RNG.normal(size=(3, 4)))
    check(lambda p: ag.tsum(ag.mul(ag.concat_affine_tanh([p["x"], p["a"]], p["W"], p["b"]), c)), arrays)


def test_segment_softmax():
    arrays = {"s": RNG.normal(size=(7,))}
    ids = np.array([0, 0, 0, 1, 1, 2, 2])
    c = ag.constant(RNG.normal(size=7))
    def loss(p):
        y = ag.segment_softmax(p["s"], ids, 3)
        return ag.tsum(ag.mul(y, c))
    check(loss, arrays)
    # each segment sums to one
    y = ag.segment_softmax(ag.constant(arrays["s"]), ids, 3)
    sums = np.zeros(3)
    np.add.at(sums, ids, y.data)
    np.testing.assert_allclose(sums, 1.0)


def test_masked_softmax():
    arrays = {"x": RNG.normal(size=(2, 4, 4))}
    mask = np.tril(np.ones((4, 4), dtype=bool))
    c = ag.constant(RNG.normal(size=(2, 4, 4)))
    def loss(p):
        y = ag.masked_softmax(p["x"], mask)
        return ag.tsum(ag.mul(y, c))
    check(loss, arrays)


def test_masked_softmax_exact_exclusion():
    x = RNG.normal(size=(3, 3))
    mask = np.array([[True, False, True]] * 3)
    y1 = ag.masked_softmax(ag.constant(x), mask).data
    x2 = x.copy()
    x2[:, 1] += 1000.0  # huge change in a masked column
    y2 = ag.masked_softmax(ag.constant(x2), mask).data
    assert np.array_equal(y1, y2)  # 0 ulp
    assert np.all(y1[:, 1] == 0.0)


def test_masked_softmax_empty_row_raises():
    mask = np.array([[True, True], [False, False]])
    with pytest.raises(ValueError):
        ag.masked_softmax(ag.constant(RNG.normal(size=(2, 2))), mask)


def test_log_softmax():
    arrays = {"x": RNG.normal(size=(3, 5))}
    c = ag.constant(RNG.normal(size=(3, 5)))
    def loss(p):
        y = ag.log_softmax(p["x"])
        return ag.tsum(ag.mul(y, c))
    check(loss, arrays)


def test_grad_accumulates_on_reuse():
    a = ag.parameter(np.array([[2.0]]))
    loss = ag.tsum(ag.add(ag.mul(a, a), a))  # a^2 + a -> 2a + 1 = 5
    loss.backward()
    assert a.grad[0, 0] == pytest.approx(5.0)


def test_backward_does_not_alias_parent_grads():
    # add hands one gradient array to both parents; x's second use must not
    # change the gradient y received
    x = ag.parameter(np.zeros(2))
    y = ag.parameter(np.zeros(2))
    loss = ag.tsum(ag.add(ag.tsum(ag.add(x, y)), ag.tsum(ag.mul(3.0, x))))
    loss.backward()
    assert np.array_equal(x.grad, [4.0, 4.0])
    assert np.array_equal(y.grad, [1.0, 1.0])


def test_backward_requires_scalar():
    a = ag.parameter(RNG.normal(size=(2, 2)))
    with pytest.raises(ValueError):
        ag.add(a, a).backward()


def test_no_tape_for_constants():
    c = ag.add(ag.constant(1.0), ag.constant(2.0))
    assert c._parents == ()
