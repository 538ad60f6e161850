import math
import warnings

import numpy as np
import pytest

from conftest import central_difference, conv1d_oracle, max_relative_error, maxpool1d_oracle
from ssc import nn
from ssc.nn import Tensor

rng = np.random.default_rng(2024)


def grad_tensor(shape):
    t = Tensor(rng.normal(size=shape))
    t.requires_grad = True
    return t


class TestConv1d:
    def test_identity_kernel(self):
        x = rng.normal(size=(6, 3))
        kernel = np.eye(3)[None]  # k=1, C=F=3
        out = nn.conv1d(x, kernel, np.zeros(3)).data
        assert np.allclose(out, x)

    def test_zero_input_gives_bias_rows(self):
        bias = np.array([1.5, -2.0])
        out = nn.conv1d(np.zeros((5, 4)), rng.normal(size=(3, 4, 2)), bias).data
        assert np.allclose(out, np.tile(bias, (3, 1)))

    def test_random_case_vs_oracle(self):
        x = rng.normal(size=(7, 2))
        k = rng.normal(size=(3, 2, 2))
        b = rng.normal(size=(2,))
        got = nn.conv1d(x, k, b, padding="valid").data
        assert np.abs(got - conv1d_oracle(x, k, b, "valid")).max() < 1e-6

    @pytest.mark.parametrize("padding", ["valid", "same"])
    def test_100_random_cases(self, padding):
        local = np.random.default_rng(7)
        for _ in range(100):
            length = int(local.integers(3, 12))
            k = int(local.integers(1, min(5, length) + 1))
            c = int(local.integers(1, 4))
            f = int(local.integers(1, 4))
            x = local.normal(size=(length, c))
            kernel = local.normal(size=(k, c, f))
            bias = local.normal(size=(f,))
            got = nn.conv1d(x, kernel, bias, padding=padding).data
            want = conv1d_oracle(x, kernel, bias, padding)
            assert got.shape == want.shape
            assert np.abs(got - want).max() < 1e-6

    def test_same_padding_preserves_length(self):
        for k in (1, 2, 3, 4, 5):
            out = nn.conv1d(rng.normal(size=(9, 2)), rng.normal(size=(k, 2, 3)),
                            np.zeros(3), padding="same")
            assert out.data.shape == (9, 3)

    def test_kernel_too_large_valid(self):
        with pytest.raises(ValueError):
            nn.conv1d(rng.normal(size=(3, 2)), rng.normal(size=(4, 2, 1)),
                      np.zeros(1), padding="valid")

    def test_channel_mismatch(self):
        with pytest.raises(ValueError):
            nn.conv1d(rng.normal(size=(5, 3)), rng.normal(size=(2, 2, 1)), np.zeros(1))

    def test_batched_matches_per_sample(self):
        x = rng.normal(size=(4, 8, 3))
        k = rng.normal(size=(3, 3, 5))
        b = rng.normal(size=(5,))
        batched = nn.conv1d(x, k, b, padding="same").data
        for i in range(4):
            single = nn.conv1d(x[i], k, b, padding="same").data
            assert np.allclose(batched[i], single)


class TestPooling:
    def test_pool_equals_global_when_window_is_length(self):
        x = rng.normal(size=(6, 3))
        assert np.allclose(nn.maxpool1d(x, 6, 1).data[0], x.max(axis=0))

    def test_increasing_column_takes_window_ends(self):
        x = np.arange(8, dtype=float)[:, None]
        out = nn.maxpool1d(x, 2, 2).data
        assert out[:, 0].tolist() == [1, 3, 5, 7]

    def test_100_random_cases_exact(self):
        local = np.random.default_rng(8)
        for _ in range(100):
            length = int(local.integers(2, 14))
            pool = int(local.integers(1, length + 1))
            stride = int(local.integers(1, 4))
            x = local.normal(size=(length, int(local.integers(1, 4))))
            got = nn.maxpool1d(x, pool, stride).data
            want = maxpool1d_oracle(x, pool, stride)
            assert got.shape == want.shape and np.array_equal(got, want)

    def test_pool_larger_than_input_rejected(self):
        with pytest.raises(ValueError):
            nn.maxpool1d(rng.normal(size=(3, 2)), 4, 1)

    def test_global_single_row(self):
        x = rng.normal(size=(1, 5))
        assert np.array_equal(nn.global_maxpool(x).data, x[0])

    def test_global_column_max(self):
        x = np.array([[-1.0], [3.0], [2.0]])
        assert nn.global_maxpool(x).data[0] == 3.0

    def test_global_equals_full_window_pool(self):
        x = rng.normal(size=(9, 4))
        assert np.array_equal(nn.global_maxpool(x).data, nn.maxpool1d(x, 9, 1).data[0])

    def test_global_empty_rejected(self):
        with pytest.raises(ValueError):
            nn.global_maxpool(np.zeros((0, 3)))


class TestActivations:
    def test_relu_values(self):
        out = nn.activation(np.array([-1.0, 2.0]), "relu").data
        assert out.tolist() == [0.0, 2.0]

    def test_tanh_and_selu_at_zero(self):
        assert nn.tanh(np.array([0.0])).data[0] == 0.0
        assert nn.selu(np.array([0.0])).data[0] == 0.0

    def test_selu_at_one_is_lambda(self):
        # Plugging x=1 into the positive branch: selu(1) = lambda * 1.
        assert np.isclose(nn.selu(np.array([1.0])).data[0], 1.0507009873554805,
                          atol=1e-12)

    def test_selu_negative_branch(self):
        lam, alpha = nn.SELU_LAMBDA, nn.SELU_ALPHA
        x = np.array([-2.0])
        assert np.isclose(nn.selu(x).data[0], lam * alpha * (math.exp(-2.0) - 1.0))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            nn.activation(np.zeros(2), "gelu")


class TestDense:
    def test_identity(self):
        x = rng.normal(size=(6,))
        out = nn.dense(x, np.eye(6), np.zeros(6)).data
        assert np.allclose(out, x)

    def test_zero_input_gives_bias(self):
        b = rng.normal(size=(4,))
        assert np.allclose(nn.dense(np.zeros(3), rng.normal(size=(3, 4)), b).data, b)

    def test_random_vs_dot_oracle(self):
        x = rng.normal(size=(5,))
        w = rng.normal(size=(5, 3))
        b = rng.normal(size=(3,))
        want = np.array([sum(x[i] * w[i, j] for i in range(5)) + b[j] for j in range(3)])
        assert np.abs(nn.dense(x, w, b).data - want).max() <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            nn.dense(np.zeros(3), np.zeros((4, 2)), np.zeros(2))


class TestSoftmaxXent:
    def test_symmetric_logits(self):
        loss, p = nn.softmax_xent(np.zeros(2), 0)
        assert np.allclose(p, [0.5, 0.5])
        assert np.isclose(float(loss.data), math.log(2.0))

    def test_extreme_logits_stable(self):
        loss, p = nn.softmax_xent(np.array([1000.0, 0.0]), 0)
        assert float(loss.data) < 1e-6
        assert np.isfinite(p).all()

    def test_saturated_wrong_logit_gives_finite_loss(self):
        # p(gold) underflows to 0 here; -log(p) would be inf with a warning.
        logits = Tensor(np.array([1000.0, -1000.0]))
        logits.requires_grad = True
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            loss, p = nn.softmax_xent(logits, 1)
            loss.backward()
        assert float(loss.data) == 2000.0
        assert np.array_equal(p, [1.0, 0.0])
        assert np.array_equal(logits.grad, [1.0, -1.0])

    def test_probs_sum_to_one(self):
        local = np.random.default_rng(3)
        for _ in range(50):
            logits = local.normal(scale=50, size=(int(local.integers(1, 6)), 2))
            p = nn.softmax(logits)
            assert np.abs(p.sum(axis=-1) - 1.0).max() < 1e-12
            assert np.isfinite(p).all()

    def test_gradient_is_p_minus_onehot(self):
        logits = grad_tensor((2,))
        loss, p = nn.softmax_xent(logits, 1)
        loss.backward()
        assert np.allclose(logits.grad, p - np.array([0.0, 1.0]))

    def test_gradient_vs_finite_differences(self):
        data = rng.normal(size=(3, 2))
        logits = Tensor(data)
        logits.requires_grad = True
        loss, _ = nn.softmax_xent(logits, np.array([0, 1, 0]))
        loss.backward()
        numeric = central_difference(
            lambda: float(nn.softmax_xent(data, np.array([0, 1, 0]))[0].data),
            [data])[0]
        assert max_relative_error(logits.grad, numeric) < 1e-7


class TestBackwardBasics:
    def test_backward_requires_scalar(self):
        t = grad_tensor((3,))
        with pytest.raises(ValueError):
            nn.relu(t).backward()

    def test_frozen_tensor_gets_no_grad(self):
        x = Tensor(rng.normal(size=(4,)))  # requires_grad False
        w = grad_tensor((4, 2))
        loss, _ = nn.softmax_xent(nn.dense(x, w, Tensor(np.zeros(2))), 0)
        loss.backward()
        assert x.grad is None and w.grad is not None

    def test_closed_form_dense_xent(self):
        # Single dense + xent: dW = x^T (p - y).
        x_data = rng.normal(size=(3,))
        x = Tensor(x_data)
        w = grad_tensor((3, 2))
        b = grad_tensor((2,))
        loss, p = nn.softmax_xent(nn.dense(x, w, b), 1)
        loss.backward()
        delta = p - np.array([0.0, 1.0])
        assert np.allclose(w.grad, np.outer(x_data, delta))
        assert np.allclose(b.grad, delta)

    def test_grad_accumulates_across_reuse(self):
        x = grad_tensor((4,))
        y = nn.concat([nn.relu(x), nn.relu(x)])
        w = Tensor(np.ones((8, 2)))
        loss, _ = nn.softmax_xent(nn.dense(y, w, Tensor(np.zeros(2))), 0)
        loss.backward()
        assert x.grad is not None


OP_CASES = [
    ("conv_valid", lambda d: nn.conv1d(d["x"], d["k"], d["b"], padding="valid"),
     {"x": (7, 3), "k": (3, 3, 2), "b": (2,)}),
    ("conv_same", lambda d: nn.conv1d(d["x"], d["k"], d["b"], padding="same"),
     {"x": (6, 2), "k": (4, 2, 3), "b": (3,)}),
    ("maxpool", lambda d: nn.maxpool1d(d["x"], 3, 2), {"x": (9, 4)}),
    ("globalpool", lambda d: nn.global_maxpool(d["x"]), {"x": (8, 3)}),
    ("dense", lambda d: nn.dense(d["x"], d["w"], d["b"]),
     {"x": (5,), "w": (5, 4), "b": (4,)}),
    ("relu", lambda d: nn.relu(d["x"]), {"x": (6, 2)}),
    ("tanh", lambda d: nn.tanh(d["x"]), {"x": (6, 2)}),
    ("selu", lambda d: nn.selu(d["x"]), {"x": (6, 2)}),
    ("concat", lambda d: nn.concat([d["x"], d["w"]], axis=-1),
     {"x": (3, 4), "w": (3, 2)}),
    ("reshape", lambda d: nn.reshape(d["x"], (12,)), {"x": (3, 4)}),
]


@pytest.mark.parametrize("name,op,shapes", OP_CASES, ids=[c[0] for c in OP_CASES])
def test_gradcheck_per_op(name, op, shapes):
    """Central finite differences in 64-bit against the recorded backward."""
    local = np.random.default_rng(hash(name) % 2**32)
    arrays = {key: local.normal(size=shape) for key, shape in shapes.items()}
    readout = local.normal(size=64)  # fixed projection to a scalar

    def build_loss(tensors):
        out = op(tensors)
        flat = nn.reshape(out, (-1,))
        w = Tensor(readout[:flat.data.size])
        return nn.dense(flat, nn.reshape(w, (flat.data.size, 1)), Tensor(np.zeros(1)))

    tensors = {k: Tensor(v) for k, v in arrays.items()}
    for t in tensors.values():
        t.requires_grad = True
    loss = build_loss(tensors)
    loss = nn.reshape(loss, ())
    loss.backward()

    def loss_fn():
        fresh = {k: Tensor(v) for k, v in arrays.items()}
        return float(build_loss(fresh).data[0])

    for key in arrays:
        numeric = central_difference(loss_fn, [arrays[key]])[0]
        rel = max_relative_error(tensors[key].grad, numeric)
        assert rel < 1e-4, f"{name}/{key}: max relative error {rel}"


def test_gradcheck_embedding_lookup():
    local = np.random.default_rng(5)
    table = local.normal(size=(9, 4))
    idx = local.integers(0, 9, size=(7,))
    readout = local.normal(size=7 * 4)

    def loss_of(table_arr):
        t = Tensor(table_arr)
        t.requires_grad = True
        out = nn.embedding_lookup(t, idx)
        flat = nn.reshape(out, (-1,))
        loss = nn.dense(flat, Tensor(readout[:, None]), Tensor(np.zeros(1)))
        return t, nn.reshape(loss, ())

    t, loss = loss_of(table)
    loss.backward()
    numeric = central_difference(lambda: float(loss_of(table)[1].data), [table])[0]
    assert max_relative_error(t.grad, numeric) < 1e-6


def test_gradcheck_dropout_with_frozen_mask():
    local = np.random.default_rng(6)
    x = local.normal(size=(5, 4))
    readout = local.normal(size=20)

    def run(arr):
        t = Tensor(arr)
        t.requires_grad = True
        out = nn.dropout(t, 0.5, np.random.default_rng(123))  # same mask every call
        flat = nn.reshape(out, (-1,))
        loss = nn.dense(flat, Tensor(readout[:, None]), Tensor(np.zeros(1)))
        return t, nn.reshape(loss, ())

    t, loss = run(x)
    loss.backward()
    numeric = central_difference(lambda: float(run(x)[1].data), [x])[0]
    assert max_relative_error(t.grad, numeric) < 1e-6
