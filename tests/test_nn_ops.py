import math
import warnings

import numpy as np
import pytest

from conftest import (char_branch_composition, central_difference, conv1d_oracle,
                      max_relative_error, maxpool1d_oracle)
from ssc import nn
from ssc.nn import Tensor, ops

rng = np.random.default_rng(2024)


def grad_tensor(shape):
    t = Tensor(rng.normal(size=shape))
    t.requires_grad = True
    return t


def project(out, readout):
    """Scalar readout . vec(out): the (1, 1) output of a dense layer, as a () tensor."""
    flat = nn.reshape(out, (1, -1))
    w = Tensor(readout[:flat.data.size, None])
    return nn.reshape(nn.dense(flat, w, Tensor(np.zeros(1))), ())


class TestConv1d:
    def test_identity_kernel(self):
        x = rng.normal(size=(2, 6, 3))
        kernel = np.eye(3)[None]  # k=1, C=F=3
        out = nn.conv1d(x, kernel, np.zeros(3)).data
        assert np.allclose(out, x)

    def test_zero_input_gives_bias_rows(self):
        bias = np.array([1.5, -2.0])
        out = nn.conv1d(np.zeros((2, 5, 4)), rng.normal(size=(3, 4, 2)), bias).data
        assert np.allclose(out, np.tile(bias, (2, 3, 1)))

    def test_random_case_vs_oracle(self):
        x = rng.normal(size=(3, 7, 2))
        k = rng.normal(size=(3, 2, 2))
        b = rng.normal(size=(2,))
        got = nn.conv1d(x, k, b, padding="valid").data
        for row in range(3):
            assert np.abs(got[row] - conv1d_oracle(x[row], k, b, "valid")).max() < 1e-6

    @pytest.mark.parametrize("padding", ["valid", "same"])
    def test_100_random_cases(self, padding):
        local = np.random.default_rng(7)
        for _ in range(100):
            batch = int(local.integers(2, 5))
            length = int(local.integers(3, 12))
            k = int(local.integers(1, min(5, length) + 1))
            c = int(local.integers(1, 4))
            f = int(local.integers(1, 4))
            x = local.normal(size=(batch, length, c))
            kernel = local.normal(size=(k, c, f))
            bias = local.normal(size=(f,))
            got = nn.conv1d(x, kernel, bias, padding=padding).data
            for row in range(batch):
                want = conv1d_oracle(x[row], kernel, bias, padding)
                assert got[row].shape == want.shape
                assert np.abs(got[row] - want).max() < 1e-6

    def test_same_padding_preserves_length(self):
        for k in (1, 2, 3, 4, 5):
            out = nn.conv1d(rng.normal(size=(2, 9, 2)), rng.normal(size=(k, 2, 3)),
                            np.zeros(3), padding="same")
            assert out.data.shape == (2, 9, 3)

    def test_kernel_too_large_valid(self):
        with pytest.raises(ValueError):
            nn.conv1d(rng.normal(size=(2, 3, 2)), rng.normal(size=(4, 2, 1)),
                      np.zeros(1), padding="valid")

    def test_channel_mismatch(self):
        with pytest.raises(ValueError):
            nn.conv1d(rng.normal(size=(2, 5, 3)), rng.normal(size=(2, 2, 1)), np.zeros(1))

    def test_batched_matches_per_sample(self):
        x = rng.normal(size=(4, 8, 3))
        k = rng.normal(size=(3, 3, 5))
        b = rng.normal(size=(5,))
        batched = nn.conv1d(x, k, b, padding="same").data
        for i in range(4):
            assert np.allclose(batched[i], conv1d_oracle(x[i], k, b, "same"))


class TestPooling:
    def test_pool_equals_global_when_window_is_length(self):
        x = rng.normal(size=(2, 6, 3))
        assert np.allclose(nn.maxpool1d(x, 6).data[:, 0], x.max(axis=1))

    def test_increasing_column_takes_window_ends(self):
        x = np.arange(16, dtype=float).reshape(2, 8, 1)
        out = nn.maxpool1d(x, 2).data
        assert out[:, :, 0].tolist() == [[1, 3, 5, 7], [9, 11, 13, 15]]

    def test_100_random_cases_exact(self):
        local = np.random.default_rng(8)
        for _ in range(100):
            batch = int(local.integers(2, 5))
            length = int(local.integers(2, 14))
            pool = int(local.integers(1, length + 1))
            x = local.normal(size=(batch, length, int(local.integers(1, 4))))
            got = nn.maxpool1d(x, pool).data
            for row in range(batch):
                want = maxpool1d_oracle(x[row], pool, pool)
                assert got[row].shape == want.shape and np.array_equal(got[row], want)

    def test_argmax_only_when_a_gradient_is_needed(self):
        class CountingArgmax(np.ndarray):
            calls = 0

            def argmax(self, *args, **kwargs):
                CountingArgmax.calls += 1
                return super().argmax(*args, **kwargs)

        x = rng.normal(size=(2, 7, 3)).view(CountingArgmax)
        frozen = nn.maxpool1d(x, 2)
        assert CountingArgmax.calls == 0
        assert not frozen.requires_grad and frozen._parents == () and frozen._bwd is None
        trained = nn.maxpool1d(Tensor(x, requires_grad=True), 2)
        assert CountingArgmax.calls == 1 and trained._bwd is not None
        assert np.array_equal(frozen.data, trained.data)

    def test_pool_larger_than_input_rejected(self):
        with pytest.raises(ValueError):
            nn.maxpool1d(rng.normal(size=(2, 3, 2)), 4)

    def test_global_single_row(self):
        x = rng.normal(size=(2, 1, 5))
        assert np.array_equal(nn.global_maxpool(x).data, x[:, 0])

    def test_global_column_max(self):
        x = np.array([[[-1.0], [3.0], [2.0]], [[4.0], [0.0], [-5.0]]])
        assert nn.global_maxpool(x).data[:, 0].tolist() == [3.0, 4.0]

    def test_global_equals_full_window_pool(self):
        x = rng.normal(size=(3, 9, 4))
        assert np.array_equal(nn.global_maxpool(x).data, nn.maxpool1d(x, 9).data[:, 0])

    def test_global_empty_rejected(self):
        with pytest.raises(ValueError):
            nn.global_maxpool(np.zeros((2, 0, 3)))


def _char_branch_grads(op, table, idx, kernel, bias, readout, train_table=True):
    """(h, d table, d kernel, d bias) of readout . vec(op(...)) at float64."""
    t, k, b = Tensor(table.copy()), Tensor(kernel.copy()), Tensor(bias.copy())
    t.requires_grad, k.requires_grad, b.requires_grad = train_table, True, True
    out = op(t, idx, k, b)
    project(out, readout).backward()
    return out.data, t.grad, k.grad, b.grad


def _relative(got, want):
    """Largest difference relative to the largest entry of want."""
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-300))


class TestCharBranch:
    @pytest.mark.parametrize("train_table", [True, False], ids=["trained", "frozen"])
    def test_matches_composition(self, train_table):
        local = np.random.default_rng(18)
        for case in range(60):
            batch, length = int(local.integers(1, 5)), int(local.integers(1, 13))
            k = (1, length)[case] if case < 2 else int(local.integers(1, length + 1))
            v = int(local.integers(1, 7))  # few rows: ids repeat within and across rows
            c, f = int(local.integers(1, 5)), int(local.integers(1, 5))
            args = (local.normal(size=(v, c)), local.integers(0, v, size=(batch, length)),
                    local.normal(size=(k, c, f)), local.normal(size=(f,)))
            readout = local.normal(size=batch * f)
            got = _char_branch_grads(nn.char_branch, *args, readout, train_table)
            want = _char_branch_grads(char_branch_composition, *args, readout, train_table)
            assert got[0].shape == (batch, f)
            if not train_table:
                assert got[1] is None and want[1] is None
            for name, g, w in zip(("h", "dE", "dK", "dbias"), got, want):
                if w is not None:
                    assert _relative(g, w) <= 1e-12, (case, name)

    def test_tied_steps_send_the_gradient_to_the_first(self):
        # Rows 0 and 1 hold the same value, so steps 1 and 3 give the same z;
        # only step 1, and with it row 0, may receive the gradient.
        table = np.array([[1.0], [1.0], [0.0]])
        idx = np.array([[2, 0, 2, 1]])
        kernel, bias = np.array([[[0.5]]]), np.array([0.1])
        h, d_table, d_kernel, _ = _char_branch_grads(nn.char_branch, table, idx, kernel,
                                                     bias, np.ones(1))
        gz = 1 - np.tanh(0.6) ** 2
        assert h[0, 0] == np.tanh(0.6)
        assert d_table.tolist() == [[0.5 * gz], [0.0], [0.0]]
        assert d_kernel.ravel().tolist() == [gz]
        want = _char_branch_grads(char_branch_composition, table, idx, kernel, bias,
                                  np.ones(1))
        assert np.array_equal(d_table, want[1])

    @pytest.mark.parametrize("row_block", [1, 28, 42, 10 ** 6])
    def test_row_blocks_match_one_block_and_composition(self, monkeypatch, row_block):
        # B = 7 rows of L' = 7 steps and F = 2 filters: row_block 1 runs a row at a
        # time (the floor), 28 blocks of 2 rows and 42 of 3, each with a ragged last
        # block, and 10 ** 6 one block.
        local = np.random.default_rng(26)
        table, idx = local.normal(size=(6, 3)), local.integers(0, 6, size=(7, 9))
        kernel, bias = local.normal(size=(3, 3, 2)), local.normal(size=(2,))
        readout = local.normal(size=7 * 2)
        whole = nn.char_branch(table, idx, kernel, bias).data
        monkeypatch.setattr(ops, "ROW_BLOCK", row_block)
        frozen = nn.char_branch(table, idx, kernel, bias)
        got = _char_branch_grads(nn.char_branch, table, idx, kernel, bias, readout)
        want = _char_branch_grads(char_branch_composition, table, idx, kernel, bias, readout)
        assert np.array_equal(frozen.data, whole) and np.array_equal(got[0], whole)
        for name, g, w in zip(("h", "dE", "dK", "dbias"), got, want):
            assert _relative(g, w) <= 1e-12, name

    def test_without_gradient_records_no_backward(self):
        local = np.random.default_rng(27)
        out = nn.char_branch(local.normal(size=(5, 2)), local.integers(0, 5, size=(3, 6)),
                             local.normal(size=(2, 2, 4)), local.normal(size=(4,)))
        assert not out.requires_grad and out._parents == () and out._bwd is None

    @pytest.mark.parametrize("bad_id", [-1, 4], ids=["negative", "past_the_table"])
    @pytest.mark.parametrize("trained", [True, False], ids=["trained", "frozen"])
    def test_ids_outside_the_table_rejected(self, bad_id, trained):
        idx = np.zeros((2, 5), dtype=int)
        idx[1, 3] = bad_id
        table = Tensor(np.zeros((4, 2)), requires_grad=trained)
        with pytest.raises(IndexError, match=r"\[0, 4\)"):
            nn.char_branch(table, idx, np.zeros((2, 2, 3)), np.zeros(3))

    @pytest.mark.parametrize("table,idx,kernel,bias", [
        (np.zeros((4, 2)), np.zeros((2, 3), dtype=int), np.zeros((4, 2, 1)), np.zeros(1)),
        (np.zeros((4, 3)), np.zeros((2, 5), dtype=int), np.zeros((2, 2, 1)), np.zeros(1)),
        (np.zeros((4, 2)), np.zeros((2, 5), dtype=int), np.zeros((2, 2, 3)), np.zeros(2)),
        (np.zeros((4, 2)), np.zeros((2, 5), dtype=int), np.zeros((2, 2, 3)), np.zeros((1, 3))),
    ], ids=["kernel_longer_than_L", "table_width", "bias_length", "bias_rank"])
    def test_bad_shapes_rejected(self, table, idx, kernel, bias):
        with pytest.raises(ValueError):
            nn.char_branch(table, idx, kernel, bias)


class TestActivations:
    def test_relu_values(self):
        out = nn.relu(np.array([-1.0, 2.0])).data
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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_selu_far_from_zero_without_overflow(self, dtype):
        # exp(1000) overflows in both precisions; the positive branch must not
        # compute it, forward or backward, even though np.where would drop it.
        lam, alpha = nn.SELU_LAMBDA, nn.SELU_ALPHA
        x = Tensor(np.array([[-1000.0, 1000.0]], dtype=dtype), requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = nn.selu(x)
            project(out, np.ones(2)).backward()
        rtol = 4 * np.finfo(dtype).eps
        assert out.data.dtype == dtype and x.grad.dtype == dtype
        np.testing.assert_allclose(out.data, [[lam * alpha * math.expm1(-1000.0), lam * 1000.0]],
                                   rtol=rtol)
        np.testing.assert_allclose(x.grad, [[lam * alpha * math.exp(-1000.0), lam]], rtol=rtol)


class TestDense:
    def test_identity(self):
        x = rng.normal(size=(2, 6))
        out = nn.dense(x, np.eye(6), np.zeros(6)).data
        assert np.allclose(out, x)

    def test_zero_input_gives_bias(self):
        b = rng.normal(size=(4,))
        out = nn.dense(np.zeros((2, 3)), rng.normal(size=(3, 4)), b).data
        assert np.allclose(out, np.tile(b, (2, 1)))

    def test_random_vs_dot_oracle(self):
        x = rng.normal(size=(2, 5))
        w = rng.normal(size=(5, 3))
        b = rng.normal(size=(3,))
        want = np.array([[sum(x[r, i] * w[i, j] for i in range(5)) + b[j] for j in range(3)]
                         for r in range(2)])
        assert np.abs(nn.dense(x, w, b).data - want).max() <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            nn.dense(np.zeros((2, 3)), np.zeros((4, 2)), np.zeros(2))


class TestSoftmaxXent:
    def test_symmetric_logits(self):
        loss, p = nn.softmax_xent(np.zeros((2, 2)), np.array([0, 1]))
        assert np.allclose(p, 0.5)
        assert np.isclose(float(loss.data), math.log(2.0))

    def test_extreme_logits_stable(self):
        loss, p = nn.softmax_xent(np.array([[1000.0, 0.0], [0.0, 1000.0]]), np.array([0, 1]))
        assert float(loss.data) < 1e-6
        assert np.isfinite(p).all()

    def test_saturated_wrong_logit_gives_finite_loss(self):
        # p(gold) underflows to 0 here; -log(p) would be inf with a warning.
        logits = Tensor(np.array([[1000.0, -1000.0], [-1000.0, 1000.0]]))
        logits.requires_grad = True
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            loss, p = nn.softmax_xent(logits, np.array([1, 0]))
            loss.backward()
        assert float(loss.data) == 2000.0
        assert np.array_equal(p, [[1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(logits.grad, [[0.5, -0.5], [-0.5, 0.5]])

    def test_probs_sum_to_one(self):
        local = np.random.default_rng(3)
        for _ in range(50):
            logits = local.normal(scale=50, size=(int(local.integers(1, 6)), 2))
            p = nn.softmax(logits)
            assert np.abs(p.sum(axis=-1) - 1.0).max() < 1e-12
            assert np.isfinite(p).all()

    def test_gradient_is_p_minus_onehot(self):
        logits = grad_tensor((2, 2))
        loss, p = nn.softmax_xent(logits, np.array([1, 0]))
        loss.backward()
        assert np.allclose(logits.grad, (p - np.array([[0.0, 1.0], [1.0, 0.0]])) / 2)

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


UNBATCHED = [
    ("conv1d", lambda: nn.conv1d(np.zeros((5, 2)), np.zeros((3, 2, 1)), np.zeros(1))),
    ("maxpool1d", lambda: nn.maxpool1d(np.zeros((4, 2)), 2)),
    ("global_maxpool", lambda: nn.global_maxpool(np.zeros((4, 2)))),
    ("dense", lambda: nn.dense(np.zeros(3), np.zeros((3, 2)), np.zeros(2))),
    ("softmax_xent", lambda: nn.softmax_xent(np.zeros(2), 0)),
    ("char_branch", lambda: nn.char_branch(np.zeros((4, 2)), np.zeros(5, dtype=int),
                                           np.zeros((3, 2, 1)), np.zeros(1))),
]


@pytest.mark.parametrize("name,call", UNBATCHED, ids=[c[0] for c in UNBATCHED])
def test_unbatched_input_rejected(name, call):
    with pytest.raises(ValueError, match="rank"):
        call()


class TestBackwardBasics:
    def test_gradient_of_another_shape_rejected(self):
        t = grad_tensor((2, 3))
        with pytest.raises(ValueError, match=r"gradient shape \(3,\) does not match tensor shape \(2, 3\)"):
            t.accumulate_grad(np.ones(3))
        assert t.grad is None

    def test_backward_requires_scalar(self):
        t = grad_tensor((3,))
        with pytest.raises(ValueError):
            nn.relu(t).backward()

    def test_frozen_tensor_gets_no_grad(self):
        x = Tensor(rng.normal(size=(2, 4)))  # requires_grad False
        w = grad_tensor((4, 2))
        loss, _ = nn.softmax_xent(nn.dense(x, w, Tensor(np.zeros(2))), np.array([0, 1]))
        loss.backward()
        assert x.grad is None and w.grad is not None

    def test_closed_form_dense_xent(self):
        # Dense + mean xent over B rows: dW = x^T (p - y) / B, db = sum_rows (p - y) / B.
        x_data = rng.normal(size=(3, 3))
        x = Tensor(x_data)
        w = grad_tensor((3, 2))
        b = grad_tensor((2,))
        gold = np.array([1, 0, 1])
        loss, p = nn.softmax_xent(nn.dense(x, w, b), gold)
        loss.backward()
        delta = (p - np.eye(2)[gold]) / 3
        assert np.allclose(w.grad, x_data.T @ delta)
        assert np.allclose(b.grad, delta.sum(axis=0))

    def test_grad_accumulates_across_reuse(self):
        x = grad_tensor((2, 4))
        y = nn.concat([nn.relu(x), nn.relu(x)], axis=1)
        w = Tensor(np.ones((8, 2)))
        loss, _ = nn.softmax_xent(nn.dense(y, w, Tensor(np.zeros(2))), np.array([0, 1]))
        loss.backward()
        assert x.grad is not None


OP_CASES = [
    ("conv_valid", lambda d: nn.conv1d(d["x"], d["k"], d["b"], padding="valid"),
     {"x": (2, 7, 3), "k": (3, 3, 2), "b": (2,)}),
    ("conv_same", lambda d: nn.conv1d(d["x"], d["k"], d["b"], padding="same"),
     {"x": (3, 6, 2), "k": (4, 2, 3), "b": (3,)}),
    ("maxpool", lambda d: nn.maxpool1d(d["x"], 3), {"x": (2, 10, 4)}),
    ("globalpool", lambda d: nn.global_maxpool(d["x"]), {"x": (3, 8, 3)}),
    ("dense", lambda d: nn.dense(d["x"], d["w"], d["b"]),
     {"x": (3, 5), "w": (5, 4), "b": (4,)}),
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
    local = np.random.default_rng(sum(map(ord, name)))
    arrays = {key: local.normal(size=shape) for key, shape in shapes.items()}
    readout = local.normal(size=64)  # fixed projection to a scalar

    tensors = {k: Tensor(v) for k, v in arrays.items()}
    for t in tensors.values():
        t.requires_grad = True
    project(op(tensors), readout).backward()

    def loss_fn():
        return float(project(op({k: Tensor(v) for k, v in arrays.items()}), readout).data)

    for key in arrays:
        numeric = central_difference(loss_fn, [arrays[key]])[0]
        rel = max_relative_error(tensors[key].grad, numeric)
        assert rel < 1e-4, f"{name}/{key}: max relative error {rel}"


def test_gradcheck_embedding_lookup():
    local = np.random.default_rng(5)
    table = local.normal(size=(9, 4))
    idx = local.integers(0, 9, size=(2, 7))
    readout = local.normal(size=idx.size * 4)

    def loss_of(table_arr):
        t = Tensor(table_arr)
        t.requires_grad = True
        return t, project(nn.embedding_lookup(t, idx), readout)

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
        return t, project(out, readout)

    t, loss = run(x)
    loss.backward()
    numeric = central_difference(lambda: float(run(x)[1].data), [x])[0]
    assert max_relative_error(t.grad, numeric) < 1e-6


@pytest.mark.parametrize("x_in_steps, kept", [(0.999, False), (0.5, False), (3.0, True)])
def test_kink_filter_drops_a_kink_inside_the_step(x_in_steps, kept):
    # relu at x = 0.999 h: the h estimate is 0.9995 against the slope 1, an
    # error five times the 1e-4 the gradient checks assert.
    step = 1e-5
    x = np.array([x_in_steps * step])
    numeric = central_difference(lambda: float(nn.relu(x).data[0]), [x], step=step,
                                 kink_filter=True)[0]
    if kept:
        assert max_relative_error(np.ones(1), numeric) < 1e-8
    else:
        assert np.isnan(numeric[0])
