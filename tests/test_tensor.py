"""Tests for the autodiff tensor engine: op semantics and gradients."""

import math
import multiprocessing
import os
import queue
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import param_set

from slotlens import tensor as T
from slotlens.gradcheck import finite_diff_check
from slotlens.optim import ParamSet
from slotlens.tensor import ShapeError, Tensor, backward


class TestElementary:
    def test_matmul_zero_annihilation(self):
        a = Tensor(np.zeros((2, 3)))
        b = Tensor(np.random.default_rng(0).normal(size=(3, 4)))
        out = T.matmul(a, b)
        assert out.shape == (2, 4)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_matmul_inner_dim_mismatch_names_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))

    def test_affine_identity(self):
        x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
        w = Tensor(np.eye(3, dtype=np.float32))
        b = Tensor(np.zeros(3, dtype=np.float32))
        np.testing.assert_allclose(T.affine(x, w, b).data, x.data)

    def test_concat_last_dim_widths(self):
        l, d, k = 4, 6, 3
        out = T.concat([Tensor(np.ones((l, d))), Tensor(np.zeros((l, k)))])
        assert out.shape == (l, d + k)

    def test_concat_leading_dim_mismatch(self):
        with pytest.raises(ShapeError):
            T.concat([Tensor(np.ones((4, 2))), Tensor(np.ones((3, 2)))])

    def test_concat_broadcasts_other_axes(self):
        x = Tensor(np.zeros((2, 3, 4)))
        row = Tensor(np.array([[[7.0, 8.0]], [[5.0, 6.0]]]))  # (2, 1, 2)
        out = T.concat([x, row])
        assert out.shape == (2, 3, 6)
        np.testing.assert_array_equal(out.data[1, :, 4:], [[5, 6]] * 3)

    def test_batched_matmul_and_transpose(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=(2, 3, 4, 5)), rng.normal(size=(3, 5, 2))
        np.testing.assert_allclose(T.matmul(a, b).data, a @ b)
        np.testing.assert_array_equal(T.transpose(a).data, a.swapaxes(-1, -2))
        np.testing.assert_array_equal(T.transpose(a, (2, 0, 3, 1)).data, a.transpose(2, 0, 3, 1))

    def test_reshape(self):
        x = Tensor(np.arange(24.0).reshape(4, 2, 3))
        out = T.reshape(x, (8, 3))
        assert out.shape == (8, 3)
        np.testing.assert_array_equal(out.data[5], [15.0, 16.0, 17.0])

    def test_add_broadcast_bias(self):
        x = Tensor(np.zeros((2, 3)))
        b = Tensor(np.array([1.0, 2.0, 3.0]))
        out = T.add(x, b)
        np.testing.assert_allclose(out.data, [[1, 2, 3], [1, 2, 3]])

    def test_gradients_flow_to_all_inputs(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(2, 3)).astype(np.float64), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4)).astype(np.float64), requires_grad=True)
        loss = T.sum_all(T.matmul(a, b))
        backward(loss)
        assert a.grad is not None and b.grad is not None
        np.testing.assert_allclose(a.grad, np.ones((2, 4)) @ b.data.T)
        np.testing.assert_allclose(b.grad, a.data.T @ np.ones((2, 4)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matmul_inner_dim_one_gradient_equals_the_matmul_form(self, dtype):
        """With b's last axis 1, a's gradient is an outer product, formed as
        a broadcast multiply: the values are those of ``g @ b^T``, bit for
        bit except that a zero of ``g`` times a negative of ``b`` gives -0.0
        where the matmul gives +0.0."""
        rng = np.random.default_rng(2)
        a = Tensor(rng.normal(size=(2, 3, 4, 5)).astype(dtype), requires_grad=True)
        b_data = rng.normal(size=(2, 3, 5, 1)).astype(dtype)
        b_data[..., 0, 0] = -1.5
        b = Tensor(b_data, requires_grad=True)
        g = rng.normal(size=(2, 3, 4, 1)).astype(dtype)
        g[..., 1, 0] = 0.0  # a zero gradient, as at a pad position
        backward(T.sum_all(T.mul(T.matmul(a, b), Tensor(g))))
        assert a.grad.dtype == dtype
        matmul_form = g @ b.data.swapaxes(-1, -2)
        assert np.array_equal(a.grad, matmul_form)
        nonzero = matmul_form != 0
        assert np.array_equal(a.grad[nonzero].view(f"u{a.grad.itemsize}"),
                              matmul_form[nonzero].view(f"u{a.grad.itemsize}"))
        assert np.signbit(a.grad[..., 1, 0]).all()
        assert np.array_equal(b.grad, a.data.swapaxes(-1, -2) @ g)

    def test_matmul_forms_no_gradient_for_a_constant_operand(self, monkeypatch):
        formed = []
        real = T._unbroadcast
        monkeypatch.setattr(T, "_unbroadcast",
                            lambda grad, shape: formed.append(shape) or real(grad, shape))
        rng = np.random.default_rng(3)
        const = Tensor(rng.normal(size=(2, 4, 4)))
        w = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
        backward(T.sum_all(T.matmul(const, w)))
        assert formed == [(2, 4, 3)]
        np.testing.assert_allclose(w.grad, const.data.swapaxes(-1, -2) @ np.ones((2, 4, 3)))


class TestRowMax:
    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_equals_numpy_max_with_non_finite_and_signed_zero_entries(self, dtype):
        rng = np.random.default_rng(5)
        specials = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0], dtype=dtype)
        for n in range(1, 71):
            p = rng.normal(size=(6, 3, n)).astype(dtype)
            # row 0 stays finite, row 5 is all -inf, the rest get a few specials
            for row in p[1:5]:
                at = rng.integers(0, n, size=(3, 2))
                row[np.arange(3)[:, None], at] = rng.choice(specials, size=(3, 2))
            p[5] = -np.inf
            got = T._row_max(p)
            assert got.shape == (6, 3, 1)
            assert np.array_equal(got, p.max(axis=-1, keepdims=True), equal_nan=True), n
            assert not np.shares_memory(got, p)

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(32, 5, 13, 13), (2, 13, 47, 47), (1, 13, 40, 40),
                                       (4, 6), (3, 8, 1)], ids=str)
    def test_bits_equal_numpy_max(self, shape, dtype):
        """Odd, even and 1-wide rows, with NaN and -inf entries and one row
        all -inf, give the bits of ``max`` in the input's dtype."""
        rng = np.random.default_rng(sum(shape))
        p = rng.normal(size=shape).astype(dtype)
        flat = p.reshape(-1, shape[-1])
        at = rng.integers(0, flat.size, size=max(2, flat.size // 50))
        flat.reshape(-1)[at[::2]] = np.nan
        flat.reshape(-1)[at[1::2]] = -np.inf
        flat[-1] = -np.inf
        got, want = T._row_max(p), p.max(axis=-1, keepdims=True)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 13, 47, T._ROW_MAX_BLOCK + 1])
    def test_blocks_give_the_bits_of_one_transposed_copy(self, n, dtype):
        """Row counts on, around and across the block boundary reduce each
        row in the order one transposed copy of the whole input does: the
        bits match, zero signs included, with -inf pad keys and NaN rows."""
        rng = np.random.default_rng(n)
        step = max(2, T._ROW_MAX_BLOCK // n)
        for rows in sorted({1, step - 1, step, step + 1, 2 * step + 3} - {0}):
            p = rng.normal(size=(rows, n)).astype(dtype)
            p[rng.random(p.shape) < 0.3] = -np.inf  # pad keys
            p[::7] = -np.inf
            p[1::11] = np.nan
            p[2::5] = rng.choice(np.array([0.0, -0.0, -1.0], dtype=dtype), size=(n,))
            p[3::13] = -0.0
            want = np.moveaxis(p, -1, 0).copy().max(axis=0)[..., None]
            got = T._row_max(p.reshape(rows, 1, n))
            assert got.shape == (rows, 1, 1)
            assert got.tobytes() == want.tobytes(), rows

    def test_memory_stays_well_below_the_input(self):
        p = np.random.default_rng(0).random((32, 13, 47, 47))
        tracemalloc.start()
        try:
            got = T._row_max(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, p.max(axis=-1, keepdims=True))
        assert peak < p.nbytes / 8

    def test_subtracting_it_in_place_is_safe_at_length_one(self):
        p = np.array([[3.0], [-2.0], [-0.0]])
        p -= T._row_max(p)
        np.testing.assert_array_equal(p, 0.0)


class TestSoftmaxMasked:
    def test_uniform_over_valid(self):
        x = Tensor(np.full((2, 5), 3.0))
        mask = np.array([1, 1, 1, 0, 0])
        p = T.softmax_masked(x, mask)
        np.testing.assert_allclose(p.data[:, :3], 1.0 / 3.0, atol=1e-12)
        np.testing.assert_array_equal(p.data[:, 3:], 0.0)

    def test_single_valid_position(self):
        p = T.softmax_masked(Tensor(np.array([0.0, 0.0])), np.array([1, 0]))
        np.testing.assert_array_equal(p.data, [1.0, 0.0])

    def test_hand_computed_row(self):
        p = T.softmax_masked(Tensor(np.array([math.log(2.0), 0.0, 0.0])), np.ones(3))
        np.testing.assert_allclose(p.data, [0.5, 0.25, 0.25], atol=1e-7)

    def test_all_masked_raises(self):
        with pytest.raises(ValueError, match="masked"):
            T.softmax_masked(Tensor(np.zeros((2, 3))), np.zeros(3))

    def test_key_padding_mask_broadcasts(self):
        lengths = np.array([2, 4])
        keys = np.arange(4) < lengths[:, None]  # (B, L)
        x = Tensor(np.random.default_rng(1).normal(size=(2, 3, 4, 4)))
        p = T.softmax_masked(x, keys[:, None, None, :])
        np.testing.assert_allclose(p.data.sum(axis=-1), 1.0, atol=1e-12)
        assert (p.data[0, ..., 2:] == 0).all()
        solo = T.softmax_masked(Tensor(x.data[0, :, :, :2]), np.ones(2))
        np.testing.assert_allclose(p.data[0, :, :, :2], solo.data, atol=1e-12)

    def test_mask_that_does_not_broadcast(self):
        with pytest.raises(ShapeError):
            T.softmax_masked(Tensor(np.zeros((2, 3))), np.ones(4))

    def test_rows_sum_to_one_and_masked_exactly_zero(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = rng.integers(2, 9)
            rows = rng.integers(1, 6)
            mask = np.zeros(n)
            mask[rng.choice(n, size=rng.integers(1, n + 1), replace=False)] = 1
            x = Tensor(rng.normal(scale=5.0, size=(rows, n)))
            p = T.softmax_masked(x, mask)
            np.testing.assert_allclose(p.data.sum(axis=-1), 1.0, atol=1e-9)
            np.testing.assert_array_equal(p.data[:, mask == 0], 0.0)

    def test_non_finite_scores_at_masked_keys_change_no_bits(self):
        """A masked key is -inf whatever its score, so an inf or NaN score
        at a pad key leaves every weight as a finite one gives."""
        rng = np.random.default_rng(11)
        lengths = np.array([13, 9, 4])
        keys = (np.arange(13) < lengths[:, None])[:, None, None, :]  # (B, 1, 1, L)
        x = rng.normal(scale=3.0, size=(3, 5, 13, 13)).astype(np.float32)
        want = T.softmax_masked(Tensor(x), keys, 0.25).data
        for bad in (np.inf, -np.inf, np.nan):
            y = x.copy()
            y[np.broadcast_to(~keys, y.shape)] = bad
            assert np.array_equal(T.softmax_masked(Tensor(y), keys, 0.25).data, want)


def _reference_layer_norm(x, gain, bias, g, eps=1e-5):
    """Layer norm's output and its gradients for the output gradient ``g``,
    through ``np.mean`` and ``np.var``: the formula :func:`layer_norm`
    must reproduce bit for bit."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv_std
    reduce_axes = tuple(range(g.ndim - 1))
    g_gain = (g * xhat).sum(axis=reduce_axes) if g.ndim > 1 else g * xhat
    g_bias = g.sum(axis=reduce_axes) if g.ndim > 1 else g
    g_hat = g * gain
    gx = inv_std * (
        g_hat
        - g_hat.mean(axis=-1, keepdims=True)
        - xhat * (g_hat * xhat).mean(axis=-1, keepdims=True)
    )
    return xhat * gain + bias, gx, g_gain, g_bias


class TestLayerNorm:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("width", [64, 67, 68])
    @pytest.mark.parametrize("lead", [(29, 14), ()], ids=["batch", "row"])
    def test_forward_and_backward_match_the_mean_var_formula_bit_for_bit(
            self, dtype, width, lead):
        rng = np.random.default_rng(width)
        shape = (*lead, width)
        x = Tensor((rng.normal(size=shape) * 3 + 1).astype(dtype), requires_grad=True)
        gain = Tensor(rng.normal(size=width).astype(dtype), requires_grad=True)
        bias = Tensor(rng.normal(size=width).astype(dtype), requires_grad=True)
        g = rng.normal(size=shape).astype(dtype)
        out = T.layer_norm(x, gain, bias)
        backward(T.sum_all(T.mul(out, Tensor(g))))
        want = _reference_layer_norm(x.data, gain.data, bias.data, g)
        for got, ref in zip((out.data, x.grad, gain.grad, bias.grad), want):
            assert got.dtype == dtype
            assert np.array_equal(got, ref)

    def _ln(self, x, eps=1e-5):
        n = x.shape[-1]
        return T.layer_norm(Tensor(x), Tensor(np.ones(n)), Tensor(np.zeros(n)), eps=eps)

    def test_constant_row_collapses_to_bias(self):
        out = self._ln(np.full((3, 4), 2.5))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-6)

    def test_already_normalized_row(self):
        out = self._ln(np.array([[-1.0, 1.0]]), eps=1e-12)
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-6)

    def test_zero_gain_gives_constant_bias(self):
        x = np.random.default_rng(3).normal(size=(2, 5))
        out = T.layer_norm(Tensor(x), Tensor(np.zeros(5)), Tensor(np.full(5, 7.0)))
        np.testing.assert_allclose(out.data, 7.0)

    def test_row_statistics(self):
        rng = np.random.default_rng(11)
        x = rng.normal(scale=3.0, size=(20, 16)).astype(np.float64)
        out = self._ln(x, eps=1e-10)
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-7)
        np.testing.assert_allclose(out.data.var(axis=-1), 1.0, atol=1e-5)


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = Tensor(np.arange(9.0).reshape(3, 3))
        keep = T.dropout_mask(x.shape, 0.0, np.random.default_rng(0), [3, 3, 3], x.dtype)
        assert T.dropout(x, keep).data.tobytes() == x.data.tobytes()

    def test_inference_is_identity(self):
        x = Tensor(np.ones((3, 3)))
        assert T.dropout(x, None) is x

    def test_expected_value_preserved(self):
        rng = np.random.default_rng(42)
        x = Tensor(np.full((1, 2000), 3.0))
        total = np.zeros((1, 2000))
        n_draws = 400
        for _ in range(n_draws):
            total += T.dropout(x, T.dropout_mask(x.shape, 0.5, rng, [2000], x.dtype)).data
        # mean of inverted dropout is the input; SE ~ 3/sqrt(400*2000)
        assert abs(total.mean() / n_draws - 3.0) < 0.02

    @pytest.mark.parametrize("rate", [1.0, -0.1])
    def test_mask_rate_outside_unit_interval_rejected(self, rate):
        with pytest.raises(ValueError, match=r"dropout rate must be in \[0, 1\)"):
            T.dropout_mask((1, 3), rate, np.random.default_rng(0), [3])

    @pytest.mark.parametrize("seed", range(10))
    def test_length_mask_matches_a_draw_per_utterance(self, seed):
        """The reference: utterance b draws its first ``lengths[b]`` rows in
        batch order. The whole-batch draw gives the same bits and leaves the
        generator at the same point."""
        meta = np.random.default_rng(seed)
        B, L = int(meta.integers(1, 9)), int(meta.integers(1, 20))
        shape = (B, L, *map(int, meta.integers(1, 6, size=seed % 3)))
        lengths = meta.integers(0, L + 1, size=B)
        lengths[seed % B] = 0
        rate = float(meta.uniform(0.05, 0.9))
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        keep = np.zeros(shape, dtype=bool)
        for b, n in enumerate(lengths):
            keep[b, :n] = ref_rng.random((n, *shape[2:])) >= rate
        reference = (keep / (1.0 - rate)).astype(np.float32)
        mask = T.dropout_mask(shape, rate, rng, lengths.tolist())
        assert mask.dtype == reference.dtype
        assert mask.tobytes() == reference.tobytes()
        assert rng.random() == ref_rng.random()

    def test_gradient_masks_match_forward(self):
        rng = np.random.default_rng(5)
        x = Tensor(np.ones((1, 100), dtype=np.float64), requires_grad=True)
        keep = T.dropout_mask(x.shape, 0.3, rng, [100], x.dtype)
        out = T.dropout(x, keep)
        backward(T.sum_all(out))
        np.testing.assert_array_equal(x.grad, keep)
        np.testing.assert_allclose(x.grad, out.data)


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss = T.cross_entropy_rows(Tensor(np.zeros(4)), 1)
        assert loss.item() == pytest.approx(math.log(4.0), abs=1e-6)

    def test_confident_prediction_near_zero(self):
        logits = np.array([50.0, 0.0, 0.0])
        assert T.cross_entropy_rows(Tensor(logits), 0).item() == pytest.approx(0.0, abs=1e-6)

    def test_hand_computed_value(self):
        loss = T.cross_entropy_rows(Tensor(np.array([1.0, 0.0])), 0)
        assert loss.item() == pytest.approx(0.31326168751822286, abs=1e-6)

    def test_out_of_range_target(self):
        with pytest.raises(IndexError):
            T.cross_entropy_rows(Tensor(np.zeros(3)), 3)
        with pytest.raises(IndexError):
            T.cross_entropy_rows(Tensor(np.zeros((1, 3))), [-2])

    def test_row_sum_matches_per_row_calls(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(size=(5, 4))
        targets = rng.integers(0, 4, size=5)
        total = T.cross_entropy_rows(Tensor(logits), targets).item()
        expected = sum(T.cross_entropy_rows(Tensor(logits[i]), targets[i]).item() for i in range(5))
        assert total == pytest.approx(expected, rel=1e-6)

    def test_pad_rows_ignored_and_divisor(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(2, 3, 4))
        targets = np.array([[1, 2, -1], [0, -1, -1]])
        got = T.cross_entropy_rows(Tensor(logits), targets, n=2).item()
        want = sum(T.cross_entropy_rows(Tensor(logits[b, i]), targets[b, i]).item()
                   for b, i in [(0, 0), (0, 1), (1, 0)]) / 2
        assert got == pytest.approx(want, rel=1e-9)


    def test_loss_and_gradient_match_the_numpy_max_formula_bit_for_bit(self):
        rng = np.random.default_rng(13)
        logits = Tensor((rng.normal(size=(7, 13, 23)) * 4).astype(np.float32),
                        requires_grad=True)
        targets = rng.integers(-1, 23, size=(7, 13))
        loss = T.cross_entropy_rows(logits, targets, n=7)
        backward(loss)
        shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        hot = targets[..., None] == np.arange(23)
        assert loss.data == ((lse - shifted) * hot).sum() / 7
        want = (np.exp(shifted - lse) - hot) * (targets >= 0)[..., None] * np.float32(1 / 7)
        assert np.array_equal(logits.grad, want)


class TestBinaryCrossEntropy:
    def test_maximum_entropy_prediction(self):
        logits = Tensor(np.zeros((3, 4)))
        targets = np.random.default_rng(0).integers(0, 2, size=(3, 4))
        loss = T.binary_cross_entropy(logits, targets, n=12)
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-6)

    def test_strong_match_near_zero(self):
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        logits = Tensor((2 * y - 1) * 40.0)
        assert T.binary_cross_entropy(logits, y, n=4).item() == pytest.approx(0.0, abs=1e-6)

    def test_hand_computed_single_element(self):
        loss = T.binary_cross_entropy(Tensor(np.array([math.log(3.0)])), np.array([1.0]), n=1)
        assert loss.item() == pytest.approx(0.2876820724517809, abs=1e-6)

    def test_zero_count_raises(self):
        with pytest.raises(ValueError, match="count"):
            T.binary_cross_entropy(Tensor(np.zeros(2)), np.zeros(2), n=0)

    def test_mask_drops_pad_cells(self):
        x = np.array([[0.5, -1.0], [30.0, 7.0]])
        y = np.array([[1.0, 0.0], [0.0, 0.0]])
        masked = T.binary_cross_entropy(Tensor(x), y, n=2, mask=np.array([[1.0], [0.0]]))
        unmasked_rows = T.binary_cross_entropy(Tensor(x[:1]), y[:1], n=2)
        assert masked.item() == pytest.approx(unmasked_rows.item())

    def test_stable_at_extreme_logits(self):
        loss = T.binary_cross_entropy(Tensor(np.array([500.0, -500.0])), np.array([0.0, 1.0]), n=2)
        assert np.isfinite(loss.item())


class TestBackward:
    def test_sum_of_softmax_has_zero_gradient(self):
        x = Tensor(np.random.default_rng(2).normal(size=(3, 4)), requires_grad=True)
        loss = T.sum_all(T.softmax_masked(x, np.ones(4)))
        backward(loss)
        np.testing.assert_allclose(x.grad, 0.0, atol=1e-7)

    def test_sum_gradient_is_ones(self):
        x = Tensor(np.zeros((2, 5)), requires_grad=True)
        backward(T.sum_all(x))
        np.testing.assert_array_equal(x.grad, 1.0)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            backward(T.add(x, x))

    def test_grads_accumulate_without_zeroing(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        backward(T.sum_all(x))
        backward(T.sum_all(x))
        np.testing.assert_array_equal(x.grad, 2.0)

    def test_reused_tensor_accumulates_within_graph(self):
        x = Tensor(np.full(3, 2.0, dtype=np.float64), requires_grad=True)
        loss = T.sum_all(T.mul(x, x))  # d/dx sum(x^2) = 2x
        backward(loss)
        np.testing.assert_allclose(x.grad, 2.0 * x.data)


def _within(seconds, fn):
    """``fn()`` on a helper thread, failing the test if it has not
    returned after ``seconds``: a backward whose worker stalled would
    otherwise hang the suite."""
    out = {}

    def run():
        try:
            out["value"] = fn()
        except BaseException as e:
            out["error"] = e

    t = threading.Thread(target=run, daemon=True)
    t.start()
    t.join(seconds)
    assert not t.is_alive(), f"did not return within {seconds} s"
    if "error" in out:
        raise out["error"]
    return out.get("value")


class _Deferred(Exception):
    pass


def _raise_deferred():
    raise _Deferred("raised on the worker")


class TestLeafWorker:
    """Leaf gradients are summed on one worker thread, with the bits of a
    sequential pass."""

    @staticmethod
    def shared_weight_graph(seed=0):
        """One float32 leaf ``w`` feeding two affines and a matmul:
        ``sum((affine(affine(x, w, b1), w, b2) @ w) * c)``."""
        rng = np.random.default_rng(seed)
        leaf = lambda *shape: Tensor(rng.normal(size=shape).astype(np.float32),
                                     requires_grad=True)
        x, w, b1, b2 = leaf(7, 5), leaf(5, 5), leaf(5), leaf(5)
        c = rng.normal(size=(7, 5)).astype(np.float32)

        def loss():
            h2 = T.affine(T.affine(x, w, b1), w, b2)
            return T.sum_all(T.mul(T.matmul(h2, w), c))

        return loss, (x, w, b1, b2), c

    def test_two_backwards_match_the_arrival_order_sum_bit_for_bit(self):
        loss, (x, w, b1, b2), c = self.shared_weight_graph()
        for _ in range(2):  # no zero_grads in between
            backward(loss())
        # the engine visits matmul, then the outer affine, then the inner
        # one; each leaf's contributions are summed in that order, and the
        # sum is added to the buffer once per backward
        h1 = x.data @ w.data + b1.data
        h2 = h1 @ w.data + b2.data
        g2 = c @ w.data.T
        g1 = g2 @ w.data.T
        contributions = {
            "x": [g1 @ w.data.T],
            "w": [h2.T @ c, h1.T @ g2, x.data.T @ g1],
            "b1": [g1.sum(axis=0)],
            "b2": [g2.sum(axis=0)],
        }
        for name, t in zip(contributions, (x, w, b1, b2)):
            parts = contributions[name]
            total = parts[0]
            for part in parts[1:]:
                total = total + part
            assert t.grad.dtype == np.float32
            assert np.array_equal(t.grad, total + total), name
        # the order is visible in the bits: summed the other way round, or
        # added to the buffer one contribution at a time, w's gradient differs
        first, second, third = contributions["w"]
        total = first + second + third
        assert not np.array_equal(total + total, (third + second + first) * 2)
        assert not np.array_equal(total + total, ((total + first) + second) + third)

    def test_repeated_backwards_under_fast_thread_switching_lose_no_update(self):
        loss, leaves, _ = self.shared_weight_graph()
        backward(loss())
        once = [t.grad.copy() for t in leaves]
        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _within(60, lambda: [backward(loss()) for _ in range(30)])
        finally:
            sys.setswitchinterval(saved)
        for t, g in zip(leaves, once):
            want = g.copy()
            for _ in range(30):
                want = want + g
            assert np.array_equal(t.grad, want)

    def test_threads_starting_backward_together_start_one_worker(self, monkeypatch):
        """The first backwards of several threads start one worker, even
        when making its queue gives every thread time to get that far."""
        def workers():
            return sum(t.name == "slotlens-leaf-grads" for t in threading.enumerate())

        class SlowQueue(queue.SimpleQueue):
            def __init__(self):
                time.sleep(0.05)

        want = self.shared_weight_graph()
        backward(want[0]())
        graphs = [self.shared_weight_graph() for _ in range(4)]
        before = workers()
        monkeypatch.setattr(T.queue, "SimpleQueue", SlowQueue)
        T._forget_worker()  # as in a fresh process: the next backward starts the worker
        gate = threading.Barrier(len(graphs))

        def run(loss):
            gate.wait(30)
            backward(loss())

        threads = [threading.Thread(target=run, args=(g[0],), daemon=True) for g in graphs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not any(t.is_alive() for t in threads)
        assert workers() == before + 1
        for _, leaves, _ in graphs:
            for got, ref in zip(leaves, want[1]):
                assert np.array_equal(got.grad, ref.grad)

    def test_an_error_in_deferred_work_is_raised_and_the_next_backward_is_exact(self):
        w = Tensor(np.ones(3, np.float32), requires_grad=True)
        node = Tensor._node(w.data * 2, (w,), "deferred", lambda g: (_raise_deferred,))
        with pytest.raises(_Deferred, match="raised on the worker"):
            _within(30, lambda: backward(T.sum_all(node)))
        assert w.grad is None
        loss, leaves, _ = self.shared_weight_graph()
        _within(30, lambda: backward(loss()))
        want = self.shared_weight_graph()
        backward(want[0]())
        for got, ref in zip(leaves, want[1]):
            assert np.array_equal(got.grad, ref.grad)

    def test_an_error_on_the_calling_thread_leaves_every_buffer_as_it_was(self):
        loss, (x, w, b1, b2), _ = self.shared_weight_graph()
        backward(loss())
        before = [t.grad.copy() for t in (x, w, b1, b2)]

        def boom(g):
            raise _Deferred("raised by a closure")

        out = Tensor._node(np.zeros((), np.float32), (loss(),), "boom", boom)
        with pytest.raises(_Deferred, match="by a closure"):
            _within(30, lambda: backward(out))
        for t, old in zip((x, w, b1, b2), before):
            assert np.array_equal(t.grad, old)

    def test_inference_and_evaluation_start_no_thread(self, tmp_path):
        script = tmp_path / "infer.py"
        script.write_text(
            "import threading\n"
            "from slotlens import synth, tensor\n"
            "from slotlens.data import Vocab, build_label_maps, encode_batch\n"
            "from slotlens.model import JointModel, ModelConfig\n"
            "from slotlens.train import evaluate\n"
            "corpus = synth.generate_synthetic_corpus(0, 12, synth.default_grammar())\n"
            "maps, vocab = build_label_maps(corpus), Vocab.build(corpus)\n"
            "model = JointModel(ModelConfig(vocab_size=len(vocab), n_intents=maps.n_intents,\n"
            "    n_slot_types=maps.n_slot_types, n_bio_labels=maps.n_bio_labels,\n"
            "    d=8, d_h=4, n_layers=1, n_heads=2, ffn_dim=12), rng=0)\n"
            "before = threading.active_count()\n"
            "model.infer(encode_batch(corpus, maps, vocab))\n"
            "evaluate(model, corpus, maps, vocab, batch_size=5)\n"
            "assert threading.active_count() == before, threading.enumerate()\n"
            "assert tensor._tasks is None\n"
        )
        src = Path(T.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_a_forked_child_runs_backward(self):
        loss, leaves, _ = self.shared_weight_graph()
        backward(loss())  # the parent's worker is running when it forks
        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)

        def child():
            fresh, child_leaves, _ = self.shared_weight_graph()
            backward(fresh())
            send.send([t.grad for t in child_leaves])

        proc = ctx.Process(target=child)
        proc.start()
        try:
            assert receive.poll(60), "the child's backward did not finish"
            grads = receive.recv()
        finally:
            proc.join(10)
            if proc.is_alive():
                proc.kill()
        assert proc.exitcode == 0
        for got, t in zip(grads, leaves):
            assert np.array_equal(got, t.grad)


class TestNoGrad:
    def test_ops_record_no_graph_and_compute_the_same_values(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(2, 3, 4)))
        w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        mask = np.array([[1, 1, 0], [1, 1, 1]], dtype=bool)[:, None, :]

        def f():
            h = T.relu(T.affine(x, w, b))
            return T.softmax_masked(T.matmul(h, T.transpose(h, (0, 2, 1))), mask)

        want = f()
        assert want._parents and want.requires_grad
        with T.no_grad():
            got = f()
        assert got._parents == () and got._backward is None
        assert not got.requires_grad
        np.testing.assert_array_equal(got.data, want.data)

    def test_graph_recording_resumes_after_the_block(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            with T.no_grad():
                raise RuntimeError("inside")
        backward(T.sum_all(T.mul(w, w)))
        np.testing.assert_array_equal(w.grad, 2.0)


def _random_composed_loss(params: ParamSet, seed: int):
    """A small randomized graph exercising every primitive the network uses:
    a padded batch of two sequences (lengths 4 and 2) through embeddings,
    an affine layer, a reshape into two heads, batched matmul and transposes, a key-padding
    softmax, a stacked (2, d/2, n_out) per-head weight leaf, and both losses
    with pad targets."""
    rng = np.random.default_rng(seed)
    w1, b1, w2, gain, bias, emb = (params[k] for k in ("w1", "b1", "w2", "gain", "bias", "emb"))
    B, L, d = 2, 4, w1.shape[0]
    ids = rng.integers(0, emb.shape[0], size=(B, L))
    lengths = np.array([4, 2])
    keys = np.arange(L) < lengths[:, None]  # (B, L)
    n_out = w2.shape[-1]
    slot_targets = np.where(keys, rng.integers(0, n_out, size=(B, L)), -1)
    targets = rng.integers(0, 2, size=(B, L, n_out)).astype(np.float64)

    def f():
        x = T.gather_rows(emb, ids)  # (B, L, d)
        h = T.relu(T.layer_norm(T.affine(x, w1, b1), gain, bias))
        split = T.reshape(h, (B, L, 2, d // 2))
        heads = T.transpose(split, (0, 2, 1, 3))  # (B, 2, L, d/2)
        # keys (B, 2, d/2, L) through a permutation that is not its own inverse
        keys_t = T.transpose(T.matmul(split, w1[: d // 2, : d // 2]), (0, 2, 3, 1))
        att = T.softmax_masked(T.matmul(heads, keys_t), keys[:, None, None, :], 0.7)
        mixed = T.matmul(att, heads)  # (B, 2, L, d/2)
        per_head = T.matmul(mixed, w2)  # (B, 2, L, n_out)
        joined = T.concat([T.reshape(T.transpose(per_head, (0, 2, 1, 3)), (B, L, 2 * n_out)),
                           T.reshape(h[:, 0, :n_out], (B, 1, n_out))])
        logits = T.add(T.take(joined, (slice(None), slice(None), slice(0, n_out))),
                       T.take(joined, (slice(None), slice(None), slice(2 * n_out, None))))
        ce = T.cross_entropy_rows(logits, slot_targets, n=B)
        bce = T.binary_cross_entropy(logits, targets, n=int(lengths.sum()) * n_out,
                                     mask=keys[..., None])
        return T.add(T.scale(ce, 0.25), bce)

    return f


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_composed_graphs_match_finite_differences(seed):
    rng = np.random.default_rng(100 + seed)
    d = 6
    params = param_set({"emb": rng.normal(size=(7, d)).astype(np.float64),
                        "w1": rng.normal(size=(d, d)).astype(np.float64),
                        "b1": rng.normal(size=d).astype(np.float64),
                        "w2": rng.normal(size=(2, d // 2, 3)).astype(np.float64),
                        "gain": np.ones(d, dtype=np.float64),
                        "bias": np.zeros(d, dtype=np.float64)})
    report = finite_diff_check(_random_composed_loss(params, seed), params, h=1e-5, tol=1e-4)
    assert report.passed, report.format()
