"""Tests for the autodiff tensor engine: op semantics and gradients."""

import math

import numpy as np
import pytest

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

    def test_stack_and_reshape(self):
        parts = [Tensor(np.full((2, 3), float(i))) for i in range(4)]
        out = T.stack(parts)
        assert out.shape == (4, 2, 3)
        np.testing.assert_array_equal(out.data[2], 2.0)
        assert T.reshape(out, (8, 3)).shape == (8, 3)

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


class TestLayerNorm:
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
        x = Tensor(np.ones((3, 3)))
        assert T.dropout(x, 0.0, training=True, rng=np.random.default_rng(0)) is x

    def test_inference_is_identity(self):
        x = Tensor(np.ones((3, 3)))
        assert T.dropout(x, 0.1, training=False) is x

    def test_expected_value_preserved(self):
        rng = np.random.default_rng(42)
        x = Tensor(np.full(2000, 3.0))
        total = np.zeros(2000)
        n_draws = 400
        for _ in range(n_draws):
            total += T.dropout(x, 0.5, training=True, rng=rng).data
        # mean of inverted dropout is the input; SE ~ 3/sqrt(400*2000)
        assert abs(total.mean() / n_draws - 3.0) < 0.02

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
        x = Tensor(np.ones(100, dtype=np.float64), requires_grad=True)
        out = T.dropout(x, 0.3, training=True, rng=rng)
        backward(T.sum_all(out))
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
    softmax, stacked per-head weights, and both losses with pad targets."""
    rng = np.random.default_rng(seed)
    w1, b1, w2, gain, bias, emb = (params[k] for k in ("w1", "b1", "w2", "gain", "bias", "emb"))
    B, L, d = 2, 4, w1.shape[0]
    ids = rng.integers(0, emb.shape[0], size=(B, L))
    lengths = np.array([4, 2])
    keys = np.arange(L) < lengths[:, None]  # (B, L)
    n_out = w2.shape[1]
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
        per_head = T.matmul(mixed, T.stack([w2[: d // 2], w2[d // 2 :]]))  # (B, 2, L, n_out)
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
    params = ParamSet()
    d = 6
    params.add("emb", rng.normal(size=(7, d)).astype(np.float64))
    params.add("w1", rng.normal(size=(d, d)).astype(np.float64))
    params.add("b1", rng.normal(size=d).astype(np.float64))
    params.add("w2", rng.normal(size=(d, 3)).astype(np.float64))
    params.add("gain", np.ones(d, dtype=np.float64))
    params.add("bias", np.zeros(d, dtype=np.float64))
    report = finite_diff_check(_random_composed_loss(params, seed), params, h=1e-5, tol=1e-4)
    assert report.passed, report.format()
