import numpy as np
import pytest

from slotlens.data import Utterance, Vocab, build_label_maps, encode_batch
from slotlens.encoder import declare_encoder_params, encode
from slotlens.gradcheck import finite_diff_check
from slotlens.model import ModelConfig
from slotlens.optim import ParamSet
from slotlens.tensor import add, backward, dropout_mask, scale, sum_all


def init_encoder_params(params, config, rng, dtype=np.float32):
    """Declare every encoder parameter and allocate them, drawn from ``rng``."""
    declare_encoder_params(params, config, rng, dtype)
    params.allocate(dtype)


def make_setting(dtype=np.float32, seed=0, **config_kw):
    corpus = [
        Utterance(["fly", "to", "boston"], "book_flight", ["O", "O", "B-city"]),
        Utterance(["book", "a", "room", "in", "denver"], "book_hotel", ["O"] * 4 + ["B-city"]),
        Utterance(["hello"], "greet", ["O"]),
    ]
    maps = build_label_maps(corpus)
    vocab = Vocab.build(corpus)
    kw = dict(vocab_size=len(vocab), n_intents=maps.n_intents,
              n_slot_types=maps.n_slot_types, n_bio_labels=maps.n_bio_labels,
              d=16, n_layers=2, n_heads=2, ffn_dim=24, max_positions=12, dropout_rate=0.1)
    kw.update(config_kw)
    config = ModelConfig(**kw)
    params = ParamSet()
    init_encoder_params(params, config, np.random.default_rng(seed), dtype=dtype)
    return corpus, maps, vocab, config, params


class TestEncode:
    def test_output_shapes(self):
        corpus, maps, vocab, config, params = make_setting()
        batch = encode_batch(corpus, maps, vocab)
        u_e, u_c = encode(batch, config, params)
        assert u_e.shape == (3, 5, 16)
        assert u_c.shape == (3, 16)

    def test_identical_utterances_encode_identically(self):
        corpus, maps, vocab, config, params = make_setting()
        batch = encode_batch([corpus[0], corpus[0]], maps, vocab)
        u_e, u_c = encode(batch, config, params)
        np.testing.assert_array_equal(u_e.data[0], u_e.data[1])
        np.testing.assert_array_equal(u_c.data[0], u_c.data[1])

    def test_padding_invariance(self):
        """Batch composition (hence padding) never changes an utterance's code."""
        corpus, maps, vocab, config, params = make_setting()
        alone_e, alone_c = encode(encode_batch([corpus[0]], maps, vocab), config, params)
        padded_e, padded_c = encode(encode_batch(corpus, maps, vocab), config, params)
        np.testing.assert_allclose(alone_e.data[0], padded_e.data[0, :3], atol=1e-5)
        np.testing.assert_allclose(alone_c.data[0], padded_c.data[0], atol=1e-5)

    def test_deterministic_in_eval_mode(self):
        corpus, maps, vocab, config, params = make_setting()
        batch = encode_batch(corpus, maps, vocab)
        a, _ = encode(batch, config, params)
        b, _ = encode(batch, config, params)
        np.testing.assert_array_equal(a.data, b.data)

    def test_dropout_only_in_training(self):
        """A mask changes the output; no mask leaves it the eval output."""
        corpus, maps, vocab, config, params = make_setting()
        batch = encode_batch([corpus[0]], maps, vocab)
        eval_out, _ = encode(batch, config, params)
        B, L = batch.token_ids.shape
        keep = dropout_mask((B, L + 1, config.d), 0.1, np.random.default_rng(3),
                            batch.lengths + 1, params.dtype)
        train_out, _ = encode(batch, config, params, keep=keep)
        assert not np.allclose(eval_out.data, train_out.data)
        no_mask, _ = encode(batch, config, params, keep=None)
        np.testing.assert_array_equal(no_mask.data, eval_out.data)

    def test_position_overflow_rejected(self):
        corpus, maps, vocab, config, params = make_setting(max_positions=3)
        batch = encode_batch([corpus[1]], maps, vocab)
        with pytest.raises(ValueError, match="max_positions"):
            encode(batch, config, params)

    def test_post_norm_output_statistics(self):
        """Final sublayer is a layer norm with unit gain at init."""
        corpus, maps, vocab, config, params = make_setting()
        batch = encode_batch(corpus, maps, vocab)
        u_e, _ = encode(batch, config, params)
        np.testing.assert_allclose(u_e.data[1].mean(axis=-1), 0.0, atol=1e-6)
        np.testing.assert_allclose(u_e.data[1].var(axis=-1), 1.0, atol=1e-3)

    def test_position_embeddings_matter(self):
        corpus, maps, vocab, config, params = make_setting()
        u = Utterance(["fly", "boston"], "book_flight", ["O", "B-city"])
        r = Utterance(["boston", "fly"], "book_flight", ["B-city", "O"])
        eu, _ = encode(encode_batch([u], maps, vocab), config, params)
        er, _ = encode(encode_batch([r], maps, vocab), config, params)
        assert not np.allclose(eu.data[0, 0], er.data[0, 1], atol=1e-6)


class TestEncoderGradients:
    def test_full_encoder_gradcheck(self):
        corpus, maps, vocab, config, params = make_setting(
            dtype=np.float64, d=8, n_layers=1, n_heads=2, ffn_dim=10
        )
        batch = encode_batch([corpus[0]], maps, vocab)

        def loss():
            u_e, u_c = encode(batch, config, params)
            return add(scale(sum_all(u_e), 1.0 / u_e.size), sum_all(u_c))

        report = finite_diff_check(loss, params, h=1e-6, tol=1e-4)
        assert report.passed, report.format()

    def test_backward_reaches_embeddings(self):
        corpus, maps, vocab, config, params = make_setting()
        batch = encode_batch([corpus[0]], maps, vocab)
        params.zero_grads()
        backward(sum_all(encode(batch, config, params)[0]))
        tok_grad = params["encoder.tok_emb"].grad
        used = set(batch.token_ids[0])
        assert any(np.abs(tok_grad[i]).sum() > 0 for i in used)
        assert np.abs(params["encoder.cls_emb"].grad).sum() > 0
