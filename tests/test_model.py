import itertools

import numpy as np
import pytest
from conftest import param_set, per_type

from slotlens import model as model_module
from slotlens import tensor as tensor_module
from slotlens.data import (SPLIT_MIN_SAVED, Utterance, Vocab, build_label_maps, encode_batch,
                           split_by_length)
from slotlens.encoder import declare_encoder_params, encode
from slotlens.gradcheck import finite_diff_check
from slotlens.model import (
    ABLATION_FLAGS,
    JointModel,
    ModelConfig,
    fusion_cross_attention,
    intent_fusion,
    intent_head,
    slot_head,
    slot_type_attention,
    slot_type_heads,
    type_generator_param_count,
)
from slotlens.optim import ParamSet, adam_step, xavier_uniform
from slotlens.tensor import (
    Tensor, add, backward, binary_cross_entropy, concat, cross_entropy_rows, dropout_mask,
    reshape, scale,
)


def tiny_corpus():
    return [
        Utterance(["fly", "to", "boston", "now"], "book_flight",
                  ["O", "O", "B-city", "O"]),
        Utterance(["rain", "on", "monday"], "get_weather", ["O", "O", "B-day"]),
        Utterance(["new", "york", "weather"], "get_weather",
                  ["B-city", "I-city", "O"]),
    ]


def make_model(dtype=np.float32, seed=0, **kw):
    corpus = tiny_corpus()
    maps = build_label_maps(corpus)
    vocab = Vocab.build(corpus)
    config_kw = dict(
        vocab_size=len(vocab),
        n_intents=maps.n_intents,
        n_slot_types=maps.n_slot_types,
        n_bio_labels=maps.n_bio_labels,
        d=8,
        d_h=4,
        n_layers=1,
        n_heads=2,
        ffn_dim=12,
        max_positions=10,
        dropout_rate=0.0,
    )
    config_kw.update(kw)
    config = ModelConfig(**config_kw)
    model = JointModel(config, rng=np.random.default_rng(seed), dtype=dtype)
    batch = encode_batch(corpus, maps, vocab)
    return model, batch, maps, vocab


def rand_tensor(rng, shape, dtype=np.float64):
    return Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)


def all_valid(n):
    """Validity mask of a one-utterance batch of length n."""
    return np.ones((1, n), dtype=np.float32)


def type_param(model, name, i, field="data"):
    """Slot type i's part (``name`` is ``q.w``, ``head.b``, ...) of a
    stacked type generator parameter, as a view of its ``data`` or
    ``grad``."""
    stacked = f"type_gen.{name}"
    arr = getattr(model.params[stacked], field)
    return per_type({stacked: arr}, model.config)[f"type_gen.t{i}.{name}"]


class TestConfig:
    def test_weight_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            ModelConfig(vocab_size=5, n_intents=2, n_slot_types=2, n_bio_labels=3,
                        alpha=-1.0)

    @pytest.mark.parametrize("kw", [dict(alpha=float("inf")), dict(beta=float("nan")),
                                    dict(gamma=float("nan"))], ids=["inf", "nan", "nan-last"])
    def test_weights_must_be_finite(self, kw):
        with pytest.raises(ValueError, match="finite and non-negative"):
            ModelConfig(vocab_size=5, n_intents=2, n_slot_types=2, n_bio_labels=3, **kw)

    def test_dh_validation(self):
        with pytest.raises(ValueError, match="d_h"):
            ModelConfig(vocab_size=5, n_intents=2, n_slot_types=2, n_bio_labels=3,
                        d_h=0)

    def test_bio_consistency_validation(self):
        with pytest.raises(ValueError, match="inconsistent"):
            ModelConfig(vocab_size=5, n_intents=2, n_slot_types=3, n_bio_labels=4)

    def test_ablation_flags_are_the_bool_fields_in_order(self):
        assert ABLATION_FLAGS == ("no_aux_network", "no_cross_attention",
                                  "no_intent_concat", "no_aux_loss",
                                  "frozen_uniform_type_attention")

    @pytest.mark.parametrize("kw,name", [
        (dict(d=0), "d must be"), (dict(n_heads=0), "n_heads"), (dict(ffn_dim=0), "ffn_dim"),
        (dict(dropout_rate=-0.1), "dropout_rate"), (dict(dropout_rate=1.0), "dropout_rate"),
        (dict(dropout_rate=1.5), "dropout_rate"), (dict(d=8, n_heads=3), "divisible"),
        (dict(max_positions=1), "max_positions"), (dict(n_layers=-1), "n_layers must be"),
    ], ids=["d0", "heads0", "ffn0", "dropout-neg", "dropout1", "dropout1.5",
            "heads-not-dividing", "positions1", "layers-neg"])
    def test_encoder_sizes_checked_at_construction(self, kw, name):
        with pytest.raises(ValueError, match=name):
            ModelConfig(vocab_size=5, n_intents=2, n_slot_types=2, n_bio_labels=3, **kw)


class TestTypeGeneratorInit:
    def test_stacked_weights_draw_the_per_type_sequence(self):
        """A seeded model draws each type's q, k, v and head weights type
        after type, where the per-type declaration drew them: after the
        encoder, intent and fusion weights and before the cross attention."""
        model, _, _, _ = make_model(seed=5)
        config = model.config
        d, d_h, T = config.d, config.d_h, config.n_slot_types
        rng = np.random.default_rng(5)
        encoder_only = ParamSet()
        declare_encoder_params(encoder_only, config, rng)
        encoder_only.allocate()
        for fan_in, fan_out in [(d, config.n_intents), (d + config.n_intents, d),
                                (d, d), (d, d), (d, d)]:
            xavier_uniform(rng, fan_in, fan_out)
        for i in range(T):
            for name, (fan_in, fan_out) in [("q.w", (d, d_h)), ("k.w", (d, d_h)),
                                            ("v.w", (d, d_h)), ("head.w", (d_h, 1))]:
                want = xavier_uniform(rng, fan_in, fan_out)
                assert type_param(model, name, i).tobytes() == want.tobytes(), (name, i)
        for name in ("q.b", "k.b", "v.b", "head.b"):
            assert not model.params[f"type_gen.{name}"].data.any()
        assert model.params["cross.proj.w"].data.tobytes() == \
            xavier_uniform(rng, T, d).tobytes()

    def test_eight_stacked_tensors(self):
        model, _, _, _ = make_model()
        shapes = {n: t.shape for n, t in model.params.items() if n.startswith("type_gen.")}
        T, d, d_h = model.config.n_slot_types, model.config.d, model.config.d_h
        assert shapes == {**{f"type_gen.{p}.w": (d, T * d_h) for p in "qkv"},
                          **{f"type_gen.{p}.b": (T * d_h,) for p in "qkv"},
                          "type_gen.head.w": (T, d_h, 1), "type_gen.head.b": (T,)}


class TestIntentHead:
    def test_zero_parameters_give_zero_logits(self):
        model, batch, _, _ = make_model()
        model.params["intent.w"].data[:] = 0
        model.params["intent.b"].data[:] = 0
        np.testing.assert_array_equal(model.infer(batch)[0], 0)

    def test_bias_only(self):
        model, batch, maps, _ = make_model()
        model.params["intent.w"].data[:] = 0
        model.params["intent.b"].data[:] = [1.0, 2.0]
        np.testing.assert_allclose(model.infer(batch)[0], [[1.0, 2.0]] * batch.size)

    def test_matches_matvec_oracle(self):
        rng = np.random.default_rng(0)
        params = param_set({"intent.w": rng.standard_normal((6, 3)),
                            "intent.b": rng.standard_normal(3)})
        u_c = rand_tensor(rng, 6)
        got = intent_head(u_c, params).data
        want = u_c.data @ params["intent.w"].data + params["intent.b"].data
        np.testing.assert_allclose(got, want, rtol=1e-12)


class TestIntentFusion:
    def test_logit_row_copy_expansion(self):
        g = Tensor(np.array([[3.0, -1.0]]))
        x = concat([Tensor(np.zeros((1, 3, 1))), reshape(g, (1, 1, 2))])
        np.testing.assert_array_equal(x.data[0, :, 1:], [[3, -1]] * 3)

    def test_shape_contract(self):
        model, batch, _, _ = make_model()
        for n in (1, 4):
            u_e = rand_tensor(np.random.default_rng(n), (1, n, 8), np.float32)
            g = rand_tensor(np.random.default_rng(n + 1), (1, 2), np.float32)
            out = intent_fusion(u_e, g, all_valid(n), model.params, model.config)
            assert out.shape == (1, n, 8)

    def test_zero_value_projection_reduces_to_layer_norm(self):
        model, _, _, _ = make_model()
        p = model.params
        p["fusion.sa.v.w"].data[:] = 0
        p["fusion.sa.v.b"].data[:] = 0
        for ln in ("fusion.post_ln",):
            p[f"{ln}.gain"].data[:] = 1
            p[f"{ln}.bias"].data[:] = 0
        rng = np.random.default_rng(5)
        u_e = rand_tensor(rng, (1, 4, 8), np.float32)
        g = rand_tensor(rng, (1, 2), np.float32)
        got = intent_fusion(u_e, g, all_valid(4), model.params, model.config).data
        x = u_e.data
        mu = x.mean(-1, keepdims=True)
        want = (x - mu) / np.sqrt(x.var(-1, keepdims=True) + 1e-5)
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_no_intent_concat_changes_first_layer_width(self):
        model, _, _, _ = make_model(no_intent_concat=True)
        assert model.params["fusion.ln.gain"].shape == (8,)
        assert model.params["fusion.ll.w"].shape == (8, 8)
        full, _, _, _ = make_model()
        assert full.params["fusion.ln.gain"].shape == (10,)


class TestSlotTypeAttention:
    def test_rows_sum_to_one(self):
        model, batch, _, _ = make_model()
        _, _, attentions, _ = model.infer(batch)
        for b in range(batch.size):
            n = int(batch.lengths[b])
            sums = attentions[b, :, :n, :n].sum(axis=-1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-6)

    def test_frozen_uniform_rows(self):
        model, batch, _, _ = make_model(frozen_uniform_type_attention=True)
        _, _, attentions, _ = model.infer(batch)
        n = int(batch.lengths[0])
        np.testing.assert_allclose(attentions[0, :, :n, :n], 1.0 / n, atol=1e-7)

    def test_zero_query_gives_uniform(self):
        model, _, _, _ = make_model()
        for i in range(model.config.n_slot_types):
            type_param(model, "q.w", i)[:] = 0
            type_param(model, "q.b", i)[:] = 0
        u = rand_tensor(np.random.default_rng(2), (1, 5, 8), np.float32)
        alpha = slot_type_attention(u, all_valid(5), model.params, model.config)
        assert alpha.shape == (1, model.config.n_slot_types, 5, 5)
        np.testing.assert_allclose(alpha.data, 0.2, atol=1e-7)

    def test_matches_naive_attention_oracle(self):
        """Each type's map is its own single-head attention, and its logits
        are its head over the values that map weighs."""
        model, _, _, _ = make_model(dtype=np.float64)
        u = rand_tensor(np.random.default_rng(3), (1, 4, 8))
        alpha = slot_type_attention(u, all_valid(4), model.params, model.config)
        g = slot_type_heads(u, alpha, model.params, model.config)
        for i in range(model.config.n_slot_types):
            p = lambda n: type_param(model, n, i)
            x = u.data[0]
            q = x @ p("q.w") + p("q.b")
            k = x @ p("k.w") + p("k.b")
            v = x @ p("v.w") + p("v.b")
            scores = q @ k.T / np.sqrt(model.config.d_h)
            e = np.exp(scores - scores.max(-1, keepdims=True))
            a = e / e.sum(-1, keepdims=True)
            np.testing.assert_allclose(alpha.data[0, i], a, atol=1e-10)
            want = (a @ v) @ p("head.w") + p("head.b")
            np.testing.assert_allclose(g.data[0, :, i], want[:, 0], atol=1e-10)


def row_stochastic(rng, shape):
    """Random attention maps: positive rows that sum to one."""
    a = rng.random(shape) + 0.1
    return Tensor(a / a.sum(axis=-1, keepdims=True))


class TestSlotTypeHeads:
    def test_bias_only_columns(self):
        model, _, _, _ = make_model()
        for i in range(model.config.n_slot_types):
            type_param(model, "head.w", i)[:] = 0
            type_param(model, "head.b", i)[:] = float(i)
        rng = np.random.default_rng(0)
        u = rand_tensor(rng, (1, 3, 8), np.float32)
        alpha = row_stochastic(rng, (1, model.config.n_slot_types, 3, 3))
        g = slot_type_heads(u, alpha, model.params, model.config)
        for i in range(model.config.n_slot_types):
            np.testing.assert_allclose(g.data[0, :, i], float(i))

    def test_single_type_degenerates_to_binary_tagger(self):
        rng = np.random.default_rng(0)
        params = param_set({"type_gen.v.w": rng.standard_normal((8, 4)),
                            "type_gen.v.b": rng.standard_normal(4),
                            "type_gen.head.w": rng.standard_normal((1, 4, 1)),
                            "type_gen.head.b": rng.standard_normal(1)})
        config = ModelConfig(vocab_size=5, n_intents=2, n_slot_types=1,
                             n_bio_labels=1, d=8, d_h=4)
        u = rand_tensor(rng, (1, 3, 8))
        alpha = row_stochastic(rng, (1, 1, 3, 3))
        g = slot_type_heads(u, alpha, params, config)
        assert g.shape == (1, 3, 1)
        h = alpha.data[0, 0] @ (u.data[0] @ params["type_gen.v.w"].data
                                + params["type_gen.v.b"].data)
        want = h @ params["type_gen.head.w"].data[0] + params["type_gen.head.b"].data
        np.testing.assert_allclose(g.data[0], want, rtol=1e-12)

    def test_matches_per_type_oracle(self):
        model, _, _, _ = make_model(dtype=np.float64)
        rng = np.random.default_rng(9)
        u = rand_tensor(rng, (2, 5, 8))
        alpha = row_stochastic(rng, (2, model.config.n_slot_types, 5, 5))
        g = slot_type_heads(u, alpha, model.params, model.config)
        for i in range(model.config.n_slot_types):
            p = lambda n: type_param(model, n, i)
            h = alpha.data[:, i] @ (u.data @ p("v.w") + p("v.b"))
            np.testing.assert_allclose(g.data[..., i], (h @ p("head.w") + p("head.b"))[..., 0],
                                       atol=1e-12)

    @pytest.mark.parametrize("kw,made", [({}, ["transpose", "transpose"]),
                                         ({"frozen_uniform_type_attention": True}, [])],
                             ids=["full", "frozen"])
    def test_no_per_type_values_in_training_or_inference(self, monkeypatch, kw, made):
        """A training pass (with its backward) and an infer pass each build
        no (B, |T|, L, d_h) array other than the queries and keys of the
        learned maps: the values the maps weigh are one number per type and
        token."""
        model, batch, _, _ = make_model(d_h=6, dropout_rate=0.1, **kw)
        per_type_width = (batch.size, model.config.n_slot_types, batch.max_len, 6)
        ops = []
        real = Tensor._node.__func__

        def spy(cls, data, parents, op, *args, **kwargs):
            if data.shape == per_type_width:
                ops.append(op)
            return real(cls, data, parents, op, *args, **kwargs)

        monkeypatch.setattr(Tensor, "_node", classmethod(spy))
        out = model.forward(batch, rng=np.random.default_rng(0))
        model.params.zero_grads()
        backward(out.loss_total)
        assert ops == made
        ops.clear()
        model.infer(batch)
        assert ops == made

    def test_frozen_training_forms_no_gradient_for_the_constant_maps(self, monkeypatch):
        """In frozen-uniform mode the maps are constants, so no backward
        closure forms a (B, |T|, L, L) gradient for them."""
        model, batch, _, _ = make_model(n_heads=4, frozen_uniform_type_attention=True)
        maps_shape = (batch.size, model.config.n_slot_types, batch.max_len, batch.max_len)
        formed = []
        real = tensor_module._unbroadcast
        monkeypatch.setattr(tensor_module, "_unbroadcast",
                            lambda grad, shape: formed.append(grad.shape) or real(grad, shape))
        out = model.forward(batch, rng=np.random.default_rng(0))
        model.params.zero_grads()
        backward(out.loss_total)
        assert formed and maps_shape not in formed


class TestLosses:
    def test_zero_logit_aux_loss_is_ln2(self):
        """With every aux logit 0, pooled binary cross entropy is ln 2."""
        model, batch, _, _ = make_model()
        for i in range(model.config.n_slot_types):
            type_param(model, "head.w", i)[:] = 0
            type_param(model, "head.b", i)[:] = 0
        out = model.forward(batch)
        np.testing.assert_allclose(out.loss_type.item(), np.log(2), rtol=1e-6)

    def test_aux_divisor_pools_over_batch(self):
        """Lengths 4+3+3 and |T|=3 divide the summed cell losses by 30."""
        model, batch, _, _ = make_model()
        out = model.forward(batch)
        _, aux_logits, _, _ = model.infer(batch)
        total = 0.0
        T = model.config.n_slot_types
        for b in range(batch.size):
            n = int(batch.lengths[b])
            x = aux_logits[b, :n]
            y = batch.type_targets[b, :n, None] == np.arange(T)
            total += (np.logaddexp(0, x) - x * y).sum()
        n_cells = int(batch.lengths.sum()) * T
        assert n_cells == 30
        np.testing.assert_allclose(out.loss_type.item(), total / n_cells, rtol=1e-6)

    def test_uniform_slot_logits_loss(self):
        """Zero slot logits: per-utterance loss sums ln|S| over its tokens."""
        model, batch, maps, _ = make_model()
        model.params["slot.w"].data[:] = 0
        model.params["slot.b"].data[:] = 0
        out = model.forward(batch)
        mean_tokens = batch.lengths.mean()
        np.testing.assert_allclose(
            out.loss_slot.item(), mean_tokens * np.log(maps.n_bio_labels), rtol=1e-6
        )

    def test_total_is_weighted_sum(self):
        model, batch, _, _ = make_model(dtype=np.float64, alpha=1.0, beta=2.0, gamma=3.0)
        out = model.forward(batch)
        want = (out.loss_intent.item() + 2 * out.loss_type.item()
                + 3 * out.loss_slot.item())
        np.testing.assert_allclose(out.loss_total.item(), want, rtol=1e-12)

    def test_default_weights_sum_plainly(self):
        model, batch, _, _ = make_model(dtype=np.float64)
        out = model.forward(batch)
        want = out.loss_intent.item() + out.loss_type.item() + out.loss_slot.item()
        np.testing.assert_allclose(out.loss_total.item(), want, rtol=1e-12)

    def test_no_aux_loss_drops_beta_term(self):
        model, batch, _, _ = make_model(dtype=np.float64, no_aux_loss=True)
        out = model.forward(batch)
        want = out.loss_intent.item() + out.loss_slot.item()
        np.testing.assert_allclose(out.loss_total.item(), want, rtol=1e-12)
        assert out.loss_type.item() > 0  # still reported

    def test_pad_positions_never_scored(self):
        """Adding a long companion (hence padding) leaves per-utterance
        contributions unchanged."""
        corpus = tiny_corpus()
        maps = build_label_maps(corpus)
        vocab = Vocab.build(corpus)
        model, _, _, _ = make_model()
        *_, alone = model.infer(encode_batch([corpus[1]], maps, vocab))
        *_, together = model.infer(encode_batch(corpus, maps, vocab))
        np.testing.assert_allclose(together[1, :3], alone[0], atol=1e-6)

    def test_short_utterance_beside_a_long_one_matches_its_solo_run(self):
        """Lengths 2 and 40 in one batch: the short utterance's outputs equal
        its solo run, and its attention puts no weight on the 38 pad keys."""
        corpus = tiny_corpus()
        maps = build_label_maps(corpus)
        vocab = Vocab.build(corpus)
        model, _, _, _ = make_model(max_positions=41)
        words = [w for u in corpus for w in u.tokens]
        long_u = Utterance((words * 4)[:40], "book_flight", ["O"] * 40)
        short_u = Utterance(["rain", "monday"], "get_weather", ["O", "B-day"])
        intent, aux, attentions, slot = model.infer(encode_batch([long_u, short_u], maps, vocab))
        a_intent, a_aux, a_attentions, a_slot = model.infer(encode_batch([short_u], maps, vocab))
        np.testing.assert_allclose(intent[1], a_intent[0], atol=1e-6)
        np.testing.assert_allclose(slot[1, :2], a_slot[0], atol=1e-6)
        np.testing.assert_allclose(aux[1, :2], a_aux[0], atol=1e-6)
        np.testing.assert_allclose(attentions[1, :, :2, :2], a_attentions[0], atol=1e-6)
        assert (attentions[1, :, :, 2:] == 0).all()


class TestForwardShapes:
    def test_batched_output_shapes(self):
        model, batch, maps, _ = make_model()
        intent, aux, attentions, slot = model.infer(batch)
        B, L = batch.size, batch.max_len
        assert intent.shape == (B, maps.n_intents)
        assert aux.shape == (B, L, maps.n_slot_types)
        assert attentions.shape == (B, maps.n_slot_types, L, L)
        assert slot.shape == (B, L, maps.n_bio_labels)

    def test_no_aux_network_omits_aux_outputs(self):
        model, batch, _, _ = make_model(no_aux_network=True)
        _, aux, attentions, _ = model.infer(batch)
        assert aux is None
        assert attentions is None
        assert model.forward(batch).loss_type.item() == 0.0

    @pytest.mark.parametrize(
        "flags",
        list(itertools.product([False, True], repeat=len(ABLATION_FLAGS))),
        ids=lambda f: "".join("1" if x else "0" for x in f),
    )
    def test_every_flag_combination_trains_one_step(self, flags):
        kw = dict(zip(ABLATION_FLAGS, flags))
        model, batch, _, _ = make_model(**kw)
        out = model.forward(batch, rng=np.random.default_rng(0))
        model.params.zero_grads()
        backward(out.loss_total)
        adam_step(model.params, lr=1e-3)
        assert np.isfinite(out.loss_total.item())

    def test_training_with_dropout_needs_a_seeded_rng(self):
        """A dropout mask needs an rng, and ``forward`` without one runs no
        dropout: its losses at rate 0.1 are those of the same model at 0."""
        model, batch, _, _ = make_model(dropout_rate=0.1)
        with pytest.raises(ValueError, match="requires a seeded rng"):
            dropout_mask((batch.size, batch.max_len, model.config.d), 0.1, None, batch.lengths)
        plain, _, _, _ = make_model(dropout_rate=0.0)
        got, want = model.forward(batch), plain.forward(batch)
        for term in ("loss_intent", "loss_type", "loss_slot", "loss_total"):
            assert getattr(got, term).item() == getattr(want, term).item()


class TestAblationStructure:
    def test_no_aux_network_has_no_generator_params(self):
        model, _, _, _ = make_model(no_aux_network=True)
        assert model.n_params("type_gen.") == 0
        assert model.n_params("fusion.") == 0
        assert model.n_params("cross.") == 0
        assert model.n_params("slot.") > 0

    def test_no_cross_attention_drops_cross_params_only(self):
        model, _, _, _ = make_model(no_cross_attention=True)
        assert model.n_params("cross.") == 0
        assert model.n_params("type_gen.") > 0

    def test_type_generator_count_closed_form(self):
        model, _, _, _ = make_model()
        assert model.n_params("type_gen.") == type_generator_param_count(model.config)

    def test_generator_count_linear_in_types(self):
        base = dict(vocab_size=11, n_intents=2, d=8, d_h=4)
        c3 = ModelConfig(n_slot_types=3, n_bio_labels=5, **base)
        c4 = ModelConfig(n_slot_types=4, n_bio_labels=7, **base)
        per_type = type_generator_param_count(c4) - type_generator_param_count(c3)
        assert per_type == 3 * (8 * 4 + 4) + 4 + 1

    def test_beta_zero_and_no_cross_leaves_head_grads_zero(self):
        model, batch, _, _ = make_model(no_aux_loss=True, no_cross_attention=True)
        model.params.zero_grads()
        out = model.forward(batch)
        backward(out.loss_total)
        for i in range(model.config.n_slot_types):
            assert np.all(type_param(model, "head.w", i, "grad") == 0)
            assert np.all(type_param(model, "head.b", i, "grad") == 0)
        assert np.any(model.params["slot.w"].grad != 0)


class TestFusionCrossAttention:
    def test_zero_query_averages_values(self):
        model, _, _, _ = make_model(dtype=np.float64)
        model.params["cross.q.w"].data[:] = 0
        model.params["cross.q.b"].data[:] = 0
        rng = np.random.default_rng(4)
        u_e = rand_tensor(rng, (1, 5, 8))
        g_type = rand_tensor(rng, (1, 5, 3))
        got = fusion_cross_attention(u_e, g_type, all_valid(5), model.params, model.config)
        g_p = g_type.data[0] @ model.params["cross.proj.w"].data + model.params["cross.proj.b"].data
        v = g_p @ model.params["cross.v.w"].data + model.params["cross.v.b"].data
        fused = u_e.data[0] + v.mean(axis=0)
        mu = fused.mean(-1, keepdims=True)
        normed = (fused - mu) / np.sqrt(fused.var(-1, keepdims=True) + 1e-5)
        want = normed @ model.params["slot_out.ll.w"].data + model.params["slot_out.ll.b"].data
        np.testing.assert_allclose(got.data[0], want, atol=1e-10)

    def test_matches_naive_oracle(self):
        model, _, _, _ = make_model(dtype=np.float64)
        rng = np.random.default_rng(8)
        u_e = rand_tensor(rng, (1, 4, 8))
        g_type = rand_tensor(rng, (1, 4, 3))
        got = fusion_cross_attention(u_e, g_type, all_valid(4), model.params, model.config)
        p = lambda n: model.params[n].data
        g_p = g_type.data[0] @ p("cross.proj.w") + p("cross.proj.b")
        q = u_e.data[0] @ p("cross.q.w") + p("cross.q.b")
        k = g_p @ p("cross.k.w") + p("cross.k.b")
        v = g_p @ p("cross.v.w") + p("cross.v.b")
        s = q @ k.T / np.sqrt(8)
        e = np.exp(s - s.max(-1, keepdims=True))
        a = e / e.sum(-1, keepdims=True)
        fused = u_e.data[0] + a @ v
        mu = fused.mean(-1, keepdims=True)
        normed = (fused - mu) / np.sqrt(fused.var(-1, keepdims=True) + 1e-5)
        want = normed @ p("slot_out.ll.w") + p("slot_out.ll.b")
        np.testing.assert_allclose(got.data[0], want, atol=1e-9)

    def test_slot_head_bias_only(self):
        model, _, _, _ = make_model()
        model.params["slot.w"].data[:] = 0
        model.params["slot.b"].data[:] = np.arange(5, dtype=np.float32)
        u = rand_tensor(np.random.default_rng(1), (3, 8), np.float32)
        g = slot_head(u, model.params)
        np.testing.assert_allclose(g.data, np.tile(np.arange(5.0), (3, 1)), atol=1e-6)


SUB_NETWORKS = ("encode", "intent_head", "intent_fusion", "slot_type_attention",
                "slot_type_heads", "fusion_cross_attention", "slot_head")


class TestInfer:
    @pytest.mark.parametrize("kw", [{}, {"frozen_uniform_type_attention": True},
                                    {"no_aux_network": True}],
                             ids=["full", "frozen", "no_aux"])
    def test_matches_forward_bit_for_bit_on_valid_cells(self, kw):
        """Bit for bit: forward's four losses equal the same loss ops
        applied to infer's outputs."""
        model, _, maps, vocab = make_model(**kw)
        words = [w for u in tiny_corpus() for w in u.tokens]
        batch = encode_batch(tiny_corpus() + [Utterance(words[:9], "get_weather", ["O"] * 9)],
                             maps, vocab)
        out = model.forward(batch)
        intent, aux, attentions, slot = model.infer(batch)
        config, B = model.config, batch.size
        assert intent.dtype == slot.dtype == np.float32
        loss_intent = cross_entropy_rows(Tensor(intent), batch.intent_targets, B)
        loss_slot = cross_entropy_rows(Tensor(slot), batch.slot_targets, B)
        loss_type = Tensor(0.0)
        if aux is None:
            assert attentions is None
        else:
            assert aux.dtype == attentions.dtype == np.float32
            n_cells = int(batch.lengths.sum()) * config.n_slot_types
            types = batch.type_targets[..., None] == np.arange(config.n_slot_types)
            loss_type = binary_cross_entropy(Tensor(aux), types, n_cells,
                                             batch.mask[..., None] > 0)
        total = scale(loss_intent, config.alpha)
        if config.aux_loss_weight > 0:
            total = add(total, scale(loss_type, config.aux_loss_weight))
        total = add(total, scale(loss_slot, config.gamma))
        for got, want in ((out.loss_intent, loss_intent), (out.loss_type, loss_type),
                          (out.loss_slot, loss_slot), (out.loss_total, total)):
            assert got.data.dtype == want.data.dtype
            np.testing.assert_array_equal(got.data, want.data)

    def test_builds_no_graph_through_the_module_sub_networks(self, monkeypatch):
        """Every sub-network is reached through the module (so a wrapper sees
        it), and none of their outputs holds a parent or a backward closure."""
        model, batch, _, _ = make_model()
        seen = {}
        for name in SUB_NETWORKS:
            def spy(*args, _real=getattr(model_module, name), _name=name, **kwargs):
                out = _real(*args, **kwargs)
                seen[_name] = out if isinstance(out, tuple) else (out,)
                return out

            monkeypatch.setattr(model_module, name, spy)
        outputs = model.infer(batch)
        assert all(isinstance(o, np.ndarray) for o in outputs)
        assert set(seen) == set(SUB_NETWORKS)
        for t in (t for ts in seen.values() for t in ts):
            assert t._parents == () and t._backward is None and not t.requires_grad


class TestPredict:
    def test_unique_maxima(self):
        model, batch, _, _ = make_model()
        intents, slots = model.predict(batch)
        np.testing.assert_array_equal(intents, model.infer(batch)[0].argmax(1))
        for b, s in enumerate(slots):
            assert len(s[s >= 0]) == int(batch.lengths[b])

    def test_slot_ids_are_one_array_with_pad_as_in_the_targets(self):
        """(B, L) BIO ids, the slot logits' argmax at kept tokens and -1 at
        pad, where ``Batch.slot_targets`` holds -1."""
        model, batch, _, _ = make_model()
        assert not batch.mask.all()
        _, slots = model.predict(batch)
        assert slots.shape == batch.token_ids.shape
        np.testing.assert_array_equal(slots < 0, batch.slot_targets < 0)
        np.testing.assert_array_equal(slots[batch.mask],
                                      model.infer(batch)[3].argmax(2)[batch.mask])

    def test_tie_breaks_to_lower_index(self):
        model, batch, _, _ = make_model()
        model.params["intent.w"].data[:] = 0
        model.params["intent.b"].data[:] = 0
        model.params["slot.w"].data[:] = 0
        model.params["slot.b"].data[:] = 0
        intents, slots = model.predict(batch)
        assert (intents == 0).all()
        assert all((s[s >= 0] == 0).all() for s in slots)

    def test_batch_permutation_invariance(self):
        model, _, maps, vocab = make_model()
        corpus = tiny_corpus()
        fwd = encode_batch(corpus, maps, vocab)
        rev = encode_batch(corpus[::-1], maps, vocab)
        i_fwd, s_fwd = model.predict(fwd)
        i_rev, s_rev = model.predict(rev)
        np.testing.assert_array_equal(i_fwd, i_rev[::-1])
        for a, b in zip(s_fwd, s_rev[::-1]):
            np.testing.assert_array_equal(a, b)


def mixed_batch(maps, vocab):
    """Ten 1-token utterances and, fifth, a 12-token one: cutting off the
    long one saves 10 * 11 = 110 padded positions, so forward splits it."""
    corpus = tiny_corpus()
    words = [w for u in corpus for w in u.tokens]
    tags = [t for u in corpus for t in u.bio_tags]
    batch = [Utterance([w], "get_weather", ["O"]) for w in words]
    batch.insert(4, Utterance(words + words[:2], "book_flight", tags + ["O", "O"]))
    return encode_batch(batch, maps, vocab)


def batch_of_lengths(maps, vocab, counts, seed=0):
    """``counts[l]`` utterances of ``l`` <= 12 tokens each, in shuffled order:
    prefixes of the tiny corpus's words run together."""
    corpus = tiny_corpus()
    words = [w for u in corpus for w in u.tokens]
    tags = [t for u in corpus for t in u.bio_tags]
    words, tags = words + words[:2], tags + ["O", "O"]
    batch = [Utterance(words[:l], "get_weather", tags[:l])
             for l, count in counts.items() for _ in range(count)]
    order = np.random.default_rng(seed).permutation(len(batch))
    return encode_batch([batch[i] for i in order], maps, vocab)


# each split into these length modes saves more than SPLIT_MIN_SAVED per extra pass
K_WAY_COUNTS = {3: {1: 22, 6: 25, 12: 10}, 4: {1: 35, 4: 27, 8: 27, 12: 2}}


def one_graph_losses(model, batch, rng):
    """The four training losses as one graph over the whole batch, each
    dropout mask drawn from ``rng`` where it is applied: the embedding mask
    over ``lengths + 1`` rows, then the fusion mask over ``lengths``."""
    config, params, B = model.config, model.params, batch.size
    L, d, rate = batch.max_len, config.d, config.dropout_rate
    keep = dropout_mask((B, L + 1, d), rate, rng, batch.lengths + 1, params.dtype)
    u_e, u_c = encode(batch, config, params, keep)
    g_intent = intent_head(u_c, params)
    g_type, loss_type = None, Tensor(0.0)
    if config.has_aux_network:
        keep = dropout_mask((B, L, d), rate, rng, batch.lengths, params.dtype)
        u_hat = intent_fusion(u_e, g_intent, batch.mask, params, config, keep)
        alpha = slot_type_attention(u_hat, batch.mask, params, config)
        g_type = slot_type_heads(u_hat, alpha, params, config)
        loss_type = binary_cross_entropy(
            g_type, batch.type_targets[..., None] == np.arange(config.n_slot_types),
            int(batch.lengths.sum()) * config.n_slot_types, batch.mask[..., None] > 0)
    g_slot = slot_head(fusion_cross_attention(u_e, g_type, batch.mask, params, config), params)
    loss_intent = cross_entropy_rows(g_intent, batch.intent_targets, B)
    loss_slot = cross_entropy_rows(g_slot, batch.slot_targets, B)
    total = scale(loss_intent, config.alpha)
    if config.aux_loss_weight > 0:
        total = add(total, scale(loss_type, config.aux_loss_weight))
    return loss_intent, loss_type, loss_slot, add(total, scale(loss_slot, config.gamma))


def assert_split_matches_one_graph(model, batch):
    """``forward``'s four losses and their gradients, on whatever sub-batches
    it splits ``batch`` into, against one graph over the whole batch, to
    1e-12 in float64, with both sides drawing from equally seeded rngs."""
    split_rng, one_rng = np.random.default_rng(11), np.random.default_rng(11)
    out = model.forward(batch, rng=split_rng)
    model.params.zero_grads()
    backward(out.loss_total)
    split_grads = model.params.grad.copy()
    want = one_graph_losses(model, batch, one_rng)
    model.params.zero_grads()
    backward(want[-1])
    for got, ref in zip((out.loss_intent, out.loss_type, out.loss_slot, out.loss_total),
                        want):
        np.testing.assert_allclose(got.data, ref.data, rtol=0, atol=1e-12)
    np.testing.assert_allclose(split_grads, model.params.grad, rtol=0, atol=1e-12)
    assert np.abs(split_grads).max() > 0
    assert split_rng.random() == one_rng.random()


MODEL_VARIANTS = pytest.mark.parametrize(
    "kw", [{}, {"frozen_uniform_type_attention": True}, {"no_aux_network": True},
           {"no_cross_attention": True}], ids=["full", "frozen", "no_aux", "no_cross"])


class TestLengthSplit:
    def test_forward_runs_a_mixed_batch_as_two_sub_batches(self, monkeypatch):
        model, batch, maps, vocab = make_model(max_positions=13)
        shapes = []

        def spy(sub, *args, _real=model_module.encode, **kwargs):
            shapes.append(sub.token_ids.shape)
            return _real(sub, *args, **kwargs)

        monkeypatch.setattr(model_module, "encode", spy)
        model.forward(mixed_batch(maps, vocab))
        model.forward(batch)
        assert shapes == [(10, 1), (1, 12), (3, 4)]

    @MODEL_VARIANTS
    def test_losses_and_gradients_match_one_graph_in_float64(self, kw):
        """Same rng seed on both sides: the split pass draws the dropout
        masks the one-graph pass draws, and no more."""
        model, _, maps, vocab = make_model(np.float64, max_positions=13, dropout_rate=0.1, **kw)
        assert_split_matches_one_graph(model, mixed_batch(maps, vocab))

    @pytest.mark.parametrize("ways", [3, 4])
    @MODEL_VARIANTS
    def test_k_way_losses_and_gradients_match_one_graph_in_float64(self, kw, ways):
        model, _, maps, vocab = make_model(np.float64, max_positions=13, dropout_rate=0.1, **kw)
        batch = batch_of_lengths(maps, vocab, K_WAY_COUNTS[ways])
        groups = split_by_length(batch.lengths, SPLIT_MIN_SAVED, batch.size)
        assert len(groups) == ways
        assert_split_matches_one_graph(model, batch)

    def test_split_batch_gradients_match_finite_differences(self):
        model, _, maps, vocab = make_model(np.float64, max_positions=13, d=4, d_h=2, ffn_dim=4)
        batch = mixed_batch(maps, vocab)
        report = finite_diff_check(lambda: model.forward(batch).loss_total, model.params,
                                   h=1e-6, tol=1e-4)
        assert report.passed, report.format()


class TestFullModelGradcheck:
    def test_total_loss_gradients(self):
        model, batch, _, _ = make_model(dtype=np.float64)

        def loss():
            return model.forward(batch).loss_total

        report = finite_diff_check(loss, model.params, h=1e-6, tol=1e-4)
        assert report.passed, report.format()

    def test_frozen_uniform_gradients(self):
        model, batch, _, _ = make_model(dtype=np.float64,
                                        frozen_uniform_type_attention=True)

        def loss():
            return model.forward(batch).loss_total

        report = finite_diff_check(loss, model.params, h=1e-6, tol=1e-4)
        assert report.passed, report.format()
