import warnings
from dataclasses import fields

import numpy as np
import pytest

from slotlens import train
from slotlens.data import Span, Utterance, Vocab, build_label_maps, encode_batch
from slotlens.model import JointModel, ModelConfig
from slotlens.synth import default_grammar, generate_synthetic_corpus
from slotlens.train import (
    EpochStats,
    Metrics,
    RunConfig,
    TrainingDivergedError,
    curve_to_tsv,
    evaluate,
    metrics_to_tsv,
    train_model,
)


def tiny_run(**kw):
    defaults = dict(d=8, d_h=4, n_layers=1, n_heads=2, ffn_dim=12,
                    epochs=2, batch_size=4, seed=3)
    defaults.update(kw)
    return RunConfig(**defaults)


def poison_gradients(monkeypatch, names):
    """Make every ``backward`` in ``train_model`` leave an inf in the
    gradient of each named parameter."""
    models = []

    class Recorded(JointModel):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            models.append(self)

    def poisoned(loss):
        real_backward(loss)
        for name in names:
            models[-1].params[name].grad.flat[0] = np.inf

    real_backward = train.backward
    monkeypatch.setattr(train, "JointModel", Recorded)
    monkeypatch.setattr(train, "backward", poisoned)


@pytest.fixture(scope="module")
def corpus_setting():
    corpus = generate_synthetic_corpus(seed=1, n=24)
    maps = build_label_maps(generate_synthetic_corpus(seed=1, n=300))
    vocab = Vocab.build(corpus)
    return corpus, maps, vocab


class TestRunConfigDefaults:
    def test_published_recipe_defaults(self):
        run = RunConfig()
        assert run.lr == 5e-5
        assert run.dropout == 0.1
        assert run.d_h == 32
        assert run.d == 64
        assert (run.alpha, run.beta, run.gamma) == (1.0, 1.0, 1.0)
        assert run.batch_size == 32
        assert run.max_len == 50
        assert run.epochs == 20

    def test_default_model_config_is_model_config_default(self, corpus_setting):
        """RunConfig restates two model defaults under other names (max_len
        for max_positions, dropout for dropout_rate); both must agree."""
        _, maps, vocab = corpus_setting
        assert RunConfig().model_config(len(vocab), maps) == ModelConfig(
            vocab_size=len(vocab), n_intents=maps.n_intents,
            n_slot_types=maps.n_slot_types, n_bio_labels=maps.n_bio_labels)

    def test_model_config_projection(self, corpus_setting):
        _, maps, vocab = corpus_setting
        mc = tiny_run().model_config(len(vocab), maps)
        assert mc.n_intents == maps.n_intents
        assert mc.max_positions == 51
        assert mc.vocab_size == len(vocab)

    def test_model_config_carries_every_shared_field(self, corpus_setting):
        _, maps, vocab = corpus_setting
        run = RunConfig(dropout=0.25, d=12, d_h=5, n_layers=3, n_heads=3, ffn_dim=7,
                        alpha=0.5, beta=2.0, gamma=3.0, max_len=9, no_aux_network=True,
                        no_cross_attention=True, no_intent_concat=True,
                        no_aux_loss=True, frozen_uniform_type_attention=True)
        mc = run.model_config(len(vocab), maps)
        from_data = {"vocab_size": len(vocab), "n_intents": maps.n_intents,
                     "n_slot_types": maps.n_slot_types,
                     "n_bio_labels": maps.n_bio_labels}
        renamed = {"max_positions": 10, "dropout_rate": 0.25}
        for f in fields(ModelConfig):
            want = from_data.get(f.name, renamed.get(f.name))
            if want is None:
                want = getattr(run, f.name)
                assert want != f.default, f.name
            assert getattr(mc, f.name) == want, f.name

    @pytest.mark.parametrize("kw", [
        dict(batch_size=0), dict(batch_size=-1), dict(epochs=-2), dict(lr=0.0),
        dict(lr=-1.0), dict(lr=float("nan")), dict(lr=float("inf")), dict(seed=-1),
        dict(max_len=0),
    ], ids=["batch0", "batch-neg", "epochs-neg", "lr0", "lr-neg", "lr-nan", "lr-inf",
            "seed-neg", "max-len0"])
    def test_rejects_bad_optimizer_settings(self, kw):
        (name,) = kw
        with pytest.raises(ValueError, match=name):
            RunConfig(**kw)


class TestTrainModel:
    def test_zero_epochs_returns_initialized_model(self, corpus_setting):
        corpus, maps, vocab = corpus_setting
        result = train_model(corpus, maps, vocab, tiny_run(epochs=0))
        assert result.curve == []
        assert result.model.n_params() > 0

    def test_curve_length_and_finiteness(self, corpus_setting):
        corpus, maps, vocab = corpus_setting
        result = train_model(corpus, maps, vocab, tiny_run(epochs=3))
        assert [s.epoch for s in result.curve] == [1, 2, 3]
        for s in result.curve:
            assert np.isfinite([s.loss_intent, s.loss_type, s.loss_slot,
                                s.loss_total]).all()

    def test_identical_seeds_identical_weights(self, corpus_setting):
        corpus, maps, vocab = corpus_setting
        a = train_model(corpus, maps, vocab, tiny_run())
        b = train_model(corpus, maps, vocab, tiny_run())
        for name in a.model.params.names():
            np.testing.assert_array_equal(
                a.model.params[name].data, b.model.params[name].data
            )
        assert a.curve == b.curve

    def test_different_seeds_differ(self, corpus_setting):
        corpus, maps, vocab = corpus_setting
        a = train_model(corpus, maps, vocab, tiny_run(seed=1))
        b = train_model(corpus, maps, vocab, tiny_run(seed=2))
        assert any(
            not np.array_equal(a.model.params[n].data, b.model.params[n].data)
            for n in a.model.params.names()
        )

    def test_loss_decreases_with_aggressive_rate(self, corpus_setting):
        corpus, maps, vocab = corpus_setting
        result = train_model(corpus, maps, vocab, tiny_run(epochs=8, lr=5e-3))
        assert result.curve[-1].loss_total < result.curve[0].loss_total

    def test_dev_split_is_scored_per_epoch(self, corpus_setting):
        corpus, maps, vocab = corpus_setting
        dev = corpus[:6]
        result = train_model(corpus, maps, vocab, tiny_run(), dev_corpus=dev)
        for s in result.curve:
            assert s.dev_intent_accuracy is not None
            assert 0.0 <= s.dev_intent_accuracy <= 1.0
            assert s.dev_slot_f1 is not None

    def test_empty_dev_corpus_is_refused_before_any_forward(self, corpus_setting,
                                                             monkeypatch):
        corpus, maps, vocab = corpus_setting

        def forward(*args, **kwargs):
            raise AssertionError("forward ran")

        monkeypatch.setattr(JointModel, "forward", forward)
        with pytest.raises(ValueError, match="^dev corpus is empty$"):
            train_model(corpus, maps, vocab, tiny_run(), dev_corpus=[])

    def test_non_finite_gradient_names_the_first_parameter(self, corpus_setting,
                                                           monkeypatch):
        corpus, maps, vocab = corpus_setting
        poison_gradients(monkeypatch, ["slot.w", "encoder.tok_emb"])
        with pytest.raises(TrainingDivergedError,
                           match="non-finite gradient for parameter 'encoder.tok_emb' "
                                 "at epoch 1"):
            train_model(corpus, maps, vocab, tiny_run())

    def test_gradient_adam_cannot_square_names_the_parameter(self, corpus_setting):
        """A huge loss weight gives finite gradients whose squares overflow
        Adam's second moment; training stops at once and numpy does not
        warn first."""
        corpus, maps, vocab = corpus_setting
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDivergedError,
                               match="gradient beyond Adam's range for parameter '[a-z_.]+' "
                                     "at epoch 1$"):
                train_model(corpus, maps, vocab, tiny_run(alpha=1e30))

    def test_update_beyond_float32_names_the_parameter(self, corpus_setting, monkeypatch):
        """A huge learning rate leaves finite gradients but moves the weights
        past what the next forward can square; training stops after that
        update, before the forward overflows, and numpy does not warn."""
        corpus, maps, vocab = corpus_setting
        steps = []
        real_step = train.adam_step
        monkeypatch.setattr(train, "adam_step",
                            lambda *a, **kw: steps.append(real_step(*a, **kw)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDivergedError,
                               match="parameter '[a-z0-9_.]+' beyond float32's range "
                                     "after the update at epoch 1$"):
                train_model(corpus, maps, vocab, tiny_run(lr=1e30))
        assert len(steps) == 1

    def test_non_finite_weight_after_the_update_names_it(self, corpus_setting, monkeypatch):
        corpus, maps, vocab = corpus_setting
        real_step = train.adam_step

        def poisoned(params, **kw):
            real_step(params, **kw)
            params["slot.w"].data[1, 2] = np.nan

        monkeypatch.setattr(train, "adam_step", poisoned)
        with pytest.raises(TrainingDivergedError,
                           match="parameter 'slot.w' beyond float32's range after the "
                                 "update at epoch 1$"):
            train_model(corpus, maps, vocab, tiny_run())

    def test_truncation_is_counted_once_over_epochs_and_sub_batches(self, corpus_setting,
                                                                    monkeypatch):
        """Ten 1-token utterances and one of 15 tokens in one batch at
        max_len 12: forward runs it as two sub-batches in each of the two
        epochs, and the one cut utterance counts once."""
        from slotlens import model as model_module

        corpus, maps, vocab = corpus_setting
        u = corpus[0]
        utterances = [Utterance([w], u.intent, ["O"]) for w in (u.tokens * 10)[:10]]
        utterances.append(Utterance((u.tokens * 15)[:15], u.intent, ["O"] * 15))
        shapes = []

        def spy(batch, *args, _real=model_module.encode, **kwargs):
            shapes.append(batch.token_ids.shape)
            return _real(batch, *args, **kwargs)

        monkeypatch.setattr(model_module, "encode", spy)
        result = train_model(utterances, maps, vocab, tiny_run(max_len=12, batch_size=11))
        assert result.truncated == 1
        assert shapes == [(10, 1), (1, 12)] * 2

    def test_nothing_truncated_counts_zero(self, corpus_setting):
        corpus, maps, vocab = corpus_setting
        assert train_model(corpus, maps, vocab, tiny_run()).truncated == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_diagnostic(self, corpus_setting):
        corpus, maps, vocab = corpus_setting
        with pytest.raises(TrainingDivergedError, match="epoch"):
            train_model(corpus, maps, vocab, tiny_run(lr=1e6, epochs=3))


class TestEvaluate:
    def test_default_length_comes_from_the_model(self, corpus_setting, monkeypatch):
        """With 61 positions, a 55-token utterance is scored whole."""
        import slotlens.train as train_module

        corpus, maps, vocab = corpus_setting
        model = train_model(corpus, maps, vocab, tiny_run(epochs=0, max_len=60)).model
        u = corpus[0]
        long_u = Utterance((u.tokens * 55)[:55], u.intent, ["O"] * 55)
        seen = []
        real = train_module.encode_batch

        def spy(*args, **kwargs):
            batch = real(*args, **kwargs)
            seen.append(batch)
            return batch

        monkeypatch.setattr(train_module, "encode_batch", spy)
        evaluate(model, [long_u], maps, vocab)
        assert [b.lengths.tolist() for b in seen] == [[55]]

    def test_length_groups_match_single_utterance_runs(self, corpus_setting, monkeypatch):
        """Lengths 2-47 in shuffled order score exactly as one utterance per
        pass does, while running as a few multi-utterance length groups."""
        corpus, maps, vocab = corpus_setting
        model = train_model(corpus, maps, vocab, tiny_run(epochs=0, max_len=47)).model
        rng = np.random.default_rng(4)
        mixed = []
        for n in rng.permutation([*range(2, 48, 3), 47] * 3):
            parts = [corpus[int(i)] for i in rng.integers(0, len(corpus), 8)]
            tokens = [w for u in parts for w in u.tokens]
            tags = [t for u in parts for t in u.bio_tags]
            mixed.append(Utterance(tokens[:n], parts[0].intent, tags[:n]))
        groups = []
        real = model.predict

        def spy(batch):
            groups.append(batch.lengths.tolist())
            return real(batch)

        monkeypatch.setattr(model, "predict", spy)
        grouped = evaluate(model, mixed, maps, vocab)
        monkeypatch.undo()
        assert 1 < len(groups) < len(mixed) / 4
        assert all(max(a) <= min(b) for a, b in zip(groups, groups[1:]))
        assert grouped == evaluate(model, mixed, maps, vocab, batch_size=1)
        assert grouped.slot_precision > 0

    def test_training_and_evaluation_encode_their_corpus_once(self, corpus_setting,
                                                              monkeypatch):
        """Every shuffled batch of every epoch, and every length group, is
        a selection of rows of the one encoded corpus."""
        import slotlens.train as train_module

        corpus, maps, vocab = corpus_setting
        calls = []
        real = train_module.encode_batch

        def counting(utterances, *args, **kwargs):
            calls.append(len(utterances))
            return real(utterances, *args, **kwargs)

        monkeypatch.setattr(train_module, "encode_batch", counting)
        model = train_model(corpus, maps, vocab, tiny_run(epochs=3)).model
        assert calls == [len(corpus)]
        evaluate(model, corpus, maps, vocab, batch_size=5)
        assert calls == [len(corpus)] * 2

    def test_perfect_agreement_scores_one(self, corpus_setting):
        """Scoring a model's own predictions as gold is exact."""
        corpus, maps, vocab = corpus_setting
        model = train_model(corpus, maps, vocab, tiny_run(epochs=0)).model
        relabeled = []
        for u in corpus:
            batch = encode_batch([u], maps, vocab)
            _, slots = model.predict(batch)
            intent_id = model.infer(batch)[0][0].argmax()
            relabeled.append(
                Utterance(
                    tokens=u.tokens,
                    intent=maps.intents[int(intent_id)],
                    bio_tags=_repair([maps.bio_labels[j] for j in slots[0]]),
                )
            )
        m = evaluate(model, relabeled, maps, vocab)
        assert m.intent_accuracy == 1.0
        assert m.slot_f1 == 1.0

    def test_spans_are_scored_without_extract_spans(self, corpus_setting, monkeypatch):
        """``evaluate`` reads spans from the label-id arrays: with the
        per-utterance reader made to fail it scores as the oracle does,
        ``extract_spans`` of each utterance's gold and predicted tags."""
        import slotlens.data as data_module

        corpus, maps, vocab = corpus_setting
        model = train_model(corpus, maps, vocab, tiny_run(epochs=1, max_len=9)).model
        batch = encode_batch(corpus, maps, vocab, 9)
        intents, slots = model.predict(batch)
        gold, pred = ([data_module.extract_spans([maps.bio_labels[j] for j in row if j >= 0])
                       for row in ids] for ids in (batch.slot_targets, slots))
        expected = Metrics(float((intents == batch.intent_targets).mean()),
                           *data_module.span_f1(gold, pred))

        def refuse(*args, **kwargs):
            raise AssertionError("extract_spans called")

        monkeypatch.setattr(data_module, "extract_spans", refuse)
        monkeypatch.setattr(train, "extract_spans", refuse, raising=False)
        assert evaluate(model, corpus, maps, vocab, max_len=9, batch_size=7) == expected
        assert 0 < expected.slot_precision < 1

    def test_empty_corpus_rejected(self, corpus_setting):
        _, maps, vocab = corpus_setting
        model = train_model(
            generate_synthetic_corpus(seed=1, n=4), maps, vocab, tiny_run(epochs=0)
        ).model
        with pytest.raises(ValueError, match="empty"):
            evaluate(model, [], maps, vocab)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_rejected(self, corpus_setting, batch_size):
        """Where -1 scored no utterance and returned all-zero metrics."""
        corpus, maps, vocab = corpus_setting
        model = train_model(corpus, maps, vocab, tiny_run(epochs=0)).model
        with pytest.raises(ValueError, match=f"batch size must be at least 1, got {batch_size}"):
            evaluate(model, corpus, maps, vocab, batch_size=batch_size)

    @pytest.mark.parametrize("max_len", [0, -2])
    def test_max_len_below_one_rejected_before_any_pass(self, corpus_setting, monkeypatch,
                                                        max_len):
        """Where 0 failed inside the network with every position masked."""
        corpus, maps, vocab = corpus_setting
        model = train_model(corpus, maps, vocab, tiny_run(epochs=0)).model
        monkeypatch.setattr(train, "encode_batch", None)
        with pytest.raises(ValueError, match=f"^max_len must be at least 1, got {max_len}$"):
            evaluate(model, corpus, maps, vocab, max_len=max_len)

    def test_hand_built_confusion_fixture(self, corpus_setting):
        """3 utterances with known confusions give hand-computed metrics."""
        corpus, maps, vocab = corpus_setting
        gold = [
            {Span("city", 0, 1), Span("day", 3, 3)},
            {Span("city", 2, 2)},
            set(),
        ]
        pred = [
            {Span("city", 0, 1), Span("day", 4, 4)},
            {Span("city", 2, 2), Span("airline", 0, 0)},
            set(),
        ]
        from slotlens.data import span_f1

        p, r, f1 = span_f1(gold, pred)
        assert p == pytest.approx(2 / 4)
        assert r == pytest.approx(2 / 3)
        assert f1 == pytest.approx(2 * (2 / 4) * (2 / 3) / ((2 / 4) + (2 / 3)))

    def test_metrics_range_validated(self):
        with pytest.raises(ValueError, match="out of"):
            Metrics(intent_accuracy=1.5, slot_precision=0, slot_recall=0, slot_f1=0)


class TestReportWriters:
    def test_curve_tsv(self):
        curve = [
            EpochStats(1, 1.0, 0.5, 2.0, 3.5),
            EpochStats(2, 0.9, 0.4, 1.8, 3.1, dev_intent_accuracy=0.75,
                       dev_slot_f1=0.5),
        ]
        lines = curve_to_tsv(curve).strip().split("\n")
        assert lines[0].split("\t") == [
            "epoch", "loss_intent", "loss_type", "loss_slot", "loss_total",
            "dev_intent_accuracy", "dev_slot_f1",
        ]
        assert lines[1].endswith("\t\t")
        assert lines[2].split("\t")[5] == "0.75"

    def test_metrics_tsv(self):
        text = metrics_to_tsv(Metrics(0.9, 0.8, 0.7, 0.746666666))
        header, row = text.strip().split("\n")
        assert header == "intent_accuracy\tslot_precision\tslot_recall\tslot_f1"
        assert row.split("\t")[0] == "0.9"


def _repair(tags):
    """Predictions may be invalid BIO; normalize through the span layer."""
    from slotlens.data import extract_spans, spans_to_bio

    return spans_to_bio(extract_spans(tags), len(tags))
