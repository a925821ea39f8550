import copy
import html

import numpy as np
import pytest

from slotlens import explain as explain_module
from slotlens import model as model_module
from slotlens.data import Utterance, Vocab, build_label_maps, encode_batch
from slotlens.explain import (
    _entropy_means,
    _row_cosines,
    _topk_entropies,
    EXTRACT_CHUNK,
    AttentionBundle,
    ConsistencyReport,
    PairScore,
    compare_attention_consistency,
    consistency_analysis,
    entropy,
    entropy_report_from_bundles,
    extract_attention_bundles,
    extract_attentions,
    render_heatmap,
    topk_entropy_analysis,
    type_entropy,
    write_report,
)
from slotlens.model import JointModel, ModelConfig
from slotlens.synth import default_grammar, generate_synthetic_corpus, modification_pairs
from slotlens.train import RunConfig, train_model


def uniform_bundle(l=4, types=("city", "day"), positive=("city",)):
    m = np.full((l, l), 1.0 / l)
    return AttentionBundle(
        tokens=[f"w{i}" for i in range(l)],
        matrices={t: m.copy() for t in types},
        positive_types=frozenset(positive),
        negative_types=frozenset(types) - frozenset(positive),
    )


def point_mass_matrix(l, col=0):
    m = np.zeros((l, l))
    m[:, col] = 1.0
    return m


def _top_fraction(values, k):
    """Largest max(1, floor(k*n/100)) entries, descending: the loop reference."""
    flat = np.sort(np.asarray(values).reshape(-1))[::-1]
    return flat[: max(1, int(np.floor(k * flat.size / 100.0)))]


def _per_cell_heatmap(bundle, slot_type):
    """The HTML that ``render_heatmap`` writes, formatted one cell at a time
    with an f-string per number: the byte reference."""
    m = bundle.matrices[slot_type]
    peak = float(m.max())
    scaled = m / peak if peak > 0 else m
    esc = [html.escape(t) for t in bundle.tokens]
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>attention: {html.escape(slot_type)}</title>",
        "<style>",
        "body{font:14px monospace;margin:2em}",
        "table{border-collapse:collapse}",
        "td{width:2.2em;height:2.2em;border:1px solid #ddd;text-align:center}",
        "th{padding:2px 8px;font-weight:normal;color:#333}",
        ".swatch{background-color:rgb(31,119,180)}",
        "</style></head><body>",
        f"<h1>slot type: {html.escape(slot_type)}</h1>",
        f"<p>utterance: {' '.join(esc)}</p>",
        "<table>",
        "<tr><th></th>" + "".join(f"<th>{t}</th>" for t in esc) + "</tr>",
    ]
    for i, row in enumerate(scaled):
        cells = "".join(
            f'<td class="swatch" style="opacity:{row[j]:.6f}" '
            f'title="{m[i, j]:.6f}"></td>'
            for j in range(len(esc))
        )
        parts.append(f"<tr><th>{esc[i]}</th>{cells}</tr>")
    parts.append("</table></body></html>")
    return ("\n".join(parts) + "\n").encode("utf-8")


def escaped_tokens(l):
    """``l`` tokens that need HTML escaping, several of them non-ASCII."""
    return [("<w>", "a&b", "tök", '"q"', "日本")[i % 5] + str(i) for i in range(l)]


def mixed_utterances(n, seed=0, lengths=range(2, 10)):
    """``n`` utterances over the small_setting vocabulary, cycling through
    ``lengths``; every third one is all-O, the rest carry gold slots."""
    rng = np.random.default_rng(seed)
    words = ["fly", "to", "boston", "today", "hello", "there", "rain", "in", "denver"]
    out = []
    for i in range(n):
        l = lengths[i % len(lengths)]
        tokens = [str(w) for w in rng.choice(words, size=l)]
        tags = ["O"] * l
        if i % 3:
            kind = ("city", "day", "airline", "hotel")[i % 4]
            start = int(rng.integers(0, l))
            tags[start] = f"B-{kind}"
            if start + 1 < l:
                tags[start + 1] = f"I-{kind}"
        out.append(Utterance(tokens, "book_flight", tags))
    return out


def count_passes(monkeypatch):
    """Record the batch size of every inference pass."""
    calls = []
    real_infer = model_module.infer

    def counting_infer(batch, *args, **kwargs):
        calls.append(batch.size)
        return real_infer(batch, *args, **kwargs)

    monkeypatch.setattr(model_module, "infer", counting_infer)
    return calls


def small_setting(extra_types=(), **config_kw):
    corpus = [
        Utterance(["fly", "to", "boston", "today"], "book_flight",
                  ["O", "O", "B-city", "B-day"]),
        Utterance(["hello", "there"], "greet", ["O", "O"]),
        Utterance(["rain", "in", "denver"], "get_weather", ["O", "O", "B-city"]),
    ]
    extra = [Utterance(["a", "b"], "greet", ["B-airline", "B-hotel"])]
    extra += [Utterance(["a"], "greet", [f"B-{kind}"]) for kind in extra_types]
    maps = build_label_maps(corpus + extra)
    vocab = Vocab.build(corpus)
    kw = dict(
        vocab_size=len(vocab), n_intents=maps.n_intents,
        n_slot_types=maps.n_slot_types, n_bio_labels=maps.n_bio_labels,
        d=8, d_h=4, n_layers=1, n_heads=2, ffn_dim=12, max_positions=10,
        dropout_rate=0.0,
    )
    kw.update(config_kw)
    model = JointModel(ModelConfig(**kw), rng=np.random.default_rng(0))
    return model, corpus, maps, vocab


def synthetic_pairs_setting():
    """A small random model and the modification pairs of a 12-utterance
    synthetic corpus."""
    g = default_grammar()
    corpus = generate_synthetic_corpus(seed=3, n=12, grammar=g)
    maps = build_label_maps(generate_synthetic_corpus(seed=3, n=200, grammar=g))
    vocab = Vocab.build(corpus)
    model = JointModel(ModelConfig(
        vocab_size=len(vocab), n_intents=maps.n_intents,
        n_slot_types=maps.n_slot_types, n_bio_labels=maps.n_bio_labels,
        d=8, d_h=4, n_layers=1, n_heads=2, ffn_dim=12, max_positions=30,
    ), rng=np.random.default_rng(1))
    return model, modification_pairs(corpus, g, seed=5), maps, vocab


def outside_only_setting():
    """A small random model whose label maps hold no slot type but "O"."""
    corpus = [Utterance(["hello", "there"], "greet", ["O", "O"]),
              Utterance(["rain", "in", "denver"], "get_weather", ["O", "O", "O"])]
    maps = build_label_maps(corpus)
    vocab = Vocab.build(corpus)
    model = JointModel(ModelConfig(
        vocab_size=len(vocab), n_intents=maps.n_intents,
        n_slot_types=maps.n_slot_types, n_bio_labels=maps.n_bio_labels,
        d=8, d_h=4, n_layers=1, n_heads=2, ffn_dim=12, max_positions=10,
    ), rng=np.random.default_rng(0))
    return model, corpus, maps, vocab


class TestEntropy:
    def test_uniform_over_four(self):
        assert entropy([0.25] * 4) == pytest.approx(2.0)

    def test_point_mass(self):
        assert entropy([1, 0, 0]) == pytest.approx(0.0)

    def test_dyadic(self):
        assert entropy([2, 1, 1]) == pytest.approx(1.5)

    def test_scale_invariance(self):
        w = [0.3, 1.2, 0.01, 4.0]
        assert entropy(np.array(w) * 37.5) == pytest.approx(entropy(w))

    def test_permutation_invariance(self):
        w = [0.5, 0.2, 0.3]
        assert entropy(w[::-1]) == pytest.approx(entropy(w))

    def test_uniform_maximizes(self):
        rng = np.random.default_rng(0)
        for n in (2, 5, 9):
            assert entropy(np.ones(n)) == pytest.approx(np.log2(n))
            assert entropy(rng.random(n) + 0.01) <= np.log2(n) + 1e-12

    def test_errors(self):
        with pytest.raises(ValueError, match="all-zero"):
            entropy([0.0, 0.0])
        with pytest.raises(ValueError, match="non-negative"):
            entropy([0.5, -0.1])
        with pytest.raises(ValueError, match="empty"):
            entropy([])


class TestTypeEntropy:
    def test_full_matrix_at_k100(self):
        m = np.full((3, 3), 1.0 / 3)
        assert type_entropy(m, 100) == pytest.approx(np.log2(9))

    def test_topk_keeps_at_least_one(self):
        m = np.full((4, 4), 1.0 / 4)
        assert type_entropy(m, 5) == pytest.approx(0.0)  # floor(0.8) -> 1 element

    def test_topk_subset_size(self):
        m = np.arange(1, 26, dtype=float).reshape(5, 5)
        # floor(20*25/100) = 5 largest entries: 21..25
        top = np.sort(m.reshape(-1))[::-1][:5]
        assert type_entropy(m, 20) == pytest.approx(entropy(top))

    def test_rows_granularity(self):
        m = np.full((4, 4), 1.0 / 4)
        assert type_entropy(m, 100, "rows") == pytest.approx(np.log2(4))
        assert type_entropy(m, 100, "matrix") == pytest.approx(np.log2(16))

    def test_unknown_granularity(self):
        with pytest.raises(ValueError, match="granularity"):
            type_entropy(np.ones((2, 2)), 100, "columns")


class TestSortedOnceEntropy:
    @pytest.mark.parametrize("granularity", ["matrix", "rows"])
    def test_matches_direct_reference(self, granularity):
        rng = np.random.default_rng(0)
        ks = [0.5, 5, 10, 33.3, 100]
        for l in (1, 2, 3, 7, 12):
            m = rng.random((4, l, l)) ** 3
            m[0, 0] = 0.0  # exact zeros inside a kept prefix
            m[0, 0, 0] = 1.0
            got = _topk_entropies(m, ks, granularity)
            assert got.shape == (len(ks), 4)
            for i, k in enumerate(ks):
                for t in range(4):
                    if granularity == "matrix":
                        want = entropy(_top_fraction(m[t], k))
                    else:
                        want = np.mean([entropy(_top_fraction(r, k)) for r in m[t]])
                    assert got[i, t] == pytest.approx(want, rel=1e-12, abs=1e-12)
                    assert type_entropy(m[t], k, granularity) == got[i, t]

    def test_errors(self):
        with pytest.raises(ValueError, match="non-negative"):
            _topk_entropies(-np.ones((1, 2, 2)), [100])
        with pytest.raises(ValueError, match="all-zero"):
            _topk_entropies(np.zeros((1, 2, 2)), [50], "rows")
        with pytest.raises(ValueError, match="granularity"):
            _topk_entropies(np.ones((1, 2, 2)), [100], "columns")

    @pytest.mark.parametrize("k,shown", [(-5, "-5"), (0, "0"), (250, "250"),
                                         (100.5, "100.5"), (float("nan"), "nan")])
    def test_k_outside_percent_range_rejected(self, k, shown):
        with pytest.raises(ValueError, match=rf"\(0, 100\], got {shown}$"):
            _topk_entropies(np.ones((1, 2, 2)), [50, k])


class TestBundle:
    def test_partition_enforced(self):
        with pytest.raises(ValueError, match="overlap"):
            AttentionBundle(
                tokens=["a"], matrices={"city": np.ones((1, 1))},
                positive_types=frozenset({"city"}), negative_types=frozenset({"city"}),
            )

    def test_missing_matrix_rejected(self):
        with pytest.raises(ValueError, match="without attention"):
            AttentionBundle(
                tokens=["a"], matrices={},
                positive_types=frozenset({"city"}), negative_types=frozenset(),
            )

    def test_row_sums_validated(self):
        with pytest.raises(ValueError, match="sum to 1"):
            AttentionBundle(
                tokens=["a", "b"], matrices={"city": np.ones((2, 2))},
                positive_types=frozenset({"city"}), negative_types=frozenset(),
            )

    @pytest.mark.parametrize("dtype,drift,ok", [
        (np.float16, 2.0 ** -11, True),
        (np.float16, 0.1, False),
        (np.float32, 5e-7, True),
        (np.float32, 5e-6, False),
        (np.float64, 5e-6, False),
    ])
    def test_row_sum_bound_follows_the_dtype_the_maps_came_in(self, dtype, drift, ok):
        """float16 maps are held to float16's eps, read before the bundle's
        float64 copy; float32 and float64 maps to ROW_SUM_TOLERANCE."""
        m = np.array([[0.5, 0.5 + drift], [0.5, 0.5]], dtype=dtype)
        assert abs(float(m[0].sum(dtype=np.float64)) - 1 - drift) < drift / 10

        def build():
            return AttentionBundle(tokens=["a", "b"], matrices={"city": m},
                                   positive_types=frozenset({"city"}),
                                   negative_types=frozenset())

        if ok:
            assert build().matrices["city"].tolist() == m.tolist()
        else:
            with pytest.raises(ValueError, match="^city attention rows do not sum to 1$"):
                build()

    @pytest.mark.parametrize("m,message", [
        (np.full((2, 2), np.nan), "city attention rows do not sum to 1"),
        (np.array([[1.5, -0.5], [0.5, 0.5]]), "city attention has negative weights"),
    ], ids=["nan", "negative"])
    def test_non_finite_and_negative_weights_rejected(self, m, message):
        with pytest.raises(ValueError, match=message):
            AttentionBundle(
                tokens=["a", "b"], matrices={"day": np.eye(2), "city": m},
                positive_types=frozenset({"city"}), negative_types=frozenset(),
            )

    def test_keeps_its_own_copy(self):
        source = np.full((2, 3, 3), 0.5)
        source[:, :2, :2] = np.eye(2)
        b = AttentionBundle(
            tokens=["a", "b"], matrices=dict(zip(("city", "day"), source[:, :2, :2])),
            positive_types=frozenset({"city"}), negative_types=frozenset({"day"}),
        )
        source[:] = 0.0
        for m in b.matrices.values():
            np.testing.assert_array_equal(m, np.eye(2))

    @pytest.mark.parametrize("lengths,cuts", [([4], 1), ([2, 5, 3, 5], 3)])
    def test_extraction_checks_each_cut_once(self, monkeypatch, lengths, cuts):
        """The bundles are built from the checked cuts: no map is checked a
        second time."""
        model, corpus, maps, vocab = small_setting()
        checked = []
        real_check = explain_module._check_attention

        def counting_check(block, *args):
            checked.append(block.shape)
            return real_check(block, *args)

        monkeypatch.setattr(explain_module, "_check_attention", counting_check)
        utterances = mixed_utterances(len(lengths), lengths=lengths)
        if len(utterances) == 1:
            extract_attentions(model, utterances[0], maps, vocab)
        else:
            extract_attention_bundles(model, utterances, maps, vocab)
        assert len(checked) == cuts
        assert sorted(shape[-1] for shape in checked) == sorted(set(lengths))

    def test_extracted_bundle_equals_the_checked_public_one(self):
        model, corpus, maps, vocab = small_setting()
        for b in extract_attention_bundles(model, corpus, maps, vocab, include_outside=True):
            public = AttentionBundle(list(b.tokens), dict(b.matrices), b.positive_types,
                                     b.negative_types)
            assert (public.tokens, public.positive_types, public.negative_types) == (
                b.tokens, b.positive_types, b.negative_types)
            assert list(public.matrices) == list(b.matrices) == maps.slot_types
            for kind, m in b.matrices.items():
                assert m.dtype == np.float64
                assert m.tobytes() == public.matrices[kind].tobytes()

    @pytest.mark.parametrize("poison,message", [
        (lambda m: np.full_like(m, np.nan), "rows do not sum to 1"),
        # 1.5 moves from each diagonal cell to its right neighbour: sums hold
        (lambda m: m + 1.5 * (np.roll(np.eye(len(m)), 1, axis=1) - np.eye(len(m))),
         "has negative weights"),
        (lambda m: m * (1 + 1e-5), "rows do not sum to 1"),
    ], ids=["nan", "negative", "drift"])
    def test_public_bundle_still_checks_extracted_maps(self, poison, message):
        """Only the extraction's own cuts skip the second check: the public
        constructor refuses a poisoned copy of an extracted map."""
        model, corpus, maps, vocab = small_setting()
        b = extract_attentions(model, corpus[0], maps, vocab)
        matrices = dict(b.matrices)
        matrices["city"] = poison(matrices["city"])
        with pytest.raises(ValueError, match=f"^city attention {message}$"):
            AttentionBundle(b.tokens, matrices, b.positive_types, b.negative_types)

    def test_extraction_partitions_types(self):
        model, corpus, maps, vocab = small_setting()
        b = extract_attentions(model, corpus[0], maps, vocab)
        assert b.positive_types == {"city", "day"}
        assert b.negative_types == {"airline", "hotel"}
        assert "O" in b.matrices and "O" not in b.analyzed_types

    def test_include_outside_flag(self):
        model, corpus, maps, vocab = small_setting()
        b = extract_attentions(model, corpus[0], maps, vocab, include_outside=True)
        assert "O" in b.negative_types

    def test_frozen_model_gives_uniform_matrices(self):
        model, corpus, maps, vocab = small_setting(frozen_uniform_type_attention=True)
        b = extract_attentions(model, corpus[0], maps, vocab)
        for m in b.matrices.values():
            np.testing.assert_allclose(m, 1.0 / 4, atol=1e-7)

    def test_extraction_deterministic(self):
        model, corpus, maps, vocab = small_setting()
        a = extract_attentions(model, corpus[0], maps, vocab)
        b = extract_attentions(model, corpus[0], maps, vocab)
        for t in a.matrices:
            np.testing.assert_array_equal(a.matrices[t], b.matrices[t])

    def test_all_outside_utterance_falls_back_to_predictions(self):
        model, corpus, maps, vocab = small_setting()
        b = extract_attentions(model, corpus[1], maps, vocab)
        assert b.positive_types | b.negative_types == {"airline", "city", "day", "hotel"}

    def test_one_forward_per_utterance_and_predict_positives(self, monkeypatch):
        """The fallback reads the extraction pass's own slot logits: one
        inference pass per utterance, and the positive types predict()
        implies."""
        model, corpus, maps, vocab = small_setting()
        model.params["slot.b"].data[maps.bio_index["B-day"]] += 5.0
        outside = [Utterance(["hello", "there"], "greet", ["O", "O"]),
                   Utterance(["fly", "to", "denver", "today"], "book_flight", ["O"] * 4)]
        passes = []
        for u in outside:
            calls = count_passes(monkeypatch)
            bundle = extract_attentions(model, u, maps, vocab)
            monkeypatch.undo()
            passes.append(len(calls))
            _, slots = model.predict(encode_batch([u], maps, vocab))
            predicted = {maps.bio_labels[j][2:] for j in slots[0]} - {""}
            assert bundle.positive_types == predicted
            assert "day" in bundle.positive_types
        assert passes == [1] * len(outside)

    def test_model_length_keeps_long_utterances_whole(self):
        """A model with 61 positions keeps all 55 tokens (no fixed 50 cap)."""
        model, corpus, maps, vocab = small_setting(max_positions=61)
        words = [w for u in corpus for w in u.tokens]
        u = Utterance((words * 7)[:55], "greet", ["O"] * 55)
        bundle = extract_attentions(model, u, maps, vocab, include_outside=True)
        assert bundle.length == 55
        assert all(m.shape == (55, 55) for m in bundle.matrices.values())

    def test_bundle_covers_kept_tokens_only(self):
        model, corpus, maps, vocab = small_setting()  # max_positions=10: 9 tokens
        words = [w for u in corpus for w in u.tokens] * 2
        u = Utterance(words[:11], "greet", ["O"] * 11)
        bundle = extract_attentions(model, u, maps, vocab)
        assert bundle.tokens == words[:9]

    def test_no_aux_network_cannot_extract(self):
        model, corpus, maps, vocab = small_setting(no_aux_network=True)
        with pytest.raises(ValueError, match="without the slot-type attention"):
            extract_attentions(model, corpus[0], maps, vocab)


class TestBatchedExtraction:
    def test_matches_single_utterance_extraction(self):
        model, _, maps, vocab = small_setting()
        utterances = mixed_utterances(20)
        assert {u.length for u in utterances} == set(range(2, 10))
        for include_outside in (False, True):
            batched = extract_attention_bundles(model, utterances, maps, vocab,
                                                include_outside)
            assert len(batched) == len(utterances)
            for u, got in zip(utterances, batched):
                want = extract_attentions(model, u, maps, vocab, include_outside)
                assert got.tokens == want.tokens
                assert set(got.matrices) == set(want.matrices)
                for t in want.matrices:
                    np.testing.assert_allclose(got.matrices[t], want.matrices[t],
                                               atol=1e-6)
                if any(tag != "O" for tag in u.bio_tags):
                    assert got.positive_types == want.positive_types
                    assert got.negative_types == want.negative_types

    def test_length_groups_keep_the_callers_order(self):
        """Lengths 2-47 run in several length groups: each bundle sits at its
        utterance's index and matches that utterance's solo run."""
        model, _, maps, vocab = small_setting(max_positions=48)
        utterances = mixed_utterances(70, seed=2, lengths=[*range(2, 48, 3), 47])
        batched = extract_attention_bundles(model, utterances, maps, vocab)
        assert len(batched) == len(utterances)
        for u, got in zip(utterances, batched):
            want = extract_attentions(model, u, maps, vocab)
            assert got.tokens == want.tokens == u.tokens
            for t in want.matrices:
                assert got.matrices[t].dtype == np.float64
                np.testing.assert_allclose(got.matrices[t], want.matrices[t], atol=1e-6)
            assert got.positive_types == want.positive_types
            assert got.negative_types == want.negative_types

    def test_type_matrices_share_one_copy(self):
        model, corpus, maps, vocab = small_setting()
        for b in extract_attention_bundles(model, corpus, maps, vocab):
            # views of one (T, n, n) block, not of the whole batch's array
            bases = [m.base for m in b.matrices.values()]
            assert all(base is bases[0] for base in bases)
            assert bases[0].shape == (maps.n_slot_types, b.length, b.length)

    def test_empty_list_gives_no_bundles(self):
        model, _, maps, vocab = small_setting()
        assert extract_attention_bundles(model, [], maps, vocab) == []

    @pytest.mark.parametrize("n,forwards", [(25, 1), (32, 1), (40, 1)])
    def test_analysis_runs_one_forward_per_chunk(self, monkeypatch, n, forwards):
        """Five-token utterances, max_len 9: a pass takes 32 * 9 // 5 = 57."""
        model, _, maps, vocab = small_setting()
        calls = count_passes(monkeypatch)
        report = topk_entropy_analysis(model, mixed_utterances(n, lengths=[5]), [5, 100],
                                       maps, vocab)
        assert report.n_utterances == n
        assert len(calls) == forwards

    def test_max_len_utterances_run_extract_chunk_per_pass(self, monkeypatch):
        """At the model's max_len a pass holds EXTRACT_CHUNK utterances, so 40
        take two passes; one shorter utterance does not lift the limit."""
        model, _, maps, vocab = small_setting()
        max_len = model.config.max_len
        utterances = mixed_utterances(40, lengths=[max_len]) + mixed_utterances(1, lengths=[2])
        calls = count_passes(monkeypatch)
        report = topk_entropy_analysis(model, utterances, [5, 100], maps, vocab)
        assert report.n_utterances == 41
        assert len(calls) == 2 and max(calls) <= EXTRACT_CHUNK and sum(calls) == 41

    def test_short_utterances_fill_a_pass_with_token_rows_of_extract_chunk(
            self, monkeypatch):
        """600 distinct 3-token utterances at max_len 50 run in passes of at
        most EXTRACT_CHUNK * 50 token positions, not in one 600-row pass."""
        model, _, maps, vocab = small_setting(max_positions=51)
        utterances = [Utterance(list(f"{i:03d}"), "book_flight", ["O"] * 3) for i in range(600)]
        shapes = []
        real_infer = model_module.infer

        def spy(batch, *args, **kwargs):
            shapes.append(batch.token_ids.shape)
            return real_infer(batch, *args, **kwargs)

        monkeypatch.setattr(model_module, "infer", spy)
        report = topk_entropy_analysis(model, utterances, [5, 100], maps, vocab)
        assert report.n_utterances == 600
        assert len(shapes) == 2 and sum(b for b, _ in shapes) == 600
        assert all(b * l <= EXTRACT_CHUNK * 50 for b, l in shapes)

    def test_analyses_encode_their_utterances_once(self, monkeypatch):
        """Bimodal lengths run several passes, all rows of one encoded
        batch of the distinct utterances."""
        model, _, maps, vocab = small_setting(max_positions=48)
        utterances = mixed_utterances(25, lengths=[2, 40, 3, 33, 4, 47, 36])
        pairs = [(u, Utterance(["denver"] * u.length, u.intent, u.bio_tags), "slot")
                 for u in utterances]
        calls, passes = [], count_passes(monkeypatch)
        real = explain_module.encode_batch

        def counting(batch_utterances, *args, **kwargs):
            calls.append(len(batch_utterances))
            return real(batch_utterances, *args, **kwargs)

        monkeypatch.setattr(explain_module, "encode_batch", counting)
        topk_entropy_analysis(model, utterances, [5, 100], maps, vocab)
        assert calls == [25] and len(passes) > 1
        consistency_analysis(model, pairs, maps, vocab)
        assert len(calls) == 2 and len(passes) > 3

    def test_desk_length_consistency_chunk_runs_one_pass(self, monkeypatch):
        """33-38 distinct utterances of lengths 6-13, as a 25-pair chunk of
        the desk corpus holds, run as one pass where 32 per pass took two."""
        model, _, maps, vocab = small_setting(max_positions=51)
        for n in range(33, 39):
            utterances = mixed_utterances(n, seed=n, lengths=range(6, 14))
            calls = count_passes(monkeypatch)
            report = topk_entropy_analysis(model, utterances, [5, 100], maps, vocab)
            assert report.n_utterances == n
            assert calls == [n]
            monkeypatch.undo()

    def test_bimodal_lengths_run_two_passes(self, monkeypatch):
        """25 utterances of lengths 2-4 and 33-47 run as two passes, one
        per mode, instead of padding the short ones to 47."""
        model, _, maps, vocab = small_setting(max_positions=48)
        utterances = mixed_utterances(25, lengths=[2, 40, 3, 33, 4, 47, 36])
        calls = count_passes(monkeypatch)
        report = topk_entropy_analysis(model, utterances, [5, 100], maps, vocab)
        assert report.n_utterances == 25
        assert sorted(calls) == [11, 14]

    def test_consistency_runs_one_pass_for_both_sides(self, monkeypatch):
        model, _, maps, vocab = small_setting()
        originals = mixed_utterances(10, seed=1, lengths=[6])
        pairs = [(u, Utterance(["denver"] + u.tokens[1:], u.intent, u.bio_tags), "slot")
                 for u in originals]
        calls = count_passes(monkeypatch)
        report = consistency_analysis(model, pairs, maps, vocab)
        assert calls == [20]
        assert len(report.pairs) == 10
        monkeypatch.undo()
        for score, (orig, mod, _) in zip(report.pairs, pairs):
            ba = extract_attentions(model, orig, maps, vocab)
            bb = extract_attentions(model, mod, maps, vocab)
            types = sorted(ba.positive_types) or sorted(ba.analyzed_types)
            want = np.mean([compare_attention_consistency(ba, bb, t) for t in types])
            assert score.score == pytest.approx(want, abs=1e-6)

    def test_consistency_reads_both_sides_across_passes(self, monkeypatch):
        """With one utterance per pass, every pair's two sides come from
        different passes, and the scores are still the per-pair ones."""
        monkeypatch.setattr(explain_module, "EXTRACT_CHUNK", 1)
        model, _, maps, vocab = small_setting()
        originals = mixed_utterances(12, seed=8, lengths=range(6, 10))
        pairs = [(u, Utterance(["denver"] + u.tokens[1:], u.intent, u.bio_tags), "slot")
                 for u in originals]
        distinct = {(tuple(u.tokens), tuple(u.bio_tags)) for p in pairs for u in p[:2]}
        calls = count_passes(monkeypatch)
        report = consistency_analysis(model, pairs, maps, vocab)
        assert calls == [1] * len(distinct) and len(distinct) > len(pairs)
        for score, (orig, mod, _) in zip(report.pairs, pairs):
            ba = extract_attentions(model, orig, maps, vocab)
            bb = extract_attentions(model, mod, maps, vocab)
            types = sorted(ba.positive_types) or sorted(ba.analyzed_types)
            want = np.mean([compare_attention_consistency(ba, bb, t) for t in types])
            assert score.score == pytest.approx(want, abs=1e-12)

    def test_pair_differing_only_past_max_len_is_scored_on_kept_tokens(self):
        """Sides of 11 and 12 tokens that agree on their first max_len (9)
        are one kept utterance: the pair is not refused and scores 1."""
        model, _, maps, vocab = small_setting()
        max_len = model.config.max_len
        head = ["fly", "to", "boston", "today", "in", "denver", "rain", "to", "boston"]
        tags = ["O", "O", "B-city", "B-day", "O", "B-city", "O", "O", "B-city"]
        assert len(head) == max_len == 9
        orig = Utterance(head + ["today", "rain"], "book_flight", tags + ["B-day", "O"])
        mod = Utterance(head + ["hello", "there", "x"], "book_flight", tags + ["O"] * 3)
        report = consistency_analysis(model, [(orig, mod, "tail")], maps, vocab)
        assert report.pairs[0].score == pytest.approx(1.0)
        bundle = extract_attentions(model, orig, maps, vocab)
        assert bundle.tokens == head
        want = np.mean([compare_attention_consistency(bundle, bundle, t)
                        for t in sorted(bundle.positive_types)])
        assert report.pairs[0].score == want

    def test_equal_utterances_run_once_and_share_a_bundle(self, monkeypatch):
        """Equal kept tokens and tags make one row, whatever the intent."""
        model, corpus, maps, vocab = small_setting()
        same = Utterance(corpus[0].tokens, "get_weather", corpus[0].bio_tags)
        retagged = Utterance(corpus[0].tokens, "book_flight", ["O"] * 4)
        calls = count_passes(monkeypatch)
        bundles = extract_attention_bundles(
            model, [corpus[0], corpus[1], same, retagged, corpus[0]], maps, vocab)
        assert calls == [3]
        assert bundles[0] is bundles[2] is bundles[4]
        assert bundles[3] is not bundles[0]

    def test_modification_pairs_run_each_distinct_utterance_once(self, monkeypatch):
        model, pairs, maps, vocab = synthetic_pairs_setting()
        max_len = model.config.max_positions - 1
        distinct = {(tuple(u.tokens[:max_len]), tuple(u.bio_tags[:max_len]))
                    for p in pairs for u in p[:2]}
        assert len(distinct) < 2 * len(pairs)  # originals recur across categories
        calls = count_passes(monkeypatch)
        report = consistency_analysis(model, pairs, maps, vocab)
        assert sum(calls) == len(distinct)
        assert [(p.pair_id, p.category) for p in report.pairs] == [
            (i, c) for i, (_, _, c) in enumerate(pairs)]

    def test_consistency_matches_per_pair_reference(self, monkeypatch):
        """Bimodal lengths split a group, the all-O originals fall back to
        every analyzed type, and the modified sides recur."""
        model, _, maps, vocab = small_setting(max_positions=48)
        model.params["slot.b"].data[maps.bio_index["O"]] += 50.0  # predict all O
        originals = mixed_utterances(25, lengths=[2, 40, 3, 33, 4, 47, 36])
        pairs = [(u, Utterance(["denver"] * u.length, u.intent, u.bio_tags), c)
                 for u in originals for c in ("slot", "context")]
        calls = count_passes(monkeypatch)
        report = consistency_analysis(model, pairs, maps, vocab)
        assert len(calls) > 1 and sum(calls) < 2 * len(pairs)
        monkeypatch.undo()
        fallbacks = 0
        for score, (orig, mod, category) in zip(report.pairs, pairs):
            ba = extract_attentions(model, orig, maps, vocab)
            bb = extract_attentions(model, mod, maps, vocab)
            types = sorted(ba.positive_types) or sorted(ba.analyzed_types)
            fallbacks += not ba.positive_types
            want = np.mean([compare_attention_consistency(ba, bb, t) for t in types])
            assert score.category == category
            assert score.score == pytest.approx(want, abs=1e-6)
        assert fallbacks > 0

    def test_repeated_corpus_matches_one_extraction_per_utterance(self, monkeypatch):
        model, _, maps, vocab = small_setting(max_positions=48)
        corpus = mixed_utterances(20, seed=4, lengths=[2, 40, 3, 33, 4, 47, 36])
        calls = count_passes(monkeypatch)
        report = topk_entropy_analysis(model, corpus + corpus, [5, 50, 100], maps, vocab)
        assert sum(calls) == len(corpus)
        monkeypatch.undo()
        want = entropy_report_from_bundles(
            [extract_attentions(model, u, maps, vocab) for u in corpus], [5, 50, 100])
        assert report.n_utterances == 2 * len(corpus)
        for got, ref in zip(report.rows, want.rows):
            assert got.k == ref.k
            assert got.pos_entropy == pytest.approx(ref.pos_entropy, abs=1e-6)
            assert got.neg_entropy == pytest.approx(ref.neg_entropy, abs=1e-6)

    def test_no_pairs_run_no_pass(self, monkeypatch):
        model, _, maps, vocab = small_setting()
        calls = count_passes(monkeypatch)
        assert consistency_analysis(model, [], maps, vocab).pairs == []
        assert calls == []

    def test_pair_of_unequal_lengths_is_refused_before_any_pass(self, monkeypatch):
        model, corpus, maps, vocab = small_setting()
        longer = Utterance(corpus[0].tokens + ["today"], corpus[0].intent,
                           corpus[0].bio_tags + ["O"])
        calls = count_passes(monkeypatch)
        with pytest.raises(ValueError, match="^pair 1: lengths differ \\(4 vs 5\\); a "
                           "modification pair must keep the token count$"):
            consistency_analysis(model, [(corpus[1], corpus[1], "same"), (corpus[0], longer,
                                                                          "slot")], maps, vocab)
        assert calls == []

    def test_maps_without_slot_types_are_refused_before_any_pass(self, monkeypatch):
        model, corpus, maps, vocab = outside_only_setting()
        calls = count_passes(monkeypatch)
        with pytest.raises(ValueError, match="^no slot types to compare$"):
            consistency_analysis(model, [(corpus[0], corpus[0], "same")], maps, vocab)
        assert calls == []
        assert consistency_analysis(model, [], maps, vocab).pairs == []

    def test_pair_of_unequal_lengths_needs_alignment(self):
        model, corpus, maps, vocab = small_setting()
        longer = Utterance(corpus[0].tokens + ["today"], corpus[0].intent,
                           corpus[0].bio_tags + ["O"])
        with pytest.raises(ValueError, match="pair 0: lengths differ \\(4 vs 5\\); a modification "
                           "pair must keep the token count"):
            consistency_analysis(model, [(corpus[0], longer, "slot")], maps, vocab)


def long_corpus():
    """Lengths 2-47 with repeats: every third utterance is all-O (the
    predicted-tag fallback), and the last ten recur."""
    utterances = mixed_utterances(60, seed=6, lengths=[*range(2, 48, 3), 47, 5, 5, 9])
    return utterances + utterances[-10:]


def per_utterance_means(bundle, k_list, granularity):
    """One bundle's positive and negative mean entropies (None for an
    empty group) from one top-k call over its sorted positive then sorted
    negative types."""
    pos, neg = sorted(bundle.positive_types), sorted(bundle.negative_types)
    h = _topk_entropies(np.stack([bundle.matrices[t] for t in pos + neg]), k_list,
                        granularity)
    return (h[:, : len(pos)].mean(axis=1) if pos else None,
            h[:, len(pos) :].mean(axis=1) if neg else None)


def per_utterance_entropy_reference(bundles, k_list, granularity):
    """The per-bundle loop: the means of :func:`per_utterance_means`, then
    a mean over utterances."""
    means = [per_utterance_means(b, k_list, granularity) for b in bundles
             if b.analyzed_types]
    return (np.mean([p for p, _ in means if p is not None], axis=0),
            np.mean([n for _, n in means if n is not None], axis=0))


def per_pair_consistency_reference(bundles_a, bundles_b):
    """Each pair's mean row cosine over the original's sorted positive
    types (all analyzed types when it has none), one pair at a time."""
    scores = []
    for ba, bb in zip(bundles_a, bundles_b):
        types = sorted(ba.positive_types) or sorted(ba.analyzed_types)
        x, y = (np.stack([b.matrices[t] for t in types]) for b in (ba, bb))
        scores.append(float(_row_cosines(x, y).mean()))
    return scores


class TestScoringFromBatches:
    K_LIST = [5, 10, 50, 100]

    @pytest.mark.parametrize("granularity", ["matrix", "rows"])
    @pytest.mark.parametrize("include_outside", [False, True])
    def test_analysis_equals_report_from_bundles(self, granularity, include_outside):
        model, _, maps, vocab = small_setting(max_positions=48)
        corpus = long_corpus()
        got = topk_entropy_analysis(model, corpus, self.K_LIST, maps, vocab,
                                    granularity, include_outside)
        bundles = extract_attention_bundles(model, corpus, maps, vocab, include_outside)
        assert any(not any(t != "O" for t in u.bio_tags) for u in corpus)
        want = entropy_report_from_bundles(bundles, self.K_LIST, granularity)
        assert got == want  # every row, exactly
        pos, neg = per_utterance_entropy_reference(bundles, self.K_LIST, granularity)
        assert [r.pos_entropy for r in got.rows] == pos.tolist()
        assert [r.neg_entropy for r in got.rows] == neg.tolist()

    @pytest.mark.parametrize("extra_types", [(), ("meal", "seat", "time", "x", "y", "z")])
    def test_consistency_equals_per_pair_reference(self, extra_types):
        """With ten types, an all-O original is scored over ten maps, where
        numpy's pairwise sum no longer adds in order."""
        model, _, maps, vocab = small_setting(extra_types, max_positions=48)
        model.params["slot.b"].data[maps.bio_index["O"]] += 50.0  # predict all O
        originals = long_corpus()
        modified = [Utterance(["denver"] + u.tokens[1:], u.intent, u.bio_tags)
                    for u in originals]
        pairs = [(a, b, c) for a, b in zip(originals, modified) for c in ("slot", "ctx")]
        pairs.append((originals[3], originals[3], "self"))
        report = consistency_analysis(model, pairs, maps, vocab)
        bundles = extract_attention_bundles(
            model, [p[0] for p in pairs] + [p[1] for p in pairs], maps, vocab)
        assert sum(not b.positive_types for b in bundles[: len(pairs)]) > 10
        want = per_pair_consistency_reference(bundles[: len(pairs)], bundles[len(pairs) :])
        assert [p.score for p in report.pairs] == want  # exactly
        assert report.pairs[-1].score == pytest.approx(1.0)

    def test_float64_model_is_scored_from_unrounded_maps(self):
        """A float64 model's maps reach the cosines as they are: a float32
        stack would move the scores away from the float64 bundles'."""
        small, _, maps, vocab = small_setting(max_positions=48)
        model = JointModel(small.config, rng=np.random.default_rng(0), dtype=np.float64)
        originals = long_corpus()
        pairs = [(u, Utterance(["denver"] + u.tokens[1:], u.intent, u.bio_tags), "slot")
                 for u in originals]
        report = consistency_analysis(model, pairs, maps, vocab)
        bundles = extract_attention_bundles(
            model, [p[0] for p in pairs] + [p[1] for p in pairs], maps, vocab)
        want = per_pair_consistency_reference(bundles[: len(pairs)], bundles[len(pairs) :])
        assert [p.score for p in report.pairs] == want  # exactly

    @pytest.mark.parametrize("granularity", ["matrix", "rows"])
    def test_length_stacked_means_match_per_utterance_loop(self, granularity):
        """Bundles of mixed lengths and type sets, with groups of up to ten
        types (where numpy's pairwise sum no longer adds in order): each
        utterance's means from one stack per length equal its own, bit
        for bit."""
        rng = np.random.default_rng(3)
        types = ["airline", "city", "day", "hotel", "meal", "seat", "time", "x", "y", "z"]
        bundles = []
        for _ in range(60):
            l = int(rng.integers(1, 5))
            m = rng.random((len(types), l, l))
            n_pos = int(rng.integers(0, 4))
            n_neg = int(rng.integers(0 if n_pos else 1, len(types) - n_pos + 1))
            n_neg = max(n_neg, 8) if n_pos < 3 and rng.random() < 0.5 else n_neg
            picked = [str(t) for t in rng.permutation(types)[: n_pos + n_neg]]
            bundles.append(AttentionBundle(
                tokens=["w"] * l, matrices=dict(zip(types, m / m.sum(-1, keepdims=True))),
                positive_types=frozenset(picked[:n_pos]),
                negative_types=frozenset(picked[n_pos:])))
        for l in range(1, 5):
            group = [b for b in bundles if b.length == l]
            stack = np.stack([b.matrices[t] for b in group for t in
                              sorted(b.positive_types) + sorted(b.negative_types)])
            n_pos = np.array([len(b.positive_types) for b in group])
            n_neg = np.array([len(b.negative_types) for b in group])
            assert len(group) > 1 and n_neg.max() >= 8
            pos, neg = _entropy_means(stack, n_pos, n_neg, self.K_LIST, granularity)
            missing = np.full(len(self.K_LIST), np.nan)
            for b, p, q in zip(group, pos, neg):
                want_p, want_q = per_utterance_means(b, self.K_LIST, granularity)
                np.testing.assert_array_equal(p, missing if want_p is None else want_p)
                np.testing.assert_array_equal(q, missing if want_q is None else want_q)
        bundles.append(uniform_bundle(positive=(), types=()))
        report = entropy_report_from_bundles(bundles, self.K_LIST, granularity)
        pos, neg = per_utterance_entropy_reference(bundles, self.K_LIST, granularity)
        assert [r.pos_entropy for r in report.rows] == pos.tolist()
        assert [r.neg_entropy for r in report.rows] == neg.tolist()
        assert report.n_utterances == len(bundles)


def corrupting(monkeypatch, model, maps, kind, how):
    """Make ``model.infer`` return maps in which query row 0 of ``kind``
    is damaged for every utterance of the pass."""
    real_infer = model.infer
    t = maps.slot_type_index[kind]

    def infer(batch):
        intent, aux, attention, slot = real_infer(batch)
        attention = attention.copy()
        if how in ("bad row", "row off by 0.1"):
            attention[:, t, 0, 0] += 0.5 if how == "bad row" else 0.1
        elif how == "negative weight":
            attention[:, t, 0, :] = 0.0
            attention[:, t, 0, :2] = (1.5, -0.5)
        else:
            attention[:, t, 0, 0] = np.nan
        return intent, aux, attention, slot

    monkeypatch.setattr(model, "infer", infer)


class TestDamagedAttention:
    @pytest.mark.parametrize("how,message", [
        ("bad row", "city attention rows do not sum to 1"),
        ("negative weight", "city attention has negative weights"),
        ("nan", "city attention rows do not sum to 1"),
    ])
    @pytest.mark.parametrize("kind", ["city", "O"])
    def test_every_analysis_raises_naming_the_type(self, monkeypatch, how, message, kind):
        """A damaged map fails each path with the same error, also for a
        type ("O") that the analysis does not score."""
        model, _, maps, vocab = small_setting(max_positions=48)
        corpus = long_corpus()
        pairs = [(u, u, "self") for u in corpus]
        corrupting(monkeypatch, model, maps, kind, how)
        message = message.replace("city", kind)
        for run in (
            lambda: topk_entropy_analysis(model, corpus, [5, 100], maps, vocab),
            lambda: topk_entropy_analysis(model, corpus, [5, 100], maps, vocab, "rows", True),
            lambda: consistency_analysis(model, pairs, maps, vocab),
            lambda: extract_attention_bundles(model, corpus, maps, vocab),
        ):
            with pytest.raises(ValueError, match=f"^{message}$"):
                run()

    def test_first_failing_type_in_slot_type_order(self, monkeypatch):
        model, _, maps, vocab = small_setting()
        corrupting(monkeypatch, model, maps, "hotel", "negative weight")
        real_infer = model.infer

        def infer(batch):  # a second, earlier type fails its rows
            intent, aux, attention, slot = real_infer(batch)
            attention[-1, maps.slot_type_index["day"], 0, 0] += 0.5
            return intent, aux, attention, slot

        monkeypatch.setattr(model, "infer", infer)
        assert maps.slot_types.index("day") < maps.slot_types.index("hotel")
        with pytest.raises(ValueError, match="^day attention rows do not sum to 1$"):
            topk_entropy_analysis(model, mixed_utterances(8, lengths=[4]), [100], maps, vocab)


class TestFloat16Model:
    """A float16 model's rows drift from 1 by more than ROW_SUM_TOLERANCE
    but less than float16's eps, which is the bound they are held to."""

    K_LIST = [5, 10, 100]

    @staticmethod
    def setting():
        small, _, maps, vocab = small_setting(max_positions=48)
        model = JointModel(small.config, rng=np.random.default_rng(0), dtype=np.float16)
        return model, long_corpus(), maps, vocab

    def test_every_analysis_runs(self):
        model, corpus, maps, vocab = self.setting()
        bundles = extract_attention_bundles(model, corpus, maps, vocab)
        drift = max(np.abs(m.sum(axis=-1) - 1).max() for b in bundles
                    for m in b.matrices.values())
        assert explain_module.ROW_SUM_TOLERANCE < drift < np.finfo(np.float16).eps
        report = topk_entropy_analysis(model, corpus, self.K_LIST, maps, vocab)
        assert report == entropy_report_from_bundles(bundles, self.K_LIST)
        pairs = [(u, Utterance(["denver"] + u.tokens[1:], u.intent, u.bio_tags), "slot")
                 for u in corpus]
        scores = consistency_analysis(model, pairs, maps, vocab)
        sides = extract_attention_bundles(
            model, [p[0] for p in pairs] + [p[1] for p in pairs], maps, vocab)
        want = per_pair_consistency_reference(sides[: len(pairs)], sides[len(pairs) :])
        assert [p.score for p in scores.pairs] == want  # exactly
        bundle = extract_attentions(model, corpus[5], maps, vocab, include_outside=True)
        assert set(bundle.matrices) == set(maps.slot_types)
        assert all(m.dtype == np.float64 for m in bundle.matrices.values())

    @pytest.mark.parametrize("how,message", [
        ("row off by 0.1", "city attention rows do not sum to 1"),
        ("negative weight", "city attention has negative weights"),
        ("nan", "city attention rows do not sum to 1"),
    ])
    def test_damaged_maps_are_still_refused(self, monkeypatch, how, message):
        model, corpus, maps, vocab = self.setting()
        pairs = [(u, u, "self") for u in corpus]
        corrupting(monkeypatch, model, maps, "city", how)
        for run in (
            lambda: topk_entropy_analysis(model, corpus, self.K_LIST, maps, vocab),
            lambda: consistency_analysis(model, pairs, maps, vocab),
            lambda: extract_attention_bundles(model, corpus, maps, vocab),
        ):
            with pytest.raises(ValueError, match=f"^{message}$"):
                run()


class TestEntropyReport:
    def test_frozen_uniform_null_case(self):
        bundles = [uniform_bundle(l) for l in (3, 4, 5)]
        report = entropy_report_from_bundles(bundles, [5, 10, 100])
        assert len(report.rows) == 3
        for row in report.rows:
            assert abs(row.diff) <= 1e-12
        k100 = report.rows[-1]
        want = np.mean([np.log2(l * l) for l in (3, 4, 5)])
        assert k100.pos_entropy == pytest.approx(want)

    def test_pointmass_positive_beats_uniform_negative(self):
        l = 4
        b = AttentionBundle(
            tokens=["w"] * l,
            matrices={"city": point_mass_matrix(l), "day": np.full((l, l), 1 / l)},
            positive_types=frozenset({"city"}),
            negative_types=frozenset({"day"}),
        )
        by_rows = entropy_report_from_bundles([b], [100], granularity="rows").rows[0]
        assert by_rows.pos_entropy == pytest.approx(0.0)
        assert by_rows.neg_entropy == pytest.approx(np.log2(l))
        flat = entropy_report_from_bundles([b], [100]).rows[0]
        assert flat.pos_entropy == pytest.approx(np.log2(l))  # l aligned point masses
        assert flat.neg_entropy == pytest.approx(np.log2(l * l))
        assert by_rows.diff > 0 and flat.diff > 0

    def test_no_positive_types_anywhere_errors(self):
        bundles = [uniform_bundle(positive=())]
        with pytest.raises(ValueError, match="no positive slot types"):
            entropy_report_from_bundles(bundles, [100])

    def test_empty_corpus_errors(self):
        with pytest.raises(ValueError, match="no utterances"):
            entropy_report_from_bundles([], [100])

    @pytest.mark.parametrize("include_outside", [False, True])
    def test_maps_without_slot_types_are_refused_before_any_pass(self, monkeypatch,
                                                                 include_outside):
        """Label maps holding only "O" leave no type that can be positive,
        whatever the model's maps look like."""
        model, corpus, maps, vocab = outside_only_setting()
        calls = count_passes(monkeypatch)
        with pytest.raises(ValueError, match="^no positive slot types anywhere in the corpus$"):
            topk_entropy_analysis(model, corpus, [100], maps, vocab,
                                  include_outside=include_outside)
        assert calls == []

    def test_model_level_analysis_row_structure(self):
        model, corpus, maps, vocab = small_setting()
        report = topk_entropy_analysis(model, corpus, [5, 10, 100], maps, vocab)
        assert [r.k for r in report.rows] == [5, 10, 100]
        assert report.n_utterances == len(corpus)
        for row in report.rows:
            assert row.diff == pytest.approx(row.neg_entropy - row.pos_entropy)

    def test_tsv_shape(self):
        report = entropy_report_from_bundles([uniform_bundle()], [10, 100])
        lines = report.to_tsv().strip().split("\n")
        assert lines[0] == "k\tpos_entropy\tneg_entropy\tdiff"
        assert len(lines) == 3
        k, pos, neg, diff = lines[1].split("\t")
        assert float(neg) - float(pos) == pytest.approx(float(diff))


class TestConsistency:
    def test_reflexive(self):
        b = uniform_bundle()
        assert compare_attention_consistency(b, b, "city") == 1.0

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        def rand_bundle():
            m = rng.random((4, 4)) + 0.1
            m /= m.sum(-1, keepdims=True)
            return AttentionBundle(
                tokens=["w"] * 4, matrices={"city": m},
                positive_types=frozenset({"city"}), negative_types=frozenset(),
            )
        a, b = rand_bundle(), rand_bundle()
        assert compare_attention_consistency(a, b, "city") == pytest.approx(
            compare_attention_consistency(b, a, "city")
        )

    def test_disjoint_point_masses_score_zero(self):
        l = 4
        a = AttentionBundle(["w"] * l, {"city": point_mass_matrix(l, 0)},
                            frozenset({"city"}), frozenset())
        b = AttentionBundle(["w"] * l, {"city": point_mass_matrix(l, 1)},
                            frozenset({"city"}), frozenset())
        assert compare_attention_consistency(a, b, "city") == 0.0

    def test_uniform_vs_point_mass(self):
        l = 4
        a = uniform_bundle(l, types=("city",), positive=("city",))
        b = AttentionBundle(["w"] * l, {"city": point_mass_matrix(l, 0)},
                            frozenset({"city"}), frozenset())
        assert compare_attention_consistency(a, b, "city") == pytest.approx(1 / np.sqrt(l))

    def test_missing_type_errors(self):
        b = uniform_bundle(types=("city",), positive=("city",))
        with pytest.raises(ValueError, match="day"):
            compare_attention_consistency(b, b, "day")

    def test_length_mismatch_needs_alignment(self):
        a = uniform_bundle(3, types=("city",), positive=("city",))
        b = uniform_bundle(4, types=("city",), positive=("city",))
        with pytest.raises(ValueError, match="alignment"):
            compare_attention_consistency(a, b, "city")
        score = compare_attention_consistency(a, b, "city", alignment=[(0, 0), (2, 3)])
        assert 0.0 <= score <= 1.0

    @pytest.mark.parametrize("alignment,message", [
        ([], "empty alignment"),
        ([(0, 0), (-1, 0)], "\\(-1, 0\\) is outside lengths \\(3, 3\\)"),
        ([(1, 3)], "\\(1, 3\\) is outside lengths \\(3, 3\\)"),
        ([(3, 0), (0, 0)], "\\(3, 0\\) is outside"),
    ], ids=["empty", "negative", "past-b", "past-a"])
    def test_bad_alignment_rejected(self, alignment, message):
        b = uniform_bundle(3, types=("city",), positive=("city",))
        with pytest.raises(ValueError, match=message):
            compare_attention_consistency(b, b, "city", alignment)

    @staticmethod
    def row_reference(a, b, alignment):
        """Per-row loop: cosine of aligned rows over aligned columns."""
        cols_a = [i for i, _ in alignment]
        cols_b = [j for _, j in alignment]
        sims = []
        for i, j in alignment:
            x, y = a[i, cols_a], b[j, cols_b]
            denom = np.linalg.norm(x) * np.linalg.norm(y)
            sims.append(float(x @ y / denom) if denom > 0 else 0.0)
        return float(np.clip(np.mean(sims), 0.0, 1.0))

    def test_vectorized_matches_row_reference(self):
        rng = np.random.default_rng(3)

        def bundle(l):
            m = rng.random((l, l)) ** 4
            m /= m.sum(-1, keepdims=True)
            return AttentionBundle(["w"] * l, {"city": m}, frozenset({"city"}),
                                   frozenset())

        for l in (1, 3, 6):
            a, b = bundle(l), bundle(l)
            want = self.row_reference(a.matrices["city"], b.matrices["city"],
                                      [(i, i) for i in range(l)])
            assert compare_attention_consistency(a, b, "city") == pytest.approx(
                want, abs=1e-12)
        a, b = bundle(5), bundle(7)
        alignment = [(4, 0), (0, 6), (2, 2), (1, 5)]  # non-monotone
        want = self.row_reference(a.matrices["city"], b.matrices["city"], alignment)
        assert compare_attention_consistency(a, b, "city", alignment) == pytest.approx(
            want, abs=1e-12)

    def test_zero_aligned_row_scores_zero(self):
        # row 0 puts all its weight on an unaligned column: its aligned
        # sub-row is all zero, so it scores 0.0 and halves the mean
        m = np.array([[0.0, 0.0, 1.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
        a = AttentionBundle(["w"] * 3, {"city": m}, frozenset({"city"}), frozenset())
        score = compare_attention_consistency(a, a, "city", [(0, 0), (1, 1)])
        assert score == pytest.approx(0.5)
        assert score == pytest.approx(self.row_reference(m, m, [(0, 0), (1, 1)]))

    def test_pair_analysis_over_synthetic_modifications(self):
        model, pairs, maps, vocab = synthetic_pairs_setting()
        pairs = pairs[:6]
        report = consistency_analysis(model, pairs, maps, vocab)
        assert len(report.pairs) == 6
        assert all(0.0 <= p.score <= 1.0 for p in report.pairs)
        for cat, mean in report.category_means.items():
            assert 0.0 <= mean <= 1.0

    def test_report_tsv_and_means(self):
        report = ConsistencyReport(pairs=[
            PairScore(0, "slot-only", 0.9),
            PairScore(1, "slot-only", 0.7),
            PairScore(2, "both", 0.5),
        ])
        assert report.category_means == {"both": 0.5, "slot-only": pytest.approx(0.8)}
        lines = report.to_tsv().strip().split("\n")
        assert lines[0] == "pair_id\tcategory\tscore"
        assert lines[1] == "0\tslot-only\t0.9"



# README ("Inference path"): reports from differently batched runs agree to this
REBATCHED_DEVIATION = 2e-7


@pytest.fixture(scope="module")
def desk_run():
    """The desk benchmark's shape: a default-grammar corpus of 200 training
    and 100 held-out utterances from seed 1000, a 2-epoch model trained on
    it, and the held-out set's modification pairs."""
    grammar = default_grammar()
    train_seed, heldout_seed, pairs_seed = np.random.SeedSequence(1000).generate_state(3)
    train = generate_synthetic_corpus(int(train_seed), 200, grammar)
    heldout = generate_synthetic_corpus(int(heldout_seed), 100, grammar)
    maps = build_label_maps(train + heldout)
    vocab = Vocab.build(train)
    model = train_model(train, maps, vocab, RunConfig(seed=1000, epochs=2)).model
    pairs = modification_pairs(heldout, grammar, int(pairs_seed))
    return model, heldout, pairs, maps, vocab


class TestRebatchedReports:
    """Running the same inputs in other passes moves float32 rounding
    only: every score and entry stays within ``REBATCHED_DEVIATION``."""

    def test_consistency_in_25_pair_chunks_matches_the_whole_set(self, desk_run):
        model, _, pairs, maps, vocab = desk_run
        whole = consistency_analysis(model, pairs, maps, vocab).pairs
        chunks = [p for i in range(0, len(pairs), 25)
                  for p in consistency_analysis(model, pairs[i : i + 25], maps, vocab).pairs]
        assert len(pairs) > 100
        assert [p.category for p in chunks] == [p.category for p in whole]
        np.testing.assert_allclose([p.score for p in chunks], [p.score for p in whole],
                                   rtol=0, atol=REBATCHED_DEVIATION)

    @pytest.mark.parametrize("granularity", ["matrix", "rows"])
    def test_analysis_in_reverse_order_matches_the_given_order(self, desk_run, granularity):
        model, heldout, _, maps, vocab = desk_run
        k_list = [5, 10, 100]
        given, reverse = (topk_entropy_analysis(model, corpus, k_list, maps, vocab, granularity)
                          for corpus in (heldout, heldout[::-1]))
        for got, want in zip(reverse.rows, given.rows, strict=True):
            assert (got.k, got.n_pos_utterances, got.n_neg_utterances) == (
                want.k, want.n_pos_utterances, want.n_neg_utterances)
            np.testing.assert_allclose([got.pos_entropy, got.neg_entropy, got.diff],
                                       [want.pos_entropy, want.neg_entropy, want.diff],
                                       rtol=0, atol=REBATCHED_DEVIATION)


class TestHeatmap:
    def test_uniform_matrix_equal_opacities(self, tmp_path):
        b = uniform_bundle(3, types=("city",), positive=("city",))
        out = render_heatmap(b, "city", tmp_path / "h.html")
        text = out.read_text(encoding="utf-8")
        opacities = {
            part.split('"')[0] for part in text.split("opacity:")[1:]
        }
        assert opacities == {"1.000000"}

    def test_identity_matrix_diagonal_only(self, tmp_path):
        l = 3
        b = AttentionBundle(["a", "b", "c"], {"city": np.eye(l)},
                            frozenset({"city"}), frozenset())
        text = render_heatmap(b, "city", tmp_path / "h.html").read_text(encoding="utf-8")
        assert text.count("opacity:1.000000") == l
        assert text.count("opacity:0.000000") == l * l - l

    def test_contains_every_token_escaped(self, tmp_path):
        b = AttentionBundle(["<laugh>", "b"], {"city": np.full((2, 2), 0.5)},
                            frozenset({"city"}), frozenset())
        text = render_heatmap(b, "city", tmp_path / "h.html").read_text(encoding="utf-8")
        assert "&lt;laugh&gt;" in text
        assert "<laugh>" not in text
        assert text.startswith("<!DOCTYPE html>")

    def test_no_network_resources(self, tmp_path):
        b = uniform_bundle(2, types=("city",), positive=("city",))
        text = render_heatmap(b, "city", tmp_path / "h.html").read_text(encoding="utf-8")
        assert "http" not in text and "src=" not in text

    def test_byte_deterministic(self, tmp_path):
        b = uniform_bundle(4)
        a = render_heatmap(b, "city", tmp_path / "a.html").read_bytes()
        c = render_heatmap(b, "city", tmp_path / "b.html").read_bytes()
        assert a == c

    def test_hover_titles_carry_values(self, tmp_path):
        m = np.array([[0.75, 0.25], [0.5, 0.5]])
        b = AttentionBundle(["a", "b"], {"city": m},
                            frozenset({"city"}), frozenset())
        text = render_heatmap(b, "city", tmp_path / "h.html").read_text(encoding="utf-8")
        assert 'title="0.750000"' in text
        assert 'title="0.250000"' in text

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["identity", "uniform", "random"])
    @pytest.mark.parametrize("l", [1, 2, 13, 47, 60])
    def test_bytes_match_per_cell_reference(self, tmp_path, l, kind, dtype):
        if kind == "identity":
            m = np.eye(l)
        elif kind == "uniform":
            m = np.full((l, l), 1.0 / l)
        else:
            m = np.random.default_rng(l).random((l, l)) ** 4
            m /= m.sum(axis=1, keepdims=True)
        b = AttentionBundle(escaped_tokens(l), {"city": m.astype(dtype)},
                            frozenset({"city"}), frozenset())
        out = render_heatmap(b, "city", tmp_path / "h.html")
        assert out.read_bytes() == _per_cell_heatmap(b, "city")

    @pytest.mark.parametrize("rows", [
        [[1 / 128, 127 / 128], [0.5, 0.5]],  # exact .5 ties at six places
        [[2.25e-05, 1 - 2.25e-05], [5.05e-05, 1 - 5.05e-05]],  # x * 1e6 rounds onto a tie
        [[-0.0, 1.0], [0.25, 0.75]],  # sign bit: "-0.000000"
        [[0.0, 0.0], [0.0, 0.0]],  # peak 0 leaves the matrix unscaled
        [[np.nan, np.inf], [0.5, 0.5]],
        [[9.9999995, 12.5], [0.5, 0.5]],  # "%.6f" wider than 8 characters
    ], ids=["tie", "near-tie", "negative-zero", "all-zero", "non-finite", "wide"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_values_off_the_fixed_width_grid_match_reference(self, tmp_path, rows, dtype):
        b = AttentionBundle(escaped_tokens(2), {"city": np.eye(2)},
                            frozenset({"city"}), frozenset())
        b.matrices["city"] = np.array(rows, dtype=dtype)  # past the bundle's checks
        out = render_heatmap(b, "city", tmp_path / "h.html")
        assert out.read_bytes() == _per_cell_heatmap(b, "city")

    def test_rewrite_writes_what_write_text_writes(self, tmp_path):
        """Over a longer file, a shorter one and none, the bytes equal what
        ``Path.write_text(..., encoding="utf-8")`` writes for the same text."""
        out, reference = tmp_path / "h.html", tmp_path / "reference.html"
        for l in (13, 2, 47):
            b = AttentionBundle(escaped_tokens(l), {"city": np.eye(l)},
                                frozenset({"city"}), frozenset())
            reference.write_text(_per_cell_heatmap(b, "city").decode("utf-8"), encoding="utf-8")
            assert render_heatmap(b, "city", out).read_bytes() == reference.read_bytes()
        for text in ("type\ti\n日本\t0.5\r\n" * 40, "a\n", "", "tök\n"):
            reference.write_text(text, encoding="utf-8")
            assert write_report(text, out).read_bytes() == reference.read_bytes()

    def test_bundles_of_several_types_written_back_to_back_match_reference(self, tmp_path):
        """Every type's page of each bundle, rewritten over the previous
        bundle's pages in one directory, equals the per-cell reference."""
        types = ("city", "a&b", "O")
        for l in (47, 1, 13, 2):
            rng = np.random.default_rng(l)
            maps = {}
            for t in types:
                m = rng.random((l, l)) ** 3
                maps[t] = m / m.sum(axis=1, keepdims=True)
            b = AttentionBundle(escaped_tokens(l), maps, frozenset({"city"}),
                                frozenset({"a&b", "O"}))
            for t in types:
                render_heatmap(b, t, tmp_path / f"attention_{t}.html")
            for t in types:
                assert (tmp_path / f"attention_{t}.html").read_bytes() \
                    == _per_cell_heatmap(b, t), (l, t)

    @pytest.mark.parametrize("l", [2, 13, 47])
    @pytest.mark.parametrize("off_grid", ["tie", "wide"])
    def test_every_page_of_one_bundle_matches_reference_in_any_order(
            self, tmp_path, monkeypatch, l, off_grid):
        """One bundle's pages, rendered in forward order, in reverse and once
        more, equal the per-cell reference, with one map formatted cell by
        cell beside maps written as digit words; the bundle forms its page
        kit once."""
        types = ("city", "a&b", "off", "O", "<day>")
        rng = np.random.default_rng(l)
        maps = {}
        for t in types:
            m = rng.random((l, l)) ** 3
            maps[t] = m / m.sum(axis=1, keepdims=True)
        if off_grid == "tie":  # 1/128 prints at a .5 tie: it passes the bundle's checks
            maps["off"] = np.full((l, l), 1 / l)
            maps["off"][:, 0] = 1 / 128
            maps["off"][:, -1] += 1 - maps["off"].sum(axis=1)
        b = AttentionBundle(escaped_tokens(l), maps, frozenset({"city"}),
                            frozenset({"a&b", "off", "<day>"}))
        if off_grid == "wide":  # "%.6f" wider than 8 characters, past the bundle's checks
            b.matrices["off"] = b.matrices["off"] + 10 * np.eye(l)
        kits = []
        real_kit = explain_module._PageKit

        def counting_kit(*args):
            kits.append(args)
            return real_kit(*args)

        monkeypatch.setattr(explain_module, "_PageKit", counting_kit)
        for order, where in ((types, "forward"), (types[::-1], "reverse"), (types, "again")):
            for t in order:
                out = render_heatmap(b, t, tmp_path / where / f"attention_{t}.html")
                assert out.read_bytes() == _per_cell_heatmap(b, t), (where, t)
        assert len(kits) == 1
        assert {t for t, cells in b._kit.cells.items() if isinstance(cells, list)} \
            == {"off"}

    def test_pages_follow_a_bundle_changed_after_its_first_page(self, tmp_path):
        """A map or type assigned anew, new tokens, tokens changed in place
        and a shallow copy given other maps all render as the per-cell
        reference; the bundle's own maps cannot be written in place."""
        l = 5
        rng = np.random.default_rng(5)

        def random_map():
            m = rng.random((l, l)) ** 3
            return m / m.sum(axis=1, keepdims=True)

        b = AttentionBundle(escaped_tokens(l), {"city": random_map(), "O": random_map()},
                            frozenset({"city"}), frozenset({"O"}))

        def check(bundle):
            for t in bundle.matrices:
                out = render_heatmap(bundle, t, tmp_path / f"attention_{t}.html")
                assert out.read_bytes() == _per_cell_heatmap(bundle, t), t

        check(b)
        with pytest.raises(ValueError, match="read-only"):
            b.matrices["city"][0, 0] = 0.5
        b.matrices["city"] = random_map()
        check(b)
        b.matrices["day"] = random_map()
        check(b)
        b.tokens = escaped_tokens(l)[::-1]
        check(b)
        b.tokens[0] = "<changed>"
        check(b)
        c = copy.copy(b)
        c.matrices = {t: random_map() for t in b.matrices}
        check(c)
        check(b)

    def test_missing_nested_directory_is_created(self, tmp_path):
        b = uniform_bundle(3)
        out = render_heatmap(b, "city", tmp_path / "a" / "b" / "h.html")
        assert out == tmp_path / "a" / "b" / "h.html"
        assert out.read_bytes() == _per_cell_heatmap(b, "city")
        report = write_report("x\n", tmp_path / "c" / "d" / "r.tsv")
        assert report.read_bytes() == b"x\n"

    def test_shorter_page_rewrites_longer_one_in_place(self, tmp_path):
        out = tmp_path / "h.html"
        long_, short = uniform_bundle(47), uniform_bundle(2)
        inode = render_heatmap(long_, "city", out).stat().st_ino
        assert render_heatmap(short, "city", out).stat().st_ino == inode
        assert out.read_bytes() == _per_cell_heatmap(short, "city")

    def test_missing_type_errors(self, tmp_path):
        b = uniform_bundle()
        with pytest.raises(ValueError, match="hotel"):
            render_heatmap(b, "hotel", tmp_path / "h.html")
