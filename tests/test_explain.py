import html

import numpy as np
import pytest

from slotlens import model as model_module
from slotlens.data import Utterance, Vocab, build_label_maps, encode_batch
from slotlens.explain import (
    _topk_entropies,
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


def small_setting(**config_kw):
    corpus = [
        Utterance(["fly", "to", "boston", "today"], "book_flight",
                  ["O", "O", "B-city", "B-day"]),
        Utterance(["hello", "there"], "greet", ["O", "O"]),
        Utterance(["rain", "in", "denver"], "get_weather", ["O", "O", "B-city"]),
    ]
    extra = [Utterance(["a", "b"], "greet", ["B-airline", "B-hotel"])]
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

    @pytest.mark.parametrize("n,forwards", [(25, 1), (32, 1), (40, 2)])
    def test_analysis_runs_one_forward_per_chunk(self, monkeypatch, n, forwards):
        """Same-length utterances: one inference pass per EXTRACT_CHUNK."""
        model, _, maps, vocab = small_setting()
        calls = count_passes(monkeypatch)
        report = topk_entropy_analysis(model, mixed_utterances(n, lengths=[5]), [5, 100],
                                       maps, vocab)
        assert report.n_utterances == n
        assert len(calls) == forwards

    def test_bimodal_lengths_run_two_passes(self, monkeypatch):
        """25 utterances of lengths 2-4 and 33-47 run as two passes, one
        per mode, instead of padding the short ones to 47."""
        model, _, maps, vocab = small_setting(max_positions=48)
        utterances = mixed_utterances(25, lengths=[2, 40, 3, 33, 4, 47, 36])
        calls = count_passes(monkeypatch)
        report = topk_entropy_analysis(model, utterances, [5, 100], maps, vocab)
        assert report.n_utterances == 25
        assert sorted(calls) == [11, 14]

    def test_consistency_runs_one_forward_per_side(self, monkeypatch):
        model, _, maps, vocab = small_setting()
        originals = mixed_utterances(10, seed=1, lengths=[6])
        pairs = [(u, Utterance(["denver"] + u.tokens[1:], u.intent, u.bio_tags), "slot")
                 for u in originals]
        calls = count_passes(monkeypatch)
        report = consistency_analysis(model, pairs, maps, vocab)
        assert len(calls) == 2
        assert len(report.pairs) == 10
        monkeypatch.undo()
        for score, (orig, mod, _) in zip(report.pairs, pairs):
            ba = extract_attentions(model, orig, maps, vocab)
            bb = extract_attentions(model, mod, maps, vocab)
            types = sorted(ba.positive_types) or sorted(ba.analyzed_types)
            want = np.mean([compare_attention_consistency(ba, bb, t) for t in types])
            assert score.score == pytest.approx(want, abs=1e-6)


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
        g = default_grammar()
        corpus = generate_synthetic_corpus(seed=3, n=12, grammar=g)
        maps = build_label_maps(generate_synthetic_corpus(seed=3, n=200, grammar=g))
        vocab = Vocab.build(corpus)
        model = JointModel(ModelConfig(
            vocab_size=len(vocab), n_intents=maps.n_intents,
            n_slot_types=maps.n_slot_types, n_bio_labels=maps.n_bio_labels,
            d=8, d_h=4, n_layers=1, n_heads=2, ffn_dim=12, max_positions=30,
        ), rng=np.random.default_rng(1))
        pairs = modification_pairs(corpus, g, seed=5)[:6]
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

    def test_missing_type_errors(self, tmp_path):
        b = uniform_bundle()
        with pytest.raises(ValueError, match="hotel"):
            render_heatmap(b, "hotel", tmp_path / "h.html")
