import importlib.util
import itertools
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from slotlens import data, synth
from slotlens.checkpoint import save_checkpoint
from slotlens.data import (
    PAD_ID,
    PAD_TOKEN,
    SPLIT_MIN_SAVED,
    UNK_ID,
    UNK_TOKEN,
    Batch,
    BioValidationError,
    CorpusFormatError,
    LabelMaps,
    Span,
    UnknownLabelError,
    Utterance,
    Vocab,
    build_label_maps,
    check_output_dir,
    encode_batch,
    extract_spans,
    load_corpus,
    split_by_length,
    span_f1,
    spans_to_bio,
    rewrite_file,
    tsv,
    validate_bio,
    write_corpus,
)
from slotlens.explain import AttentionBundle, render_heatmap, write_report
from slotlens.model import JointModel, ModelConfig


def make_corpus_dir(tmp_path, tokens, tags, intents):
    (tmp_path / "seq.in").write_text("\n".join(tokens) + "\n", encoding="utf-8")
    (tmp_path / "seq.out").write_text("\n".join(tags) + "\n", encoding="utf-8")
    (tmp_path / "label").write_text("\n".join(intents) + "\n", encoding="utf-8")
    return tmp_path


def random_valid_bio(rng, length, types):
    """Uniform-ish walk over the BIO transition graph."""
    tags = []
    for i in range(length):
        choices = ["O"] + [f"B-{t}" for t in types]
        if i > 0 and tags[-1] != "O":
            choices.append("I-" + tags[-1][2:])
        tags.append(choices[int(rng.integers(len(choices)))])
    return tags


class TestUtterance:
    def test_valid_construction(self):
        u = Utterance(["fly", "to", "boston"], "book_flight", ["O", "O", "B-city"])
        assert u.length == 3

    def test_token_tag_length_mismatch(self):
        with pytest.raises(ValueError, match="2 tokens but 1 tags"):
            Utterance(["a", "b"], "x", ["O"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one token"):
            Utterance([], "x", [])

    def test_orphan_inside_tag_rejected(self):
        with pytest.raises(BioValidationError, match="position 1"):
            Utterance(["a", "b"], "x", ["O", "I-city"])

    def test_inside_after_other_type_rejected(self):
        with pytest.raises(BioValidationError):
            validate_bio(["B-day", "I-city"])

    def test_inside_continuations_accepted(self):
        validate_bio(["B-city", "I-city", "I-city", "O", "B-city"])

    @pytest.mark.parametrize("tags,position", [
        (["O", "O", "B-"], 2),
        (["B-", "I-"], 0),
        (["B-city", "I-"], 1),
    ])
    def test_empty_slot_type_rejected(self, tags, position):
        with pytest.raises(BioValidationError,
                           match=f"at position {position} has an empty slot type"):
            Utterance([f"w{i}" for i in range(len(tags))], "x", tags)


class TestLoadCorpus:
    def test_two_aligned_lines_give_two_utterances(self, tmp_path):
        d = make_corpus_dir(
            tmp_path,
            ["fly to boston", "what day is it"],
            ["O O B-city", "O O O O"],
            ["book_flight", "get_weather"],
        )
        corpus = load_corpus(d)
        assert len(corpus) == 2
        assert corpus[0].tokens == ["fly", "to", "boston"]
        assert corpus[1].intent == "get_weather"

    def test_line_count_mismatch_reports_line(self, tmp_path):
        d = make_corpus_dir(tmp_path, ["a b", "c d"], ["O O"], ["x", "y"])
        with pytest.raises(CorpusFormatError, match="line 2"):
            load_corpus(d)

    def test_short_tag_line_reports_line(self, tmp_path):
        d = make_corpus_dir(tmp_path, ["a b", "c d"], ["O O", "O"], ["x", "y"])
        with pytest.raises(CorpusFormatError, match="line 2: 2 tokens but 1 tags"):
            load_corpus(d)

    def test_invalid_bio_names_utterance(self, tmp_path):
        d = make_corpus_dir(tmp_path, ["a b", "c d"], ["O O", "I-city O"], ["x", "y"])
        with pytest.raises(BioValidationError, match="utterance 2"):
            load_corpus(d)

    def test_tag_cut_to_its_prefix_names_utterance(self, tmp_path):
        d = make_corpus_dir(tmp_path, ["fly to boston"], ["O O B-"], ["x"])
        with pytest.raises(BioValidationError,
                           match="utterance 1: tag 'B-' at position 2 has an empty slot type"):
            load_corpus(d)

    def test_each_utterance_is_validated_once(self, tmp_path, monkeypatch):
        corpus = synth.generate_synthetic_corpus(seed=3, n=20)
        write_corpus(corpus, tmp_path / "c")
        calls = []
        real = data.validate_bio
        monkeypatch.setattr(data, "validate_bio", lambda tags: calls.append(tags) or real(tags))
        assert load_corpus(tmp_path / "c") == corpus
        assert calls == [u.bio_tags for u in corpus]

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusFormatError, match="seq.in"):
            load_corpus(tmp_path)

    @pytest.mark.parametrize("blank", ["", "   "])
    def test_blank_intent_line_is_refused(self, tmp_path, blank):
        """Loaded, it would train an intent named "" without a word."""
        d = make_corpus_dir(tmp_path, ["a b", "c d"], ["O O", "O O"], ["x", blank])
        with pytest.raises(CorpusFormatError, match="^line 2: empty intent label$"):
            load_corpus(d)

    def test_roundtrip_through_write(self, tmp_path):
        corpus = [
            Utterance(["fly", "to", "new", "york"], "book_flight", ["O", "O", "B-city", "I-city"]),
            Utterance(["hello"], "greet", ["O"]),
        ]
        write_corpus(corpus, tmp_path / "out")
        assert load_corpus(tmp_path / "out") == corpus


class TestLabelMaps:
    def test_single_type_inventory(self):
        corpus = [Utterance(["a", "b"], "x", ["B-city", "I-city"]),
                  Utterance(["c"], "y", ["O"])]
        maps = build_label_maps(corpus)
        assert maps.slot_types == ["O", "city"]
        assert maps.n_bio_labels == 3

    def test_two_types_give_five_bio_labels(self):
        corpus = [Utterance(["a", "b"], "x", ["B-city", "B-day"])]
        maps = build_label_maps(corpus)
        assert maps.n_slot_types == 3
        assert maps.n_bio_labels == 5
        assert maps.bio_labels == ["B-city", "B-day", "I-city", "I-day", "O"]

    def test_order_insensitive(self):
        a = [Utterance(["a"], "x", ["B-city"]), Utterance(["b"], "y", ["B-day"])]
        b = list(reversed(a))
        assert build_label_maps(a).slot_types == build_label_maps(b).slot_types
        assert build_label_maps(a).intents == build_label_maps(b).intents

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            build_label_maps([])

    def test_outside_required_in_types(self):
        with pytest.raises(ValueError, match='"O"'):
            LabelMaps(intents=["x"], slot_types=["city"], bio_labels=["B-city", "I-city", "O"])

    def test_bio_count_invariant_enforced(self):
        with pytest.raises(ValueError, match="inconsistent"):
            LabelMaps(intents=["x"], slot_types=["O", "city"], bio_labels=["O", "B-city"])

    @pytest.mark.parametrize("slot_types,bio_labels,columns", [
        (["O", "city"], ["B-day", "I-city", "O"], None),
        (["O", "city", "day"], ["B-city", "I-city", "I-day", "O"], None),
        (["O", "city", "city"], ["B-city", "B-city", "I-city", "I-city", "O"], None),
        (["O", "city"], ["B-city", "B-city", "O"], None),
        (["day", "city", "O"], ["O", "I-day", "I-city", "B-day", "B-city"], [2, 0, 1, 0, 1]),
    ], ids=["B-of-unlisted-type", "I-without-B", "repeated-type", "repeated-label",
            "complete-reversed"])
    def test_bio_labels_follow_the_slot_types(self, slot_types, bio_labels, columns):
        """The BIO labels are "O" plus B-x and I-x for each non-O type, in
        any order and with no entry repeated, or the maps are refused."""
        if columns is None:
            with pytest.raises(ValueError, match="inconsistent with slot types"):
                LabelMaps(["x"], slot_types, bio_labels)
        else:
            maps = LabelMaps(["x"], slot_types, bio_labels)
            assert maps.bio_type_column.tolist() == columns

    def test_repeated_intent_refused(self):
        """With "a" twice, id 0 could never be a gold intent id."""
        with pytest.raises(ValueError, match="intent inventory repeats an entry"):
            LabelMaps(["a", "a", "b"], ["O"], ["O"])

    def test_empty_intent_name_is_kept(self):
        """A checkpoint trained on a corpus with a blank intent line still loads."""
        assert LabelMaps(["", "a"], ["O"], ["O"]).intent_index == {"": 0, "a": 1}

    def test_index_maps_bijective(self):
        maps = build_label_maps([Utterance(["a"], "x", ["B-city"])])
        for seq, index in (
            (maps.intents, maps.intent_index),
            (maps.slot_types, maps.slot_type_index),
            (maps.bio_labels, maps.bio_index),
        ):
            assert [index[x] for x in seq] == list(range(len(seq)))


def aux_targets(tags, maps):
    """The binary targets ``forward`` trains the slot-type generator on for
    one utterance tagged ``tags``: the one-hot of its batch's
    ``type_targets``, one row per token and one column per slot type."""
    batch = encode_batch([Utterance(["w"] * len(tags), maps.intents[0], tags)], maps, Vocab([]))
    return (batch.type_targets[0, :, None] == np.arange(maps.n_slot_types)).astype(np.float32)


class TestAuxTargets:
    def test_single_slot_token(self):
        maps = LabelMaps(["x"], ["O", "city"], ["B-city", "I-city", "O"])
        out = aux_targets(["O", "O", "O", "B-city"], maps)
        np.testing.assert_array_equal(out[:, maps.slot_type_index["city"]], [0, 0, 0, 1])
        np.testing.assert_array_equal(out[:, maps.slot_type_index["O"]], [1, 1, 1, 0])

    def test_all_outside(self):
        maps = LabelMaps(["x"], ["O", "city"], ["B-city", "I-city", "O"])
        out = aux_targets(["O", "O"], maps)
        np.testing.assert_array_equal(out[:, maps.slot_type_index["O"]], [1, 1])
        np.testing.assert_array_equal(out[:, maps.slot_type_index["city"]], [0, 0])

    def test_negative_type_all_zero(self):
        maps = build_label_maps(
            [Utterance(["a", "b"], "x", ["B-city", "B-day"])]
        )
        out = aux_targets(["B-city", "I-city", "O"], maps)
        np.testing.assert_array_equal(out[:, maps.slot_type_index["city"]], [1, 1, 0])
        np.testing.assert_array_equal(out[:, maps.slot_type_index["day"]], [0, 0, 0])
        np.testing.assert_array_equal(out[:, maps.slot_type_index["O"]], [0, 0, 1])

    def test_unknown_tag_rejected(self):
        maps = LabelMaps(["x"], ["O", "city"], ["B-city", "I-city", "O"])
        with pytest.raises(UnknownLabelError, match="day"):
            aux_targets(["B-day"], maps)

    def test_fuzz_against_per_position_oracle(self):
        """1000 random valid sequences: each row re-derived independently."""
        rng = np.random.default_rng(20240817)
        all_types = ["airline", "city", "day", "hotel"]
        maps = build_label_maps(
            [Utterance(["w"] * len(all_types), "x", [f"B-{t}" for t in all_types])]
        )
        for _ in range(1000):
            length = int(rng.integers(1, 12))
            tags = random_valid_bio(rng, length, all_types)
            out = aux_targets(tags, maps)
            for i, tag in enumerate(tags):
                expected = np.zeros(maps.n_slot_types)
                kind = "O" if tag == "O" else tag[2:]
                expected[maps.slot_type_index[kind]] = 1.0
                np.testing.assert_array_equal(out[i], expected)
            assert (out.sum(axis=1) == 1).all()
            o_col = maps.slot_type_index["O"]
            others = [j for j in range(maps.n_slot_types) if j != o_col]
            np.testing.assert_array_equal(
                out[:, o_col], 1.0 - out[:, others].max(axis=1)
            )


class TestEncodeBatch:
    @pytest.fixture
    def setting(self):
        corpus = [
            Utterance(["fly", "to", "boston"], "book_flight", ["O", "O", "B-city"]),
            Utterance(["i", "want", "a", "cheap", "hotel"], "book_hotel", ["O"] * 5),
        ]
        maps = build_label_maps(corpus)
        return corpus, maps, Vocab.build(corpus)

    def test_mask_and_padding(self, setting):
        corpus, maps, vocab = setting
        batch = encode_batch(corpus, maps, vocab)
        assert batch.max_len == 5
        np.testing.assert_array_equal(batch.mask, [[1, 1, 1, 0, 0], [1, 1, 1, 1, 1]])
        assert batch.mask.dtype == bool
        np.testing.assert_array_equal(batch.lengths, [3, 5])
        assert (batch.slot_targets[0, 3:] == -1).all()
        assert (batch.type_targets[0, 3:] == -1).all()
        assert (batch.token_ids[0, 3:] == PAD_ID).all()

    def test_truncation_counter(self, setting):
        corpus, maps, vocab = setting
        long_u = Utterance(["word"] * 60, "book_hotel", ["O"] * 60)
        batch = encode_batch([long_u], maps, vocab, max_len=50)
        assert batch.max_len == 50
        assert batch.lengths.tolist() == [50]
        assert encode_batch(corpus, maps, vocab, max_len=50).lengths.tolist() == [3, 5]
        kept = encode_batch([long_u], maps, vocab)
        assert kept.max_len == 60

    def test_rows_select_and_trim_padding(self, setting):
        corpus, maps, vocab = setting
        long_u = Utterance(["word"] * 60, "book_hotel", ["O"] * 60)
        batch = encode_batch([corpus[0], long_u, corpus[1]], maps, vocab, max_len=50)
        sub = batch.rows(np.array([0, 2]))
        short = encode_batch([corpus[0], corpus[1]], maps, vocab)
        for name in ("token_ids", "mask", "lengths", "intent_targets", "slot_targets",
                     "type_targets"):
            np.testing.assert_array_equal(getattr(sub, name), getattr(short, name))

    def test_unknown_token_maps_to_unk(self, setting):
        corpus, maps, vocab = setting
        u = Utterance(["fly", "somewhere"], "book_flight", ["O", "O"])
        batch = encode_batch([u], maps, vocab)
        assert batch.token_ids[0, 0] == vocab.lookup("fly") != UNK_ID
        assert batch.token_ids[0, 1] == UNK_ID

    def test_lookup_is_case_insensitive(self, setting):
        _, _, vocab = setting
        assert vocab.lookup("Boston") == vocab.lookup("boston") != UNK_ID

    def test_corpus_words_spelled_as_reserved_tokens_build(self):
        """A corpus word spelled as a reserved token, in any case, takes no
        second entry: it maps to the reserved id."""
        corpus = [Utterance(["<UNK>", "to", "<pad>"], "x", ["O"] * 3),
                  Utterance(["<unk>", "<Pad>"], "x", ["O"] * 2)]
        vocab = Vocab.build(corpus)
        assert vocab.id_to_token == [PAD_TOKEN, UNK_TOKEN, "to"]
        assert [vocab.lookup(t) for t in corpus[0].tokens] == [UNK_ID, 2, PAD_ID]

    def test_targets_and_aux_agree(self, setting):
        corpus, maps, vocab = setting
        batch = encode_batch(corpus, maps, vocab)
        assert batch.intent_targets[0] == maps.intent_index["book_flight"]
        assert batch.slot_targets[0, 2] == maps.bio_index["B-city"]
        assert batch.type_targets[0, 2] == maps.slot_type_index["city"]

    def test_unknown_labels_rejected(self, setting):
        corpus, maps, vocab = setting
        with pytest.raises(UnknownLabelError, match="play_music"):
            encode_batch([Utterance(["a"], "play_music", ["O"])], maps, vocab)
        with pytest.raises(UnknownLabelError, match="B-genre"):
            encode_batch([Utterance(["a"], "book_flight", ["B-genre"])], maps, vocab)

    def test_tag_whose_type_is_not_in_the_maps_rejected(self):
        """A map holding such a tag is refused when it is built, so the tag
        reaches the encoders only as an unknown label."""
        with pytest.raises(ValueError, match="inconsistent with slot types"):
            LabelMaps(["x"], ["O", "city"], ["B-day", "I-city", "O"])
        maps = LabelMaps(["x"], ["O", "city"], ["B-city", "I-city", "O"])
        assert maps.bio_type_column.tolist() == [1, 1, 0]
        with pytest.raises(UnknownLabelError, match="unknown BIO label 'B-day'"):
            encode_batch([Utterance(["a", "b"], "x", ["O", "B-day"])], maps, Vocab([]))

    def test_empty_batch_rejected(self, setting):
        _, maps, vocab = setting
        with pytest.raises(ValueError, match="empty batch"):
            encode_batch([], maps, vocab)


def groups_of(lengths, size=32):
    """Inference length groups of utterances of these lengths, kept to 50
    tokens."""
    return split_by_length(np.minimum(lengths, 50), SPLIT_MIN_SAVED, size)


class TestLengthGroups:
    def test_desk_lengths_make_one_group(self):
        lengths = [6 + i % 8 for i in range(25)]  # 6-13, three or four of each
        groups = groups_of(lengths)
        assert len(groups) == 1
        np.testing.assert_array_equal(groups[0], np.arange(25))  # the caller's order
        # random 25-utterance chunks and 32-utterance training batches often
        # pad more than one pass costs, yet no split pays
        rng = np.random.default_rng(0)
        for n in [25, 32] * 50:
            lengths = rng.integers(6, 14, size=n)
            assert [g.tolist() for g in split_by_length(lengths, SPLIT_MIN_SAVED, n)] == [
                list(range(n))]

    def test_bimodal_mix_makes_two_groups(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            lengths = [int(rng.integers(2, 5)) if i % 2 else int(rng.integers(33, 48))
                       for i in range(25)]
            groups = groups_of(lengths)
            assert len(groups) == 2
            assert max(lengths[i] for i in groups[0]) <= 4
            assert min(lengths[i] for i in groups[1]) >= 33

    def test_groups_cover_every_index_in_length_order_and_bounded_size(self):
        lengths = np.random.default_rng(1).integers(1, 60, size=70)
        groups = groups_of(lengths)
        truncated = np.minimum(lengths, 50)
        np.testing.assert_array_equal(np.sort(np.concatenate(groups)), np.arange(70))
        assert all(1 <= len(g) <= 32 and (np.diff(g) > 0).all() for g in groups)
        for a, b in zip(groups, groups[1:]):
            assert truncated[a].max() <= truncated[b].min()

    def test_split_by_length_cuts_only_when_it_saves_more_than_the_bound(self):
        lengths = np.array([12, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1])  # the cut saves 10 * 11
        assert [g.tolist() for g in split_by_length(lengths, 109, 11)] == [
            list(range(1, 11)), [0]]
        assert [g.tolist() for g in split_by_length(lengths, 110, 11)] == [list(range(11))]
        assert [g.tolist() for g in split_by_length(np.array([5]), 0, 1)] == [[0]]

    @pytest.mark.parametrize("size", [1, 2, 3, 5, 10])
    def test_split_by_length_finds_the_cheapest_partition(self, size):
        """Against every contiguous partition of the sorted lengths."""
        def cost(sorted_lengths, ends, pass_cost):
            return sum((b - a) * sorted_lengths[b - 1] - sorted_lengths[a:b].sum() + pass_cost
                       for a, b in zip([0, *ends], ends))

        rng = np.random.default_rng(size)
        for _ in range(300):
            n, pass_cost = int(rng.integers(1, 11)), int(rng.integers(0, 30))
            lengths = rng.integers(1, int(rng.integers(2, 20)), size=n)
            s = np.sort(lengths, kind="stable")
            best = min(cost(s, [*cuts, n], pass_cost)
                       for k in range(n) for cuts in itertools.combinations(range(1, n), k)
                       if max(np.diff([0, *cuts, n])) <= size)
            groups = split_by_length(lengths, pass_cost, size)
            assert all(1 <= len(g) <= size and (np.diff(g) > 0).all() for g in groups)
            np.testing.assert_array_equal(np.sort(np.concatenate(groups)), np.arange(n))
            for a, b in zip(groups, groups[1:]):
                assert lengths[a].max() <= lengths[b].min()
            assert cost(s, np.cumsum([len(g) for g in groups]), pass_cost) == best

    def test_no_utterances_no_groups(self):
        assert groups_of([]) == []

    @pytest.mark.parametrize("size", [0, -1])
    def test_size_below_one_rejected(self, size):
        with pytest.raises(ValueError, match=f"batch size must be at least 1, got {size}"):
            groups_of([3, 4], size)


class TestSpans:
    def test_basic_extraction(self):
        assert extract_spans(["B-city", "I-city", "O"]) == {Span("city", 0, 1)}

    def test_adjacent_begins_split(self):
        assert extract_spans(["B-city", "B-city"]) == {
            Span("city", 0, 0),
            Span("city", 1, 1),
        }

    def test_orphan_inside_opens_span(self):
        assert extract_spans(["O", "I-city", "I-city"]) == {Span("city", 1, 2)}

    def test_type_switch_mid_span(self):
        assert extract_spans(["B-city", "I-day"]) == {
            Span("city", 0, 0),
            Span("day", 1, 1),
        }

    def test_span_running_to_end(self):
        assert extract_spans(["O", "B-city", "I-city"]) == {Span("city", 1, 2)}

    def test_spans_to_bio_renders(self):
        tags = spans_to_bio({Span("city", 1, 2), Span("day", 4, 4)}, 5)
        assert tags == ["O", "B-city", "I-city", "O", "B-day"]

    def test_roundtrip_on_random_valid_bio(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            tags = random_valid_bio(rng, int(rng.integers(1, 15)), ["city", "day"])
            assert spans_to_bio(extract_spans(tags), len(tags)) == tags

    def test_span_validation(self):
        with pytest.raises(ValueError, match="non-O"):
            Span("O", 0, 1)
        with pytest.raises(ValueError, match="bounds"):
            Span("city", 2, 1)


class TestSpanF1:
    def test_perfect_prediction(self):
        gold = [{Span("city", 0, 1)}]
        assert span_f1(gold, gold) == (1.0, 1.0, 1.0)

    def test_boundary_miss_scores_zero(self):
        p, r, f1 = span_f1([{Span("city", 0, 1)}], [{Span("city", 0, 0)}])
        assert (p, r, f1) == (0.0, 0.0, 0.0)

    def test_hand_counted_half(self):
        gold = [{Span("city", 0, 1), Span("day", 3, 3)}]
        pred = [{Span("city", 0, 1), Span("day", 4, 4)}]
        p, r, f1 = span_f1(gold, pred)
        assert (p, r, f1) == (0.5, 0.5, 0.5)

    def test_empty_everything(self):
        assert span_f1([set()], [set()]) == (0.0, 0.0, 0.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            span_f1([set()], [set(), set()])


class TestTsv:
    def test_cell_rules(self):
        rows = [(None, 0.1, np.float64(1 / 3), np.float32(0.1), 7, "x"), (1e-20, 2.0, "", 0)]
        assert tsv(["a", "b"], rows) == (
            "a\tb\n"
            "\t0.1\t0.3333333333\t0.1000000015\t7\tx\n"
            "1e-20\t2\t\t0\n"
        )
        assert tsv(("only",), []) == "only\n"


class TestRewriteFile:
    def test_longer_shorter_longer_leaves_the_last_content(self, tmp_path):
        path = tmp_path / "f.bin"
        contents = [b"a" * 5000, b"bb", b"c" * 7000 + "ü".encode()]
        rewrite_file(path, [contents[0]])
        inode = path.stat().st_ino
        for content in contents[1:]:
            rewrite_file(path, [content[:3], memoryview(content)[3:]])
            assert path.read_bytes() == content
        assert path.stat().st_ino == inode  # rewritten in place

    def test_chunks_may_be_arrays_and_empty(self, tmp_path):
        arena = np.arange(6, dtype="<f4")
        path = rewrite_file(tmp_path / "f.bin", [b"", arena, np.zeros(0), b"z"], head=b"HD")
        assert path.read_bytes() == b"HD" + arena.tobytes() + b"z"
        assert rewrite_file(path, []).read_bytes() == b""

    def test_writes_to_a_device(self):
        write_report("text\n", os.devnull)

    def test_no_writer_opens_with_truncation(self, tmp_path, monkeypatch):
        """Heatmaps, reports and checkpoints reuse the file's blocks:
        ``O_TRUNC`` would free them, and ``discard`` makes that slow."""
        flags, real_open = [], os.open

        def recording_open(path, flag, *args, **kwargs):
            flags.append(flag)
            return real_open(path, flag, *args, **kwargs)

        monkeypatch.setattr(data.os, "open", recording_open)
        bundle = AttentionBundle(["a", "b"], {"city": np.eye(2)}, {"city"}, set())
        corpus = [Utterance(["fly", "to", "boston"], "fly", ["O", "O", "B-city"])]
        maps, vocab = build_label_maps(corpus), Vocab.build(corpus)
        config = ModelConfig(vocab_size=len(vocab), n_intents=maps.n_intents,
                             n_slot_types=maps.n_slot_types, n_bio_labels=maps.n_bio_labels,
                             d=8, d_h=4, n_layers=1, n_heads=2, ffn_dim=8)
        for _ in range(2):  # creating and rewriting
            render_heatmap(bundle, "city", tmp_path / "h.html")
            write_report("a\tb\n", tmp_path / "r.tsv")
            save_checkpoint(tmp_path / "m.ckpt", JointModel(config, rng=0), maps, vocab)
        assert len(flags) == 6
        assert all(f & os.O_CREAT and not f & os.O_TRUNC for f in flags)


class TestCheckOutputDir:
    def test_missing_directories_pass_and_nothing_is_made(self, tmp_path):
        check_output_dir(tmp_path / "a" / "b")
        check_output_dir(tmp_path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("below", ["", "a", "a/b"])
    def test_the_first_existing_path_that_is_a_file_is_refused(self, tmp_path, below):
        (tmp_path / "f").write_text("keep")
        with pytest.raises(NotADirectoryError, match="Not a directory") as e:
            check_output_dir(tmp_path / "f" / below)
        assert e.value.filename == str(tmp_path / "f")
        assert (tmp_path / "f").read_text() == "keep"


def reference_encode_batch(utterances, maps, vocab, max_len):
    """``encode_batch`` as it was before its aux targets came from one
    scatter through ``LabelMaps.bio_type_column``, with the per-tag loop
    of the ``generate_aux_targets`` it called, copied as they were. Its
    arrays come back by name, the aux targets as the ``(B, L, |T|)``
    float32 one-hot that batches held before ``type_targets``."""
    lengths = np.array([min(u.length, max_len) for u in utterances], dtype=np.int64)
    L = int(lengths.max())
    B = len(utterances)
    token_ids = np.zeros((B, L), dtype=np.int64)
    mask = np.zeros((B, L), dtype=np.float32)
    intent_targets = np.zeros(B, dtype=np.int64)
    slot_targets = np.full((B, L), -1, dtype=np.int64)
    aux_targets = np.zeros((B, L, maps.n_slot_types), dtype=np.float32)
    for b, u in enumerate(utterances):
        n = lengths[b]
        token_ids[b, :n] = [vocab.lookup(t) for t in u.tokens[:n]]
        mask[b, :n] = 1.0
        intent_targets[b] = maps.intent_index[u.intent]
        for i, tag in enumerate(u.bio_tags[:n]):
            slot_targets[b, i] = maps.bio_index[tag]
            kind = "O" if tag == "O" else tag[2:]
            aux_targets[b, i, maps.slot_type_index[kind]] = 1.0
    return dict(token_ids=token_ids, mask=mask, lengths=lengths,
                intent_targets=intent_targets, slot_targets=slot_targets,
                aux_targets=aux_targets,
                truncated=sum(1 for u in utterances if u.length > max_len))


def bench_workloads():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["train-desk", "infer-desk", "train-long"])
def test_encode_batch_matches_the_reference_on_the_bench_corpora(name):
    """Every array of every batch, bit for bit: the seed-1000 training,
    held-out and modification-pair utterances of a benchmark workload, in
    batches of 32 and in length groups, at the default ``max_len`` and cut
    to 8 tokens."""
    workloads = bench_workloads()
    wl = workloads.WORKLOADS[name]
    train_seed, heldout_seed, pairs_seed = workloads.derived_seeds(1000)
    grammar = wl.grammar()
    train = workloads.generate(wl, grammar, train_seed, wl.n_train)
    heldout = workloads.generate(wl, grammar, heldout_seed, wl.n_heldout)
    maps = build_label_maps(train + heldout)
    vocab = Vocab.build(train)
    pairs = synth.modification_pairs(heldout, grammar, pairs_seed)
    corpus = train + heldout + [u for a, b, _ in pairs for u in (a, b)]
    for max_len in (50, 8):
        batches = [corpus[i : i + 32] for i in range(0, len(corpus), 32)]
        lengths = np.array([u.length for u in corpus])
        batches += [[corpus[i] for i in g]
                    for g in split_by_length(np.minimum(lengths, max_len), SPLIT_MIN_SAVED, 25)]
        for batch in batches:
            got = encode_batch(batch, maps, vocab, max_len)
            want = reference_encode_batch(batch, maps, vocab, max_len)
            types = got.type_targets
            assert types.dtype == np.int64 and ((types < 0) == (got.slot_targets < 0)).all()
            arrays = {f.name: getattr(got, f.name) for f in fields(Batch)}
            del arrays["type_targets"]
            arrays["aux_targets"] = (
                types[..., None] == np.arange(maps.n_slot_types)).astype(np.float32)
            arrays["mask"] = got.mask.astype(np.float32)
            arrays["truncated"] = sum(u.length > max_len for u in batch)
            assert arrays.keys() == want.keys()
            for name, b in want.items():
                a = arrays[name]
                if isinstance(b, np.ndarray):
                    assert a.dtype == b.dtype and a.shape == b.shape, name
                    assert a.tobytes() == b.tobytes(), name
                else:
                    assert a == b, name
