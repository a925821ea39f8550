import os

import numpy as np
import pytest

from slotlens import data
from slotlens.checkpoint import save_checkpoint
from slotlens.data import (
    PAD_ID,
    UNK_ID,
    Batch,
    BioValidationError,
    CorpusFormatError,
    LabelMaps,
    Span,
    UnknownLabelError,
    Utterance,
    Vocab,
    build_label_maps,
    encode_batch,
    extract_spans,
    generate_aux_targets,
    length_groups,
    load_corpus,
    split_by_length,
    span_f1,
    spans_to_bio,
    rewrite_file,
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
        assert u.slot_types_present() == {"city"}

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

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusFormatError, match="seq.in"):
            load_corpus(tmp_path)

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

    def test_index_maps_bijective(self):
        maps = build_label_maps([Utterance(["a"], "x", ["B-city"])])
        for seq, index in (
            (maps.intents, maps.intent_index),
            (maps.slot_types, maps.slot_type_index),
            (maps.bio_labels, maps.bio_index),
        ):
            assert [index[x] for x in seq] == list(range(len(seq)))


class TestAuxTargets:
    def test_single_slot_token(self):
        maps = LabelMaps(["x"], ["O", "city"], ["B-city", "I-city", "O"])
        out = generate_aux_targets(["O", "O", "O", "B-city"], maps)
        np.testing.assert_array_equal(out[:, maps.slot_type_index["city"]], [0, 0, 0, 1])
        np.testing.assert_array_equal(out[:, maps.slot_type_index["O"]], [1, 1, 1, 0])

    def test_all_outside(self):
        maps = LabelMaps(["x"], ["O", "city"], ["B-city", "I-city", "O"])
        out = generate_aux_targets(["O", "O"], maps)
        np.testing.assert_array_equal(out[:, maps.slot_type_index["O"]], [1, 1])
        np.testing.assert_array_equal(out[:, maps.slot_type_index["city"]], [0, 0])

    def test_negative_type_all_zero(self):
        maps = build_label_maps(
            [Utterance(["a", "b"], "x", ["B-city", "B-day"])]
        )
        out = generate_aux_targets(["B-city", "I-city", "O"], maps)
        np.testing.assert_array_equal(out[:, maps.slot_type_index["city"]], [1, 1, 0])
        np.testing.assert_array_equal(out[:, maps.slot_type_index["day"]], [0, 0, 0])
        np.testing.assert_array_equal(out[:, maps.slot_type_index["O"]], [0, 0, 1])

    def test_unknown_tag_rejected(self):
        maps = LabelMaps(["x"], ["O", "city"], ["B-city", "I-city", "O"])
        with pytest.raises(UnknownLabelError, match="day"):
            generate_aux_targets(["B-day"], maps)

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
            out = generate_aux_targets(tags, maps)
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
        np.testing.assert_array_equal(batch.lengths, [3, 5])
        assert (batch.slot_targets[0, 3:] == -1).all()
        assert (batch.aux_targets[0, 3:] == 0).all()
        assert (batch.token_ids[0, 3:] == PAD_ID).all()

    def test_truncation_counter(self, setting):
        corpus, maps, vocab = setting
        long_u = Utterance(["word"] * 60, "book_hotel", ["O"] * 60)
        batch = encode_batch([long_u], maps, vocab, max_len=50)
        assert batch.max_len == 50
        assert batch.truncated == 1
        assert encode_batch(corpus, maps, vocab, max_len=50).truncated == 0
        kept = encode_batch([long_u], maps, vocab)
        assert kept.max_len == 60
        assert kept.truncated == 0

    def test_rows_select_and_trim_padding(self, setting):
        corpus, maps, vocab = setting
        long_u = Utterance(["word"] * 60, "book_hotel", ["O"] * 60)
        batch = encode_batch([corpus[0], long_u, corpus[1]], maps, vocab, max_len=50)
        sub = batch.rows(np.array([0, 2]))
        short = encode_batch([corpus[0], corpus[1]], maps, vocab)
        for name in ("token_ids", "mask", "lengths", "intent_targets", "slot_targets",
                     "aux_targets"):
            np.testing.assert_array_equal(getattr(sub, name), getattr(short, name))
        assert (batch.truncated, sub.truncated) == (1, 0)

    def test_unknown_token_maps_to_unk(self, setting):
        corpus, maps, vocab = setting
        u = Utterance(["fly", "somewhere"], "book_flight", ["O", "O"])
        batch = encode_batch([u], maps, vocab)
        assert batch.token_ids[0, 0] == vocab.lookup("fly") != UNK_ID
        assert batch.token_ids[0, 1] == UNK_ID

    def test_lookup_is_case_insensitive(self, setting):
        _, _, vocab = setting
        assert vocab.lookup("Boston") == vocab.lookup("boston") != UNK_ID

    def test_targets_and_aux_agree(self, setting):
        corpus, maps, vocab = setting
        batch = encode_batch(corpus, maps, vocab)
        assert batch.intent_targets[0] == maps.intent_index["book_flight"]
        assert batch.slot_targets[0, 2] == maps.bio_index["B-city"]
        assert batch.aux_targets[0, 2, maps.slot_type_index["city"]] == 1

    def test_unknown_labels_rejected(self, setting):
        corpus, maps, vocab = setting
        with pytest.raises(UnknownLabelError, match="play_music"):
            encode_batch([Utterance(["a"], "play_music", ["O"])], maps, vocab)
        with pytest.raises(UnknownLabelError, match="B-genre"):
            encode_batch([Utterance(["a"], "book_flight", ["B-genre"])], maps, vocab)

    def test_empty_batch_rejected(self, setting):
        _, maps, vocab = setting
        with pytest.raises(ValueError, match="empty batch"):
            encode_batch([], maps, vocab)


def of_lengths(lengths):
    return [Utterance(["w"] * l, "i", ["O"] * l) for l in lengths]


class TestLengthGroups:
    def test_desk_lengths_make_one_group(self):
        lengths = [6 + i % 8 for i in range(25)]  # 6-13, three or four of each
        groups = length_groups(of_lengths(lengths), 50, 32)
        assert len(groups) == 1
        np.testing.assert_array_equal(groups[0], np.arange(25))  # the caller's order

    def test_bimodal_mix_makes_two_groups(self):
        rng = np.random.default_rng(0)
        lengths = [int(rng.integers(2, 5)) if i % 2 else int(rng.integers(33, 48))
                   for i in range(25)]
        groups = length_groups(of_lengths(lengths), 50, 32)
        assert len(groups) == 2
        assert max(lengths[i] for i in groups[0]) <= 4
        assert min(lengths[i] for i in groups[1]) >= 33

    def test_groups_cover_every_index_in_length_order_and_bounded_size(self):
        lengths = np.random.default_rng(1).integers(1, 60, size=70)
        groups = length_groups(of_lengths(lengths), 50, 32)
        truncated = np.minimum(lengths, 50)
        np.testing.assert_array_equal(np.sort(np.concatenate(groups)), np.arange(70))
        assert all(1 <= len(g) <= 32 and (np.diff(g) > 0).all() for g in groups)
        for a, b in zip(groups, groups[1:]):
            assert truncated[a].max() <= truncated[b].min()

    def test_split_by_length_cuts_only_when_it_saves_more_than_the_bound(self):
        lengths = np.array([12, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1])  # the cut saves 10 * 11
        assert [g.tolist() for g in split_by_length(lengths, 109)] == [
            list(range(1, 11)), [0]]
        assert [g.tolist() for g in split_by_length(lengths, 110)] == [list(range(11))]
        assert [g.tolist() for g in split_by_length(np.array([5]), 0)] == [[0]]

    def test_no_utterances_no_groups(self):
        assert length_groups([], 50, 32) == []


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
