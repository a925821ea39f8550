import numpy as np
import pytest

from slotlens.data import OUTSIDE, build_label_maps, extract_spans
from slotlens.synth import (
    Grammar,
    default_grammar,
    generate_synthetic_corpus,
    modification_pairs,
    modify_utterance,
)


def tiny_grammar(**overrides):
    fields = dict(
        templates={
            "book_flight": ("book a flight to {city} on {day}",),
            "greet": ("hello there",),
        },
        lexicons={"city": ("boston", "new york"), "day": ("monday",)},
        synonym_groups=(("hello", "hi"),),
    )
    fields.update(overrides)
    return Grammar(**fields)


class TestGrammar:
    def test_template_fill_layout(self):
        g = tiny_grammar(lexicons={"city": ("boston",), "day": ("monday",)})
        corpus = generate_synthetic_corpus(seed=0, n=40, grammar=g)
        flights = [u for u in corpus if u.intent == "book_flight"]
        assert flights, "sampler never chose the flight intent"
        for u in flights:
            assert u.tokens == ["book", "a", "flight", "to", "boston", "on", "monday"]
            assert u.bio_tags == ["O", "O", "O", "O", "B-city", "O", "B-day"]

    def test_multiword_value_gets_inside_tags(self):
        g = tiny_grammar(lexicons={"city": ("new york",), "day": ("monday",)})
        corpus = generate_synthetic_corpus(seed=0, n=40, grammar=g)
        flights = [u for u in corpus if u.intent == "book_flight"]
        for u in flights:
            assert u.bio_tags[4:6] == ["B-city", "I-city"]
            assert u.tokens[4:6] == ["new", "york"]

    def test_rejects_single_intent(self):
        with pytest.raises(ValueError, match="2 intents"):
            tiny_grammar(templates={"greet": ("hello",)})

    def test_rejects_single_slot_type(self):
        with pytest.raises(ValueError, match="slot types"):
            tiny_grammar(lexicons={"city": ("boston",)})

    def test_rejects_zero_templates(self):
        with pytest.raises(ValueError, match="zero templates"):
            tiny_grammar(templates={"book_flight": (), "greet": ("hello",)})

    def test_rejects_unknown_placeholder(self):
        with pytest.raises(ValueError, match="unknown slot type"):
            tiny_grammar(
                templates={"a": ("fly to {moon}",), "b": ("hello",)},
            )

    def test_rejects_empty_lexicon(self):
        with pytest.raises(ValueError, match="empty lexicon"):
            tiny_grammar(lexicons={"city": (), "day": ("monday",)})


class TestGeneration:
    def test_deterministic_under_seed(self):
        a = generate_synthetic_corpus(seed=11, n=100)
        b = generate_synthetic_corpus(seed=11, n=100)
        assert a == b

    def test_different_seeds_differ(self):
        assert generate_synthetic_corpus(seed=1, n=50) != generate_synthetic_corpus(
            seed=2, n=50
        )

    @pytest.mark.parametrize("n", [0, -3])
    def test_count_below_one_is_rejected(self, n):
        with pytest.raises(ValueError, match=f"at least 1, got {n}"):
            generate_synthetic_corpus(seed=0, n=n)

    def test_default_grammar_label_inventory(self):
        """200 samples hit 3 intents and 4 non-O types (|T| = 5 with O)."""
        corpus = generate_synthetic_corpus(seed=0, n=200)
        maps = build_label_maps(corpus)
        assert maps.n_intents == 3
        assert maps.n_slot_types == 5
        assert any(t.startswith("I-") for u in corpus for t in u.bio_tags)

    def test_spans_come_from_lexicons(self):
        g = default_grammar()
        for u in generate_synthetic_corpus(seed=3, n=100):
            for span in extract_spans(u.bio_tags):
                surface = " ".join(u.tokens[span.start : span.end + 1])
                assert surface in g.lexicons[span.type]


class TestModifications:
    @pytest.fixture
    def pairs(self):
        g = default_grammar()
        corpus = generate_synthetic_corpus(seed=5, n=60, grammar=g)
        return modification_pairs(corpus, g, seed=9)

    def test_every_category_appears(self, pairs):
        assert {c for _, _, c in pairs} == {"slot-only", "text-only", "both"}

    def test_modifications_preserve_length_and_labels(self, pairs):
        for orig, mod, _ in pairs:
            assert len(mod.tokens) == len(orig.tokens)
            assert mod.bio_tags == orig.bio_tags
            assert mod.intent == orig.intent
            assert mod.tokens != orig.tokens

    def test_slot_only_changes_stay_inside_spans(self, pairs):
        for orig, mod, category in pairs:
            if category != "slot-only":
                continue
            changed = {i for i, (a, b) in enumerate(zip(orig.tokens, mod.tokens)) if a != b}
            spans = extract_spans(orig.bio_tags)
            touched = {
                s.type for s in spans
                if changed & set(range(s.start, s.end + 1))
            }
            assert len(touched) == 1
            covering = [s for s in spans if changed <= set(range(s.start, s.end + 1))]
            assert covering, "slot-only change leaked outside a single span"

    def test_text_only_changes_one_outside_token(self, pairs):
        for orig, mod, category in pairs:
            if category != "text-only":
                continue
            changed = [i for i, (a, b) in enumerate(zip(orig.tokens, mod.tokens)) if a != b]
            assert len(changed) == 1
            assert orig.bio_tags[changed[0]] == OUTSIDE

    def test_both_touches_slot_and_carrier(self, pairs):
        for orig, mod, category in pairs:
            if category != "both":
                continue
            changed = {i for i, (a, b) in enumerate(zip(orig.tokens, mod.tokens)) if a != b}
            tags = [orig.bio_tags[i] for i in changed]
            assert any(t == OUTSIDE for t in tags)
            assert any(t != OUTSIDE for t in tags)

    def test_deterministic(self):
        g = default_grammar()
        corpus = generate_synthetic_corpus(seed=5, n=30, grammar=g)
        assert modification_pairs(corpus, g, seed=1) == modification_pairs(
            corpus, g, seed=1
        )

    def test_negative_seed_rejected(self):
        g = default_grammar()
        corpus = generate_synthetic_corpus(seed=5, n=3, grammar=g)
        with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
            modification_pairs(corpus, g, seed=-1)

    def test_unknown_category_rejected(self):
        g = default_grammar()
        u = generate_synthetic_corpus(seed=0, n=1, grammar=g)[0]
        with pytest.raises(ValueError, match="category"):
            modify_utterance(u, g, np.random.default_rng(0), "rewrite")

    def test_impossible_modification_returns_none(self):
        g = tiny_grammar(
            templates={"a": ("{city}",), "b": ("{day}",)},
            lexicons={"city": ("boston",), "day": ("monday",)},
            synonym_groups=(),
        )
        u = generate_synthetic_corpus(seed=0, n=1, grammar=g)[0]
        rng = np.random.default_rng(0)
        assert modify_utterance(u, g, rng, "slot-only") is None
        assert modify_utterance(u, g, rng, "text-only") is None
        assert modify_utterance(u, g, rng, "both") is None
