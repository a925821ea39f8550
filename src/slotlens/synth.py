"""Seeded template-grammar generator for desk-scale corpora.

Templates are whitespace-tokenized strings whose ``{type}`` placeholders are
filled from per-type value lexicons; multi-word values produce B-/I- tag
runs. The generator also derives controlled modification pairs (slot value
swapped, carrier word swapped, or both) for attention-consistency studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import OUTSIDE, Utterance, extract_spans

MODIFICATION_CATEGORIES = ("slot-only", "text-only", "both")


@dataclass(frozen=True)
class Grammar:
    """Intent templates plus slot-value lexicons and carrier-word synonyms."""

    templates: dict[str, tuple[str, ...]]  # intent -> sentence templates
    lexicons: dict[str, tuple[str, ...]]  # slot type -> surface values
    synonym_groups: tuple[tuple[str, ...], ...] = field(default=())

    def __post_init__(self):
        if len(self.templates) < 2:
            raise ValueError("grammar needs at least 2 intents")
        if len(self.lexicons) < 2:
            raise ValueError("grammar needs at least 2 non-O slot types")
        if OUTSIDE in self.lexicons:
            raise ValueError('"O" is not a fillable slot type')
        for intent, templates in self.templates.items():
            if not templates:
                raise ValueError(f"intent {intent!r} has zero templates")
            for template in templates:
                for tok in template.split():
                    if tok.startswith("{") and tok.endswith("}"):
                        kind = tok[1:-1]
                        if kind not in self.lexicons:
                            raise ValueError(
                                f"template {template!r} references unknown slot type {kind!r}"
                            )
        for kind, values in self.lexicons.items():
            if not values:
                raise ValueError(f"slot type {kind!r} has an empty lexicon")

    def synonym_lookup(self) -> dict[str, tuple[str, ...]]:
        """Map each carrier word to its synonym group."""
        out: dict[str, tuple[str, ...]] = {}
        for group in self.synonym_groups:
            for word in group:
                out[word] = group
        return out


def default_grammar() -> Grammar:
    """Three intents over four non-O slot types (so |T| = 5 with O)."""
    return Grammar(
        templates={
            "book_flight": (
                "book a flight to {city} on {day}",
                "i need a flight from {city} to {city} on {day}",
                "find me a {airline} flight to {city}",
                "reserve a seat with {airline} from {city} on {day}",
                "get me on a {airline} flight leaving {city} next {day}",
            ),
            "book_hotel": (
                "book a room at the {hotel} in {city}",
                "i need a hotel in {city} starting {day}",
                "reserve the {hotel} for {day} night",
                "find a room near {city} at the {hotel}",
            ),
            "get_weather": (
                "what is the weather in {city} on {day}",
                "will it rain in {city} this {day}",
                "give me the forecast for {city} please",
                "how cold is it in {city} on {day}",
            ),
        },
        lexicons={
            "city": (
                "boston",
                "denver",
                "chicago",
                "seattle",
                "atlanta",
                "new york",
                "los angeles",
                "san francisco",
                "salt lake city",
            ),
            "day": (
                "monday",
                "tuesday",
                "wednesday",
                "thursday",
                "friday",
                "saturday",
                "sunday",
            ),
            "airline": ("delta", "united", "alaska air", "american airlines"),
            "hotel": ("hilton", "marriott", "grand hyatt", "holiday inn"),
        },
        synonym_groups=(
            ("book", "reserve"),
            ("need", "want"),
            ("find", "show"),
            ("please", "now"),
            ("cold", "warm"),
        ),
    )


def _fill_template(template: str, grammar: Grammar, rng: np.random.Generator):
    tokens: list[str] = []
    tags: list[str] = []
    for tok in template.split():
        if tok.startswith("{") and tok.endswith("}"):
            kind = tok[1:-1]
            values = grammar.lexicons[kind]
            words = values[int(rng.integers(len(values)))].split()
            tokens.extend(words)
            tags.append(f"B-{kind}")
            tags.extend(f"I-{kind}" for _ in words[1:])
        else:
            tokens.append(tok)
            tags.append(OUTSIDE)
    return tokens, tags


def generate_synthetic_corpus(
    seed: int, n: int, grammar: Grammar | None = None
) -> list[Utterance]:
    """Sample ``n`` labeled utterances; identical seeds give identical corpora."""
    if n < 1:
        raise ValueError(f"utterance count must be at least 1, got {n}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if grammar is None:
        grammar = default_grammar()
    rng = np.random.default_rng(seed)
    intents = sorted(grammar.templates)
    corpus = []
    for _ in range(n):
        intent = intents[int(rng.integers(len(intents)))]
        templates = grammar.templates[intent]
        template = templates[int(rng.integers(len(templates)))]
        tokens, tags = _fill_template(template, grammar, rng)
        corpus.append(Utterance(tokens=tokens, intent=intent, bio_tags=tags))
    return corpus


# controlled modifications -----------------------------------------------------


def _swap_slot_value(
    u: Utterance, grammar: Grammar, rng: np.random.Generator
) -> Utterance | None:
    """Replace one slot's value with a different same-word-count value."""
    options = []
    for span in sorted(extract_spans(u.bio_tags), key=lambda s: s.start):
        width = span.end - span.start + 1
        current = " ".join(u.tokens[span.start : span.end + 1])
        alternatives = [
            v
            for v in grammar.lexicons.get(span.type, ())
            if len(v.split()) == width and v != current
        ]
        if alternatives:
            options.append((span, alternatives))
    if not options:
        return None
    span, alternatives = options[int(rng.integers(len(options)))]
    replacement = alternatives[int(rng.integers(len(alternatives)))].split()
    tokens = list(u.tokens)
    tokens[span.start : span.end + 1] = replacement
    return Utterance(tokens=tokens, intent=u.intent, bio_tags=list(u.bio_tags))


def _swap_carrier_word(
    u: Utterance, grammar: Grammar, rng: np.random.Generator
) -> Utterance | None:
    """Replace one non-slot token with a synonym, keeping length and tags."""
    lookup = grammar.synonym_lookup()
    options = []
    for i, (tok, tag) in enumerate(zip(u.tokens, u.bio_tags)):
        if tag != OUTSIDE:
            continue
        group = lookup.get(tok)
        if group is None:
            continue
        alternatives = [w for w in group if w != tok]
        if alternatives:
            options.append((i, alternatives))
    if not options:
        return None
    i, alternatives = options[int(rng.integers(len(options)))]
    tokens = list(u.tokens)
    tokens[i] = alternatives[int(rng.integers(len(alternatives)))]
    return Utterance(tokens=tokens, intent=u.intent, bio_tags=list(u.bio_tags))


def modify_utterance(
    u: Utterance, grammar: Grammar, rng: np.random.Generator, category: str
) -> Utterance | None:
    """Apply one modification category; None when the utterance offers no site."""
    if category == "slot-only":
        return _swap_slot_value(u, grammar, rng)
    if category == "text-only":
        return _swap_carrier_word(u, grammar, rng)
    if category == "both":
        swapped = _swap_slot_value(u, grammar, rng)
        if swapped is None:
            return None
        return _swap_carrier_word(swapped, grammar, rng)
    raise ValueError(f"unknown modification category {category!r}")


def modification_pairs(
    corpus: list[Utterance], grammar: Grammar, seed: int
) -> list[tuple[Utterance, Utterance, str]]:
    """(original, modified, category) triples, one attempt per category per
    utterance; utterances with no applicable site for a category are skipped.
    Modifications preserve token count so attention rows align one-to-one.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    pairs = []
    for u in corpus:
        for category in MODIFICATION_CATEGORIES:
            modified = modify_utterance(u, grammar, rng, category)
            if modified is not None:
                pairs.append((u, modified, category))
    return pairs
