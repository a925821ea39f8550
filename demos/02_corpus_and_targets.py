"""The three-file corpus format, BIO validation, and each token's slot-type
target, whose one-hot supervises the slot-type attentions."""

import tempfile
from pathlib import Path

from slotlens import (
    Vocab,
    build_label_maps,
    default_grammar,
    encode_batch,
    generate_synthetic_corpus,
    load_corpus,
    write_corpus,
)

corpus = generate_synthetic_corpus(seed=0, n=8, grammar=default_grammar())
for u in corpus[:3]:
    print(f"{u.intent:12s} {' '.join(u.tokens)}")
    print(f"{'':12s} {' '.join(u.bio_tags)}")

# round-trip through the on-disk format: seq.in / seq.out / label
with tempfile.TemporaryDirectory() as tmp:
    write_corpus(corpus, tmp)
    print("\nfiles:", sorted(p.name for p in Path(tmp).iterdir()))
    reloaded = load_corpus(tmp)
assert reloaded == corpus

maps = build_label_maps(corpus)
vocab = Vocab.build(corpus)
print(f"\nintents     {maps.intents}")
print(f"slot types  {maps.slot_types}")
print(f"bio labels  {maps.bio_labels}")
print(f"vocabulary  {len(vocab)} entries (pad/unk reserved)")

# each token's slot-type target: the index of its tag's type (-1 marks
# padding); the type generator's binary targets are its one-hot, so every
# token is a positive for exactly one type, O for the non-slot tokens
u = corpus[0]
types = encode_batch([u], maps, vocab).type_targets[0]
print(f"\ntype targets for: {' '.join(u.tokens)}")
for token, tag, t in zip(u.tokens, u.bio_tags, types):
    print(f"  {token:12s} {tag:10s} {t} ({maps.slot_types[t]})")
assert [maps.slot_types[t] for t in types] == [tag[2:] or "O" for tag in u.bio_tags]
