"""Two robustness studies: (a) what each architectural piece costs and
contributes, (b) how stable the attention maps are under small controlled
edits to an utterance (slot value swap, carrier-word synonym, or both).
"""

from dataclasses import replace

from slotlens import (
    ABLATION_FLAGS,
    RunConfig,
    Vocab,
    build_label_maps,
    consistency_analysis,
    default_grammar,
    evaluate,
    generate_synthetic_corpus,
    modification_pairs,
    train_model,
    JointModel,
)

grammar = default_grammar()
train = generate_synthetic_corpus(seed=0, n=80, grammar=grammar)
test = generate_synthetic_corpus(seed=1, n=30, grammar=grammar)
maps = build_label_maps(train)
vocab = Vocab.build(train)
base = dict(batch_size=16, lr=1e-3, d=16, d_h=8, n_layers=1, n_heads=2,
            ffn_dim=32)

# parameter cost of each piece, no training needed
full_config = RunConfig(**base).model_config(len(vocab), maps)
full_n = JointModel(full_config).n_params()
print(f"{'mode':34s} {'params':>8s}  {'delta':>7s}")
print(f"{'full':34s} {full_n:8d}  {0:7d}")
for flag in ABLATION_FLAGS:
    n = JointModel(replace(full_config, **{flag: True})).n_params()
    print(f"{flag:34s} {n:8d}  {n - full_n:7d}")

# quick trained comparison of the structural ablations
print("\ntrained 15 epochs each:")
print(f"{'mode':34s} {'intent_acc':>10s} {'slot_f1':>8s}")
for mode in ("full", "no_aux_network", "frozen_uniform_type_attention"):
    flags = {} if mode == "full" else {mode: True}
    run = RunConfig(epochs=15, **base, **flags)
    model = train_model(train, maps, vocab, run).model
    m = evaluate(model, test, maps, vocab)
    print(f"{mode:34s} {m.intent_accuracy:10.3f} {m.slot_f1:8.3f}")

# consistency: cosine similarity of per-type attention rows across an
# original/modified utterance pair, 1.0 = identical maps
model = train_model(train, maps, vocab, RunConfig(epochs=15, **base)).model
pairs = modification_pairs(test[:12], grammar, seed=4)
report = consistency_analysis(model, pairs, maps, vocab)
print(f"\n{len(pairs)} modification pairs, mean consistency by category:")
for category, mean in report.category_means.items():
    print(f"  {category:10s} {mean:.4f}")

orig, mod, category = pairs[0]
print(f"\nexample {category} pair:")
print(f"  original: {' '.join(orig.tokens)}")
print(f"  modified: {' '.join(mod.tokens)}")
