"""Three-branch joint network: intent classifier, slot-type weight and
feature generator (per-type single-head attentions supervised by binary
type classifiers), and a cross-attention feature-fusion slot classifier.

Each type's value projection and its binary head are both linear, so they
act as one d->1 map applied under the type's attention map: the generator
builds its (B, |T|, L, L) maps and one value per type and token, never
(B, |T|, L, d_h) attended features.

The joint loss is alpha*L_intent + beta*L_type + gamma*L_slot. Batch
reduction is the mean over utterances; the binary type loss is pooled
over all contributing (token, type) cells, so a batch with lengths 3 and
5 and four types divides by 32.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import reduce

import numpy as np

from .data import SPLIT_MIN_SAVED, Batch, split_by_length
from .encoder import (
    attend, attention_weights, declare_encoder_params, encode, project_heads,
)
from .optim import ParamSet, xavier_uniform
from .tensor import (
    Tensor,
    add,
    affine,
    binary_cross_entropy,
    concat,
    cross_entropy_rows,
    dropout,
    dropout_mask,
    layer_norm,
    matmul,
    no_grad,
    reshape,
    scale,
    transpose,
)

@dataclass(frozen=True)
class ModelConfig:
    """Network sizes, loss weights, and ablation switches."""

    vocab_size: int
    n_intents: int
    n_slot_types: int
    n_bio_labels: int
    d: int = 64
    d_h: int = 32
    n_layers: int = 2
    n_heads: int = 4
    ffn_dim: int = 128
    max_positions: int = 51
    dropout_rate: float = 0.1
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0
    no_aux_network: bool = False
    no_cross_attention: bool = False
    no_intent_concat: bool = False
    no_aux_loss: bool = False
    frozen_uniform_type_attention: bool = False

    def __post_init__(self):
        for name in ("d", "n_heads", "ffn_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.n_layers < 0:
            raise ValueError(f"n_layers must be non-negative, got {self.n_layers}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.d % self.n_heads != 0:
            raise ValueError(
                f"model dimension {self.d} not divisible by {self.n_heads} heads"
            )
        if self.max_positions < 2:
            raise ValueError("max_positions must cover at least one token plus CLS")
        if self.d_h < 1:
            raise ValueError("d_h must be at least 1")
        for name in ("alpha", "beta", "gamma"):
            w = getattr(self, name)
            if not 0 <= w < math.inf:
                raise ValueError(f"loss weight {name} must be finite and non-negative, got {w}")
        if self.n_bio_labels != 2 * (self.n_slot_types - 1) + 1:
            raise ValueError(
                f"{self.n_bio_labels} BIO labels inconsistent with "
                f"{self.n_slot_types} slot types"
            )

    @property
    def max_len(self) -> int:
        """The most tokens an utterance keeps: one position goes to CLS."""
        return self.max_positions - 1

    @property
    def has_aux_network(self) -> bool:
        return not self.no_aux_network

    @property
    def aux_loss_weight(self) -> float:
        """Effective beta: zero when the aux network or its loss is disabled."""
        if self.no_aux_network or self.no_aux_loss:
            return 0.0
        return self.beta


# the switches are the config's bool fields, in declaration order
ABLATION_FLAGS = tuple(f.name for f in fields(ModelConfig) if isinstance(f.default, bool))


@dataclass
class ForwardOutput:
    """The four loss terms of one training pass, as graph tensors; the
    network's outputs are read through :func:`infer`."""

    loss_intent: Tensor
    loss_type: Tensor
    loss_slot: Tensor
    loss_total: Tensor


def declare_model_params(
    params: ParamSet,
    config: ModelConfig,
    rng: np.random.Generator | None,
    dtype=np.float32,
) -> None:
    """Declare encoder and head parameters; the allocation draws them from
    ``rng`` in this order."""
    declare_encoder_params(params, config, rng, dtype)
    d, d_h = config.d, config.d_h

    def lin(prefix, fan_in, fan_out):
        params.declare(f"{prefix}.w", (fan_in, fan_out),
                       lambda: xavier_uniform(rng, fan_in, fan_out, dtype=dtype))
        params.declare(f"{prefix}.b", (fan_out,), 0.0)

    def norm(prefix, width):
        params.declare(f"{prefix}.gain", (width,), 1.0)
        params.declare(f"{prefix}.bias", (width,), 0.0)

    lin("intent", d, config.n_intents)
    if config.has_aux_network:
        fused = d if config.no_intent_concat else d + config.n_intents
        norm("fusion.ln", fused)
        lin("fusion.ll", fused, d)
        for name in ("q", "k", "v"):
            lin(f"fusion.sa.{name}", d, d)
        norm("fusion.post_ln", d)
        T, drawn = config.n_slot_types, {}

        def draw_type_weights():
            """Every type's q, k, v and head weights, type after type in that
            order; returns the q stack and keeps the others for their own
            initialisers."""
            per_type = [[xavier_uniform(rng, d, d_h, dtype=dtype) for _ in "qkv"]
                        + [xavier_uniform(rng, d_h, 1, dtype=dtype)] for _ in range(T)]
            q, k, v, head = zip(*per_type)
            drawn.update(k=np.hstack(k), v=np.hstack(v), head=np.stack(head))
            return np.hstack(q)

        for name in ("q", "k", "v"):
            params.declare(f"type_gen.{name}.w", (d, T * d_h), draw_type_weights
                           if name == "q" else lambda name=name: drawn.pop(name))
            params.declare(f"type_gen.{name}.b", (T * d_h,), 0.0)
        params.declare("type_gen.head.w", (T, d_h, 1), lambda: drawn.pop("head"))
        params.declare("type_gen.head.b", (T,), 0.0)
        if not config.no_cross_attention:
            lin("cross.proj", config.n_slot_types, d)
            for name in ("q", "k", "v"):
                lin(f"cross.{name}", d, d)
    norm("slot_out.ln", d)
    lin("slot_out.ll", d, d)
    lin("slot", d, config.n_bio_labels)


def type_generator_param_count(config: ModelConfig) -> int:
    """Closed form: each type adds three d->d_h projections plus a
    d_h->1 head, all with biases."""
    d, d_h = config.d, config.d_h
    per_type = 3 * (d * d_h + d_h) + d_h + 1
    return config.n_slot_types * per_type


# sub-networks, each over the whole padded batch ------------------------------


def intent_head(u_c: Tensor, params: ParamSet) -> Tensor:
    """Intent logits from the context vectors."""
    return affine(u_c, params["intent.w"], params["intent.b"])


def intent_fusion(
    u_e: Tensor,
    g_intent: Tensor,
    mask: np.ndarray,
    params: ParamSet,
    config: ModelConfig,
    keep: np.ndarray | None = None,
) -> Tensor:
    """Fuse intent logits into token states via a single-head self
    attention over the normalized, projected concatenation; the residual
    uses the clean token states.  ``mask`` (B, L) marks the valid tokens;
    ``keep`` is the (B, L, d) dropout mask, None for no dropout."""
    B = u_e.shape[0]
    x = dropout(u_e, keep)
    if not config.no_intent_concat:
        x = concat([x, reshape(g_intent, (B, 1, config.n_intents))])
    x = layer_norm(x, params["fusion.ln.gain"], params["fusion.ln.bias"])
    x = affine(x, params["fusion.ll.w"], params["fusion.ll.b"])
    q, k, v = (affine(x, params[f"fusion.sa.{p}.w"], params[f"fusion.sa.{p}.b"]) for p in "qkv")
    u_sa = attend(q, k, v, mask[:, None, :])
    return layer_norm(
        add(u_e, u_sa), params["fusion.post_ln.gain"], params["fusion.post_ln.bias"]
    )


def slot_type_attention(
    u_hat: Tensor, mask: np.ndarray, params: ParamSet, config: ModelConfig
) -> Tensor:
    """All |T| single-head attention maps at width d_h as one attention
    whose heads are the slot types: ``type_gen.q.w`` and ``type_gen.k.w``
    store the per-type (d, d_h) weights side by side.

    Returns the maps alpha (B, |T|, L, L); the values they weigh are formed
    by :func:`slot_type_heads`. Frozen-uniform mode replaces the softmax
    with a constant 1/l map over the valid keys.
    """
    keys = mask[:, None, None, :]
    if config.frozen_uniform_type_attention:
        B, L = mask.shape
        uniform = (keys / keys.sum(axis=-1, keepdims=True)).astype(u_hat.dtype)
        return Tensor(np.broadcast_to(uniform, (B, config.n_slot_types, L, L)))
    q, k = (project_heads(u_hat, params[f"type_gen.{p}.w"], params[f"type_gen.{p}.b"],
                          config.n_slot_types) for p in "qk")
    return attention_weights(q, k, keys)


def slot_type_heads(
    u_hat: Tensor, alpha: Tensor, params: ParamSet, config: ModelConfig
) -> Tensor:
    """Per-type binary logits (B, L, |T|). Type t's value projection
    (column block t of ``type_gen.v.{w,b}``) and its d_h->1 head
    (``type_gen.head.w[t]``) are both linear, so they act as one d->1 map,
    w_t = W_v^t w_head^t and c_t = b_v^t . w_head^t, formed in the graph
    from the stored tensors. Column t is alpha_t (u_hat w_t + c_t) plus
    ``type_gen.head.b[t]``: no (B, |T|, L, d_h) values are built."""
    B, L, d = u_hat.shape
    T, head = config.n_slot_types, params["type_gen.head.w"]  # (T, d_h, 1)
    w_v = transpose(reshape(params["type_gen.v.w"], (d, T, -1)), (1, 0, 2))  # (T, d, d_h)
    w = transpose(reshape(matmul(w_v, head), (T, d)))  # (d, T)
    c = reshape(matmul(reshape(params["type_gen.v.b"], (T, 1, -1)), head), (T,))
    values = reshape(transpose(affine(u_hat, w, c), (0, 2, 1)), (B, T, L, 1))
    logits = reshape(matmul(alpha, values), (B, T, L))
    return add(transpose(logits, (0, 2, 1)), params["type_gen.head.b"])


def fusion_cross_attention(
    u_e: Tensor, g_type: Tensor | None, mask: np.ndarray, params: ParamSet,
    config: ModelConfig,
) -> Tensor:
    """Cross attention: queries from token states, keys and values from
    the projected type logits; then residual, norm, and a final linear."""
    if config.no_cross_attention or config.no_aux_network:
        fused = u_e
    else:
        g_p = affine(g_type, params["cross.proj.w"], params["cross.proj.b"])
        q = affine(u_e, params["cross.q.w"], params["cross.q.b"])
        k = affine(g_p, params["cross.k.w"], params["cross.k.b"])
        v = affine(g_p, params["cross.v.w"], params["cross.v.b"])
        attended = attend(q, k, v, mask[:, None, :])
        fused = add(u_e, attended)
    normed = layer_norm(fused, params["slot_out.ln.gain"], params["slot_out.ln.bias"])
    return affine(normed, params["slot_out.ll.w"], params["slot_out.ll.b"])


def slot_head(u_slot: Tensor, params: ParamSet) -> Tensor:
    """Per-token BIO logits."""
    return affine(u_slot, params["slot.w"], params["slot.b"])


# batched forward ---------------------------------------------------------------


def _network(
    batch: Batch,
    config: ModelConfig,
    params: ParamSet,
    keeps: tuple[np.ndarray | None, np.ndarray | None] = (None, None),
) -> tuple[Tensor, Tensor | None, Tensor | None, Tensor]:
    """The network body over the padded batch: intent logits, per-type
    logits and attention maps (both None without the aux network), and
    slot logits. ``keeps`` holds the embedding and fusion dropout masks,
    None where no dropout applies. Each sub-network is looked up as a
    module global, so a wrapper installed on this module sees every call."""
    u_e, u_c = encode(batch, config, params, keep=keeps[0])
    g_intent = intent_head(u_c, params)
    g_type = alpha = None
    if config.has_aux_network:
        u_hat = intent_fusion(u_e, g_intent, batch.mask, params, config, keep=keeps[1])
        alpha = slot_type_attention(u_hat, batch.mask, params, config)
        g_type = slot_type_heads(u_hat, alpha, params, config)
    u_slot = fusion_cross_attention(u_e, g_type, batch.mask, params, config)
    return g_intent, g_type, alpha, slot_head(u_slot, params)


def _dropout_masks(
    batch: Batch, config: ModelConfig, params: ParamSet, rng: np.random.Generator
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """A training pass's two dropout masks over the whole batch, drawn in
    the order the one-graph pass draws them: the embedding mask
    (B, L + 1, d) for b = 0..B-1, then, when the aux network runs, the
    fusion mask (B, L, d) for b = 0..B-1."""
    rate = config.dropout_rate
    if rate == 0.0:
        return None, None
    B, L = batch.token_ids.shape
    embed = dropout_mask((B, L + 1, config.d), rate, rng, batch.lengths + 1, params.dtype)
    if not config.has_aux_network:
        return embed, None
    return embed, dropout_mask((B, L, config.d), rate, rng, batch.lengths, params.dtype)


def forward(
    batch: Batch,
    config: ModelConfig,
    params: ParamSet,
    rng: np.random.Generator | None = None,
) -> ForwardOutput:
    """Run the network over the padded batch and return the mean-over-batch
    losses against the batch's gold labels. Dropout runs exactly when
    ``rng`` is given.

    When splitting the batch by length saves more than ``SPLIT_MIN_SAVED``
    padded positions per extra pass (:func:`split_by_length`), the
    network runs once per sub-batch, each padded to its own longest
    utterance. Every sub-batch's loss terms divide by the whole batch's
    counts and are summed, and dropout masks are drawn for the whole batch
    before any sub-batch runs and then sliced, so the losses are the
    one-graph losses up to float rounding. Otherwise the one graph runs."""
    B = batch.size
    n_type_cells = int(batch.lengths.sum()) * config.n_slot_types
    keeps = (None, None) if rng is None else _dropout_masks(batch, config, params, rng)
    groups = split_by_length(batch.lengths, SPLIT_MIN_SAVED, B)
    terms = []
    for idx in groups:
        sub, sub_keeps = batch, keeps
        if len(groups) > 1:
            sub = batch.rows(idx)
            # each mask loses the trailing columns only longer rows fill
            cut = batch.max_len - sub.max_len
            sub_keeps = tuple(None if k is None else k[idx, : k.shape[1] - cut] for k in keeps)
        g_intent, g_type, _, g_slot = _network(sub, config, params, sub_keeps)
        loss_type = Tensor(0.0)
        if config.has_aux_network:
            types = sub.type_targets[..., None] == np.arange(config.n_slot_types)
            loss_type = binary_cross_entropy(g_type, types, n_type_cells, sub.mask[..., None])
        terms.append((cross_entropy_rows(g_intent, sub.intent_targets, B), loss_type,
                      cross_entropy_rows(g_slot, sub.slot_targets, B)))
    loss_intent, loss_type, loss_slot = (reduce(add, ts) for ts in zip(*terms))

    loss_total = scale(loss_intent, config.alpha)
    if config.aux_loss_weight > 0:
        loss_total = add(loss_total, scale(loss_type, config.aux_loss_weight))
    loss_total = add(loss_total, scale(loss_slot, config.gamma))
    return ForwardOutput(loss_intent, loss_type, loss_slot, loss_total)


Outputs = tuple[np.ndarray, np.ndarray | None, np.ndarray | None, np.ndarray]


def infer(batch: Batch, config: ModelConfig, params: ParamSet) -> Outputs:
    """One graph-free pass over the padded batch: the network's outputs in
    the parameters' dtype, intent logits (B, |I|), per-type logits
    (B, L, |T|), per-type attention maps (B, |T|, L, L), and slot logits
    (B, L, |S|); the two per-type arrays are None without the aux network.
    Pad cells hold unspecified values, except that attention puts zero
    weight on pad keys."""
    with no_grad():
        outputs = _network(batch, config, params)
    return tuple(None if t is None else t.data for t in outputs)


class JointModel:
    """Bundles a configuration with its parameter set."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator | int | None = 0,
                 dtype=np.float32):
        """``rng=None`` declares the parameters without drawing or allocating
        them, for a caller that allocates them around stored arenas
        (:meth:`ParamSet.allocate`)."""
        if isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(rng)
        self.config = config
        self.params = ParamSet()
        declare_model_params(self.params, config, rng, dtype)
        if rng is not None:
            self.params.allocate(dtype)

    def forward(self, batch: Batch, rng: np.random.Generator | None = None) -> ForwardOutput:
        return forward(batch, self.config, self.params, rng)

    def infer(self, batch: Batch) -> Outputs:
        return infer(batch, self.config, self.params)

    def predict(self, batch: Batch) -> tuple[np.ndarray, np.ndarray]:
        """Argmax decoding: intent ids (B,) and BIO label ids (B, L), -1 at
        pad as in ``Batch.slot_targets``; ties break toward the lower index."""
        intent_logits, _, _, slot_logits = self.infer(batch)
        return intent_logits.argmax(axis=1), np.where(batch.mask, slot_logits.argmax(axis=2), -1)

    def n_params(self, prefix: str = "") -> int:
        return self.params.size(prefix)
