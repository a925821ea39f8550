"""Compact trainable transformer encoder standing in for BERT.

Token plus learned absolute position embeddings, a learned classification
vector prepended at position 0, and a stack of post-norm encoder layers
(residual then layer norm). A batch is encoded in one pass over padded
(B, L, d) tensors, with multi-head attention split by reshaping; pad
positions are masked out as attention keys, so valid outputs never depend
on batch composition.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .data import Batch
from .optim import ParamSet, xavier_uniform
from .tensor import (
    Tensor,
    add,
    affine,
    concat,
    dropout,
    gather_rows,
    layer_norm,
    matmul,
    relu,
    reshape,
    softmax_masked,
    transpose,
)

if TYPE_CHECKING:
    from .model import ModelConfig

EMBED_INIT_SCALE = 0.02


def declare_encoder_params(
    params: ParamSet,
    config: ModelConfig,
    rng: np.random.Generator | None,
    dtype=np.float32,
) -> None:
    """Declare all encoder parameters under the ``encoder.`` namespace; the
    allocation draws them from ``rng`` in this order."""
    d, ffn = config.d, config.ffn_dim

    def emb(name, shape):
        params.declare(name, shape, lambda: EMBED_INIT_SCALE * rng.standard_normal(shape))

    def lin(name, fan_in, fan_out):
        params.declare(name, (fan_in, fan_out),
                       lambda: xavier_uniform(rng, fan_in, fan_out, dtype=dtype))

    emb("encoder.tok_emb", (config.vocab_size, d))
    emb("encoder.pos_emb", (config.max_positions, d))
    emb("encoder.cls_emb", (d,))
    for i in range(config.n_layers):
        p = f"encoder.layer{i}"
        for name in ("wq", "wk", "wv", "wo"):
            lin(f"{p}.attn.{name}", d, d)
        for name in ("bq", "bk", "bv", "bo"):
            params.declare(f"{p}.attn.{name}", (d,), 0.0)
        lin(f"{p}.ffn.w1", d, ffn)
        params.declare(f"{p}.ffn.b1", (ffn,), 0.0)
        lin(f"{p}.ffn.w2", ffn, d)
        params.declare(f"{p}.ffn.b2", (d,), 0.0)
        for ln in ("ln1", "ln2"):
            params.declare(f"{p}.{ln}.gain", (d,), 1.0)
            params.declare(f"{p}.{ln}.bias", (d,), 0.0)


def project_heads(x: Tensor, w: Tensor, b: Tensor, n_heads: int) -> Tensor:
    """Project ``x`` (B, L, d) by ``w`` (d, n_heads * d_k) and split the
    result into heads: (B, n_heads, L, d_k)."""
    B, L, _ = x.shape
    return transpose(reshape(affine(x, w, b), (B, L, n_heads, -1)), (0, 2, 1, 3))


def attention_weights(q: Tensor, k: Tensor, key_mask: np.ndarray) -> Tensor:
    """Scaled dot-product attention weights over the last two axes;
    ``key_mask`` broadcasts against the scores and hides pad keys."""
    return softmax_masked(matmul(q, transpose(k)), key_mask, 1.0 / np.sqrt(q.shape[-1]))


def attend(q: Tensor, k: Tensor, v: Tensor, key_mask: np.ndarray) -> Tensor:
    """The values ``v`` attended by scaled dot-product attention
    (:func:`attention_weights`)."""
    return matmul(attention_weights(q, k, key_mask), v)


def _self_attention(x: Tensor, key_mask: np.ndarray, params: ParamSet, prefix: str,
                    config: ModelConfig) -> Tensor:
    B, n, d = x.shape
    q, k, v = (
        project_heads(x, params[f"{prefix}.w{p}"], params[f"{prefix}.b{p}"], config.n_heads)
        for p in "qkv"
    )
    heads = attend(q, k, v, key_mask)
    joined = reshape(transpose(heads, (0, 2, 1, 3)), (B, n, d))
    return affine(joined, params[f"{prefix}.wo"], params[f"{prefix}.bo"])


def encode(
    batch: Batch,
    config: ModelConfig,
    params: ParamSet,
    keep: np.ndarray | None = None,
) -> tuple[Tensor, Tensor]:
    """Encode the padded batch in one pass.

    Returns the per-token states (B, L, d), classification position
    excluded, and the classification vectors (B, d).  Pad positions are
    hidden as attention keys, so valid states do not depend on batch
    composition; the pad rows themselves carry no meaning.  ``keep`` is
    the (B, L + 1, d) embedding dropout mask, None for no dropout.
    """
    B, L = batch.token_ids.shape
    n = L + 1  # classification position prepended
    if n > config.max_positions:
        raise ValueError(
            f"utterance needs {n} positions but max_positions is {config.max_positions}"
        )
    cls = reshape(params["encoder.cls_emb"], (1, 1, config.d))
    tok = gather_rows(params["encoder.tok_emb"], batch.token_ids)
    pos = gather_rows(params["encoder.pos_emb"], np.arange(n))
    x = add(concat([cls, tok], axis=1), pos)
    x = dropout(x, keep)
    key_mask = np.ones((B, 1, 1, n), dtype=bool)
    key_mask[:, 0, 0, 1:] = batch.mask
    for i in range(config.n_layers):
        prefix = f"encoder.layer{i}"
        attn = _self_attention(x, key_mask, params, f"{prefix}.attn", config)
        x = layer_norm(add(x, attn), params[f"{prefix}.ln1.gain"], params[f"{prefix}.ln1.bias"])
        ffn = affine(
            relu(affine(x, params[f"{prefix}.ffn.w1"], params[f"{prefix}.ffn.b1"])),
            params[f"{prefix}.ffn.w2"],
            params[f"{prefix}.ffn.b2"],
        )
        x = layer_norm(add(x, ffn), params[f"{prefix}.ln2.gain"], params[f"{prefix}.ln2.bias"])
    return x[:, 1:], x[:, 0]
