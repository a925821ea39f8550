"""Attention analysis: per-type attention extraction, top-k% entropy
quantification, positive/negative slot-type comparison, modification
consistency scoring, and self-contained HTML heatmaps.

Entropy is base 2 over the normalized weight list, so a uniform l-by-l
matrix scores log2(l^2) at k=100. The report's diff column is always
negative minus positive: sharper (lower-entropy) positive types push it up.
"""

from __future__ import annotations

import html
from dataclasses import astuple, dataclass, fields
from itertools import compress
from pathlib import Path
from typing import Iterator

import numpy as np

from .data import (SPLIT_MIN_SAVED, LabelMaps, OUTSIDE, Utterance, Vocab, encode_batch,
                   rewrite_file, split_by_length, tsv)
from .model import JointModel

# Rows must sum to 1 within this, or within the eps of a coarser map dtype:
# float16 maps (eps 9.8e-4) drift by 6e-4 to 7e-4, on 47-token rows too.
ROW_SUM_TOLERANCE = 1e-6


def _check_attention(block: np.ndarray, kinds: list[str], dtype: np.dtype) -> None:
    """Check a ``(..., T, l, l)`` stack of attention maps computed in
    ``dtype``, whose T types ``kinds`` names: every row must sum to 1 within
    the bound above and no weight may be negative. Raises for the first
    failing type in ``kinds`` order, whichever map of the stack fails."""
    eps = np.finfo(dtype).eps if dtype.kind == "f" else 0.0
    # written so that NaN fails: max and min carry it, and every comparison
    # with it is False
    drift = np.abs(block.sum(axis=-1, dtype=np.float64) - 1.0).max(axis=-1)
    rows_ok = drift <= max(ROW_SUM_TOLERANCE, eps)  # (..., T)
    signs_ok = block.min(axis=(-2, -1)) >= 0
    if (rows_ok & signs_ok).all():
        return
    n_types = block.shape[-3]
    rows_ok = rows_ok.reshape(-1, n_types).all(axis=0)
    signs_ok = signs_ok.reshape(-1, n_types).all(axis=0)
    for kind, rows, signs in zip(kinds, rows_ok, signs_ok):
        if not rows:
            raise ValueError(f"{kind} attention rows do not sum to 1")
        if not signs:
            raise ValueError(f"{kind} attention has negative weights")


@dataclass
class AttentionBundle:
    """Per-type attention maps for one utterance, split into positive
    types (present in the tags) and negative types (the rest). The bundle
    keeps its own float64 copy of the matrices."""

    tokens: list[str]
    matrices: dict[str, np.ndarray]  # slot type -> (l, l)
    positive_types: frozenset[str]
    negative_types: frozenset[str]

    def __post_init__(self):
        self.positive_types = frozenset(self.positive_types)
        self.negative_types = frozenset(self.negative_types)
        if self.positive_types & self.negative_types:
            raise ValueError("positive and negative type sets overlap")
        missing = (self.positive_types | self.negative_types) - set(self.matrices)
        if missing:
            raise ValueError(f"types without attention matrices: {sorted(missing)}")
        l = len(self.tokens)
        for kind, m in self.matrices.items():
            if m.shape != (l, l):
                raise ValueError(f"{kind} matrix shape {m.shape} for {l} tokens")
        if not self.matrices:
            return
        # the bundle's own (T, l, l) copy, checked with the bound of the maps' dtype
        block = np.stack(list(self.matrices.values()), dtype=np.float64)
        _check_attention(block, list(self.matrices), np.result_type(*self.matrices.values()))
        self.matrices = dict(zip(self.matrices, block))

    @property
    def analyzed_types(self) -> frozenset[str]:
        return self.positive_types | self.negative_types

    @property
    def length(self) -> int:
        return len(self.tokens)


# Utterances per extraction pass at the model's max_len, at most. A call
# whose longest kept utterance has l tokens takes up to
# EXTRACT_CHUNK * max_len // l per pass, so no pass holds more token rows,
# or (L, L) attention cells, than EXTRACT_CHUNK utterances at max_len.
EXTRACT_CHUNK = 32


def _analyzed_types(maps: LabelMaps, include_outside: bool) -> np.ndarray:
    """``(T,)`` mask of the slot types an analysis reads: every type, less
    "O" unless ``include_outside`` is set."""
    return np.array([include_outside or t != OUTSIDE for t in maps.slot_types])


def _by_name(maps: LabelMaps, mask: np.ndarray) -> np.ndarray:
    """Indices of the slot types in ``mask``, in name order."""
    return np.array(sorted(np.flatnonzero(mask), key=maps.slot_types.__getitem__),
                    dtype=np.intp)


def _extraction(
    model: JointModel,
    utterances: list[Utterance],
    maps: LabelMaps,
    vocab: Vocab,
) -> tuple[list[tuple[str, ...]], np.ndarray, Iterator[tuple]]:
    """The extraction loop every attention analysis reads from.

    Utterances are truncated to the model's maximum length, and those with
    equal kept tokens and tags run once (the network never reads the
    intent). Returns the distinct utterances' kept token sequences, each
    caller position's index among them, and a generator that encodes them
    once and runs one graph-free inference pass per length group (see
    :func:`split_by_length`) of at most ``EXTRACT_CHUNK * max_len // l_max``
    distinct utterances, where ``l_max`` is the longest kept length. It
    yields each pass cut into its distinct kept lengths l, as ``(idx, block,
    positive)``: the distinct indices, their checked ``(U, T, l, l)`` maps
    (see :func:`_check_attention`) and a ``(U, T)`` mask of positive types.

    Positive types are the types of the gold tags; an utterance with no
    tagged slot falls back to the tags the same pass predicts for it
    (argmax, ties to the lower index). "O" is never positive.
    """
    max_len = model.config.max_len
    keys = [(tuple(u.tokens[:max_len]), tuple(u.bio_tags[:max_len])) for u in utterances]
    distinct = dict(zip(keys, utterances))  # one utterance per key, first-seen order
    index = {k: i for i, k in enumerate(distinct)}
    inverse = np.array([index[k] for k in keys], dtype=np.intp)

    def cuts():
        if not distinct:
            return
        if not model.config.has_aux_network:
            raise ValueError("model was built without the slot-type attention network")
        T, outside = maps.n_slot_types, maps.slot_type_index[OUTSIDE]
        whole = encode_batch(list(distinct.values()), maps, vocab, max_len)
        size = EXTRACT_CHUNK * max_len // int(whole.lengths.max())
        for idx in split_by_length(whole.lengths, SPLIT_MIN_SAVED, size):
            batch = whole.rows(idx)
            _, _, attention, slot_logits = model.infer(batch)
            kinds = batch.type_targets  # (B, L), -1 at pad
            untagged = ((kinds == outside) | (kinds < 0)).all(axis=1)
            if untagged.any():
                predicted = maps.bio_type_column[slot_logits.argmax(axis=2)]
                kinds = np.where(untagged[:, None] & (kinds >= 0), predicted, kinds)
            # pad's -1 marks a spare last column, dropped with "O"
            positive = np.zeros((len(idx), T + 1), dtype=bool)
            positive[np.arange(len(idx))[:, None], kinds] = True
            positive[:, outside] = False
            for l in np.unique(batch.lengths):
                rows = np.flatnonzero(batch.lengths == l)
                block = attention[rows, :, :l, :l]
                _check_attention(block, maps.slot_types, attention.dtype)
                yield idx[rows], block, positive[rows, :T]

    return [tokens for tokens, _ in distinct], inverse, cuts()


def extract_attention_bundles(
    model: JointModel,
    utterances: list[Utterance],
    maps: LabelMaps,
    vocab: Vocab,
    include_outside: bool = False,
) -> list[AttentionBundle]:
    """Collect every slot type's attention map for each utterance, in the
    caller's order, through the extraction loop of :func:`_extraction`.

    Each bundle covers the utterance's kept tokens, and utterances with
    equal kept tokens and tags share one bundle. Positive types come from
    the gold tags, or from the predicted tags when there is no tagged slot;
    "O" joins the negative set only when ``include_outside`` is set.
    """
    kept, inverse, cuts = _extraction(model, utterances, maps, vocab)
    analyzed = _analyzed_types(maps, include_outside)
    bundles: list[AttentionBundle | None] = [None] * len(kept)
    for idx, block, positive in cuts:
        negative = (analyzed & ~positive).tolist()
        for r, i in enumerate(idx.tolist()):
            bundles[i] = AttentionBundle(
                tokens=list(kept[i]),
                # views into the checked cut; the bundle copies and checks them
                matrices=dict(zip(maps.slot_types, block[r])),
                positive_types=frozenset(compress(maps.slot_types, positive[r].tolist())),
                negative_types=frozenset(compress(maps.slot_types, negative[r])),
            )
    return [bundles[i] for i in inverse]


def extract_attentions(
    model: JointModel,
    utterance: Utterance,
    maps: LabelMaps,
    vocab: Vocab,
    include_outside: bool = False,
) -> AttentionBundle:
    """One utterance's bundle from one inference pass; see
    :func:`extract_attention_bundles`."""
    return extract_attention_bundles(model, [utterance], maps, vocab, include_outside)[0]


# entropy ----------------------------------------------------------------------


def entropy(weights) -> float:
    """Base-2 entropy of the normalized weight list, with 0*log2(0) = 0."""
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    if w.size == 0:
        raise ValueError("entropy of an empty weight list")
    if (w < 0).any():
        raise ValueError("attention weights must be non-negative")
    total = w.sum()
    if total <= 0:
        raise ValueError("entropy undefined for an all-zero weight list")
    p = w / total
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def _check_topk(k_list: list[float], granularity: str) -> None:
    for k in k_list:
        if not 0 < k <= 100:
            raise ValueError(f"top-k percentage must be in (0, 100], got {k:g}")
    if granularity not in ("matrix", "rows"):
        raise ValueError(f"unknown granularity {granularity!r}")


def _topk_entropies(
    matrices: np.ndarray, k_list: list[float], granularity: str = "matrix"
) -> np.ndarray:
    """Top-k% entropy of each matrix in a ``(M, l, l)`` stack, for every k:
    returns a ``(len(k_list), M)`` array.

    The top k% of n weights are the largest max(1, floor(k*n/100)). "matrix"
    flattens each map before taking them (the default reading); "rows"
    scores each row separately and averages, the alternative aggregation
    left switchable on purpose. Each weight list is sorted once, and every
    k reads a prefix of that order. Every k must lie in (0, 100].
    """
    _check_topk(k_list, granularity)
    values = np.asarray(matrices, dtype=np.float64)
    if granularity == "matrix":
        values = values.reshape(values.shape[0], 1, -1)
    if values.size == 0:
        raise ValueError("entropy of an empty weight list")
    if (values < 0).any():
        raise ValueError("attention weights must be non-negative")
    desc = -np.sort(-values, axis=-1)
    n = desc.shape[-1]
    out = np.empty((len(k_list), values.shape[0]))
    for i, k in enumerate(k_list):
        top = desc[..., : max(1, int(np.floor(k * n / 100.0)))]
        total = top.sum(axis=-1, keepdims=True)
        if (total <= 0).any():
            raise ValueError("entropy undefined for an all-zero weight list")
        p = top / total
        log_p = np.zeros_like(p)
        np.log2(p, out=log_p, where=p > 0)
        out[i] = -(p * log_p).sum(axis=-1).mean(axis=-1)
    return out


def type_entropy(matrix: np.ndarray, k: float, granularity: str = "matrix") -> float:
    """Top-k% entropy of one type's attention; see :func:`_topk_entropies`."""
    return float(_topk_entropies(np.asarray(matrix)[None], [k], granularity)[0, 0])


@dataclass(frozen=True)
class EntropyRow:
    k: float
    pos_entropy: float
    neg_entropy: float
    n_pos_utterances: int
    n_neg_utterances: int

    @property
    def diff(self) -> float:
        return self.neg_entropy - self.pos_entropy


@dataclass
class EntropyReport:
    rows: list[EntropyRow]
    n_utterances: int

    def to_tsv(self) -> str:
        return tsv(["k", "pos_entropy", "neg_entropy", "diff"],
                   [(f"{r.k:g}", r.pos_entropy, r.neg_entropy, r.diff) for r in self.rows])


def _entropy_means(
    stack: np.ndarray,
    n_pos: np.ndarray,
    n_neg: np.ndarray,
    k_list: list[float],
    granularity: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Each utterance's mean positive and mean negative top-k% entropy, from
    one ``(M, l, l)`` float64 stack holding, utterance after utterance, its
    ``n_pos`` positive maps and then its ``n_neg`` negative ones, each group
    in type-name order. Returns two ``(U, len(k_list))`` arrays, NaN where
    the utterance has no type of that group.

    Every matrix is scored by one :func:`_topk_entropies` call, and each
    mean reduces its utterance's entropies in that order, so the means do
    not depend on which other utterances share the stack.
    """
    h = _topk_entropies(stack, k_list, granularity)  # (K, M)
    counts = n_pos + n_neg
    starts = np.cumsum(counts) - counts
    pos = np.full((len(counts), len(k_list)), np.nan)
    neg = np.full((len(counts), len(k_list)), np.nan)
    for p, q in set(zip(n_pos.tolist(), n_neg.tolist())):
        us = np.flatnonzero((n_pos == p) & (n_neg == q))
        # take() lays each (K, G, n) gather out C-contiguous, so each mean
        # sums its n entropies as the per-utterance mean over a row does
        if p:
            pos[us] = np.take(h, starts[us, None] + np.arange(p), axis=1).mean(axis=-1).T
        if q:
            neg[us] = np.take(h, starts[us, None] + p + np.arange(q), axis=1).mean(axis=-1).T
    return pos, neg


def _entropy_report(
    pos: np.ndarray,
    neg: np.ndarray,
    n_utterances: int,
    k_list: list[float],
) -> EntropyReport:
    """Average the per-utterance means, one ``(N, len(k_list))`` row per
    utterance that has positive (``pos``) or negative (``neg``) types, in
    the caller's order."""
    if not len(pos):
        raise ValueError("no positive slot types anywhere in the corpus")
    if not len(neg):
        raise ValueError("no negative slot types anywhere in the corpus")
    pos_entropy = np.mean(pos, axis=0)
    neg_entropy = np.mean(neg, axis=0)
    rows = [
        EntropyRow(
            k=float(k),
            pos_entropy=float(pos_entropy[i]),
            neg_entropy=float(neg_entropy[i]),
            n_pos_utterances=len(pos),
            n_neg_utterances=len(neg),
        )
        for i, k in enumerate(k_list)
    ]
    return EntropyReport(rows=rows, n_utterances=n_utterances)


def entropy_report_from_bundles(
    bundles: list[AttentionBundle],
    k_list: list[float],
    granularity: str = "matrix",
) -> EntropyReport:
    """Average positive-group and negative-group entropies per utterance,
    then across utterances, for each k. Bundles of one length are scored
    as one stack."""
    if not bundles:
        raise ValueError("no utterances to analyze")
    _check_topk(k_list, granularity)
    n_pos = np.array([len(b.positive_types) for b in bundles], dtype=np.intp)
    n_neg = np.array([len(b.negative_types) for b in bundles], dtype=np.intp)
    pos = np.full((len(bundles), len(k_list)), np.nan)
    neg = np.full((len(bundles), len(k_list)), np.nan)
    by_length: dict[int, list[int]] = {}
    for u, b in enumerate(bundles):
        if n_pos[u] + n_neg[u]:
            by_length.setdefault(b.length, []).append(u)
    for us in by_length.values():
        stack = np.stack([bundles[u].matrices[t] for u in us
                          for t in sorted(bundles[u].positive_types)
                          + sorted(bundles[u].negative_types)])
        pos[us], neg[us] = _entropy_means(stack, n_pos[us], n_neg[us], k_list, granularity)
    return _entropy_report(pos[n_pos > 0], neg[n_neg > 0], len(bundles), k_list)


def topk_entropy_analysis(
    model: JointModel,
    corpus: list[Utterance],
    k_list: list[float],
    maps: LabelMaps,
    vocab: Vocab,
    granularity: str = "matrix",
    include_outside: bool = False,
) -> EntropyReport:
    """Extract attention for every utterance and aggregate top-k% entropy;
    the result equals :func:`entropy_report_from_bundles` over
    :func:`extract_attention_bundles`, without building the bundles.

    Each length cut's analyzed maps are scored as one float64 stack.
    ``k_list``, ``granularity`` and the analyzed types are checked before
    any inference runs.
    """
    _check_topk(k_list, granularity)
    if not corpus:
        raise ValueError("no utterances to analyze")
    if not _analyzed_types(maps, False).any():  # "O" is never positive
        raise ValueError("no positive slot types anywhere in the corpus")
    analyzed = _by_name(maps, _analyzed_types(maps, include_outside))
    kept, inverse, cuts = _extraction(model, corpus, maps, vocab)
    n_pos = np.zeros(len(kept), dtype=np.intp)
    pos = np.full((len(kept), len(k_list)), np.nan)
    neg = np.full((len(kept), len(k_list)), np.nan)
    for idx, block, positive in cuts:
        in_order = positive[:, analyzed]  # (U, A), types in name order
        # per row: positive types first, then negative, each in name order
        types = analyzed[np.argsort(~in_order, axis=1, kind="stable")]
        stack = block[np.arange(len(idx))[:, None], types].astype(np.float64)
        n_pos[idx] = in_order.sum(axis=1)
        pos[idx], neg[idx] = _entropy_means(
            stack.reshape(-1, *block.shape[-2:]), n_pos[idx], len(analyzed) - n_pos[idx],
            k_list, granularity)
    n_pos, pos, neg = n_pos[inverse], pos[inverse], neg[inverse]
    return _entropy_report(pos[n_pos > 0], neg[n_pos < len(analyzed)], len(corpus), k_list)


# modification consistency -------------------------------------------------------


def _row_cosines(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mean cosine similarity between matching rows of two ``(P, l, l)``
    stacks, clipped to [0, 1]: returns ``(P,)``. A row pair with a zero
    norm scores 0."""
    if x.shape != y.shape:
        raise ValueError(
            f"lengths differ ({x.shape[-1]} vs {y.shape[-1]}); pass an alignment"
        )
    dots = np.einsum("pij,pij->pi", x, y)
    denom = np.linalg.norm(x, axis=2) * np.linalg.norm(y, axis=2)
    sims = np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0)
    return np.clip(sims.mean(axis=1), 0.0, 1.0)


def compare_attention_consistency(
    bundle_a: AttentionBundle,
    bundle_b: AttentionBundle,
    slot_type: str,
    alignment: list[tuple[int, int]] | None = None,
) -> float:
    """Mean cosine similarity between aligned attention rows, in [0, 1].

    Identity alignment is assumed for equal-length utterances; differing
    lengths require an explicit, non-empty list of (pos_a, pos_b) token
    positions, which is applied to rows and to the attended-over columns
    alike. A position outside its utterance is a ``ValueError``.
    """
    for bundle in (bundle_a, bundle_b):
        if slot_type not in bundle.matrices:
            raise ValueError(f"slot type {slot_type!r} missing from bundle")
    a = bundle_a.matrices[slot_type]
    b = bundle_b.matrices[slot_type]
    if alignment is not None:
        aligned = np.asarray(alignment, dtype=np.intp).reshape(-1, 2)
        if not len(aligned):
            raise ValueError("empty alignment: pass at least one (pos_a, pos_b) pair")
        bad = ((aligned < 0) | (aligned >= (len(a), len(b)))).any(axis=1)
        if bad.any():
            i, j = aligned[bad][0]
            raise ValueError(
                f"alignment pair ({i}, {j}) is outside lengths ({len(a)}, {len(b)})"
            )
        pos_a, pos_b = aligned.T
        a = a[np.ix_(pos_a, pos_a)]  # aligned rows over aligned columns
        b = b[np.ix_(pos_b, pos_b)]
    return float(_row_cosines(a[None], b[None])[0])


@dataclass(frozen=True)
class PairScore:
    pair_id: int
    category: str
    score: float


@dataclass
class ConsistencyReport:
    pairs: list[PairScore]

    @property
    def category_means(self) -> dict[str, float]:
        by_cat: dict[str, list[float]] = {}
        for p in self.pairs:
            by_cat.setdefault(p.category, []).append(p.score)
        return {c: float(np.mean(v)) for c, v in sorted(by_cat.items())}

    def to_tsv(self) -> str:
        return tsv([f.name for f in fields(PairScore)], map(astuple, self.pairs))


def consistency_analysis(
    model: JointModel,
    pairs: list[tuple[Utterance, Utterance, str]],
    maps: LabelMaps,
    vocab: Vocab,
) -> ConsistencyReport:
    """Score each (original, modified, category) pair by the mean
    consistency over the original's positive types (all analyzed types
    when it has none), with identity alignment. Both sides go through one
    extraction sweep, so an utterance that recurs in the pairs runs once.

    Pairs are scored grouped by length: one :func:`_row_cosines` call per
    length over the selected (pair, type) maps only, then each pair's mean
    over its types in name order. Unequal lengths and label maps with no
    slot type besides "O" are refused before any inference runs."""
    n = len(pairs)
    kept, inverse, cuts = _extraction(
        model, [p[0] for p in pairs] + [p[1] for p in pairs], maps, vocab)
    length = np.array([len(tokens) for tokens in kept], dtype=np.intp)
    a, b = inverse[:n], inverse[n:]
    unequal = np.flatnonzero(length[a] != length[b])
    if unequal.size:
        i = unequal[0]
        raise ValueError(f"pair {i}: lengths differ ({length[a[i]]} vs {length[b[i]]}); "
                         "a modification pair must keep the token count")
    if n and not _analyzed_types(maps, False).any():
        raise ValueError("no slot types to compare")

    views: dict[int, np.ndarray] = {}  # distinct index -> its checked (T, l, l) maps
    positive = np.zeros((len(kept), maps.n_slot_types), dtype=bool)
    for idx, block, pos in cuts:
        views.update(zip(idx.tolist(), block))
        positive[idx] = pos

    chosen = positive[a]
    chosen[~chosen.any(axis=1)] = _analyzed_types(maps, False)
    by_name = _by_name(maps, np.ones(maps.n_slot_types, dtype=bool))
    pair, col = np.nonzero(chosen[:, by_name])  # each pair's types in name order
    kind = by_name[col]
    counts = np.bincount(pair, minlength=n)
    cosines = np.empty(len(pair))
    for l in np.unique(length[a]).tolist():  # every pair has a type
        sel = np.flatnonzero(length[a[pair]] == l)
        both = np.array([views[i][t] for side in (a, b)  # x's maps, then y's
                         for i, t in zip(side[pair[sel]].tolist(), kind[sel].tolist())],
                        dtype=np.float64)
        cosines[sel] = _row_cosines(*np.split(both, 2))
    starts = np.cumsum(counts) - counts
    scores = np.empty(n)
    for c in np.unique(counts):  # a C-contiguous (G, c) mean per type count
        ps = np.flatnonzero(counts == c)
        scores[ps] = cosines[starts[ps, None] + np.arange(c)].mean(axis=1)
    return ConsistencyReport(pairs=[
        PairScore(pair_id=i, category=category, score=float(score))
        for i, ((_, _, category), score) in enumerate(zip(pairs, scores))])


# heatmap rendering ---------------------------------------------------------------

_CELL = '<td class="swatch" style="opacity:%.6f" title="%.6f"></td>'
_CELL_BYTES = (_CELL % (0, 0)).encode("ascii")
_CELL_WIDTH = len(_CELL_BYTES)
# byte offsets of the cell's two numbers, each 8 characters for x in [0, 10)
_OPACITY_AT = _CELL_BYTES.index(b"0.000000")
_TITLE_AT = _CELL_BYTES.index(b"0.000000", _OPACITY_AT + 8)
# Non-negative doubles order like their bit patterns, and a sign bit, inf or
# NaN sorts above every finite one: a value is in [0, 9.9999995), where
# "%.6f" gives 8 characters, exactly when its bits are below this.
_FIXED_WIDTH_LIMIT = np.float64(9.9999995).view(np.uint64)
# float64 rounds x * 1e6 (below 1e7) by under 1e-9, so rint matches the exact
# decimal rounding of "%.6f" unless the product sits this close to a .5 tie
_TIE_MARGIN = 1e-6


def _digit_words() -> tuple[np.ndarray, np.ndarray]:
    """Lookup tables for the 8 bytes of ``"%.6f" % (k / 1e6)``, k < 1e7, as
    little-endian words: ``high[k // 1000] + low[k % 1000]``."""
    three = np.frombuffer(b"".join(b"%03d" % k for k in range(1000)), np.uint8)
    high = np.zeros((10, 1000, 8), np.uint8)
    high[..., 0] = np.arange(ord("0"), ord("9") + 1)[:, None]
    high[..., 1] = ord(".")
    high[..., 2:5] = three.reshape(1000, 3)
    low = np.zeros((1000, 8), np.uint8)
    low[:, 5:] = three.reshape(1000, 3)
    return high.reshape(-1, 8).view("<u8").ravel(), low.view("<u8").ravel()


_HIGH_DIGITS, _LOW_DIGITS = _digit_words()


def _cell_rows(scaled: np.ndarray, m: np.ndarray) -> list[memoryview] | list[bytes]:
    """The heatmap's table cells as one ASCII bytes-like chunk per row, with
    opacity from ``scaled`` and hover title from ``m``, each formatted as
    ``%.6f``.

    Every value in [0, 9.9999995) away from a rounding tie is written as
    digits into one copy of the fixed-width cell template, whose rows come
    back as views; a matrix holding any other value is formatted cell by
    cell.
    """
    n = len(m)
    v = np.empty((n, n, 2))
    v[..., 0] = scaled
    v[..., 1] = m
    if v.view(np.uint64).max() < _FIXED_WIDTH_LIMIT:
        f = v * 1e6
        k = np.rint(f)
        f -= k
        if np.abs(f, out=f).max() < 0.5 - _TIE_MARGIN:
            buf = bytearray(_CELL_BYTES * (n * n))
            words = np.ndarray((n, n, 2), "<u8", buffer=buf, offset=_OPACITY_AT,
                               strides=(n * _CELL_WIDTH, _CELL_WIDTH, _TITLE_AT - _OPACITY_AT))
            low = k.astype(np.intp)
            high = low // 1000
            low -= high * 1000
            np.add(_HIGH_DIGITS[high], _LOW_DIGITS[low], out=words)
            cells, step = memoryview(buf), n * _CELL_WIDTH
            return [cells[i : i + step] for i in range(0, n * step, step)]
    row = _CELL * n
    return [(row % tuple(values)).encode("ascii") for values in v.reshape(n, 2 * n).tolist()]


def render_heatmap(bundle: AttentionBundle, slot_type: str, path: str | Path) -> Path:
    """Write a self-contained HTML heatmap of one type's attention map.

    Cell (i, j) opacity encodes weight normalized by the matrix maximum;
    exact values sit in hover titles. No external resources.
    """
    if slot_type not in bundle.matrices:
        raise ValueError(f"slot type {slot_type!r} missing from bundle")
    m = bundle.matrices[slot_type]
    peak = float(m.max())
    scaled = m / peak if peak > 0 else m
    esc = [html.escape(t) for t in bundle.tokens]

    head = "\n".join([
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
        "<tr><th></th>" + "".join(f"<th>{t}</th>" for t in esc) + "</tr>\n",
    ])
    page = [head.encode("utf-8")]
    for token, cells in zip(esc, _cell_rows(scaled, m)):
        page += [f"<tr><th>{token}</th>".encode("utf-8"), cells, b"</tr>\n"]
    page.append(b"</table></body></html>\n")
    return rewrite_file(path, [b"".join(page)])


def write_report(text: str, path: str | Path) -> Path:
    """Write ``text`` as UTF-8 to ``path``, creating its directory and
    rewriting an existing file in place."""
    return rewrite_file(path, [text.encode("utf-8")])
