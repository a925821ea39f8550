"""Attention analysis: per-type attention extraction, top-k% entropy
quantification, positive/negative slot-type comparison, modification
consistency scoring, and self-contained HTML heatmaps.

Entropy is base 2 over the normalized weight list, so a uniform l-by-l
matrix scores log2(l^2) at k=100. The report's diff column is always
negative minus positive: sharper (lower-entropy) positive types push it up.
"""

from __future__ import annotations

import html
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import (LabelMaps, OUTSIDE, Utterance, Vocab, encode_batch, length_groups,
                   rewrite_file)
from .model import JointModel

ROW_SUM_TOLERANCE = 1e-6


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
        # the bundle's own (T, l, l) copy, checked for every type at once
        block = np.stack(list(self.matrices.values()), dtype=np.float64)
        self.matrices = dict(zip(self.matrices, block))
        # written so that NaN fails: every comparison with it is False
        rows_ok = np.abs(block.sum(axis=-1) - 1.0).max(axis=-1) <= ROW_SUM_TOLERANCE
        signs_ok = block.min(axis=(1, 2)) >= 0
        for kind, rows, signs in zip(self.matrices, rows_ok, signs_ok):
            if not rows:
                raise ValueError(f"{kind} attention rows do not sum to 1")
            if not signs:
                raise ValueError(f"{kind} attention has negative weights")

    @property
    def analyzed_types(self) -> frozenset[str]:
        return self.positive_types | self.negative_types

    @property
    def length(self) -> int:
        return len(self.tokens)


EXTRACT_CHUNK = 32  # utterances per extraction inference pass, at most


def extract_attention_bundles(
    model: JointModel,
    utterances: list[Utterance],
    maps: LabelMaps,
    vocab: Vocab,
    include_outside: bool = False,
) -> list[AttentionBundle]:
    """Collect every slot type's attention map for each utterance, in the
    caller's order, from one graph-free inference pass per length group of
    at most ``EXTRACT_CHUNK`` distinct utterances (see :func:`length_groups`).

    Each utterance is truncated to the model's maximum length, and its
    bundle covers the kept tokens. Utterances with equal kept tokens and
    tags run once and share one bundle; the network never reads the
    intent. Positive types come from the gold tags; an utterance with no
    tagged slot falls back to the tags the same pass predicts for it
    (argmax, ties to the lower index). "O" joins the negative set only
    when ``include_outside`` is set.
    """
    analyzed = set(maps.slot_types)
    if not include_outside:
        analyzed.discard(OUTSIDE)
    max_len = model.config.max_positions - 1
    keys = [(tuple(u.tokens[:max_len]), tuple(u.bio_tags[:max_len])) for u in utterances]
    distinct = dict(zip(keys, utterances))  # one utterance per key, first-seen order
    unique = list(distinct.values())
    bundles: list[AttentionBundle | None] = [None] * len(unique)
    for idx in length_groups(unique, max_len, EXTRACT_CHUNK):
        batch = encode_batch([unique[i] for i in idx], maps, vocab, max_len)
        _, _, attentions, slot_logits = model.infer(batch)
        if attentions is None:
            raise ValueError("model was built without the slot-type attention network")
        for b, i in enumerate(idx):
            n = int(batch.lengths[b])
            tags = unique[i].bio_tags[:n]
            if all(t == OUTSIDE for t in tags):
                tags = [maps.bio_labels[j] for j in slot_logits[b, :n].argmax(axis=1)]
            positive = {t[2:] for t in tags if t != OUTSIDE} & analyzed
            bundles[i] = AttentionBundle(
                tokens=list(unique[i].tokens[:n]),
                # views into the batch; the bundle copies them to float64
                matrices=dict(zip(maps.slot_types, attentions[b, :, :n, :n])),
                positive_types=frozenset(positive),
                negative_types=frozenset(analyzed - positive),
            )
    shared = dict(zip(distinct, bundles))
    return [shared[k] for k in keys]


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
    granularity: str = "matrix"

    def to_tsv(self) -> str:
        lines = ["k\tpos_entropy\tneg_entropy\tdiff"]
        for r in self.rows:
            lines.append(f"{r.k:g}\t{r.pos_entropy:.10g}\t{r.neg_entropy:.10g}\t{r.diff:.10g}")
        return "\n".join(lines) + "\n"


def entropy_report_from_bundles(
    bundles: list[AttentionBundle],
    k_list: list[float],
    granularity: str = "matrix",
) -> EntropyReport:
    """Average positive-group and negative-group entropies per utterance,
    then across utterances, for each k."""
    if not bundles:
        raise ValueError("no utterances to analyze")
    pos_means: list[np.ndarray] = []  # (len(k_list),) per utterance
    neg_means: list[np.ndarray] = []
    for b in bundles:
        pos, neg = sorted(b.positive_types), sorted(b.negative_types)
        if not pos + neg:
            continue
        h = _topk_entropies(np.stack([b.matrices[t] for t in pos + neg]), k_list,
                           granularity)
        if pos:
            pos_means.append(h[:, : len(pos)].mean(axis=1))
        if neg:
            neg_means.append(h[:, len(pos) :].mean(axis=1))
    if not pos_means:
        raise ValueError("no positive slot types anywhere in the corpus")
    if not neg_means:
        raise ValueError("no negative slot types anywhere in the corpus")
    pos_entropy = np.mean(pos_means, axis=0)
    neg_entropy = np.mean(neg_means, axis=0)
    rows = [
        EntropyRow(
            k=float(k),
            pos_entropy=float(pos_entropy[i]),
            neg_entropy=float(neg_entropy[i]),
            n_pos_utterances=len(pos_means),
            n_neg_utterances=len(neg_means),
        )
        for i, k in enumerate(k_list)
    ]
    return EntropyReport(rows=rows, n_utterances=len(bundles), granularity=granularity)


def topk_entropy_analysis(
    model: JointModel,
    corpus: list[Utterance],
    k_list: list[float],
    maps: LabelMaps,
    vocab: Vocab,
    granularity: str = "matrix",
    include_outside: bool = False,
) -> EntropyReport:
    """Extract attention for every utterance and aggregate top-k% entropy.
    ``k_list`` and ``granularity`` are checked before any inference runs."""
    _check_topk(k_list, granularity)
    bundles = extract_attention_bundles(model, corpus, maps, vocab, include_outside)
    return entropy_report_from_bundles(bundles, k_list, granularity)


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
        lines = ["pair_id\tcategory\tscore"]
        for p in self.pairs:
            lines.append(f"{p.pair_id}\t{p.category}\t{p.score:.10g}")
        return "\n".join(lines) + "\n"


def consistency_analysis(
    model: JointModel,
    pairs: list[tuple[Utterance, Utterance, str]],
    maps: LabelMaps,
    vocab: Vocab,
) -> ConsistencyReport:
    """Score each (original, modified, category) pair by the mean
    consistency over the original's positive types (all analyzed types
    when it has none), with identity alignment. Both sides go through one
    extraction sweep, so an utterance that recurs in the pairs runs once."""
    n = len(pairs)
    bundles = extract_attention_bundles(
        model, [p[0] for p in pairs] + [p[1] for p in pairs], maps, vocab)
    scored = []
    for pair_id, (ba, bb, (_, _, category)) in enumerate(zip(bundles[:n], bundles[n:], pairs)):
        types = sorted(ba.positive_types) or sorted(ba.analyzed_types)
        x, y = (np.stack([bundle.matrices[t] for t in types]) for bundle in (ba, bb))
        score = float(_row_cosines(x, y).mean())
        scored.append(PairScore(pair_id=pair_id, category=category, score=score))
    return ConsistencyReport(pairs=scored)


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


def _cell_rows(scaled: np.ndarray, m: np.ndarray) -> list[str]:
    """The heatmap's table cells, one string per row, with opacity from
    ``scaled`` and hover title from ``m``, each formatted as ``%.6f``.

    Every value in [0, 9.9999995) away from a rounding tie is written as
    digits into a copy of the fixed-width cell template; a matrix holding
    any other value is formatted cell by cell.
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
            high, low = np.divmod(k.astype(np.intp), 1000)
            np.add(_HIGH_DIGITS[high], _LOW_DIGITS[low], out=words)
            text = buf.decode("ascii")
            step = n * _CELL_WIDTH
            return [text[i : i + step] for i in range(0, n * step, step)]
    row = _CELL * n
    return [row % tuple(values) for values in v.reshape(n, 2 * n).tolist()]


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
    for token, cells in zip(esc, _cell_rows(scaled, m)):
        parts.append(f"<tr><th>{token}</th>{cells}</tr>")
    parts.append("</table></body></html>")

    return write_report("\n".join(parts) + "\n", path)


def write_report(text: str, path: str | Path) -> Path:
    """Write ``text`` as UTF-8 to ``path``, creating its directory and
    rewriting an existing file in place."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return rewrite_file(path, [text.encode("utf-8")])
