"""Corpus handling: BIO-tagged utterances, label inventories, auxiliary
binary targets, batching, and exact-span-match evaluation.

Corpus format: a directory holding three parallel line-aligned UTF-8 files,
one utterance per line, tokens/tags single-space separated:

    seq.in   book a flight to boston
    seq.out  O O O O B-city
    label    book_flight
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

TOKENS_FILE = "seq.in"
TAGS_FILE = "seq.out"
INTENT_FILE = "label"

PAD_ID = 0
UNK_ID = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"

OUTSIDE = "O"


class CorpusFormatError(ValueError):
    """Malformed corpus files (line counts, token/tag arity)."""


class BioValidationError(ValueError):
    """A tag sequence violates the BIO transition rules."""


class UnknownLabelError(ValueError):
    """A label outside the known inventories."""


def validate_bio(tags: list[str], where: str = "") -> None:
    """Check that every I-x is preceded by B-x or I-x of the same type."""
    prev = OUTSIDE
    for i, tag in enumerate(tags):
        if tag != OUTSIDE and not (tag.startswith("B-") or tag.startswith("I-")):
            raise BioValidationError(f"{where}unknown tag {tag!r} at position {i}")
        if tag.startswith("I-"):
            kind = tag[2:]
            if prev not in (f"B-{kind}", f"I-{kind}"):
                raise BioValidationError(
                    f"{where}I-{kind} at position {i} without an open {kind} span"
                )
        prev = tag


@dataclass
class Utterance:
    """One tokenized example: words, intent label, and aligned BIO tags."""

    tokens: list[str]
    intent: str
    bio_tags: list[str]

    def __post_init__(self):
        if len(self.tokens) == 0:
            raise ValueError("utterance must have at least one token")
        if len(self.tokens) != len(self.bio_tags):
            raise ValueError(
                f"{len(self.tokens)} tokens but {len(self.bio_tags)} tags"
            )
        validate_bio(self.bio_tags)

    @property
    def length(self) -> int:
        return len(self.tokens)

    def slot_types_present(self) -> set[str]:
        """Non-O slot types appearing in the gold tags."""
        return {t[2:] for t in self.bio_tags if t != OUTSIDE}


@dataclass(frozen=True)
class Span:
    """A typed slot occupying tokens start..end inclusive."""

    type: str
    start: int
    end: int

    def __post_init__(self):
        if self.type == OUTSIDE:
            raise ValueError("spans carry non-O types only")
        if not 0 <= self.start <= self.end:
            raise ValueError(f"bad span bounds {self.start}..{self.end}")


@dataclass
class LabelMaps:
    """The three label inventories with stable (lexicographic) indices.

    ``slot_types`` always contains the literal "O"; ``bio_labels`` holds
    "O" plus B-x/I-x for each non-O type, so |bio| == 2*(|types|-1) + 1.
    """

    intents: list[str]
    slot_types: list[str]
    bio_labels: list[str]
    intent_index: dict[str, int] = field(init=False)
    slot_type_index: dict[str, int] = field(init=False)
    bio_index: dict[str, int] = field(init=False)

    def __post_init__(self):
        if OUTSIDE not in self.slot_types:
            raise ValueError('slot type inventory must contain "O"')
        if len(self.bio_labels) != 2 * (len(self.slot_types) - 1) + 1:
            raise ValueError("BIO label inventory inconsistent with slot types")
        self.intent_index = {x: i for i, x in enumerate(self.intents)}
        self.slot_type_index = {x: i for i, x in enumerate(self.slot_types)}
        self.bio_index = {x: i for i, x in enumerate(self.bio_labels)}

    @property
    def n_intents(self) -> int:
        return len(self.intents)

    @property
    def n_slot_types(self) -> int:
        return len(self.slot_types)

    @property
    def n_bio_labels(self) -> int:
        return len(self.bio_labels)


def build_label_maps(corpus: list[Utterance]) -> LabelMaps:
    """Derive the intent/slot-type/BIO inventories from a corpus."""
    if not corpus:
        raise ValueError("cannot build label maps from an empty corpus")
    intents = sorted({u.intent for u in corpus})
    types = {t[2:] for u in corpus for t in u.bio_tags if t != OUTSIDE}
    slot_types = sorted(types | {OUTSIDE})
    bio = sorted([OUTSIDE] + [f"{b}-{t}" for t in types for b in ("B", "I")])
    return LabelMaps(intents=intents, slot_types=slot_types, bio_labels=bio)


class Vocab:
    """Word-level token-to-id map with reserved pad/unk slots.

    Lookups are lowercased; unseen words map to the unk id.
    """

    def __init__(self, tokens: list[str]):
        self.id_to_token = [PAD_TOKEN, UNK_TOKEN] + list(tokens)
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ValueError("vocabulary contains duplicate tokens")

    @classmethod
    def build(cls, corpus: list[Utterance]) -> "Vocab":
        words = sorted({tok.lower() for u in corpus for tok in u.tokens})
        return cls(words)

    def lookup(self, token: str) -> int:
        return self.token_to_id.get(token.lower(), UNK_ID)

    def __len__(self) -> int:
        return len(self.id_to_token)


# corpus files ---------------------------------------------------------------


def load_corpus(path: str | Path) -> list[Utterance]:
    """Read the three-file corpus at ``path`` and validate every utterance."""
    path = Path(path)
    contents = {}
    for name in (TOKENS_FILE, TAGS_FILE, INTENT_FILE):
        f = path / name
        if not f.is_file():
            raise CorpusFormatError(f"missing corpus file: {f}")
        try:
            contents[name] = f.read_text(encoding="utf-8").splitlines()
        except UnicodeDecodeError as e:
            raise CorpusFormatError(f"{f}: not UTF-8 text: {e}") from e
    n_tok, n_tag, n_int = (len(contents[k]) for k in (TOKENS_FILE, TAGS_FILE, INTENT_FILE))
    if not n_tok == n_tag == n_int:
        raise CorpusFormatError(
            f"line counts differ: {TOKENS_FILE}={n_tok}, {TAGS_FILE}={n_tag}, "
            f"{INTENT_FILE}={n_int} (first divergence at line {min(n_tok, n_tag, n_int) + 1})"
        )
    corpus = []
    for lineno, (tok_line, tag_line, intent) in enumerate(
        zip(contents[TOKENS_FILE], contents[TAGS_FILE], contents[INTENT_FILE]), start=1
    ):
        tokens = tok_line.split()
        tags = tag_line.split()
        if len(tokens) != len(tags):
            raise CorpusFormatError(
                f"line {lineno}: {len(tokens)} tokens but {len(tags)} tags"
            )
        if not tokens:
            raise CorpusFormatError(f"line {lineno}: empty utterance")
        validate_bio(tags, where=f"utterance {lineno}: ")
        corpus.append(Utterance(tokens=tokens, intent=intent.strip(), bio_tags=tags))
    return corpus


def write_corpus(corpus: list[Utterance], path: str | Path) -> None:
    """Write utterances in the three-file format (creating the directory)."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    (path / TOKENS_FILE).write_text(
        "".join(" ".join(u.tokens) + "\n" for u in corpus), encoding="utf-8"
    )
    (path / TAGS_FILE).write_text(
        "".join(" ".join(u.bio_tags) + "\n" for u in corpus), encoding="utf-8"
    )
    (path / INTENT_FILE).write_text(
        "".join(u.intent + "\n" for u in corpus), encoding="utf-8"
    )


def rewrite_file(path: str | Path, chunks: Iterable, head: bytes = b"") -> Path:
    """Make ``path`` hold ``head`` followed by the bytes-like ``chunks``,
    rewriting an existing file in place.

    The file is opened without ``O_TRUNC`` and cut to the written length
    after the write. Truncating to zero first frees the file's blocks, and
    on a filesystem mounted with ``discard`` that costs more than writing
    them again. The rewrite is not atomic: while it runs, or after it was
    cut short, the file can hold new bytes followed by old ones. So
    ``head`` is written as zeros before anything else and as itself last,
    after the truncation: a reader that checks the first bytes rejects a
    file whose rewrite did not finish.
    """
    path = Path(path)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        written = 0
        for chunk in itertools.chain([bytes(len(head))], chunks):
            view = memoryview(chunk).cast("B")
            written += len(view)
            while view:
                view = view[os.write(fd, view) :]
        if os.fstat(fd).st_size > written:  # a pipe or device reads as size 0
            os.ftruncate(fd, written)
        if head:
            os.pwrite(fd, head, 0)
    finally:
        os.close(fd)
    return path


# auxiliary binary targets ----------------------------------------------------


def generate_aux_targets(bio_tags: list[str], maps: LabelMaps) -> np.ndarray:
    """Per-token binary membership matrix (l x |T|), one column per slot type.

    A non-O column has 1 exactly where the tag is B-x or I-x of that type;
    the O column has 1 exactly at non-slot tokens.
    """
    out = np.zeros((len(bio_tags), maps.n_slot_types), dtype=np.float32)
    for i, tag in enumerate(bio_tags):
        if tag == OUTSIDE:
            kind = OUTSIDE
        elif tag.startswith(("B-", "I-")):
            kind = tag[2:]
        else:
            raise UnknownLabelError(f"unknown BIO tag {tag!r}")
        col = maps.slot_type_index.get(kind)
        if col is None:
            raise UnknownLabelError(f"slot type {kind!r} not in label maps")
        out[i, col] = 1.0
    return out


# batching --------------------------------------------------------------------


@dataclass
class Batch:
    """Padded, index-encoded utterances ready for the network.

    Pad positions are zero in ``mask``, flagged -1 in ``slot_targets``, and
    all-zero in ``aux_targets``; they never contribute to a loss.
    """

    token_ids: np.ndarray  # (B, L) int64
    mask: np.ndarray  # (B, L) {0,1} float32
    lengths: np.ndarray  # (B,) int64
    intent_targets: np.ndarray  # (B,) int64
    slot_targets: np.ndarray  # (B, L) int64, -1 at pad
    aux_targets: np.ndarray  # (B, L, |T|) float32
    truncated: int = 0  # count of utterances that lost tail tokens

    @property
    def size(self) -> int:
        return self.token_ids.shape[0]

    @property
    def max_len(self) -> int:
        return self.token_ids.shape[1]

    def rows(self, idx: np.ndarray) -> "Batch":
        """The utterances at ``idx``, in that order, padded only to their own
        longest length.  ``truncated`` stays with the batch that was encoded:
        a selection counts 0, so its rows are never counted twice."""
        L = int(self.lengths[idx].max())
        return Batch(
            token_ids=self.token_ids[idx, :L],
            mask=self.mask[idx, :L],
            lengths=self.lengths[idx],
            intent_targets=self.intent_targets[idx],
            slot_targets=self.slot_targets[idx, :L],
            aux_targets=self.aux_targets[idx, :L],
        )


def encode_batch(
    utterances: list[Utterance],
    maps: LabelMaps,
    vocab: Vocab,
    max_len: int | None = None,
) -> Batch:
    """Index, truncate to ``max_len`` (None keeps every token), and pad a
    batch of utterances."""
    if not utterances:
        raise ValueError("cannot encode an empty batch")
    if max_len is None:
        max_len = max(u.length for u in utterances)
    truncated = sum(1 for u in utterances if u.length > max_len)
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
        if u.intent not in maps.intent_index:
            raise UnknownLabelError(f"unknown intent label {u.intent!r}")
        intent_targets[b] = maps.intent_index[u.intent]
        for i, tag in enumerate(u.bio_tags[:n]):
            if tag not in maps.bio_index:
                raise UnknownLabelError(f"unknown BIO label {tag!r}")
            slot_targets[b, i] = maps.bio_index[tag]
        aux_targets[b, :n] = generate_aux_targets(u.bio_tags[:n], maps)
    return Batch(
        token_ids=token_ids,
        mask=mask,
        lengths=lengths,
        intent_targets=intent_targets,
        slot_targets=slot_targets,
        aux_targets=aux_targets,
        truncated=truncated,
    )


# A cut that turns one pass into two pays when it saves more padded token
# positions than this. Measured with the default d=64 model on 2 vCPUs
# (numpy 2.4, one BLAS thread). Inference: a pass has about 1 ms of fixed
# cost (a 1-utterance batch takes 0.8-1.5 ms), and each padded token position
# costs about 10 us in a 13-token batch and 25 us in a 47-token one;
# splitting 25-utterance batches broke even near 100 saved positions.
# Training (forward and backward, dropout on): a second sub-batch costs
# about 4 ms and a padded position about 50 us in the 32-utterance batches
# of the train-desk benchmark (|T| = 5, lengths 6-13) and 65 us in those of
# train-long (|T| = 13, lengths 2-47); forced splits of the train-desk epoch
# batches (seeds 1000-1005) broke even at 85-95 saved positions, so
# training uses the same constant.
SPLIT_MIN_SAVED = 100


def split_by_length(lengths: np.ndarray, min_saved: int) -> list[np.ndarray]:
    """Positions of ``lengths`` as one group, or as two when cutting them,
    stably sorted, at the cut that saves the most padded positions saves
    more than ``min_saved``: the shorter ones first, each group ascending."""
    order = np.argsort(lengths, kind="stable")
    l = lengths[order]
    # cutting before position k pads the k shorter ones to l[k-1], not l[-1]
    saved = np.arange(1, len(l)) * (l[-1] - l[:-1])
    if saved.size and saved.max() > min_saved:
        k = int(saved.argmax()) + 1
        return [np.sort(order[:k]), np.sort(order[k:])]
    return [np.arange(len(l))]


def length_groups(utterances: list[Utterance], max_len: int, size: int) -> list[np.ndarray]:
    """Indices of ``utterances`` in inference batches that pay little for
    padding: stably sorted by truncated length, cut into groups of at most
    ``size``, and each group split once more by :func:`split_by_length`
    with ``SPLIT_MIN_SAVED``.

    Each group lists its indices in ascending order, so a call that fits
    one group runs the very batch it would run unsorted (float32 results
    depend on a row's place in the batch in the last bits). Callers put
    the results back at these indices to keep their own order."""
    lengths = np.array([min(u.length, max_len) for u in utterances], dtype=np.int64)
    order = np.argsort(lengths, kind="stable")
    groups = []
    for start in range(0, len(order), size):
        idx = order[start : start + size]
        groups += [np.sort(idx[g]) for g in split_by_length(lengths[idx], SPLIT_MIN_SAVED)]
    return groups


# span extraction and exact-match F1 ------------------------------------------


def extract_spans(bio_seq: list[str]) -> set[Span]:
    """Maximal typed spans from a (possibly invalid) BIO sequence.

    Predictions need not be valid BIO: an I-x with no open x span opens a
    new span (relaxed-start repair), matching common chunking evaluators.
    """
    spans: set[Span] = set()
    open_type: str | None = None
    start = 0
    for i, tag in enumerate(bio_seq):
        if tag.startswith("B-"):
            if open_type is not None:
                spans.add(Span(open_type, start, i - 1))
            open_type, start = tag[2:], i
        elif tag.startswith("I-"):
            kind = tag[2:]
            if open_type != kind:
                if open_type is not None:
                    spans.add(Span(open_type, start, i - 1))
                open_type, start = kind, i
        else:
            if open_type is not None:
                spans.add(Span(open_type, start, i - 1))
            open_type = None
    if open_type is not None:
        spans.add(Span(open_type, start, len(bio_seq) - 1))
    return spans


def spans_to_bio(spans: set[Span], length: int) -> list[str]:
    """Render spans back to a BIO sequence of ``length`` tokens."""
    tags = [OUTSIDE] * length
    for s in sorted(spans, key=lambda s: s.start):
        tags[s.start] = f"B-{s.type}"
        for i in range(s.start + 1, s.end + 1):
            tags[i] = f"I-{s.type}"
    return tags


def span_f1(gold: list[set[Span]], pred: list[set[Span]]) -> tuple[float, float, float]:
    """Micro-averaged exact-span-match precision, recall, F1.

    A predicted span counts only when type, start, and end all match a
    gold span of the same utterance.
    """
    if len(gold) != len(pred):
        raise ValueError(f"gold/pred length mismatch: {len(gold)} vs {len(pred)}")
    tp = fp = fn = 0
    for g, p in zip(gold, pred):
        hit = len(g & p)
        tp += hit
        fp += len(p) - hit
        fn += len(g) - hit
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1
