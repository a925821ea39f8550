"""Corpus handling: BIO-tagged utterances, label inventories, batching
(with each token's slot-type target), and exact-span-match evaluation;
plus the output path every report shares: :func:`check_output_dir`
refuses a directory that cannot be made before any work starts,
:func:`tsv` formats a report and :func:`rewrite_file` writes it.

Corpus format: a directory holding three parallel line-aligned UTF-8 files,
one utterance per line, tokens/tags single-space separated:

    seq.in   book a flight to boston
    seq.out  O O O O B-city
    label    book_flight
"""

from __future__ import annotations

import errno
import itertools
import math
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


def validate_bio(tags: list[str]) -> None:
    """Check that every tag is O, B-x or I-x with a non-empty type x free of
    "/", and that every I-x is preceded by B-x or I-x of the same type."""
    prev = OUTSIDE
    for i, tag in enumerate(tags):
        if tag != OUTSIDE and not (tag.startswith("B-") or tag.startswith("I-")):
            raise BioValidationError(f"unknown tag {tag!r} at position {i}")
        if tag in ("B-", "I-"):
            raise BioValidationError(f"tag {tag!r} at position {i} has an empty slot type")
        if "/" in tag:
            raise BioValidationError(f"tag {tag!r} at position {i}: slot type has a '/'")
        if tag.startswith("I-"):
            kind = tag[2:]
            if prev not in (f"B-{kind}", f"I-{kind}"):
                raise BioValidationError(
                    f"I-{kind} at position {i} without an open {kind} span"
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
    """The three label inventories, each indexed in the order given
    (:func:`build_label_maps` gives them sorted).

    ``slot_types`` contains the literal "O" and no "/"; ``bio_labels`` holds
    exactly "O" plus B-x and I-x for each non-O type x, in any order, so
    |bio| == 2*(|types|-1) + 1. No list repeats an entry.
    ``bio_type_column`` maps each BIO index to its slot type's index.
    """

    intents: list[str]
    slot_types: list[str]
    bio_labels: list[str]
    intent_index: dict[str, int] = field(init=False)
    slot_type_index: dict[str, int] = field(init=False)
    bio_index: dict[str, int] = field(init=False)
    bio_type_column: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if OUTSIDE not in self.slot_types:
            raise ValueError('slot type inventory must contain "O"')
        slashed = [t for t in self.slot_types if "/" in t]
        if slashed:
            raise ValueError(f"slot types may not contain '/': {slashed}")
        if len(set(self.intents)) < len(self.intents):
            raise ValueError(f"intent inventory repeats an entry: {self.intents}")
        implied = [f"{b}-{t}" for t in self.slot_types if t != OUTSIDE for b in "BI"]
        if (len(set(self.slot_types)) < len(self.slot_types)
                or sorted(self.bio_labels) != sorted([OUTSIDE, *implied])):
            raise ValueError("BIO label inventory inconsistent with slot types")
        self.intent_index = {x: i for i, x in enumerate(self.intents)}
        self.slot_type_index = {x: i for i, x in enumerate(self.slot_types)}
        self.bio_index = {x: i for i, x in enumerate(self.bio_labels)}
        self.bio_type_column = np.array(
            [self.slot_type_index[OUTSIDE if tag == OUTSIDE else tag[2:]]
             for tag in self.bio_labels], dtype=np.int64)

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
        words = {tok.lower() for u in corpus for tok in u.tokens}
        return cls(sorted(words - {PAD_TOKEN, UNK_TOKEN}))  # lookup maps them to their ids

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
        intent = intent.strip()
        if not intent:
            raise CorpusFormatError(f"line {lineno}: empty intent label")
        try:
            corpus.append(Utterance(tokens=tokens, intent=intent, bio_tags=tags))
        except BioValidationError as e:
            raise BioValidationError(f"utterance {lineno}: {e}") from None
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


def tsv(header: Iterable[str], rows: Iterable[Iterable]) -> str:
    """Tab-separated lines, ``header`` first, each ending in a newline. A
    float cell (numpy's included) prints as ``.10g``, None as an empty
    cell, and anything else as ``str``."""
    def cell(x) -> str:
        if isinstance(x, (float, np.floating)):
            return f"{x:.10g}"
        return "" if x is None else str(x)
    return "".join("\t".join(map(cell, row)) + "\n" for row in itertools.chain([header], rows))


def rewrite_file(path: str | Path, chunks: Iterable, head: bytes = b"") -> Path:
    """Make ``path`` hold ``head`` followed by the bytes-like ``chunks``,
    rewriting an existing file in place and creating a missing directory.

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
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
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


def check_output_dir(path: str | Path) -> None:
    """Raise ``NotADirectoryError`` if directory ``path`` cannot be made
    because a path on the way is a file: walk up from ``path`` to the first
    path that exists, and refuse it if it is not a directory. Creates
    nothing; :func:`rewrite_file` makes the missing directories."""
    for p in (Path(path), *Path(path).parents):
        if p.exists():
            if not p.is_dir():
                raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(p))
            return


def check_labels(corpus: list[Utterance], maps: LabelMaps, max_len: int | None = None,
                 where: str = "") -> None:
    """Raise UnknownLabelError for the first intent, or BIO tag among the
    first ``max_len`` (None: all), that ``maps`` does not hold: the labels
    :func:`encode_batch` would reject, found before any batch is built."""
    for n, u in enumerate(corpus, start=1):
        if u.intent not in maps.intent_index:
            raise UnknownLabelError(f"{where}utterance {n}: unknown intent label {u.intent!r}")
        for tag in u.bio_tags[:max_len]:
            if tag not in maps.bio_index:
                raise UnknownLabelError(f"{where}utterance {n}: unknown BIO label {tag!r}")


# batching --------------------------------------------------------------------


@dataclass
class Batch:
    """Padded, index-encoded utterances ready for the network.

    Pad positions are False in ``mask`` and flagged -1 in ``slot_targets``
    and ``type_targets``; they never contribute to a loss.
    """

    token_ids: np.ndarray  # (B, L) int64
    lengths: np.ndarray  # (B,) int64
    intent_targets: np.ndarray  # (B,) int64
    slot_targets: np.ndarray  # (B, L) int64, -1 at pad
    type_targets: np.ndarray  # (B, L) int64, each tag's slot type, -1 at pad

    @property
    def size(self) -> int:
        return self.token_ids.shape[0]

    @property
    def max_len(self) -> int:
        return self.token_ids.shape[1]

    @property
    def mask(self) -> np.ndarray:
        """(B, L) bool, True at each utterance's kept tokens."""
        return np.arange(self.max_len) < self.lengths[:, None]

    def rows(self, idx: np.ndarray) -> "Batch":
        """The utterances at ``idx``, in that order, padded only to their own
        longest length."""
        L = int(self.lengths[idx].max())
        return Batch(
            token_ids=self.token_ids[idx, :L],
            lengths=self.lengths[idx],
            intent_targets=self.intent_targets[idx],
            slot_targets=self.slot_targets[idx, :L],
            type_targets=self.type_targets[idx, :L],
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
    lengths = np.array([min(u.length, max_len) for u in utterances], dtype=np.int64)
    L = int(lengths.max())
    B = len(utterances)

    token_ids = np.zeros((B, L), dtype=np.int64)
    intent_targets = np.zeros(B, dtype=np.int64)
    slot_targets = np.full((B, L), -1, dtype=np.int64)

    for b, u in enumerate(utterances):
        n = lengths[b]
        token_ids[b, :n] = [vocab.lookup(t) for t in u.tokens[:n]]
        if u.intent not in maps.intent_index:
            raise UnknownLabelError(f"unknown intent label {u.intent!r}")
        intent_targets[b] = maps.intent_index[u.intent]
        try:
            slot_targets[b, :n] = [maps.bio_index[tag] for tag in u.bio_tags[:n]]
        except KeyError as e:
            raise UnknownLabelError(f"unknown BIO label {e.args[0]!r}") from None
    return Batch(
        token_ids=token_ids,
        lengths=lengths,
        intent_targets=intent_targets,
        slot_targets=slot_targets,
        type_targets=np.where(slot_targets < 0, -1, maps.bio_type_column[slot_targets]),
    )


# A pass costs about as much as this many padded token positions, so a
# split into k groups pays when it saves more than k - 1 times as many.
# Measured with the default d=64 model on 2 vCPUs (numpy 2.4, one BLAS
# thread). Inference: a pass has about 1 ms of fixed cost (a 1-utterance
# batch takes 0.8-1.5 ms), and each padded token position costs about
# 10 us in a 13-token batch and 25 us in a 47-token one; splitting
# 25-utterance batches broke even near 100 saved positions. Training
# (forward and backward, dropout on): a second sub-batch costs about 4 ms
# and a padded position about 50 us in the 32-utterance batches of the
# train-desk benchmark (|T| = 5, lengths 6-13) and 65 us in those of
# train-long (|T| = 13, lengths 2-47); forced splits of the train-desk epoch
# batches (seeds 1000-1005) broke even at 85-95 saved positions, so
# training uses the same constant.
SPLIT_MIN_SAVED = 100


def split_by_length(lengths: np.ndarray, pass_cost: int, size: int) -> list[np.ndarray]:
    """Positions of ``lengths`` in the cheapest groups of at most ``size``,
    where a group costs ``pass_cost`` plus the positions it pads: the
    lengths stably sorted and cut into runs, the shorter ones first, each
    group ascending. Of equally cheap partitions, one with the fewest
    groups is returned. As groups are ascending, ``batch.rows(group)`` of
    a batch that fits one group is that batch, unreordered (float32
    results depend on a row's place in the batch in the last bits).

    A dynamic program runs over the group ends worth trying. In a cheapest
    partition with the fewest groups, a group ends where a run of equal
    lengths ends, or else is full (it could take the next length for
    free), so it ends a multiple of ``size`` past such an end. When all
    lengths fit one group, every cut can be undone, so a cut is worth
    trying only if the shorter ones it cuts off, padded to the longest
    length instead, would pad more than ``pass_cost`` positions. Most
    desk-length batches (6-13 tokens) have no such cut and return at once.
    """
    if size < 1:
        raise ValueError(f"batch size must be at least 1, got {size}")
    n = len(lengths)
    if not n:
        return []
    order = np.argsort(lengths, kind="stable")
    l = lengths[order]
    cut = l[:-1] != l[1:]
    if n <= size:
        cut &= np.arange(1, n) * (l[-1] - l[:-1]) > pass_cost
        if not cut.any():
            return [np.arange(n)]
    starts = [0, *(np.flatnonzero(cut) + 1).tolist()]
    full = (p for s in starts for p in range(s + size, n, size))
    pos = [0, *sorted({*starts[1:], *full, n})]
    lt, w, m = l.tolist(), n + 1, len(pos)  # w scales costs so one more group only breaks ties
    cost, prev = [0] + [math.inf] * (m - 1), [0] * m
    for i in range(m - 1):
        for j in range(i + 1, m):
            if pos[j] - pos[i] > size:
                break
            # pos[j] - pos[i] rows of the longest length, lt[pos[j] - 1]: the padding
            # plus the lengths, whose sum is the same for every partition
            c = cost[i] + ((pos[j] - pos[i]) * lt[pos[j] - 1] + pass_cost) * w + 1
            if c < cost[j]:
                cost[j], prev[j] = c, i
    groups, j = [], m - 1
    while j:
        groups.append(np.sort(order[pos[prev[j]] : pos[j]]))
        j = prev[j]
    return groups[::-1]


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


def span_keys(ids: np.ndarray, maps: LabelMaps) -> set[int]:
    """One integer key per span of an (N, L) array of BIO label ids, -1 at
    pad, read with :func:`extract_spans`' relaxed-start rule; keys of two
    arrays of one shape are equal exactly when row, type, start and end
    agree. The rows, each padded with -1 on both sides, are read as one
    sequence: a span starts at a token inside a span that is B-x or of
    another type than the one before, and ends where the next position
    does not continue it; the k-th start pairs with the k-th end."""
    outside = maps.slot_type_index[OUTSIDE]
    flat = np.pad(ids, ((0, 0), (1, 1)), constant_values=-1).ravel()
    kind = np.append(maps.bio_type_column, outside)[flat]
    begins = np.array([tag.startswith("B-") for tag in maps.bio_labels] + [False])
    cut = begins[flat[1:]] | (kind[1:] != kind[:-1])
    starts = np.flatnonzero((kind[1:] != outside) & cut) + 1
    ends = np.flatnonzero((kind[:-1] != outside) & cut)
    return set(((starts * ids.shape[1] + ends - starts) * maps.n_slot_types
                + kind[starts]).tolist())


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
