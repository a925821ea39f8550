"""Training loop, evaluation metrics, and run configuration.

Optimizer defaults are the published recipe: Adam at learning rate 5e-5,
dropout 0.1, batch size 32, equal loss weights, maximum length 50. There
is no early stopping; the final-epoch model is the result, and a dev
split, when given, is scored per epoch for reporting only.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .data import (
    SPLIT_MIN_SAVED, LabelMaps, Utterance, Vocab, encode_batch, span_f1, span_keys,
    split_by_length, tsv,
)
from .model import JointModel, ModelConfig
from .optim import adam_step
from .tensor import backward


class TrainingDivergedError(RuntimeError):
    """The total loss or a parameter's gradient became non-finite, a
    gradient grew too large for Adam to square, or an update left a weight
    too large for the next forward."""


@dataclass(frozen=True)
class RunConfig:
    """One experiment: data locations, model sizes, optimizer settings."""

    train_path: str = ""
    dev_path: str = ""
    test_path: str = ""
    output_dir: str = "runs/default"
    seed: int = 0
    epochs: int = 20
    batch_size: int = 32
    lr: float = 5e-5
    dropout: float = 0.1
    d: int = 64
    d_h: int = 32
    n_layers: int = 2
    n_heads: int = 4
    ffn_dim: int = 128
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0
    max_len: int = 50
    no_aux_network: bool = False
    no_cross_attention: bool = False
    no_intent_concat: bool = False
    no_aux_loss: bool = False
    frozen_uniform_type_attention: bool = False

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be non-negative, got {self.epochs}")
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.max_len < 1:
            raise ValueError(f"max_len must be at least 1, got {self.max_len}")

    def model_config(self, vocab_size: int, maps: LabelMaps) -> ModelConfig:
        """The model half of the run: every field shared with ``ModelConfig``
        by name, plus the sizes the data fixes."""
        own = {f.name for f in fields(self)}
        shared = {f.name: getattr(self, f.name) for f in fields(ModelConfig) if f.name in own}
        return ModelConfig(
            vocab_size=vocab_size,
            n_intents=maps.n_intents,
            n_slot_types=maps.n_slot_types,
            n_bio_labels=maps.n_bio_labels,
            max_positions=self.max_len + 1,
            dropout_rate=self.dropout,
            **shared,
        )


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    loss_intent: float
    loss_type: float
    loss_slot: float
    loss_total: float
    dev_intent_accuracy: float | None = None
    dev_slot_f1: float | None = None


@dataclass(frozen=True)
class Metrics:
    intent_accuracy: float
    slot_precision: float
    slot_recall: float
    slot_f1: float

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{f.name} out of [0, 1]: {v}")


@dataclass
class TrainResult:
    model: JointModel
    curve: list[EpochStats] = field(default_factory=list)
    truncated: int = 0  # training utterances cut to ``max_len``


def _batches(n: int, batch_size: int, order: np.ndarray):
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def train_model(
    corpus: list[Utterance],
    maps: LabelMaps,
    vocab: Vocab,
    run: RunConfig,
    dev_corpus: list[Utterance] | None = None,
) -> TrainResult:
    """Train for exactly ``run.epochs`` epochs; deterministic given the seed.

    Three independent random streams (parameter init, epoch shuffling,
    dropout) are spawned from the seed, so ablation variants sharing a
    seed also share their initial encoder weights where shapes agree.
    """
    if dev_corpus is not None and not dev_corpus:
        raise ValueError("dev corpus is empty")
    init_ss, shuffle_ss, dropout_ss = np.random.SeedSequence(run.seed).spawn(3)
    model = JointModel(
        run.model_config(len(vocab), maps), rng=np.random.default_rng(init_ss)
    )
    shuffle_rng = np.random.default_rng(shuffle_ss)
    dropout_rng = np.random.default_rng(dropout_ss)
    model.params.zero_grads()

    curve: list[EpochStats] = []
    n = len(corpus)
    whole = encode_batch(corpus, maps, vocab, run.max_len)
    for epoch in range(run.epochs):
        order = shuffle_rng.permutation(n)
        sums = np.zeros(4)
        for idx in _batches(n, run.batch_size, order):
            batch = whole.rows(idx)
            # overflow shows up as a non-finite loss or gradient, which the
            # checks below report; numpy need not warn about it first
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                out = model.forward(batch, rng=dropout_rng)
                total = out.loss_total.item()
                if not np.isfinite(total):
                    raise TrainingDivergedError(
                        f"non-finite loss {total} at epoch {epoch + 1}"
                    )
                backward(out.loss_total)
                grad = model.params.grad
                # Adam squares the gradient: past the square root of the
                # largest float its second moment overflows, and the update
                # silently drops to zero
                bound = math.sqrt(np.finfo(grad.dtype).max)
                if not -bound < grad.min() <= grad.max() < bound:
                    finite = np.isfinite(grad)
                    large = finite.all()
                    at = np.argmax(np.abs(grad) >= bound) if large else np.argmin(finite)
                    what = "gradient beyond Adam's range" if large else "non-finite gradient"
                    raise TrainingDivergedError(f"{what} for parameter "
                                                f"{model.params.name_at(int(at))!r} "
                                                f"at epoch {epoch + 1}")
                adam_step(model.params, lr=run.lr)
                # a weight this large overflows the next forward, which
                # could no longer say where it came from
                weights = model.params.data
                if not -bound < weights.min() <= weights.max() < bound:
                    at = np.argmin(np.abs(weights) < bound)
                    raise TrainingDivergedError(
                        f"parameter {model.params.name_at(int(at))!r} beyond "
                        f"{weights.dtype}'s range after the update at epoch {epoch + 1}")
            sums += len(idx) * np.array(
                [out.loss_intent.item(), out.loss_type.item(),
                 out.loss_slot.item(), total]
            )
        dev_acc = dev_f1 = None
        if dev_corpus is not None:
            dev = evaluate(model, dev_corpus, maps, vocab, batch_size=run.batch_size)
            dev_acc, dev_f1 = dev.intent_accuracy, dev.slot_f1
        curve.append(
            EpochStats(
                epoch=epoch + 1,
                loss_intent=sums[0] / n,
                loss_type=sums[1] / n,
                loss_slot=sums[2] / n,
                loss_total=sums[3] / n,
                dev_intent_accuracy=dev_acc,
                dev_slot_f1=dev_f1,
            )
        )
    return TrainResult(model=model, curve=curve,
                       truncated=sum(u.length > run.max_len for u in corpus))


def evaluate(
    model: JointModel,
    corpus: list[Utterance],
    maps: LabelMaps,
    vocab: Vocab,
    max_len: int | None = None,
    batch_size: int = 32,
) -> Metrics:
    """Intent accuracy plus exact-span-match micro precision/recall/F1 over
    the spans :func:`span_keys` reads from the gold and predicted label ids.

    Utterances are truncated to ``max_len`` tokens, by default the longest
    the model takes (``config.max_len``), encoded once and run in length
    groups of at most ``batch_size`` (see :func:`split_by_length`).
    """
    if not corpus:
        raise ValueError("cannot evaluate an empty corpus")
    if max_len is None:
        max_len = model.config.max_len
    if max_len < 1:
        raise ValueError(f"max_len must be at least 1, got {max_len}")
    whole = encode_batch(corpus, maps, vocab, max_len)
    intents, slots = np.empty_like(whole.intent_targets), np.full_like(whole.slot_targets, -1)
    for idx in split_by_length(whole.lengths, SPLIT_MIN_SAVED, batch_size):
        sub = whole.rows(idx)
        intents[idx], slots[idx, : sub.max_len] = model.predict(sub)
    return Metrics(int((intents == whole.intent_targets).sum()) / len(corpus),
                   *span_f1([span_keys(whole.slot_targets, maps)], [span_keys(slots, maps)]))


def curve_to_tsv(curve: list[EpochStats]) -> str:
    return tsv([f.name for f in fields(EpochStats)], map(astuple, curve))


def metrics_to_tsv(metrics: Metrics) -> str:
    return tsv([f.name for f in fields(Metrics)], [astuple(metrics)])
