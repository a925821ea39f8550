"""Seeded benchmark inputs and the one operation each workload repeats.

Every workload runs the same desk cycle so that every end-to-end metric is
measured on every workload; what differs is the shape of the input and
whether the training half runs inside the operation or once in set-up:

    train -> save -> load -> eval -> analyze -> consistency -> explain

``train-desk`` and ``train-long`` train inside the operation, on a small
held-out set for the read side. ``infer-desk`` trains its fixture model in
set-up and spends its operation on the read side over a 200-utterance
held-out set. The package is driven only through its public modules, and
always through module attributes (``train.train_model(...)``), so a traced
run sees every call through the wrappers it installs.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from slotlens import checkpoint, data, explain, synth, train

CKPT_REPEATS = 10  # save and load calls per operation, for a steady median
ENTROPY_KS = [5, 10, 100]
CHUNK = 25  # utterances or pairs per timed unit of eval, analyze, consistency
SHORT_TEMPLATE_MAX = 4  # tokens before filling
LENGTH_POOL = 4


def long_grammar() -> synth.Grammar:
    """Four intents over twelve non-O slot types (|T| = 13 with O).

    Each intent mixes two short templates (2-4 tokens before filling) with
    three long ones (about 32-47 tokens after filling), so a 32-utterance
    batch spans lengths from 2 to about 47 and padding to the batch maximum
    wastes 40-45% of the padded rows. Every utterance stays within the
    default ``max_len`` of 50.
    """
    def join(*clauses: str) -> str:
        return " ".join(clauses)

    return synth.Grammar(
        templates={
            "plan_trip": (
                "fly to {city}",
                "{airline} to {city}",
                join("i would like to plan a trip from {city} to {city} leaving",
                     "on {day} at {time} with {airline} and then stay at the",
                     "{hotel} for {duration} with a budget of about {price} and",
                     "please tell {person} about it before {day}"),
                join("can you plan a long weekend in {city} starting {day} and",
                     "book the {hotel} near a good {restaurant} for {duration}",
                     "and keep the whole trip under {price} because {person}",
                     "is paying for it this time and we leave at {time}"),
                join("please plan the trip back from {city} on {day} around",
                     "{time} with {airline} and let {person} know that we will",
                     "be at the {hotel} for {duration} and can meet at",
                     "{restaurant} later that night if {person} has time"),
            ),
            "order_food": (
                "order {dish}",
                "{dish} from {restaurant}",
                join("i would like to order {dish} and {dish} from {restaurant}",
                     "for delivery at {time} on {day} to the {room} and please",
                     "keep it under {price} because {person} is also eating with",
                     "us tonight in the {room} at home"),
                join("can you order the usual {dish} from {restaurant} for",
                     "{person} at {time} and have it delivered to our place in",
                     "{city} on {day} for no more than {price} please and let {person}",
                     "know when it is on the way"),
                join("please order {dish} for the party on {day} from",
                     "{restaurant} and make sure it arrives at {time} in the",
                     "{room} and costs less than {price} in total for everyone who",
                     "comes over from {city}"),
            ),
            "control_home": (
                "dim the {device}",
                "{device} off",
                join("please turn on the {device} in the {room} at {time} on",
                     "{day} and keep it running for {duration} and then switch",
                     "off the {device} in the {room} before {person} gets home from",
                     "{city} late at night"),
                join("can you set the {device} in the {room} to start at {time}",
                     "every {day} for {duration} and also lower the {device} in",
                     "the {room} when {person} arrives from {city} so that the",
                     "house is ready"),
                join("i would like the {device} in the {room} to turn off at",
                     "{time} and the {device} to stay on for {duration} while",
                     "{person} is away in {city} until {day} and then turn",
                     "everything back on at {time}"),
            ),
            "book_meeting": (
                "call {person}",
                "meet {person} {day}",
                join("please book a meeting with {person} and {person} on {day}",
                     "at {time} in the {room} for {duration} and order {dish}",
                     "from {restaurant} for everyone who joins the meeting in",
                     "{city} that day"),
                join("can you set up a call with {person} from {city} on {day}",
                     "at {time} for {duration} and send the notes to {person}",
                     "afterwards so we can plan the next steps with {person} in",
                     "the {room} on {day}"),
                join("i would like to meet {person} at the {hotel} in {city} on",
                     "{day} at {time} for about {duration} and then have dinner",
                     "at {restaurant} if the budget of {price} allows it and",
                     "{person} can come too"),
            ),
        },
        lexicons={
            "city": ("boston", "denver", "chicago", "seattle", "new york",
                     "san francisco"),
            "day": ("monday", "tuesday", "wednesday", "thursday", "friday",
                    "saturday", "sunday"),
            "time": ("noon", "midnight", "eight", "nine thirty", "half past six"),
            "airline": ("delta", "united", "alaska air", "american airlines"),
            "hotel": ("hilton", "marriott", "grand hyatt", "holiday inn"),
            "restaurant": ("nobu", "chipotle", "olive garden", "taco bell"),
            "dish": ("pizza", "sushi", "pad thai", "fried rice", "tacos"),
            "device": ("lights", "heater", "fan", "coffee maker", "tv"),
            "room": ("kitchen", "bedroom", "office", "living room", "garage"),
            "person": ("alice", "bob", "carol", "dave", "erin"),
            "duration": ("an hour", "two hours", "a week", "ten minutes"),
            "price": ("fifty dollars", "a hundred dollars", "twenty bucks"),
        },
        synonym_groups=(
            ("plan", "arrange"),
            ("like", "love"),
            ("please", "kindly"),
            ("order", "get"),
            ("turn", "switch"),
            ("meet", "see"),
            ("book", "reserve"),
        ),
    )


def by_template_length(grammar: synth.Grammar, long: bool) -> synth.Grammar:
    """The grammar restricted to its long (or its short) templates."""
    return replace(grammar, templates={
        intent: tuple(t for t in ts if (len(t.split()) > SHORT_TEMPLATE_MAX) == long)
        for intent, ts in grammar.templates.items()
    })


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    grammar: Callable[[], synth.Grammar]
    # share of utterances drawn from long templates, fixed rather than left to
    # chance so that a run's cost does not swing with the seed (see
    # ``generate``); None draws every utterance from the whole grammar
    long_share: float | None
    n_train: int
    n_heldout: int
    epochs: int  # per operation, or for the set-up fixture when not op_trains
    op_trains: bool
    explains_per_op: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-desk",
            why="published recipe (200 utts, |T|=5, len 6-13): per-graph-node "
                "overhead, backward and encoder dominate; read side on 100 held-out",
            grammar=synth.default_grammar, long_share=None,
            n_train=200, n_heldout=100, epochs=1, op_trains=True,
            explains_per_op=100,
        ),
        Workload(
            name="infer-desk",
            why="read side only (load, eval, analyze, consistency, explain) on "
                "200 held-out utts; fixture trained in set-up, no backward per op",
            grammar=synth.default_grammar, long_share=None,
            n_train=200, n_heldout=200, epochs=1, op_trains=False,
            explains_per_op=100,
        ),
        Workload(
            name="train-long",
            why="|T|=13 and lengths 2-47 in one batch: T*L^2 attention and FFN "
                "arithmetic and padding cost outweigh per-node overhead",
            grammar=long_grammar, long_share=0.6,
            n_train=200, n_heldout=50, epochs=1, op_trains=True,
            explains_per_op=50,
        ),
    )
}


@dataclass
class Inputs:
    """Everything one workload's operations read, made from the seed."""

    train: list[data.Utterance]
    heldout: list[data.Utterance]
    maps: data.LabelMaps
    vocab: data.Vocab
    pairs: list[tuple[data.Utterance, data.Utterance, str]]
    explain_texts: list[list[str]]
    run: train.RunConfig
    ckpt_path: Path
    # set only for a workload whose fixture is trained in set-up
    fixture_bytes: bytes | None = None
    fixture_state: dict[str, np.ndarray] | None = None
    fixture_train_s: float | None = None

    def fingerprint(self) -> str:
        """Digest of the generated inputs (and fixture file, if any)."""
        h = hashlib.sha256()
        for corpus in (self.train, self.heldout):
            for u in corpus:
                h.update(repr((u.tokens, u.intent, u.bio_tags)).encode())
        for a, b, category in self.pairs:
            h.update(repr((a.tokens, b.tokens, category)).encode())
        h.update(repr(self.explain_texts).encode())
        if self.fixture_bytes is not None:
            h.update(self.fixture_bytes)
        return h.hexdigest()


def derived_seeds(seed: int) -> tuple[int, int, int]:
    """Seeds for the training corpus, held-out corpus and modification pairs."""
    a, b, c = np.random.SeedSequence(seed).generate_state(3)
    return int(a), int(b), int(c)


def length_balanced(seed: int, n: int, grammar: synth.Grammar):
    """``n`` utterances picked at evenly spaced length ranks from a seeded
    pool of ``LENGTH_POOL * n``, in seeded order, so that the length mix (and
    with it the cost of a run) hardly moves with the seed."""
    pool = sorted(synth.generate_synthetic_corpus(seed, LENGTH_POOL * n, grammar),
                  key=lambda u: u.length)
    picked = [pool[(2 * k + 1) * len(pool) // (2 * n)] for k in range(n)]
    return [picked[i] for i in np.random.default_rng(seed).permutation(n)]


def generate(wl: Workload, grammar: synth.Grammar, seed: int, n: int):
    """``n`` utterances; with a ``long_share``, long and short ones alternate
    in a fixed pattern holding that share at every prefix."""
    if wl.long_share is None:
        return synth.generate_synthetic_corpus(seed, n, grammar)
    n_long = round(n * wl.long_share)
    long_seed, short_seed = (int(x) for x in np.random.SeedSequence(seed).generate_state(2))
    longs = iter(length_balanced(long_seed, n_long, by_template_length(grammar, True)))
    shorts = iter(length_balanced(short_seed, n - n_long,
                                  by_template_length(grammar, False)))
    out, taken = [], 0
    for i in range(n):
        if taken < round((i + 1) * wl.long_share):
            out.append(next(longs))
            taken += 1
        else:
            out.append(next(shorts))
    return out


def make_inputs(wl: Workload, seed: int, workdir: Path) -> Inputs:
    """Set-up: generate the corpora and, for a read-only workload, train and
    save its fixture model. Same seed, same inputs."""
    train_seed, heldout_seed, pairs_seed = derived_seeds(seed)
    grammar = wl.grammar()
    train_corpus = generate(wl, grammar, train_seed, wl.n_train)
    heldout = generate(wl, grammar, heldout_seed, wl.n_heldout)
    maps = data.build_label_maps(train_corpus + heldout)
    vocab = data.Vocab.build(train_corpus)
    pairs = synth.modification_pairs(heldout, grammar, pairs_seed)
    texts = [list(u.tokens) for u in heldout[:wl.explains_per_op]]
    run = train.RunConfig(seed=seed, epochs=wl.epochs)
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(train=train_corpus, heldout=heldout, maps=maps, vocab=vocab,
                    pairs=pairs, explain_texts=texts, run=run,
                    ckpt_path=workdir / "model.ckpt")
    if not wl.op_trains:
        t0 = time.perf_counter()
        result = train.train_model(train_corpus, maps, vocab, run)
        inputs.fixture_train_s = time.perf_counter() - t0
        checkpoint.save_checkpoint(inputs.ckpt_path, result.model, maps, vocab,
                                   metadata=_metadata(run), include_optimizer=True)
        inputs.fixture_bytes = inputs.ckpt_path.read_bytes()
        inputs.fixture_state = _full_state(result.model)
    return inputs


def _metadata(run: train.RunConfig) -> dict:
    return {"epoch": run.epochs, "seed": run.seed}


def _full_state(model) -> dict[str, np.ndarray]:
    """Parameters plus Adam moments, keyed like the checkpoint's tensors."""
    state = dict(model.params.state_dict())
    opt = model.params.optimizer_state()
    for kind in ("m", "v"):
        for name, arr in opt[kind].items():
            state[f"adam.{kind}.{name}"] = arr
    state["adam.step_count"] = np.array(opt["step_count"])
    return state


def _same_state(a: dict[str, np.ndarray], b: dict[str, np.ndarray]) -> bool:
    return a.keys() == b.keys() and all(
        a[k].dtype == b[k].dtype and a[k].shape == b[k].shape
        and a[k].tobytes() == b[k].tobytes()
        for k in a
    )


@dataclass
class OpResult:
    """One operation's timings, failed checks and final loss.

    ``times[phase][u]`` is (start, seconds) of unit ``u`` of the phase: a
    chunk of utterances or pairs, one explained text, one checkpoint call.
    Units are the same work in every operation, so a run can take each
    unit's median over operations. ``before_unit`` runs untimed before
    each unit.
    """

    before_unit: Callable[[], None]
    times: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    final_loss: float | None = None

    def timed(self, phase: str, fn):
        self.before_unit()
        t0 = time.perf_counter()
        out = fn()
        self.times.setdefault(phase, []).append((t0, time.perf_counter() - t0))
        return out

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)


def _in_unit(x: float) -> bool:
    return math.isfinite(x) and 0.0 <= x <= 1.0


def _chunks(items: list, size: int = CHUNK) -> list[list]:
    return [items[i:i + size] for i in range(0, len(items), size)]


def run_op(wl: Workload, inp: Inputs, workdir: Path, phase,
           before_unit: Callable[[], None]) -> OpResult:
    """One closed-loop operation. ``phase(name)`` returns a context manager
    around each step (a trace span in a traced run, a no-op otherwise)."""
    res = OpResult(before_unit)
    maps, vocab, run = inp.maps, inp.vocab, inp.run

    def save(model, path, maps, vocab, metadata):
        res.timed("save", lambda: checkpoint.save_checkpoint(
            path, model, maps, vocab, metadata=metadata, include_optimizer=True))
        return path.read_bytes()

    if wl.op_trains:
        with phase("train"):
            result = res.timed("train", lambda: train.train_model(
                inp.train, maps, vocab, run))
        losses = [s.loss_total for s in result.curve]
        res.check(len(losses) == run.epochs and all(map(math.isfinite, losses)),
                  f"training losses not finite: {losses}")
        res.final_loss = losses[-1] if losses else None
        with phase("save"):
            saved = save(result.model, inp.ckpt_path, maps, vocab, _metadata(run))
        reference = _full_state(result.model)
    else:
        saved, reference = inp.fixture_bytes, inp.fixture_state

    with phase("load"):
        for _ in range(CKPT_REPEATS):
            ckpt, model = res.timed("load", lambda: _load(inp.ckpt_path))
            res.check(_same_state(_full_state(model), reference),
                      "reloaded checkpoint differs from the saved state")
    with phase("save"):
        for _ in range(CKPT_REPEATS):
            resaved = save(model, inp.ckpt_path.with_name("resaved.ckpt"),
                           ckpt.label_maps, ckpt.vocab, ckpt.metadata)
            res.check(resaved == saved,
                      "re-saved checkpoint bytes differ from the original")

    with phase("eval"):
        for chunk in _chunks(inp.heldout):
            metrics = res.timed("eval", lambda: train.evaluate(
                model, chunk, maps, vocab, run.max_len, run.batch_size))
            res.check(all(_in_unit(getattr(metrics, f)) for f in
                          ("intent_accuracy", "slot_precision", "slot_recall",
                           "slot_f1")),
                      f"metrics outside [0, 1]: {metrics}")

    # attention rows are checked against ROW_SUM_TOLERANCE whenever a bundle
    # is built; a violation raises and fails the operation
    with phase("analyze"):
        for chunk in _chunks(inp.heldout):
            report = res.timed("analyze", lambda: explain.topk_entropy_analysis(
                model, chunk, ENTROPY_KS, maps, vocab))
            top = 2 * math.log2(max(u.length for u in chunk)) + 1e-9
            res.check(report.n_utterances == len(chunk)
                      and len(report.rows) == len(ENTROPY_KS)
                      and all(0.0 <= e <= top for r in report.rows
                              for e in (r.pos_entropy, r.neg_entropy)),
                      "entropy report malformed or out of range")

    with phase("consistency"):
        for chunk in _chunks(inp.pairs):
            report = res.timed("consistency", lambda: explain.consistency_analysis(
                model, chunk, maps, vocab))
            res.check(len(report.pairs) == len(chunk)
                      and all(_in_unit(p.score) for p in report.pairs),
                      "consistency scores missing or outside [0, 1]")

    heatmaps = workdir / "explain"
    with phase("explain"):
        for tokens in inp.explain_texts:
            bundle = res.timed("explain", lambda: _explain(model, tokens, maps,
                                                           vocab, heatmaps))
            res.check(set(bundle.matrices) == set(maps.slot_types)
                      and all(np.abs(m.sum(axis=-1) - 1.0).max()
                              <= explain.ROW_SUM_TOLERANCE
                              for m in bundle.matrices.values()),
                      "explain attention rows do not sum to 1")
    return res


def _load(path: Path):
    ckpt = checkpoint.load_checkpoint(path)
    return ckpt, checkpoint.model_from_checkpoint(ckpt)


def _explain(model, tokens, maps, vocab, out_dir: Path):
    """What ``slotlens explain --text`` does: the text as an all-O utterance
    of the first intent, its attentions, one heatmap per slot type."""
    u = data.Utterance(tokens=tokens, intent=maps.intents[0],
                       bio_tags=[data.OUTSIDE] * len(tokens))
    bundle = explain.extract_attentions(model, u, maps, vocab, include_outside=True)
    for t in maps.slot_types:
        explain.render_heatmap(bundle, t, out_dir / f"attention_{t}.html")
    return bundle
