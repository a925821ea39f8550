"""Command-line surface: train, eval, explain, analyze, ablate, gradcheck,
and synth subcommands.

A flat key=value config file (keys named exactly like the flags, without
the leading dashes) can seed any command's options; explicit flags win.
Exit status is 0 on success, 1 with a categorized stderr message otherwise.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .checkpoint import (
    CheckpointCorruptError,
    CheckpointFormatError,
    CheckpointVersionError,
    load_checkpoint,
    save_checkpoint,
)
from .data import (
    BioValidationError,
    CorpusFormatError,
    UnknownLabelError,
    Utterance,
    Vocab,
    build_label_maps,
    check_labels,
    encode_batch,
    load_corpus,
    tsv,
    write_corpus,
)
from .explain import (
    extract_attentions,
    render_heatmap,
    topk_entropy_analysis,
    write_report,
)
from .gradcheck import finite_diff_check
from .model import ABLATION_FLAGS, JointModel, ModelConfig
from .synth import default_grammar, generate_synthetic_corpus
from .tensor import add
from .train import (
    RunConfig,
    TrainingDivergedError,
    curve_to_tsv,
    evaluate,
    metrics_to_tsv,
    train_model,
)

DEFAULT_K_LIST = [5.0, 10.0, 100.0]
DEFAULT_ABLATION_MODES = ["full", *(f for f in ABLATION_FLAGS if f != "no_aux_loss")]

ERROR_CATEGORIES: list[tuple[type[Exception], str]] = [
    (CorpusFormatError, "data error"),
    (BioValidationError, "data error"),
    (UnknownLabelError, "data error"),
    (CheckpointVersionError, "checkpoint error"),
    (CheckpointCorruptError, "checkpoint error"),
    (CheckpointFormatError, "checkpoint error"),
    (TrainingDivergedError, "training error"),
    (MemoryError, "memory error"),
    (FileNotFoundError, "io error"),
    (OSError, "io error"),
    (ValueError, "usage error"),
]


# RunConfig fields whose flag is not the field name: flag, extra add_argument keywords
_RENAMED_FLAGS = {
    "train_path": ("train", {"required": True, "help": "training corpus directory"}),
    "dev_path": ("dev", {"help": "dev corpus directory (reporting only)"}),
    "test_path": ("test", {"help": "held-out corpus directory"}),
    "output_dir": ("out", {"help": "output directory"}),
}


def _add_run_flags(p: argparse.ArgumentParser, ablation: bool) -> None:
    """One flag per ``RunConfig`` field, in field order; bool fields become
    switches, and only when ``ablation`` is set."""
    types = get_type_hints(RunConfig)
    for f in fields(RunConfig):
        dest, extra = _RENAMED_FLAGS.get(f.name, (f.name, {}))
        flag = "--" + dest.replace("_", "-")
        if types[f.name] is not bool:
            p.add_argument(flag, type=types[f.name], default=f.default, **extra)
        elif ablation:
            p.add_argument(flag, action="store_true")


class _Parser(argparse.ArgumentParser):
    """Takes ``-1e-3`` for a negative number, as it does ``-0.001``, so a
    bad value reaches the range checks instead of failing as an option.
    A flag it cannot parse raises ``ValueError``, which :func:`main` prints
    as one ``usage error:`` line, in place of argparse's usage block and
    exit status 2."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message: str):
        raise ValueError(message)


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = _Parser(
        prog="slotlens",
        description="Explainable joint intent detection and slot filling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, argparse.ArgumentParser] = {}

    p = commands["train"] = sub.add_parser("train", help="train a model")
    _add_run_flags(p, ablation=True)
    p.add_argument("--save-optimizer", action="store_true",
                   help="persist Adam state in the checkpoint")
    p.add_argument("--config", default="", help="key=value config file")

    p = commands["eval"] = sub.add_parser("eval", help="score a checkpoint on a corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="corpus directory")
    p.add_argument("--out", default="", help="metrics TSV path (default: stdout only)")
    p.add_argument("--config", default="")

    p = commands["explain"] = sub.add_parser(
        "explain", help="render per-type attention heatmaps for one utterance"
    )
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--text", required=True, help="whitespace-tokenized utterance")
    p.add_argument("--types", nargs="*", default=None,
                   help="slot types to render (default: all)")
    p.add_argument("--out", default="explain", help="output directory")
    p.add_argument("--config", default="")

    p = commands["analyze"] = sub.add_parser(
        "analyze", help="top-k%% attention entropy study over a corpus"
    )
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=float, nargs="+", default=DEFAULT_K_LIST)
    p.add_argument("--granularity", choices=("matrix", "rows"), default="matrix")
    p.add_argument("--include-outside", action="store_true")
    p.add_argument("--out", default="", help="entropy TSV path (default: stdout only)")
    p.add_argument("--config", default="")

    p = commands["ablate"] = sub.add_parser(
        "ablate", help="train one model per ablation mode and tabulate"
    )
    _add_run_flags(p, ablation=False)
    p.add_argument("--modes", nargs="+", default=DEFAULT_ABLATION_MODES,
                   help='"full" or ablation flag names')
    p.add_argument("--config", default="")

    p = commands["gradcheck"] = sub.add_parser(
        "gradcheck", help="finite-difference gradient audit on a tiny model"
    )
    p.add_argument("--out", default="", help="plain-text report path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--h", type=float, default=1e-6, help="perturbation size")
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--config", default="")

    p = commands["synth"] = sub.add_parser(
        "synth", help="emit a seeded synthetic corpus"
    )
    p.add_argument("--out", required=True, help="corpus directory to create")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default="")

    return parser, commands


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Flat ``key=value`` lines; blank lines and # comments allowed."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


_TRUTHY = {"1", "true", "yes", "on"}
_FALSY = {"0", "false", "no", "off"}


def _apply_config_file(subparser: argparse.ArgumentParser, raw: dict[str, str]) -> None:
    """Install config-file values as subparser defaults so flags still win.
    A flag the file supplies is no longer required on the command line."""
    actions = {a.dest: a for a in subparser._actions}
    overrides = {}
    for key, value in raw.items():
        dest = key.replace("-", "_")
        if dest not in actions or dest in ("help", "config"):
            raise ValueError(f"unknown config key {key!r}")
        action = actions[dest]
        action.required = False
        if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
            low = value.lower()
            if low not in _TRUTHY | _FALSY:
                raise ValueError(f"config key {key!r} expects a boolean, got {value!r}")
            overrides[dest] = low in _TRUTHY
        else:
            convert = action.type or str
            try:
                if action.nargs in ("+", "*"):
                    overrides[dest] = [convert(v) for v in value.split()]
                else:
                    overrides[dest] = convert(value)
            except ValueError:
                raise ValueError(
                    f"config key {key!r} expects {convert.__name__} values, got {value!r}"
                ) from None
    subparser.set_defaults(**overrides)


def _run_config_from_args(args: argparse.Namespace) -> RunConfig:
    dests = {f.name: _RENAMED_FLAGS.get(f.name, (f.name,))[0] for f in fields(RunConfig)}
    return RunConfig(**{name: getattr(args, dest) for name, dest in dests.items()
                        if hasattr(args, dest)})


def _load_training_data(run: RunConfig):
    """The training corpus, its label maps and vocabulary, and the dev and
    test corpora (or None), which must not be empty and whose labels are
    checked against those maps before any training runs."""
    corpus = load_corpus(run.train_path)
    maps = build_label_maps(corpus)
    vocab = Vocab.build(corpus)
    dev = load_corpus(run.dev_path) if run.dev_path else None
    test = load_corpus(run.test_path) if run.test_path else None
    for name, path, held_out in (("dev", run.dev_path, dev), ("test", run.test_path, test)):
        if held_out is not None:
            if not held_out:
                raise ValueError(f"{name} corpus {path} is empty")
            check_labels(held_out, maps, run.max_len, where=f"{name} corpus {path}: ")
    return corpus, maps, vocab, dev, test


def cmd_train(args: argparse.Namespace) -> int:
    run = _run_config_from_args(args)
    corpus, maps, vocab, dev, test = _load_training_data(run)
    result = train_model(corpus, maps, vocab, run, dev_corpus=dev)
    if result.truncated:
        print(f"truncated {result.truncated} training utterances to max_len {run.max_len}")
    out = Path(run.output_dir)
    save_checkpoint(
        out / "checkpoint.ckpt",
        result.model,
        maps,
        vocab,
        metadata={"epoch": run.epochs, "seed": run.seed},
        include_optimizer=args.save_optimizer,
    )
    write_report(curve_to_tsv(result.curve), out / "train_curve.tsv")
    for name, scored in (("train", corpus), ("test", test)):
        if scored is not None:
            metrics = evaluate(result.model, scored, maps, vocab, batch_size=run.batch_size)
            write_report(metrics_to_tsv(metrics), out / f"{name}_metrics.tsv")
            print(f"{name}: intent_accuracy={metrics.intent_accuracy:.4f} "
                  f"slot_f1={metrics.slot_f1:.4f}")
    print(f"checkpoint: {out / 'checkpoint.ckpt'}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    corpus = load_corpus(args.data)
    check_labels(corpus, ckpt.label_maps, ckpt.config.max_len,
                 where=f"corpus {args.data}: ")
    metrics = evaluate(ckpt.model, corpus, ckpt.label_maps, ckpt.vocab)
    text = metrics_to_tsv(metrics)
    if args.out:
        write_report(text, args.out)
    print(text, end="")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    maps = ckpt.label_maps
    tokens = args.text.split()
    if not tokens:
        raise ValueError("utterance text is empty")
    wanted = list(dict.fromkeys(args.types or maps.slot_types))
    unknown = [t for t in wanted if t not in maps.slot_types]
    if unknown:
        raise ValueError(
            f"unknown slot types {unknown}; valid types: {maps.slot_types}"
        )
    utterance = Utterance(tokens=tokens, intent=maps.intents[0],
                          bio_tags=["O"] * len(tokens))
    bundle = extract_attentions(ckpt.model, utterance, maps, ckpt.vocab,
                                include_outside=True)
    out = Path(args.out)
    for t in wanted:
        render_heatmap(bundle, t, out / f"attention_{t}.html")
    cols = [f"{j}\t%.10g" for j in range(bundle.length)]
    rows = []
    for t in maps.slot_types:
        for i, weights in enumerate(bundle.matrices[t].tolist()):
            head = f"\n{t}\t{i}\t".replace("%", "%%")
            rows.append((head + head.join(cols)) % tuple(weights))
    write_report("type\ti\tj\tweight" + "".join(rows) + "\n", out / "bundle.tsv")
    if bundle.length < len(tokens):
        print(f"truncated the text from {len(tokens)} to {bundle.length} tokens "
              f"(max_len {ckpt.config.max_len})")
    print(f"wrote {len(wanted)} heatmaps and bundle.tsv to {out}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    corpus = load_corpus(args.data)
    check_labels(corpus, ckpt.label_maps, ckpt.config.max_len,
                 where=f"corpus {args.data}: ")
    report = topk_entropy_analysis(
        ckpt.model, corpus, args.k, ckpt.label_maps, ckpt.vocab,
        granularity=args.granularity, include_outside=args.include_outside,
    )
    text = report.to_tsv()
    if args.out:
        write_report(text, args.out)
    print(text, end="")
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    base = _run_config_from_args(args)
    for mode in args.modes:
        if mode != "full" and mode not in ABLATION_FLAGS:
            raise ValueError(
                f"unknown ablation mode {mode!r}; valid: full, " + ", ".join(ABLATION_FLAGS)
            )
    corpus, maps, vocab, dev, test = _load_training_data(base)
    eval_corpus = test if test is not None else corpus
    eval_name = "test" if test is not None else "train"
    rows = []
    for mode in args.modes:
        run = base if mode == "full" else replace(base, **{mode: True})
        model = train_model(corpus, maps, vocab, run, dev_corpus=dev).model
        metrics = evaluate(model, eval_corpus, maps, vocab, batch_size=run.batch_size)
        rows.append((mode, metrics.intent_accuracy, metrics.slot_f1, model.n_params()))
    text = tsv(["mode", "intent_accuracy", "slot_f1", "n_params", f"# scored on {eval_name}"],
               rows)
    write_report(text, Path(base.output_dir) / "ablation.tsv")
    print(text, end="")
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise ValueError(f"seed must be non-negative, got {args.seed}")
    # the loss sums two batches: the first runs as one graph, the second (ten
    # 1-token utterances beside a 12-token one) as two length-sorted sub-batches
    pair = [
        Utterance(["fly", "to", "boston", "now"], "book_flight",
                  ["O", "O", "B-city", "O"]),
        Utterance(["rain", "on", "monday"], "get_weather",
                  ["O", "O", "B-day"]),
    ]
    words = [("boston", "B-city"), ("monday", "B-day"), ("rain", "O"), ("now", "O")]
    mixed = [Utterance([w], "get_weather", [tag]) for w, tag in (words * 3)[:10]] + [
        Utterance("fly to boston on monday now or to boston on monday rain".split(),
                  "book_flight",
                  ["O", "O", "B-city", "O", "B-day", "O", "O", "O", "B-city", "O",
                   "B-day", "O"]),
    ]
    maps = build_label_maps(pair + mixed)
    vocab = Vocab.build(pair + mixed)
    config = ModelConfig(
        vocab_size=len(vocab), n_intents=maps.n_intents,
        n_slot_types=maps.n_slot_types, n_bio_labels=maps.n_bio_labels,
        d=8, d_h=4, n_layers=1, n_heads=2, ffn_dim=12, max_positions=13,
        dropout_rate=0.0,
    )
    model = JointModel(config, rng=np.random.default_rng(args.seed),
                       dtype=np.float64)
    batches = [encode_batch(pair, maps, vocab), encode_batch(mixed, maps, vocab)]

    def loss():
        return add(*(model.forward(batch).loss_total for batch in batches))

    report = finite_diff_check(loss, model.params, h=args.h, tol=args.tol)
    text = report.format()
    if args.out:
        write_report(text, args.out)
    print(text.splitlines()[-1])
    if not report.passed:
        print("gradient audit failed", file=sys.stderr)
        return 1
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    corpus = generate_synthetic_corpus(args.seed, args.n, default_grammar())
    write_corpus(corpus, args.out)
    print(f"wrote {len(corpus)} utterances to {args.out}")
    return 0


COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "explain": cmd_explain,
    "analyze": cmd_analyze,
    "ablate": cmd_ablate,
    "gradcheck": cmd_gradcheck,
    "synth": cmd_synth,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()

    command = next((a for a in argv if not a.startswith("-")), None)
    try:
        config_path = None
        for i, a in enumerate(argv):
            if a == "--config" and i + 1 < len(argv):
                config_path = argv[i + 1]
            elif a.startswith("--config="):
                config_path = a.split("=", 1)[1]
        if command in commands and config_path:
            _apply_config_file(commands[command], parse_config_file(config_path))
        args = parser.parse_args(argv)
        return COMMANDS[args.command](args)
    except tuple(cls for cls, _ in ERROR_CATEGORIES) as e:
        for cls, category in ERROR_CATEGORIES:
            if isinstance(e, cls):
                print(f"{category}: {e}", file=sys.stderr)
                return 1
        raise  # unreachable


if __name__ == "__main__":
    sys.exit(main())
