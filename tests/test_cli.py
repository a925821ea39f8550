"""End-to-end tests of the command-line surface via main()."""

import shutil
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from conftest import edited_copy, rewrite_manifest, table_edit

from slotlens import cli, optim, train
from slotlens.checkpoint import load_checkpoint
from slotlens.cli import main, parse_config_file
from slotlens.data import (INTENT_FILE, TAGS_FILE, TOKENS_FILE, load_corpus,
                           write_corpus, Utterance)
from slotlens.explain import extract_attentions
from slotlens.train import RunConfig


TINY = [
    "--d", "8", "--d-h", "4", "--n-layers", "1", "--n-heads", "2",
    "--ffn-dim", "12", "--epochs", "2", "--batch-size", "4", "--lr", "1e-3",
]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    assert main(["synth", "--out", str(root / "train"), "--n", "24",
                 "--seed", "0"]) == 0
    assert main(["synth", "--out", str(root / "test"), "--n", "8",
                 "--seed", "1"]) == 0
    return root


@pytest.fixture(scope="module")
def trained_dir(corpus_dir):
    out = corpus_dir / "run"
    rc = main(["train", "--train", str(corpus_dir / "train"),
               "--test", str(corpus_dir / "test"), "--out", str(out), *TINY])
    assert rc == 0
    return out


class TestSynth:
    def test_writes_loadable_three_file_corpus(self, corpus_dir):
        corpus = load_corpus(corpus_dir / "train")
        assert len(corpus) == 24
        assert (corpus_dir / "train" / "seq.in").exists()
        assert (corpus_dir / "train" / "seq.out").exists()
        assert (corpus_dir / "train" / "label").exists()

    def test_same_seed_same_corpus(self, tmp_path):
        main(["synth", "--out", str(tmp_path / "a"), "--n", "10", "--seed", "7"])
        main(["synth", "--out", str(tmp_path / "b"), "--n", "10", "--seed", "7"])
        for name in ("seq.in", "seq.out", "label"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("n", ["-3", "0"])
    def test_bad_count_is_one_usage_error_line(self, capsys, tmp_path, n):
        rc = main(["synth", "--out", str(tmp_path / "c"), "--n", n])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: utterance count must be at least 1, got {n}\n"
        assert not (tmp_path / "c").exists()


class TestTrain:
    def test_writes_checkpoint_curve_and_metrics(self, trained_dir):
        assert (trained_dir / "checkpoint.ckpt").exists()
        curve = (trained_dir / "train_curve.tsv").read_text().splitlines()
        assert curve[0].startswith("epoch\t")
        assert len(curve) == 1 + 2
        metrics = (trained_dir / "train_metrics.tsv").read_text().splitlines()
        assert metrics[0] == "intent_accuracy\tslot_precision\tslot_recall\tslot_f1"
        assert (trained_dir / "test_metrics.tsv").exists()

    def test_prints_summary(self, corpus_dir, capsys, tmp_path):
        main(["train", "--train", str(corpus_dir / "train"),
              "--out", str(tmp_path / "r"), *TINY, "--epochs", "1"])
        out = capsys.readouterr().out
        assert "intent_accuracy=" in out
        assert "checkpoint:" in out

    def test_reports_truncated_training_utterances(self, corpus_dir, capsys, tmp_path):
        n = sum(u.length > 5 for u in load_corpus(corpus_dir / "train"))
        assert n > 0
        assert main(["train", "--train", str(corpus_dir / "train"),
                     "--out", str(tmp_path / "r"), *TINY, "--max-len", "5"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.startswith("truncated")]
        assert lines == [f"truncated {n} training utterances to max_len 5"]

    def test_says_nothing_when_nothing_is_truncated(self, corpus_dir, capsys, tmp_path):
        assert main(["train", "--train", str(corpus_dir / "train"),
                     "--out", str(tmp_path / "r"), *TINY, "--epochs", "1"]) == 0
        out = capsys.readouterr().out
        assert not [line for line in out.splitlines() if line.startswith("truncated")]

    def test_non_finite_gradient_is_one_training_error_line(self, corpus_dir, capsys,
                                                            tmp_path, monkeypatch):
        models = []

        class Recorded(train.JointModel):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                models.append(self)

        def poisoned(loss):
            real_backward(loss)
            models[-1].params["fusion.ll.w"].grad[0, 0] = np.nan

        real_backward = train.backward
        monkeypatch.setattr(train, "JointModel", Recorded)
        monkeypatch.setattr(train, "backward", poisoned)
        rc = main(["train", "--train", str(corpus_dir / "train"),
                   "--out", str(tmp_path / "r"), *TINY])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == ("training error: non-finite gradient for parameter "
                       "'fusion.ll.w' at epoch 1\n")

    def test_refused_allocation_is_one_memory_error_line(self, corpus_dir, capsys, tmp_path,
                                                         monkeypatch):
        """A model size numpy refuses (``--d 100000`` asks for 596 GiB) ends in
        one categorized line. The refusal is simulated: nothing large is
        allocated."""
        message = "Unable to allocate 596. GiB for an array with shape (160000000000,)"

        def refuse(self, *args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(optim.ParamSet, "allocate", refuse)
        rc = main(["train", "--train", str(corpus_dir / "train"),
                   "--out", str(tmp_path / "r"), *TINY])
        assert rc == 1
        assert capsys.readouterr().err == f"memory error: {message}\n"

    @pytest.mark.parametrize("flag,utterance,label", [
        ("--test", Utterance(["fly", "to", "x"], "book_flight", ["O", "O", "B-no_such_type"]),
         "'B-no_such_type'"),
        ("--dev", Utterance(["hello"], "made_up_intent", ["O"]), "'made_up_intent'"),
    ], ids=["test-tag", "dev-intent"])
    def test_unknown_held_out_label_fails_before_training(self, corpus_dir, capsys,
                                                          tmp_path, monkeypatch, flag,
                                                          utterance, label):
        held_out = load_corpus(corpus_dir / "test") + [utterance]
        write_corpus(held_out, tmp_path / "held_out")
        trained = []
        monkeypatch.setattr(cli, "train_model",
                            lambda *a, **kw: trained.append(1) or train.train_model(*a, **kw))
        out = tmp_path / "r"
        rc = main(["train", "--train", str(corpus_dir / "train"),
                   flag, str(tmp_path / "held_out"), "--out", str(out), *TINY])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == (f"data error: {flag[2:]} corpus {tmp_path / 'held_out'}: "
                                f"utterance {len(held_out)}: unknown "
                                f"{'BIO' if 'B-' in label else 'intent'} label {label}\n")
        assert captured.out == "" and trained == []
        assert not any((out / name).exists() for name in
                       ("checkpoint.ckpt", "train_curve.tsv", "train_metrics.tsv"))

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("flag", ["--dev", "--test"])
    def test_empty_held_out_corpus_refused_before_training(self, corpus_dir, capsys,
                                                           tmp_path, monkeypatch, command,
                                                           flag):
        """Three empty files as ``--dev`` or ``--test`` train no model: an
        empty dev corpus was dropped silently, and an empty test corpus was
        refused only after training and saving."""
        empty = tmp_path / "empty"
        empty.mkdir()
        for name in (TOKENS_FILE, TAGS_FILE, INTENT_FILE):
            (empty / name).write_text("")
        calls = []

        def never(*args, **kwargs):
            calls.append(args)
            raise AssertionError("train_model ran")

        monkeypatch.setattr(cli, "train_model", never)
        out = tmp_path / "r"
        rc = main([command, "--train", str(corpus_dir / "train"), flag, str(empty),
                   "--out", str(out), *TINY])
        captured = capsys.readouterr()
        assert rc == 1 and calls == []
        assert captured.err == f"usage error: {flag[2:]} corpus {empty} is empty\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("word", ["<unk>", "<UNK>", "<Pad>"])
    def test_corpus_holding_a_reserved_token_trains(self, capsys, tmp_path, word):
        write_corpus([Utterance(["fly", word, "boston"], "book_flight", ["O", "O", "B-city"]),
                      Utterance(["hello"], "greet", ["O"])], tmp_path / "c")
        rc = main(["train", "--train", str(tmp_path / "c"), "--out", str(tmp_path / "r"),
                   *TINY, "--epochs", "1"])
        assert (rc, capsys.readouterr().err) == (0, "")
        vocab = load_checkpoint(tmp_path / "r" / "checkpoint.ckpt").vocab
        assert vocab.id_to_token == ["<pad>", "<unk>", "boston", "fly", "hello"]

    @pytest.mark.parametrize("blank", ["", "  "])
    def test_blank_intent_line_is_one_data_error_line(self, capsys, tmp_path, blank):
        write_corpus([Utterance(["hello"], "greet", ["O"]), Utterance(["bye"], "greet", ["O"])],
                     tmp_path / "c")
        (tmp_path / "c" / INTENT_FILE).write_text(f"greet\n{blank}\n", encoding="utf-8")
        rc = main(["train", "--train", str(tmp_path / "c"), "--out", str(tmp_path / "r"), *TINY])
        assert (rc, capsys.readouterr().err) == (1, "data error: line 2: empty intent label\n")
        assert not (tmp_path / "r").exists()

    def test_missing_corpus_is_categorized(self, capsys, tmp_path):
        rc = main(["train", "--train", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "r"), *TINY])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(("io error:", "data error:"))

    def test_missing_required_flag_exits_nonzero(self, capsys):
        assert main(["train"]) == 1
        assert capsys.readouterr().err == (
            "usage error: the following arguments are required: --train\n")

    def test_overflowing_learning_rate_is_one_training_error_line(self, corpus_dir, capsys,
                                                                  tmp_path):
        """The first update leaves weights too large for the next forward:
        the error names the first of them in layout order, and numpy prints
        no warning before the error line."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # pytest would keep a warning off stderr
            rc = main(["train", "--train", str(corpus_dir / "train"),
                       "--out", str(tmp_path / "r"), *TINY, "--lr", "1e30"])
        assert rc == 1
        assert capsys.readouterr().err == ("training error: parameter 'cross.k.b' beyond "
                                           "float32's range after the update at epoch 1\n")

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--help"])
        assert exc.value.code == 0
        assert "--train" in capsys.readouterr().out


class TestRunFlags:
    """The train and ablate flags are the RunConfig fields, one each."""

    FLAGS = {
        "train_path": "--train", "dev_path": "--dev", "test_path": "--test",
        "output_dir": "--out", "seed": "--seed", "epochs": "--epochs",
        "batch_size": "--batch-size", "lr": "--lr", "dropout": "--dropout",
        "d": "--d", "d_h": "--d-h", "n_layers": "--n-layers", "n_heads": "--n-heads",
        "ffn_dim": "--ffn-dim", "alpha": "--alpha", "beta": "--beta",
        "gamma": "--gamma", "max_len": "--max-len",
        "no_aux_network": "--no-aux-network",
        "no_cross_attention": "--no-cross-attention",
        "no_intent_concat": "--no-intent-concat", "no_aux_loss": "--no-aux-loss",
        "frozen_uniform_type_attention": "--frozen-uniform-type-attention",
    }
    NON_DEFAULT = RunConfig(
        train_path="tr", dev_path="dv", test_path="te", output_dir="o", seed=5,
        epochs=3, batch_size=7, lr=0.25, dropout=0.5, d=12, d_h=5, n_layers=3,
        n_heads=3, ffn_dim=9, alpha=0.5, beta=2.0, gamma=3.0, max_len=9,
        no_aux_network=True, no_cross_attention=True, no_intent_concat=True,
        no_aux_loss=True, frozen_uniform_type_attention=True,
    )

    @pytest.fixture
    def parsed(self, monkeypatch):
        """Run main() with the train command replaced by one that records
        the RunConfig it would train."""
        runs = []
        monkeypatch.setitem(cli.COMMANDS, "train",
                            lambda args: runs.append(cli._run_config_from_args(args)) or 0)
        return runs

    def test_every_field_has_a_flag_and_a_non_default_value(self):
        assert list(self.FLAGS) == [f.name for f in fields(RunConfig)]
        for f in fields(RunConfig):
            assert getattr(self.NON_DEFAULT, f.name) != f.default, f.name

    def test_required_flag_alone_gives_the_defaults(self, parsed):
        assert main(["train", "--train", "X"]) == 0
        assert parsed == [RunConfig(train_path="X")]

    def test_every_field_round_trips_through_its_flag(self, parsed):
        argv = ["train"]
        for name, flag in self.FLAGS.items():
            value = getattr(self.NON_DEFAULT, name)
            argv += [flag] if value is True else [flag, str(value)]
        assert main(argv) == 0
        assert parsed == [self.NON_DEFAULT]

    @pytest.mark.parametrize("batch_key", ["batch-size", "batch_size"])
    def test_every_field_round_trips_through_its_config_key(self, parsed, tmp_path,
                                                           batch_key):
        # --train is required, so train_path can only come from the flag
        lines = []
        for name, flag in self.FLAGS.items():
            if name != "train_path":
                key = batch_key if name == "batch_size" else flag[2:]
                lines.append(f"{key}={getattr(self.NON_DEFAULT, name)}")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        assert main(["train", "--train", "tr", "--config", str(cfg)]) == 0
        assert parsed == [self.NON_DEFAULT]

    def test_ablate_has_no_ablation_flags(self, capsys, tmp_path):
        assert main(["ablate", "--train", "X", "--no-aux-loss"]) == 1
        assert capsys.readouterr().err == (
            "usage error: unrecognized arguments: --no-aux-loss\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("no-aux-loss=true\n")
        capsys.readouterr()
        assert main(["ablate", "--train", "X", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "no-aux-loss" in err

    @pytest.mark.parametrize("flag,value,field", [
        ("--n-heads", "0", "n_heads"), ("--d", "0", "d"), ("--ffn-dim", "0", "ffn_dim"),
        ("--dropout", "1.0", "dropout_rate"), ("--batch-size", "0", "batch_size"),
        ("--batch-size", "-1", "batch_size"), ("--epochs", "-2", "epochs"),
        ("--lr", "-1", "lr"), ("--lr", "-1e-3", "lr"),
        ("--n-layers", "-1", "n_layers must be non-negative"),
        ("--max-len", "0", "max_len must be at least 1"),
        ("--epochs", "nan", "argument --epochs: invalid int value: 'nan'"),
        ("--batch-size", "nan", "argument --batch-size: invalid int value: 'nan'"),
        ("--max-len", "1e30", "argument --max-len: invalid int value: '1e30'"),
    ])
    def test_bad_value_is_one_usage_error_line(self, corpus_dir, capsys, tmp_path,
                                               flag, value, field):
        rc = main(["train", "--train", str(corpus_dir / "train"),
                   "--out", str(tmp_path / "r"), *TINY, flag, value])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert field in err
        assert not (tmp_path / "r").exists()


class TestEval:
    def test_scores_checkpoint(self, corpus_dir, trained_dir, capsys, tmp_path):
        out_file = tmp_path / "m.tsv"
        rc = main(["eval", "--checkpoint", str(trained_dir / "checkpoint.ckpt"),
                   "--data", str(corpus_dir / "test"), "--out", str(out_file)])
        assert rc == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "intent_accuracy\tslot_precision\tslot_recall\tslot_f1"
        assert lines[0] in capsys.readouterr().out

    def test_unseen_intent_is_a_data_error(self, trained_dir, capsys, tmp_path):
        bad = [Utterance(["hello"], "made_up_intent", ["O"])]
        write_corpus(bad, tmp_path / "bad")
        rc = main(["eval", "--checkpoint", str(trained_dir / "checkpoint.ckpt"),
                   "--data", str(tmp_path / "bad")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert "made_up_intent" in err

    @pytest.mark.parametrize("command,utterance,message", [
        ("eval", Utterance(["hello"], "no_such_intent", ["O"]),
         "unknown intent label 'no_such_intent'"),
        ("analyze", Utterance(["fly", "to", "x"], "book_flight", ["O", "O", "B-no_such_type"]),
         "unknown BIO label 'B-no_such_type'"),
    ], ids=["eval-intent", "analyze-tag"])
    def test_unknown_label_names_file_and_utterance_before_any_inference(
            self, corpus_dir, trained_dir, capsys, monkeypatch, tmp_path, command, utterance,
            message):
        from slotlens import model as model_module

        def no_inference(*args, **kwargs):
            raise AssertionError("inference ran before the labels were checked")

        monkeypatch.setattr(model_module, "infer", no_inference)
        corpus = load_corpus(corpus_dir / "test") + [utterance]
        write_corpus(corpus, tmp_path / "held_out")
        rc = main([command, "--checkpoint", str(trained_dir / "checkpoint.ckpt"),
                   "--data", str(tmp_path / "held_out")])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == (f"data error: corpus {tmp_path / 'held_out'}: "
                                f"utterance {len(corpus)}: {message}\n")

    def test_garbage_checkpoint_is_a_checkpoint_error(self, capsys, tmp_path,
                                                      corpus_dir):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        rc = main(["eval", "--checkpoint", str(path),
                   "--data", str(corpus_dir / "test")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("checkpoint error:")

    def test_non_utf8_corpus_is_a_data_error(self, trained_dir, capsys, tmp_path):
        write_corpus([Utterance(["hello"], "greet", ["O"])], tmp_path / "bad")
        seq_in = tmp_path / "bad" / "seq.in"
        seq_in.write_bytes(b"\xff\xfe" + seq_in.read_bytes())
        rc = main(["eval", "--checkpoint", str(trained_dir / "checkpoint.ckpt"),
                   "--data", str(tmp_path / "bad")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        assert str(seq_in) in err

    @pytest.mark.parametrize("edit,key", [
        (table_edit(lambda m: m.pop("params")), "params"),
        (lambda m: m["config"].update(d="64"), "d"),
        (lambda m: m.update(vocab=m["vocab"][2:]), "vocab"),
        (table_edit(lambda m: m["params"][1].update(offset=m["params"][0]["offset"])),
         "offset"),
        (lambda m: m.update(optimizer={"m": [], "v": []}), "step_count"),
        (table_edit(lambda m: m.update(optimizer={"step_count": 1, "m": ["no.such.param"],
                                                  "v": []})), "m"),
    ])
    def test_malformed_manifest_is_a_checkpoint_error(self, corpus_dir, trained_dir,
                                                      capsys, tmp_path, v1_copy, edit, key):
        path = Path(shutil.copy(trained_dir / "checkpoint.ckpt", tmp_path / "edited.ckpt"))
        path = edited_copy(path, v1_copy, edit)
        rc = main(["eval", "--checkpoint", str(path), "--data", str(corpus_dir / "test")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("checkpoint error:") and err.count("\n") == 1
        assert f"'{key}'" in err

    def test_negative_layer_count_is_one_checkpoint_error_line(self, corpus_dir, trained_dir,
                                                               capsys, tmp_path):
        path = Path(shutil.copy(trained_dir / "checkpoint.ckpt", tmp_path / "bad.ckpt"))
        rewrite_manifest(path, lambda m: m["config"].update(n_layers=-1))
        rc = main(["eval", "--checkpoint", str(path), "--data", str(corpus_dir / "test")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"checkpoint error: {path}: invalid config: n_layers must be")
        assert err.count("\n") == 1

    def test_config_disagreeing_with_parameters_names_the_file(self, corpus_dir, capsys,
                                                               v1_copy):
        """Only a version 1 manifest names parameters apart from the config:
        its moment lists and table are then not those a version 1 writer
        made for that config. In later versions such a config changes the
        layout the file length is checked against."""
        path = rewrite_manifest(v1_copy, lambda m: m["config"].update(no_cross_attention=True))
        rc = main(["eval", "--checkpoint", str(path), "--data", str(corpus_dir / "test")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"checkpoint error: {path}: optimizer key 'm' entry 0 is "
                              "'cross.k.b', a version 1 writer made 'encoder.cls_emb'")
        assert err.count("\n") == 1


class TestExplain:
    def test_writes_heatmaps_and_bundle(self, trained_dir, tmp_path):
        out = tmp_path / "ex"
        rc = main(["explain", "--checkpoint", str(trained_dir / "checkpoint.ckpt"),
                   "--text", "book a flight to boston", "--out", str(out)])
        assert rc == 0
        html_files = sorted(p.name for p in out.glob("attention_*.html"))
        assert len(html_files) == 5
        lines = (out / "bundle.tsv").read_text().splitlines()
        assert lines[0] == "type\ti\tj\tweight"
        assert len(lines) == 1 + 5 * 5 * 5

    def test_type_filter_limits_heatmaps(self, trained_dir, tmp_path):
        out = tmp_path / "one"
        rc = main(["explain", "--checkpoint", str(trained_dir / "checkpoint.ckpt"),
                   "--text", "fly to boston", "--types", "city",
                   "--out", str(out)])
        assert rc == 0
        assert [p.name for p in out.glob("attention_*.html")] == \
            ["attention_city.html"]
        # the dump still covers every type
        lines = (out / "bundle.tsv").read_text().splitlines()
        assert len(lines) == 1 + 5 * 3 * 3

    def test_a_type_named_twice_is_rendered_once(self, trained_dir, capsys, tmp_path):
        out = tmp_path / "twice"
        rc = main(["explain", "--checkpoint", str(trained_dir / "checkpoint.ckpt"),
                   "--text", "fly to boston", "--types", "city", "day", "city",
                   "--out", str(out)])
        assert rc == 0
        assert sorted(p.name for p in out.glob("attention_*.html")) == \
            ["attention_city.html", "attention_day.html"]
        assert capsys.readouterr().out == f"wrote 2 heatmaps and bundle.tsv to {out}\n"

    def test_unknown_type_lists_valid_ones(self, trained_dir, capsys, tmp_path):
        rc = main(["explain", "--checkpoint", str(trained_dir / "checkpoint.ckpt"),
                   "--text", "fly to boston", "--types", "bogus",
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:")
        assert "bogus" in err and "city" in err

    def test_unknown_type_is_rejected_before_any_inference(self, trained_dir, capsys,
                                                           monkeypatch, tmp_path):
        from slotlens import model as model_module

        passes = []
        real_infer = model_module.infer
        monkeypatch.setattr(model_module, "infer",
                            lambda *a, **kw: passes.append(1) or real_infer(*a, **kw))
        rc = main(["explain", "--checkpoint", str(trained_dir / "checkpoint.ckpt"),
                   "--text", "fly to boston", "--types", "city", "bogus",
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        assert passes == []
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1

    def test_slash_in_a_corpus_tag_is_one_data_error_line(self, capsys, tmp_path):
        """A slot type names its heatmap file, so a corpus tag whose type
        holds "/" is refused where the corpus is read."""
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / TOKENS_FILE).write_text("fly to boston\n" * 2, encoding="utf-8")
        (bad / TAGS_FILE).write_text("O O B-city\nO O B-x/../../../esc\n", encoding="utf-8")
        (bad / INTENT_FILE).write_text("book_flight\n" * 2, encoding="utf-8")
        rc = main(["train", "--train", str(bad), "--out", str(tmp_path / "run"), *TINY])
        assert rc == 1
        assert capsys.readouterr().err == ("data error: utterance 2: tag 'B-x/../../../esc' "
                                           "at position 2: slot type has a '/'\n")
        assert not (tmp_path / "run").exists()

    @staticmethod
    def slashed_checkpoint(trained_dir, tmp_path):
        """The trained checkpoint with its type "city" renamed to one that
        climbs three directories."""
        def rename(manifest):
            maps = manifest["label_maps"]
            maps["slot_types"] = [t.replace("city", "x/../../../esc") for t in maps["slot_types"]]
            maps["bio_labels"] = [t.replace("city", "x/../../../esc") for t in maps["bio_labels"]]

        path = Path(shutil.copy(trained_dir / "checkpoint.ckpt", tmp_path / "slashed.ckpt"))
        return rewrite_manifest(path, rename)

    def test_slash_in_a_checkpoint_slot_type_is_one_checkpoint_error_line(
            self, corpus_dir, trained_dir, capsys, tmp_path):
        path = self.slashed_checkpoint(trained_dir, tmp_path)
        rc = main(["eval", "--checkpoint", str(path), "--data", str(corpus_dir / "test")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"checkpoint error: {path}: invalid label maps or vocab: "
                              "slot types may not contain '/'")
        assert err.count("\n") == 1 and "x/../../../esc" in err

    def test_writes_nothing_outside_out(self, trained_dir, capsys, tmp_path):
        path = self.slashed_checkpoint(trained_dir, tmp_path)
        work = tmp_path / "work"
        rc = main(["explain", "--checkpoint", str(path), "--text", "fly to boston",
                   "--out", str(work / "a" / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("checkpoint error:")
        assert not work.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["slashed.ckpt"]

    def test_empty_text_is_an_error(self, trained_dir, capsys, tmp_path):
        rc = main(["explain", "--checkpoint", str(trained_dir / "checkpoint.ckpt"),
                   "--text", "   ", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("usage error:")


    def test_bundle_tsv_matches_per_weight_reference(self, tmp_path):
        corpus = [Utterance(["up", "10", "pct"], "raise", ["O", "B-p%d", "I-p%d"]),
                  Utterance(["down", "5"], "lower", ["O", "B-p%d"])]
        write_corpus(corpus, tmp_path / "c")
        ckpt_path = tmp_path / "r" / "checkpoint.ckpt"
        assert main(["train", "--train", str(tmp_path / "c"), "--out", str(tmp_path / "r"),
                     *TINY]) == 0
        tokens = ["up", "%s", "10", "pct"]
        assert main(["explain", "--checkpoint", str(ckpt_path), "--text", " ".join(tokens),
                     "--out", str(tmp_path / "ex")]) == 0
        ckpt = load_checkpoint(ckpt_path)
        maps = ckpt.label_maps
        bundle = extract_attentions(ckpt.model,
                                    Utterance(tokens, maps.intents[0], ["O"] * 4),
                                    maps, ckpt.vocab, include_outside=True)
        lines = ["type\ti\tj\tweight"] + [
            f"{t}\t{i}\t{j}\t{bundle.matrices[t][i, j]:.10g}"
            for t in maps.slot_types for i in range(4) for j in range(4)]
        assert "p%d" in maps.slot_types
        assert (tmp_path / "ex" / "bundle.tsv").read_bytes() == ("\n".join(lines) + "\n").encode()


class TestShortMaxLen:
    """A model trained with --max-len 8 serves eval, analyze and explain on
    longer utterances by truncating them to its own length."""

    @pytest.fixture(scope="class")
    def short_run(self, corpus_dir):
        out = corpus_dir / "short"
        assert main(["train", "--train", str(corpus_dir / "train"), "--out", str(out),
                     *TINY, "--epochs", "1", "--max-len", "8"]) == 0
        long = [Utterance(u.tokens[:11], u.intent, u.bio_tags[:11])
                for u in load_corpus(corpus_dir / "train") if u.length >= 11]
        assert long
        write_corpus(long, out / "long")
        return out

    def test_eval_analyze_and_explain_exit_zero(self, short_run, tmp_path):
        ckpt = str(short_run / "checkpoint.ckpt")
        data = str(short_run / "long")
        assert main(["eval", "--checkpoint", ckpt, "--data", data]) == 0
        assert main(["analyze", "--checkpoint", ckpt, "--data", data]) == 0
        text = " ".join(load_corpus(short_run / "long")[0].tokens)
        assert len(text.split()) == 11
        out = tmp_path / "ex"
        assert main(["explain", "--checkpoint", ckpt, "--text", text, "--out", str(out)]) == 0
        lines = (out / "bundle.tsv").read_text().splitlines()
        assert len(lines) == 1 + 5 * 8 * 8

    def test_explain_says_it_truncated_the_text(self, short_run, capsys, tmp_path):
        text = " ".join(load_corpus(short_run / "long")[0].tokens)
        out = tmp_path / "ex"
        assert main(["explain", "--checkpoint", str(short_run / "checkpoint.ckpt"),
                     "--text", text, "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "truncated the text from 11 to 8 tokens (max_len 8)",
            f"wrote 5 heatmaps and bundle.tsv to {out}"]


class TestAnalyze:
    def test_default_k_list_gives_three_rows(self, corpus_dir, trained_dir,
                                             capsys, tmp_path):
        out_file = tmp_path / "entropy.tsv"
        rc = main(["analyze", "--checkpoint", str(trained_dir / "checkpoint.ckpt"),
                   "--data", str(corpus_dir / "test"), "--out", str(out_file)])
        assert rc == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "k\tpos_entropy\tneg_entropy\tdiff"
        assert len(lines) == 1 + 3
        assert [row.split("\t")[0] for row in lines[1:]] == ["5", "10", "100"]

    def test_custom_k_and_granularity(self, corpus_dir, trained_dir, tmp_path):
        out_file = tmp_path / "e.tsv"
        rc = main(["analyze", "--checkpoint", str(trained_dir / "checkpoint.ckpt"),
                   "--data", str(corpus_dir / "test"), "--k", "25", "50",
                   "--granularity", "rows", "--out", str(out_file)])
        assert rc == 0
        lines = out_file.read_text().splitlines()
        assert len(lines) == 1 + 2

    @pytest.mark.parametrize("ks,shown", [(["-5", "0", "250"], "-5"), (["10", "250"], "250"),
                                          (["nan"], "nan")])
    def test_k_outside_percent_range_is_a_usage_error(self, corpus_dir, trained_dir,
                                                      capsys, ks, shown):
        rc = main(["analyze", "--checkpoint", str(trained_dir / "checkpoint.ckpt"),
                   "--data", str(corpus_dir / "test"), "--k", *ks])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error:")
        assert captured.err.rstrip("\n").endswith(f"got {shown}")
        assert captured.err.count("\n") == 1


    def test_bad_k_is_rejected_before_any_inference(self, corpus_dir, trained_dir,
                                                    capsys, monkeypatch):
        from slotlens import model as model_module

        passes = []
        real_infer = model_module.infer
        monkeypatch.setattr(model_module, "infer",
                            lambda *a, **kw: passes.append(1) or real_infer(*a, **kw))
        rc = main(["analyze", "--checkpoint", str(trained_dir / "checkpoint.ckpt"),
                   "--data", str(corpus_dir / "test"), "--k", "250"])
        assert rc == 1
        assert passes == []
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1


class TestAblate:
    def test_two_mode_table(self, corpus_dir, capsys, tmp_path):
        out = tmp_path / "ab"
        rc = main(["ablate", "--train", str(corpus_dir / "train"),
                   "--out", str(out), *TINY, "--epochs", "1",
                   "--modes", "full", "no_aux_network"])
        assert rc == 0
        lines = (out / "ablation.tsv").read_text().splitlines()
        assert lines[0].startswith("mode\tintent_accuracy\tslot_f1\tn_params")
        assert len(lines) == 3
        full = lines[1].split("\t")
        cut = lines[2].split("\t")
        assert full[0] == "full" and cut[0] == "no_aux_network"
        assert int(cut[3]) < int(full[3])

    def test_default_modes_are_every_flag_but_no_aux_loss(self):
        assert cli.DEFAULT_ABLATION_MODES == [
            "full", "no_aux_network", "no_cross_attention", "no_intent_concat",
            "frozen_uniform_type_attention"]

    def test_unknown_mode_is_a_usage_error(self, corpus_dir, capsys, tmp_path):
        rc = main(["ablate", "--train", str(corpus_dir / "train"),
                   "--out", str(tmp_path / "x"), *TINY,
                   "--modes", "half_aux"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:")
        assert "half_aux" in err

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_unknown_mode_refused_before_any_training(self, corpus_dir, capsys, tmp_path,
                                                      monkeypatch, where):
        """An unknown mode after known ones trains no model first, whether
        the modes come from ``--modes`` or from a config file."""
        calls = []

        def never(*args, **kwargs):
            calls.append(args)
            raise AssertionError("train_model ran")

        monkeypatch.setattr(cli, "train_model", never)
        argv = ["ablate", "--train", str(corpus_dir / "train"), "--out", str(tmp_path / "x"),
                *TINY]
        if where == "flag":
            argv += ["--modes", "full", "no_aux_loss", "bogus"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("modes=full bogus\n")
            argv += ["--config", str(cfg)]
        assert main(argv) == 1
        assert calls == []
        assert capsys.readouterr().err == (
            "usage error: unknown ablation mode 'bogus'; valid: full, "
            + ", ".join(cli.ABLATION_FLAGS) + "\n")
        assert not (tmp_path / "x").exists()


class TestOutputPath:
    """Every command creates the directories its ``--out`` path is missing;
    a regular file in the way is one io error line."""

    def test_train_into_missing_nested_directories(self, corpus_dir, tmp_path):
        out = tmp_path / "a" / "b"
        assert main(["train", "--train", str(corpus_dir / "train"),
                     "--test", str(corpus_dir / "test"), "--out", str(out),
                     *TINY, "--epochs", "1"]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "checkpoint.ckpt", "test_metrics.tsv", "train_curve.tsv", "train_metrics.tsv"]

    def test_ablate_into_missing_nested_directories(self, corpus_dir, capsys, tmp_path):
        out = tmp_path / "a" / "b"
        assert main(["ablate", "--train", str(corpus_dir / "train"), "--out", str(out),
                     *TINY, "--epochs", "1", "--modes", "full"]) == 0
        text = (out / "ablation.tsv").read_text()
        assert text.startswith("mode\tintent_accuracy\tslot_f1\tn_params\t# scored on train\n")
        assert capsys.readouterr().out == text

    def test_eval_into_missing_nested_directories(self, corpus_dir, trained_dir, capsys,
                                                  tmp_path):
        out = tmp_path / "a" / "b" / "m.tsv"
        assert main(["eval", "--checkpoint", str(trained_dir / "checkpoint.ckpt"),
                     "--data", str(corpus_dir / "test"), "--out", str(out)]) == 0
        assert capsys.readouterr().out == out.read_text()

    @pytest.mark.parametrize("command,out", [
        ("train", "f"), ("ablate", "f"), ("explain", "f"),
        ("eval", "f/m.tsv"), ("analyze", "f/e.tsv"),
    ])
    def test_regular_file_in_the_way_is_one_io_error_line(self, corpus_dir, trained_dir,
                                                          capsys, tmp_path, command, out):
        (tmp_path / "f").write_text("keep")
        ckpt = str(trained_dir / "checkpoint.ckpt")
        args = {
            "train": ["--train", str(corpus_dir / "train"), *TINY, "--epochs", "1"],
            "ablate": ["--train", str(corpus_dir / "train"), *TINY, "--epochs", "1",
                       "--modes", "full"],
            "explain": ["--checkpoint", ckpt, "--text", "fly to boston"],
            "eval": ["--checkpoint", ckpt, "--data", str(corpus_dir / "test")],
            "analyze": ["--checkpoint", ckpt, "--data", str(corpus_dir / "test")],
        }[command]
        assert main([command, *args, "--out", str(tmp_path / out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("io error:") and err.count("\n") == 1
        assert (tmp_path / "f").read_text() == "keep"


class TestGradcheck:
    def test_passes_and_writes_report(self, capsys, tmp_path):
        out_file = tmp_path / "grad.txt"
        rc = main(["gradcheck", "--out", str(out_file)])
        assert rc == 0
        text = out_file.read_text()
        assert "result: PASS" in text
        assert "parameter" in text
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("flag,value", [("--h", "0"), ("--h", "-1e-6"), ("--h", "nan"),
                                            ("--h", "inf"), ("--tol", "-1"), ("--tol", "nan")])
    def test_bad_h_or_tol_is_a_usage_error(self, capsys, flag, value):
        assert main(["gradcheck", f"{flag}={value}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error:")
        assert captured.err.count("\n") == 1
        assert flag[2:] in captured.err

    @pytest.mark.parametrize("flag,value", [("--h", "-1e-6"), ("--tol", "-1e-3")])
    def test_negative_exponent_after_a_space_reaches_the_range_check(self, capsys, flag,
                                                                      value):
        assert main(["gradcheck", flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error:")
        assert captured.err.count("\n") == 1
        assert captured.err.rstrip("\n").endswith(f"got {float(value)}")


class TestNegativeSeed:
    @pytest.mark.parametrize("argv", [
        ["synth", "--out", "corpus"],
        ["gradcheck"],
        ["train", "--train", "corpus", "--out", "run"],
    ], ids=["synth", "gradcheck", "train"])
    def test_negative_seed_is_refused_naming_the_flag(self, capsys, tmp_path, monkeypatch,
                                                      argv):
        """Every command with ``--seed`` refuses a negative one in its own
        words, not numpy's "expected non-negative integer"."""
        monkeypatch.chdir(tmp_path)
        if argv[0] == "train":
            main(["synth", "--out", "corpus", "--n", "8"])
            capsys.readouterr()
        assert main([*argv, "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "usage error: seed must be non-negative, got -1\n"
        assert captured.out == ""
        assert not (tmp_path / "run").exists()
        assert argv[0] != "synth" or not (tmp_path / "corpus").exists()


class TestConfigFile:
    def test_parse_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\n\nepochs=3\nbatch-size=4\nno-aux-loss=true\n")
        assert parse_config_file(cfg) == {
            "epochs": "3", "batch-size": "4", "no-aux-loss": "true"}

    def test_config_seeds_values_and_flags_override(self, corpus_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "d=8\nd-h=4\nn-layers=1\nn-heads=2\nffn-dim=12\n"
            "epochs=5\nbatch-size=4\nlr=1e-3\n"
        )
        out = tmp_path / "r"
        rc = main(["train", "--train", str(corpus_dir / "train"),
                   "--out", str(out), "--config", str(cfg), "--epochs", "1"])
        assert rc == 0
        curve = (out / "train_curve.tsv").read_text().splitlines()
        # flag --epochs 1 beats config epochs=5; sizes come from the file
        assert len(curve) == 1 + 1

    def test_config_file_supplies_required_flag(self, corpus_dir, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"out={tmp_path / 'r'}\nd=8\nd-h=4\nn-layers=1\nn-heads=2\n"
                       "ffn-dim=12\nepochs=1\nbatch-size=4\n")
        assert main(["train", "--config", str(cfg)]) == 1  # argparse still wants --train
        assert capsys.readouterr().err == (
            "usage error: the following arguments are required: --train\n")
        cfg.write_text(cfg.read_text() + f"train={corpus_dir / 'train'}\n")
        assert main(["train", "--config", str(cfg)]) == 0
        assert (tmp_path / "r" / "checkpoint.ckpt").exists()

    def test_boolean_key(self, corpus_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("no-aux-network=true\nd=8\nd-h=4\nn-layers=1\n"
                       "n-heads=2\nffn-dim=12\nepochs=1\nbatch-size=4\n")
        out = tmp_path / "r"
        rc = main(["train", "--train", str(corpus_dir / "train"),
                   "--out", str(out), "--config", str(cfg)])
        assert rc == 0
        from slotlens.checkpoint import load_checkpoint
        ckpt = load_checkpoint(out / "checkpoint.ckpt")
        assert ckpt.config.no_aux_network is True

    def test_unknown_key_is_a_usage_error(self, corpus_dir, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("learning-rate=0.1\n")
        rc = main(["train", "--train", str(corpus_dir / "train"),
                   "--out", str(tmp_path / "r"), "--config", str(cfg)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:")
        assert "learning-rate" in err

    @pytest.mark.parametrize("line,key,kind", [("n-layers=1.5", "n-layers", "int"),
                                               ("lr=fast", "lr", "float")])
    def test_unparsable_value_names_its_key(self, corpus_dir, capsys, tmp_path, line, key,
                                            kind):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        rc = main(["train", "--train", str(corpus_dir / "train"),
                   "--out", str(tmp_path / "r"), "--config", str(cfg)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: config key {key!r} expects {kind} values")
        assert err.count("\n") == 1

    def test_malformed_line_is_a_usage_error(self, corpus_dir, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs\n")
        rc = main(["train", "--train", str(corpus_dir / "train"),
                   "--out", str(tmp_path / "r"), "--config", str(cfg)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("usage error:")
