import errno
import json
import os
from pathlib import Path

import numpy as np
import pytest

from slotlens.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    CheckpointCorruptError,
    CheckpointFormatError,
    CheckpointVersionError,
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
)
from slotlens.cli import main
from slotlens.data import Vocab, build_label_maps, encode_batch, write_corpus
from slotlens.model import JointModel
from slotlens.optim import adam_step
from slotlens.synth import generate_synthetic_corpus
from slotlens.tensor import backward
from slotlens.train import RunConfig, train_model


@pytest.fixture(scope="module")
def setting():
    corpus = generate_synthetic_corpus(seed=2, n=12)
    maps = build_label_maps(generate_synthetic_corpus(seed=2, n=300))
    vocab = Vocab.build(corpus)
    run = RunConfig(d=8, d_h=4, n_layers=1, n_heads=2, ffn_dim=12,
                    epochs=1, batch_size=4, seed=7)
    model = train_model(corpus, maps, vocab, run).model
    return corpus, maps, vocab, model


def rewrite_manifest(path, edit):
    """Apply ``edit`` to the manifest of the checkpoint at ``path`` in place."""
    data = path.read_bytes()
    n = int(np.frombuffer(data[8:12], dtype="<u4")[0])
    manifest = json.loads(data[12 : 12 + n])
    edit(manifest)
    enc = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(
        MAGIC + np.array(len(enc), dtype="<u4").tobytes() + enc + data[12 + n :]
    )
    return path


class TestRoundTrip:
    def test_parameters_bit_exact(self, setting, tmp_path):
        corpus, maps, vocab, model = setting
        path = save_checkpoint(tmp_path / "m.ckpt", model, maps, vocab,
                               metadata={"epoch": 1, "seed": 7})
        ckpt = load_checkpoint(path)
        assert set(ckpt.params) == set(model.params.names())
        for name, arr in ckpt.params.items():
            np.testing.assert_array_equal(arr, model.params[name].data)
            assert arr.dtype == model.params[name].data.dtype
        assert ckpt.metadata == {"epoch": 1, "seed": 7}

    def test_predictions_bit_exact_after_reload(self, setting, tmp_path):
        corpus, maps, vocab, model = setting
        path = save_checkpoint(tmp_path / "m.ckpt", model, maps, vocab)
        restored = model_from_checkpoint(load_checkpoint(path))
        batch = encode_batch(corpus, maps, vocab)
        for before, after in zip(model.infer(batch), restored.infer(batch)):
            np.testing.assert_array_equal(before, after)
        i_a, s_a = model.predict(batch)
        i_b, s_b = restored.predict(batch)
        np.testing.assert_array_equal(i_a, i_b)
        for a, b in zip(s_a, s_b):
            np.testing.assert_array_equal(a, b)

    def test_label_maps_and_vocab_roundtrip(self, setting, tmp_path):
        corpus, maps, vocab, model = setting
        ckpt = load_checkpoint(save_checkpoint(tmp_path / "m.ckpt", model, maps, vocab))
        assert ckpt.label_maps.intents == maps.intents
        assert ckpt.label_maps.bio_labels == maps.bio_labels
        assert ckpt.vocab.id_to_token == vocab.id_to_token
        assert ckpt.vocab.lookup("boston") == vocab.lookup("boston")

    def test_optimizer_state_roundtrip(self, setting, tmp_path):
        corpus, maps, vocab, model = setting
        batch = encode_batch(corpus[:4], maps, vocab)
        model.params.zero_grads()
        backward(model.forward(batch).loss_total)
        adam_step(model.params, lr=1e-4)
        path = save_checkpoint(tmp_path / "m.ckpt", model, maps, vocab,
                               include_optimizer=True)
        restored = model_from_checkpoint(load_checkpoint(path))
        want = model.params.optimizer_state()
        got = restored.params.optimizer_state()
        assert got["step_count"] == want["step_count"] > 0
        for name in want["m"]:
            np.testing.assert_array_equal(got["m"][name], want["m"][name])
            np.testing.assert_array_equal(got["v"][name], want["v"][name])

    def test_optimizer_names_stay_out_of_params(self, setting, tmp_path):
        corpus, maps, vocab, model = setting
        path = save_checkpoint(tmp_path / "m.ckpt", model, maps, vocab,
                               include_optimizer=True)
        ckpt = load_checkpoint(path)
        assert not any(n.startswith("adam.") for n in ckpt.params)


class TestDeterminism:
    def test_same_run_same_bytes(self, tmp_path):
        corpus = generate_synthetic_corpus(seed=4, n=10)
        maps = build_label_maps(generate_synthetic_corpus(seed=4, n=300))
        vocab = Vocab.build(corpus)
        run = RunConfig(d=8, d_h=4, n_layers=1, n_heads=2, ffn_dim=12,
                        epochs=2, batch_size=4, seed=11)
        paths = []
        for tag in ("a", "b"):
            model = train_model(corpus, maps, vocab, run).model
            paths.append(
                save_checkpoint(tmp_path / f"{tag}.ckpt", model, maps, vocab,
                                metadata={"seed": run.seed, "epoch": run.epochs})
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_float64_model_resaves_to_the_same_bytes(self, setting, tmp_path):
        corpus, maps, vocab, model = setting
        wide = JointModel(model.config, rng=3, dtype=np.float64)
        first = save_checkpoint(tmp_path / "a.ckpt", wide, maps, vocab)
        restored = model_from_checkpoint(load_checkpoint(first))
        assert {t.data.dtype for _, t in restored.params.items()} == {np.dtype(np.float64)}
        second = save_checkpoint(tmp_path / "b.ckpt", restored, maps, vocab)
        assert first.read_bytes() == second.read_bytes()


def _transpose_a_moment(manifest):
    entry = next(e for e in manifest["params"]
                 if e["name"].startswith("adam.m.") and len(set(e["shape"])) == 2)
    entry["shape"] = entry["shape"][::-1]


class TestErrorKinds:
    def test_not_a_checkpoint(self, tmp_path):
        p = tmp_path / "x.ckpt"
        p.write_bytes(b"definitely not a checkpoint")
        with pytest.raises(CheckpointFormatError, match="not a checkpoint"):
            load_checkpoint(p)

    def test_truncated_blob(self, setting, tmp_path):
        corpus, maps, vocab, model = setting
        path = save_checkpoint(tmp_path / "m.ckpt", model, maps, vocab)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 200])
        with pytest.raises(CheckpointCorruptError, match="past end"):
            load_checkpoint(path)

    def test_truncated_manifest(self, setting, tmp_path):
        corpus, maps, vocab, model = setting
        path = save_checkpoint(tmp_path / "m.ckpt", model, maps, vocab)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(CheckpointCorruptError, match="manifest"):
            load_checkpoint(path)

    def test_version_mismatch_names_both(self, setting, tmp_path):
        corpus, maps, vocab, model = setting
        path = save_checkpoint(tmp_path / "m.ckpt", model, maps, vocab)
        data = path.read_bytes()
        n = int(np.frombuffer(data[8:12], dtype="<u4")[0])
        manifest = json.loads(data[12 : 12 + n])
        manifest["format_version"] = 99
        enc = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
        path.write_bytes(
            MAGIC + np.array(len(enc), dtype="<u4").tobytes() + enc + data[12 + n :]
        )
        with pytest.raises(CheckpointVersionError, match="99") as e:
            load_checkpoint(path)
        assert str(FORMAT_VERSION) in str(e.value)

    def test_shape_manifest_disagreement(self, setting, tmp_path):
        corpus, maps, vocab, model = setting
        path = save_checkpoint(tmp_path / "m.ckpt", model, maps, vocab)
        data = path.read_bytes()
        n = int(np.frombuffer(data[8:12], dtype="<u4")[0])
        manifest = json.loads(data[12 : 12 + n])
        manifest["params"][0]["shape"] = [1, 1]
        enc = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
        path.write_bytes(
            MAGIC + np.array(len(enc), dtype="<u4").tobytes() + enc + data[12 + n :]
        )
        with pytest.raises(CheckpointFormatError, match="shape"):
            load_checkpoint(path)

    def test_mixed_parameter_dtypes_rejected(self, setting, tmp_path):
        corpus, maps, vocab, model = setting
        ckpt = load_checkpoint(save_checkpoint(tmp_path / "m.ckpt", model, maps, vocab))
        ckpt.params["slot.w"] = ckpt.params["slot.w"].astype(np.float64)
        with pytest.raises(CheckpointFormatError, match="mix dtypes.*float32.*float64"):
            model_from_checkpoint(ckpt)

    def test_config_param_mismatch_detected(self, setting, tmp_path):
        corpus, maps, vocab, model = setting
        path = save_checkpoint(tmp_path / "m.ckpt", model, maps, vocab)
        ckpt = load_checkpoint(path)
        ckpt.params.pop("slot.w")
        with pytest.raises(CheckpointFormatError, match="slot.w"):
            model_from_checkpoint(ckpt)

    @pytest.mark.parametrize("key", ["params", "config", "label_maps", "vocab"])
    def test_missing_manifest_key_names_it(self, setting, tmp_path, key):
        corpus, maps, vocab, model = setting
        path = rewrite_manifest(save_checkpoint(tmp_path / "m.ckpt", model, maps, vocab),
                                lambda m: m.pop(key))
        with pytest.raises(CheckpointFormatError, match=f"no '{key}' key") as e:
            load_checkpoint(path)
        assert str(path) in str(e.value)

    def test_missing_params_entry_key_names_it(self, setting, tmp_path):
        corpus, maps, vocab, model = setting
        path = rewrite_manifest(save_checkpoint(tmp_path / "m.ckpt", model, maps, vocab),
                                lambda m: m["params"][0].pop("offset"))
        with pytest.raises(CheckpointFormatError, match="no 'offset' key"):
            load_checkpoint(path)

    def test_missing_required_config_key_names_it(self, setting, tmp_path):
        corpus, maps, vocab, model = setting
        path = rewrite_manifest(save_checkpoint(tmp_path / "m.ckpt", model, maps, vocab),
                                lambda m: m["config"].pop("vocab_size"))
        with pytest.raises(CheckpointFormatError, match="no 'vocab_size' key"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key,value", [
        ("d", "64"), ("d", 64.0), ("n_heads", True), ("dropout_rate", "0.1"),
        ("no_aux_loss", 1),
    ])
    def test_mistyped_config_value_names_key(self, setting, tmp_path, key, value):
        corpus, maps, vocab, model = setting
        path = rewrite_manifest(save_checkpoint(tmp_path / "m.ckpt", model, maps, vocab),
                                lambda m: m["config"].update({key: value}))
        with pytest.raises(CheckpointFormatError, match=f"config key '{key}'") as e:
            load_checkpoint(path)
        assert str(path) in str(e.value)

    def test_integer_loss_weight_is_accepted(self, setting, tmp_path):
        """JSON writes 1.0 as 1 in hand-edited files; a float field takes it."""
        corpus, maps, vocab, model = setting
        path = rewrite_manifest(save_checkpoint(tmp_path / "m.ckpt", model, maps, vocab),
                                lambda m: m["config"].update({"alpha": 1}))
        assert load_checkpoint(path).config.alpha == 1

    @pytest.mark.parametrize("key,value,message", [
        ("n_heads", 3, "divisible"), ("max_positions", 1, "max_positions"),
        ("dropout_rate", 1.5, "dropout_rate"), ("d", 0, "d must be"),
        ("n_layers", -1, "n_layers must be"),
    ])
    def test_invalid_config_value_is_a_format_error(self, setting, tmp_path, key,
                                                    value, message):
        corpus, maps, vocab, model = setting
        path = rewrite_manifest(save_checkpoint(tmp_path / "m.ckpt", model, maps, vocab),
                                lambda m: m["config"].update({key: value}))
        with pytest.raises(CheckpointFormatError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit,where", [
        (lambda m: m["params"][0].update(offset="0"), "key 'offset'"),
        (lambda m: m["label_maps"].update(intents=5), "label_maps key 'intents'"),
        (lambda m: m.update(vocab=7), "manifest key 'vocab'"),
        (lambda m: m["params"][1].update(offset=-8), "key 'offset' is -8"),
        (lambda m: m["params"][0].update(dtype="object"), "key 'dtype' is 'object'"),
    ], ids=["string-offset", "number-intents", "number-vocab", "negative-offset",
            "object-dtype"])
    def test_mistyped_manifest_field_names_key(self, setting, tmp_path, edit, where):
        corpus, maps, vocab, model = setting
        path = rewrite_manifest(save_checkpoint(tmp_path / "m.ckpt", model, maps, vocab),
                                edit)
        with pytest.raises(CheckpointFormatError, match=where) as e:
            load_checkpoint(path)
        assert str(path) in str(e.value)

    @pytest.mark.parametrize("edit,where", [
        (lambda m: m["params"][1].update(offset=m["params"][0]["offset"]), "key 'offset'"),
        (lambda m: m["params"][2].update(offset=m["params"][1]["offset"] + 4),
         "inside tensor"),
        (lambda m: m.update(vocab=m["vocab"][2:]), "start of manifest key 'vocab'"),
        (lambda m: m.update(vocab=m["vocab"][::-1]), "start of manifest key 'vocab'"),
        (lambda m: m["optimizer"].pop("step_count"), "no 'step_count' key"),
        (lambda m: m["optimizer"].update(step_count=-1), "key 'step_count' is -1"),
        (lambda m: m["optimizer"].update(step_count="3"), "key 'step_count'"),
        (lambda m: m["optimizer"].update(m="slot.w"), "optimizer key 'm'"),
        (lambda m: m["optimizer"]["v"].append(m["optimizer"]["v"][0]), "optimizer key 'v'"),
        (lambda m: m["optimizer"]["m"].append("no.such.param"), "'no.such.param'"),
        (lambda m: m.update(optimizer=[1]), "optimizer is not a JSON object"),
        (lambda m: m["params"][-1].update(name=m["params"][-2]["name"]),
         "repeats a tensor name"),
        (lambda m: m["params"][-1].update(dtype="float16",
                                          shape=[m["params"][-1]["nbytes"] // 2]),
         "tensors mix dtypes"),
        (_transpose_a_moment, "but parameter"),
    ], ids=["same-offset", "inside", "no-reserved-tokens", "reserved-tokens-moved",
            "no-step-count", "negative-step-count", "string-step-count", "string-m",
            "repeated-v", "m-without-tensor", "list-optimizer", "repeated-name",
            "mixed-dtypes", "moment-shape"])
    def test_inconsistent_manifest_names_key(self, setting, tmp_path, edit, where):
        corpus, maps, vocab, model = setting
        path = rewrite_manifest(save_checkpoint(tmp_path / "m.ckpt", model, maps, vocab,
                                                include_optimizer=True), edit)
        with pytest.raises(CheckpointFormatError, match=where) as e:
            load_checkpoint(path)
        assert str(path) in str(e.value)

    def test_inconsistent_config_is_a_format_error(self, setting, tmp_path):
        corpus, maps, vocab, model = setting
        path = rewrite_manifest(save_checkpoint(tmp_path / "m.ckpt", model, maps, vocab),
                                lambda m: m["config"].update({"n_bio_labels": 4}))
        with pytest.raises(CheckpointFormatError, match="BIO labels"):
            load_checkpoint(path)


FIXTURE = Path(__file__).parent / "data" / "v1_tiny_with_optimizer.ckpt"


def stored_arrays(path):
    """Every tensor of a checkpoint, read straight from its offset table."""
    data = path.read_bytes()
    n = int.from_bytes(data[8:12], "little")
    manifest = json.loads(data[12 : 12 + n])
    blob = data[12 + n :]
    return manifest, {
        e["name"]: np.frombuffer(blob[e["offset"] : e["offset"] + e["nbytes"]],
                                 dtype=np.dtype(e["dtype"]).newbyteorder("<"))
        .reshape(e["shape"])
        for e in manifest["params"]
    }


class TestInterruptedSave:
    """A save rewrites the file in place, so one cut short over an older
    checkpoint of the same model leaves the old file's length and its last
    bytes. Such a file must not load."""

    @pytest.mark.parametrize("cut", ["in-manifest", "after-manifest", "mid-blob", "at-end"])
    def test_save_cut_short_does_not_load(self, setting, tmp_path, monkeypatch, capsys,
                                          cut):
        corpus, maps, vocab, model = setting
        path = save_checkpoint(tmp_path / "m.ckpt", model, maps, vocab, include_optimizer=True)
        old = path.read_bytes()
        manifest_end = 12 + int.from_bytes(old[8:12], "little")
        budget = {"in-manifest": manifest_end - 10, "after-manifest": manifest_end,
                  "mid-blob": (manifest_end + len(old)) // 2, "at-end": len(old)}[cut]
        changed = model_from_checkpoint(load_checkpoint(path))
        changed.params.data += 1.0  # new bytes differ from the old ones everywhere
        real_write = os.write

        def failing_write(fd, data):
            nonlocal budget
            n = real_write(fd, memoryview(data)[:budget]) if budget else 0
            budget -= n
            if n < len(data):
                raise OSError(errno.ENOSPC, "No space left on device")
            return n

        monkeypatch.setattr(os, "write", failing_write)
        if cut == "at-end":  # every byte lands: only the magic is missing
            monkeypatch.setattr(os, "pwrite", lambda fd, data, offset: 0)
            save_checkpoint(path, changed, maps, vocab, include_optimizer=True)
        else:
            with pytest.raises(OSError, match="No space"):
                save_checkpoint(path, changed, maps, vocab, include_optimizer=True)
        monkeypatch.undo()

        torn = path.read_bytes()
        assert len(torn) == len(old) and torn != old
        with pytest.raises((CheckpointFormatError, CheckpointCorruptError)):
            load_checkpoint(path)
        write_corpus(corpus, tmp_path / "data")
        assert main(["eval", "--checkpoint", str(path), "--data", str(tmp_path / "data")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("checkpoint error:") and err.count("\n") == 1

    def test_finished_save_over_a_longer_file_loads(self, setting, tmp_path):
        corpus, maps, vocab, model = setting
        path = save_checkpoint(tmp_path / "m.ckpt", model, maps, vocab, include_optimizer=True)
        longer = path.read_bytes()
        save_checkpoint(path, model, maps, vocab)
        fresh = save_checkpoint(tmp_path / "fresh.ckpt", model, maps, vocab)
        assert len(path.read_bytes()) < len(longer)
        assert path.read_bytes() == fresh.read_bytes()
        assert set(load_checkpoint(path).params) == set(model.params.names())


class TestFormatVersion1Fixture:
    """A ``FORMAT_VERSION`` 1 file with Adam state, written by the per-tensor
    writer this package had before its parameter arenas (commit 155205f):

        corpus = generate_synthetic_corpus(seed=2, n=12)
        maps = build_label_maps(generate_synthetic_corpus(seed=2, n=300))
        vocab = Vocab.build(corpus)
        run = RunConfig(d=8, d_h=4, n_layers=1, n_heads=2, ffn_dim=12, max_len=16,
                        epochs=2, batch_size=4, seed=7)
        model = train_model(corpus, maps, vocab, run).model
        intents, slots = model.predict(encode_batch(corpus, maps, vocab, 16))
        save_checkpoint(path, model, maps, vocab, include_optimizer=True, metadata={
            "seed": 7, "epoch": 2, "predicted_intents": [...], "predicted_slots": [...]})
    """

    def test_loads_the_stored_parameters_and_moments(self):
        manifest, arrays = stored_arrays(FIXTURE)
        ckpt = load_checkpoint(FIXTURE)
        model = model_from_checkpoint(ckpt)
        names = model.params.names()
        assert sorted(manifest["optimizer"]["m"]) == sorted(names)
        state = model.params.optimizer_state()
        assert state["step_count"] == manifest["optimizer"]["step_count"] > 0
        for name in names:
            assert model.params[name].data.tobytes() == arrays[name].tobytes()
            assert state["m"][name].tobytes() == arrays[f"adam.m.{name}"].tobytes()
            assert state["v"][name].tobytes() == arrays[f"adam.v.{name}"].tobytes()

    def test_predicts_what_the_writer_predicted(self):
        ckpt = load_checkpoint(FIXTURE)
        model = model_from_checkpoint(ckpt)
        corpus = generate_synthetic_corpus(seed=2, n=12)
        intents, slots = model.predict(encode_batch(corpus, ckpt.label_maps, ckpt.vocab, 16))
        assert intents.tolist() == ckpt.metadata["predicted_intents"]
        assert [s.tolist() for s in slots] == ckpt.metadata["predicted_slots"]

    def test_resaves_to_identical_bytes(self, tmp_path):
        ckpt = load_checkpoint(FIXTURE)
        model = model_from_checkpoint(ckpt)
        path = save_checkpoint(tmp_path / "again.ckpt", model, ckpt.label_maps, ckpt.vocab,
                               metadata=ckpt.metadata, include_optimizer=True)
        assert path.read_bytes() == FIXTURE.read_bytes()

    def test_retraining_the_recipe_reproduces_the_file(self):
        """The recipe above, retrained today, gives every stored parameter and
        Adam moment bit for bit. Its 4-utterance batches never split by
        length, so this pins the one-graph training pass and its dropout
        draw order."""
        corpus = generate_synthetic_corpus(seed=2, n=12)
        maps = build_label_maps(generate_synthetic_corpus(seed=2, n=300))
        vocab = Vocab.build(corpus)
        run = RunConfig(d=8, d_h=4, n_layers=1, n_heads=2, ffn_dim=12, max_len=16,
                        epochs=2, batch_size=4, seed=7)
        model = train_model(corpus, maps, vocab, run).model
        manifest, arrays = stored_arrays(FIXTURE)
        state = model.params.optimizer_state()
        assert state["step_count"] == manifest["optimizer"]["step_count"]
        for name in model.params.names():
            assert model.params[name].data.tobytes() == arrays[name].tobytes(), name
            assert state["m"][name].tobytes() == arrays[f"adam.m.{name}"].tobytes(), name
            assert state["v"][name].tobytes() == arrays[f"adam.v.{name}"].tobytes(), name
