import dataclasses
import errno
import json
import math
import os
import re

import numpy as np
import pytest
from conftest import (
    V1_FIXTURE, V2_FIXTURE, V3_FIXTURE, V3_RECIPE, edited_copy, per_type, rewrite_manifest,
    table_edit,
)

from slotlens import checkpoint, model as model_mod
from slotlens.checkpoint import (
    FORMAT_VERSION,
    CheckpointCorruptError,
    CheckpointFormatError,
    CheckpointVersionError,
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
)
from slotlens.cli import main
from slotlens.data import Vocab, build_label_maps, encode_batch, write_corpus
from slotlens.model import JointModel, ModelConfig
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


class TestRoundTrip:
    def test_parameters_bit_exact(self, setting, tmp_path):
        corpus, maps, vocab, model = setting
        path = save_checkpoint(tmp_path / "m.ckpt", model, maps, vocab,
                               metadata={"epoch": 1, "seed": 7})
        ckpt = load_checkpoint(path)
        params = ckpt.model.params
        assert set(params.names()) == set(model.params.names())
        for name, t in params.items():
            np.testing.assert_array_equal(t.data, model.params[name].data)
            assert t.data.dtype == model.params[name].data.dtype
        assert ckpt.metadata == {"epoch": 1, "seed": 7}

    def test_predictions_bit_exact_after_reload(self, setting, tmp_path):
        corpus, maps, vocab, model = setting
        path = save_checkpoint(tmp_path / "m.ckpt", model, maps, vocab)
        restored = load_checkpoint(path).model
        batch = encode_batch(corpus, maps, vocab)
        for before, after in zip(model.infer(batch), restored.infer(batch)):
            np.testing.assert_array_equal(before, after)
        i_a, s_a = model.predict(batch)
        i_b, s_b = restored.predict(batch)
        np.testing.assert_array_equal(i_a, i_b)
        for a, b in zip(s_a, s_b):
            np.testing.assert_array_equal(a, b)

    def test_save_creates_missing_nested_directories(self, setting, tmp_path):
        corpus, maps, vocab, model = setting
        path = save_checkpoint(tmp_path / "a" / "b" / "m.ckpt", model, maps, vocab)
        assert path == tmp_path / "a" / "b" / "m.ckpt"
        assert load_checkpoint(path).label_maps.intents == maps.intents

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
        restored = load_checkpoint(path).model
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
        params = load_checkpoint(path).model.params
        assert not any(n.startswith("adam.") for n in params.names())
        assert params.optimizer_state()["m"].keys() == set(model.params.names())

    def test_a_model_let_go_lends_its_memory_to_the_next_load(self, setting, tmp_path):
        corpus, maps, vocab, model = setting
        path = save_checkpoint(tmp_path / "m.ckpt", model, maps, vocab,
                               include_optimizer=True)
        first = load_checkpoint(path).model
        memory = first.params.data.base.base
        second = load_checkpoint(path).model
        assert second.params.data.base.base is not memory
        del first
        third = load_checkpoint(path).model
        assert third.params.data.base.base is memory
        for a, b in zip(third.params.state_dict().values(), second.params.state_dict().values()):
            np.testing.assert_array_equal(a, b)
        assert third.params.optimizer_state()["step_count"] == model.params.step_count


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
        restored = load_checkpoint(first).model
        assert {t.data.dtype for _, t in restored.params.items()} == {np.dtype(np.float64)}
        second = save_checkpoint(tmp_path / "b.ckpt", restored, maps, vocab)
        assert first.read_bytes() == second.read_bytes()


def _transpose_a_moment(manifest):
    entry = next(e for e in manifest["params"]
                 if e["name"].startswith("adam.m.") and len(set(e["shape"])) == 2)
    entry["shape"] = entry["shape"][::-1]


def _move_a_moment_to_no_parameter(manifest):
    """Rename the stored moment ``adam.m.slot.w`` to ``adam.m.no.such`` and
    list ``no.such`` in its place, so the table is consistent on its own
    terms but the moment belongs to no parameter."""
    entry = next(e for e in manifest["params"] if e["name"] == "adam.m.slot.w")
    entry["name"] = "adam.m.no.such"
    names = manifest["optimizer"]["m"]
    names[names.index("slot.w")] = "no.such"


def _drop_hotel(manifest):
    """Remove the slot type 'hotel' and its two BIO labels."""
    maps = manifest["label_maps"]
    maps["slot_types"].remove("hotel")
    maps["bio_labels"] = [t for t in maps["bio_labels"] if t not in ("B-hotel", "I-hotel")]


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
        path = rewrite_manifest(save_checkpoint(tmp_path / "m.ckpt", model, maps, vocab),
                                lambda m: m.update(format_version=99))
        with pytest.raises(CheckpointVersionError, match="99") as e:
            load_checkpoint(path)
        assert str(FORMAT_VERSION) in str(e.value)

    def test_shape_manifest_disagreement(self, v1_copy):
        path = rewrite_manifest(v1_copy, lambda m: m["params"][0].update(shape=[1, 1]))
        with pytest.raises(CheckpointFormatError, match="shape"):
            load_checkpoint(path)

    def test_unstamped_edit_fails_on_the_checksum(self, setting, tmp_path):
        corpus, maps, vocab, model = setting
        path = rewrite_manifest(save_checkpoint(tmp_path / "m.ckpt", model, maps, vocab),
                                lambda m: m["metadata"].update(epoch=2), restamp=False)
        with pytest.raises(CheckpointCorruptError, match="checksum") as e:
            load_checkpoint(path)
        assert str(path) in str(e.value)

    @pytest.mark.parametrize("where", ["manifest", "blob", "trailer"])
    def test_any_flipped_byte_fails_on_the_checksum(self, setting, tmp_path, where):
        corpus, maps, vocab, model = setting
        path = save_checkpoint(tmp_path / "m.ckpt", model, maps, vocab,
                               metadata={"note": "abc"}, include_optimizer=True)
        data = bytearray(path.read_bytes())
        n = int.from_bytes(data[8:12], "little")
        # bytes outside the fields the layout is derived from
        at = {"manifest": bytes(data).index(b"abc"), "blob": (12 + n + len(data)) // 2,
              "trailer": len(data) - 1}[where]
        data[at] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointCorruptError, match="checksum"):
            load_checkpoint(path)

    def test_config_that_changes_the_layout_is_rejected(self, setting, tmp_path):
        corpus, maps, vocab, model = setting
        path = rewrite_manifest(save_checkpoint(tmp_path / "m.ckpt", model, maps, vocab),
                                lambda m: m["config"].update(no_cross_attention=True))
        with pytest.raises(CheckpointCorruptError, match="layout takes") as e:
            load_checkpoint(path)
        assert str(path) in str(e.value)

    def test_extra_bytes_after_the_trailer_are_rejected(self, setting, tmp_path):
        corpus, maps, vocab, model = setting
        path = save_checkpoint(tmp_path / "m.ckpt", model, maps, vocab)
        path.write_bytes(path.read_bytes() + bytes(4))
        with pytest.raises(CheckpointCorruptError, match="extra bytes"):
            load_checkpoint(path)

    def test_config_param_mismatch_detected(self, tmp_path):
        """A version 1 table that leaves out one parameter, its moments and
        their bytes is not the table a version 1 writer made for the config
        it carries."""
        manifest, arrays = stored_arrays(FIXTURE)
        load_checkpoint(write_v1(tmp_path / "whole.ckpt", manifest, arrays))
        for kind in "mv":
            manifest["optimizer"][kind].remove("slot.w")
        for name in ("slot.w", "adam.m.slot.w", "adam.v.slot.w"):
            del arrays[name]
        path = write_v1(tmp_path / "m.ckpt", manifest, arrays)
        with pytest.raises(CheckpointFormatError, match=re.escape(
                "optimizer key 'm' entry 42 is 'slot_out.ll.b', a version 1 writer made "
                "'slot.w'")):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["params", "config", "label_maps", "vocab", "dtype",
                                     "optimizer"])
    def test_missing_manifest_key_names_it(self, setting, tmp_path, v1_copy, key):
        corpus, maps, vocab, model = setting
        edit = lambda m: m.pop(key)  # noqa: E731
        path = edited_copy(save_checkpoint(tmp_path / "m.ckpt", model, maps, vocab),
                           v1_copy, table_edit(edit) if key == "params" else edit)
        with pytest.raises(CheckpointFormatError, match=f"no '{key}' key") as e:
            load_checkpoint(path)
        assert str(path) in str(e.value)

    def test_missing_params_entry_key_names_it(self, v1_copy):
        path = rewrite_manifest(v1_copy, lambda m: m["params"][0].pop("offset"))
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
        (table_edit(lambda m: m["params"][0].update(offset="0")), "key 'offset'"),
        (lambda m: m["label_maps"].update(intents=5), "label_maps key 'intents'"),
        (lambda m: m.update(vocab=7), "manifest key 'vocab'"),
        (table_edit(lambda m: m["params"][1].update(offset=-8)), "key 'offset' is -8"),
        (table_edit(lambda m: m["params"][0].update(dtype="object")),
         "key 'dtype' is 'object'"),
        (lambda m: m.update(dtype="object"), "manifest key 'dtype' is 'object'"),
        (lambda m: m.update(dtype=["float32"]), "manifest key 'dtype'"),
        (lambda m: m.update(optimizer={"step_count": 0, "moments": 1}),
         "optimizer key 'moments' is 1"),
    ], ids=["string-offset", "number-intents", "number-vocab", "negative-offset",
            "object-dtype", "object-manifest-dtype", "list-dtype", "number-moments"])
    def test_mistyped_manifest_field_names_key(self, setting, tmp_path, v1_copy, edit,
                                               where):
        corpus, maps, vocab, model = setting
        path = edited_copy(save_checkpoint(tmp_path / "m.ckpt", model, maps, vocab),
                           v1_copy, edit)
        with pytest.raises(CheckpointFormatError, match=where) as e:
            load_checkpoint(path)
        assert str(path) in str(e.value)

    @pytest.mark.parametrize("edit,where", [
        (table_edit(lambda m: m["params"][1].update(offset=m["params"][0]["offset"])),
         "key 'offset'"),
        (table_edit(lambda m: m["params"][2].update(offset=m["params"][1]["offset"] + 4)),
         re.escape("params entry 2 key 'offset' is 36, a version 1 writer made 288")),
        (lambda m: m.update(vocab=m["vocab"][2:]), "start of manifest key 'vocab'"),
        (lambda m: m.update(vocab=m["vocab"][::-1]), "start of manifest key 'vocab'"),
        (lambda m: m["optimizer"].pop("step_count"), "no 'step_count' key"),
        (lambda m: m["optimizer"].update(step_count=-1), "key 'step_count' is -1"),
        (lambda m: m["optimizer"].update(step_count="3"), "key 'step_count'"),
        (table_edit(lambda m: m["optimizer"].update(m="slot.w")), "optimizer key 'm'"),
        (table_edit(lambda m: m["optimizer"]["v"].append(m["optimizer"]["v"][0])),
         "optimizer key 'v'"),
        (table_edit(lambda m: m["optimizer"]["m"].append("no.such.param")),
         "'no.such.param'"),
        (lambda m: m.update(optimizer=[1]), "optimizer is not a JSON object"),
        (table_edit(lambda m: m["params"][-1].update(name=m["params"][-2]["name"])),
         "params entry 260 key 'name' is 'type_gen.t4.v.b'"),
        (table_edit(lambda m: m["params"][-1].update(
            dtype="float16", shape=[m["params"][-1]["nbytes"] // 2])),
         re.escape("params entry 260 key 'dtype' is 'float16', a version 1 writer made 'float32'")),
        (table_edit(_transpose_a_moment),
         re.escape("params entry 3 key 'shape' is [8, 5], a version 1 writer made [5, 8]")),
        (table_edit(_move_a_moment_to_no_parameter), re.escape(
            "optimizer key 'm' entry 42 is 'no.such', a version 1 writer made 'slot.w'")),
    ], ids=["same-offset", "inside", "no-reserved-tokens", "reserved-tokens-moved",
            "no-step-count", "negative-step-count", "string-step-count", "string-m",
            "repeated-v", "m-without-tensor", "list-optimizer", "repeated-name",
            "mixed-dtypes", "moment-shape", "moment-of-no-parameter"])
    def test_inconsistent_manifest_names_key(self, setting, tmp_path, v1_copy, edit, where):
        corpus, maps, vocab, model = setting
        path = edited_copy(save_checkpoint(tmp_path / "m.ckpt", model, maps, vocab,
                                           include_optimizer=True), v1_copy, edit)
        with pytest.raises(CheckpointFormatError, match=where) as e:
            load_checkpoint(path)
        assert str(path) in str(e.value)

    def test_inconsistent_config_is_a_format_error(self, setting, tmp_path):
        corpus, maps, vocab, model = setting
        path = rewrite_manifest(save_checkpoint(tmp_path / "m.ckpt", model, maps, vocab),
                                lambda m: m["config"].update({"n_bio_labels": 4}))
        with pytest.raises(CheckpointFormatError, match="BIO labels"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit,key,sizes", [
        (lambda m: m["vocab"].append("zeppelin"), "vocab_size", (49, 50)),
        (_drop_hotel, "n_slot_types", (5, 4)),
        (lambda m: m["label_maps"]["intents"].append("play_music"), "n_intents", (3, 4)),
    ], ids=["extra-word", "dropped-type", "extra-intent"])
    def test_config_sizes_that_disagree_with_the_stored_maps_are_refused(
            self, tmp_path, capsys, edit, key, sizes):
        """Without the check, these files load and then fail, or run, later."""
        path = tmp_path / "m.ckpt"
        path.write_bytes(V3_FIXTURE.read_bytes())
        rewrite_manifest(path, edit)
        with pytest.raises(CheckpointFormatError,
                           match=f"config key '{key}' is {sizes[0]}, but .* {sizes[1]}$") as e:
            load_checkpoint(path)
        assert str(path) in str(e.value)
        write_corpus(generate_synthetic_corpus(seed=2, n=12), tmp_path / "data")
        assert main(["eval", "--checkpoint", str(path), "--data", str(tmp_path / "data")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("checkpoint error:") and err.count("\n") == 1

    def test_repeated_intent_is_refused(self, tmp_path, capsys):
        """An intent listed twice leaves an id no gold label has, so
        ``evaluate`` would mis-score the file's model without a word."""
        path = tmp_path / "m.ckpt"
        path.write_bytes(V3_FIXTURE.read_bytes())

        def repeat_the_first_intent(manifest):
            intents = manifest["label_maps"]["intents"]
            intents[-1] = intents[0]

        rewrite_manifest(path, repeat_the_first_intent)
        with pytest.raises(CheckpointFormatError,
                           match="invalid label maps or vocab: intent inventory repeats") as e:
            load_checkpoint(path)
        assert str(path) in str(e.value)
        write_corpus(generate_synthetic_corpus(seed=2, n=12), tmp_path / "data")
        assert main(["eval", "--checkpoint", str(path), "--data", str(tmp_path / "data")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("checkpoint error:") and err.count("\n") == 1
        assert "invalid label maps or vocab" in err

    @pytest.mark.parametrize("key,delta", [("vocab_size", 1), ("n_intents", 1),
                                           ("n_slot_types", -1)])
    def test_save_refuses_config_sizes_that_disagree_with_the_maps(
            self, setting, tmp_path, key, delta):
        """The save that made the files above is refused before it opens
        the file: it makes none, and leaves an existing one as it was."""
        corpus, maps, vocab, model = setting
        changes = {key: getattr(model.config, key) + delta}
        if key == "n_slot_types":
            changes["n_bio_labels"] = 2 * changes[key] - 1
        bad = JointModel(dataclasses.replace(model.config, **changes), rng=0)
        path = tmp_path / "m.ckpt"
        refused = f"config key '{key}' is {changes[key]}, but .* {changes[key] - delta}$"
        with pytest.raises(CheckpointFormatError, match=refused):
            save_checkpoint(path, bad, maps, vocab)
        assert not path.exists()
        before = save_checkpoint(path, model, maps, vocab).read_bytes()
        with pytest.raises(CheckpointFormatError, match=refused):
            save_checkpoint(path, bad, maps, vocab)
        assert path.read_bytes() == before


FIXTURE = V1_FIXTURE


def stored_arrays(path):
    """Every tensor of a version 1 checkpoint, read straight from its offset
    table."""
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


def write_v1(path, manifest, arrays):
    """A version 1 file holding ``arrays`` (name -> array) back to back in
    sorted-name order, its table listing them beside the rest of
    ``manifest``."""
    table, at = [], 0
    for name in sorted(arrays):
        a = arrays[name]
        table.append({"name": name, "shape": list(a.shape), "dtype": a.dtype.name,
                      "offset": at, "nbytes": a.nbytes})
        at += a.nbytes
    enc = json.dumps({**manifest, "params": table}, sort_keys=True,
                     separators=(",", ":")).encode()
    path.write_bytes(b"".join([checkpoint.MAGIC, len(enc).to_bytes(4, "little"), enc,
                               *(arrays[name].tobytes() for name in sorted(arrays))]))
    return path


def stored_v2_arrays(path):
    """Every tensor of a version 2 checkpoint, read straight from its blob:
    each arena (Adam ``m``, Adam ``v``, parameters) holds the tensors the
    config gives under their per-type names, back to back in sorted-name
    order. Moments are named as the version 1 table names them."""
    data = path.read_bytes()
    n = int.from_bytes(data[8:12], "little")
    manifest = json.loads(data[12 : 12 + n])
    config = ModelConfig(**manifest["config"])
    declared = JointModel(config, rng=None).params.shapes()
    shapes = {name: a.shape for name, a in
              per_type({k: np.empty(s) for k, s in declared.items()}, config).items()}
    blob = np.frombuffer(data[12 + n : -4], np.dtype(manifest["dtype"]).newbyteorder("<"))
    arrays, at = {}, 0
    for prefix in ("adam.m.", "adam.v.", "") if manifest["optimizer"]["moments"] else ("",):
        for name in sorted(shapes):
            size = math.prod(shapes[name])
            arrays[prefix + name] = blob[at : at + size].reshape(shapes[name])
            at += size
    assert at == blob.size
    return manifest, arrays


def assert_stores(model, arrays, atol=None):
    """``arrays`` holds exactly the model's parameters and Adam moments,
    cut into the per-type tensors older formats stored: bit for bit, or
    within ``atol`` when given."""
    state = per_type(model.params.state_dict(), model.config)
    moments = model.params.optimizer_state()
    for kind in "mv":
        state.update((f"adam.{kind}.{name}", arr)
                     for name, arr in per_type(moments[kind], model.config).items())
    assert state.keys() == arrays.keys()
    for name, arr in state.items():
        assert arr.shape == arrays[name].shape, name
        if atol is None:
            assert arr.tobytes() == arrays[name].tobytes(), name
        else:
            np.testing.assert_allclose(arr, arrays[name], rtol=0, atol=atol, err_msg=name)


def resave(source, path):
    """The checkpoint at ``source`` loaded and saved again to ``path``."""
    ckpt = load_checkpoint(source)
    return save_checkpoint(path, ckpt.model, ckpt.label_maps, ckpt.vocab,
                           metadata=ckpt.metadata, include_optimizer=True)


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
        changed = load_checkpoint(path).model
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
        assert set(load_checkpoint(path).model.params.names()) == set(model.params.names())


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

    That writer stored the type generator as eight tensors per slot type
    (see :func:`conftest.per_type`).
    """

    def test_loads_the_stored_parameters_and_moments(self):
        manifest, arrays = stored_arrays(FIXTURE)
        model = load_checkpoint(FIXTURE).model
        names = per_type(model.params.state_dict(), model.config)
        assert sorted(manifest["optimizer"]["m"]) == sorted(names)
        assert model.params.step_count == manifest["optimizer"]["step_count"] > 0
        assert_stores(model, arrays)

    def test_predicts_what_the_writer_predicted(self):
        ckpt = load_checkpoint(FIXTURE)
        model = ckpt.model
        corpus = generate_synthetic_corpus(seed=2, n=12)
        intents, slots = model.predict(encode_batch(corpus, ckpt.label_maps, ckpt.vocab, 16))
        assert intents.tolist() == ckpt.metadata["predicted_intents"]
        assert [s[s >= 0].tolist() for s in slots] == ckpt.metadata["predicted_slots"]

    def test_resaves_to_identical_bytes(self, tmp_path):
        """A re-save writes version 3 with every array equal, and re-saving
        that gives the same bytes: the committed version 3 fixture."""
        second = resave(resave(FIXTURE, tmp_path / "first.ckpt"), tmp_path / "second.ckpt")
        assert (tmp_path / "first.ckpt").read_bytes() == second.read_bytes() \
            == V3_FIXTURE.read_bytes()
        manifest, arrays = stored_arrays(FIXTURE)
        ckpt = load_checkpoint(second)
        assert ckpt.model.params.step_count == manifest["optimizer"]["step_count"]
        assert ckpt.metadata == manifest["metadata"]
        assert_stores(ckpt.model, arrays)

    def test_retraining_the_recipe_reproduces_the_file(self):
        """The recipe above, retrained today, predicts what the writer
        predicted and gives every stored parameter and Adam moment within
        :data:`RETRAINED_DEVIATION`. Its 4-utterance batches never split by
        length, so this pins the one-graph training pass and its dropout
        draw order."""
        model, _, _, metadata = train_recipe()
        manifest, arrays = stored_arrays(FIXTURE)
        assert model.params.step_count == manifest["optimizer"]["step_count"]
        assert metadata == manifest["metadata"]
        assert_stores(model, arrays, atol=RETRAINED_DEVIATION)


class TestFormatVersion1Writers:
    """Every version 1 writer made one table for a config (see
    :func:`write_v1`): the tensors in sorted-name order from offset 0 in one
    dtype, with the moments of every parameter or of none. Such files load
    through the version 2 blob reader."""

    @pytest.mark.parametrize("case", ["no-optimizer", "no-step-yet", "moments", "float64"])
    def test_a_written_file_resaves_as_a_version_3_save_of_its_model(self, setting,
                                                                      tmp_path, case):
        corpus, maps, vocab, trained = setting
        model = JointModel(trained.config, rng=3,
                           dtype=np.float64 if case == "float64" else np.float32)
        if case in ("moments", "float64"):
            model.params.zero_grads()
            backward(model.forward(encode_batch(corpus[:4], maps, vocab)).loss_total)
            adam_step(model.params, lr=1e-3)
        state = model.params.optimizer_state()
        arrays = per_type(model.params.state_dict(), model.config)
        names = sorted(arrays) if model.params.m is not None else []
        for kind in "mv":
            arrays.update((f"adam.{kind}.{name}", arr)
                          for name, arr in per_type(state[kind], model.config).items())
        optimizer = (None if case == "no-optimizer"
                     else {"step_count": state["step_count"], "m": names, "v": names})
        manifest = {"format_version": 1, "config": dataclasses.asdict(model.config),
                    "label_maps": {"intents": maps.intents, "slot_types": maps.slot_types,
                                   "bio_labels": maps.bio_labels},
                    "vocab": vocab.id_to_token, "optimizer": optimizer,
                    "metadata": {"case": case}}
        path = write_v1(tmp_path / "v1.ckpt", manifest, arrays)
        keep = optimizer is not None
        want = save_checkpoint(tmp_path / "v3.ckpt", model, maps, vocab,
                               metadata={"case": case}, include_optimizer=keep)
        ckpt = load_checkpoint(path)
        got = save_checkpoint(tmp_path / "resaved.ckpt", ckpt.model, ckpt.label_maps,
                              ckpt.vocab, metadata=ckpt.metadata, include_optimizer=keep)
        assert got.read_bytes() == want.read_bytes()

    def test_bytes_after_the_blob_are_refused(self, v1_copy):
        v1_copy.write_bytes(v1_copy.read_bytes() + bytes(4))
        with pytest.raises(CheckpointCorruptError, match="extra bytes"):
            load_checkpoint(v1_copy)


# The fixtures' writers formed each slot type's logits from its attended
# d_h-wide values; today the value projection and head are folded into one
# d->1 map first, so float32 rounds differently. Retrained, the recipe
# predicts the same and lands within this of every stored tensor. The
# largest moves are the attention key biases (``encoder.layer0.attn.bk``,
# ``fusion.sa.k.b``, ``type_gen.k.b``, ``cross.k.b``), up to 1.44e-4: a
# softmax ignores a constant added to a row's scores, so their exact
# gradient is zero and Adam moves them on rounding noise alone. Every other
# parameter and moment stays within 8e-6.
RETRAINED_DEVIATION = 1.5e-4


def train_recipe():
    """The fixtures' recipe (see :class:`TestFormatVersion1Fixture`): the
    trained model, its label maps and vocab, and the metadata it was saved
    with."""
    corpus = generate_synthetic_corpus(seed=2, n=12)
    maps = build_label_maps(generate_synthetic_corpus(seed=2, n=300))
    vocab = Vocab.build(corpus)
    run = RunConfig(d=8, d_h=4, n_layers=1, n_heads=2, ffn_dim=12, max_len=16,
                    epochs=2, batch_size=4, seed=7)
    model = train_model(corpus, maps, vocab, run).model
    intents, slots = model.predict(encode_batch(corpus, maps, vocab, 16))
    metadata = {"seed": 7, "epoch": 2, "predicted_intents": intents.tolist(),
                "predicted_slots": [s[s >= 0].tolist() for s in slots]}
    return model, maps, vocab, metadata


class TestFormatVersion2Fixture:
    """The version 1 fixture's recipe, saved by the version 2 writer: the
    table derived from the config, a CRC32 trailer, and the type generator
    still as tensors per slot type."""

    def test_retraining_the_recipe_reproduces_the_file(self):
        """Today's training, cut per type, predicts what the version 2 writer
        stored and gives every parameter and Adam moment within
        :data:`RETRAINED_DEVIATION`."""
        model, _, _, metadata = train_recipe()
        manifest, arrays = stored_v2_arrays(V2_FIXTURE)
        assert model.params.step_count == manifest["optimizer"]["step_count"]
        assert metadata == manifest["metadata"]
        assert_stores(model, arrays, atol=RETRAINED_DEVIATION)

    def test_loads_the_stored_parameters_and_moments(self):
        manifest, arrays = stored_v2_arrays(V2_FIXTURE)
        model = load_checkpoint(V2_FIXTURE).model
        assert model.params.step_count == manifest["optimizer"]["step_count"] > 0
        assert_stores(model, arrays)

    def test_resaves_to_the_version_3_fixture(self, tmp_path):
        path = resave(V2_FIXTURE, tmp_path / "v3.ckpt")
        assert path.read_bytes() == V3_FIXTURE.read_bytes()

    def test_predicts_what_the_writer_predicted(self):
        ckpt = load_checkpoint(V2_FIXTURE)
        model = ckpt.model
        corpus = generate_synthetic_corpus(seed=2, n=12)
        intents, slots = model.predict(encode_batch(corpus, ckpt.label_maps, ckpt.vocab, 16))
        assert intents.tolist() == ckpt.metadata["predicted_intents"]
        assert [s[s >= 0].tolist() for s in slots] == ckpt.metadata["predicted_slots"]


class TestFormatVersion3Fixture:
    """The version 1 fixture's recipe, saved by this package's writer.
    ``v3_tiny_with_optimizer.ckpt`` is the older fixtures re-saved;
    ``v3_recipe.ckpt`` is the recipe retrained and saved at today's float32
    operation order, to be written afresh by :func:`train_recipe` and
    :func:`save_checkpoint` only by a change that regroups that order."""

    def test_retraining_the_recipe_reproduces_the_file(self, tmp_path):
        model, maps, vocab, metadata = train_recipe()
        path = save_checkpoint(tmp_path / "v3.ckpt", model, maps, vocab,
                               metadata=metadata, include_optimizer=True)
        assert path.read_bytes() == V3_RECIPE.read_bytes()
        assert load_checkpoint(V3_RECIPE).metadata == load_checkpoint(V3_FIXTURE).metadata

    def test_loads_without_the_permutation(self, monkeypatch):
        """Only older files pay for the per-type index."""
        def refuse(*args):
            raise AssertionError("a version 3 load built the per-type index")

        monkeypatch.setattr(checkpoint, "_per_type_index", refuse)
        ckpt = load_checkpoint(V3_FIXTURE)
        model = ckpt.model
        corpus = generate_synthetic_corpus(seed=2, n=12)
        intents, slots = model.predict(encode_batch(corpus, ckpt.label_maps, ckpt.vocab, 16))
        assert intents.tolist() == ckpt.metadata["predicted_intents"]
        assert [s[s >= 0].tolist() for s in slots] == ckpt.metadata["predicted_slots"]


class TestReadPath:
    """``load_checkpoint`` is the one read path: it declares the config's
    parameters once and returns the model built around what it read."""

    @pytest.mark.parametrize("path", [V1_FIXTURE, V2_FIXTURE, V3_FIXTURE],
                             ids=["v1", "v2", "v3"])
    def test_one_load_declares_the_parameters_once(self, monkeypatch, path):
        calls = []
        declare = model_mod.declare_model_params

        def counted(*args, **kwargs):
            calls.append(args[1])
            return declare(*args, **kwargs)

        monkeypatch.setattr(model_mod, "declare_model_params", counted)
        monkeypatch.setattr(checkpoint, "declare_model_params", counted, raising=False)
        ckpt = load_checkpoint(path)
        assert calls == [ckpt.config]
        assert model_from_checkpoint(ckpt) is ckpt.model
        assert len(calls) == 1
