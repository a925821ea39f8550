"""The flat arenas behind a ParamSet: whole-arena Adam, views that stay
views, and a checkpoint load that draws no initialisation."""

import re

import numpy as np
import pytest
from conftest import param_set, rewrite_manifest

from slotlens import encoder, model as model_mod, optim
from slotlens.checkpoint import CheckpointFormatError, load_checkpoint, save_checkpoint
from slotlens.data import Vocab, build_label_maps, encode_batch
from slotlens.model import JointModel, ModelConfig
from slotlens.optim import ParamSet, adam_step
from slotlens.synth import generate_synthetic_corpus
from slotlens.tensor import backward, mul, sum_all


def reference_adam(params, grads, m, v, step, lr, b1=0.9, b2=0.999, eps=1e-8):
    """The per-parameter Adam update this package ran before the arenas,
    copied as it was: ``m`` and ``v`` are dicts filled on the first step."""
    bias1 = 1.0 - b1**step
    bias2 = 1.0 - b2**step
    for name, data in params.items():
        g = grads[name]
        if name not in m:
            m[name] = np.zeros_like(data)
            v[name] = np.zeros_like(data)
        m[name] *= b1
        m[name] += (1.0 - b1) * g
        v[name] *= b2
        v[name] += (1.0 - b2) * g * g
        m_hat = m[name] / bias1
        v_hat = v[name] / bias2
        data -= (lr * m_hat / (np.sqrt(v_hat) + eps)).astype(data.dtype, copy=False)


def tiny_config(**kw):
    corpus = generate_synthetic_corpus(seed=5, n=8)
    maps = build_label_maps(generate_synthetic_corpus(seed=5, n=300))
    vocab = Vocab.build(corpus)
    config = ModelConfig(vocab_size=len(vocab), n_intents=maps.n_intents,
                         n_slot_types=maps.n_slot_types, n_bio_labels=maps.n_bio_labels,
                         d=8, d_h=4, n_layers=1, n_heads=2, ffn_dim=12, **kw)
    return corpus, maps, vocab, config


def is_segment(view: np.ndarray, arena: np.ndarray, start: int) -> bool:
    """``view`` is a view of exactly ``arena[start : start + view.size]``."""
    address = arena[start:].__array_interface__["data"][0]
    return view.__array_interface__["data"][0] == address and np.shares_memory(view, arena)


def assert_views(params: ParamSet):
    """Every parameter and bound gradient is its arena segment."""
    for name, start in params.layout():
        t = params[name]
        assert is_segment(t.data, params.data, start), name
        if t.grad is not None:
            assert is_segment(t.grad, params.grad, start), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_whole_arena_adam_matches_per_parameter_loop_bit_for_bit(dtype):
    _, _, _, config = tiny_config()
    model = JointModel(config, rng=3, dtype=dtype)
    params = model.params
    ref = {name: t.data.copy() for name, t in params.items()}
    m, v = {}, {}
    rng = np.random.default_rng(0)
    params.zero_grads()
    for step in range(1, 6):
        grads = {name: (rng.standard_normal(t.shape) * 10.0**rng.integers(-6, 2)).astype(dtype)
                 for name, t in params.items()}
        for name, g in grads.items():
            params[name].grad[...] = g
        adam_step(params, lr=1e-3)
        reference_adam(ref, grads, m, v, step, lr=1e-3)
        for name, t in params.items():
            assert t.data.tobytes() == ref[name].tobytes(), (step, name)
    state = params.optimizer_state()
    for name in ref:
        assert state["m"][name].tobytes() == m[name].tobytes()
        assert state["v"][name].tobytes() == v[name].tobytes()


def test_arena_takes_the_sets_dtype_and_sorted_name_order():
    ps = param_set({"z": np.ones(2), "a": np.zeros((2, 2))})
    assert ps.data.dtype == np.float64 and ps.data.size == 6
    assert list(ps.layout()) == [("a", 0), ("z", 4)]
    np.testing.assert_array_equal(ps.data, [0, 0, 0, 0, 1, 1])
    assert ps.name_at(3) == "a" and ps.name_at(4) == "z"


def test_parameters_and_gradients_stay_views_through_every_state_change(tmp_path):
    corpus, maps, vocab, config = tiny_config()
    model = JointModel(config, rng=1)
    params = model.params
    assert_views(params)
    params.zero_grads()
    assert_views(params)
    assert all(t.grad is not None for _, t in params.items())
    batch = encode_batch(corpus[:4], maps, vocab)
    backward(model.forward(batch).loss_total)
    assert_views(params)
    assert np.abs(params.grad).sum() > 0
    adam_step(params, lr=1e-3)
    assert_views(params)
    assert not params.grad.any()
    path = save_checkpoint(tmp_path / "m.ckpt", model, maps, vocab, include_optimizer=True)
    restored = load_checkpoint(path).model
    assert_views(restored.params)
    restored.params.zero_grads()
    backward(restored.forward(batch).loss_total)
    assert_views(restored.params)


def test_backward_binds_an_unbound_gradient_to_its_segment():
    ps = param_set({"w": np.array([1.0, 2.0]), "u": np.array([5.0])})
    w = ps["w"]
    backward(sum_all(mul(w, w)))
    np.testing.assert_array_equal(w.grad, [2.0, 4.0])
    assert np.shares_memory(w.grad, ps.grad)
    assert ps["u"].grad is None
    with pytest.raises(ValueError, match="'u'"):
        adam_step(ps, lr=0.1)


def test_a_built_or_loaded_model_gains_no_parameter(tmp_path):
    """A model's arenas are its config's layout: neither a built model nor
    a loaded one takes a parameter or a second layout, so every checkpoint
    it saves loads."""
    corpus, maps, vocab, config = tiny_config()
    model = JointModel(config, rng=1)
    path = save_checkpoint(tmp_path / "m.ckpt", model, maps, vocab, include_optimizer=True)
    restored = load_checkpoint(path).model
    for params in (model.params, restored.params):
        assert not hasattr(params, "add")
        with pytest.raises(ValueError, match="^cannot declare 'zz.extra': the parameter set "
                                             "is already allocated$"):
            params.declare("zz.extra", (3,), 0.0)
        with pytest.raises(ValueError, match="^the parameter set is already allocated$"):
            params.allocate(params.dtype)
        assert "zz.extra" not in params.names()
    again = save_checkpoint(tmp_path / "again.ckpt", restored, maps, vocab,
                            include_optimizer=True)
    assert again.read_bytes() == path.read_bytes()


def test_model_from_checkpoint_draws_no_initialisation(tmp_path, monkeypatch):
    corpus, maps, vocab, config = tiny_config()
    model = JointModel(config, rng=2)
    path = save_checkpoint(tmp_path / "m.ckpt", model, maps, vocab)

    def no_draws(*args, **kwargs):
        raise AssertionError("an initialiser ran")

    for module in (optim, encoder, model_mod):
        monkeypatch.setattr(module, "xavier_uniform", no_draws)
    restored = load_checkpoint(path).model
    for name, t in model.params.items():
        np.testing.assert_array_equal(restored.params[name].data, t.data)
    with pytest.raises(AssertionError, match="initialiser"):
        JointModel(config, rng=2)


def test_model_is_built_around_the_buffer_the_reader_filled(tmp_path):
    """The loaded model's arenas are the rows of the one buffer the blob was
    read into, and a second load gives a model with arenas of its own."""
    corpus, maps, vocab, config = tiny_config()
    model = JointModel(config, rng=4)
    for moments in (False, True):
        if moments:
            model.params.zero_grads()
            adam_step(model.params, lr=1e-3)
        path = save_checkpoint(tmp_path / "m.ckpt", model, maps, vocab,
                               include_optimizer=True)
        params = load_checkpoint(path).model.params
        buf = params.data.base
        assert buf.shape == (3 if moments else 1, params.data.size)
        arenas = [params.m, params.v, params.data] if moments else [params.data]
        for arena, row in zip(arenas, buf):
            assert is_segment(arena, row, 0) and arena.size == row.size
        assert_views(params)
        again = load_checkpoint(path).model.params
        assert not np.shares_memory(again.data, buf)
        np.testing.assert_array_equal(again.data, params.data)


def test_optimizer_entry_before_any_step_lists_no_moments(tmp_path):
    corpus, maps, vocab, config = tiny_config()
    model = JointModel(config, rng=4)
    path = save_checkpoint(tmp_path / "m.ckpt", model, maps, vocab, include_optimizer=True)
    restored = load_checkpoint(path).model
    assert restored.params.optimizer_state() == {"step_count": 0, "m": {}, "v": {}}
    assert not any(name.startswith("adam.") for name in restored.params.names())
    assert restored.params.m is None
    again = save_checkpoint(tmp_path / "again.ckpt", restored, maps, vocab,
                            include_optimizer=True)
    assert again.read_bytes() == path.read_bytes()


def test_partial_moments_are_refused(v1_copy):
    """No version 1 writer made a table with the moments of some parameters
    and not others: the per-tensor writer's ``adam_step`` gave every
    parameter its moments at once, and the arena writer stored whole
    arenas. A file with such a table is refused."""
    kept = "slot.w"

    def keep_one_moment(manifest):
        manifest["optimizer"]["m"] = manifest["optimizer"]["v"] = [kept]
        manifest["params"] = [e for e in manifest["params"]
                              if not e["name"].startswith("adam.") or e["name"].endswith(kept)]

    path = rewrite_manifest(v1_copy, keep_one_moment)
    with pytest.raises(CheckpointFormatError, match=re.escape(
            "optimizer key 'm' entry 0 is 'slot.w', a version 1 writer made 'cross.k.b'")):
        load_checkpoint(path)


@pytest.mark.parametrize("n_types", [5, 13])
@pytest.mark.parametrize("flags", [{}, {"no_aux_network": True},
                                   {"no_cross_attention": True}])
def test_blob_order_is_sorted_name_order(n_types, flags):
    """The writer puts the m, v and parameter arenas back to back and lists
    them in that order; that is the sorted order of all stored names (the
    per-tensor writer's order) because every parameter sorts after
    ``adam.v.``."""
    config = ModelConfig(vocab_size=30, n_intents=4, n_slot_types=n_types,
                         n_bio_labels=2 * n_types - 1, **flags)
    names = sorted(JointModel(config, rng=None).params.names())
    blob = [f"adam.m.{n}" for n in names] + [f"adam.v.{n}" for n in names] + names
    assert blob == sorted(blob)
