"""Per-layer tracing from outside the package.

A :class:`Tracer` replaces chosen module attributes of ``slotlens`` with
wrappers that record one span per call (name, start, end, parent span,
operation id) and restores the originals on exit. Spans stay in memory
until :meth:`Tracer.write` is called. A layer's self time is its span's
duration minus the time its child spans cover.

A wrapper must sit where the caller looks the name up: ``train_model``
calls ``backward`` through ``slotlens.train``, and ``JointModel.forward``
and ``predict`` both call ``slotlens.model.forward``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, layer name); one layer may be wrapped in several
# modules when several callers import it by name
TARGETS = (
    ("slotlens.synth", "generate_synthetic_corpus", "synth.generate_synthetic_corpus"),
    ("slotlens.synth", "modification_pairs", "synth.modification_pairs"),
    ("slotlens.train", "encode_batch", "data.encode_batch"),
    ("slotlens.explain", "encode_batch", "data.encode_batch"),
    ("slotlens.model", "encode", "encoder.encode"),
    ("slotlens.model", "forward", "model.forward"),
    ("slotlens.model", "intent_head", "model.intent_head"),
    ("slotlens.model", "intent_fusion", "model.intent_fusion"),
    ("slotlens.model", "slot_type_attention", "model.slot_type_attention"),
    ("slotlens.model", "slot_type_heads", "model.slot_type_heads"),
    ("slotlens.model", "fusion_cross_attention", "model.fusion_cross_attention"),
    ("slotlens.model", "slot_head", "model.slot_head"),
    ("slotlens.train", "backward", "tensor.backward"),
    ("slotlens.train", "adam_step", "optim.adam_step"),
    ("slotlens.train", "train_model", "train.train_model"),
    ("slotlens.train", "evaluate", "train.evaluate"),
    ("slotlens.checkpoint", "save_checkpoint", "checkpoint.save_checkpoint"),
    ("slotlens.checkpoint", "load_checkpoint", "checkpoint.load_checkpoint"),
    ("slotlens.checkpoint", "model_from_checkpoint", "checkpoint.model_from_checkpoint"),
    ("slotlens.explain", "extract_attentions", "explain.extract_attentions"),
    ("slotlens.explain", "entropy_report_from_bundles", "explain.entropy_report_from_bundles"),
    ("slotlens.explain", "compare_attention_consistency", "explain.compare_attention_consistency"),
    ("slotlens.explain", "render_heatmap", "explain.render_heatmap"),
)

COUNT_NODES = "bench.count_nodes"


def graph_size(loss) -> int:
    """Distinct tensors reachable from ``loss`` through parent links."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


class Tracer:
    """Records spans while :meth:`installed` is active."""

    def __init__(self):
        # (span id, parent id or -1, op id, name, start, end, self seconds)
        self.spans: list[tuple[int, int, int, str, float, float, float]] = []
        self.nodes: list[int] = []  # graph size at each backward call
        self.op = -1  # -1 while setting up
        # [span id, parent id, start, child seconds] per open span
        self._stack: list[list] = []
        self._next_id = 0

    def _open(self) -> None:
        frame = [self._next_id, self._stack[-1][0] if self._stack else -1, 0.0, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        frame[2] = time.perf_counter()

    def _close(self, name: str) -> None:
        end = time.perf_counter()
        span_id, parent, start, children = self._stack.pop()
        if self._stack:
            self._stack[-1][3] += end - start
        self.spans.append((span_id, parent, self.op, name, start, end,
                           end - start - children))

    @contextlib.contextmanager
    def span(self, name: str):
        self._open()
        try:
            yield
        finally:
            self._close(name)

    def wrap(self, name: str, fn):
        count_nodes = name == "tensor.backward"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_nodes:
                self._open()
                self.nodes.append(graph_size(args[0]))
                self._close(COUNT_NODES)
            self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target; restore the original attributes on exit."""
        originals = []
        try:
            for module_name, attr, name in TARGETS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def totals(self, ops: set[int] | None = None):
        """Self seconds and call counts per span name, over all spans or only
        those recorded during the given operations."""
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for _, _, op, name, _, _, own in self.spans:
            if ops is None or op in ops:
                self_s[name] += own
                calls[name] += 1
        return self_s, calls

    def calls_under(self, phase: str, name: str) -> int:
        """Calls of ``name`` nested anywhere below a span named ``phase``."""
        by_id = {s[0]: s for s in self.spans}
        count = 0
        for span_id, parent, _, span_name, *_ in self.spans:
            if span_name != name:
                continue
            while parent != -1 and by_id[parent][3] != phase:
                parent = by_id[parent][1]
            count += parent != -1
        return count

    def write(self, path: Path) -> None:
        """One JSON object per span, times relative to the first span."""
        t0 = min((s[4] for s in self.spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for span_id, parent, op, name, start, end, own in self.spans:
                f.write(json.dumps({"id": span_id, "parent": parent, "op": op,
                                    "name": name, "start_s": start - t0,
                                    "end_s": end - t0, "self_s": own}) + "\n")
