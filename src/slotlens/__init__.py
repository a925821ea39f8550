"""slotlens: explainable joint intent detection and slot filling.

A desk-scale, trainable joint NLU model whose per-slot-type attention
weights are supervised by a bank of binary classifiers, plus the analysis
tooling (entropy study, ablations, heatmaps) used to verify that those
attentions carry meaning.  Everything runs on a self-contained numpy
reverse-mode autodiff engine.
"""

from .tensor import Tensor, ShapeError, backward
from .optim import ParamSet, adam_step
from .gradcheck import GradCheckReport, finite_diff_check
from .data import (
    Batch,
    BioValidationError,
    CorpusFormatError,
    LabelMaps,
    Span,
    UnknownLabelError,
    Utterance,
    Vocab,
    build_label_maps,
    encode_batch,
    extract_spans,
    load_corpus,
    span_f1,
    spans_to_bio,
    validate_bio,
    write_corpus,
)
from .synth import (
    Grammar,
    default_grammar,
    generate_synthetic_corpus,
    modification_pairs,
    modify_utterance,
)
from .encoder import encode
from .model import (
    ABLATION_FLAGS,
    ForwardOutput,
    JointModel,
    ModelConfig,
    type_generator_param_count,
)
from .explain import (
    AttentionBundle,
    ConsistencyReport,
    EntropyReport,
    compare_attention_consistency,
    consistency_analysis,
    entropy,
    extract_attention_bundles,
    extract_attentions,
    render_heatmap,
    topk_entropy_analysis,
    type_entropy,
)
from .train import (
    Metrics,
    RunConfig,
    TrainingDivergedError,
    TrainResult,
    evaluate,
    train_model,
)
from .checkpoint import (
    Checkpoint,
    CheckpointCorruptError,
    CheckpointFormatError,
    CheckpointVersionError,
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
)

__version__ = "0.1.0"

__all__ = [
    "Tensor",
    "ShapeError",
    "backward",
    "ParamSet",
    "adam_step",
    "GradCheckReport",
    "finite_diff_check",
    "Batch",
    "BioValidationError",
    "CorpusFormatError",
    "LabelMaps",
    "Span",
    "UnknownLabelError",
    "Utterance",
    "Vocab",
    "build_label_maps",
    "encode_batch",
    "extract_spans",
    "load_corpus",
    "span_f1",
    "spans_to_bio",
    "validate_bio",
    "write_corpus",
    "Grammar",
    "default_grammar",
    "generate_synthetic_corpus",
    "modification_pairs",
    "modify_utterance",
    "encode",
    "ABLATION_FLAGS",
    "ForwardOutput",
    "JointModel",
    "ModelConfig",
    "type_generator_param_count",
    "AttentionBundle",
    "ConsistencyReport",
    "EntropyReport",
    "compare_attention_consistency",
    "consistency_analysis",
    "entropy",
    "extract_attention_bundles",
    "extract_attentions",
    "render_heatmap",
    "topk_entropy_analysis",
    "type_entropy",
    "Metrics",
    "RunConfig",
    "TrainingDivergedError",
    "TrainResult",
    "evaluate",
    "train_model",
    "Checkpoint",
    "CheckpointCorruptError",
    "CheckpointFormatError",
    "CheckpointVersionError",
    "load_checkpoint",
    "model_from_checkpoint",
    "save_checkpoint",
    "__version__",
]
