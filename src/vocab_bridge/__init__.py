"""vocab-bridge: expand a pretrained model's subword vocabulary through
cross-lingual embedding alignment."""

from .alignment import (
    Fit,
    LinearMap,
    apply_map,
    csls_knn,
    evaluate_map,
    fit_independent_mapping,
    fit_joint_mapping,
    load_map,
    procrustes_solve,
    save_map,
)
from .dictionary import BilingualDictionary, load_dictionary
from .embeddings import (
    EmbeddingMatrix,
    Vocabulary,
    load_embeddings,
    load_vocabulary,
    save_embeddings,
    save_vocabulary,
)
from .expansion import (
    emit_expanded,
    expand_vocabulary,
    joint_rows,
    mixture_rows,
    random_rows,
    select_new_subwords,
)
from .mixture import (
    build_all_assignments,
    load_assignments,
    mixture_weights,
    save_assignments,
)
from .oov import OovDelta, OovReport, compare_reports, corpus_oov_stats
from .tokenizer import (
    BpeModel,
    Segmentation,
    SegmentStatus,
    bpe_apply,
    bpe_train,
    wordpiece_segment,
)

__version__ = "0.1.0"

__all__ = [
    "BilingualDictionary",
    "BpeModel",
    "EmbeddingMatrix",
    "Fit",
    "LinearMap",
    "OovDelta",
    "OovReport",
    "Segmentation",
    "SegmentStatus",
    "Vocabulary",
    "apply_map",
    "bpe_apply",
    "bpe_train",
    "build_all_assignments",
    "compare_reports",
    "corpus_oov_stats",
    "csls_knn",
    "emit_expanded",
    "evaluate_map",
    "expand_vocabulary",
    "fit_independent_mapping",
    "fit_joint_mapping",
    "joint_rows",
    "load_assignments",
    "load_dictionary",
    "load_embeddings",
    "load_map",
    "load_vocabulary",
    "mixture_rows",
    "mixture_weights",
    "procrustes_solve",
    "random_rows",
    "save_assignments",
    "save_embeddings",
    "save_map",
    "save_vocabulary",
    "select_new_subwords",
    "wordpiece_segment",
]
