"""Object co-occurrence statistics and a one-layer graph-convolution scene
classifier over pixel-level features, with synthetic benchmark tooling."""

from .corpus import (
    Corpus,
    FeatureMap,
    Instance,
    LabelMap,
    SyntheticSpec,
    generate_synthetic_corpus,
    load_corpus,
    load_feature_map,
    load_label_map,
    nn_resize,
    object_presence,
    save_corpus,
    save_feature_map,
    save_label_map,
)
from .errors import FormatError, ValidationError
from .graph import (
    LabelAdjacency,
    build_graph,
    extract_local_knowledge,
    row_normalize,
)
from .model import (
    AblationMode,
    DgnModel,
    EvalReport,
    TrainConfig,
    evaluate,
    init_model,
    load_model,
    save_model,
    total_loss,
    train,
)
from .prototype import (
    CooccurrenceMode,
    DispersionMetric,
    Prototype,
    build_prototype,
    load_prototype,
    save_prototype,
)

__version__ = "0.1.0"

__all__ = [
    "AblationMode",
    "Corpus",
    "CooccurrenceMode",
    "DgnModel",
    "DispersionMetric",
    "EvalReport",
    "FeatureMap",
    "FormatError",
    "Instance",
    "LabelAdjacency",
    "LabelMap",
    "Prototype",
    "SyntheticSpec",
    "TrainConfig",
    "ValidationError",
    "build_graph",
    "build_prototype",
    "evaluate",
    "extract_local_knowledge",
    "generate_synthetic_corpus",
    "init_model",
    "load_corpus",
    "load_feature_map",
    "load_label_map",
    "load_model",
    "load_prototype",
    "nn_resize",
    "object_presence",
    "row_normalize",
    "save_corpus",
    "save_feature_map",
    "save_label_map",
    "save_model",
    "save_prototype",
    "total_loss",
    "train",
]
