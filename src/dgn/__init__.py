"""Object co-occurrence statistics and a one-layer graph-convolution scene
classifier over pixel-level features, with synthetic benchmark tooling."""

import types as _types

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

# the public names are the ones imported above; a submodule is not one
__all__ = sorted(
    k for k, v in globals().items() if not k.startswith("_") and not isinstance(v, _types.ModuleType)
)
