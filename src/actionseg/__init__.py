"""Joint temporal segmentation and classification of multi-action videos.

Per-pixel gradient and optical-flow descriptors are selected by gradient
magnitude, modelled per action with diagonal-covariance Gaussian mixtures,
and scored over overlapping temporal windows to produce a per-frame label
track with short transition runs merged away.
"""

from .config import PipelineConfig, load_config
from .errors import ActionsegError, ConfigError, DataError
from .evaluation import (
    ActionRecipe,
    EvalReport,
    SynthSpec,
    default_synth_spec,
    evaluate_model_bank,
    frame_accuracy,
    run_experiment,
    run_synthetic_benchmark,
    stitch_sequences,
    synth_folds,
    synth_generate,
    train_model_bank,
)
from .features import (
    FEATURE_DIM,
    ExtractionConfig,
    FrameFeatures,
    GradientFields,
    extract_frame_features,
    extract_video_features,
    load_features,
    save_features,
    spatial_gradients,
)
from .frame_io import (
    Frame,
    FrameSequence,
    LabelTrack,
    load_labels,
    load_sequence,
    save_labels,
    save_sequence,
)
from .gmm import (
    FitConfig,
    GmmModel,
    em_fit,
    kmeans_init,
    load_model,
    log_pdf,
    log_pdf_batch,
    save_model,
)
from .motion import (
    FlowField,
    flow_divergence,
    flow_time_derivative,
    flow_vorticity,
    horn_schunck,
)
from .segmenter import (
    ModelBank,
    Segmentation,
    frame_fusion,
    frame_labels,
    merge_short_segments,
    segment_video,
    window_scores,
)

__version__ = "0.1.0"
