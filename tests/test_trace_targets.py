"""The benchmark's traced mode wraps package functions by name; these tests
fail when a name it looks up disappears or a counter loses its meaning."""

import importlib
import importlib.util
import warnings
from pathlib import Path

import numpy as np

from actionseg.features import FEATURE_DIM, FrameFeatures
from actionseg.gmm import GmmModel
from actionseg.segmenter import ModelBank, segment_video

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


def test_every_target_resolves():
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in tracing.TARGETS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_segment_video_counters_match_hand_counts():
    rng = np.random.default_rng(0)
    models = [
        GmmModel([1.0], rng.normal(size=(1, FEATURE_DIM)), np.ones((1, FEATURE_DIM)),
                 action=name)
        for name in ("a", "b")
    ]
    bank = ModelBank(models)
    # frames 0, 1 and 3 are empty: of the five length-2 windows only the
    # first, (0, 1), pools no vectors
    counts = [0, 0, 3, 0, 2, 4]
    feats = [FrameFeatures(i, rng.normal(size=(k, FEATURE_DIM))) for i, k in enumerate(counts)]

    with tracing.traced(tracing.Tracer()) as tracer, warnings.catch_warnings():
        warnings.simplefilter("error")
        segment_video(feats, bank, 2)
    metrics = tracing.layer_metrics(tracer)

    assert metrics["segmenter.windows_scored"] == 4
    assert metrics["segmenter.windows_empty"] == 1
    assert metrics["segmenter.fallback_videos"] == 0
    # one call per (non-empty frame, model)
    assert metrics["gmm.log_pdf_batch_calls"] == 3 * 2
