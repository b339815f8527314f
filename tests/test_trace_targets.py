"""The benchmark's traced mode wraps package functions by name; these tests
fail when a name it looks up disappears or a counter loses its meaning."""

import importlib
import importlib.util
import warnings
from pathlib import Path

import numpy as np
import pytest

from actionseg import features
from actionseg.features import FEATURE_DIM, ExtractionConfig, FrameFeatures
from actionseg.frame_io import Frame, FrameSequence
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


def textured_sequence(n, shape=(12, 14)):
    base = np.random.default_rng(3).uniform(0, 255, shape)
    return FrameSequence([Frame(t, np.roll(base, t, axis=1)) for t in range(n)])


def test_serial_extraction_counts_only_needed_flows(monkeypatch):
    monkeypatch.setattr(features, "_usable_cpus", lambda: 1)
    # stride 3 over 11 frames retains 2, 5 and 8, which read the pairs
    # 0->1, 1->2, 3->4, 4->5, 6->7 and 7->8; pairs 2->3, 5->6 and 8->9 onward
    # are read by no retained frame
    cfg = ExtractionConfig(frame_stride=3, hs_iters=7)
    with tracing.traced(tracing.Tracer()) as tracer:
        out = features.extract_video_features(textured_sequence(11), cfg)
    metrics = tracing.layer_metrics(tracer)

    assert [ff.frame_index for ff in out] == [2, 5, 8]
    assert metrics["motion.horn_schunck_calls"] == 6
    assert metrics["motion.pixel_iters"] == 6 * 12 * 14 * 7


@pytest.mark.parametrize("workers", [1, 2])
def test_traced_extraction_matches_untraced(monkeypatch, workers):
    # the tracer's wrapper replaces features.horn_schunck; pooled workers
    # run it, but their spans stay in the workers, so the parent counts none
    monkeypatch.setattr(features, "_usable_cpus", lambda: workers)
    seq, cfg = textured_sequence(9), ExtractionConfig(tau=20.0, hs_iters=7)
    plain = features.extract_video_features(seq, cfg)
    with tracing.traced(tracing.Tracer()) as tracer:
        out = features.extract_video_features(seq, cfg)
    metrics = tracing.layer_metrics(tracer)

    assert [ff.vectors.tobytes() for ff in out] == [ff.vectors.tobytes() for ff in plain]
    assert metrics["motion.horn_schunck_calls"] == (8 if workers == 1 else 0)
