"""Spans and counters recorded around the package's public functions.

``traced(tracer)`` replaces each function in the namespace its caller looks
it up in (``actionseg.features.horn_schunck`` is the name that
``extract_video_features`` calls, for instance) with a wrapper that records
a span, and puts the originals back on exit. Spans are kept in memory with
the id of their parent span, so the spans of one operation (one CLI call,
or one call into the library) share a root; a span's self time is its
duration minus that of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent span id, start, end]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            rec = [name, parent, time.perf_counter(), None]
            self.spans.append(rec)
            self._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                rec[3] = time.perf_counter()
            if count is not None:
                count(self.counts, signature.bind(*args, **kwargs), result)
            return result

        return wrapper

    def times(self) -> tuple[dict, dict]:
        """Total and self time per span name."""
        total, child = defaultdict(float), defaultdict(float)
        for name, parent, start, end in self.spans:
            total[name] += end - start
            if parent is not None:
                child[parent] += end - start
        own = defaultdict(float)
        for sid, (name, _, start, end) in enumerate(self.spans):
            own[name] += end - start - child[sid]
        return total, own


# ---------------------------------------------------------------------------
# counters, given (counts, bound arguments, result)

def _count_flow(c, args, result):
    args.apply_defaults()
    prev = args.arguments["prev"]
    shape = np.shape(getattr(prev, "pixels", prev))
    c["motion.horn_schunck_calls"] += 1
    c["motion.pixel_iters"] += shape[0] * shape[1] * args.arguments["iters"]


def _count_extract(c, args, result):
    c["features.vectors_selected"] += sum(len(ff) for ff in result)
    c["features.empty_frames"] += sum(1 for ff in result if len(ff) == 0)


def _count_decode(c, args, result):
    c["frame_io.frames_decoded"] += len(result)


def _count_em(c, args, result):
    iters = len(result.meta["ll_history"])
    c["gmm.em_iters"] += iters
    c["gmm.em_reseeds"] += result.meta["n_reseeds"]
    c["gmm.em_capped"] += iters >= args.arguments["cfg"].max_iters


def _count_score(c, args, result):
    x, model = args.arguments["x"], args.arguments["model"]
    c["gmm.log_pdf_batch_calls"] += 1
    c["gmm.scored_row_components"] += len(x) * model.n_components


def _count_windows(c, args, result):
    possible = len(args.arguments["features"]) - args.arguments["window_len"] + 1
    c["segmenter.windows_scored"] += len(result)
    c["segmenter.windows_empty"] += possible - len(result)
    # segment_video labels the whole video action 1 when no window scored
    c["segmenter.fallback_videos"] += not result


def _counter(key):
    def count(c, args, result):
        c[key] += 1

    return count


# (module, attribute looked up by the caller, span name, counter)
TARGETS = [
    ("actionseg.features", "horn_schunck", "motion.horn_schunck", _count_flow),
    ("actionseg.cli", "extract_video_features", "features.extract_video_features", _count_extract),
    ("actionseg.evaluation", "extract_video_features", "features.extract_video_features", _count_extract),
    ("actionseg.cli", "load_features", "features.load_features", _counter("cli.cache_hits")),
    ("actionseg.cli", "save_features", "features.save_features", _counter("cli.cache_misses")),
    ("actionseg.cli", "load_sequence", "frame_io.load_sequence", _count_decode),
    ("actionseg.cli", "load_labels", "frame_io.load_labels", None),
    ("actionseg.cli", "save_labels", "frame_io.save_labels", None),
    ("actionseg.cli", "load_model", "gmm.load_model", None),
    ("actionseg.cli", "save_model", "gmm.save_model", None),
    ("actionseg.cli", "train_model_bank", "evaluation.train_model_bank", None),
    ("actionseg.cli", "evaluate_model_bank", "evaluation.evaluate_model_bank", None),
    ("actionseg.cli", "segment_video", "segmenter.segment_video", None),
    ("actionseg.cli", "window_scores", "segmenter.window_scores", _count_windows),
    ("actionseg.evaluation", "train_model_bank", "evaluation.train_model_bank", None),
    ("actionseg.evaluation", "evaluate_model_bank", "evaluation.evaluate_model_bank", None),
    ("actionseg.evaluation", "em_fit", "gmm.em_fit", _count_em),
    ("actionseg.evaluation", "segment_video", "segmenter.segment_video", None),
    ("actionseg.gmm", "kmeans_init", "gmm.kmeans_init", None),
    ("actionseg.segmenter", "window_scores", "segmenter.window_scores", _count_windows),
    ("actionseg.segmenter", "log_pdf_batch", "gmm.log_pdf_batch", _count_score),
]

# per-layer time metric -> (span names, whether self time is meant)
TIME_METRICS = {
    "motion.horn_schunck_s": (["motion.horn_schunck"], False),
    "features.extract_self_s": (["features.extract_video_features"], True),
    "features.cache_read_s": (["features.load_features"], False),
    "features.cache_write_s": (["features.save_features"], False),
    "frame_io.load_sequence_s": (["frame_io.load_sequence"], False),
    "cli.self_s": (["cli.main"], True),
    "evaluation.self_s": (
        ["evaluation.train_model_bank", "evaluation.evaluate_model_bank"], True
    ),
    "gmm.kmeans_init_s": (["gmm.kmeans_init"], False),
    "gmm.em_self_s": (["gmm.em_fit"], True),
    "gmm.log_pdf_batch_s": (["gmm.log_pdf_batch"], False),
    "gmm.load_model_s": (["gmm.load_model"], False),
    "gmm.save_model_s": (["gmm.save_model"], False),
    "segmenter.window_scores_self_s": (["segmenter.window_scores"], True),
    "segmenter.segment_self_s": (["segmenter.segment_video"], True),
}

COUNT_METRICS = [
    "motion.horn_schunck_calls",
    "motion.pixel_iters",
    "features.vectors_selected",
    "features.empty_frames",
    "frame_io.frames_decoded",
    "cli.cache_hits",
    "cli.cache_misses",
    "gmm.em_iters",
    "gmm.em_reseeds",
    "gmm.em_capped",
    "gmm.log_pdf_batch_calls",
    "gmm.scored_row_components",
    "segmenter.windows_scored",
    "segmenter.windows_empty",
    "segmenter.fallback_videos",
]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install span wrappers on every target; restore the originals on exit."""
    saved = []
    try:
        for module, attr, name, count in TARGETS:
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals over everything the tracer recorded."""
    total, own = tracer.times()
    out = {}
    for metric, (names, self_time) in TIME_METRICS.items():
        source = own if self_time else total
        out[metric] = sum(source.get(n, 0.0) for n in names)
    for metric in COUNT_METRICS:
        out[metric] = int(tracer.counts.get(metric, 0))
    return out
