"""Joint multi-action segmentation over sliding windows of frame features.

A window of consecutive retained frames pools its feature vectors and is
scored per action by the average mixture log density; windows advance one
retained frame at a time. Per-frame fusion sums the score vectors of every
window covering the frame, the label is the per-frame argmax, and runs
shorter than the window length are merged into their predecessor.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .features import FrameFeatures
from .gmm import GmmModel, log_pdf_batch


@dataclass
class Segmentation:
    """Per-frame labels; ``segments`` is their run-length encoding as
    inclusive ``(start, end, label)`` runs.

    ``fused_scores``, set by ``segment_video``, holds the fused per-action
    window scores of each retained frame that the labels were read from:
    (retained frames, actions), NaN rows where no window scored.
    """

    frame_labels: np.ndarray
    fused_scores: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.frame_labels = np.asarray(self.frame_labels, dtype=np.int64)
        if self.frame_labels.ndim != 1 or self.frame_labels.size == 0:
            raise ValueError("frame_labels must be non-empty")
        if self.frame_labels.min() < 1:
            raise ValueError("labels are 1-based action ordinals")

    @property
    def segments(self) -> list[tuple[int, int, int]]:
        return _run_segments(self.frame_labels)


class ModelBank:
    """Scoring models grouped by action.

    ``action_names`` fixes the ordinal of each action (1-based, in list
    order); every action must have at least one model (several models per
    action cover different recording scenarios) and all models must share
    the feature dimension.
    """

    def __init__(self, models: list[GmmModel], action_names: list[str] | None = None):
        if not models:
            raise ValueError("model bank needs at least one model")
        if action_names is None:
            action_names = sorted({m.action for m in models})
        self.action_names = list(action_names)
        if len(set(self.action_names)) != len(self.action_names):
            raise ValueError("action names must be distinct")
        self.models = list(models)
        self.dim = models[0].dim
        known = set(self.action_names)
        for m in self.models:
            if m.dim != self.dim:
                raise ValueError("all models must share the feature dimension")
            if m.action not in known:
                raise ValueError(f"model for undeclared action {m.action!r}")
        trained = {m.action for m in self.models}
        for name in self.action_names:
            if name not in trained:
                raise ValueError(f"no model for action {name!r}")

    @property
    def n_actions(self) -> int:
        return len(self.action_names)


def _run_segments(labels: np.ndarray) -> list[tuple[int, int, int]]:
    starts = np.flatnonzero(np.r_[True, labels[1:] != labels[:-1]])
    ends = np.r_[starts[1:], labels.size] - 1
    return [(int(s), int(e), int(labels[s])) for s, e in zip(starts, ends)]


def window_scores(
    features: list[FrameFeatures], bank: ModelBank, window_len: int
) -> dict[int, np.ndarray]:
    """Score every length-``window_len`` window of retained frames.

    Window s pools the vectors of frames s..s+window_len-1; the score for an
    action is the maximum, over that action's models, of the pooled average
    log density (the flat mean over all pooled vectors). Returns
    ``{window_start: per-action score vector}`` in ascending start order;
    windows containing no vectors at all produce no score.
    """
    t = len(features)
    if window_len < 1:
        raise ValueError("window_len must be >= 1")
    if t < window_len:
        raise ValueError(f"need at least {window_len} retained frames, got {t}")

    counts = np.array([len(ff) for ff in features], dtype=np.int64)
    n_models = len(bank.models)
    sums = np.zeros((t, n_models))
    for i, ff in enumerate(features):
        if len(ff) == 0:
            continue
        if ff.vectors.shape[1] != bank.dim:
            raise ValueError("feature dimension does not match model bank")
        for m, model in enumerate(bank.models):
            sums[i, m] = float(np.sum(log_pdf_batch(model, ff.vectors)))

    win_counts = np.lib.stride_tricks.sliding_window_view(counts, window_len).sum(axis=-1)
    win_sums = np.lib.stride_tricks.sliding_window_view(sums, window_len, axis=0).sum(axis=-1)

    model_action = np.array(
        [bank.action_names.index(m.action) for m in bank.models], dtype=np.int64
    )
    out = {}
    for s in range(t - window_len + 1):
        if win_counts[s] == 0:
            continue
        avg = win_sums[s] / win_counts[s]
        scores = np.full(bank.n_actions, -np.inf)
        np.maximum.at(scores, model_action, avg)
        out[s] = scores
    return out


def frame_fusion(
    scores: dict[int, np.ndarray], n_frames: int, window_len: int
) -> np.ndarray:
    """Sum window score vectors onto every frame each window covers.

    ``scores`` maps window starts to per-action score vectors, as returned
    by ``window_scores``; they are summed in ascending start order. Returns
    an (n_frames, A) array; frames covered by no scoring window get NaN
    rows. No normalization is applied, so frames near the sequence ends are
    covered by fewer windows.
    """
    if window_len < 1 or n_frames < window_len:
        raise ValueError("inconsistent n_frames/window_len")
    starts = sorted(scores)
    for s in starts:
        if not 0 <= s <= n_frames - window_len:
            raise ValueError(f"window start {s} out of range")
    a = len(scores[starts[0]]) if starts else 1
    if any(np.shape(scores[s]) != (a,) for s in starts):
        raise ValueError("window score vectors must share length")
    fused = np.zeros((n_frames, a))
    covered = np.zeros(n_frames, dtype=bool)
    for s in starts:
        fused[s : s + window_len] += scores[s]
        covered[s : s + window_len] = True
    fused[~covered] = np.nan
    return fused


def frame_labels(fused: np.ndarray) -> np.ndarray:
    """Per-frame argmax labels (1-based); ties take the lowest ordinal.
    Uncovered (NaN) rows have no label and are rejected."""
    fused = np.asarray(fused, dtype=np.float64)
    if fused.ndim != 2 or fused.size == 0:
        raise ValueError("fused scores must be a non-empty (n, A) array")
    if np.isnan(fused).any():
        raise ValueError("fused scores must not contain NaN")
    return np.argmax(fused, axis=1).astype(np.int64) + 1


def merge_short_segments(labels, min_len: int) -> Segmentation:
    """Relabel runs shorter than ``min_len`` into their preceding run.

    One left-to-right scan; a short leading run (which has no predecessor)
    merges into the following run instead. Afterwards every run is at least
    ``min_len`` frames long and differs in label from its neighbours, except
    that a single run covering everything may stay short.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1 or labels.size == 0:
        raise ValueError("labels must be non-empty")
    if min_len < 1:
        raise ValueError("min_len must be >= 1")

    runs = [[seg[2], seg[1] - seg[0] + 1] for seg in _run_segments(labels)]
    merged: list[list[int]] = []
    lead = 0
    for lab, ln in runs:
        if merged and lab == merged[-1][0]:
            merged[-1][1] += ln
        elif not merged:
            lead += ln
            if lead >= min_len:
                merged.append([lab, lead])
        elif ln < min_len:
            merged[-1][1] += ln
        else:
            merged.append([lab, ln])
    if not merged:
        # every run was short: the forward-merge cascade ends on the last
        # run's label
        merged = [[runs[-1][0], lead]]

    out = np.repeat([lab for lab, _ in merged], [ln for _, ln in merged]).astype(np.int64)
    return Segmentation(out)


def _nearest_index(positions: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Index of the nearest position for each query; ties take the earlier one."""
    right = np.searchsorted(positions, queries)
    right = np.clip(right, 0, positions.size - 1)
    left = np.clip(right - 1, 0, positions.size - 1)
    # searchsorted(side="left") puts exact hits at their own index
    d_left = np.abs(queries - positions[left])
    d_right = np.abs(positions[right] - queries)
    return np.where(d_left <= d_right, left, right)


def segment_video(
    features: list[FrameFeatures],
    bank: ModelBank,
    window_len: int,
    n_frames: int | None = None,
) -> Segmentation:
    """Full pipeline: window scoring, fusion, argmax labels, short-run merge.

    ``features`` are the retained frames of a video (each carrying its
    original frame index); ``window_len`` counts retained frames. The result
    covers original frames 0..n_frames-1, frames dropped by temporal
    subsampling inheriting the label of the nearest retained frame (ties go
    to the earlier frame). If no window produced a score the whole video
    falls back to action 1, with a ``UserWarning``. The result carries the
    fused retained-frame scores as ``fused_scores``.
    """
    t = len(features)
    scores = window_scores(features, bank, window_len)
    fused = frame_fusion(scores, t, window_len)
    covered = ~np.all(np.isnan(fused), axis=1)
    retained_labels = np.ones(t, dtype=np.int64)
    if covered.any():
        retained_labels[covered] = frame_labels(fused[covered])
        if not covered.all():
            covered_idx = np.flatnonzero(covered)
            holes = np.flatnonzero(~covered)
            nearest = _nearest_index(covered_idx, holes)
            retained_labels[holes] = retained_labels[covered_idx[nearest]]
    else:
        warnings.warn(
            "no window produced a score; the whole video is labelled action 1",
            UserWarning,
            stacklevel=2,
        )
    merged = merge_short_segments(retained_labels, window_len)

    retained_pos = np.array([ff.frame_index for ff in features], dtype=np.int64)
    if n_frames is None:
        n_frames = int(retained_pos[-1]) + 1
    if n_frames <= retained_pos[-1]:
        raise ValueError("n_frames smaller than the last retained frame index")
    all_frames = np.arange(n_frames)
    nearest = _nearest_index(retained_pos, all_frames)
    return Segmentation(merged.frame_labels[nearest], fused_scores=fused)
