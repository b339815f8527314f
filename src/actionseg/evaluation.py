"""Evaluation harness: frame accuracy, stitched sequences, and a
deterministic synthetic multi-action generator and fold protocol for
desk-scale runs.

Synthetic instances render a periodic random texture that moves according to
a per-action recipe (steady translation, oscillation, or dilation), so the
actions differ exactly in the flow-derived descriptor channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig, check_field_types
from .errors import DataError
from .features import FrameFeatures, extract_video_features
from .frame_io import Frame, FrameSequence, LabelTrack
from .gmm import em_fit
from .segmenter import ModelBank, segment_video


@dataclass
class EvalReport:
    """Frame-level accuracy and confusion counts (rows truth, cols predicted)."""

    frame_accuracy: float
    confusion: np.ndarray
    per_action_accuracy: np.ndarray
    n_frames: int
    action_names: list[str]

    def to_dict(self) -> dict:
        return {
            "frame_accuracy": self.frame_accuracy,
            "n_frames": self.n_frames,
            "actions": self.action_names,
            "per_action_accuracy": {
                name: (None if math.isnan(acc) else acc)
                for name, acc in zip(self.action_names, self.per_action_accuracy)
            },
            "confusion": self.confusion.tolist(),
        }

    def format_table(self) -> str:
        width = max(len(n) for n in self.action_names) + 2
        lines = [f"frame accuracy: {self.frame_accuracy:.2f}% over {self.n_frames} frames"]
        header = " " * width + "".join(f"{n:>{width}}" for n in self.action_names)
        lines.append(header + f"{'acc%':>8}")
        for i, name in enumerate(self.action_names):
            row = "".join(f"{int(c):>{width}}" for c in self.confusion[i])
            acc = self.per_action_accuracy[i]
            acc_s = "   -" if math.isnan(acc) else f"{acc:7.2f}"
            lines.append(f"{name:<{width}}" + row + f" {acc_s}")
        return "\n".join(lines)


def frame_accuracy(pred: LabelTrack, truth: LabelTrack) -> EvalReport:
    """Compare two label tracks frame by frame."""
    if len(pred) != len(truth):
        raise ValueError(f"length mismatch: pred {len(pred)} vs truth {len(truth)}")
    if pred.action_names != truth.action_names:
        raise ValueError("label tracks use different action vocabularies")
    a = len(truth.action_names)
    flat = (truth.labels - 1) * a + (pred.labels - 1)
    confusion = np.bincount(flat, minlength=a * a).reshape(a, a)
    return _report_from_confusion(confusion, truth.action_names)


def _report_from_confusion(confusion: np.ndarray, action_names: list[str]) -> EvalReport:
    total = int(confusion.sum())
    correct = int(np.trace(confusion))
    row_sums = confusion.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        per_action = np.where(row_sums > 0, np.diag(confusion) / row_sums * 100.0, np.nan)
    return EvalReport(
        frame_accuracy=correct / total * 100.0,
        confusion=confusion,
        per_action_accuracy=per_action,
        n_frames=total,
        action_names=list(action_names),
    )


# ---------------------------------------------------------------------------
# stitched multi-action sequences

def stitch_sequences(
    instances: list[tuple[FrameSequence, str, int]],
    seed: int,
    n_instances: int,
    action_names: list[str] | None = None,
) -> tuple[FrameSequence, LabelTrack]:
    """Concatenate single-action instances, strictly alternating group 1/2.

    ``instances`` are (sequence, action, group) with group in {1, 2}; draws
    are uniform within the active group, never repeating the instance just
    used, and the starting group is picked at random. The label track marks
    each instance's span.
    """
    if n_instances < 1:
        raise ValueError("n_instances must be >= 1")
    by_group = {1: [], 2: []}
    for i, (seq, action, group) in enumerate(instances):
        if group not in by_group:
            raise ValueError(f"instance {i} has group {group!r}, expected 1 or 2")
        by_group[group].append(i)
    for g in (1, 2):
        if not by_group[g]:
            raise DataError(f"group {g} is empty; stitching needs both groups")
    if action_names is None:
        action_names = sorted({action for _, action, _ in instances})

    rng = np.random.default_rng(seed)
    group = int(rng.integers(1, 3))
    prev = -1
    frames: list[Frame] = []
    labels: list[int] = []
    for _ in range(n_instances):
        candidates = [i for i in by_group[group] if i != prev] or by_group[group]
        pick = int(candidates[rng.integers(len(candidates))])
        seq, action, _ = instances[pick]
        if frames and (seq.width, seq.height) != (frames[0].width, frames[0].height):
            raise DataError("stitched instances must share frame dimensions")
        ordinal = action_names.index(action) + 1
        for f in seq.frames:
            frames.append(Frame(len(frames), f.pixels))
            labels.append(ordinal)
        prev = pick
        group = 2 if group == 1 else 1
    return FrameSequence(frames), LabelTrack(np.asarray(labels), action_names)


# ---------------------------------------------------------------------------
# synthetic generator

@dataclass
class ActionRecipe:
    """Motion recipe for one synthetic action.

    ``pattern`` selects the motion model: ``translate`` (constant velocity),
    ``oscillate`` (sinusoidal displacement along ``velocity``'s direction),
    or ``dilate`` (radial scaling about the frame center: a steady zoom of
    ``rate`` per frame, or a breathing pattern when ``scale_amplitude`` is
    set). ``texture_seed`` drives the per-instance texture phases.
    ``param_jitter`` scales the motion parameters per instance by a uniform
    factor in [1 - j, 1 + j], giving each action an honest within-class
    spread in the flow channels.
    """

    name: str
    pattern: str
    velocity: tuple[float, float] = (1.0, 0.0)
    amplitude: float = 2.5
    period: float = 10.0
    rate: float = 0.015
    scale_amplitude: float = 0.0
    drift_speed: float = 0.0
    drift: tuple[float, float] = (0.0, 0.0)
    texture_seed: int = 0
    group: int = 1
    param_jitter: float = 0.0

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.pattern not in ("translate", "oscillate", "dilate"):
            raise ValueError(f"unknown motion pattern {self.pattern!r}")
        if self.group not in (1, 2):
            raise ValueError("group must be 1 or 2")
        if not 0.0 <= self.param_jitter < 1.0:
            raise ValueError("param_jitter must be in [0, 1)")
        if not 0.0 <= self.scale_amplitude < 1.0:
            raise ValueError("scale_amplitude must be in [0, 1)")
        if self.drift_speed < 0.0:
            raise ValueError("drift_speed must be >= 0")
        self.velocity = tuple(self.velocity)
        self.drift = tuple(self.drift)

    def jittered(self, rng: np.random.Generator) -> "ActionRecipe":
        """Instance-level copy with motion parameters scaled at random and,
        when ``drift_speed`` is set, a whole-pattern drift in a uniformly
        random direction added on top of the pattern's own motion."""
        if self.param_jitter == 0.0 and self.drift_speed == 0.0:
            return self
        lo, hi = 1.0 - self.param_jitter, 1.0 + self.param_jitter
        f_speed, f_amp, f_period, f_rate, f_scale = rng.uniform(lo, hi, size=5)
        drift = (0.0, 0.0)
        if self.drift_speed > 0.0:
            angle = rng.uniform(0.0, 2.0 * np.pi)
            speed = self.drift_speed * rng.uniform(lo, hi)
            drift = (speed * math.cos(angle), speed * math.sin(angle))
        return ActionRecipe(
            self.name,
            self.pattern,
            velocity=(self.velocity[0] * f_speed, self.velocity[1] * f_speed),
            amplitude=self.amplitude * f_amp,
            period=self.period * f_period,
            rate=self.rate * f_rate,
            scale_amplitude=self.scale_amplitude * f_scale,
            drift_speed=0.0,
            drift=drift,
            texture_seed=self.texture_seed,
            group=self.group,
            param_jitter=0.0,
        )


@dataclass
class SynthSpec:
    """Synthetic dataset description.

    ``camera_jitter``, when positive, shifts the whole pattern by an
    independent Gaussian sub-pixel offset per frame, like a shaky camera.
    This gives every action the same baseline spread in the flow channels,
    which keeps any single action model from dominating windows that
    straddle an action boundary.
    """

    actions: list[ActionRecipe]
    frame_size: tuple[int, int] = (64, 64)
    instance_length_range: tuple[int, int] = (40, 60)
    noise_sigma: float = 2.0
    camera_jitter: float = 0.0

    def __post_init__(self) -> None:
        check_field_types(self)
        self.frame_size = tuple(self.frame_size)
        self.instance_length_range = tuple(self.instance_length_range)
        if len(self.actions) < 2:
            raise ValueError("need at least 2 actions with distinct motion")
        names = [r.name for r in self.actions]
        if len(set(names)) != len(names):
            raise ValueError("action names must be distinct")
        w, h = self.frame_size
        if w < 8 or h < 8:
            raise ValueError("frames too small to carry texture")
        lo, hi = self.instance_length_range
        if lo < 3 or hi < lo:
            raise ValueError("invalid instance length range")
        if self.noise_sigma < 0 or self.camera_jitter < 0:
            raise ValueError("noise_sigma and camera_jitter must be >= 0")

    @property
    def action_names(self) -> list[str]:
        return [r.name for r in self.actions]


class _PeriodicTexture:
    """Sum of sinusoids, periodic over the frame, evaluable anywhere.

    The frequency/amplitude spectrum is fixed so every instance (and every
    action) draws from the same appearance statistics; only the phases are
    randomized. That keeps the gradient-based descriptor channels
    non-discriminative and leaves the motion channels to separate actions.
    """

    _WAVES = (
        (1, 0), (0, 1), (2, 1), (1, -2), (3, 2), (-2, 3),
        (4, 1), (1, 4), (5, -2), (2, 5), (6, 3), (-3, 6),
    )

    def __init__(self, width: int, height: int, rng: np.random.Generator):
        self.width, self.height = width, height
        self.fx = np.array([w[0] for w in self._WAVES], dtype=np.float64)
        self.fy = np.array([w[1] for w in self._WAVES], dtype=np.float64)
        self.phase = rng.uniform(0.0, 2.0 * np.pi, size=len(self._WAVES))
        raw_amp = 1.0 / np.sqrt(np.hypot(self.fx, self.fy))
        # scale so roughly the sharpest tenth of the pixels clears the
        # default gradient threshold of 40, keeping the descriptor sets
        # selective and the pooled training data a manageable size
        base = self._raw(*np.meshgrid(np.arange(width), np.arange(height)), raw_amp)
        gx = np.gradient(base, axis=1)
        gy = np.gradient(base, axis=0)
        p90 = np.percentile(np.hypot(gx, gy), 90) or 1.0
        self.amp = raw_amp * (50.0 / p90)

    def _raw(self, x, y, amp):
        val = np.zeros(np.broadcast(x, y).shape)
        for a, fx, fy, ph in zip(amp, self.fx, self.fy, self.phase):
            val = val + a * np.sin(
                2.0 * np.pi * (fx * x / self.width + fy * y / self.height) + ph
            )
        return val

    def __call__(self, x, y) -> np.ndarray:
        return 128.0 + self._raw(x, y, self.amp)


def _displacement(recipe: ActionRecipe, t: int) -> tuple[float, float]:
    if recipe.pattern == "translate":
        return recipe.velocity[0] * t, recipe.velocity[1] * t
    # oscillate: displacement along the velocity direction
    vx, vy = recipe.velocity
    norm = math.hypot(vx, vy) or 1.0
    d = recipe.amplitude * math.sin(2.0 * np.pi * t / recipe.period)
    return d * vx / norm, d * vy / norm


def _render_instance(
    recipe: ActionRecipe, length: int, spec: SynthSpec, texture: _PeriodicTexture,
    noise_rng: np.random.Generator,
) -> FrameSequence:
    w, h = spec.frame_size
    xs, ys = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    frames = []

    jit = np.zeros((length, 2))
    if spec.camera_jitter > 0:
        jit = noise_rng.normal(0.0, spec.camera_jitter, size=(length, 2))
    int_translate = (
        recipe.pattern == "translate"
        and spec.camera_jitter == 0.0
        and recipe.drift == (0.0, 0.0)
        and float(recipe.velocity[0]).is_integer()
        and float(recipe.velocity[1]).is_integer()
    )
    base = texture(xs, ys) if int_translate else None

    for t in range(length):
        jx = jit[t, 0] + recipe.drift[0] * t
        jy = jit[t, 1] + recipe.drift[1] * t
        if int_translate:
            # integer shifts roll the base frame exactly (wrap padding)
            clean = np.roll(
                base, (int(recipe.velocity[1] * t), int(recipe.velocity[0] * t)), axis=(0, 1)
            )
        elif recipe.pattern == "dilate":
            if recipe.scale_amplitude > 0.0:
                scale = 1.0 + recipe.scale_amplitude * math.sin(2.0 * np.pi * t / recipe.period)
            else:
                scale = 1.0 + recipe.rate * t
            cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
            clean = texture(cx + (xs - jx - cx) / scale, cy + (ys - jy - cy) / scale)
        else:
            dx, dy = _displacement(recipe, t)
            clean = texture(xs - dx - jx, ys - dy - jy)
        if spec.noise_sigma > 0:
            clean = clean + noise_rng.normal(0.0, spec.noise_sigma, size=clean.shape)
        frames.append(Frame(t, np.clip(np.rint(clean), 0.0, 255.0)))
    return FrameSequence(frames)


def synth_generate(
    spec: SynthSpec, n_instances_per_action: int, seed: int
) -> list[tuple[FrameSequence, str]]:
    """Render single-action instances; fully determined by (spec, seed).

    Each instance gets its own texture (derived from the recipe's texture
    seed and the instance counter) so classifiers must key on motion rather
    than a fixed pattern.
    """
    if n_instances_per_action < 1:
        raise ValueError("n_instances_per_action must be >= 1")
    rng = np.random.default_rng(seed)
    lo, hi = spec.instance_length_range
    out = []
    for recipe in spec.actions:
        for k in range(n_instances_per_action):
            length = int(rng.integers(lo, hi + 1))
            inst = recipe.jittered(rng)
            tex_rng = np.random.default_rng([recipe.texture_seed, seed, k])
            texture = _PeriodicTexture(*spec.frame_size, tex_rng)
            out.append((_render_instance(inst, length, spec, texture, rng), recipe.name))
    return out


def synth_folds(
    spec: SynthSpec,
    n_train_per_action: int,
    n_test_sequences: int,
    instances_per_test: int,
    n_folds: int,
    seed: int,
):
    """Yield ``(train, tests)`` per fold, all fold seeds drawn from ``seed``:
    ``train`` is ``synth_generate``'s (sequence, action) list and ``tests``
    holds ``n_test_sequences`` (sequence, truth) pairs, each stitched from
    one pool of ``instances_per_test`` instances per action."""
    if n_folds < 1:
        raise ValueError("folds must be >= 1")
    if n_test_sequences < 0:
        raise ValueError("n_test_sequences must be >= 0")
    rng = np.random.default_rng(seed)
    fold_seeds = rng.integers(0, 2**31 - 1, size=(n_folds, 3))
    group_of = {r.name: r.group for r in spec.actions}
    for train_seed, pool_seed, stitch_seed in fold_seeds.tolist():
        train = synth_generate(spec, n_train_per_action, train_seed)
        tests = []
        if n_test_sequences > 0:
            pool = [
                (seq, action, group_of[action])
                for seq, action in synth_generate(spec, instances_per_test, pool_seed)
            ]
            tests = [
                stitch_sequences(pool, stitch_seed + j, instances_per_test, spec.action_names)
                for j in range(n_test_sequences)
            ]
        yield train, tests


# ---------------------------------------------------------------------------
# training and evaluation

def train_model_bank(
    train_videos: list,
    cfg: PipelineConfig,
    action_names: list[str],
) -> ModelBank:
    """Fit one model per (action[, scenario]) group from the pooled vectors
    of single-action videos, given as (features, action) or (features,
    action, scenario) tuples of ``extract_video_features`` output."""
    pools: dict[tuple[str, str], list[np.ndarray]] = {}
    for entry in train_videos:
        feats, action = entry[0], entry[1]
        scenario = entry[2] if len(entry) > 2 and cfg.per_scenario else ""
        if action not in action_names:
            raise DataError(f"training video labelled with unknown action {action!r}")
        vectors = [ff.vectors for ff in feats if len(ff)]
        pools.setdefault((action, scenario), []).extend(vectors)

    trained_actions = {a for a, _ in pools}
    missing = [a for a in action_names if a not in trained_actions]
    if missing:
        raise DataError(f"no training data for action(s): {', '.join(missing)}")

    models = []
    for idx, key in enumerate(sorted(pools)):
        action, scenario = key
        stack = [v for v in pools[key] if v.size]
        if not stack:
            raise DataError(f"action {action!r} produced zero selected feature vectors")
        data = np.vstack(stack)
        if data.shape[0] < cfg.n_components:
            raise DataError(
                f"action {action!r}: {data.shape[0]} vectors for {cfg.n_components} components"
            )
        fit = cfg.fit_config(seed=cfg.seed + idx)
        model = em_fit(data, fit)
        model.action, model.scenario = action, scenario
        model.meta.update({"tau": cfg.tau, "stride": cfg.frame_stride})
        models.append(model)
    return ModelBank(models, action_names)


def evaluate_model_bank(
    bank: ModelBank,
    test_videos: list[tuple[list[FrameFeatures], LabelTrack]],
    cfg: PipelineConfig,
) -> tuple[EvalReport, list[LabelTrack]]:
    """Segment every test video, given as (features, truth), with an
    existing bank.

    Returns the report aggregated over all test frames plus the per-video
    predicted label tracks (in input order).
    """
    if not test_videos:
        raise ValueError("no test videos")
    window = cfg.retained_window()
    confusion = np.zeros((bank.n_actions, bank.n_actions), dtype=np.int64)
    preds = []
    for feats, truth in test_videos:
        seg = segment_video(feats, bank, window, n_frames=len(truth))
        pred = LabelTrack(seg.frame_labels, bank.action_names)
        preds.append(pred)
        confusion += frame_accuracy(pred, truth).confusion
    return _report_from_confusion(confusion, bank.action_names), preds


def run_experiment(
    train_videos: list,
    test_videos: list[tuple[FrameSequence, LabelTrack]],
    cfg: PipelineConfig,
    action_names: list[str] | None = None,
) -> EvalReport:
    """Train on single-action videos, segment every test video, and return
    the report aggregated over all test frames.

    ``train_videos`` holds (sequence, action) or (sequence, action, scenario)
    tuples; ``test_videos`` holds (sequence, truth LabelTrack).
    """
    if not test_videos:
        raise ValueError("no test videos")
    if action_names is None:
        action_names = test_videos[0][1].action_names
    for _, truth in test_videos:
        if truth.action_names != action_names:
            raise ValueError("test label tracks use inconsistent action vocabularies")

    extraction = cfg.extraction_config()
    train = [(extract_video_features(seq, extraction), *rest) for seq, *rest in train_videos]
    bank = train_model_bank(train, cfg, action_names)
    tests = [(extract_video_features(seq, extraction), truth) for seq, truth in test_videos]
    report, _ = evaluate_model_bank(bank, tests, cfg)
    return report


def summarize_folds(reports: list[EvalReport]) -> tuple[float, float | None]:
    """Mean and sample standard deviation of fold accuracies (None for a
    single fold)."""
    accs = [r.frame_accuracy for r in reports]
    mean = float(np.mean(accs))
    std = float(np.std(accs, ddof=1)) if len(accs) > 1 else None
    return mean, std


def default_synth_spec() -> SynthSpec:
    """The canonical three-action benchmark: steady translation, oscillation,
    and dilation, split into two stitching groups."""
    return SynthSpec(
        actions=[
            ActionRecipe(
                "translate", "translate", velocity=(1.0, 0.0), texture_seed=11, group=1,
                param_jitter=0.35,
            ),
            ActionRecipe(
                "oscillate", "oscillate", velocity=(0.0, 1.0), amplitude=1.4, period=12.0,
                texture_seed=23, group=2, param_jitter=0.35,
            ),
            ActionRecipe(
                "dilate", "dilate", rate=0.012, drift_speed=0.35, texture_seed=37,
                group=1, param_jitter=0.35,
            ),
        ],
        frame_size=(64, 64),
        instance_length_range=(120, 170),
        noise_sigma=3.0,
    )


def run_synthetic_benchmark(
    spec: SynthSpec,
    cfg: PipelineConfig,
    n_train: int = 8,
    n_test_sequences: int = 4,
    instances_per_test: int = 5,
    n_folds: int = 3,
    seed: int = 0,
) -> tuple[list[EvalReport], float, float | None]:
    """Desk-scale protocol: per ``synth_folds`` fold, train on the first
    ``n_train`` rendered instances taken round-robin over the actions, then
    segment and score the stitched test videos.
    """
    n_actions = len(spec.actions)
    per_action = -(-n_train // n_actions)  # ceil
    reports = []
    for rendered, tests in synth_folds(
        spec, per_action, n_test_sequences, instances_per_test, n_folds, seed
    ):
        # rendered is action-major: instance k of action a is at a * per_action + k
        train = [
            rendered[a * per_action + k] for k in range(per_action) for a in range(n_actions)
        ]
        reports.append(run_experiment(train[:n_train], tests, cfg, spec.action_names))
    mean, std = summarize_folds(reports)
    return reports, mean, std
