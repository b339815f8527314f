"""Seeded inputs for the benchmark workloads.

``desk_dataset`` renders the desk-scale synthetic actions with the library
generator and writes them as PGM directories plus a train manifest and a
config file, the files the CLI reads. ``kth_dataset`` builds KTH-shaped
``FrameFeatures`` lists directly, so that only the mixture layers run.
The same seed always gives the same inputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

from actionseg import (
    FrameFeatures,
    LabelTrack,
    PipelineConfig,
    default_synth_spec,
    save_sequence,
    stitch_sequences,
    synth_generate,
)

# Desk scale: the frame size, actions, mixture size, window and stride of
# the acceptance suite's end-to-end test, with fixed instance lengths so
# that every seed asks for the same amount of flow. Six short training
# instances per action give the models texture variety (with three longer
# ones of the same total length, frame accuracy spreads twice as widely
# across seeds); two-instance test videos keep every stitched run longer
# than the merge minimum.
DESK_TRAIN_PER_ACTION = 6
DESK_TRAIN_FRAMES = 12
DESK_TEST_VIDEOS = 2
DESK_TEST_INSTANCES = 2
DESK_TEST_FRAMES = 64
# EM is capped below the iteration count at which it converges on this
# data (12-66 per model and 58-180 per train call over seeds 0-7 when
# uncapped), so that EM does the same work for every seed.
DESK_CONFIG = {
    "tau": 40.0,
    "frame_stride": 2,
    "window_frames": 25,
    "n_components": 4,
    "em_max_iters": 5,
    "seed": 0,
}

# KTH shape: 160x120 coordinates, six actions in two stitching groups,
# about 1,900 selected vectors per retained frame, G = 256, and an EM cap
# that is reached long before convergence.
KTH_ACTIONS = ("boxing", "handclapping", "handwaving", "jogging", "running", "walking")
KTH_VECTORS = 1900
KTH_TRAIN_FRAMES = 3
KTH_TRAIN_EMPTY = 1
KTH_TEST_RUNS = 2
KTH_RUN_FRAMES = 20
KTH_TEST_EMPTY = 2
KTH_CONFIG = PipelineConfig(
    n_components=256, em_max_iters=3, window_frames=25, frame_stride=2, seed=0
)

# Flow modes (u, v, divergence, vorticity) of each action's moving parts.
# They are constants, so every seed poses a task of the same difficulty.
_KTH_MODES = {
    "boxing": [(0.9, 0.0, 0.0, 0.0), (-0.9, 0.1, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0)],
    "handclapping": [(0.6, 0.0, 0.3, 0.0), (-0.6, 0.0, -0.3, 0.0), (0.0, 0.0, 0.0, 0.0)],
    "handwaving": [(0.0, 0.9, 0.0, 0.3), (0.0, -0.9, 0.0, -0.3), (0.0, 0.0, 0.0, 0.0)],
    "jogging": [(2.0, 0.0, 0.0, 0.0), (2.0, 0.6, 0.0, 0.2), (2.0, -0.6, 0.0, -0.2)],
    "running": [(3.0, 0.0, 0.0, 0.0), (3.0, 0.8, 0.0, 0.2), (3.0, -0.8, 0.0, -0.2)],
    "walking": [(1.0, 0.0, 0.0, 0.0), (1.0, 0.4, 0.0, 0.1), (1.0, -0.4, 0.0, -0.1)],
}


def _seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, size=n)]


def content_digest(video: Path) -> str:
    """SHA-256 over a PGM directory's frame bytes."""
    h = hashlib.sha256()
    for p in sorted(video.glob("*.pgm")):
        h.update(p.read_bytes())
    return h.hexdigest()


@dataclasses.dataclass
class DeskData:
    actions: list[str]
    manifest: Path
    config: Path
    test_videos: list[Path]
    truths: list[np.ndarray]
    all_videos: list[Path]


def desk_dataset(seed: int, root: Path) -> DeskData:
    """Render the desk workload under ``root``.

    Each test video is stitched from its own freshly rendered pool, so no
    two test videos share an instance and a cold run extracts every frame.
    """
    base = default_synth_spec()
    train_spec = dataclasses.replace(
        base, instance_length_range=(DESK_TRAIN_FRAMES, DESK_TRAIN_FRAMES)
    )
    test_spec = dataclasses.replace(
        base, instance_length_range=(DESK_TEST_FRAMES, DESK_TEST_FRAMES)
    )
    names = base.action_names
    group_of = {r.name: r.group for r in base.actions}
    train_seed, stitch_seed, *pool_seeds = _seeds(seed, 2 + DESK_TEST_VIDEOS)

    entries, all_videos, counters = [], [], {}
    for seq, action in synth_generate(train_spec, DESK_TRAIN_PER_ACTION, train_seed):
        k = counters.get(action, 0)
        counters[action] = k + 1
        rel = f"train/{action}_{k}"
        save_sequence(seq, root / rel)
        entries.append({"video": rel, "action": action})
        all_videos.append(root / rel)
    manifest = root / "manifest.json"
    manifest.write_text(json.dumps({"actions": names, "train": entries}, indent=1) + "\n")

    test_videos, truths = [], []
    for j, pool_seed in enumerate(pool_seeds):
        pool = [(s, a, group_of[a]) for s, a in synth_generate(test_spec, 1, pool_seed)]
        seq, truth = stitch_sequences(pool, stitch_seed + j, DESK_TEST_INSTANCES, names)
        video = root / f"test/seq_{j}"
        save_sequence(seq, video)
        test_videos.append(video)
        truths.append(truth.labels)
        all_videos.append(video)

    config = root / "desk.toml"
    config.write_text("".join(f"{k} = {v!r}\n" for k, v in DESK_CONFIG.items()))
    return DeskData(names, manifest, config, test_videos, truths, all_videos)


def _kth_frame(rng: np.random.Generator, action: str, empty: bool) -> np.ndarray:
    if empty:
        return np.empty((0, 14))
    k = KTH_VECTORS
    modes = np.asarray(_KTH_MODES[action])[rng.integers(len(_KTH_MODES[action]), size=k)]
    mag = 40.0 + rng.exponential(25.0, k)
    ori = rng.uniform(0.0, np.pi / 2, k)
    return np.column_stack(
        [
            np.clip(np.rint(rng.normal(80.0, 30.0, k)), 0, 159),
            np.clip(np.rint(rng.normal(60.0, 24.0, k)), 0, 119),
            mag * np.cos(ori),
            mag * np.sin(ori),
            np.abs(rng.normal(0.0, 18.0, k)),
            np.abs(rng.normal(0.0, 18.0, k)),
            mag,
            ori,
            modes[:, 0] + rng.normal(0.0, 0.35, k),
            modes[:, 1] + rng.normal(0.0, 0.35, k),
            rng.normal(0.0, 0.2, k),
            rng.normal(0.0, 0.2, k),
            modes[:, 2] + rng.normal(0.0, 0.1, k),
            modes[:, 3] + rng.normal(0.0, 0.1, k),
        ]
    )


def _kth_video(rng, labels: list[str], empty: set[int]) -> list[FrameFeatures]:
    """Retained frames 2, 4, ...; positions and appearance are drawn alike
    for every action, so only the flow channels tell actions apart."""
    return [
        FrameFeatures(2 + 2 * i, _kth_frame(rng, action, i in empty))
        for i, action in enumerate(labels)
    ]


@dataclasses.dataclass
class KthData:
    actions: list[str]
    train: list[tuple[list[FrameFeatures], str]]
    tests: list[tuple[list[FrameFeatures], LabelTrack]]


def kth_dataset(seed: int) -> KthData:
    """One training video per action and one stitched test video whose
    runs alternate between the two action groups."""
    rng = np.random.default_rng(seed)
    actions = list(KTH_ACTIONS)
    n_train = KTH_TRAIN_FRAMES + KTH_TRAIN_EMPTY
    train = []
    for action in actions:
        empty = set(rng.choice(n_train, KTH_TRAIN_EMPTY, replace=False).tolist())
        train.append((_kth_video(rng, [action] * n_train, empty), action))

    groups = (actions[:3], actions[3:])
    first = int(rng.integers(2))
    runs = [groups[(first + r) % 2][rng.integers(3)] for r in range(KTH_TEST_RUNS)]
    retained = [a for a in runs for _ in range(KTH_RUN_FRAMES)]
    empty = set(rng.choice(len(retained), KTH_TEST_EMPTY, replace=False).tolist())
    feats = _kth_video(rng, retained, empty)
    # original frame f shows the action of retained frame (f - 2) // 2
    n_frames = 2 + 2 * len(retained)
    idx = np.clip((np.arange(n_frames) - 2) // 2, 0, len(retained) - 1)
    truth = LabelTrack([actions.index(retained[i]) + 1 for i in idx], actions)
    return KthData(actions, train, [(feats, truth)])
