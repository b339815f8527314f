"""Command-line interface: train, segment, eval, synth.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 internal error.
Extracted features are cached under ``$ACTIONSEG_CACHE_DIR`` (default
``~/.cache/actionseg``), keyed by video content and extraction parameters,
so parameter sweeps that only change the mixture size skip the flow
computation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .config import PipelineConfig, check_type, load_config
from .errors import ActionsegError, ConfigError, DataError
from .evaluation import (
    ActionRecipe,
    EvalReport,
    SynthSpec,
    evaluate_model_bank,
    summarize_folds,
    synth_folds,
    train_model_bank,
)
from .features import FEATURES_VERSION, extract_video_features, load_features, save_features
from .frame_io import LabelTrack, load_labels, load_sequence, save_labels, save_sequence
from .gmm import load_model, save_model
from .segmenter import ModelBank, segment_video
from .segmenter import window_scores  # noqa: F401 - perfbench/tracing.py wraps this name


# ---------------------------------------------------------------------------
# feature cache

def _cache_dir() -> Path:
    root = os.environ.get("ACTIONSEG_CACHE_DIR")
    path = Path(root) if root else Path.home() / ".cache" / "actionseg"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _video_digest(path: Path) -> str:
    if not path.exists():
        raise DataError(f"{path}: no such file or directory")
    h = hashlib.sha256()
    if path.is_dir():
        for p in sorted(path.glob("*.pgm")):
            h.update(p.name.encode())
            h.update(p.read_bytes())
    else:
        h.update(path.read_bytes())
    return h.hexdigest()


def _cached_features(video: Path, cfg: PipelineConfig):
    """Load (or extract and cache) features; returns (features, frame count).

    The video is decoded only on a cache miss. The key holds the format
    version, so files of another version are never looked up.
    """
    extraction = cfg.extraction_config()
    key_src = f"{_video_digest(video)}|{extraction!r}|v{FEATURES_VERSION}"
    key = hashlib.sha256(key_src.encode()).hexdigest()
    cache_file = _cache_dir() / f"{key}.feat"
    if cache_file.exists():
        return load_features(cache_file)
    seq = load_sequence(video)
    feats = extract_video_features(seq, extraction)
    # write beside the target and rename, so a crash never leaves a
    # truncated .feat that later runs would load
    tmp = cache_file.with_name(f"{cache_file.name}.{os.getpid()}.tmp")
    try:
        save_features(feats, len(seq), tmp)
        os.replace(tmp, cache_file)
    finally:
        tmp.unlink(missing_ok=True)
    return feats, len(seq)


# ---------------------------------------------------------------------------
# manifests

def _load_manifest(path: Path) -> dict:
    if not path.exists():
        raise DataError(f"{path}: no such manifest")
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(manifest, dict):
        raise DataError(f"{path}: manifest must be a JSON object")
    return manifest


def _resolve(base: Path, rel: str) -> Path:
    p = Path(rel)
    return p if p.is_absolute() else base / p


def _train_entries(entries: list, base: Path, cfg: PipelineConfig) -> list:
    if not isinstance(entries, list):
        raise DataError("manifest 'train' must be a list of entries")
    out = []
    for e in entries:
        try:
            video = _resolve(base, e["video"])
            action = e["action"]
        except (TypeError, KeyError):
            raise DataError("train manifest entries need 'video' and 'action'") from None
        feats, _ = _cached_features(video, cfg)
        out.append((feats, action, e.get("scenario", "")))
    return out


def _test_entries(entries: list, base: Path, cfg: PipelineConfig, action_names=None):
    if not isinstance(entries, list):
        raise DataError("manifest 'test' must be a list of entries")
    out = []
    for e in entries:
        try:
            video = _resolve(base, e["video"])
            labels = _resolve(base, e["labels"])
        except (TypeError, KeyError):
            raise DataError("test manifest entries need 'video' and 'labels'") from None
        feats, n_frames = _cached_features(video, cfg)
        truth = load_labels(labels, action_names)
        if len(truth) != n_frames:
            raise DataError(f"{labels}: {len(truth)} labels for {n_frames} frames")
        out.append((feats, truth, video))
    return out


# ---------------------------------------------------------------------------
# subcommands

def _config_from_args(args) -> PipelineConfig:
    overrides = {f.name: getattr(args, f.name, None) for f in fields(PipelineConfig)}
    return load_config(args.config, overrides)


def _model_filename(action: str, scenario: str) -> str:
    return f"{action}__{scenario}.json" if scenario else f"{action}.json"


def cmd_train(args) -> int:
    cfg = _config_from_args(args)
    manifest_path = Path(args.manifest)
    manifest = _load_manifest(manifest_path)
    entries = manifest.get("train")
    if not entries:
        raise DataError(f"{manifest_path}: manifest has no 'train' entries")
    base = manifest_path.parent
    train = _train_entries(entries, base, cfg)
    action_names = manifest.get("actions") or sorted({a for _, a, _ in train})
    bank = train_model_bank(train, cfg, action_names)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for model in bank.models:
        save_model(model, out_dir / _model_filename(model.action, model.scenario))
    print(f"trained {len(bank.models)} model(s) for {bank.n_actions} action(s) -> {out_dir}")
    return 0


def _load_bank(models_dir: Path) -> ModelBank:
    if not models_dir.is_dir():
        raise DataError(f"{models_dir}: no such model directory")
    files = sorted(models_dir.glob("*.json"))
    if not files:
        raise DataError(f"{models_dir}: no model files (*.json)")
    return ModelBank([load_model(p) for p in files])


def cmd_segment(args) -> int:
    cfg = _config_from_args(args)
    bank = _load_bank(Path(args.models))
    feats, n_frames = _cached_features(Path(args.video), cfg)
    window = cfg.retained_window()
    if len(feats) < window:
        raise DataError(
            f"{args.video}: video too short for the scoring window "
            f"({len(feats)} retained frames < {window})"
        )
    seg = segment_video(feats, bank, window, n_frames=n_frames)
    save_labels(LabelTrack(seg.frame_labels, bank.action_names), args.out)
    print(f"wrote {len(seg.segments)} segment(s) -> {args.out}")

    if args.scores_out:
        dump = {
            "actions": bank.action_names,
            "retained_frames": [ff.frame_index for ff in feats],
            "fused": [
                [None if np.isnan(v) else v for v in row]
                for row in seg.fused_scores.tolist()
            ],
        }
        Path(args.scores_out).write_text(json.dumps(dump, indent=1) + "\n")
    return 0


def _evaluate_with_bank(bank: ModelBank, tests, cfg: PipelineConfig, dump_dir=None):
    report, preds = evaluate_model_bank(bank, [(f, t) for f, t, _ in tests], cfg)
    if dump_dir is not None:
        for (_, _, video), pred in zip(tests, preds):
            save_labels(pred, Path(dump_dir) / f"{Path(video).stem}_segments.csv")
    return report


def cmd_eval(args) -> int:
    cfg = _config_from_args(args)
    manifest_path = Path(args.manifest)
    manifest = _load_manifest(manifest_path)
    base = manifest_path.parent
    action_names = manifest.get("actions")
    dump_dir = Path(args.dump_segments) if args.dump_segments else None
    if dump_dir is not None:
        dump_dir.mkdir(parents=True, exist_ok=True)

    reports: list[EvalReport] = []
    folds = manifest.get("folds")
    if folds:
        if not isinstance(folds, list) or not all(isinstance(f, dict) for f in folds):
            raise DataError(f"{manifest_path}: 'folds' must be a list of JSON objects")
        for i, fold in enumerate(folds):
            train = _train_entries(fold.get("train", []), base, cfg)
            names = action_names or sorted({a for _, a, _ in train})
            tests = _test_entries(fold.get("test", []), base, cfg, names)
            if not tests:
                raise DataError(f"fold {i}: no test entries")
            bank = train_model_bank(train, cfg, names)
            report = _evaluate_with_bank(bank, tests, cfg, dump_dir)
            reports.append(report)
            print(f"fold {i}: {report.frame_accuracy:.2f}% over {report.n_frames} frames")
    else:
        if not args.models:
            raise ConfigError("eval without 'folds' in the manifest requires --models")
        bank = _load_bank(Path(args.models))
        tests = _test_entries(manifest.get("test", []), base, cfg, bank.action_names)
        if not tests:
            raise DataError(f"{manifest_path}: manifest has no 'test' entries")
        reports.append(_evaluate_with_bank(bank, tests, cfg, dump_dir))

    mean, std = summarize_folds(reports)
    print(reports[-1].format_table())
    if std is not None:
        print(f"mean accuracy over {len(reports)} folds: {mean:.2f}% +/- {std:.2f}")
    payload = {
        "actions": reports[0].action_names,
        "folds": [r.to_dict() for r in reports],
        "mean_accuracy": mean,
        "stddev_accuracy": std,
    }
    Path(args.out).write_text(json.dumps(payload, indent=1) + "\n")
    return 0


def _recipe_from_dict(d: dict) -> ActionRecipe:
    try:
        return ActionRecipe(**d)
    except (TypeError, ValueError) as exc:
        raise DataError(f"bad action recipe {d!r}: {exc}") from None


def _spec_count(raw: dict, key: str, default: int) -> int:
    value = raw.get(key, default)
    check_type(key, value, "int")
    return value


def cmd_synth(args) -> int:
    spec_path = Path(args.spec)
    if not spec_path.exists():
        raise DataError(f"{spec_path}: no such spec file")
    try:
        raw = json.loads(spec_path.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{spec_path}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise DataError(f"{spec_path}: spec must be a JSON object")

    optional = {f.name for f in fields(SynthSpec)} - {"actions"}
    try:
        spec = SynthSpec(
            actions=[_recipe_from_dict(d) for d in raw.get("actions", [])],
            **{k: v for k, v in raw.items() if k in optional},
        )
        n_train_per_action = _spec_count(raw, "n_train_per_action", 2)
        n_test_sequences = _spec_count(raw, "n_test_sequences", 0)
        instances_per_test = _spec_count(raw, "instances_per_test", 4)
        n_folds = _spec_count(raw, "folds", 1)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{spec_path}: {exc}") from None

    out_root = Path(args.out)
    manifest: dict = {"actions": spec.action_names, "folds": []}
    try:
        folds = synth_folds(
            spec, n_train_per_action, n_test_sequences, instances_per_test, n_folds, args.seed
        )
        for f, (train, tests) in enumerate(folds):
            fold_entry: dict = {"train": [], "test": []}
            counters: dict[str, int] = {}
            for seq, action in train:
                k = counters.get(action, 0)
                counters[action] = k + 1
                rel = f"fold_{f}/train/{action}_{k}"
                save_sequence(seq, out_root / rel)
                labels = LabelTrack(np.full(len(seq), 1 + spec.action_names.index(action)),
                                    spec.action_names)
                save_labels(labels, out_root / f"{rel}.labels.csv")
                fold_entry["train"].append(
                    {"video": rel, "action": action, "labels": f"{rel}.labels.csv"}
                )
            for j, (seq, truth) in enumerate(tests):
                rel = f"fold_{f}/test/seq_{j}"
                save_sequence(seq, out_root / rel)
                save_labels(truth, out_root / f"{rel}.labels.csv")
                fold_entry["test"].append({"video": rel, "labels": f"{rel}.labels.csv"})
            manifest["folds"].append(fold_entry)
    except ValueError as exc:
        raise DataError(f"{spec_path}: {exc}") from None

    if n_folds == 1:
        manifest["train"] = manifest["folds"][0]["train"]
        manifest["test"] = manifest["folds"][0]["test"]
    out_root.mkdir(parents=True, exist_ok=True)
    (out_root / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    n_seqs = sum(len(f["train"]) + len(f["test"]) for f in manifest["folds"])
    print(f"wrote {n_seqs} sequence(s) across {n_folds} fold(s) -> {out_root}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--tau", type=float, help="gradient magnitude threshold")
    p.add_argument("--frame-stride", dest="frame_stride", type=int)
    p.add_argument("--window-frames", dest="window_frames", type=int,
                   help="scoring window length in original frames")
    p.add_argument("--n-components", dest="n_components", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--per-scenario", dest="per_scenario", action="store_const", const=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="actionseg",
        description="Joint segmentation and classification of multi-action videos.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit one mixture model per action (and scenario)")
    _add_config_flags(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="output directory for model files")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("segment", help="segment one video with trained models")
    _add_config_flags(p)
    p.add_argument("--models", required=True)
    p.add_argument("--video", required=True)
    p.add_argument("--out", required=True, help="output segmentation CSV")
    p.add_argument("--scores-out", dest="scores_out", help="optional per-frame score JSON")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("eval", help="evaluate on a test manifest (optionally k folds)")
    _add_config_flags(p)
    p.add_argument("--models", help="model directory (not needed with fold manifests)")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="output report JSON")
    p.add_argument("--dump-segments", dest="dump_segments",
                   help="directory for per-video predicted segment CSVs")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="render a synthetic benchmark dataset")
    p.add_argument("--spec", required=True, help="JSON synthesis spec")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DataError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ActionsegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - map anything unexpected to exit 3
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
