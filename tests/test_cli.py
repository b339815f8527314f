import hashlib
import json
import multiprocessing
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from actionseg import cli, features
from actionseg.cli import main
from actionseg.config import PipelineConfig, load_config
from actionseg.errors import ConfigError
from actionseg.evaluation import ActionRecipe, SynthSpec, synth_folds
from actionseg.features import extract_video_features
from actionseg.frame_io import load_labels, load_sequence
from actionseg.gmm import load_model
from actionseg.segmenter import ModelBank, segment_video

from test_trace_targets import tracing

SRC = Path(__file__).resolve().parents[1] / "src"

SYNTH_SPEC = {
    "frame_size": [32, 32],
    "instance_length_range": [18, 24],
    "noise_sigma": 1.0,
    "n_train_per_action": 2,
    "n_test_sequences": 1,
    "instances_per_test": 3,
    "folds": 1,
    "actions": [
        {"name": "right", "pattern": "translate", "velocity": [1.0, 0.0],
         "texture_seed": 1, "group": 1, "param_jitter": 0.15},
        {"name": "updown", "pattern": "oscillate", "velocity": [0.0, 1.0],
         "amplitude": 1.5, "period": 8.0, "texture_seed": 2, "group": 2,
         "param_jitter": 0.15},
    ],
}

CONFIG_TEXT = """\
# desk-scale settings
tau = 30.0
window_frames = 8
n_components = 2
seed = 0
hs_iters = 60
"""


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


@pytest.fixture()
def cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("ACTIONSEG_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


@pytest.fixture()
def synth_dataset(cache_env):
    root = cache_env
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(SYNTH_SPEC))
    out = root / "data"
    assert main(["synth", "--spec", str(spec_path), "--seed", "5", "--out", str(out)]) == 0
    cfg_path = root / "cfg.toml"
    cfg_path.write_text(CONFIG_TEXT)
    return root, out, cfg_path


class TestSynthCommand:
    def test_layout_and_manifest(self, synth_dataset):
        root, out, _ = synth_dataset
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["actions"] == ["right", "updown"]
        assert len(manifest["folds"]) == 1
        assert len(manifest["train"]) == 4  # 2 actions x 2 instances
        assert len(manifest["test"]) == 1
        train_dirs = sorted(p.name for p in (out / "fold_0" / "train").iterdir() if p.is_dir())
        assert train_dirs == ["right_0", "right_1", "updown_0", "updown_1"]
        seq = load_sequence(out / "fold_0" / "train" / "right_0")
        assert 18 <= len(seq) <= 24
        labels = load_labels(out / "fold_0" / "test" / "seq_0.labels.csv")
        test_seq = load_sequence(out / "fold_0" / "test" / "seq_0")
        assert len(labels) == len(test_seq)

    def test_same_seed_identical_tree(self, synth_dataset, cache_env):
        root, out, _ = synth_dataset
        spec_path = root / "spec.json"
        out2 = root / "data2"
        assert main(["synth", "--spec", str(spec_path), "--seed", "5", "--out", str(out2)]) == 0
        assert tree_digest(out) == tree_digest(out2)

    def test_different_seed_differs(self, synth_dataset):
        root, out, _ = synth_dataset
        out3 = root / "data3"
        assert main(["synth", "--spec", str(root / "spec.json"), "--seed", "6",
                     "--out", str(out3)]) == 0
        assert tree_digest(out) != tree_digest(out3)

    def test_camera_jitter_applied(self, synth_dataset):
        root, out, _ = synth_dataset
        jitter_spec = root / "jitter.json"
        jitter_spec.write_text(json.dumps({**SYNTH_SPEC, "camera_jitter": 0.5}))
        out4 = root / "data4"
        assert main(["synth", "--spec", str(jitter_spec), "--seed", "5",
                     "--out", str(out4)]) == 0
        assert tree_digest(out) != tree_digest(out4)

    def test_missing_spec_is_data_error(self, cache_env, capsys):
        code = main(["synth", "--spec", str(cache_env / "nope.json"), "--out",
                     str(cache_env / "x")])
        assert code == 2
        assert "no such spec" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec",
        [
            [SYNTH_SPEC],
            {**SYNTH_SPEC, "noise_sigma": [1]},
            {**SYNTH_SPEC, "frame_size": 16},
            {**SYNTH_SPEC, "n_train_per_action": "x"},
            {**SYNTH_SPEC, "n_train_per_action": 0},
            {**SYNTH_SPEC, "instances_per_test": 0},
            {**SYNTH_SPEC, "n_test_sequences": -1},
            {**SYNTH_SPEC, "folds": 0},
            {**SYNTH_SPEC, "folds": 1.7},
            {**SYNTH_SPEC, "n_test_sequences": True},
            {**SYNTH_SPEC, "instance_length_range": [4.5, 5]},
            {**SYNTH_SPEC, "noise_sigma": "3"},
            {**SYNTH_SPEC, "camera_jitter": True},
            {**SYNTH_SPEC, "actions": [
                SYNTH_SPEC["actions"][0], {**SYNTH_SPEC["actions"][1], "velocity": "xy"}
            ]},
            {**SYNTH_SPEC, "actions": [
                SYNTH_SPEC["actions"][0], {**SYNTH_SPEC["actions"][1], "texture_seed": 2.5}
            ]},
        ],
        ids=["list", "noise_list", "frame_size_int", "train_str", "train_zero",
             "instances_zero", "tests_negative", "folds_zero", "folds_float",
             "tests_bool", "length_float", "noise_str", "jitter_bool",
             "velocity_str", "seed_float"],
    )
    def test_bad_spec_is_data_error(self, cache_env, capsys, spec):
        spec_path = cache_env / "bad.json"
        spec_path.write_text(json.dumps(spec))
        out = cache_env / "bad"
        assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 2
        assert "data error" in capsys.readouterr().err
        assert not out.exists()

    def test_tree_matches_synth_folds(self, cache_env):
        raw = {**SYNTH_SPEC, "folds": 2}
        spec_path = cache_env / "two_folds.json"
        spec_path.write_text(json.dumps(raw))
        out = cache_env / "two_folds"
        assert main(["synth", "--spec", str(spec_path), "--seed", "3", "--out", str(out)]) == 0

        spec = SynthSpec(
            [ActionRecipe(**d) for d in raw["actions"]],
            frame_size=tuple(raw["frame_size"]),
            instance_length_range=tuple(raw["instance_length_range"]),
            noise_sigma=raw["noise_sigma"],
        )
        names = spec.action_names
        folds = list(synth_folds(spec, 2, 1, 3, 2, seed=3))
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["folds"]) == len(folds) == 2

        def pixels(seq):
            return np.stack([f.pixels for f in seq.frames])

        for entry, (train, tests) in zip(manifest["folds"], folds):
            assert [e["action"] for e in entry["train"]] == [a for _, a in train]
            for e, (seq, action) in zip(entry["train"], train):
                np.testing.assert_array_equal(pixels(load_sequence(out / e["video"])), pixels(seq))
                labels = load_labels(out / e["labels"], names).labels
                assert labels.tolist() == [names.index(action) + 1] * len(seq)
            assert len(entry["test"]) == len(tests) == 1
            for e, (seq, truth) in zip(entry["test"], tests):
                np.testing.assert_array_equal(pixels(load_sequence(out / e["video"])), pixels(seq))
                labels = load_labels(out / e["labels"], names).labels
                assert labels.tolist() == truth.labels.tolist()


class TestTrainCommand:
    def test_train_writes_model_per_action(self, synth_dataset):
        root, out, cfg = synth_dataset
        models = root / "models"
        code = main([
            "train", "--config", str(cfg),
            "--manifest", str(out / "manifest.json"), "--out", str(models),
        ])
        assert code == 0
        files = sorted(p.name for p in models.glob("*.json"))
        assert files == ["right.json", "updown.json"]
        model = load_model(models / "right.json")
        assert model.action == "right"
        assert model.n_components == 2
        assert model.meta["tau"] == 30.0

    def test_rerun_byte_identical(self, synth_dataset):
        root, out, cfg = synth_dataset
        m1, m2 = root / "m1", root / "m2"
        args = ["train", "--config", str(cfg), "--manifest", str(out / "manifest.json")]
        assert main(args + ["--out", str(m1)]) == 0
        assert main(args + ["--out", str(m2)]) == 0
        assert tree_digest(m1) == tree_digest(m2)

    def test_cache_populated_and_reused(self, synth_dataset, cache_env):
        root, out, cfg = synth_dataset
        cache = cache_env / "cache"
        assert main(["train", "--config", str(cfg),
                     "--manifest", str(out / "manifest.json"),
                     "--out", str(root / "m")]) == 0
        feats = list(cache.glob("*.feat"))
        assert feats
        stamps = {p: p.stat().st_mtime_ns for p in feats}
        assert main(["train", "--config", str(cfg),
                     "--manifest", str(out / "manifest.json"),
                     "--out", str(root / "m_again")]) == 0
        assert {p: p.stat().st_mtime_ns for p in feats} == stamps

    def test_warm_cache_decodes_nothing(self, synth_dataset, cache_env, monkeypatch):
        root, out, cfg = synth_dataset
        manifest = str(out / "manifest.json")

        def commands(run: Path) -> list[list[str]]:
            return [
                ["train", "--config", str(cfg), "--manifest", manifest,
                 "--out", str(run / "models")],
                ["segment", "--config", str(cfg), "--models", str(run / "models"),
                 "--video", str(out / "fold_0" / "test" / "seq_0"),
                 "--out", str(run / "seg.csv"), "--scores-out", str(run / "scores.json")],
                ["eval", "--config", str(cfg), "--manifest", manifest,
                 "--out", str(run / "report.json"), "--dump-segments", str(run / "segments")],
            ]

        # each cold command starts from an empty cache, so it extracts every
        # video it reads; the last one (fold eval) reads them all
        for argv in commands(root / "cold"):
            shutil.rmtree(cache_env / "cache", ignore_errors=True)
            assert main(argv) == 0
        decoded = []

        def counting_load(path):
            decoded.append(path)
            return load_sequence(path)

        monkeypatch.setattr("actionseg.cli.load_sequence", counting_load)
        for argv in commands(root / "warm"):
            assert main(argv) == 0
        assert decoded == []
        assert tree_digest(root / "cold") == tree_digest(root / "warm")

    def test_old_format_cache_file_is_not_looked_up(self, synth_dataset, cache_env):
        # a v1 file under the key the previous format used: an empty dump
        root, out, cfg = synth_dataset
        extraction = load_config(cfg).extraction_config()
        cache = cache_env / "cache"
        cache.mkdir()
        manifest = json.loads((out / "manifest.json").read_text())
        for entry in manifest["train"]:
            key_src = f"{cli._video_digest(out / entry['video'])}|{extraction!r}"
            key = hashlib.sha256(key_src.encode()).hexdigest()
            (cache / f"{key}.feat").write_bytes(struct.pack("<4sIqq", b"ASFV", 1, 0, 14))
        assert main(["train", "--config", str(cfg), "--manifest", str(out / "manifest.json"),
                     "--out", str(root / "m")]) == 0

    def test_failed_cache_write_leaves_no_feature_file(self, synth_dataset, cache_env,
                                                       monkeypatch):
        root, out, cfg = synth_dataset
        args = ["train", "--config", str(cfg), "--manifest", str(out / "manifest.json"),
                "--out", str(root / "m")]

        def crash_mid_write(features, n_frames, path):
            Path(path).write_bytes(b"AS")
            raise RuntimeError("interrupted")

        with monkeypatch.context() as m:
            m.setattr("actionseg.cli.save_features", crash_mid_write)
            assert main(args) == 3
        cache = cache_env / "cache"
        assert list(cache.iterdir()) == []
        assert main(args) == 0
        assert list(cache.glob("*.feat"))

    def test_flow_error_in_worker_is_internal_error(self, synth_dataset, monkeypatch, capsys):
        root, out, cfg = synth_dataset

        def failing(prev, nxt, alpha, iters):
            raise ValueError(f"no flow for pair {prev.index}->{nxt.index}")

        monkeypatch.setattr(features, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(features, "horn_schunck", failing)
        code = main(["train", "--config", str(cfg), "--manifest", str(out / "manifest.json"),
                     "--out", str(root / "m")])
        assert code == 3
        assert "internal error: ValueError: no flow for pair 0->1" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    def test_per_scenario_trains_model_per_pair(self, synth_dataset):
        root, out, cfg = synth_dataset
        manifest = json.loads((out / "manifest.json").read_text())
        for i, entry in enumerate(manifest["train"]):
            entry["scenario"] = f"s{i % 2}"
        (out / "scenario_manifest.json").write_text(json.dumps(manifest))
        models = root / "scenario_models"
        code = main([
            "train", "--config", str(cfg), "--per-scenario",
            "--manifest", str(out / "scenario_manifest.json"), "--out", str(models),
        ])
        assert code == 0
        files = sorted(p.name for p in models.glob("*.json"))
        assert files == [
            "right__s0.json", "right__s1.json", "updown__s0.json", "updown__s1.json",
        ]

    def test_unknown_config_key_is_usage_error(self, synth_dataset, capsys):
        root, out, _ = synth_dataset
        bad = root / "bad.toml"
        bad.write_text("taau = 40\n")
        code = main(["train", "--config", str(bad),
                     "--manifest", str(out / "manifest.json"),
                     "--out", str(root / "m")])
        assert code == 1
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("train", [5, None], ids=["number", "null"])
    def test_train_not_a_list_is_data_error(self, synth_dataset, capsys, train):
        root, out, cfg_path = synth_dataset
        (out / "bad_train.json").write_text(json.dumps({"train": train}))
        code = main(["train", "--config", str(cfg_path),
                     "--manifest", str(out / "bad_train.json"), "--out", str(root / "m")])
        assert code == 2
        assert capsys.readouterr().err.startswith("data error:")

    def test_wrong_typed_config_value_is_usage_error(self, synth_dataset, capsys):
        root, out, _ = synth_dataset
        bad = root / "bad.toml"
        bad.write_text(CONFIG_TEXT.replace("n_components = 2", "n_components = 2.0"))
        code = main(["train", "--config", str(bad),
                     "--manifest", str(out / "manifest.json"),
                     "--out", str(root / "m")])
        assert code == 1
        assert "n_components" in capsys.readouterr().err


class TestSegmentCommand:
    def test_cli_matches_library_segmentation(self, synth_dataset):
        root, out, cfg_path = synth_dataset
        models = root / "models"
        main(["train", "--config", str(cfg_path),
              "--manifest", str(out / "manifest.json"), "--out", str(models)])
        video = out / "fold_0" / "test" / "seq_0"
        seg_csv = root / "seg.csv"
        code = main(["segment", "--config", str(cfg_path), "--models", str(models),
                     "--video", str(video), "--out", str(seg_csv)])
        assert code == 0

        cfg = load_config(cfg_path)
        bank = ModelBank([load_model(p) for p in sorted(models.glob("*.json"))])
        seq = load_sequence(video)
        feats = extract_video_features(seq, cfg.extraction_config())
        seg = segment_video(feats, bank, cfg.retained_window(), n_frames=len(seq))
        got = load_labels(seg_csv, bank.action_names)
        assert got.labels.tolist() == seg.frame_labels.tolist()

    def test_single_action_video_single_row(self, synth_dataset):
        root, out, cfg_path = synth_dataset
        models = root / "models"
        main(["train", "--config", str(cfg_path),
              "--manifest", str(out / "manifest.json"), "--out", str(models)])
        video = out / "fold_0" / "train" / "right_0"
        seg_csv = root / "one.csv"
        assert main(["segment", "--config", str(cfg_path), "--models", str(models),
                     "--video", str(video), "--out", str(seg_csv)]) == 0
        rows = seg_csv.read_text().strip().splitlines()
        assert rows[0] == "start_frame,end_frame,action"
        assert len(rows) == 2
        assert rows[1].endswith(",right")

    def test_video_shorter_than_window_is_data_error(self, synth_dataset, capsys):
        root, out, cfg_path = synth_dataset
        models = root / "models"
        main(["train", "--config", str(cfg_path),
              "--manifest", str(out / "manifest.json"), "--out", str(models)])
        long_cfg = root / "long.toml"
        long_cfg.write_text(CONFIG_TEXT.replace("window_frames = 8", "window_frames = 200"))
        code = main(["segment", "--config", str(long_cfg), "--models", str(models),
                     "--video", str(out / "fold_0" / "train" / "right_0"),
                     "--out", str(root / "x.csv")])
        assert code == 2
        assert "too short" in capsys.readouterr().err

    def test_scores_dump(self, synth_dataset):
        root, out, cfg_path = synth_dataset
        models = root / "models"
        main(["train", "--config", str(cfg_path),
              "--manifest", str(out / "manifest.json"), "--out", str(models)])
        scores_path = root / "scores.json"
        assert main(["segment", "--config", str(cfg_path), "--models", str(models),
                     "--video", str(out / "fold_0" / "test" / "seq_0"),
                     "--out", str(root / "s.csv"),
                     "--scores-out", str(scores_path)]) == 0
        dump = json.loads(scores_path.read_text())
        assert dump["actions"] == ["right", "updown"]
        assert len(dump["fused"]) == len(dump["retained_frames"])

    def test_scores_out_scores_windows_once(self, synth_dataset):
        root, out, cfg_path = synth_dataset
        models = root / "models"
        main(["train", "--config", str(cfg_path),
              "--manifest", str(out / "manifest.json"), "--out", str(models)])
        args = ["segment", "--config", str(cfg_path), "--models", str(models),
                "--video", str(out / "fold_0" / "test" / "seq_0"), "--out", str(root / "s.csv")]
        counts = []
        for extra in ([], ["--scores-out", str(root / "scores.json")]):
            with tracing.traced(tracing.Tracer()) as tracer:
                assert main(args + extra) == 0
            metrics = tracing.layer_metrics(tracer)
            counts.append((metrics["segmenter.windows_scored"], metrics["gmm.log_pdf_batch_calls"]))
        assert counts[0][0] > 0
        assert counts[0] == counts[1]

    def test_missing_models_dir_is_data_error(self, synth_dataset, capsys):
        root, out, cfg_path = synth_dataset
        code = main(["segment", "--config", str(cfg_path),
                     "--models", str(root / "nomodels"),
                     "--video", str(out / "fold_0" / "train" / "right_0"),
                     "--out", str(root / "x.csv")])
        assert code == 2


def test_cli_import_loads_no_scipy():
    # nor the process pool's modules, which only a flow computation imports
    prefixes = ("scipy", "concurrent.futures", "multiprocessing")
    code = ("import sys, actionseg.cli; "
            f"print(sorted(m for m in sys.modules if m.startswith({prefixes})))")
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


class TestEvalCommand:
    def test_fold_manifest_reports_mean_and_std(self, cache_env, capsys):
        root = cache_env
        spec = dict(SYNTH_SPEC, folds=2)
        (root / "spec.json").write_text(json.dumps(spec))
        out = root / "data"
        assert main(["synth", "--spec", str(root / "spec.json"), "--seed", "3",
                     "--out", str(out)]) == 0
        cfg = root / "cfg.toml"
        cfg.write_text(CONFIG_TEXT)
        report_path = root / "report.json"
        code = main(["eval", "--config", str(cfg),
                     "--manifest", str(out / "manifest.json"),
                     "--out", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert len(report["folds"]) == 2
        accs = [f["frame_accuracy"] for f in report["folds"]]
        assert report["mean_accuracy"] == pytest.approx(np.mean(accs))
        assert report["stddev_accuracy"] == pytest.approx(np.std(accs, ddof=1))
        assert report["actions"] == ["right", "updown"]

    def test_pretrained_models_on_test_manifest(self, synth_dataset):
        root, out, cfg_path = synth_dataset
        models = root / "models"
        main(["train", "--config", str(cfg_path),
              "--manifest", str(out / "manifest.json"), "--out", str(models)])
        report_path = root / "report.json"
        seg_dir = root / "per_video"
        code = main(["eval", "--config", str(cfg_path), "--models", str(models),
                     "--manifest", str(out / "manifest.json"),
                     "--out", str(report_path), "--dump-segments", str(seg_dir)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert len(report["folds"]) == 1
        assert report["stddev_accuracy"] is None
        assert list(seg_dir.glob("*_segments.csv"))

    def test_perfect_fixture_scores_100(self, synth_dataset):
        # train on one action and evaluate on one of its own training clips
        root, out, cfg_path = synth_dataset
        manifest = json.loads((out / "manifest.json").read_text())
        solo = {
            "actions": ["right"],
            "train": [e for e in manifest["train"] if e["action"] == "right"],
            "test": [
                {"video": e["video"], "labels": e["labels"]}
                for e in manifest["train"] if e["action"] == "right"
            ],
        }
        (out / "solo.json").write_text(json.dumps(solo))
        models = root / "solo_models"
        assert main(["train", "--config", str(cfg_path),
                     "--manifest", str(out / "solo.json"), "--out", str(models)]) == 0
        report_path = root / "solo_report.json"
        assert main(["eval", "--config", str(cfg_path), "--models", str(models),
                     "--manifest", str(out / "solo.json"),
                     "--out", str(report_path)]) == 0
        assert json.loads(report_path.read_text())["mean_accuracy"] == 100.0

    def test_missing_models_without_folds_is_config_error(self, synth_dataset, capsys):
        root, out, cfg_path = synth_dataset
        manifest = json.loads((out / "manifest.json").read_text())
        del manifest["folds"]
        (out / "flat.json").write_text(json.dumps(manifest))
        code = main(["eval", "--config", str(cfg_path),
                     "--manifest", str(out / "flat.json"),
                     "--out", str(root / "r.json")])
        assert code == 1
        assert "--models" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "folds",
        [[1], "ab", 5, [{"train": 5}], [{"train": None}], [{"train": [], "test": 5}]],
        ids=["number", "string", "not_list", "train_number", "train_null", "test_number"],
    )
    def test_malformed_fold_is_data_error(self, synth_dataset, capsys, folds):
        root, out, cfg_path = synth_dataset
        (out / "bad_folds.json").write_text(json.dumps({"folds": folds}))
        code = main(["eval", "--config", str(cfg_path),
                     "--manifest", str(out / "bad_folds.json"),
                     "--out", str(root / "r.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("data error:")

    def test_test_not_a_list_is_data_error(self, synth_dataset, capsys):
        root, out, cfg_path = synth_dataset
        models = root / "models"
        assert main(["train", "--config", str(cfg_path),
                     "--manifest", str(out / "manifest.json"), "--out", str(models)]) == 0
        (out / "bad_test.json").write_text(json.dumps({"test": 5}))
        code = main(["eval", "--config", str(cfg_path), "--models", str(models),
                     "--manifest", str(out / "bad_test.json"),
                     "--out", str(root / "r.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("data error:")

    def test_missing_manifest_is_data_error(self, synth_dataset):
        root, _, cfg_path = synth_dataset
        code = main(["eval", "--config", str(cfg_path),
                     "--manifest", str(root / "missing.json"),
                     "--out", str(root / "r.json")])
        assert code == 2


class TestConfig:
    def test_defaults_match_reference_protocol(self):
        cfg = PipelineConfig()
        assert cfg.tau == 40.0
        assert cfg.frame_stride == 2
        assert cfg.window_frames == 25
        assert cfg.n_components == 1024
        assert cfg.retained_window() == 13

    def test_file_and_overrides(self, tmp_path):
        path = tmp_path / "c.toml"
        path.write_text('tau = 35.5\nper_scenario = true\nseed = 9  # comment\n')
        cfg = load_config(path, {"seed": 11})
        assert cfg.tau == 35.5
        assert cfg.per_scenario is True
        assert cfg.seed == 11

    def test_string_values(self, tmp_path):
        path = tmp_path / "c.toml"
        path.write_text('tau = "oops"\n')
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "c.toml"
        path.write_text("bogus = 1\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(path)

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig(tau=-1.0)
        with pytest.raises(ConfigError):
            PipelineConfig(frame_stride=0)
        with pytest.raises(ConfigError):
            PipelineConfig(window_frames=0)
        with pytest.raises(ConfigError, match="frame_stride"):
            PipelineConfig(frame_stride=2.5)
        with pytest.raises(ConfigError, match="n_components"):
            PipelineConfig(n_components=4.0)
        with pytest.raises(ConfigError, match="tau"):
            PipelineConfig(tau=True)

    def test_retained_window_rounds_up(self):
        assert PipelineConfig(window_frames=25, frame_stride=2).retained_window() == 13
        assert PipelineConfig(window_frames=24, frame_stride=2).retained_window() == 12
        assert PipelineConfig(window_frames=25, frame_stride=3).retained_window() == 9


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert main([]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_unknown_flag(self):
        assert main(["train", "--bogus"]) == 1
