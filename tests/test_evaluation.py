import numpy as np
import pytest

from actionseg.config import PipelineConfig
from actionseg.errors import DataError
from actionseg.evaluation import (
    ActionRecipe,
    SynthSpec,
    default_synth_spec,
    frame_accuracy,
    run_experiment,
    stitch_sequences,
    summarize_folds,
    synth_generate,
    train_model_bank,
)
from actionseg.features import extract_video_features
from actionseg.frame_io import Frame, FrameSequence, LabelTrack
from actionseg.motion import horn_schunck


def small_spec(noise=0.0, jitter=0.0):
    return SynthSpec(
        actions=[
            ActionRecipe("right", "translate", velocity=(1.0, 0.0), texture_seed=1,
                         group=1, param_jitter=jitter),
            ActionRecipe("updown", "oscillate", velocity=(0.0, 1.0), amplitude=1.5,
                         period=8.0, texture_seed=2, group=2, param_jitter=jitter),
        ],
        frame_size=(32, 32),
        instance_length_range=(18, 24),
        noise_sigma=noise,
    )


class TestFrameAccuracy:
    def test_perfect_prediction(self):
        truth = LabelTrack(np.array([1, 1, 2, 2]), ["a", "b"])
        report = frame_accuracy(truth, truth)
        assert report.frame_accuracy == 100.0
        np.testing.assert_array_equal(report.confusion, [[2, 0], [0, 2]])
        assert report.n_frames == 4

    def test_half_flipped(self):
        truth = LabelTrack(np.array([1, 1, 2, 2]), ["a", "b"])
        pred = LabelTrack(np.array([1, 2, 2, 1]), ["a", "b"])
        report = frame_accuracy(pred, truth)
        assert report.frame_accuracy == 50.0
        assert report.per_action_accuracy.tolist() == [50.0, 50.0]

    def test_random_pair_matches_counting_oracle(self):
        rng = np.random.default_rng(0)
        names = ["a", "b", "c"]
        truth_l = rng.integers(1, 4, 200)
        pred_l = rng.integers(1, 4, 200)
        report = frame_accuracy(LabelTrack(pred_l, names), LabelTrack(truth_l, names))
        # naive loop oracle
        correct = sum(int(p == t) for p, t in zip(pred_l, truth_l))
        assert report.frame_accuracy == pytest.approx(correct / 200 * 100)
        for i in range(3):
            for j in range(3):
                expected = sum(
                    1 for p, t in zip(pred_l, truth_l) if t == i + 1 and p == j + 1
                )
                assert report.confusion[i, j] == expected

    def test_confusion_row_sums_match_truth_counts(self):
        rng = np.random.default_rng(1)
        names = ["a", "b"]
        truth_l = rng.integers(1, 3, 50)
        pred_l = rng.integers(1, 3, 50)
        report = frame_accuracy(LabelTrack(pred_l, names), LabelTrack(truth_l, names))
        np.testing.assert_array_equal(
            report.confusion.sum(axis=1), np.bincount(truth_l, minlength=3)[1:]
        )
        assert report.confusion.sum() == report.n_frames

    def test_length_mismatch(self):
        a = LabelTrack(np.array([1]), ["x"])
        b = LabelTrack(np.array([1, 1]), ["x"])
        with pytest.raises(ValueError, match="length mismatch"):
            frame_accuracy(a, b)

    def test_vocabulary_mismatch(self):
        a = LabelTrack(np.array([1]), ["x"])
        b = LabelTrack(np.array([1]), ["y"])
        with pytest.raises(ValueError, match="vocabularies"):
            frame_accuracy(a, b)

    def test_absent_action_gets_nan_accuracy(self):
        truth = LabelTrack(np.array([1, 1]), ["a", "b"])
        report = frame_accuracy(truth, truth)
        assert report.per_action_accuracy[0] == 100.0
        assert np.isnan(report.per_action_accuracy[1])
        assert report.to_dict()["per_action_accuracy"]["b"] is None


def tiny_instances():
    rng = np.random.default_rng(2)
    out = []
    for i, (action, group, n) in enumerate(
        [("a", 1, 30), ("b", 2, 40), ("a", 1, 25), ("b", 2, 35)]
    ):
        frames = [
            Frame(t, rng.integers(0, 256, size=(6, 6)).astype(float)) for t in range(n)
        ]
        out.append((FrameSequence(frames), action, group))
    return out


class TestStitch:
    def test_single_instance_identity(self):
        insts = tiny_instances()
        seq, track = stitch_sequences(insts, seed=0, n_instances=1)
        lengths = {len(i[0]) for i in insts}
        assert len(seq) in lengths
        assert len(track) == len(seq)
        assert len(set(track.labels.tolist())) == 1

    def test_concatenation_boundary(self):
        insts = tiny_instances()[:2]
        seq, track = stitch_sequences(insts, seed=1, n_instances=2)
        assert len(seq) == 70
        runs = np.flatnonzero(np.diff(track.labels)) + 1
        assert runs.tolist() in ([30], [40])
        assert [f.index for f in seq.frames] == list(range(70))

    def test_groups_strictly_alternate(self):
        insts = tiny_instances()
        group_of = {"a": 1, "b": 2}
        for seed in range(5):
            _, track = stitch_sequences(insts, seed=seed, n_instances=6)
            # scan the emitted label track against instance group metadata
            labels = track.labels
            boundaries = np.flatnonzero(np.r_[True, labels[1:] != labels[:-1]])
            groups = [group_of[track.action_names[labels[b] - 1]] for b in boundaries]
            assert all(g1 != g2 for g1, g2 in zip(groups, groups[1:]))

    def test_empty_group_rejected(self):
        insts = [i for i in tiny_instances() if i[2] == 1]
        with pytest.raises(DataError, match="group 2"):
            stitch_sequences(insts, seed=0, n_instances=2)

    def test_explicit_action_order(self):
        insts = tiny_instances()
        _, track = stitch_sequences(insts, seed=3, n_instances=4, action_names=["b", "a"])
        assert track.action_names == ["b", "a"]

    def test_deterministic(self):
        insts = tiny_instances()
        a = stitch_sequences(insts, seed=9, n_instances=5)
        b = stitch_sequences(insts, seed=9, n_instances=5)
        assert a[1].labels.tolist() == b[1].labels.tolist()
        for fa, fb in zip(a[0].frames, b[0].frames):
            np.testing.assert_array_equal(fa.pixels, fb.pixels)


class TestSynthGenerate:
    def test_noise_free_translation_is_exact_roll(self):
        spec = small_spec(noise=0.0)
        instances = synth_generate(spec, 1, seed=4)
        seq = next(s for s, name in instances if name == "right")
        base = seq.frames[0].pixels
        for t in (1, 3, 7):
            np.testing.assert_array_equal(
                seq.frames[t].pixels, np.roll(base, t, axis=1)
            )

    def test_same_seed_bit_identical(self):
        spec = small_spec(noise=2.0, jitter=0.3)
        a = synth_generate(spec, 2, seed=5)
        b = synth_generate(spec, 2, seed=5)
        assert [n for _, n in a] == [n for _, n in b]
        for (sa, _), (sb, _) in zip(a, b):
            assert len(sa) == len(sb)
            for fa, fb in zip(sa.frames, sb.frames):
                np.testing.assert_array_equal(fa.pixels, fb.pixels)

    def test_lengths_respect_range(self):
        spec = small_spec()
        for seq, _ in synth_generate(spec, 3, seed=6):
            assert 18 <= len(seq) <= 24

    def test_flow_recovers_recipe_velocity(self):
        spec = SynthSpec(
            actions=[
                ActionRecipe("right", "translate", velocity=(1.0, 0.0), texture_seed=1, group=1),
                ActionRecipe("up", "translate", velocity=(0.0, 1.0), texture_seed=2, group=2),
            ],
            frame_size=(64, 64),
            instance_length_range=(5, 8),
            noise_sigma=0.0,
        )
        seq = next(s for s, name in synth_generate(spec, 1, seed=7) if name == "right")
        flow = horn_schunck(seq.frames[0], seq.frames[1])
        inner = (slice(3, -3), slice(3, -3))
        epe = np.hypot(flow.u[inner] - 1.0, flow.v[inner]).mean()
        assert epe < 0.3

    def test_pixels_are_quantized_and_clipped(self):
        spec = small_spec(noise=30.0)
        for seq, _ in synth_generate(spec, 1, seed=8):
            for f in seq.frames:
                assert (f.pixels >= 0).all() and (f.pixels <= 255).all()
                np.testing.assert_array_equal(f.pixels, np.rint(f.pixels))

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="2 actions"):
            SynthSpec(actions=[ActionRecipe("only", "translate")])
        with pytest.raises(ValueError, match="distinct"):
            SynthSpec(actions=[ActionRecipe("x", "translate"), ActionRecipe("x", "dilate")])
        with pytest.raises(ValueError, match="pattern"):
            ActionRecipe("x", "teleport")
        with pytest.raises(ValueError, match="drift_speed"):
            ActionRecipe("x", "dilate", drift_speed=-0.1)

    def test_breathing_dilation_returns_to_rest(self):
        # scale follows a sinusoid, so frame `period` matches frame 0
        spec = SynthSpec(
            actions=[
                ActionRecipe("breathe", "dilate", scale_amplitude=0.1, period=8.0,
                             texture_seed=5, group=1),
                ActionRecipe("right", "translate", velocity=(1.0, 0.0), texture_seed=6, group=2),
            ],
            frame_size=(32, 32),
            instance_length_range=(10, 12),
            noise_sigma=0.0,
        )
        seq = next(s for s, n in synth_generate(spec, 1, seed=20) if n == "breathe")
        assert not np.array_equal(seq.frames[2].pixels, seq.frames[0].pixels)
        np.testing.assert_array_equal(seq.frames[8].pixels, seq.frames[0].pixels)

    def test_camera_jitter_moves_whole_pattern(self):
        base_spec = small_spec(noise=0.0)
        jit_spec = SynthSpec(
            actions=base_spec.actions,
            frame_size=base_spec.frame_size,
            instance_length_range=base_spec.instance_length_range,
            noise_sigma=0.0,
            camera_jitter=0.5,
        )
        plain = synth_generate(base_spec, 1, seed=21)
        shaky = synth_generate(jit_spec, 1, seed=21)
        assert any(
            not np.array_equal(a.frames[1].pixels, b.frames[1].pixels)
            for (a, _), (b, _) in zip(plain, shaky)
        )
        again = synth_generate(jit_spec, 1, seed=21)
        for (a, _), (b, _) in zip(shaky, again):
            for fa, fb in zip(a.frames, b.frames):
                np.testing.assert_array_equal(fa.pixels, fb.pixels)

    def test_drift_randomizes_direction_per_instance(self):
        rng = np.random.default_rng(22)
        recipe = ActionRecipe("d", "dilate", rate=0.0, drift_speed=1.0)
        drifts = [recipe.jittered(rng).drift for _ in range(8)]
        assert all(d != (0.0, 0.0) for d in drifts)
        assert len({(round(dx, 6), round(dy, 6)) for dx, dy in drifts}) == 8
        # zero-rate dilation with drift reduces to pure translation
        spec = SynthSpec(
            actions=[
                ActionRecipe("d", "dilate", rate=0.0, drift=(1.0, 0.0), texture_seed=7, group=1),
                ActionRecipe("r", "translate", velocity=(1.0, 0.0), texture_seed=8, group=2),
            ],
            frame_size=(32, 32),
            instance_length_range=(6, 8),
            noise_sigma=0.0,
        )
        pair = {n: s for s, n in synth_generate(spec, 1, seed=23)}
        drifted = pair["d"]
        np.testing.assert_allclose(
            drifted.frames[3].pixels, np.roll(drifted.frames[0].pixels, 3, axis=1), atol=1.0
        )


class TestRunExperiment:
    def test_single_action_is_always_right(self):
        spec = SynthSpec(
            actions=[
                ActionRecipe("right", "translate", velocity=(1.0, 0.0), texture_seed=1, group=1),
                ActionRecipe("up", "translate", velocity=(0.0, 1.0), texture_seed=2, group=2),
            ],
            frame_size=(32, 32),
            instance_length_range=(16, 20),
            noise_sigma=0.0,
        )
        insts = synth_generate(spec, 2, seed=9)
        train = [(s, n) for s, n in insts if n == "right"]
        test_seq = train[0][0]
        truth = LabelTrack(np.ones(len(test_seq), dtype=int), ["right"])
        cfg = PipelineConfig(n_components=1, window_frames=8, tau=30.0, hs_iters=40, seed=0)
        report = run_experiment(train, [(test_seq, truth)], cfg)
        assert report.frame_accuracy == 100.0

    def test_two_easy_actions_segment_well(self):
        spec = small_spec(noise=1.0, jitter=0.15)
        insts = synth_generate(spec, 3, seed=10)
        train = [(s, n) for s, n in insts]
        pool = [(s, n, 1 if n == "right" else 2) for s, n in synth_generate(spec, 2, seed=11)]
        tests = [
            stitch_sequences(pool, seed=12 + j, n_instances=3, action_names=spec.action_names)
            for j in range(2)
        ]
        cfg = PipelineConfig(
            n_components=2, window_frames=8, tau=30.0, hs_iters=60, seed=0
        )
        report = run_experiment(train, tests, cfg, spec.action_names)
        assert report.frame_accuracy >= 75.0

    def test_missing_action_training_data(self):
        spec = small_spec()
        insts = synth_generate(spec, 1, seed=13)
        train = [(s, n) for s, n in insts if n == "right"]
        seq = train[0][0]
        truth = LabelTrack(np.ones(len(seq), dtype=int), spec.action_names)
        cfg = PipelineConfig(n_components=1, window_frames=8, tau=30.0, hs_iters=20)
        with pytest.raises(DataError, match="no training data"):
            run_experiment(train, [(seq, truth)], cfg, spec.action_names)

    def test_scenario_models_trained_per_scenario(self):
        spec = small_spec(noise=1.0)
        insts = synth_generate(spec, 2, seed=14)
        cfg = PipelineConfig(
            n_components=1, window_frames=8, tau=30.0, hs_iters=20, per_scenario=True
        )
        train = []
        for i, (s, n) in enumerate(insts):
            train.append((extract_video_features(s, cfg.extraction_config()), n, f"s{i % 2}"))
        bank = train_model_bank(train, cfg, spec.action_names)
        assert len(bank.models) == 4
        assert {(m.action, m.scenario) for m in bank.models} == {
            ("right", "s0"), ("right", "s1"), ("updown", "s0"), ("updown", "s1"),
        }


class TestSummarize:
    def test_mean_and_sample_std(self):
        from actionseg.evaluation import EvalReport

        def rep(acc):
            return EvalReport(acc, np.zeros((1, 1), dtype=int), np.array([acc]), 10, ["a"])

        reports = [rep(90.0), rep(94.0), rep(92.0)]
        mean, std = summarize_folds(reports)
        assert mean == pytest.approx(92.0)
        assert std == pytest.approx(np.std([90, 94, 92], ddof=1))

    def test_single_fold_has_no_std(self):
        from actionseg.evaluation import EvalReport

        mean, std = summarize_folds(
            [EvalReport(88.0, np.zeros((1, 1), dtype=int), np.array([88.0]), 5, ["a"])]
        )
        assert mean == 88.0
        assert std is None


class TestDefaultSpec:
    def test_has_three_distinct_patterns_and_both_groups(self):
        spec = default_synth_spec()
        assert [r.pattern for r in spec.actions] == ["translate", "oscillate", "dilate"]
        assert {r.group for r in spec.actions} == {1, 2}
        assert len({r.name for r in spec.actions}) == 3
