import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actionseg.features import FEATURE_DIM, FrameFeatures
from actionseg.gmm import GmmModel
from actionseg.segmenter import (
    ModelBank,
    Segmentation,
    frame_fusion,
    frame_labels,
    merge_short_segments,
    segment_video,
    window_scores,
)

from oracles import (
    brute_force_argmax,
    brute_force_fusion,
    brute_force_segment,
    brute_force_window_scores,
    plain_log_pdf,
    reference_merge,
)


def toy_model(rng, action, dim=FEATURE_DIM, n_components=1):
    w = rng.uniform(0.5, 1.0, n_components)
    return GmmModel(
        w / w.sum(),
        rng.normal(0, 3, (n_components, dim)),
        rng.uniform(0.2, 2.0, (n_components, dim)),
        action=action,
    )


def pooled_mean_ll(model, vectors):
    logs = [plain_log_pdf(model.weights, model.means, model.variances, x) for x in vectors]
    return np.mean(logs)


def toy_features(rng, t, dim=FEATURE_DIM, k_range=(1, 5), indices=None):
    out = []
    for i in range(t):
        k = int(rng.integers(*k_range)) if k_range[0] < k_range[1] else k_range[0]
        idx = i if indices is None else indices[i]
        out.append(FrameFeatures(idx, rng.normal(0, 3, (k, dim))))
    return out


class TestModelBank:
    def test_orders_actions(self):
        rng = np.random.default_rng(0)
        bank = ModelBank([toy_model(rng, "b"), toy_model(rng, "a")])
        assert bank.action_names == ["a", "b"]
        assert bank.n_actions == 2

    def test_missing_action_model(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError, match="no model for action"):
            ModelBank([toy_model(rng, "a")], action_names=["a", "b"])

    def test_mixed_dims_rejected(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError, match="dimension"):
            ModelBank([toy_model(rng, "a", dim=3), toy_model(rng, "b", dim=4)])


class TestWindowScores:
    def test_window_count_and_starts(self):
        rng = np.random.default_rng(4)
        bank = ModelBank([toy_model(rng, "a")])
        feats = toy_features(rng, 5)
        scores = window_scores(feats, bank, 2)
        assert list(scores) == [0, 1, 2, 3]

    def test_single_action_equals_pooled_average(self):
        rng = np.random.default_rng(5)
        model = toy_model(rng, "a")
        bank = ModelBank([model])
        feats = toy_features(rng, 4)
        scores = window_scores(feats, bank, 3)
        for start, vec in scores.items():
            pooled = np.vstack([feats[i].vectors for i in range(start, start + 3)])
            assert vec.shape == (1,)
            assert vec[0] == pytest.approx(pooled_mean_ll(model, pooled), abs=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(6)
        models = [toy_model(rng, "a"), toy_model(rng, "b")]
        bank = ModelBank(models)
        feats = toy_features(rng, 6)
        scores = window_scores(feats, bank, 3)
        oracle = brute_force_window_scores(
            [list(f.vectors) for f in feats],
            [[(m.weights, m.means, m.variances)] for m in models],
            3,
        )
        assert list(scores) == sorted(oracle)
        for start, vec in scores.items():
            np.testing.assert_allclose(vec, oracle[start], atol=1e-12)

    def test_scenario_models_take_max(self):
        rng = np.random.default_rng(7)
        m1, m2 = toy_model(rng, "a"), toy_model(rng, "a")
        bank = ModelBank([m1, m2])
        feats = toy_features(rng, 2)
        scores = window_scores(feats, bank, 2)
        assert list(scores) == [0]
        pooled = np.vstack([f.vectors for f in feats])
        expected = max(pooled_mean_ll(m1, pooled), pooled_mean_ll(m2, pooled))
        assert scores[0][0] == pytest.approx(expected, abs=1e-12)

    def test_empty_windows_dropped(self):
        rng = np.random.default_rng(8)
        bank = ModelBank([toy_model(rng, "a")])
        feats = [
            FrameFeatures(0, np.empty((0, FEATURE_DIM))),
            FrameFeatures(1, np.empty((0, FEATURE_DIM))),
            FrameFeatures(2, rng.normal(size=(2, FEATURE_DIM))),
        ]
        scores = window_scores(feats, bank, 2)
        assert list(scores) == [1]

    def test_too_few_frames(self):
        rng = np.random.default_rng(9)
        bank = ModelBank([toy_model(rng, "a")])
        with pytest.raises(ValueError, match="retained frames"):
            window_scores(toy_features(rng, 2), bank, 3)

    def test_window_count_invariant(self):
        rng = np.random.default_rng(10)
        bank = ModelBank([toy_model(rng, "a")])
        for t, w in [(5, 1), (5, 5), (9, 4)]:
            feats = toy_features(rng, t)
            assert len(window_scores(feats, bank, w)) == t - w + 1


class TestFrameFusion:
    def test_window_len_one_is_identity(self):
        rng = np.random.default_rng(11)
        scores = {i: rng.normal(size=3) for i in range(5)}
        fused = frame_fusion(scores, 5, 1)
        for i, vec in scores.items():
            np.testing.assert_array_equal(fused[i], vec)

    def test_coverage_counts_constant_scores(self):
        c = np.array([-1.0, -2.0])
        scores = {i: c for i in range(4)}
        fused = frame_fusion(scores, 5, 2)
        np.testing.assert_array_equal(fused[0], c)
        np.testing.assert_array_equal(fused[4], c)
        for i in (1, 2, 3):
            np.testing.assert_array_equal(fused[i], 2 * c)

    def test_matches_double_loop_oracle_exactly(self):
        rng = np.random.default_rng(12)
        scores = {i: rng.normal(size=3) for i in range(9)}
        fused = frame_fusion(scores, 12, 4)
        oracle, covered = brute_force_fusion(
            {s: vec.tolist() for s, vec in scores.items()}, 12, 4, 3
        )
        assert all(covered)
        np.testing.assert_array_equal(fused, np.array(oracle))

    def test_uncovered_frames_are_nan(self):
        scores = {2: np.array([1.0])}
        fused = frame_fusion(scores, 6, 2)
        assert np.isnan(fused[0, 0]) and np.isnan(fused[1, 0])
        assert not np.isnan(fused[2, 0]) and not np.isnan(fused[3, 0])
        assert np.isnan(fused[4, 0]) and np.isnan(fused[5, 0])

    def test_coverage_sum_invariant(self):
        rng = np.random.default_rng(13)
        t, w = 11, 4
        scores = {i: rng.normal(size=2) for i in range(t - w + 1)}
        fused = frame_fusion(scores, t, w)
        ones = {s: np.ones(2) for s in scores}
        counts = frame_fusion(ones, t, w)[:, 0]
        assert counts.sum() == len(scores) * w

    def test_inconsistent_starts_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            frame_fusion({9: np.ones(2)}, 6, 3)
        with pytest.raises(ValueError, match="out of range"):
            frame_fusion({-1: np.ones(2)}, 6, 3)
        with pytest.raises(ValueError, match="share length"):
            frame_fusion({0: np.ones(2), 1: np.ones(3)}, 6, 3)


class TestFrameLabels:
    def test_larger_loglik_wins(self):
        assert frame_labels(np.array([[-5.0, -3.0]])).tolist() == [2]

    def test_tie_takes_lowest_ordinal(self):
        assert frame_labels(np.array([[-3.0, -3.0]])).tolist() == [1]

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            frame_labels(np.array([[-1.0, -9.0], [np.nan, -9.0]]))

    def test_matches_argmax_oracle(self):
        rng = np.random.default_rng(14)
        fused = rng.normal(size=(40, 4))
        got = frame_labels(fused)
        expected = [brute_force_argmax(row.tolist()) for row in fused]
        assert got.tolist() == expected

    def test_constant_shift_invariance(self):
        rng = np.random.default_rng(15)
        fused = rng.normal(size=(30, 3))
        shifted = fused + 123.456
        assert frame_labels(fused).tolist() == frame_labels(shifted).tolist()


class TestMergeShortSegments:
    def test_interior_blip_absorbed(self):
        seg = merge_short_segments([1, 1, 1, 2, 1, 1, 1], 3)
        assert seg.frame_labels.tolist() == [1] * 7
        assert seg.segments == [(0, 6, 1)]

    def test_all_same_unchanged(self):
        seg = merge_short_segments([2] * 5, 3)
        assert seg.frame_labels.tolist() == [2] * 5
        assert seg.segments == [(0, 4, 2)]

    def test_leading_short_run_merges_forward(self):
        seg = merge_short_segments([2, 1, 1, 1], 2)
        assert seg.frame_labels.tolist() == [1, 1, 1, 1]

    def test_whole_video_shorter_than_min(self):
        seg = merge_short_segments([1, 2], 5)
        assert len(seg.segments) == 1

    def test_matches_reference_restart_semantics(self):
        rng = np.random.default_rng(16)
        for _ in range(500):
            n = int(rng.integers(1, 40))
            labels = rng.integers(1, 4, size=n).tolist()
            min_len = int(rng.integers(1, 8))
            got = merge_short_segments(labels, min_len).frame_labels.tolist()
            assert got == reference_merge(labels, min_len), (labels, min_len)

    @given(
        st.lists(st.integers(1, 4), min_size=1, max_size=60),
        st.integers(1, 10),
    )
    @settings(max_examples=200, deadline=None)
    def test_idempotent_and_no_short_runs(self, labels, min_len):
        seg = merge_short_segments(labels, min_len)
        again = merge_short_segments(seg.frame_labels, min_len)
        assert again.frame_labels.tolist() == seg.frame_labels.tolist()
        runs = seg.segments
        if len(runs) > 1:
            assert all(e - s + 1 >= min_len for s, e, _ in runs)
        # the runs are the run-length encoding of the labels
        rebuilt = np.repeat([lab for _, _, lab in runs], [e - s + 1 for s, e, _ in runs])
        assert rebuilt.tolist() == seg.frame_labels.tolist()


class TestSegmentVideo:
    def test_single_action_video_single_segment(self):
        rng = np.random.default_rng(17)
        good = GmmModel([1.0], [np.zeros(FEATURE_DIM)], [np.full(FEATURE_DIM, 1.0)], action="a")
        bad = GmmModel([1.0], [np.full(FEATURE_DIM, 30.0)], [np.full(FEATURE_DIM, 1.0)], action="b")
        bank = ModelBank([good, bad])
        feats = toy_features(rng, 10)  # vectors ~ N(0, 3) match "a"
        seg = segment_video(feats, bank, 3)
        assert seg.segments == [(0, 9, 1)]

    def test_tiny_end_to_end_matches_brute_force(self):
        rng = np.random.default_rng(18)
        models = [toy_model(rng, "a"), toy_model(rng, "b")]
        bank = ModelBank(models)
        feats = toy_features(rng, 12)
        seg = segment_video(feats, bank, 3)
        oracle = brute_force_segment(
            [list(f.vectors) for f in feats],
            [[(m.weights, m.means, m.variances)] for m in models],
            3,
        )
        assert seg.frame_labels.tolist() == oracle

    def test_empty_feature_frames_inherit_neighbours(self):
        rng = np.random.default_rng(19)
        a = GmmModel([1.0], [np.zeros(FEATURE_DIM)], [np.ones(FEATURE_DIM)], action="a")
        b = GmmModel([1.0], [np.full(FEATURE_DIM, 50.0)], [np.ones(FEATURE_DIM)], action="b")
        bank = ModelBank([a, b])
        feats = [FrameFeatures(i, np.empty((0, FEATURE_DIM))) for i in range(3)]
        feats += [FrameFeatures(3 + i, rng.normal(size=(3, FEATURE_DIM))) for i in range(5)]
        seg = segment_video(feats, bank, 2)
        assert seg.frame_labels.tolist() == [1] * 8

    def test_all_empty_features_fall_back_to_first_action(self):
        a = GmmModel([1.0], [np.zeros(FEATURE_DIM)], [np.ones(FEATURE_DIM)], action="a")
        bank = ModelBank([a])
        feats = [FrameFeatures(i, np.empty((0, FEATURE_DIM))) for i in range(4)]
        with pytest.warns(UserWarning, match="no window produced a score"):
            seg = segment_video(feats, bank, 2)
        assert seg.frame_labels.tolist() == [1] * 4

    def test_subsampled_frames_inherit_nearest_retained(self):
        rng = np.random.default_rng(20)
        a = toy_model(rng, "a")
        bank = ModelBank([a])
        # retained frames at original indices 2, 4, 6, 8
        feats = toy_features(rng, 4, indices=[2, 4, 6, 8])
        seg = segment_video(feats, bank, 2, n_frames=10)
        assert len(seg.frame_labels) == 10
        assert seg.segments == [(0, 9, 1)]

    def test_nearest_tie_goes_to_earlier_frame(self):
        # two actions, construct features so retained frame 2 labels "a"
        # and retained frame 6 labels "b"; original frame 4 is equidistant
        a = GmmModel([1.0], [np.full(FEATURE_DIM, 0.0)], [np.ones(FEATURE_DIM)], action="a")
        b = GmmModel([1.0], [np.full(FEATURE_DIM, 10.0)], [np.ones(FEATURE_DIM)], action="b")
        bank = ModelBank([a, b])
        feats = [
            FrameFeatures(2, np.zeros((4, FEATURE_DIM))),
            FrameFeatures(6, np.full((4, FEATURE_DIM), 10.0)),
        ]
        seg = segment_video(feats, bank, 1, n_frames=9)
        assert seg.frame_labels.tolist() == [1, 1, 1, 1, 1, 2, 2, 2, 2]

    def test_determinism(self):
        rng = np.random.default_rng(21)
        models = [toy_model(rng, "a"), toy_model(rng, "b")]
        bank = ModelBank(models)
        feats = toy_features(rng, 8)
        a = segment_video(feats, bank, 3)
        b = segment_video(feats, bank, 3)
        assert a.frame_labels.tolist() == b.frame_labels.tolist()

    def test_n_frames_too_small_rejected(self):
        rng = np.random.default_rng(22)
        bank = ModelBank([toy_model(rng, "a")])
        feats = toy_features(rng, 4, indices=[2, 4, 6, 8])
        with pytest.raises(ValueError, match="n_frames"):
            segment_video(feats, bank, 2, n_frames=7)


class TestSegmentationType:
    def test_segments_roundtrip(self):
        labels = [1, 1, 2, 2, 2, 1]
        seg = Segmentation(labels)
        assert seg.segments == [(0, 1, 1), (2, 4, 2), (5, 5, 1)]

    def test_labels_must_be_positive(self):
        with pytest.raises(ValueError, match="1-based"):
            Segmentation([0, 1])

    @given(st.lists(st.integers(1, 3), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_rle_property(self, labels):
        seg = Segmentation(labels)
        rebuilt = []
        for s, e, lab in seg.segments:
            rebuilt.extend([lab] * (e - s + 1))
        assert rebuilt == labels
