import itertools
import multiprocessing
import os
import struct
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actionseg import features
from actionseg.errors import DataError
from actionseg.features import (
    FEATURE_DIM,
    ExtractionConfig,
    FrameFeatures,
    extract_frame_features,
    extract_video_features,
    load_features,
    save_features,
    spatial_gradients,
)
from actionseg.frame_io import Frame, FrameSequence
from actionseg.motion import FlowField, flow_divergence, flow_time_derivative, flow_vorticity, horn_schunck

from oracles import naive_gradient, naive_second_difference


def zero_motion_fields(shape):
    z = np.zeros(shape)
    return FlowField(z, z), (z, z), z, z


class TestSpatialGradients:
    def test_constant_frame_all_zero(self):
        g = spatial_gradients(np.full((5, 6), 77.0))
        for f in (g.jx, g.jy, g.jxx, g.jyy, g.magnitude, g.orientation):
            np.testing.assert_array_equal(f, 0.0)

    def test_horizontal_ramp(self):
        x = np.tile(np.arange(8.0), (6, 1))
        g = spatial_gradients(2.0 * x)
        inner = (slice(1, -1), slice(1, -1))
        np.testing.assert_allclose(g.jx[inner], 2.0, atol=1e-12)
        np.testing.assert_array_equal(g.jy, 0.0)
        np.testing.assert_allclose(g.jxx[inner], 0.0, atol=1e-12)
        np.testing.assert_allclose(g.magnitude[inner], 2.0, atol=1e-12)
        np.testing.assert_allclose(g.orientation[inner], 0.0, atol=1e-12)

    def test_quadratic_second_difference(self):
        x = np.tile(np.arange(9.0), (5, 1))
        g = spatial_gradients(x * x)
        np.testing.assert_allclose(g.jxx[:, 1:-1], 2.0, atol=1e-12)
        np.testing.assert_array_equal(g.jyy, 0.0)

    def test_vertical_edge_orientation_is_pi_over_2(self):
        y = np.tile(np.arange(8.0)[:, None], (1, 6))
        g = spatial_gradients(3.0 * y)
        inner = (slice(1, -1), slice(1, -1))
        np.testing.assert_allclose(g.orientation[inner], np.pi / 2, atol=1e-12)

    def test_matches_loop_oracles_on_random_frame(self):
        rng = np.random.default_rng(2)
        img = rng.uniform(0, 255, (7, 9))
        g = spatial_gradients(img)
        np.testing.assert_allclose(g.jx, naive_gradient(img, axis=1), atol=1e-12)
        np.testing.assert_allclose(g.jy, naive_gradient(img, axis=0), atol=1e-12)
        np.testing.assert_allclose(g.jxx, naive_second_difference(img, axis=1), atol=1e-12)
        np.testing.assert_allclose(g.jyy, naive_second_difference(img, axis=0), atol=1e-12)

    def test_magnitude_orientation_invariants(self):
        rng = np.random.default_rng(4)
        img = rng.uniform(0, 255, (10, 10))
        g = spatial_gradients(img)
        np.testing.assert_allclose(
            g.magnitude**2, g.jx**2 + g.jy**2, atol=1e-9
        )
        assert (g.orientation >= 0).all() and (g.orientation <= np.pi / 2).all()
        assert (g.magnitude >= 0).all()

    def test_too_small(self):
        with pytest.raises(ValueError, match="too small"):
            spatial_gradients(np.zeros((2, 4)))


class TestExtractFrame:
    def test_constant_frame_tau40_empty(self):
        img = np.full((6, 6), 9.0)
        g = spatial_gradients(img)
        flow, dt, div, vort = zero_motion_fields(img.shape)
        ff = extract_frame_features(Frame(0, img), g, flow, dt, div, vort, tau=40.0)
        assert len(ff) == 0

    def test_negative_tau_selects_everything(self):
        img = np.full((6, 7), 9.0)
        g = spatial_gradients(img)
        flow, dt, div, vort = zero_motion_fields(img.shape)
        ff = extract_frame_features(Frame(3, img), g, flow, dt, div, vort, tau=-1.0)
        assert len(ff) == 6 * 7
        assert ff.frame_index == 3

    def test_step_edge_selection_and_vector_contents(self):
        # vertical step of contrast 100 at column 4
        img = np.zeros((8, 9))
        img[:, 4:] = 100.0
        g = spatial_gradients(img)
        rng = np.random.default_rng(0)
        flow = FlowField(rng.normal(size=img.shape), rng.normal(size=img.shape))
        dt = (rng.normal(size=img.shape), rng.normal(size=img.shape))
        div = flow_divergence(flow)
        vort = flow_vorticity(flow)
        ff = extract_frame_features(Frame(7, img), g, flow, dt, div, vort, tau=40.0)

        # independent selection scan
        expected = [
            (x, y)
            for y in range(8)
            for x in range(9)
            if np.hypot(
                naive_gradient(img, axis=1)[y, x], naive_gradient(img, axis=0)[y, x]
            ) > 40.0
        ]
        got = [(int(v[0]), int(v[1])) for v in ff.vectors]
        assert got == expected

        # spot-check one full vector against hand-computed stencils
        x, y = got[0]
        v = ff.vectors[0]
        jx = (img[y, x + 1] - img[y, x - 1]) / 2
        jxx = img[y, x + 1] - 2 * img[y, x] + img[y, x - 1]
        assert v[2] == abs(jx)
        assert v[3] == 0.0
        assert v[4] == 0.0
        assert v[5] == abs(jxx)
        assert v[6] == pytest.approx(abs(jx))
        assert v[7] == 0.0
        assert v[8] == flow.u[y, x]
        assert v[9] == flow.v[y, x]
        assert v[10] == dt[0][y, x]
        assert v[11] == dt[1][y, x]
        assert v[12] == div[y, x]
        assert v[13] == vort[y, x]

    def test_raster_order_and_unique_coords(self):
        rng = np.random.default_rng(8)
        img = rng.uniform(0, 255, (12, 11))
        g = spatial_gradients(img)
        flow, dt, div, vort = zero_motion_fields(img.shape)
        ff = extract_frame_features(Frame(0, img), g, flow, dt, div, vort, tau=30.0)
        coords = [(v[1], v[0]) for v in ff.vectors]  # (y, x)
        assert coords == sorted(coords)
        assert len(set(coords)) == len(coords)

    def test_selection_monotone_in_tau(self):
        rng = np.random.default_rng(9)
        img = rng.uniform(0, 255, (10, 10))
        g = spatial_gradients(img)
        flow, dt, div, vort = zero_motion_fields(img.shape)
        def selected(tau):
            ff = extract_frame_features(Frame(0, img), g, flow, dt, div, vort, tau)
            return {(v[0], v[1]) for v in ff.vectors}
        for t1, t2 in [(0, 20), (20, 60), (60, 200)]:
            assert selected(t2) <= selected(t1)

    def test_dimension_mismatch(self):
        img = np.zeros((6, 6))
        g = spatial_gradients(img)
        flow = FlowField(np.zeros((5, 6)), np.zeros((5, 6)))
        z = np.zeros((5, 6))
        with pytest.raises(ValueError, match="does not match"):
            extract_frame_features(Frame(0, img), g, flow, (z, z), z, z, 40.0)

    @given(st.integers(0, 2**31 - 1), st.floats(0.0, 100.0))
    @settings(max_examples=25, deadline=None)
    def test_emitted_vectors_satisfy_invariants(self, seed, tau):
        rng = np.random.default_rng(seed)
        img = rng.uniform(0, 255, (7, 8))
        g = spatial_gradients(img)
        flow = FlowField(rng.normal(size=(7, 8)), rng.normal(size=(7, 8)))
        dt = (rng.normal(size=(7, 8)), rng.normal(size=(7, 8)))
        ff = extract_frame_features(
            Frame(0, img), g, flow, dt, flow_divergence(flow), flow_vorticity(flow), tau
        )
        assert ff.vectors.shape[1] == FEATURE_DIM
        if len(ff):
            assert (ff.vectors[:, 0] >= 0).all() and (ff.vectors[:, 0] < 8).all()
            assert (ff.vectors[:, 1] >= 0).all() and (ff.vectors[:, 1] < 7).all()
            assert (ff.vectors[:, 2:8] >= 0).all()
            assert np.isfinite(ff.vectors).all()
            assert (ff.vectors[:, 6] > tau).all()


def moving_square_sequence(n=10, size=12):
    frames = []
    for t in range(n):
        img = np.zeros((size, size))
        x0 = (1 + t) % (size - 4)
        img[3:8, x0 : x0 + 4] = 200.0
        frames.append(Frame(t, img))
    return FrameSequence(frames)


class TestExtractVideo:
    def test_static_sequence_empty_features(self):
        seq = FrameSequence([Frame(i, np.full((8, 8), 100.0)) for i in range(10)])
        out = extract_video_features(seq, ExtractionConfig(tau=40.0))
        assert all(len(ff) == 0 for ff in out)

    def test_retained_indices_stride2(self):
        seq = moving_square_sequence(10)
        out = extract_video_features(seq, ExtractionConfig(frame_stride=2, hs_iters=5))
        assert [ff.frame_index for ff in out] == [2, 4, 6, 8]

    def test_retained_indices_stride3(self):
        seq = moving_square_sequence(12)
        out = extract_video_features(seq, ExtractionConfig(frame_stride=3, hs_iters=5))
        assert [ff.frame_index for ff in out] == [2, 5, 8, 11]

    def test_sequence_too_short(self):
        seq = FrameSequence([Frame(0, np.zeros((4, 4))), Frame(1, np.zeros((4, 4)))])
        with pytest.raises(ValueError, match="too short"):
            extract_video_features(seq, ExtractionConfig())

    def test_matches_straightline_pipeline_oracle(self, monkeypatch):
        # independent orchestration: compute all flows, then per retained
        # frame assemble fields and compare vectors by bytes, for every
        # stride, odd and even lengths, and serial and pooled flow
        for stride, n, workers in itertools.product([1, 2, 3, 4], [3, 4, 9, 12, 13], [1, 2]):
            case = f"stride {stride}, {n} frames, {workers} worker(s)"
            monkeypatch.setattr(features, "_usable_cpus", lambda: workers)
            seq = moving_square_sequence(n, size=10)
            cfg = ExtractionConfig(tau=25.0, frame_stride=stride, hs_alpha=10.0, hs_iters=40)
            out = extract_video_features(seq, cfg)

            flows = [
                horn_schunck(seq.frames[t - 1], seq.frames[t], cfg.hs_alpha, cfg.hs_iters)
                for t in range(1, len(seq))
            ]
            expected_indices = list(range(2, n, stride))
            assert [ff.frame_index for ff in out] == expected_indices, case
            for ff, t in zip(out, expected_indices):
                grads = spatial_gradients(seq.frames[t])
                flow = flows[t - 1]
                dt = flow_time_derivative(flows[t - 2], flow)
                ref = extract_frame_features(
                    seq.frames[t], grads, flow, dt,
                    flow_divergence(flow), flow_vorticity(flow), cfg.tau,
                )
                assert ff.vectors.shape == ref.vectors.shape, case
                assert ff.vectors.tobytes() == ref.vectors.tobytes(), case

    # flows computed, by hand: stride 1 needs every pair; stride 2 on an even
    # length skips the last pair; strides 3 and 4 skip the pairs between the
    # retained frames' (t-2 -> t-1, t-1 -> t)
    @pytest.mark.parametrize(
        "stride, n, calls",
        [(1, 9, 8), (1, 10, 9), (2, 9, 8), (2, 10, 8),
         (3, 9, 6), (3, 10, 6), (4, 9, 4), (4, 10, 4), (4, 11, 6)],
    )
    def test_computes_only_the_flows_retained_frames_read(self, monkeypatch, stride, n, calls):
        monkeypatch.setattr(features, "_usable_cpus", lambda: 1)
        computed = []

        def recording(prev, nxt, alpha, iters):
            computed.append((prev.index, nxt.index))
            return horn_schunck(prev, nxt, alpha, iters)

        monkeypatch.setattr(features, "horn_schunck", recording)
        seq = moving_square_sequence(n, size=10)
        out = extract_video_features(seq, ExtractionConfig(frame_stride=stride, hs_iters=5))
        assert len(computed) == calls
        assert computed == sorted(set(computed))
        assert all(b == a + 1 for a, b in computed)
        for ff in out:
            t = ff.frame_index
            assert (t - 2, t - 1) in computed and (t - 1, t) in computed


class TestFlowPool:
    """Frame pairs run in forked workers when more than one CPU is usable."""

    @pytest.fixture(autouse=True)
    def two_workers(self, monkeypatch):
        monkeypatch.setattr(features, "_usable_cpus", lambda: 2)

    def test_no_worker_outlives_a_call(self):
        out = extract_video_features(moving_square_sequence(9), ExtractionConfig(hs_iters=5))
        assert [ff.frame_index for ff in out] == [2, 4, 6, 8]
        assert multiprocessing.active_children() == []

    def test_worker_error_reaches_caller(self, monkeypatch):
        def failing(prev, nxt, alpha, iters):
            if nxt.index == 5:
                raise ValueError(f"no flow for pair {prev.index}->{nxt.index}")
            return horn_schunck(prev, nxt, alpha, iters)

        monkeypatch.setattr(features, "horn_schunck", failing)
        with pytest.raises(ValueError, match=r"^no flow for pair 4->5$"):
            extract_video_features(moving_square_sequence(9), ExtractionConfig(hs_iters=5))
        assert multiprocessing.active_children() == []

    def test_broken_pool_is_not_retried_serially(self, monkeypatch):
        parent = os.getpid()
        in_parent = []

        def dying(prev, nxt, alpha, iters):
            if os.getpid() == parent:
                in_parent.append(nxt.index)
                return horn_schunck(prev, nxt, alpha, iters)
            os._exit(1)

        monkeypatch.setattr(features, "horn_schunck", dying)
        with pytest.raises(BrokenProcessPool):
            extract_video_features(moving_square_sequence(9), ExtractionConfig(hs_iters=5))
        assert in_parent == []
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("failing_step", ["flow", "assembly"])
    def test_pending_pairs_cancelled_after_error(self, monkeypatch, tmp_path, failing_step):
        ran = tmp_path / "ran"
        ran.touch()

        def slow_flow(prev, nxt, alpha, iters):
            if failing_step == "flow" and nxt.index == 1:
                raise ValueError("first step failed")
            time.sleep(0.05)
            with open(ran, "a") as fh:
                fh.write(f"{nxt.index}\n")
            return FlowField(np.zeros(prev.pixels.shape), np.zeros(prev.pixels.shape))

        def failing_assembly(*args):
            raise ValueError("first step failed")

        monkeypatch.setattr(features, "horn_schunck", slow_flow)
        if failing_step == "assembly":
            monkeypatch.setattr(features, "extract_frame_features", failing_assembly)
        n = 40  # 39 pairs at stride 1, each of which would write a line if run
        with pytest.raises(ValueError, match="first step failed"):
            extract_video_features(moving_square_sequence(n), ExtractionConfig(frame_stride=1))
        # the workers are joined before the error is raised, so no more lines come
        assert len(ran.read_text().split()) < (n - 1) // 2
        assert multiprocessing.active_children() == []


class TestUsableCpus:
    def test_one_without_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert features._usable_cpus() == 1

    def test_daemonic_worker_extracts_in_its_own_process(self):
        # a multiprocessing.Pool worker is daemonic and may not fork a pool
        seq, cfg = moving_square_sequence(9), ExtractionConfig(hs_iters=5)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.apply(features._usable_cpus) == 1
            out = pool.apply(extract_video_features, (seq, cfg))
        ref = extract_video_features(seq, cfg)
        assert [ff.vectors.tobytes() for ff in out] == [ff.vectors.tobytes() for ff in ref]


def feature_file(table, n_rows, n_frames=10):
    """Bytes of a feature file with the given (frame_index, k) table
    followed by ``n_rows`` zero vectors."""
    table = np.asarray(table, dtype="<i8").reshape(-1, 2)
    header = struct.pack("<4sIqqq", b"ASFV", 2, n_frames, len(table), FEATURE_DIM)
    return header + table.tobytes() + bytes(8 * FEATURE_DIM * n_rows)


class TestFeatureDump:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        feats = [
            FrameFeatures(2, rng.normal(size=(5, FEATURE_DIM))),
            FrameFeatures(4, np.empty((0, FEATURE_DIM))),
            FrameFeatures(6, rng.normal(size=(3, FEATURE_DIM))),
        ]
        path = tmp_path / "v.feat"
        save_features(feats, 9, path)
        back, n_frames = load_features(path)
        assert n_frames == 9
        assert [ff.frame_index for ff in back] == [2, 4, 6]
        assert [len(ff) for ff in back] == [5, 0, 3]
        for a, b in zip(feats, back):
            np.testing.assert_array_equal(a.vectors, b.vectors)
            assert not b.vectors.flags.writeable

    def test_no_retained_frames_roundtrip(self, tmp_path):
        path = tmp_path / "v.feat"
        save_features([], 2, path)
        assert load_features(path) == ([], 2)

    def test_truncated(self, tmp_path):
        feats = [FrameFeatures(2, np.ones((4, FEATURE_DIM)))]
        path = tmp_path / "v.feat"
        save_features(feats, 3, path)
        (tmp_path / "bad.feat").write_bytes(path.read_bytes()[:-9])
        with pytest.raises(DataError, match="truncated"):
            load_features(tmp_path / "bad.feat")

    @pytest.mark.parametrize(
        "data, match",
        [
            # a v1 file: (n, dim) header, then (frame_index, k) and vectors per frame
            (struct.pack("<4sIqqqq", b"ASFV", 1, 1, FEATURE_DIM, 2, 1) + bytes(8 * FEATURE_DIM),
             "version 1"),
            (feature_file([(2, 1)], 1) + b"\0", "trailing"),
            (feature_file([(2, 1), (4, -1)], 0), "negative vector count"),
            (feature_file([(2, 1)], 1)[:40], "truncated"),
            (feature_file([(4, 0), (4, 0)], 0), "frame indices"),
            (feature_file([(4, 0), (2, 0)], 0), "frame indices"),
            (feature_file([(2, 0), (10, 0)], 0), "frame indices"),
            (feature_file([(-1, 0)], 0), "frame indices"),
            (feature_file([], 0, n_frames=-1), "negative frame count"),
        ],
        ids=["v1", "trailing_bytes", "negative_k", "cut_table", "repeated_index",
             "decreasing_index", "index_past_end", "negative_index", "negative_n_frames"],
    )
    def test_malformed_file_is_data_error(self, tmp_path, data, match):
        path = tmp_path / "bad.feat"
        path.write_bytes(data)
        with pytest.raises(DataError, match=match):
            load_features(path)

    def test_wrong_magic(self, tmp_path):
        (tmp_path / "bad.feat").write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(DataError):
            load_features(tmp_path / "bad.feat")
