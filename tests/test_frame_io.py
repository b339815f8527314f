import numpy as np
import pytest

from actionseg.errors import DataError
from actionseg.frame_io import (
    Frame,
    FrameSequence,
    LabelTrack,
    load_labels,
    load_sequence,
    save_labels,
    save_sequence,
)

from oracles import expand_label_rows, pgm_bytes, y4m_bytes


def _write_labels(path, rows):
    lines = ["start_frame,end_frame,action"]
    lines += [f"{s},{e},{a}" for s, e, a in rows]
    path.write_text("\n".join(lines) + "\n")


class TestPgmDir:
    def test_three_identical_frames(self, tmp_path):
        pix = np.arange(16, dtype=np.uint8).reshape(4, 4)
        for i in range(3):
            (tmp_path / f"f{i}.pgm").write_bytes(pgm_bytes(pix))
        seq = load_sequence(tmp_path)
        assert len(seq) == 3
        assert [f.index for f in seq.frames] == [0, 1, 2]
        assert seq.width == 4 and seq.height == 4
        for f in seq.frames:
            np.testing.assert_array_equal(f.pixels, pix.astype(float))

    def test_lexicographic_order(self, tmp_path):
        (tmp_path / "b.pgm").write_bytes(pgm_bytes(np.full((2, 2), 7, np.uint8)))
        (tmp_path / "a.pgm").write_bytes(pgm_bytes(np.full((2, 2), 3, np.uint8)))
        seq = load_sequence(tmp_path)
        assert seq.frames[0].pixels[0, 0] == 3.0
        assert seq.frames[1].pixels[0, 0] == 7.0

    def test_empty_dir(self, tmp_path):
        with pytest.raises(DataError, match="no frames found"):
            load_sequence(tmp_path)

    def test_missing_path(self, tmp_path):
        with pytest.raises(DataError, match="no such"):
            load_sequence(tmp_path / "nope")

    def test_header_comment(self, tmp_path):
        (tmp_path / "a.pgm").write_bytes(pgm_bytes(np.zeros((3, 5), np.uint8), comment="hi"))
        seq = load_sequence(tmp_path)
        assert (seq.width, seq.height) == (5, 3)

    def test_inconsistent_dimensions(self, tmp_path):
        (tmp_path / "a.pgm").write_bytes(pgm_bytes(np.zeros((2, 2), np.uint8)))
        (tmp_path / "b.pgm").write_bytes(pgm_bytes(np.zeros((3, 3), np.uint8)))
        with pytest.raises(DataError):
            load_sequence(tmp_path)

    def test_bad_magic(self, tmp_path):
        (tmp_path / "a.pgm").write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
        with pytest.raises(DataError, match="binary PGM"):
            load_sequence(tmp_path)

    def test_truncated_raster(self, tmp_path):
        (tmp_path / "a.pgm").write_bytes(pgm_bytes(np.zeros((4, 4), np.uint8))[:-3])
        with pytest.raises(DataError, match="truncated"):
            load_sequence(tmp_path)

    def test_wide_maxval_rejected(self, tmp_path):
        (tmp_path / "a.pgm").write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(DataError, match="maxval"):
            load_sequence(tmp_path)

    def test_roundtrip_pixel_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        frames = [
            Frame(i, rng.integers(0, 256, size=(6, 9)).astype(float)) for i in range(4)
        ]
        seq = FrameSequence(frames)
        save_sequence(seq, tmp_path / "out")
        back = load_sequence(tmp_path / "out")
        assert len(back) == 4
        for a, b in zip(seq.frames, back.frames):
            np.testing.assert_array_equal(a.pixels, b.pixels)


class TestY4m:
    def test_roundtrip_against_reference_encoder(self, tmp_path):
        rng = np.random.default_rng(1)
        frames = [rng.integers(0, 256, size=(120, 160), dtype=np.uint8) for _ in range(10)]
        path = tmp_path / "v.y4m"
        path.write_bytes(y4m_bytes(frames, fps=(25, 1), chroma="420jpeg"))
        seq = load_sequence(path)
        assert len(seq) == 10
        assert (seq.width, seq.height) == (160, 120)
        for f, ref in zip(seq.frames, frames):
            np.testing.assert_array_equal(f.pixels, ref.astype(float))

    @pytest.mark.parametrize("chroma", ["420jpeg", "422", "444", "mono"])
    def test_chroma_modes(self, tmp_path, chroma):
        frames = [np.full((4, 6), i * 10, np.uint8) for i in range(3)]
        path = tmp_path / "v.y4m"
        path.write_bytes(y4m_bytes(frames, chroma=chroma))
        seq = load_sequence(path)
        assert len(seq) == 3
        np.testing.assert_array_equal(seq.frames[2].pixels, np.full((4, 6), 20.0))

    def test_fractional_fps(self, tmp_path):
        # the frame rate is not read, so any F token loads
        frames = [np.full((4, 4), 9, np.uint8)]
        path = tmp_path / "v.y4m"
        path.write_bytes(y4m_bytes(frames, fps=(30000, 1001)))
        seq = load_sequence(path)
        assert len(seq) == 1
        np.testing.assert_array_equal(seq.frames[0].pixels, np.full((4, 4), 9.0))

    @pytest.mark.parametrize("token", [b"Wx", b"W4.0", b"H"])
    def test_non_numeric_dimensions(self, tmp_path, token):
        data = y4m_bytes([np.zeros((4, 4), np.uint8)])
        field = b"W4" if token.startswith(b"W") else b"H4"
        (tmp_path / "v.y4m").write_bytes(data.replace(field, token, 1))
        with pytest.raises(DataError, match="malformed Y4M header"):
            load_sequence(tmp_path / "v.y4m")

    def test_truncated_frame(self, tmp_path):
        frames = [np.zeros((8, 8), np.uint8)] * 2
        data = y4m_bytes(frames)
        (tmp_path / "v.y4m").write_bytes(data[:-10])
        with pytest.raises(DataError, match="truncated"):
            load_sequence(tmp_path / "v.y4m")

    def test_bad_header(self, tmp_path):
        (tmp_path / "v.y4m").write_bytes(b"NOTAY4M W4 H4\n")
        with pytest.raises(DataError):
            load_sequence(tmp_path / "v.y4m")


class TestLabels:
    def test_two_row_expansion(self, tmp_path):
        path = tmp_path / "l.csv"
        _write_labels(path, [(0, 9, "walk"), (10, 19, "box")])
        track = load_labels(path)
        assert track.action_names == ["walk", "box"]
        assert track.labels.tolist() == [1] * 10 + [2] * 10

    def test_overlap_rejected(self, tmp_path):
        path = tmp_path / "l.csv"
        _write_labels(path, [(0, 9, "walk"), (5, 19, "box")])
        with pytest.raises(DataError, match="overlapping"):
            load_labels(path)

    def test_gap_rejected(self, tmp_path):
        path = tmp_path / "l.csv"
        _write_labels(path, [(0, 9, "walk"), (12, 19, "box")])
        with pytest.raises(DataError, match="gap"):
            load_labels(path)

    def test_unknown_action_with_declared_names(self, tmp_path):
        path = tmp_path / "l.csv"
        _write_labels(path, [(0, 4, "jump")])
        with pytest.raises(DataError, match="unknown action"):
            load_labels(path, action_names=["walk", "box"])

    def test_three_rows_against_expansion_oracle(self, tmp_path):
        rows = [(0, 24, "walk"), (25, 49, "box"), (50, 74, "wave")]
        path = tmp_path / "l.csv"
        _write_labels(path, rows)
        track = load_labels(path)
        assert len(track) == 75
        expected = expand_label_rows(rows, track.action_names)
        assert track.labels.tolist() == expected

    def test_rows_sorted_before_expansion(self, tmp_path):
        path = tmp_path / "l.csv"
        _write_labels(path, [(10, 19, "box"), (0, 9, "walk")])
        track = load_labels(path)
        assert track.labels.tolist() == [1] * 10 + [2] * 10
        assert track.action_names == ["walk", "box"]

    def test_bad_header(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("start,end,action\n0,1,walk\n")
        with pytest.raises(DataError, match="header"):
            load_labels(path)

    def test_roundtrip(self, tmp_path):
        track = LabelTrack(np.array([1, 1, 2, 2, 2, 1, 3, 3]), ["a", "b", "c"])
        path = tmp_path / "l.csv"
        save_labels(track, path)
        back = load_labels(path, action_names=track.action_names)
        assert back.labels.tolist() == track.labels.tolist()
        assert back.action_names == track.action_names


class TestTypes:
    def test_frame_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 255\]"):
            Frame(0, np.full((2, 2), 300.0))

    def test_frame_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            Frame(0, np.array([[np.nan, 0.0], [0.0, 0.0]]))

    def test_sequence_rejects_bad_indices(self):
        frames = [Frame(0, np.zeros((2, 2))), Frame(5, np.zeros((2, 2)))]
        with pytest.raises(ValueError, match="index"):
            FrameSequence(frames)

    def test_sequence_rejects_mixed_sizes(self):
        frames = [Frame(0, np.zeros((2, 2))), Frame(1, np.zeros((3, 3)))]
        with pytest.raises(ValueError):
            FrameSequence(frames)

    def test_label_track_range_check(self):
        with pytest.raises(ValueError):
            LabelTrack(np.array([1, 4]), ["a", "b"])
