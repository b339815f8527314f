"""Grayscale frame sequences and per-frame label tracks, plus their disk formats.

Supported inputs are directories of binary PGM (P5) files, Y4M streams (luma
plane only), and label CSVs with inclusive ``start_frame,end_frame,action``
rows. Pixels are kept as reals in [0, 255] so gradient thresholds apply at
the native 8-bit scale.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError


@dataclass
class Frame:
    """A single grayscale frame. ``pixels`` is (height, width), row-major."""

    index: int
    pixels: np.ndarray

    def __post_init__(self) -> None:
        self.pixels = np.asarray(self.pixels, dtype=np.float64)
        if self.pixels.ndim != 2 or self.pixels.size == 0:
            raise ValueError("frame pixels must be a non-empty 2-D array")
        if self.index < 0:
            raise ValueError("frame index must be >= 0")
        if not np.all(np.isfinite(self.pixels)):
            raise ValueError("frame pixels must be finite")
        lo, hi = float(self.pixels.min()), float(self.pixels.max())
        if lo < 0.0 or hi > 255.0:
            raise ValueError(f"frame pixels must lie in [0, 255], got [{lo}, {hi}]")

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


@dataclass
class FrameSequence:
    """An ordered run of equally sized frames with consecutive indices from 0."""

    frames: list[Frame]

    def __post_init__(self) -> None:
        if not self.frames:
            raise ValueError("frame sequence must contain at least one frame")
        w, h = self.frames[0].width, self.frames[0].height
        for i, f in enumerate(self.frames):
            if (f.width, f.height) != (w, h):
                raise ValueError(
                    f"frame {i} is {f.width}x{f.height}, expected {w}x{h}"
                )
            if f.index != i:
                raise ValueError(f"frame {i} carries index {f.index}")

    def __len__(self) -> int:
        return len(self.frames)

    @property
    def width(self) -> int:
        return self.frames[0].width

    @property
    def height(self) -> int:
        return self.frames[0].height


@dataclass
class LabelTrack:
    """Per-frame action ordinals (1-based) over a declared action vocabulary."""

    labels: np.ndarray
    action_names: list[str]

    def __post_init__(self) -> None:
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.ndim != 1 or self.labels.size == 0:
            raise ValueError("labels must be a non-empty 1-D array")
        self.action_names = list(self.action_names)
        if not self.action_names:
            raise ValueError("action_names must be non-empty")
        if len(set(self.action_names)) != len(self.action_names):
            raise ValueError("action names must be distinct")
        a = len(self.action_names)
        if self.labels.min() < 1 or self.labels.max() > a:
            raise ValueError(f"labels must lie in [1, {a}]")

    def __len__(self) -> int:
        return int(self.labels.size)


# ---------------------------------------------------------------------------
# PGM (binary P5)

_PGM_TOKEN = re.compile(rb"^\s*(?:#[^\n]*\n\s*)*(\S+)")


def _read_pgm_tokens(data: bytes, count: int) -> tuple[list[bytes], int]:
    """Read whitespace/comment-delimited header tokens, returning an offset."""
    tokens = []
    pos = 0
    for _ in range(count):
        m = _PGM_TOKEN.match(data[pos:])
        if not m:
            raise DataError("truncated PGM header")
        tokens.append(m.group(1))
        pos += m.end(1)
    return tokens, pos


def read_pgm(path: Path) -> np.ndarray:
    """Read one binary PGM (P5, maxval <= 255) into a (h, w) float array."""
    data = Path(path).read_bytes()
    try:
        tokens, pos = _read_pgm_tokens(data, 4)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    if tokens[0] != b"P5":
        raise DataError(f"{path}: not a binary PGM (magic {tokens[0]!r})")
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError:
        raise DataError(f"{path}: malformed PGM header") from None
    if width < 1 or height < 1:
        raise DataError(f"{path}: invalid PGM dimensions {width}x{height}")
    if not 0 < maxval <= 255:
        raise DataError(f"{path}: unsupported PGM maxval {maxval}")
    pos += 1  # single whitespace byte separates header from raster
    raster = data[pos : pos + width * height]
    if len(raster) < width * height:
        raise DataError(f"{path}: truncated PGM raster")
    return (
        np.frombuffer(raster, dtype=np.uint8)
        .reshape(height, width)
        .astype(np.float64)
    )


def write_pgm(pixels: np.ndarray, path: Path) -> None:
    """Write a (h, w) array in [0, 255] as binary PGM, rounding to 8 bits."""
    arr = np.asarray(pixels, dtype=np.float64)
    quant = np.clip(np.rint(arr), 0, 255).astype(np.uint8)
    h, w = quant.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(quant.tobytes())


# ---------------------------------------------------------------------------
# Y4M (YUV4MPEG2, luma only)

_CHROMA_LUMA_RATIO = {
    "420": 0.5,
    "420jpeg": 0.5,
    "420mpeg2": 0.5,
    "420paldv": 0.5,
    "422": 1.0,
    "444": 2.0,
    "mono": 0.0,
}


def _read_y4m(path: Path) -> FrameSequence:
    data = Path(path).read_bytes()
    nl = data.find(b"\n")
    if nl < 0 or not data.startswith(b"YUV4MPEG2"):
        raise DataError(f"{path}: not a YUV4MPEG2 stream")
    width = height = 0
    chroma = "420jpeg"
    # windows are counted in frames, so the frame rate (F) is not read
    for token in data[:nl].split(b" ")[1:]:
        if not token:
            continue
        key, val = token[:1], token[1:].decode("ascii", "replace")
        if key in (b"W", b"H") and not val.isdigit():
            raise DataError(f"{path}: malformed Y4M header token {token!r}")
        if key == b"W":
            width = int(val)
        elif key == b"H":
            height = int(val)
        elif key == b"C":
            chroma = val
    if width < 1 or height < 1:
        raise DataError(f"{path}: missing or invalid Y4M dimensions")
    if chroma not in _CHROMA_LUMA_RATIO:
        raise DataError(f"{path}: unsupported Y4M chroma mode C{chroma}")
    luma_size = width * height
    skip = int(luma_size * _CHROMA_LUMA_RATIO[chroma])

    frames = []
    pos = nl + 1
    while pos < len(data):
        frame_nl = data.find(b"\n", pos)
        if frame_nl < 0 or not data[pos:frame_nl].startswith(b"FRAME"):
            raise DataError(f"{path}: malformed FRAME marker at byte {pos}")
        start = frame_nl + 1
        if start + luma_size + skip > len(data):
            raise DataError(f"{path}: truncated frame {len(frames)}")
        luma = np.frombuffer(data[start : start + luma_size], dtype=np.uint8)
        frames.append(
            Frame(len(frames), luma.reshape(height, width).astype(np.float64))
        )
        pos = start + luma_size + skip
    if not frames:
        raise DataError(f"{path}: no frames found")
    return FrameSequence(frames)


# ---------------------------------------------------------------------------
# sequence and label loading

def load_sequence(path) -> FrameSequence:
    """Load a frame sequence: a directory is read as PGM frames in
    lexicographic filename order, any other path as a Y4M stream."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"{path}: no such file or directory")
    if not path.is_dir():
        return _read_y4m(path)
    files = sorted(path.glob("*.pgm"))
    if not files:
        raise DataError(f"{path}: no frames found (expected *.pgm files)")
    frames = [Frame(i, read_pgm(p)) for i, p in enumerate(files)]
    try:
        return FrameSequence(frames)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def save_sequence(seq: FrameSequence, path) -> None:
    """Write a sequence as a directory of binary PGM files (frame_000000.pgm, ...)."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    for frame in seq.frames:
        write_pgm(frame.pixels, out / f"frame_{frame.index:06d}.pgm")


LABEL_HEADER = ["start_frame", "end_frame", "action"]


def load_labels(path, action_names: list[str] | None = None) -> LabelTrack:
    """Expand a label CSV of inclusive frame ranges into a per-frame track.

    Rows must cover frames 0..n-1 exactly once. When ``action_names`` is
    given, actions map to ordinals in that order and unknown names are an
    error; otherwise ordinals follow first appearance.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"{path}: no such file")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty label file") from None
        if [h.strip() for h in header] != LABEL_HEADER:
            raise DataError(f"{path}: expected header {','.join(LABEL_HEADER)}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise DataError(f"{path}:{lineno}: expected 3 columns")
            try:
                start, end = int(row[0]), int(row[1])
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-integer frame range") from None
            rows.append((start, end, row[2].strip(), lineno))

    if not rows:
        raise DataError(f"{path}: no label rows")
    rows.sort(key=lambda r: r[0])
    names = list(action_names) if action_names is not None else []
    labels = []
    expected_start = 0
    for start, end, action, lineno in rows:
        if start < expected_start:
            raise DataError(f"{path}:{lineno}: overlapping label rows")
        if start > expected_start:
            raise DataError(
                f"{path}:{lineno}: gap in label rows (frames {expected_start}..{start - 1} uncovered)"
            )
        if end < start:
            raise DataError(f"{path}:{lineno}: end_frame before start_frame")
        if action not in names:
            if action_names is not None:
                raise DataError(f"{path}:{lineno}: unknown action name {action!r}")
            names.append(action)
        labels.extend([names.index(action) + 1] * (end - start + 1))
        expected_start = end + 1
    return LabelTrack(np.asarray(labels, dtype=np.int64), names)


def save_labels(track: LabelTrack, path) -> None:
    """Write a label track as inclusive-range CSV rows (the load_labels format)."""
    labels = track.labels
    boundaries = np.flatnonzero(np.r_[True, labels[1:] != labels[:-1]])
    ends = np.r_[boundaries[1:], labels.size] - 1
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LABEL_HEADER)
        for start, end in zip(boundaries, ends):
            writer.writerow([int(start), int(end), track.action_names[labels[start] - 1]])
