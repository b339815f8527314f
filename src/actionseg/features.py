"""Per-pixel motion descriptors and gradient-based pixel selection.

Each selected pixel yields a 14-entry vector, ordered as:

    [x, y, |Jx|, |Jy|, |Jyy|, |Jxx|, magnitude, orientation,
     u, v, du/dt, dv/dt, divergence, vorticity]

where Jx/Jy/Jxx/Jyy are first/second intensity derivatives, magnitude is
sqrt(Jx^2 + Jy^2), orientation is atan(|Jy|/|Jx|) in [0, pi/2], and the last
six entries come from the dense flow field. Only pixels whose gradient
magnitude exceeds the threshold contribute, so the per-frame vector count k
varies with content and may be zero.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from itertools import accumulate, repeat
from pathlib import Path

import numpy as np

from .errors import DataError
from .frame_io import Frame, FrameSequence
from .motion import FlowField, flow_divergence, flow_time_derivative, flow_vorticity, horn_schunck

FEATURE_DIM = 14


@dataclass
class GradientFields:
    """First and second order intensity derivatives plus magnitude/orientation."""

    jx: np.ndarray
    jy: np.ndarray
    jxx: np.ndarray
    jyy: np.ndarray
    magnitude: np.ndarray
    orientation: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.jx.shape


@dataclass
class FrameFeatures:
    """Feature vectors for one frame; ``vectors`` is (k, 14), raster-ordered."""

    frame_index: int
    vectors: np.ndarray

    def __post_init__(self) -> None:
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.size == 0:
            self.vectors = self.vectors.reshape(0, FEATURE_DIM)
        if self.vectors.ndim != 2 or self.vectors.shape[1] != FEATURE_DIM:
            raise ValueError(f"vectors must be (k, {FEATURE_DIM})")

    def __len__(self) -> int:
        return self.vectors.shape[0]


@dataclass
class ExtractionConfig:
    """Extraction parameters; the defaults match the reference protocol
    (threshold 40 on 8-bit gradients, every second frame retained)."""

    tau: float = 40.0
    frame_stride: int = 2
    hs_alpha: float = 15.0
    hs_iters: int = 200

    def __post_init__(self) -> None:
        if self.tau < 0:
            raise ValueError("tau must be >= 0")
        if self.frame_stride < 1:
            raise ValueError("frame_stride must be >= 1")
        if self.hs_alpha <= 0 or self.hs_iters < 1:
            raise ValueError("invalid flow parameters")


def _second_difference(img: np.ndarray, axis: int) -> np.ndarray:
    """Central second difference with replicated borders."""
    pad = [(0, 0), (0, 0)]
    pad[axis] = (1, 1)
    p = np.pad(img, pad, mode="edge")
    if axis == 0:
        return p[2:, :] - 2.0 * p[1:-1, :] + p[:-2, :]
    return p[:, 2:] - 2.0 * p[:, 1:-1] + p[:, :-2]


def spatial_gradients(frame) -> GradientFields:
    """Compute intensity derivative fields for one frame.

    Jx/Jy are central differences (one-sided at borders), Jxx/Jyy central
    second differences with replicated borders. Orientation is atan of
    |Jy|/|Jx|, with the limit pi/2 where Jx is zero and 0 where both vanish.
    """
    img = frame.pixels if isinstance(frame, Frame) else np.asarray(frame, dtype=np.float64)
    if img.ndim != 2 or img.shape[0] < 3 or img.shape[1] < 3:
        raise ValueError("frame too small for gradient stencils (need >= 3x3)")
    jx = np.gradient(img, axis=1)
    jy = np.gradient(img, axis=0)
    jxx = _second_difference(img, axis=1)
    jyy = _second_difference(img, axis=0)
    magnitude = np.hypot(jx, jy)
    orientation = np.arctan2(np.abs(jy), np.abs(jx))
    return GradientFields(jx, jy, jxx, jyy, magnitude, orientation)


def extract_frame_features(
    frame,
    grads: GradientFields,
    flow: FlowField,
    flow_dt: tuple[np.ndarray, np.ndarray],
    div: np.ndarray,
    vort: np.ndarray,
    tau: float,
) -> FrameFeatures:
    """Assemble feature vectors for every pixel with gradient magnitude > tau.

    Vectors are emitted in raster-scan order (top-left to bottom-right).
    """
    if isinstance(frame, Frame):
        img, index = frame.pixels, frame.index
    else:
        img, index = np.asarray(frame, dtype=np.float64), 0
    du_dt, dv_dt = flow_dt
    shape = img.shape
    for name, field in (
        ("gradients", grads.magnitude),
        ("flow", flow.u),
        ("du_dt", du_dt),
        ("dv_dt", dv_dt),
        ("divergence", div),
        ("vorticity", vort),
    ):
        if field.shape != shape:
            raise ValueError(f"{name} shape {field.shape} does not match frame shape {shape}")

    ys, xs = np.nonzero(grads.magnitude > tau)
    if xs.size == 0:
        return FrameFeatures(index, np.empty((0, FEATURE_DIM)))
    vectors = np.column_stack(
        [
            xs.astype(np.float64),
            ys.astype(np.float64),
            np.abs(grads.jx[ys, xs]),
            np.abs(grads.jy[ys, xs]),
            np.abs(grads.jyy[ys, xs]),
            np.abs(grads.jxx[ys, xs]),
            grads.magnitude[ys, xs],
            grads.orientation[ys, xs],
            flow.u[ys, xs],
            flow.v[ys, xs],
            du_dt[ys, xs],
            dv_dt[ys, xs],
            div[ys, xs],
            vort[ys, xs],
        ]
    )
    return FrameFeatures(index, vectors)


def _usable_cpus() -> int:
    """CPUs that flow workers may be forked onto: this process's affinity
    mask where the OS has one. It is 1 where no worker can be forked: without
    ``os.fork`` (Windows), and in a daemonic ``multiprocessing`` worker, which
    may not have children."""
    import multiprocessing

    if not hasattr(os, "fork") or multiprocessing.current_process().daemon:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _flow(prev: Frame, nxt: Frame, alpha: float, iters: int) -> FlowField:
    """One frame pair's flow, the unit of work. ``horn_schunck`` is looked up
    when called, so a wrapped or patched module attribute is what runs, in a
    worker as in this process."""
    return horn_schunck(prev, nxt, alpha, iters)


def extract_video_features(seq: FrameSequence, cfg: ExtractionConfig) -> list[FrameFeatures]:
    """Run the descriptor pipeline over a sequence.

    Features are emitted for frames 2, 2 + stride, 2 + 2*stride, ... (the
    temporal flow derivative needs the two preceding flows, so frame 2 is the
    first usable one), and flow is computed only for the pairs those frames
    read: ``t-2 -> t-1`` and ``t-1 -> t``. The pairs run on every CPU in
    this process's affinity mask, in forked workers when there is more than
    one; the output does not depend on the worker count. Each FrameFeatures
    keeps the original frame index.
    """
    n = len(seq)
    if n < 3:
        raise ValueError("sequence too short: need at least 3 frames")
    retained = range(2, n, cfg.frame_stride)
    # pair s is the flow from frame s-1 to frame s
    pairs = sorted({s for t in retained for s in (t - 1, t)})
    frames = seq.frames
    args = (
        [frames[s - 1] for s in pairs],
        [frames[s] for s in pairs],
        repeat(cfg.hs_alpha),
        repeat(cfg.hs_iters),
    )
    workers = min(_usable_cpus(), len(pairs))
    if workers == 1:
        return _assemble(frames, retained, pairs, map(_flow, *args), cfg.tau)

    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        return _assemble(frames, retained, pairs, pool.map(_flow, *args), cfg.tau)
    finally:
        # after an error, pairs not yet started are dropped, not run
        pool.shutdown(cancel_futures=True)


def _assemble(
    frames: list[Frame], retained: range, pairs: list[int], flows, tau: float
) -> list[FrameFeatures]:
    """Features of the retained frames, in order, from the flows of ``pairs``
    as they arrive; only the previous pair's flow is held."""
    out: list[FrameFeatures] = []
    flow_prev = None
    for t, flow_curr in zip(pairs, flows):
        if t in retained:
            frame = frames[t]
            grads = spatial_gradients(frame)
            flow_dt = flow_time_derivative(flow_prev, flow_curr)
            div = flow_divergence(flow_curr)
            vort = flow_vorticity(flow_curr)
            out.append(extract_frame_features(frame, grads, flow_curr, flow_dt, div, vort, tau))
        flow_prev = flow_curr
    return out


# ---------------------------------------------------------------------------
# binary dump used for feature caching, little-endian: a header of magic,
# version, the video's frame count n_frames, the retained-frame count n and
# dim; then an (n, 2) int64 table of (frame_index, k); then one (sum k, dim)
# float64 block holding every frame's vectors in table order.

_FEATURES_MAGIC = b"ASFV"
FEATURES_VERSION = 2
_HEADER = struct.Struct("<4sIqqq")


def save_features(features: list[FrameFeatures], n_frames: int, path) -> None:
    """Write the retained frames' features of an ``n_frames``-frame video."""
    table = np.array([(ff.frame_index, len(ff)) for ff in features], dtype="<i8")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_FEATURES_MAGIC, FEATURES_VERSION, n_frames, len(features),
                              FEATURE_DIM))
        fh.write(table.tobytes())
        for ff in features:
            fh.write(ff.vectors.astype("<f8").tobytes())


def load_features(path) -> tuple[list[FrameFeatures], int]:
    """Read a ``save_features`` file; returns (features, n_frames). Every
    frame's ``vectors`` is a read-only view into the one buffer read."""
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise DataError(f"{path}: truncated feature file")
    magic, version, n_frames, n, dim = _HEADER.unpack_from(data)
    if magic != _FEATURES_MAGIC:
        raise DataError(f"{path}: not a feature dump")
    if version != FEATURES_VERSION:
        raise DataError(f"{path}: unsupported feature format version {version}")
    if dim != FEATURE_DIM:
        raise DataError(f"{path}: unexpected feature dimension {dim}")
    if n_frames < 0 or n < 0:
        raise DataError(f"{path}: negative frame count")
    table_end = _HEADER.size + 16 * n
    if len(data) < table_end:
        raise DataError(f"{path}: truncated feature file")
    buf = np.frombuffer(data, dtype=np.uint8)
    table = buf[_HEADER.size : table_end].view("<i8").reshape(n, 2)
    index, k = table[:, 0].tolist(), table[:, 1].tolist()
    if any(c < 0 for c in k):
        raise DataError(f"{path}: negative vector count")
    size = table_end + sum(k) * dim * 8
    if len(data) < size:
        raise DataError(f"{path}: truncated feature file")
    if len(data) > size:
        raise DataError(f"{path}: {len(data) - size} trailing bytes after the feature block")
    if n and not (0 <= index[0] and index[-1] < n_frames
                  and all(a < b for a, b in zip(index, index[1:]))):
        raise DataError(f"{path}: frame indices must increase within [0, {n_frames})")
    block = buf[table_end:].view("<f8").reshape(-1, dim)
    ends = accumulate(k)
    return [FrameFeatures(i, block[e - c : e]) for i, c, e in zip(index, k, ends)], n_frames
