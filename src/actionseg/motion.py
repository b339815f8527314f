"""Dense optical flow between consecutive frames and flow-derived fields.

Flow is estimated with the classic Horn-Schunck method (Jacobi iterations on
the regularized brightness-constancy equations). Derivative operators use
central differences in the interior and one-sided differences at borders.
All functions are pure and deterministic for fixed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class FlowField:
    """Per-pixel flow components in pixels/frame. ``u`` horizontal, ``v`` vertical."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        self.u = np.asarray(self.u, dtype=np.float64)
        self.v = np.asarray(self.v, dtype=np.float64)
        if self.u.ndim != 2 or self.u.shape != self.v.shape:
            raise ValueError("u and v must be 2-D arrays of identical shape")
        if not (np.all(np.isfinite(self.u)) and np.all(np.isfinite(self.v))):
            raise ValueError("flow components must be finite")

    @property
    def height(self) -> int:
        return self.u.shape[0]

    @property
    def width(self) -> int:
        return self.u.shape[1]


def _image(frame) -> np.ndarray:
    """Accept a Frame or a bare 2-D array."""
    arr = frame.pixels if hasattr(frame, "pixels") else np.asarray(frame, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("expected a 2-D grayscale image")
    return np.asarray(arr, dtype=np.float64)


def _hs_derivatives(img0: np.ndarray, img1: np.ndarray):
    """Spatio-temporal derivatives averaged over the 2x2x2 cube.

    Averaging forward differences across both frames makes the estimates
    consistent at the half-grid point, so an integer translation yields a
    data term that the true constant flow satisfies exactly.
    """
    p0 = np.pad(img0, ((0, 1), (0, 1)), mode="edge")
    p1 = np.pad(img1, ((0, 1), (0, 1)), mode="edge")
    ex = 0.25 * (
        (p0[:-1, 1:] - p0[:-1, :-1])
        + (p0[1:, 1:] - p0[1:, :-1])
        + (p1[:-1, 1:] - p1[:-1, :-1])
        + (p1[1:, 1:] - p1[1:, :-1])
    )
    ey = 0.25 * (
        (p0[1:, :-1] - p0[:-1, :-1])
        + (p0[1:, 1:] - p0[:-1, 1:])
        + (p1[1:, :-1] - p1[:-1, :-1])
        + (p1[1:, 1:] - p1[:-1, 1:])
    )
    et = 0.25 * (
        (p1[:-1, :-1] - p0[:-1, :-1])
        + (p1[:-1, 1:] - p0[:-1, 1:])
        + (p1[1:, :-1] - p0[1:, :-1])
        + (p1[1:, 1:] - p0[1:, 1:])
    )
    return ex, ey, et


def _neighbour_avg(padded, corner, edge, out) -> None:
    """Horn-Schunck's weighted 8-neighbour average of each plane of ``padded``.

    ``padded`` holds the fields in its interior; its one-pixel border is
    refreshed here with the nearest edge values. The taps (1/12 at the
    corners, 1/6 at the sides, 0 at the centre) are added to 0.0 in raster
    order, the order ``scipy.ndimage.convolve(mode="nearest")`` uses, so the
    result is bit-identical to it.
    """
    padded[:, 0, 1:-1] = padded[:, 1, 1:-1]
    padded[:, -1, 1:-1] = padded[:, -2, 1:-1]
    padded[:, :, 0] = padded[:, :, 1]
    padded[:, :, -1] = padded[:, :, -2]
    np.multiply(padded, 1 / 12, out=corner)
    np.multiply(padded, 1 / 6, out=edge)
    h, w = out.shape[1:]
    out.fill(0.0)
    out += corner[:, :h, :w]
    out += edge[:, :h, 1:-1]
    out += corner[:, :h, 2:]
    out += edge[:, 1:-1, :w]
    out += edge[:, 1:-1, 2:]
    out += corner[:, 2:, :w]
    out += edge[:, 2:, 1:-1]
    out += corner[:, 2:, 2:]


def horn_schunck(prev, nxt, alpha: float = 15.0, iters: int = 200) -> FlowField:
    """Estimate dense flow from ``prev`` to ``nxt``.

    ``alpha`` weighs the smoothness term; ``iters`` fixes the number of
    Jacobi iterations (no early exit, so outputs are bit-reproducible).
    """
    img0, img1 = _image(prev), _image(nxt)
    if img0.shape != img1.shape:
        raise ValueError(f"frame shapes differ: {img0.shape} vs {img1.shape}")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if iters < 1:
        raise ValueError("iters must be >= 1")

    ex, ey, et = _hs_derivatives(img0, img1)
    inv_denom = 1.0 / (alpha * alpha + ex * ex + ey * ey)
    exy = np.stack((ex, ey))
    exy_n = exy * inv_denom
    et_n = et * inv_denom
    h, w = img0.shape
    # u and v share one edge-padded buffer; its interior is the current flow
    padded = np.zeros((2, h + 2, w + 2))
    flow = padded[:, 1:-1, 1:-1]
    corner = np.empty_like(padded)
    edge = np.empty_like(padded)
    bar = np.empty((2, h, w))
    prod = np.empty_like(bar)
    shared = np.empty_like(img0)
    for _ in range(iters):
        _neighbour_avg(padded, corner, edge, bar)
        np.multiply(exy_n, bar, out=prod)
        np.add(prod[0], prod[1], out=shared)
        shared += et_n
        np.multiply(exy, shared, out=prod)
        np.subtract(bar, prod, out=flow)
    return FlowField(flow[0].copy(), flow[1].copy())


def flow_time_derivative(flow_prev: FlowField, flow_curr: FlowField):
    """Forward-difference temporal derivative of the flow, per component."""
    if flow_prev.u.shape != flow_curr.u.shape:
        raise ValueError("flow fields must share dimensions")
    return flow_curr.u - flow_prev.u, flow_curr.v - flow_prev.v


def _require_min_size(flow: FlowField) -> None:
    if flow.width < 3 or flow.height < 3:
        raise ValueError("field too small for derivative stencils (need >= 3x3)")


def flow_divergence(flow: FlowField) -> np.ndarray:
    """du/dx + dv/dy, central in the interior, one-sided at borders."""
    _require_min_size(flow)
    return np.gradient(flow.u, axis=1) + np.gradient(flow.v, axis=0)


def flow_vorticity(flow: FlowField) -> np.ndarray:
    """dv/dx - du/dy, central in the interior, one-sided at borders."""
    _require_min_size(flow)
    return np.gradient(flow.v, axis=1) - np.gradient(flow.u, axis=0)

