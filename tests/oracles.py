"""Independent straight-line reference implementations used by the tests.

Everything here is deliberately naive (explicit loops, high-precision
arithmetic) and shares no code path with the package.
"""

from __future__ import annotations

import dataclasses
import math

import mpmath
import numpy as np
from scipy.ndimage import convolve
from scipy.special import logsumexp


# ---------------------------------------------------------------------------
# container encoders

def y4m_bytes(frames: list[np.ndarray], fps=(25, 1), chroma: str = "420jpeg") -> bytes:
    """Minimal YUV4MPEG2 encoder; chroma planes are filled with 128."""
    h, w = frames[0].shape
    out = bytearray()
    out += f"YUV4MPEG2 W{w} H{h} F{fps[0]}:{fps[1]} Ip A1:1 C{chroma}\n".encode()
    if chroma.startswith("420"):
        chroma_len = (w // 2) * (h // 2) * 2
    elif chroma == "422":
        chroma_len = (w // 2) * h * 2
    elif chroma == "444":
        chroma_len = w * h * 2
    elif chroma == "mono":
        chroma_len = 0
    else:
        raise ValueError(chroma)
    for f in frames:
        out += b"FRAME\n"
        out += np.asarray(f, dtype=np.uint8).tobytes()
        out += bytes([128]) * chroma_len
    return bytes(out)


def pgm_bytes(pixels: np.ndarray, comment: str | None = None) -> bytes:
    h, w = pixels.shape
    header = b"P5\n"
    if comment:
        header += f"# {comment}\n".encode()
    header += f"{w} {h}\n255\n".encode()
    return header + np.asarray(pixels, dtype=np.uint8).tobytes()


def expand_label_rows(rows: list[tuple[int, int, str]], names: list[str]) -> list[int]:
    """Row-by-row expansion of inclusive (start, end, action) ranges."""
    out: dict[int, int] = {}
    for start, end, action in rows:
        for t in range(start, end + 1):
            assert t not in out, "oracle input rows overlap"
            out[t] = names.index(action) + 1
    assert sorted(out) == list(range(len(out))), "oracle input rows leave gaps"
    return [out[t] for t in range(len(out))]


# ---------------------------------------------------------------------------
# finite-difference stencils (explicit loops)

def naive_gradient(img: np.ndarray, axis: int) -> np.ndarray:
    h, w = img.shape
    out = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            if axis == 1:
                if x == 0:
                    out[y, x] = img[y, 1] - img[y, 0]
                elif x == w - 1:
                    out[y, x] = img[y, -1] - img[y, -2]
                else:
                    out[y, x] = (img[y, x + 1] - img[y, x - 1]) / 2.0
            else:
                if y == 0:
                    out[y, x] = img[1, x] - img[0, x]
                elif y == h - 1:
                    out[y, x] = img[-1, x] - img[-2, x]
                else:
                    out[y, x] = (img[y + 1, x] - img[y - 1, x]) / 2.0
    return out


def naive_divergence(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return naive_gradient(u, axis=1) + naive_gradient(v, axis=0)


def naive_vorticity(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return naive_gradient(v, axis=1) - naive_gradient(u, axis=0)


def naive_second_difference(img: np.ndarray, axis: int) -> np.ndarray:
    h, w = img.shape
    out = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            if axis == 1:
                xm, xp = max(x - 1, 0), min(x + 1, w - 1)
                out[y, x] = img[y, xp] - 2 * img[y, x] + img[y, xm]
            else:
                ym, yp = max(y - 1, 0), min(y + 1, h - 1)
                out[y, x] = img[yp, x] - 2 * img[y, x] + img[ym, x]
    return out


# ---------------------------------------------------------------------------
# Horn-Schunck flow, smoothed with scipy.ndimage.convolve

_AVG_KERNEL = np.array(
    [
        [1 / 12, 1 / 6, 1 / 12],
        [1 / 6, 0.0, 1 / 6],
        [1 / 12, 1 / 6, 1 / 12],
    ]
)


def _reference_derivatives(img0: np.ndarray, img1: np.ndarray):
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


def _neighbour_avg(field: np.ndarray) -> np.ndarray:
    return convolve(field, _AVG_KERNEL, mode="nearest")


def reference_horn_schunck(img0: np.ndarray, img1: np.ndarray, alpha: float, iters: int):
    """Horn-Schunck ``(u, v)`` with one ``convolve`` call per field and iteration."""
    img0 = np.asarray(img0, dtype=np.float64)
    img1 = np.asarray(img1, dtype=np.float64)
    ex, ey, et = _reference_derivatives(img0, img1)
    inv_denom = 1.0 / (alpha * alpha + ex * ex + ey * ey)
    ex_n = ex * inv_denom
    ey_n = ey * inv_denom
    et_n = et * inv_denom
    u = np.zeros_like(img0)
    v = np.zeros_like(img0)
    shared = np.empty_like(img0)
    tmp = np.empty_like(img0)
    for _ in range(iters):
        ubar = _neighbour_avg(u)
        vbar = _neighbour_avg(v)
        np.multiply(ex_n, ubar, out=shared)
        np.multiply(ey_n, vbar, out=tmp)
        shared += tmp
        shared += et_n
        np.multiply(ex, shared, out=tmp)
        np.subtract(ubar, tmp, out=u)
        np.multiply(ey, shared, out=tmp)
        np.subtract(vbar, tmp, out=v)
    return u, v


# ---------------------------------------------------------------------------
# mixture densities

def mp_log_pdf(weights, means, variances, x, dps: int = 60) -> float:
    """Mixture log density via arbitrary-precision direct summation."""
    with mpmath.workdps(dps):
        total = mpmath.mpf(0)
        for w, mu, var in zip(weights, means, variances):
            if w == 0:
                continue
            log_n = mpmath.mpf(0)
            for m, s2, xi in zip(mu, var, x):
                s2 = mpmath.mpf(float(s2))
                d = mpmath.mpf(float(xi)) - mpmath.mpf(float(m))
                log_n += -mpmath.mpf(0.5) * (
                    mpmath.log(2 * mpmath.pi * s2) + d * d / s2
                )
            total += mpmath.mpf(float(w)) * mpmath.e**log_n
        return float(mpmath.log(total))


def plain_log_pdf(weights, means, variances, x) -> float:
    """Float64 mixture log density via a hand-rolled log-sum-exp."""
    logs = []
    for w, mu, var in zip(weights, means, variances):
        if w == 0:
            continue
        acc = math.log(w)
        for m, s2, xi in zip(mu, var, x):
            acc += -0.5 * (math.log(2 * math.pi * s2) + (xi - m) ** 2 / s2)
        logs.append(acc)
    peak = max(logs)
    return peak + math.log(sum(math.exp(l - peak) for l in logs))


_LOG_2PI = float(np.log(2.0 * np.pi))


def reference_component_log_densities(means, variances, x):
    """Per-component Gaussian log densities, (n, G), one column per component."""
    n = x.shape[0]
    g, dim = means.shape
    out = np.empty((n, g))
    const = -0.5 * (dim * _LOG_2PI + np.log(variances).sum(axis=1))
    half_inv = 0.5 / variances
    for comp in range(g):
        diff = x - means[comp]
        out[:, comp] = const[comp] - (diff * diff) @ half_inv[comp]
    return out


def reference_log_pdf_batch(weights, means, variances, x):
    """Mixture log density per row: the densities above plus ``scipy.special.logsumexp``."""
    with np.errstate(divide="ignore"):
        log_w = np.log(weights)
    return logsumexp(reference_component_log_densities(means, variances, x) + log_w, axis=1)


def batch_mean_ll(weights, means, variances, data) -> float:
    """Mean mixture log density over rows of ``data`` via one broadcasted
    (n, G, D) computation and a manual max-shifted log-sum-exp."""
    weights = np.asarray(weights, dtype=float)
    means = np.asarray(means, dtype=float)
    variances = np.asarray(variances, dtype=float)
    data = np.asarray(data, dtype=float)
    diff = data[:, None, :] - means[None, :, :]
    logn = -0.5 * (
        np.log(2 * np.pi * variances).sum(axis=1)[None, :]
        + (diff * diff / variances[None, :, :]).sum(axis=2)
    )
    with np.errstate(divide="ignore"):
        joint = logn + np.log(weights)[None, :]
    peak = joint.max(axis=1, keepdims=True)
    ll = peak[:, 0] + np.log(np.exp(joint - peak).sum(axis=1))
    return float(ll.mean())


# ---------------------------------------------------------------------------
# k-means++ seeding with a per-component masked Lloyd update

def _reference_nearest_center(data, centers, block=8192):
    n = data.shape[0]
    labels = np.empty(n, dtype=np.int64)
    d2 = np.empty(n, dtype=np.float64)
    c2 = np.einsum("ij,ij->i", centers, centers)
    for start in range(0, n, block):
        chunk = data[start : start + block]
        cross = chunk @ centers.T
        dist = c2[None, :] - 2.0 * cross
        labels_chunk = np.argmin(dist, axis=1)
        labels[start : start + block] = labels_chunk
        diff = chunk - centers[labels_chunk]
        d2[start : start + block] = np.einsum("ij,ij->i", diff, diff)
    return labels, d2


def reference_kmeans_init(data, n_components, seed=0, kmeans_iters=20, var_floor=1e-3):
    """(means, variances, weights), each cluster reduced through a boolean mask."""
    data = np.asarray(data, dtype=np.float64)
    n, dim = data.shape
    rng = np.random.default_rng(seed)
    centers = np.empty((n_components, dim))
    centers[0] = data[rng.integers(n)]
    d2 = np.einsum("ij,ij->i", data - centers[0], data - centers[0])
    for g in range(1, n_components):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)
        centers[g] = data[idx]
        diff = data - centers[g]
        d2 = np.minimum(d2, np.einsum("ij,ij->i", diff, diff))

    labels, d2 = _reference_nearest_center(data, centers)
    for _ in range(kmeans_iters):
        for g in range(n_components):
            mask = labels == g
            if not np.any(mask):
                far = int(np.argmax(d2))
                centers[g] = data[far]
                d2[far] = 0.0
            else:
                centers[g] = data[mask].mean(axis=0)
        new_labels, d2 = _reference_nearest_center(data, centers)
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels

    means = np.empty((n_components, dim))
    variances = np.empty((n_components, dim))
    weights = np.empty(n_components)
    for g in range(n_components):
        mask = labels == g
        if not np.any(mask):
            far = int(np.argmax(d2))
            means[g] = data[far]
            variances[g] = var_floor
            weights[g] = 1.0 / n
            continue
        pts = data[mask]
        means[g] = pts.mean(axis=0)
        variances[g] = np.maximum(pts.var(axis=0), var_floor)
        weights[g] = pts.shape[0] / n
    weights /= weights.sum()
    return means, variances, weights


def reference_em_fit(data, cfg, kmeans=reference_kmeans_init):
    """(weights, means, variances, meta) of batch EM from ``kmeans``' start.

    Every n×G step is a fresh array: ``resp`` is a plain ``np.exp`` of the
    shifted joint, ``data * data`` is formed in each M-step and the hard
    labels are recomputed for every starved component.
    """
    data = np.asarray(data, dtype=np.float64)
    n = data.shape[0]
    means, variances, weights = kmeans(
        data, cfg.n_components, cfg.seed, cfg.kmeans_iters, cfg.var_floor
    )
    history = []
    n_reseeds = 0
    converged = False
    prev_ll = None
    for _ in range(cfg.max_iters):
        with np.errstate(divide="ignore"):
            log_w = np.log(weights)
        log_joint = reference_component_log_densities(means, variances, data) + log_w
        per_point = logsumexp(log_joint, axis=1)
        mean_ll = float(np.mean(per_point))
        history.append(mean_ll)
        if prev_ll is not None and mean_ll - prev_ll < cfg.rel_tol * abs(prev_ll):
            converged = True
            break
        prev_ll = mean_ll

        resp = np.exp(log_joint - per_point[:, None])
        nk = resp.sum(axis=0)
        starved = np.flatnonzero(nk < 1e-8 * n)
        healthy = np.setdiff1d(np.arange(cfg.n_components), starved)
        safe_nk = np.where(nk > 0, nk, 1.0)
        new_means = (resp.T @ data) / safe_nk[:, None]
        ex2 = (resp.T @ (data * data)) / safe_nk[:, None]
        new_vars = np.maximum(ex2 - new_means * new_means, cfg.var_floor)
        new_weights = nk / n
        for g in starved:
            parent = healthy[int(np.argmax(new_vars[healthy].sum(axis=1)))]
            hard = np.flatnonzero(np.argmax(resp, axis=1) == parent)
            if hard.size == 0:
                hard = np.arange(n)
            scaled = ((data[hard] - new_means[parent]) ** 2 / new_vars[parent]).sum(axis=1)
            pick = hard[int(np.argmax(scaled))]
            new_means[g] = data[pick]
            new_vars[g] = new_vars[parent]
            new_weights[parent] *= 0.5
            new_weights[g] = new_weights[parent]
            n_reseeds += 1
        weights, means, variances = new_weights / new_weights.sum(), new_means, new_vars

    meta = {
        "fit_config": dataclasses.asdict(cfg),
        "data_count": n,
        "ll_history": history,
        "n_iters": len(history),
        "converged": converged,
        "n_reseeds": n_reseeds,
    }
    return weights, means, variances, meta


# ---------------------------------------------------------------------------
# brute-force window pipeline (retained-frame domain)

def brute_force_window_scores(frame_vectors, models_by_action, window_len):
    """models_by_action: list (per action) of lists of (weights, means, vars).

    Returns dict window_start -> list of per-action scores; empty windows
    are omitted.
    """
    t = len(frame_vectors)
    out = {}
    for s in range(t - window_len + 1):
        pooled = []
        for f in range(s, s + window_len):
            pooled.extend(frame_vectors[f])
        if not pooled:
            continue
        scores = []
        for models in models_by_action:
            best = -math.inf
            for weights, means, variances in models:
                vals = [plain_log_pdf(weights, means, variances, x) for x in pooled]
                best = max(best, sum(vals) / len(vals))
            scores.append(best)
        out[s] = scores
    return out


def brute_force_fusion(score_map, t, window_len, n_actions):
    fused = [[0.0] * n_actions for _ in range(t)]
    covered = [False] * t
    for s in sorted(score_map):
        for f in range(s, s + window_len):
            covered[f] = True
            for a in range(n_actions):
                fused[f][a] += score_map[s][a]
    return fused, covered


def brute_force_argmax(fused_row) -> int:
    best, best_a = -math.inf, 0
    for a, val in enumerate(fused_row):
        v = -math.inf if math.isnan(val) else val
        if v > best:
            best, best_a = v, a
    return best_a + 1


def reference_merge(labels, min_len) -> list[int]:
    """Restart semantics: repeatedly fix the leftmost too-short run."""
    runs = []
    for lab in labels:
        if runs and runs[-1][0] == lab:
            runs[-1][1] += 1
        else:
            runs.append([int(lab), 1])

    def coalesce(rs):
        out = []
        for lab, ln in rs:
            if out and out[-1][0] == lab:
                out[-1][1] += ln
            else:
                out.append([lab, ln])
        return out

    while len(runs) > 1:
        idx = next((i for i, (_, ln) in enumerate(runs) if ln < min_len), None)
        if idx is None:
            break
        if idx == 0:
            runs[1][1] += runs[0][1]
            runs.pop(0)
        else:
            runs[idx][0] = runs[idx - 1][0]
        runs = coalesce(runs)

    out = []
    for lab, ln in runs:
        out.extend([lab] * ln)
    return out


def brute_force_segment(frame_vectors, models_by_action, window_len):
    """Full pipeline reference: scores, fusion, argmax, nearest-neighbour
    fill for uncovered frames, merge. Returns retained-frame labels."""
    t = len(frame_vectors)
    score_map = brute_force_window_scores(frame_vectors, models_by_action, window_len)
    fused, covered = brute_force_fusion(score_map, t, window_len, len(models_by_action))
    labels = [0] * t
    if not any(covered):
        return reference_merge([1] * t, window_len)
    for f in range(t):
        if covered[f]:
            labels[f] = brute_force_argmax(fused[f])
    cov_idx = [f for f in range(t) if covered[f]]
    for f in range(t):
        if not covered[f]:
            best = min(cov_idx, key=lambda c: (abs(c - f), c))
            labels[f] = labels[best]
    return reference_merge(labels, window_len)
