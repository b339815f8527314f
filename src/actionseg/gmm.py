"""Diagonal-covariance Gaussian mixture models.

Training runs batch EM from a k-means++ initialization. Densities are
evaluated in log space with log-sum-exp, so scoring stays finite arbitrarily
far into the tails. All randomness flows through an explicit seed and every
operation is deterministic for fixed inputs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError

_LOG_2PI = float(np.log(2.0 * np.pi))

# exp() of anything below this is exactly 0.0 (the smallest subnormal is
# exp(-745.133...)). NumPy's vector exp takes a slow path for lanes that
# underflow, so the log-sum-exp zeroes them without calling exp on them.
_EXP_ZERO_BELOW = -745.2

# A component whose responsibility mass falls below this fraction of the
# data count is considered starved and re-seeded during the M-step.
_STARVATION_FRACTION = 1e-8


@dataclass
class FitConfig:
    """EM training settings. Defaults: 200 iterations max, stop when the
    relative improvement of the mean log-likelihood drops below 1e-5."""

    n_components: int
    max_iters: int = 200
    rel_tol: float = 1e-5
    var_floor: float = 1e-3
    seed: int = 0
    kmeans_iters: int = 20

    def __post_init__(self) -> None:
        if self.n_components < 1:
            raise ValueError("n_components must be >= 1")
        if self.max_iters < 1 or self.kmeans_iters < 1:
            raise ValueError("iteration counts must be >= 1")
        if self.rel_tol <= 0 or self.var_floor <= 0:
            raise ValueError("rel_tol and var_floor must be positive")


@dataclass
class GmmModel:
    """Mixture parameters for one action (optionally one recording scenario).

    ``weights`` is (G,), ``means`` and ``variances`` are (G, dim); variances
    hold the diagonal of each component covariance.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    action: str = ""
    scenario: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.means = np.asarray(self.means, dtype=np.float64)
        self.variances = np.asarray(self.variances, dtype=np.float64)
        if self.means.ndim != 2:
            raise ValueError("means must be (n_components, dim)")
        g, d = self.means.shape
        if self.weights.shape != (g,) or self.variances.shape != (g, d):
            raise ValueError("weights/means/variances shapes are inconsistent")
        if not (
            np.all(np.isfinite(self.weights))
            and np.all(np.isfinite(self.means))
            and np.all(np.isfinite(self.variances))
        ):
            raise ValueError("model parameters must be finite")
        if np.any(self.weights < 0) or abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be non-negative and sum to 1")
        if np.any(self.variances <= 0):
            raise ValueError("variances must be positive")

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def n_components(self) -> int:
        return self.means.shape[0]


# ---------------------------------------------------------------------------
# initialization

def _nearest_center(data: np.ndarray, centers: np.ndarray, block: int = 8192):
    """Assign each row to its nearest center. Returns (labels, sq_dists)."""
    n = data.shape[0]
    labels = np.empty(n, dtype=np.int64)
    d2 = np.empty(n, dtype=np.float64)
    c2 = np.einsum("ij,ij->i", centers, centers)
    for start in range(0, n, block):
        chunk = data[start : start + block]
        # ||x - c||^2 up to the common ||x||^2 term, enough for argmin, built
        # in the product's buffer: c2 + (-2 cross) is c2 - 2 cross exactly
        dist = chunk @ centers.T
        dist *= -2.0
        dist += c2
        labels_chunk = np.argmin(dist, axis=1)
        labels[start : start + block] = labels_chunk
        diff = centers[labels_chunk]
        np.subtract(chunk, diff, out=diff)
        np.einsum("ij,ij->i", diff, diff, out=d2[start : start + block])
    return labels, d2


def _group_rows(data: np.ndarray, labels: np.ndarray, n_groups: int):
    """Rows of ``data`` sorted stably by label, and each label's row range.

    Returns (grouped, starts, stops): label g owns
    ``grouped[starts[g]:stops[g]]``, the rows ``data[labels == g]`` in their
    original order, so reductions over it match the masked form bit for bit.
    """
    counts = np.bincount(labels, minlength=n_groups)
    stops = np.cumsum(counts)
    return data[np.argsort(labels, kind="stable")], stops - counts, stops


def kmeans_init(
    data: np.ndarray,
    n_components: int,
    seed: int = 0,
    kmeans_iters: int = 20,
    var_floor: float = 1e-3,
):
    """k-means++ seeding plus Lloyd iterations.

    Returns (means, variances, weights) suitable as an EM starting point:
    per-cluster means, floored per-dimension variances, and weights equal to
    cluster fractions. Empty clusters are re-seeded from the point farthest
    from its assigned center.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] == 0:
        raise ValueError("data must be a non-empty (n, dim) array")
    if not np.all(np.isfinite(data)):
        raise ValueError("data must be finite")
    n, dim = data.shape
    if n < n_components:
        raise ValueError(f"need at least {n_components} points, got {n}")

    rng = np.random.default_rng(seed)
    centers = np.empty((n_components, dim))
    centers[0] = data[rng.integers(n)]
    diff = data - centers[0]
    d2 = np.einsum("ij,ij->i", diff, diff)
    near = np.empty(n)
    for g in range(1, n_components):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)
        centers[g] = data[idx]
        np.subtract(data, centers[g], out=diff)
        np.einsum("ij,ij->i", diff, diff, out=near)
        np.minimum(d2, near, out=d2)

    labels, d2 = _nearest_center(data, centers)
    for _ in range(kmeans_iters):
        grouped, starts, stops = _group_rows(data, labels, n_components)
        for g in range(n_components):
            if starts[g] == stops[g]:
                far = int(np.argmax(d2))
                centers[g] = data[far]
                d2[far] = 0.0
            else:
                centers[g] = grouped[starts[g] : stops[g]].mean(axis=0)
        new_labels, d2 = _nearest_center(data, centers)
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels

    grouped, starts, stops = _group_rows(data, labels, n_components)
    means = np.empty((n_components, dim))
    variances = np.empty((n_components, dim))
    weights = np.empty(n_components)
    for g in range(n_components):
        if starts[g] == stops[g]:
            # final assignment left a cluster empty: seed it from the
            # farthest point with a floored variance
            far = int(np.argmax(d2))
            means[g] = data[far]
            variances[g] = var_floor
            weights[g] = 1.0 / n
            continue
        pts = grouped[starts[g] : stops[g]]
        means[g] = pts.mean(axis=0)
        variances[g] = np.maximum(pts.var(axis=0), var_floor)
        weights[g] = pts.shape[0] / n
    weights /= weights.sum()
    return means, variances, weights


# ---------------------------------------------------------------------------
# densities

def _component_log_densities(means: np.ndarray, variances: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-component Gaussian log densities, (n, G) in C order.

    Uses the explicit (x - mu)^2 form per component rather than an expanded
    quadratic, which keeps cancellation error well below the 1e-10 oracle
    tolerance. Each component fills one contiguous row of a (G, n) buffer
    through a reused ``diff`` scratch, and the buffer is copied transposed
    into the output once.
    """
    n = x.shape[0]
    g, dim = means.shape
    const = -0.5 * (dim * _LOG_2PI + np.log(variances).sum(axis=1))
    half_inv = 0.5 / variances
    by_comp = np.empty((g, n))
    diff = np.empty((n, dim))
    for comp in range(g):
        dens = by_comp[comp]
        np.subtract(x, means[comp], out=diff)
        np.multiply(diff, diff, out=diff)
        np.matmul(diff, half_inv[comp], out=dens)
        np.subtract(const[comp], dens, out=dens)
    return np.ascontiguousarray(by_comp.T)


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """``log(sum(exp(a), axis=1))`` of an (n, G) C-order array; overwrites ``a``.

    The operations of ``scipy.special.logsumexp`` (SciPy 1.17) in the same
    order, so the result is bit-identical to it: the row maxima are split
    off (``m`` tied entries), the rest is shifted, exponentiated and summed,
    and the result is ``log1p(s / m) + log(m) + max``. A row of -inf gives
    -inf, as there.
    """
    a_max = a.max(axis=1, keepdims=True)
    ties = a == a_max
    m = np.count_nonzero(ties, axis=1).astype(np.float64)
    with np.errstate(invalid="ignore"):  # -inf - -inf on rows of -inf
        a -= a_max
    # keep the entries whose exp is neither a tie nor exactly 0.0; the rest
    # (NaN on rows of -inf included) go through exp as zeros and are
    # multiplied out again
    keep = a >= _EXP_ZERO_BELOW
    np.greater(keep, ties, out=keep)
    np.fmax(a, _EXP_ZERO_BELOW, out=a)
    a *= keep
    np.exp(a, out=a)
    a *= keep
    s = a.sum(axis=1)
    s /= m
    out = np.log1p(s)
    out += np.log(m)
    out += a_max[:, 0]
    return out


def log_pdf_batch(model: GmmModel, x: np.ndarray) -> np.ndarray:
    """Mixture log density for each row of ``x``; shape (n,)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.dim:
        raise ValueError(f"expected (n, {model.dim}) vectors, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("vectors must be finite")
    with np.errstate(divide="ignore"):
        log_w = np.log(model.weights)
    log_joint = _component_log_densities(model.means, model.variances, x)
    log_joint += log_w
    return _logsumexp_rows(log_joint)


def log_pdf(model: GmmModel, x: np.ndarray) -> float:
    """Mixture log density at a single point (log-sum-exp, never underflows
    to -inf for representable finite inputs and positive weights)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != model.dim:
        raise ValueError(f"expected a vector of dim {model.dim}, got shape {x.shape}")
    return float(log_pdf_batch(model, x[None, :])[0])


# ---------------------------------------------------------------------------
# EM

def em_fit(data: np.ndarray, cfg: FitConfig, callback=None) -> GmmModel:
    """Fit a diagonal-covariance mixture with batch EM.

    Stops after ``cfg.max_iters`` E/M rounds or when the relative improvement
    of the mean log-likelihood falls below ``cfg.rel_tol``. Variances are
    floored at ``cfg.var_floor`` after every M-step. Components whose
    responsibility mass collapses are re-seeded from the data region of the
    highest-variance component. ``meta`` records the log-likelihood of each
    E-step (``ll_history``, ``n_iters`` of them), whether the ``rel_tol``
    test stopped the fit (``converged``) and the re-seed count
    (``n_reseeds``).

    ``callback``, if given, is invoked each iteration as
    ``callback(iteration, weights, means, variances, mean_ll)`` with copies
    of the parameters that produced ``mean_ll``.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] == 0:
        raise ValueError("data must be a non-empty (n, dim) array")
    if not np.all(np.isfinite(data)):
        raise ValueError("data must be finite")
    n, dim = data.shape
    if n < cfg.n_components:
        raise ValueError(f"need at least {cfg.n_components} points, got {n}")

    means, variances, weights = kmeans_init(
        data, cfg.n_components, cfg.seed, cfg.kmeans_iters, cfg.var_floor
    )
    history: list[float] = []
    n_reseeds = 0
    converged = False
    prev_ll = None
    sq = data * data
    for iteration in range(cfg.max_iters):
        with np.errstate(divide="ignore"):
            log_w = np.log(weights)
        log_joint = _component_log_densities(means, variances, data)
        log_joint += log_w
        per_point = _logsumexp_rows(log_joint.copy())
        mean_ll = float(np.mean(per_point))
        history.append(mean_ll)
        if callback is not None:
            callback(iteration, weights.copy(), means.copy(), variances.copy(), mean_ll)
        if prev_ll is not None and mean_ll - prev_ll < cfg.rel_tol * abs(prev_ll):
            converged = True
            break
        prev_ll = mean_ll

        # exp(log_joint - per_point) in place. Entries whose exp is exactly
        # 0.0 go through exp as zeros and are zeroed again after it, which
        # skips exp's slow underflow path; NaN (a row of -inf) stays NaN.
        resp = log_joint
        resp -= per_point[:, None]
        zero = resp < _EXP_ZERO_BELOW
        np.copyto(resp, 0.0, where=zero)
        np.exp(resp, out=resp)
        np.copyto(resp, 0.0, where=zero)
        nk = resp.sum(axis=0)
        starved = np.flatnonzero(nk < _STARVATION_FRACTION * n)
        healthy = np.setdiff1d(np.arange(cfg.n_components), starved)
        if healthy.size == 0:
            raise RuntimeError("all mixture components starved; data degenerate")

        safe_nk = np.where(nk > 0, nk, 1.0)
        new_means = (resp.T @ data) / safe_nk[:, None]
        ex2 = (resp.T @ sq) / safe_nk[:, None]
        new_vars = np.maximum(ex2 - new_means * new_means, cfg.var_floor)
        new_weights = nk / n

        if starved.size:
            hard_labels = np.argmax(resp, axis=1)
        for g in starved:
            parent = healthy[int(np.argmax(new_vars[healthy].sum(axis=1)))]
            hard = np.flatnonzero(hard_labels == parent)
            if hard.size == 0:
                hard = np.arange(n)
            scaled = ((data[hard] - new_means[parent]) ** 2 / new_vars[parent]).sum(axis=1)
            pick = hard[int(np.argmax(scaled))]
            new_means[g] = data[pick]
            new_vars[g] = new_vars[parent]
            new_weights[parent] *= 0.5
            new_weights[g] = new_weights[parent]
            n_reseeds += 1
        new_weights = new_weights / new_weights.sum()

        weights, means, variances = new_weights, new_means, new_vars
        # free the n×G responsibilities before the next E-step allocates
        del log_joint, resp, zero

    meta = {
        "fit_config": asdict(cfg),
        "data_count": n,
        "ll_history": history,
        "n_iters": len(history),
        "converged": converged,
        "n_reseeds": n_reseeds,
    }
    return GmmModel(weights, means, variances, meta=meta)


# ---------------------------------------------------------------------------
# serialization: versioned JSON with a content checksum

MODEL_FORMAT_VERSION = 1


def _model_body(model: GmmModel) -> dict:
    meta = model.meta or {}
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "dim": model.dim,
        "n_components": model.n_components,
        "action": model.action,
        "scenario": model.scenario,
        "weights": model.weights.tolist(),
        "means": model.means.tolist(),
        "variances": model.variances.tolist(),
        "train_meta": {
            "tau": meta.get("tau"),
            "stride": meta.get("stride"),
            "fit_config": meta.get("fit_config"),
            "data_count": meta.get("data_count"),
            "n_iters": meta.get("n_iters"),
            "converged": meta.get("converged"),
            "n_reseeds": meta.get("n_reseeds"),
        },
    }


def _checksum(body: dict) -> str:
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()


def save_model(model: GmmModel, path) -> None:
    """Serialize losslessly (float repr round-trips exactly) with a checksum."""
    body = _model_body(model)
    payload = dict(body)
    payload["checksum"] = _checksum(body)
    Path(path).write_text(json.dumps(payload, indent=1) + "\n")


def load_model(path) -> GmmModel:
    path = Path(path)
    if not path.exists():
        raise DataError(f"{path}: no such file")
    try:
        payload = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: unreadable model file ({exc})") from None
    if not isinstance(payload, dict):
        raise DataError(f"{path}: unreadable model file")
    version = payload.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise DataError(f"{path}: unsupported model format version {version!r}")
    stored_sum = payload.pop("checksum", None)
    if stored_sum != _checksum(payload):
        raise DataError(f"{path}: checksum mismatch (file corrupted or edited)")
    try:
        model = GmmModel(
            weights=np.asarray(payload["weights"], dtype=np.float64),
            means=np.asarray(payload["means"], dtype=np.float64),
            variances=np.asarray(payload["variances"], dtype=np.float64),
            action=payload.get("action", ""),
            scenario=payload.get("scenario", ""),
            meta=payload.get("train_meta") or {},
        )
    except (KeyError, ValueError) as exc:
        raise DataError(f"{path}: invalid model parameters ({exc})") from None
    if model.dim != payload.get("dim") or model.n_components != payload.get("n_components"):
        raise DataError(f"{path}: declared dimensions do not match parameters")
    return model
