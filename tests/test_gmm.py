import functools
import json

import numpy as np
import pytest
from scipy.special import logsumexp

from actionseg import gmm
from actionseg.errors import DataError
from actionseg.gmm import (
    FitConfig,
    GmmModel,
    em_fit,
    kmeans_init,
    load_model,
    log_pdf,
    log_pdf_batch,
    save_model,
)

from oracles import (
    batch_mean_ll,
    mp_log_pdf,
    plain_log_pdf,
    reference_component_log_densities,
    reference_kmeans_init,
    reference_log_pdf_batch,
)


def random_model(rng, dim=14, n_components=3, action="a"):
    w = rng.uniform(0.2, 1.0, n_components)
    return GmmModel(
        w / w.sum(),
        rng.normal(0, 5, (n_components, dim)),
        rng.uniform(0.05, 4.0, (n_components, dim)),
        action=action,
    )


class TestKmeansInit:
    def test_single_cluster_is_sample_stats(self):
        rng = np.random.default_rng(0)
        data = rng.normal(3.0, 2.0, (200, 4))
        means, variances, weights = kmeans_init(data, 1, seed=0)
        np.testing.assert_allclose(means[0], data.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(variances[0], np.maximum(data.var(axis=0), 1e-3), atol=1e-12)
        assert weights.tolist() == [1.0]

    def test_two_point_masses(self):
        data = np.array([[0.0]] * 50 + [[10.0]] * 50)
        means, variances, weights = kmeans_init(data, 2, seed=1)
        assert sorted(means.ravel().tolist()) == [0.0, 10.0]
        np.testing.assert_allclose(weights, [0.5, 0.5])
        assert (variances >= 1e-3).all()

    def test_separated_blobs_match_nearest_centroid_oracle(self):
        rng = np.random.default_rng(2)
        data = np.vstack(
            [rng.normal(0, 0.5, (250, 3)), rng.normal(8, 0.5, (250, 3))]
        )
        means, variances, weights = kmeans_init(data, 2, seed=3)
        # exhaustive nearest-centroid assignment at convergence
        d = ((data[:, None, :] - means[None]) ** 2).sum(axis=2)
        labels = d.argmin(axis=1)
        for g in range(2):
            np.testing.assert_allclose(means[g], data[labels == g].mean(axis=0), atol=1e-9)
            np.testing.assert_allclose(
                weights[g], (labels == g).mean(), atol=1e-12
            )

    def test_fewer_points_than_components(self):
        with pytest.raises(ValueError, match="at least"):
            kmeans_init(np.zeros((3, 2)), 4)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(300, 5))
        a = kmeans_init(data, 8, seed=7)
        b = kmeans_init(data, 8, seed=7)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


class TestMatchesMaskedReference:
    """kmeans_init equals the per-component masked Lloyd update byte for byte."""

    @pytest.mark.parametrize(
        "n, dim, g",
        [(5700, 14, 256), (500, 1, 8), (300, 2, 5)],
        ids=["kth_shape", "one_dim", "two_dim"],
    )
    def test_random_clusters(self, n, dim, g):
        rng = np.random.default_rng(n)
        centers = rng.normal(80.0, 40.0, (g, dim))
        data = centers[rng.integers(g, size=n)] + rng.normal(0.0, 5.0, (n, dim))
        got = kmeans_init(data, g, seed=3)
        want = reference_kmeans_init(data, g, seed=3)
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]

    @pytest.mark.parametrize("dim", [1, 3])
    def test_empty_cluster_reseeded(self, dim):
        # two distinct points and three clusters: one cluster is always empty
        data = np.repeat(np.random.default_rng(dim).normal(size=(2, dim)), [40, 60], axis=0)
        for seed in range(4):
            got = kmeans_init(data, 3, seed=seed)
            want = reference_kmeans_init(data, 3, seed=seed)
            assert [a.tobytes() for a in got] == [b.tobytes() for b in want]


def adversarial_rows(rng, model, n):
    """Rows cycling through four kinds: at component 0 (a tie, when component
    1 duplicates it), far in the tail of every component, far enough that
    (x - mu)^2 overflows, and ordinary draws with coordinates near 160."""
    dim = model.dim
    kinds = [
        model.means[0] + rng.normal(0.0, 1e-3, dim),
        model.means[0] + 1e4,
        np.full(dim, 1e160),
        np.r_[rng.uniform(150.0, 170.0, 2), rng.normal(80.0, 40.0, dim - 2)],
    ]
    return np.array([kinds[i % 4] for i in range(n)])


def adversarial_model(rng, g, dim=14):
    """Coordinates near 160 at the variance floor, component 1 a duplicate of
    component 0 and the last component at zero weight."""
    means = rng.normal(80.0, 40.0, (g, dim))
    means[:, :2] = rng.uniform(150.0, 170.0, (g, 2))
    variances = rng.uniform(0.5, 50.0, (g, dim))
    variances[:, :2] = 1e-3
    w = rng.uniform(0.1, 1.0, g)
    if g > 1:
        means[1], variances[1], w[1] = means[0], variances[0], w[0]
    if g > 2:
        w[-1] = 0.0
    return GmmModel(w / w.sum(), means, variances)


class TestMatchesScipyReference:
    """log_pdf_batch and em_fit equal the per-column densities plus
    scipy.special.logsumexp byte for byte."""

    @pytest.mark.parametrize("n", [1, 3, 1900])
    @pytest.mark.parametrize("g", [1, 4, 256, 1024])
    def test_log_pdf_batch(self, g, n):
        rng = np.random.default_rng(g * 7919 + n)
        model = adversarial_model(rng, g)
        x = adversarial_rows(rng, model, n)
        with np.errstate(over="ignore"):
            got = log_pdf_batch(model, x)
            want = reference_log_pdf_batch(model.weights, model.means, model.variances, x)
        assert got.tobytes() == want.tobytes()

    def test_no_rows(self):
        model = adversarial_model(np.random.default_rng(0), 4)
        x = np.empty((0, model.dim))
        got = log_pdf_batch(model, x)
        want = reference_log_pdf_batch(model.weights, model.means, model.variances, x)
        assert got.shape == want.shape == (0,)

    def test_logsumexp_rows_edge_rows(self):
        rows = [
            [0.0, -720.0],  # the only other term is subnormal
            [0.0, -745.1, -745.2],  # the smallest subnormal, then exactly 0.0
            [-np.inf, -np.inf],
            [-np.inf, 2.5],
            [3.0, 3.0, 3.0],
            [5.0, 5.0, 4.9, -1.0],  # tied maxima beside a term of the same size
            [1e300, -1e300, 1e300],
            [-1e-300, -2e-300, 0.0],
        ]
        width = max(map(len, rows))
        a = np.array([r + [-np.inf] * (width - len(r)) for r in rows])
        with np.errstate(divide="ignore"):
            want = logsumexp(a, axis=1)
        assert gmm._logsumexp_rows(a.copy()).tobytes() == want.tobytes()
        rng = np.random.default_rng(8)
        for scale in (2.0, 300.0):  # many ties, then many underflows
            a = np.round(rng.normal(0.0, scale, (2000, 9)), 1)
            assert gmm._logsumexp_rows(a.copy()).tobytes() == logsumexp(a, axis=1).tobytes()

    @pytest.mark.parametrize(
        "n, dim, g", [(2049, 14, 8), (300, 1, 4), (4101, 2, 16)]
    )
    def test_em_fit(self, monkeypatch, n, dim, g):
        rng = np.random.default_rng(n + dim)
        centers = rng.normal(0.0, 6.0, (g, dim))
        data = centers[rng.integers(g, size=n)] + rng.normal(size=(n, dim))
        cfg = FitConfig(g, max_iters=8, seed=1)
        got = em_fit(data, cfg)
        monkeypatch.setattr(gmm, "_component_log_densities", reference_component_log_densities)
        monkeypatch.setattr(gmm, "_logsumexp_rows", functools.partial(logsumexp, axis=1))
        monkeypatch.setattr(gmm, "kmeans_init", reference_kmeans_init)
        want = em_fit(data, cfg)
        for name in ("weights", "means", "variances"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert got.meta == want.meta


class TestEmFit:
    def test_degenerate_data_hits_floor(self):
        data = np.ones((4, 1))
        model = em_fit(data, FitConfig(1, var_floor=1e-3))
        assert model.means[0, 0] == pytest.approx(1.0)
        assert model.variances[0, 0] == pytest.approx(1e-3)
        assert model.weights[0] == pytest.approx(1.0)

    def test_two_blobs_recover_centers(self):
        rng = np.random.default_rng(5)
        data = np.vstack(
            [rng.normal((0, 0), 0.5, (1000, 2)), rng.normal((10, 10), 0.5, (1000, 2))]
        )
        model = em_fit(data, FitConfig(2, seed=0))
        centers = model.means[np.argsort(model.means[:, 0])]
        # sample-centroid oracle per true cluster
        lo = data[data[:, 0] < 5].mean(axis=0)
        hi = data[data[:, 0] >= 5].mean(axis=0)
        np.testing.assert_allclose(centers[0], lo, atol=0.1)
        np.testing.assert_allclose(centers[1], hi, atol=0.1)

    @pytest.mark.parametrize("dim,n_components", [(1, 1), (2, 4), (14, 16)])
    def test_monotone_mean_ll_and_weight_normalization(self, dim, n_components):
        rng = np.random.default_rng(6)
        data = rng.normal(size=(600, dim)) * rng.uniform(0.5, 2.0, dim)
        snapshots = []
        em_fit(
            data,
            FitConfig(n_components, seed=1, max_iters=40),
            callback=lambda it, w, m, v, ll: snapshots.append((w, m, v, ll)),
        )
        assert len(snapshots) >= 2
        prev = -np.inf
        for w, m, v, ll in snapshots:
            # the oracle recomputes the mean log-likelihood from scratch
            assert ll == pytest.approx(batch_mean_ll(w, m, v, data), abs=1e-10)
            assert ll >= prev - 1e-8
            assert abs(w.sum() - 1.0) <= 1e-9
            assert (v >= 1e-3 - 1e-15).all()
            prev = ll

    def test_reported_ll_matches_pointwise_oracle(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(120, 3))
        snapshots = []
        em_fit(
            data,
            FitConfig(2, seed=2, max_iters=10),
            callback=lambda it, w, m, v, ll: snapshots.append((w, m, v, ll)),
        )
        w, m, v, ll = snapshots[-1]
        oracle = np.mean([plain_log_pdf(w, m, v, x) for x in data])
        assert ll == pytest.approx(oracle, abs=1e-10)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=(400, 4))
        a = em_fit(data, FitConfig(4, seed=9))
        b = em_fit(data, FitConfig(4, seed=9))
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.variances, b.variances)

    def test_rejects_nan(self):
        data = np.zeros((10, 2))
        data[3, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            em_fit(data, FitConfig(1))

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError, match="at least"):
            em_fit(np.zeros((2, 2)), FitConfig(3))

    def test_meta_records_history(self):
        rng = np.random.default_rng(9)
        model = em_fit(rng.normal(size=(100, 2)), FitConfig(2, max_iters=15))
        assert model.meta["data_count"] == 100
        assert len(model.meta["ll_history"]) >= 2
        assert model.meta["fit_config"]["n_components"] == 2

    def test_single_iteration_not_converged(self):
        rng = np.random.default_rng(9)
        model = em_fit(rng.normal(size=(100, 2)), FitConfig(2, max_iters=1))
        assert model.meta["n_iters"] == 1
        assert model.meta["converged"] is False

    def test_tolerance_stop_is_converged(self):
        rng = np.random.default_rng(9)
        model = em_fit(rng.normal(size=(100, 2)), FitConfig(2, max_iters=500, rel_tol=1e-3))
        assert model.meta["converged"] is True
        assert model.meta["n_iters"] == len(model.meta["ll_history"]) < 500


class TestLogPdf:
    def test_unit_gaussian_at_mean(self):
        model = GmmModel([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
        assert log_pdf(model, np.zeros(2)) == pytest.approx(-np.log(2 * np.pi), abs=1e-12)

    def test_duplicate_components_collapse(self):
        mu = [1.0, -2.0, 0.5]
        var = [0.5, 1.5, 2.0]
        single = GmmModel([1.0], [mu], [var])
        double = GmmModel([0.3, 0.7], [mu, mu], [var, var])
        x = np.array([0.3, 0.1, -1.0])
        assert log_pdf(double, x) == pytest.approx(log_pdf(single, x), abs=1e-12)

    def test_matches_extended_precision_oracle(self):
        rng = np.random.default_rng(10)
        model = random_model(rng)
        for _ in range(20):
            x = rng.normal(0, 8, 14)
            assert log_pdf(model, x) == pytest.approx(
                mp_log_pdf(model.weights, model.means, model.variances, x), abs=1e-10
            )

    def test_far_tail_stays_finite(self):
        model = GmmModel([0.5, 0.5], [[0.0], [1.0]], [[1.0], [1.0]])
        val = log_pdf(model, np.array([50.0]))
        assert np.isfinite(val)
        assert val == pytest.approx(mp_log_pdf(model.weights, model.means, model.variances, [50.0]), abs=1e-10)

    def test_component_permutation_invariance(self):
        rng = np.random.default_rng(11)
        model = random_model(rng, dim=5, n_components=4)
        perm = [2, 0, 3, 1]
        shuffled = GmmModel(
            model.weights[perm], model.means[perm], model.variances[perm]
        )
        x = rng.normal(size=5)
        assert log_pdf(shuffled, x) == pytest.approx(log_pdf(model, x), abs=1e-12)

    def test_dim_mismatch(self):
        model = GmmModel([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
        with pytest.raises(ValueError):
            log_pdf(model, np.zeros(3))


class TestAvgLogLikelihood:
    """Window scoring averages log_pdf_batch's rows over the pooled vectors."""

    def test_three_vectors_match_oracle_mean(self):
        rng = np.random.default_rng(14)
        model = random_model(rng, dim=4)
        batch = rng.normal(size=(3, 4))
        oracle = [mp_log_pdf(model.weights, model.means, model.variances, x) for x in batch]
        got = log_pdf_batch(model, batch)
        np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-12)
        assert got.mean() == pytest.approx(np.mean(oracle), abs=1e-12)


class TestModelInvariants:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            GmmModel([0.5, 0.4], [[0.0], [1.0]], [[1.0], [1.0]])

    def test_variances_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            GmmModel([1.0], [[0.0]], [[0.0]])

    def test_parameters_must_be_finite(self):
        with pytest.raises(ValueError, match="finite"):
            GmmModel([1.0], [[np.inf]], [[1.0]])


class TestSerialization:
    def test_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(15)
        model = random_model(rng, action="walk")
        model.scenario = "outdoor"
        model.meta = {"tau": 40.0, "stride": 2, "fit_config": {"n_components": 3}, "data_count": 99}
        path = tmp_path / "m.json"
        save_model(model, path)
        back = load_model(path)
        assert (back.weights == model.weights).all()
        assert (back.means == model.means).all()
        assert (back.variances == model.variances).all()
        assert back.action == "walk" and back.scenario == "outdoor"
        assert back.meta["tau"] == 40.0 and back.meta["data_count"] == 99
        x = rng.normal(size=14)
        assert log_pdf(back, x) == log_pdf(model, x)

    def test_fit_statistics_roundtrip(self, tmp_path):
        rng = np.random.default_rng(9)
        model = em_fit(rng.normal(size=(100, 2)), FitConfig(2, max_iters=4))
        path = tmp_path / "m.json"
        save_model(model, path)
        train_meta = json.loads(path.read_text())["train_meta"]
        back = load_model(path).meta
        for key in ("n_iters", "converged", "n_reseeds"):
            assert train_meta[key] == back[key] == model.meta[key]
        assert back["n_iters"] == 4 and back["converged"] is False

    def test_truncated_file(self, tmp_path):
        rng = np.random.default_rng(16)
        path = tmp_path / "m.json"
        save_model(random_model(rng), path)
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(DataError, match="unreadable"):
            load_model(path)

    def test_checksum_detects_tampering(self, tmp_path):
        rng = np.random.default_rng(17)
        path = tmp_path / "m.json"
        save_model(random_model(rng), path)
        payload = json.loads(path.read_text())
        payload["weights"][0] += 1e-3
        payload["weights"][1] -= 1e-3
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="checksum"):
            load_model(path)

    def test_version_mismatch(self, tmp_path):
        rng = np.random.default_rng(18)
        path = tmp_path / "m.json"
        save_model(random_model(rng), path)
        payload = json.loads(path.read_text())
        payload["format_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="version"):
            load_model(path)

    def test_invalid_parameters_on_load(self, tmp_path):
        rng = np.random.default_rng(19)
        path = tmp_path / "m.json"
        model = random_model(rng, dim=2, n_components=1)
        save_model(model, path)
        payload = json.loads(path.read_text())
        del payload["checksum"]
        payload["variances"] = [[0.0, 1.0]]
        from actionseg.gmm import _checksum

        payload["checksum"] = _checksum(payload)
        text = json.dumps(payload)
        path.write_text(text)
        with pytest.raises(DataError, match="invalid model"):
            load_model(path)

    def test_hand_written_model_scores_like_oracle(self, tmp_path):
        body = {
            "format_version": 1,
            "dim": 2,
            "n_components": 2,
            "action": "toy",
            "scenario": "",
            "weights": [0.25, 0.75],
            "means": [[0.0, 1.0], [3.0, -2.0]],
            "variances": [[1.0, 0.5], [2.0, 0.25]],
            "train_meta": {"tau": None, "stride": None, "fit_config": None, "data_count": None},
        }
        from actionseg.gmm import _checksum

        payload = dict(body)
        payload["checksum"] = _checksum(body)
        path = tmp_path / "hand.json"
        path.write_text(json.dumps(payload))
        model = load_model(path)
        x = np.array([1.0, 0.5])
        oracle = mp_log_pdf(body["weights"], body["means"], body["variances"], x)
        assert log_pdf(model, x) == pytest.approx(oracle, abs=1e-12)
