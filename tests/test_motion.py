import numpy as np
import pytest

from actionseg.motion import (
    FlowField,
    flow_divergence,
    flow_time_derivative,
    flow_vorticity,
    horn_schunck,
)

from oracles import naive_divergence, naive_vorticity, reference_horn_schunck

INNER = (slice(3, -3), slice(3, -3))


def sinusoid_pair(shift=(1, 0), size=64):
    # integer cycle counts keep the pattern exactly periodic over the frame
    x, y = np.meshgrid(np.arange(size, dtype=float), np.arange(size, dtype=float))
    def render(dx, dy):
        return (
            128.0
            + 50.0 * np.sin(2 * np.pi * 4 * (x - dx) / size)
            + 30.0 * np.sin(2 * np.pi * 5 * (y - dy) / size)
            + 20.0 * np.sin(2 * np.pi * 3 * ((x - dx) + (y - dy)) / size)
        )
    return render(0, 0), render(*shift)


class TestHornSchunck:
    def test_identical_frames_zero_flow(self):
        img = np.random.default_rng(0).uniform(0, 255, (20, 20))
        flow = horn_schunck(img, img, iters=30)
        np.testing.assert_array_equal(flow.u, 0.0)
        np.testing.assert_array_equal(flow.v, 0.0)

    def test_uniform_brightness_change_zero_flow(self):
        flow = horn_schunck(np.full((16, 16), 10.0), np.full((16, 16), 90.0), iters=30)
        np.testing.assert_array_equal(flow.u, 0.0)
        np.testing.assert_array_equal(flow.v, 0.0)

    def test_recovers_unit_horizontal_shift(self):
        img0, img1 = sinusoid_pair((1, 0))
        flow = horn_schunck(img0, img1, alpha=15.0, iters=200)
        epe = np.hypot(flow.u[INNER] - 1.0, flow.v[INNER]).mean()
        assert epe < 0.3

    def test_recovers_vertical_shift(self):
        img0, img1 = sinusoid_pair((0, 1))
        flow = horn_schunck(img0, img1)
        epe = np.hypot(flow.u[INNER], flow.v[INNER] - 1.0).mean()
        assert epe < 0.3

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="differ"):
            horn_schunck(np.zeros((4, 4)), np.zeros((5, 4)))

    def test_parameter_validation(self):
        img = np.zeros((4, 4))
        with pytest.raises(ValueError):
            horn_schunck(img, img, alpha=0.0)
        with pytest.raises(ValueError):
            horn_schunck(img, img, iters=0)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        img0 = rng.uniform(0, 255, (24, 24))
        img1 = rng.uniform(0, 255, (24, 24))
        a = horn_schunck(img0, img1, iters=50)
        b = horn_schunck(img0, img1, iters=50)
        np.testing.assert_array_equal(a.u, b.u)
        np.testing.assert_array_equal(a.v, b.v)

    @pytest.mark.parametrize("shift", [(0, 0), (7, 13), (23, 5)])
    def test_translation_equivariance_interior(self, shift):
        # shifting both (periodic, wrap-padded) inputs by the same offset
        # leaves the recovered interior field matching the same ground truth
        img0, img1 = sinusoid_pair((1, 1), size=48)
        flow = horn_schunck(
            np.roll(img0, shift, axis=(0, 1)), np.roll(img1, shift, axis=(0, 1))
        )
        inner = (slice(6, -6), slice(6, -6))
        epe = np.hypot(flow.u[inner] - 1.0, flow.v[inner] - 1.0).mean()
        assert epe < 0.1

    @pytest.mark.parametrize(
        "shape",
        [(3, 3), (3, 40), (40, 3), (5, 7), (64, 64), (120, 160)],
        ids=lambda s: f"{s[0]}x{s[1]}",
    )
    @pytest.mark.parametrize("frames", ["random", "identical", "zero", "scaled_1e-300"])
    def test_bit_identical_to_convolve_reference(self, shape, frames):
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        img0 = rng.uniform(0, 255, shape)
        img1 = rng.uniform(0, 255, shape)
        if frames == "identical":
            img1 = img0
        elif frames == "zero":
            img0, img1 = np.zeros(shape), np.zeros(shape)
        elif frames == "scaled_1e-300":
            img0, img1 = img0 * 1e-300, img1 * 1e-300
        self._assert_matches_reference(img0, img1)

    @pytest.mark.parametrize("scale", [2e-162, 4e-162])
    def test_negative_zero_taps_bit_identical(self, scale):
        # a flow a few subnormal steps below zero: at some pixels all eight
        # weighted taps round to -0.0, and the sum's 0.0 start makes it +0.0
        # (small shape: subnormal arithmetic is slow)
        ramp = np.tile(np.arange(5.0), (4, 1))
        bumps = np.array(
            [[1, 0, 0, 1, 0], [0, 1, 0, 0, 1], [0, 1, 0, 0, 1], [1, 1, 0, 1, 0]]
        )
        self._assert_matches_reference(ramp * scale, (ramp + bumps) * scale)

    @staticmethod
    def _assert_matches_reference(img0, img1):
        for alpha in (0.5, 1, 15, 100):
            for iters in (1, 7, 50, 200):
                flow = horn_schunck(img0, img1, alpha, iters)
                u, v = reference_horn_schunck(img0, img1, alpha, iters)
                assert flow.u.tobytes() == u.tobytes(), (alpha, iters)
                assert flow.v.tobytes() == v.tobytes(), (alpha, iters)


class TestFlowDerivatives:
    def test_time_derivative_identical_fields(self):
        f = FlowField(np.ones((4, 4)), np.zeros((4, 4)))
        du, dv = flow_time_derivative(f, f)
        np.testing.assert_array_equal(du, 0.0)
        np.testing.assert_array_equal(dv, 0.0)

    def test_time_derivative_constant_difference(self):
        a = FlowField(np.zeros((4, 4)), np.zeros((4, 4)))
        b = FlowField(np.full((4, 4), 2.0), np.zeros((4, 4)))
        du, dv = flow_time_derivative(a, b)
        np.testing.assert_array_equal(du, 2.0)
        np.testing.assert_array_equal(dv, 0.0)

    def test_time_derivative_matches_elementwise_oracle(self):
        rng = np.random.default_rng(5)
        a = FlowField(rng.normal(size=(6, 7)), rng.normal(size=(6, 7)))
        b = FlowField(rng.normal(size=(6, 7)), rng.normal(size=(6, 7)))
        du, dv = flow_time_derivative(a, b)
        for y in range(6):
            for x in range(7):
                assert du[y, x] == b.u[y, x] - a.u[y, x]
                assert dv[y, x] == b.v[y, x] - a.v[y, x]

    def test_time_derivative_shape_mismatch(self):
        a = FlowField(np.zeros((4, 4)), np.zeros((4, 4)))
        b = FlowField(np.zeros((5, 4)), np.zeros((5, 4)))
        with pytest.raises(ValueError):
            flow_time_derivative(a, b)

    def test_divergence_constant_flow(self):
        f = FlowField(np.full((5, 5), 3.0), np.full((5, 5), -2.0))
        np.testing.assert_array_equal(flow_divergence(f), 0.0)

    def test_divergence_linear_field(self):
        x, y = np.meshgrid(np.arange(7, dtype=float), np.arange(6, dtype=float))
        f = FlowField(x, y)
        div = flow_divergence(f)
        np.testing.assert_allclose(div[1:-1, 1:-1], 2.0, atol=1e-12)

    def test_vorticity_constant_flow(self):
        f = FlowField(np.full((5, 5), 3.0), np.full((5, 5), 1.0))
        np.testing.assert_array_equal(flow_vorticity(f), 0.0)

    def test_vorticity_solid_rotation(self):
        x, y = np.meshgrid(np.arange(7, dtype=float), np.arange(6, dtype=float))
        f = FlowField(-y, x)
        vort = flow_vorticity(f)
        np.testing.assert_allclose(vort[1:-1, 1:-1], 2.0, atol=1e-12)

    @pytest.mark.parametrize("op,oracle", [
        (flow_divergence, naive_divergence),
        (flow_vorticity, naive_vorticity),
    ])
    def test_random_field_matches_loop_oracle(self, op, oracle):
        rng = np.random.default_rng(11)
        f = FlowField(rng.normal(size=(9, 12)), rng.normal(size=(9, 12)))
        np.testing.assert_allclose(op(f), oracle(f.u, f.v), atol=1e-12)

    @pytest.mark.parametrize("op", [flow_divergence, flow_vorticity])
    def test_linearity(self, op):
        rng = np.random.default_rng(13)
        f = FlowField(rng.normal(size=(8, 8)), rng.normal(size=(8, 8)))
        g = FlowField(rng.normal(size=(8, 8)), rng.normal(size=(8, 8)))
        a, b = 2.5, -1.25
        combo = FlowField(a * f.u + b * g.u, a * f.v + b * g.v)
        np.testing.assert_allclose(op(combo), a * op(f) + b * op(g), atol=1e-10)

    def test_too_small_field(self):
        f = FlowField(np.zeros((2, 5)), np.zeros((2, 5)))
        with pytest.raises(ValueError, match="too small"):
            flow_divergence(f)

