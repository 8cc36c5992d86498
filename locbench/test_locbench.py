"""Self-test of the benchmark's own arithmetic: normalisation, error formulas,
percentiles and the per-layer figures derived from spans."""

import math
import statistics

import numpy as np
import pytest

import independent
from hostref import PairedClock, median_hd, normalise, percentile
from tracing import Tracer


class TestNormalise:
    def test_reference_at_nominal_keeps_time(self):
        assert normalise(2.5, 0.002, 0.002, nominal_s=0.002) == pytest.approx(2.5)

    def test_slow_host_scales_down(self):
        # reference took twice its nominal time, so the host ran at half speed
        assert normalise(3.0, 0.003, 0.005, nominal_s=0.002) == pytest.approx(1.5)

    def test_rejects_non_positive_reference(self):
        with pytest.raises(ValueError):
            normalise(1.0, 0.0, 0.002)

    def test_paired_clock_shares_the_middle_reference(self):
        class Reference:
            def __init__(self):
                self.times = iter([0.002, 0.004, 0.002])

            def measure(self):
                return next(self.times)

        clock = PairedClock(Reference())
        first = clock.close(1.0)
        second = clock.close(1.0)
        assert clock.raw_refs == [0.002, 0.004, 0.002]
        assert first == pytest.approx(second) == pytest.approx(normalise(1.0, 0.002, 0.004))


class TestPercentile:
    def test_median_of_even_count_interpolates(self):
        assert percentile([4, 1, 3, 2], 50) == 2.5

    def test_ends(self):
        assert percentile([5, 7, 6], 0) == 5
        assert percentile([5, 7, 6], 100) == 7

    def test_matches_numpy_linear(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal(37)
        for q in (10, 25, 50, 90, 99):
            assert percentile(values, q) == pytest.approx(np.percentile(values, q))

    def test_quartiles_match_statistics_inclusive(self):
        values = [3.0, 9.0, 1.0, 4.0, 7.0, 2.0, 8.0]
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        assert (percentile(values, 25), percentile(values, 75)) == pytest.approx((q1, q3))

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestMedianHD:
    def test_small_samples(self):
        assert median_hd([3.0]) == pytest.approx(3.0)
        assert median_hd([1.0, 4.0]) == pytest.approx(2.5)
        assert median_hd([5.0] * 7) == pytest.approx(5.0)

    def test_symmetric_sample_gives_its_centre(self):
        assert median_hd([7.0, 1.0, 4.0, 6.0, 2.0]) == pytest.approx(4.0)

    def test_affine_equivariance(self):
        values = [0.3, 8.0, 1.0, 2.5, 2.0, 9.5]
        assert median_hd([2.0 * v + 3.0 for v in values]) == pytest.approx(2.0 * median_hd(values) + 3.0)

    def test_close_to_the_sample_median_for_large_samples(self):
        values = np.random.default_rng(5).standard_normal(2001)
        assert median_hd(values) == pytest.approx(np.median(values), abs=0.02)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            median_hd([])


def axis_angle_quat(axis, angle):
    axis = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    return np.concatenate([[math.cos(angle / 2)], math.sin(angle / 2) * axis])


class TestErrorFormulas:
    def test_translation_error_is_euclidean(self):
        assert independent.translation_error((1.0, 2.0, 3.0), (4.0, 6.0, 3.0)) == pytest.approx(5.0)

    @pytest.mark.parametrize("angle", [1e-9, 1e-4, 0.3, 2.0, math.pi - 1e-6])
    def test_rotation_error_recovers_angle(self, angle):
        q = axis_angle_quat((0.3, -1.0, 0.5), angle)
        identity = np.array([1.0, 0.0, 0.0, 0.0])
        assert independent.rotation_error(q, identity) == pytest.approx(angle, rel=1e-9, abs=1e-15)
        # q and -q are the same rotation
        assert independent.rotation_error(-q, identity) == pytest.approx(angle, rel=1e-9, abs=1e-15)

    def test_rotation_error_is_relative(self):
        a = axis_angle_quat((0.0, 0.0, 1.0), 0.4)
        b = axis_angle_quat((0.0, 0.0, 1.0), 1.1)
        assert independent.rotation_error(a, b) == pytest.approx(0.7)

    def test_mean_errors(self):
        identity = np.array([1.0, 0.0, 0.0, 0.0])
        est = [(np.zeros(3), identity), (np.array([0.0, 0.0, 2.0]), axis_angle_quat((1, 0, 0), 0.2))]
        truth = [(np.zeros(3), identity), (np.zeros(3), identity)]
        assert independent.mean_errors(est, truth) == pytest.approx((1.0, 0.1))


class TestProjection:
    def test_rotation_matrix_quarter_turn_about_z(self):
        r = independent.rotation_matrix(axis_angle_quat((0, 0, 1), math.pi / 2))
        assert r @ np.array([1.0, 0.0, 0.0]) == pytest.approx([0.0, 1.0, 0.0])
        assert r.T @ r == pytest.approx(np.eye(3))

    def test_pinhole(self):
        identity = np.array([1.0, 0.0, 0.0, 0.0])
        pts = np.array([[0.0, 0.0, 10.0], [1.0, -2.0, 4.0]])
        uv, depth = independent.project_points(np.zeros(3), identity, 200.0, 100.0, 127.5, 63.5, pts)
        assert uv == pytest.approx(np.array([[127.5, 63.5], [177.5, 13.5]]))
        assert depth == pytest.approx([10.0, 4.0])

    def test_camera_pose_moves_the_point(self):
        # camera 10 m behind the origin looking along +y: world +x is image +u
        q = axis_angle_quat((1, 0, 0), -math.pi / 2)
        uv, depth = independent.project_points((0.0, -10.0, 0.0), q, 100.0, 100.0, 0.0, 0.0, [[1.0, 0.0, 0.0]])
        assert depth[0] == pytest.approx(10.0)
        assert uv[0] == pytest.approx([10.0, 0.0])


class TestPoseAndBits:
    def test_pose_sanity(self):
        assert independent.pose_is_sane(np.zeros(3), [1.0, 0.0, 0.0, 0.0])
        assert not independent.pose_is_sane([np.nan, 0, 0], [1.0, 0.0, 0.0, 0.0])
        assert not independent.pose_is_sane(np.zeros(3), [1.0, 0.1, 0.0, 0.0])

    def test_same_bits_sees_signed_zero_and_dtype(self):
        a = np.zeros(4, np.float32)
        b = a.copy()
        b[2] = -0.0
        assert np.array_equal(a, b) and not independent.same_bits(a, b)
        assert not independent.same_bits(a, a.astype(np.float64))
        assert independent.same_bits(a, a.copy())


class TestLayerArithmetic:
    def test_self_time_counts_and_rematch_ratio(self):
        tracer = Tracer(lambda: 2.0)

        def span(name, start, end, parent, info=None):
            tracer.spans.append({"name": name, "start": start, "end": end, "parent": parent,
                                 "scale": 2.0, "info": info})

        mark = tracer.mark()
        # one optimize over 2 keyframes that converged after 1 pass: 2 matching calls inside it
        span("posegraph.optimize", 0.0, 1.0, -1,
             {"keyframes": 2, "iterations": 1, "termination": "cost_tolerance", "max_iterations": 30})
        span("matching.match_frame_arrays", 0.1, 0.3, 0, {"points": 4, "lines": 10})
        span("matching.match_frame_arrays", 0.4, 0.5, 0, {"points": 6, "lines": 20})
        span("heatmap.read_frame", 1.0, 1.001, -1)
        tracer.geometry_calls += 7
        m = tracer.layer_metrics(mark, cycles=1)
        assert m["matching.calls"] == 2
        assert m["matching.ms_per_call"] == pytest.approx(1000 * 2.0 * 0.15)
        assert (m["matching.points_per_call"], m["matching.lines_per_call"]) == (5.0, 15.0)
        # 1.0 s of optimize minus 0.3 s of matching, times the host scale 2
        assert m["posegraph.self_s"] == pytest.approx(1.4)
        assert m["posegraph.rematch_ratio"] == pytest.approx(1.0)
        assert m["posegraph.cap_hits"] == 0
        assert m["heatmap.read_ms"] == pytest.approx(2.0)
        assert m["heatmap.render_ms"] == 0.0
        assert m["geometry.calls"] == 7
