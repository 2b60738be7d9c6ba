"""Forward bridge simulation, the score-form reverse drift, moments,
serialization, determinism."""

import struct
import warnings

import numpy as np
import pytest

from bridgelab import rng as _rng
from bridgelab.dynamics import (
    PathEnsemble,
    estimate_marginal_moments,
    simulate_ensemble,
)
from bridgelab.metrics import convergence_slope
from bridgelab.sampler import apply_step, step_euler_z
from bridgelab.schedule import Schedule, bridge_coefficients, eval_schedule

LINEAR = Schedule(kind="linear", gamma_max=0.125)


def reverse_drift_from_score(
    sched: Schedule,
    eps: float,
    x: np.ndarray,
    xT: np.ndarray,
    t: float,
    score: np.ndarray,
) -> np.ndarray:
    """Reverse-family drift f x + s xT - (g^2/2 + eps) score from the raw score.

    eps = 0 gives the deterministic-flow drift, eps = g^2/2 the full reverse
    SDE, anything in between a marginal-preserving mixture.  It shares no
    code with sampler.step_euler_z, so it serves as that step's independent
    oracle.
    """
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    bc = bridge_coefficients(sched, t)
    return bc.f * x + bc.s * xT - (0.5 * bc.g_sq + eps) * score


def _zero_gamma_schedule() -> Schedule:
    return Schedule(
        kind="custom",
        alpha_fn=lambda t: 1.0 - t,
        beta_fn=lambda t: t,
        gamma_fn=lambda t: 0.0,
    )


class TestForwardStepEm:
    """The forward Euler-Maruyama step as simulate_ensemble takes it."""

    def test_drift_only_step(self):
        """One step minus its keyed noise draw is the pure drift update."""
        times = np.array([0.5, 0.51])
        ens = simulate_ensemble(LINEAR, np.array([0.5]), np.array([1.0]), times, 1, 3)
        z = _rng.stream(3, _rng.TAG_FORWARD, 0, 0).standard_normal((1, 1))
        noise = np.sqrt(bridge_coefficients(LINEAR, 0.5).g_sq * 0.01) * z
        np.testing.assert_allclose(ens.paths[:, 1] - noise, [[0.51]], rtol=0, atol=1e-15)

    def test_negative_dt_rejected(self):
        for times in ([0.5, 0.4], [0.3, 0.3, 0.4]):
            with pytest.raises(ValueError, match="increasing"):
                simulate_ensemble(
                    LINEAR, np.array([0.0]), np.array([1.0]), np.array(times), 1, 0
                )

    def test_nonfinite_state_rejected(self):
        """Non-finite start values or endpoint fail loudly and name the argument."""
        cases = [
            (np.array([np.inf]), np.array([1.0]), "start"),
            (np.array([0.0]), np.array([np.nan]), "xT"),
        ]
        times = np.linspace(0.1, 0.5, 5)
        for start, xT, name in cases:
            with pytest.raises(ValueError, match=name):
                simulate_ensemble(LINEAR, start, xT, times, 8, 0)

    @pytest.mark.parametrize(
        "start, xT, n_paths, match",
        [
            (np.zeros(3), np.zeros(2), 8, r"start must be a d-vector like xT, d = 2; got shape \(3,\)"),
            (np.zeros((8, 2)), np.zeros(2), 8, r"start .* d = 2; got shape \(8, 2\)"),
            (np.zeros(2), np.zeros((8, 2)), 8, r"xT must be a d-vector, got shape \(8, 2\)"),
            (0.0, 1.0, 8, r"xT must be a d-vector, got shape \(\)"),
            (np.zeros(1), np.ones(1), 4.5, "n_paths must be an integer >= 1, got 4.5"),
            (np.zeros(1), np.ones(1), 0, "n_paths must be an integer >= 1, got 0"),
            (np.zeros(1), np.ones(1), True, "n_paths must be an integer >= 1, got True"),
        ],
        ids=["start-length", "start-rows", "xT-rows", "scalar-xT", "float-n_paths",
             "zero-n_paths", "bool-n_paths"],
    )
    def test_bad_argument_rejected_before_any_chunk_runs(
        self, monkeypatch, start, xT, n_paths, match
    ):
        """A start or xT that is not one d-vector, or a count that is not an
        integer >= 1, names the argument before the chunk workers start."""
        monkeypatch.setattr(_rng, "run_chunked", lambda *args: pytest.fail("a chunk ran"))
        with pytest.raises(ValueError, match=match):
            simulate_ensemble(LINEAR, start, xT, np.linspace(0.1, 0.5, 5), n_paths, 0)

    @staticmethod
    def _reference(start, xT, times, n_paths, seed):
        """The Euler-Maruyama loop in its expression form, chunk by chunk."""
        d = xT.shape[0]
        out = np.empty((n_paths, times.shape[0], d))
        for chunk, sl in _rng.chunk_slices(n_paths):
            rows = sl.stop - sl.start
            x = np.broadcast_to(start, (rows, d)).copy()
            out[sl, 0] = x
            for k in range(times.shape[0] - 1):
                z = _rng.stream(seed, _rng.TAG_FORWARD, k, chunk).standard_normal((rows, d))
                dt = float(times[k + 1] - times[k])
                bc = bridge_coefficients(LINEAR, float(times[k]))
                x = x + (bc.f * x + bc.s * xT) * dt + np.sqrt(bc.g_sq * dt) * z
                out[sl, k + 1] = x
        return out

    @pytest.mark.parametrize("record", [True, False])
    def test_in_place_step_matches_the_expression_form_bit_for_bit(self, record):
        n_paths = 5000  # two chunks, the second partial
        assert len(_rng.chunk_slices(n_paths)) == 2
        xT = np.array([1.0, -0.5])
        start = np.array([0.2, -0.1])
        times = np.linspace(0.05, 0.8, 16)
        want = self._reference(start, xT, times, n_paths, 17)
        ens = simulate_ensemble(LINEAR, start, xT, times, n_paths, 17, record=record)
        if record:
            assert ens.paths.tobytes() == want.tobytes()
        else:
            assert ens.paths.tobytes() == want[:, -1:].tobytes()

    def test_caller_arrays_are_left_unchanged(self):
        start, xT = np.array([0.2, -0.1]), np.array([1.0, -0.5])
        times = np.linspace(0.05, 0.8, 6)
        simulate_ensemble(LINEAR, start, xT, times, 5000, 3)
        assert start.tolist() == [0.2, -0.1]
        assert xT.tolist() == [1.0, -0.5]


class TestReverseDrift:
    """The drift family through the euler_z step at z = 0: x' = x - drift dt."""

    def test_midpoint_example(self):
        coeffs = step_euler_z(LINEAR, 0.5, 0.25, 0.0)
        got = apply_step(coeffs, np.array([1.0]), np.array([2.0]), np.array([1.4]))
        np.testing.assert_allclose((1.4 - got) / 0.25, [1.0], rtol=0, atol=1e-14)

    def test_gamma_singularity(self):
        with pytest.raises(ValueError, match="singular"):
            step_euler_z(LINEAR, 1.0, 0.25, 0.0)

    @pytest.mark.parametrize("eps", [0.0, 3e-4, 2e-3])
    @pytest.mark.parametrize("sched", [LINEAR, Schedule(kind="trig"), Schedule(kind="ddbm_ve")])
    def test_each_form_matches_the_other(self, sched, eps):
        """The denoiser-form euler_z step equals the score-form drift step."""
        rng = np.random.default_rng(11)
        dt = 0.05
        for t in (0.2, 0.5, 0.8):
            ev = eval_schedule(sched, t)
            x = rng.standard_normal(4)
            xT = rng.standard_normal(4)
            x_hat0 = rng.standard_normal(4)
            score = (ev.alpha * x_hat0 + ev.beta * xT - x) / ev.gamma**2
            a = apply_step(step_euler_z(sched, t, dt, eps), x_hat0, xT, x)
            b = x - reverse_drift_from_score(sched, eps, x, xT, t, score) * dt
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


class TestSimulateEnsemble:
    def test_same_seed_is_bit_identical(self):
        times = np.linspace(0.0, 0.6, 61)
        runs = [
            simulate_ensemble(LINEAR, np.array([0.0]), np.array([1.0]), times, 256, 7)
            for _ in range(2)
        ]
        np.testing.assert_array_equal(runs[0].paths, runs[1].paths)

    def test_thread_count_does_not_change_output(self):
        times = np.linspace(0.0, 0.6, 31)
        a = simulate_ensemble(
            LINEAR, np.array([0.0]), np.array([1.0]), times, 10000, 3, threads=1
        )
        b = simulate_ensemble(
            LINEAR, np.array([0.0]), np.array([1.0]), times, 10000, 3, threads=4
        )
        np.testing.assert_array_equal(a.paths, b.paths)

    def test_zero_noise_run_ignores_seed(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sched = _zero_gamma_schedule()
            times = np.linspace(0.0, 0.9, 10)
            a = simulate_ensemble(sched, np.array([0.0]), np.array([1.0]), times, 1, 1)
            b = simulate_ensemble(sched, np.array([0.0]), np.array([1.0]), times, 1, 2)
        np.testing.assert_array_equal(a.paths, b.paths)

    def test_forward_moments_match_kernel(self):
        """EM marginals at t = 0.5 match the closed-form kernel moments."""
        times = np.linspace(0.0, 0.5, 501)
        ens = simulate_ensemble(
            LINEAR, np.array([0.0]), np.array([1.0]), times, 20000, 5, threads=2
        )
        mom = estimate_marginal_moments(ens, -1)
        ev = eval_schedule(LINEAR, 0.5)
        assert abs(mom.mean[0] - ev.beta) <= 4.0 * mom.se_mean[0]
        assert abs(mom.cov[0, 0] - ev.gamma**2) <= 0.03 * ev.gamma**2

    def test_weak_convergence_order_of_terminal_mean(self):
        """Terminal-mean error shrinks at first order in dt."""
        sched = Schedule(kind="trig", gamma_scale=0.005)
        truth = eval_schedule(sched, 0.9).beta
        dts = [1e-1, 1e-2, 1e-3]
        errors = []
        for dt in dts:
            n_steps = round(0.9 / dt)
            times = np.linspace(0.0, 0.9, n_steps + 1)
            ens = simulate_ensemble(
                sched, np.array([0.0]), np.array([1.0]), times, 4096, 13,
                threads=2, record=False,
            )
            errors.append(abs(float(ens.paths[:, -1, 0].mean()) - truth))
        assert convergence_slope(dts, errors) >= 0.9

    def test_step_errors_carry_time_context(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sched = Schedule(
                kind="custom",
                alpha_fn=lambda t: 0.5 - t,
                beta_fn=lambda t: t,
                gamma_fn=lambda t: t,
            )
            times = np.linspace(0.1, 0.9, 9)
            with pytest.raises(
                ValueError, match=r"step 4 at t = 0\.5: alpha\(0\.5\) = 0\.0 is singular"
            ):
                simulate_ensemble(sched, np.array([0.5]), np.array([1.0]), times, 4, 0)

    def test_record_false_keeps_only_terminal_slice(self):
        times = np.linspace(0.0, 0.5, 11)
        ens = simulate_ensemble(
            LINEAR, np.array([0.0]), np.array([1.0]), times, 64, 1, record=False
        )
        assert ens.paths.shape == (64, 1, 1)
        assert ens.times.shape == (1,)
        assert ens.times[0] == times[-1]

    def test_record_false_terminal_equals_recorded_terminal(self):
        times = np.linspace(0.0, 0.5, 11)
        full = simulate_ensemble(
            LINEAR, np.array([0.0]), np.array([1.0]), times, 64, 1, record=True
        )
        last = simulate_ensemble(
            LINEAR, np.array([0.0]), np.array([1.0]), times, 64, 1, record=False
        )
        np.testing.assert_array_equal(full.paths[:, -1:, :], last.paths)


class TestMomentEstimate:
    def test_identical_paths_have_zero_cov(self):
        paths = np.zeros((2, 1, 2)) + 0.7
        mom = estimate_marginal_moments(PathEnsemble(paths, np.array([0.5]), 0), 0)
        np.testing.assert_array_equal(mom.cov, np.zeros((2, 2)))

    def test_two_point_example(self):
        paths = np.array([[[0.0]], [[2.0]]])
        mom = estimate_marginal_moments(PathEnsemble(paths, np.array([0.5]), 0), 0)
        np.testing.assert_allclose(mom.mean, [1.0], rtol=0, atol=0)
        np.testing.assert_allclose(mom.cov, [[2.0]], rtol=0, atol=0)
        np.testing.assert_allclose(mom.se_mean, [1.0], rtol=0, atol=0)
        assert mom.n == 2

    def test_single_path_rejected(self):
        ens = PathEnsemble(np.zeros((1, 1, 1)), np.array([0.5]), 0)
        with pytest.raises(ValueError, match="at least 2"):
            estimate_marginal_moments(ens, 0)

    def test_overflowing_moments_are_rejected_naming_paths_and_t(self):
        """Finite paths whose moments overflow; before, cov and se_mean came back inf."""
        ens = simulate_ensemble(LINEAR, np.array([1e200]), np.array([1.0]),
                                np.linspace(0.0, 0.5, 11), 50, 0, record=False)
        with pytest.raises(ValueError, match="of the 50 paths at t = 0.5 is not finite"):
            estimate_marginal_moments(ens, -1)

    def test_cov_is_symmetric(self):
        rng = np.random.default_rng(2)
        ens = PathEnsemble(rng.standard_normal((50, 1, 3)), np.array([0.5]), 0)
        mom = estimate_marginal_moments(ens, 0)
        np.testing.assert_allclose(mom.cov, mom.cov.T, rtol=0, atol=1e-12)
        assert np.all(np.diag(mom.cov) >= 0)


class TestPathEnsembleSerialization:
    def test_binary_round_trip_is_exact(self):
        rng = np.random.default_rng(8)
        ens = PathEnsemble(rng.standard_normal((5, 4, 3)), np.linspace(0.9, 0.1, 4), 42)
        back = PathEnsemble.from_binary(ens.to_binary())
        np.testing.assert_array_equal(back.paths, ens.paths)
        np.testing.assert_array_equal(back.times, ens.times)
        assert back.seed == 42

    def test_binary_parts_view_the_arrays_and_join_to_the_blob(self):
        rng = np.random.default_rng(9)
        ens = PathEnsemble(rng.standard_normal((5, 4, 3)), np.linspace(0.9, 0.1, 4), 42)
        header, times, paths = ens.binary_parts()
        assert times.obj is ens.times and paths.obj is ens.paths
        assert ens.to_binary() == header + ens.times.tobytes() + ens.paths.tobytes()
        # a strided array is written as its contiguous copy would be
        strided = PathEnsemble(ens.paths[:, ::-1], ens.times[::-1], 42)
        want = PathEnsemble(ens.paths[:, ::-1].copy(), ens.times[::-1].copy(), 42)
        assert strided.to_binary() == want.to_binary()

    def test_binary_rejects_other_blobs(self):
        with pytest.raises(ValueError, match="blob"):
            PathEnsemble.from_binary(b"not a path ensemble at all")

    def test_binary_rejects_corrupt_blobs(self):
        """Truncated, padded, inconsistent or non-finite blobs raise ValueError."""
        blob = PathEnsemble(np.ones((2, 3, 1)), np.linspace(0.9, 0.1, 3), 5).to_binary()
        bad_dims = blob[:8] + struct.pack("<qqqq", 2, -3, 1, 5) + blob[40:]
        inf_state = blob[:-8] + np.array([np.inf]).tobytes()
        nan_time = blob[:40] + np.array([np.nan]).tobytes() + blob[48:]
        cases = [
            (blob[:20], "header is truncated"),
            (bad_dims, ">= 0"),
            (blob + b"\0" * 8, "header needs"),
            (blob[:-8], "header needs"),
            (inf_state, "finite"),
            (nan_time, "finite"),
        ]
        for bad, match in cases:
            with pytest.raises(ValueError, match=match):
                PathEnsemble.from_binary(bad)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="paths"):
            PathEnsemble(np.zeros((2, 3)), np.array([0.1]), 0)
        with pytest.raises(ValueError, match="times"):
            PathEnsemble(np.zeros((2, 3, 1)), np.array([0.1]), 0)
