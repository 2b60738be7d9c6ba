"""Diversity and discrepancy metrics on hand-checkable examples."""

import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from bridgelab import metrics
from bridgelab.metrics import (
    afd,
    convergence_slope,
    energy_distance,
    energy_permutation_quantile,
    random_projection,
)
from bridgelab.metrics import _pair_distances


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestPairDistances:
    """The NumPy pair distances against scipy's cdist, an independent oracle, bit for bit."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8, 16, 64])
    @pytest.mark.parametrize("n", [2, 15, 16, 17, 300])
    def test_equals_cdist(self, n, d):
        rng = np.random.default_rng(1000 * d + n)
        a = 3.0 * rng.standard_normal((n, d)) + 0.5
        b = rng.standard_normal((n + 3, d))
        assert _same_bits(_pair_distances(a, b), cdist(a, b))
        assert _same_bits(_pair_distances(b, a), cdist(b, a))
        assert _same_bits(_pair_distances(a, a), cdist(a, a))

    @pytest.mark.parametrize("d", [1, 2, 16])
    def test_stack_equals_cdist_per_slice(self, d):
        rng = np.random.default_rng(d)
        a = rng.standard_normal((4, 17, d))
        b = rng.standard_normal((4, 9, d))
        got = _pair_distances(a, b)
        assert _same_bits(got, [cdist(x, y) for x, y in zip(a, b)])

    def test_energy_distance_equals_the_cdist_formula(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((70, 2))
        b = rng.standard_normal((45, 2)) + 0.2
        want = (2.0 * (cdist(a, b).sum() / (70 * 45)) - cdist(a, a).sum() / (70 * 69)
                - cdist(b, b).sum() / (45 * 44))
        assert _same_bits(energy_distance(a, b), want)

    def test_energy_distance_in_row_tiles_equals_the_tiled_cdist_formula(self, monkeypatch):
        """40 and 37 rows in tiles of 7: several tiles per block and a ragged last tile.

        Seed 17 gives data whose tiled and whole-block sums differ in the last
        bits, so the bit check tells the two orders apart."""
        monkeypatch.setattr(metrics, "_ROW_TILE", 7)
        rng = np.random.default_rng(17)
        a = rng.standard_normal((40, 3))
        b = 1.5 * rng.standard_normal((37, 3)) + 0.4

        def tiled(x, y):
            total = 0.0
            for lo in range(0, x.shape[0], 7):
                total += cdist(x[lo : lo + 7], y).sum()
            return total

        got = energy_distance(a, b)
        want = 2.0 * (tiled(a, b) / (40 * 37)) - tiled(a, a) / (40 * 39) - tiled(b, b) / (37 * 36)
        assert _same_bits(got, want)
        full = (2.0 * (cdist(a, b).sum() / (40 * 37)) - cdist(a, a).sum() / (40 * 39)
                - cdist(b, b).sum() / (37 * 36))
        np.testing.assert_allclose(got, full, rtol=1e-12, atol=0)


class TestAfd:
    def test_two_point_group_is_their_distance(self):
        """{(0,0), (3,4)}: both ordered pairs contribute 5, so afd = 5."""
        report = afd([np.array([[0.0, 0.0], [3.0, 4.0]])])
        assert report.afd == 5.0
        assert report.per_group == (5.0,)

    def test_identical_replicates_have_zero_afd(self):
        report = afd([np.ones((4, 3))])
        assert report.afd == 0.0

    def test_mean_over_groups(self):
        groups = [
            np.array([[0.0], [1.0]]),
            np.array([[0.0], [3.0]]),
        ]
        report = afd(groups)
        assert report.per_group == (1.0, 3.0)
        assert report.afd == 2.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((12, 3))
        a = afd([g]).afd
        b = afd([g[rng.permutation(12)]]).afd
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_scaling_is_homogeneous(self):
        rng = np.random.default_rng(1)
        g = rng.standard_normal((8, 2))
        base = afd([g]).afd
        scaled = afd([-2.5 * g]).afd
        np.testing.assert_allclose(scaled, 2.5 * base, rtol=1e-12, atol=0)

    def test_single_replicate_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            afd([np.array([[1.0, 2.0]])])

    def test_empty_groups_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            afd([])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError, match="feature dimension"):
            afd([np.zeros((2, 2)), np.zeros((2, 3))])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_replicates_rejected(self, bad):
        groups = [np.zeros((3, 2)), np.zeros((3, 2))]
        groups[1][0, 0] = bad
        with pytest.raises(ValueError, match=r"groups\[1\] contains non-finite"):
            afd(groups)

    def test_non_finite_projection_rejected(self):
        with pytest.raises(ValueError, match="matrix contains non-finite"):
            afd([np.zeros((3, 2))], np.array([[1.0, np.nan]]))

    @pytest.mark.parametrize("stack_entries", [None, 50])
    @pytest.mark.parametrize("d", [1, 2, 16, 64])
    def test_ragged_groups_equal_cdist_per_group(self, d, stack_entries, monkeypatch):
        """Groups of mixed sizes, stacked by size (and split into several stacks
        when the entry bound is small), give each group's cdist mean exactly."""
        if stack_entries is not None:
            monkeypatch.setattr(metrics, "_AFD_STACK_ENTRIES", stack_entries)
        rng = np.random.default_rng(d)
        groups = [rng.standard_normal((size, d)) for size in (5, 2, 17, 5, 16, 40, 5, 2)]
        report = afd(groups)
        want = [cdist(g, g).sum() / (len(g) ** 2 - len(g)) for g in groups]
        assert _same_bits(report.per_group, want)
        assert _same_bits(report.afd, np.mean(want))

    def test_projected_groups_equal_cdist_per_group(self):
        rng = np.random.default_rng(9)
        groups = [rng.standard_normal((8, 3)) for _ in range(20)]
        proj = random_projection(3, 64, seed=4)
        want = [cdist(g @ proj.T, g @ proj.T).sum() / 56 for g in groups]
        assert _same_bits(afd(groups, proj).per_group, want)

    def test_overflowing_group_sum_is_rejected_naming_the_group(self):
        """Finite rows whose distances overflow; before, afd returned inf."""
        groups = [np.zeros((3, 1)), np.array([[0.0], [1e200], [1.0]]), np.ones((3, 1))]
        with pytest.raises(ValueError, match="^afd: the distance sum of group 1 is not finite"):
            afd(groups)
        projected = [np.zeros((3, 2)), np.array([[0.0, 0.0], [1e300, 1e300]])]
        with pytest.raises(ValueError, match="^afd: the distance sum of group 1 is not finite"):
            afd(projected, np.array([[1e10, 1e10]]))

    def test_projection_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="projection takes 3-d inputs, groups are 2-d"):
            afd([np.zeros((3, 2))], np.ones((1, 3)))


class TestFeatureMaps:
    def test_projection_applies_the_matrix(self):
        g = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert afd([g], np.array([[2.0, 0.0]])).afd == 2.0

    def test_projection_changes_afd_consistently(self):
        """afd in a projected space equals afd of the projected points."""
        rng = np.random.default_rng(2)
        g = rng.standard_normal((6, 4))
        proj = random_projection(4, 2, seed=3)
        direct = afd([g @ proj.T]).afd
        mapped = afd([g], proj).afd
        np.testing.assert_allclose(mapped, direct, rtol=0, atol=1e-12)

    def test_random_projection_is_seeded(self):
        a = random_projection(5, 2, seed=7)
        b = random_projection(5, 2, seed=7)
        c = random_projection(5, 2, seed=8)
        np.testing.assert_array_equal(a, b)
        assert np.any(a != c)
        assert a.shape == (2, 5)

    @pytest.mark.parametrize("seed", [True, 2.5, "7", None])
    def test_random_projection_seed_must_be_an_integer(self, seed):
        with pytest.raises(ValueError, match="^seed must be an integer"):
            random_projection(5, 2, seed=seed)


class TestEnergyDistance:
    def test_separated_point_masses(self):
        """Two copies at 0 vs two at 10: D = 2*10 - 0 - 0 = 20."""
        a = np.zeros((2, 1))
        b = np.full((2, 1), 10.0)
        assert energy_distance(a, b) == 20.0

    def test_self_distance_is_nonpositive_and_tiny(self):
        """The U-statistic on a sample against itself stays at or below 0."""
        x = np.random.default_rng(4).standard_normal((300, 2))
        d = energy_distance(x, x)
        assert d <= 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((40, 2))
        b = rng.standard_normal((50, 2)) + 0.3
        np.testing.assert_allclose(
            energy_distance(a, b), energy_distance(b, a), rtol=0, atol=1e-12
        )

    def test_grows_with_separation(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((100, 1))
        b = rng.standard_normal((100, 1))
        near = energy_distance(a, b + 0.1)
        far = energy_distance(a, b + 3.0)
        assert far > near

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            energy_distance(np.zeros((1, 1)), np.zeros((5, 1)))

    def test_permutation_quantile_is_deterministic(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((60, 2))
        b = rng.standard_normal((60, 2))
        q1 = energy_permutation_quantile(a, b, n_permutations=50, seed=9)
        q2 = energy_permutation_quantile(a, b, n_permutations=50, seed=9)
        assert q1 == q2
        assert q1 > 0

    def test_permutation_quantile_bounds_null_statistic(self):
        """Same-distribution samples fall under the permutation threshold."""
        rng = np.random.default_rng(8)
        a = rng.standard_normal((120, 2))
        b = rng.standard_normal((120, 2))
        d = energy_distance(a, b)
        q = energy_permutation_quantile(a, b, n_permutations=200, seed=0)
        assert d <= 3 * q

    def test_permutation_test_needs_two_per_side(self):
        with pytest.raises(ValueError, match="at least 2"):
            energy_permutation_quantile(np.zeros((1, 1)), np.zeros((4, 1)))


def loop_permutation_quantile(a, b, n_permutations, seed, q):
    """Reference null: one fancy-indexed copy of each distance block per permutation."""
    n, m = a.shape[0], b.shape[0]
    pool = np.concatenate([a, b], axis=0)
    dists = cdist(pool, pool)
    gen = np.random.default_rng(seed)
    stats = np.empty(n_permutations)
    for p in range(n_permutations):
        perm = gen.permutation(n + m)
        ia, ib = perm[:n], perm[n:]
        cross = dists[np.ix_(ia, ib)].mean()
        within_a = dists[np.ix_(ia, ia)].sum() / (n * (n - 1))
        within_b = dists[np.ix_(ib, ib)].sum() / (m * (m - 1))
        stats[p] = 2.0 * cross - within_a - within_b
    return float(np.quantile(stats, q))


class TestPermutationOracle:
    """The tiled matrix-product null against the per-permutation loop."""

    @pytest.mark.parametrize("n_permutations", [1, 63, 64, 65, 200, 255, 256, 257])
    @pytest.mark.parametrize("q", [0.0, 0.5, 0.95, 1.0])
    def test_matches_loop(self, n_permutations, q):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((40, 3))
        b = 1.5 * rng.standard_normal((37, 3)) + 0.4
        got = energy_permutation_quantile(a, b, n_permutations=n_permutations, seed=3, q=q)
        want = loop_permutation_quantile(a, b, n_permutations, 3, q)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)

    def test_matches_loop_in_one_dimension_with_one_sided_sizes(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((2, 1))
        b = rng.standard_normal((90, 1))
        for q in (0.0, 0.5, 0.95, 1.0):
            got = energy_permutation_quantile(a, b, n_permutations=130, seed=5, q=q)
            want = loop_permutation_quantile(a, b, 130, 5, q)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("row_tile", [4, 7, 76])
    def test_matches_loop_across_many_row_tiles(self, row_tile, monkeypatch):
        """77 pooled rows in tiles of 7 (eleven full tiles), 4 and 76 (each ending in a 1-row tile)."""
        monkeypatch.setattr(metrics, "_ROW_TILE", row_tile)
        rng = np.random.default_rng(15)
        a = rng.standard_normal((40, 3))
        b = 1.5 * rng.standard_normal((37, 3)) + 0.4
        for n_permutations, q in ((1, 0.5), (130, 0.95), (257, 0.0)):
            got = energy_permutation_quantile(a, b, n_permutations=n_permutations, seed=6, q=q)
            want = loop_permutation_quantile(a, b, n_permutations, 6, q)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)


def _gate_shape_samples(seed):
    """1500 + 1500 samples in 2-d, the shape of the criterion-2 gate."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((1500, 2)), rng.standard_normal((1500, 2)) + 0.1


class TestPermutationAtGateShape:
    """The null at 1500 + 1500 and 200 permutations: pinned values and memory."""

    # q95 from the implementation that held the whole pooled distance matrix.
    PINNED_Q95 = {0: "0x1.4d83659ca7d10p-9", 1: "0x1.5c068b1ee627dp-9", 2: "0x1.36ab5becc6793p-9"}

    @pytest.mark.parametrize("seed", sorted(PINNED_Q95))
    def test_q95_is_pinned_bit_for_bit(self, seed):
        a, b = _gate_shape_samples(seed)
        got = energy_permutation_quantile(a, b, n_permutations=200, seed=seed)
        assert got.hex() == self.PINNED_Q95[seed]

    def test_energy_distance_peak_memory_is_below_a_quarter_block(self):
        a, b = _gate_shape_samples(0)
        block_bytes = a.shape[0] * b.shape[0] * 8
        tracemalloc.start()
        try:
            energy_distance(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < block_bytes / 4, f"peak {peak / 1e6:.1f} MB"

    def test_null_peak_memory_is_the_labels_and_two_row_tiles(self):
        a, b = _gate_shape_samples(0)
        pooled, n_permutations = a.shape[0] + b.shape[0], 200
        bound = 8 * pooled * n_permutations + 2 * 8 * metrics._ROW_TILE * pooled + 2**20
        tracemalloc.start()
        try:
            energy_permutation_quantile(a, b, n_permutations=n_permutations, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, f"peak {peak / 1e6:.1f} MB, bound {bound / 1e6:.1f} MB"

    def test_peak_memory_is_below_half_the_pooled_matrix(self):
        a, b = _gate_shape_samples(0)
        pooled_bytes = (a.shape[0] + b.shape[0]) ** 2 * 8
        tracemalloc.start()
        try:
            energy_permutation_quantile(a, b, n_permutations=200, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < pooled_bytes / 2, f"peak {peak / 1e6:.1f} MB"


class TestEnergyInputValidation:
    """Bad samples and arguments raise a ValueError naming the argument."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["a", "b"])
    def test_non_finite_samples(self, bad, side):
        good = np.random.default_rng(12).standard_normal((5, 2))
        poisoned = good.copy()
        poisoned[2, 1] = bad
        a, b = (poisoned, good) if side == "a" else (good, poisoned)
        with pytest.raises(ValueError, match=f"^{side} contains non-finite"):
            energy_distance(a, b)
        with pytest.raises(ValueError, match=f"^{side} contains non-finite"):
            energy_permutation_quantile(a, b, n_permutations=5)

    def test_overflowing_distance_sums_are_rejected_naming_the_rows(self, monkeypatch):
        """Finite rows whose distances overflow; before, both returned nan.

        Rows at +-1e154 lie a finite distance from rows near 0 but an overflowing
        one from each other, so only the (b, b) block overflows."""
        monkeypatch.setattr(metrics, "_ROW_TILE", 7)
        rng = np.random.default_rng(17)
        a = rng.standard_normal((40, 2))
        b = rng.standard_normal((37, 2))
        a[10, 0] = 1e200
        with pytest.raises(ValueError, match=r"^energy_distance: the \(a, b\) distance sum "
                                             r"of rows \[7:14\) is not finite"):
            energy_distance(a, b)
        with pytest.raises(ValueError, match=r"^energy_distance: the \(b, b\) distance sum "
                                             r"of rows \[35:37\) is not finite"):
            energy_distance(a[:5], np.concatenate([b[:35], [[1e154, 0.0], [-1e154, 0.0]]]))
        with pytest.raises(ValueError, match=r"^energy_permutation_quantile: the distance sum "
                                             r"of rows \[0:7\) is not finite"):
            energy_permutation_quantile(a, b, n_permutations=5)

    def test_mismatched_feature_dimensions(self):
        with pytest.raises(ValueError, match="a and b must share one feature dimension"):
            energy_distance(np.zeros((3, 2)), np.zeros((3, 3)))
        with pytest.raises(ValueError, match="a and b must share one feature dimension"):
            energy_permutation_quantile(np.zeros((3, 2)), np.zeros((3, 3)), n_permutations=5)

    @pytest.mark.parametrize("n_permutations", [0, -1])
    def test_n_permutations_below_one(self, n_permutations):
        x = np.random.default_rng(13).standard_normal((4, 1))
        with pytest.raises(ValueError, match="n_permutations must be >= 1"):
            energy_permutation_quantile(x, x + 1.0, n_permutations=n_permutations)

    @pytest.mark.parametrize("name", ["n_permutations", "seed"])
    @pytest.mark.parametrize("value", [True, 2.5, "3", None])
    def test_n_permutations_and_seed_must_be_integers(self, name, value):
        x = np.random.default_rng(13).standard_normal((4, 1))
        kwargs = {"n_permutations": 5, "seed": 0, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            energy_permutation_quantile(x, x + 1.0, **kwargs)

    @pytest.mark.parametrize("q", [-0.01, 1.01, np.nan, True, "0.5", None])
    def test_q_outside_unit_interval(self, q):
        x = np.random.default_rng(14).standard_normal((4, 1))
        with pytest.raises(ValueError, match=r"q must lie in \[0, 1\]"):
            energy_permutation_quantile(x, x + 1.0, n_permutations=5, q=q)


class TestConvergenceSlope:
    def test_exact_quadratic_decay(self):
        dts = [0.1, 0.05, 0.025]
        errors = [1e-2, 2.5e-3, 6.25e-4]
        np.testing.assert_allclose(convergence_slope(dts, errors), 2.0, rtol=0, atol=1e-12)

    def test_exact_linear_decay(self):
        dts = [0.2, 0.1, 0.05, 0.025]
        errors = [0.4, 0.2, 0.1, 0.05]
        np.testing.assert_allclose(convergence_slope(dts, errors), 1.0, rtol=0, atol=1e-12)

    def test_prefactor_does_not_matter(self):
        dts = [0.1, 0.05, 0.025]
        errors = [7.0 * dt**1.5 for dt in dts]
        np.testing.assert_allclose(convergence_slope(dts, errors), 1.5, rtol=0, atol=1e-12)

    def test_length_and_shape_validation(self):
        with pytest.raises(ValueError, match="length >= 3"):
            convergence_slope([0.1, 0.05], [1.0, 0.5])
        with pytest.raises(ValueError, match="length >= 3"):
            convergence_slope([0.1, 0.05, 0.025], [1.0, 0.5])

    def test_positivity_validation(self):
        with pytest.raises(ValueError, match="positive"):
            convergence_slope([0.1, 0.05, 0.025], [1.0, 0.0, 0.1])
        with pytest.raises(ValueError, match="positive"):
            convergence_slope([0.1, -0.05, 0.025], [1.0, 0.5, 0.25])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["dts", "errors"])
    def test_finiteness_validation(self, where, bad):
        dts, errors = [0.1, 0.05, 0.025], [1.0, 0.5, 0.25]
        (dts if where == "dts" else errors)[1] = bad
        with pytest.raises(ValueError, match="must be finite"):
            convergence_slope(dts, errors)
