import numpy as np
import pytest
import scipy.stats

from cmvkit.core import VerblunskySet
from cmvkit.ensembles import (
    EnsembleSpec,
    RngStream,
    coefficient_samples,
    eigenvalue_samples,
    gibbs_log_density,
    ks_statistic,
    _beta_interval_samples,
    _disk_samples,
    random_verblunsky,
    sample_circular_beta,
    sample_hermite_beta,
    sample_jacobi_beta,
)
from cmvkit.errors import DomainViolation, EmptySample, InvalidNu, InvalidParams

from oracles import cdf_from_density, ensemble_samples_loop


def disk_draw(nu, gen):
    """One disk variate, from the same generator calls a per-draw sampler makes."""
    return complex(_disk_samples(nu, None, gen))


def interval_draw(s, t, gen):
    """One interval variate, from the same generator calls a per-draw sampler makes."""
    return float(_beta_interval_samples(s, t, 1, gen)[0])


def make_spec(family, n, beta):
    return EnsembleSpec(family, n, beta, 0.5, 1.0) if family == "jacobi" else EnsembleSpec(family, n, beta)


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(123, 4).generator().random(8)
        b = RngStream(123, 4).generator().random(8)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(123, 0).generator().random(8)
        b = RngStream(123, 1).generator().random(8)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed, stream_id", [(-1, 0), (3, -2)])
    def test_negative_rejected(self, seed, stream_id):
        with pytest.raises(InvalidParams):
            RngStream(seed, stream_id)


class TestThetaSampler:
    def test_nu_one_is_unimodular(self):
        gen = RngStream(0).generator()
        z = np.array([disk_draw(1.0, gen) for _ in range(200)])
        assert np.abs(np.abs(z) - 1.0).max() < 1e-12

    def test_nu_three_uniform_disk(self):
        # exponent (nu-3)/2 vanishes, so |z|^2 is uniform on [0, 1]
        gen = RngStream(1).generator()
        z = np.array([disk_draw(3.0, gen) for _ in range(20000)])
        d = ks_statistic(np.sort(np.abs(z) ** 2), lambda s: np.clip(s, 0.0, 1.0))
        assert d < 0.015

    def test_nu_five_second_moment(self):
        gen = RngStream(2).generator()
        z = np.array([disk_draw(5.0, gen) for _ in range(40000)])
        second = (np.abs(z) ** 2).mean()
        assert abs(second - 1.0 / 3.0) < 0.01

    def test_matches_sphere_construction(self):
        # v uniform on the nu-sphere in R^(nu+1): v_1 + i v_2 has the same law
        for nu in (2, 3, 6):
            gen = RngStream(nu).generator()
            count = 100000
            z = np.abs(_disk_samples(float(nu), count, gen)) ** 2
            vec = gen.standard_normal((count, nu + 1))
            vec /= np.linalg.norm(vec, axis=1, keepdims=True)
            w = vec[:, 0] ** 2 + vec[:, 1] ** 2
            stat = scipy.stats.ks_2samp(z, w).statistic
            assert stat < 0.01, (nu, stat)

    def test_invalid_nu(self):
        with pytest.raises(InvalidNu):
            disk_draw(0.5, RngStream(0).generator())


class TestBetaInterval:
    def test_uniform_case(self):
        gen = RngStream(3).generator()
        x = np.sort([interval_draw(1.0, 1.0, gen) for _ in range(20000)])
        assert ks_statistic(x, lambda s: (s + 1.0) / 2.0) < 0.015

    def test_symmetric_mean(self):
        gen = RngStream(4).generator()
        x = np.array([interval_draw(3.0, 3.0, gen) for _ in range(20000)])
        assert abs(x.mean()) < 0.01

    def test_skewed_mean(self):
        gen = RngStream(5).generator()
        x = np.array([interval_draw(2.0, 1.0, gen) for _ in range(40000)])
        assert abs(x.mean() + 1.0 / 3.0) < 0.01

    def test_density_shape(self):
        gen = RngStream(6).generator()
        x = np.sort([interval_draw(2.5, 1.7, gen) for _ in range(30000)])
        cdf = cdf_from_density(lambda t: (1 - t) ** 1.5 * (1 + t) ** 0.7, -1.0, 1.0)
        assert ks_statistic(x, cdf) < 0.015

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            interval_draw(0.0, 1.0, RngStream(0).generator())


class TestCoefficientModels:
    def test_circular_shapes(self):
        v = sample_circular_beta(4, 2.0, RngStream(7))
        assert isinstance(v, VerblunskySet) and v.n == 4
        assert abs(abs(v.alpha[-1]) - 1.0) < 1e-12
        assert np.abs(v.alpha[:-1]).max() < 1.0

    def test_circular_first_coefficient_law(self):
        # n = 2, beta = 2: alpha_0 has nu = 3, so |alpha_0|^2 is uniform
        gen = RngStream(8).generator()
        mods = np.array([abs(sample_circular_beta(2, 2.0, gen).alpha[0]) ** 2 for _ in range(20000)])
        assert ks_statistic(np.sort(mods), lambda s: np.clip(s, 0, 1)) < 0.015

    def test_jacobi_single_site(self):
        j = sample_jacobi_beta(1, 2.0, 0.0, 0.0, RngStream(9))
        assert j.n == 1 and abs(j.b[0]) < 2.0

    def test_jacobi_offdiagonals_positive(self):
        gen = RngStream(10).generator()
        for _ in range(50):
            j = sample_jacobi_beta(3, 1.0, -0.5, 3.0, gen)
            assert j.a.min() > 0.0

    def test_jacobi_coefficient_moments(self):
        # n=2, beta=2, a=b=0 coefficient laws on (-1,1): means 0, -1/3, 0
        gen = RngStream(11).generator()
        from cmvkit.ensembles import _jacobi_shapes

        shapes = _jacobi_shapes(2, 2.0, 0.0, 0.0)
        assert shapes == [(2.0, 2.0), (2.0, 1.0), (1.0, 1.0)]
        means = [(t - s) / (s + t) for s, t in shapes]
        draws = np.array([[interval_draw(s, t, gen) for s, t in shapes] for _ in range(20000)])
        assert np.abs(draws.mean(axis=0) - means).max() < 0.02

    def test_hermite_positive_offdiagonal(self):
        j = sample_hermite_beta(6, 0.7, RngStream(12))
        assert j.a.min() > 0.0

    def test_hermite_single_site_gaussian(self):
        gen = RngStream(13).generator()
        x = np.sort([sample_hermite_beta(1, 2.0, gen).b[0] for _ in range(20000)])
        assert ks_statistic(x, scipy.stats.norm.cdf) < 0.015

    def test_invalid(self):
        with pytest.raises(InvalidParams):
            sample_jacobi_beta(2, 2.0, -1.5, 0.0, RngStream(0))
        with pytest.raises(InvalidParams):
            sample_hermite_beta(2, 0.0, RngStream(0))


class TestCoefficientSamples:
    @pytest.mark.parametrize("family, n, beta", [
        *[(f, n, beta) for f in ("circular", "jacobi", "hermite") for n in (1, 2, 6) for beta in (0.5, 2.0)],
        ("circular", 64, 2.0), ("jacobi", 64, 1.0), ("hermite", 64, 4.0),
        ("jacobi", 3, 0.01),   # interval draws at +-1 are redrawn
        ("hermite", 3, 1e-3),  # off-diagonals that underflow to 0 are redrawn
        ("circular", 6, 0.1),  # disk moduli above 1 - 1e-12 are redrawn
    ])
    def test_eigenvalue_samples_pinned_to_loop(self, family, n, beta):
        spec = make_spec(family, n, beta)
        count = 5 if n == 64 else 40
        rows = eigenvalue_samples(spec, count, RngStream(n, 3))
        assert np.array_equal(rows, ensemble_samples_loop(spec, count, RngStream(n, 3).generator()))

    @pytest.mark.parametrize("family", ["circular", "jacobi", "hermite"])
    def test_shapes(self, family):
        out = coefficient_samples(make_spec(family, 5, 2.0), 7, RngStream(1))
        if family == "circular":
            assert out.shape == (7, 5) and out.dtype == complex
        else:
            b, a = out
            assert b.shape == (7, 5) and a.shape == (7, 4) and a.min() > 0.0

    def test_per_draw_samplers_are_count_one_views(self):
        alpha = coefficient_samples(EnsembleSpec("circular", 6, 1.0), 1, RngStream(5))[0]
        assert np.abs(sample_circular_beta(6, 1.0, RngStream(5)).alpha - alpha).max() <= 1e-15
        for j, family in [(sample_jacobi_beta(6, 1.0, 0.5, 1.0, RngStream(5)), "jacobi"),
                          (sample_hermite_beta(6, 1.0, RngStream(5)), "hermite")]:
            b, a = coefficient_samples(make_spec(family, 6, 1.0), 1, RngStream(5))
            assert np.array_equal(j.b, b[0]) and np.array_equal(j.a, a[0])

    @pytest.mark.parametrize("seed", range(10))
    def test_circular_rows_are_coefficient_sets(self, seed):
        alpha = coefficient_samples(EnsembleSpec("circular", 6, 0.1), 10, RngStream(seed))
        assert all(VerblunskySet(row).alpha[:-1].tobytes() == row[:-1].tobytes() for row in alpha)

    @pytest.mark.parametrize("family", ["circular", "jacobi", "hermite"])
    def test_redraws_are_capped(self, family):
        with pytest.raises(InvalidParams, match="256 draws"):
            coefficient_samples(make_spec(family, 6, 1e-9), 10, RngStream(1))

    def test_jacobi_view_has_no_interior_margin(self):
        # the interval draws reach 1 - 1e-12 here, which VerblunskySet rejects
        gen = RngStream(1).generator()
        for _ in range(10):
            assert sample_jacobi_beta(6, 0.1, 0.0, 0.0, gen).a.min() > 0.0

    @pytest.mark.parametrize("count", [0, -5])
    def test_empty_count_rejected(self, count):
        with pytest.raises(InvalidParams):
            coefficient_samples(EnsembleSpec("circular", 2, 1.0), count, RngStream(1))

    @pytest.mark.parametrize("family, n", [("circular", 6), ("jacobi", 2), ("hermite", 6)])
    def test_spectra_independent_of_block(self, family, n, monkeypatch):
        spec = make_spec(family, n, 2.0)
        whole = eigenvalue_samples(spec, 30, RngStream(8))
        monkeypatch.setattr("cmvkit.ensembles.SPECTRA_BLOCK", 50)
        assert np.array_equal(eigenvalue_samples(spec, 30, RngStream(8)), whole)


class TestEigenvalueSamples:
    def test_deterministic(self):
        spec = EnsembleSpec("hermite", 3, 2.0)
        a = eigenvalue_samples(spec, 17, RngStream(14, 2))
        b = eigenvalue_samples(spec, 17, RngStream(14, 2))
        assert np.array_equal(a, b)

    def test_rows_sorted(self):
        spec = EnsembleSpec("circular", 3, 1.0)
        rows = eigenvalue_samples(spec, 64, RngStream(15))
        assert np.all(np.diff(rows, axis=1) >= 0.0)
        assert rows.min() > -np.pi and rows.max() <= np.pi

    def test_circular_single_site_uniform(self):
        spec = EnsembleSpec("circular", 1, 2.0)
        ang = np.sort(eigenvalue_samples(spec, 50000, RngStream(16))[:, 0])
        assert ks_statistic(ang, lambda s: (s + np.pi) / (2 * np.pi)) < 0.01

    def test_batch_matches_per_draw_law(self):
        # same seed gives different draw orders but identical distributions
        spec = EnsembleSpec("jacobi", 2, 2.0, 0.0, 0.0)
        batch = eigenvalue_samples(spec, 30000, RngStream(17)).reshape(-1)
        gen = RngStream(18).generator()
        single = np.concatenate(
            [np.linalg.eigvalsh(sample_jacobi_beta(2, 2.0, 0.0, 0.0, gen).to_dense()) for _ in range(3000)]
        )
        assert scipy.stats.ks_2samp(batch, single).statistic < 0.025


class TestGibbsLogDensity:
    def test_circular_two_points(self):
        val = gibbs_log_density(EnsembleSpec("circular", 2, 3.0), [0.0, np.pi])
        assert abs(val - 3.0 * np.log(2.0)) < 1e-14

    def test_hermite_origin(self):
        assert gibbs_log_density(EnsembleSpec("hermite", 1, 2.0), [0.0]) == 0.0

    def test_jacobi_flat_exponents(self):
        spec = EnsembleSpec("jacobi", 1, 2.0, 0.0, 0.0)
        vals = [gibbs_log_density(spec, [x]) for x in (-1.5, 0.0, 1.9)]
        assert np.abs(np.diff(vals)).max() == 0.0

    def test_jacobi_domain(self):
        with pytest.raises(DomainViolation):
            gibbs_log_density(EnsembleSpec("jacobi", 1, 2.0, 0.0, 0.0), [2.5])


class TestKsStatistic:
    def test_single_sample_at_median(self):
        assert ks_statistic([0.0], lambda s: np.full_like(np.asarray(s, dtype=float), 0.5)) == 0.5

    def test_empty(self):
        with pytest.raises(EmptySample):
            ks_statistic([], lambda s: s)

    def test_unsorted_rejected(self):
        with pytest.raises(InvalidParams):
            ks_statistic([1.0, 0.0], lambda s: s)

    def test_nonmonotone_cdf_rejected(self):
        with pytest.raises(InvalidParams):
            ks_statistic([0.1, 0.2, 0.9], lambda s: 1.0 - np.asarray(s))

    def test_out_of_unit_range_rejected(self):
        with pytest.raises(InvalidParams):
            ks_statistic([0.5], lambda s: np.asarray(s) + 2.0)

    def test_self_consistency(self):
        gen = RngStream(19).generator()
        x = np.sort(gen.random(100000))
        assert ks_statistic(x, lambda s: np.clip(s, 0, 1)) < 0.01


class TestRandomVerblunsky:
    def test_radius_respected(self):
        v = random_verblunsky(6, RngStream(20), radius=0.5)
        assert np.abs(v.interior).max() <= 0.5

    def test_separation_respected(self):
        import numpy.linalg as la

        from cmvkit.core import build_cmv

        v = random_verblunsky(5, RngStream(21), min_separation=0.4)
        th = np.sort(np.angle(la.eigvals(np.asarray(build_cmv(v).entries))))
        gaps = np.concatenate([np.diff(th), [th[0] + 2 * np.pi - th[-1]]])
        assert gaps.min() > 0.4
