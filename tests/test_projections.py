"""Projection-rule tests: Gaussian closed forms, discrete MAP, toy example."""

import numpy as np
import pytest

from cica import (
    SolverOptions,
    binary_vector_covariance,
    cca_decompose,
    component_count,
    dsbs_joint,
    feature_mutual_information,
    mutual_info_rho,
    mutual_information,
    project_discrete,
    project_discrete_map,
    project_gaussian,
    solve_relaxed_wyner,
    toy_binary_example,
    validate_gaussian,
    waterfill,
)
from cica.errors import A0OutOfRange, BadK, ShapeMismatch
from conftest import (
    block_covariance,
    discrete_embedding_oracle,
    dsbs_wyner,
    gauss_cond_mi,
    gauss_mi,
    gaussian_latent,
    random_gaussian_joint,
    whitened_diag_joint,
)

LN2 = np.log(2.0)
I_08 = 0.5108256237659906
I_05 = 0.14384103622589042


def latent_block_covariance(joint, spec):
    """Covariance of (X, Y, W) for W = U_k^T x_hat + V_k^T y_hat + Z."""
    basis = cca_decompose(joint)
    a = spec.u_k.T @ basis.w_x  # W = a X + b Y + Z
    b = spec.v_k.T @ basis.w_y
    k_wx = a @ joint.k_x + b @ joint.k_xy.T
    k_wy = a @ joint.k_xy + b @ joint.k_y
    k_ww = (
        a @ joint.k_x @ a.T
        + b @ joint.k_y @ b.T
        + a @ joint.k_xy @ b.T
        + b @ joint.k_xy.T @ a.T
        + spec.noise_cov
    )
    k_w_xy = np.hstack([k_wx, k_wy])
    return np.block([[block_covariance(joint), k_w_xy.T], [k_w_xy, k_ww]])


class TestGaussianLatent:
    def test_empty_beyond_total_information(self):
        j = whitened_diag_joint([0.8, 0.5])
        spec = gaussian_latent(j, I_08 + I_05 + 0.01)
        assert spec.k == 0
        assert spec.u_k.shape == (2, 0)
        assert spec.noise_cov.shape == (0, 0)

    def test_single_component_at_mid_budget(self):
        j = whitened_diag_joint([0.8, 0.5])
        spec = gaussian_latent(j, 0.4)
        assert spec.k == 1
        np.testing.assert_allclose(spec.u_k[:, 0], [1.0, 0.0], atol=1e-12)

    def test_gamma_zero_keeps_all(self):
        j = whitened_diag_joint([0.8, 0.5])
        assert gaussian_latent(j, 0.0).k == 2

    def test_spec_matches_separate_waterfill_and_count(self, rng):
        # one water-filling call must give what waterfill plus component_count gave
        for _ in range(20):
            j = random_gaussian_joint(rng, 3, 4)
            basis = cca_decompose(j)
            gamma = rng.uniform(0.0, 1.2) * sum(float(mutual_info_rho(r)) for r in basis.rho)
            spec = gaussian_latent(j, gamma)
            k = component_count(basis.rho, gamma)
            rho = basis.rho[:k]
            s = np.sqrt(-np.expm1(-2.0 * waterfill(basis.rho, gamma).gamma_i[:k]))
            assert spec.k == k
            np.testing.assert_array_equal(spec.u_k, basis.u[:, :k])
            np.testing.assert_array_equal(spec.v_k, basis.v[:, :k])
            np.testing.assert_array_equal(
                spec.noise_cov, np.diag((1.0 - rho * rho) * (1.0 + s) / (rho - s))
            )

    def test_construction_achieves_budget_and_value(self, rng):
        # independent oracle: Gaussian MI from covariance determinants
        for _ in range(5):
            j = random_gaussian_joint(rng, 3, 3)
            basis = cca_decompose(j)
            total = sum(float(mutual_info_rho(r)) for r in basis.rho)
            gamma = 0.4 * total
            alloc = waterfill(basis.rho, gamma)
            spec = gaussian_latent(j, gamma)
            if spec.k == 0:
                continue
            cov = latent_block_covariance(j, spec)
            ix = list(range(3))
            iy = list(range(3, 6))
            iw = list(range(6, 6 + spec.k))
            achieved = gauss_cond_mi(cov, ix, iy, iw)
            value = gauss_mi(cov, ix + iy, iw)
            assert achieved == pytest.approx(gamma, abs=1e-8)
            assert value == pytest.approx(float(alloc.c_gamma), abs=1e-8)


class TestProjectGaussian:
    def test_cond_exp_whitened_diag(self):
        basis = cca_decompose(whitened_diag_joint([0.8, 0.5]))
        out = project_gaussian(basis, component_count(basis.rho, 0.4), "cond_exp")
        assert out.u_of_x.shape == (1, 2)
        row = out.u_of_x[0]
        np.testing.assert_allclose(row / np.linalg.norm(row), [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(out.scale, [1.8], atol=1e-12)

    def test_map_equals_cond_exp(self, rng):
        basis = cca_decompose(random_gaussian_joint(rng, 3, 2))
        k = component_count(basis.rho, 0.05)
        m1 = project_gaussian(basis, k, "map")
        m2 = project_gaussian(basis, k, "cond_exp")
        np.testing.assert_allclose(m1.u_of_x, m2.u_of_x, atol=1e-10)
        np.testing.assert_allclose(m1.v_of_y, m2.v_of_y, atol=1e-10)

    def test_marginal_proportional_to_cond_exp(self, rng):
        basis = cca_decompose(random_gaussian_joint(rng, 3, 3))
        k = component_count(basis.rho, 0.05)
        m1 = project_gaussian(basis, k, "marginal")
        m2 = project_gaussian(basis, k, "cond_exp")
        for r1, r2 in zip(m1.u_of_x, m2.u_of_x):
            cos = r1 @ r2 / (np.linalg.norm(r1) * np.linalg.norm(r2))
            assert cos >= 1 - 1e-10

    def test_rows_match_top_k_cca(self, rng):
        for _ in range(10):
            j = random_gaussian_joint(rng, 3, 3)
            basis = cca_decompose(j)
            total = sum(float(mutual_info_rho(r)) for r in basis.rho)
            for gamma in (0.0, 0.3 * total, 0.8 * total):
                k = component_count(basis.rho, gamma)
                for version in ("map", "cond_exp", "marginal"):
                    out = project_gaussian(basis, k, version)
                    assert out.u_of_x.shape == (k, 3)
                    cca_u = basis.u[:, :k].T @ basis.w_x
                    cca_v = basis.v[:, :k].T @ basis.w_y
                    for row, ref in zip(out.u_of_x, cca_u):
                        cos = row @ ref / (np.linalg.norm(row) * np.linalg.norm(ref))
                        assert cos >= 1 - 1e-8
                    for row, ref in zip(out.v_of_y, cca_v):
                        cos = row @ ref / (np.linalg.norm(row) * np.linalg.norm(ref))
                        assert cos >= 1 - 1e-8

    def test_bad_version(self):
        basis = cca_decompose(whitened_diag_joint([0.5]))
        with pytest.raises(ValueError):
            project_gaussian(basis, 1, "argmax")

    def test_k_out_of_range(self):
        basis = cca_decompose(whitened_diag_joint([0.8, 0.5]))
        assert project_gaussian(basis, 0, "map").u_of_x.shape == (0, 2)
        for k in (-1, 3):
            with pytest.raises(BadK):
                project_gaussian(basis, k, "map")

    def test_k_must_be_an_integer(self):
        # 1.5 escaped as a bare TypeError; True returned one component
        basis = cca_decompose(whitened_diag_joint([0.8, 0.5]))
        for k in (1.5, 2.0, True, False):
            with pytest.raises(BadK, match="an integer"):
                project_gaussian(basis, k, "map")
        assert project_gaussian(basis, np.int64(1), "map").u_of_x.shape == (1, 2)


class TestProjectDiscreteMap:
    def test_constant_w(self):
        from cica import build_coupling

        j = dsbs_joint(0.1)
        c = build_coupling(np.full((3, 2, 2), 1 / 3), j)
        out = project_discrete_map(c)
        assert np.all(out.u_of_x == out.u_of_x[0])
        assert np.all(out.ties[0]) and np.all(out.ties[1])

    def test_dsbs_optimum_partitions(self):
        j = dsbs_joint(0.1)
        c, _ = solve_relaxed_wyner(j, 0.0, SolverOptions(seed=7))
        out = project_discrete_map(c)
        assert out.u_of_x[0] != out.u_of_x[1]  # two symbols separated
        assert not out.ties[0].any()
        mi = float(feature_mutual_information(j, out.u_of_x, out.v_of_y))
        assert mi > 0.3

    def test_cond_exp_requires_embedding(self):
        from cica import build_coupling

        j = dsbs_joint(0.1)
        c = build_coupling(np.full((3, 2, 2), 1 / 3), j)
        with pytest.raises(ValueError):
            project_discrete(c, "cond_exp")
        out = project_discrete(c, "cond_exp", w_values=[0.0, 1.0, 2.0])
        np.testing.assert_allclose(out.u_of_x, [1.0, 1.0], atol=1e-12)

    def test_embeddings_on_copy_coupling(self):
        from cica import build_coupling

        j = dsbs_joint(0.1)
        q = np.zeros((2, 2, 2))
        q[0, 0, :] = 1.0  # w copies x
        q[1, 1, :] = 1.0
        c = build_coupling(q, j)
        cond = project_discrete(c, "cond_exp", w_values=[0.0, 1.0])
        np.testing.assert_allclose(cond.u_of_x, [0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(cond.v_of_y, [0.1, 0.9], atol=1e-12)  # P(X=1|y)
        # marginal integration averages over p(x), not p(x|y)
        marg = project_discrete(c, "marginal", w_values=[0.0, 1.0])
        np.testing.assert_allclose(marg.u_of_x, [0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(marg.v_of_y, [0.5, 0.5], atol=1e-12)

    @pytest.mark.parametrize("version, bad", [("cond_exp", np.nan), ("marginal", np.inf)])
    def test_embeddings_refuse_non_finite_values(self, version, bad):
        from cica import build_coupling

        c = build_coupling(np.full((3, 2, 2), 1 / 3), dsbs_joint(0.1))
        with pytest.raises(ValueError, match="finite"):
            project_discrete(c, version, w_values=[bad, 1.0, 2.0])

    def test_map_per_source_on_three_sources(self):
        from cica import build_coupling, validate_discrete

        # X2 copies X1 with probability 0.8, X3 is an independent fair bit
        pmf = np.zeros((2, 2, 2))
        for x1 in (0, 1):
            for x2 in (0, 1):
                pmf[x1, x2, :] = 0.5 * (0.8 if x1 == x2 else 0.2) * 0.5
        q = np.zeros((2, 2, 2, 2))
        q[0, 0] = q[1, 1] = 1.0  # w copies x1
        out = project_discrete_map(build_coupling(q, validate_discrete(pmf)))
        assert len(out.maps) == len(out.ties) == 3
        np.testing.assert_array_equal(out.maps[0], [0, 1])
        np.testing.assert_array_equal(out.maps[1], [0, 1])
        np.testing.assert_array_equal(out.maps[2], [0, 0])  # p(w|x3) is flat
        np.testing.assert_array_equal(out.ties[0], [False, False])
        np.testing.assert_array_equal(out.ties[1], [False, False])
        np.testing.assert_array_equal(out.ties[2], [True, True])

    @pytest.mark.parametrize("version", ["cond_exp", "marginal"])
    def test_embeddings_match_loop_oracle_on_three_sources(self, rng, version):
        from cica import build_coupling, validate_discrete

        pmf = rng.dirichlet(np.ones(12)).reshape(2, 2, 3)
        q = rng.dirichlet(np.ones(4), size=12).T.reshape(4, 2, 2, 3)
        w_values = rng.standard_normal(4)
        out = project_discrete(build_coupling(q, validate_discrete(pmf)), version, w_values)
        assert len(out.maps) == 3
        for got, want in zip(out.maps, discrete_embedding_oracle(pmf, q, w_values, version)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_feature_mi_of_identity_maps_is_total_correlation(self, rng):
        from cica import total_correlation, validate_discrete

        j = validate_discrete(rng.dirichlet(np.ones(12)).reshape(2, 2, 3))
        mi = feature_mutual_information(j, *(np.arange(card) for card in j.cards))
        assert float(mi) == pytest.approx(float(total_correlation(j)), rel=1e-12)


class TestFeatureMutualInformationInputs:
    def test_large_label_is_compacted(self, monkeypatch):
        # the table was sized by the largest label: 10**6 + 1 rows for two symbols
        from cica import projections

        shapes = []
        validate = projections.validate_discrete

        def recorded(table):
            shapes.append(table.shape)
            return validate(table)

        monkeypatch.setattr(projections, "validate_discrete", recorded)
        j = dsbs_joint(0.1)
        big = float(feature_mutual_information(j, [0, 10**6], [0, 1]))
        assert shapes == [(2, 2)]
        assert big == pytest.approx(float(feature_mutual_information(j, [0, 1], [0, 1])), abs=1e-12)

    def test_negative_label_is_refused(self):
        # indexing would wrap -1 around onto label 0
        with pytest.raises(ValueError, match="nonnegative integers"):
            feature_mutual_information(dsbs_joint(0.1), [-1, 0], [0, 1])

    def test_fractional_label_is_refused(self):
        # an integer cast would truncate 0.5 to 0
        with pytest.raises(ValueError, match="nonnegative integers"):
            feature_mutual_information(dsbs_joint(0.1), [0.5, 1], [0, 1])

    def test_wrong_length_map(self):
        with pytest.raises(ShapeMismatch, match="feature map 1"):
            feature_mutual_information(dsbs_joint(0.1), [0, 1], [0, 1, 2])

    def test_empty_maps(self):
        with pytest.raises(ShapeMismatch, match="feature map 0"):
            feature_mutual_information(dsbs_joint(0.1), [], [])

    @pytest.mark.parametrize("maps", [([0, 1],), ([0, 1], [0, 1], [0, 1])])
    def test_one_map_per_source(self, maps):
        with pytest.raises(ShapeMismatch, match="one feature map per source"):
            feature_mutual_information(dsbs_joint(0.1), *maps)


class TestToyBinaryExample:
    def test_scaled_identity_covariance(self):
        j = toy_binary_example(0.1)
        k_x, k_y, k_xy = binary_vector_covariance(j)
        np.testing.assert_allclose(k_x, 0.25 * np.eye(2), atol=1e-12)
        np.testing.assert_allclose(k_y, 0.25 * np.eye(2), atol=1e-12)
        np.testing.assert_allclose(k_xy, np.zeros((2, 2)), atol=1e-12)

    def test_mutual_information_lives_in_common_bit(self):
        for a0 in (0.1, 0.3):
            j = toy_binary_example(a0)
            hb = -(a0 * np.log(a0) + (1 - a0) * np.log(1 - a0))
            assert float(mutual_information(j)) == pytest.approx(LN2 - hb, abs=1e-12)

    def test_independent_at_half(self):
        j = toy_binary_example(0.5)
        assert float(mutual_information(j)) == pytest.approx(0.0, abs=1e-12)

    def test_cca_sees_nothing(self):
        j = toy_binary_example(0.1)
        basis = cca_decompose(validate_gaussian(*binary_vector_covariance(j)))
        assert basis.rho.max() <= 1e-10

    def test_map_features_recover_hidden_bit(self):
        j = toy_binary_example(0.1)
        c, rep = solve_relaxed_wyner(j, 0.0, SolverOptions(seed=7, card_w=4))
        out = project_discrete_map(c)
        # u must separate symbols by the parity bit x1 xor x2: indices {0,3} vs {1,2}
        u = out.u_of_x
        assert u[0] == u[3] and u[1] == u[2] and u[0] != u[1]
        mi = float(feature_mutual_information(j, u, out.v_of_y))
        hb01_bits = -(0.1 * np.log2(0.1) + 0.9 * np.log2(0.9))
        assert mi >= (1 - hb01_bits) * LN2 - 5e-2

    def test_solver_near_dsbs_wyner(self):
        # common information of the toy equals that of the hidden DSBS
        j = toy_binary_example(0.1)
        _, rep = solve_relaxed_wyner(j, 0.0, SolverOptions(seed=7, card_w=4))
        assert abs(float(rep.objective) - float(dsbs_wyner(0.1))) < 2e-2

    def test_a0_out_of_range(self):
        with pytest.raises(A0OutOfRange):
            toy_binary_example(0.6)
