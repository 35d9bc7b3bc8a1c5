"""Statevector operations against dense linear-algebra oracles."""

import numpy as np
import pytest

from cbqoa import (
    AnsatzParams,
    WalkParams,
    adjacency_dense,
    apply_phase_separator,
    apply_rank1_mixer,
    apply_xy_gate,
    basis_state,
    bit_flip,
    build_family,
    cbqoa_ansatz,
    cbqoa_initial_state,
    ctqw_hypercube,
    ctqw_trotter_xy,
    feasible_indices,
    gm_qaoa_ansatz,
    measurement_distribution,
)
from cbqoa.mixer import PermutationFamily
from cbqoa.problems import cost_summary, index_to_bits, ising_diagonal
from cbqoa.simulate import trotter_xy_sector_batch

from conftest import (
    dense_unitary,
    oracle_walk_state,
    random_feasible_state,
    random_state,
    small_3sat,
    small_bisection,
)


def logit(w):
    return np.log(w / (1.0 - w))


def hypercube_family(weights):
    """Bit-flip family whose sigmoid weights at sharpness 1 equal `weights`."""
    n = len(weights)
    return PermutationFamily(
        n=n,
        permutations=tuple(bit_flip(i) for i in range(1, n + 1)),
        cost_gains=tuple(float(logit(w)) for w in weights),
        seed=(0,) * n,
    )


class TestBasisAndMeasurement:
    def test_one_hot(self):
        state = basis_state(2, "10")
        np.testing.assert_allclose(state, [0, 0, 1, 0])
        assert np.linalg.norm(state) == 1.0

    def test_point_mass_distribution(self):
        assert measurement_distribution(basis_state(2, "10")) == {"10": 1.0}

    def test_uniform_distribution(self):
        state = np.full(4, 0.5, dtype=np.complex128)
        dist = measurement_distribution(state)
        assert dist == {"00": 0.25, "01": 0.25, "10": 0.25, "11": 0.25}

    def test_sums_to_one(self, rng):
        for _ in range(10):
            dist = measurement_distribution(random_state(rng, 64))
            assert abs(sum(dist.values()) - 1.0) < 1e-10


class TestPhaseSeparator:
    def test_zero_gamma_identity(self, rng):
        state = random_state(rng, 16)
        diag = rng.standard_normal(16)
        np.testing.assert_allclose(apply_phase_separator(state, diag, 0.0), state)

    def test_basis_state_distribution_unchanged(self, rng):
        state = basis_state(3, "101")
        diag = rng.standard_normal(8)
        out = apply_phase_separator(state, diag, 2.3)
        assert measurement_distribution(out) == {"101": pytest.approx(1.0)}

    def test_sign_flip_example(self):
        state = np.zeros(4, dtype=np.complex128)
        state[0] = state[2] = 1 / np.sqrt(2)  # (|00> + |10>) / sqrt(2)
        diag = np.array([0.0, 0.0, 1.0, 0.0])
        out = apply_phase_separator(state, diag, np.pi)
        expected = np.zeros(4, dtype=np.complex128)
        expected[0], expected[2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_norm_preserved(self, rng):
        state = random_state(rng, 32)
        out = apply_phase_separator(state, rng.standard_normal(32), 1.7)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12


class TestHypercubeWalk:
    def test_single_qubit_flip(self):
        out = ctqw_hypercube(basis_state(1, "0"), [0.5], np.pi)
        np.testing.assert_allclose(out, [0.0, 1j], atol=1e-12)

    def test_zero_time_identity(self, rng):
        state = random_state(rng, 8)
        np.testing.assert_allclose(ctqw_hypercube(state, [0.3, 0.6, 0.9], 0.0), state)

    def test_matches_dense_exponential(self, rng):
        """Product of X rotations equals e^{iAt} of the weighted hypercube."""
        for _ in range(5):
            n = int(rng.integers(2, 7))
            weights = rng.uniform(0.05, 0.95, size=n)
            t = float(rng.uniform(0.1, 2.0))
            family = hypercube_family(weights)
            U = dense_unitary(adjacency_dense(family, 1.0), t)
            state = random_state(rng, 1 << n)
            np.testing.assert_allclose(
                ctqw_hypercube(state, weights, t), U @ state, atol=1e-10
            )

    def test_semigroup(self, rng):
        weights = rng.uniform(0.1, 0.9, size=5)
        state = random_state(rng, 32)
        t1, t2 = 0.4, 0.9
        once = ctqw_hypercube(ctqw_hypercube(state, weights, t1), weights, t2)
        np.testing.assert_allclose(once, ctqw_hypercube(state, weights, t1 + t2), atol=1e-10)


class TestXYGate:
    def test_zero_angle_identity(self, rng):
        state = random_state(rng, 8)
        np.testing.assert_allclose(apply_xy_gate(state, 1, 3, 0.0), state)

    def test_quarter_swap(self):
        out = apply_xy_gate(basis_state(2, "01"), 1, 2, np.pi / 4)
        np.testing.assert_allclose(out, [0, 0, 1j, 0], atol=1e-12)

    def test_matches_dense_two_qubit_exponential(self, rng):
        X = np.array([[0, 1], [1, 0]], dtype=complex)
        Y = np.array([[0, -1j], [1j, 0]])
        for _ in range(10):
            phi = float(rng.uniform(-2, 2))
            U = dense_unitary(np.real(np.kron(X, X) + np.kron(Y, Y)), phi)
            state = random_state(rng, 4)
            np.testing.assert_allclose(apply_xy_gate(state, 1, 2, phi), U @ state, atol=1e-10)

    def test_sector_preservation(self, rng):
        state = random_state(rng, 16)
        out = apply_xy_gate(state, 2, 4, 0.8)
        counts = np.bitwise_count(np.arange(16))
        for k in range(5):
            sector = counts == k
            before = np.abs(state[sector]) ** 2
            after = np.abs(out[sector]) ** 2
            assert abs(before.sum() - after.sum()) < 1e-12


class TestTrotterWalk:
    def test_zero_time_identity(self, rng):
        inst = small_bisection(rng, n=6)
        family = build_family(inst, "000111")
        state = random_state(rng, 64)
        np.testing.assert_allclose(ctqw_trotter_xy(state, family, 0.5, 0.0, 3), state)

    def test_weight_sector_confinement(self, rng):
        inst = small_bisection(rng, n=6)
        family = build_family(inst, "000111")
        state = ctqw_trotter_xy(basis_state(6, "000111"), family, 0.9, 1.1, 3)
        feas = feasible_indices(inst)
        outside = np.abs(state) ** 2
        outside[feas] = 0.0
        assert outside.sum() <= 1e-12

    def test_error_halves_when_steps_double(self, rng):
        """First-order product formula: deviation scales as t^2/N."""
        inst = small_bisection(rng, n=6, edge_prob=0.7)
        family = build_family(inst, "000111")
        sharpness, t = 0.8, 0.5
        U = dense_unitary(adjacency_dense(family, sharpness), t)
        feas = feasible_indices(inst)
        starts = [random_feasible_state(rng, 64, feas) for _ in range(10)]
        errors = {}
        for steps in (1, 2, 4, 8):
            errors[steps] = max(
                np.linalg.norm(ctqw_trotter_xy(s, family, sharpness, t, steps) - U @ s)
                for s in starts
            )
        for steps in (1, 2, 4):
            ratio = errors[2 * steps] / errors[steps]
            assert 0.4 <= ratio <= 0.6

    def test_requires_transposition_family(self, rng):
        inst = small_3sat(rng, n=4)
        family = build_family(inst, "0000")
        with pytest.raises(ValueError):
            ctqw_trotter_xy(basis_state(4, "0000"), family, 0.5, 0.3, 2)


class TestWalkKernelIdentity:
    """The shared walk kernels reproduce the one-vector walks bit for bit."""

    @pytest.mark.parametrize(
        "make, n", [(small_bisection, 8), (small_bisection, 12), (small_3sat, 6)]
    )
    def test_initial_state_matches_oracle(self, rng, make, n):
        inst = make(rng, n=n)
        feas = feasible_indices(inst)
        seed = index_to_bits(int(feas[rng.integers(feas.size)]), n)
        family = build_family(inst, seed)
        for _ in range(10):
            walk = WalkParams(time=rng.uniform(-3, 3), sharpness=rng.uniform(-4, 4))
            state = cbqoa_initial_state(inst, seed, walk, family=family)
            assert np.array_equal(state, oracle_walk_state(seed, family, walk, 3))

    def test_sector_batch_matches_full_walk(self, rng):
        """Each column of the sector sweep is ctqw_trotter_xy from the seed, restricted."""
        inst = small_bisection(rng, n=8)
        seed = "01100101"
        family = build_family(inst, seed)
        times, sharpnesses = rng.uniform(-3, 3, 9), rng.uniform(-4, 4, 9)
        rows, amps = trotter_xy_sector_batch(family, times, sharpnesses, 3)
        np.testing.assert_array_equal(rows, feasible_indices(inst))
        for k in range(times.size):
            full = ctqw_trotter_xy(basis_state(8, seed), family, sharpnesses[k], times[k], 3)
            assert np.array_equal(amps[:, k], full[rows])
            assert not np.delete(full, rows).any()

    def test_sector_batch_requires_transposition_family(self, rng):
        family = build_family(small_3sat(rng, n=4), "0000")
        with pytest.raises(ValueError):
            trotter_xy_sector_batch(family, [0.1], [0.2], 3)


class TestRank1Mixer:
    def test_zero_beta_identity(self, rng):
        psi = random_state(rng, 16)
        state = random_state(rng, 16)
        np.testing.assert_allclose(apply_rank1_mixer(state, psi, 0.0), state)

    def test_orthogonal_input_unchanged(self, rng):
        psi = random_state(rng, 16)
        state = random_state(rng, 16)
        state -= np.vdot(psi, state) * psi
        state /= np.linalg.norm(state)
        np.testing.assert_allclose(apply_rank1_mixer(state, psi, 1.3), state, atol=1e-12)

    def test_matches_three_factor_form(self, rng):
        """Equals e^{iAt} e^{-i beta |z><z|} e^{-iAt} applied densely."""
        inst = small_bisection(rng, n=6)
        family = build_family(inst, "000111")
        for _ in range(5):
            t = float(rng.uniform(0.1, 1.5))
            sharpness = float(rng.uniform(-2, 2))
            beta = float(rng.uniform(-np.pi, np.pi))
            E = dense_unitary(adjacency_dense(family, sharpness), t)
            z = basis_state(6, "000111")
            psi = E @ z
            phase = np.eye(64, dtype=complex)
            phase[7, 7] = np.exp(-1j * beta)  # |000111> has index 7
            dense = E @ phase @ E.conj().T
            state = random_state(rng, 64)
            np.testing.assert_allclose(
                apply_rank1_mixer(state, psi, beta), dense @ state, atol=1e-10
            )

    def test_norm_preserved(self, rng):
        psi = random_state(rng, 32)
        out = apply_rank1_mixer(random_state(rng, 32), psi, 2.2)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_rejects_unnormalized_psi(self, rng):
        with pytest.raises(ValueError):
            apply_rank1_mixer(random_state(rng, 8), np.ones(8, dtype=complex), 1.0)


class TestAnsatz:
    def test_depth_zero_returns_walk_state(self, rng):
        inst = small_bisection(rng, n=6)
        walk = WalkParams(time=0.7, sharpness=0.4)
        psi = cbqoa_initial_state(inst, "000111", walk)
        out = cbqoa_ansatz(inst, "000111", walk, AnsatzParams(betas=(), gammas=()))
        np.testing.assert_allclose(out, psi)

    def test_zero_params_return_walk_state(self, rng):
        inst = small_bisection(rng, n=6)
        walk = WalkParams(time=0.7, sharpness=0.4)
        psi = cbqoa_initial_state(inst, "000111", walk)
        out = cbqoa_ansatz(inst, "000111", walk, AnsatzParams.zeros(3))
        np.testing.assert_allclose(out, psi, atol=1e-12)

    def test_hypercube_product_state_matches_walk(self, rng):
        inst = small_3sat(rng, n=5, num_clauses=10)
        family = build_family(inst, "01010")
        walk = WalkParams(time=0.9, sharpness=-0.7)
        fast = cbqoa_initial_state(inst, "01010", walk, family=family)
        slow = ctqw_hypercube(basis_state(5, "01010"), family.weights(-0.7), 0.9)
        np.testing.assert_allclose(fast, slow, atol=1e-12)

    def test_feasible_support_random_params(self, rng):
        for n in (6, 8, 10):
            inst = small_bisection(rng, n=n)
            seed = "0" * (n // 2) + "1" * (n // 2)
            feas = feasible_indices(inst)
            params = AnsatzParams(
                betas=tuple(rng.uniform(-np.pi, np.pi, 3)),
                gammas=tuple(rng.uniform(-np.pi, np.pi, 3)),
            )
            walk = WalkParams(time=float(rng.uniform(0, 2)), sharpness=float(rng.uniform(-2, 2)))
            state = cbqoa_ansatz(inst, seed, walk, params)
            probs = np.abs(state) ** 2
            infeasible = probs.sum() - probs[feas].sum()
            assert infeasible <= 1e-10

    def test_gm_depth_zero_uniform(self, rng):
        inst = small_bisection(rng, n=4, edge_prob=1.0)
        state = gm_qaoa_ansatz(inst, AnsatzParams(betas=(), gammas=()))
        feas = feasible_indices(inst)
        assert feas.size == 6
        np.testing.assert_allclose(np.abs(state[feas]), 1 / np.sqrt(6), atol=1e-12)
        assert np.abs(np.delete(state, feas)).max() == 0.0

    def test_gm_equal_cost_equal_probability(self, rng):
        """States with the same cost keep identical probabilities at any depth."""
        inst = small_3sat(rng, n=6, num_clauses=8)
        params = AnsatzParams(
            betas=tuple(rng.uniform(-np.pi, np.pi, 3)),
            gammas=tuple(rng.uniform(-np.pi, np.pi, 3)),
        )
        state = gm_qaoa_ansatz(inst, params)
        probs = np.abs(state) ** 2
        diag = ising_diagonal(inst)
        for value in np.unique(diag):
            group = probs[diag == value]
            np.testing.assert_allclose(group, group[0], atol=1e-12)

    def test_every_layer_preserves_norm(self, rng):
        inst = small_bisection(rng, n=8)
        walk = WalkParams(time=1.1, sharpness=0.6)
        psi = cbqoa_initial_state(inst, "00001111", walk)
        diag = cost_summary(inst).diagonal
        state = psi.copy()
        for beta, gamma in zip(rng.uniform(-3, 3, 4), rng.uniform(-3, 3, 4)):
            state = apply_phase_separator(state, diag, gamma)
            state = apply_rank1_mixer(state, psi, beta)
            assert abs(np.linalg.norm(state) - 1.0) < 1e-10
