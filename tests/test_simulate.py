"""Statevector operations against dense linear-algebra oracles."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbqoa import AnsatzParams, WalkParams
from cbqoa.mixer import PermutationFamily, bit_flip, build_family, transposition
from cbqoa.problems import cost_summary, feasible_indices, ising_diagonal
from cbqoa.simulate import (
    _hypercube_product,
    apply_phase_separator,
    apply_rank1_mixer,
    cbqoa_ansatz,
    cbqoa_initial_state,
    ctqw_trotter_xy,
    gm_qaoa_ansatz,
    hypercube_walk_state,
)

from conftest import (
    adjacency_dense,
    basis_state,
    dense_unitary,
    index_to_bits,
    measurement_distribution,
    oracle_walk_state,
    random_feasible_state,
    random_state,
    sector_walk,
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


def hypercube_walk(weights, z: int, t: float) -> np.ndarray:
    """e^{iAt}|z> on the weighted hypercube, through cbqoa_initial_state."""
    seed = tuple(int(b) for b in index_to_bits(z, len(weights)))
    walk = WalkParams(time=t, sharpness=1.0)
    return cbqoa_initial_state(replace(hypercube_family(weights), seed=seed), walk)


def xy_gate(n: int, seed: int, a: int, b: int, phi: float) -> np.ndarray:
    """e^{i phi (X_a X_b + Y_a Y_b)}|seed>: one product-formula step of a one-transposition
    walk, scattered into the 2^n vector.

    At sharpness 0 the edge weight is 0.5, so time 4 phi gives the angle phi exactly.
    """
    bits = tuple(int(x) for x in index_to_bits(seed, n))
    family = PermutationFamily(
        n=n, permutations=(transposition(a, b),), cost_gains=(0.0,), seed=bits
    )
    rows, amps = ctqw_trotter_xy(family, [4 * phi], [0.0], 1)
    state = np.zeros(1 << n, dtype=np.complex128)
    state[rows] = amps[:, 0]
    return state


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
        out = hypercube_walk([0.5], 0, np.pi)
        np.testing.assert_allclose(out, [0.0, 1j], atol=1e-12)

    def test_zero_time_identity(self):
        for z in range(8):
            out = hypercube_walk([0.3, 0.6, 0.9], z, 0.0)
            np.testing.assert_allclose(out, basis_state(3, index_to_bits(z, 3)))

    def test_matches_dense_exponential(self, rng):
        """Product of X rotations equals e^{iAt} of the weighted hypercube, column by column."""
        for _ in range(5):
            n = int(rng.integers(2, 7))
            weights = rng.uniform(0.05, 0.95, size=n)
            t = float(rng.uniform(0.1, 2.0))
            U = dense_unitary(adjacency_dense(hypercube_family(weights), 1.0), t)
            for z in range(1 << n):
                np.testing.assert_allclose(hypercube_walk(weights, z, t), U[:, z], atol=1e-10)


class TestXYGate:
    """A one-transposition walk from every basis seed: column by column, the gate itself."""

    def test_zero_angle_identity(self):
        for z in range(8):
            want = basis_state(3, index_to_bits(z, 3))
            np.testing.assert_allclose(xy_gate(3, z, 1, 3, 0.0), want)

    def test_quarter_swap(self):
        out = xy_gate(2, 0b01, 1, 2, np.pi / 4)
        np.testing.assert_allclose(out, [0, 0, 1j, 0], atol=1e-12)

    def test_matches_dense_two_qubit_exponential(self, rng):
        """Every basis seed's walk is its column of the dense exponential, so by linearity
        the gate equals it on every state."""
        X = np.array([[0, 1], [1, 0]], dtype=complex)
        Y = np.array([[0, -1j], [1j, 0]])
        for _ in range(10):
            phi = float(rng.uniform(-2, 2))
            U = dense_unitary(np.real(np.kron(X, X) + np.kron(Y, Y)), phi)
            for z in range(4):
                np.testing.assert_allclose(xy_gate(2, z, 1, 2, phi), U[:, z], atol=1e-10)

    def test_sector_preservation(self):
        counts = np.bitwise_count(np.arange(16))
        for z in range(16):
            out = xy_gate(4, z, 2, 4, 0.8)
            assert not out[counts != counts[z]].any()
            assert abs(np.linalg.norm(out) - 1.0) < 1e-12


class TestTrotterWalk:
    def test_zero_time_identity(self, rng):
        inst = small_bisection(rng, n=6)
        for seed in feasible_indices(inst):
            bits = index_to_bits(int(seed), 6)
            family = build_family(inst, bits)
            state = cbqoa_initial_state(family, WalkParams(time=0.0, sharpness=0.5))
            np.testing.assert_allclose(state, basis_state(6, bits))

    def test_weight_sector_confinement(self, rng):
        inst = small_bisection(rng, n=6)
        family = build_family(inst, "000111")
        rows, amps = ctqw_trotter_xy(family, [1.1], [0.9], 3)
        np.testing.assert_array_equal(rows, feasible_indices(inst))
        assert abs(np.linalg.norm(amps) - 1.0) < 1e-12

    def test_error_halves_when_steps_double(self, rng):
        """First-order product formula: deviation scales as t^2/N."""
        inst = small_bisection(rng, n=6, edge_prob=0.7)
        family = build_family(inst, "000111")
        sharpness, t = 0.8, 0.5
        U = dense_unitary(adjacency_dense(family, sharpness), t)
        feas = feasible_indices(inst)
        starts = np.stack([random_feasible_state(rng, 64, feas) for _ in range(10)], axis=1)
        errors = {}
        for steps in (1, 2, 4, 8):
            walked = sector_walk(family, starts, sharpness, t, steps)
            errors[steps] = max(
                np.linalg.norm(walked[:, k] - U @ starts[:, k]) for k in range(starts.shape[1])
            )
        for steps in (1, 2, 4):
            ratio = errors[2 * steps] / errors[steps]
            assert 0.4 <= ratio <= 0.6

    def test_requires_transposition_family(self, rng):
        family = build_family(small_3sat(rng, n=4), "0000")
        with pytest.raises(ValueError):
            ctqw_trotter_xy(family, [0.3], [0.5], 2)


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
            state = cbqoa_initial_state(family, walk)
            assert np.array_equal(state, oracle_walk_state(seed, family, walk, 3))

    @pytest.mark.parametrize("n", [1, 2, 5, 9, 12])
    def test_hypercube_state_matches_oracle(self, rng, n):
        """i^popcount(x xor z) times the real product is the Kronecker product, and
        the product squared is its |amplitude|^2, bit for bit (t = 0 included)."""
        family = hypercube_family(rng.uniform(0.05, 0.95, size=n))
        size = 1 << n
        for time in (0.0, *rng.uniform(-3, 3, size=4)):
            bits = rng.integers(0, 2, size=n)
            walk = WalkParams(time=float(time), sharpness=float(rng.uniform(-4, 4)))
            weights = family.weights(walk.sharpness)
            want = oracle_walk_state(bits, family, walk, 3)
            assert np.array_equal(hypercube_walk_state(bits, weights, walk.time), want)
            product = _hypercube_product(bits, weights, walk.time, np.empty(2 * size))
            assert np.array_equal(product**2, np.abs(want) ** 2)

    def test_sector_batch_matches_full_walk(self, rng):
        """Each column of a batched sweep is the one-column walk at its (time, sharpness)."""
        inst = small_bisection(rng, n=8)
        family = build_family(inst, "01100101")
        times, sharpnesses = rng.uniform(-3, 3, 9), rng.uniform(-4, 4, 9)
        rows, amps = ctqw_trotter_xy(family, times, sharpnesses, 3)
        np.testing.assert_array_equal(rows, feasible_indices(inst))
        for k in range(times.size):
            _, one = ctqw_trotter_xy(family, times[k : k + 1], sharpnesses[k : k + 1], 3)
            assert np.array_equal(amps[:, k], one[:, 0])


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
        psi = cbqoa_initial_state(build_family(inst, "000111"), walk)
        out = cbqoa_ansatz(inst, "000111", walk, AnsatzParams(betas=(), gammas=()))
        np.testing.assert_allclose(out, psi)

    def test_zero_params_return_walk_state(self, rng):
        inst = small_bisection(rng, n=6)
        walk = WalkParams(time=0.7, sharpness=0.4)
        psi = cbqoa_initial_state(build_family(inst, "000111"), walk)
        out = cbqoa_ansatz(inst, "000111", walk, AnsatzParams.zeros(3))
        np.testing.assert_allclose(out, psi, atol=1e-12)

    def test_hypercube_product_state_matches_walk(self, rng):
        inst = small_3sat(rng, n=5, num_clauses=10)
        family = build_family(inst, "01010")
        walk = WalkParams(time=0.9, sharpness=-0.7)
        fast = cbqoa_initial_state(family, walk)
        slow = dense_unitary(adjacency_dense(family, -0.7), 0.9)[:, 0b01010]
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
        psi = cbqoa_initial_state(build_family(inst, "00001111"), walk)
        diag = cost_summary(inst).diagonal
        state = psi.copy()
        for beta, gamma in zip(rng.uniform(-3, 3, 4), rng.uniform(-3, 3, 4)):
            state = apply_phase_separator(state, diag, gamma)
            state = apply_rank1_mixer(state, psi, beta)
            assert abs(np.linalg.norm(state) - 1.0) < 1e-10


class TestAnsatzProperties:
    """Both ansatzes on random small instances, feasible seeds, walks and angles."""

    @settings(max_examples=60, deadline=None)
    @given(
        make=st.sampled_from([small_bisection, small_3sat]),
        n=st.integers(3, 8),
        instance_seed=st.integers(0, 2**32 - 1),
        seed_pick=st.integers(0, 2**16),
        time=st.floats(0.0, 2 * np.pi),
        sharpness=st.floats(-4.0, 4.0),
        angles=st.integers(0, 3).flatmap(
            lambda depth: st.lists(st.floats(-np.pi, np.pi), min_size=2 * depth, max_size=2 * depth)
        ),
    )
    def test_norm_one_and_no_mass_off_the_feasible_set(
        self, make, n, instance_seed, seed_pick, time, sharpness, angles
    ):
        if make is small_bisection:
            n += n % 2
        inst = make(np.random.default_rng(instance_seed), n=n)
        feas = feasible_indices(inst)
        seed = index_to_bits(int(feas[seed_pick % feas.size]), n)
        depth = len(angles) // 2
        params = AnsatzParams(betas=tuple(angles[:depth]), gammas=tuple(angles[depth:]))
        infeasible = np.ones(1 << n, dtype=bool)
        infeasible[feas] = False
        for state in (
            cbqoa_ansatz(inst, seed, WalkParams(time=time, sharpness=sharpness), params),
            gm_qaoa_ansatz(inst, params),
        ):
            probs = np.abs(state) ** 2
            assert abs(np.linalg.norm(state) - 1.0) <= 1e-10
            assert (probs[infeasible] == 0.0).all()
