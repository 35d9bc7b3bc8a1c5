"""Permutation families, sigmoid weights, dense adjacency, and connectivity checks."""

import numpy as np
import pytest

from cbqoa import MaxBisectionInstance
from cbqoa.mixer import (
    PermutationFamily,
    bit_flip,
    build_family,
    permute_indices,
    sigmoid_weight,
    transposition,
)
from cbqoa.problems import feasible_indices

from conftest import adjacency_dense, index_to_bits, small_3sat, small_bisection, verify_assumption


def permute_bits(tau, bits):
    """Bit-vector oracle: flip one bit, or swap two, at 1-based positions."""
    out = np.array(bits, dtype=np.uint8)
    positions = [i - 1 for i in tau.indices]
    out[positions] = 1 - out[positions] if tau.kind == "bit_flip" else out[positions[::-1]]
    return out


class TestApplyPermutation:
    """permute_indices, the one permutation action, on basis indices."""

    def test_bit_flip(self):
        assert permute_indices(bit_flip(2), np.array([0b000]), 3).tolist() == [0b010]

    def test_transposition(self):
        assert permute_indices(transposition(1, 3), np.array([0b100]), 3).tolist() == [0b001]

    def test_order_two(self, rng):
        for _ in range(1000):
            n = int(rng.integers(2, 10))
            indices = rng.integers(0, 1 << n, size=4)
            if rng.random() < 0.5:
                tau = bit_flip(int(rng.integers(1, n + 1)))
            else:
                a, b = rng.choice(n, size=2, replace=False) + 1
                tau = transposition(int(a), int(b))
            twice = permute_indices(tau, permute_indices(tau, indices, n), n)
            assert np.array_equal(twice, indices)

    def test_index_map_matches_bit_map(self, rng):
        n = 6
        indices = np.arange(1 << n)
        for tau in (bit_flip(3), transposition(2, 5)):
            mapped = permute_indices(tau, indices, n)
            for i in range(1 << n):
                expected = permute_bits(tau, index_to_bits(i, n))
                assert np.array_equal(index_to_bits(int(mapped[i]), n), expected)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            permute_indices(bit_flip(4), np.array([0]), 3)


class TestBuildFamily:
    def test_bisection_n6_complete_bipartite(self):
        inst = MaxBisectionInstance(num_vertices=6, edges=((1, 4, 1.0),))
        family = build_family(inst, "000111")
        assert family.size == 9
        pairs = {tuple(sorted(t.indices)) for t in family.permutations}
        assert pairs == {(a, b) for a in (1, 2, 3) for b in (4, 5, 6)}

    def test_3sat_n16_bit_flips(self, rng):
        inst = small_3sat(rng, n=16, num_clauses=10)
        family = build_family(inst, "0" * 16)
        assert family.size == 16
        assert all(t.kind == "bit_flip" for t in family.permutations)

    def test_infeasible_seed_rejected(self):
        inst = MaxBisectionInstance(num_vertices=4, edges=((1, 2, 1.0),))
        with pytest.raises(ValueError):
            build_family(inst, "0111")

    @pytest.mark.parametrize("seed", [(0, 1, 1), (0, 1, 1, 0, 1), (0, 2, 1, 0)])
    def test_family_seed_must_be_n_bits(self, seed):
        """The walk starts at the family's seed, so the family refuses one that is not
        n entries of 0 or 1."""
        family = build_family(MaxBisectionInstance(num_vertices=4, edges=()), "0011")
        with pytest.raises(ValueError, match="seed"):
            PermutationFamily(family.n, family.permutations, family.cost_gains, seed)

    def test_transpositions_preserve_hamming_weight(self, rng):
        for n in (6, 8, 10):
            inst = small_bisection(rng, n=n)
            seed = "0" * (n // 2) + "1" * (n // 2)
            family = build_family(inst, seed)
            feas = feasible_indices(inst)
            for tau in family.permutations:
                images = permute_indices(tau, feas, n)
                assert set(images.tolist()) == set(feas.tolist())

    def test_cost_gains_definition(self, rng):
        from cbqoa.problems import as_bits, bits_to_index, cost_summary

        inst = small_bisection(rng, n=6)
        seed = as_bits("010101")
        family = build_family(inst, seed)
        diagonal = cost_summary(inst).diagonal
        fz = diagonal[bits_to_index(seed)]
        for tau, gain in zip(family.permutations, family.cost_gains):
            assert gain == fz - diagonal[bits_to_index(permute_bits(tau, seed))]


class TestSigmoidWeight:
    def test_zero_sharpness_gives_half(self, rng):
        for gain in rng.uniform(-10, 10, size=20):
            assert sigmoid_weight(float(gain), 0.0) == 0.5

    def test_zero_gain_gives_half(self, rng):
        for sharpness in rng.uniform(-10, 10, size=20):
            assert sigmoid_weight(0.0, float(sharpness)) == 0.5

    def test_limit_and_monotonicity(self):
        assert sigmoid_weight(1.0, 1e3) > 1 - 1e-9
        grid = np.linspace(-4, 4, 41)
        values = sigmoid_weight(grid, 2.0)
        assert np.all(np.diff(values) > 0)

    def test_open_interval(self, rng):
        gains = rng.uniform(-50, 50, size=100)
        w = sigmoid_weight(gains, 0.7)
        assert np.all(w > 0) and np.all(w < 1)

    def test_overflow_safe(self):
        assert sigmoid_weight(-1.0, 800.0) == pytest.approx(0.0)
        assert sigmoid_weight(1.0, 800.0) == pytest.approx(1.0)


class TestAdjacencyDense:
    def test_single_flip_n1(self):
        family = PermutationFamily(
            n=1, permutations=(bit_flip(1),), cost_gains=(0.0,), seed=(0,)
        )
        np.testing.assert_allclose(
            adjacency_dense(family, 0.0), [[0.0, 0.5], [0.5, 0.0]]
        )

    def test_symmetric_zero_diagonal(self, rng):
        inst = small_bisection(rng, n=6)
        family = build_family(inst, "000111")
        adj = adjacency_dense(family, 0.9)
        np.testing.assert_allclose(adj, adj.T)
        assert not np.diagonal(adj).any()

    def test_weight_sectors_disconnected(self, rng):
        """Transpositions never couple strings of different Hamming weight."""
        inst = small_bisection(rng, n=4, edge_prob=1.0)
        family = build_family(inst, "0101")
        adj = adjacency_dense(family, 0.3)
        counts = np.bitwise_count(np.arange(16))
        off_block = adj[counts[:, None] != counts[None, :]]
        assert not off_block.any()

    def test_block_structure_exact(self, rng):
        inst = small_bisection(rng, n=6)
        family = build_family(inst, "000111")
        adj = adjacency_dense(family, 1.3)
        feas = feasible_indices(inst)
        mask = np.zeros(1 << 6, dtype=bool)
        mask[feas] = True
        assert not adj[np.ix_(mask, ~mask)].any()
        assert not adj[np.ix_(~mask, mask)].any()

    def test_hypercube_entries(self, rng):
        inst = small_3sat(rng, n=4, num_clauses=6)
        family = build_family(inst, "0000")
        theta = 0.8
        adj = adjacency_dense(family, theta)
        weights = family.weights(theta)
        for i in range(16):
            for j in range(16):
                distance = bin(i ^ j).count("1")
                if distance == 1:
                    flipped = int(np.log2(i ^ j))
                    assert adj[i, j] == weights[4 - 1 - flipped]
                else:
                    assert adj[i, j] == 0.0


class TestVerifyAssumption:
    def test_hypercube_connected(self, rng):
        inst = small_3sat(rng, n=4, num_clauses=6)
        family = build_family(inst, "0000")
        report = verify_assumption(inst, family)
        assert report.ok
        assert report.connected

    def test_bisection_connected_and_sealed(self, rng):
        inst = small_bisection(rng, n=6)
        family = build_family(inst, "000111")
        report = verify_assumption(inst, family)
        assert report.ok
        assert not report.failures

    def test_disconnection_flagged(self):
        """Dropping transpositions until one support vertex is unreachable."""
        inst = MaxBisectionInstance(num_vertices=4, edges=((1, 2, 1.0),))
        family = build_family(inst, "0011")
        crippled = PermutationFamily(
            n=4,
            permutations=family.permutations[:1],
            cost_gains=family.cost_gains[:1],
            seed=family.seed,
        )
        report = verify_assumption(inst, crippled)
        assert not report.ok
        assert not report.connected
        assert any("not connected" in f for f in report.failures)

    def test_report_serializable(self, rng):
        import json
        from dataclasses import asdict

        inst = small_bisection(rng, n=6)
        report = verify_assumption(inst, build_family(inst, "000111"))
        parsed = json.loads(json.dumps(asdict(report)))
        assert parsed == {"order_two": True, "closure": True, "connected": True, "failures": []}
