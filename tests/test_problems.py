"""Cost functions, feasibility, metrics, and the diagonal against direct oracles."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cbqoa import (
    DegenerateInstanceError,
    Max3SatInstance,
    MaxBisectionInstance,
    instance_id,
    load_instance,
    save_instance,
)
from cbqoa.errors import CapacityError
from cbqoa.problems import (
    MAX_DENSE_VARS,
    _check_capacity,
    _quality_ratio,
    approx_ratio_beta,
    as_bits,
    beta_values,
    bits_to_index,
    bits_to_str,
    cost_summary,
    feasible_indices,
    instance_from_dict,
    is_feasible,
    ising_diagonal,
)
from cbqoa.seeds import rounding_costs

from conftest import index_to_bits, small_3sat, small_bisection


# ---------------------------------------------------------------------------
# Independent oracles (kept deliberately naive)


def clause_satisfied(clause, bits, n):
    """Literal-by-literal clause check: label 0 is false, n+i negates i."""
    i, j, k, _ = clause
    for label in (i, j, k):
        if label == 0:
            continue
        value = bits[label - 1] if label <= n else 1 - bits[label - n - 1]
        if value == 1:
            return True
    return False


def sat_cost_oracle(instance, bits):
    return -sum(
        c[3] for c in instance.clauses if clause_satisfied(c, bits, instance.num_vars)
    )


def cut_cost_oracle(instance, bits):
    return -sum(w for a, b, w in instance.edges if bits[a - 1] != bits[b - 1])


def all_bitstrings(n):
    for index in range(1 << n):
        yield index_to_bits(index, n)


def cost(instance, bits):
    """f(x) of one string, from the batch cost that scores the roundings."""
    return float(rounding_costs(instance, as_bits(bits, instance.n)[None])[0])


class TestEvaluateCost:
    def test_single_clause_unsatisfied(self, single_clause):
        assert cost(single_clause, "000") == 0.0

    def test_single_clause_satisfied(self, single_clause):
        assert cost(single_clause, "100") == -1.0

    def test_single_edge(self, single_edge):
        assert cost(single_edge, "01") == -1.0
        assert cost(single_edge, "11") == 0.0

    def test_length_mismatch(self, single_clause):
        with pytest.raises(ValueError):
            approx_ratio_beta(single_clause, "0000")

    def test_sat_cost_matches_clause_oracle(self):
        """Polynomial cost equals minus the directly-counted satisfied weight."""
        rng = np.random.default_rng(0)
        for _ in range(3):
            inst = small_3sat(rng, n=7, num_clauses=15)
            for bits in all_bitstrings(7):
                expected = sat_cost_oracle(inst, bits)
                assert math.isclose(cost(inst, bits), expected, abs_tol=1e-12)

    def test_bisection_cost_matches_cut_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(3):
            inst = small_bisection(rng, n=8)
            for bits in all_bitstrings(8):
                expected = cut_cost_oracle(inst, bits)
                assert math.isclose(cost(inst, bits), expected, abs_tol=1e-12)

    def test_defined_on_infeasible_strings(self, single_edge):
        # same polynomial everywhere, no feasibility gate
        assert cost(single_edge, "11") == 0.0


class TestFeasibility:
    def test_3sat_always_feasible(self, single_clause):
        assert all(is_feasible(single_clause, bits) for bits in all_bitstrings(3))

    def test_bisection_balanced_only(self):
        inst = MaxBisectionInstance(num_vertices=4, edges=((1, 2, 1.0),))
        assert is_feasible(inst, "0011")
        assert not is_feasible(inst, "0111")

    def test_enumerate_bisection_n2(self, single_edge):
        rows = feasible_indices(single_edge)
        assert [bits_to_str(index_to_bits(int(i), 2)) for i in rows] == ["01", "10"]

    def test_enumerate_3sat_n2(self):
        inst = Max3SatInstance(num_vars=2, clauses=((1, 2, 2, 1.0),))
        rows = feasible_indices(inst)
        assert [bits_to_str(index_to_bits(int(i), 2)) for i in rows] == ["00", "01", "10", "11"]

    def test_enumerate_bisection_n12_count(self):
        inst = MaxBisectionInstance(num_vertices=12, edges=((1, 2, 1.0),))
        assert feasible_indices(inst).size == math.comb(12, 6)

    def test_lexicographic_order(self):
        inst = MaxBisectionInstance(num_vertices=6, edges=((1, 2, 1.0),))
        rows = [bits_to_str(index_to_bits(int(i), 6)) for i in feasible_indices(inst)]
        assert rows == sorted(rows)


class TestCapacity:
    def test_largest_dense_size_is_accepted(self):
        """Checked before any allocation: MAX_DENSE_VARS passes, one more raises."""
        _check_capacity(MAX_DENSE_VARS)
        with pytest.raises(CapacityError, match=f"n <= {MAX_DENSE_VARS}"):
            _check_capacity(MAX_DENSE_VARS + 1)


class TestOptimumAndMean:
    def test_single_clause_tiebreak(self, single_clause):
        summary = cost_summary(single_clause)
        assert bits_to_str(index_to_bits(summary.optimum_index, 3)) == "001"
        assert summary.optimum_value == -1.0

    def test_single_edge_optimum(self, single_edge):
        summary = cost_summary(single_edge)
        assert bits_to_str(index_to_bits(summary.optimum_index, 2)) == "01"
        assert summary.optimum_value == -1.0

    def test_matches_exhaustive_scan(self):
        """Second, independent enumeration over the feasible set."""
        rng = np.random.default_rng(2)
        inst = small_bisection(rng, n=10)
        best_bits, best_value = None, np.inf
        for bits in all_bitstrings(10):
            if bits.sum() != 5:
                continue
            value = cut_cost_oracle(inst, bits)
            if value < best_value:
                best_bits, best_value = bits, value
        summary = cost_summary(inst)
        assert math.isclose(summary.optimum_value, best_value, abs_tol=1e-12)
        assert np.array_equal(index_to_bits(summary.optimum_index, 10), best_bits)

    def test_mean_single_edge(self, single_edge):
        assert cost_summary(single_edge).mean_value == -1.0

    def test_mean_single_clause(self, single_clause):
        assert math.isclose(cost_summary(single_clause).mean_value, -7.0 / 8.0, abs_tol=1e-15)

    def test_mean_matches_streaming_oracle(self):
        rng = np.random.default_rng(3)
        inst = small_3sat(rng, n=8, num_clauses=20)
        total, count = 0.0, 0
        for bits in all_bitstrings(8):
            total += sat_cost_oracle(inst, bits)
            count += 1
        assert math.isclose(cost_summary(inst).mean_value, total / count, rel_tol=1e-12)


class TestApproxRatio:
    def test_optimum_has_ratio_one(self):
        rng = np.random.default_rng(4)
        inst = small_3sat(rng, n=6)
        bits = index_to_bits(cost_summary(inst).optimum_index, 6)
        assert approx_ratio_beta(inst, bits) == 1.0

    def test_affine_invariance(self):
        """Ratio recomputed under f -> 3f + 7 agrees to 1e-12."""
        rng = np.random.default_rng(5)
        inst = small_bisection(rng, n=8)
        summary = cost_summary(inst)
        mapped = 3.0 * summary.diagonal + 7.0
        feas = feasible_indices(inst)
        mean2 = mapped[feas].mean()
        opt2 = mapped[feas].min()
        for _ in range(20):
            z = feas[rng.integers(feas.size)]
            bits = index_to_bits(int(z), 8)
            direct = approx_ratio_beta(inst, bits)
            remapped = (mean2 - mapped[z]) / (mean2 - opt2)
            assert abs(direct - remapped) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        make=st.sampled_from([small_bisection, small_3sat]),
        n=st.integers(3, 8),
        instance_seed=st.integers(0, 2**32 - 1),
        scale=st.floats(0.1, 10.0),
        shift=st.floats(-10.0, 10.0),
    )
    def test_beta_values_invariant_under_affine_map(self, make, n, instance_seed, scale, shift):
        """The ratios of the table f -> a f + b (a > 0) agree with beta_values to 1e-12,
        relative where |beta| > 1: infeasible strings of a small instance can reach |beta| ~ 100."""
        if make is small_bisection:
            n += n % 2
        inst = make(np.random.default_rng(instance_seed), n=n)
        summary = cost_summary(inst)
        assume(not summary.degenerate)
        mapped = scale * summary.diagonal + shift
        values = mapped[summary.feasible]
        rescaled = replace(
            summary,
            diagonal=mapped,
            optimum_value=float(values.min()),
            mean_value=float(values.mean()),
        )
        np.testing.assert_allclose(
            _quality_ratio(rescaled, rescaled.diagonal), beta_values(inst), rtol=1e-12, atol=1e-12
        )

    def test_argmin_invariant_under_affine_map(self):
        rng = np.random.default_rng(6)
        inst = small_bisection(rng, n=8)
        summary = cost_summary(inst)
        feas = feasible_indices(inst)
        original = feas[np.argmin(summary.diagonal[feas])]
        mapped = feas[np.argmin((3.0 * summary.diagonal + 7.0)[feas])]
        assert original == mapped

    def test_degenerate_instance_raises(self):
        inst = Max3SatInstance(num_vars=3, clauses=())
        with pytest.raises(DegenerateInstanceError):
            approx_ratio_beta(inst, "000")

    def test_infeasible_solution_rejected(self):
        inst = MaxBisectionInstance(num_vertices=4, edges=((1, 2, 1.0),))
        with pytest.raises(ValueError):
            approx_ratio_beta(inst, "0111")


def pauli_z_diagonal(n, var):
    """Diagonal of Z on 1-based qubit var: +1 where the bit is 0."""
    indices = np.arange(1 << n)
    bits = (indices >> (n - var)) & 1
    return 1.0 - 2.0 * bits


def literal_pauli_diagonal(n, label):
    if label == 0:
        return np.ones(1 << n)
    if label <= n:
        return pauli_z_diagonal(n, label)
    return -pauli_z_diagonal(n, label - n)


class TestIsingDiagonal:
    def test_entries_equal_cost(self, single_clause):
        diag = ising_diagonal(single_clause)
        for bits in all_bitstrings(3):
            assert diag[bits_to_index(bits)] == cost(single_clause, bits)
        rows = np.array(list(all_bitstrings(3)))
        indices = bits_to_index(rows)
        assert indices.dtype == np.int64
        assert indices.tolist() == [bits_to_index(bits) for bits in rows]

    def test_3sat_pauli_decomposition(self):
        """Diagonal of sum_C w [ (I+B_i)(I+B_j)(I+B_k)/8 - I ] with B from Z's."""
        rng = np.random.default_rng(7)
        for _ in range(3):
            inst = small_3sat(rng, n=7, num_clauses=14)
            n = inst.num_vars
            expected = np.zeros(1 << n)
            for i, j, k, w in inst.clauses:
                bi = literal_pauli_diagonal(n, i)
                bj = literal_pauli_diagonal(n, j)
                bk = literal_pauli_diagonal(n, k)
                expected += w * ((1 + bi) * (1 + bj) * (1 + bk) / 8.0 - 1.0)
            np.testing.assert_allclose(ising_diagonal(inst), expected, atol=1e-10)

    def test_bisection_pauli_decomposition(self):
        """Diagonal of (1/2) sum_E w (Z_a Z_b - I)."""
        rng = np.random.default_rng(8)
        inst = small_bisection(rng, n=8)
        n = inst.num_vertices
        expected = np.zeros(1 << n)
        for a, b, w in inst.edges:
            expected += 0.5 * w * (pauli_z_diagonal(n, a) * pauli_z_diagonal(n, b) - 1.0)
        np.testing.assert_allclose(ising_diagonal(inst), expected, atol=1e-10)

    def test_zero_weight_instance(self):
        inst = Max3SatInstance(num_vars=4, clauses=((1, 2, 3, 0.0),))
        assert not ising_diagonal(inst).any()


class TestInstanceFormat:
    def test_json_round_trip(self, tmp_path):
        inst = Max3SatInstance(num_vars=4, clauses=((2, 1, 7, 0.5), (3, 4, 4, 1.5)))
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        loaded = load_instance(path)
        assert loaded == inst
        assert instance_id(loaded) == instance_id(inst)

    def test_labels_normalized_sorted(self):
        inst = Max3SatInstance(num_vars=4, clauses=((7, 1, 2, 0.5),))
        assert inst.clauses[0][:3] == (1, 2, 7)

    def test_file_format_fields(self):
        inst = MaxBisectionInstance(num_vertices=4, edges=((2, 1, 1.0),))
        data = inst.to_dict()
        assert data["type"] == "max_bisection"
        assert data["edges"] == [[1, 2, 1.0]]
        assert instance_from_dict(json.loads(json.dumps(data))) == inst

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            Max3SatInstance(num_vars=3, clauses=((1, 2, 9, 1.0),))  # label out of range
        for labels in ((-1, 1, 2), (1, 2, 7)):  # one past each end of [0, 2n]
            with pytest.raises(ValueError, match=r"out of range \[0, 6\]"):
                Max3SatInstance(num_vars=3, clauses=((*labels, 1.0),))
        inst = Max3SatInstance(num_vars=3, clauses=((0, 1, 6, 1.0),))  # both ends accepted
        assert inst.clauses == ((0, 1, 6, 1.0),)
        assert Max3SatInstance(num_vars=1, clauses=((0, 1, 2, 1.0),)).n == 1  # the least n
        with pytest.raises(ValueError):
            Max3SatInstance(num_vars=3, clauses=((1, 2, 3, -1.0),))  # negative weight
        with pytest.raises(ValueError):
            MaxBisectionInstance(num_vertices=3, edges=())  # odd vertex count
        with pytest.raises(ValueError):
            MaxBisectionInstance(num_vertices=4, edges=((1, 2, 1.0), (2, 1, 0.5)))  # dup
        with pytest.raises(ValueError, match="out of range"):
            MaxBisectionInstance(num_vertices=4, edges=((2, 2, 0.5),))  # self-loop

    @pytest.mark.parametrize(
        "data",
        [
            {"type": "max3sat", "num_vars": 3.9, "clauses": []},
            {"type": "max3sat", "num_vars": 3, "clauses": [[1.5, 2, 3, 1.0]]},
            {"type": "max_bisection", "num_vertices": 4.5, "edges": []},
            {"type": "max_bisection", "num_vertices": 4, "edges": [[1.7, 2, 1.0]]},
            {"type": "max_bisection", "num_vertices": float("inf"), "edges": []},
        ],
        ids=["num-vars", "clause-label", "num-vertices", "edge-end", "infinite"],
    )
    def test_fractional_counts_and_labels_rejected(self, data):
        """A fractional count or label raises rather than load a truncated instance."""
        with pytest.raises(ValueError, match="integer|malformed"):
            instance_from_dict(data)

    def test_integral_floats_load_as_ints(self):
        sat = {"type": "max3sat", "num_vars": 3.0, "clauses": [[1.0, 2.0, 6.0, 0.5]]}
        cut = {"type": "max_bisection", "num_vertices": 4.0, "edges": [[2.0, 1.0, 1.0]]}
        for data, expected in (
            (sat, Max3SatInstance(num_vars=3, clauses=((1, 2, 6, 0.5),))),
            (cut, MaxBisectionInstance(num_vertices=4, edges=((1, 2, 1.0),))),
        ):
            loaded = instance_from_dict(data)
            assert loaded == expected
            assert instance_id(loaded) == instance_id(expected)
