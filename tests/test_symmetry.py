"""Relabelling symmetries. Negating variable i of a Max 3SAT instance in every
clause, and flipping the seed's bit i, relabels the basis states x -> x xor e_i;
renaming the variables (or the vertices of a bisection) by a permutation, and moving
the seed's bits alike, permutes the bits of x. Neither changes anything else.

A test written against an oracle by the same hand can share its bit-order mistake;
these properties cannot, as they compare the library with itself under a relabelling.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cbqoa import AdamConfig, CvarConfig, Max3SatInstance, MaxBisectionInstance
from cbqoa.cvar import tune_walk_params
from cbqoa.mixer import build_family
from cbqoa.problems import cost_summary

from conftest import small_3sat, small_bisection


def flip_polarity(instance: Max3SatInstance, i: int) -> Max3SatInstance:
    """The instance with the literals of variable i (labels i and i + n) swapped."""
    n = instance.num_vars
    swap = {i: i + n, i + n: i}
    clauses = tuple((*(swap.get(label, label) for label in c[:3]), c[3]) for c in instance.clauses)
    return Max3SatInstance(num_vars=n, clauses=clauses)


def flipped_case(seed: int, n: int, variable: int):
    """A random instance and seed, and both with variable i = (variable mod n) + 1 flipped."""
    rng = np.random.default_rng(seed)
    instance = small_3sat(rng, n=n, num_clauses=4 * n)
    bits = rng.integers(0, 2, n)
    i = variable % n + 1
    flipped_bits = bits.copy()
    flipped_bits[i - 1] ^= 1
    return instance, bits, flip_polarity(instance, i), flipped_bits, i


class TestPolaritySymmetry:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 10), variable=st.integers(0, 9))
    def test_cost_table_permutes_exactly(self, seed, n, variable):
        """Bit 1 is the most significant index bit, so variable i flips 1 << (n - i)."""
        instance, _, flipped, _, i = flipped_case(seed, n, variable)
        table = cost_summary(instance).diagonal.copy()
        permuted = table[np.arange(1 << n) ^ (1 << (n - i))]
        assert cost_summary(flipped).diagonal.tobytes() == permuted.tobytes()

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 10),
        variable=st.integers(0, 9),
        alpha=st.sampled_from([0.5, 1.0, 0.37]),
    )
    def test_walk_tuning_is_unchanged(self, seed, n, variable, alpha):
        """The tuned (time, sharpness) agree to 1e-12. They need not agree bit for bit:
        the stable cost sort orders tied costs by index, and the walk's adjoint sums
        over indices, so the relabelled run adds the same terms in another order."""
        instance, bits, flipped, flipped_bits, _ = flipped_case(seed, n, variable)
        cvar_cfg, adam_cfg = CvarConfig(alpha=alpha), AdamConfig(iterations=40, rng_seed=seed)
        time, sharpness, _ = tune_walk_params(
            instance, build_family(instance, bits), cvar_cfg, adam_cfg
        )
        time_f, sharpness_f, _ = tune_walk_params(
            flipped, build_family(flipped, flipped_bits), cvar_cfg, adam_cfg
        )
        assert abs(time_f - time) <= 1e-12
        assert abs(sharpness_f - sharpness) <= 1e-12


def relabelled_case(seed: int, n: int, kind: str):
    """A random instance and seed, both with variable (or vertex) v renamed perm[v - 1],
    and the image of every basis index under that renaming."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n) + 1
    if kind == "max3sat":
        instance = small_3sat(rng, n=n, num_clauses=4 * n)
        bits = rng.integers(0, 2, n)
        # Plain label v becomes perm[v - 1], negated label n + v becomes n + perm[v - 1].
        image = {0: 0, **{v: int(perm[v - 1]) for v in range(1, n + 1)}}
        image |= {v + n: image[v] + n for v in range(1, n + 1)}
        clauses = tuple((*(image[label] for label in c[:3]), c[3]) for c in instance.clauses)
        relabelled = Max3SatInstance(num_vars=n, clauses=clauses)
    else:
        instance = small_bisection(rng, n=n)
        bits = rng.permutation(np.arange(n) % 2)
        edges = tuple((int(perm[a - 1]), int(perm[b - 1]), w) for a, b, w in instance.edges)
        relabelled = MaxBisectionInstance(num_vertices=n, edges=edges)
    moved_bits = np.empty_like(bits)
    moved_bits[perm - 1] = bits
    # Bit v of x (1 = most significant) moves to bit perm[v - 1].
    x = np.arange(1 << n)
    moved = sum(((x >> (n - v)) & 1) << (n - int(perm[v - 1])) for v in range(1, n + 1))
    return instance, bits, relabelled, moved_bits, perm, moved


class TestRelabellingSymmetry:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 5).map(lambda half: 2 * half),
        kind=st.sampled_from(["max3sat", "max_bisection"]),
    )
    def test_cost_table_permutes_exactly(self, seed, n, kind):
        instance, _, relabelled, _, _, moved = relabelled_case(seed, n, kind)
        table = cost_summary(instance).diagonal.copy()
        assert cost_summary(relabelled).diagonal[moved].tobytes() == table.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5).map(lambda half: 2 * half))
    def test_bisection_family_gains_follow_their_transpositions(self, seed, n):
        """The families pair the vertices in other rounds, but each transposition's
        renamed image carries the same gain, bit for bit."""
        instance, bits, relabelled, moved_bits, perm, _ = relabelled_case(seed, n, "max_bisection")
        family = build_family(instance, bits)
        renamed = {
            frozenset(int(perm[i - 1]) for i in tau): gain
            for tau, gain in zip(family.permutations, family.cost_gains)
        }
        moved_family = build_family(relabelled, moved_bits)
        assert renamed == dict(zip(map(frozenset, moved_family.permutations), moved_family.cost_gains))

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 10),
        alpha=st.sampled_from([0.5, 1.0, 0.37]),
    )
    def test_walk_tuning_is_unchanged(self, seed, n, alpha):
        """As under a polarity flip, the tuned (time, sharpness) agree to 1e-12: the
        walk multiplies its qubits' factors in another order."""
        instance, bits, relabelled, moved_bits, _, _ = relabelled_case(seed, n, "max3sat")
        cvar_cfg, adam_cfg = CvarConfig(alpha=alpha), AdamConfig(iterations=40, rng_seed=seed)
        time, sharpness, _ = tune_walk_params(
            instance, build_family(instance, bits), cvar_cfg, adam_cfg
        )
        time_r, sharpness_r, _ = tune_walk_params(
            relabelled, build_family(relabelled, moved_bits), cvar_cfg, adam_cfg
        )
        assert abs(time_r - time) <= 1e-12
        assert abs(sharpness_r - sharpness) <= 1e-12
