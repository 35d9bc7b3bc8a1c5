"""Polarity symmetry of Max 3SAT: negating variable i in every clause, and flipping
the seed's bit i, relabels the basis states x -> x xor e_i and changes nothing else.

A test written against an oracle by the same hand can share its bit-order mistake;
this property cannot, as it compares the library with itself under a relabelling.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cbqoa import AdamConfig, CvarConfig, Max3SatInstance
from cbqoa.cvar import tune_walk_params
from cbqoa.mixer import build_family
from cbqoa.problems import cost_summary

from conftest import small_3sat


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
