"""A quality gate that the layer tuner can fail.

With the pipeline's default best-of-10,000 seed, every hard Max Bisection
instance tried is already solved by its seed, so nothing there depends on the
layer tuner. These checks seed each of the acceptance suite's ten hard
instances with a single rounding (seed_trials=1), tune the walk once, and tune
1 to 3 layers on top of it.
"""

import numpy as np
import pytest

from cbqoa import AdamConfig, AnsatzParams, CvarConfig, SdpConfig, WalkParams, cvar
from cbqoa.bench import classical_batch
from cbqoa.cvar import cvar_discrete, tune_walk_params
from cbqoa.fast_sim import bin_costs, binned_distribution, eta_from_state, evolve_binned
from cbqoa.mixer import build_family
from cbqoa.problems import cost_summary
from cbqoa.simulate import _apply_layers, cbqoa_initial_state

ALPHA = 0.5
NUM_BINS = 1000
DEPTHS = (1, 2, 3)
# The tuned dense CVaR ratio beats the walk state's on every instance and depth,
# and by at least MARGIN where the walk state's ratio is below ROOM: there the
# smallest gain measured is 0.034. Above it, the layers gained from 2.5e-7
# (instance 5, p=1) to 0.016, with either tuner.
MARGIN = 0.01
ROOM = 0.9
# Distance allowed from the ratios of the earlier finite-difference tuner; the
# largest measured is 7.7e-6 (instance 8, p=3).
BASELINE_TOL = 1e-4

# Dense CVaR ratio of cbqoa_p per instance (rows) and depth (columns), measured
# with the earlier layer tuner (central differences, step 1e-4) on this setup.
FD_BASELINE = np.array(
    [
        [0.7297982595, 0.7742268485, 0.8037689229],
        [0.9056881486, 0.9056881486, 0.9056881486],
        [0.9121467032, 0.9243266188, 0.9275137969],
        [1.0000000000, 1.0000000000, 1.0000000000],
        [0.9325704760, 0.9341710628, 0.9386692838],
        [0.9671057079, 0.9671071487, 0.9671106395],
        [0.9559981275, 0.9560134234, 0.9559888145],
        [0.9023798819, 0.9394465087, 0.9798823003],
        [0.9102422881, 0.9441515490, 0.9445888221],
        [0.9726943618, 0.9729243159, 0.9731905558],
    ]
)


def walked_states(instances):
    """(instance, summary, walk state) per instance, seeded by one rounding."""
    out = []
    for i, inst in enumerate(instances):
        summary = cost_summary(inst)
        rng = np.random.default_rng(2000 + i)
        assignments, _, _ = classical_batch(inst, SdpConfig(rng_seed=1000 + i), rng, 1)
        seed = assignments[0]
        family = build_family(inst, seed)
        adam = AdamConfig(rng_seed=3000 + i)
        time, sharpness, _ = tune_walk_params(inst, family, CvarConfig(ALPHA), adam)
        psi = cbqoa_initial_state(family, WalkParams(time, sharpness))
        out.append((inst, summary, psi))
    return out


def dense_cvar(summary, state) -> float:
    probs = np.abs(state[summary.feasible]) ** 2
    return cvar_discrete(list(zip(summary.diagonal[summary.feasible], probs)), ALPHA)


def ratio(summary, cvar_value: float) -> float:
    """(E[f] - CVaR) / (E[f] - f*): 1 at the optimum, 0 for a random guess."""
    return (summary.mean_value - cvar_value) / (summary.mean_value - summary.optimum_value)


def gate_rows(walked):
    """Per instance and depth: the walk state's and the tuned layers' exact CVaR
    ratios, and the binned-vs-dense CVaR gap of the tuned layers with its bound."""
    rows = []
    for i, (inst, summary, psi) in enumerate(walked):
        binning = bin_costs(summary.diagonal, summary.feasible, NUM_BINS)
        base = eta_from_state(psi, binning)
        span = binning.upper - binning.lower
        for depth in DEPTHS:
            adam = AdamConfig(rng_seed=4000 + 10 * i + depth)
            betas, gammas, _ = cvar.tune_ansatz_params(inst, psi, depth, CvarConfig(ALPHA), adam)
            params = AnsatzParams(betas=betas, gammas=gammas)
            dense = dense_cvar(summary, _apply_layers(psi.copy(), psi, summary.diagonal, params))
            binned = cvar_discrete(
                binned_distribution(evolve_binned(base, binning, params), binning), ALPHA
            )
            rows.append(
                {
                    "instance": i,
                    "depth": depth,
                    "walk": ratio(summary, dense_cvar(summary, psi)),
                    "tuned": ratio(summary, dense),
                    "gap": abs(binned - dense),
                    "bound": 10.0 * depth * binning.width * span / ALPHA,  # criterion 6
                }
            )
    return rows


def margin_failures(rows):
    """(instance, depth) pairs whose tuned layers do not beat the walk state by their margin."""
    return [
        (r["instance"], r["depth"])
        for r in rows
        if r["tuned"] <= r["walk"] + (MARGIN if r["walk"] < ROOM else 0.0)
    ]


@pytest.fixture(scope="module")
def walked(hard_bisection_instances):
    return walked_states(hard_bisection_instances[1])


@pytest.fixture(scope="module")
def rows(walked):
    return gate_rows(walked)


def test_layers_beat_the_walk_state(rows):
    assert not margin_failures(rows)
    assert sum(r["walk"] < ROOM for r in rows) >= len(DEPTHS) * 5  # the margin applies somewhere


def test_binned_and_dense_cvar_agree(rows):
    assert all(r["gap"] <= r["bound"] for r in rows)


def test_tuned_ratios_match_the_baseline(rows):
    tuned = np.array([r["tuned"] for r in rows]).reshape(-1, len(DEPTHS))
    np.testing.assert_allclose(tuned, FD_BASELINE, rtol=0, atol=BASELINE_TOL)


def test_gate_fails_for_a_tuner_that_returns_its_first_restart(walked, monkeypatch):
    """A broken tuner that keeps the all-zero first restart fails the margin check."""

    def first_restart(value_and_grad, inits, cfg):
        return inits[0], float(value_and_grad(inits[:1], False)[0][0]), []

    monkeypatch.setattr(cvar, "_adam_lockstep", first_restart)
    assert len(margin_failures(gate_rows(walked))) == len(walked) * len(DEPTHS)
