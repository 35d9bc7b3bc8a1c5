"""A quality gate that the hypercube walk tuner can fail.

The acceptance suite's ten hard Max 3SAT instances (n=16, rng_seed=11) run
through the pipeline at depth 3 for criterion 10 (`max3sat_records`). These
checks score the walk state that each record holds by its exact dense CVaR
ratio, so they add no tuning of their own.
"""

import numpy as np

from cbqoa import CvarConfig, WalkParams, cvar
from cbqoa.cvar import cvar_discrete
from cbqoa.mixer import build_family
from cbqoa.problems import cost_summary
from cbqoa.simulate import cbqoa_initial_state

ALPHA = 0.5  # the pipeline's default
# Distance allowed from the ratios of the earlier finite-difference walk tuner.
# Measured: 1.6e-5 on instance 1, whose best restart is still descending at the
# last ADAM step, so the two gradients' paths part slightly across the CVaR's
# kinks; at most 4.3e-7 on the other nine.
BASELINE_TOL = 1e-4

# Dense CVaR ratio of each record's walk state, measured with the earlier walk
# tuner (central differences, step 1e-4) on this setup.
FD_BASELINE = np.array(
    [
        0.8529196400,
        0.9046426805,
        0.5980412461,
        0.4393028792,
        0.6369267249,
        0.7485631267,
        0.8342370576,
        0.5793871491,
        0.4573173636,
        0.5949273441,
    ]
)


def walk_ratio(instance, seed_bits, time: float, sharpness: float) -> float:
    """(E[f] - CVaR) / (E[f] - f*) of the walk state: 1 at the optimum, 0 for a random guess."""
    summary = cost_summary(instance)
    state = cbqoa_initial_state(build_family(instance, seed_bits), WalkParams(time, sharpness))
    probs = np.abs(state[summary.feasible]) ** 2
    tail = cvar_discrete(list(zip(summary.diagonal[summary.feasible], probs)), ALPHA)
    return (summary.mean_value - tail) / (summary.mean_value - summary.optimum_value)


def gate_failures(instances, seeds, walks):
    """Instances whose walk ratio leaves the baseline by more than BASELINE_TOL or falls
    below the ratio of the (0, 0) walk, the point mass at the seed."""
    failures = []
    for i, (inst, seed, (time, sharpness)) in enumerate(zip(instances, seeds, walks)):
        tuned = walk_ratio(inst, seed, time, sharpness)
        if abs(tuned - FD_BASELINE[i]) > BASELINE_TOL or tuned < walk_ratio(inst, seed, 0.0, 0.0):
            failures.append(i)
    return failures


def test_tuned_walks_match_the_baseline(hard_max3sat_instances, max3sat_records):
    walks = [(r.walk_time, r.walk_sharpness) for r in max3sat_records]
    seeds = [r.seed_bits for r in max3sat_records]
    assert not gate_failures(hard_max3sat_instances[1], seeds, walks)


def test_gate_fails_for_a_tuner_that_returns_its_first_restart(
    hard_max3sat_instances, max3sat_records, monkeypatch
):
    """A broken tuner that keeps the (0, 0) first restart fails on every instance."""

    def first_restart(value_and_grad, inits, cfg):
        return inits[0], float(value_and_grad(inits[:1], False)[0][0]), []

    monkeypatch.setattr(cvar, "_adam_lockstep", first_restart)
    instances = hard_max3sat_instances[1]
    seeds = [r.seed_bits for r in max3sat_records]
    walks = [
        cvar.tune_walk_params(inst, build_family(inst, seed), CvarConfig(ALPHA))[:2]
        for inst, seed in zip(instances, seeds)
    ]
    assert walks == [(0.0, 0.0)] * len(instances)
    assert gate_failures(instances, seeds, walks) == list(range(len(instances)))
