"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The expensive corpora (hard
instance sets and full pipeline records) are generated once per session and
shared across criteria.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from cbqoa import AnsatzParams, PipelineConfig, SdpConfig, WalkParams
from cbqoa.bench import (
    estimate_seed_pogs,
    pogs_repeated,
    random_max3sat,
    random_max_bisection,
    run_depths,
)
from cbqoa.cvar import _cvar_boundary, cvar_discrete
from cbqoa.fast_sim import bin_costs, eta_from_state, evolve_binned
from cbqoa.mixer import PermutationFamily, build_family
from cbqoa.problems import cost_summary, feasible_indices
from cbqoa.seeds import kz_round_batch, rounding_costs, solve_kz_sdp
from cbqoa.simulate import (
    _apply_layers,
    apply_phase_separator,
    apply_rank1_mixer,
    cbqoa_initial_state,
)

from conftest import (
    adjacency_dense,
    binned_diagonal,
    dense_unitary,
    index_to_bits,
    random_feasible_state,
    random_satisfiable_max3sat,
    random_state,
    sector_walk,
)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------
# Shared corpora


@pytest.fixture(scope="session")
def bisection_records(hard_bisection_instances):
    """Depth 1, 2 and 3 pipeline records of the ten hard Max Bisection instances, from
    one run per instance."""
    _, instances = hard_bisection_instances
    runs = [
        run_depths(inst, (1, 2, 3), PipelineConfig(rng_seed=1000 + i))
        for i, inst in enumerate(instances)
    ]
    return {depth: [records[k] for records in runs] for k, depth in enumerate((1, 2, 3))}


def _tuned(records, instances) -> str:
    """How many records ran the quantum part: the pipeline tunes the walk and the cbqoa
    layers only from a seed above its instance's optimum."""
    count = sum(r.seed_cost > cost_summary(i).optimum_value for r, i in zip(records, instances))
    return f"walk and cbqoa layers tuned on {count}/{len(records)} records"


def hypercube_family(weights):
    logits = np.log(weights / (1.0 - weights))
    n = len(weights)
    return PermutationFamily(
        n=n,
        permutations=tuple((i,) for i in range(1, n + 1)),
        cost_gains=tuple(float(x) for x in logits),
        seed=(0,) * n,
    )


def test_criterion_1_exact_hypercube_walk():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        weights = rng.uniform(0.05, 0.95, size=n)
        t = float(rng.uniform(0.05, 2.5))
        family = hypercube_family(weights)
        U = dense_unitary(adjacency_dense(family, 1.0), t)
        # The walk from every basis seed z is column z of U.
        walk = WalkParams(time=t, sharpness=1.0)
        for z in range(1 << n):
            seed = tuple(int(b) for b in index_to_bits(z, n))
            state = cbqoa_initial_state(replace(family, seed=seed), walk)
            worst = max(worst, np.abs(state - U[:, z]).max())
    elapsed = time.perf_counter() - start
    report(
        1,
        worst <= 1e-10 and elapsed <= 10,
        f"max amplitude deviation {worst:.2e} (<= 1e-10), {elapsed:.1f}s (<= 10s)",
    )


def test_criterion_2_trotter_scaling():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    ratios = []
    for _ in range(3):
        inst = random_max_bisection(rng, 6, 0.7)
        family = build_family(inst, "000111")
        sharpness = float(rng.uniform(0.3, 1.2))
        t = 0.5
        U = dense_unitary(adjacency_dense(family, sharpness), t)
        feas = feasible_indices(inst)
        starts = np.stack([random_feasible_state(rng, 64, feas) for _ in range(10)], axis=1)
        err = {}
        for steps in (1, 2, 4, 8):
            walked = sector_walk(family, starts, sharpness, t, steps)
            err[steps] = max(
                np.linalg.norm(walked[:, k] - U @ starts[:, k]) for k in range(starts.shape[1])
            )
        ratios.extend(err[2 * steps] / err[steps] for steps in (1, 2, 4))
    elapsed = time.perf_counter() - start
    ok = all(0.4 <= r <= 0.6 for r in ratios) and elapsed <= 30
    report(
        2,
        ok,
        f"halving ratios {[f'{r:.3f}' for r in ratios]} all in [0.4, 0.6], {elapsed:.1f}s (<= 30s)",
    )


def test_criterion_3_mixer_identity():
    rng = np.random.default_rng(103)
    worst = 0.0
    inst = random_max_bisection(rng, 6, 0.7)
    family = build_family(inst, "000111")
    z_index = 7  # 000111
    for _ in range(20):
        t = float(rng.uniform(0.1, 2.0))
        sharpness = float(rng.uniform(-2, 2))
        beta = float(rng.uniform(-np.pi, np.pi))
        E = dense_unitary(adjacency_dense(family, sharpness), t)
        psi = E[:, z_index].copy()
        phase = np.eye(64, dtype=complex)
        phase[z_index, z_index] = np.exp(-1j * beta)
        dense = E @ phase @ E.conj().T
        state = random_state(rng, 64)
        deviation = np.abs(apply_rank1_mixer(state, psi, beta) - dense @ state).max()
        worst = max(worst, deviation)
    report(3, worst <= 1e-10, f"max deviation from three-factor form {worst:.2e} (<= 1e-10)")


def test_criterion_4_feasibility_confinement():
    rng = np.random.default_rng(104)
    worst = 0.0
    for n in (6, 8, 10):
        inst = random_max_bisection(rng, n, 0.5)
        seed = "0" * (n // 2) + "1" * (n // 2)
        feas = feasible_indices(inst)
        infeasible_mask = np.ones(1 << n, dtype=bool)
        infeasible_mask[feas] = False
        diag = cost_summary(inst).diagonal
        for depth in (1, 2, 3):
            walk = WalkParams(
                time=float(rng.uniform(0.1, 1.5)), sharpness=float(rng.uniform(-2, 2))
            )
            psi = cbqoa_initial_state(build_family(inst, seed), walk)
            state = psi.copy()
            worst = max(worst, float((np.abs(state) ** 2)[infeasible_mask].sum()))
            for _ in range(depth):
                state = apply_phase_separator(state, diag, float(rng.uniform(-np.pi, np.pi)))
                state = apply_rank1_mixer(state, psi, float(rng.uniform(-np.pi, np.pi)))
                worst = max(worst, float((np.abs(state) ** 2)[infeasible_mask].sum()))
    report(4, worst <= 1e-10, f"max infeasible probability across layers {worst:.2e} (<= 1e-10)")


def _random_instance_for_fast_sim(rng, index):
    if index % 2 == 0:
        return random_max3sat(rng, num_vars=10, num_clauses=45), "0101010101"
    n = 10 if index % 4 == 1 else 12
    return random_max_bisection(rng, n, 0.5), "0" * (n // 2) + "1" * (n // 2)


def test_criterion_5_fast_sim_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(105)
    worst_tv = 0.0
    worst_cvar_rel = 0.0
    for index in range(10):
        inst, seed = _random_instance_for_fast_sim(rng, index)
        summary = cost_summary(inst)
        feas = feasible_indices(inst)
        walk = WalkParams(time=float(rng.uniform(0.2, 1.0)), sharpness=float(rng.uniform(-1, 1)))
        psi = cbqoa_initial_state(build_family(inst, seed), walk)
        params = AnsatzParams(
            betas=tuple(rng.uniform(-np.pi, np.pi, 3)),
            gammas=tuple(rng.uniform(-np.pi, np.pi, 3)),
        )

        # substituted-cost regime: binned run must match the dense run exactly
        binning = bin_costs(summary.diagonal, feas, 750)
        fast = evolve_binned(eta_from_state(psi, binning), binning, params)
        dense = _apply_layers(psi, binned_diagonal(binning, summary.diagonal.size), params)
        aggregated = np.bincount(
            binning.bin_index, weights=np.abs(dense[feas]) ** 2, minlength=binning.num_bins
        )
        tv = 0.5 * float(np.abs(aggregated - np.abs(fast) ** 2).sum())
        worst_tv = max(worst_tv, tv)

        # true-cost regime at the default bin count: CVaR within 1% of the span
        binning2 = bin_costs(summary.diagonal, feas, 1000)
        fast2 = evolve_binned(eta_from_state(psi, binning2), binning2, params)
        cvar_fast = _cvar_boundary(binning2.bin_costs, np.abs(fast2) ** 2, 0.5)[0]
        dense2 = _apply_layers(psi, summary.diagonal, params)
        values = summary.diagonal[feas]
        order = np.argsort(values)
        cvar_dense = _cvar_boundary(values[order], (np.abs(dense2[feas]) ** 2)[order], 0.5)[0]
        span = binning2.upper - binning2.lower
        worst_cvar_rel = max(worst_cvar_rel, abs(cvar_fast - cvar_dense) / span)
    elapsed = time.perf_counter() - start
    ok = worst_tv <= 1e-8 and worst_cvar_rel <= 1e-2 and elapsed <= 120
    report(
        5,
        ok,
        f"max TV {worst_tv:.2e} (<= 1e-8), max CVaR error {worst_cvar_rel:.2e} of span "
        f"(<= 1e-2), {elapsed:.1f}s (<= 120s)",
    )


def test_criterion_6_bin_count_bound():
    """Uniform bins on an instance with more distinct costs than the largest M (n = 14
    has up to 1,716), and level bins, exact up to float rounding, once M reaches them."""
    rng = np.random.default_rng(106)
    inst = random_max_bisection(rng, 14, 0.6)
    summary = cost_summary(inst)
    feas = feasible_indices(inst)
    psi = cbqoa_initial_state(build_family(inst, "00000001111111"), WalkParams(0.6, 0.5))
    values = summary.diagonal[feas]
    order = np.argsort(values)
    levels = np.unique(values).size
    assert levels > 1000
    alpha, depth = 0.5, 3
    points = [
        AnsatzParams(
            betas=tuple(rng.uniform(-np.pi, np.pi, depth)),
            gammas=tuple(rng.uniform(-np.pi, np.pi, depth)),
        )
        for _ in range(20)
    ]
    dense_cvars = []
    for params in points:
        dense = _apply_layers(psi, summary.diagonal, params)
        probs = (np.abs(dense[feas]) ** 2)[order]
        dense_cvars.append(_cvar_boundary(values[order], probs, alpha)[0])

    def binned_errors(M):
        binning = bin_costs(summary.diagonal, feas, M)
        base = eta_from_state(psi, binning)
        errors = []
        for params, dense_cvar in zip(points, dense_cvars):
            fast = evolve_binned(base, binning, params)
            cvar_fast = _cvar_boundary(binning.bin_costs, np.abs(fast) ** 2, alpha)[0]
            errors.append(abs(cvar_fast - dense_cvar))
        return binning, errors

    mean_err = {}
    fitted_c = 0.0
    for M in (125, 250, 500, 1000):
        binning, errors = binned_errors(M)
        mean_err[M] = float(np.mean(errors))
        span = binning.upper - binning.lower
        bound_unit = depth * binning.width * span / alpha  # error bound at c = 1
        fitted_c = max(fitted_c, max(errors) / bound_unit)
    binning, errors = binned_errors(levels)
    level_err = max(errors) if binning.width == 0 else np.inf

    decreasing = all(
        mean_err[2 * M] <= mean_err[M] * 1.05 + 1e-15 for M in (125, 250, 500)
    ) and mean_err[1000] < mean_err[125]
    ok = decreasing and fitted_c <= 10.0 and level_err <= 1e-9
    report(
        6,
        ok,
        f"mean errors {[f'{mean_err[M]:.2e}' for M in (125, 250, 500, 1000)]} decreasing, "
        f"fitted c {fitted_c:.2f} (<= 10), error {level_err:.1e} on {levels} level bins "
        f"(<= 1e-9)",
    )


def test_criterion_7_cvar_formula():
    rng = np.random.default_rng(107)
    examples_ok = (
        cvar_discrete([(1.0, 0.5), (3.0, 0.5)], 1.0) == 2.0
        and cvar_discrete([(1.0, 0.5), (3.0, 0.5)], 0.5) == 1.0
        and abs(cvar_discrete([(1.0, 0.5), (3.0, 0.5)], 0.75) - 5.0 / 3.0) < 1e-15
    )
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 40))
        values = rng.standard_normal(k) * rng.uniform(0.5, 20)
        probs = rng.random(k)
        probs /= probs.sum()
        pairs = list(zip(values, probs))
        worst = max(worst, abs(cvar_discrete(pairs, 1.0) - float(np.dot(values, probs))))
    ok = examples_ok and worst <= 1e-12
    report(7, ok, f"hand examples exact, alpha=1 vs mean max |diff| {worst:.2e} (<= 1e-12)")


def test_criterion_8_kz_satisfiable_ratio():
    start = time.perf_counter()
    hits = 0
    for seed in range(10):
        rng = np.random.default_rng(200 + seed)
        inst = random_satisfiable_max3sat(rng, num_vars=12, num_clauses=48)
        optimum_cost = cost_summary(inst).optimum_value
        vectors = solve_kz_sdp(inst, SdpConfig(rng_seed=seed))
        assignments = kz_round_batch(vectors, np.random.default_rng(300 + seed), 10000)
        best = -float(rounding_costs(inst, assignments).min())
        if best >= (7.0 / 8.0) * (-optimum_cost) - 1e-9:
            hits += 1
    elapsed = time.perf_counter() - start
    ok = hits >= 9 and elapsed <= 300
    report(8, ok, f"7/8-ratio reached on {hits}/10 satisfiable instances (>= 9), {elapsed:.0f}s (<= 300s)")


def test_criterion_9_hard_instance_reverification(
    hard_bisection_instances, hard_max3sat_instances
):
    passes, total = 0, 0
    for spec, instances in (hard_bisection_instances, hard_max3sat_instances):
        sigma = math.sqrt(spec.pogs_cutoff * (1 - spec.pogs_cutoff) / spec.rounding_trials)
        for index, instance in enumerate(instances):
            estimate = estimate_seed_pogs(
                instance,
                spec.ratio_threshold,
                spec.rounding_trials,
                np.random.default_rng(7000 + index),
                SdpConfig(rng_seed=7100 + index),
            )
            total += 1
            if estimate <= spec.pogs_cutoff + 2 * sigma:
                passes += 1
    ok = passes >= math.ceil(0.95 * total)
    report(9, ok, f"re-estimated POGS below cutoff (2-sigma slack) on {passes}/{total} (>= 95%)")


def _pogs_column(records, algorithm, threshold):
    return np.array([r.pogs[algorithm][threshold] for r in records])


def test_criterion_10_directional_reproduction(
    bisection_records, max3sat_records, hard_bisection_instances, hard_max3sat_instances
):
    start = time.perf_counter()
    details = []
    ok = True
    for problem, records, (_, instances), seed_algorithm, threshold in (
        ("max_bisection", bisection_records[3], hard_bisection_instances, "fl", "0.99"),
        ("max3sat", max3sat_records, hard_max3sat_instances, "kz", "0.8"),
    ):
        cbqoa3 = _pogs_column(records, "cbqoa_3", threshold)
        cbqoa0 = _pogs_column(records, "cbqoa_0", threshold)
        gm3 = _pogs_column(records, "gm_qaoa_3", threshold)
        seed = _pogs_column(records, seed_algorithm, threshold)
        med3, med0, medg = np.median(cbqoa3), np.median(cbqoa0), np.median(gm3)
        ordering = med3 >= med0 >= medg
        beats = int((cbqoa3 > seed).sum())
        ok = ok and ordering and beats >= math.ceil(0.7 * len(records))
        details.append(
            f"{problem}: medians cbqoa_3 {med3:.3f} >= cbqoa_0 {med0:.3f} >= gm {medg:.3f} "
            f"({ordering}), beats seed {beats}/{len(records)}, {_tuned(records, instances)}"
        )
    elapsed = time.perf_counter() - start
    report(10, ok and elapsed <= 7200, "; ".join(details))


def test_criterion_11_depth_monotonicity(bisection_records, hard_bisection_instances):
    threshold = "0.99"
    _, instances = hard_bisection_instances
    means, columns = {}, {}
    columns[0] = _pogs_column(bisection_records[3], "cbqoa_0", threshold)
    for depth in (1, 2, 3):
        columns[depth] = _pogs_column(bisection_records[depth], f"cbqoa_{depth}", threshold)
    for depth, col in columns.items():
        means[depth] = float(col.mean())
    ok = True
    details = [f"p={d}: {means[d]:.4f}" for d in (0, 1, 2, 3)]
    for low, high in ((0, 1), (1, 2), (2, 3)):
        diffs = columns[high] - columns[low]
        stderr = float(diffs.std(ddof=1) / math.sqrt(diffs.size))
        if means[high] < means[low] - stderr:
            ok = False
    records = [r for depth in (1, 2, 3) for r in bisection_records[depth]]
    tuned = _tuned(records, instances * 3)
    report(11, ok, f"mean POGS_0.99 {', '.join(details)} non-decreasing within 1 SE; {tuned}")


def test_criterion_12_repetition_formula():
    rng = np.random.default_rng(112)
    trials = 100000
    worst_sigma_units = 0.0
    for pogs, k in ((0.05, 5), (0.2, 3), (0.5, 10), (0.01, 7)):
        draws = rng.random((trials, k)) < pogs
        simulated = float(draws.any(axis=1).mean())
        predicted = pogs_repeated(pogs, k)
        sigma = math.sqrt(predicted * (1 - predicted) / trials)
        worst_sigma_units = max(worst_sigma_units, abs(simulated - predicted) / sigma)
    report(
        12,
        worst_sigma_units <= 3.0,
        f"repeated-run formula within {worst_sigma_units:.2f} sigma of direct simulation (<= 3)",
    )
