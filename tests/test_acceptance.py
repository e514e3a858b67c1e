"""Acceptance gate: seven end-to-end criteria, one visible verdict line each.

Run with plain pytest; the verdict lines print even without -s. Every
criterion asserts, so a FAIL line always comes with a failing test.
"""
import json
import math
import time

import numpy as np
import pytest

from randcompare import (
    AssignmentVector,
    ExactEngine,
    MonteCarloEngine,
    ObservedExperiment,
    PotentialTable,
    REFERENCE_RATES,
    RngStream,
    SampleVector,
    UniformCRD,
    fisher_exact_2x2,
    fisher_randomization_test,
    neyman_randomization_test,
    permutation_test,
    pooled_t_test,
    run_size_power,
    select_components,
    support_label_matrix,
    welch_t_test,
    wilcoxon_test,
)
from randcompare.stats import d_statistic, neyman_se, resolve_weights

from _oracles import NORMAL_CDF_PROBES, STUDENT_T_CDF_PROBES


def _verdict(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_field_study_reproduction(cellphone, capsys):
    obs = cellphone.observed
    design = UniformCRD(obs.n, obs.n1)

    weights = resolve_weights(design, obs.sample, obs.assignment)
    d_obs = d_statistic(obs.responses, obs.assignment, weights)
    nse = neyman_se(obs, design)
    z = d_obs / nse
    rep_neyman = neyman_randomization_test(obs, design)

    t0 = time.perf_counter()
    engine = MonteCarloEngine(10**6, RngStream(7))
    rep_fisher = fisher_randomization_test(obs, design, engine)
    elapsed = time.perf_counter() - t0
    rep_perm = permutation_test(obs, engine)
    rep_welch = welch_t_test(obs)
    rep_pooled = pooled_t_test(obs)
    rep_wilcoxon = wilcoxon_test(obs, engine)

    checks = {
        "difference": abs(d_obs - 51.59) <= 0.005,
        "se": abs(nse - 19.30) <= 0.005,
        "z": abs(z - 2.67) <= 0.005,
        "neyman_p": abs(rep_neyman.p_value - 0.0075) <= 0.0003,
        "fisher_mc_p": abs(rep_fisher.p_value - 0.0074) <= 0.0010,
        "perm_equals_fisher": rep_perm.p_value == rep_fisher.p_value,
        "welch_p": abs(rep_welch.p_value - 0.0110) <= 0.0005,
        "pooled_p": abs(rep_pooled.p_value - 0.0107) <= 0.0005,
        "wilcoxon_p": abs(rep_wilcoxon.p_value - 0.0184) <= 0.0030,
        "runtime": elapsed <= 60.0,
    }
    failed = sorted(k for k, ok in checks.items() if not ok)
    _verdict(
        capsys, 1, not failed,
        f"field study: difference {d_obs:.4f}, se {nse:.4f}, z {z:.4f}, "
        f"fisher mc p {rep_fisher.p_value:.6f} in {elapsed:.1f}s"
        + (f"; failed {failed}" if failed else ""),
    )
    assert not failed


def test_criterion_2_published_rows(capsys):
    pinned = {
        "t3.sc1": (11, 2.0),
        "t4.sc1": (2, 4.5),
        "t5.sc1": (11, 2.0),
        "t6.sc1": (11, 4.5),
    }
    published = {
        "t3.sc1": (4.6, 3.6, 4.7, 4.7, 4.6, 6.5),
        "t4.sc1": (52.7, 49.3, 51.3, 52.5, 52.7, 59.9),
        "t5.sc1": (4.0, 4.0, 4.0, 4.0, 4.0, 4.4),
        "t6.sc1": (80.9, 76.4, 80.4, 80.4, 80.9, 81.3),
    }
    margins = {}
    for sid, (seed, tolerance) in pinned.items():
        estimates = run_size_power(
            sid, replicates=1000, rng=RngStream(seed),
            rows=("randomization",), threads=4,
        )
        got = tuple(e.rejection_rate for e in estimates)
        worst = max(abs(g - r) for g, r in zip(got, published[sid]))
        margins[sid] = (worst, tolerance)
    failed = sorted(sid for sid, (w, tol) in margins.items() if w > tol)
    detail = ", ".join(
        f"{sid} worst {w:.2f} (tol {tol})" for sid, (w, tol) in margins.items()
    )
    _verdict(capsys, 2, not failed, f"published rows: {detail}")
    assert not failed


def test_criterion_3_power_dominance(capsys):
    power_ids = [f"t4.sc{i}" for i in range(1, 7)] + [f"t6.sc{i}" for i in range(1, 7)]
    violations = []
    closest = (math.inf, None)
    for sid in power_ids:
        estimates = run_size_power(sid, replicates=1000, rng=RngStream(11), threads=4)
        rates = {(e.row, e.test_name): e.rejection_rate for e in estimates}
        for row in ("randomization", "process"):
            gap = rates[(row, "neyman_rand")] - rates[(row, "fisher_rand")]
            if gap < 0:
                violations.append(f"{sid}/{row}")
            if gap < closest[0]:
                closest = (gap, f"{sid}/{row}")
    _verdict(
        capsys, 3, not violations,
        f"dominance over {2 * len(power_ids)} scenario rows; smallest "
        f"neyman-fisher gap {closest[0]:+.1f} at {closest[1]}"
        + (f"; violations {violations}" if violations else ""),
    )
    assert not violations


def _random_table(gen, n):
    y1 = np.round(gen.normal(50.0, 10.0, n), 1)
    y2 = np.round(y1 + gen.normal(0.0, 5.0, n), 1)
    return PotentialTable(y1, y2)


def _exact_mean_of_difference(table, design):
    sample = SampleVector.first_n(design.n)
    total = 0.0
    for labels, prob in zip(*support_label_matrix(design)):
        assignment = AssignmentVector(labels)
        responses = select_components(table, sample, assignment)
        weights = resolve_weights(design, sample, assignment)
        total += prob * d_statistic(responses, assignment, weights)
    return total


def test_criterion_4_desk_scale_equivalences(capsys):
    t0 = time.perf_counter()
    gen = RngStream(404).generator()

    # (a) enumeration mean of the difference statistic is the sample
    # mean contrast, exactly
    worst_bias = 0.0
    for _ in range(50):
        n = int(gen.integers(4, 9))
        n1 = int(gen.integers(1, n))
        table = _random_table(gen, n)
        target = table.y1.mean() - table.y2.mean()
        mean_d = _exact_mean_of_difference(table, UniformCRD(n, n1))
        worst_bias = max(worst_bias, abs(mean_d - target))
    ok_a = worst_bias <= 1e-10

    # (b) permutation and design-based exact p-values coincide under a
    # uniform complete randomization
    ok_b = True
    for _ in range(50):
        n = int(gen.integers(4, 9))
        n1 = int(gen.integers(1, n))
        labels = np.repeat([1, 2], [n1, n - n1])
        responses = np.round(gen.normal(0.0, 3.0, n), 2)
        obs = ObservedExperiment(
            SampleVector.first_n(n), AssignmentVector(labels), responses
        )
        p_perm = permutation_test(obs, ExactEngine()).p_value
        p_fisher = fisher_randomization_test(
            obs, UniformCRD(n, n1), ExactEngine()
        ).p_value
        ok_b = ok_b and (p_perm == p_fisher)

    # (c) on binary data with equal arms the enumeration test is the
    # classical hypergeometric two-sided test
    ok_c = True
    worst_c = 0.0
    for n_half in (3, 4, 5):
        n = 2 * n_half
        for k1 in range(n_half + 1):
            for k2 in range(n_half + 1):
                arm1 = [1.0] * k1 + [0.0] * (n_half - k1)
                arm2 = [1.0] * k2 + [0.0] * (n_half - k2)
                obs = ObservedExperiment.from_arms(arm1, arm2)
                p_rand = fisher_randomization_test(
                    obs, UniformCRD(n, n_half), ExactEngine()
                ).p_value
                p_hyper = fisher_exact_2x2(obs).p_value
                worst_c = max(worst_c, abs(p_rand - p_hyper))
                ok_c = ok_c and abs(p_rand - p_hyper) <= 1e-12

    # (d) Monte Carlo agrees with enumeration within sampling error
    ok_d = True
    for seed in range(5):
        responses = np.round(RngStream(seed).generator().normal(0, 5, 6), 1)
        obs = ObservedExperiment(
            SampleVector.first_n(6),
            AssignmentVector([1, 1, 1, 2, 2, 2]),
            responses,
        )
        exact = permutation_test(obs, ExactEngine()).p_value
        mc = permutation_test(obs, MonteCarloEngine(20_000, RngStream(seed + 100)))
        ok_d = ok_d and abs(mc.p_value - exact) <= 3 * mc.mc_stderr

    elapsed = time.perf_counter() - t0
    ok_time = elapsed < 5.0
    ok = ok_a and ok_b and ok_c and ok_d and ok_time
    _verdict(
        capsys, 4, ok,
        f"desk-scale equivalences in {elapsed:.2f}s: bias {worst_bias:.1e}, "
        f"perm=design {ok_b}, binary vs hypergeometric {worst_c:.1e}, "
        f"mc within 3 stderr {ok_d}",
    )
    assert ok_a and ok_b and ok_c and ok_d
    assert ok_time


def test_criterion_5_distribution_functions(capsys):
    from randcompare.special import normal_cdf, student_t_cdf

    worst_normal = max(abs(normal_cdf(x) - p) for x, p in NORMAL_CDF_PROBES)
    worst_t = max(
        abs(student_t_cdf(x, df) - p) for x, df, p in STUDENT_T_CDF_PROBES
    )
    ok = worst_normal <= 1e-10 and worst_t <= 1e-8
    _verdict(
        capsys, 5, ok,
        f"20 probes each: normal max err {worst_normal:.2e} (tol 1e-10), "
        f"t max err {worst_t:.2e} (tol 1e-8)",
    )
    assert len(NORMAL_CDF_PROBES) == 20 and len(STUDENT_T_CDF_PROBES) == 20
    assert ok


def test_criterion_6_exact_size_by_double_enumeration(capsys):
    n, n1, alpha = 8, 4, 0.05
    design = UniformCRD(n, n1)
    sample = SampleVector.first_n(n)
    support_labels, support_probs = support_label_matrix(design)
    gen = RngStream(606).generator()
    worst = 0.0
    for _ in range(20):
        y = np.round(gen.normal(0.0, 10.0, n), 1)
        table = PotentialTable(y, y)  # sharp null holds
        size = 0.0
        for labels, prob in zip(support_labels, support_probs):
            assignment = AssignmentVector(labels)
            obs = ObservedExperiment(
                sample, assignment, select_components(table, sample, assignment)
            )
            p = fisher_randomization_test(obs, design, ExactEngine()).p_value
            size += prob * (p <= alpha)
        worst = max(worst, size)
    ok = worst <= alpha
    _verdict(
        capsys, 6, ok,
        f"double enumeration over {len(support_labels)} assignments x 20 null tables: "
        f"worst exact size {worst:.4f} <= {alpha}",
    )
    assert ok


def test_criterion_7_cli_thread_determinism(capsys, cli_process):
    procs = {
        threads: cli_process("simulate", "t3.sc1", "--seed", "11",
                             "--threads", str(threads), "--format", "json")
        for threads in (1, 8)
    }
    crashed = [
        f"--threads {threads} exited {proc.returncode}: {proc.stderr.strip()}"
        for threads, proc in procs.items() if proc.returncode != 0
    ]
    if crashed:
        _verdict(capsys, 7, False, f"cli run failed; {'; '.join(crashed)}")
    assert not crashed

    def cells(proc):
        doc = json.loads(proc.stdout)
        return [(e["row"], e["test"], e["rejections"]) for e in doc["estimates"]]

    single = cells(procs[1])
    eight = cells(procs[8])
    ok = single == eight
    _verdict(
        capsys, 7, ok,
        f"cli rejection counts identical across thread counts "
        f"({len(single)} cells at 1000 replicates)",
    )
    assert ok
