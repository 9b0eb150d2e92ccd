"""Acceptance suite.

Each test covers one release criterion at its stated tolerance and prints a
single pass/fail line (run with ``pytest tests/test_acceptance.py -s``).
"""

import time

import numpy as np

from qcausal.bench import bootstrap_errorbars, run_random_bench, run_sweep
from qcausal.comb import DirectCause, ShotCounts, make_oracle, pauli_vector
from qcausal.geometry import CC_VERTICES, DC_VERTICES
from qcausal.identify import AlgoConfig, alignment_scan, identify
from qcausal.linalg import pauli, rotation_from_unitary
from qcausal.scenarios import (
    bell_diagonal,
    haar_unitary,
    haar_unitary_matrix,
    plane_cc,
    plane_dc,
    random_state,
)
from reference import ObservableSpec, axis_angle_from_rotation, exact_joints, phase_bell


def report(num, label, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"\n[{status}] criterion {num}: {label} ({elapsed:.1f}s){suffix}", flush=True)


def fibonacci_sphere(n):
    golden = np.pi * (3.0 - np.sqrt(5.0))
    i = np.arange(n)
    z = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(1.0 - z * z)
    theta = golden * i
    return np.stack([r * np.cos(theta), r * np.sin(theta), z], axis=1)


def test_criterion_1_tetrahedron_vertices():
    start = time.perf_counter()
    worst = 0.0
    for k in range(4):
        p = pauli_vector(DirectCause(pauli(k)))
        worst = max(worst, np.abs(p - DC_VERTICES[k]).max())
    for k in range(4):
        weights = np.zeros(4)
        weights[k] = 1.0
        p = pauli_vector(bell_diagonal(weights))
        worst = max(worst, np.abs(p - CC_VERTICES[k]).max())
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 1.0
    report(1, "Pauli channels and Bell states hit the tetrahedron vertices", ok, elapsed,
           f"worst deviation {worst:.2e}")
    assert worst < 1e-9
    assert elapsed < 1.0


def test_criterion_2_alignment_for_haar_channels():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    config = AlgoConfig()
    failures = 0
    for _ in range(1000):
        scenario = haar_unitary(rng)
        angle = axis_angle_from_rotation(rotation_from_unitary(scenario.unitary)).angle
        oracle = make_oracle(scenario)
        entries = alignment_scan(oracle, oracle.query(), config)
        aligned = any(
            e.criterion < 1e-9
            and abs(e.record.correlations[0] - e.record.correlations[1]) < 1e-9
            and abs(e.record.correlations[0] - np.cos(angle)) < 1e-9
            for e in entries
        )
        verdict = identify(make_oracle(scenario), config).verdict
        if not aligned or verdict != "DC":
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 10.0
    report(2, "aligned frame with C33 = 1, C11 = C22 = cos(theta) found for 1000 Haar channels",
           ok, elapsed, f"failures {failures}")
    assert failures == 0
    assert elapsed < 10.0


def test_criterion_3_edge_sweep():
    start = time.perf_counter()
    records = run_sweep("edge", grid=101, seed=0)
    epsilon = 0.075
    delta = 0.15
    bad = []
    for r in records:
        a = float(r.param)
        if r.mechanism == "dc":
            if not (r.criterion < 1e-9 and r.verdict == "DC"):
                bad.append((a, "dc", r.criterion))
        else:
            if r.verdict != "CC":
                bad.append((a, "cc-verdict", r.criterion))
            if 2 * a >= delta:
                if not (abs(r.criterion - a) < 1e-9 and r.criterion > epsilon):
                    bad.append((a, "cc", r.criterion))
    elapsed = time.perf_counter() - start
    ok = not bad
    report(3, "edge sweep: channel criterion < 1e-9, state criterion equals the edge parameter",
           ok, elapsed, f"violations {len(bad)}")
    assert not bad, bad[:5]


def test_criterion_4_plane_second_round():
    start = time.perf_counter()
    eps_prime = 1.0 / np.sqrt(3.0)
    worst_dc = 0.0
    min_cc = np.inf
    for axis in fibonacci_sphere(100):
        result = identify(make_oracle(plane_dc(axis)))
        assert result.verdict == "DC", axis
        worst_dc = max(worst_dc, result.criterion_value)
    d = 10
    for i in range(d + 1):
        for j in range(d + 1 - i):
            weights = np.array([i, j, d - i - j], dtype=float) / d
            result = identify(make_oracle(plane_cc(weights)))
            assert result.verdict == "CC", weights
            min_cc = min(min_cc, result.criterion_value)
    for phi in np.arange(0.0, np.pi + 1e-12, np.pi / 8):
        result = identify(make_oracle(phase_bell(phi)))
        assert result.verdict == "CC", phi
        min_cc = min(min_cc, result.criterion_value)
    elapsed = time.perf_counter() - start
    ok = worst_dc < 1e-6 and min_cc > eps_prime
    report(4, "plane family: channels end on (-1,-1,1), states stay beyond 1/sqrt(3)",
           ok, elapsed, f"worst DC {worst_dc:.2e}, min CC {min_cc:.4f}")
    assert worst_dc < 1e-6
    assert min_cc > eps_prime


def test_criterion_5_no_signaling_audit():
    start = time.perf_counter()
    rng = np.random.default_rng(5005)
    worst = 0.0
    for i in range(1000):
        if i % 2:
            scenario = haar_unitary(rng)
        else:
            scenario = random_state("mixed" if i % 4 else "pure", rng)
        xs, ys = [], []
        for _ in range(10):
            k = int(rng.integers(1, 4))
            # drawn in the order Y setting, X base, X alternative, Y alternative
            obs_y, base_x, alt_x, alt_y = (ObservableSpec(haar_unitary_matrix(rng), k) for _ in range(4))
            xs += [base_x, alt_x, base_x]
            ys += [obs_y, obs_y, alt_y]
        # per pair: (base_x, obs_y), (alt_x, obs_y), (base_x, alt_y), all ten pairs in one evaluation
        p = exact_joints(scenario, xs, ys).reshape(10, 3, 4)
        my = p[..., [0, 1]] + p[..., [2, 3]]  # p(y = +1), p(y = -1)
        mx = p[..., [0, 2]] + p[..., [1, 3]]  # p(x = +1), p(x = -1)
        worst = max(worst, np.abs(my[:, 0] - my[:, 1]).max(), np.abs(mx[:, 0] - mx[:, 2]).max())
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 30.0
    report(5, "remote setting changes never move marginals (1000 scenarios x 10 pairs)",
           ok, elapsed, f"worst deviation {worst:.2e}")
    assert worst < 1e-12
    assert elapsed < 30.0


def test_criterion_6_shot_noise_robustness():
    start = time.perf_counter()
    sampled = run_random_bench(1000, shots=10**5, eta=0.05, seed=606)
    exact = run_random_bench(1000, shots=0, eta=1e-3, seed=607)
    elapsed = time.perf_counter() - start
    ok = sampled.accuracy >= 0.98 and exact.accuracy == 1.0 and elapsed < 120.0
    report(6, "random bench: sampled accuracy >= 98%, exact accuracy 100%", ok, elapsed,
           f"sampled {sampled.accuracy:.4f} (excluded {sampled.total - sampled.included}), "
           f"exact {exact.accuracy:.4f}")
    assert sampled.accuracy >= 0.98
    assert exact.accuracy == 1.0
    assert elapsed < 120.0


def test_criterion_7_bootstrap_sanity():
    start = time.perf_counter()
    n = 10_000
    counts = [ShotCounts(np.array([n // 4] * 4), n)]
    std = float(bootstrap_errorbars(counts, resamples=1000, seed=7)[0])
    analytic = 1.0 / np.sqrt(n)
    elapsed = time.perf_counter() - start
    ok = 0.5 * analytic <= std <= 1.5 * analytic
    report(7, "bootstrapped correlation spread matches the multinomial prediction", ok, elapsed,
           f"std {std:.5f} vs analytic {analytic:.5f}")
    assert 0.5 * analytic <= std <= 1.5 * analytic
