"""End-to-end acceptance suite.

One test per criterion; each prints a single pass/fail line with its
headline numbers (run `pytest -s tests/test_acceptance.py -v` to see them
live).  Tolerances are pinned here, not configurable.
"""

import time

import numpy as np
import scipy.stats

from cmvkit.alflows import (
    FlowHamiltonian,
    asymptotic_report,
    exact_propagate,
    flow_via_spectral,
    integrate_flow,
    lax_partner,
)
from cmvkit.core import SpectralMeasureCircle, VerblunskySet, build_cmv
from cmvkit.ensembles import EnsembleSpec, RngStream, eigenvalue_samples, ks_statistic, random_verblunsky
from cmvkit.opuc import (
    geronimus,
    jacobi_eigensystem,
    szego_project,
    unitary_eigensystem,
    verblunsky_from_measure,
)
from cmvkit.verify import suite_brackets, suite_canonical, suite_cotangent, suite_jacobian

from oracles import (
    cdf_from_density,
    chi_square_pooled,
    circular_gap,
    cmv_pattern,
    fit_hamiltonian_with_rates,
    pair_square_integral,
)


def report(name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def random_set(rng, n, radius):
    mods = radius * np.sqrt(rng.random(n - 1))
    args = rng.uniform(-np.pi, np.pi, n)
    interior = mods * np.exp(1j * args[:-1])
    return VerblunskySet(np.concatenate([interior, [np.exp(1j * args[-1])]]))


def test_criterion_1_structure_suite():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst_unitary = worst_pattern = worst_det = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 17))
        v = random_set(rng, n, radius=0.99)
        c = build_cmv(v)
        entries = np.asarray(c.entries)
        worst_unitary = max(worst_unitary, np.abs(entries.conj().T @ entries - np.eye(n)).max())
        worst_pattern = max(worst_pattern, np.abs(entries - cmv_pattern(v)).max())
        det = np.linalg.det(entries)
        worst_det = max(worst_det, abs(det - (-1.0) ** (n - 1) * np.conj(v.alpha[-1])))
    elapsed = time.time() - t0
    ok = worst_unitary <= 1e-12 and worst_pattern <= 1e-14 and worst_det <= 1e-10 and elapsed <= 10.0
    report(
        "criterion 1 (structure, 1000 sets)",
        ok,
        f"unitarity {worst_unitary:.2e} <= 1e-12, pattern {worst_pattern:.2e} <= 1e-14, "
        f"det {worst_det:.2e} <= 1e-10, {elapsed:.1f}s <= 10s",
    )


def test_criterion_2_inverse_spectral_round_trip():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 13))
        v = random_set(rng, n, radius=0.9)
        mu = unitary_eigensystem(build_cmv(v))
        worst = max(worst, np.abs(verblunsky_from_measure(mu).alpha - v.alpha).max())
    report("criterion 2 (round trip, 200 trials)", worst <= 1e-8, f"max coefficient error {worst:.2e} <= 1e-8")


def test_criterion_3_geronimus_correspondence():
    rng = np.random.default_rng(103)
    worst_eig = worst_pts = worst_wts = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 7))
        al = rng.uniform(-0.85, 0.85, 2 * m - 1)
        v = VerblunskySet(np.concatenate([al, [-1.0]]).astype(complex))
        mu = unitary_eigensystem(build_cmv(v))
        jac = geronimus(v)
        lam = np.sort(np.linalg.eigvalsh(jac.to_dense()))
        folded = np.sort(2.0 * np.cos(np.abs(mu.theta)))[::2]
        worst_eig = max(worst_eig, np.abs(lam - folded).max())
        push = szego_project(mu)
        spec = jacobi_eigensystem(jac)
        worst_pts = max(worst_pts, np.abs(push.x - spec.x).max())
        worst_wts = max(worst_wts, np.abs(push.weights - spec.weights).max())
    ok = worst_eig <= 1e-9 and worst_pts <= 1e-8 and worst_wts <= 1e-8
    report(
        "criterion 3 (circle-interval map, 100 instances)",
        ok,
        f"eigenvalues {worst_eig:.2e} <= 1e-9, points {worst_pts:.2e} / weights {worst_wts:.2e} <= 1e-8",
    )


def test_criterion_4_circular_ensemble():
    details = []
    ok = True
    for beta in (1.0, 2.0, 4.0):
        t0 = time.time()
        angles = eigenvalue_samples(EnsembleSpec("circular", 2, beta), 100000, RngStream(104, int(beta)))
        gaps = np.sort(circular_gap(angles))
        cdf = cdf_from_density(lambda g, b=beta: np.sin(g / 2.0) ** b, 0.0, np.pi)
        stat = ks_statistic(gaps, cdf)
        elapsed = time.time() - t0
        ok = ok and stat < 0.01 and elapsed <= 60.0
        details.append(f"beta={beta:g} KS {stat:.4f} ({elapsed:.1f}s)")
    one = np.sort(eigenvalue_samples(EnsembleSpec("circular", 1, 2.0), 100000, RngStream(105))[:, 0])
    stat1 = ks_statistic(one, lambda s: (s + np.pi) / (2 * np.pi))
    ok = ok and stat1 < 0.01
    details.append(f"n=1 uniform KS {stat1:.4f}")
    report("criterion 4 (circular beta model)", ok, "; ".join(details) + " (all < 0.01)")


def test_criterion_5_jacobi_ensemble():
    details = []
    ok = True
    for a, b in ((0.0, 0.0), (1.0, 0.5)):
        lam = np.sort(eigenvalue_samples(EnsembleSpec("jacobi", 1, 2.0, a, b), 100000, RngStream(106, int(10 * a)))[:, 0])
        cdf = cdf_from_density(lambda x, a=a, b=b: (2.0 - x) ** a * (2.0 + x) ** b, -2.0, 2.0)
        stat = ks_statistic(lam, cdf)
        ok = ok and stat < 0.01
        details.append(f"n=1 a={a:g} b={b:g} KS {stat:.4f}")
    # 2D chi-square of the n=2, beta=2, a=b=0 joint law against the
    # symmetrized pair density ~ (x - y)^2 on [-2, 2]^2
    draws = eigenvalue_samples(EnsembleSpec("jacobi", 2, 2.0, 0.0, 0.0), 100000, RngStream(107))
    flip = RngStream(108).generator().random(draws.shape[0]) < 0.5
    x = np.where(flip, draws[:, 0], draws[:, 1])
    y = np.where(flip, draws[:, 1], draws[:, 0])
    edges = np.linspace(-2.0, 2.0, 21)
    observed, *_ = np.histogram2d(x, y, bins=(edges, edges))
    masses = np.empty((20, 20))
    for i in range(20):
        for j in range(20):
            masses[i, j] = pair_square_integral(edges[i], edges[i + 1], edges[j], edges[j + 1])
    expected = masses / masses.sum() * draws.shape[0]
    stat, dof = chi_square_pooled(observed, expected)
    pvalue = scipy.stats.chi2.sf(stat, dof)
    ok = ok and pvalue > 0.001
    details.append(f"n=2 chi-square p={pvalue:.3f} (> 0.001)")
    report("criterion 5 (jacobi beta model)", ok, "; ".join(details))


def test_criterion_6_hermite_ensemble():
    details = []
    one = np.sort(eigenvalue_samples(EnsembleSpec("hermite", 1, 2.0), 100000, RngStream(109))[:, 0])
    stat1 = ks_statistic(one, scipy.stats.norm.cdf)
    ok = stat1 < 0.01
    details.append(f"n=1 normal KS {stat1:.4f}")
    for beta in (1.0, 2.0, 4.0):
        lam = eigenvalue_samples(EnsembleSpec("hermite", 2, beta), 100000, RngStream(110, int(beta)))
        gaps = np.sort(lam[:, 1] - lam[:, 0])
        cdf = cdf_from_density(lambda g, b=beta: g**b * np.exp(-(g**2) / 4.0), 0.0, 16.0)
        stat = ks_statistic(gaps, cdf)
        ok = ok and stat < 0.01
        details.append(f"n=2 beta={beta:g} gap KS {stat:.4f}")
    report("criterion 6 (hermite beta model)", ok, "; ".join(details) + " (all < 0.01)")


def test_criterion_7_lax_flow_suite():
    details = []
    ok = True
    # commutator vs differentiated spectral flow, Richardson in the step
    v5 = random_verblunsky(5, RngStream(111), radius=0.6, min_separation=0.3)
    worst_lax = 0.0
    for m, part in ((1, "re"), (1, "im"), (2, "re"), (2, "im"), (3, "re")):
        ham = FlowHamiltonian.matching_lax_flow(m, part)
        c0 = build_cmv(v5)

        def diff(h):
            plus = build_cmv(flow_via_spectral(v5, ham, h)).entries
            minus = build_cmv(flow_via_spectral(v5, ham, -h)).entries
            return (np.asarray(plus) - np.asarray(minus)) / (2.0 * h)

        d = (4.0 * diff(5e-4) - diff(1e-3)) / 3.0
        p = lax_partner(c0, m, part)
        commutator = np.asarray(c0.entries) @ p - p @ np.asarray(c0.entries)
        rel = np.abs(d - commutator).max() / np.abs(commutator).max()
        worst_lax = max(worst_lax, rel)
    ok = ok and worst_lax <= 1e-6
    details.append(f"dC/dt vs [C,P] rel {worst_lax:.2e} <= 1e-6")

    v6 = random_verblunsky(6, RngStream(112), radius=0.55, min_separation=0.3)
    traj = integrate_flow(v6, 1, "re", 5.0, 1e-3)
    spectral = flow_via_spectral(v6, FlowHamiltonian.matching_lax_flow(1, "re"), 5.0)
    endpoint = np.abs(traj.states[-1].alpha - spectral.alpha).max()
    ok = ok and endpoint <= 1e-6
    details.append(f"rk4 vs spectral endpoint {endpoint:.2e} <= 1e-6")

    drift_rate = (traj.eig_drift[1:] / traj.times[1:]).max()
    ok = ok and drift_rate <= 1e-10
    details.append(f"eig drift {drift_rate:.2e}/unit t <= 1e-10")

    boundary_moved = max(abs(s.alpha[-1] - v6.alpha[-1]) for s in traj.states)
    det_drift = abs(
        np.linalg.det(np.asarray(build_cmv(traj.states[-1]).entries))
        - np.linalg.det(np.asarray(build_cmv(v6).entries))
    )
    ok = ok and boundary_moved == 0.0 and det_drift <= 1e-10
    details.append(f"boundary exactly fixed, det drift {det_drift:.2e} <= 1e-10")

    vr = VerblunskySet(np.array([0.25, -0.4, 0.1, 0.3, -1.0], dtype=complex))
    real_traj = integrate_flow(vr, 1, "im", 2.0, 1e-3)
    imag_worst = max(np.abs(s.alpha.imag).max() for s in real_traj.states)
    ok = ok and imag_worst <= 1e-12
    details.append(f"im-flow reality {imag_worst:.2e} <= 1e-12")
    report("criterion 7 (lax and flow suite)", ok, "; ".join(details))


def _asymptotic_instance(seed, k, n=5):
    gen = RngStream(seed).generator()
    v = random_verblunsky(n, gen, radius=0.55, min_separation=0.5)
    mu = unitary_eigensystem(build_cmv(v))
    gaps = gen.uniform(8.2, 8.8, n - 1)
    gaps[k:] = gen.uniform(11.5, 12.5, n - 1 - k)
    gaps[k - 1] = gen.uniform(15.5, 16.5)
    gaps /= 20.0
    lam = np.concatenate([[0.0], -np.cumsum(gaps)])
    targets = np.empty(n)
    targets[gen.permutation(n)] = lam
    return v, FlowHamiltonian(fit_hamiltonian_with_rates(mu.theta, targets))


def test_criterion_8_asymptotics_suite():
    worst = {"mass": 0.0, "limit": 0.0, "rate": 0.0, "xi": 0.0}
    t_grid = np.linspace(5.0, 20.0, 40)
    for trial in range(20):
        k = trial % 4 + 1
        v, ham = _asymptotic_instance(113 + trial, k)
        rep = asymptotic_report(v, ham, k, t_grid, fit_window=(0.5, 0.88))
        worst["limit"] = max(worst["limit"], abs(rep.fitted_limit - rep.predicted_limit))
        worst["rate"] = max(worst["rate"], abs(rep.fitted_rate - rep.predicted_rate) / rep.predicted_rate)
        worst["xi"] = max(worst["xi"], abs(np.angle(rep.fitted_xi / rep.xi)))
        # mass decay slope toward the dominant eigenvalue
        mu = unitary_eigensystem(build_cmv(v))
        lam = ham.growth_rate(mu.theta)
        order = np.argsort(-lam)
        if k > 1:
            target = lam[order][0] - lam[order][k - 1]
            late = t_grid[t_grid >= 12.0]
            logs = [np.log(exact_propagate(mu, ham, t).weights[order][k - 1]) for t in late]
            slope = np.polyfit(late, logs, 1)[0]
            worst["mass"] = max(worst["mass"], abs(-slope - target) / target)
    ok = (
        worst["mass"] <= 0.01
        and worst["limit"] <= 1e-6
        and worst["rate"] <= 0.01
        and worst["xi"] <= 0.01
    )
    report(
        "criterion 8 (sorting asymptotics, 20 instances)",
        ok,
        f"mass rate {worst['mass']:.2%} <= 1%, limit {worst['limit']:.2e} <= 1e-6, "
        f"coefficient rate {worst['rate']:.2%} <= 1%, correction arg {worst['xi']:.4f} <= 0.01",
    )


def test_criterion_9_bracket_suite():
    details = []
    ok = True
    br = suite_brackets(n=5, trials=6, seed=114)
    for item in br["identities"]:
        ok = ok and item["pass"]
    details.append(
        "reconstruction/involution residuals "
        + ", ".join(f"{i['max_residual']:.1e}" for i in br["identities"])
        + " <= 1e-6"
    )
    worst_theta = worst_canon = 0.0
    for n in (3, 4, 5):
        can = suite_canonical(n=n, trials=4, seed=115 + n)
        worst_theta = max(worst_theta, can["identities"][0]["max_residual"])
        worst_canon = max(worst_canon, can["identities"][1]["max_residual"])
        ok = ok and can["pass"]
    details.append(f"theta commute {worst_theta:.1e} <= 1e-6, canonical matrix {worst_canon:.1e} <= 1e-5")
    worst_cot = 0.0
    for n, trials in ((3, 17), (4, 17), (5, 16)):
        cot = suite_cotangent(n=n, trials=trials, seed=116 + n)
        worst_cot = max(worst_cot, cot["identities"][0]["max_residual"])
        ok = ok and cot["pass"]
    details.append(f"cotangent residual over 50 instances {worst_cot:.1e} <= 1e-5")
    report("criterion 9 (bracket suite)", ok, "; ".join(details))


def test_criterion_10_jacobian_suite():
    details = []
    ok = True
    # n = 1 is exact: value -1 within 1e-12 absolute
    from cmvkit.brackets import spectral_to_verblunsky_jacobian

    gen = RngStream(117).generator()
    worst_abs = 0.0
    for _ in range(25):
        mu = SpectralMeasureCircle([gen.uniform(-2.0, 2.0)], [1.0])
        worst_abs = max(worst_abs, abs(spectral_to_verblunsky_jacobian(mu) + 1.0))
    ok = ok and worst_abs <= 1e-12
    details.append(f"n=1 absolute {worst_abs:.1e} <= 1e-12")
    for n in (2, 3, 4):
        rep = suite_jacobian(n=n, trials=25, seed=118 + n)
        ok = ok and rep["pass"]
        details.append(f"n={n} relative {rep['identities'][0]['max_residual']:.1e}")
    report("criterion 10 (spectral jacobian)", ok, "; ".join(details) + " <= 1e-6")
