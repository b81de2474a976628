"""Acceptance suite: one test per headline criterion, each printing a
PASS/FAIL line with the tolerance it was held to.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import math
import time

import numpy as np

from mzkick.ensemble import expected_kick_report, fluctuation_analysis, sample_runs
from mzkick.classical_optics import classical_mirror_momentum
from mzkick.photon_modes import (
    CHANNEL_D1,
    CHANNEL_D2,
    BeamsplitterSpec,
    detector_state,
    intra_state,
)
from mzkick.pointer import gaussian_pointer, overlap, shift
from mzkick.weak_measurement import (
    couple_with_kick,
    first_order_joint,
    net_kick_d1,
    net_kick_d2,
    postselect,
    weak_value_PB,
)
from oracles import d2_mean_kick, kicked_grid, make_setup, visibility

R2_SWEEP = [0.51 + 0.04 * k for k in range(13)]  # 0.51, 0.55, ..., 0.99
ALPHA_SWEEP_DEG = [10, 20, 30, 40, 50, 60, 70, 80]
SPREAD = 10.0


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {number:2d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_weak_value_d1():
    worst = 0.0
    for r_squared in R2_SWEEP:
        bs = BeamsplitterSpec(r_squared)
        wv = weak_value_PB(intra_state(bs), detector_state(bs, CHANNEL_D1))
        worst = max(worst, abs(wv - (0.5 + 0.0j)))
    report(1, "weak value D1 = 1/2", worst < 1e-12, f"max |wv - 0.5| = {worst:.2e}, tol 1e-12")


def test_criterion_2_weak_value_d2():
    worst = 0.0
    for r_squared in R2_SWEEP:
        bs = BeamsplitterSpec(r_squared)
        wv = weak_value_PB(intra_state(bs), detector_state(bs, CHANNEL_D2))
        t2 = 1.0 - r_squared
        worst = max(worst, abs(wv - (-t2 / (r_squared - t2))))
    bs = BeamsplitterSpec(0.75)
    at_075 = weak_value_PB(intra_state(bs), detector_state(bs, CHANNEL_D2))
    ok = worst < 1e-12 and abs(at_075 - (-0.5)) < 1e-12
    report(2, "weak value D2 = -t^2/(r^2-t^2)", ok, f"max dev = {worst:.2e}, tol 1e-12")


def test_criterion_3_d1_cancellation():
    worst = 0.0
    for alpha_deg in ALPHA_SWEEP_DEG:
        worst = max(worst, abs(net_kick_d1(make_setup(alpha=math.radians(alpha_deg)))))
    report(3, "net D1 kick = 0", worst < 1e-12, f"max |kick| = {worst:.2e}, tol 1e-12")


def test_criterion_4_classical_correspondence():
    worst = 0.0
    for r_squared in R2_SWEEP:
        for alpha_deg in ALPHA_SWEEP_DEG:
            setup = make_setup(r_squared, alpha=math.radians(alpha_deg), nbar=100.0)
            rep = expected_kick_report(setup)
            classical = classical_mirror_momentum(
                setup.nbar * setup.hbar * setup.omega, setup.bs, setup.alpha
            )
            worst = max(worst, abs(rep.grand_total / classical - 1.0))
    headline = expected_kick_report(make_setup(nbar=100.0))
    ok = (
        worst < 1e-12
        and abs(headline.grand_total - (-12.5)) < 1e-12
        and abs(headline.classical_reference - (-12.5)) < 1e-12
    )
    report(4, "ensemble total = classical momentum", ok, f"max rel dev = {worst:.2e}, tol 1e-12")


def test_criterion_5_exact_vs_weak_convergence():
    t0 = time.perf_counter()
    bs = BeamsplitterSpec(0.75)
    psi = intra_state(bs)
    phi2 = detector_state(bs, CHANNEL_D2)
    bounds = {1e-3: 1e-4, 1e-2: 1.5e-2, 1e-1: 1.5e-1}
    devs = {}
    for ratio, bound in bounds.items():
        delta = ratio * SPREAD
        pointer = gaussian_pointer(kicked_grid(SPREAD, delta), SPREAD)
        exact = postselect(couple_with_kick(psi, pointer, delta), phi2).mean_kick
        weak = -0.5 * delta
        devs[ratio] = abs((exact - weak) / weak)
    setup = make_setup()  # delta = 1, spread = 10
    pointer = gaussian_pointer(kicked_grid(SPREAD, setup.delta_kick), SPREAD)
    at_unit = postselect(couple_with_kick(psi, pointer, setup.delta_kick), phi2).mean_kick
    oracle = d2_mean_kick(0.75, setup.delta_kick, SPREAD)  # -0.49626865865015585
    elapsed = time.perf_counter() - t0
    ok = (
        all(devs[r] < b for r, b in bounds.items())
        and abs(at_unit - oracle) < 1e-5
        and abs(oracle - (-0.49627)) < 1e-5
        and elapsed < 1.0
    )
    detail = ", ".join(f"dev({r:g})={devs[r]:.2e}<{b:g}" for r, b in bounds.items())
    report(5, "exact -> weak-value convergence", ok, f"{detail}; kick={at_unit:.6f} vs oracle {oracle:.6f} tol 1e-5; {elapsed:.2f}s < 1s")


def test_criterion_6_momentum_bookkeeping():
    bs = BeamsplitterSpec(0.75)
    psi = intra_state(bs)
    phi1 = detector_state(bs, CHANNEL_D1)
    phi2 = detector_state(bs, CHANNEL_D2)
    worst = 0.0
    for ratio in (0.01, 0.1, 1.0, 4.0):
        delta = ratio * SPREAD
        pointer = gaussian_pointer(kicked_grid(SPREAD, delta), SPREAD)
        joint = couple_with_kick(psi, pointer, delta)
        r1 = postselect(joint, phi1)
        r2 = postselect(joint, phi2)
        lhs = r1.probability * r1.mean_kick + r2.probability * r2.mean_kick
        worst = max(worst, abs(lhs - bs.t**2 * delta))
    report(6, "P1*E1 + P2*E2 = t^2 * delta", worst < 1e-10, f"max dev = {worst:.2e}, tol 1e-10")


def test_criterion_7_probability_completeness():
    bs = BeamsplitterSpec(0.75)
    psi = intra_state(bs)
    phi1 = detector_state(bs, CHANNEL_D1)
    phi2 = detector_state(bs, CHANNEL_D2)
    worst = 0.0
    for spread in (5.0, 10.0, 40.0):
        for ratio in (0.01, 0.1, 1.0, 4.0, 5.0):
            delta = ratio * spread
            pointer = gaussian_pointer(kicked_grid(spread, delta), spread)
            joint = couple_with_kick(psi, pointer, delta)
            total = postselect(joint, phi1).probability + postselect(joint, phi2).probability
            worst = max(worst, abs(total - 1.0))
    report(7, "P(D1) + P(D2) = 1", worst < 1e-10, f"max dev = {worst:.2e}, tol 1e-10")


def test_criterion_8_decoherence_curve():
    bs = BeamsplitterSpec(0.75)
    psi = intra_state(bs)
    phi1 = detector_state(bs, CHANNEL_D1)
    ratios = np.linspace(0.0, 5.0, 21)
    grid = kicked_grid(SPREAD, ratios.max() * SPREAD)
    pointer = gaussian_pointer(grid, SPREAD)
    # independent oracle: analytic integrand, trapezoid at 4x grid density
    fine = np.linspace(grid.p_min, grid.p_max, 4 * grid.n)
    f0 = np.exp(-(fine**2) / (2.0 * SPREAD**2))
    f0 /= math.sqrt(np.trapezoid(f0**2, fine))
    worst_vis = worst_p1 = worst_oracle = 0.0
    for ratio in ratios:
        delta = ratio * SPREAD
        vis = abs(overlap(pointer, shift(pointer, delta)))
        closed = visibility(delta, SPREAD)
        f1 = np.exp(-((fine - delta) ** 2) / (2.0 * SPREAD**2))
        f1 /= math.sqrt(np.trapezoid(f1**2, fine))
        quadrature = float(np.trapezoid(f0 * f1, fine))
        p1 = postselect(couple_with_kick(psi, pointer, delta), phi1).probability
        worst_vis = max(worst_vis, abs(vis - closed))
        worst_oracle = max(worst_oracle, abs(vis - quadrature))
        worst_p1 = max(worst_p1, abs(p1 - 2.0 * bs.r**2 * bs.t**2 * (1.0 + vis)))
    ok = worst_vis < 1e-8 and worst_p1 < 1e-8 and worst_oracle < 1e-8
    report(
        8,
        "decoherence curve",
        ok,
        f"|vis - exp(-d^2/4s^2)| = {worst_vis:.2e}, |vis - 4x quadrature| = {worst_oracle:.2e}, "
        f"|P1 - 2r^2t^2(1+v)| = {worst_p1:.2e}, tol 1e-8",
    )


def test_criterion_9_monte_carlo_ensemble():
    t0 = time.perf_counter()
    setup = make_setup(nbar=1e4)
    expected = expected_kick_report(setup).grand_total
    hits = 0
    for seed in range(100):
        records = sample_runs(setup, 1000, seed=seed)
        momenta = records.momentum
        se = momenta.std(ddof=1) / math.sqrt(len(records))
        if abs(momenta.mean() - expected) <= 3.0 * se:
            hits += 1
    elapsed = time.perf_counter() - t0
    ok = hits >= 99 and elapsed < 10.0
    report(9, "Monte-Carlo mean within 3 SE", ok, f"{hits}/100 seeds within 3 SE (need >= 99); {elapsed:.2f}s < 10s")


def test_criterion_10_fluctuation_intuition():
    setup = make_setup(nbar=1e4)
    kick = net_kick_d2(setup)
    # fixed-total conditional sub-sample: only the channel split fluctuates
    rng = np.random.Generator(np.random.Philox(21))
    n1 = rng.binomial(10_000, 4.0 * setup.bs.r**2 * setup.bs.t**2, size=500)
    corr_fixed = fluctuation_analysis(n1, (10_000 - n1) * kick)
    records = sample_runs(setup, 1000, seed=13)
    corr_uncond = fluctuation_analysis(records.d1, records.momentum)
    ok = abs(corr_fixed - 1.0) < 1e-12 and corr_uncond > 0.5
    report(
        10,
        "fluctuation correlation",
        ok,
        f"fixed-N corr = {corr_fixed:.15f} (= +1 within 1e-12); "
        f"unconditional corr = {corr_uncond:.4f} (required > 0.5; Poisson-thinned "
        f"channel counts are independent, so this statistic concentrates at 0)",
    )


def test_criterion_11_first_order_validity_window():
    bs = BeamsplitterSpec(0.75)
    psi = intra_state(bs)

    def rel_err(ratio: float) -> float:
        setup = make_setup(omega=10.0 * ratio)  # delta = ratio * SPREAD
        pointer = gaussian_pointer(kicked_grid(SPREAD, setup.delta_kick), SPREAD)
        exact = couple_with_kick(psi, pointer, setup.delta_kick)
        approx = first_order_joint(psi, pointer, setup.delta_kick)
        exact_a, exact_b = psi.a * exact.arm_a.amplitudes, psi.b * exact.arm_b.amplitudes
        num = max(
            float(np.max(np.abs(exact_a - psi.a * approx.arm_a.amplitudes))),
            float(np.max(np.abs(exact_b - psi.b * approx.arm_b.amplitudes))),
        )
        den = max(float(np.max(np.abs(exact_a))), float(np.max(np.abs(exact_b))))
        return num / den

    small, large = rel_err(1e-3), rel_err(1.0)
    ok = small < 1e-6 and large > 1e-2
    report(
        11,
        "first-order window",
        ok,
        f"rel err {small:.2e} < 1e-6 at delta/spread = 1e-3; {large:.2e} > 1e-2 at 1",
    )
