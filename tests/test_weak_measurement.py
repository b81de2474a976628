"""Coupling, post-selection, weak values, and per-channel kicks."""

import cmath
import math
import platform
import subprocess
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

import mzkick.pointer
from mzkick.cli import ScenarioConfig, run_single_photon
from mzkick.errors import ConstraintViolationError, GridCoverageError, ZeroOverlapError
from mzkick.photon_modes import (
    CHANNEL_D1,
    CHANNEL_D2,
    CHANNELS,
    BeamsplitterSpec,
    ModeAmplitudes,
    detector_state,
    intra_state,
)
from mzkick.pointer import (
    GRID_BLOCK,
    MomentumGrid,
    PointerState,
    gaussian_pointer,
    mean_momentum,
    overlap,
    shift,
)
from mzkick.weak_measurement import (
    JointState,
    couple_with_kick,
    couple_with_kicks,
    first_order_joint,
    net_kick_d1,
    net_kick_d2,
    postselect,
    weak_value_PB,
)
from oracles import SIMD_TIERS, child_env, d2_mean_kick, kicked_grid, make_setup, p_d1, p_d2

SPREAD = 10.0


@pytest.fixture
def setup():
    return make_setup()


@pytest.fixture
def pointer(setup):
    return gaussian_pointer(kicked_grid(SPREAD, setup.delta_kick), SPREAD)


class TestOpticalSetup:
    def test_derived_quantities(self, setup):
        assert setup.delta_kick == pytest.approx(1.0, abs=1e-12)  # 2*hbar*omega*cos(60deg)
        assert setup.cos_beta == pytest.approx(0.25, abs=1e-12)
        assert setup.beta == pytest.approx(math.acos(0.25), abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, math.pi / 2.0, -0.3, 2.0])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ConstraintViolationError):
            make_setup(alpha=alpha)

    def test_rejects_bad_scales(self):
        with pytest.raises(ConstraintViolationError):
            make_setup(omega=0.0)
        with pytest.raises(ConstraintViolationError):
            make_setup(nbar=-1.0)


class TestCoupleReflection:
    def test_arm_a_only_photon_leaves_pointer_alone(self, setup, pointer):
        joint = couple_with_kick(ModeAmplitudes(1.0, 0.0), pointer, setup.delta_kick)
        assert np.array_equal(joint.psi.a * joint.arm_a.amplitudes, pointer.amplitudes)
        assert np.all(joint.psi.b * joint.arm_b.amplitudes == 0.0)

    def test_zero_kick_gives_product_state(self, pointer, setup):
        psi = intra_state(setup.bs)
        joint = couple_with_kick(psi, pointer, 0.0)
        comp_a, comp_b = psi.a * joint.arm_a.amplitudes, psi.b * joint.arm_b.amplitudes
        assert np.max(np.abs(comp_a - psi.a * pointer.amplitudes)) == 0.0
        assert np.max(np.abs(comp_b - psi.b * pointer.amplitudes)) == 0.0

    @pytest.mark.parametrize("kick", [0.0, 0.3, -7.5])
    def test_arms_hold_the_pointer_and_its_one_shift(self, setup, pointer, kick):
        psi = intra_state(setup.bs)
        joint = couple_with_kick(psi, pointer, kick)
        assert joint.psi is psi and joint.arm_a is pointer
        moved = shift(pointer, kick).amplitudes
        assert joint.arm_b.amplitudes.tobytes() == moved.tobytes()  # bit for bit
        assert (joint.psi.b * joint.arm_b.amplitudes).tobytes() == (psi.b * moved).tobytes()

    def test_arm_b_component_is_kicked(self, setup, pointer):
        psi = intra_state(setup.bs)
        joint = couple_with_kick(psi, pointer, setup.delta_kick)
        grid = pointer.grid
        p = np.linspace(grid.p_min, grid.p_max, grid.n)
        dens_b = np.abs(psi.b * joint.arm_b.amplitudes) ** 2
        mean_b = np.trapezoid(p * dens_b, p) / np.trapezoid(dens_b, p)
        assert mean_b == pytest.approx(setup.delta_kick, abs=1e-8)

    def test_total_norm_is_one(self, setup, pointer):
        psi = intra_state(setup.bs)
        joint = couple_with_kick(psi, pointer, setup.delta_kick)
        dens = np.abs(psi.a * joint.arm_a.amplitudes) ** 2 + np.abs(psi.b * joint.arm_b.amplitudes) ** 2
        grid = pointer.grid
        assert np.trapezoid(dens, np.linspace(grid.p_min, grid.p_max, grid.n)) == pytest.approx(1.0, abs=1e-10)

    def test_kick_off_grid_raises(self, setup):
        narrow = gaussian_pointer(MomentumGrid(-80.0, 80.0, 1024), SPREAD)
        with pytest.raises(GridCoverageError):
            couple_with_kick(intra_state(setup.bs), narrow, 30.0)


class TestCoupleWithKicks:
    @pytest.mark.parametrize("n", [4096, 2 * GRID_BLOCK + 1])
    @pytest.mark.parametrize(
        "kicks",
        [[0.0, 13.7, -0.3], [13.7, 0.0, -5.0], [2.5, -9.0, 0.0], [-0.0, 0.0, 1.0, 0.0], [0.0]],
        ids=["zero-first", "zero-middle", "zero-last", "zeros-around-one", "zero-only"],
    )
    def test_each_arm_b_is_the_one_kick_shift(self, setup, n, kicks):
        pointer = gaussian_pointer(MomentumGrid(-120.0, 120.0, n), SPREAD)
        psi = intra_state(setup.bs)
        joints = list(couple_with_kicks(psi, pointer, kicks))
        assert len(joints) == len(kicks)
        for joint, kick in zip(joints, kicks):
            assert joint.psi is psi and joint.arm_a is pointer
            assert (joint.arm_b is pointer) == (kick == 0.0)
            assert joint.arm_b.amplitudes.tobytes() == shift(pointer, kick).amplitudes.tobytes()

    @pytest.mark.parametrize(
        "kicks,message",
        [
            ([5.0, 0.0, 250.0], "shift 250.0 exceeds the grid span 200.0"),
            ([5.0, 0.0, 60.0], "shift by 60.0 would push significant density off-grid"),
            ([-5.0, -60.0], "shift by -60.0 would push significant density off-grid"),
            ([5.0, 60.0, 250.0], "shift by 60.0 would push significant density off-grid"),
            ([5.0, 250.0, 60.0], "shift 250.0 exceeds the grid span 200.0"),
            ([5.0, math.nan, 60.0], "shift nan exceeds the grid span 200.0"),
        ],
        ids=["span", "wrap", "wrap-negative", "wrap-before-span", "span-before-wrap", "nan"],
    )
    def test_a_refused_kick_raises_after_the_kicks_before_it(self, setup, kicks, message):
        # The kicks before the first refused one are made, with the bits of the
        # one-kick shift; the first refused one raises the one-kick message.
        pointer = gaussian_pointer(MomentumGrid(-100.0, 100.0, 4096), SPREAD)
        joints = couple_with_kicks(intra_state(setup.bs), pointer, kicks)
        for kick in kicks:
            try:
                want = shift(pointer, kick).amplitudes.tobytes()
            except GridCoverageError as alone:
                assert str(alone) == message
                break
            assert next(joints).arm_b.amplitudes.tobytes() == want
        with pytest.raises(GridCoverageError) as refused:
            next(joints)
        assert str(refused.value) == message

    def test_a_kick_state_is_freed_once_the_next_is_made(self, setup, pointer):
        # The last nonzero kick holds the pointer's spectrum: the zero kick
        # after it must free that too.
        joints = couple_with_kicks(intra_state(setup.bs), pointer, [1.0, -2.0, 3.0, 0.0])
        arm_b = next(joints).arm_b
        for _ in range(3):
            refs = weakref.ref(arm_b), weakref.ref(arm_b.amplitudes)
            del arm_b
            arm_b = next(joints).arm_b
            assert [ref() for ref in refs] == [None, None]
        assert arm_b is pointer


class TestFirstOrderJoint:
    def rel_max_amp_diff(self, exact, approx):
        a, b = exact.psi.a, exact.psi.b
        exact_a, exact_b = a * exact.arm_a.amplitudes, b * exact.arm_b.amplitudes
        num = max(
            float(np.max(np.abs(exact_a - approx.psi.a * approx.arm_a.amplitudes))),
            float(np.max(np.abs(exact_b - approx.psi.b * approx.arm_b.amplitudes))),
        )
        den = max(float(np.max(np.abs(exact_a))), float(np.max(np.abs(exact_b))))
        return num / den

    def test_zero_kick_limit(self, pointer):
        # omega -> 0 is excluded by the setup type, so compare at a tiny kick
        setup = make_setup(omega=1e-12)
        psi = intra_state(setup.bs)
        exact = couple_with_kick(psi, pointer, setup.delta_kick)
        approx = first_order_joint(psi, pointer, setup.delta_kick)
        assert self.rel_max_amp_diff(exact, approx) < 1e-15

    def test_small_coupling_agreement(self, pointer):
        setup = make_setup(omega=1e-2)  # delta/spread = 1e-3
        psi = intra_state(setup.bs)
        exact = couple_with_kick(psi, pointer, setup.delta_kick)
        approx = first_order_joint(psi, pointer, setup.delta_kick)
        assert self.rel_max_amp_diff(exact, approx) < 1e-6

    def test_strong_coupling_breakdown(self):
        setup = make_setup(omega=10.0)  # delta/spread = 1
        pointer = gaussian_pointer(kicked_grid(SPREAD, setup.delta_kick), SPREAD)
        psi = intra_state(setup.bs)
        exact = couple_with_kick(psi, pointer, setup.delta_kick)
        approx = first_order_joint(psi, pointer, setup.delta_kick)
        assert self.rel_max_amp_diff(exact, approx) > 1e-2

    @pytest.mark.parametrize("ratio", [1e-13, 1e-3, 1.0])
    def test_matches_the_derivative_form(self, ratio):
        # oracle: phi - delta * dphi/dp, the derivative taken as its own transform
        delta = ratio * SPREAD
        pointer = gaussian_pointer(kicked_grid(SPREAD, delta), SPREAD)
        freqs = np.fft.fftfreq(pointer.grid.n, d=pointer.grid.spacing)
        dphi = np.fft.ifft(np.fft.fft(pointer.amplitudes) * (2j * np.pi * freqs))
        oracle = pointer.amplitudes - delta * dphi
        expanded = first_order_joint(ModeAmplitudes(0.0, 1.0), pointer, delta).arm_b.amplitudes
        assert np.max(np.abs(expanded - oracle)) <= 1e-15 * np.max(np.abs(oracle))

    def test_postselection_mean_tracks_exact_to_second_order(self):
        # |mean_fo - mean_exact| stays below 0.5 * delta * (delta/spread)^2
        psi = intra_state(BeamsplitterSpec(0.75))
        for ratio in (1e-3, 1e-2):
            setup = make_setup(omega=10.0 * ratio)
            delta = setup.delta_kick
            pointer = gaussian_pointer(kicked_grid(SPREAD, delta), SPREAD)
            for channel in (CHANNEL_D1, CHANNEL_D2):
                phi = detector_state(setup.bs, channel)
                exact = postselect(couple_with_kick(psi, pointer, setup.delta_kick), phi)
                fo = postselect(first_order_joint(psi, pointer, setup.delta_kick), phi)
                assert abs(fo.mean_kick - exact.mean_kick) < 0.5 * delta * ratio**2


class TestWeakValue:
    @pytest.mark.parametrize("r_squared", [0.51, 0.6, 0.75, 0.9, 0.99])
    def test_d1_is_one_half(self, r_squared):
        bs = BeamsplitterSpec(r_squared)
        wv = weak_value_PB(intra_state(bs), detector_state(bs, CHANNEL_D1))
        assert abs(wv - 0.5) < 1e-12

    def test_d2_unbalanced(self):
        bs = BeamsplitterSpec(0.75)
        wv = weak_value_PB(intra_state(bs), detector_state(bs, CHANNEL_D2))
        assert abs(wv - (-0.5)) < 1e-12  # -t^2/(r^2-t^2) = -0.25/0.5

    @pytest.mark.parametrize("r_squared", [0.51, 0.6, 0.75, 0.9, 0.99])
    def test_d2_closed_form(self, r_squared):
        bs = BeamsplitterSpec(r_squared)
        wv = weak_value_PB(intra_state(bs), detector_state(bs, CHANNEL_D2))
        t2 = 1.0 - r_squared
        assert abs(wv - (-t2 / (r_squared - t2))) < 1e-12

    def test_balanced_d2_is_forbidden(self):
        bs = BeamsplitterSpec(0.5)
        with pytest.raises(ZeroOverlapError):
            weak_value_PB(intra_state(bs), detector_state(bs, CHANNEL_D2))

    @given(
        st.floats(min_value=0.51, max_value=0.99),
        st.floats(min_value=0.0, max_value=2.0 * math.pi),
        st.floats(min_value=0.0, max_value=2.0 * math.pi),
    )
    def test_invariant_under_global_phases(self, r_squared, theta_psi, theta_post):
        bs = BeamsplitterSpec(r_squared)
        psi = intra_state(bs)
        phi = detector_state(bs, CHANNEL_D2)
        u = cmath.exp(1j * theta_psi)
        w = cmath.exp(1j * theta_post)
        base = weak_value_PB(psi, phi)
        phased = weak_value_PB(
            ModeAmplitudes(u * psi.a, u * psi.b), ModeAmplitudes(w * phi.a, w * phi.b)
        )
        assert abs(base - phased) < 1e-12


class TestPostselect:
    def test_d1_mean_is_half_kick_at_any_coupling(self, setup):
        # conditional state is proportional to phi(p) + phi(p - delta): symmetric
        psi = intra_state(setup.bs)
        phi1 = detector_state(setup.bs, CHANNEL_D1)
        for delta in (0.1, 1.0, 10.0, 40.0):
            pointer = gaussian_pointer(kicked_grid(SPREAD, delta), SPREAD)
            res = postselect(couple_with_kick(psi, pointer, delta), phi1)
            assert res.mean_kick == pytest.approx(delta / 2.0, abs=1e-8)

    def test_d2_matches_gaussian_oracle(self, setup, pointer):
        psi = intra_state(setup.bs)
        joint = couple_with_kick(psi, pointer, setup.delta_kick)
        res = postselect(joint, detector_state(setup.bs, CHANNEL_D2))
        oracle = d2_mean_kick(0.75, setup.delta_kick, SPREAD)
        assert res.mean_kick == pytest.approx(oracle, abs=1e-8)
        assert res.mean_kick == pytest.approx(-0.49626865865015585, abs=1e-5)

    def test_probabilities_match_oracle_and_sum_to_one(self):
        bs = BeamsplitterSpec(0.75)
        psi = intra_state(bs)
        phi1 = detector_state(bs, CHANNEL_D1)
        phi2 = detector_state(bs, CHANNEL_D2)
        for delta in (0.1, 1.0, 10.0, 40.0):
            pointer = gaussian_pointer(kicked_grid(SPREAD, delta), SPREAD)
            joint = couple_with_kick(psi, pointer, delta)
            r1 = postselect(joint, phi1)
            r2 = postselect(joint, phi2)
            assert r1.probability == pytest.approx(
                p_d1(0.75, delta, SPREAD), abs=1e-10
            )
            assert r2.probability == pytest.approx(
                p_d2(0.75, delta, SPREAD), abs=1e-10
            )
            assert r1.probability + r2.probability == pytest.approx(1.0, abs=1e-10)

    def test_momentum_bookkeeping_at_any_coupling(self):
        # P(D1) E[p|D1] + P(D2) E[p|D2] = t^2 * delta at every coupling strength
        psi = intra_state(BeamsplitterSpec(0.75))
        bs = BeamsplitterSpec(0.75)
        phi1 = detector_state(bs, CHANNEL_D1)
        phi2 = detector_state(bs, CHANNEL_D2)
        for ratio in (0.01, 0.1, 1.0, 4.0):
            delta = ratio * SPREAD
            pointer = gaussian_pointer(kicked_grid(SPREAD, delta), SPREAD)
            joint = couple_with_kick(psi, pointer, delta)
            r1 = postselect(joint, phi1)
            r2 = postselect(joint, phi2)
            total = r1.probability * r1.mean_kick + r2.probability * r2.mean_kick
            assert total == pytest.approx(0.25 * delta, abs=1e-10)

    @pytest.mark.parametrize("seed", range(8))
    def test_complex_coefficients_keep_the_bits_of_the_whole_grid_expression(self, seed):
        # One block of GRID_BLOCK + 1 samples, large enough that numpy would
        # run c * x on a temporary x as x *= c, and coefficients whose real and
        # imaginary parts are both nonzero, so the operand order of each
        # complex product can move its bits. A moved bit reaches the two
        # results for about one pair of arms in four.
        n = GRID_BLOCK + 1
        grid = MomentumGrid(-120.0, 120.0, n)
        p = np.linspace(grid.p_min, grid.p_max, n)
        rng = np.random.default_rng(seed)

        def arm() -> np.ndarray:
            amp = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.exp(-((p / SPREAD) ** 2))
            amp[0] = amp[-1] = 0.0
            return amp / math.sqrt(np.trapezoid(np.abs(amp) ** 2, p))

        amp_a, amp_b = arm(), arm()
        psi, post = ModeAmplitudes(0.3 - 0.4j, 0.8 + 0.33j), ModeAmplitudes(0.6 + 0.123456789j, -0.0123 + 0.8j)
        ca, cb = post.a.conjugate(), post.b.conjugate()
        c = np.add(np.multiply(ca, np.multiply(psi.a, amp_a)), np.multiply(cb, np.multiply(psi.b, amp_b)))
        probability = float(np.trapezoid(np.abs(c) ** 2, p))
        m = np.abs(c / math.sqrt(probability))
        want = (probability, float(np.trapezoid(p * m**2, p)))
        got = postselect(JointState(psi, PointerState(grid, amp_a), PointerState(grid, amp_b)), post)
        assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_forbidden_outcome_raises(self, pointer):
        # balanced splitter at zero kick: the D2 projection vanishes identically
        bs = BeamsplitterSpec(0.5)
        joint = couple_with_kick(intra_state(bs), pointer, 0.0)
        with pytest.raises(ZeroOverlapError):
            postselect(joint, detector_state(bs, CHANNEL_D2))


# Grids of two and three blocks, and one whose last block is short.
POOLED_SIZES = [GRID_BLOCK + 1, 2 * GRID_BLOCK + 1, 196613]


# Run in a child under each SIMD tier: postselect's probability and the
# magnitudes its moments pass reads, against the whole-grid expressions of
# |amplitude|**2 and |amplitude / sqrt(P)|, on 200 pairs of arms whose samples
# mix zeros with magnitudes from about 1e-300 to 1e150.
TIER_CHILD = """
import math
import numpy as np
from mzkick import weak_measurement
from mzkick.photon_modes import ModeAmplitudes
from mzkick.pointer import MomentumGrid, PointerState, normalized_mean
from mzkick.weak_measurement import JointState, postselect

seen = []

def recording_mean(grid, magnitude):
    def record(s):
        m = magnitude(s)
        seen.append(m.copy())
        return m
    return normalized_mean(grid, record)

weak_measurement.normalized_mean = recording_mean
n = 4096
grid = MomentumGrid(-1.0, 1.0, n)
p = np.linspace(grid.p_min, grid.p_max, n)
psi, post = ModeAmplitudes(0.3 - 0.4j, 0.8 + 0.33j), ModeAmplitudes(0.6 + 0.123456789j, -0.0123 + 0.8j)
ca, cb = post.a.conjugate(), post.b.conjugate()
rng = np.random.default_rng(32)

def arm(top, real):
    x = rng.standard_normal(n) + (0.0 if real else 1j * rng.standard_normal(n))
    x *= 10.0 ** rng.uniform(top - 300.0, top, n)
    x[rng.random(n) < 0.1] = 0.0
    x[0] = x[-1] = 0.0
    return x

for case in range(200):
    top = rng.uniform(0.0, 150.0)
    amp_a, amp_b = arm(top, case % 2 == 0), arm(top, False)
    seen.clear()
    got = postselect(JointState(psi, PointerState(grid, amp_a), PointerState(grid, amp_b)), post)
    c = np.add(np.multiply(ca, np.multiply(psi.a, amp_a)), np.multiply(cb, np.multiply(psi.b, amp_b)))
    assert got.probability == float(np.trapezoid(np.abs(c) ** 2, p)), case
    assert len(seen) == 1 and seen[0].tobytes() == np.abs(c / math.sqrt(got.probability)).tobytes(), case
"""


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"), reason="numpy's x86 SIMD tiers")
@pytest.mark.parametrize("disabled", list(SIMD_TIERS.values()), ids=list(SIMD_TIERS))
def test_postselect_keeps_the_divide_bits_on_every_simd_tier(disabled):
    env = {**child_env(), "NPY_DISABLE_CPU_FEATURES": disabled}
    proc = subprocess.run([sys.executable, "-c", TIER_CHILD], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def with_cpus(monkeypatch, cpus: int) -> None:
    """Make block_map see this many usable CPUs: one runs every block inline,
    more run a grid of two or more blocks on the pool."""
    monkeypatch.setattr(mzkick.pointer, "_cpus", lambda: cpus)


class TestInlineAndPooled:
    @pytest.mark.parametrize("n", POOLED_SIZES)
    def test_every_grid_pass_gives_the_same_bytes(self, monkeypatch, n):
        grid = MomentumGrid(-120.0, 120.0, n)
        rng = np.random.default_rng(n)
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        bs = BeamsplitterSpec(0.8)
        psi = intra_state(bs)

        def passes() -> list[bytes]:
            state = gaussian_pointer(grid, SPREAD)
            joint = couple_with_kick(psi, state, 13.7)
            expanded = first_order_joint(psi, state, 0.3)
            results = [postselect(j, detector_state(bs, c)) for j in (joint, expanded) for c in CHANNELS]
            return [
                grid.integrate(lambda s: y[s]).tobytes(),
                np.float64(mzkick.pointer._peak_density(y)).tobytes(),
                state.amplitudes.tobytes(),
                joint.arm_b.amplitudes.tobytes(),
                expanded.arm_b.amplitudes.tobytes(),
                np.array(results).tobytes(),
                np.array([mean_momentum(state), mean_momentum(joint.arm_b)]).tobytes(),
            ]

        with_cpus(monkeypatch, 1)
        inline = passes()
        with_cpus(monkeypatch, 4)
        assert passes() == inline

    @pytest.mark.parametrize("cpus", [1, 4], ids=["inline", "pooled"])
    def test_a_nan_probability_is_refused(self, monkeypatch, cpus):
        # A nan fails every comparison, so a check written as p < tol let it
        # through as (nan, nan). No RuntimeWarning comes first: the test
        # configuration turns one into an error.
        with_cpus(monkeypatch, cpus)
        state = gaussian_pointer(MomentumGrid(-120.0, 120.0, POOLED_SIZES[-1]), SPREAD)
        joint = couple_with_kick(intra_state(BeamsplitterSpec(0.8)), state, 1.0)
        with pytest.raises(ZeroOverlapError, match="post-selection probability nan"):
            postselect(joint, ModeAmplitudes(math.nan, 1.0))

    @pytest.mark.parametrize("cpus", [1, 4], ids=["inline", "pooled"])
    def test_refusals_keep_their_messages(self, monkeypatch, cpus):
        with_cpus(monkeypatch, cpus)
        n = POOLED_SIZES[-1]
        grid = MomentumGrid(-120.0, 120.0, n)
        p = np.linspace(grid.p_min, grid.p_max, n)
        bump = np.exp(-((p / SPREAD) ** 2) / 2.0)

        def conditional(amp_a, amp_b, on_grid=grid, psi=(1.0, 1.0), post=(1.0, -1.0)):
            joint = JointState(ModeAmplitudes(*psi), PointerState(on_grid, amp_a), PointerState(on_grid, amp_b))
            return postselect(joint, ModeAmplitudes(*post))

        # Equal arms and a post-selection orthogonal to them.
        with pytest.raises(ZeroOverlapError, match="post-selection probability .* is numerically zero"):
            conditional(bump, bump)
        # The arms differ by a bump a hundredth of theirs, off center, and by
        # 1e-7 at the lower edge: negligible in each arm, not in the difference.
        edge = bump + 0.01 * np.exp(-(((p - 40.0) / 5.0) ** 2) / 2.0)
        edge[0] += 1e-7
        with pytest.raises(GridCoverageError, match="density at the grid edges exceeds 1e-12 of the peak"):
            conditional(bump, edge)
        # A conditional pointer of about 3e-161 on a grid so wide that its
        # subnormal squares still integrate past the probability check. They
        # keep a few digits each, so the probability is off by far more than
        # 1e-8 of the integral of the normalized samples, which keep 15.
        wide = MomentumGrid(-8e307, 8e307, n)
        arm = 1.0 + np.random.default_rng(7).uniform(size=n)
        arm[0] = arm[-1] = 0.0
        with pytest.raises(ConstraintViolationError, match="pointer state not normalized: integral = "):
            conditional(arm, arm, on_grid=wide, psi=(3e-161, 0.0), post=(1.0, 0.0))


def complex_gaussian(grid: MomentumGrid) -> np.ndarray:
    """The Gaussian pointer's samples made complex and then normalised by a
    complex divide: the oracle for its float64 samples."""
    p = np.linspace(grid.p_min, grid.p_max, grid.n)
    amp = np.exp(-(p * p) / (2.0 * SPREAD * SPREAD)).astype(np.complex128)
    amp /= math.sqrt(float(grid.integrate(lambda s: np.abs(amp[s]) ** 2)))
    return amp


@pytest.mark.parametrize("cpus", [1, 4], ids=["inline", "pooled"])
@pytest.mark.parametrize("n", POOLED_SIZES)
class TestRealPointer:
    """A real state, held as float64, gives the bytes of its complex128 copy."""

    def test_gaussian_samples_are_the_real_parts_of_the_complex_oracle(self, monkeypatch, cpus, n):
        with_cpus(monkeypatch, cpus)
        grid = MomentumGrid(-120.0, 120.0, n)
        state, oracle = gaussian_pointer(grid, SPREAD), complex_gaussian(grid)
        assert state.amplitudes.dtype == np.float64
        assert state.amplitudes.tobytes() == oracle.real.tobytes()
        assert not oracle.imag.any() and not np.signbit(oracle.imag).any()  # +0.0 everywhere

    def test_every_pass_gives_the_bytes_of_the_complex_copy(self, monkeypatch, cpus, n):
        with_cpus(monkeypatch, cpus)
        gauss = gaussian_pointer(MomentumGrid(-120.0, 120.0, n), SPREAD)
        # Random samples: a real overlap summed as floats, not as the complex
        # products, would move their last bits.
        noise = np.random.default_rng(n).standard_normal(n)
        noise[0] = noise[-1] = 0.0
        noisy = PointerState(gauss.grid, noise)
        bs = BeamsplitterSpec(0.8)
        psi = intra_state(bs)

        def as_complex(state: PointerState) -> PointerState:
            copy = PointerState(state.grid, state.amplitudes.astype(np.complex128))
            assert copy.amplitudes.dtype == np.complex128
            return copy

        def passes(state: PointerState, noisy: PointerState) -> list[bytes]:
            joint = couple_with_kick(psi, state, 13.7)
            expanded = first_order_joint(psi, state, 0.3)
            results = [postselect(j, detector_state(bs, c)) for j in (joint, expanded) for c in CHANNELS]
            overlaps = [overlap(state, joint.arm_b), overlap(joint.arm_b, state), overlap(noisy, noisy),
                        overlap(noisy, state)]
            return [
                joint.arm_b.amplitudes.tobytes(),
                expanded.arm_b.amplitudes.tobytes(),
                np.array(overlaps).tobytes(),
                np.array(results).tobytes(),
                np.array([state.norm_squared(), state.peak, noisy.norm_squared(), noisy.peak]).tobytes(),
                np.array([mean_momentum(state), mean_momentum(joint.arm_b)]).tobytes(),
            ]

        assert passes(gauss, noisy) == passes(as_complex(gauss), as_complex(noisy))


class TestNetKicks:
    @pytest.mark.parametrize("alpha_deg", [10, 20, 30, 40, 50, 60, 70, 80])
    def test_d1_cancellation_is_exact(self, alpha_deg):
        setup = make_setup(alpha=math.radians(alpha_deg))
        assert net_kick_d1(setup) == 0.0

    def test_d1_parts(self, setup):
        inside = 0.5 * setup.delta_kick
        outside = -2.0 * setup.hbar * setup.omega * setup.cos_beta
        assert inside == pytest.approx(0.5, abs=1e-12)
        assert outside == pytest.approx(-0.5, abs=1e-12)

    def test_d2_values(self):
        assert net_kick_d2(make_setup(0.75)) == pytest.approx(-0.5, abs=1e-12)
        assert net_kick_d2(make_setup(0.9)) == pytest.approx(-0.125, abs=1e-12)

    @pytest.mark.parametrize("r_squared", [0.51, 0.6, 0.75, 0.9, 0.99])
    def test_d2_is_inward_for_reflective_splitters(self, r_squared):
        assert net_kick_d2(make_setup(r_squared)) < 0.0

    def test_d2_balanced_raises(self):
        with pytest.raises(ZeroOverlapError):
            net_kick_d2(make_setup(0.5))


class TestCoherenceVisibility:
    """|<phi(p)|phi(p - delta)>|: 1 keeps the photon coherent, 0 decoheres it."""

    @staticmethod
    def visibility(setup, delta_spread):
        g = gaussian_pointer(kicked_grid(delta_spread, setup.delta_kick), delta_spread)
        return abs(overlap(g, shift(g, setup.delta_kick)))

    def test_weak_coupling_is_coherent(self, setup):
        assert self.visibility(setup, 1e4) == pytest.approx(1.0, abs=1e-8)

    def test_moderate_coupling(self, setup):
        assert self.visibility(setup, SPREAD) == pytest.approx(0.9975031223974601, abs=1e-8)

    def test_strong_coupling_decoheres(self):
        setup = make_setup(omega=40.0)  # delta = 40
        assert self.visibility(setup, SPREAD) == pytest.approx(0.01831563888873418, abs=1e-8)


class TestJsonInterface:
    def test_fields(self):
        # the single-photon report carries one post-selection block per channel
        report, _, _ = run_single_photon(ScenarioConfig())
        payload = report["channels"][1]
        assert set(payload) == {
            "channel", "probability", "mean_kick", "weak_value_re", "weak_value_im", "net_kick"
        }
        assert payload["channel"] == CHANNEL_D2
        assert payload["weak_value_re"] == pytest.approx(-0.5, abs=1e-12)
        assert payload["weak_value_im"] == pytest.approx(0.0, abs=1e-12)
