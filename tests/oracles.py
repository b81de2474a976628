"""Closed forms and builders shared by the test modules.

The closed forms describe a Gaussian pointer of spread s, kicked by delta in
arm B, behind beamsplitters of reflectivity r^2 (t^2 = 1 - r^2). They use only
math, none of mzkick's arithmetic, so they check the library from outside it.
"""

import math
import os
from pathlib import Path

import mzkick
from mzkick.photon_modes import BeamsplitterSpec
from mzkick.pointer import DEFAULT_GRID_POINTS, MomentumGrid, default_halfwidth
from mzkick.weak_measurement import OpticalSetup

ALPHA_60 = math.radians(60.0)


def visibility(delta: float, spread: float) -> float:
    """|<phi|phi shifted by delta>| for a Gaussian: exp(-delta^2 / (4 s^2))."""
    return math.exp(-(delta**2) / (4.0 * spread**2))


def p_d1(r_squared: float, delta: float, spread: float) -> float:
    """Exact P(D1): 2 r^2 t^2 (1 + v), with v the visibility."""
    r2, t2 = r_squared, 1.0 - r_squared
    return 2.0 * r2 * t2 * (1.0 + visibility(delta, spread))


def p_d2(r_squared: float, delta: float, spread: float) -> float:
    """Exact P(D2): r^4 + t^4 - 2 r^2 t^2 v."""
    r2, t2 = r_squared, 1.0 - r_squared
    return r2**2 + t2**2 - 2.0 * r2 * t2 * visibility(delta, spread)


def d2_mean_kick(r_squared: float, delta: float, spread: float) -> float:
    """Exact conditional mean momentum of the D2 channel.

    The conditional wavefunction is -r^2 phi(p) + t^2 phi(p - delta); its
    Gaussian moments evaluate to delta (t^4 - r^2 t^2 v) / (r^4 + t^4 - 2 r^2 t^2 v).
    """
    r2, t2 = r_squared, 1.0 - r_squared
    return delta * (t2**2 - r2 * t2 * visibility(delta, spread)) / p_d2(r_squared, delta, spread)


def make_setup(r_squared=0.75, omega=1.0, alpha=ALPHA_60, nbar=0.0) -> OpticalSetup:
    """An optical setup; alpha in radians."""
    return OpticalSetup(bs=BeamsplitterSpec(r_squared), omega=omega, alpha=alpha, nbar=nbar)


def kicked_grid(spread: float, kick: float = 0.0) -> MomentumGrid:
    """The grid the CLI builds for a Gaussian pointer of the given spread and its
    largest |kick|: DEFAULT_GRID_POINTS points on +-default_halfwidth(spread, kick)."""
    half = default_halfwidth(spread, kick)
    return MomentumGrid(-half, half, DEFAULT_GRID_POINTS)


def child_env() -> dict:
    """The environment for a `python -m mzkick` child that imports the same
    mzkick as this process, installed or not."""
    src = str(Path(mzkick.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
