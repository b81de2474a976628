"""Quantum and classical momentum bookkeeping for a Mach-Zehnder interferometer
whose internal mirror is silvered on both sides.

One output beam is folded back onto the outside of the mirror, so each photon
can strike it twice. Post-selecting the mirror's momentum wavefunction on the
detector outcome shows that the photons reaching the bright port deliver zero
net momentum, while the rare dark-port photons pull the mirror inward by their
(negative) weak-value kick - yet the ensemble total reproduces the classical
radiation-pressure result exactly.
"""

__version__ = "0.1.0"
