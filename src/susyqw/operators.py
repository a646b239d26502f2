"""Shared 2x2 and 4x4 matrix building blocks.

Conventions used throughout the package:

* Coin (polarization) basis is (H, V); the coin rotation is
  ``C(phi) = exp(-i phi sigma_x)``: it composes additively in the angle.
* The four-dimensional Bloch space is ordered sublattice (x) coin, with
  sublattice 1 the site of each unit cell that carries the first coin
  angle in the bulk pattern (the odd sites).
* ``CELL_Z`` acts on the sublattice index, ``COIN_Y`` on the polarization.
"""

import numpy as np

ID2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

# Operators on the 4-dim (sublattice x coin) Bloch space.
COIN_Y = np.kron(ID2, SY)
CELL_Z = np.kron(SZ, ID2)


def coin_matrix(phi: float) -> np.ndarray:
    """Polarization rotation [[cos phi, -i sin phi], [-i sin phi, cos phi]]."""
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, -1j * s], [-1j * s, c]])


def rotation(theta: float) -> np.ndarray:
    """Real rotation of the (H, V) plane by theta (radians)."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)
