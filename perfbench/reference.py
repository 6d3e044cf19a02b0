"""Independent two-qutrit computations that the output checks compare against.

Nothing here imports entwit.  The Weyl operators, Bell vectors, family
states, partial transposes and closed forms are built from the conventions
the paper and the entwit README state:

* product basis |i>|j> -> row 3*i + j,
* U_{n,m} = sum_k exp(-2 pi i k n / 3) |k><k - m|,
* Bell vectors (U_{n,m} (x) 1)|phi+> with |phi+> = sum_j |jj> / sqrt 3,
* rho(a, b, g) = (1-a-b-g)/9 1 + a P00 + b/2 (P10 + P20)
  + g/3 (P01 + P11 + P21).
"""

from __future__ import annotations

import math

import numpy as np

# Bound before any tracer can rebind numpy.linalg: the checks must neither
# be counted as program work nor pass through a wrapped solver.
_eigvalsh = np.linalg.eigvalsh

D = 3
SIDE = D * D
PSD_TOL = 1e-10
ROOT21 = math.sqrt(21.0)
DETECTION_GAMMA = 1.0 / ROOT21
HORODECKI_LOW = (15.0 - ROOT21) / 6.0
HORODECKI_HIGH = (15.0 + ROOT21) / 6.0
LAMBDA_MIN_TOTAL = 7.0 / 8.0


def weyl(n: int, m: int) -> np.ndarray:
    mat = np.zeros((D, D), dtype=complex)
    for k in range(D):
        mat[k, (k - m) % D] = np.exp(-2j * np.pi * k * n / D)
    return mat


def bell_projector(n: int, m: int) -> np.ndarray:
    phi = np.eye(D, dtype=complex).ravel() / math.sqrt(D)
    vec = np.kron(weyl(n, m), np.eye(D)) @ phi
    return np.outer(vec, vec.conj())


_P00 = bell_projector(0, 0)
_PAIR = bell_projector(1, 0) + bell_projector(2, 0)
_TRIPLE = bell_projector(0, 1) + bell_projector(1, 1) + bell_projector(2, 1)
IDENTITY = np.eye(SIDE, dtype=complex)


def family_state(alpha: float, beta: float, gamma: float) -> np.ndarray:
    e = (1.0 - alpha - beta - gamma) / 9.0
    return e * IDENTITY + alpha * _P00 + beta / 2.0 * _PAIR + gamma / 3.0 * _TRIPLE


def spectrum_min(alpha, beta, gamma):
    """Smallest Bell weight e + {alpha, beta/2, gamma/3, 0}; works on arrays."""
    e = (1.0 - alpha - beta - gamma) / 9.0
    return e + np.minimum(np.minimum(alpha, beta / 2.0), np.minimum(gamma / 3.0, 0.0))


def partial_transpose(mat: np.ndarray) -> np.ndarray:
    return mat.reshape(D, D, D, D).transpose(0, 3, 2, 1).reshape(SIDE, SIDE)


def min_eig(mat: np.ndarray) -> float:
    return float(_eigvalsh(mat)[0])


def min_pt_eig(mat: np.ndarray) -> float:
    return min_eig(partial_transpose(mat))


def hs(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.vdot(a, b).real)


def region_distances(alpha: float, beta: float) -> tuple[float, float]:
    """The paper's gamma = 0 distances D_I and D_II (positive on their region)."""
    d_one = 2.0 * math.sqrt(2.0) / 3.0 * (alpha - 0.25 - beta / 8.0)
    d_two = math.sqrt(2.0) / 3.0 * (-alpha - 0.5 + 1.25 * beta)
    return d_one, d_two


def _tangent_witness(sigma: np.ndarray, rho: np.ndarray) -> np.ndarray:
    diff = sigma - rho
    shift = hs(sigma, diff)
    return (diff - shift * IDENTITY) / np.linalg.norm(diff)


# Region witnesses of the gamma = 0 slice: tangent hyperplanes at the
# nearest separable points of (1/2, 0, 0) and (0, 4/5, 0).
W_REGION_I = _tangent_witness(family_state(0.25, 0.0, 0.0), family_state(0.5, 0.0, 0.0))
W_REGION_II = _tangent_witness(family_state(1 / 12, 7 / 15, 0.0), family_state(0.0, 0.8, 0.0))


def lambda_min(gamma: float) -> float:
    denom = 7.0 * (1.0 + 3.0 * gamma * gamma)
    return max(8.0 / denom, 2.0 * math.sqrt(1.0 + 147.0 * gamma * gamma) / denom)


def line_coefficients(gamma: float, lam: float) -> tuple[float, float, complex]:
    denom = 1.0 + 3.0 * gamma * gamma
    a = denom / 36.0 * lam * (1.0 - lam)
    c1 = -8.0 / (7.0 * lam * denom)
    c2 = 2.0 * (1.0 - 7.0 * math.sqrt(3.0) * gamma * 1j) / (7.0 * lam * denom)
    return a, c1, c2


def line_witness(gamma: float, lam: float) -> np.ndarray:
    """a (2*1 + c1 U1 + c2 U2I + c2* U2II) in the U_{n,m} (x) U_{-n,m} basis.

    U1 sums the six pairs with shift m = 1, 2; U2I and U2II are the pairs
    (1, 0) and (2, 0).
    """
    a, c1, c2 = line_coefficients(gamma, lam)
    mat = 2.0 * IDENTITY
    for n in range(D):
        for m in (1, 2):
            mat = mat + c1 * np.kron(weyl(n, m), weyl(-n % D, m))
    mat = mat + c2 * np.kron(weyl(1, 0), weyl(2, 0))
    mat = mat + np.conj(c2) * np.kron(weyl(2, 0), weyl(1, 0))
    return a * mat

