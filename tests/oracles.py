"""Deterministic references for the Monte Carlo contracts.

``radial_law`` computes the law of a 1-D reversible diffusion with
generator L u = (1/m) (m a u')' on [floor, r_max], zero flux at both ends:
the radius |X| of the diffusion of the Dirichlet form with radial
coefficient a on R^n has m = r^(n-1). It is finite volumes on a geometric
grid, stepped by Crank-Nicolson after four backward-Euler half-steps that
damp a non-smooth start (Rannacher, Numer. Math. 43, 1984). L is symmetric
in L^2(m), so the density with respect to m follows the same equation as
the generator's functions.

Tests check every reference they use on a finer grid and a longer domain:
a mass check alone passes a domain that is too short.
"""

import math

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

# 3-point Gauss-Legendre on [0, 1]: exact for m = r^(n-1) with n <= 6
_NODES = 0.5 + 0.5 * np.array([-math.sqrt(0.6), 0.0, math.sqrt(0.6)])
_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 18.0


class RadialLaw:
    """A law on grid cells, with density ``u[i]`` with respect to m, flat
    on cell i; ``nodes[i]`` and ``weights[i]`` integrate f m over cell i.
    ``killed[k]`` is the mass the k-th watch removed."""

    def __init__(self, nodes, weights, u, killed):
        self.nodes, self.weights, self.u, self.killed = nodes, weights, u, killed

    @property
    def survival(self) -> np.ndarray:
        """The mass left after each watch."""
        return 1.0 - np.cumsum(self.killed)

    def expect(self, f) -> float:
        """E[f(R_T); never above the boundary at a watch]."""
        return float(self.u @ (self.weights * f(self.nodes)).sum(axis=1))


def radial_law(log_m, a, r0: float, T: float, floor: float, r_max: float,
               cells: int = 2000, max_step: float = 1e-3, watch=(),
               boundary=()) -> RadialLaw:
    """The law at T of the diffusion with generator (1/m) (m a u')' from
    r0, reflected at floor and at r_max, and killed at each watch time
    watch[k] in (0, T] where it is above boundary[k].

    ``log_m`` and ``a`` take arrays of radii. Each stretch between watches
    is split into equal steps of at most ``max_step``. It starts with four
    backward-Euler half-steps, as the point mass and each cut leave a
    non-smooth density, and then steps Crank-Nicolson. The point mass is
    split between the two cells whose centres bracket r0, which keeps its
    mean to first order.
    """
    edges = np.geomspace(floor, r_max, cells + 1)
    width = np.diff(edges)
    centres = np.sqrt(edges[:-1] * edges[1:])
    nodes = edges[:-1, None] + width[:, None] * _NODES
    weights = width[:, None] * _WEIGHTS * np.exp(log_m(nodes))
    M = weights.sum(axis=1)  # cell masses
    inner = edges[1:-1]
    k = np.exp(log_m(inner)) * a(inner) / np.diff(centres)  # face conductances
    diag_K = np.append(k, 0.0) + np.insert(k, 0, 0.0)

    j = int(np.searchsorted(centres, r0)) - 1
    if not 0 <= j < cells - 1:
        raise ValueError(f"r0={r0} is not between two cell centres")
    w = (centres[j + 1] - r0) / (centres[j + 1] - centres[j])
    u = np.zeros(cells)
    u[j], u[j + 1] = w / M[j], (1.0 - w) / M[j + 1]

    factors = {}

    def solve(rhs, h):
        """(M + h K)^{-1} rhs, by a factorization of the symmetric
        positive definite tridiagonal matrix kept for each h."""
        if h not in factors:
            d, e, info = dpttrf(M + h * diag_K, -h * k)
            assert info == 0, info
            factors[h] = d, e
        x, info = dpttrs(*factors[h], rhs)
        assert info == 0, info
        return x

    def K_times(v):
        flux = k * np.diff(v)  # through each inner face
        return np.insert(flux, 0, 0.0) - np.append(flux, 0.0)

    def advance(u, span):
        n = max(2, math.ceil(span / max_step - 1e-9))
        h = 0.5 * span / n
        for _ in range(4):  # backward Euler, h each
            u = solve(M * u, h)
        for _ in range(n - 2):  # Crank-Nicolson, 2 h each
            u = solve(M * u - h * K_times(u), h)
        return u

    watch = np.asarray(watch, dtype=float)
    boundary = np.asarray(boundary, dtype=float)
    if watch.shape != boundary.shape or np.any(np.diff(watch) <= 0) \
            or np.any(watch > T) or np.any(watch <= 0):
        raise ValueError("watch times must increase within (0, T], "
                         "one boundary each")
    killed, t = [], 0.0
    for when, b in zip(watch.tolist(), boundary.tolist()):
        u, t = advance(u, when - t), when
        i = max(int(np.searchsorted(edges, b)) - 1, 0)  # the cell holding b
        if i == cells:
            killed.append(0.0)
            continue
        # cut the mass above b, the density flat in cell i
        below = max(b - edges[i], 0.0)
        kept = below * _WEIGHTS @ np.exp(log_m(edges[i] + below * _NODES))
        killed.append(float(u[i] * (M[i] - kept) + u[i + 1:] @ M[i + 1:]))
        u[i] *= kept / M[i]
        u[i + 1:] = 0.0
    if T > t:
        u = advance(u, T - t)
    return RadialLaw(nodes, weights, u, np.array(killed))
