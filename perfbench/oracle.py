"""Independent second route to the switch's sampled Holevo rate.

The benchmark gates every ``verify`` request on the ``chi_oracle`` it
reports.  This module recomputes that number without importing switchcap:
the switch output is linear in the target state, so the Kraus sum over all
d^(2N) Weyl tuples is contracted once into a matrix, every sampled state is
mapped through it in one product, and the spectra come from LAPACK
(``numpy.linalg.eigvalsh``) instead of the package's Jacobi solver.  The
sample set is drawn exactly as ``switchcap.switch.holevo_oracle`` draws it:
the d basis states, then Haar-random vectors from ``default_rng(seed)``.
"""

from __future__ import annotations

import itertools

import numpy as np


def order_set(n_channels: int, mode: str) -> list[tuple[int, ...]]:
    """The causal orders ``verify --mode`` enumerates."""
    if mode == "cyclic":
        return [
            tuple((shift + i) % n_channels for i in range(n_channels))
            for shift in range(n_channels)
        ]
    if mode == "all":
        return list(itertools.permutations(range(n_channels)))
    raise ValueError(f"unknown order mode {mode!r}")


def weyl_operators(dim: int) -> np.ndarray:
    """The d^2 clock-and-shift unitaries X^a Z^b, shape (d^2, d, d)."""
    omega = np.exp(2j * np.pi / dim)
    ops = np.zeros((dim * dim, dim, dim), dtype=complex)
    for a in range(dim):
        for b in range(dim):
            for k in range(dim):
                ops[a * dim + b, (k + a) % dim, k] = omega ** (b * k)
    return ops


def _entropy_bits(states: np.ndarray) -> np.ndarray:
    values = np.clip(np.linalg.eigvalsh(states), 0.0, None)
    logs = np.log2(np.where(values > 0.0, values, 1.0))
    return -(values * logs).sum(axis=-1)


def sample_states(dim: int, n_samples: int, seed: int) -> np.ndarray:
    """Pure sample states as density matrices, shape (n_samples, d, d)."""
    rng = np.random.default_rng(seed)
    vectors = [np.eye(dim, dtype=complex)[k] for k in range(dim)]
    for _ in range(max(0, n_samples - dim)):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        vectors.append(v / np.linalg.norm(v))
    v = np.array(vectors)
    return np.einsum("ka,kb->kab", v, v.conj())


def oracle_chi(
    orders: list[tuple[int, ...]], dim: int, n_samples: int, seed: int
) -> float:
    """S(output on I/d) minus the least output entropy over the samples."""
    n = len(orders[0])
    m = len(orders)
    ops = weyl_operators(dim)
    tuples = np.array(list(itertools.product(range(dim * dim), repeat=n)))
    products = np.empty((len(tuples), m, dim, dim), dtype=complex)
    for l, order in enumerate(orders):
        prod = ops[tuples[:, order[0]]]
        for slot in order[1:]:
            prod = prod @ ops[tuples[:, slot]]
        products[:, l] = prod
    # Block (i, j) of the output is (c_i c_j / d^2N) sum_t P_i rho P_j^dagger
    # with c = 1/sqrt(M); contract the tuple index once for all states.
    flat = products.reshape(len(tuples), m * dim * dim)
    gram = (flat.T @ flat.conj()).reshape(m, dim, dim, m, dim, dim)
    linear = gram.transpose(0, 1, 3, 4, 2, 5).reshape((m * dim) ** 2, dim * dim)
    linear = linear / (m * float(dim) ** (2 * n))

    inputs = np.concatenate(
        [np.eye(dim, dtype=complex)[None] / dim, sample_states(dim, n_samples, seed)]
    )
    outputs = (linear @ inputs.reshape(len(inputs), dim * dim).T).T
    outputs = outputs.reshape(len(inputs), m * dim, m * dim)
    entropies = _entropy_bits(outputs)
    return float(entropies[0] - entropies[1:].min())
