"""Shared test utilities: randomized parameter draws, the dense oracle, the
exact rational inverse, the reference dB ratio and the hook that forces the
writer's ranges."""

import math
import os
from fractions import Fraction

import numpy as np

import optoflux as of
from optoflux.response import UNDERFLOW

# mode ordering (a_L, a_R, b_L, b_R): element pairs whose magnitude ratio
# defines each isolation, as (forward, backward) indices into M^-1
ORACLE_ELEMENTS = {
    of.PHONON: ((3, 2), (2, 3)),
    of.PHOTON_TO_PHONON: ((3, 0), (2, 1)),
    of.PHONON_TO_PHOTON: ((1, 2), (0, 3)),
}


def scaled_params(s, phi_L=0.0, phi_R=0.0):
    """Reference rates with the eight rate groups scaled by the factors ``s``."""
    return of.SystemParams.red_detuned(
        omega_mL=of.TWO_PI * 5.7884e9,
        omega_mR=of.TWO_PI * 5.7791e9,
        kappa_eL=of.TWO_PI * 0.74e9 * s[0],
        kappa_iL=of.TWO_PI * 0.29e9 * s[0],
        gamma_eL=of.TWO_PI * 4.3e6 * s[1],
        gamma_iL=of.TWO_PI * 1.0e6 * s[1],
        kappa_eR=of.TWO_PI * 0.44e9 * s[2],
        kappa_iR=of.TWO_PI * 0.31e9 * s[2],
        gamma_eR=of.TWO_PI * 5.7e6 * s[3],
        gamma_iR=of.TWO_PI * 1.2e6 * s[3],
        optical_hop=of.TWO_PI * 110e6 * s[4],
        mechanical_hop=of.TWO_PI * 1e6 * s[5],
        G_L=of.TWO_PI * 33e6 * s[6],
        G_R=of.TWO_PI * 31e6 * s[7],
        phi_L=phi_L,
        phi_R=phi_R,
    )


def random_params(rng):
    """Reference rates scaled log-uniformly over +-2 decades, random phases."""
    s = 10.0 ** rng.uniform(-2.0, 2.0, size=8)
    phi_L, phi_R = rng.uniform(0.0, of.TWO_PI, size=2)
    return scaled_params(s, phi_L, phi_R)


def random_omega(rng):
    return of.TWO_PI * rng.uniform(5.0e9, 6.5e9)


def oracle_isolation_db(params, omega, quantity):
    """Isolation from the dense-inverted matrix element magnitudes."""
    minv = of.invert_dense(of.build_matrix(params, omega))
    (fi, fj), (bi, bj) = ORACLE_ELEMENTS[quantity]
    return 20.0 * math.log10(abs(minv[fi, fj]) / abs(minv[bi, bj]))


def ratio_db_reference(num, den):
    """20*log10(num/den) with the isolation sentinels, one np.where per rule.

    The straightforward form of ``response._ratio_db``: a numerator
    (denominator) below UNDERFLOW gives -inf (+inf), both below gives nan
    unless they are bitwise equal (0 dB), and an infinite amplitude gives nan.
    """
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        db = 20.0 * (np.log10(num) - np.log10(den))
    tiny_n = num < UNDERFLOW
    tiny_d = den < UNDERFLOW
    db = np.where(tiny_d & ~tiny_n, math.inf, db)
    db = np.where(tiny_n & ~tiny_d, -math.inf, db)
    db = np.where(tiny_n & tiny_d, math.nan, db)
    db = np.where(tiny_n & tiny_d & (num == den), 0.0, db)
    return np.where(np.isinf(num) | np.isinf(den), math.nan, db)


def max_entrywise_relative(a, b):
    """Largest |a - b| / |b| over entries (b as reference, no zero entries)."""
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)))


def exact_inverse(m):
    """M^-1 by Gauss-Jordan elimination in exact rational arithmetic.

    Each float entry becomes a (real, imaginary) pair of Fractions without
    rounding, so the only rounding is the final conversion of each entry of
    the inverse back to the nearest complex float.  The arbiter for entries
    where the dense and closed-form routes disagree.
    """
    def mul(x, y):
        return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    rows = np.asarray(m, dtype=complex).tolist()
    n = len(rows)
    zero, one = Fraction(0), Fraction(1)
    rows = [
        [(Fraction(z.real), Fraction(z.imag)) for z in row]
        + [(one if i == j else zero, zero) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != (0, 0)), None)
        if pivot is None:
            raise ZeroDivisionError(f"singular matrix: no pivot in column {col}")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        re, im = rows[col][col]
        norm = re * re + im * im
        rows[col] = [mul(x, (re / norm, -im / norm)) for x in rows[col]]
        for r in range(n):
            factor = rows[r][col]
            if r != col and factor != (0, 0):
                rows[r] = [(x[0] - p[0], x[1] - p[1])
                           for x, p in zip(rows[r], (mul(factor, y) for y in rows[col]))]
    return np.array([[complex(float(re), float(im)) for re, im in row[n:]] for row in rows])


_FORK = os.fork


def force_ranges(monkeypatch, n):
    """Make every later cut of the writer's rows, :func:`optoflux.cli._cut`,
    give n ranges (fewer only with fewer items): n usable CPUs and a minimum
    of one cell per range.  Returns the list that collects the pids forked
    from then on."""
    forks = []

    def counted_fork():
        pid = _FORK()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    monkeypatch.setattr(of.cli, "MIN_CELLS_PER_PIECE", 1)
    monkeypatch.setattr(os, "fork", counted_fork)
    return forks

