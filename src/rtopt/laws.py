"""Constitutive laws h(b) for 2-D magnetostatics and their derivatives.

Two law kinds map a flux density vector b (T) to a field strength vector
h (A/m):

  air     h(b) = nu0 * b
  iron    h(b) = nu0*b + (nu_f - nu0) * k / (k^n + |b|^n)^(1/n) * b
          (saturating; reduces to nu_f*b at b=0 and to nu0*b as |b| grows;
          `linear=True` freezes it at nu_f*b)

`MaterialLaw.response` is the one evaluation of a law: it returns h and the
symmetric dh/db, written entry by entry, and a saturating iron law takes an
optional per-row knee; `MaterialLaw.h` shares its reluctivity and builds no
Jacobian. The machine's iron rows (knees read from the scenario's parameter
vector q) and the corrector's inclusion and exterior blocks evaluate through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MU0 = 4e-7 * np.pi
NU0 = 1.0 / MU0

# Nominal parameter set of the benchmark machine.
NU_F = 200.0
K_F = 2.2
N_F = 12
NU_M = NU0 / 1.086
B_R = 1.216


def _pnorm(k, s, n):
    # (k^n + s^n)^(1/n), overflow-safe for large |b|
    m = np.maximum(k, s)
    m = np.where(m == 0.0, 1.0, m)
    return m * ((k / m) ** n + (s / m) ** n) ** (1.0 / n)


def iron_knee_factor(k, s, n):
    """g(s) = k / (k^n + s^n)^(1/n); dimensionless, 1 at s=0, ~k/s for large s."""
    return k / _pnorm(k, s, n)


def iron_knee_factor_ds_over_s(k, s, n):
    """g'(s)/s, written so that s**(n-2) never overflows."""
    w = _pnorm(k, s, n)
    return -(k / w) * (s / w) ** (n - 2) / w**2


def iron_knee_factor_dk(k, s, n):
    """dg/dk = (s/w)^n / w with w = (k^n + s^n)^(1/n)."""
    w = _pnorm(k, s, n)
    return (s / w) ** n / w


@dataclass(frozen=True)
class MaterialLaw:
    """One isotropic constitutive law; kind is "air" or "iron"."""

    kind: str
    nu_f: float = NU_F
    k_f: float = K_F
    n_f: int = N_F
    linear: bool = False

    def _reluctivity(self, b, knee):
        """nu = |h|/|b| of the rows b: the constant of a linear law, or per
        row nu0 + (nu_f - nu0) g(s) with (g, s, w) for a saturating one."""
        if self.kind == "air" or self.linear:
            return (NU0 if self.kind == "air" else self.nu_f), None
        k = self.k_f if knee is None else knee
        b0, b1 = b[..., 0], b[..., 1]
        s = np.sqrt(b0 * b0 + b1 * b1)      # bitwise np.linalg.norm(b, axis=-1)
        w = _pnorm(k, s, self.n_f)
        g = k / w
        return NU0 + (self.nu_f - NU0) * g, (g, s, w)

    def response(self, b, knee=None):
        """Field strength h(b) and Jacobian dh/db for rows b of shape (..., 2).

        dh/db has shape (..., 2, 2) and is symmetric positive definite. knee
        replaces k_f of a saturating iron law, per row when it is an array.
        """
        b = np.asarray(b, dtype=float)
        nu, saturating = self._reluctivity(b, knee)
        if saturating is None:
            return nu * b, np.broadcast_to(nu * np.eye(2), b.shape + (2,)).copy()
        # dh = nu I + c g'(s)/s b b^T, g' as iron_knee_factor_ds_over_s on
        # the same p-norm, written entry by entry
        g, s, w = saturating
        cg = (self.nu_f - NU0) * (-g * (s / w) ** (self.n_f - 2) / w**2)
        b0, b1 = b[..., 0], b[..., 1]
        dh = np.empty(b.shape + (2,))
        dh[..., 0, 0] = nu + cg * (b0 * b0)
        dh[..., 1, 1] = nu + cg * (b1 * b1)
        # nu * 0.0 keeps the sign of a zero off-diagonal that nu I gives it
        dh[..., 0, 1] = dh[..., 1, 0] = nu * 0.0 + cg * (b0 * b1)
        return nu[..., None] * b, dh

    def h(self, b):
        """Field strength h(b). b has shape (..., 2)."""
        b = np.asarray(b, dtype=float)
        nu, saturating = self._reluctivity(b, None)
        return (nu if saturating is None else nu[..., None]) * b

    def dh_db(self, b):
        """Jacobian dh/db, shape (..., 2, 2). Symmetric positive definite."""
        return self.response(b)[1]


def air_law():
    return MaterialLaw(kind="air")


def iron_law(nu_f=NU_F, k_f=K_F, n_f=N_F, linear=False):
    return MaterialLaw(kind="iron", nu_f=nu_f, k_f=k_f, n_f=n_f, linear=linear)
