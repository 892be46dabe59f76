"""Material, friction, and boundary-data models plus the assumption validator.

The solver's well-posedness rests on a short list of structural assumptions:

A2  electric conductivity sigma_el bounded between sigma_star > 0 and
    M_sigma, Lipschitz;
A3  thermal conductivity matrix k(s) elliptic with constant delta, bounded,
    Lipschitz;
A4  viscosity/elasticity tensors a, b elliptic with constant delta on
    symmetric matrices, with the usual symmetries (A4S);
A5  normal contact traction 0 <= F <= F_bar, exactly where and when the run reads F;
A6  positive exchange coefficients h_N, H_N; h_C, H_C in [0, H_C_bar] (A6C);
A7  friction coefficient mu in [0, mu_bar] with the one-sided slope bound
    (mu(s1)-mu(s2))(s1-s2) >= -d_mu (s1-s2)^2;
A8  smallness: delta > F_bar * d_mu * ||trace||^2, with the discrete
    tangential trace norm standing in for the continuous one.

Models are user-pluggable callables, so the validator works by seeded
Monte-Carlo sampling rather than symbolic proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass
class MaterialModel:
    """Bulk constitutive data. Tensors are constant over the domain."""

    rho: float
    c_p: float
    theta_ref: float
    a_tensor: np.ndarray  # (2, 2, 2, 2) viscosity
    b_tensor: np.ndarray  # (2, 2, 2, 2) elasticity
    m_tensor: np.ndarray  # (2, 2) thermal expansion coupling
    k: Callable[[np.ndarray], np.ndarray]  # s (...) -> (..., 2, 2) conductivity, vectorized
    sigma_el: Callable[[np.ndarray], np.ndarray]  # s (...) -> (...) conductivity, vectorized
    sigma_star: float
    M_sigma: float
    delta: float
    sigma_lipschitz: float
    k_lipschitz: float  # Frobenius-norm Lipschitz constant, user-declared
    k_upper: float  # user-declared upper ellipticity bound for k

    def mass_thermal(self) -> float:
        return self.rho * self.c_p

    def mass_mech(self) -> float:
        return self.rho


@dataclass
class FrictionModel:
    """Slip-rate dependent friction coefficient and prescribed normal traction."""

    mu: Callable[[np.ndarray], np.ndarray]  # slip rate >= 0 -> coefficient
    mu_bar: float
    d_mu: float
    F_field: Callable[[np.ndarray, float], np.ndarray]  # (points (m, 2), t) -> traction (m,)
    F_bar: float
    mu_prime: Callable[[np.ndarray], np.ndarray] | None = None
    mu_antiderivative: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass
class BoundaryData:
    """Exchange coefficients, ambient potential extension, and loads."""

    h_N: float
    H_N: float
    h_C: Callable[[np.ndarray], np.ndarray]  # elementwise in an array of traction values F
    H_C: Callable[[np.ndarray], np.ndarray]
    H_C_bar: float  # declared upper bound of h_C and H_C
    phi_b: Callable[[np.ndarray], np.ndarray]  # (points, 2) -> values
    f_0: Callable[[np.ndarray, float], np.ndarray]  # body force (points (m, 2), t) -> (m, 2)
    f_2: Callable[[np.ndarray, float], np.ndarray]  # surface traction on the N part, same shapes


@dataclass
class AssumptionCheck:
    id: str
    description: str
    passed: bool
    margin: float
    witness: dict | None = None


@dataclass
class ValidationReport:
    checks: list[AssumptionCheck] = field(default_factory=list)

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[AssumptionCheck]:
        return [c for c in self.checks if not c.passed]

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            line = f"{c.id} {c.description}: {status} (margin={c.margin:.6g})"
            if c.witness is not None:
                line += f" witness={c.witness}"
            out.append(line)
        return out


def isotropic_tensor(lam: float, mu_shear: float) -> np.ndarray:
    """a_ijkl = lam d_ij d_kl + mu (d_ik d_jl + d_il d_jk)."""
    d = np.eye(2)
    return (lam * np.einsum("ij,kl->ijkl", d, d)
            + mu_shear * (np.einsum("ik,jl->ijkl", d, d) + np.einsum("il,jk->ijkl", d, d)))


DEFAULTS = {
    "sigma_star": 0.1,
    "M_sigma": 1.0,
    "kappa": 2.0,
    "s_c": 1.0,
    "k_amp": 0.1,
    "delta": 1.0,
    "rho": 1.0,
    "c_p": 1.0,
    "theta_ref": 1.0,
    "m_coef": 0.05,
    "lam_a": 0.0,
    "mu_a": 0.5,
    "lam_b": 0.2,
    "mu_b": 0.5,
    "mu_s": 0.4,
    "mu_d": 0.2,
    "beta": 1.0,
    "F_value": 0.1,
    "h_N": 1.0,
    "H_N": 1.0,
    "f0": (0.0, 0.0),
    "f2": (0.0, 0.0),
    "phi_b": "x1",
}

PHI_B_FORMS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "x1": lambda x: np.asarray(x)[..., 0],
    "x2": lambda x: np.asarray(x)[..., 1],
    "x1x2": lambda x: np.asarray(x)[..., 0] * np.asarray(x)[..., 1],
    "zero": lambda x: np.zeros(np.asarray(x).shape[:-1]),
}


def _logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) as (1 or e) / (1 + e) with e = exp(-|x|): no overflow, no lost tail."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def default_ptc_model(overrides: dict | None = None):
    """Reference thermistor scenario with a falling conductivity curve.

    sigma_el(s) = sigma_star + (M_sigma - sigma_star) * logistic(-kappa (s - s_c))
    k(s)        = (1 + k_amp * s^2 / (1 + s^2)) * I
    mu(s)       = mu_d + (mu_s - mu_d) * exp(-beta s)

    The conductivity decreases with temperature, the friction coefficient
    weakens with slip rate, and every assumption A2-A8 holds by construction
    (the declared Lipschitz constants are derived from the closed forms).

    Returns (MaterialModel, FrictionModel, BoundaryData).
    """
    p = dict(DEFAULTS)
    if overrides:
        unknown = set(overrides) - set(p)
        if unknown:
            raise ValueError(f"unknown model parameters: {sorted(unknown)}")
        p.update(overrides)

    sigma_star = float(p["sigma_star"])
    m_sigma = float(p["M_sigma"])
    kappa = float(p["kappa"])
    s_c = float(p["s_c"])
    k_amp = float(p["k_amp"])

    def sigma_el(s):
        return sigma_star + (m_sigma - sigma_star) * _logistic(-kappa * (np.asarray(s, dtype=float) - s_c))

    def k(s):
        s = np.asarray(s, dtype=float)
        return (1.0 + k_amp * s * s / (1.0 + s * s))[..., None, None] * np.eye(2)

    # max |d/ds logistic| = kappa/4; max |d/ds s^2/(1+s^2)| = 9/(8 sqrt(3))
    sigma_lip = abs(m_sigma - sigma_star) * kappa / 4.0
    k_lip = k_amp * 9.0 / (8.0 * np.sqrt(3.0)) * np.sqrt(2.0)  # Frobenius of diag pair

    mat = MaterialModel(
        rho=float(p["rho"]),
        c_p=float(p["c_p"]),
        theta_ref=float(p["theta_ref"]),
        a_tensor=isotropic_tensor(float(p["lam_a"]), float(p["mu_a"])),
        b_tensor=isotropic_tensor(float(p["lam_b"]), float(p["mu_b"])),
        m_tensor=float(p["m_coef"]) * np.eye(2),
        k=k,
        sigma_el=sigma_el,
        sigma_star=sigma_star,
        M_sigma=m_sigma,
        delta=float(p["delta"]),
        sigma_lipschitz=sigma_lip,
        k_lipschitz=k_lip,
        k_upper=1.0 + k_amp,
    )

    mu_s = float(p["mu_s"])
    mu_d = float(p["mu_d"])
    beta = float(p["beta"])
    f_const = float(p["F_value"])

    def mu(s):
        return mu_d + (mu_s - mu_d) * np.exp(-beta * np.asarray(s, dtype=float))

    def mu_prime(s):
        return -beta * (mu_s - mu_d) * np.exp(-beta * np.asarray(s, dtype=float))

    def mu_anti(r):
        r = np.asarray(r, dtype=float)
        return mu_d * r + (mu_s - mu_d) * (1.0 - np.exp(-beta * r)) / beta

    def f_field(x, t):
        return np.full(np.asarray(x).shape[:-1], f_const)

    fric = FrictionModel(
        mu=mu,
        mu_bar=max(mu_s, mu_d),
        d_mu=beta * abs(mu_s - mu_d),
        F_field=f_field,
        F_bar=f_const,
        mu_prime=mu_prime,
        mu_antiderivative=mu_anti,
    )

    f0 = np.asarray(p["f0"], dtype=float)
    f2 = np.asarray(p["f2"], dtype=float)
    phi_b_name = str(p["phi_b"])
    if phi_b_name not in PHI_B_FORMS:
        raise ValueError(f"unknown phi_b form {phi_b_name!r}; options: {sorted(PHI_B_FORMS)}")

    bd = BoundaryData(
        h_N=float(p["h_N"]),
        H_N=float(p["H_N"]),
        h_C=lambda F: 1.0 / (1.0 + np.asarray(F, dtype=float)),
        H_C=lambda F: 1.0 / (1.0 + np.asarray(F, dtype=float)),
        H_C_bar=1.0,
        phi_b=PHI_B_FORMS[phi_b_name],
        f_0=lambda x, t: np.broadcast_to(f0, np.asarray(x).shape).copy(),
        f_2=lambda x, t: np.broadcast_to(f2, np.asarray(x).shape).copy(),
    )
    return mat, fric, bd


def _sample_s(rng: np.random.Generator, n: int) -> np.ndarray:
    """Temperature samples: wide uniform sweep plus a cluster near the origin."""
    wide = rng.uniform(-1e6, 1e6, size=n // 2)
    near = 10.0 * rng.standard_normal(n - n // 2)
    return np.concatenate([wide, near])


def _check(cid: str, desc: str, margin, witness: Callable[[int], dict], strict: bool = False) -> AssumptionCheck:
    """One assumption: the least margin over its samples, or the first NaN, decides.

    ``margin`` is each sample's slack minus its pass floor (a constant is one sample);
    the check passes at ``margin >= 0``, or at ``margin > 0`` when ``strict``.
    ``witness(i)`` describes sample i of the flattened margin.
    """
    margin = np.ravel(np.asarray(margin, dtype=float))
    if not margin.size:  # nothing to check, as A5 on a mesh without a C part
        return AssumptionCheck(cid, desc, True, np.inf)
    i = int(np.argmin(margin))  # the first NaN, if any
    worst = float(margin[i])
    ok = worst > 0 if strict else worst >= 0
    return AssumptionCheck(cid, desc, ok, worst, None if ok else witness(i))


def _least_traction_margin(fric: FrictionModel, points: np.ndarray, times: np.ndarray, tol: float) -> list:
    """[margin, time index, point index, F] of the least A5 margin over points and times; [] if none.

    One F_field call per time, into a block of about 4096 values that is
    reduced when full, so memory stays O(points) on any grid. The least
    margin so far moves on a smaller margin or on the first NaN: the sample
    that decides ``_check`` on the (times, points) array of margins.
    """
    least = []
    n_rows = max(1, min(len(times), 4096 // max(len(points), 1)))
    block = np.empty((n_rows, len(points)))
    for start in range(0, len(times) if len(points) else 0, len(block)):
        rows = block[:len(times) - start]
        for k, t in enumerate(times[start:start + len(rows)]):
            rows[k] = fric.F_field(points, t)
        margin = np.minimum(rows, fric.F_bar - rows) + tol
        i = int(margin.argmin())
        worst = float(margin.flat[i])
        if not least or worst < least[0] or math.isnan(worst) > math.isnan(least[0]):
            n, p = divmod(i, len(points))
            least = [worst, start + n, p, float(rows.flat[i])]
    return least


def validate_assumptions(
    mat: MaterialModel,
    fric: FrictionModel,
    bd: BoundaryData,
    trace_norm: float,
    contact_points: np.ndarray,
    times: np.ndarray,
    seed: int = 0,
    n_samples: int = 10_000,
) -> ValidationReport:
    """Seeded Monte-Carlo check of assumptions A2-A8, each one ``_check`` of its margins.

    Failures are report entries carrying the witnessing sample, never
    exceptions; a NaN from a model fails every check that samples it.
    A5 evaluates F exactly, at the (m, 2) ``contact_points`` and each of ``times``.
    A8 is evaluated with the supplied discrete trace norm (a surrogate for
    the continuous operator norm).
    """
    rng = np.random.default_rng(seed)
    rep = ValidationReport()
    tol = 1e-12

    # A2: positive lower bound, bounds and Lipschitz continuity of sigma_el
    rep.checks.append(_check("A2B", "conductivity bound sigma_star > 0", mat.sigma_star,
                             lambda i: {"sigma_star": mat.sigma_star}, strict=True))
    s = _sample_s(rng, n_samples)
    vals = np.asarray(mat.sigma_el(s), dtype=float)
    rep.checks.append(_check(
        "A2", "sigma_el within [sigma_star, M_sigma]",
        np.minimum(vals - mat.sigma_star, mat.M_sigma - vals) + tol * max(1.0, mat.M_sigma),
        lambda i: {"s": float(s[i]), "sigma_el": float(vals[i])}))

    s2 = s + rng.uniform(-1.0, 1.0, size=s.shape)
    quot = np.abs(vals - np.asarray(mat.sigma_el(s2), dtype=float)) / np.abs(s - s2)
    rep.checks.append(_check(
        "A2L", "sigma_el difference quotients within declared Lipschitz constant",
        mat.sigma_lipschitz * 1.01 - quot,
        lambda i: {"s1": float(s[i]), "s2": float(s2[i]), "quotient": float(quot[i])}))

    # A3: ellipticity, boundedness, Lipschitz continuity of k
    n_k = max(n_samples // 10, 100)
    s_k = _sample_s(rng, n_k)
    xi = rng.standard_normal((n_k, 2))
    k_s = np.asarray(mat.k(s_k), dtype=float)
    forms = np.einsum("ni,nij,nj->n", xi, k_s, xi)
    nrm = np.einsum("ni,ni->n", xi, xi)
    for cid, desc, slack in (("A3", "k ellipticity >= delta", forms - mat.delta * nrm),
                             ("A3U", "k bounded by declared upper constant", mat.k_upper * nrm - forms)):
        rep.checks.append(_check(cid, desc, slack + tol * nrm, lambda i: {
            "s": float(s_k[i]), "xi": xi[i].tolist(), "form": float(forms[i])}))

    s_k2 = s_k + rng.uniform(-1.0, 1.0, size=s_k.shape)
    diff = k_s - np.asarray(mat.k(s_k2), dtype=float)
    quot_k = np.linalg.norm(diff, axis=(1, 2)) / np.abs(s_k - s_k2)
    rep.checks.append(_check(
        "A3L", "k difference quotients within declared Lipschitz constant",
        mat.k_lipschitz * 1.01 - quot_k,
        lambda i: {"s1": float(s_k[i]), "s2": float(s_k2[i]), "quotient": float(quot_k[i])}))

    # A4: ellipticity on symmetric matrices, and the symmetries entry by entry
    tensors = (mat.a_tensor, mat.b_tensor)
    xi_raw = rng.standard_normal((n_samples, 2, 2))
    xi_sym = 0.5 * (xi_raw + xi_raw.transpose(0, 2, 1))
    norms = np.tile(np.einsum("nij,nij->n", xi_sym, xi_sym), len(tensors))
    forms4 = np.concatenate([np.einsum("ijkl,nij,nkl->n", t, xi_sym, xi_sym) for t in tensors])
    rep.checks.append(_check(
        "A4", "a, b elliptic on symmetric matrices", forms4 - mat.delta * norms + tol * norms,
        lambda i: {"tensor": "ab"[i // n_samples], "xi": xi_sym[i % n_samples].tolist(),
                   "form": float(forms4[i])}))

    # t_ijkl against t_jikl and t_klij, entry by entry, by the np.allclose(atol=1e-14) rule
    t4 = np.array([[t, t] for t in tensors], dtype=float)
    u4 = np.array([[t.transpose(1, 0, 2, 3), t.transpose(2, 3, 0, 1)] for t in tensors], dtype=float)
    rep.checks.append(_check(
        "A4S", "a, b symmetric: t_ijkl = t_jikl = t_klij", 1e-14 + 1e-5 * np.abs(u4) - np.abs(t4 - u4),
        lambda i: {"tensor": "ab"[i // 32], "ijkl": [int(j) for j in np.unravel_index(i % 16, (2, 2, 2, 2))],
                   "t_ijkl": float(t4.flat[i]), ("t_jikl", "t_klij")[i // 16 % 2]: float(u4.flat[i])}))

    # A5: 0 <= F <= F_bar where and when the run reads F, one F_field call per grid time
    least = _least_traction_margin(fric, contact_points, times, tol)
    rep.checks.append(_check(
        "A5", "normal traction 0 <= F <= F_bar", least[:1],
        lambda _: {"x": contact_points[least[2]].tolist(), "t": float(times[least[1]]), "F": least[3]}))

    # A6: positive exchange constants; contact coefficients within [0, H_C_bar] on sampled F
    rep.checks.append(_check("A6", "h_N, H_N > 0", [bd.h_N, bd.H_N],
                             lambda i: {"h_N": bd.h_N, "H_N": bd.H_N}, strict=True))
    f_samples = np.abs(rng.uniform(0.0, max(fric.F_bar, 1.0), size=n_samples))
    coef = np.array([np.broadcast_to(c(f_samples), (n_samples,)) for c in (bd.h_C, bd.H_C)], dtype=float)
    rep.checks.append(_check(
        "A6C", "h_C, H_C within [0, H_C_bar]",
        np.minimum(coef + tol, bd.H_C_bar * (1.0 + 1e-12) - coef),
        lambda i: {"F": float(f_samples[i % n_samples]),
                   ("h_C", "H_C")[i // n_samples]: float(coef.flat[i])}))

    # A7: friction coefficient bounds and one-sided slope condition
    s_mu = np.abs(rng.uniform(0.0, 100.0, size=n_samples))
    mv = np.asarray(fric.mu(s_mu), dtype=float)
    rep.checks.append(_check(
        "A7", "mu within [0, mu_bar]", np.minimum(mv, fric.mu_bar - mv) + tol,
        lambda i: {"s": float(s_mu[i]), "mu": float(mv[i])}))

    s1 = np.abs(rng.uniform(0.0, 10.0, size=n_samples))
    s2v = np.abs(s1 + rng.uniform(-2.0, 2.0, size=n_samples))
    ds = s1 - s2v
    slack = (np.asarray(fric.mu(s1), dtype=float) - np.asarray(fric.mu(s2v), dtype=float)) * ds
    slack += fric.d_mu * ds**2
    rep.checks.append(_check(
        "A7c", "one-sided slope bound on mu", slack + tol * max(1.0, fric.d_mu),
        lambda i: {"s1": float(s1[i]), "s2": float(s2v[i]), "slack": float(slack[i])}))

    # A8: smallness condition with the discrete trace norm
    rep.checks.append(_check(
        "A8", "delta > F_bar * d_mu * trace_norm^2 (discrete trace norm)",
        mat.delta - fric.F_bar * fric.d_mu * trace_norm**2, strict=True,
        witness=lambda i: {"delta": mat.delta, "F_bar": fric.F_bar, "d_mu": fric.d_mu, "trace_norm": trace_norm}))

    return rep
