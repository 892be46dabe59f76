from __future__ import annotations

import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from thermocontact.driver import build_models, parse_config
from thermocontact.materials import (
    _check,
    default_ptc_model,
    isotropic_tensor,
    validate_assumptions,
)
from thermocontact.mesh import build_dof_maps, build_unit_square_mesh, edge_quadrature, estimate_trace_norm

REPO_ROOT = Path(__file__).resolve().parent.parent


# every sampled check that calls each model callable
NAN_CHECKS = {"sigma_el": ("A2", "A2L"), "k": ("A3", "A3U", "A3L"), "F_field": ("A5",),
              "h_C": ("A6C",), "H_C": ("A6C",), "mu": ("A7", "A7c")}


def _nan_above(f, above, key):
    """f with NaN wherever key(its first argument) > above."""
    def g(a, *rest):
        vals = np.asarray(f(a, *rest), dtype=float)
        mask = np.asarray(key(np.asarray(a, dtype=float)) > above)
        return np.where(mask.reshape(mask.shape + (1,) * (vals.ndim - mask.ndim)), np.nan, vals)
    return g


def _asymmetric(a):
    """a with a_0001 += 1e-3 and a_0100 -= 1e-3: not symmetric, a:xi:xi unchanged on symmetric xi."""
    a = a.copy()
    a[0, 0, 0, 1] += 1e-3
    a[0, 1, 0, 0] -= 1e-3
    return a


# A5's points on the unit square's bottom edge and its grid times on [0, 10]
BOTTOM_EDGE_GRID = (np.column_stack([np.linspace(0.0, 1.0, 9), np.zeros(9)]), np.linspace(0.0, 10.0, 41))


@pytest.fixture(scope="module")
def default_models():
    return default_ptc_model()


@pytest.fixture(scope="module")
def trace_norm_n4():
    mesh = build_unit_square_mesh(4)
    return estimate_trace_norm(mesh, build_dof_maps(mesh))


class TestDefaultModel:
    def test_mu_limits(self, default_models):
        _, fric, _ = default_models
        assert fric.mu(0.0) == pytest.approx(0.4)
        assert fric.mu(1e3) == pytest.approx(0.2, abs=1e-12)
        assert fric.mu_bar == pytest.approx(0.4)
        assert fric.d_mu == pytest.approx(0.2)

    def test_sigma_monotone_decreasing(self, default_models):
        mat, _, _ = default_models
        assert mat.sigma_el(0.0) > mat.sigma_el(5.0)
        # strictly falling where float still resolves the logistic tails
        s = np.linspace(-12, 14, 201)
        v = mat.sigma_el(s)
        assert np.all(np.diff(v) < 0)
        # and never rising anywhere
        s = np.linspace(-50, 50, 201)
        assert np.all(np.diff(mat.sigma_el(s)) <= 0)

    def test_sigma_extremes_no_overflow(self, default_models):
        mat, _, _ = default_models
        assert mat.sigma_el(1e6) == pytest.approx(mat.sigma_star)
        assert mat.sigma_el(-1e6) == pytest.approx(mat.M_sigma)

    def test_k_at_zero_is_identity(self, default_models):
        mat, _, _ = default_models
        assert np.allclose(mat.k(0.0), np.eye(2))

    def test_mu_antiderivative_matches_quadrature(self, default_models):
        from scipy.integrate import quad
        _, fric, _ = default_models
        for r in (0.0, 0.3, 1.7, 8.0):
            ref, _ = quad(lambda s: float(fric.mu(s)), 0.0, r, epsabs=1e-13, epsrel=1e-13)
            assert float(fric.mu_antiderivative(r)) == pytest.approx(ref, abs=1e-10)

    def test_mu_prime_matches_finite_differences(self, default_models):
        _, fric, _ = default_models
        for s in (0.0, 0.5, 2.0):
            fd = (fric.mu(s + 1e-6) - fric.mu(s - 1e-6)) / 2e-6
            assert float(fric.mu_prime(s)) == pytest.approx(float(fd), rel=1e-5)

    def test_isotropic_tensor_quadratic_form(self):
        t = isotropic_tensor(0.0, 0.5)
        rng = np.random.default_rng(3)
        for _ in range(20):
            xi = rng.standard_normal((2, 2))
            xi = 0.5 * (xi + xi.T)
            form = np.einsum("ijkl,ij,kl->", t, xi, xi)
            assert form == pytest.approx(np.sum(xi * xi))

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="unknown model parameters"):
            default_ptc_model({"nope": 1.0})

    def test_unknown_phi_b_rejected(self):
        with pytest.raises(ValueError, match="phi_b"):
            default_ptc_model({"phi_b": "cubic"})


class TestValidator:
    def test_default_model_passes(self, default_models, trace_norm_n4):
        rep = validate_assumptions(*default_models, trace_norm_n4, *BOTTOM_EDGE_GRID)
        assert rep.all_passed(), [c.id for c in rep.failures()]
        # a passing A4 used to report its raw slack, -3.55e-15, below its roundoff floor
        assert all(c.margin >= 0 for c in rep.checks), [(c.id, c.margin) for c in rep.checks]

    def test_deterministic_under_seed(self, default_models, trace_norm_n4):
        r1 = validate_assumptions(*default_models, trace_norm_n4, *BOTTOM_EDGE_GRID, seed=7)
        r2 = validate_assumptions(*default_models, trace_norm_n4, *BOTTOM_EDGE_GRID, seed=7)
        assert [c.margin for c in r1.checks] == [c.margin for c in r2.checks]

    def test_inflated_d_mu_fails_a8_with_margin(self, default_models, trace_norm_n4):
        mat, fric, bd = default_models
        import dataclasses
        bad = dataclasses.replace(fric, d_mu=fric.d_mu * 1e6)
        rep = validate_assumptions(mat, bad, bd, trace_norm_n4, *BOTTOM_EDGE_GRID)
        a8 = next(c for c in rep.checks if c.id == "A8")
        assert not a8.passed
        assert a8.margin < 0
        assert a8.witness is not None

    def test_zero_sigma_fails_a2_lower(self, default_models, trace_norm_n4):
        mat, fric, bd = default_models
        import dataclasses
        bad = dataclasses.replace(mat, sigma_el=lambda s: np.zeros_like(np.asarray(s, dtype=float)))
        rep = validate_assumptions(bad, fric, bd, trace_norm_n4, *BOTTOM_EDGE_GRID)
        a2 = next(c for c in rep.checks if c.id == "A2")
        assert not a2.passed
        assert a2.witness is not None

    @pytest.mark.parametrize("above", [-np.inf, 0.5])
    @pytest.mark.parametrize("name", sorted(NAN_CHECKS))
    def test_nan_fails_every_check_sampling_it(self, default_models, trace_norm_n4, name, above):
        # a NaN traction used to pass A5 with margin inf, a NaN mu A7 with margin nan,
        # a NaN h_C failed A6 with margin 1.6e-05 and no F sample
        models = list(default_models)
        owner = next(j for j, m in enumerate(models) if hasattr(m, name))
        key = (lambda x: x[..., 0]) if name == "F_field" else (lambda s: s)
        models[owner] = dataclasses.replace(
            models[owner], **{name: _nan_above(getattr(models[owner], name), above, key)})
        rep = validate_assumptions(*models, trace_norm_n4, *BOTTOM_EDGE_GRID)
        assert {c.id for c in rep.failures()} == set(NAN_CHECKS[name])
        for check in rep.failures():
            assert np.isnan(check.margin) and check.witness is not None, check.id

    def test_negative_traction_fails_a5(self, default_models, trace_norm_n4):
        mat, fric, bd = default_models
        import dataclasses
        bad = dataclasses.replace(fric, F_field=lambda x, t: np.full(np.asarray(x).shape[:-1], -0.1))
        rep = validate_assumptions(mat, bad, bd, trace_norm_n4, *BOTTOM_EDGE_GRID)
        a5 = next(c for c in rep.checks if c.id == "A5")
        assert not a5.passed

    def test_step_mu_fails_slope_condition(self, default_models, trace_norm_n4):
        mat, fric, bd = default_models
        import dataclasses
        step_mu = lambda s: np.where(np.asarray(s, dtype=float) < 1.0, 0.4, 0.1)
        bad = dataclasses.replace(fric, mu=step_mu)
        rep = validate_assumptions(mat, bad, bd, trace_norm_n4, *BOTTOM_EDGE_GRID)
        a7c = next(c for c in rep.checks if c.id == "A7c")
        assert not a7c.passed
        assert a7c.witness is not None

    @pytest.mark.parametrize("scale_k,failing", [
        (lambda k, s: k(s) - 0.5 * np.eye(2), "A3"),  # floor 0.5 below delta = 1
        (lambda k, s: k(s) + np.eye(2), "A3U"),  # at least 2 above k_upper = 1.1
        (lambda k, s: k(10.0 * np.asarray(s)), "A3L"),  # ten times the declared slope
    ], ids=["A3", "A3U", "A3L"])
    def test_bad_conductivity_fails_one_a3_check(self, default_models, trace_norm_n4, scale_k, failing):
        mat, fric, bd = default_models
        import dataclasses
        bad = dataclasses.replace(mat, k=lambda s: scale_k(mat.k, s))
        rep = validate_assumptions(bad, fric, bd, trace_norm_n4, *BOTTOM_EDGE_GRID)
        a3 = {c.id: c for c in rep.checks if c.id.startswith("A3")}
        assert [cid for cid, c in a3.items() if not c.passed] == [failing]
        assert a3[failing].margin < 0
        assert a3[failing].witness is not None
        if failing != "A3L":
            w = a3[failing].witness
            xi = np.asarray(w["xi"])
            assert w["form"] == pytest.approx(xi @ bad.k(w["s"]) @ xi)
            bound = mat.delta if failing == "A3" else mat.k_upper
            assert (w["form"] < bound * (xi @ xi)) == (failing == "A3")

    def test_every_sample_meets_its_own_floor(self, default_models, trace_norm_n4):
        # k = (1 - eps) I with delta = 1: the few samples with |s| < 0.05 miss the floor
        # 1e-12 |xi|^2 by 0.5e-12 |xi|^2, while the least slack lies elsewhere (a larger
        # |xi| at eps = 0.99e-12) and used to pass A3 against its own floor
        mat, fric, bd = default_models

        def k(s):
            s = np.asarray(s, dtype=float)
            eps = np.where(np.abs(s) < 0.05, 1.5e-12, 0.99e-12)
            return (1.0 - eps)[..., None, None] * np.eye(2)

        rep = validate_assumptions(dataclasses.replace(mat, k=k, k_upper=1.0), fric, bd, trace_norm_n4,
                                   *BOTTOM_EDGE_GRID)
        assert [c.id for c in rep.failures()] == ["A3"]
        a3 = rep.failures()[0]
        assert a3.margin < 0 and abs(a3.witness["s"]) < 0.05

    @pytest.mark.parametrize("edit,failing,margin", [
        # the conductivity bound alone: sigma_el keeps its own floor 0.1
        (lambda mat, fric, bd, tn: (dataclasses.replace(mat, sigma_star=0.0), fric, bd, tn), "A2B", 0.0),
        (lambda mat, fric, bd, tn: (mat, fric, dataclasses.replace(bd, h_N=0.0), tn), "A6", 0.0),
        # F_bar * d_mu * trace_norm^2 = 0.5 * 0.5 * 2^2 is exactly delta = 1
        (lambda mat, fric, bd, tn: (mat, dataclasses.replace(fric, F_bar=0.5, d_mu=0.5), bd, 2.0),
         "A8", 0.0),
        # a_0001 and a_0100 differ by 2e-3, against the 1e-14 + 1e-5 |a_0100| allowance
        (lambda mat, fric, bd, tn: (dataclasses.replace(mat, a_tensor=_asymmetric(mat.a_tensor)),
                                    fric, bd, tn), "A4S", 1e-14 + 1e-8 - 2e-3),
    ], ids=["A2B", "A6", "A8", "A4S"])
    def test_boundary_fails_only_its_check(self, default_models, trace_norm_n4, edit, failing, margin):
        rep = validate_assumptions(*edit(*default_models, trace_norm_n4), *BOTTOM_EDGE_GRID)
        assert [c.id for c in rep.failures()] == [failing]
        check = rep.failures()[0]
        assert check.margin == pytest.approx(margin, rel=1e-12, abs=0.0)
        assert check.witness is not None

    def test_sigma_lipschitz_declared_constant_tight(self, default_models, trace_norm_n4):
        # sampled quotients must approach but not exceed the declared constant
        rep = validate_assumptions(*default_models, trace_norm_n4, *BOTTOM_EDGE_GRID, seed=11)
        a2l = next(c for c in rep.checks if c.id == "A2L")
        assert a2l.passed

    def test_report_lines_format(self, default_models, trace_norm_n4):
        rep = validate_assumptions(*default_models, trace_norm_n4, *BOTTOM_EDGE_GRID)
        lines = rep.lines()
        assert any(line.startswith("A8 ") for line in lines)
        assert all(("PASS" in line) or ("FAIL" in line) for line in lines)


def dense_a5(fric, points, times, tol=1e-12):
    """A5 as one _check of the (times, points) array of margins."""
    traction = np.array([fric.F_field(points, t) for t in times], dtype=float)
    return _check("A5", "normal traction 0 <= F <= F_bar", np.minimum(traction, fric.F_bar - traction) + tol,
                  lambda i: {"x": points[i % len(points)].tolist(), "t": float(times[i // len(points)]),
                             "F": float(traction.flat[i])})


class TestA5LeastMargin:
    """A5 keeps each grid time's least margin only, and reports what the whole array of margins would."""

    @pytest.mark.parametrize("field", ["constant", "tie", "negative", "nan_late", "nan_after_negative"])
    def test_same_report_as_the_array_of_margins(self, default_models, trace_norm_n4, field):
        points, times = BOTTOM_EDGE_GRID

        def F_field(x, t):
            x = np.asarray(x)[..., 0]
            if field == "constant":
                return np.full(x.shape, 0.1)
            if field == "tie":  # the least margin, -0.1, at two points of two times
                return np.where((x == 0.25) | (x == 0.75), np.where(t in (2.0, 5.0), -0.1, 0.05), 0.05)
            if field == "negative":
                return 0.05 - 0.01 * t * x
            return np.where((x == 0.5) & (t >= 7.0), np.nan, 0.05 - (0.1 if field == "nan_after_negative" else 0.0))

        mat, fric, bd = default_models
        fric = dataclasses.replace(fric, F_field=F_field)
        got = next(c for c in validate_assumptions(mat, fric, bd, trace_norm_n4, points, times).checks
                   if c.id == "A5")
        assert repr(got) == repr(dense_a5(fric, points, times))  # repr, as nan != nan
        assert got.passed == (field == "constant")

    def test_bundled_default_report_unchanged(self):
        rc = parse_config(str(REPO_ROOT / "examples" / "default.cfg"))
        models = build_models(rc)
        mesh = models.mesh
        points = np.concatenate([mesh.nodes[models.dofs.contact_nodes],
                                 edge_quadrature(mesh, ("C",)).points.reshape(-1, 2)])
        times = rc.solver.dt * np.arange(rc.solver.n_steps + 1)
        rep = validate_assumptions(models.mat, models.fric, models.bd,
                                   estimate_trace_norm(mesh, models.dofs), points, times)
        a5 = next(c for c in rep.checks if c.id == "A5")
        assert a5 == dense_a5(models.fric, points, times)
        assert a5.passed and a5.margin == pytest.approx(1e-12, rel=1e-3)

    def test_memory_does_not_grow_with_the_grid(self, default_models, trace_norm_n4):
        # 25 points and 10^5 grid times: an array of one margin per point and
        # time, and its temporaries, took 3 x 20 MB
        points = np.column_stack([np.linspace(0.0, 1.0, 25), np.zeros(25)])
        peaks = []
        for n_times in (10, 10**5):
            times = np.linspace(0.0, 1.0, n_times)
            tracemalloc.start()
            rep = validate_assumptions(*default_models, trace_norm_n4, points, times, n_samples=100)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            assert rep.all_passed()
        assert peaks[1] <= peaks[0] + 256 * 1024, peaks
