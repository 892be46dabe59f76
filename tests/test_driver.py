"""Config parsing, CLI exit codes, output files, reproducibility."""

import dataclasses
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from thermocontact import driver
from thermocontact.driver import main, parse_config
from thermocontact.materials import default_ptc_model
from thermocontact.mesh import build_dof_maps, build_unit_square_mesh, load_mesh
from thermocontact.scheme import ConfigError, Models, SolverConfig

from test_mesh import SQUARE_FILE

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

BASE = """\
mesh.n = 2
solver.T = 0.1
solver.h = 0.05
solver.dt = 0.025
"""


TWO_PIECES = """\
nodes 6 triangles 2 edges 6
0.0 0.0
1.0 0.0
0.0 1.0
2.0 0.0
3.0 0.0
2.0 1.0
0 1 2
3 4 5
0 1 N
1 2 N
2 0 D
3 4 C
4 5 N
5 3 N
"""


def cfg_file(tmp_path, extra="", base=BASE, name="run.cfg"):
    p = tmp_path / name
    p.write_text(base + extra)
    return str(p)


class TestParseConfig:
    def test_full_roundtrip(self, tmp_path):
        text = """\
# comment
mesh.n = 4
mesh.left = D
mesh.bottom = C
model.f0 = 0.5 0.0
model.phi_b = x1x2
model.mu_d = 0.3
solver.T = 0.5
solver.h = 0.05
solver.dt = 0.0125
solver.joule_mode = reformulated
solver.cascade_levels = 0.1 0.05
output.dir = results
output.stride = 2
output.diagnostics = off
output.assert = on
"""
        rc = parse_config(cfg_file(tmp_path, base=text))
        assert rc.mesh_n == 4
        assert rc.tags == {"left": "D", "bottom": "C"}
        assert rc.overrides == {"f0": (0.5, 0.0), "phi_b": "x1x2", "mu_d": 0.3}
        assert rc.solver.joule_mode == "reformulated"
        assert rc.solver.cascade_levels == (0.1, 0.05)
        assert rc.out_dir == "results"
        assert rc.stride == 2
        assert rc.diagnostics is False and rc.assert_mode is True
        assert len(rc.config_hash) == 64

    @pytest.mark.parametrize("extra,match", [
        ("solver.T = 0.2\n", "duplicate"),
        ("nonsense.key = 1\n", "unknown key"),
        ("model.not_a_knob = 1\n", "unknown model override"),
        ("model.f0 = 0.5\n", "two numbers"),
        ("output.stride = 0\n", "stride"),
        ("just some words\n", "expected"),
        ("solver.seed = 7\n", "unknown key"),
    ])
    def test_rejects(self, tmp_path, extra, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(cfg_file(tmp_path, extra))

    def test_every_solver_field_is_a_key(self, tmp_path):
        values = {"T": "0.5", "h": "0.05", "dt": "0.0125", "eps": "1e-07",
                  "tol_temperature": "1e-09", "max_iter_temperature": "30",
                  "tol_momentum": "1e-08", "max_iter_momentum": "20",
                  "joule_mode": "reformulated", "regularizer_coefficient": "0.01",
                  "cascade_levels": "0.1 0.05"}
        assert set(values) == {fld.name for fld in dataclasses.fields(SolverConfig)}
        text = "".join(f"solver.{name} = {raw}\n" for name, raw in values.items())
        solver = parse_config(cfg_file(tmp_path, base=text)).solver
        assert solver == SolverConfig(T=0.5, h=0.05, dt=0.0125, eps=1e-7, tol_temperature=1e-9,
                                      max_iter_temperature=30, tol_momentum=1e-8,
                                      max_iter_momentum=20, joule_mode="reformulated",
                                      regularizer_coefficient=0.01, cascade_levels=(0.1, 0.05))

    def test_requires_time_grid(self, tmp_path):
        with pytest.raises(ConfigError, match="solver.T"):
            parse_config(cfg_file(tmp_path, base="mesh.n = 2\n"))

    def test_grid_validation_applies(self, tmp_path):
        base = "solver.T = 0.5\nsolver.h = 0.05\nsolver.dt = 0.015\n"
        with pytest.raises(ConfigError, match="integer multiple"):
            parse_config(cfg_file(tmp_path, base=base))


class TestRunCommand:
    def test_run_produces_outputs(self, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--config", cfg_file(tmp_path), "--out", str(out)])
        assert code == 0
        assert (out / "trajectory.csv").exists()
        assert (out / "diagnostics.csv").exists()
        assert (out / "fields.csv").exists()
        assert not (out / "cascade.csv").exists()

    def test_outputs_start_with_header_and_hash(self, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", cfg_file(tmp_path), "--out", str(out)])
        for name in ("trajectory.csv", "diagnostics.csv", "fields.csv"):
            first, second = (out / name).read_text().splitlines()[:2]
            assert not first.startswith("#") and "," in first
            assert second.startswith("# config_hash=")

    def test_reruns_byte_identical(self, tmp_path):
        cfg = cfg_file(tmp_path, "model.f0 = 0.5 0.0\n")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["run", "--config", cfg, "--out", str(out_b)]) == 0
        for name in ("trajectory.csv", "diagnostics.csv", "fields.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_stride_thins_rows(self, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", cfg_file(tmp_path), "--out", str(out), "--stride", "2"])
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 2 + 3  # header, hash, states 0 2 4

    def test_run_with_cascade_levels(self, tmp_path):
        out = tmp_path / "out"
        cfg = cfg_file(tmp_path, "solver.cascade_levels = 0.05 0.025\n")
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "cascade.csv").read_text().splitlines()
        assert len(lines) == 2 + 2

    def test_assert_mode_clean_run_passes(self, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--config", cfg_file(tmp_path), "--out", str(out), "--assert"])
        assert code == 0


class TestReformulatedJoule:
    def test_reference_config_runs(self, tmp_path):
        text = (REPO_ROOT / "examples" / "default.cfg").read_text()
        out = tmp_path / "out"
        cfg = cfg_file(tmp_path, base=text + "solver.joule_mode = reformulated\n")
        assert main(["run", "--config", cfg, "--out", str(out), "--assert"]) == 0
        for name in ("trajectory", "diagnostics", "fields"):
            rows = np.genfromtxt(out / f"{name}.csv", delimiter=",", skip_header=2)
            assert rows.size and np.isfinite(rows).all()
        # the first cascade row has no coarser level to compare with
        rows = np.genfromtxt(out / "cascade.csv", delimiter=",", skip_header=2)
        assert rows.shape == (3, 5) and np.isfinite(rows[1:]).all()


class TestExitCodes:
    def test_missing_config(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_bad_time_grid(self, tmp_path):
        cfg = cfg_file(tmp_path, base="solver.T = 0.5\nsolver.h = 0.05\nsolver.dt = 0.02\n")
        assert main(["run", "--config", cfg]) == 2

    def test_missing_mesh_file(self, tmp_path):
        cfg = cfg_file(tmp_path, "mesh.file = missing_mesh.txt\n", base=BASE.replace("mesh.n = 2\n", ""))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2

    def test_solver_failure(self, tmp_path):
        extra = ("model.f0 = 0.5 0.0\n"
                 "solver.tol_momentum = 1e-300\n"
                 "solver.max_iter_momentum = 1\n")
        cfg = cfg_file(tmp_path, extra)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 3

    def test_singular_momentum_matrix(self, tmp_path, capsys):
        # no inertia, viscosity or elasticity: the momentum step matrix is zero
        extra = "model.rho = 0\nmodel.mu_a = 0\nmodel.lam_b = 0\nmodel.mu_b = 0\n"
        cfg = cfg_file(tmp_path, extra, base=BASE.replace("mesh.n = 2", "mesh.n = 4"))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver error: momentum solve at t=0: singular")
        assert err.count("\n") == 1

    def test_assert_mode_assumption_failure(self, tmp_path):
        cfg = cfg_file(tmp_path, "model.beta = 1000000.0\n")
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "out"), "--assert"])
        assert code == 4


class TestNonFiniteConductivity:
    # On examples/default.cfg the largest new temperature first passes 0.05 at
    # t = 0.0625, where the electric stage factors its matrix, NaN rows
    # included, as at every grid time; the temperature stage then still reads
    # the conductivity at the delayed, cooler state.
    @pytest.mark.parametrize("above,when", [(-np.inf, "t=0:"), (0.05, "t=0.0625:")])
    def test_exit_3_names_stage_and_time(self, tmp_path, capsys, monkeypatch, above, when):
        def nan_model(overrides):
            mat, fric, bd = default_ptc_model(overrides)
            sigma = mat.sigma_el

            def sigma_el(s):
                s = np.asarray(s, dtype=float)
                return np.where(s > above, np.nan, sigma(s))

            return dataclasses.replace(mat, sigma_el=sigma_el), fric, bd

        monkeypatch.setattr(driver, "default_ptc_model", nan_model)
        text = (REPO_ROOT / "examples" / "default.cfg").read_text()
        cfg = cfg_file(tmp_path, base=text)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"solver error: electric solve at {when}")
        assert err.count("\n") == 1


class TestConfigValueErrors:
    @pytest.mark.parametrize("extra,match", [
        ("solver.cascade_levels = 0.05 abc\n", "solver.cascade_levels"),
        ("model.f0 = 0.5 abc\n", "model.f0"),
        ("model.f2 = x 0.0\n", "model.f2"),
        ("model.phi_b = x3\n", "model.phi_b"),
        ("model.f0 = nan 0.0\n", "model.f0"),
        ("solver.regularizer_coefficient = nan\n", "solver.regularizer_coefficient"),
        ("model.sigma_star = nan\n", "model.sigma_star"),
        ("model.F_value = inf\n", "model.F_value"),
    ])
    def test_exit_2_with_one_line(self, tmp_path, capsys, extra, match):
        assert main(["check", "--config", cfg_file(tmp_path, extra)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and match in err
        assert err.count("\n") == 1


class TestNonUtf8Input:
    def check_one_line(self, cfg, capsys, match):
        assert main(["check", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and match in err
        assert err.count("\n") == 1

    def test_config(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(BASE.encode() + b"# r\xe9sistance\n")
        self.check_one_line(str(path), capsys, "not UTF-8")

    def test_mesh_file(self, tmp_path, capsys):
        (tmp_path / "latin1.mesh").write_bytes(b"# r\xe9seau\nnodes 3 triangles 1 edges 3\n")
        cfg = cfg_file(tmp_path, f"mesh.file = {tmp_path / 'latin1.mesh'}\n",
                       base=BASE.replace("mesh.n = 2\n", ""))
        self.check_one_line(cfg, capsys, "not UTF-8")


class TestRejectedBeforeRun:
    """Configs that cannot run fail in parsing or set-up, before any output is written."""

    EDITS = {
        # every node of a 1x1 square lies on the held left and right sides
        "no_free_node": ("mesh.n = 8", "mesh.n = 1", "no free node"),
        "level_off_grid": ("solver.cascade_levels = 0.1 0.05 0.025",
                           "solver.cascade_levels = 0.1 0.03", "cascade level 0.03"),
        "levels_increasing": ("solver.cascade_levels = 0.1 0.05 0.025",
                              "solver.cascade_levels = 0.05 0.1", "strictly decreasing"),
        # 8e301 steps: a loop that would not finish
        "too_many_steps": ("solver.T = 0.5", "solver.T = 1e300", "time grid has 8e+301 steps"),
        # a mesh file sets the mesh and its tags: the square's keys would be ignored
        "mesh_file_with_n": ("mesh.n = 8", "mesh.file = square.mesh\nmesh.n = 8",
                             "key 'mesh.n' has no effect with 'mesh.file'"),
        "mesh_file_with_tags": ("mesh.n = 8", "mesh.file = square.mesh",
                                "key 'mesh.left' has no effect with 'mesh.file'"),
    }

    @pytest.mark.parametrize("command", ["check", "run"])
    @pytest.mark.parametrize("edit", sorted(EDITS))
    def test_exit_2_with_one_line_and_no_output(self, tmp_path, capsys, command, edit):
        old, new, match = self.EDITS[edit]
        text = (REPO_ROOT / "examples" / "default.cfg").read_text()
        assert old in text
        out = tmp_path / "out"
        cfg = cfg_file(tmp_path, base=text.replace(old, new))
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and match in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["check", "run"])
    @pytest.mark.parametrize("failing, key, named", [
        ("build_unit_square_mesh", "mesh.n = 100000", "mesh.n = 100000"),
        ("build_dof_maps", "mesh.n = 100000", "mesh.n = 100000"),
        ("load_mesh", "mesh.file = huge.mesh", "mesh file huge.mesh"),
    ], ids=["square", "dof_maps", "file"])
    def test_mesh_beyond_memory(self, tmp_path, capsys, monkeypatch, command, failing, key, named):
        # the function fails as numpy does on an array it cannot allocate; no mesh here is that large
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (100001, 100001)")

        monkeypatch.setattr(driver, failing, no_memory)
        out = tmp_path / "out"
        cfg = cfg_file(tmp_path, key + "\n", base=BASE.replace("mesh.n = 2\n", ""))
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: {named}: the mesh and its dof maps do not fit in memory\n"
        assert captured.out == ""
        assert not out.exists()

    def test_history_beyond_physical_memory(self, tmp_path, capsys, monkeypatch):
        # 10**6 + 1 states of 1089 nodes need 69.7 GB, on a machine that reports 8 GiB:
        # check exits before A5 makes its 10**6 + 1 F_field calls (only check, since a
        # run that missed the error would fill memory)
        pages = {"SC_PHYS_PAGES": 2**21, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        cfg = cfg_file(tmp_path, base="mesh.n = 32\nsolver.T = 1\nsolver.h = 4e-6\nsolver.dt = 1e-6\n")
        assert main(["check", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("config error: 1000001 states of 1089 nodes need 69.7 GB, "
                                "more than the 8.59 GB of physical memory\n")
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["check", "run"])
    def test_mesh_piece_without_d_edge(self, tmp_path, capsys, command):
        # the second triangle touches the first nowhere and has no D edge of its own
        (tmp_path / "two.mesh").write_text(TWO_PIECES)
        out = tmp_path / "out"
        cfg = cfg_file(tmp_path, f"mesh.file = {tmp_path / 'two.mesh'}\n",
                       base=BASE.replace("mesh.n = 2\n", ""))
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: the piece of the mesh holding node 3 touches no D edge\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["check", "run"])
    def test_mesh_with_non_finite_coordinate(self, tmp_path, capsys, command):
        (tmp_path / "nan.mesh").write_text(SQUARE_FILE.replace("\n1 1\n", "\n1 nan\n"))
        out = tmp_path / "out"
        cfg = cfg_file(tmp_path, f"mesh.file = {tmp_path / 'nan.mesh'}\n",
                       base=BASE.replace("mesh.n = 2\n", ""))
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: node 2: non-finite coordinate\n"
        assert not out.exists()


def contact_free_default_cfg(tmp_path):
    text = (REPO_ROOT / "examples" / "default.cfg").read_text()
    assert "mesh.bottom = C" in text
    return cfg_file(tmp_path, base=text.replace("mesh.bottom = C", "mesh.bottom = N"))


class TestContactFree:
    def test_check_passes(self, tmp_path, capsys):
        assert main(["check", "--config", contact_free_default_cfg(tmp_path)]) == 0
        assert "all assumptions pass" in capsys.readouterr().out

    def test_run_completes(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", contact_free_default_cfg(tmp_path),
                     "--out", str(out), "--assert"]) == 0
        assert (out / "trajectory.csv").exists() and (out / "cascade.csv").exists()


@pytest.mark.parametrize("module", ["scipy.integrate", "scipy.special"])
def test_driver_import_leaves_out(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")])
    code = f"import sys, thermocontact.driver; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


class TestCheckCommand:
    def test_default_passes(self, tmp_path, capsys):
        assert main(["check", "--config", cfg_file(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "A8" in out and "all assumptions pass" in out

    def test_bundled_default_prints_no_negative_margin(self, capsys):
        # a passing A4 printed margin=-3.55271e-15, its raw slack below the roundoff floor
        assert main(["check", "--config", str(REPO_ROOT / "examples" / "default.cfg")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len([line for line in lines if "PASS (margin=" in line]) == 14
        assert not [line for line in lines if "PASS (margin=-" in line]

    def test_zero_conductivity_bound_fails_a2b(self, tmp_path, capsys):
        # sigma_el = 0 passed every check, and run exited 3 at the first electric solve
        cfg = cfg_file(tmp_path, "model.sigma_star = 0\nmodel.M_sigma = 0\n",
                       base=BASE.replace("mesh.n = 2", "mesh.n = 4"))
        assert main(["check", "--config", cfg]) == 4
        captured = capsys.readouterr()
        failed = [line for line in captured.out.splitlines() if "FAIL" in line]
        assert failed == ["A2B conductivity bound sigma_star > 0: FAIL (margin=0) witness={'sigma_star': 0.0}"]
        assert captured.err == "failed assumptions: A2B\n"
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"), "--assert"]) == 4
        captured = capsys.readouterr()
        assert [line for line in captured.out.splitlines() if "FAIL" in line] == failed
        assert not (tmp_path / "out").exists()

    def test_inflated_slope_constant_fails_a8(self, tmp_path, capsys):
        # beta scales the slope constant linearly, so this is a 1e6 inflation
        cfg = cfg_file(tmp_path, "model.beta = 1000000.0\n")
        assert main(["check", "--config", cfg]) == 4
        captured = capsys.readouterr()
        assert "A8" in captured.err


SHIFTED_SQUARE = """\
nodes 4 triangles 2 edges 4
2.0 0.0
3.0 0.0
3.0 1.0
2.0 1.0
0 1 2
0 2 3
0 1 C
1 2 N
2 3 N
3 0 D
"""


class TestA5Samples:
    """A5 reads F at the nodes and Gauss points of the C edges, at every grid time n dt."""

    @staticmethod
    def models(mesh, F_field, F_bar=0.3):
        mat, fric, bd = default_ptc_model()
        return Models(mesh, build_dof_maps(mesh), mat, dataclasses.replace(fric, F_field=F_field, F_bar=F_bar), bd)

    @staticmethod
    def a5(models, T, dt=0.025):
        return next(c for c in driver.validate_and_print(models, SolverConfig(T=T, h=0.05, dt=dt)).checks
                    if c.id == "A5")

    def test_negative_traction_off_the_unit_square_fails(self, tmp_path):
        path = tmp_path / "shifted.mesh"
        path.write_text(SHIFTED_SQUARE)

        def F_field(x, t):
            return np.where(np.asarray(x)[..., 0] > 1.5, -1.0, 0.3)

        check = self.a5(self.models(load_mesh(str(path)), F_field), 1.0)
        assert not check.passed and check.witness["x"][0] > 1.5
        assert self.a5(self.models(build_unit_square_mesh(2), F_field), 1.0).passed

    def test_negative_traction_after_t_10_fails(self):
        def F_field(x, t):
            return np.full(np.asarray(x).shape[:-1], -1.0 if t > 10.0 else 0.3)

        models = self.models(build_unit_square_mesh(2), F_field)
        check = self.a5(models, 20.0)
        assert not check.passed and check.witness["t"] > 10.0
        assert self.a5(models, 10.0).passed

    def test_negative_traction_off_the_contact_part_passes(self):
        # C on the bottom only: F is 0.3 at every point the run reads, -1 above y = 0.5
        def F_field(x, t):
            return np.where(np.asarray(x)[..., 1] > 0.5, -1.0, 0.3)

        assert self.a5(self.models(build_unit_square_mesh(4), F_field), 1.0).passed

    def test_traction_above_F_bar_fails(self):
        def F_field(x, t):
            return np.full(np.asarray(x).shape[:-1], 0.5)

        check = self.a5(self.models(build_unit_square_mesh(2), F_field, F_bar=0.1), 1.0)
        assert not check.passed and check.margin == pytest.approx(0.1 - 0.5 + 1e-12, rel=1e-12)
        assert check.witness["F"] == 0.5
        assert self.a5(self.models(build_unit_square_mesh(2), F_field, F_bar=0.5), 1.0).passed

    def test_one_F_field_call_per_grid_time(self):
        rc = parse_config(str(REPO_ROOT / "examples" / "default.cfg"))
        models = driver.build_models(rc)
        times = []

        def F_field(x, t, inner=models.fric.F_field):
            times.append(t)
            return inner(x, t)

        models.fric = dataclasses.replace(models.fric, F_field=F_field)
        assert driver.validate_and_print(models, rc.solver).all_passed()
        assert len(times) == rc.solver.n_steps + 1 == 41
        assert times == [n * rc.solver.dt for n in range(41)]  # the floats advance_one passes

    def test_only_grid_times_count(self):
        T, dt = 0.1, 0.025

        def negative_when(when):
            return lambda x, t: np.full(np.asarray(x).shape[:-1], -1.0 if when(t) else 0.3)

        models = self.models(build_unit_square_mesh(2), negative_when(lambda t: t == 4 * dt))
        check = self.a5(models, T, dt)
        assert not check.passed and check.witness["t"] == 4 * dt
        # strictly between the grid times 0.05 and 0.075
        models = self.models(build_unit_square_mesh(2), negative_when(lambda t: 0.051 < t < 0.074))
        assert self.a5(models, T, dt).passed

    def test_contact_free_mesh_passes_with_margin_inf(self):
        mesh = build_unit_square_mesh(2, tags={"left": "D", "right": "N", "bottom": "N", "top": "N"})
        check = self.a5(self.models(mesh, lambda x, t: np.full(np.asarray(x).shape[:-1], -1.0)), 1.0)
        assert check.passed and check.margin == np.inf and check.witness is None


class TestCascadeCommand:
    def test_writes_only_cascade(self, tmp_path):
        out = tmp_path / "out"
        cfg = cfg_file(tmp_path, "solver.cascade_levels = 0.05 0.025\n")
        assert main(["cascade", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "cascade.csv").exists()
        assert not (out / "trajectory.csv").exists()
        rows = np.genfromtxt(out / "cascade.csv", delimiter=",", skip_header=2)
        assert rows.shape == (2, 5)
        assert np.isfinite(rows[1]).all()

    def test_requires_levels(self, tmp_path):
        assert main(["cascade", "--config", cfg_file(tmp_path)]) == 2


def test_bundled_default_config_parses():
    rc = parse_config(str(REPO_ROOT / "examples" / "default.cfg"))
    assert rc.mesh_n == 8
    assert rc.solver.T == 0.5 and rc.solver.h == 0.05 and rc.solver.dt == 0.0125
    assert rc.solver.cascade_levels == (0.1, 0.05, 0.025)
    assert rc.tags == {"left": "D", "right": "D", "bottom": "C", "top": "N"}
    assert rc.overrides == {"f0": (0.5, 0.0), "phi_b": "x1"}
    assert rc.mesh_file is None
