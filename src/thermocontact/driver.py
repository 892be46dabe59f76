"""Command line entry point: config parsing, runs, checks, cascades.

Config files are flat ``key = value`` text with ``#`` comments. Sections
are spelled in the key: ``mesh.*`` selects the domain, ``model.*``
overrides material constants, ``solver.*`` fills the stepping
parameters, ``output.*`` controls persistence. Every CSV written starts
with a header row followed by a comment line carrying the sha256 of the
config file, and identical configs reproduce byte-identical files.

Exit codes: 0 success, 2 config or mesh errors, 3 solver failures,
4 assumption or invariant violations (always for ``check``, otherwise
only with ``--assert``).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import math
import os
import sys

import numpy as np

from .diagnostics import energy_report
from .friction import SolverError
from .materials import DEFAULTS, PHI_B_FORMS, ValidationReport, default_ptc_model, validate_assumptions
from .mesh import (
    MeshError,
    build_dof_maps,
    build_unit_square_mesh,
    edge_quadrature,
    estimate_trace_norm,
    load_mesh,
)
from .scheme import ConfigError, Models, SolverConfig, advance, check_history_fits, initialize, run_cascade

SIDES = ("left", "right", "bottom", "top")


@dataclasses.dataclass
class RunConfig:
    solver: SolverConfig
    mesh_file: str | None = None
    mesh_n: int = 8
    tags: dict | None = None
    overrides: dict = dataclasses.field(default_factory=dict)
    out_dir: str = "out"
    stride: int = 1
    diagnostics: bool = True
    assert_mode: bool = False
    config_hash: str = ""


def _parse_entries(text: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value'")
        key, val = (part.strip() for part in line.split("=", 1))
        if not key or not val:
            raise ConfigError(f"line {ln}: empty key or value")
        if key in entries:
            raise ConfigError(f"line {ln}: duplicate key '{key}'")
        entries[key] = val
    return entries


def _cast(key: str, raw: str, cast):
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"key '{key}': {exc}") from exc


def _float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got '{raw}'")
    return value


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(_float(x) for x in raw.split())


def _solver_cast(default):
    """The cast of a ``solver.*`` key, from the default of its SolverConfig field."""
    if isinstance(default, str):
        return str
    if isinstance(default, int):
        return int
    if isinstance(default, tuple):
        return _floats
    return _float  # no default, a float or None


def _pop_typed(entries: dict[str, str], key: str, cast, default):
    if key not in entries:
        return default
    return _cast(key, entries.pop(key), cast)


def _parse_bool(raw: str) -> bool:
    if raw in ("on", "true", "yes", "1"):
        return True
    if raw in ("off", "false", "no", "0"):
        return False
    raise ValueError(f"expected on/off, got '{raw}'")


def parse_config(path: str) -> RunConfig:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config '{path}': {exc}") from exc
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config '{path}' is not UTF-8 text: {exc}") from None
    entries = _parse_entries(text)
    square_keys = [key for key in ["mesh.n"] + [f"mesh.{side}" for side in SIDES] if key in entries]
    if "mesh.file" in entries and square_keys:
        raise ConfigError(f"key '{square_keys[0]}' has no effect with 'mesh.file', which sets nodes and tags")

    overrides = {}
    for key in list(entries):
        if not key.startswith("model."):
            continue
        name = key[len("model."):]
        if name not in DEFAULTS:
            raise ConfigError(f"unknown model override '{name}'")
        raw = entries.pop(key)
        default = DEFAULTS[name]  # its type is the override's kind
        if isinstance(default, str):  # the one string is the phi_b form
            if raw not in PHI_B_FORMS:
                raise ConfigError(f"key '{key}': unknown form '{raw}'; options: {sorted(PHI_B_FORMS)}")
            overrides[name] = raw
        elif isinstance(default, tuple):  # a vector in the plane
            if len(raw.split()) != len(default):
                raise ConfigError(f"key '{key}': expected two numbers")
            overrides[name] = _cast(key, raw, _floats)
        else:
            overrides[name] = _cast(key, raw, _float)

    tags = {}
    for side in SIDES:
        tag = entries.pop(f"mesh.{side}", None)
        if tag is not None:
            tags[side] = tag

    solver_kwargs = {}
    for fld in dataclasses.fields(SolverConfig):
        key = f"solver.{fld.name}"
        if key in entries:
            solver_kwargs[fld.name] = _cast(key, entries.pop(key), _solver_cast(fld.default))
    for key in ("T", "h", "dt"):
        if key not in solver_kwargs:
            raise ConfigError(f"missing required key 'solver.{key}'")
    solver = SolverConfig(**solver_kwargs)
    solver.validate()

    rc = RunConfig(
        solver=solver,
        mesh_file=entries.pop("mesh.file", None),
        mesh_n=_pop_typed(entries, "mesh.n", int, 8),
        tags=tags or None,
        overrides=overrides,
        out_dir=entries.pop("output.dir", "out"),
        stride=_pop_typed(entries, "output.stride", int, 1),
        diagnostics=_pop_typed(entries, "output.diagnostics", _parse_bool, True),
        assert_mode=_pop_typed(entries, "output.assert", _parse_bool, False),
        config_hash=hashlib.sha256(blob).hexdigest(),
    )
    if entries:
        raise ConfigError(f"unknown key '{sorted(entries)[0]}'")
    if rc.stride < 1:
        raise ConfigError("output.stride must be >= 1")
    return rc


def build_models(rc: RunConfig) -> Models:
    """The mesh, dof maps and models of a config whose run fits in memory.

    The memory check comes before any command validates: ``check`` would
    otherwise make one ``F_field`` call per grid time (A5) for a run that
    could never be kept. A mesh or dof map too large to allocate is a
    MeshError naming the mesh.
    """
    try:
        if rc.mesh_file is not None:
            mesh = load_mesh(rc.mesh_file)
        else:
            mesh = build_unit_square_mesh(rc.mesh_n, tags=rc.tags)
        check_history_fits(rc.solver, mesh.n_nodes)
        dofs = build_dof_maps(mesh)
    except MemoryError:
        what = f"mesh file {rc.mesh_file}" if rc.mesh_file is not None else f"mesh.n = {rc.mesh_n}"
        raise MeshError(f"{what}: the mesh and its dof maps do not fit in memory") from None
    mat, fric, bd = default_ptc_model(rc.overrides)
    return Models(mesh, dofs, mat, fric, bd)


def _write_csv(path: str, header: list[str], rows, config_hash: str) -> None:
    """Rows hold Python ints and floats (``tolist()``): numpy 2 would repr a
    numpy scalar as ``np.float64(...)``."""
    lines = [",".join(header), f"# config_hash={config_hash}"]
    lines.extend(",".join(map(repr, row)) for row in rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_trajectory(rc: RunConfig, mesh, states) -> None:
    n = mesh.n_nodes
    header = (["t"]
              + [f"theta[{i}]" for i in range(n)]
              + [f"phi[{i}]" for i in range(n)]
              + [f"u[{i}]" for i in range(2 * n)]
              + [f"v[{i}]" for i in range(2 * n)])
    rows = (np.concatenate(([s.t], s.theta, s.phi, s.u, s.v)).tolist()
            for s in states[::rc.stride])
    _write_csv(os.path.join(rc.out_dir, "trajectory.csv"), header, rows, rc.config_hash)


def write_fields(rc: RunConfig, mesh, state) -> None:
    header = ["node", "x0", "x1", "theta", "phi", "u0", "u1", "v0", "v1", "xi0", "xi1"]
    table = np.column_stack([mesh.nodes, state.theta, state.phi, state.u.reshape(-1, 2),
                             state.v.reshape(-1, 2), state.xi.reshape(-1, 2)])
    rows = ([i, *row] for i, row in enumerate(table.tolist()))
    _write_csv(os.path.join(rc.out_dir, "fields.csv"), header, rows, rc.config_hash)


def write_diagnostics(rc: RunConfig, report) -> None:
    _write_csv(os.path.join(rc.out_dir, "diagnostics.csv"),
               list(report.columns), report.data.tolist(), rc.config_hash)


def write_cascade(rc: RunConfig, report) -> None:
    header = ["h", "regularizer", "theta_cauchy", "phi_cauchy", "v_cauchy"]
    # the first level has no coarser one to differ from
    rows = np.column_stack([report.levels, report.regularizer]
                           + [[np.nan, *diffs] for diffs in
                              (report.theta_cauchy, report.phi_cauchy, report.v_cauchy)])
    _write_csv(os.path.join(rc.out_dir, "cascade.csv"), header, rows.tolist(), rc.config_hash)


def validate_and_print(models: Models, config: SolverConfig) -> ValidationReport:
    """Validate the assumptions (A5 at the C nodes and Gauss points, at each time n dt), print and return them."""
    mesh = models.mesh
    points = np.concatenate([mesh.nodes[models.dofs.contact_nodes],
                             edge_quadrature(mesh, ("C",)).points.reshape(-1, 2)])
    report = validate_assumptions(models.mat, models.fric, models.bd, estimate_trace_norm(mesh, models.dofs),
                                  points, config.dt * np.arange(config.n_steps + 1))
    for line in report.lines():
        print(line)
    return report


def run_command(rc: RunConfig) -> int:
    models = build_models(rc)
    if not validate_and_print(models, rc.solver).all_passed() and rc.assert_mode:
        print("assumption validation failed", file=sys.stderr)
        return 4

    os.makedirs(rc.out_dir, exist_ok=True)
    ws = initialize(models, rc.solver)
    states = advance(ws)
    write_trajectory(rc, models.mesh, states)
    write_fields(rc, models.mesh, states[-1])
    if rc.diagnostics:
        report = energy_report(ws)
        write_diagnostics(rc, report)
        for violation in report.violations:
            print(f"violation: {violation}", file=sys.stderr)
        if report.violations and rc.assert_mode:
            return 4
    if len(rc.solver.cascade_levels) >= 1:
        cascade = run_cascade(models, rc.solver)
        write_cascade(rc, cascade)
    print(f"run complete: {len(states)} states -> {rc.out_dir}")
    return 0


def cascade_command(rc: RunConfig) -> int:
    models = build_models(rc)
    if not rc.solver.cascade_levels:
        raise ConfigError("cascade requires solver.cascade_levels")
    os.makedirs(rc.out_dir, exist_ok=True)
    report = run_cascade(models, rc.solver)
    write_cascade(rc, report)
    print(f"cascade complete: levels {list(rc.solver.cascade_levels)} -> {rc.out_dir}")
    return 0


def check_command(rc: RunConfig) -> int:
    report = validate_and_print(build_models(rc), rc.solver)
    if not report.all_passed():
        failed = ", ".join(c.id for c in report.failures())
        print(f"failed assumptions: {failed}", file=sys.stderr)
        return 4
    print("all assumptions pass")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="thermocontact",
        description="Coupled thermal, electric, and frictional-contact simulator.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (("run", "simulate and write trajectory outputs"),
                            ("check", "validate model assumptions, no simulation"),
                            ("cascade", "run only the delay-refinement cascade")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the config file")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--assert", dest="assert_mode", action="store_true",
                       help="exit 4 on any assumption or invariant violation")
        p.add_argument("--stride", type=int, default=None,
                       help="keep every stride-th trajectory row")
    args = parser.parse_args(argv)

    try:
        rc = parse_config(args.config)
        if args.out is not None:
            rc.out_dir = args.out
        if args.assert_mode:
            rc.assert_mode = True
        if args.stride is not None:
            if args.stride < 1:
                raise ConfigError("--stride must be >= 1")
            rc.stride = args.stride
        command = {"run": run_command, "check": check_command,
                   "cascade": cascade_command}[args.command]
        return command(rc)
    except (ConfigError, MeshError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
