"""Spans around the calls into the package's modules, and the layer metrics.

``Tracer.install`` replaces each function listed in ``TRACED`` by a wrapper
in every ``thermocontact`` module namespace that binds it (``scheme`` and
``friction`` import the ``assemble_*`` functions by name, so their own
bindings are the ones the solver calls). ``spsolve`` is wrapped per
namespace, since ``scheme.spsolve`` and ``friction.spsolve`` are separate
layers of work. A wrapper records a span ``[name, parent, start, end,
extra]`` in memory and calls the original unchanged; ``dump`` writes the
spans when the workload ends. A listed name that the package no longer
defines is reported in ``absent`` and left out; its metrics read 0.

``layer_metrics`` turns the dumped spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
import time

TRACED = {
    "driver": ("write_trajectory", "write_fields", "write_diagnostics", "write_cascade"),
    "mesh": ("build_unit_square_mesh", "build_dof_maps",
             "estimate_trace_norm", "estimate_scalar_trace_norm"),
    "materials": ("validate_assumptions",),
    "assembly": ("assemble_thermal_stiffness", "assemble_p_laplacian", "assemble_electric_system",
                 "assemble_joule_load_direct", "assemble_joule_load_reformulated",
                 "assemble_velocity_heat", "assemble_frictional_heat",
                 "assemble_mech_load", "assemble_thermal_coupling"),
    "friction": ("solve_momentum_step", "contact_traction_full"),
    "scheme": ("initialize", "advance_one", "solve_temperature_step",
               "solve_electric", "run_cascade"),
    "diagnostics": ("energy_report",),
}
# wrapped in the namespace that looks them up, one layer per namespace
PER_NAMESPACE = {"scheme": ("spsolve",), "friction": ("spsolve",)}


def _momentum_iterations(result):
    return result[3]["iterations"]


EXTRACT = {"friction.solve_momentum_step": _momentum_iterations}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.absent: list[str] = []

    def _wrap(self, name: str, fn):
        spans, stack, extract = self.spans, self.stack, EXTRACT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, time.perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = time.perf_counter()
            if extract is not None:
                try:
                    span[4] = extract(result)
                except (TypeError, KeyError, IndexError):
                    pass
            return result

        return traced

    def install(self) -> None:
        package = {name: mod for name, mod in sys.modules.items()
                   if name == "thermocontact" or name.startswith("thermocontact.")}
        for short, names in TRACED.items():
            home = package.get(f"thermocontact.{short}")
            for fname in names:
                orig = getattr(home, fname, None)
                if orig is None:
                    self.absent.append(f"{short}.{fname}")
                    continue
                wrapper = self._wrap(f"{short}.{fname}", orig)
                for mod in package.values():
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
        for short, names in PER_NAMESPACE.items():
            mod = package.get(f"thermocontact.{short}")
            for fname in names:
                orig = getattr(mod, fname, None)
                if orig is None:
                    self.absent.append(f"{short}.{fname}")
                    continue
                setattr(mod, fname, self._wrap(f"{short}.{fname}", orig))

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"absent": self.absent, "spans": self.spans}, fh)


# name -> unit; the README maps each to the end-to-end metric it moves
LAYER_METRICS = {
    "driver.import_s": "s",
    "driver.write_s": "s",
    "driver.output_bytes": "bytes",
    "mesh.build_s": "s",
    "mesh.trace_norm_s": "s",
    "materials.validate_s": "s",
    "scheme.initialize_s": "s",
    "scheme.steps": "count",
    "scheme.temperature_s": "s",
    "scheme.temperature_newton_iters": "count",
    "scheme.temperature_residual_evals": "count",
    "scheme.electric_s": "s",
    "scheme.momentum_s": "s",
    "scheme.step_self_s": "s",
    "scheme.spsolve_s": "s",
    "scheme.spsolve_calls": "count",
    "scheme.cascade_s": "s",
    "friction.newton_iters": "count",
    "friction.residual_evals": "count",
    "friction.accepted_ratio": "ratio",
    "friction.spsolve_s": "s",
    "friction.spsolve_calls": "count",
    "friction.load_s": "s",
    "assembly.thermal_stiffness_s": "s",
    "assembly.p_laplacian_s": "s",
    "assembly.electric_s": "s",
    "assembly.heat_sources_s": "s",
    "diagnostics.energy_report_s": "s",
    "trace.overhead_s": "s",
}


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    own = [end - start for _, _, start, end, _ in spans]
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summary(spans: list[list]) -> dict:
    """Calls, inclusive and self seconds per span name."""
    out: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        row = out.setdefault(span[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span[3] - span[2]
        row["self_s"] += own
    return out


def layer_metrics(spans: list[list], import_s: float, output_bytes: int,
                  overhead_s: float) -> dict[str, dict]:
    """Per-layer metrics of one traced workload process."""

    def under(i: int, ancestor: str) -> bool:
        parent = spans[i][1]
        while parent >= 0:
            if spans[parent][0] == ancestor:
                return True
            parent = spans[parent][1]
        return False

    def total(*names: str) -> float:
        return sum((s[3] - s[2] for s in spans if s[0] in names), 0.0)

    def count(name: str, ancestor: str | None = None) -> int:
        return sum(1 for i, s in enumerate(spans)
                   if s[0] == name and (ancestor is None or under(i, ancestor)))

    own = self_times(spans)
    momentum = "friction.solve_momentum_step"
    newton = sum(s[4] for s in spans if s[0] == momentum and s[4] is not None)
    residual_evals = count("friction.contact_traction_full", momentum)
    trials = residual_evals - count(momentum)  # one residual per call precedes the corrections
    values = {
        "driver.import_s": import_s,
        "driver.write_s": total("driver.write_trajectory", "driver.write_fields",
                                "driver.write_diagnostics", "driver.write_cascade"),
        "driver.output_bytes": output_bytes,
        "mesh.build_s": total("mesh.build_unit_square_mesh", "mesh.build_dof_maps"),
        "mesh.trace_norm_s": total("mesh.estimate_trace_norm", "mesh.estimate_scalar_trace_norm"),
        "materials.validate_s": total("materials.validate_assumptions"),
        "scheme.initialize_s": total("scheme.initialize"),
        "scheme.steps": count("scheme.advance_one"),
        "scheme.temperature_s": total("scheme.solve_temperature_step"),
        "scheme.temperature_newton_iters": count("scheme.spsolve", "scheme.solve_temperature_step"),
        "scheme.temperature_residual_evals": count("assembly.assemble_p_laplacian",
                                                   "scheme.solve_temperature_step"),
        "scheme.electric_s": total("scheme.solve_electric"),
        "scheme.momentum_s": total(momentum),
        "scheme.step_self_s": sum(o for s, o in zip(spans, own) if s[0] == "scheme.advance_one"),
        "scheme.spsolve_s": total("scheme.spsolve"),
        "scheme.spsolve_calls": count("scheme.spsolve"),
        "scheme.cascade_s": total("scheme.run_cascade"),
        "friction.newton_iters": newton,
        "friction.residual_evals": residual_evals,
        "friction.accepted_ratio": newton / trials if trials > 0 else 0.0,
        "friction.spsolve_s": total("friction.spsolve"),
        "friction.spsolve_calls": count("friction.spsolve"),
        "friction.load_s": total("assembly.assemble_mech_load", "assembly.assemble_thermal_coupling"),
        "assembly.thermal_stiffness_s": total("assembly.assemble_thermal_stiffness"),
        "assembly.p_laplacian_s": total("assembly.assemble_p_laplacian"),
        "assembly.electric_s": total("assembly.assemble_electric_system"),
        "assembly.heat_sources_s": total("assembly.assemble_joule_load_direct",
                                         "assembly.assemble_joule_load_reformulated",
                                         "assembly.assemble_velocity_heat",
                                         "assembly.assemble_frictional_heat"),
        "diagnostics.energy_report_s": total("diagnostics.energy_report"),
        "trace.overhead_s": overhead_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS.items()}
