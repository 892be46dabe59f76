"""One timed process of the benchmark: a workload run in a fresh interpreter.

``run.py`` starts this file with ``src`` on ``PYTHONPATH``:

    python3 perfbench/workload.py --workload contact_n32 --seed 7 --out DIR [--trace]

The library workloads (``contact_n32``, ``bulk_n32``) build their inputs
from the seed, call ``initialize`` and ``advance`` as the README's library
example does, and save the trajectory to ``DIR/states.npz``. ``cli_reference``
runs the ``thermocontact run`` command in this process, through
``thermocontact.driver.main``, the function the console script calls.
Timestamps (``time.monotonic``, comparable with the parent's) go to
``DIR/times.json``: interpreter up, package imported, the start and end of
every ``scheme.advance_one`` call, and the workload done. With ``--trace``
the spans go to ``DIR/spans.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import time

# numpy is imported inside the functions, so that driver.import_s covers it
GRID_N = 32
TAGS = {
    "contact_n32": {"left": "D", "right": "D", "bottom": "C", "top": "C"},
    "bulk_n32": {"left": "D", "right": "D", "bottom": "N", "top": "N"},
}
# The model overrides and time grid of examples/default.cfg (40 steps, delay of 4).
OVERRIDES = {"f0": (0.5, 0.0), "phi_b": "x1"}
SOLVER = {"T": 0.5, "h": 0.05, "dt": 0.0125}
CLI_CONFIG = os.path.join("examples", "default.cfg")


def initial_temperature(nodes, seed: int):
    """Smooth seeded temperature, exactly zero on the held sides x = 0 and x = 1.

    amp * sin(pi x) * (1 + sum_j c_j cos(j pi y)), amp in [0.7, 0.8], |c_j| <= 0.02.
    The ranges are narrow so that the seed barely moves the Newton iteration
    counts, and with them the work of a run.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    amp = rng.uniform(0.7, 0.8)
    coef = rng.uniform(-0.02, 0.02, size=3)
    x, y = nodes[:, 0], nodes[:, 1]
    shape = 1.0 + sum(c * np.cos((j + 1) * np.pi * y) for j, c in enumerate(coef))
    theta = amp * np.sin(np.pi * x) * shape
    theta[(x == 0.0) | (x == 1.0)] = 0.0
    return theta


def make_inputs(workload: str, seed: int):
    """(models, solver config, initial temperature) of a library workload."""
    from thermocontact import materials, mesh, scheme

    grid = mesh.build_unit_square_mesh(GRID_N, tags=TAGS[workload])
    dofs = mesh.build_dof_maps(grid)
    mat, fric, bd = materials.default_ptc_model(OVERRIDES)
    models = scheme.Models(grid, dofs, mat, fric, bd)
    return models, scheme.SolverConfig(**SOLVER), initial_temperature(grid.nodes, seed)


def mark_steps(marks: list) -> None:
    """Append [start, end] of every ``scheme.advance_one`` call to marks.

    ``scheme.advance`` looks ``advance_one`` up in its module at each step,
    so every step of ``advance``, the driver and the cascade is marked.
    """
    from thermocontact import scheme

    step = scheme.advance_one

    def marked(*args, **kwargs):
        start = time.monotonic()
        state = step(*args, **kwargs)
        marks.append([start, time.monotonic()])
        return state

    scheme.advance_one = marked


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=("cli_reference", *TAGS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    times = {"begin": time.monotonic()}
    import thermocontact.driver  # every module of the package; users pay this on each call
    times["imported"] = time.monotonic()
    times["steps"] = []
    mark_steps(times["steps"])

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()

    if args.workload == "cli_reference":
        code = thermocontact.driver.main(["run", "--config", CLI_CONFIG, "--out", args.out])
        times["done"] = time.monotonic()
    else:
        import numpy as np
        from thermocontact import scheme

        models, config, theta0 = make_inputs(args.workload, args.seed)
        ws = scheme.initialize(models, config, theta0=theta0)
        states = scheme.advance(ws)
        times["done"] = time.monotonic()
        code = 0
        np.savez(os.path.join(args.out, "states.npz"),
                 t=np.array([s.t for s in states]),
                 **{f: np.stack([getattr(s, f) for s in states])
                    for f in ("theta", "phi", "u", "v", "xi")})

    if tracer is not None:
        tracer.dump(os.path.join(args.out, "spans.json"))
    with open(os.path.join(args.out, "times.json"), "w") as fh:
        json.dump(times, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
