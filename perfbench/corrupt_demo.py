"""Show that each output check of the benchmark fails on a corrupted output.

    python3 perfbench/corrupt_demo.py

Run from the root of a checkout. Makes one ``contact_n32`` process and one
``thermocontact run`` on ``examples/default.cfg`` (about 15 s), checks the
clean outputs, then corrupts one value at a time and checks again. Prints
one line per corruption and exits 1 if any corruption goes unnoticed.
"""

from __future__ import annotations

import os
import shutil
import sys

import numpy as np

import checks
import run


def edit_csv(src: str, dst: str, column: str, row: int, value: str) -> None:
    """Copy a CLI CSV, replacing one cell (row counts data rows from 0)."""
    with open(src, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    col = lines[0].split(",").index(column)
    cells = lines[2 + row].split(",")
    cells[col] = value
    lines[2 + row] = ",".join(cells)
    with open(dst, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def library_cases(bench, data):
    mesh = bench.models.mesh
    held = checks.tagged_nodes(mesh, "D")
    contact = checks.tagged_nodes(mesh, "C")
    free = np.setdiff1d(np.arange(mesh.n_nodes), np.union1d(held, contact))
    mid = data["t"].size // 2

    def case(field, index, value):
        bad = {k: v.copy() for k, v in data.items()}
        bad[field][index] = value
        return bad

    yield "NaN temperature", case("theta", (5, free[0]), np.nan)
    yield "displacement on a D node", case("u", (3, 2 * held[0]), 1e-3)
    yield "potential on a D node", case("phi", (7, held[-1]), 1e-9)
    yield "traction above mu_bar F", case("xi", (9, 2 * contact[3]), 0.05)
    yield "traction off the contact part", case("xi", (9, 2 * free[0] + 1), 1e-12)
    yield "potential off the current balance", case("phi", (mid, free[len(free) // 2]),
                                                      data["phi"][mid, free[len(free) // 2]] + 1e-6)
    yield "missing final state", {k: v[:-1] for k, v in data.items()}


def cli_cases(bench, out, bad_dir):
    mesh = bench.models.mesh
    held = checks.tagged_nodes(mesh, "D")
    contact = checks.tagged_nodes(mesh, "C")
    free = np.setdiff1d(np.arange(mesh.n_nodes), np.union1d(held, contact))
    with open(os.path.join(out, "fields.csv"), encoding="utf-8") as fh:
        phi_row = fh.read().splitlines()[2 + free[0]].split(",")[4]
    edits = [
        ("fields.csv", "theta", free[1], "nan", "NaN temperature"),
        ("fields.csv", "v0", held[2], "1e-3", "velocity on a D node"),
        ("fields.csv", "xi0", contact[2], "0.05", "traction above mu_bar F"),
        ("fields.csv", "phi", free[0], repr(float(phi_row) + 1e-6), "potential off the current balance"),
        ("diagnostics.csv", "phi_v", 20, "1e3", "phi_v above potential_bound"),
        ("cascade.csv", "v_cauchy", 2, "1.0", "Cauchy difference that grows"),
        ("cascade.csv", "regularizer", 2, "1.0", "regularizer majorant that grows"),
    ]
    for name, column, row, value, label in edits:
        shutil.rmtree(bad_dir, ignore_errors=True)
        shutil.copytree(out, bad_dir)
        edit_csv(os.path.join(out, name), os.path.join(bad_dir, name), column, row, value)
        yield label, bad_dir


def main() -> int:
    sys.path.insert(0, run.SRC)
    base = os.path.join(run.ROOT, ".bench_build", "perfbench", "corrupt_demo")
    shutil.rmtree(base, ignore_errors=True)
    unnoticed = 0

    def expect_failure(label, check, *args):
        nonlocal unnoticed
        try:
            check(*args)
        except checks.OutputError as exc:
            print(f"  caught  {label}: {exc}")
        else:
            print(f"  MISSED  {label}")
            unnoticed += 1

    def clean_round(name):
        bench = run.Bench(name, 1, os.path.join(base, name))
        os.makedirs(bench.work)
        sample = bench.round()  # checks the clean outputs
        if sample is None:
            raise SystemExit(f"{name}: the workload process failed")
        print(f"{name}: clean outputs pass")
        return bench, sample["out"]

    bench, out = clean_round("contact_n32")
    with np.load(os.path.join(out, "states.npz")) as npz:
        data = {k: npz[k] for k in npz.files}
    for label, bad in library_cases(bench, data):
        expect_failure(label, checks.check_trajectory, bench.models, bench.config, bad)
    bad = {k: v.copy() for k, v in data.items()}
    bad["v"][-1] = np.nextafter(bad["v"][-1], np.inf)
    expect_failure("rerun output differs in the last bit", bench.compare, bad)

    bench, out = clean_round("cli_reference")
    for label, bad_dir in cli_cases(bench, out, os.path.join(base, "bad")):
        expect_failure(label, checks.check_cli_outputs, bench.models, bench.config, bad_dir)
    shutil.rmtree(base, ignore_errors=True)
    return 1 if unnoticed else 0


if __name__ == "__main__":
    raise SystemExit(main())
