"""Benchmark of the thermocontact simulator; see perfbench/README.md.

    python3 perfbench/run.py --workload contact_n32 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory. Every timed run is a fresh interpreter, one at a time
(closed loop, one client). Rounds repeat while another one fits in
``--seconds``, and the outputs of every round are checked (``checks.py``)
and compared with the first round's, which the same seed must reproduce
exactly.

Each round is cut into segments at fixed points: process start, interpreter
up, package imported, the start and end of every time step, workload done,
process exit. Every round does the same work in each segment, so the
benchmark takes each segment's upper quartile over the rounds (``typical``;
README.md says why). The last line printed is one JSON object. With
``--trace 0`` its metrics are ``wall_s``, ``setup_s`` and ``steps_per_s``
from those segment times, and the median ``peak_rss_mb``. With
``--trace 1`` one more process runs with spans around the calls into the
package (``spans.py``), and the metrics are the layer metrics of that
process.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import checks
import spans
import workload

WORKLOADS = ("cli_reference", "contact_n32", "bulk_n32")
CHILD_TIMEOUT_S = 120.0  # a hung process is killed, so that one run ends within three minutes
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORKLOAD_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "workload.py")
CSV_OUTPUTS = ("trajectory.csv", "fields.csv", "diagnostics.csv", "cascade.csv")


def timed(cmd: list[str], log_path: str, env: dict) -> tuple[int, float, float, float]:
    """Run cmd to its exit: (exit code, start, wall seconds, peak RSS in MB)."""
    with open(log_path, "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, start, wall, usage.ru_maxrss / 1024.0


class Bench:
    """Rounds of one workload, their samples and their checked outputs."""

    def __init__(self, name: str, seed: int, work: str):
        self.name, self.seed, self.work = name, seed, work
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        if name == "cli_reference":
            from thermocontact import driver
            rc = driver.parse_config(workload.CLI_CONFIG)
            self.models, self.config = driver.build_models(rc), rc.solver
            self.ops = 1 + len(self.config.cascade_levels)
        else:
            self.models, self.config, _ = workload.make_inputs(name, seed)
            self.ops = 1
        self.samples: list[dict] = []
        self.attempted = self.failed = 0
        self.reference = None  # outputs of the first round

    def _outputs(self, out: str):
        if self.name == "cli_reference":
            result = {}
            for name in CSV_OUTPUTS:
                with open(os.path.join(out, name), "rb") as fh:
                    result[name] = fh.read()
            return result
        with np.load(os.path.join(out, "states.npz")) as data:
            return {k: data[k] for k in data.files}

    def compare(self, outputs: dict) -> None:
        """Keep the first round's outputs; every later round must repeat them exactly."""
        if self.reference is None:
            self.reference = outputs
            return
        for key, ref in self.reference.items():
            same = np.array_equal(outputs[key], ref) if isinstance(ref, np.ndarray) else outputs[key] == ref
            if not same:
                raise checks.OutputError(f"{key} differs between two processes with the same inputs")

    def round(self, traced: bool = False) -> dict | None:
        """One checked process; None if it failed."""
        out = os.path.join(self.work, "traced" if traced else "out")
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        log = os.path.join(self.work, "child.log")
        cmd = [sys.executable, WORKLOAD_PY, "--workload", self.name,
               "--seed", str(self.seed), "--out", out] + (["--trace"] if traced else [])
        code, start, wall, rss = timed(cmd, log, self.env)
        self.attempted += self.ops
        if code != 0:
            self.failed += self.ops
            with open(log, errors="replace") as fh:
                print(f"{self.name}: exit {code}\n{fh.read()[-2000:]}", file=sys.stderr)
            return None

        if self.name == "cli_reference":
            steps = checks.check_cli_outputs(self.models, self.config, out)
        else:
            with np.load(os.path.join(out, "states.npz")) as data:
                checks.check_trajectory(self.models, self.config, {k: data[k] for k in data.files})
            steps = self.config.n_steps
        with open(os.path.join(out, "times.json")) as fh:
            times = json.load(fh)
        if len(times["steps"]) != steps:
            raise checks.OutputError(f"{len(times['steps'])} steps marked, {steps} integrated")
        points = [start, times["begin"], times["imported"],
                  *(t for step in times["steps"] for t in step), times["done"], start + wall]
        sample = {"wall_s": wall, "peak_rss_mb": rss, "out": out, "segments": np.diff(points)}

        self.compare(self._outputs(out))
        if not traced:
            self.samples.append(sample)
        return sample

    def typical(self) -> np.ndarray:
        """Each segment's upper quartile over the rounds.

        Segments: start to interpreter up, to imported, to the first step;
        then each step and the gap after it; then workload done to exit.
        """
        return np.percentile([s["segments"] for s in self.samples], 75, axis=0)

    def end_to_end(self) -> dict:
        typical = self.typical()
        steps = typical[3:-2:2]
        values = {
            "wall_s": float(typical.sum()),
            "setup_s": float(typical[:3].sum()),  # process start to the first step
            "steps_per_s": len(steps) / float(steps.sum()),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in self.samples),
        }
        units = {"wall_s": "s", "setup_s": "s", "steps_per_s": "step/s", "peak_rss_mb": "MB"}
        return {k: {"value": values[k], "unit": units[k]} for k in units}

    def layers(self) -> dict:
        """Traced process: spans around the package calls, then layer metrics."""
        sample = self.round(traced=True)
        if sample is None:
            raise checks.OutputError("traced run failed")
        out = sample["out"]
        with open(os.path.join(out, "spans.json")) as fh:
            trace = json.load(fh)
        with open(os.path.join(out, "times.json")) as fh:
            times = json.load(fh)
        if trace["absent"]:
            print(f"absent from the package, reported as 0: {', '.join(trace['absent'])}",
                  file=sys.stderr)
        output_bytes = sum(os.path.getsize(os.path.join(out, f))
                           for f in os.listdir(out) if f.endswith(".csv"))
        overhead = sample["wall_s"] - float(self.typical().sum())
        metrics = spans.layer_metrics(trace["spans"], times["imported"] - times["begin"],
                                      output_bytes, overhead)
        with open(os.path.join(os.path.dirname(self.work), f"trace-{self.name}.json"), "w") as fh:
            json.dump({"absent": trace["absent"], "metrics": metrics,
                       "spans": spans.summary(trace["spans"])}, fh, indent=1)
        return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for need in (os.path.join(SRC, "thermocontact", "driver.py"), workload.CLI_CONFIG):
        if not os.path.isfile(need):
            print(f"run from the root of a thermocontact checkout: {need} is missing", file=sys.stderr)
            return 2
    sys.path.insert(0, SRC)
    compileall.compile_dir(SRC, quiet=1)  # bytecode is written once, as an installed package's is
    work = os.path.join(ROOT, ".bench_build", "perfbench", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        bench = Bench(args.workload, args.seed, work)
        correct = True
        start = time.monotonic()
        last = 0.0  # duration of the latest round, checks included
        try:
            while not bench.samples or time.monotonic() - start + last < args.seconds:
                begun = time.monotonic()
                if bench.round() is None and bench.failed >= 3 * bench.ops:
                    break
                last = time.monotonic() - begun
            if not bench.samples:
                print(f"{args.workload}: no round completed", file=sys.stderr)
                return 1
            metrics = bench.layers() if args.trace else bench.end_to_end()
        except checks.OutputError as exc:
            print(f"{args.workload}: output check failed: {exc}", file=sys.stderr)
            correct, metrics = False, bench.end_to_end() if bench.samples else {}
        print(f"{args.workload}: wall_s of {len(bench.samples)} rounds "
              f"{[round(s['wall_s'], 3) for s in bench.samples]}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
