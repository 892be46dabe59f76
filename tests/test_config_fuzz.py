"""Fuzz of the config parser: any input gives a RunConfig or a ConfigError."""

import dataclasses

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from thermocontact import driver  # noqa: E402
from thermocontact.driver import RunConfig, parse_config  # noqa: E402
from thermocontact.materials import DEFAULTS  # noqa: E402
from thermocontact.scheme import ConfigError, SolverConfig  # noqa: E402

KEYS = (["mesh.n", "mesh.file"] + [f"mesh.{side}" for side in driver.SIDES]
        + [f"model.{name}" for name in DEFAULTS]
        + [f"solver.{fld.name}" for fld in dataclasses.fields(SolverConfig)]
        + ["output.dir", "output.stride", "output.diagnostics", "output.assert"])

numbers = st.one_of(
    st.floats().map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["0.5", "0.05", "0.0125", "5e-324", "1e300", "1.7976931348623157e+308"]),
)
values = st.one_of(
    numbers,
    st.lists(numbers, min_size=1, max_size=3).map(" ".join),
    st.sampled_from(["on", "off", "D", "N", "C", "x1", "direct", "reformulated"]),
    st.text(max_size=12),
)
entries = st.tuples(st.sampled_from(KEYS), values).map(lambda kv: f"{kv[0]} = {kv[1]}")
lines = st.one_of(entries, entries, st.text(max_size=20))
# the three required keys, so that most inputs get as far as the grid validation
grids = st.tuples(numbers, numbers, numbers).map(
    lambda tv: "".join(f"solver.{key} = {val}\n" for key, val in zip(("T", "h", "dt"), tv)))
blobs = st.tuples(st.one_of(st.just(""), grids), st.lists(lines, max_size=8),
                  st.binary(max_size=4)).map(
    lambda parts: (parts[0] + "\n".join(parts[1]) + "\n").encode("utf-8") + parts[2])


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fuzz.cfg"


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(blob=blobs)
def test_parse_config_returns_config_or_raises_config_error(cfg_path, blob):
    cfg_path.write_bytes(blob)
    try:
        rc = parse_config(str(cfg_path))
    except ConfigError:
        return
    assert isinstance(rc, RunConfig)
