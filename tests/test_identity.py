"""The statkit kernels reproduce the identity corpus (``identity.py``) bit
for bit: each group's sha256 is the one stored in ``data/identity.json``.
``evolve-multi`` and ``stats`` reproduce their goldens in ``data/golden/``
byte for byte."""

import json
from pathlib import Path

import pytest

import identity
from parasitech import LogisticParams, SimConfig, simulate_pair, write_series_csv
from parasitech.cli import run

DATA = Path(__file__).parent / "data"
EXPECTED = json.loads((DATA / "identity.json").read_text())

# a host and three parasites; 10% of the points missing in each series
MULTI_CONFIG = SimConfig(
    host=LogisticParams(k=100.0, a=6.0, b=0.05),
    parasites=(
        LogisticParams(k=50.0, a=6.96, b=0.087),
        LogisticParams(k=30.0, a=5.0, b=0.06),
        LogisticParams(k=80.0, a=7.2, b=0.08),
    ),
    t_start=0.0, t_end=43.0, n_points=44, noise_sigma=0.02, missing_prob=0.1, seed=7,
)


@pytest.mark.parametrize("group", list(identity.GROUPS))
def test_group_output_is_unchanged(group):
    digest = identity.hashes([group])[group]
    assert digest == EXPECTED[group], f"the {group} outputs changed"


@pytest.mark.parametrize(
    "fmt, suffix", [("json", "json"), ("csv", "csv"), ("text", "txt")]
)
def test_evolve_multi_output_is_unchanged(fmt, suffix, tmp_path, capsys):
    # parasite1 on the host, parasite2 and parasite3, each read from the CSV
    # write_series_csv writes for it
    host, parasites = simulate_pair(MULTI_CONFIG)
    paths = [
        str(write_series_csv(s, tmp_path / f"{s.name}.csv")) for s in (host, *parasites)
    ]
    argv = ["evolve-multi", "--host", paths[0], "--format", fmt]
    for path in paths[1:]:
        argv += ["--parasite", path]
    assert run(argv) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert out == (DATA / "golden" / f"evolve_multi.{suffix}").read_bytes()


@pytest.mark.parametrize("scale", ["raw", "log"])
@pytest.mark.parametrize("fmt, suffix", [("json", "json"), ("text", "txt")])
def test_stats_output_is_unchanged(scale, fmt, suffix, tmp_path, capsys):
    # the descriptives of MULTI_CONFIG's host, read from the CSV
    # write_series_csv writes for it
    host, _ = simulate_pair(MULTI_CONFIG)
    path = str(write_series_csv(host, tmp_path / "host.csv"))
    argv = ["stats", "--input", path, "--format", fmt]
    assert run(argv + ["--log"] * (scale == "log")) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert out == (DATA / "golden" / f"stats_{scale}.{suffix}").read_bytes()
