"""Output-identity corpus for the statkit kernels and the series parser.

Each group runs one kernel over fixed-seed, in-range inputs (magnitudes the
kernels meet on real series) and hashes the ``repr`` of every result, or the
type and message of every package error, one line per case. Two versions of
the code give the same numbers on the corpus exactly when their hashes
match. Like ``data/golden_evolve.json`` and ``data/golden/``, the hashes
hold for the numpy and scipy versions that CI pins and for the kernels
those pick at run time: OpenBLAS's SkylakeX kernels and numpy's AVX-512
loops. Another version, or another CPU (OPENBLAS_CORETYPE=Haswell, Zen or
Sandybridge, or NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4"),
moves last bits and every group's hash, but for ``parse_series_csv``'s:
its files are decimal text drawn by ``random.Random``, and parsing them
goes through no BLAS or SIMD kernel, so that group holds on any CPU.

    PYTHONPATH=src python tests/identity.py > tests/data/identity.json

prints the hashes as the JSON that ``tests/test_identity.py`` compares with.
"""

from __future__ import annotations

import hashlib
import json
import random
import tempfile
from pathlib import Path

import numpy as np

from parasitech import (
    ParasitechError,
    TechSeries,
    descriptive,
    fit_logistic,
    ols_multi,
    ols_simple,
    parse_series_csv,
    pearson,
    zscore,
)

SEED = 20261019
CASES = 400


def _record(call, *args) -> str:
    try:
        out = call(*args)
    except ParasitechError as exc:
        return f"{type(exc).__name__}: {exc}"
    return repr(out.tolist() if isinstance(out, np.ndarray) else out)


def _sample(rng, n: int):
    """n values at a random magnitude and offset: times, levels or logs."""
    kind = rng.integers(4)
    scale = 10.0 ** rng.uniform(-8, 8)
    if kind == 0:  # calendar years
        return 1950.0 + np.cumsum(rng.uniform(0.1, 3.0, size=n))
    if kind == 1:  # positive levels spanning decades
        return scale * np.exp(rng.normal(0.0, 2.0, size=n))
    if kind == 2:  # their logs
        return np.log(scale * np.exp(rng.normal(0.0, 2.0, size=n)))
    return scale * rng.normal(rng.uniform(-3, 3), 1.0, size=n)


def _pair(rng):
    n = int(rng.integers(3, 60))
    x = _sample(rng, n)
    y = rng.uniform(-3, 3) * x + _sample(rng, n)
    if rng.integers(3) == 0:  # a few ties, as rounded data have
        x = np.round(x, int(rng.integers(0, 3)))
    return x, y


def _ols_simple(rng):
    return _record(ols_simple, *_pair(rng))


def _pearson(rng):
    x, y = _pair(rng)
    if rng.integers(2):  # missing sides for the pairwise deletion
        x[rng.random(x.size) < 0.1] = np.nan
        y[rng.random(y.size) < 0.1] = np.nan
    return _record(pearson, x, y)


def moment_sample(rng):
    """1 to 59 values as ``_sample`` draws them; one sample in 10 constant."""
    values = _sample(rng, int(rng.integers(1, 60)))
    if rng.integers(10) == 0:
        values[:] = values[0]
    return values


def _descriptive(rng):
    return _record(descriptive, moment_sample(rng))


def _zscore(rng):
    values = _sample(rng, int(rng.integers(2, 60)))
    if rng.integers(10) == 0:
        values[:] = values[0]
    return _record(zscore, values)


def logistic_case(rng):
    """A series of 4 to 39 noisy samples of a logistic law, and the
    k_max_factor to fit it with."""
    n = int(rng.integers(4, 40))
    times = rng.uniform(1900, 2050) + np.cumsum(rng.uniform(0.2, 2.0, size=n))
    k, b = 10.0 ** rng.uniform(-6, 6), rng.uniform(0.02, 0.5)
    a = b * rng.uniform(times[0], times[-1])
    values = k / (1.0 + np.exp(a - b * times)) * np.exp(rng.normal(0, 0.05, n))
    series = TechSeries("corpus", "host", "", times, values)
    return series, float(rng.uniform(1.5, 20.0))


def _fit_logistic(rng):
    return _record(fit_logistic, *logistic_case(rng))


def design(rng):
    """Predictor columns, y and the index of the column built as a linear
    combination of earlier ones (one design in 8 with k > 1), else None.
    y is a random combination of the columns, each scaled to unit sd, plus
    normal noise of sd 1e-3 to 3.2, all at a random magnitude."""
    k = int(rng.integers(1, 6))
    n = int(rng.integers(k + 2, 60 if rng.integers(4) else 2001))
    columns = [_sample(rng, n) for _ in range(k)]
    dependent = None
    if k > 1 and rng.integers(8) == 0:
        dependent = int(rng.integers(1, k))
        columns[dependent] = sum(
            rng.uniform(-3, 3) * c / np.std(c) for c in columns[:dependent]
        )
    signal = sum(rng.uniform(-3, 3) * c / np.std(c) for c in columns)
    noise = 10.0 ** rng.uniform(-3, 0.5) * rng.normal(size=n)
    return columns, 10.0 ** rng.uniform(-8, 8) * (signal + noise), dependent


def _ols_multi(rng):
    columns, y, _ = design(rng)
    return _record(ols_multi, columns, y)


def _numeral(r: random.Random) -> str:
    """A value cell: mostly a positive decimal, at times one that is not
    positive, or one near the float maximum, whose duplicates' float mean
    or median overflows."""
    kind = r.randrange(12)
    if kind == 0:
        return r.choice(["0", "-0.0", "0.0", f"-{r.randint(1, 99)}.{r.randint(0, 9)}"])
    if kind == 1:
        return f"1.{r.randint(0, 79):02d}e308"
    return f"{r.randint(1, 99999)}.{r.randint(0, 999)}e{r.randint(-12, 12)}"


_FATAL_ROWS = ("1990", "1990,2,3", "1990,", "1990,abc", "x,1", "inf,1", "1990,nan",
               "1e999,1", "1990,-inf")


def _series_text(r: random.Random) -> tuple[str, str]:
    """The text of a ``t,value`` file and the aggregator to read it with.

    Rows fall on a few years, so duplicate groups are common, and -0.0 and
    0.0 share a year; cells carry spaces, and comments, blank and
    whitespace-only lines come between the rows. One file in eight starts
    with a byte-order mark and one in four ends its lines with CRLF. A few
    files have a wrong or no header, no rows, or one fatal row.
    """
    years = [str(y) for y in r.sample(range(1900, 2030), r.randint(1, 12))]
    years += ["-0.0", "0.0", "0", f"{r.randint(1900, 2030)}.5"]
    header = r.choice(["t,value"] * 8 + ["T, Value", " t , VALUE "])
    lines = [header] if r.randrange(30) else [r.choice(["time,value", "t"])]
    for _ in range(r.randint(0, 30)):
        kind = r.randrange(10)
        if kind == 0:
            lines.append(r.choice(["", "   ", "\t", "# a comment", "  # t,value"]))
        else:
            t, v = r.choice(years), _numeral(r)
            spaced = [f"{t},{v}", f"{t},{v}", f" {t} , {v} ", f"{t} ,{v}"]
            lines.append(r.choice(spaced))
    if not r.randrange(20):
        lines.insert(r.randint(1, len(lines)), r.choice(_FATAL_ROWS))
    if not r.randrange(30):
        lines = [line for line in lines if line.startswith("#")] or ["# no header"]
    text = r.choice(["\n"] * 3 + ["\r\n"]).join(lines) + "\n"
    if not r.randrange(8):
        text = "\ufeff" + text
    return text, r.choice(["mean", "median", "max"])


def _series_outcome(path, aggregator):
    parsed = parse_series_csv(path, aggregator=aggregator)
    return parsed.parsed.times.tolist(), parsed.parsed.values.tolist(), parsed.warnings


def _parse_series_csv(rng):
    text, aggregator = _series_text(random.Random(int(rng.integers(2**63))))
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "series.csv"
        path.write_bytes(text.encode("utf-8"))
        line = _record(_series_outcome, path, aggregator)
    return line.replace(directory, "<dir>")  # messages name the file


GROUPS = {
    "ols_simple": _ols_simple,
    "pearson": _pearson,
    "descriptive": _descriptive,
    "zscore": _zscore,
    "fit_logistic": _fit_logistic,
    "ols_multi": _ols_multi,
    "parse_series_csv": _parse_series_csv,
}


def _rng(name: str):
    return np.random.default_rng([SEED, list(GROUPS).index(name)])


def group_lines(name: str) -> list[str]:
    """The corpus lines of one group."""
    rng = _rng(name)
    return [GROUPS[name](rng) for _ in range(CASES)]


def moment_samples():
    """The ``descriptive`` group's samples, as ``moment_sample`` gives them."""
    rng = _rng("descriptive")
    return [moment_sample(rng) for _ in range(CASES)]


def logistic_cases():
    """The ``fit_logistic`` group's (series, k_max_factor) pairs, as
    ``logistic_case`` gives them."""
    rng = _rng("fit_logistic")
    return [logistic_case(rng) for _ in range(CASES)]


def designs():
    """The ``ols_multi`` group's designs, as ``design`` gives them."""
    rng = _rng("ols_multi")
    return [design(rng) for _ in range(CASES)]


def hashes(names=tuple(GROUPS)) -> dict[str, str]:
    """The sha256 of the lines of each named group, by group name."""
    return {
        name: hashlib.sha256("\n".join(group_lines(name)).encode()).hexdigest()
        for name in names
    }


if __name__ == "__main__":
    print(json.dumps(hashes(), indent=2))
