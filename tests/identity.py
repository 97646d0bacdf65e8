"""Output-identity corpus for the statkit kernels.

Each group runs one kernel over fixed-seed, in-range inputs (magnitudes the
kernels meet on real series) and hashes the ``repr`` of every result, or the
type and message of every package error, one line per case. Two versions of
the code give the same numbers on the corpus exactly when their hashes
match. Like ``data/golden_evolve.json`` and ``data/golden/``, the hashes
hold for the numpy and scipy versions that CI pins and for the kernels
those pick at run time: OpenBLAS's SkylakeX kernels and numpy's AVX-512
loops. Another version, or another CPU (OPENBLAS_CORETYPE=Haswell, Zen or
Sandybridge, or NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4"),
moves last bits and every group's hash.

    PYTHONPATH=src python tests/identity.py > tests/data/identity.json

prints the hashes as the JSON that ``tests/test_identity.py`` compares with.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from parasitech import (
    ParasitechError,
    TechSeries,
    descriptive,
    fit_logistic,
    ols_multi,
    ols_simple,
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


GROUPS = {
    "ols_simple": _ols_simple,
    "pearson": _pearson,
    "descriptive": _descriptive,
    "zscore": _zscore,
    "fit_logistic": _fit_logistic,
    "ols_multi": _ols_multi,
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
