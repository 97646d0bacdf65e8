"""The benchmark workloads: inputs from a seed, one op, its check.

Each workload is a closed loop with one client: the next op starts only
after the previous one returned. ``setup`` builds the inputs from the seed
and runs the warm-up ops; ``op`` is the timed unit of work; ``check`` judges
one op's output outside the timed region and returns the reasons it is
wrong (empty when it is right).

Only the stdlib is imported at module level: run.py imports this module and
must start without the package, and numpy and ``parasitech`` are imported in
the worker's set-up, which ``setup_s`` times.
"""

from __future__ import annotations

import json
import math
import resource
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WARMUP_OPS = 2


def strict_json(data: bytes):
    """Decode JSON, rejecting NaN and +-Infinity, which JSON does not have."""

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(data, parse_constant=reject)


def rel_close(a: float, b: float, rel: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= rel * abs(b)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.setup_problems: list[str] = []

    def setup(self) -> None:
        self.prepare()
        for _ in range(WARMUP_OPS):
            self.setup_problems += self.check(self.op())

    def prepare(self) -> None:
        raise NotImplementedError

    def op(self):
        raise NotImplementedError

    def check(self, out) -> list[str]:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------- golden scenario (CLI probes)

# The golden scenario of tests/test_acceptance.py, as `simulate` takes it.
GOLDEN_ARGS = dict(
    k1=100.0, b1=0.05, t1=120.0, k2=50.0, b2=0.087, t2=80.0,
    t_start=0.0, t_end=43.0, n=44, noise=0.02, missing=0.1,
)


def write_golden_pair(seed: int, directory: Path) -> None:
    """Simulate the golden-scenario pair and the report ``evolve`` must print.

    Writes ``golden_host.csv`` and ``golden_parasite.csv`` exactly as the
    ``simulate`` subcommand would, and ``expected.json``: the in-process
    ``render_report(build_report(...), "json")`` of the same files.
    """
    import parasitech as pt

    a = GOLDEN_ARGS
    config = pt.SimConfig(
        host=pt.LogisticParams(k=a["k1"], a=a["b1"] * a["t1"], b=a["b1"]),
        parasites=(pt.LogisticParams(k=a["k2"], a=a["b2"] * a["t2"], b=a["b2"]),),
        t_start=a["t_start"],
        t_end=a["t_end"],
        n_points=a["n"],
        noise_sigma=a["noise"],
        missing_prob=a["missing"],
        seed=seed,
    )
    host, parasites = pt.simulate_pair(config)
    directory.mkdir(parents=True, exist_ok=True)
    paths = [directory / "golden_host.csv", directory / "golden_parasite.csv"]
    pt.write_series_csv(host, paths[0])
    pt.write_series_csv(parasites[0], paths[1])
    parsed = [
        pt.parse_series_csv(p, role=r).parsed for p, r in zip(paths, ("host", "parasite"))
    ]
    report = pt.build_report(
        parsed[0],
        parsed[1:],
        source_files=[p.name for p in paths],
        options={"aggregator": "mean"},
    )
    (directory / "expected.json").write_bytes(pt.render_report(report, "json"))


# -------------------------------------------------------------- batch-report

BATCH_YEARS = 2000
BATCH_PARASITES = 5
BATCH_MISSING = 0.10
BATCH_DUPLICATES = 0.01


class BatchReport(Workload):
    """Parse six n=2000 CSVs, build both reports, render both as JSON."""

    name = "batch-report"

    def prepare(self):
        import numpy as np

        import parasitech as pt

        self.np, self.pt = np, pt
        rng = np.random.default_rng(self.seed)
        years = 1000.0 + np.arange(BATCH_YEARS)
        log_host = 0.5 + 0.002 * np.arange(BATCH_YEARS) + 0.05 * rng.standard_normal(
            BATCH_YEARS
        )
        columns = [log_host]
        for _ in range(BATCH_PARASITES):
            b = rng.uniform(0.6, 1.8)
            a = rng.uniform(-1.0, 1.0)
            columns.append(a + b * log_host + 0.05 * rng.standard_normal(BATCH_YEARS))

        self.files = []
        self.truth = []  # per file: year -> value the parser must keep
        for i, logs in enumerate(columns):
            role = "host" if i == 0 else "parasite"
            rows, truth = [], {}
            for t, v in zip(years.tolist(), np.exp(logs).tolist()):
                if rng.random() < BATCH_MISSING:
                    continue
                group = [v]
                if rng.random() < BATCH_DUPLICATES:
                    group.append(v * math.exp(0.01 * rng.standard_normal()))
                rows += [(t, x) for x in group]
                truth[t] = float(np.mean(group))
            bad = int(rng.integers(len(rows)))
            rows.insert(bad, (rows[bad][0], -float(rng.integers(0, 3))))
            path = self.workdir / (role + (f"{i}.csv" if i else ".csv"))
            text = "t,value\n" + "".join(f"{t!r},{v!r}\n" for t, v in rows)
            path.write_text(text, encoding="utf-8")
            self.files.append((path, role))
            self.truth.append(truth)
        self.expected = self._reference()
        self.first_bytes = None

    def op(self):
        pt = self.pt
        parsed = [pt.parse_series_csv(p, role=r).parsed for p, r in self.files]
        host, parasites = parsed[0], parsed[1:]
        pairwise = pt.build_report(host, parasites)
        multi = pt.build_report(host, parasites, multi=True)
        return (
            pairwise,
            multi,
            pt.render_report(pairwise, "json"),
            pt.render_report(multi, "json"),
        )

    def _reference(self):
        """B of each pairwise fit and the multi-fit coefficients, computed
        from the generated values with numpy alone."""
        np = self.np
        host = self.truth[0]
        pairwise = []
        for par in self.truth[1:]:
            years = sorted(host.keys() & par.keys())
            x = np.log([host[t] for t in years])
            y = np.log([par[t] for t in years])
            pairwise.append((len(years), float(np.polyfit(x, y, 1)[0])))
        target, *predictors = [self.truth[1], host, *self.truth[2:]]
        years = sorted(set(target).intersection(*predictors))
        design = np.column_stack(
            [np.ones(len(years))]
            + [np.log([p[t] for t in years]) for p in predictors]
        )
        coef = np.linalg.lstsq(design, np.log([target[t] for t in years]), rcond=None)[0]
        return pairwise, (len(years), coef.tolist())

    def check(self, out):
        pairwise, multi, json_pairwise, json_multi = out
        ref_pairs, (ref_n, ref_coef) = self.expected
        problems = []
        if len(pairwise.fits) != len(ref_pairs):
            problems.append(f"{len(pairwise.fits)} pairwise fits, expected {len(ref_pairs)}")
        for fit, (n, b) in zip(pairwise.fits, ref_pairs):
            if fit.n_paired != n or not rel_close(fit.b, b, 1e-9):
                problems.append(
                    f"{fit.parasite_name}: n={fit.n_paired} B={fit.b!r}, "
                    f"expected n={n} B={b!r}"
                )
        (mfit,) = multi.multi_fits
        coef = mfit.regression.coefficients
        if mfit.n_listwise != ref_n or len(coef) != len(ref_coef) or not all(
            rel_close(c, r, 1e-9) for c, r in zip(coef, ref_coef)
        ):
            problems.append(f"multi fit n={mfit.n_listwise} coefficients {coef!r}, "
                            f"expected n={ref_n} {ref_coef!r}")
        for label, data in (("pairwise", json_pairwise), ("multi", json_multi)):
            try:
                strict_json(data)
            except ValueError as err:
                problems.append(f"{label} JSON is not strict JSON: {err}")
        if self.first_bytes is None:
            self.first_bytes = (json_pairwise, json_multi)
        elif (json_pairwise, json_multi) != self.first_bytes:
            problems.append("JSON bytes differ from the first op's")
        return problems


# ------------------------------------------------------------------- recover

RECOVER_REPLICATES = 200
RECOVER_TRUE_B = 1.74


class Recover(Workload):
    """``monte_carlo_recovery`` of the paper's B=1.74 scenario, 200 replicates."""

    name = "recover"

    def prepare(self):
        import numpy as np

        import parasitech as pt

        self.np, self.pt = np, pt
        self.config = pt.SimConfig(
            host=pt.LogisticParams(k=100.0, a=6.0, b=0.05),
            parasites=(pt.LogisticParams(k=50.0, a=6.96, b=0.087),),
            t_start=0.0,
            t_end=43.0,
            n_points=44,
            noise_sigma=0.03,
            seed=self.seed,
        )
        self.first = None

    def op(self):
        return self.pt.monte_carlo_recovery(
            self.config, RECOVER_REPLICATES, early_phase_only=True
        )

    def check(self, summary):
        problems = []
        if summary.failures != 0:
            problems.append(f"{summary.failures} replicates failed")
        if len(summary.estimates) != RECOVER_REPLICATES - summary.failures:
            problems.append(f"{len(summary.estimates)} estimates")
        mean = float(self.np.mean(summary.estimates)) if summary.estimates else math.nan
        if not abs(mean - RECOVER_TRUE_B) <= 0.05:
            problems.append(f"mean estimate {mean!r} is not within 0.05 of 1.74")
        if self.first is None:
            self.first = summary
        elif summary != self.first:
            problems.append("summary differs from the first op's")
        return problems


# ----------------------------------------------------------- growth-forecast

GROWTH_POINTS = 44
GROWTH_SIGMA = 0.02
GROWTH_HORIZON = 50
# (K, b, inflection time) of the golden scenario's host and parasite laws
GROWTH_LAWS = ((100.0, 0.05, 120.0), (50.0, 0.087, 80.0))


class GrowthForecast(Workload):
    """Fit both logistic laws, derive the power law, forecast 50 years."""

    name = "growth-forecast"

    def prepare(self):
        import numpy as np

        import parasitech as pt

        self.np, self.pt = np, pt
        rng = np.random.default_rng(self.seed)
        # sampled across both inflections (t* = 80 and t* = 120)
        t = np.linspace(40.0, 160.0, GROWTH_POINTS)
        self.data = []
        self.series = []
        for (k, b, t_star), role in zip(GROWTH_LAWS, ("host", "parasite")):
            v = k / (1.0 + np.exp(-b * (t - t_star)))
            v = v * np.exp(GROWTH_SIGMA * rng.standard_normal(t.size))
            self.data.append((t, v))
            self.series.append(pt.TechSeries.from_columns(role, role, "fmt", t, v))
        self.horizon = t[-1] + np.arange(1.0, GROWTH_HORIZON + 1.0)
        self.first = None

    def op(self):
        pt = self.pt
        host, parasite = self.series
        fits = (pt.fit_logistic(host), pt.fit_logistic(parasite))
        law = pt.derive_power_law(fits[0].params, fits[1].params)
        forecasts = tuple(pt.forecast_series(f, self.horizon) for f in fits)
        return fits, law, forecasts

    def check(self, out):
        np = self.np
        fits, law, forecasts = out
        problems = []
        for fit, (t, v), fc in zip(fits, self.data, forecasts):
            k, b = fit.params.k, fit.params.b
            if not (k > v.max() and b > 0):
                problems.append(f"K={k!r} b={b!r} with max value {v.max()!r}")
                continue
            r = np.corrcoef(t, np.log((k - v) / v))[0, 1]
            if not rel_close(fit.r2_logit, float(r * r), 1e-9):
                problems.append(f"r2_logit {fit.r2_logit!r}, corrcoef^2 {r * r!r}")
            values = fc[:, 1]
            if fc.shape != (GROWTH_HORIZON, 2) or not (
                np.all(np.diff(values) >= 0) and np.all(values <= k)
            ):
                problems.append("forecast is not nondecreasing and bounded by K")
        if not rel_close(law.b, fits[1].params.b / fits[0].params.b, 1e-12):
            problems.append(f"power-law exponent {law.b!r} is not b2/b1")
        if self.first is None:
            self.first = out
        elif not (
            fits == self.first[0]
            and law == self.first[1]
            and all(np.array_equal(a, b) for a, b in zip(forecasts, self.first[2]))
        ):
            problems.append("result differs from the first op's")
        return problems


WORKLOADS = {w.name: w for w in (BatchReport, Recover, GrowthForecast)}
