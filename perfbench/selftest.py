"""Self-test of the benchmark: each workload's check accepts a real output and
rejects deliberately wrong ones, and the tracer's self times add up.

    PYTHONPATH=src python3 perfbench/selftest.py

Run from the checkout root; exits 1 if any case goes the wrong way.
"""

from __future__ import annotations

import dataclasses
import math
import os
import shutil
import sys

from tracer import Tracer, layer_metrics
from workloads import ROOT, WORKLOADS, strict_json

failures: list[str] = []


def expect(label: str, problems: list[str], because: str | None = None) -> None:
    """A right output (``because`` None) must pass; a wrong one must fail
    with a problem that mentions ``because``."""
    if because is None:
        ok = not problems
    else:
        ok = any(because in p for p in problems)
    if not ok:
        failures.append(f"{label}: {problems}")
    print(f"{'ok  ' if ok else 'FAIL'} {label}")


def replace_byte(data: bytes, old: bytes, new: bytes) -> bytes:
    i = data.index(old)
    return data[:i] + new + data[i + len(old):]


def check_batch_report(w):
    pairwise, multi, jp, jm = w.op()
    expect("batch-report: real output", w.check((pairwise, multi, jp, jm)))
    fit = pairwise.fits[0]
    bad_fit = dataclasses.replace(fit, b=fit.b * (1 + 1e-6))
    bad = dataclasses.replace(pairwise, fits=(bad_fit, *pairwise.fits[1:]))
    expect("batch-report: B perturbed by 1e-6", w.check((bad, multi, jp, jm)), "expected n=")
    mfit = multi.multi_fits[0]
    coef = list(mfit.regression.coefficients)
    coef[1] *= 1 + 1e-6
    bad_reg = dataclasses.replace(mfit.regression, coefficients=tuple(coef))
    bad_multi = dataclasses.replace(
        multi, multi_fits=(dataclasses.replace(mfit, regression=bad_reg),)
    )
    expect("batch-report: multi coefficient perturbed",
           w.check((pairwise, bad_multi, jp, jm)), "multi fit")
    expect("batch-report: one JSON byte changed",
           w.check((pairwise, multi, replace_byte(jp, b'"n": ', b'"n":  '), jm)),
           "bytes differ")
    nan_json = replace_byte(jm, b'"r2": ', b'"r2": NaN, "x": ')
    expect("batch-report: NaN in the JSON", w.check((pairwise, multi, jp, nan_json)),
           "not strict JSON")
    try:
        strict_json(b'{"r": NaN}')
        failures.append("strict_json accepted NaN")
    except ValueError:
        print("ok   strict_json rejects NaN")


def check_recover(w):
    summary = w.op()
    expect("recover: real output", w.check(summary))
    expect("recover: one failed replicate",
           w.check(dataclasses.replace(summary, failures=1, estimates=summary.estimates[1:])),
           "replicates failed")
    shifted = tuple(e + 0.1 for e in summary.estimates)
    expect("recover: estimates off by 0.1",
           w.check(dataclasses.replace(summary, estimates=shifted)), "within 0.05")
    expect("recover: summary changed between ops",
           w.check(dataclasses.replace(summary, rmse=summary.rmse * (1 + 1e-12))),
           "differs from the first")


def check_growth_forecast(w):
    fits, law, forecasts = w.op()
    expect("growth-forecast: real output", w.check((fits, law, forecasts)))
    host = fits[0]
    low_k = dataclasses.replace(
        host, params=dataclasses.replace(host.params, k=float(w.data[0][1].max()) * 0.99)
    )
    expect("growth-forecast: K below the largest value",
           w.check(((low_k, fits[1]), law, forecasts)), "with max value")
    off_r2 = dataclasses.replace(host, r2_logit=host.r2_logit * (1 - 1e-6))
    expect("growth-forecast: r2_logit perturbed",
           w.check(((off_r2, fits[1]), law, forecasts)), "corrcoef")
    dipped = forecasts[0].copy()
    dipped[-1, 1] = dipped[-2, 1] * 0.999
    expect("growth-forecast: forecast decreases",
           w.check((fits, law, (dipped, forecasts[1]))), "nondecreasing")
    bad_law = dataclasses.replace(law, b=law.b * (1 + 1e-9))
    expect("growth-forecast: power-law exponent perturbed",
           w.check((fits, bad_law, forecasts)), "b2/b1")


def check_tracer():
    import numpy as np

    import parasitech as pt

    t = np.arange(10.0)
    host = pt.TechSeries.from_columns("h", "host", "", t, np.exp(0.1 * t))
    par = pt.TechSeries.from_columns("p", "parasite", "", t, np.exp(0.2 * t + 0.01 * np.sin(t)))
    failed_before = len(failures)
    bound = lambda: (pt.statkit.betainc, pt.simulate.fit_evolution,  # noqa: E731
                     pt.core.TechSeries.__dict__["times"])
    before = bound()
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = bound()
        pt.build_report(host, [par])
    finally:
        tracer.uninstall()
    if any(a is b for a, b in zip(before, wrapped)):
        failures.append("install left a traced function unwrapped")
    if any(a is not b for a, b in zip(before, bound())):
        failures.append("uninstall left a wrapper in place")
    totals = tracer.totals()
    roots = sum(tracer._end[i] - tracer._start[i]
                for i in range(len(tracer._name)) if tracer._parent[i] < 0)
    self_total = sum(s for _, s in totals["spans"].values())
    if not math.isclose(self_total, roots, rel_tol=1e-9):
        failures.append(f"self times sum to {self_total}, root spans to {roots}")
    m = layer_metrics(totals, 1)
    # two coefficient p-values, the F test, the t-test of B against 1 and
    # the one off-diagonal correlation: 5 betainc calls
    counts = (m["evolution.build_report.calls"], m["statkit.betainc.calls"])
    if counts != (1, 5):
        failures.append(f"build_report and betainc calls {counts}, expected (1, 5)")
    if len(failures) == failed_before:
        print("ok   tracer: wraps, unwraps, self times add up to the root spans")


def main() -> int:
    workdir = ROOT / ".perfbench-run" / f"selftest-{os.getpid()}"
    try:
        for name, check in (
            ("batch-report", check_batch_report),
            ("recover", check_recover),
            ("growth-forecast", check_growth_forecast),
        ):
            w = WORKLOADS[name](42, workdir / name)
            (workdir / name).mkdir(parents=True)
            w.setup()
            check(w)
        check_tracer()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    for failure in failures:
        print("FAIL", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
