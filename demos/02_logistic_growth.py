# Fitting a logistic growth law
# -----------------------------
# A technology's functional measure usually traces a symmetric S-curve:
#
#     value(t) = K / (1 + exp(a - b t)),
#
# with equilibrium K, growth rate b, and inflection at t* = a/b where the
# curve crosses K/2. The fit linearizes the curve: at the right K, the
# points (t, log((K - v)/v)) fall on a straight line with slope -b, so K is
# found by maximizing the straight-line R^2 in logit space.

import numpy as np

from parasitech import LogisticParams, fit_logistic, forecast_series, logistic_value
from parasitech.core import TechSeries

rng = np.random.default_rng(7)

true = LogisticParams(k=100.0, a=5.0, b=0.25)
years = np.linspace(1950, 1990, 24)
t = years - 1950
observed = logistic_value(true, t) * np.exp(rng.normal(0, 0.04, t.size))
series = TechSeries("widget-efficiency", "host", "index", t, observed)

report = fit_logistic(series)
p = report.params
print(f"true params:   K = {true.k:7.2f}  a = {true.a:5.2f}  b = {true.b:5.3f}")
print(f"fitted params: K = {p.k:7.2f}  a = {p.a:5.2f}  b = {p.b:5.3f}")
print(f"inflection at t* = {p.inflection_time:.1f} (true {true.inflection_time})")
print(f"logit-space R^2 = {report.r2_logit:.5f}")

# Extrapolate the fitted law past the sample.
horizon = np.arange(40.0, 81.0, 10.0)
print("\nforecast:")
for t_f, v in forecast_series(report, horizon):
    print(f"  t = {t_f:5.1f}   value = {v:6.2f}   truth = "
          f"{logistic_value(true, t_f):6.2f}")

# Data sampled far from saturation carry no information about K: the
# search then pins K against its upper bound and says so.
early = TechSeries(
    "early-phase", "host", "index", t[:10], logistic_value(true, t[:10])
)
early_fit = fit_logistic(early)
print(f"\nearly-phase-only fit: K = {early_fit.params.k:.1f} "
      f"(K at search bound: {early_fit.k_at_bound})")
