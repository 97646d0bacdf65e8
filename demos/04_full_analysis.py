# The full analysis pipeline
# --------------------------
# Align host and parasite series by observation year, estimate
# log P = log a + B log H by OLS, grade B on the evolution scale, and
# assemble the regression table, correlations, log-scale descriptives and
# standardized trajectories into one report.

import tempfile
from pathlib import Path

import numpy as np

from parasitech import TechSeries, build_report, emit_plot_data, render_report

rng = np.random.default_rng(42)

# Synthetic "mechanical efficiency" host and "engine efficiency" parasite:
# the parasite advances as H^1.7 with 5% lognormal measurement noise, and
# a few war years are missing from the parasite record.
years = np.arange(1920, 1964)
host_values = np.exp(rng.uniform(0.5, 3.0, years.size))
host = TechSeries(
    "mechanical-efficiency", "host", "ratio", years, host_values
)

keep = ~np.isin(years, [1942, 1943, 1944])
parasite_values = (
    0.006 * host_values[keep] ** 1.7 * np.exp(rng.normal(0, 0.05, keep.sum()))
)
parasite = TechSeries(
    "engine-efficiency", "parasite", "hp-hours", years[keep], parasite_values
)

report = build_report(
    host,
    [parasite],
    alpha=0.05,
    source_files=["mechanical-efficiency.csv", "engine-efficiency.csv"],
)

# The text rendering mirrors a regression table: constant and slope with
# standard errors and significance stars, adjusted R^2, overall F, then the
# classification and its forecast.
print(render_report(report, "text").decode("utf-8"))

fit = report.fits[0]
print(f"aligned years: {fit.n_paired} (missing war years dropped)")
print(f"B = {fit.b:.3f} -> grade {fit.classification.grade} "
      f"({fit.classification.mode})")

# Plot-ready CSVs: per-fit observed/fitted log pairs plus z-scored
# trajectories of every series.
out_dir = Path(tempfile.mkdtemp())
for path in emit_plot_data(report, out_dir / "demo"):
    print("wrote", path)
