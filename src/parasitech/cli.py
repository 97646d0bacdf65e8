"""Command-line interface.

Exit codes: 0 success, 2 data/validation error, 3 fit failure, 4 usage
error. Every error path prints one machine-greppable line to stderr of the
form ``CODE: message`` with CODE in {DATA_ERROR, FIT_ERROR, USAGE_ERROR}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .core import ROLES, TechSeries, classify_point, classify_with_test
from .errors import FitFailureError, InvalidInputError, ParasitechError
from .evolution import build_report, correlation_matrix
from .io import (
    AGGREGATORS,
    REPORT_FORMATS,
    _classification_dict,
    _correlations_dict,
    _csv_text,
    _descriptive_dict,
    _json_text,
    _logistic_fit_dict,
    _num,
    _recovery_dict,
    _text_correlations,
    emit_plot_data,
    parse_series_csv,
    render_report,
    write_series_csv,
)
from .logistic import (
    LogisticParams,
    fit_logistic,
    forecast_series,
    k_search_bracket,
)
from .simulate import SimConfig, _check_integer, monte_carlo_recovery, simulate_pair
from .statkit import descriptive, zscore

EXIT_OK = 0
EXIT_DATA = 2
EXIT_FIT = 3
EXIT_USAGE = 4

SEED_ENV_VAR = "PARASITECH_SEED"
FORECAST_MAX_ROWS = 1_000_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems via exit code 4."""

    def __init__(self, **kwargs):
        kwargs.setdefault("formatter_class", argparse.ArgumentDefaultsHelpFormatter)
        super().__init__(**kwargs)

    def error(self, message):
        raise _UsageError(message)


def _seed(explicit: int | None) -> int:
    """The explicit seed, else ``$PARASITECH_SEED``, else 0."""
    if explicit is not None:
        return explicit
    raw = os.environ.get(SEED_ENV_VAR, "0")
    try:
        return int(raw)
    except ValueError:
        raise InvalidInputError(
            f"{SEED_ENV_VAR} must be an integer, got {raw!r}"
        ) from None


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="parasitech",
        description=(
            "Measure, classify, and forecast the coevolution of a parasitic "
            "technology subsystem relative to its host technology."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def cmd(name, help_text, func, formats=("text", "json"), **defaults):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func, **defaults)
        if formats:
            p.add_argument(
                "--format", choices=formats, default="text", help="output format"
            )
        return p

    def add_input(p, k_max_factor=False):
        p.add_argument("--input", required=True, help="series CSV (t,value)")
        if k_max_factor:
            p.add_argument(
                "--k-max-factor", type=float, default=10.0,
                help="search K up to this multiple of the largest observed value",
            )

    for name, help_text, parasite_help, plot_help in (
        (
            "evolve", "fit the log-log evolution model for host/parasite pairs",
            "parasite series CSV; repeat for several pairwise fits",
            "also write per-fit and trajectory CSVs under this path prefix",
        ),
        (
            "evolve-multi",
            "fit the first parasite on host plus the remaining parasites",
            "parasite CSV; first is the target, repeat for siblings",
            "also write trajectory CSVs under this path prefix",
        ),
    ):
        multi = name == "evolve-multi"
        p = cmd(name, help_text, _cmd_evolve, REPORT_FORMATS, multi=multi)
        p.add_argument("--host", required=True, help="host series CSV (t,value)")
        p.add_argument(
            "--parasite", required=True, action="append", help=parasite_help
        )
        if not multi:  # the multidimensional fit runs no test of B = 1
            p.add_argument(
                "--alpha", type=float, default=0.05, help="test level for B=1"
            )
        p.add_argument(
            "--aggregator", choices=sorted(AGGREGATORS), default="mean",
            help="collapse rule for duplicate years at ingestion",
        )
        p.add_argument("--plot-data", metavar="PREFIX", default=None, help=plot_help)

    p = cmd(
        "fit-logistic", "fit a logistic growth law to one series", _cmd_fit_logistic
    )
    add_input(p, k_max_factor=True)

    p = cmd("forecast", "fit a logistic law and extrapolate it", _cmd_forecast, ())
    add_input(p, k_max_factor=True)
    p.add_argument("--to", type=float, required=True, help="last time to forecast")
    p.add_argument("--step", type=float, default=1.0, help="grid step")

    p = cmd(
        "correlate", "pairwise-deletion correlation matrix over log values",
        _cmd_correlate,
    )
    p.add_argument(
        "--series", required=True, action="append",
        help="series CSV; repeat (at least twice)",
    )

    p = cmd("classify", "grade an evolutionary coefficient on the scale", _cmd_classify)
    p.add_argument("--b", type=float, required=True, help="estimated coefficient")
    p.add_argument("--se", type=float, default=None, help="standard error of B")
    p.add_argument("--n", type=int, default=None, help="sample size behind B")
    p.add_argument("--alpha", type=float, default=0.05, help="test level")

    p = cmd(
        "simulate", "generate a coupled host/parasite pair as CSV files",
        _cmd_simulate, (),
    )
    for flag, help_text in (
        ("--k1", "host equilibrium K1"),
        ("--b1", "host growth rate b1"),
        ("--t1", "host inflection time"),
        ("--k2", "parasite equilibrium K2"),
        ("--b2", "parasite growth rate b2"),
        ("--t2", "parasite inflection time"),
        ("--t-start", "first grid time"),
        ("--t-end", "last grid time"),
    ):
        p.add_argument(flag, type=float, required=True, help=help_text)
    p.add_argument("--n", type=int, required=True, help="number of grid points")
    p.add_argument("--noise", type=float, default=0.0, help="lognormal sigma")
    p.add_argument("--missing", type=float, default=0.0, help="dropout probability")
    p.add_argument(
        "--seed", type=int, default=None,
        help=f"RNG seed (default: ${SEED_ENV_VAR} or 0)",
    )
    p.add_argument(
        "--out-prefix", required=True,
        help="write <prefix>_host.csv and <prefix>_parasite.csv",
    )

    p = cmd(
        "recover", "Monte Carlo recovery of the evolutionary coefficient",
        _cmd_recover,
    )
    p.add_argument("--config", required=True, help="scenario JSON file")
    p.add_argument("--replicates", type=int, required=True, help="replicate count")
    p.add_argument(
        "--early-phase", action="store_true",
        help="restrict fits to the early-phase window (values below 10%% of K)",
    )

    p = cmd("stats", "descriptive statistics of one series", _cmd_stats)
    add_input(p)
    p.add_argument("--log", action="store_true", help="compute on natural-log values")

    p = cmd(
        "standardize", "z-score one series (CSV t,z to stdout)", _cmd_standardize, ()
    )
    add_input(p)
    return parser


def _load(paths, aggregator: str = "mean", host: bool = False) -> list[TechSeries]:
    """Parse each series file (the first as the host when ``host``); warnings
    print only once every file has parsed, so a bad file prints just its error."""
    files = [
        parse_series_csv(
            path,
            role="host" if host and i == 0 else "parasite",
            aggregator=aggregator,
        )
        for i, path in enumerate(paths)
    ]
    for sf in files:
        for w in sf.warnings:
            print(f"WARNING: {sf.path}: {w}", file=sys.stderr)
    return [sf.parsed for sf in files]


def _cmd_evolve(args) -> int:
    paths = [args.host, *args.parasite]
    host, *parasites = _load(paths, args.aggregator, host=True)
    if args.multi and len(parasites) < 2:
        raise InvalidInputError(
            "evolve-multi needs a target parasite plus at least one sibling "
            "(pass --parasite at least twice)"
        )
    report = build_report(
        host,
        parasites,
        multi=args.multi,
        **({} if args.multi else {"alpha": args.alpha}),
        source_files=[Path(p).name for p in paths],
        options={"aggregator": args.aggregator},
    )
    sys.stdout.write(render_report(report, args.format).decode("utf-8"))
    if args.plot_data:
        for path in emit_plot_data(report, args.plot_data):
            print(f"wrote {path}", file=sys.stderr)
    return EXIT_OK


def _cmd_fit_logistic(args) -> int:
    (series,) = _load([args.input])
    fit = fit_logistic(series, k_max_factor=args.k_max_factor)
    p = fit.params
    if args.format == "json":
        print(_json_text(_logistic_fit_dict(series.name, fit)))
    else:
        print(f"series:          {series.name}")
        print(f"K (equilibrium): {_num(p.k)}")
        print(f"a (constant):    {_num(p.a)}")
        print(f"b (growth rate): {_num(p.b)}")
        print(f"inflection t*:   {_num(p.inflection_time)}")
        print(f"R2 (logit fit):  {_num(fit.r2_logit)}")
        print(f"K at bound:      {fit.k_at_bound}")
    _warn_k_bound(series, fit, args.k_max_factor)
    return EXIT_OK


def _warn_k_bound(series: TechSeries, fit, k_max_factor: float) -> None:
    """A stderr warning when the K search ended on either end of its bracket."""
    lo, hi = k_search_bracket(series, k_max_factor)
    if fit.k_at_bound and fit.params.k - lo > hi - fit.params.k:
        print(
            "WARNING: K pinned near the upper search bound; the data show no "
            "saturation (consider a larger --k-max-factor)",
            file=sys.stderr,
        )
    elif fit.k_at_bound:
        print(
            "WARNING: K pinned at the lower search bound, just above the "
            "largest observed value; the logit fit does not locate the "
            "equilibrium",
            file=sys.stderr,
        )


def _cmd_forecast(args) -> int:
    (series,) = _load([args.input])
    for flag, value in (("--to", args.to), ("--step", args.step)):
        if not math.isfinite(value):
            raise InvalidInputError(f"{flag} must be finite, got {value}")
    if args.step <= 0:
        raise InvalidInputError(f"--step must be positive, got {args.step}")
    fit = fit_logistic(series, k_max_factor=args.k_max_factor)
    t_last = float(series.times[-1])
    if args.to < t_last:
        raise InvalidInputError(
            f"--to {args.to} precedes the last observed time {t_last}"
        )
    stop = args.to + args.step / 2.0
    # np.arange's row count, checked before anything is allocated
    if (stop - t_last) / args.step > FORECAST_MAX_ROWS:
        raise InvalidInputError(
            f"--to {args.to} with --step {args.step} asks for more than "
            f"{FORECAST_MAX_ROWS} forecast rows"
        )
    rows = forecast_series(fit, np.arange(t_last, stop, args.step))
    p = fit.params
    print(f"# logistic fit: K={_num(p.k)}, a={_num(p.a)}, b={_num(p.b)}")
    sys.stdout.write(_csv_text("t,value", *rows.T))
    _warn_k_bound(series, fit, args.k_max_factor)
    return EXIT_OK


def _cmd_correlate(args) -> int:
    if len(args.series) < 2:
        raise InvalidInputError("correlate needs at least two --series files")
    corr = correlation_matrix(_load(args.series))
    if args.format == "json":
        print(_json_text(_correlations_dict(corr)))
    else:
        print("\n".join(_text_correlations(corr)))
    return EXIT_OK


def _cmd_classify(args) -> int:
    if (args.se is None) != (args.n is None):
        raise InvalidInputError("--se and --n must be given together")
    if args.se is not None:
        cls = classify_with_test(args.b, args.se, args.n, alpha=args.alpha)
    else:
        cls = classify_point(args.b)
    if args.format == "json":
        print(_json_text(_classification_dict(cls)))
    else:
        print(f"B = {_num(cls.b_estimate)}")
        print(
            f"grade {cls.grade} | mode: {cls.mode} | "
            f"evolution: {cls.evolution_label} | symbol: {cls.symbol}"
        )
        if cls.test is not None:
            print(
                f"test of B=1: t={cls.test.t_stat:.4f}, df={cls.test.df}, "
                f"p={cls.test.p_value:.4g} (alpha={cls.test.alpha})"
            )
        print(f"prediction: {cls.prediction}")
        for w in cls.warnings:
            print(f"WARNING: {w}", file=sys.stderr)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    config = SimConfig(
        host=LogisticParams(k=args.k1, a=args.b1 * args.t1, b=args.b1),
        parasites=(LogisticParams(k=args.k2, a=args.b2 * args.t2, b=args.b2),),
        t_start=args.t_start,
        t_end=args.t_end,
        n_points=args.n,
        noise_sigma=args.noise,
        missing_prob=args.missing,
        seed=_seed(args.seed),
    )
    host_series, parasites = simulate_pair(config)
    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    paths = [prefix.with_name(f"{prefix.name}_{role}.csv") for role in ROLES]
    for series, path in zip((host_series, parasites[0]), paths):
        write_series_csv(series, path)
    print(*paths, sep="\n")
    return EXIT_OK


def _parse_logistic_json(obj, label: str) -> LogisticParams:
    if not isinstance(obj, dict):
        raise InvalidInputError(f"{label}: must be a JSON object, got {obj!r}")
    if "a" in obj and "t_star" in obj:
        raise InvalidInputError(f"{label}: give either 'a' or 't_star', not both")
    try:
        k = float(obj["k"])
        b = float(obj["b"])
        a = float(obj["a"]) if "a" in obj else b * float(obj["t_star"])
    except KeyError as missing:
        raise InvalidInputError(f"{label}: missing key {missing}") from None
    return LogisticParams(k=k, a=a, b=b)


def _cmd_recover(args) -> int:
    try:
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise InvalidInputError(f"{args.config}: invalid JSON ({err})") from None
    if not isinstance(raw, dict):
        raise InvalidInputError(f"{args.config}: config must be a JSON object")
    try:
        config = SimConfig(
            host=_parse_logistic_json(raw["host"], "host"),
            parasites=tuple(
                _parse_logistic_json(p, f"parasites[{i}]")
                for i, p in enumerate(raw["parasites"])
            ),
            t_start=float(raw["t_start"]),
            t_end=float(raw["t_end"]),
            n_points=raw["n_points"],
            noise_sigma=float(raw.get("noise_sigma", 0.0)),
            missing_prob=float(raw.get("missing_prob", 0.0)),
            seed=_check_integer(_seed(raw.get("seed")), "seed"),
        )
    except KeyError as missing:
        raise InvalidInputError(f"{args.config}: missing key {missing}") from None
    except (TypeError, ValueError) as err:
        raise InvalidInputError(f"{args.config}: {err}") from None
    summary = monte_carlo_recovery(
        config, args.replicates, early_phase_only=args.early_phase
    )
    if args.format == "json":
        print(_json_text(_recovery_dict(summary)))
    else:
        print(f"replicates:   {summary.replicates} ({summary.failures} failed)")
        print(f"true B:       {_num(summary.true_b)}")
        print(f"mean estimate:{_num(float(np.mean(summary.estimates)))}")
        print(f"bias:         {_num(summary.bias)}")
        print(f"rmse:         {_num(summary.rmse)}")
        cov = summary.coverage_95
        if np.isfinite(cov):
            print(f"95% coverage: {cov:.3f}")
        else:
            print("95% coverage: degenerate (all fits perfect)")
        if summary.perfect_fits:
            print(f"perfect fits: {summary.perfect_fits}")
    return EXIT_OK


def _cmd_stats(args) -> int:
    (series,) = _load([args.input])
    d = descriptive(series.log_values() if args.log else series.values)
    scale = "log" if args.log else "raw"
    if args.format == "json":
        payload = {"series": series.name, "scale": scale, **_descriptive_dict(d)}
        print(_json_text(payload))
    else:
        print(f"series:   {series.name} ({scale} scale)")
        print(f"n:        {d.n}")
        print(f"mean:     {_num(d.mean)}")
        print(f"sd:       {_num(d.sd)}")
        print(f"skewness: {'undefined' if d.skewness is None else _num(d.skewness)}")
        print(f"kurtosis: {'undefined' if d.kurtosis is None else _num(d.kurtosis)}")
    return EXIT_OK


def _cmd_standardize(args) -> int:
    (series,) = _load([args.input])
    sys.stdout.write(_csv_text("t,z", series.times, zscore(series.values)))
    return EXIT_OK


def run(argv=None) -> int:
    """Parse argv, dispatch, and return the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("a command is required (see --help)")
        return args.func(args)
    except _UsageError as err:
        print(f"USAGE_ERROR: {err}", file=sys.stderr)
        return EXIT_USAGE
    except FitFailureError as err:
        print(f"FIT_ERROR: {err}", file=sys.stderr)
        return EXIT_FIT
    except (ParasitechError, OSError) as err:
        print(f"DATA_ERROR: {err}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
