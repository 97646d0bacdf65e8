"""Command-line interface.

Exit codes: 0 success, 2 data/validation error, 3 fit failure, 4 usage
error. Every error path prints one machine-greppable line to stderr of the
form ``CODE: message`` with CODE in {DATA_ERROR, FIT_ERROR, USAGE_ERROR}.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .core import classify_point, classify_with_test
from .errors import DataError, FitFailureError, InvalidInputError, ParasitechError
from .evolution import build_report, correlation_matrix
from .io import (
    AGGREGATORS,
    _correlations_dict,
    emit_plot_data,
    parse_series_csv,
    render_report,
    write_series_csv,
)
from .logistic import LogisticParams, fit_logistic, forecast_series
from .simulate import SimConfig, monte_carlo_recovery, simulate_pair
from .statkit import descriptive, zscore

EXIT_OK = 0
EXIT_DATA = 2
EXIT_FIT = 3
EXIT_USAGE = 4

SEED_ENV_VAR = "PARASITECH_SEED"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems via exit code 4."""

    def error(self, message):
        raise _UsageError(message)


def _env_seed() -> int | None:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise InvalidInputError(
            f"{SEED_ENV_VAR} must be an integer, got {raw!r}"
        ) from None


def _num(x: float) -> str:
    return repr(float(x))


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="parasitech",
        description=(
            "Measure, classify, and forecast the coevolution of a parasitic "
            "technology subsystem relative to its host technology."
        ),
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def cmd(name: str, help_text: str) -> argparse.ArgumentParser:
        return sub.add_parser(
            name,
            help=help_text,
            formatter_class=argparse.ArgumentDefaultsHelpFormatter,
        )

    p = cmd("evolve", "fit the log-log evolution model for host/parasite pairs")
    p.add_argument("--host", required=True, help="host series CSV (t,value)")
    p.add_argument(
        "--parasite",
        required=True,
        action="append",
        help="parasite series CSV; repeat for several pairwise fits",
    )
    p.add_argument("--alpha", type=float, default=0.05, help="test level for B=1")
    p.add_argument(
        "--aggregator",
        choices=sorted(AGGREGATORS),
        default="mean",
        help="collapse rule for duplicate years at ingestion",
    )
    p.add_argument(
        "--format", choices=["text", "json", "csv"], default="text",
        help="report format",
    )
    p.add_argument(
        "--plot-data", metavar="PREFIX", default=None,
        help="also write per-fit and trajectory CSVs under this path prefix",
    )

    p = cmd(
        "evolve-multi",
        "fit the first parasite on host plus the remaining parasites",
    )
    p.add_argument("--host", required=True, help="host series CSV (t,value)")
    p.add_argument(
        "--parasite",
        required=True,
        action="append",
        help="parasite CSV; first is the target, repeat for siblings",
    )
    p.add_argument("--alpha", type=float, default=0.05, help="test level")
    p.add_argument(
        "--aggregator", choices=sorted(AGGREGATORS), default="mean",
        help="collapse rule for duplicate years at ingestion",
    )
    p.add_argument(
        "--format", choices=["text", "json", "csv"], default="text",
        help="report format",
    )
    p.add_argument(
        "--plot-data", metavar="PREFIX", default=None,
        help="also write trajectory CSVs under this path prefix",
    )

    p = cmd("fit-logistic", "fit a logistic growth law to one series")
    p.add_argument("--input", required=True, help="series CSV (t,value)")
    p.add_argument(
        "--k-max-factor", type=float, default=10.0,
        help="search K up to this multiple of the largest observed value",
    )
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = cmd("forecast", "fit a logistic law and extrapolate it")
    p.add_argument("--input", required=True, help="series CSV (t,value)")
    p.add_argument("--to", type=float, required=True, help="last time to forecast")
    p.add_argument("--step", type=float, default=1.0, help="grid step")
    p.add_argument(
        "--k-max-factor", type=float, default=10.0,
        help="search K up to this multiple of the largest observed value",
    )

    p = cmd("correlate", "pairwise-deletion correlation matrix over log values")
    p.add_argument(
        "--series", required=True, action="append",
        help="series CSV; repeat (at least twice)",
    )
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = cmd("classify", "grade an evolutionary coefficient on the scale")
    p.add_argument("--b", type=float, required=True, help="estimated coefficient")
    p.add_argument("--se", type=float, default=None, help="standard error of B")
    p.add_argument("--n", type=int, default=None, help="sample size behind B")
    p.add_argument("--alpha", type=float, default=0.05, help="test level")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = cmd("simulate", "generate a coupled host/parasite pair as CSV files")
    p.add_argument("--k1", type=float, required=True, help="host equilibrium K1")
    p.add_argument("--b1", type=float, required=True, help="host growth rate b1")
    p.add_argument("--t1", type=float, required=True, help="host inflection time")
    p.add_argument("--k2", type=float, required=True, help="parasite equilibrium K2")
    p.add_argument("--b2", type=float, required=True, help="parasite growth rate b2")
    p.add_argument("--t2", type=float, required=True, help="parasite inflection time")
    p.add_argument("--t-start", type=float, required=True, help="first grid time")
    p.add_argument("--t-end", type=float, required=True, help="last grid time")
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

    p = cmd("recover", "Monte Carlo recovery of the evolutionary coefficient")
    p.add_argument("--config", required=True, help="scenario JSON file")
    p.add_argument("--replicates", type=int, required=True, help="replicate count")
    p.add_argument(
        "--early-phase", action="store_true",
        help="restrict fits to the early-phase window (values below 10%% of K)",
    )
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = cmd("stats", "descriptive statistics of one series")
    p.add_argument("--input", required=True, help="series CSV (t,value)")
    p.add_argument(
        "--log", action="store_true", help="compute on natural-log values"
    )
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = cmd("standardize", "z-score one series (CSV t,z to stdout)")
    p.add_argument("--input", required=True, help="series CSV (t,value)")

    return parser


def _print_warnings(series_files) -> None:
    for sf in series_files:
        for w in sf.warnings:
            print(f"WARNING: {sf.path}: {w}", file=sys.stderr)


def _load(path: str, role: str, aggregator: str = "mean"):
    sf = parse_series_csv(path, role=role, aggregator=aggregator)
    return sf


def _cmd_evolve(args, multi: bool) -> int:
    host_file = _load(args.host, "host", args.aggregator)
    parasite_files = [_load(p, "parasite", args.aggregator) for p in args.parasite]
    _print_warnings([host_file, *parasite_files])
    if multi and len(parasite_files) < 2:
        raise InvalidInputError(
            "evolve-multi needs a target parasite plus at least one sibling "
            "(pass --parasite at least twice)"
        )
    report = build_report(
        host_file.parsed,
        [pf.parsed for pf in parasite_files],
        multi=multi,
        alpha=args.alpha,
        source_files=[Path(args.host).name]
        + [Path(p).name for p in args.parasite],
        options={"aggregator": args.aggregator},
    )
    sys.stdout.write(render_report(report, args.format).decode("utf-8"))
    if args.plot_data:
        for path in emit_plot_data(report, args.plot_data):
            print(f"wrote {path}", file=sys.stderr)
    return EXIT_OK


def _cmd_fit_logistic(args) -> int:
    sf = _load(args.input, "parasite")
    _print_warnings([sf])
    fit = fit_logistic(sf.parsed, k_max_factor=args.k_max_factor)
    p = fit.params
    if args.format == "json":
        payload = {
            "series": sf.parsed.name,
            "k": p.k,
            "a": p.a,
            "b": p.b,
            "inflection_time": p.inflection_time,
            "r2_logit": fit.r2_logit,
            "k_at_bound": fit.k_at_bound,
            "n": fit.n,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"series:          {sf.parsed.name}")
        print(f"K (equilibrium): {_num(p.k)}")
        print(f"a (constant):    {_num(p.a)}")
        print(f"b (growth rate): {_num(p.b)}")
        print(f"inflection t*:   {_num(p.inflection_time)}")
        print(f"R2 (logit fit):  {_num(fit.r2_logit)}")
        print(f"K at bound:      {fit.k_at_bound}")
        if fit.k_at_bound:
            print(
                "WARNING: K pinned near the search bound; the data show no "
                "saturation (consider a larger --k-max-factor)",
                file=sys.stderr,
            )
    return EXIT_OK


def _cmd_forecast(args) -> int:
    sf = _load(args.input, "parasite")
    _print_warnings([sf])
    if args.step <= 0:
        raise InvalidInputError(f"--step must be positive, got {args.step}")
    fit = fit_logistic(sf.parsed, k_max_factor=args.k_max_factor)
    t_last = float(sf.parsed.times[-1])
    if args.to < t_last:
        raise InvalidInputError(
            f"--to {args.to} precedes the last observed time {t_last}"
        )
    horizon = np.arange(t_last, args.to + args.step / 2.0, args.step)
    rows = forecast_series(fit, horizon)
    p = fit.params
    print(f"# logistic fit: K={_num(p.k)}, a={_num(p.a)}, b={_num(p.b)}")
    print("t,value")
    for t, v in rows:
        print(f"{_num(t)},{_num(v)}")
    return EXIT_OK


def _cmd_correlate(args) -> int:
    if len(args.series) < 2:
        raise InvalidInputError("correlate needs at least two --series files")
    files = [_load(p, "parasite") for p in args.series]
    _print_warnings(files)
    corr = correlation_matrix([f.parsed for f in files])
    if args.format == "json":
        print(json.dumps(_correlations_dict(corr), indent=2, allow_nan=False))
    else:
        width = max(14, max(len(n) for n in corr.names) + 1)
        print(" " * width + "".join(f"{n:>{width}}" for n in corr.names))
        for i, name in enumerate(corr.names):
            row = f"{name:>{width}}"
            for e in corr.entries[i]:
                cell = f"{e.r:.3f}(n={e.n})" if e.defined else f"undef(n={e.n})"
                row += f"{cell:>{width}}"
            print(row)
    return EXIT_OK


def _cmd_classify(args) -> int:
    if (args.se is None) != (args.n is None):
        raise InvalidInputError("--se and --n must be given together")
    if args.se is not None:
        cls = classify_with_test(args.b, args.se, args.n, alpha=args.alpha)
    else:
        cls = classify_point(args.b)
    if args.format == "json":
        payload = {
            "b": cls.b_estimate,
            "grade": cls.grade,
            "mode": cls.mode,
            "evolution": cls.evolution_label,
            "symbol": cls.symbol,
            "prediction": cls.prediction,
            "test": None
            if cls.test is None
            else {
                "t_stat": cls.test.t_stat,
                "p_value": cls.test.p_value,
                "alpha": cls.test.alpha,
                "df": cls.test.df,
            },
            "warnings": list(cls.warnings),
        }
        print(json.dumps(payload, indent=2))
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
    seed = args.seed
    if seed is None:
        seed = _env_seed()
    if seed is None:
        seed = 0
    host = LogisticParams(k=args.k1, a=args.b1 * args.t1, b=args.b1)
    parasite = LogisticParams(k=args.k2, a=args.b2 * args.t2, b=args.b2)
    config = SimConfig(
        host=host,
        parasites=(parasite,),
        t_start=args.t_start,
        t_end=args.t_end,
        n_points=args.n,
        noise_sigma=args.noise,
        missing_prob=args.missing,
        seed=seed,
    )
    host_series, parasites = simulate_pair(config)
    prefix = Path(args.out_prefix)
    if str(prefix.parent) not in ("", ".") and not prefix.parent.exists():
        prefix.parent.mkdir(parents=True, exist_ok=True)
    host_path = prefix.with_name(prefix.name + "_host.csv")
    parasite_path = prefix.with_name(prefix.name + "_parasite.csv")
    write_series_csv(host_series, host_path)
    write_series_csv(parasites[0], parasite_path)
    print(host_path)
    print(parasite_path)
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


def _json_int(value, label: str) -> int:
    """An integer config field; a fractional number is an error, not truncated."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, int):
        raise InvalidInputError(f"{label} must be an integer, got {value!r}")
    return value


def _cmd_recover(args) -> int:
    try:
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise InvalidInputError(f"{args.config}: invalid JSON ({err})") from None
    if not isinstance(raw, dict):
        raise InvalidInputError(f"{args.config}: config must be a JSON object")
    try:
        seed = raw.get("seed")
        if seed is None:
            seed = _env_seed() or 0
        config = SimConfig(
            host=_parse_logistic_json(raw["host"], "host"),
            parasites=tuple(
                _parse_logistic_json(p, f"parasites[{i}]")
                for i, p in enumerate(raw["parasites"])
            ),
            t_start=float(raw["t_start"]),
            t_end=float(raw["t_end"]),
            n_points=_json_int(raw["n_points"], "n_points"),
            noise_sigma=float(raw.get("noise_sigma", 0.0)),
            missing_prob=float(raw.get("missing_prob", 0.0)),
            seed=_json_int(seed, "seed"),
        )
    except KeyError as missing:
        raise InvalidInputError(f"{args.config}: missing key {missing}") from None
    except (TypeError, ValueError) as err:
        raise InvalidInputError(f"{args.config}: {err}") from None
    summary = monte_carlo_recovery(
        config, args.replicates, early_phase_only=args.early_phase
    )
    if args.format == "json":
        payload = {
            "replicates": summary.replicates,
            "true_b": summary.true_b,
            "bias": summary.bias,
            "rmse": summary.rmse,
            "coverage_95": None
            if not np.isfinite(summary.coverage_95)
            else summary.coverage_95,
            "failures": summary.failures,
            "perfect_fits": summary.perfect_fits,
            "estimates": list(summary.estimates),
        }
        print(json.dumps(payload, indent=2))
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
    sf = _load(args.input, "parasite")
    _print_warnings([sf])
    values = sf.parsed.log_values() if args.log else sf.parsed.values
    d = descriptive(values)
    scale = "log" if args.log else "raw"
    if args.format == "json":
        payload = {
            "series": sf.parsed.name,
            "scale": scale,
            "n": d.n,
            "mean": d.mean,
            "sd": d.sd,
            "skewness": d.skewness,
            "kurtosis": d.kurtosis,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"series:   {sf.parsed.name} ({scale} scale)")
        print(f"n:        {d.n}")
        print(f"mean:     {_num(d.mean)}")
        print(f"sd:       {_num(d.sd)}")
        print(f"skewness: {'undefined' if d.skewness is None else _num(d.skewness)}")
        print(f"kurtosis: {'undefined' if d.kurtosis is None else _num(d.kurtosis)}")
    return EXIT_OK


def _cmd_standardize(args) -> int:
    sf = _load(args.input, "parasite")
    _print_warnings([sf])
    z = zscore(sf.parsed.values)
    print("t,z")
    for t, zv in zip(sf.parsed.times, z):
        print(f"{_num(t)},{_num(zv)}")
    return EXIT_OK


def run(argv=None) -> int:
    """Parse argv, dispatch, and return the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("a command is required (see --help)")
        if args.command == "evolve":
            return _cmd_evolve(args, multi=False)
        if args.command == "evolve-multi":
            return _cmd_evolve(args, multi=True)
        if args.command == "fit-logistic":
            return _cmd_fit_logistic(args)
        if args.command == "forecast":
            return _cmd_forecast(args)
        if args.command == "correlate":
            return _cmd_correlate(args)
        if args.command == "classify":
            return _cmd_classify(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "recover":
            return _cmd_recover(args)
        if args.command == "stats":
            return _cmd_stats(args)
        if args.command == "standardize":
            return _cmd_standardize(args)
        raise _UsageError(f"unknown command {args.command!r}")
    except _UsageError as err:
        print(f"USAGE_ERROR: {err}", file=sys.stderr)
        return EXIT_USAGE
    except FitFailureError as err:
        print(f"FIT_ERROR: {err}", file=sys.stderr)
        return EXIT_FIT
    except (DataError, OSError) as err:
        print(f"DATA_ERROR: {err}", file=sys.stderr)
        return EXIT_DATA
    except ParasitechError as err:
        print(f"DATA_ERROR: {err}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
