import contextlib
import io
import json
import math
import statistics
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parasitech.cli import EXIT_DATA, EXIT_FIT, EXIT_OK, EXIT_USAGE, run


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_series(tmp_path, name, times, values):
    path = tmp_path / name
    lines = ["t,value"] + [
        f"{float(t)!r},{float(v)!r}" for t, v in zip(times, values)
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def strict_json(text):
    """Decode JSON, rejecting the NaN and Infinity tokens JSON does not have."""

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def copies_with_one_stem(tmp_path, paths):
    """Copy each file to its own directory as x.csv: one stem, many files."""
    copies = []
    for i, path in enumerate(paths):
        copy = tmp_path / f"dir{i}" / "x.csv"
        copy.parent.mkdir()
        copy.write_bytes(path.read_bytes())
        copies.append(copy)
    return copies


RECOVER_CONFIG = {
    "host": {"k": 100.0, "t_star": 120.0, "b": 0.05},
    "parasites": [{"k": 50.0, "t_star": 80.0, "b": 0.087}],
    "t_start": 0.0,
    "t_end": 43.0,
    "n_points": 44,
    "noise_sigma": 0.03,
    "missing_prob": 0.0,
    "seed": 5,
}


@pytest.fixture
def pair(tmp_path, rng):
    t = np.arange(1950, 1994)
    h = np.exp(rng.uniform(0.5, 3.0, t.size))
    p = 2.0 * h**1.5 * np.exp(rng.normal(0, 0.05, t.size))
    host = write_series(tmp_path, "host.csv", t, h)
    parasite = write_series(tmp_path, "parasite.csv", t, p)
    return host, parasite


class TestClassifyCommand:
    def test_with_test_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--b", "1.74", "--se", "0.11", "--n", "44"
        )
        assert code == EXIT_OK
        assert "grade 3" in out
        assert "symbiosis" in out
        assert "!" in out
        assert "evolve rapidly" in out

    def test_point_mode(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--b", "0.23")
        assert code == EXIT_OK
        assert "grade 1" in out
        assert "parasitism" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--b", "1.19", "--format", "json"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["grade"] == 3
        assert payload["symbol"] == "!"

    def test_bad_float_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--b", "abc")
        assert code == EXIT_USAGE
        assert err.startswith("USAGE_ERROR:")

    def test_se_without_n(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--b", "1.2", "--se", "0.1")
        assert code == EXIT_DATA
        assert err.startswith("DATA_ERROR:")

    def test_invalid_se_value(self, capsys):
        code, _, err = run_cli(
            capsys, "classify", "--b", "1.2", "--se", "-0.1", "--n", "10"
        )
        assert code == EXIT_DATA


class TestUsageErrors:
    def test_no_command(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == EXIT_USAGE
        assert "USAGE_ERROR:" in err

    def test_unknown_command(self, capsys):
        code, _, err = run_cli(capsys, "explode")
        assert code == EXIT_USAGE

    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--b", "1.0", "--frobnicate")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "command",
        [
            "evolve",
            "evolve-multi",
            "fit-logistic",
            "forecast",
            "correlate",
            "classify",
            "simulate",
            "recover",
            "stats",
            "standardize",
        ],
    )
    def test_help_lists_flags_with_defaults(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            run([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--help" in out
        assert "default" in out or "required" in out


class TestEvolveCommand:
    def test_text_report(self, capsys, pair):
        host, parasite = pair
        code, out, _ = run_cli(
            capsys, "evolve", "--host", str(host), "--parasite", str(parasite)
        )
        assert code == EXIT_OK
        assert "Evolutionary coefficient B" in out
        assert "grade 3" in out

    def test_json_deterministic(self, capsys, pair):
        host, parasite = pair
        args = (
            "evolve", "--host", str(host), "--parasite", str(parasite),
            "--format", "json",
        )
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["meta"]["inputs"] == ["host.csv", "parasite.csv"]
        assert abs(payload["fits"][0]["b"] - 1.5) < 0.02

    def test_plot_data(self, capsys, pair, tmp_path):
        host, parasite = pair
        prefix = tmp_path / "plots" / "run"
        code, _, err = run_cli(
            capsys,
            "evolve", "--host", str(host), "--parasite", str(parasite),
            "--plot-data", str(prefix),
        )
        assert code == EXIT_OK
        assert (tmp_path / "plots" / "run_fit1_parasite.csv").exists()
        assert (tmp_path / "plots" / "run_trajectories.csv").exists()

    @pytest.mark.parametrize("alpha", ["7", "nan"])
    def test_alpha_out_of_range_is_data_error_on_a_perfect_fit(
        self, capsys, pair, alpha
    ):
        host, _ = pair
        code, out, err = run_cli(
            capsys,
            "evolve", "--host", str(host), "--parasite", str(host),
            "--alpha", alpha,
        )
        assert code == EXIT_DATA
        assert out == ""
        assert err.startswith("DATA_ERROR: alpha must lie in (0, 1)")
        assert err.count("\n") == 1

    def test_missing_file_is_data_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "evolve", "--host", str(tmp_path / "nope.csv"),
            "--parasite", str(tmp_path / "nope2.csv"),
        )
        assert code == EXIT_DATA
        assert err.startswith("DATA_ERROR:")

    def test_no_overlap_is_data_error(self, capsys, tmp_path):
        h = write_series(tmp_path, "h.csv", [1, 2, 3, 4], [1.0, 2.0, 3.0, 4.0])
        p = write_series(tmp_path, "p.csv", [7, 8, 9, 10], [1.0, 2.0, 3.0, 4.0])
        code, _, err = run_cli(
            capsys, "evolve", "--host", str(h), "--parasite", str(p)
        )
        assert code == EXIT_DATA

    def test_multi(self, capsys, tmp_path, rng):
        t = np.arange(2008, 2019)
        h = np.exp(rng.uniform(0, 1, t.size))
        p2 = np.exp(rng.uniform(0, 2, t.size))
        p1 = h**0.5 * p2**0.3 * np.exp(rng.normal(0, 0.02, t.size))
        host = write_series(tmp_path, "cpu.csv", t, h)
        target = write_series(tmp_path, "cam.csv", t, p1)
        sibling = write_series(tmp_path, "ram.csv", t, p2)
        code, out, _ = run_cli(
            capsys,
            "evolve-multi", "--host", str(host),
            "--parasite", str(target), "--parasite", str(sibling),
            "--format", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert len(payload["multi_fits"]) == 1
        fit = payload["multi_fits"][0]
        assert fit["target"] == "cam"
        assert fit["predictors"] == ["cpu", "ram"]

    def test_same_stem_files_stay_distinct(self, capsys, tmp_path, pair):
        results = []
        for host, parasite in (pair, copies_with_one_stem(tmp_path, pair)):
            code, out, _ = run_cli(
                capsys, "evolve", "--host", str(host), "--parasite", str(parasite),
                "--format", "json",
            )
            assert code == EXIT_OK
            (fit,) = json.loads(out)["fits"]
            results.append((fit["b"], fit["n"]))
        assert results[0] == results[1]
        assert abs(results[0][0] - 1.5) < 0.1

    def test_multi_same_stem_files_stay_distinct(self, capsys, tmp_path, rng):
        t = np.arange(2008, 2019)
        h = np.exp(rng.uniform(0, 1, t.size))
        p2 = np.exp(rng.uniform(0, 2, t.size))
        p1 = h**0.5 * p2**0.3 * np.exp(rng.normal(0, 0.02, t.size))
        files = [
            write_series(tmp_path, "cpu.csv", t, h),
            write_series(tmp_path, "cam.csv", t, p1),
            write_series(tmp_path, "ram.csv", t, p2),
        ]
        results = []
        for host, target, sibling in (files, copies_with_one_stem(tmp_path, files)):
            code, out, _ = run_cli(
                capsys,
                "evolve-multi", "--host", str(host),
                "--parasite", str(target), "--parasite", str(sibling),
                "--format", "json",
            )
            assert code == EXIT_OK
            (fit,) = json.loads(out)["multi_fits"]
            results.append((fit["coefficients"], fit["n"]))
        assert results[0] == results[1]

    def test_multi_needs_two_parasites(self, capsys, pair):
        host, parasite = pair
        code, _, err = run_cli(
            capsys,
            "evolve-multi", "--host", str(host), "--parasite", str(parasite),
        )
        assert code == EXIT_DATA


class TestFitLogisticCommand:
    def test_fit_and_forecast(self, capsys, tmp_path):
        t = np.linspace(0, 40, 20)
        values = 100.0 / (1.0 + np.exp(5.0 - 0.25 * t))
        path = write_series(tmp_path, "s.csv", t, values)
        code, out, _ = run_cli(
            capsys, "fit-logistic", "--input", str(path), "--format", "json"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert abs(payload["k"] - 100.0) < 1e-3
        assert not payload["k_at_bound"]

        code, out, _ = run_cli(
            capsys, "forecast", "--input", str(path), "--to", "60", "--step", "5"
        )
        assert code == EXIT_OK
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert lines[0] == "t,value"
        last_t, last_v = (float(c) for c in lines[-1].split(","))
        assert last_t == 60.0
        assert abs(last_v - 100.0 / (1.0 + math.exp(5.0 - 0.25 * 60.0))) < 0.5

    @pytest.mark.parametrize("e", [665, -665])
    def test_times_whose_sums_leave_the_floats(self, capsys, tmp_path, e):
        # at 2**665 (about 1e200) four numpy warnings preceded a FIT_ERROR that
        # called the slope nonnegative; at 2**-665 the K search raised a
        # ZeroDivisionError, a traceback
        t = np.arange(1.0, 6.0)
        fits = []
        for name, times in (("unit.csv", t), ("scaled.csv", np.ldexp(t, e))):
            path = write_series(tmp_path, name, times, [1.0, 2.0, 4.0, 7.0, 9.0])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run_cli(
                    capsys, "fit-logistic", "--input", str(path), "--format", "json"
                )
            assert (code, err) == (EXIT_OK, "")
            fits.append(strict_json(out))
        unit, scaled = fits
        for key in ("k", "a", "r2_logit"):
            assert scaled[key] == unit[key]
        assert scaled["b"] == math.ldexp(unit["b"], -e)

    def test_decreasing_series_is_fit_error(self, capsys, tmp_path):
        path = write_series(
            tmp_path, "down.csv", [0, 1, 2, 3, 4], [10.0, 8.0, 6.0, 4.0, 2.0]
        )
        code, _, err = run_cli(capsys, "fit-logistic", "--input", str(path))
        assert code == EXIT_FIT
        assert err.startswith("FIT_ERROR:")

    def test_forecast_before_last_observation(self, capsys, tmp_path):
        t = np.linspace(0, 40, 20)
        values = 100.0 / (1.0 + np.exp(5.0 - 0.25 * t))
        path = write_series(tmp_path, "s.csv", t, values)
        code, _, err = run_cli(
            capsys, "forecast", "--input", str(path), "--to", "10"
        )
        assert code == EXIT_DATA


class TestKBoundWarnings:
    # K search ends on the lower bound, just above max(v) (R^2 0.71)
    SATURATED = ([0, 1, 2, 3, 4], [6.0, 2.0, 9.0, 9.0, 9.0])
    # no saturation at all: K ends on the upper bound
    EXPONENTIAL = (np.linspace(1, 10, 10), np.exp(0.2 * np.linspace(1, 10, 10)))
    LOWER = "WARNING: K pinned at the lower search bound"
    UPPER = "WARNING: K pinned near the upper search bound"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "data, warning", [(SATURATED, LOWER), (EXPONENTIAL, UPPER)]
    )
    def test_fit_logistic_warns_on_either_bound(
        self, capsys, tmp_path, fmt, data, warning
    ):
        path = write_series(tmp_path, "s.csv", *data)
        code, out, err = run_cli(
            capsys, "fit-logistic", "--input", str(path), "--format", fmt
        )
        assert code == EXIT_OK
        assert err.startswith(warning) and err.count("\n") == 1
        assert "WARNING" not in out
        if fmt == "json":
            payload = strict_json(out)
            assert list(payload) == [
                "series", "k", "a", "b", "inflection_time", "r2_logit",
                "k_at_bound", "n",
            ]
            assert payload["k_at_bound"] is True
        else:
            assert "K at bound:      True" in out

    @pytest.mark.parametrize(
        "data, warning", [(SATURATED, LOWER), (EXPONENTIAL, UPPER)]
    )
    def test_forecast_warns_on_either_bound(self, capsys, tmp_path, data, warning):
        path = write_series(tmp_path, "s.csv", *data)
        code, out, err = run_cli(
            capsys, "forecast", "--input", str(path), "--to", "12"
        )
        assert code == EXIT_OK
        assert err.startswith(warning) and err.count("\n") == 1
        assert out.startswith("# logistic fit: K=") and "WARNING" not in out

    @pytest.mark.parametrize("command", ["fit-logistic", "forecast"])
    def test_interior_k_is_silent(self, capsys, tmp_path, command):
        t = np.linspace(0, 40, 20)
        path = write_series(
            tmp_path, "s.csv", t, 100.0 / (1.0 + np.exp(5.0 - 0.25 * t))
        )
        argv = [command, "--input", str(path)]
        if command == "forecast":
            argv += ["--to", "60"]
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert err == ""


class TestCorrelateCommand:
    def test_matrix(self, capsys, tmp_path, rng):
        t = np.arange(2000, 2016)
        a = write_series(tmp_path, "a.csv", t, np.exp(rng.uniform(0, 1, t.size)))
        b = write_series(tmp_path, "b.csv", t, np.exp(rng.uniform(0, 1, t.size)))
        code, out, _ = run_cli(
            capsys, "correlate", "--series", str(a), "--series", str(b),
            "--format", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["names"] == ["a", "b"]
        assert payload["entries"][0][0]["r"] == 1.0

    def test_json_is_strict_for_short_series(self, capsys, tmp_path, rng):
        t = np.arange(2000, 2016)
        short = write_series(tmp_path, "short.csv", [2000, 2001], [1.0, 2.0])
        long = write_series(tmp_path, "long.csv", t, np.exp(rng.uniform(0, 1, t.size)))
        code, out, _ = run_cli(
            capsys, "correlate", "--series", str(short), "--series", str(long),
            "--format", "json",
        )
        assert code == EXIT_OK
        payload = strict_json(out)
        assert payload["entries"][0][0] == {"r": 1.0, "p": None, "n": 2}
        assert payload["entries"][0][1] == {"r": None, "p": None, "n": 2}

    def test_needs_two(self, capsys, tmp_path, rng):
        t = np.arange(2000, 2016)
        a = write_series(tmp_path, "a.csv", t, np.exp(rng.uniform(0, 1, t.size)))
        code, _, err = run_cli(capsys, "correlate", "--series", str(a))
        assert code == EXIT_DATA


class TestStatsAndStandardize:
    def test_stats_log(self, capsys, tmp_path):
        path = write_series(
            tmp_path, "s.csv", [1, 2, 3], [math.e, math.e**2, math.e**3]
        )
        code, out, _ = run_cli(
            capsys, "stats", "--input", str(path), "--log", "--format", "json"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["scale"] == "log"
        assert abs(payload["mean"] - 2.0) < 1e-12
        assert abs(payload["sd"] - 1.0) < 1e-12

    def test_stats_of_huge_duplicate_years(self, capsys, tmp_path):
        # the mean of two rows 1,1e308 overflowed in fsum: a traceback
        path = tmp_path / "s.csv"
        path.write_text("t,value\n1,1e308\n1,1e308\n2,1.0\n3,2.0\n", encoding="utf-8")
        code, out, err = run_cli(
            capsys, "stats", "--input", str(path), "--log", "--format", "json"
        )
        assert code == EXIT_OK
        assert "aggregated by mean" in err
        assert strict_json(out)["n"] == 3
        assert strict_json(out)["mean"] == (math.log(1e308) + math.log(2.0)) / 3

    def test_stats_of_huge_values(self, capsys, tmp_path):
        # the deviations' squares overflowed: four numpy warnings, sd inf and
        # skewness NaN (null in JSON)
        path = tmp_path / "s.csv"
        path.write_text("t,value\n1,1e308\n1,1e308\n2,5\n3,7\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "stats", "--input", str(path), "--format", "json"
            )
        assert code == EXIT_OK
        assert "Warning" not in err
        payload = strict_json(out)
        sd = statistics.stdev([1e308, 5.0, 7.0])
        assert payload["sd"] == pytest.approx(sd, rel=1e-15)
        assert payload["skewness"] == pytest.approx(math.sqrt(3.0), rel=1e-15)

    @pytest.mark.parametrize(
        "rows, expected",
        [
            # z was 0.0, -0.0, -0.0: a plausible wrong answer
            ("1,1e308\n1,1e308\n2,5\n3,7\n", [2 / 3**0.5, -(3**-0.5), -(3**-0.5)]),
            # the sum overflowed: every z was nan
            ("1,1e308\n2,1.5e308\n3,7\n", [0.2182178902359924, 0.8728715609439694,
                                            -1.0910894511799618]),
        ],
    )
    def test_standardize_huge_values(self, capsys, tmp_path, rows, expected):
        path = tmp_path / "s.csv"
        path.write_text("t,value\n" + rows, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "standardize", "--input", str(path))
        assert code == EXIT_OK
        zs = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        np.testing.assert_allclose(zs, expected, rtol=1e-14)

    def test_standardize(self, capsys, tmp_path):
        path = write_series(tmp_path, "s.csv", [1, 2, 3], [1.0, 2.0, 3.0])
        code, out, _ = run_cli(capsys, "standardize", "--input", str(path))
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "t,z"
        zs = [float(l.split(",")[1]) for l in lines[1:]]
        np.testing.assert_allclose(zs, [-1.0, 0.0, 1.0])

    def test_standardize_constant_is_data_error(self, capsys, tmp_path):
        path = write_series(tmp_path, "s.csv", [1, 2, 3], [5.0, 5.0, 5.0])
        code, _, err = run_cli(capsys, "standardize", "--input", str(path))
        assert code == EXIT_DATA


class TestSimulateAndRecover:
    def test_simulate_then_evolve_composes(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--k1", "100", "--b1", "0.05", "--t1", "120",
            "--k2", "50", "--b2", "0.087", "--t2", "80",
            "--t-start", "0", "--t-end", "43", "--n", "44",
            "--noise", "0.02", "--missing", "0", "--seed", "7",
            "--out-prefix", str(tmp_path / "sim"),
        )
        assert code == EXIT_OK
        host_path = tmp_path / "sim_host.csv"
        parasite_path = tmp_path / "sim_parasite.csv"
        assert host_path.exists() and parasite_path.exists()
        assert str(host_path) in out

        code, out, _ = run_cli(
            capsys,
            "evolve", "--host", str(host_path), "--parasite", str(parasite_path),
            "--format", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert abs(payload["fits"][0]["b"] - 1.74) < 0.1

    def test_seed_env_var(self, capsys, tmp_path, monkeypatch):
        def simulate(prefix):
            return run_cli(
                capsys,
                "simulate",
                "--k1", "100", "--b1", "0.05", "--t1", "120",
                "--k2", "50", "--b2", "0.087", "--t2", "80",
                "--t-start", "0", "--t-end", "43", "--n", "44",
                "--noise", "0.02",
                "--out-prefix", str(tmp_path / prefix),
            )

        monkeypatch.setenv("PARASITECH_SEED", "31")
        simulate("env")
        monkeypatch.setenv("PARASITECH_SEED", "32")
        simulate("env2")
        a = (tmp_path / "env_host.csv").read_text()
        b = (tmp_path / "env2_host.csv").read_text()
        assert a != b

        # explicit flag wins over the environment
        monkeypatch.setenv("PARASITECH_SEED", "31")
        run_cli(
            capsys,
            "simulate",
            "--k1", "100", "--b1", "0.05", "--t1", "120",
            "--k2", "50", "--b2", "0.087", "--t2", "80",
            "--t-start", "0", "--t-end", "43", "--n", "44",
            "--noise", "0.02", "--seed", "32",
            "--out-prefix", str(tmp_path / "flag"),
        )
        assert (tmp_path / "flag_host.csv").read_text() == b

    @pytest.mark.parametrize("noise", ["1e300", "800"])
    def test_noise_overflow_is_one_data_error_line(self, capsys, tmp_path, noise):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys,
                "simulate",
                "--k1", "100", "--b1", "0.05", "--t1", "120",
                "--k2", "50", "--b2", "0.087", "--t2", "80",
                "--t-start", "0", "--t-end", "43", "--n", "44",
                "--noise", noise, "--seed", "7",
                "--out-prefix", str(tmp_path / "sim"),
            )
        assert code == EXIT_DATA
        assert out == ""
        assert err.startswith("DATA_ERROR:") and err.count("\n") == 1
        assert "noise" in err

    @pytest.mark.parametrize("t_start, t_end", [("0", "inf"), ("-1e308", "1e308")])
    def test_unusable_grid_is_one_data_error_line(
        self, capsys, tmp_path, t_start, t_end
    ):
        # refused before numpy can warn while building a grid from these bounds
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys,
                "simulate",
                "--k1", "100", "--b1", "0.05", "--t1", "120",
                "--k2", "50", "--b2", "0.087", "--t2", "80",
                f"--t-start={t_start}", f"--t-end={t_end}", "--n", "44",
                "--out-prefix", str(tmp_path / "sim"),
            )
        assert code == EXIT_DATA
        assert out == ""
        assert err.startswith("DATA_ERROR:") and err.count("\n") == 1

    def test_recover_infinite_t_end_is_one_data_error_line(self, capsys, tmp_path):
        # 1e400 parses as inf: a data error, not a fit failure of every
        # replicate
        path = tmp_path / "sim.json"
        text = json.dumps(RECOVER_CONFIG).replace('"t_end": 43.0', '"t_end": 1e400')
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "recover", "--config", str(path), "--replicates", "3"
            )
        assert code == EXIT_DATA
        assert out == ""
        assert err.startswith("DATA_ERROR:") and err.count("\n") == 1
        assert "t_end" in err

    def test_recover(self, capsys, tmp_path):
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(RECOVER_CONFIG))
        code, out, _ = run_cli(
            capsys,
            "recover", "--config", str(path), "--replicates", "25",
            "--early-phase", "--format", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["replicates"] == 25
        assert abs(payload["true_b"] - 1.74) < 1e-12
        assert abs(payload["bias"]) < 0.05
        assert len(payload["estimates"]) == 25

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_recover_whole_floats_are_integers(self, capsys, tmp_path, fmt):
        outputs = []
        for config in (
            RECOVER_CONFIG, {**RECOVER_CONFIG, "n_points": 44.0, "seed": 5.0}
        ):
            path = tmp_path / "sim.json"
            path.write_text(json.dumps(config))
            code, out, err = run_cli(
                capsys,
                "recover", "--config", str(path), "--replicates", "5",
                "--format", fmt,
            )
            assert (code, err) == (EXIT_OK, "")
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_recover_bad_config(self, capsys, tmp_path):
        path = tmp_path / "sim.json"
        path.write_text("{\"host\": {}}")
        code, _, err = run_cli(
            capsys, "recover", "--config", str(path), "--replicates", "5"
        )
        assert code == EXIT_DATA

    @pytest.mark.parametrize(
        "config, message",
        [
            ([1, 2], "config must be a JSON object"),
            ({**RECOVER_CONFIG, "host": [100.0, 0.05]}, "host: must be a JSON object"),
            (
                {**RECOVER_CONFIG, "parasites": [5]},
                "parasites[0]: must be a JSON object",
            ),
            ({**RECOVER_CONFIG, "t_start": "soon"}, "could not convert"),
            ({**RECOVER_CONFIG, "noise_sigma": None}, "float() argument"),
            (
                {**RECOVER_CONFIG, "n_points": 44.9},
                "n_points must be an integer, got 44.9",
            ),
            ({**RECOVER_CONFIG, "seed": 2.5}, "seed must be an integer, got 2.5"),
            ({**RECOVER_CONFIG, "seed": "3"}, "seed must be an integer, got '3'"),
        ],
        ids=[
            "not-an-object",
            "host-not-an-object",
            "parasite-not-an-object",
            "non-numeric-field",
            "null-field",
            "fractional-n-points",
            "fractional-seed",
            "string-seed",
        ],
    )
    def test_recover_malformed_config_is_data_error(
        self, capsys, tmp_path, config, message
    ):
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(
            capsys, "recover", "--config", str(path), "--replicates", "5"
        )
        assert code == EXIT_DATA
        assert out == ""
        assert err.startswith("DATA_ERROR:") and err.count("\n") == 1
        assert message in err


class TestForecastGrid:
    @pytest.mark.parametrize(
        "flag, value",
        [("--step", "nan"), ("--to", "nan"), ("--to", "inf"), ("--to", "1e300")],
    )
    def test_non_finite_or_oversized_grid_is_data_error(
        self, capsys, tmp_path, flag, value
    ):
        t = np.linspace(0, 40, 20)
        path = write_series(
            tmp_path, "s.csv", t, 100.0 / (1.0 + np.exp(5.0 - 0.25 * t))
        )
        code, out, err = run_cli(
            capsys, "forecast", "--input", str(path), "--to", "60", flag, value
        )
        assert code == EXIT_DATA
        assert out == ""
        assert err.startswith("DATA_ERROR:") and err.count("\n") == 1


JSON_COMMANDS = {
    "evolve": ["evolve", "--host", "{host}", "--parasite", "{target}"],
    "evolve-multi": [
        "evolve-multi", "--host", "{host}",
        "--parasite", "{target}", "--parasite", "{sibling}",
    ],
    "fit-logistic": ["fit-logistic", "--input", "{logistic}"],
    "correlate": ["correlate", "--series", "{host}", "--series", "{short}"],
    "classify": ["classify", "--b", "-0.5", "--se", "1.0", "--n", "10"],
    "recover": ["recover", "--config", "{config}", "--replicates", "3"],
    "stats": ["stats", "--input", "{short}"],
}


@pytest.fixture
def inputs(tmp_path, rng):
    """Paths of every input file the JSON_COMMANDS templates name."""
    t = np.arange(2000, 2016)
    h = np.exp(rng.uniform(0, 1, t.size))
    sibling = np.exp(rng.uniform(0, 2, t.size))
    target = h**0.5 * sibling**0.3 * np.exp(rng.normal(0, 0.02, t.size))
    logistic_t = np.linspace(0, 40, 20)
    config = tmp_path / "sim.json"
    config.write_text(json.dumps(RECOVER_CONFIG))
    return {
        "host": write_series(tmp_path, "host.csv", t, h),
        "target": write_series(tmp_path, "target.csv", t, target),
        "sibling": write_series(tmp_path, "sibling.csv", t, sibling),
        "short": write_series(tmp_path, "short.csv", [2000, 2001], [1.0, 2.0]),
        "logistic": write_series(
            tmp_path, "logistic.csv", logistic_t,
            100.0 / (1.0 + np.exp(5.0 - 0.25 * logistic_t)),
        ),
        "config": config,
    }


def json_argv(command, inputs):
    paths = {k: str(v) for k, v in inputs.items()}
    return [a.format(**paths) for a in JSON_COMMANDS[command]] + ["--format", "json"]


class TestCliContract:
    @pytest.mark.parametrize("command", sorted(JSON_COMMANDS))
    def test_json_output_is_strict(self, capsys, inputs, command):
        code, out, _ = run_cli(capsys, *json_argv(command, inputs))
        assert code == EXIT_OK
        payload = strict_json(out)
        assert isinstance(payload, dict)
        # every command writes the stdlib's indented layout, byte for byte
        assert out == json.dumps(payload, indent=2, allow_nan=False) + "\n"

    def test_classify_json_is_the_report_classification(self, capsys, inputs):
        _, out, _ = run_cli(capsys, *json_argv("classify", inputs))
        classify = strict_json(out)
        _, out, _ = run_cli(capsys, *json_argv("evolve", inputs))
        (fit,) = strict_json(out)["fits"]
        assert list(classify) == list(fit["classification"])
        assert classify["b_estimate"] == -0.5

    def test_correlate_text_is_the_report_table(self, capsys, inputs):
        host, target = str(inputs["host"]), str(inputs["target"])
        _, table, _ = run_cli(
            capsys, "correlate", "--series", host, "--series", target
        )
        _, report, _ = run_cli(
            capsys, "evolve", "--host", host, "--parasite", target
        )
        start = report.index("Correlations")
        assert table == report[start : report.index("\n\n", start) + 1]

    def test_evolve_multi_has_no_alpha(self, capsys, inputs):
        argv = json_argv("evolve-multi", inputs) + ["--alpha", "0.1"]
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("USAGE_ERROR:") and err.count("\n") == 1

    def test_warnings_wait_until_every_file_parses(self, capsys, tmp_path, inputs):
        duplicated = tmp_path / "dup.csv"
        duplicated.write_text("t,value\n1,2\n1,3\n2,-1\n3,5\n")
        bad = tmp_path / "bad.csv"
        bad.write_text("t,value\n1,x\n")
        code, out, err = run_cli(
            capsys,
            "evolve", "--host", str(duplicated), "--parasite", str(bad),
        )
        assert code == EXIT_DATA
        assert out == ""
        assert err.startswith("DATA_ERROR:") and err.count("\n") == 1


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.5, 0.5, 1e300, -1e300]
flag_floats = st.one_of(
    st.sampled_from(SPECIAL_FLOATS),
    st.integers(-60, 120).map(float),
    st.floats(-3.0, 3.0),
)
# whole or special steps only: a tiny finite step below the row cap would
# print up to a million rows and slow the test down
grid_steps = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.integers(-5, 10).map(float))
csv_rows = st.lists(
    st.tuples(
        st.integers(0, 25),
        st.one_of(st.floats(0.01, 1e4), st.sampled_from([0.0, -1.0, math.nan])),
    ),
    max_size=12,
)


def flag(name, value):
    return [f"{name}={value!r}" if isinstance(value, float) else f"{name}={value}"]


@st.composite
def cli_argv(draw, directory):
    """argv for one command, its numeric flags and CSV inputs drawn at random."""
    files = []
    for i in range(draw(st.integers(1, 3))):
        path = directory / f"s{i}.csv"
        rows = draw(csv_rows)
        path.write_text(
            "t,value\n" + "".join(f"{t},{v!r}\n" for t, v in rows),
            encoding="utf-8",
        )
        files.append(str(path))

    def num():
        return draw(flag_floats)

    fmt = draw(st.sampled_from(["text", "json"]))
    command = draw(
        st.sampled_from(
            ["evolve", "evolve-multi", "fit-logistic", "forecast", "correlate",
             "classify", "recover", "stats", "standardize", "simulate"]
        )
    )
    if command in ("evolve", "evolve-multi"):
        argv = [command, "--host", files[0], "--format", fmt]
        for path in files[1:]:
            argv += ["--parasite", path]
        if command == "evolve":
            argv += flag("--alpha", num())
    elif command in ("fit-logistic", "forecast"):
        argv = [command, "--input", files[0]] + flag("--k-max-factor", num())
        if command == "forecast":
            argv += flag("--to", num()) + flag("--step", draw(grid_steps))
        else:
            argv += ["--format", fmt]
    elif command == "correlate":
        argv = [command, "--format", fmt]
        for path in files:
            argv += ["--series", path]
    elif command == "classify":
        argv = [command, "--format", fmt] + flag("--b", num())
        if draw(st.booleans()):
            argv += flag("--se", num()) + flag("--n", draw(st.integers(-2, 50)))
            argv += flag("--alpha", num())
    elif command == "recover":
        config = directory / "sim.json"
        scenario = {**RECOVER_CONFIG, "noise_sigma": num(), "t_end": num()}
        config.write_text(json.dumps(scenario), encoding="utf-8")
        argv = [command, "--config", str(config), "--format", fmt]
        argv += flag("--replicates", draw(st.integers(-1, 3)))
    elif command == "simulate":
        argv = [command, "--out-prefix", str(directory / "sim")]
        for name in ("--k1", "--b1", "--t1", "--k2", "--b2", "--t2",
                     "--t-start", "--t-end", "--noise", "--missing"):
            argv += flag(name, num())
        argv += flag("--n", draw(st.integers(-2, 50)))
    else:
        argv = [command, "--input", files[0]]
        if command == "stats":
            argv += ["--format", fmt, "--log"]
    return argv


class TestCliProperty:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_any_flags_give_a_coded_exit_and_strict_json(
        self, tmp_path_factory, data
    ):
        directory = tmp_path_factory.mktemp("cli")
        argv = data.draw(cli_argv(directory))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert code in (EXIT_OK, EXIT_DATA, EXIT_FIT, EXIT_USAGE)
        if code == EXIT_OK:
            if "json" in argv:
                strict_json(out.getvalue())
        else:
            lines = err.getvalue().splitlines()
            coded = [
                line for line in lines
                if line.split(":")[0] in ("DATA_ERROR", "FIT_ERROR", "USAGE_ERROR")
            ]
            assert coded == lines[-1:]
