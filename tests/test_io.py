import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parasitech import (
    EmptySeriesError,
    InvalidInputError,
    ParasitechError,
    SeriesFormatError,
    TechSeries,
    build_report,
    emit_plot_data,
    fit_evolution,
    parse_series_csv,
    render_report,
    report_to_dict,
    write_series_csv,
)
from parasitech.io import _json_text
from conftest import make_series
from oracles import parse_series_reference


def write(tmp_path, text, name="series.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture
def report(rng):
    t = np.arange(1950, 1994)
    host = make_series("host", t, np.exp(rng.uniform(0.5, 3.0, t.size)), role="host")
    parasite = make_series(
        "engine", t, 2.0 * host.values**1.5 * np.exp(rng.normal(0, 0.05, t.size))
    )
    return build_report(
        host, [parasite], source_files=["host.csv", "engine.csv"]
    )


class TestParseSeriesCsv:
    def test_basic(self, tmp_path):
        sf = parse_series_csv(write(tmp_path, "t,value\n1920,2.5\n1921,2.7\n"))
        assert sf.parsed.n == 2
        assert sf.parsed.name == "series"
        np.testing.assert_allclose(sf.parsed.values, [2.5, 2.7])
        assert sf.warnings == ()

    def test_comments_and_blanks_skipped(self, tmp_path):
        text = "# fuel efficiency\n\nt,value\n# war years missing\n1920,2.5\n"
        sf = parse_series_csv(write(tmp_path, text))
        assert sf.parsed.n == 1

    def test_utf8_bom_accepted(self, tmp_path):
        path = tmp_path / "export.csv"
        path.write_bytes(b"\xef\xbb\xbft,value\n1920,2.5\n1921,2.7\n")
        sf = parse_series_csv(path)
        np.testing.assert_array_equal(sf.parsed.values, [2.5, 2.7])

    def test_non_utf8_names_the_byte(self, tmp_path):
        # the offset counts the byte-order mark: it is the byte's place in
        # the file
        path = tmp_path / "series.csv"
        path.write_bytes(b"\xef\xbb\xbft,value\n1,2\n2,\xe9\n")
        with pytest.raises(SeriesFormatError) as err:
            parse_series_csv(path)
        assert str(err.value) == (
            f"{path}: not UTF-8 text: byte 17 (invalid continuation byte)"
        )

    def test_missing_header(self, tmp_path):
        with pytest.raises(SeriesFormatError):
            parse_series_csv(write(tmp_path, "1920,2.5\n1921,2.7\n"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(SeriesFormatError):
            parse_series_csv(write(tmp_path, ""))

    def test_non_numeric_cell_names_line(self, tmp_path):
        text = "t,value\n1920,2.5\n1921,abc\n"
        with pytest.raises(SeriesFormatError) as exc:
            parse_series_csv(write(tmp_path, text))
        assert "line 3" in str(exc.value)

    def test_nonpositive_row_rejected_with_line(self, tmp_path):
        text = "t,value\n1920,2.5\n1921,2.7\n1922,-1\n"
        sf = parse_series_csv(write(tmp_path, text))
        assert sf.parsed.n == 2
        assert any("line 4" in w for w in sf.warnings)

    def test_zero_valid_rows(self, tmp_path):
        with pytest.raises(EmptySeriesError):
            parse_series_csv(write(tmp_path, "t,value\n1920,-2\n"))

    def test_duplicate_years_mean(self, tmp_path):
        text = "t,value\n2015,2.0\n2015,4.0\n2016,5.0\n"
        sf = parse_series_csv(write(tmp_path, text))
        assert sf.parsed.n == 2
        np.testing.assert_allclose(sf.parsed.values[0], 3.0)  # (2+4)/2
        assert any("2015" in w for w in sf.warnings)

    @pytest.mark.parametrize("first, second", [("0", "-0"), ("-0", "0")])
    def test_duplicate_year_keeps_its_first_rows_t(self, tmp_path, first, second):
        text = f"t,value\n{first},2.0\n{second},4.0\n1,5.0\n"
        sf = parse_series_csv(write(tmp_path, text))
        assert sf.warnings == (
            f"2 rows share t={float(first)!r}; aggregated by mean",
        )
        assert math.copysign(1.0, sf.parsed.times[0]) == math.copysign(
            1.0, float(first)
        )
        np.testing.assert_array_equal(sf.parsed.values, [3.0, 5.0])

    @pytest.mark.parametrize("agg,expected", [("median", 4.0), ("max", 9.0)])
    def test_other_aggregators(self, tmp_path, agg, expected):
        text = "t,value\n2015,2.0\n2015,4.0\n2015,9.0\n2016,5.0\n"
        sf = parse_series_csv(write(tmp_path, text), aggregator=agg)
        np.testing.assert_allclose(sf.parsed.values[0], expected)

    @pytest.mark.parametrize(
        "values, agg, expected",
        [
            (["1e308", "1e308"], "mean", 1e308),
            (["1e308", "1e308"], "median", 1e308),
            (["1.7e308", "1.7e308", "1.7e308"], "mean", 1.7e308),
            (["1e308", "1.5e308", "1", "1.7e308"], "median", 1.25e308),
        ],
    )
    def test_aggregate_of_huge_duplicates_does_not_overflow(
        self, tmp_path, values, agg, expected
    ):
        # the float sum overflowed: fmean raised OverflowError and the median
        # of two came out inf, so the file was refused as non-finite
        text = "t,value\n" + "".join(f"1,{v}\n" for v in values) + "2,5.0\n"
        sf = parse_series_csv(write(tmp_path, text), aggregator=agg)
        assert sf.parsed.values.tolist() == [expected, 5.0]

    def test_unknown_aggregator(self, tmp_path):
        with pytest.raises(InvalidInputError):
            parse_series_csv(
                write(tmp_path, "t,value\n1920,2.5\n"), aggregator="mode"
            )

    def test_wrong_column_count(self, tmp_path):
        with pytest.raises(SeriesFormatError):
            parse_series_csv(write(tmp_path, "t,value\n1,2,3\n"))

    def test_round_trip_identity(self, tmp_path, rng):
        values = np.exp(rng.uniform(-20, 20, size=30))
        times = np.sort(rng.uniform(1900, 2020, size=30))
        original = TechSeries("s", "parasite", "", times, values)
        path = tmp_path / "out.csv"
        write_series_csv(original, path)
        back = parse_series_csv(path, name="s").parsed
        # exact round trip: shortest-repr decimal text preserves every bit
        assert back == original


# cells that float() and numpy's reader may take differently: underscores,
# Unicode spaces and digits, \x1f (a space to numpy only), NUL, and text
# numpy refuses but float() reads
_ODD_CELLS = st.sampled_from(
    ["1_0", "2\u00a0", "\u00a02", "\u0663", "3\x1f", "\x1f3", "4\x00",
     "5\u3000", "0x10", '"6"', "", "abc", "1 2", "inf", "-inf", "nan", "1e400",
     "1e-400"]
)
# a few years, -0.0 and 0.0 among them, so that duplicates are common
_YEARS = st.sampled_from(
    ["1990", "1991", "1990.0", "2e3", "-0.0", "0.0", "0", " 1992 "]
)
_LEVELS = st.one_of(
    st.floats(min_value=1e-300, max_value=1e300).map(repr),
    st.sampled_from(["0", "-0.0", "-2.5", "1.7e308", "1.6e308", " 7.5 "]),
)
_ROWS = st.tuples(_YEARS, _LEVELS).map(",".join)
_ODD_LINES = st.one_of(
    st.tuples(_YEARS | _ODD_CELLS, _LEVELS | _ODD_CELLS).map(",".join),
    st.sampled_from(["1,2,3", "5", ",", "1,2,"]),
)
_LINES = _ROWS | _ROWS | st.sampled_from(["", "  ", "\t", "# note", " # 1,2"])


def _parse_outcome(parse, path, aggregator):
    """repr of the times, values and warnings, or the error type and message."""
    try:
        times, values, warnings = parse(path, aggregator)
    except ParasitechError as exc:
        return type(exc).__name__, str(exc)
    return repr(list(times)), repr(list(values)), warnings


def _parse_library(path, aggregator):
    sf = parse_series_csv(path, aggregator=aggregator)
    return sf.parsed.times.tolist(), sf.parsed.values.tolist(), sf.warnings


class TestParseSeriesCsvReference:
    @given(
        header=st.sampled_from(["t,value", "T , Value", "time,value", None]),
        lines=st.lists(_LINES, max_size=12),
        odd=st.none() | st.tuples(st.integers(0, 12), _ODD_LINES),
        newline=st.sampled_from(["\n", "\r\n", "\r"]),
        bom=st.booleans(),
        aggregator=st.sampled_from(["mean", "median", "max"]),
    )
    # numpy's reader takes \x1f for a space, and refuses 1_0 and \u0663
    @example("t,value", ["1990,2"], (1, "1991\x1f,3"), "\n", False, "mean")
    @example("t,value", ["1990,2"], (0, "1_0,\u0663"), "\n", False, "mean")
    @settings(max_examples=150, deadline=None)
    def test_equals_the_line_loop(
        self, tmp_path_factory, header, lines, odd, newline, bom, aggregator
    ):
        # the parser and the float() line loop in oracles.py agree on every
        # value, warning and error, -0.0 and 0.0 told apart; half the files
        # have one odd line
        if odd is not None:
            at, line = odd
            lines = lines[:at] + [line] + lines[at:]
        text = newline.join([header] * (header is not None) + lines) + newline
        path = tmp_path_factory.getbasetemp() / "reference.csv"
        path.write_bytes(("\ufeff" * bom + text).encode("utf-8"))
        assert _parse_outcome(_parse_library, path, aggregator) == _parse_outcome(
            parse_series_reference, path, aggregator
        )


class TestRenderReportText:
    def test_table_layout_and_stars(self, report):
        text = render_report(report, "text").decode("utf-8")
        assert "Evolutionary coefficient B (St. Err.)" in text
        assert "Constant alpha (St. Err.)" in text
        assert "R2 adj." in text
        assert "F (sign.)" in text
        assert "grade 3" in text
        assert "symbiosis" in text
        assert "[!]" in text
        assert "Complex system of technology is likely to evolve rapidly" in text
        assert "***" in text

    def test_exact_star_rendering(self, rng):
        # engineer a fit whose slope is exactly 1.74 with a highly
        # significant t: residuals are made orthogonal to the design
        t = np.arange(1920, 1964)
        x = rng.uniform(1, 4, size=t.size)
        e = rng.normal(0, 0.03, size=t.size)
        X = np.column_stack([np.ones(t.size), x])
        e = e - X @ np.linalg.lstsq(X, e, rcond=None)[0]  # orthogonalize
        y = -5.14 + 1.74 * x + e
        host = make_series("host", t, np.exp(x), role="host")
        parasite = make_series("p", t, np.exp(y))
        fit = fit_evolution(host, parasite)
        np.testing.assert_allclose(fit.b, 1.74, atol=1e-12)
        report = build_report(host, [parasite])
        text = render_report(report, "text").decode("utf-8")
        assert "1.74***" in text

    def test_timestamp_not_in_text(self, report):
        text = render_report(report, "text").decode("utf-8")
        assert "timestamp" not in text.lower()


class TestRenderReportJson:
    def test_deterministic_bytes(self, report):
        assert render_report(report, "json") == render_report(report, "json")

    def test_top_level_schema(self, report):
        payload = json.loads(render_report(report, "json"))
        assert list(payload.keys()) == [
            "meta",
            "fits",
            "multi_fits",
            "correlations",
            "descriptives",
            "standardized_trajectories",
        ]
        assert payload["meta"]["log_base"] == "e"
        assert payload["meta"]["timestamp"] is None
        assert payload["meta"]["inputs"] == ["host.csv", "engine.csv"]
        fit = payload["fits"][0]
        for key in (
            "host",
            "parasite",
            "n",
            "years_used",
            "log_a",
            "log_a_se",
            "b",
            "b_se",
            "b_stars",
            "b_p",
            "r2",
            "r2_adj",
            "residual_se",
            "f_stat",
            "f_p",
            "perfect_fit",
            "classification",
        ):
            assert key in fit
        assert fit["classification"]["grade"] == 3
        assert payload["correlations"]["names"] == ["host", "engine"]

    def test_key_set_stable_across_runs(self, rng):
        def build(seed):
            gen = np.random.default_rng(seed)
            t = np.arange(1950, 1994)
            host = make_series(
                "h", t, np.exp(gen.uniform(0, 2, t.size)), role="host"
            )
            parasite = make_series("p", t, 2.0 * host.values**1.2)
            return json.loads(
                render_report(build_report(host, [parasite]), "json")
            )

        def key_paths(obj, prefix=""):
            paths = set()
            if isinstance(obj, dict):
                for k, v in obj.items():
                    paths.add(f"{prefix}.{k}")
                    paths |= key_paths(v, f"{prefix}.{k}")
            elif isinstance(obj, list) and obj:
                paths |= key_paths(obj[0], prefix + "[]")
            return paths

        assert key_paths(build(1)) == key_paths(build(2))

    def test_json_is_strict(self, report):
        # no NaN/Infinity literals anywhere
        raw = render_report(report, "json").decode("utf-8")
        json.loads(raw)  # would fail on bare NaN
        assert "NaN" not in raw and "Infinity" not in raw

    def test_nonfinite_sanitized(self):
        # exp(integers) keeps the log columns exactly affine, so the fit is
        # exactly perfect: infinite t-stat must come out as JSON null, the
        # p-value as 0, and the flag set
        t = np.arange(2000, 2010)
        x = np.arange(10.0)
        host = make_series("h", t, np.exp(x), role="host")
        parasite = make_series("p", t, np.exp(2.0 * x))
        payload = json.loads(render_report(build_report(host, [parasite]), "json"))
        fit = payload["fits"][0]
        assert fit["perfect_fit"] is True
        assert fit["b_p"] == 0.0
        assert fit["b_se"] == 0.0
        assert fit["f_stat"] is None  # infinity sanitized to null


class TestRenderReportCsv:
    def test_one_row_per_fit(self, report):
        lines = render_report(report, "csv").decode("utf-8").strip().splitlines()
        assert len(lines) == 2  # header + one fit
        assert lines[0].startswith("kind,target,source,n,")
        cells = lines[1].split(",")
        assert cells[0] == "simple"
        assert cells[1] == "engine"
        assert cells[2] == "host"

    @pytest.mark.parametrize("multi", [False, True])
    def test_names_with_separators_keep_their_cells(self, rng, multi):
        # a name holding a comma, a quote or a line break is one quoted cell
        t = np.arange(1950, 1994)
        host = make_series("h,1", t, np.exp(rng.uniform(0.5, 3.0, t.size)), role="host")
        parasites = [
            make_series(name, t, np.exp(rng.uniform(0.5, 3.0, t.size)))
            for name in ('a,b', 'say "c"\r\nd')
        ]
        report = build_report(host, parasites, multi=multi)
        text = render_report(report, "csv").decode("utf-8")
        header, *rows = csv.reader(io.StringIO(text, newline=""))
        assert rows and all(len(row) == len(header) for row in rows)
        if multi:
            assert [row[1:3] for row in rows] == [["a,b", 'h,1;say "c"\r\nd']]
        else:
            assert [row[1:3] for row in rows] == [
                ["a,b", "h,1"], ['say "c"\r\nd', "h,1"]
            ]

    def test_unknown_format(self, report):
        with pytest.raises(InvalidInputError):
            render_report(report, "yaml")


class TestEmitPlotData:
    def test_one_fit_two_files(self, report, tmp_path):
        files = emit_plot_data(report, tmp_path / "plots")
        assert len(files) == 2
        assert files[0].name == "plots_fit1_engine.csv"
        assert files[1].name == "plots_trajectories.csv"

    def test_fitted_column_definition(self, report, tmp_path):
        files = emit_plot_data(report, tmp_path / "plots")
        rows = files[0].read_text().strip().splitlines()
        assert rows[0] == "log_host,log_parasite,log_parasite_fitted"
        fit = report.fits[0]
        for line in rows[1:]:
            log_h, _, fitted = (float(c) for c in line.split(","))
            assert abs(fitted - (fit.log_a + fit.b * log_h)) < 1e-12

    def test_z_columns_standardized(self, report, tmp_path):
        files = emit_plot_data(report, tmp_path / "plots")
        rows = files[-1].read_text().strip().splitlines()
        header = rows[0].split(",")
        assert header[0] == "t"
        assert set(header[1:]) == {"z_host", "z_engine"}
        cols = {name: [] for name in header[1:]}
        for line in rows[1:]:
            cells = line.split(",")
            for name, cell in zip(header[1:], cells[1:]):
                if cell:
                    cols[name].append(float(cell))
        for values in cols.values():
            assert abs(np.mean(values)) < 1e-12
            assert abs(np.std(values, ddof=1) - 1.0) < 1e-12

    def test_empty_report_rejected(self, rng):
        t = np.arange(2000, 2011)
        host = make_series("h", t, np.exp(rng.uniform(0, 2, t.size)), role="host")
        parasite = make_series("p", t, 2.0 * host.values**1.2)
        report = build_report(host, [parasite])
        report = report.__class__(
            fits=(),
            multi_fits=(),
            correlations=report.correlations,
            descriptives=report.descriptives,
            standardized_trajectories=report.standardized_trajectories,
            provenance=report.provenance,
        )
        with pytest.raises(InvalidInputError):
            emit_plot_data(report, "unused")


class TestReportDict:
    def test_determinism_modulo_timestamp(self, rng):
        t = np.arange(1950, 1994)
        gen = np.random.default_rng(4)
        host = make_series("h", t, np.exp(gen.uniform(0, 2, t.size)), role="host")
        parasite = make_series("p", t, 2.0 * host.values**1.3)
        a = report_to_dict(build_report(host, [parasite], timestamp="2026-08-10"))
        b = report_to_dict(build_report(host, [parasite], timestamp="2099-01-01"))
        a["meta"]["timestamp"] = None
        b["meta"]["timestamp"] = None
        assert a == b


def stdlib_json(obj):
    return json.dumps(obj, indent=2, allow_nan=False)


finite = st.floats(allow_nan=False, allow_infinity=False)
edge_floats = st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e308, -1e308]
)
texts = st.text() | st.sampled_from(
    ["", "é", "日本語", "\u2028", "\x00", '"\\/', "\U0001f600"]
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**63, -(2**64), 10**100]),
    finite,
    edge_floats,
    finite.map(np.float64),
    texts,
)
float_lists = st.lists(finite | edge_floats)
payloads = st.recursive(
    scalars | float_lists | st.lists(finite | st.none()),
    lambda children: st.one_of(
        st.lists(children),
        st.lists(children).map(tuple),
        st.dictionaries(texts, children),
        st.dictionaries(
            st.integers() | finite | st.booleans() | st.none(), children, max_size=3
        ),
    ),
    max_leaves=20,
)


class TestJsonWriter:
    @given(payloads)
    @settings(max_examples=150, deadline=None)
    def test_equals_stdlib_indented_json(self, payload):
        assert _json_text(payload) == stdlib_json(payload)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "wrap",
        [
            lambda x: x,
            np.float64,
            lambda x: [1.0, x, 2.0],
            lambda x: [None, x],
            lambda x: {"k": (0.5, x)},
            lambda x: {x: 1},
        ],
        ids=["alone", "float64", "float-list", "mixed-list", "nested", "key"],
    )
    def test_non_finite_is_refused_by_both(self, bad, wrap):
        for write in (_json_text, stdlib_json):
            with pytest.raises(ValueError):
                write(wrap(bad))

    def test_unsupported_key_is_refused_by_both(self):
        for write in (_json_text, stdlib_json):
            with pytest.raises(TypeError):
                write({(1, 2): 0})
