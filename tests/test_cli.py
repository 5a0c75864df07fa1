import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import expbands
from expbands.bands import METHODS, band_from_dict, event_probability
from expbands.calibration import exact_dp, ks_cdf
from expbands.cli import _resolve_constants, main
from expbands.model import GeneralizedScheme, load_insulating_fluid, read_sample_csv, write_sample_csv
from expbands.regions import region_from_dict


@pytest.fixture()
def data_csv(tmp_path) -> Path:
    path = tmp_path / "data.csv"
    write_sample_csv(load_insulating_fluid(), path)
    return path


def _run(*argv) -> int:
    return main([str(a) for a in argv])


def _load(path: Path) -> dict:
    with path.open() as fh:
        return json.load(fh)


class TestFit:
    def test_golden_values(self, data_csv, tmp_path, capsys):
        assert _run("fit", "--data", data_csv, "--output-dir", tmp_path) == 0
        doc = _load(tmp_path / "fit.json")
        assert doc["mle"]["mu_hat"] == pytest.approx(0.19, abs=1e-12)
        assert doc["mle"]["sigma_hat"] == pytest.approx(8.635, abs=1e-12)
        assert doc["umvue"]["sigma_tilde"] == pytest.approx(8 * 8.635 / 7, abs=1e-12)
        assert doc["scheme"]["gammas"] == [19, 18, 17, 13, 12, 8, 7, 6]
        out = capsys.readouterr().out
        assert "0.19" in out

    @pytest.mark.parametrize("bad", ("inf", "nan"))
    def test_non_finite_time_rejected(self, tmp_path, bad):
        # a non-finite time used to give exit 0 and "sigma_hat": Infinity
        path = tmp_path / "bad.csv"
        path.write_text(f"time,removed\n0.19,0\n{bad},0\n")
        out = tmp_path / "out"
        assert _run("fit", "--data", path, "--output-dir", out) != 0
        assert not (out / "fit.json").exists()

    def test_non_utf8_sample_rejected(self, tmp_path, capsys):
        # used to end in a UnicodeDecodeError traceback, exit 1
        path = tmp_path / "bad.csv"
        path.write_bytes(b"time,removed\n0.1,0\n\xff\xfe2,0\n")
        assert _run("fit", "--data", path, "--output-dir", tmp_path / "out") == 2
        assert json.loads(capsys.readouterr().err)["error"] == "parse"

    def test_metadata_fields(self, data_csv, tmp_path):
        _run("fit", "--data", data_csv, "--output-dir", tmp_path, "--seed", "7")
        meta = _load(tmp_path / "fit.json")["metadata"]
        assert meta["seed"] == 7
        assert len(meta["config_hash"]) == 16
        assert meta["command"] == "fit"


class TestBand:
    def test_b4_reports_calibrated_constant(self, data_csv, tmp_path):
        code = _run("band", "--data", data_csv, "--method", "b4",
                    "--level", "0.9025", "--reps", "300000",
                    "--output-dir", tmp_path, "--formats", "json,csv,svg")
        assert code == 0
        doc = _load(tmp_path / "band_b4.json")
        d_exact = exact_dp(8, 19, 1.0 - 0.9025)
        assert doc["provenance"]["d_p"] == pytest.approx(d_exact, abs=1e-12)
        cal = doc["metadata"]["calibration"][0]
        assert cal["key"]["kind"] == "d_p"
        assert cal["value"] == pytest.approx(d_exact, abs=1e-12)
        assert cal["extra"]["method"] == "exact" and cal["mc_std_error"] == 0.0
        # an exact constant has no Monte-Carlo size or seed
        assert cal["key"]["reps"] is None and cal["key"]["seed"] is None
        assert (tmp_path / "band_b4.svg").read_text().startswith("<svg")
        rows = (tmp_path / "band_b4.csv").read_text().splitlines()
        assert rows[0] == "x,lower,upper"
        assert len(rows) > 1000

    def test_band_json_roundtrips(self, data_csv, tmp_path):
        _run("band", "--data", data_csv, "--method", "b1", "--level", "0.9025",
             "--output-dir", tmp_path, "--formats", "json")
        doc = _load(tmp_path / "band_b1.json")
        band = band_from_dict(doc)
        assert band.kind == "b1" and band.level == pytest.approx(0.9025)
        xs = np.linspace(-5, 50, 100)
        assert np.all(band.lower(xs) <= band.upper(xs))

    def test_reliability_and_marginal_flags(self, data_csv, tmp_path):
        _run("band", "--data", data_csv, "--method", "b1", "--level", "0.9",
             "--reliability", "--marginal", "--output-dir", tmp_path,
             "--formats", "json")
        doc = _load(tmp_path / "band_reliability-of-marginal-of-b1.json")
        band = band_from_dict(doc)
        assert not band.increasing

    @pytest.mark.parametrize("flags", (("--marginal",), ("--marginal", "--reliability")))
    def test_marginal_svg_overlay_inside_band(self, data_csv, tmp_path, flags):
        # the fitted cdf is drawn through the band's map: it used to be the
        # baseline cdf (or its reflection), partly outside a marginal band
        assert _run("band", "--data", data_csv, "--method", "b1", *flags,
                    "--formats", "svg", "--output-dir", tmp_path) == 0
        (svg,) = tmp_path.glob("band_*.svg")
        polylines = re.findall(r'<polyline points="([^"]*)"', svg.read_text())
        upper, lower, fitted = (np.array([pt.split(",") for pt in pts.split()], dtype=float)
                                for pts in polylines)
        assert np.array_equal(upper[:, 0], fitted[:, 0])
        # pixel rows grow downward; coordinates are rounded to 0.01
        assert np.all(upper[:, 1] <= fitted[:, 1] + 0.01)
        assert np.all(fitted[:, 1] <= lower[:, 1] + 0.01)

    def test_marginal_band_at_m100(self, tmp_path):
        # the marginal transform used to round to 0 across the whole grid here
        from expbands.model import CensoringScheme, LocScale, simulate_sample
        scheme = CensoringScheme(n=150, m=100, removals=tuple(i % 2 for i in range(100)))
        path = tmp_path / "m100.csv"
        write_sample_csv(simulate_sample(LocScale(2.0, 7.0), scheme, np.random.default_rng(5)), path)
        assert _run("band", "--data", path, "--method", "b1", "--marginal", "--level", "0.9025",
                    "--output-dir", tmp_path, "--formats", "csv") == 0
        rows = np.loadtxt(tmp_path / "band_marginal-of-b1.csv", delimiter=",", skiprows=1)
        lower, upper = rows[:, 1], rows[:, 2]
        assert np.any(upper > 0.5) and np.all(lower <= upper)
        assert np.all(np.diff(lower) >= 0) and np.all(np.diff(upper) >= 0)

    def test_log_transform_band_on_original_scale(self, tmp_path):
        # Pareto-type data: exponential machinery runs on the log scale and
        # the exported x column is back-transformed to the data scale
        import math
        from expbands.model import (CensoringScheme, ProgressiveSample,
                                    load_insulating_fluid)
        base = load_insulating_fluid()
        pareto = ProgressiveSample(base.scheme,
                                   tuple(math.exp(v / 4.0) for v in base.x))
        path = tmp_path / "pareto.csv"
        write_sample_csv(pareto, path)
        assert _run("band", "--data", path, "--method", "b4", "--level", "0.9",
                    "--transform", "log", "--reps", "100000",
                    "--output-dir", tmp_path, "--formats", "csv,json") == 0
        rows = [line.split(",") for line in
                (tmp_path / "band_b4.csv").read_text().splitlines()[1:]]
        xs = np.array([float(r[0]) for r in rows])
        los = np.array([float(r[1]) for r in rows])
        his = np.array([float(r[2]) for r in rows])
        assert np.all(xs > 0)                      # back on the Pareto scale
        assert np.all(np.diff(xs) > 0)
        assert np.all((0 <= los) & (los <= his) & (his <= 1))
        doc = _load(tmp_path / "band_b4.json")
        assert doc["transform"] == "log"
        # the band is read at the fitted location on the log scale, the first
        # log failure time
        assert doc["loc"] == pytest.approx(math.log(pareto.x[0]), abs=1e-12)

    def test_log_transform_svg_on_the_csv_axis(self, tmp_path):
        # the SVG used to be drawn on the log axis beside a data-axis CSV
        import math
        from expbands.model import ProgressiveSample
        base = load_insulating_fluid()
        path = tmp_path / "pareto.csv"
        write_sample_csv(ProgressiveSample(base.scheme, tuple(math.exp(v / 4.0) for v in base.x)),
                         path)
        assert _run("band", "--data", path, "--method", "b4", "--transform", "log",
                    "--output-dir", tmp_path, "--formats", "csv,svg") == 0
        xs = np.loadtxt(tmp_path / "band_b4.csv", delimiter=",", skiprows=1)[:, 0]
        svg = (tmp_path / "band_b4.svg").read_text()
        # the x-axis ticks: a pixel position and its value each
        ticks = np.array(re.findall(r'<text x="([-\d.]+)" y="[\d.]+" font-size="12" '
                                    r'text-anchor="middle">([^<]+)</text>', svg), dtype=float)
        (p0, t0), (p1, t1) = ticks[0], ticks[-1]
        # the plot spans pixels 70 to 775
        ends = t0 + (np.array([70.0, 775.0]) - p0) * (t1 - t0) / (p1 - p0)
        assert ends == pytest.approx([xs[0], xs[-1]], abs=1e-3 * (xs[-1] - xs[0]))

    def test_idempotent_outputs(self, data_csv, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            _run("band", "--data", data_csv, "--method", "b4", "--level", "0.9",
                 "--reps", "100000", "--seed", "5", "--output-dir", out,
                 "--formats", "json,csv")
        csv1 = (out1 / "band_b4.csv").read_bytes()
        csv2 = (out2 / "band_b4.csv").read_bytes()
        assert csv1 == csv2
        doc1, doc2 = _load(out1 / "band_b4.json"), _load(out2 / "band_b4.json")
        doc1["metadata"].pop("generated_at")
        doc2["metadata"].pop("generated_at")
        assert doc1 == doc2


class TestRegion:
    @pytest.mark.parametrize("method", ["c1", "c2", "c3", "c4p", "c4pp"])
    def test_all_methods_roundtrip(self, method, data_csv, tmp_path):
        level = "0.873" if method == "c3" else "0.9025"
        code = _run("region", "--data", data_csv, "--method", method,
                    "--level", level, "--reps", "150000",
                    "--output-dir", tmp_path, "--boundary-points", "64")
        assert code == 0
        doc = _load(tmp_path / f"region_{method}.json")
        region = region_from_dict(doc)
        assert len(doc["boundary"]) >= 64
        assert region.contains(doc["constants"]["mu_hat"] - 0.2,
                               doc["constants"]["sigma_hat"]).shape == ()


class TestMetricsCommand:
    def test_all_bands_table(self, data_csv, tmp_path):
        code = _run("metrics", "--data", data_csv, "--level", "0.9025",
                    "--reps", "200000", "--output-dir", tmp_path)
        assert code == 0
        doc = _load(tmp_path / "metrics.json")
        rows = {r["band"]: r for r in doc["rows"]}
        assert set(rows) == {"b1", "b2", "b3", "b4", "b4p", "b4pp"}
        assert rows["b4"]["area_infinite"] is True
        assert rows["b1"]["max_width"] == pytest.approx(0.54, abs=0.01)
        assert rows["b3"]["area"] == pytest.approx(18.87, rel=0.02)

    def test_method_subset_and_validation(self, data_csv, tmp_path):
        assert _run("metrics", "--data", data_csv, "--level", "0.9",
                    "--methods", "b1,b2", "--output-dir", tmp_path,
                    "--reps", "100000") == 0
        doc = _load(tmp_path / "metrics.json")
        assert [r["band"] for r in doc["rows"]] == ["b1", "b2"]
        assert _run("metrics", "--data", data_csv, "--methods", "b9",
                    "--output-dir", tmp_path) == 3

    def test_log_transform_rows_name_their_axis(self, tmp_path):
        # the rows of Pareto data under --transform log equal those of its log
        # sample, but for the argmax, which is mapped back to the data axis
        from expbands.model import MonotoneTransform, ProgressiveSample, g_transform
        base = load_insulating_fluid()
        pareto = ProgressiveSample(base.scheme, tuple(np.exp(np.asarray(base.x) / 4.0)))
        write_sample_csv(pareto, tmp_path / "pareto.csv")
        write_sample_csv(g_transform(pareto, MonotoneTransform("log")), tmp_path / "log.csv")
        rows = {}
        for name, extra in (("pareto", ("--transform", "log")), ("log", ())):
            assert _run("metrics", "--data", tmp_path / f"{name}.csv", "--level", "0.9025",
                        "--output-dir", tmp_path / name, *extra) == 0
            rows[name] = _load(tmp_path / name / "metrics.json")["rows"]
        for row, plain in zip(rows["pareto"], rows["log"], strict=True):
            assert (row["area_axis"], plain["area_axis"]) == ("log", "data")
            assert row["width_argmax"] == float(np.exp(plain["width_argmax"]))
            assert row["max_width"] == plain["max_width"] and row["area"] == plain["area"]

    def test_trimmed_rows_ignore_grid_points(self, data_csv, tmp_path):
        # --grid-points sizes only the output x-grid; the trimmed bands are
        # closed-form, so their metrics do not depend on it
        rows = []
        for out, extra in ((tmp_path / "default", ()), (tmp_path / "two", ("--grid-points", "2"))):
            assert _run("metrics", "--data", data_csv, "--level", "0.9025",
                        "--methods", "b4p,b4pp", "--output-dir", out, *extra) == 0
            rows.append(_load(out / "metrics.json")["rows"])
        assert rows[0] == rows[1]


class TestCalibrateCoverageSimulate:
    def test_calibrate_dp_and_cache_reuse(self, tmp_path):
        # --reps and --seed are accepted but no longer size or seed the
        # constant, so they do not split cache entries either
        values = []
        for reps, seed in (("100", "1"), (str(10**6), "2")):
            assert _run("calibrate", "--kind", "dp", "--m", "8", "--n", "19",
                        "--level", "0.9025", "--reps", reps, "--seed", seed,
                        "--output-dir", tmp_path) == 0
            values.append(_load(tmp_path / "calibration.json")["value"])
        assert values[0] == values[1] == pytest.approx(exact_dp(8, 19, 0.0975), abs=1e-12)
        assert (tmp_path / "expbands-cache.jsonl").read_text().count("\n") == 1

    def test_monte_carlo_record_not_served(self, tmp_path):
        # a record written by an earlier Monte-Carlo calibration still
        # parses, but it never answers for the exact constant
        cache = tmp_path / "expbands-cache.jsonl"
        mc_record = {"key": {"kind": "d_p", "m": 8, "n": 19, "level": 1.0 - 0.9025,
                             "reps": 1000, "seed": 7},
                     "value": 0.5, "mc_std_error": 0.01, "extra": None}
        cache.write_text(json.dumps(mc_record) + "\n")
        assert _run("calibrate", "--kind", "dp", "--m", "8", "--n", "19",
                    "--level", "0.9025", "--output-dir", tmp_path) == 0
        doc = _load(tmp_path / "calibration.json")
        assert doc["value"] == pytest.approx(0.249231, abs=1e-6)
        assert doc["extra"] == {"method": "exact"}
        assert cache.read_text().count("\n") == 2

    def test_calibrate_force_recalibrate(self, tmp_path):
        # an exact constant recomputes to itself: the flag and the config
        # key are gone, and both are rejected as unknown
        with pytest.raises(SystemExit) as exc:
            _run("calibrate", "--kind", "cp", "--m", "5", "--level", "0.9",
                 "--output-dir", tmp_path, "--force-recalibrate")
        assert exc.value.code == 2
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"force_recalibrate": True}))
        assert _run("calibrate", "--kind", "cp", "--m", "5", "--config", cfg,
                    "--output-dir", tmp_path) == 2

    def test_calibrate_p_of_tau(self, tmp_path):
        assert _run("calibrate", "--kind", "p-of-tau", "--m", "8", "--level", "0.9025",
                    "--output-dir", tmp_path) == 0
        doc = _load(tmp_path / "calibration.json")
        assert doc["value"] == pytest.approx(0.1270, abs=1e-4)
        assert doc["extra"]["c"] == pytest.approx(-11.586, abs=1e-3)
        assert doc["key"]["level"] == 0.9025 and doc["mc_std_error"] == 0.0

    def test_calibrate_dp_at_level_one_half(self, tmp_path):
        # the d_p solve passes within 1e-13 of 0.5, where the scale range's
        # lower end drops under its root bracket
        assert _run("calibrate", "--kind", "dp", "--m", "50", "--n", "50",
                    "--level", "0.5", "--output-dir", tmp_path) == 0
        assert _load(tmp_path / "calibration.json")["value"] == pytest.approx(
            exact_dp(50, 50, 0.5), abs=1e-12)

    def test_calibrate_dp_requires_n(self, tmp_path):
        assert _run("calibrate", "--kind", "dp", "--m", "8",
                    "--output-dir", tmp_path) == 3

    @pytest.mark.parametrize("kind", ("cp", "tau", "p-of-tau"))
    @pytest.mark.parametrize("m", (-1, 0, 1))
    def test_calibrate_needs_two_failures(self, tmp_path, kind, m):
        # a typed domain error (exit 3), not a ZeroDivisionError or a math
        # domain error from the pivot's supremum
        assert _run("calibrate", "--kind", kind, "--m", m, "--output-dir", tmp_path) == 3

    def test_calibrate_tau(self, tmp_path):
        assert _run("calibrate", "--kind", "tau", "--m", "8", "--level", "0.9",
                    "--reps", "200000", "--output-dir", tmp_path) == 0
        doc = _load(tmp_path / "calibration.json")
        assert 0.91 < doc["value"] < 0.94

    def test_coverage_command(self, data_csv, tmp_path):
        code = _run("coverage", "--data", data_csv, "--kind", "c1",
                    "--mu", "0", "--sigma", "1", "--level", "0.9",
                    "--replicates", "20000", "--output-dir", tmp_path)
        assert code == 0
        doc = _load(tmp_path / "coverage_c1.json")
        assert doc["coverage"] == pytest.approx(0.90, abs=0.01)

    @pytest.mark.parametrize("argv", [("coverage", "--kind", "zz", "--mu", "0", "--sigma", "1"),
                                      ("region", "--method", "zz")])
    def test_unknown_method_is_a_parse_error(self, data_csv, tmp_path, capsys, argv):
        # coverage --kind used to exit 3 with a DomainError where region
        # --method exits 2 with argparse's usage error
        with pytest.raises(SystemExit) as exc:
            _run(argv[0], "--data", data_csv, *argv[1:], "--output-dir", tmp_path)
        assert exc.value.code == 2
        assert "invalid choice: 'zz'" in capsys.readouterr().err

    def test_constants_read_a_non_integer_gamma_1(self, tmp_path):
        # sequential order statistics: gamma_1 = 6.5 stands in for n, and
        # the d_p it gives has exact level 0.9 (the d_p of n = 6 has 0.9098)
        scheme = GeneralizedScheme((6.5, 5.5, 4.0, 3.0, 2.0))
        cfg = {"cache_path": tmp_path / "cache.jsonl", "output_dir": tmp_path}
        constants, (result,) = _resolve_constants("b4", 0.9, scheme, cfg)
        assert constants["d_p"] == pytest.approx(exact_dp(5, 6.5, 0.1), abs=1e-12)
        assert ks_cdf(5, 6.5, constants["d_p"]) == pytest.approx(0.9, abs=1e-10)
        assert result.key.n == 6.5

    @pytest.mark.parametrize("kind, constant", [("c3", "c_p"), ("b3", "p_of_tau"),
                                                 ("b4", "d_p")])
    def test_coverage_at_exact_constant(self, data_csv, tmp_path, kind, constant):
        assert _run("coverage", "--data", data_csv, "--kind", kind,
                    "--mu", "0", "--sigma", "1", "--level", "0.9",
                    "--replicates", "20000", "--output-dir", tmp_path) == 0
        doc = _load(tmp_path / f"coverage_{kind}.json")
        cal = doc["metadata"]["calibration"][0]
        assert cal["key"]["kind"] == constant and cal["extra"]["method"] == "exact"
        assert abs(doc["coverage"] - 0.90) < 4 * doc["std_error"]

    @pytest.mark.parametrize("kind", METHODS)
    def test_coverage_reports_the_exact_probability(self, data_csv, tmp_path, capsys, kind):
        # the count's target, the event's probability at the constants the
        # command used, and the count's distance from it in standard errors
        assert _run("coverage", "--data", data_csv, "--kind", kind, "--mu", "0", "--sigma", "1",
                    "--level", "0.9", "--replicates", "4000", "--output-dir", tmp_path) == 0
        line = json.loads(capsys.readouterr().out)
        doc = _load(tmp_path / f"coverage_{kind}.json")
        exact = event_probability(kind, read_sample_csv(data_csv).scheme, 0.9, doc["constants"])
        assert doc["exact_probability"] == line["exact_probability"] == exact
        assert line["z"] == (doc["coverage"] - exact) / (exact * (1.0 - exact) / 4000)**0.5
        assert abs(line["z"]) < 4.0

    def test_coverage_z_of_an_all_hit_count(self, data_csv, tmp_path, capsys):
        # 5 of 5 replicates cover: the count's own binomial error, floored at
        # 1e-12 in cov(1 - cov), is 4.5e-7, and z against it read 223,607;
        # against the exact probability's error it is 0.75
        assert _run("coverage", "--data", data_csv, "--kind", "c1", "--mu", "0", "--sigma", "1",
                    "--replicates", "5", "--output-dir", tmp_path) == 0
        line = json.loads(capsys.readouterr().out)
        assert line["coverage"] == 1.0
        assert np.isfinite(line["z"]) and abs(line["z"]) < 5.0

    def test_simulate_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        for out in (out1, out2):
            assert _run("simulate", "--mu", "0", "--sigma", "2", "--n", "12",
                        "--m", "6", "--seed", "11", "--output-dir", out) == 0
        assert (out1 / "sample.csv").read_bytes() == (out2 / "sample.csv").read_bytes()
        from expbands.model import read_sample_csv
        sample = read_sample_csv(out1 / "sample.csv")
        assert sample.scheme.n == 12 and sample.scheme.m == 6

    def test_simulate_sample_is_pinned(self, tmp_path):
        # `simulate` draws from the whole-batch PCG64 generator of its
        # subseed; a change of generator or key scheme changes these bytes
        assert _run("simulate", "--mu", "0", "--sigma", "2", "--n", "12",
                    "--m", "6", "--seed", "11", "--output-dir", tmp_path) == 0
        assert (tmp_path / "sample.csv").read_text().splitlines() == [
            "time,removed", "0.1585491402365852,0", "0.25399428873223867,0",
            "0.40466227608862315,0", "0.5999070446394721,0", "0.7209464301632295,0",
            "0.7730940290995052,6"]

    def test_simulate_non_integer_removals_rejected(self, tmp_path, capsys):
        # used to end in a ValueError traceback, exit 1
        assert _run("simulate", "--mu", "0", "--sigma", "1", "--n", "10",
                    "--m", "4", "--removals", "1,x,0,3", "--output-dir", tmp_path) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "parse"

    def test_simulate_custom_removals(self, tmp_path):
        assert _run("simulate", "--mu", "0", "--sigma", "1", "--n", "10",
                    "--m", "4", "--removals", "1,2,0,3",
                    "--output-dir", tmp_path) == 0
        meta = _load(tmp_path / "sample_meta.json")
        assert meta["scheme"]["removals"] == [1, 2, 0, 3]


class TestErrorsAndConfig:
    def test_parse_error_exit_code(self, tmp_path, capsys):
        assert _run("fit", "--data", tmp_path / "missing.csv") == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "parse"

    def test_domain_error_exit_code(self, data_csv, capsys):
        assert _run("band", "--data", data_csv, "--method", "b4",
                    "--level", "1.5") == 3
        assert json.loads(capsys.readouterr().err)["error"] == "domain"

    @pytest.mark.parametrize("command", (("fit",), ("band", "--method", "b1"), ("metrics",)))
    def test_overflowing_scale_estimate_rejected(self, tmp_path, capsys, command):
        # the weighted spacings overflow: fit wrote "sigma_hat": Infinity and
        # band b1 all-NaN rows, both with exit 0, and metrics raised IndexError
        path = tmp_path / "huge.csv"
        path.write_text("time,removed\n0,0\n1e308,0\n1.7e308,1\n")
        out = tmp_path / "out"
        assert _run(*command, "--data", path, "--output-dir", out) == 3
        assert json.loads(capsys.readouterr().err)["type"] == "DegenerateSampleError"
        assert not out.exists()

    @pytest.mark.parametrize("method, points", [("b4", "0"), ("b4pp", "0"), ("b4", "-5")])
    def test_grid_points_below_two_rejected(self, data_csv, tmp_path, capsys, method, points):
        out = tmp_path / "out"
        assert _run("band", "--data", data_csv, "--method", method, "--level", "0.9",
                    "--grid-points", points, "--output-dir", out) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "domain"
        assert not out.exists()

    def test_config_file_precedence(self, data_csv, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"level": 0.8, "seed": 123,
                                   "output_dir": str(tmp_path)}))
        _run("fit", "--data", data_csv, "--config", cfg)
        meta = _load(tmp_path / "fit.json")["metadata"]
        assert meta["seed"] == 123
        # a flag beats the config file
        _run("fit", "--data", data_csv, "--config", cfg, "--seed", "9")
        assert _load(tmp_path / "fit.json")["metadata"]["seed"] == 9

    def test_unknown_config_key(self, data_csv, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"levle": 0.8}))
        assert _run("fit", "--data", data_csv, "--config", cfg,
                    "--output-dir", tmp_path) == 2

    @pytest.mark.parametrize("formats", ("jsn", "", "json,pdf"))
    def test_unknown_or_empty_formats_rejected(self, data_csv, tmp_path, capsys, formats):
        # these used to exit 0, write nothing and print "wrote  (constants: {})"
        out = tmp_path / "out"
        assert _run("band", "--data", data_csv, "--method", "b1", "--formats", formats,
                    "--output-dir", out) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "parse"
        assert not out.exists()
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"formats": formats}))
        assert _run("band", "--data", data_csv, "--method", "b1", "--config", cfg,
                    "--output-dir", out) == 2
        assert not out.exists()

    @pytest.mark.parametrize("doc", ({"level": "abc"}, {"seed": "x"}, {"grid_points": None},
                                     {"replicates": [3]}, {"seed": 7.9}, {"grid_points": 2.7}))
    def test_non_numeric_config_value_rejected(self, data_csv, tmp_path, capsys, doc):
        # these used to end in a bare ValueError or TypeError traceback, or,
        # for a fraction in an integer setting, to run truncated with exit 0
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        assert _run("fit", "--data", data_csv, "--config", cfg,
                    "--output-dir", tmp_path / "out") == 2
        assert json.loads(capsys.readouterr().err)["error"] == "parse"
        assert not (tmp_path / "out").exists()

    def test_integral_float_config_value_accepted(self, data_csv, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"reps": 1e6}))
        assert _run("fit", "--data", data_csv, "--config", cfg, "--output-dir", tmp_path / "out") == 0

    def test_cache_env_var(self, data_csv, tmp_path, monkeypatch):
        cache = tmp_path / "custom-cache.jsonl"
        monkeypatch.setenv("EXPBANDS_CACHE", str(cache))
        _run("band", "--data", data_csv, "--method", "b4", "--level", "0.9",
             "--reps", "50000", "--output-dir", tmp_path / "out")
        assert cache.exists()


class TestConfigHash:
    def test_band_hash_ignores_reps(self, data_csv, tmp_path):
        # only reproduce-paper draws Monte-Carlo replicates; a band is the
        # same for every --reps, and so is its hash
        hashes, rows = [], []
        for reps in ("100", "1000000"):
            out = tmp_path / reps
            assert _run("band", "--data", data_csv, "--method", "b1", "--reps", reps,
                        "--output-dir", out) == 0
            hashes.append(_load(out / "band_b1.json")["metadata"]["config_hash"])
            rows.append((out / "band_b1.csv").read_bytes())
        assert rows[0] == rows[1]
        assert hashes[0] == hashes[1]

    def test_metrics_hash_ignores_grid_points(self, data_csv, tmp_path):
        # --grid-points sizes only band's CSV/SVG x-grid
        hashes = []
        for out, extra in ((tmp_path / "default", ()), (tmp_path / "two", ("--grid-points", "2"))):
            assert _run("metrics", "--data", data_csv, "--methods", "b1",
                        "--output-dir", out, *extra) == 0
            hashes.append(_load(out / "metrics.json")["metadata"]["config_hash"])
        assert hashes[0] == hashes[1]

    def test_band_hash_depends_on_grid_points(self, data_csv, tmp_path):
        hashes = []
        for out, extra in ((tmp_path / "default", ()), (tmp_path / "two", ("--grid-points", "2"))):
            assert _run("band", "--data", data_csv, "--method", "b1",
                        "--output-dir", out, *extra) == 0
            hashes.append(_load(out / "band_b1.json")["metadata"]["config_hash"])
        assert hashes[0] != hashes[1]

    def test_reproduce_paper_hash_depends_on_reps(self, tmp_path):
        hashes = []
        for reps in ("100", "200"):
            out = tmp_path / reps
            assert _run("reproduce-paper", "--reps", reps, "--output-dir", out) == 0
            hashes.append(_load(out / "report.json")["metadata"]["config_hash"])
        assert hashes[0] != hashes[1]


    @staticmethod
    def _hashes(tmp_path, pattern: str, *runs) -> set:
        # the config hash of each run's one output matching `pattern`
        hashes = set()
        for i, argv in enumerate(runs):
            assert _run(*argv, "--output-dir", tmp_path / str(i)) == 0
            (out,) = (tmp_path / str(i)).glob(pattern)
            hashes.add(_load(out)["metadata"]["config_hash"])
        return hashes

    def test_fit_hash_ignores_settings_it_does_not_read(self, data_csv, tmp_path):
        common = ("fit", "--data", data_csv)
        assert len(self._hashes(tmp_path, "fit.json", common,
                                (*common, "--boundary-points", "64"),
                                (*common, "--replicates", "5"),
                                (*common, "--formats", "csv"))) == 1

    def test_metrics_hash_resolves_the_band_list(self, data_csv, tmp_path):
        # the same rows under one hash, however the bands are spelled
        common = ("metrics", "--data", data_csv)
        assert len(self._hashes(tmp_path, "metrics.json", common,
                                (*common, "--methods", "all"),
                                (*common, "--methods", "b1, b2,b3,b4,b4p,b4pp"))) == 1

    @pytest.mark.parametrize("kind", ("cp", "tau", "p-of-tau"))
    def test_calibrate_hash_ignores_n_where_unread(self, tmp_path, kind):
        # only d_p depends on n
        common = ("calibrate", "--kind", kind, "--m", "8")
        assert len(self._hashes(tmp_path, "calibration.json", common, (*common, "--n", "19"),
                                (*common, "--n", "50"))) == 1

    def test_calibrate_hash_depends_on_m_and_n(self, tmp_path):
        assert len(self._hashes(tmp_path, "calibration.json",
                                ("calibrate", "--kind", "dp", "--m", "8", "--n", "19"),
                                ("calibrate", "--kind", "dp", "--m", "50", "--n", "50"))) == 2

    def test_simulate_hash_depends_on_theta(self, tmp_path):
        common = ("simulate", "--sigma", "1", "--n", "10", "--m", "4")
        assert len(self._hashes(tmp_path, "sample_meta.json",
                                (*common, "--mu", "0"), (*common, "--mu", "5"))) == 2

    def test_band_hash_depends_on_reliability(self, data_csv, tmp_path):
        common = ("band", "--data", data_csv, "--method", "b1", "--formats", "json")
        assert len(self._hashes(tmp_path, "band_*.json",
                                common, (*common, "--reliability"))) == 2


class TestReproduceCommand:
    def test_report_written_and_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            code = _run("reproduce-paper", "--reps", "400000", "--seed", "3",
                        "--output-dir", out)
            assert code == 0
        body1 = (out1 / "report.md").read_bytes()
        body2 = (out2 / "report.md").read_bytes()
        assert body1 == body2
        doc = _load(out1 / "report.json")
        assert doc["all_passed"] is True
        checks = {c["name"] for c in doc["checks"]}
        assert "fit mu_hat" in checks and "width ordering" in checks
        assert sum(name.startswith("d 10% point, m=") for name in checks) == 28

    def test_report_cross_checks_exact_constants(self, tmp_path):
        assert _run("reproduce-paper", "--reps", "200000", "--seed", "5",
                    "--output-dir", tmp_path) == 0
        doc = _load(tmp_path / "report.json")
        rows = {row["constant"]: row for row in doc["mc_crosscheck"]}
        assert set(rows) == {"d", "c"}
        assert rows["d"]["exact"] == pytest.approx(0.249231, abs=1e-6)
        assert all(abs(row["z"]) < 5 for row in rows.values())
        # the published d-constant grid is 28 hard checks on exact constants
        table3 = [c for c in doc["checks"] if c["name"].startswith("d 10% point, m=")]
        assert len(table3) == 28 and "d_grid_audit" not in doc
        assert all(c["passed"] and c["tolerance"] == 5e-4 for c in table3)

    def test_report_strict_json_without_standard_error(self, tmp_path):
        # 100 draws are too few for a sectioning standard error: the checks
        # still pass on exact constants and the cross-check reports no z
        assert _run("reproduce-paper", "--reps", "100", "--output-dir", tmp_path) == 0
        text = (tmp_path / "report.json").read_text()
        doc = json.loads(text, parse_constant=lambda c: pytest.fail(f"non-JSON {c}"))
        assert doc["all_passed"] is True
        assert all(row["z"] is None for row in doc["mc_crosscheck"])


def test_import_leaves_thread_pool_unloaded():
    # the pivot sampler imports its thread pool on first use, so the many
    # commands that draw nothing do not pay for importing concurrent.futures
    src = str(Path(expbands.__file__).resolve().parent.parent)
    code = "import sys, expbands.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "False"


def test_region_command_leaves_numpy_ma_unloaded(tmp_path):
    # the boundary tracer's T grid is a sorted set, not np.union1d, whose
    # np.unique imports numpy.ma into every region process
    src = str(Path(expbands.__file__).resolve().parent.parent)
    data = tmp_path / "data.csv"
    write_sample_csv(load_insulating_fluid(), data)
    code = ("import json, sys, numpy; before = 'numpy.ma' in sys.modules\n"
            "from expbands.cli import main\n"
            "codes = [main(['region', '--data', sys.argv[1], '--method', method, '--level', "
            "'0.9025', '--output-dir', sys.argv[2]]) for method in sys.argv[3:]]\n"
            "print(json.dumps([before, codes, 'numpy.ma' in sys.modules]))")
    proc = subprocess.run([sys.executable, "-c", code, str(data), str(tmp_path / "out"),
                           "c1", "c2", "c3", "c4p", "c4pp"],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60, check=True)
    before, codes, after = json.loads(proc.stdout.splitlines()[-1])
    if before:
        pytest.skip("this numpy imports numpy.ma with numpy")
    assert codes == [0] * 5
    assert after is False
