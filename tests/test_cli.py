"""End-to-end subcommand tests: reports, exit codes, determinism."""

import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from combexit.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_USAGE,
    run_command,
)
from combexit.geometry import VerticalStrip, domain_from_config

STRIP = {"type": "vertical_strip", "left": -1.0, "right": 1.0}
UNIFORM_COMB = {
    "type": "comb",
    "spec": {
        "generator": {"kind": "uniform", "spacing": 1.0, "height": 1.0},
        "window_radius": 24,
        "one_sided": False,
    },
}


def write_json(path, payload):
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    return str(path)


def load(path):
    return json.loads(path.read_text(encoding="utf-8"))


def _run_python(code, cwd):
    """Run ``code`` in a fresh interpreter with this package importable and
    return the last line it printed."""
    import combexit

    src = str(Path(combexit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.splitlines()[-1]


def _loaded_after(code, cwd, modules=("scipy",)):
    """Which of ``modules`` running ``code`` in a fresh interpreter leaves
    loaded."""
    report = ("\nimport json, sys; print(json.dumps("
              f"[m for m in {list(modules)!r} if m in sys.modules]))")
    return json.loads(_run_python(code + report, cwd))


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    """No module of the package imports scipy; numpy's random module and
    the process pool load only once a command samples (in parallel)."""
    assert _loaded_after("import combexit.cli", tmp_path, (
        "scipy", "numpy.random", "concurrent.futures.process")) == []


def test_commands_leave_scipy_unloaded(tmp_path):
    """The strip moments, the walk-on-spheres disk law and the checker need
    no scipy, and both samplers hash every variate themselves, so none
    needs numpy's random module: strip-moment, a simulate with each engine,
    construct and a check of its comb each run without loading either."""
    write_json(tmp_path / "strip.json", STRIP)
    for argv in (
        ["strip-moment", "--p", "0.5", "--out", "moment.json"],
        ["simulate", "--domain", "strip.json", "--start", "0,0", "--engine",
         "WosTime", "--n", "300", "--seed", "3", "--workers", "1",
         "--out", "sim.json", "--csv", "s.csv"],
        ["simulate", "--domain", "strip.json", "--start", "0,0", "--engine",
         "EulerBridge", "--n", "300", "--seed", "3", "--workers", "1",
         "--out", "euler.json", "--csv", "e.csv"],
        ["construct", "--stages", "2", "--seed", "3", "--out", "construct.json",
         "--comb-out", "comb.json"],
        ["check", "--comb", "comb.json", "--p", "0.5", "--out", "check.json"],
    ):
        code = f"from combexit.cli import run_command; assert run_command({argv!r}) == 0"
        assert _loaded_after(code, tmp_path, ("scipy", "numpy.random")) == [], argv[0]


class TestScalarCommands:
    def test_theta0_square_value(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_command(["theta0", "--ell", "1", "--out", str(out)]) == EXIT_OK
        report = load(out)
        assert report["theta0"] == pytest.approx(0.75, abs=1e-12)
        assert report["schema_version"] == "1"
        assert report["config"]["arguments"]["ell"] == 1.0

    def test_strip_moment_second(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_command(["strip-moment", "--p", "2", "--out", str(out)])
        assert code == EXIT_OK
        assert load(out)["moment"] == pytest.approx(5.0 / 3.0, abs=1e-10)

    def test_strip_moment_high_fractional_order(self, tmp_path):
        # E[tau^p] is increasing and log-convex in p, so m(70.5) lies between
        # m(70) and the geometric mean of m(70) and m(71)
        from strip_oracles import _interval_moment_exact

        out = tmp_path / "r.json"
        code = run_command(["strip-moment", "--p", "70.5", "--out", str(out)])
        assert code == EXIT_OK
        m70, m71 = (float(_interval_moment_exact(k)) for k in (70, 71))
        assert m70 < load(out)["moment"] < math.sqrt(m70 * m71)

    @pytest.mark.parametrize("p", ["200", "177.9", "1e308"])
    def test_strip_moment_out_of_float_range(self, tmp_path, capsys, p):
        # each moment overflows a float (from order 177.81 on); 1e308 must be
        # refused before any work
        out = tmp_path / "r.json"
        t0 = time.perf_counter()
        code = run_command(["strip-moment", "--p", p, "--out", str(out)])
        assert time.perf_counter() - t0 < 1.0
        assert code == EXIT_USAGE
        assert "moment order" in capsys.readouterr().err
        assert not out.exists()

    def test_check_uniform_comb_all_moments(self, tmp_path):
        comb = write_json(tmp_path / "uniform.json", UNIFORM_COMB)
        out = tmp_path / "r.json"
        code = run_command(["check", "--comb", comb, "--p", "3", "--out", str(out)])
        assert code == EXIT_OK
        report = load(out)
        assert report["status"] == "FiniteCertified"
        assert report["bound_on_moment_root"] > 0.0
        assert comb in report["config"]["inputs"]

    def test_check_unconverged_polynomial_tail_is_inconclusive(self, tmp_path):
        # ell = 20 puts theta0 within 3e-14 of 1, so the tail sum spends its
        # whole block budget; that is a report, not a crash
        spec = {"generator": {"kind": "polynomial", "degree": 2.0,
                              "coefficient": 0.05, "height": 1.0},
                "window_radius": 10}
        comb = write_json(tmp_path / "poly.json", spec)
        out = tmp_path / "r.json"
        code = run_command(["check", "--comb", comb, "--p", "1", "--out", str(out)])
        assert code == EXIT_OK
        report = load(out)
        assert report["status"] == "Inconclusive"
        assert report["bound_on_moment_root"] is None
        assert "did not converge within the budget of 20000 blocks" in report["reason"]

    @pytest.mark.parametrize("p", ["1e-20", "1e-300"])
    def test_check_at_tiny_orders_reports_an_infinite_bound(self, tmp_path, p):
        # m_p^(1/p) overflows a float power there; the series S^(1/p) is
        # infinite too, so the certificate stands with no finite bound
        comb = write_json(tmp_path / "uniform.json", UNIFORM_COMB)
        out = tmp_path / "r.json"
        code = run_command(["check", "--comb", comb, "--p", p, "--out", str(out)])
        assert code == EXIT_OK
        report = load(out)
        assert report["status"] == "FiniteCertified"
        assert report["bound_on_moment_root"] is None

    def test_check_all_walls_comb_is_inconclusive(self, tmp_path):
        # both slits reach the axis, so ell = 0, where theta0 is undefined:
        # a report, not a usage error
        spec = {"generator": {"kind": "explicit",
                              "slits": [[0.0, 0.0], [2.0, 0.0]]},
                "one_sided": True}
        comb = write_json(tmp_path / "walls.json", spec)
        out = tmp_path / "r.json"
        code = run_command(["check", "--comb", comb, "--p", "1", "--out", str(out)])
        assert code == EXIT_OK
        report = load(out)
        assert report["status"] == "Inconclusive"
        assert report["bound_on_moment_root"] is None
        assert "aspect ratio ell is 0" in report["reason"]

    def test_check_reads_a_bare_comb_spec(self, tmp_path):
        # the README's second form: the comb spec without the domain wrapper
        reports = []
        for name, config in (("domain", UNIFORM_COMB), ("spec", UNIFORM_COMB["spec"])):
            out = tmp_path / f"{name}-r.json"
            comb = write_json(tmp_path / f"{name}.json", config)
            assert run_command(["check", "--comb", comb, "--p", "3",
                                "--out", str(out)]) == EXIT_OK
            reports.append(load(out))
        assert reports[0]["status"] == reports[1]["status"] == "FiniteCertified"
        assert (reports[0]["bound_on_moment_root"]
                == reports[1]["bound_on_moment_root"])


class TestSimulate:
    def test_same_seed_gives_identical_csv_bytes(self, tmp_path):
        domain = write_json(tmp_path / "strip.json", STRIP)
        csvs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.json"
            csv = tmp_path / f"{tag}.csv"
            code = run_command(
                [
                    "simulate", "--domain", domain, "--start", "0,0",
                    "--n", "2000", "--engine", "WosTime", "--seed", "9",
                    "--out", str(out), "--csv", str(csv),
                ]
            )
            assert code == EXIT_OK
            csvs.append(csv.read_bytes())
        assert csvs[0] == csvs[1]

    def test_report_carries_resolved_params_and_fingerprints(self, tmp_path):
        domain = write_json(tmp_path / "strip.json", STRIP)
        out = tmp_path / "r.json"
        csv = tmp_path / "s.csv"
        run_command(
            [
                "simulate", "--domain", domain, "--start", "0,0",
                "--n", "500", "--engine", "EulerBridge", "--seed", "1",
                "--out", str(out), "--csv", str(csv),
            ]
        )
        report = load(out)
        # default step: (strip half-width)^2 / 25
        assert report["resolved_params"]["step_h"] == pytest.approx(1.0 / 25.0)
        assert report["n"] == 500
        assert len(report["samples_fingerprint"]) == 64
        assert len(report["domain_fingerprint"]) == 64
        header = csv.read_text().splitlines()[0]
        assert header == "index,tau,u,v,censored,passages,steps"

    def test_fingerprint_is_the_written_files_sha256(self, tmp_path):
        # 8193 rows take two chunks of the streamed writer
        domain = write_json(tmp_path / "strip.json", STRIP)
        out, csv = tmp_path / "r.json", tmp_path / "s.csv"
        code = run_command(
            [
                "simulate", "--domain", domain, "--start", "0,0",
                "--n", "8193", "--engine", "WosTime", "--seed", "3",
                "--out", str(out), "--csv", str(csv),
            ]
        )
        assert code == EXIT_OK
        data = csv.read_bytes()
        assert data.count(b"\n") == 8194
        assert load(out)["samples_fingerprint"] == hashlib.sha256(data).hexdigest()

    def test_worker_env_var_matches_explicit_flag(self, tmp_path, monkeypatch):
        domain = write_json(tmp_path / "strip.json", STRIP)
        kwargs = [
            "simulate", "--domain", domain, "--start", "0,0",
            "--n", "9000", "--engine", "WosTime", "--seed", "4",
        ]
        monkeypatch.setenv("COMBEXIT_WORKERS", "3")
        run_command(kwargs + ["--out", str(tmp_path / "e.json"),
                              "--csv", str(tmp_path / "e.csv")])
        monkeypatch.delenv("COMBEXIT_WORKERS")
        run_command(kwargs + ["--workers", "1",
                              "--out", str(tmp_path / "w.json"),
                              "--csv", str(tmp_path / "w.csv")])
        assert (tmp_path / "e.csv").read_bytes() == (tmp_path / "w.csv").read_bytes()

    def test_window_escape_reports_and_exits_three(self, tmp_path):
        comb = dict(UNIFORM_COMB)
        comb["spec"] = dict(comb["spec"], window_radius=3)
        domain = write_json(tmp_path / "comb.json", comb)
        out = tmp_path / "r.json"
        csv = tmp_path / "s.csv"
        code = run_command(
            [
                "simulate", "--domain", domain, "--start", "0,0",
                "--n", "400", "--engine", "WosTime", "--time-cap", "1000",
                "--out", str(out), "--csv", str(csv),
            ]
        )
        assert code == EXIT_INCONCLUSIVE
        assert load(out)["error"]["kind"] == "window_escape"
        # failed runs leave no partial sample file behind
        assert not csv.exists()
        assert not list(tmp_path.glob("*.tmp"))


@pytest.fixture(scope="module")
def sample_csv(tmp_path_factory):
    root = tmp_path_factory.mktemp("samples")
    domain = write_json(root / "strip.json", STRIP)
    csv = root / "s.csv"
    run_command(
        [
            "simulate", "--domain", domain, "--start", "0,0",
            "--n", "4000", "--engine", "WosTime", "--seed", "2",
            "--out", str(root / "r.json"), "--csv", str(csv),
        ]
    )
    return csv


class TestSampleConsumers:
    def test_tail_report(self, tmp_path, sample_csv):
        out = tmp_path / "t.json"
        code = run_command(
            ["tail", "--samples", str(sample_csv), "--method", "hill",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        report = load(out)
        assert report["method"] == "hill"
        assert report["ci_95"][0] < report["H_hat"] < report["ci_95"][1]

    def test_verdict_on_strip_half_moment(self, tmp_path, sample_csv):
        out = tmp_path / "v.json"
        code = run_command(
            ["verdict", "--samples", str(sample_csv), "--p", "0.5",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        # every strip moment is finite and the tail is far from 1/2
        assert load(out)["verdict"] == "FiniteLikely"

    def test_verdict_refuses_infinite_p(self, tmp_path, sample_csv, capsys):
        out = tmp_path / "v.json"
        code = run_command(
            ["verdict", "--samples", str(sample_csv), "--p", "inf",
             "--out", str(out)]
        )
        assert code == EXIT_USAGE
        assert "moment order p must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["tail"], ["verdict", "--p", "1"]],
                             ids=["tail", "verdict"])
    def test_samples_file_is_opened_once(self, tmp_path, sample_csv, argv):
        # The report fingerprints the bytes the estimate was parsed from: a
        # second open could read a file replaced in between.
        argv = argv + ["--samples", str(sample_csv), "--out", "r.json"]
        code = "\n".join([
            "import os, sys",
            "from combexit.cli import run_command",
            "opens = []",
            "def hook(event, args):",
            "    if (event == 'open' and isinstance(args[0], (str, os.PathLike))",
            f"            and os.fspath(args[0]) == {str(sample_csv)!r}):",
            "        opens.append(args[1])",
            "sys.addaudithook(hook)",
            f"rc = run_command({argv!r})",
            "print(rc, len(opens))",
        ])
        assert _run_python(code, tmp_path) == f"{EXIT_OK} 1"
        inputs = load(tmp_path / "r.json")["config"]["inputs"]
        assert inputs == {str(sample_csv): hashlib.sha256(
            sample_csv.read_bytes()).hexdigest()}

    def test_missing_column_is_a_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n", encoding="utf-8")
        code = run_command(["tail", "--samples", str(bad)])
        assert code == EXIT_USAGE
        assert "column" in capsys.readouterr().err

    def _reject_second_row(self, tmp_path, capsys, tau, censored):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "index,tau,u,v,censored,passages,steps\n"
            "0,1.5,1.0,0.25,0,,12\n"
            f"1,{tau},-1.0,0.5,{censored},,7\n",
            encoding="utf-8",
        )
        code = run_command(["tail", "--samples", str(bad),
                            "--out", str(tmp_path / "t.json")])
        assert code == EXIT_USAGE
        assert "row 2" in capsys.readouterr().err
        assert not (tmp_path / "t.json").exists()

    # what follows the header, and the row the message names: a row with
    # missing fields, a censor flag 1.0 (also after a blank line, which
    # does not count), a negative tau, no rows, a tau that float() accepts,
    # and CR line endings
    @pytest.mark.parametrize("body, where", [
        ("\n0,1.5,1.0,0.25,0,,12\n1,2.5\n", "row 2:"),
        ("\n0,1.5,1.0,0.25,0,,12\n1,2.5,-1.0,0.5,1.0,,7\n", "row 2:"),
        ("\n\n0,1.5,1.0,0.25,0,,12\n\n1,2.5,-1.0,0.5,1.0,,7\n", "row 2:"),
        ("\n0,1.5,1.0,0.25,0,,12\n1,-2.0,-1.0,0.5,0,,7\n", "row 2:"),
        ("\n", "no rows"),
        ("\n0,1_5,1.0,0.25,0,,12\n", "row 1:"),
        ("\r0,1.5,1.0,0.25,0,,12\r", "header"),
    ], ids=["missing-fields", "censored-1.0", "censored-1.0-after-blank",
            "tau-negative", "header-only", "tau-1_5", "cr-only"])
    def test_malformed_sample_file_is_a_usage_error(self, tmp_path, capsys, body,
                                                    where):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(("index,tau,u,v,censored,passages,steps" + body).encode())
        code = run_command(["tail", "--samples", str(bad),
                            "--out", str(tmp_path / "t.json")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"sample file {bad}" in err and where in err
        assert not (tmp_path / "t.json").exists()

    def test_nan_exit_time_is_a_usage_error(self, tmp_path, capsys):
        self._reject_second_row(tmp_path, capsys, "nan", 0)

    def test_negative_exit_time_is_a_usage_error(self, tmp_path, capsys):
        self._reject_second_row(tmp_path, capsys, "-0.5", 0)

    def test_censor_flag_outside_zero_one_is_a_usage_error(self, tmp_path, capsys):
        self._reject_second_row(tmp_path, capsys, "2.0", 2)


class TestConstruct:
    def test_emitted_comb_feeds_check(self, tmp_path):
        out = tmp_path / "c.json"
        comb_out = tmp_path / "comb.json"
        code = run_command(
            ["construct", "--stages", "2", "--seed", "0",
             "--out", str(out), "--comb-out", str(comb_out)]
        )
        assert code == EXIT_OK
        report = load(out)
        assert [t["stage"] for t in report["trace"]] == [1, 2]
        assert all(t["lower_bound"] > t["stage"] for t in report["trace"])

        check_out = tmp_path / "chk.json"
        code = run_command(
            ["check", "--comb", str(comb_out), "--p", "0.5",
             "--out", str(check_out)]
        )
        assert code == EXIT_OK
        assert load(check_out)["status"] == "Inconclusive"

    def test_unreachable_stage_count_exits_two_at_once(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        t0 = time.perf_counter()
        code = run_command(
            ["construct", "--stages", "1000000", "--out", str(out),
             "--comb-out", str(tmp_path / "comb.json")]
        )
        assert time.perf_counter() - t0 < 1.0
        assert code == EXIT_USAGE
        assert "at most 327 stages" in capsys.readouterr().err
        assert not out.exists()

    def test_removed_search_flags_are_usage_errors(self, tmp_path):
        for flag in ("--budget", "--samples-per-eval", "--time-cap"):
            code = run_command(
                ["construct", "--stages", "1", flag, "1",
                 "--out", str(tmp_path / "c.json")]
            )
            assert code == EXIT_USAGE, flag


class TestXval:
    def test_strip_engines_agree(self, tmp_path):
        domain = write_json(tmp_path / "strip.json", STRIP)
        out = tmp_path / "x.json"
        code = run_command(
            ["xval", "--domain", domain, "--n", "6000", "--seed", "3",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        report = load(out)
        assert report["agree_99"] is True
        assert all(pt["within_band"] for pt in report["points"])
        assert report["worst_band_fraction"] <= 1.0


    def test_window_escape_reports_and_exits_three(self, tmp_path):
        comb = dict(UNIFORM_COMB)
        comb["spec"] = dict(comb["spec"], window_radius=2)
        domain = write_json(tmp_path / "comb.json", comb)
        out = tmp_path / "x.json"
        code = run_command(
            ["xval", "--domain", domain, "--start", "0.5,0", "--n", "2000",
             "--out", str(out)]
        )
        assert code == EXIT_INCONCLUSIVE
        report = load(out)
        assert report["error"]["kind"] == "window_escape"
        assert "window_radius" in report["error"]["message"]
        assert report["config"]["arguments"]["n"] == 2000


DOMAIN_CONFIGS = {
    "vertical_strip": STRIP,
    "rectangle": {"type": "rectangle", "half_width": 1.0, "half_height": 0.5},
    "wedge": {"type": "wedge", "angle": 1.0},
    "half_plane": {"type": "half_plane"},
    "comb": UNIFORM_COMB,
}


class TestExitCodes:
    @pytest.mark.parametrize(
        "kind,missing",
        [(kind, name) for kind, cfg in sorted(DOMAIN_CONFIGS.items())
         for name in cfg],
    )
    def test_missing_domain_field_is_a_usage_error(self, tmp_path, capsys,
                                                   kind, missing):
        cfg = {k: v for k, v in DOMAIN_CONFIGS[kind].items() if k != missing}
        domain = write_json(tmp_path / "d.json", cfg)
        code = run_command(
            ["simulate", "--domain", domain, "--start", "0.5,0.5", "--n", "10",
             "--out", str(tmp_path / "r.json")]
        )
        assert code == EXIT_USAGE
        assert repr(missing) in capsys.readouterr().err

    def test_readme_domain_example_parses(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        example = re.search(r'`(\{"type": "vertical_strip"[^`]*)`',
                            readme.read_text(encoding="utf-8"))
        assert example is not None
        assert domain_from_config(json.loads(example.group(1))) == \
            VerticalStrip(-1.0, 1.0)


    def test_non_finite_start_is_a_usage_error(self, tmp_path, capsys):
        domain = write_json(tmp_path / "half_plane.json", {"type": "half_plane"})
        code = run_command(
            ["simulate", "--domain", domain, "--start", "nan,1", "--n", "10",
             "--out", str(tmp_path / "r.json")]
        )
        assert code == EXIT_USAGE
        assert "start point (nan, 1) is not finite" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("engine", ["EulerBridge", "WosTime"])
    @pytest.mark.parametrize("walls,start,named", [
        ("\"left\": -Infinity, \"right\": Infinity", "0,0", "'left'"),
        ("\"left\": 0, \"right\": Infinity", "0.5,0", "'right'"),
    ])
    def test_non_finite_domain_parameter_is_a_usage_error(
            self, tmp_path, capsys, engine, walls, start, named):
        # json reads Infinity; the domain refuses it before any sampling
        domain = tmp_path / "strip.json"
        domain.write_text('{"type": "vertical_strip", ' + walls + "}\n",
                          encoding="utf-8")
        code = run_command(
            ["simulate", "--domain", str(domain), "--start", start, "--n", "10",
             "--engine", engine, "--out", str(tmp_path / "r.json")]
        )
        assert code == EXIT_USAGE
        assert f"{named} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()
        assert not (tmp_path / "r-samples.csv").exists()

    def test_fractional_window_radius_is_a_usage_error(self, tmp_path, capsys):
        # int() would truncate 2.7 and certify the J = 2 comb
        comb = dict(UNIFORM_COMB)
        comb["spec"] = dict(comb["spec"], window_radius=2.7)
        out = tmp_path / "r.json"
        code = run_command(["check", "--comb", write_json(tmp_path / "comb.json", comb),
                            "--p", "1", "--out", str(out)])
        assert code == EXIT_USAGE
        assert "'window_radius' must be an integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind,field,value", [
        ("rectangle", "half_width", "1"),
        ("rectangle", "half_width", [1]),
        ("rectangle", "half_width", None),
        ("rectangle", "half_width", 10**400),
        ("comb", "window_radius", "3.0"),
        ("comb", "window_radius", [3]),
    ], ids=["string", "list", "null", "huge-integer", "radius-string",
            "radius-list"])
    def test_numeric_field_must_be_a_json_number(self, tmp_path, capsys,
                                                 kind, field, value):
        # float("1") is 1.0: a string once built Rectangle(1.0, 0.5)
        cfg = dict(DOMAIN_CONFIGS[kind])
        if kind == "comb":
            cfg["spec"] = dict(cfg["spec"], **{field: value})
        else:
            cfg[field] = value
        out = tmp_path / "r.json"
        code = run_command(
            ["simulate", "--domain", write_json(tmp_path / "d.json", cfg),
             "--start", "0.5,0.5", "--n", "10", "--out", str(out)])
        assert code == EXIT_USAGE
        assert f"{field!r} must be a number" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_slit_list_is_a_usage_error(self, tmp_path, capsys):
        spec = {"generator": {"kind": "explicit", "slits": [1, 2]},
                "one_sided": True}
        out = tmp_path / "r.json"
        code = run_command(["check", "--comb", write_json(tmp_path / "comb.json", spec),
                            "--p", "1", "--out", str(out)])
        assert code == EXIT_USAGE
        assert "'slits' must be a list" in capsys.readouterr().err
        assert not out.exists()

    def test_string_one_sided_is_a_usage_error(self, tmp_path, capsys):
        # "false" is truthy: it once certified the symmetrized one-sided comb
        comb = dict(UNIFORM_COMB)
        comb["spec"] = dict(comb["spec"], one_sided="false")
        out = tmp_path / "r.json"
        code = run_command(["check", "--comb", write_json(tmp_path / "comb.json", comb),
                            "--p", "1", "--out", str(out)])
        assert code == EXIT_USAGE
        assert "'one_sided' must be a boolean" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("start", ["0", "0,0,0"])
    def test_start_needs_two_coordinates(self, tmp_path, capsys, start):
        domain = write_json(tmp_path / "strip.json", STRIP)
        out = tmp_path / "r.json"
        code = run_command(["simulate", "--domain", domain, "--start", start,
                            "--n", "10", "--out", str(out)])
        assert code == EXIT_USAGE
        assert f"start must be 'U,V', got {start!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("raw, message", [
        ("x", "COMBEXIT_WORKERS='x' is not an integer"),
        ("0", "COMBEXIT_WORKERS must be at least 1, got 0"),
    ])
    def test_bad_worker_env_var(self, tmp_path, capsys, monkeypatch, raw, message):
        monkeypatch.setenv("COMBEXIT_WORKERS", raw)
        domain = write_json(tmp_path / "strip.json", STRIP)
        out = tmp_path / "r.json"
        code = run_command(["simulate", "--domain", domain, "--start", "0,0",
                            "--n", "10", "--out", str(out)])
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("config, message", [
        (STRIP, "describes a vertical_strip, not a comb"),
        ({"spacing": 1.0}, "expected a domain config or a comb spec"),
    ])
    def test_check_needs_a_comb(self, tmp_path, capsys, config, message):
        comb = write_json(tmp_path / "comb.json", config)
        out = tmp_path / "r.json"
        code = run_command(["check", "--comb", comb, "--p", "1", "--out", str(out)])
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_xval_with_every_sample_at_the_cap(self, tmp_path, capsys):
        domain = write_json(tmp_path / "strip.json", STRIP)
        out = tmp_path / "x.json"
        code = run_command(["xval", "--domain", domain, "--n", "200",
                            "--time-cap", "1e-9", "--out", str(out)])
        assert code == EXIT_USAGE
        assert "no usable grid points" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_xval_needs_a_grid_point(self, tmp_path, capsys, points):
        # refused before sampling, not as exit times collapsing onto the cap
        domain = write_json(tmp_path / "half.json", {"type": "half_plane"})
        out = tmp_path / "x.json"
        code = run_command(["xval", "--domain", domain, "--start", "0,1",
                            "--n", "200", "--grid-points", points,
                            "--out", str(out)])
        assert code == EXIT_USAGE
        assert "grid_points must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_flag(self, capsys):
        assert run_command(["theta0", "--frequency", "1"]) == EXIT_USAGE
        capsys.readouterr()

    def test_malformed_json_names_the_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"type": "vertical_strip", "left": -1.0\n', encoding="utf-8")
        code = run_command(
            ["simulate", "--domain", str(bad), "--start", "0,0", "--n", "10"]
        )
        assert code == EXIT_USAGE
        assert "line" in capsys.readouterr().err

    def test_missing_domain_file(self, tmp_path, capsys):
        code = run_command(
            ["simulate", "--domain", str(tmp_path / "none.json"),
             "--start", "0,0", "--n", "10"]
        )
        assert code == EXIT_USAGE
        capsys.readouterr()

    def test_validation_error_from_module_preconditions(self, tmp_path, capsys):
        domain = write_json(tmp_path / "strip.json", STRIP)
        # start outside the domain is caught before any sampling
        code = run_command(
            ["simulate", "--domain", domain, "--start", "5,0", "--n", "10",
             "--out", str(tmp_path / "r.json")]
        )
        assert code == EXIT_USAGE
        capsys.readouterr()
        assert not (tmp_path / "r.json").exists()


def _run_check(tmp_path, config, *flags):
    """``check`` on ``config`` with warnings raised as errors: its exit code
    and the report path."""
    comb = write_json(tmp_path / "comb.json", config)
    out = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_command(["check", "--comb", comb, "--out", str(out), *flags])
    return code, out


class TestOverflow:
    """Comb configs whose numbers leave the floats: a usage error or a
    report, never a traceback or a numpy warning."""

    @pytest.mark.parametrize("generator, radius", [
        ({"kind": "geometric", "ratio": 1e10, "height": 1}, 40),
        ({"kind": "geometric", "ratio": 1e300, "height": 1}, 2),
        ({"kind": "polynomial", "degree": 500, "coefficient": 1, "height": 1}, 5),
    ], ids=["geometric-1e10", "geometric-1e300", "polynomial-500"])
    def test_check_refuses_abscissas_beyond_the_floats(
            self, tmp_path, capsys, generator, radius):
        code, out = _run_check(tmp_path, {"generator": generator,
                                          "window_radius": radius}, "--p", "1")
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{generator['kind']} comb" in err
        assert f"window_radius={radius}" in err
        assert not out.exists()

    def test_simulate_refuses_abscissas_beyond_the_floats(self, tmp_path, capsys):
        domain = write_json(tmp_path / "d.json", {"type": "comb", "spec": {
            "generator": {"kind": "geometric", "ratio": 1e10, "height": 1},
            "window_radius": 40}})
        out = tmp_path / "r.json"
        code = run_command(["simulate", "--domain", domain, "--start", "0.5,0",
                            "--n", "10", "--out", str(out)])
        assert code == EXIT_USAGE
        assert "window_radius=40" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "r-samples.csv").exists()

    def test_overflowing_polynomial_tail_is_inconclusive(self, tmp_path):
        # 5**500 is beyond the floats: the tail stops at its first block
        # instead of spending the whole budget on inf and nan terms
        code, out = _run_check(tmp_path, {
            "generator": {"kind": "polynomial", "degree": 500,
                          "coefficient": 1, "height": 1},
            "window_radius": 3}, "--p", "1")
        assert code == EXIT_OK
        report = load(out)
        assert report["status"] == "Inconclusive"
        assert report["bound_on_moment_root"] is None
        assert "overflows the floats" in report["reason"]

    def test_geometric_ratio_beyond_1e154_is_inconclusive(self, tmp_path):
        # the squared ratio is beyond the floats: no passage factor beats it
        code, out = _run_check(tmp_path, {
            "generator": {"kind": "geometric", "ratio": 1e200, "height": 1},
            "window_radius": 1}, "--p", "1")
        assert code == EXIT_OK
        report = load(out)
        assert report["status"] == "Inconclusive"
        assert "gives weight inf >= 1" in report["reason"]

    @pytest.mark.parametrize("flags", [["--p", "7e-4"],
                                       ["--p", "3e-4", "--refined"]],
                             ids=["theta0", "refined"])
    def test_geometric_weight_without_a_float_value_is_inconclusive(
            self, tmp_path, flags):
        # theta^(1/p) underflows to 0 and the squared ratio is inf, so the
        # term weight reads nan; the true weight is about 1e170, far above 1
        code, out = _run_check(tmp_path, {
            "generator": {"kind": "geometric", "ratio": 1e300, "height": 1},
            "window_radius": 1}, *flags)
        assert code == EXIT_OK
        report = load(out)
        assert report["status"] == "Inconclusive"
        assert "the term weight, has no float value" in report["reason"]

    def test_geometric_comb_at_tiny_orders_reports_an_infinite_bound(
            self, tmp_path):
        # (1/theta)^(1/(2p)) passes the floats: every finite ratio is below it
        code, out = _run_check(tmp_path, {
            "generator": {"kind": "geometric", "ratio": 2, "height": 1},
            "window_radius": 3}, "--p", "1e-4")
        assert code == EXIT_OK
        report = load(out)
        assert report["status"] == "FiniteCertified"
        assert report["bound_on_moment_root"] is None
        assert "below the certifiable ratio inf" in report["reason"]

    @pytest.mark.parametrize("spec", [
        {"generator": {"kind": "uniform", "spacing": 1e300, "height": 1},
         "window_radius": 3},
        {"generator": {"kind": "explicit",
                       "slits": [[-1e308, 1], [0, 1], [1e308, 1]]}},
        {"generator": {"kind": "explicit",
                       "slits": [[-1e-320, 1e300], [0, 1e300], [1e-320, 1e300]]}},
    ], ids=["uniform-1e300", "explicit-1e308", "explicit-tiny-gaps"])
    def test_check_warns_nothing_on_extreme_combs(self, tmp_path, spec):
        code, out = _run_check(tmp_path, spec, "--p", "1")
        assert code == EXIT_OK
        assert load(out)["status"] in ("FiniteCertified", "Inconclusive")

    def test_theta0_warns_nothing_near_zero(self, tmp_path):
        out = tmp_path / "t.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_command(["theta0", "--ell", "1e-308",
                                "--out", str(out)]) == EXIT_OK
        assert load(out)["theta0"] == 0.5


class TestConfigShapes:
    @pytest.mark.parametrize("config, named", [
        ({"generator": 5}, "comb spec field 'generator' must be a JSON object"),
        ({"generator": [1]}, "comb spec field 'generator' must be a JSON object"),
        ({"type": "comb", "spec": [1]}, "comb spec must be a JSON object"),
        ({"type": "comb", "spec": "x"}, "comb spec must be a JSON object"),
    ], ids=["generator-int", "generator-list", "spec-list", "spec-string"])
    def test_non_object_is_named(self, tmp_path, capsys, config, named):
        code, out = _run_check(tmp_path, config, "--p", "1")
        assert code == EXIT_USAGE
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_slit_names_slits(self, tmp_path, capsys):
        # a JSON NaN parses as a number; the comb refuses it by its field
        code, out = _run_check(tmp_path, {"generator": {
            "kind": "explicit", "slits": [[0, 1], [math.nan, 1]]},
            "one_sided": True}, "--p", "1")
        assert code == EXIT_USAGE
        assert "field 'slits' has a value that is not finite" in (
            capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("config", [5, [1], "x"])
    def test_non_object_domain_config_is_named(self, tmp_path, capsys, config):
        out = tmp_path / "r.json"
        code = run_command(["simulate", "--domain", write_json(tmp_path / "d.json", config),
                            "--start", "0,0", "--n", "10", "--out", str(out)])
        assert code == EXIT_USAGE
        assert "domain config must be a JSON object" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("engine, flag, value, unread", [
    ("WosTime", "--step-h", "1e9", "step_h"),
    ("EulerBridge", "--shell-eps", "50", "shell_eps"),
])
def test_unread_engine_parameter_resolves_to_null(tmp_path, engine, flag, value,
                                                 unread):
    # the other engine's parameter is never read, so it is not reported as
    # resolved (50 is not even a valid shell_eps on the unit strip)
    out = tmp_path / "r.json"
    code = run_command(["simulate", "--domain", write_json(tmp_path / "s.json", STRIP),
                        "--start", "0,0", "--n", "10", "--engine", engine,
                        flag, value, "--out", str(out)])
    assert code == EXIT_OK
    report = load(out)
    assert report["resolved_params"][unread] is None
    assert report["config"]["arguments"]["requested_params"][unread] == float(value)


# Numbers spread log-wide over [1e-300, 1e300]; a spoiled one is 0, a JSON
# constant NaN or +-Infinity, or a negative one.
_LOG_WIDE = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
_SPOILED = (st.sampled_from([0.0, math.nan, math.inf, -math.inf])
            | _LOG_WIDE.map(lambda x: -x))
_PARAMETRIC_FIELDS = {"uniform": ("spacing", "height"),
                      "polynomial": ("degree", "coefficient", "height"),
                      "geometric": ("ratio", "height")}


@st.composite
def _comb_specs(draw):
    """Comb spec configs of every generator kind, one- and two-sided.
    Explicit slits are laid out from x_0 = 0 by log-wide gaps, or placed at
    random, and infer their ``window_radius``; a parametric comb's is in
    [1, 32].  About one spec in four has a number spoiled, and one in four
    its ``window_radius`` absent or in [0, 32]."""
    one_sided = draw(st.booleans())
    kind = draw(st.sampled_from(["explicit", *_PARAMETRIC_FIELDS]))
    if kind == "explicit":
        heights = draw(st.lists(_LOG_WIDE, min_size=2, max_size=6))
        if draw(st.booleans()):
            xs = draw(st.lists(_LOG_WIDE | _SPOILED, min_size=len(heights),
                               max_size=len(heights)))
        else:
            gaps = draw(st.lists(_LOG_WIDE, min_size=len(heights) - 1,
                                 max_size=len(heights) - 1))
            xs = list(itertools.accumulate(gaps, initial=0.0))
        slits = [[x, b] for x, b in zip(xs, heights)]
        if not one_sided:
            slits = [[-x, b] for x, b in slits[:0:-1]] + slits
        generator = {"kind": kind, "slits": slits}
        numbers = [(slit, i) for slit in slits for i in (0, 1)]
    else:
        generator = {"kind": kind, **{name: draw(_LOG_WIDE)
                                      for name in _PARAMETRIC_FIELDS[kind]}}
        numbers = [(generator, name) for name in _PARAMETRIC_FIELDS[kind]]
    spec = {"generator": generator, "one_sided": one_sided}
    if kind != "explicit":
        spec["window_radius"] = draw(st.integers(1, 32))
    spoil = draw(st.integers(0, 3))
    if spoil == 0:
        holder, key = draw(st.sampled_from(numbers))
        holder[key] = draw(_SPOILED)
    elif spoil == 1:
        spec.pop("window_radius", None)
        radius = draw(st.none() | st.integers(0, 32))
        if radius is not None:
            spec["window_radius"] = radius
    return spec


@settings(max_examples=200, deadline=None, derandomize=True)
@given(spec=_comb_specs(),
       p=st.floats(1e-3, 8.0, exclude_min=True, exclude_max=True),
       refined=st.booleans())
def test_check_exits_zero_or_two_on_any_comb_spec(tmp_path_factory, spec, p,
                                                  refined):
    tmp_path = tmp_path_factory.mktemp("check")
    code, out = _run_check(tmp_path, spec, "--p", repr(p),
                           *(["--refined"] if refined else []))
    assert code in (EXIT_OK, EXIT_USAGE)
    if code == EXIT_USAGE:
        assert not out.exists()
    else:
        report = load(out)
        assert report["status"] in ("FiniteCertified", "Inconclusive")
        assert "nan" not in report["reason"]

_GUARD_FILES = {"strip.json": STRIP, "comb.json": UNIFORM_COMB,
                "esc2.json": {"type": "comb", "spec": dict(
                    UNIFORM_COMB["spec"], window_radius=2)},
                "esc3.json": {"type": "comb", "spec": dict(
                    UNIFORM_COMB["spec"], window_radius=3)}}
_SIMULATE = ["simulate", "--domain", "strip.json", "--start", "0,0",
             "--n", "1500", "--engine", "WosTime", "--seed", "9",
             "--out", "sim.json", "--csv", "s.csv"]

# case -> (commands run in order, exit code of the last, pinned files)
REPORT_CASES = {
    "theta0": ([["theta0", "--ell", "0.5", "--out", "r.json"]], EXIT_OK,
               ["r.json"]),
    "strip-moment": ([["strip-moment", "--p", "2", "--out", "r.json"]],
                     EXIT_OK, ["r.json"]),
    "check": ([["check", "--comb", "comb.json", "--p", "3", "--out", "r.json"]],
              EXIT_OK, ["r.json"]),
    "simulate-default-out": (
        [["simulate", "--domain", "strip.json", "--start", "0,0", "--n", "300",
          "--seed", "1"]], EXIT_OK, ["simulate.json", "simulate-samples.csv"]),
    "simulate-escape-euler": (
        [["simulate", "--domain", "esc2.json", "--start", "0.5,0", "--n", "2000",
          "--seed", "48", "--out", "r.json"]], EXIT_INCONCLUSIVE, ["r.json"]),
    "simulate-escape-wos": (
        [["simulate", "--domain", "esc3.json", "--start", "0,0", "--n", "400",
          "--engine", "WosTime", "--time-cap", "1000", "--out", "r.json"]],
        EXIT_INCONCLUSIVE, ["r.json"]),
    "tail": ([_SIMULATE, ["tail", "--samples", "s.csv", "--out", "r.json"]],
             EXIT_OK, ["r.json", "sim.json"]),
    "verdict": ([_SIMULATE, ["verdict", "--samples", "s.csv", "--p", "0.5",
                             "--method", "loglog", "--out", "r.json"]],
                EXIT_OK, ["r.json"]),
    "construct": ([["construct", "--stages", "1", "--seed", "2",
                    "--out", "r.json", "--comb-out", "c.json"]],
                  EXIT_OK, ["r.json", "c.json"]),
    "xval": ([["xval", "--domain", "strip.json", "--n", "1000", "--seed", "3",
               "--out", "r.json"]], EXIT_OK, ["r.json"]),
    "xval-escape": ([["xval", "--domain", "esc2.json", "--start", "0.5,0",
                      "--n", "2000", "--out", "r.json"]],
                    EXIT_INCONCLUSIVE, ["r.json"]),
}

REPORT_DIGESTS = {
    "check": {
        "r.json":
            "0fdffbd26021eba86952f16cb8e29f3fab76eed901290d63127b4178f36f0dbc",
    },
    "construct": {
        "r.json":
            "80e41bf9f433c0dc295fe46a64fc5e68cb8669a7cf9cf3fb5e4fb84cefe6b831",
        "c.json":
            "327d8568af5e5d5c77dc7ab2e368c05a5b3ef72a67636deb9acf82f788f04eb7",
    },
    "simulate-default-out": {
        "simulate.json":
            "a37f4d39ff430a6777beab8c843e8ed931a1f8a0cde5f4f3d925cdda59edb356",
        "simulate-samples.csv":
            "f71805cac61322468d7dd170687400cd5ec8810ec0a9259fcaa8d3b292277769",
    },
    "simulate-escape-euler": {
        "r.json":
            "874c20c445e48f0fc6e838dc9e859871b9302d2d6bd3e8792075830b0a9708fc",
    },
    "simulate-escape-wos": {
        "r.json":
            "667db1d26ea6fa4280e4b502088efb9ecea3f19cbbef80111889c4d104d7bfb7",
    },
    "strip-moment": {
        "r.json":
            "3071bae2398e9adb79e50d975f6e30d703b400f00745b57ec74464755304fc08",
    },
    "tail": {
        "r.json":
            "5b9bc1ecaa07351ac620bea12894b4b0a0d64766bbc69f4c05948d72b4aa06f3",
        "sim.json":
            "1e3e469e5ad4ffd23166ce72091c41f09153296116c7e5f3c138ebfd51177c6b",
    },
    "theta0": {
        "r.json":
            "6bf57d561625768027026f00b3f0768679a687cdd3e2c350a016e71e03f1ded9",
    },
    "verdict": {
        "r.json":
            "37dac8777a6f5fec6a583fe136555ffb6138b1365d6cc8456baf726ec532778e",
    },
    "xval": {
        "r.json":
            "39081002b57c3b259df3ddbdfacb3128f2fe46909c96cbbaf53e8892ed84fa0d",
    },
    "xval-escape": {
        "r.json":
            "d7971a67fca66382b6cee6e2174a8770fdb1bd387d8efd81074787c8c2a5f75f",
    },
}


class TestReportBytesGuard:
    """Pinned sha256 of every subcommand's report (and of the files beside
    it) on a small grid: any change to the report envelope, key order,
    float formatting or the paths a report embeds shows up here.  Commands
    run in a temporary working directory with relative paths, since reports
    embed the paths they were given.

    The digests were recorded with numpy 2.4 on x86-64 with AVX-512, whose
    vectorized ``exp`` may round differently from other builds; on another
    platform, record them afresh from a known-good commit before trusting a
    mismatch.
    """

    @pytest.mark.parametrize("case", sorted(REPORT_CASES))
    def test_report_digest(self, case, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for name, config in _GUARD_FILES.items():
            write_json(tmp_path / name, config)
        commands, code, pinned = REPORT_CASES[case]
        for argv in commands:
            rc = run_command(argv)
        assert rc == code
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in pinned}
        assert digests == REPORT_DIGESTS[case]

    @pytest.mark.parametrize("subcommand", ["theta0", "strip-moment", "check",
                                            "simulate", "tail", "verdict",
                                            "construct", "xval"])
    def test_help_names_out(self, subcommand, capsys):
        assert run_command([subcommand, "--help"]) == EXIT_OK
        assert "--out" in capsys.readouterr().out
