import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdmcap import cache, cli, fitting, mc, total, wigner
from sdmcap.capacity import per_mode_stats
from sdmcap.channel import ChannelSpec
from sdmcap.cli import build_parser, main
from sdmcap.total import CorrelationModel, variance_terms


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCoeffs:
    def test_d6_prints_exact_rationals_and_checks(self, capsys):
        code, out = run_cli(capsys, "coeffs", "--modes", "6")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["beta"][0] == "322/3125"
        assert payload["unit_area_check"] == "PASS"
        assert payload["unit_variance_check"] == "PASS"

    def test_d2_checks_pass(self, capsys):
        code, out = run_cli(capsys, "coeffs", "--modes", "2")
        assert code == 0
        assert out.count("PASS") == 2

    def test_out_of_range_is_exit_2(self, capsys):
        code, _ = run_cli(capsys, "coeffs", "--modes", "9")
        assert code == 2


class TestAnalytic:
    def test_case_study_report(self, capsys):
        code, out = run_cli(capsys, "analytic", "--modes", "6", "--snr-db", "10",
                            "--sigma-mdg-db", "5", "--pout", "0.01")
        assert code == 0
        payload = json.loads(out)
        assert payload["total_mean_bits_per_s_per_hz"] == pytest.approx(
            16.825, abs=0.003)
        assert payload["total_std_bits_per_s_per_hz"] == pytest.approx(
            0.181, abs=0.002)
        assert payload["outage_capacity_bits_per_s_per_hz"] == pytest.approx(
            16.403, abs=0.002)

    def test_two_bins_diversity(self, capsys):
        code, out = run_cli(capsys, "analytic", "--modes", "6", "--snr-db", "10",
                            "--sigma-mdg-db", "5", "--bins", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["total_std_diversity_bits_per_s_per_hz"] == \
            pytest.approx(0.128, abs=0.002)

    def test_zero_sigma_degenerate(self, capsys):
        code, out = run_cli(capsys, "analytic", "--modes", "6", "--snr-db", "10",
                            "--sigma-mdg-db", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["total_std_bits_per_s_per_hz"] == 0.0
        assert payload["outage_capacity_bits_per_s_per_hz"] == \
            payload["total_mean_bits_per_s_per_hz"]

    def test_missing_gamma_is_exit_3(self, capsys):
        code, _ = run_cli(capsys, "analytic", "--modes", "7", "--snr-db", "12",
                          "--sigma-mdg-db", "5")
        assert code == 3

    def test_gamma_override(self, capsys):
        code, out = run_cli(capsys, "analytic", "--modes", "7", "--snr-db", "12",
                            "--sigma-mdg-db", "5", "--gamma", "0.3,0")
        assert code == 0
        assert json.loads(out)["gamma0"] == 0.3

    def test_out_of_envelope_gamma_is_exit_2(self, capsys):
        code, _ = run_cli(capsys, "analytic", "--modes", "7", "--snr-db", "12",
                          "--sigma-mdg-db", "5", "--gamma", "0.9,0")
        assert code == 2

    @pytest.mark.parametrize("gamma, expected_code", [("0,0", 0), ("0.9,0", 2)])
    def test_underflowing_deviations_are_not_out_of_envelope(self, capsys, gamma,
                                                             expected_code):
        # the per-mode deviations are near 1e-170 bit, so their squares
        # underflow to 0: gamma = (0, 0) is in range, and the total's
        # deviation comes from the deviations scaled by their largest, while
        # gamma0 = 0.9 is out of range on this link as on any other
        code, out = run_cli(capsys, "analytic", "--modes", "33",
                            "--snr-db=-1629.0138261833304",
                            "--sigma-mdg-db=3.2861879741692056e-06", "--gamma", gamma)
        assert code == expected_code
        if code != 0:
            assert out == ""
            return
        r = json.loads(out)
        assert 0.0 < max(r["per_mode_cap_std_bits_per_s_per_hz"]) < 1e-160
        assert r["total_std_bits_per_s_per_hz"] == pytest.approx(5.46e-170, rel=1e-3)

    def test_csv_format_and_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.csv"
        code, out = run_cli(capsys, "analytic", "--modes", "6", "--snr-db", "10",
                            "--sigma-mdg-db", "5", "--format", "csv",
                            "--out", str(out_path))
        assert code == 0
        assert out_path.read_text() == out
        assert any(line.startswith("total_mean_bits_per_s_per_hz,")
                   for line in out.splitlines())


    def test_vanishing_density_is_exit_2(self, capsys, monkeypatch):
        # outer modes at the semicircle's edges z = -+1, where it vanishes
        monkeypatch.setattr(wigner, "_quantile_offsets",
                            lambda D: tuple(2.0 * k / (D - 1) - 1.0 for k in range(D)))
        code, _ = run_cli(capsys, "analytic", "--modes", "12", "--snr-db", "10",
                          "--sigma-mdg-db", "5", "--gamma", "0.3,0")
        assert code == 2


class TestNonFiniteInputs:
    FINITE = {"--snr-db": "10", "--sigma-mdg-db": "5", "--gamma": "0,0"}

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", list(FINITE))
    def test_is_exit_2_with_no_report(self, capsys, flag, value):
        args = {**self.FINITE, flag: f"{value},0" if flag == "--gamma" else value}
        code, out = run_cli(capsys, "analytic", "--modes", "4",
                            *(f"{k}={v}" for k, v in args.items()))
        assert code == 2
        assert out == ""

    # 10^(snr_db / 10) overflowed to a bare OverflowError above about 3082.5 dB
    # and rounded to 0 below about -3236 dB
    @pytest.mark.parametrize("snr_db", ["4000", "-4000"])
    @pytest.mark.parametrize("command", [
        ("analytic", "--modes", "12", "--sigma-mdg-db", "5", "--gamma", "0,0"),
        ("analytic", "--modes", "4", "--sigma-mdg-db", "5", "--gamma", "0,0"),
        ("simulate", "--modes", "4", "--sigma-mdg-db", "5", "--trials", "10"),
        ("fit", "--modes", "4", "--sigma-grid", "1,2,3", "--trials", "10"),
        ("sweep", "--modes", "4", "--sigma-grid", "1,2,3", "--trials", "10"),
    ])
    def test_snr_without_a_linear_value_is_exit_2(self, capsys, command, snr_db):
        code, out = run_cli(capsys, *command, f"--snr-db={snr_db}")
        assert code == 2
        assert out == ""

    def test_gue_report_at_the_largest_snr_is_finite(self, capsys):
        # each mode's capacity, above 1024 bit there, was mapped back to a
        # gain through 2^c - 1, which overflowed
        code, out = run_cli(capsys, "analytic", "--modes", "4", "--snr-db=3082.5",
                            "--sigma-mdg-db", "5", "--gamma", "0,0")
        assert code == 0
        assert all(math.isfinite(v) for v in _numbers(json.loads(out)))

    @pytest.mark.parametrize("argv", [
        # the GUE bracket's critical point atanh(sqrt(1 - 4 / k)), with the
        # square root rounded to 1
        ["analytic", "--modes", "3", "--snr-db", "1040.69", "--sigma-mdg-db", "1.003e22",
         "--gamma", "0,0"],
        # the capacities log2(1 + snr gain) overflow
        ["simulate", "--modes", "4", "--snr-db=3082.5", "--sigma-mdg-db", "5",
         "--trials", "10", "--sections", "3"],
        # the calibration seed squared sigma_mdg
        ["simulate", "--modes", "10", "--snr-db", "17.5", "--sigma-mdg-db", "3.7e289",
         "--trials", "2", "--sections", "3"],
        # the ensemble's mean linear gain overflows
        ["simulate", "--modes", "12", "--snr-db=-1697.68", "--sigma-mdg-db", "881.32",
         "--trials", "11", "--sections", "1", "--seed", "24"],
    ])
    def test_overflow_is_a_typed_error(self, argv):
        _assert_typed_error(*_run_strictly(argv))

    @pytest.mark.parametrize("gamma", ["nan,0", "0.3", "0,0,0", "g0,g1"])
    def test_gamma_is_checked_at_zero_sigma_too(self, capsys, gamma):
        code, out = run_cli(capsys, "analytic", "--modes", "4", "--snr-db", "10",
                            "--sigma-mdg-db", "0", "--gamma", gamma)
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("grid", ["0:inf:1", "-inf:5:1", "1:5:nan"])
    def test_range_grid_is_exit_2(self, capsys, grid):
        code, out = run_cli(capsys, "fit", "--modes", "4", "--snr-db", "10",
                            f"--sigma-grid={grid}")
        assert code == 2
        assert out == ""


# stdout SHA-256 of `analytic --modes D --snr-db 10 --sigma-mdg-db 5 --gamma -0.1,0`
# as the report was written when it encoded every matrix entry with json.dumps.
# The GUE entries (D <= 8) were re-frozen when each mode's capacity mean moved
# from a 1e-12 bisection in capacity to Newton in the gain domain: its
# capacity means, deviations and the totals moved by at most 2.4e-13 relative.
# The semicircle entries (D >= 9) were re-frozen when each mode's deviation
# moved from the capacity density at its round-tripped gain to the closed
# form at its quantile: deviations moved by at most 2.5e-15 relative, gain
# means by 2.2e-13 relative, and the totals by 2.8e-16; capacity means kept
# their bits.  D = 4, 8, 9 and 100 were re-frozen when the total variance's
# A term moved from adding its D^2 terms to a one-pass recurrence: only the
# total deviations (by at most 2.1e-16 relative) and the D = 4 outage
# capacity (2e-16) moved; D = 2, 6 and 40 kept every byte.  D = 2, 4, 8 and
# 9 were re-frozen when each GUE mode's capacity density was taken at its
# own Newton root and the outage quantile came from statistics.NormalDist:
# the D = 8 capacity deviations moved by at most 1.7e-16 relative and the
# D = 2, 4 and 9 outage capacities by 2.0e-16; D = 6, 40 and 100 kept every
# byte
_FROZEN_REPORT_SHA256 = {
    (2, "json"): "0b0f4b262da68abf76db4eeb894a7e86c042a0f228dae3656b521637e1d961d8",
    (2, "csv"): "30988a692886ce622cf9a477fd1dbf0728979eca79f88daf5bdb607809d88933",
    (4, "json"): "4498db87eb0e6b4e235b4cd0688d0b3ab52ebb9b95ebcaaedfd5fe982b4c084f",
    (6, "json"): "40be412cca198f4db96a2c8f562555cfd5be107e0ccfd213f0bbb45c1dc4c7c6",
    (6, "csv"): "757e413faf215490187bbcfab4263fdee2d3f5b7a09afea117fdd4d31ce14614",
    # the last GUE point and the first semicircle point
    (8, "json"): "d318e693cdc86827f72ca026d097f38428e521bf4c69d8a4a6838371ce23aece",
    (9, "json"): "5e196db348833e7569eb021aeea84cf4eec61b50489acccfb88d1a8014b9b6ec",
    (40, "json"): "223d1b7c5981b6c1a7e57f3a31954795694c94abfa57ab7c70a5311d6e2cd43b",
    (40, "csv"): "464dbc8d1e0f761d4a0385e1f7dd7ba295eff979cb1c25c01a219b223e002db4",
    (100, "json"): "2630921e0f9e1d29e85dcdb71a94674de6c038b8d29a6369099b7c7884b16b2f",
    (100, "csv"): "5f87bd7ff45200d2109b3df7fee21b57811ffee25f5a37230eb0d03dc0e7c372",
}


def _report(capsys, D, fmt="json"):
    return run_cli(capsys, "analytic", "--modes", str(D), "--snr-db", "10",
                   "--sigma-mdg-db", "5", "--gamma", "-0.1,0", "--format", fmt)


# SHA-256 of the 60 semicircle-track reports of the bench's analytic grid,
# D in (12, 20, 40, 100) x SNR in (5, 10, 20) dB x sigma in (1, 2.5, 5,
# 7.5, 10) dB, their stdouts joined in that order; re-frozen with the
# semicircle entries above, whose deviations here moved by at most 9.7e-15
# relative, gain means by 6.3e-13 and the totals by 1.2e-15; re-frozen again
# with the one-pass total variance, which moved 42 of the 60 reports: the
# total deviations by at most 3.9e-15 relative (the D^2 sum had erred by up
# to 8.9e-15 in A) and the outage capacities by 2.2e-16; re-frozen with the
# standard library's normal quantile, which moved 3 of the 60 outage
# capacities by at most 2.2e-16 relative
_FROZEN_SEMICIRCLE_GRID_SHA256 = {
    "json": "f496c07e46f2211d912194f22aa320fdcc6b9a1abff90c41791417968b1079bf",
    "csv": "c7781577c9f11023d9c7812518480993e59e6d963b8bc5410680c6c91708d627",
}


class TestReportEncoding:
    @pytest.mark.parametrize("D, fmt", list(_FROZEN_REPORT_SHA256))
    def test_stdout_is_frozen(self, capsys, D, fmt):
        code, out = _report(capsys, D, fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == _FROZEN_REPORT_SHA256[D, fmt]

    def test_ci_pipes_the_frozen_d100_digests(self):
        # CI compares the console script's D = 100 reports with these digests
        path = os.path.join(os.path.dirname(__file__), os.pardir,
                            ".github", "workflows", "ci.yml")
        with open(path) as fh:
            step = fh.read().split("- name: Frozen D = 100 reports")[1].split("- name:")[0]
        assert ('report="sdmcap analytic --modes 100 --snr-db 10 --sigma-mdg-db 5 '
                '--gamma -0.1,0"') in step
        piped = {"csv" if "--format csv" in line else "json":
                 line.split('" = "')[1].split()[0]
                 for line in step.splitlines() if "sha256sum" in line}
        assert piped == {fmt: _FROZEN_REPORT_SHA256[100, fmt] for fmt in ("json", "csv")}

    @pytest.mark.parametrize("fmt", list(_FROZEN_SEMICIRCLE_GRID_SHA256))
    def test_semicircle_grid_is_frozen(self, capsys, fmt):
        digest = hashlib.sha256()
        for D in (12, 20, 40, 100):
            for snr in (5.0, 10.0, 20.0):
                for sigma in (1.0, 2.5, 5.0, 7.5, 10.0):
                    code, out = run_cli(
                        capsys, "analytic", "--modes", str(D), "--snr-db", repr(snr),
                        "--sigma-mdg-db", repr(sigma), "--bins", "2", "--pout", "0.01",
                        "--gamma", "0,0", "--format", fmt)
                    assert code == 0
                    digest.update(out.encode())
        assert digest.hexdigest() == _FROZEN_SEMICIRCLE_GRID_SHA256[fmt]

    @pytest.mark.parametrize("D", [2, 6, 40, 100])
    def test_json_is_the_compact_sorted_dump(self, capsys, D):
        code, out = _report(capsys, D)
        assert code == 0
        payload = json.loads(out)
        assert json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n" == out
        lags = payload["cap_correlation"][0]
        assert payload["cap_correlation"] == [[lags[abs(i - j)] for j in range(D)]
                                              for i in range(D)]

    @settings(max_examples=100, deadline=None)
    @given(lags=st.lists(st.floats(), max_size=12),
           plain=st.dictionaries(st.text(max_size=4),
                                 st.one_of(st.floats(), st.integers(), st.text(),
                                           st.lists(st.floats(), max_size=3)),
                                 max_size=6),
           keys=st.lists(st.text(max_size=4), max_size=3))
    def test_matrices_anywhere_encode_as_json_dumps(self, lags, plain, keys):
        # non-finite lags are written as json writes them: NaN, Infinity
        payload, matrices = dict(plain), dict(plain)
        for key in keys:
            payload[key] = cli._Toeplitz(list(lags))
            matrices[key] = list(total.toeplitz_rows(list(lags)))
        assert "".join(cli._json_parts(payload)) == json.dumps(
            matrices, sort_keys=True, separators=(",", ":"))

    @settings(max_examples=100, deadline=None)
    @given(lags=st.lists(st.floats(), max_size=12),
           plain=st.dictionaries(st.text(max_size=4),
                                 st.one_of(st.floats(), st.integers(),
                                           st.lists(st.floats(), max_size=3)),
                                 max_size=6),
           keys=st.lists(st.text(max_size=4), max_size=3))
    def test_matrices_flatten_as_nested_lists(self, lags, plain, keys):
        # the CSV lines of a Toeplitz matrix are those of its rows as lists
        payload, nested = dict(plain), dict(plain)
        for key in keys:
            payload[key] = cli._Toeplitz(list(lags))
            nested[key] = [list(row) for row in total.toeplitz_rows(list(lags))]
        assert list(cli._flatten(payload)) == list(cli._flatten(nested))

    def test_d100_report_is_written_a_row_at_a_time(self, monkeypatch):
        # a bench-grid report, once one 226 KB write of the joined text: the
        # D x D rows are never built, each matrix row is a write of its own,
        # and only the run of keys after the matrix, which holds the four
        # per-mode lists of D values, is a write longer than one row
        writes, built = [], []

        class Recorder(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        rows = total.toeplitz_rows
        monkeypatch.setattr(total, "toeplitz_rows",
                            lambda lags: built.append(lags) or rows(lags))
        monkeypatch.setattr(sys, "stdout", Recorder())
        assert main(["analytic", "--modes", "100", "--snr-db", "10", "--sigma-mdg-db",
                     "5", "--bins", "2", "--pout", "0.01", "--gamma", "0,0"]) == 0
        out = sys.stdout.getvalue()
        assert built == []
        rows = [json.dumps(r, separators=(",", ":"))
                for r in json.loads(out)["cap_correlation"]]
        assert writes[0] == '{"cap_correlation":['
        assert writes[1:101] == rows[:1] + ["," + r for r in rows[1:]]
        assert len(writes) == 104 and writes[-2:] == ["}", "\n"]
        longest = max(map(len, rows))
        assert [w for w in writes if len(w) > longest + 1] == [writes[101]]
        assert len(writes[101]) < 4 * longest

    def test_parser_is_built_once_per_process(self, capsys, monkeypatch):
        built = []

        def counted():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        for D in (2, 3, 4, 5, 6):
            assert run_cli(capsys, "coeffs", "--modes", str(D))[0] == 0
        assert len(built) == 1

    def test_a_rejected_call_leaves_the_next_unchanged(self, capsys):
        first = _report(capsys, 6)
        with pytest.raises(SystemExit) as exc:
            main(["analytic", "--format", "csv", "--bins", "3", "--gamma", "0.3,0",
                  "--snr-db", "12", "--sigma-mdg-db", "2", "--modes", "six"])
        assert exc.value.code == 2
        assert run_cli(capsys, "analytic", "--modes", "6", "--snr-db", "10",
                       "--sigma-mdg-db", "nan", "--format", "csv", "--bins", "3")[0] == 2
        assert _report(capsys, 6) == first


class TestNegativeNumbers:
    def test_exponent_is_a_value_not_an_option(self):
        args = build_parser().parse_args(
            ["analytic", "--modes", "4", "--snr-db", "-1e-05", "--sigma-mdg-db", "5"])
        assert args.snr_db == -1e-05

    @pytest.mark.parametrize("snr, grid", [
        ("-2.5E+1", "2.5e0,5E+0,7.5"),
        ("-.5", "-1e-3,5"),
        ("-3", "-1:5:2"),
    ])
    def test_fit_and_sweep_values(self, snr, grid):
        for command in ("fit", "sweep"):
            args = build_parser().parse_args(
                [command, "--modes", "4", "--snr-db", snr, "--sigma-grid", grid])
            assert args.snr_db == float(snr)
            assert args.sigma_grid == grid

    def test_report_at_negative_exponent_snr(self, capsys):
        code, out = run_cli(capsys, "analytic", "--modes", "4", "--snr-db", "-1e-05",
                            "--sigma-mdg-db", "5", "--gamma", "0.5,0")
        assert code == 0
        assert json.loads(out)["snr_db"] == -1e-05

def _numbers(value):
    if isinstance(value, dict):
        for v in value.values():
            yield from _numbers(v)
    elif isinstance(value, list):
        for v in value:
            yield from _numbers(v)
    elif isinstance(value, (int, float)):
        yield value


def _run_strictly(argv):
    """(exit code, stdout, stderr) of ``main(argv)``, a RuntimeWarning raised."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_typed_error(code, out, err):
    """A usage or range error (2), a missing gamma (3), a failed simulation
    (4) or fit (5): one line naming what failed, and no report."""
    assert code in (2, 3, 4, 5), err
    assert out == ""
    assert err.startswith({4: "simulation error: ", 5: "fit error: "}.get(code, "error: ")), err
    assert err not in ("error: math domain error\n", "error: math range error\n")


# every SNR with a finite, positive linear value, drawn near either end as
# often as anywhere; sigma_mdg log-uniform up to 1e300 dB, 0, and up to 50 dB
# as often
_SNR_DB = st.one_of(st.floats(-3236.0, 3082.5), st.floats(-3236.0, -3150.0),
                    st.floats(3000.0, 3082.5))
_SIGMA_MDG_DB = st.one_of(st.just(0.0), st.floats(-15.0, 300.0).map(lambda e: 10.0 ** e),
                          st.floats(0.0, 50.0))


class TestAnalyticProperties:
    @settings(max_examples=1000, deadline=None)
    @given(D=st.integers(2, 100), snr_db=_SNR_DB, sigma=_SIGMA_MDG_DB,
           p_out=st.floats(-323.3, math.log10(0.5)).map(lambda e: 10.0 ** e),
           method=st.sampled_from(["auto", "gue", "wigner"]))
    def test_report_is_sound_or_a_typed_error(self, D, snr_db, sigma, p_out, method):
        code, out, err = _run_strictly(
            ["analytic", "--modes", str(D), f"--snr-db={snr_db!r}",
             "--sigma-mdg-db", repr(sigma), "--pout", repr(p_out), "--method", method,
             "--gamma", "0,0"])
        if code != 0:
            _assert_typed_error(code, out, err)
            return
        r = json.loads(out)
        assert all(math.isfinite(v) for v in _numbers(r))
        outage, mean = r["outage_capacity_bits_per_s_per_hz"], r["total_mean_bits_per_s_per_hz"]
        if sigma == 0:  # a flat link: no spread to lose
            assert outage == mean
            return
        for key in ("per_mode_gain_mean_db", "per_mode_cap_mean_bits_per_s_per_hz"):
            assert all(a < b for a, b in zip(r[key], r[key][1:])), key
        assert all(s > 0 for s in r["per_mode_gain_std_db"]
                   + r["per_mode_cap_std_bits_per_s_per_hz"]
                   + [r["total_std_bits_per_s_per_hz"]])
        assert outage <= mean
        # within rounding of p = 1/2 the outage offset vanishes against the mean
        assert outage < mean or p_out > 0.49


class TestSimulateProperties:
    # tiny trial and section counts and D <= 16, so that an example that
    # calibrates up to the oracle's positivity limit stays within seconds
    @settings(max_examples=40, deadline=None)
    @given(D=st.integers(2, 16), snr_db=_SNR_DB, sigma=_SIGMA_MDG_DB,
           trials=st.integers(2, 12), sections=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1),
           pc=st.sampled_from([mc.POWER_CONTROL_TRIAL, mc.POWER_CONTROL_ENSEMBLE]))
    def test_report_is_sound_or_a_typed_error(self, D, snr_db, sigma, trials, sections,
                                              seed, pc):
        code, out, err = _run_strictly(
            ["simulate", "--modes", str(D), f"--snr-db={snr_db!r}",
             "--sigma-mdg-db", repr(sigma), "--trials", str(trials),
             "--sections", str(sections), "--seed", str(seed), "--power-control", pc])
        if code != 0:
            _assert_typed_error(code, out, err)
            return
        r = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in the report"))
        assert all(math.isfinite(v) for v in _numbers(r))
        assert r["total_var"] >= 0.0


class TestFitAndSweepProperties:
    # D <= 12, few trials and sections: an example that calibrates up to the
    # oracle's positivity limit stays within seconds
    @settings(max_examples=20, deadline=None)
    @given(command=st.sampled_from(["fit", "sweep"]), D=st.integers(2, 12), snr_db=_SNR_DB,
           grid=st.lists(st.one_of(st.floats(0.0, 20.0), _SIGMA_MDG_DB), min_size=3,
                        max_size=3, unique=True).map(sorted),
           trials=st.integers(2, 30), sections=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1))
    def test_report_is_sound_or_a_typed_error(self, tmp_path_factory, command, D, snr_db,
                                              grid, trials, sections, seed):
        # each example fits in a cache of its own, so that a sweep never
        # reads an earlier example's fit
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv(cache.CACHE_DIR_ENV, str(tmp_path_factory.mktemp("cache")))
            code, out, err = _run_strictly(
                [command, "--modes", str(D), f"--snr-db={snr_db!r}",
                 "--sigma-grid=" + ",".join(map(repr, grid)), "--trials", str(trials),
                 "--sections", str(sections), "--seed", str(seed)])
        if code != 0:
            _assert_typed_error(code, out, err)
            assert err.count("\n") == 1 and err.endswith("\n"), err
            return
        assert err == ""
        r = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in the report"))
        assert all(math.isfinite(v) for v in _numbers(r))


_ORACLE_ARGS = ["--snr-db", "10", "--trials", "40", "--sections", "5", "--seed", "3"]


class TestOutFile:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("argv", [
        ["coeffs", "--modes", "4"],
        ["analytic", "--modes", "6", "--snr-db", "10", "--sigma-mdg-db", "5"],
        # both sinks take the report's parts, Toeplitz rows among them
        pytest.param(["analytic", "--modes", "100", "--snr-db", "10",
                      "--sigma-mdg-db", "5", "--gamma", "-0.1,0"], id="analytic_d100"),
        ["simulate", "--modes", "4", "--sigma-mdg-db", "5", *_ORACLE_ARGS],
        ["fit", "--modes", "4", "--sigma-grid", "1,2.5,5", *_ORACLE_ARGS],
        ["sweep", "--modes", "4", "--sigma-grid", "1,3,5", *_ORACLE_ARGS],
    ], ids=lambda argv: argv[0])
    def test_file_equals_stdout(self, capsys, tmp_path, argv, fmt):
        # the sweep reads this record instead of fitting; the others ignore it
        cache.store_gamma(CorrelationModel(0.7, 0.0, D=4, snr_db=10.0))
        path = tmp_path / "report"
        code, out = run_cli(capsys, *argv, "--format", fmt, "--out", str(path))
        assert code == 0
        assert path.read_bytes() == out.encode()
        if fmt == "json":
            assert out.count("\n") == 1
            json.loads(out)


class TestSimulate:
    def test_deterministic_output_file(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["simulate", "--modes", "4", "--snr-db", "10",
                "--sigma-mdg-db", "5", "--trials", "30", "--seed", "7"]
        code1, out1 = run_cli(capsys, *args, "--out", str(a))
        code2, out2 = run_cli(capsys, *args, "--out", str(b))
        assert code1 == code2 == 0
        assert a.read_bytes() == b.read_bytes()
        assert out1 == out2
        payload = json.loads(a.read_text())
        assert payload["schema"] == 1
        assert payload["config"]["trials"] == 30

    def test_single_trial_is_exit_2(self, capsys):
        code, out = run_cli(capsys, "simulate", "--modes", "4", "--snr-db", "10",
                            "--sigma-mdg-db", "5", "--trials", "1")
        assert code == 2
        assert out == ""

    def test_overflowing_calibration_is_exit_4_without_a_warning(self):
        # a run of its own, so that numpy's RuntimeWarnings would reach stderr
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-m", "sdmcap.cli", "simulate", "--modes", "6",
             "--snr-db", "10", "--sigma-mdg-db", "1000", "--trials", "10",
             "--sections", "20"],
            capture_output=True, text=True, timeout=120, env=env)
        assert out.returncode == 4
        assert out.stdout == ""
        assert out.stderr.startswith("simulation error:")
        assert "RuntimeWarning" not in out.stderr

    def test_trial_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "trials.csv"
        code, _ = run_cli(capsys, "simulate", "--modes", "4", "--snr-db", "10",
                          "--sigma-mdg-db", "5", "--trials", "25", "--seed", "1",
                          "--trial-csv", str(csv_path))
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 26  # header + one row per trial
        assert lines[0].split(",")[0] == "trial"
        assert len(lines[1].split(",")) == 2 * 4 + 2


class TestFitCommand:
    def test_fit_writes_table_row(self, capsys):
        code, out = run_cli(capsys, "fit", "--modes", "4", "--snr-db", "10",
                            "--sigma-grid", "1,2.5,5", "--trials", "300")
        assert code == 0
        payload = json.loads(out)
        assert payload["msle"] <= 0.05
        stored = cache.lookup_gamma(4, 10.0)
        assert stored is not None
        assert stored.gamma0 == pytest.approx(payload["gamma0"], abs=1e-12)

    @pytest.mark.parametrize("argv", [
        ["fit", "--modes", "4", "--sigma-grid", "1,2.5,5", *_ORACLE_ARGS],
        ["sweep", "--modes", "5", "--sigma-grid", "1,2.5,5", *_ORACLE_ARGS],
    ], ids=lambda argv: argv[0])
    def test_per_mode_stats_once_per_fitted_sigma(self, capsys, monkeypatch, argv):
        # the fit evaluates the 3 grid points and 2 midpoints; the report
        # reuses its grid variances instead of evaluating the grid again
        calls = []
        for module in (cli, fitting):
            def counted(spec, *args, original=module.per_mode_stats, **kwargs):
                calls.append(spec.sigma_mdg_db)
                return original(spec, *args, **kwargs)

            monkeypatch.setattr(module, "per_mode_stats", counted)
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert sorted(calls) == [1.0, 1.75, 2.5, 3.75, 5.0]
        if argv[0] == "fit":
            payload = json.loads(out)
            model = CorrelationModel(payload["gamma0"], payload["gamma1"], D=4,
                                     snr_db=10.0)
            monkeypatch.undo()
            expected = []
            for s in (1.0, 2.5, 5.0):
                a, b = variance_terms(per_mode_stats(ChannelSpec(4, 10.0, s)).cap_sigmas)
                expected.append(a + b * model.combined_coefficient(s))
            assert payload["analytic_variances"] == expected

    @pytest.mark.parametrize("argv", [
        ["fit", "--modes", "20", "--snr-db", "10", "--sigma-grid", "2.5,5,7.5",
         "--trials", "200", "--sections", "5", "--seed", "51"],
        ["sweep", "--modes", "4,5", *_ORACLE_ARGS, "--sigma-grid", "1,2.5,5"],
    ], ids=lambda argv: argv[0])
    def test_builds_no_capacity_correlation(self, capsys, monkeypatch, argv):
        # fit and sweep read only each sigma's total variance
        code, expected = run_cli(capsys, *argv)
        assert code == 0

        def no_correlation(caps):
            raise AssertionError("a capacity correlation was built")

        monkeypatch.setattr(mc, "empirical_correlation", no_correlation)
        assert run_cli(capsys, *argv) == (0, expected)


class TestSweep:
    def test_rows_and_monotonicity(self, capsys):
        cache.store_gamma(CorrelationModel(0.7, 0.0, D=4, snr_db=10.0))
        code, out = run_cli(capsys, "sweep", "--modes", "4", "--snr-db", "10",
                            "--sigma-grid", "1:5:2", "--trials", "100",
                            "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4  # header + 3 grid points
        analytic = [float(line.split(",")[3]) for line in lines[1:]]
        assert analytic == sorted(analytic)

    def test_table_model_out_of_range_is_exit_2(self, capsys, monkeypatch):
        # as ``analytic`` does for the same record: the variance is negative
        def no_oracle(configs):
            raise AssertionError("the oracle ran")

        monkeypatch.setattr(cli, "run_ensembles", no_oracle)
        cache.store_gamma(CorrelationModel(5.0, 0.0, D=6, snr_db=10.0))
        code = main(["sweep", "--modes", "6", "--snr-db", "10", "--sigma-grid", "2.5,5",
                     "--trials", "50", "--sections", "5", "--seed", "1", "--format", "csv"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "not positive" in captured.err

    def test_missing_gamma_small_grid_is_exit_3(self, capsys):
        code, _ = run_cli(capsys, "sweep", "--modes", "5", "--snr-db", "11",
                          "--sigma-grid", "1,2", "--trials", "50")
        assert code == 3

    def test_missing_gamma_small_grid_exits_before_simulating(self, capsys, monkeypatch):
        def no_oracle(configs):
            raise AssertionError("the oracle ran")

        monkeypatch.setattr(cli, "run_ensembles", no_oracle)
        code, out = run_cli(capsys, "sweep", "--modes", "5", "--snr-db", "11",
                            "--sigma-grid", "1,2")
        assert code == 3
        assert out == ""
