"""Command-line front end.

Subcommands: ``coeffs`` (derive and check density coefficients),
``analytic`` (per-mode and total capacity statistics), ``simulate``
(Monte-Carlo ensemble), ``fit`` (correlation-coefficient fitting) and
``sweep`` (analytic-vs-simulated deviation grids).  Every command accepts
``--format json|csv`` and ``--out PATH``; the file receives exactly what
is printed.  A JSON report is one line of sorted keys with compact
separators; ``csv`` flattens it to ``key,value`` lines, except the
sweep, which prints one table row per grid point.  Exit codes: 0 success,
2 invalid range/arguments, 3 missing correlation coefficients, 4
simulation failure, 5 fit failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import re
import sys

from . import cache, fitting, gue, total
from .capacity import METHOD_AUTO, METHOD_GUE, METHOD_WIGNER, per_mode_stats
from .channel import ChannelSpec
from .errors import (
    CalibrationError,
    CorrelationRangeError,
    DegenerateDistributionError,
    EnsembleError,
    FitError,
    SdmCapError,
    UnsupportedOrderError,
)
from .mc import (
    McConfig,
    POWER_CONTROL_ENSEMBLE,
    POWER_CONTROL_TRIAL,
    result_to_csv_rows,
    result_to_json,
    run_ensemble,
    run_ensembles,
)
from .total import CorrelationModel

EXIT_OK = 0
EXIT_RANGE = 2
EXIT_NO_GAMMA = 3
EXIT_SIMULATION = 4
EXIT_FIT = 5


def _parse_sigma_grid(text: str):
    """Grid spec: comma list ``1,2.5,5`` or range ``lo:hi:step`` (inclusive)."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("range grid must be lo:hi:step")
        lo, hi, step = (float(p) for p in parts)
        if not all(map(math.isfinite, (lo, hi, step))):
            raise ValueError("range grid must have finite lo, hi and step")
        if step <= 0 or hi < lo:
            raise ValueError("range grid must have step > 0 and hi >= lo")
        count = int(math.floor((hi - lo) / step + 1e-9)) + 1
        return [lo + k * step for k in range(count)]
    values = [float(p) for p in text.split(",") if p.strip()]
    if not values:
        raise ValueError("empty sigma grid")
    return values


class _Toeplitz:
    """A report's symmetric Toeplitz matrix, held as its D lags (its first
    row) alone: the writers expand it a row at a time."""

    __slots__ = ("lags",)

    def __init__(self, lags: list):
        self.lags = lags


def _flatten(payload, prefix=""):
    if isinstance(payload, _Toeplitz):
        # the D lag texts once each, not D^2 entries through the recursion
        texts = [str(v) for v in payload.lags]
        for i, row in enumerate(total.toeplitz_rows(texts)):
            head = f"{prefix}{i}."
            yield from (f"{head}{j},{text}" for j, text in enumerate(row))
    elif isinstance(payload, dict):
        for key in sorted(payload):
            yield from _flatten(payload[key], f"{prefix}{key}.")
    elif isinstance(payload, (list, tuple)):
        for idx, item in enumerate(payload):
            yield from _flatten(item, f"{prefix}{idx}.")
    else:
        yield f"{prefix[:-1]},{payload}"


# as ``result_to_json`` encodes; without ``indent`` json runs its C encoder
_compact_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _toeplitz_rows_json(lags: list):
    """The rows of ``_compact_json(list(total.toeplitz_rows(lags)))``, each
    after its separator.  Row i is a tail of the text of lags D - 1, ..., 1
    (lags i, ..., 1) and a head of the text of lags 0, ..., D - 1 (lags 0,
    ..., D - 1 - i), so no text longer than one row is built."""
    if not lags:
        return
    head = _compact_json(lags)  # row 0
    # no JSON number text (nor NaN, Infinity) holds a comma
    texts = head[1:-1].split(",")
    tail = ",".join(texts[:0:-1]) + ","
    # ends[k + 1] is where lag k's text ends in ``head``; lag i's starts
    # ends[D] - ends[i + 1] into ``tail``
    ends = list(itertools.accumulate((len(t) + 1 for t in texts), initial=0))
    D = len(texts)
    yield head
    for i in range(1, D):
        yield f",[{tail[ends[D] - ends[i + 1]:]}{head[1:ends[D - i]]}]"


def _json_parts(payload: dict):
    """``_compact_json(payload)``, byte for byte, in parts: each run of keys
    between top-level Toeplitz matrices in one, and each row of a matrix,
    written from its lags, in one of its own."""
    sep, run = "{", {}
    for key in sorted(payload):
        value = payload[key]
        if not isinstance(value, _Toeplitz):
            run[key] = value
            continue
        if run:
            yield sep + _compact_json(run)[1:-1]
            sep, run = ",", {}
        yield f"{sep}{json.dumps(key)}:["
        yield from _toeplitz_rows_json(value.lags)
        sep = "],"
    if run:
        yield sep + _compact_json(run)[1:-1]
        sep = ","
    # the last separator, less its comma, closes the object
    yield "{}" if sep == "{" else sep[:-1] + "}"


def _write(parts: list, args) -> None:
    """Print the report's parts and, with ``--out``, write the same parts to
    that file."""
    sys.stdout.writelines(parts)
    if args.out:
        with open(args.out, "w") as fh:
            fh.writelines(parts)


def _emit(payload: dict, args) -> None:
    if args.format == "json":
        _write([*_json_parts(payload), "\n"], args)
    else:
        _write(["".join(line + "\n" for line in _flatten(payload))], args)


def _gamma_model(args, spec: ChannelSpec):
    if args.gamma:
        gamma = [float(p) for p in args.gamma.split(",")]
        if len(gamma) != 2 or not all(map(math.isfinite, gamma)):
            raise ValueError(
                f"--gamma must be two finite numbers G0,G1, not {args.gamma}")
    if spec.sigma_mdg_db == 0:
        return CorrelationModel(gamma0=0.0, gamma1=0.0, D=spec.mode_count,
                                snr_db=spec.snr_db)
    if args.gamma:
        return CorrelationModel(gamma0=gamma[0], gamma1=gamma[1], D=spec.mode_count,
                                snr_db=spec.snr_db)
    return cache.lookup_gamma(spec.mode_count, spec.snr_db)


def cmd_coeffs(args) -> int:
    coeffs = gue.derive_coefficients(args.modes)
    area = gue.unit_area_check(coeffs)
    variance = gue.unit_variance_check(coeffs)
    payload = {
        "schema": 1,
        "mode_count": coeffs.D,
        "alpha": coeffs.alpha,
        "beta": [f"{b.numerator}/{b.denominator}" for b in coeffs.beta],
        "unit_area_check": "PASS" if area == 1 else f"FAIL ({float(area)})",
        "unit_variance_check": (
            "PASS" if variance == 1 else f"FAIL ({float(variance)})"),
    }
    _emit(payload, args)
    return EXIT_OK


def cmd_analytic(args) -> int:
    spec = ChannelSpec(args.modes, args.snr_db, args.sigma_mdg_db,
                       freq_bins=args.bins)
    stats = per_mode_stats(spec, method=args.method)
    model = _gamma_model(args, spec)
    if model is None:
        sys.stderr.write(
            f"no fitted correlation coefficients for D={spec.mode_count}, "
            f"SNR={spec.snr_db} dB; run `fit` first or pass --gamma G0,G1\n"
        )
        return EXIT_NO_GAMMA

    exact_mean = total.exact_total_mean(spec, stats)

    tstats = total.total_stats(stats, model, spec.sigma_mdg_db)
    tstats = total.apply_frequency_diversity(tstats, args.bins)
    outage = total.outage_capacity(tstats.mu_ct, tstats.sigma_ct, args.pout)

    payload = {
        "schema": 1,
        "mode_count": spec.mode_count,
        "snr_db": spec.snr_db,
        "sigma_mdg_db": spec.sigma_mdg_db,
        "method": stats.method,
        "freq_bins": args.bins,
        "p_out": args.pout,
        "gamma0": model.gamma0,
        "gamma1": model.gamma1,
        "mu_lambda_db": stats.mu_lambda_db,
        "per_mode_gain_mean_db": list(stats.gain_means),
        "per_mode_gain_std_db": list(stats.gain_sigmas),
        "per_mode_cap_mean_bits_per_s_per_hz": list(stats.cap_means),
        "per_mode_cap_std_bits_per_s_per_hz": list(stats.cap_sigmas),
        "cap_correlation": _Toeplitz(total.correlation_lags(
            spec.mode_count, spec.sigma_mdg_db, model)),
        "total_mean_bits_per_s_per_hz": tstats.mu_ct,
        "total_mean_exact_bits_per_s_per_hz": exact_mean,
        "total_std_bits_per_s_per_hz": tstats.sigma_ct * math.sqrt(args.bins),
        "total_std_diversity_bits_per_s_per_hz": tstats.sigma_ct,
        "outage_capacity_bits_per_s_per_hz": outage,
    }
    _emit(payload, args)
    return EXIT_OK


def cmd_simulate(args) -> int:
    spec = ChannelSpec(args.modes, args.snr_db, args.sigma_mdg_db,
                       freq_bins=args.bins)
    config = McConfig(
        spec=spec, sections=args.sections, trials=args.trials, seed=args.seed,
        power_control=args.power_control,
    )
    result = run_ensemble(config)
    if args.trial_csv:
        with open(args.trial_csv, "w") as fh:
            D = spec.mode_count
            header = (
                ["trial"]
                + [f"gain_db_{i}" for i in range(1, D + 1)]
                + [f"cap_{i}" for i in range(1, D + 1)]
                + ["total"]
            )
            fh.write(",".join(header) + "\n")
            for row in result_to_csv_rows(result):
                fh.write(",".join(str(v) for v in row) + "\n")
    # re-encoding the parsed report reproduces it byte for byte
    _emit(json.loads(result_to_json(result)), args)
    return EXIT_OK


def _oracle_variances(D, snr_db, sigma_grid, trials, seed, sections):
    """Oracle total-capacity variance at each grid sigma, from one pass."""
    configs = [McConfig(spec=ChannelSpec(D, snr_db, sigma), sections=sections,
                        trials=trials, seed=seed)
               for sigma in sigma_grid]
    return [result.total_var for result in run_ensembles(configs)]


def cmd_fit(args) -> int:
    grid = _parse_sigma_grid(args.sigma_grid)
    oracle_vars = _oracle_variances(args.modes, args.snr_db, grid,
                                    args.trials, args.seed, args.sections)
    model = fitting.fit(args.modes, args.snr_db, grid, oracle_vars)
    cache.store_gamma(model)

    analytic_vars = list(model.grid_variances)
    payload = {
        "schema": 1,
        "mode_count": args.modes,
        "snr_db": args.snr_db,
        "gamma0": model.gamma0,
        "gamma1": model.gamma1,
        "sigma_grid_db": grid,
        "oracle_variances": oracle_vars,
        "analytic_variances": analytic_vars,
        "msle": fitting.msle(analytic_vars, oracle_vars),
    }
    _emit(payload, args)
    return EXIT_OK


def cmd_sweep(args) -> int:
    modes = [int(m) for m in args.modes.split(",")]
    grid = _parse_sigma_grid(args.sigma_grid)
    models = {D: cache.lookup_gamma(D, args.snr_db) for D in modes}
    unfittable = [D for D in modes if models[D] is None]
    if unfittable and len(grid) < 3:
        sys.stderr.write(
            f"no fitted correlation coefficients for D={unfittable[0]}, "
            f"SNR={args.snr_db} dB and the sweep grid is too small "
            f"to fit (< 3 points)\n"
        )
        return EXIT_NO_GAMMA
    # a table model needs no oracle, so a record out of its range stops the
    # sweep before anything is simulated
    table_sigmas = {
        D: [total.total_stats(per_mode_stats(ChannelSpec(D, args.snr_db, sigma)),
                              model, sigma).sigma_ct for sigma in grid]
        for D, model in models.items() if model is not None}
    rows = []
    for D in modes:
        sim_vars = _oracle_variances(D, args.snr_db, grid, args.trials,
                                     args.seed, args.sections)
        sigma_cts = table_sigmas.get(D)
        if sigma_cts is None:
            # no table entry: fit on this sweep's own simulated variances
            sigma_cts = [math.sqrt(max(var, 0.0)) for var in
                         fitting.fit(D, args.snr_db, grid, sim_vars).grid_variances]
        for sigma, sigma_ct, sim_var in zip(grid, sigma_cts, sim_vars):
            rows.append({
                "mode_count": D,
                "snr_db": args.snr_db,
                "sigma_mdg_db": sigma,
                "sigma_ct_analytic": sigma_ct,
                "sigma_ct_sim": math.sqrt(max(sim_var, 0.0)),
            })
    if args.format == "csv":
        header = ["mode_count", "snr_db", "sigma_mdg_db",
                  "sigma_ct_analytic", "sigma_ct_sim"]
        _write([",".join(header) + "\n" + "".join(
            ",".join(str(r[k]) for k in header) + "\n" for r in rows)], args)
    else:
        _emit({"schema": 1, "rows": rows}, args)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Argument parser that reads anything starting like a negative number
    (``-1e-05``, ``-2.5,5``) as a value, not an option.

    argparse's own test accepts only ``-1`` and ``-1.5``, so an exponent or
    a list made it report a missing argument.  No sdmcap option starts with
    a digit.  Subparsers inherit the class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def _add_common(parser):
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", default=None, help="also write the report here")


def _add_spec_flags(parser):
    parser.add_argument("--modes", type=int, required=True)
    parser.add_argument("--snr-db", type=float, required=True)
    parser.add_argument("--sigma-mdg-db", type=float, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sdmcap",
        description="Capacity statistics of coupled SDM links with "
                    "mode-dependent gain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="derive and check density coefficients")
    p.add_argument("--modes", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("analytic", help="analytic per-mode and total statistics")
    _add_spec_flags(p)
    p.add_argument("--method", choices=(METHOD_AUTO, METHOD_GUE, METHOD_WIGNER),
                   default=METHOD_AUTO)
    p.add_argument("--pout", type=float, default=0.01)
    p.add_argument("--bins", type=int, default=1)
    p.add_argument("--gamma", default=None, metavar="G0,G1",
                   help="override the fitted correlation coefficients")
    _add_common(p)
    p.set_defaults(func=cmd_analytic)

    p = sub.add_parser("simulate", help="run the Monte-Carlo channel oracle")
    _add_spec_flags(p)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sections", type=int, default=100)
    p.add_argument("--bins", type=int, default=1)
    p.add_argument("--power-control",
                   choices=(POWER_CONTROL_ENSEMBLE, POWER_CONTROL_TRIAL),
                   default=POWER_CONTROL_ENSEMBLE)
    p.add_argument("--trial-csv", default=None,
                   help="write per-trial gains/capacities here")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit correlation coefficients on the oracle")
    p.add_argument("--modes", type=int, required=True)
    p.add_argument("--snr-db", type=float, required=True)
    p.add_argument("--sigma-grid", required=True,
                   help="comma list (1,2.5,5) or range (1:7.5:0.5)")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sections", type=int, default=100)
    _add_common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("sweep", help="analytic vs simulated deviation grid")
    p.add_argument("--modes", required=True, help="comma list of mode counts")
    p.add_argument("--snr-db", type=float, required=True)
    p.add_argument("--sigma-grid", required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sections", type=int, default=100)
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use (parsing never changes it)."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (UnsupportedOrderError, CorrelationRangeError, DegenerateDistributionError,
            ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_RANGE
    except (CalibrationError, EnsembleError) as exc:
        sys.stderr.write(f"simulation error: {exc}\n")
        return EXIT_SIMULATION
    except FitError as exc:
        sys.stderr.write(f"fit error: {exc}\n")
        return EXIT_FIT
    except SdmCapError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
