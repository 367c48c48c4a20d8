"""Command-line front end.

Commands: bounds, field-map, tradeoff, frequency-shift, validate, kernel.
Configuration is a JSON file validated against a fixed key set; every
output embeds a provenance block and is byte-identical across reruns
with the same config and seed.

Exit codes: 0 success, 2 invalid config or argument (including derived
quantities outside float range and an --out that cannot be written), 3
regime violation under --strict, 4 quadrature tolerance failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import warnings
from collections.abc import Iterable

from . import __version__
from .bounds import CoherentFormula, ProbeKind, ProbeState, backaction, qcrb, optimal_tradeoff, table1
from .io import (
    dump_csv, dump_json, fieldmap_chunks, fmt, provenance_block, table_to_json, table_to_text,
)
from .physical import ExperimentConfig, LengthConvention, ModeIndices, TimeConvention, derive_params, validate_regime
from .physical import check_count, check_real

# fieldmap, fields and greens load numpy, and closedform and resonance take
# 2-4 ms to import: only the commands that use them import them

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_REGIME = 3
EXIT_QUADRATURE = 4

PI = math.pi

CONFIG_KEYS = ("cavity_length_m", "wavelength_m", "finesse", "measurement_time_s", "mode", "lossy_time_convention")
REQUIRED_KEYS = ("cavity_length_m", "wavelength_m")
AXES = ("xi", "eta", "zeta")
TRADEOFF_COLUMNS = ("n", "qcrb", "backaction_abs")


class ConfigError(ValueError):
    pass


@contextlib.contextmanager
def _config_errors():
    """Report a ValueError from the library calls inside as bad input."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str) -> tuple[ExperimentConfig, dict]:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    # ValueError also covers bad UTF-8 and integers too long to parse
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - set(CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in REQUIRED_KEYS:
        if key not in raw:
            raise ConfigError(f"missing required config key {key!r}")
    indices = raw.get("mode")
    if not (indices is None or isinstance(indices, list) and len(indices) == 3):
        raise ConfigError("mode must be a list of three integers")
    convention = TimeConvention.CAPTION
    if raw.get("lossy_time_convention") is not None:
        try:
            convention = TimeConvention(raw["lossy_time_convention"])
        except ValueError as exc:
            raise ConfigError(f"invalid lossy_time_convention: {raw['lossy_time_convention']!r}") from exc
    # the records refuse each value that is not a number, or an integer, in range
    with _config_errors():
        config = ExperimentConfig(
            cavity_length=raw["cavity_length_m"],
            wavelength=raw["wavelength_m"],
            finesse=raw.get("finesse"),
            measurement_time_override=raw.get("measurement_time_s"),
            mode=None if indices is None else ModeIndices(*indices),
            time_convention=convention,
        )
        derive_params(config)
    return config, raw


def _write(text, out: str | None):
    """Write a command's text, one string or an iterable of chunks."""
    chunks = [text] if isinstance(text, str) else text
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        try:
            with open(out, "w") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            raise ConfigError(f"cannot write {out}: {exc}") from exc


def _parse_grid(grid: str, slice_spec: str | None):
    from .fieldmap import GridSpec
    try:
        counts = [int(v) for v in grid.lower().split("x")]
    except ValueError:
        raise ConfigError(f"--grid must be N, NxN or NxNxN with integer counts, got {grid!r}") from None
    axes = {}
    if slice_spec is not None:
        axis, _, value = slice_spec.partition("=")
        axis = axis.strip()
        if axis not in AXES or not value:
            raise ConfigError("--slice must look like xi=1.5")
        try:
            pinned = float(value)
        except ValueError:
            raise ConfigError(f"--slice value must be a number, got {value!r}") from None
        axes[axis] = (pinned, pinned, 1)
    free = [name for name in AXES if name not in axes]
    if len(counts) == 1:
        counts = counts * len(free)
    if len(counts) != len(free):
        shape = "x".join("N" * len(free))
        raise ConfigError(f"--grid must be N or {shape} {'with' if axes else 'without'} --slice")
    for name, c in zip(free, counts):
        axes[name] = (-PI, 2.0 * PI, c)
    return GridSpec(**axes)


def cmd_bounds(args) -> tuple[int, str]:
    config, raw = load_config(args.config)
    with _config_errors():
        table = table1(config)
    if args.format == "text":
        return EXIT_OK, table_to_text(table)
    return EXIT_OK, table_to_json(table, provenance_block(raw, args.seed))


def cmd_field_map(args) -> tuple[int, Iterable[str]]:
    from .fields import metric_grid
    from .greens import QuadratureSpec
    if args.big_m is not None and args.mode != "01m":
        raise ConfigError("--big-m needs --mode 01m")
    raw = None
    big_m = args.big_m
    if args.config is not None:
        config, raw = load_config(args.config)
        if args.mode == "01m" and big_m is None:
            big_m = config.resolved_mode.l_z
    if args.mode == "01m" and big_m is None:
        raise ConfigError("mode 01m needs --big-m or a config with a mode")
    with _config_errors():
        grid = _parse_grid(args.grid, args.slice)
        field = metric_grid(grid, QuadratureSpec(rel_tol=args.tolerance), big_m=big_m, threads=args.threads)
    prov = provenance_block(raw, args.seed)
    prov["mode"] = args.mode
    if big_m is not None:
        prov["M"] = big_m
    # a stream of chunks: the map's text is never held whole
    return (EXIT_OK if field.all_converged else EXIT_QUADRATURE), fieldmap_chunks(field, prov, args.format)


def _log_sweep(lo: float, hi: float, points: int) -> list[float]:
    """np.logspace(lo, hi, points) without numpy, to 1 ulp: 10**x at the same x, lo and hi exact."""
    step = (hi - lo) / max(points - 1, 1)
    return [10.0 ** (lo + i * step) for i in range(points - 1)] + [10.0 ** (hi if points > 1 else lo)]


def cmd_tradeoff(args) -> tuple[int, str]:
    with _config_errors():
        check_count(args.points, "--points", 1)
        check_real(args.decades, "--decades", gt=0)
    config, raw = load_config(args.config)
    kind = ProbeKind(args.state)
    formula = CoherentFormula(args.formula)
    with _config_errors():
        params = derive_params(config)
        sol = optimal_tradeoff(params, kind, formula)
        log_n = math.log10(sol.n_opt)
        lo, hi = log_n - args.decades, log_n + args.decades
        if not (sys.float_info.min_10_exp <= lo and hi <= sys.float_info.max_10_exp):
            raise ValueError(f"the sweep 1e{lo:.3g}..1e{hi:.3g} leaves float range; lower --decades")
        curves = [
            (n, qcrb(ProbeState(kind, n, formula), params.tau), abs(backaction(n, params.mode_index, params.kappa)))
            for n in _log_sweep(lo, hi, args.points)
        ]
    prov = provenance_block(raw, args.seed)
    solution = {
        "state": kind.value,
        "formula": formula.value if kind is ProbeKind.COHERENT else None,
        "n_opt": sol.n_opt,
        "delta_c_min": sol.delta_c_min,
    }
    if args.format == "csv":
        return EXIT_OK, dump_csv([prov, solution], TRADEOFF_COLUMNS, curves)
    columns = dict(zip(TRADEOFF_COLUMNS, zip(*curves)))
    return EXIT_OK, dump_json({"provenance": prov, "solution": solution, "curves": columns})


def cmd_frequency_shift(args) -> tuple[int, str]:
    from .resonance import frequency_shift
    config, raw = load_config(args.config)
    with _config_errors():
        shift = frequency_shift(config, args.n, LengthConvention(args.convention), args.transverse)
    if args.format == "text":
        return EXIT_OK, f"delta_omega/omega = {fmt(shift)}\n"
    payload = {
        "provenance": provenance_block(raw, args.seed),
        "photons": args.n,
        "convention": args.convention,
        "delta_omega_over_omega": shift,
    }
    return EXIT_OK, dump_json(payload)


def cmd_validate(args) -> tuple[int, str]:
    config, raw = load_config(args.config)
    with _config_errors():
        report = validate_regime(config, args.n)
    code = EXIT_REGIME if args.strict and not report.all_ok else EXIT_OK
    if args.format == "text":
        lines = [*report.messages, "all checks passed" if report.all_ok else "REGIME VIOLATION"]
        return code, "\n".join(lines) + "\n"
    payload = {
        "provenance": provenance_block(raw, args.seed),
        "photons": args.n,
        "weak_field_ok": report.weak_field_ok,
        "weak_field_margin": report.weak_field_margin,
        "nonlinear_qed_ok": report.nonlinear_qed_ok,
        "min_cavity_length_m": report.min_cavity_length,
        "wavelength_vs_planck_ok": report.wavelength_vs_planck_ok,
        "messages": report.messages,
    }
    return code, dump_json(payload)


def cmd_kernel(args) -> tuple[int, str | None]:
    from .closedform import SingularKernelError, line_kernel
    with _config_errors():
        try:
            value = line_kernel(args.xi, args.eta, args.zeta)
        except SingularKernelError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return EXIT_QUADRATURE, None
    if args.format == "json":
        return EXIT_OK, dump_json({"xi": args.xi, "eta": args.eta, "zeta": args.zeta, "value": value})
    return EXIT_OK, fmt(value) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavlight",
        description="Metric perturbation of stored cavity light and bounds on measuring c",
    )
    parser.add_argument("--version", action="version", version=f"cavlight {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True, formats=("json", "text"), default_format="json"):
        p.add_argument("--config", required=config_required, help="JSON config path")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=formats, default=default_format)
        p.add_argument("--seed", type=int, default=42)

    p = sub.add_parser("bounds", help="scaling table of minimal uncertainties")
    common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("field-map", help="metric and light-speed deviation maps")
    common(p, config_required=False, formats=("csv", "json"), default_format="csv")
    p.add_argument("--mode", choices=("011", "01m"), default="011")
    p.add_argument("--big-m", type=int, default=None, help="mode index M for 01m")
    p.add_argument("--grid", default="48x48x48", help="N, NxN (with --slice) or NxNxN")
    p.add_argument("--slice", default=None, help="pin one axis, e.g. xi=1.5")
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.add_argument("--threads", type=int, default=0, help="0 = auto")
    p.set_defaults(func=cmd_field_map)

    p = sub.add_parser("tradeoff", help="noise/back-action crossing and sweep")
    common(p, formats=("csv", "json"), default_format="json")
    p.add_argument("--state", choices=[k.value for k in ProbeKind], default="optimal")
    p.add_argument("--formula", choices=[f.value for f in CoherentFormula], default="asymptotic")
    p.add_argument("--points", type=int, default=101)
    p.add_argument("--decades", type=float, default=3.0, help="sweep half-width in decades of n")
    p.set_defaults(func=cmd_tradeoff)

    p = sub.add_parser("frequency-shift", help="global resonance shift")
    common(p)
    p.add_argument("--n", type=float, required=True, help="photon number")
    p.add_argument(
        "--convention",
        choices=[c.value for c in LengthConvention],
        default="light-signal",
    )
    p.add_argument("--transverse", choices=("center", "average"), default="center")
    p.set_defaults(func=cmd_frequency_shift)

    p = sub.add_parser("validate", help="physical-regime checks")
    common(p)
    p.add_argument("--n", type=float, required=True, help="photon number")
    p.add_argument("--strict", action="store_true", help="exit 3 on violation")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("kernel", help="debug single kernel evaluation")
    p.add_argument("xi", type=float)
    p.add_argument("eta", type=float)
    p.add_argument("zeta", type=float)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_kernel)
    return parser


def main(argv=None) -> int:
    """Run one command.  Warnings raised while it runs are printed as
    ``warning:`` lines after it, except on exit 2, whose one line is the
    ``config error:``; filters that turn a warning into an error still do."""
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        try:
            code, text = args.func(args)
            if text is not None:
                _write(text, args.out)
        except ConfigError as exc:
            sys.stderr.write(f"config error: {exc}\n")
            return EXIT_CONFIG
    for w in caught:
        sys.stderr.write(f"warning: {w.message}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
