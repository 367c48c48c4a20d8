"""Command-line front end.

Commands: bounds, field-map, tradeoff, frequency-shift, validate, kernel.
Configuration is a JSON file validated against a fixed key set; every
output embeds a provenance block and is byte-identical across reruns
with the same config and seed.

Exit codes: 0 success, 2 invalid config (including derived quantities
outside float range), 3 regime violation under --strict, 4 quadrature
tolerance failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings

import numpy as np

from . import __version__
from .bounds import CoherentFormula, ProbeKind, ProbeState, backaction, qcrb, optimal_tradeoff, table1
from .fieldmap import GridSpec
from .fields import MAX_LARGE_M, MIN_LARGE_M, metric_grid
from .greens import QuadratureSpec, SingularKernelError, kernel
from .io import (
    fieldmap_to_csv,
    fieldmap_to_json,
    fmt,
    provenance_block,
    round9,
    table_to_json,
    table_to_text,
)
from .modes import ModeIndices
from .physical import ExperimentConfig, TimeConvention, derive_params, validate_regime
from .resonance import LengthConvention, frequency_shift

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_REGIME = 3
EXIT_QUADRATURE = 4

PI = math.pi

CONFIG_KEYS = {
    "cavity_length_m": (int, float),
    "wavelength_m": (int, float),
    "finesse": (int, float, type(None)),
    "measurement_time_s": (int, float, type(None)),
    "mode": (list, type(None)),
    "lossy_time_convention": (str, type(None)),
}
REQUIRED_KEYS = ("cavity_length_m", "wavelength_m")


class ConfigError(ValueError):
    pass


def load_config(path: str) -> tuple[ExperimentConfig, dict]:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - set(CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in REQUIRED_KEYS:
        if key not in raw:
            raise ConfigError(f"missing required config key {key!r}")
    for key, value in raw.items():
        # bool is a subclass of int, and no key takes a bool
        if not isinstance(value, CONFIG_KEYS[key]) or isinstance(value, bool):
            raise ConfigError(f"config key {key!r} has invalid type {type(value).__name__}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"config key {key!r} must be finite, got {value}")

    mode = None
    if raw.get("mode") is not None:
        indices = raw["mode"]
        if len(indices) != 3 or not all(type(i) is int for i in indices):
            raise ConfigError("mode must be a list of three integers")
        try:
            mode = ModeIndices(*indices)
        except ValueError as exc:
            raise ConfigError(f"invalid mode {indices}: {exc}") from exc
    convention = TimeConvention.CAPTION
    if raw.get("lossy_time_convention") is not None:
        try:
            convention = TimeConvention(raw["lossy_time_convention"])
        except ValueError as exc:
            raise ConfigError(f"invalid lossy_time_convention: {raw['lossy_time_convention']!r}") from exc
    try:
        config = ExperimentConfig(
            cavity_length=float(raw["cavity_length_m"]),
            wavelength=float(raw["wavelength_m"]),
            finesse=None if raw.get("finesse") is None else float(raw["finesse"]),
            measurement_time_override=(
                None if raw.get("measurement_time_s") is None else float(raw["measurement_time_s"])
            ),
            mode=mode,
            time_convention=convention,
        )
        derive_params(config)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return config, raw


def _photon_number(n: float) -> float:
    if not (math.isfinite(n) and n >= 0):
        raise ConfigError(f"--n must be a finite non-negative photon number, got {n}")
    return n


def _write(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise SystemExit(f"cannot write {out}: {exc}")


def _parse_grid(grid: str, slice_spec: str | None) -> GridSpec:
    try:
        counts = [int(v) for v in grid.lower().split("x")]
    except ValueError:
        raise ConfigError(f"--grid must be N, NxN or NxNxN with integer counts, got {grid!r}") from None
    default_range = (-PI, 2.0 * PI)
    if slice_spec is None:
        if len(counts) == 1:
            counts = counts * 3
        if len(counts) != 3:
            raise ConfigError("--grid must be N or NxNxN without --slice")
        axes = {
            name: (*default_range, c) for name, c in zip(("xi", "eta", "zeta"), counts)
        }
    else:
        axis, _, value = slice_spec.partition("=")
        axis = axis.strip()
        if axis not in ("xi", "eta", "zeta") or not value:
            raise ConfigError("--slice must look like xi=1.5")
        try:
            pinned = float(value)
        except ValueError:
            raise ConfigError(f"--slice value must be a number, got {value!r}") from None
        if len(counts) == 1:
            counts = counts * 2
        if len(counts) != 2:
            raise ConfigError("--grid must be N or NxN with --slice")
        axes = {}
        free = [n for n in ("xi", "eta", "zeta") if n != axis]
        axes[axis] = (pinned, pinned, 1)
        for name, c in zip(free, counts):
            axes[name] = (*default_range, c)
    return GridSpec(xi=axes["xi"], eta=axes["eta"], zeta=axes["zeta"])


def cmd_bounds(args) -> int:
    config, raw = load_config(args.config)
    try:
        table = table1(config)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    prov = provenance_block(raw, args.seed)
    if args.format == "text":
        _write(table_to_text(table), args.out)
    else:
        _write(table_to_json(table, prov), args.out)
    return EXIT_OK


def cmd_field_map(args) -> int:
    raw = None
    big_m = None
    if args.config is not None:
        config, raw = load_config(args.config)
        if args.mode == "01m":
            big_m = config.resolved_mode.l_z
    if args.mode == "01m" and args.big_m is not None:
        big_m = args.big_m
    if args.mode == "01m" and big_m is None:
        raise ConfigError("mode 01m needs --big-m or a config with a mode")
    if big_m is not None and big_m < MIN_LARGE_M:
        raise ConfigError(f"mode 01m needs M >= {MIN_LARGE_M}, got {big_m}")
    if big_m is not None and big_m > MAX_LARGE_M:
        raise ConfigError(f"mode 01m needs M <= {MAX_LARGE_M:.0e}, beyond which the metric leaves float range")
    if args.threads < 0:
        raise ConfigError("--threads must be 0 (auto) or a positive worker count")
    try:
        grid = _parse_grid(args.grid, args.slice)
        spec = QuadratureSpec(rel_tol=args.tolerance)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    field = metric_grid(grid, spec, big_m=big_m, threads=args.threads)
    prov = provenance_block(raw, args.seed)
    prov["mode"] = args.mode
    if big_m is not None:
        prov["M"] = big_m
    text = fieldmap_to_csv(field, prov) if args.format == "csv" else fieldmap_to_json(field, prov)
    _write(text, args.out)
    return EXIT_OK if field.all_converged else EXIT_QUADRATURE


def cmd_tradeoff(args) -> int:
    if args.points < 1:
        raise ConfigError(f"--points must be a positive count, got {args.points}")
    if not (math.isfinite(args.decades) and args.decades > 0):
        raise ConfigError(f"--decades must be a finite positive number, got {args.decades}")
    config, raw = load_config(args.config)
    kind = ProbeKind(args.state)
    formula = CoherentFormula(args.formula)
    try:
        params = derive_params(config)
        sol = optimal_tradeoff(params, kind, formula)
        log_n = math.log10(sol.n_opt)
        lo, hi = log_n - args.decades, log_n + args.decades
        if not (sys.float_info.min_10_exp <= lo and hi <= sys.float_info.max_10_exp):
            raise ValueError(f"the sweep 1e{lo:.3g}..1e{hi:.3g} leaves float range; lower --decades")
        n_values = np.logspace(lo, hi, args.points)
        curves = [
            (
                n,
                qcrb(ProbeState(kind, n, formula), params.tau),
                abs(backaction(n, params.mode_index, params.kappa)),
            )
            for n in n_values
        ]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    prov = provenance_block(raw, args.seed)
    solution = {
        "state": kind.value,
        "formula": formula.value if kind is ProbeKind.COHERENT else None,
        "method": sol.method,
        "n_opt": round9(sol.n_opt),
        "delta_c_min": round9(sol.delta_c_min),
    }
    if args.format == "csv":
        lines = [f"# {k}: {v}" for k, v in sorted(prov.items())]
        lines += [f"# {k}: {v}" for k, v in sorted(solution.items())]
        lines.append("n,qcrb,backaction_abs")
        lines += [f"{fmt(n)},{fmt(q)},{fmt(b)}" for n, q, b in curves]
        _write("\n".join(lines) + "\n", args.out)
    else:
        payload = {
            "provenance": prov,
            "solution": solution,
            "curves": {
                "n": [round9(n) for n, _, _ in curves],
                "qcrb": [round9(q) for _, q, _ in curves],
                "backaction_abs": [round9(b) for _, _, b in curves],
            },
        }
        _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK


def cmd_frequency_shift(args) -> int:
    config, raw = load_config(args.config)
    n = _photon_number(args.n)
    shift = frequency_shift(
        config, n, convention=LengthConvention(args.convention), transverse=args.transverse
    )
    if shift == math.inf:
        raise ConfigError(f"delta_omega/omega is outside float range for n = {n:.3g}")
    prov = provenance_block(raw, args.seed)
    if args.format == "text":
        _write(f"delta_omega/omega = {fmt(shift)}\n", args.out)
    else:
        payload = {
            "provenance": prov,
            "photons": args.n,
            "convention": args.convention,
            "delta_omega_over_omega": round9(shift),
        }
        _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK


def cmd_validate(args) -> int:
    config, raw = load_config(args.config)
    n = _photon_number(args.n)
    try:
        report = validate_regime(config, n)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    prov = provenance_block(raw, args.seed)
    if args.format == "text":
        lines = list(report.messages)
        lines.append("all checks passed" if report.all_ok else "REGIME VIOLATION")
        _write("\n".join(lines) + "\n", args.out)
    else:
        payload = {
            "provenance": prov,
            "photons": args.n,
            "weak_field_ok": report.weak_field_ok,
            "weak_field_margin": round9(report.weak_field_margin),
            "nonlinear_qed_ok": report.nonlinear_qed_ok,
            "min_cavity_length_m": round9(report.min_cavity_length),
            "wavelength_vs_planck_ok": report.wavelength_vs_planck_ok,
            "messages": list(report.messages),
        }
        _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    if args.strict and not report.all_ok:
        return EXIT_REGIME
    return EXIT_OK


def cmd_kernel(args) -> int:
    try:
        value = kernel(args.xi, args.eta, args.zeta)
    except SingularKernelError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_QUADRATURE
    if args.format == "json":
        _write(json.dumps({"xi": args.xi, "eta": args.eta, "zeta": args.zeta, "value": round9(value)}) + "\n", args.out)
    else:
        _write(fmt(value) + "\n", args.out)
    return EXIT_OK


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
            code = args.func(args)
        except ConfigError as exc:
            sys.stderr.write(f"config error: {exc}\n")
            return EXIT_CONFIG
    for w in caught:
        sys.stderr.write(f"warning: {w.message}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
