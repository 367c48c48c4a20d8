"""Per-layer metrics, taken by calling each cavlight module's public
functions from outside.

A traced run measures these before its workload, so the first quadrature
call meets a cold Gauss-rule cache and is reported as set-up.  Every call
is wrapped in a span named after the layer function it enters.
"""

from __future__ import annotations

import contextlib
import io as stdio
import math
import statistics
import subprocess
import sys
import time

import numpy as np

from workloads import BIG_M, MAP01M_TOL, RunContext, interior_grid

PI = math.pi
CLASS_POINTS = {
    "interior": (PI / 2, PI / 2, PI / 2),  # cavity centre: four singular quadrants
    "face": (PI / 2, PI / 2, 0.0),  # singular line on the zeta = 0 wall
    "edge": (PI / 2, 0.0, 0.0),  # singular line on the eta = zeta = 0 edge
    "exterior": (PI / 2, -PI, -PI),  # far from the source square
}
SOURCES = ("f1", "f2", "f3", "f3_tilde", "f4")
POINTS = 1_000_000
MAP_TOL = 1e-6
GRID_N = 8  # metric_grid serial/parallel grid: linspace(-pi, 2pi, 8)^3
RESIDUAL_N = 7


def _median_s(fn, reps: int, per_rep: int = 1) -> float:
    """Median seconds of one call, over reps batches of per_rep calls."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(per_rep):
            fn()
        times.append((time.perf_counter() - t0) / per_rep)
    return statistics.median(times)


def _import_ms(env: dict, reps: int = 3) -> dict[str, float]:
    """Self time of scipy, numpy and cavlight modules from -X importtime."""
    totals: dict[str, list[float]] = {"scipy": [], "numpy": [], "cavlight": []}
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import cavlight"],
            env=env, capture_output=True, text=True, check=True,
        )
        sums = dict.fromkeys(totals, 0.0)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not line.startswith("import time:"):
                continue
            try:
                self_us = float(parts[0].split(":")[1])
            except ValueError:
                continue  # the column header
            top = parts[2].strip().split(".")[0]
            if top in sums:
                sums[top] += self_us
        for key, us in sums.items():
            totals[key].append(us / 1e3)
    return {key: statistics.median(v) for key, v in totals.items()}


def measure(ctx: RunContext) -> dict[str, tuple[float, str]]:
    from cavlight import bounds, cli, fields, greens, io, modes, physical, resonance
    from cavlight.fieldmap import GridSpec

    tr = ctx.tracer
    m: dict[str, tuple[float, str]] = {}
    spec = greens.QuadratureSpec(rel_tol=MAP_TOL)

    with tr.span("greens.convolve_point.first"):
        t0 = time.perf_counter()
        greens.convolve_point(fields.SRC_F1, CLASS_POINTS["exterior"], spec)
        m["greens.convolve_point.first_call_ms"] = ((time.perf_counter() - t0) * 1e3, "ms")

    with tr.span("import"):
        imports = _import_ms(ctx.env)
    m["import.scipy_ms"] = (imports["scipy"], "ms")
    m["import.numpy_ms"] = (imports["numpy"], "ms")
    m["import.cavlight_self_ms"] = (imports["cavlight"], "ms")

    rng = np.random.default_rng(ctx.seed)
    xi = rng.uniform(-PI, 2.0 * PI, POINTS)
    eta = rng.uniform(0.05, PI, POINTS)  # rho > 0: off the singular line
    zeta = rng.uniform(-PI, 2.0 * PI, POINTS)
    with tr.span("greens.kernel"):
        s = _median_s(lambda: greens.kernel(xi, eta, zeta), reps=5)
    m["greens.kernel.ns_per_point"] = (s / POINTS * 1e9, "ns")
    ep, zp = rng.uniform(0.0, PI, POINTS), rng.uniform(0.0, PI, POINTS)
    for name in ("f1", "f2", "f3", "f4"):
        fn = getattr(modes, name)
        with tr.span(f"modes.{name}"):
            s = _median_s(lambda: fn(ep, zp), reps=5)
        m[f"modes.source.ns_per_point.{name}"] = (s / POINTS * 1e9, "ns")

    for cls, point in CLASS_POINTS.items():
        with tr.span("greens.convolve_point"):
            s = _median_s(lambda: [greens.convolve_point(src, point, spec) for src in fields.G_SOURCES], reps=3)
        m[f"greens.convolve_point.ms.{cls}"] = (s * 1e3, "ms")
        for name in SOURCES:
            seen = [0]

            def counted(e, z, fn=getattr(modes, name), seen=seen):
                seen[0] += np.size(e)
                return fn(e, z)

            greens.convolve_point(greens.SourceFunction(counted, name), point, spec)
            m[f"greens.convolve_point.integrand_points.{cls}.{name}"] = (seen[0], "count")
        with tr.span("fields.metric_011"):
            s = _median_s(lambda: fields.metric_011(point, spec), reps=3)
        m[f"fields.metric_011.ms.{cls}"] = (s * 1e3, "ms")
        with tr.span("fields.metric_01M"):
            s = _median_s(lambda: fields.metric_01M(point, BIG_M, spec), reps=3)
        m[f"fields.metric_01M.ms.{cls}"] = (s * 1e3, "ms")

    oracle_points = [tuple(p) for p in rng.uniform(-PI, 2.0 * PI, (8, 3))]
    g_times = []
    for point in oracle_points:
        with tr.span("fields.g_integrals"):
            t0 = time.perf_counter()
            fields.g_integrals(point)
            g_times.append(time.perf_counter() - t0)
    m["fields.g_integrals.ms"] = (statistics.median(g_times) * 1e3, "ms")
    sources = list(fields.G_SOURCES) + [fields.SRC_LARGE_M]
    with tr.span("greens.mc_oracle_many"):
        s = _median_s(lambda: greens.mc_oracle_many(sources, oracle_points[0], POINTS, seed=ctx.seed), reps=3)
    m["greens.mc_oracle_many.s_per_point"] = (s, "s")

    grid = GridSpec(*[(-PI, 2.0 * PI, GRID_N)] * 3)
    with tr.span("fields.metric_grid"):
        t0 = time.perf_counter()
        fields.metric_grid(grid, spec, threads=1)
        serial = time.perf_counter() - t0
    with tr.span("fields.metric_grid"):
        t0 = time.perf_counter()
        field = fields.metric_grid(grid, spec, threads=ctx.workers)
        parallel = time.perf_counter() - t0
    m["fields.metric_grid.serial_s"] = (serial, "s")
    m["fields.metric_grid.parallel_s"] = (parallel, "s")
    m["fields.metric_grid.speedup"] = (serial / parallel, "x")

    prov = io.provenance_block(None, ctx.seed)
    with tr.span("io.fieldmap_to_csv"):
        s = _median_s(lambda: io.fieldmap_to_csv(field, prov), reps=3)
    m["io.fieldmap_to_csv.s"] = (s, "s")
    m["io.fieldmap_to_csv.bytes"] = (len(io.fieldmap_to_csv(field, prov).encode()), "bytes")

    interior = fields.metric_grid(
        interior_grid(ctx.seed, RESIDUAL_N), greens.QuadratureSpec(rel_tol=MAP01M_TOL),
        big_m=BIG_M, threads=ctx.workers,
    )
    with tr.span("fields.laplacian_residual"):
        s = _median_s(lambda: fields.laplacian_residual(interior), reps=5)
    m["fields.laplacian_residual.s"] = (s, "s")
    m["fields.laplacian_residual.max_relative"] = (fields.laplacian_residual(interior).max_relative, "ratio")

    config = physical.ExperimentConfig(cavity_length=1000.0, wavelength=500e-9, finesse=1e4)

    def shift():
        # line_average_epsilon is an lru_cache: clear it or this times a lookup
        resonance.line_average_epsilon.cache_clear()
        resonance.frequency_shift(config, 1e20)

    with tr.span("resonance.frequency_shift"):
        m["resonance.frequency_shift.s"] = (_median_s(shift, reps=3), "s")
    with tr.span("bounds.table1"):
        s = _median_s(lambda: bounds.table1(config), reps=5, per_rep=20)
    m["bounds.table1.us"] = (s * 1e6, "us")
    with tr.span("bounds.optimal_tradeoff"):
        s = _median_s(
            lambda: bounds.optimal_tradeoff(config, bounds.ProbeKind.COHERENT, bounds.CoherentFormula.EXACT),
            reps=5, per_rep=20,
        )
    m["bounds.optimal_tradeoff.coherent_exact.us"] = (s * 1e6, "us")
    with tr.span("physical.validate_regime"):
        s = _median_s(lambda: physical.validate_regime(config, 1e25), reps=5, per_rep=200)
    m["physical.validate_regime.us"] = (s * 1e6, "us")

    def kernel_command():
        with contextlib.redirect_stdout(stdio.StringIO()):
            cli.main(["kernel", "1.5", "0.7", "0.3"])

    with tr.span("cli.main"):
        m["cli.main.kernel.us"] = (_median_s(kernel_command, reps=5, per_rep=50) * 1e6, "us")
    return m
