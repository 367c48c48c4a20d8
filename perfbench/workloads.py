"""The four benchmark workloads and their correctness gates.

Each workload is a closed loop driven from one process: the next unit of
work starts when the previous one has finished, for about the run's
measured seconds and at least MIN_UNITS units.  Gates run after the timed
loop and never count towards a timing.  README.md in this directory says
why each workload exists and which ROADMAP item it should or should not
move.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spans import Tracer

PI = math.pi
MIN_UNITS = 3

# map011-default: the CLI's own default range, linspace(-pi, 2pi, N) per axis
MAP011_N = 10
MAP011_TOL = 1e-6
REFERENCE_TOL = 1e-8
CSV_COLUMNS = ("xi", "eta", "zeta", "h00", "h11", "h22", "h33", "h23", "dcx", "dcy", "dcz", "err")

# map01m-interior: an isotropic grid strictly inside the cavity and below
# the mid-plane on every axis, so it is never symmetric about pi/2
MAP01M_N = 6
MAP01M_SPACING = 0.09  # <= pi/32, as laplacian_residual requires
# start + 5 * 0.09 <= 0.99 < pi/2.  The range is one spacing wide, so every
# seed covers nearly the same region and does nearly the same work.
MAP01M_START = (0.45, 0.54)
MAP01M_TOL = 1e-8
BIG_M = 1000
RESIDUAL_BOUND = 0.02  # acceptance criterion 3's bound

# cli-mix: the fixed configuration of the cheap commands
CLI_CONFIG = {"cavity_length_m": 1000.0, "wavelength_m": 5e-07, "finesse": 10000.0}

# oracle-verify: criterion 4's oracle settings.  At 3 sigma a correct
# quadrature misses ~0.27% of comparisons, so over the >= 18 comparisons of
# a run, a hit rate below 95% (several misses) means a real disagreement.
ORACLE_SAMPLES = 1_000_000
ORACLE_SIGMA = 3.0
ORACLE_HIT_RATE = 0.95


@dataclass
class RunContext:
    seed: int
    seconds: float
    workers: int
    trace: bool
    tracer: Tracer
    env: dict  # environment for program subprocesses
    tmp: Path  # scratch directory inside the checkout


@dataclass
class Outcome:
    latencies: list[float]  # seconds per request: one map, one CLI call or one point
    items: int  # nodes, CLI calls or oracle points completed
    busy_s: float  # time inside the timed units
    attempted: int
    failed: int
    peak_rss_mb: float
    gates: dict[str, bool]
    unit_times: list[float] = field(default_factory=list)
    traced_units: list[bool] = field(default_factory=list)
    notes: dict = field(default_factory=dict)


def closed_loop(ctx: RunContext, unit):
    """Call unit(i) back to back for ctx.seconds, at least MIN_UNITS times.

    After MIN_UNITS, a unit starts only if a unit of the median length so
    far still ends within ctx.seconds, so a run lasts about ctx.seconds
    whatever the unit length.  In a traced run every second unit is
    traced, so the traced and the untraced cost of the same work can be
    compared within one run.  A traced unit is one span, the parent of
    the spans of its calls.  Returns the results, the seconds of each
    unit and which were traced.
    """
    results, times, traced = [], [], []
    start = time.perf_counter()
    while len(times) < MIN_UNITS or time.perf_counter() - start + statistics.median(times) <= ctx.seconds:
        ctx.tracer.enabled = ctx.trace and len(times) % 2 == 1
        t0 = time.perf_counter()
        with ctx.tracer.span("unit"):
            results.append(unit(len(times)))
        times.append(time.perf_counter() - t0)
        traced.append(ctx.tracer.enabled)
    ctx.tracer.enabled = ctx.trace
    return results, times, traced


def _peak_rss_mb(include_self: bool) -> float:
    """Largest peak RSS of one process: the children (CLI processes, pool
    workers) and, for in-process workloads, this process."""
    kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if include_self:
        kb = max(kb, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return kb / 1024.0


def _cli(ctx: RunContext, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "cavlight.cli", *args],
        env=ctx.env,
        capture_output=True,
        text=True,
    )


def _close(a, b, tol, err):
    """Criterion 5's agreement test between two quadrature results."""
    return np.abs(a - b) <= 4.0 * tol * np.maximum(np.abs(a), 1.0) + 2.0 * err


# -- map011-default ----------------------------------------------------------

def _parse_csv(text: str) -> np.ndarray | None:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines or tuple(lines[0].split(",")) != CSV_COLUMNS:
        return None
    try:
        return np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    except ValueError:
        return None


def _mirror_ok(rows: np.ndarray, n: int) -> bool:
    """xi -> pi - xi: node i and node n-1-i along xi carry the same field."""
    a = rows.reshape(n, n * n, len(CSV_COLUMNS))
    b = a[::-1]
    coords_ok = np.all(np.abs(a[..., 0] + b[..., 0] - PI) < 1e-7) and np.array_equal(
        a[..., 1:3], b[..., 1:3]
    )
    err = a[..., 11:] + b[..., 11:]
    return bool(coords_ok and np.all(_close(a[..., 3:11], b[..., 3:11], MAP011_TOL, err)))


def _reference_ok(rows: np.ndarray, n: int, seed: int) -> bool:
    """One interior and two random nodes agree with metric_011 at 1e-8."""
    from cavlight.fields import metric_011
    from cavlight.greens import QuadratureSpec

    axis = np.linspace(-PI, 2.0 * PI, n)
    inside = np.flatnonzero((axis > 0.0) & (axis < PI))
    rng = np.random.default_rng(seed)
    picks = [tuple(rng.choice(inside, 3))] + [tuple(rng.integers(0, n, 3)) for _ in range(2)]
    spec = QuadratureSpec(rel_tol=REFERENCE_TOL)
    for i, j, k in picks:
        row = rows[(i * n + j) * n + k]
        ref = metric_011((axis[i], axis[j], axis[k]), spec)
        want = np.array([ref.h00, ref.h11, ref.h22, ref.h33, ref.h23])
        if not (ref.converged and np.all(_close(row[3:8], want, MAP011_TOL, row[11] + ref.error))):
            return False
    return True


def map011_default(ctx: RunContext) -> Outcome:
    n = MAP011_N
    args = [
        "field-map", "--grid", str(n), "--tolerance", repr(MAP011_TOL),
        "--threads", str(ctx.workers), "--seed", str(ctx.seed),
    ]

    def unit(i):
        with ctx.tracer.span("cli.field-map"):
            return _cli(ctx, *args, "--out", str(ctx.tmp / f"map-{i}.csv")).returncode

    codes, times, traced = closed_loop(ctx, unit)
    peak = _peak_rss_mb(include_self=False)
    outputs = [ctx.tmp / f"map-{i}.csv" for i in range(len(times))]
    texts = [p.read_text() if p.exists() else "" for p in outputs]
    rows = _parse_csv(texts[0])
    shape_ok = rows is not None and rows.shape == (n**3, len(CSV_COLUMNS))
    gates = {
        "exit_codes": all(c == 0 for c in codes),
        "rows_finite": bool(shape_ok and np.all(np.isfinite(rows))),
        "identical_reruns": all(t == texts[0] for t in texts),
    }
    gates["xi_mirror"] = gates["rows_finite"] and _mirror_ok(rows, n)
    gates["reference_nodes"] = gates["rows_finite"] and _reference_ok(rows, n, ctx.seed)
    nodes = n**3
    return Outcome(
        latencies=times,
        items=nodes * len(times),
        busy_s=sum(times),
        attempted=nodes * len(times),
        failed=nodes * sum(c != 0 for c in codes),
        peak_rss_mb=peak,
        gates=gates,
        unit_times=times,
        traced_units=traced,
        notes={"grid": f"linspace(-pi, 2pi, {n})^3", "exit_codes": codes},
    )


# -- map01m-interior ---------------------------------------------------------

def interior_grid(seed: int, n: int):
    """Isotropic interior grid with per-axis starts drawn from the seed."""
    from cavlight.fieldmap import GridSpec

    lo, hi = MAP01M_START
    starts = np.random.default_rng(seed).uniform(lo, hi, 3)
    axes = [(float(s), float(s) + (n - 1) * MAP01M_SPACING, n) for s in starts]
    return GridSpec(xi=axes[0], eta=axes[1], zeta=axes[2])


def map01m_interior(ctx: RunContext) -> Outcome:
    from cavlight.fields import laplacian_residual, metric_01M, metric_grid
    from cavlight.greens import QuadratureSpec

    grid = interior_grid(ctx.seed, MAP01M_N)
    spec = QuadratureSpec(rel_tol=MAP01M_TOL)
    # fill the Gauss-rule cache before forking workers and before timing
    metric_01M(grid.points()[0], BIG_M, spec)

    def unit(i):
        with ctx.tracer.span("fields.metric_grid"):
            return metric_grid(grid, spec, big_m=BIG_M, threads=ctx.workers)

    fields_, times, traced = closed_loop(ctx, unit)
    peak = _peak_rss_mb(include_self=True)
    first = fields_[0]
    with ctx.tracer.span("fields.laplacian_residual"):
        residual = laplacian_residual(first)
    same = all(
        np.array_equal(f.converged, first.converged)
        and all(np.array_equal(f.components[k], first.components[k]) for k in first.components)
        for f in fields_[1:]
    )
    unconverged = sum(int(np.size(f.converged) - np.count_nonzero(f.converged)) for f in fields_)
    nodes = MAP01M_N**3
    return Outcome(
        latencies=times,
        items=nodes * len(times),
        busy_s=sum(times),
        attempted=nodes * len(times),
        failed=unconverged,
        peak_rss_mb=peak,
        gates={
            "all_converged": unconverged == 0,
            "residual_bound": residual.max_relative < RESIDUAL_BOUND,
            "identical_reruns": same,
        },
        unit_times=times,
        traced_units=traced,
        notes={"grid": [list(a) for a in grid.axes], "max_relative": residual.max_relative},
    )


# -- cli-mix -----------------------------------------------------------------

def _finite_positive(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x) and x > 0


def _check_cli(name: str, stdout: str) -> bool:
    """Each command's output parses and carries its headline value."""
    try:
        if name == "kernel":
            return math.isfinite(float(stdout))
        payload = json.loads(stdout)
    except ValueError:
        return False
    if name == "bounds":
        return isinstance(payload.get("entries"), dict) and bool(payload["entries"])
    if name == "tradeoff":
        sol = payload.get("solution", {})
        return _finite_positive(sol.get("n_opt")) and _finite_positive(sol.get("delta_c_min"))
    if name == "validate":
        return isinstance(payload.get("weak_field_ok"), bool)
    return _finite_positive(payload.get("delta_omega_over_omega"))


def _cli_pass(rng: np.random.Generator, config: str) -> list[tuple[str, list[str]]]:
    """The five cheap commands in a seeded order, with seeded inputs."""
    xi, eta, zeta = rng.uniform(-PI, 2.0 * PI), rng.uniform(0.05, PI), rng.uniform(0.05, PI)
    commands = [
        ("bounds", ["bounds", "--config", config]),
        ("tradeoff", ["tradeoff", "--config", config, "--state", "coherent", "--formula", "exact"]),
        ("validate", ["validate", "--config", config, "--n", f"{10 ** rng.uniform(24.5, 25.5):.6e}"]),
        ("frequency-shift", ["frequency-shift", "--config", config, "--n", f"{10 ** rng.uniform(19.5, 20.5):.6e}"]),
        ("kernel", ["kernel", f"{xi:.9f}", f"{eta:.9f}", f"{zeta:.9f}"]),
    ]
    return [commands[i] for i in rng.permutation(len(commands))]


def cli_mix(ctx: RunContext) -> Outcome:
    config = ctx.tmp / "config.json"
    config.write_text(json.dumps(CLI_CONFIG))
    rng = np.random.default_rng(ctx.seed)
    pending = []  # the rest of the current pass
    calls = []  # (name, returncode, stdout, seconds)

    def unit(i):
        # one call per unit, so a run stops close to its measured seconds
        if not pending:
            pending.extend(_cli_pass(rng, str(config)))
        name, args = pending.pop(0)
        t0 = time.perf_counter()
        with ctx.tracer.span(f"cli.{name}"):
            proc = _cli(ctx, *args)
        calls.append((name, proc.returncode, proc.stdout, time.perf_counter() - t0))

    _, times, traced = closed_loop(ctx, unit)
    peak = _peak_rss_mb(include_self=False)
    codes_ok = [rc == 0 for _, rc, _, _ in calls]
    parsed = [_check_cli(name, out) for name, _, out, _ in calls]
    return Outcome(
        latencies=[dt for *_, dt in calls],
        items=len(calls),
        busy_s=sum(times),
        attempted=len(calls),
        failed=sum(not (c and p) for c, p in zip(codes_ok, parsed)),
        peak_rss_mb=peak,
        gates={"exit_codes": all(codes_ok), "outputs_parse": all(parsed)},
        unit_times=times,
        traced_units=traced,
        notes={"calls": [(name, rc, round(dt, 4)) for name, rc, _, dt in calls]},
    )


# -- oracle-verify -----------------------------------------------------------

def oracle_verify(ctx: RunContext) -> Outcome:
    from cavlight.fields import G_SOURCES, SRC_LARGE_M, g_integrals, h_tilde
    from cavlight.greens import mc_oracle_many

    sources = list(G_SOURCES) + [SRC_LARGE_M]
    rng = np.random.default_rng(ctx.seed)
    centre = (PI / 2,) * 3
    g_integrals(centre)  # fill the Gauss-rule cache before timing

    def unit(i):
        point = tuple(rng.uniform(-PI, 2.0 * PI, 3))
        with ctx.tracer.span("fields.g_integrals"):
            g = g_integrals(point)
        with ctx.tracer.span("fields.h_tilde"):
            h = h_tilde(point)
        with ctx.tracer.span("greens.mc_oracle_many"):
            mc = mc_oracle_many(sources, point, ORACLE_SAMPLES, seed=ctx.seed, point_index=i)
        return list(g.as_tuple()) + [h.value], g.converged and h.converged, mc

    results, times, traced = closed_loop(ctx, unit)
    peak = _peak_rss_mb(include_self=True)
    hits = total = 0
    for quad, _, mc in results:
        for q, (mean, stderr) in zip(quad, mc):
            total += 1
            hits += abs(q - mean) <= ORACLE_SIGMA * max(stderr, 1e-12)
    unconverged = sum(not ok for _, ok, _ in results)
    return Outcome(
        latencies=times,
        items=len(times),
        busy_s=sum(times),
        attempted=len(times),
        failed=unconverged,
        peak_rss_mb=peak,
        gates={"all_converged": unconverged == 0, "hit_rate": hits / total >= ORACLE_HIT_RATE},
        unit_times=times,
        traced_units=traced,
        notes={"hits": hits, "comparisons": total},
    )


WORKLOADS = {
    "map011-default": map011_default,
    "map01m-interior": map01m_interior,
    "cli-mix": cli_mix,
    "oracle-verify": oracle_verify,
}
