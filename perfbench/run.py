"""End-to-end and per-layer benchmark of the esrc command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is wide_point_fullfit, pdf_10db, or `all` for every workload in turn.
The driver is a closed loop with one client: it starts a fresh `esrc` CLI
process (through probe.py, with BLAS/OpenMP threads pinned to 1 before numpy
is imported), waits for it to exit, checks its output against the workload's
correctness gate, and starts the next one, until S seconds are used.  The
inputs are drawn from N, once per run.

With --trace 0 it reports the end-to-end metrics a user of the CLI sees
(END_TO_END): means over the invocations of the run, with times and rates
scaled to a reference host speed measured between invocations.  With --trace 1 it
alternates untraced and traced invocations of one input, reports the
per-layer metrics of the traced ones (PER_LAYER), the tracing overhead, and
checks that the exact layer counts repeat.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROBE = HERE / "probe.py"

# a run of one workload must exit within 180 s; children still running at
# this point are killed and their invocation counts as failed
RUN_BUDGET_S = 165.0
PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# --- workload sizes and correctness tolerances ---------------------------------

WIDE_TRIALS = 2500
WIDE_CONFIG = """\
n_t = 32
n_r = 64
side = receive
snr_db = 10
rho = 0.3
l_band = full
m = 0.7
"""
# recorded once with
#   esrc run --config <WIDE_CONFIG> --trials 200000 --seed 2204
# (esrc_mc and esrc_stderr columns); a run passes when its mean lies within
# WIDE_SIGMAS combined standard errors of it
WIDE_REF_MEAN = 262.707969
WIDE_REF_STDERR = 0.0048119058
WIDE_SIGMAS = 5.0

PDF_POINTS = 40
# per-user scales fitted at the fig1 preset's 10 dB, m = 0.7 point
PDF_BETAS = (9.18, 8.36, 8.41, 8.35, 8.36, 8.34, 8.31, 9.14)
PDF_JITTER = 0.02
# acceptance criterion 8: trapezoid mass and mean of the inverted density
PDF_MASS_TOL = 1e-3
PDF_MEAN_REL_TOL = 1e-2

class GateError(Exception):
    """An invocation's output failed its workload's correctness gate."""


@dataclass(frozen=True)
class Job:
    """One CLI invocation: its arguments, its output file and its gate."""

    cli_args: List[str]
    out: Path
    check: Callable[[str], "Checked"]


@dataclass(frozen=True)
class Checked:
    """What a passing gate learnt from the output."""

    items: int
    points: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    unit_of_work: str
    make_job: Callable[[Path, random.Random], Job]


# --- correctness gates ----------------------------------------------------------


def _csv_rows(text, expected_rows):
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != expected_rows:
        raise GateError(f"expected {expected_rows} CSV rows, got {len(rows)}")
    for row in rows:
        if row.get("status") != "ok":
            raise GateError(f"row with status {row.get('status')!r}: {row}")
    return rows


def _float(row, key):
    try:
        return float(row[key])
    except (KeyError, TypeError, ValueError):
        raise GateError(f"column {key!r} is missing or not a number in {row}") from None


def check_wide(text):
    (row,) = _csv_rows(text, 1)
    if int(_float(row, "trials")) != WIDE_TRIALS:
        raise GateError(f"row ran {row['trials']} trials, expected {WIDE_TRIALS}")
    for key in ("alpha_mean", "gof_pass_rate"):
        _float(row, key)  # the full fit filled them
    mean, stderr = _float(row, "esrc_mc"), _float(row, "esrc_stderr")
    allowed = WIDE_SIGMAS * math.hypot(stderr, WIDE_REF_STDERR)
    if not abs(mean - WIDE_REF_MEAN) <= allowed:
        raise GateError(
            f"esrc_mc {mean:.6g} is {abs(mean - WIDE_REF_MEAN):.3g} from the reference "
            f"{WIDE_REF_MEAN:.6g}, beyond {WIDE_SIGMAS:g} combined standard errors ({allowed:.3g})"
        )
    return Checked(items=WIDE_TRIALS, points=1)


def closed_form_esrc(betas):
    """sum_k e^{1/beta_k} E_1(1/beta_k) / ln 2, from scipy rather than esrc."""
    from scipy.special import exp1

    return sum(math.exp(1.0 / b) * float(exp1(1.0 / b)) for b in betas) / math.log(2.0)


def check_pdf(text, betas):
    grid, density = [], []
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        try:
            t, f = (float(v) for v in line.split())
        except ValueError:
            raise GateError(f"malformed density line {line!r}") from None
        grid.append(t)
        density.append(f)
    if len(grid) != PDF_POINTS:
        raise GateError(f"expected {PDF_POINTS} density points, got {len(grid)}")
    if not all(math.isfinite(f) for f in density):
        raise GateError("density has non-finite values")
    if not all(0.0 < a < b for a, b in zip(grid, grid[1:])):
        raise GateError("grid is not positive and ascending")
    mass = mean = 0.0
    for i in range(1, len(grid)):
        dt = grid[i] - grid[i - 1]
        mass += 0.5 * dt * (density[i] + density[i - 1])
        mean += 0.5 * dt * (grid[i] * density[i] + grid[i - 1] * density[i - 1])
    if not abs(mass - 1.0) <= PDF_MASS_TOL:
        raise GateError(f"trapezoid mass {mass:.6g} is not within {PDF_MASS_TOL} of 1")
    expected = closed_form_esrc(betas)
    if not abs(mean - expected) <= PDF_MEAN_REL_TOL * expected:
        raise GateError(
            f"density mean {mean:.6g} is not within {PDF_MEAN_REL_TOL} relative of "
            f"the closed form {expected:.6g}"
        )
    return Checked(items=len(grid), points=0)


# --- workloads ------------------------------------------------------------------


def _cli_seed(rng):
    return str(rng.getrandbits(63))


def wide_job(workdir, rng):
    cfg = workdir / "wide.cfg"
    cfg.write_text(WIDE_CONFIG, encoding="ascii")
    out = workdir / "wide.csv"
    args = ["run", "--config", str(cfg), "--trials", str(WIDE_TRIALS),
            "--seed", _cli_seed(rng), "--full-fit", "--out", str(out)]
    return Job(args, out, check_wide)


def pdf_job(workdir, rng):
    betas = [b * (1.0 + PDF_JITTER * rng.uniform(-1.0, 1.0)) for b in PDF_BETAS]
    out = workdir / "pdf.dat"
    args = ["pdf", "--betas", ",".join(repr(b) for b in betas),
            "--points", str(PDF_POINTS), "--out", str(out)]
    return Job(args, out, lambda text: check_pdf(text, betas))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "wide_point_fullfit",
            "One 64x32 receive-correlated point with --full-fit: every Monte Carlo layer (gamma "
            "draws dominate), tall-matrix ZF and the 32-user gamma/GoF fits.",
            "Monte Carlo trials",
            wide_job,
        ),
        Workload(
            "pdf_10db",
            "Euler-inverted density at realistic 10 dB betas: pure specfun/analytic on the slow "
            "continued-fraction path, no Monte Carlo.",
            "density points",
            pdf_job,
        ),
    )
}


# --- one invocation -------------------------------------------------------------


@dataclass
class Sample:
    """Measurements of one CLI process; error is set when it failed."""

    traced: bool
    error: Optional[str] = None
    wall_s: float = 0.0
    setup_s: float = 0.0
    compute_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    interpreter_s: float = 0.0
    import_s: float = 0.0
    items: int = 0
    points: int = 0
    spans: Dict[str, dict] = field(default_factory=dict)
    missing: List[str] = field(default_factory=list)


def child_env():
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _tail(path, lines=5):
    try:
        return " | ".join(path.read_text(errors="replace").strip().splitlines()[-lines:])
    except OSError:
        return ""


def invoke(job, traced, workdir, deadline):
    """Run one CLI process to completion and gate its output."""
    record_path = workdir / "record.json"
    stderr_path = workdir / "stderr.txt"
    for stale in (record_path, job.out):
        stale.unlink(missing_ok=True)
    argv = [sys.executable, str(PROBE), str(record_path), "1" if traced else "0", "--", *job.cli_args]
    sample = Sample(traced=traced)
    with open(stderr_path, "wb") as err:
        began = time.monotonic()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err, env=child_env(), cwd=ROOT)
        killer = threading.Timer(max(deadline - began, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sample.error = f"exit code {proc.returncode}: {_tail(stderr_path)}"
        return sample
    try:
        record = json.loads(record_path.read_text())
    except (OSError, ValueError) as exc:
        sample.error = f"no probe record ({exc})"
        return sample
    esrc_file = Path(record["esrc_file"]).resolve()
    if SRC.resolve() not in esrc_file.parents:
        sample.error = f"imported esrc from {esrc_file}, not from {SRC}"
        return sample
    try:
        checked = job.check(job.out.read_text(encoding="ascii"))
    except (OSError, GateError) as exc:
        sample.error = f"correctness gate: {exc}"
        return sample
    if record["compute_start"] is None or not record["compute_s"] > 0.0:
        sample.error = "control never reached run_sweep or capacity_pdf"
        return sample
    sample.wall_s = ended - began
    sample.setup_s = record["compute_start"] - began
    sample.compute_s = record["compute_s"]
    sample.cpu_s = usage.ru_utime + usage.ru_stime
    sample.peak_rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
    sample.interpreter_s = record["started"] - began
    sample.import_s = record["imported"] - record["started"]
    sample.items = checked.items
    sample.points = checked.points
    sample.spans = record["spans"]
    sample.missing = record["missing"]
    return sample


# --- metrics --------------------------------------------------------------------

# name -> (unit, value of one invocation, power of the host slowdown it is
# multiplied by).  Other tenants of the host slow every instruction of an
# invocation by up to 70%, in phases that last from seconds to minutes, so raw
# times of one run differ from the next by more than any bound worth keeping.
# Times and rates are therefore reported at reference host speed: the run's
# mean divided (times) or multiplied (rates) by the run's host slowdown, which
# a fixed pure-Python loop measures between invocations (calibration_unit).
# Memory does not depend on host speed.
END_TO_END = {
    "wall_s": ("s", lambda s: s.wall_s, -1),
    "setup_s": ("s", lambda s: s.setup_s, -1),
    "items_per_s": ("1/s", lambda s: s.items / s.compute_s, 1),
    "cpu_s": ("s", lambda s: s.cpu_s, -1),
    "peak_rss_mb": ("MB", lambda s: s.peak_rss_mb, 0),
}

CALIBRATION_LOOP = 100_000
# seconds one calibration unit takes on a quiet reference host
CALIBRATION_REF_S = 0.010
CALIBRATION_UNITS = 100


def calibration_unit():
    """Seconds a fixed pure-Python loop takes now; independent of the program under test."""
    began = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOP):
        total += i * i % 7
    return time.perf_counter() - began


def _span(name, key):
    return lambda s: s.spans.get(name, {}).get(key, 0)


def _accept_ratio(s):
    attempts = _span("zf.sinr", "calls")(s)
    return _span("zf.trial_rng", "calls")(s) / attempts if attempts else 0.0


PER_LAYER = {
    "zf.trial_rng_s": ("s", _span("zf.trial_rng", "total_s")),
    "zf.trial_rng_calls": ("count", _span("zf.trial_rng", "calls")),
    "zf.sum_rate_s": ("s", _span("zf.sum_rate", "total_s")),
    "zf.sum_rate_calls": ("count", _span("zf.sum_rate", "calls")),
    "zf.mc_self_s": ("s", _span("zf.mc", "self_s")),
    "channel.compose_s": ("s", _span("channel.compose", "total_s")),
    "channel.compose_calls": ("count", _span("channel.compose", "calls")),
    "channel.sample_s": ("s", _span("channel.sample", "total_s")),
    "channel.sample_calls": ("count", _span("channel.sample", "calls")),
    "zf.sinr_s": ("s", _span("zf.sinr", "total_s")),
    "zf.sinr_calls": ("count", _span("zf.sinr", "calls")),
    "zf.accept_ratio": ("ratio", _accept_ratio),
    "zf.singular_raised": ("count", _span("zf.sinr", "raised")),
    "statfit.fit_exp_s": ("s", _span("statfit.fit_exp", "total_s")),
    "statfit.fit_gamma_s": ("s", _span("statfit.fit_gamma", "total_s")),
    "statfit.chi2_s": ("s", _span("statfit.chi2", "total_s")),
    "statfit.ks_s": ("s", _span("statfit.ks", "total_s")),
    "statfit.fit_gamma_calls": ("count", _span("statfit.fit_gamma", "calls")),
    "specfun.invert_self_s": ("s", _span("specfun.invert", "self_s")),
    "specfun.transform_s": ("s", _span("specfun.transform", "total_s")),
    "specfun.transform_evals": ("count", _span("specfun.transform", "calls")),
    "analytic.pdf_self_s": ("s", _span("analytic.pdf", "self_s")),
    "analytic.grid_s": ("s", _span("analytic.grid", "total_s")),
    "correlation.root_s": ("s", _span("correlation.root", "total_s")),
    "analytic.closed_form_s": ("s", _span("analytic.closed_form", "total_s")),
    "runner.parse_s": ("s", _span("runner.parse", "total_s")),
    "runner.sweep_self_s": ("s", _span("runner.sweep", "self_s")),
    "runner.render_s": ("s", _span("runner.render", "total_s")),
    "runner.points": ("count", lambda s: s.points),
    "setup.interpreter_s": ("s", lambda s: s.interpreter_s),
    "setup.import_s": ("s", lambda s: s.import_s),
}
# traced minus untraced wall time of the same input, so it is computed over the run
TRACE_OVERHEAD = "trace.overhead_s"

# counts that are a pure function of the inputs; two traced invocations of the
# same inputs must agree on them exactly
EXACT_COUNTS = ("zf.sinr_calls", "specfun.transform_evals", "statfit.fit_gamma_calls", "runner.points")

# Which end-to-end metric each layer metric should move, and on which workload
# (approximate shares of wall time when the benchmark was defined, one BLAS thread).
LAYER_TABLE = (
    (("zf.trial_rng_s", "zf.sum_rate_s", "zf.mc_self_s", "channel.compose_s",
      "zf.trial_rng_calls", "zf.sum_rate_calls", "channel.compose_calls"),
     "items_per_s, wall_s",
     "wide_point_fullfit (per-trial overhead, about 15% of wall); none on pdf_10db"),
    (("channel.sample_s", "channel.sample_calls"),
     "items_per_s",
     "wide_point_fullfit (about half of wall)"),
    (("zf.sinr_s", "zf.sinr_calls", "zf.accept_ratio", "zf.singular_raised"),
     "items_per_s; peak_rss_mb if batched",
     "wide_point_fullfit (about 29%)"),
    (("statfit.fit_exp_s", "statfit.fit_gamma_s", "statfit.chi2_s", "statfit.ks_s",
      "statfit.fit_gamma_calls"),
     "wall_s",
     "wide_point_fullfit"),
    (("specfun.invert_self_s", "specfun.transform_s", "specfun.transform_evals",
      "analytic.pdf_self_s", "analytic.grid_s"),
     "items_per_s, wall_s",
     "pdf_10db only"),
    (("correlation.root_s", "analytic.closed_form_s", "runner.parse_s", "runner.sweep_self_s",
      "runner.render_s", "runner.points"),
     "wall_s (predicted not to move; each is under 2%)",
     "wide_point_fullfit"),
    (("setup.interpreter_s", "setup.import_s"),
     "setup_s, wall_s",
     "every workload (interpreter start and numpy/scipy/esrc import)"),
    ((TRACE_OVERHEAD,),
     "none: traced minus untraced wall_s of the same input",
     "every workload"),
)


def bad_decile(values, higher_is_better):
    """The 10th or 90th percentile, whichever is on the side of slow invocations."""
    if len(values) == 1:
        return values[0]
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return deciles[0] if higher_is_better else deciles[-1]


# --- a run ------------------------------------------------------------------------


@dataclass
class RunResult:
    workload: Workload
    samples: List[Sample]
    problems: List[str]
    calibration: List[float]

    @property
    def slowdown(self):
        """Host slowdown over the run relative to the reference host."""
        return statistics.fmean(self.calibration) / CALIBRATION_REF_S

    @property
    def good(self):
        return [s for s in self.samples if s.error is None]

    @property
    def correct(self):
        return not self.problems and all(s.error is None for s in self.samples)


def measure(workload, seed, seconds, trace, workdir, deadline):
    """Invoke one seed-drawn input of the workload until `seconds` are used.

    A batch that would end past `seconds` is not started.  Trace runs
    alternate untraced and traced invocations so that the overhead compares
    like with like, and make at least two traced ones.
    """
    job = workload.make_job(workdir, random.Random(f"{workload.name}:{seed}"))
    samples, calibration = [], []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        for traced in (False, True) if trace else (False,):
            calibration.extend(calibration_unit() for _ in range(CALIBRATION_UNITS))
            samples.append(invoke(job, traced, workdir, deadline))
        now = time.monotonic()
        if any(s.error is not None for s in samples) or now + (now - began) > deadline:
            break
        enough = not trace or len(samples) >= 4
        if enough and now - start + (now - began) > seconds:
            break
    problems = exact_count_problems(samples) if trace else []
    return RunResult(workload, samples, problems, calibration)


def exact_count_problems(samples):
    """EXACT_COUNTS that differ between the traced invocations (all of one input)."""
    traced = [s for s in samples if s.traced and s.error is None]
    problems = []
    for name in EXACT_COUNTS:
        values = {PER_LAYER[name][1](s) for s in traced}
        if len(values) > 1:
            problems.append(f"{name} differs between traced invocations of one input: {sorted(values)}")
    return problems


def metrics_of(result, trace):
    """Metric name -> {value, unit} of a correct run (per-layer: medians of traced invocations)."""
    if not result.correct:
        return {}
    good = result.good
    if trace:
        traced = [s for s in good if s.traced]
        out = {}
        for name, (unit, fn) in PER_LAYER.items():
            out[name] = {"value": statistics.median(fn(s) for s in traced), "unit": unit}
        # samples alternate (untraced, traced); differences within a pair cancel host drift
        pairs = zip(good[0::2], good[1::2])
        overhead = statistics.median(t.wall_s - u.wall_s for u, t in pairs)
        out[TRACE_OVERHEAD] = {"value": overhead, "unit": "s"}
        return out
    return {
        name: {"value": statistics.fmean(fn(s) for s in good) * result.slowdown**power, "unit": unit}
        for name, (unit, fn, power) in END_TO_END.items()
    }


def report(result, trace, metrics):
    """Human-readable lines for one workload (everything before the JSON line)."""
    w = result.workload
    attempted = len(result.samples)
    failed = min(attempted, sum(s.error is not None for s in result.samples) + bool(result.problems))
    lines = [f"workload {w.name}: {w.why}"]
    for s in result.samples:
        if s.error is not None:
            lines.append(f"  FAILED invocation: {s.error}")
    lines.extend(f"  FAILED check: {p}" for p in result.problems)
    good = result.good
    if metrics:
        lines.append(f"  host slowdown {result.slowdown:.4g} (mean of {len(result.calibration)} "
                     f"calibration units / {CALIBRATION_REF_S} s)")
    if not trace and metrics:
        for name, (unit, fn, power) in END_TO_END.items():
            values = [fn(s) for s in good]
            label = f"{name} ({w.unit_of_work}/s)" if name == "items_per_s" else name
            scaled = f" at reference speed {metrics[name]['value']:.6g}," if power else ""
            lines.append(
                f"  {label:<34}{scaled} raw mean {statistics.fmean(values):.6g} median "
                f"{statistics.median(values):.6g} worst decile {bad_decile(values, power > 0):.6g} "
                f"{unit} n={len(values)}"
            )
        lines.append("  wall_s per invocation: " + " ".join(f"{s.wall_s:.3f}" for s in good))
    if trace and metrics:
        traced = [s for s in good if s.traced]
        missing = sorted({m for s in traced for m in s.missing})
        if missing:
            lines.append(f"  not traced (attribute gone): {', '.join(missing)}")
        for name, info in metrics.items():
            lines.append(f"  {name:<34} {info['value']:.6g} {info['unit']}")
        lines.append(f"  traced invocations n={len(traced)}, untraced n={len(good) - len(traced)}")
        evals = metrics["specfun.transform_evals"]["value"]
        if evals:
            lines.append(f"  transform evals per density point: {evals / PDF_POINTS:g}")
    lines.append(f"  error_rate {failed / max(attempted, 1):.6g} ({failed} failed of {attempted} attempted)")
    return lines, attempted, failed


# --- stamp ----------------------------------------------------------------------------


def stamp(args):
    """Code, machine and version identity of this result."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                     text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            git_sha = None
    digest = hashlib.sha256()
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        src_lines += data.count(b"\n")
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": src_lines,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "threads": PINNED_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "esrc" / "cli.py").is_file():
        print(f"error: no esrc sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print("stamp " + json.dumps(stamp(args), sort_keys=True), flush=True)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            deadline = time.monotonic() + RUN_BUDGET_S
            result = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), workdir, deadline)
            found = metrics_of(result, bool(args.trace))
            lines, n_attempted, n_failed = report(result, bool(args.trace), found)
            print("\n".join(lines), flush=True)
            correct = correct and result.correct and bool(found)
            attempted += n_attempted
            failed += n_failed
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + key: value for key, value in found.items()})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
