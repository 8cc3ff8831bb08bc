"""Run one `esrc` CLI command in this process and record when its work ran.

Usage: python3 probe.py RECORD TRACE -- CLI_ARGS...

The benchmark driver (run.py) starts this script as a fresh process, so the
interpreter start, the numpy/scipy/esrc imports and the config parse are paid
exactly as a user of `esrc` pays them.  It wraps the two entry points the CLI
looks up through its own module attributes (`esrc.cli.run_sweep` and
`esrc.cli.capacity_pdf`) to learn when control reaches the compute phase.
With TRACE = 1 it also wraps the public functions every layer's caller looks
up through module attributes and records call counts, total time and self
time (a span minus the child spans it covers) per layer.  Nothing in `src/`
is modified.  RECORD receives one JSON object with the timestamps (on the
system-wide monotonic clock, so the parent can subtract its own spawn time)
and the layer statistics; the process exits with the CLI's exit code.
"""

import time

STARTED = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402

# (layer span name, module, attribute that the layer's caller looks up)
TRACE_POINTS = (
    ("runner.parse", "esrc.cli", "parse_config"),
    ("runner.sweep", "esrc.cli", "run_sweep"),
    ("runner.render", "esrc.cli", "emit_csv"),
    ("analytic.pdf", "esrc.cli", "capacity_pdf"),
    ("analytic.grid", "esrc.cli", "default_capacity_grid"),
    ("zf.mc", "esrc.runner", "monte_carlo_esrc"),
    ("statfit.fit_exp", "esrc.runner", "fit_exponential"),
    ("statfit.fit_gamma", "esrc.runner", "fit_gamma_ml"),
    ("analytic.closed_form", "esrc.runner", "esrc_closed_form"),
    ("correlation.root", "esrc.zf", "build_banded_correlation"),
    ("correlation.root", "esrc.zf", "matrix_sqrt"),
    ("zf.trial_rng", "esrc.zf", "trial_rng"),
    ("channel.sample", "esrc.zf", "sample_channel_matrix"),
    ("channel.compose", "esrc.zf", "compose_channel"),
    ("zf.sinr", "esrc.zf", "zf_sinr"),
    ("zf.sum_rate", "esrc.zf", "sum_rate"),
    ("statfit.chi2", "esrc.statfit", "chi_square_gof"),
    ("statfit.ks", "esrc.statfit", "ks_gof"),
    ("specfun.invert", "esrc.analytic", "invert_laplace"),
)
# capacity_pdf builds its transform through this factory; the closure it
# returns is wrapped so each transform evaluation is a span of its own
TRANSFORM_FACTORY = ("specfun.transform", "esrc.analytic", "_density_transform")
COMPUTE_ENTRY_POINTS = ("run_sweep", "capacity_pdf")


class Tracer:
    """Call count, total time, self time and raised count per span name."""

    def __init__(self):
        self.stats = {}
        # one accumulator of child-span time per open span; the bottom entry
        # collects time spent in top-level spans and is never popped
        self._child_time = [0.0]

    def wrap(self, name, fn):
        stats = self.stats.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "raised": 0}
        )
        child_time = self._child_time
        clock = time.perf_counter

        def traced(*args, **kwargs):
            child_time.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                stats["raised"] += 1
                raise
            finally:
                elapsed = clock() - start
                inner = child_time.pop()
                child_time[-1] += elapsed
                stats["calls"] += 1
                stats["total_s"] += elapsed
                stats["self_s"] += elapsed - inner

        return traced


class ComputeClock:
    """When control first reached a compute entry point, and the time spent in them."""

    def __init__(self):
        self.start = None
        self.seconds = 0.0

    def wrap(self, fn):
        def timed(*args, **kwargs):
            began = time.monotonic()
            if self.start is None:
                self.start = began
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += time.monotonic() - began

        return timed


def install_tracer(modules):
    """Wrap every trace point that exists; return the tracer and the missing ones."""
    tracer = Tracer()
    missing = []
    for name, module, attr in TRACE_POINTS:
        if hasattr(modules[module], attr):
            setattr(modules[module], attr, tracer.wrap(name, getattr(modules[module], attr)))
        else:
            missing.append(f"{module}.{attr}")
    name, module, attr = TRANSFORM_FACTORY
    factory = getattr(modules[module], attr, None)
    if factory is None:
        missing.append(f"{module}.{attr}")
    else:

        def traced_factory(*args, **kwargs):
            return tracer.wrap(name, factory(*args, **kwargs))

        setattr(modules[module], attr, traced_factory)
    return tracer, missing


def main(argv):
    if len(argv) < 3 or argv[2] != "--" or argv[1] not in ("0", "1"):
        print("usage: probe.py RECORD TRACE(0|1) -- CLI_ARGS...", file=sys.stderr)
        return 2
    record_path, trace, cli_args = argv[0], argv[1] == "1", argv[3:]

    import esrc.cli

    imported = time.monotonic()
    modules = {name: sys.modules.get(name) for name in ("esrc.cli", "esrc.runner", "esrc.zf",
                                                        "esrc.statfit", "esrc.analytic")}
    tracer, missing = install_tracer(modules) if trace else (None, [])
    clock = ComputeClock()
    for attr in COMPUTE_ENTRY_POINTS:
        setattr(esrc.cli, attr, clock.wrap(getattr(esrc.cli, attr)))

    code = esrc.cli.main(cli_args)
    record = {
        "esrc_file": esrc.__file__,
        "started": STARTED,
        "imported": imported,
        "compute_start": clock.start,
        "compute_s": clock.seconds,
        "spans": tracer.stats if trace else {},
        "missing": missing,
    }
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
