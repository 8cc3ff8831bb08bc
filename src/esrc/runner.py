"""Parameter sweeps over the Monte Carlo pipeline and deterministic CSV output.

A sweep is a base operating point plus value lists for any of the five
sweepable parameters (snr_db, rho, l_band, m, omega).  Points run in
lexicographic order over that fixed parameter order, each with a seed
derived by hashing the master seed together with the point's parameter
values, so editing one axis never perturbs the other points' streams.

Every value of a sweepable parameter, whether a document scalar, a preset
default, a [sweep.*] entry or a SweepPlan axis value, is read by its AXES
token parser and range-checked by the model dataclasses, through a
reference SystemConfig that holds it; the figure presets are PRESETS data.
"""

from __future__ import annotations

import hashlib
import itertools
import logging
import sys
from dataclasses import astuple, dataclass, fields, replace
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from esrc.analytic import BetaVector, esrc_closed_form
from esrc.channel import FadingParams, SemiCorrelationMode
from esrc.config import SystemConfig
from esrc.correlation import CorrelationSpec
from esrc.statfit import MIN_FIT_SAMPLES, fit_exponential, fit_gamma_ml
from esrc.zf import monte_carlo_esrc

log = logging.getLogger(__name__)

DEFAULT_TRIALS = 100_000


class ConfigError(ValueError):
    """A configuration document that cannot become a valid sweep plan."""


def _integer(name, token):
    try:
        value = int(token, 10) if isinstance(token, str) else int(token)
        exact = isinstance(token, str) or value == token
    except (TypeError, ValueError, OverflowError):
        exact = False
    if not exact:
        raise ValueError(f"{name} must be an integer, got {token!r}")
    return value


def _real(name, token, n_side):
    try:
        return float(token)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a real number, got {token!r}") from None


def _band(name, token, n_side):
    """An integer band half-width, or "full" for the untruncated n - 1."""
    return n_side - 1 if token == "full" else _integer(name, token)


# each sweepable parameter's token parser: parse(name, token, n_side), where
# n_side is the correlated side's antenna count
AXES = {"snr_db": _real, "rho": _real, "l_band": _band, "m": _real, "omega": _real}
AXIS_ORDER = tuple(AXES)


def _point_of(config):
    """The five sweepable parameters of config, by name."""
    return {
        "snr_db": float(config.snr_db),
        "rho": float(config.correlation.rho),
        "l_band": int(config.correlation.l_band),
        "m": float(config.fading.m),
        "omega": float(config.fading.omega),
    }


def _axis_value(name, token, reference, extended):
    """The value of token, checked by a copy of reference that holds it.

    extended lifts the document policy rho <= 0.5 to the model's [0, 1).
    """
    value = AXES[name](name, token, reference.correlation.n)
    if name == "rho" and not extended and value > 0.5:
        raise ValueError(f"rho out of range [0, 0.5], got {value!r}")
    _config_for_point(reference, {**_point_of(reference), name: value}, reference.seed)
    return value


def _at(lineno, message):
    """A ConfigError naming the document line, when there is one."""
    return ConfigError(message if lineno is None else f"line {lineno}: {message}")


def _parsed(parse, name, lineno, token, *context):
    """parse(name, token, *context), with its ValueError as a ConfigError."""
    try:
        return parse(name, token, *context)
    except ValueError as exc:
        raise _at(lineno, str(exc)) from None


def _axis_values(name, tokens, reference, extended, lineno=None):
    values = tuple(_parsed(_axis_value, name, lineno, t, reference, extended) for t in tokens)
    if not values:
        raise _at(lineno, f"sweep axis {name!r} has no values")
    if len(set(values)) != len(values):
        raise _at(lineno, f"the {name} values list repeats a value")
    return values


class Preset(NamedTuple):
    """A figure grid: its swept axes and its base defaults.

    An axis entry is a value list, or a function of the full band n - 1 for
    axes that follow the antenna count.  User sections are kept only for
    the axes a preset neither sweeps nor sets; the others are superseded.
    """

    axes: Dict[str, object]
    base: Dict[str, object]


PRESETS = {
    "fig1": Preset(
        axes={"snr_db": range(21), "m": (0.7, 2.5)},
        base={"rho": 0.3, "l_band": "full"},
    ),
    "fig2": Preset(
        axes={"l_band": lambda full: range(1, full + 1), "m": (0.7, 2.5)},
        base={"snr_db": 10.0, "rho": 0.5},
    ),
    "fig3": Preset(
        axes={"rho": (0.0, 0.1, 0.2, 0.3, 0.4, 0.5), "m": (0.7, 2.5)},
        base={"snr_db": 10.0, "l_band": 3},
    ),
}
PRESET_NAMES = tuple(PRESETS)
_NO_PRESET = Preset(axes={}, base={})
_BASE_DEFAULTS = {"snr_db": 10.0, "rho": 0.0, "l_band": "full", "m": 1.0, "omega": 1.0}


@dataclass(frozen=True)
class SweepPlan:
    """A base operating point plus the value axes swept over it."""

    base: SystemConfig
    axes: Tuple[Tuple[str, Tuple[float, ...]], ...] = ()

    def __post_init__(self):
        normalized = []
        for name, values in self.axes:
            if name not in AXES:
                raise ValueError(
                    f"unknown sweep axis {name!r}; valid axes: {', '.join(AXIS_ORDER)}"
                )
            # the model domain: rho in [0, 1) whatever the document allowed
            normalized.append((name, _axis_values(name, values, self.base, extended=True)))
        names = [name for name, _ in normalized]
        if len(set(names)) != len(names):
            raise ValueError("sweep axis names must be unique")
        normalized.sort(key=lambda item: AXIS_ORDER.index(item[0]))
        object.__setattr__(self, "axes", tuple(normalized))

    def points(self) -> Iterator[Dict[str, float]]:
        """Cartesian product of the axes, lexicographic in AXIS_ORDER.

        Every yielded dict carries all five sweepable parameters, swept or
        not, so the seed hash never depends on which axes happen to exist.
        """
        fixed = _point_of(self.base)
        names = [name for name, _ in self.axes]
        lists = [values for _, values in self.axes]
        for combo in itertools.product(*lists):
            point = dict(fixed)
            point.update(zip(names, combo))
            yield point


@dataclass(frozen=True)
class SweepRow:
    """One CSV row: the point, its derived seed, and the results (if any)."""

    snr_db: float
    rho: float
    l_band: int
    m: float
    omega: float
    trials: int
    seed: int
    esrc_mc: Optional[float]
    esrc_stderr: Optional[float]
    esrc_analytic: Optional[float]
    rel_err: Optional[float]
    alpha_mean: Optional[float]
    gof_pass_rate: Optional[float]
    status: str


CSV_HEADER = ",".join(field.name for field in fields(SweepRow))


def point_seed(master_seed: int, point: Dict[str, float]) -> int:
    """Per-point seed: blake2b over the master seed and parameter values.

    Hash-based rather than index-based so adding or removing values on one
    axis never changes any other point's stream.
    """
    digest = hashlib.blake2b(digest_size=8)
    try:
        digest.update(int(master_seed).to_bytes(8, "little"))
    except OverflowError:
        raise ValueError(
            f"master seed must be a 64-bit unsigned integer, got {master_seed!r}"
        ) from None
    for name in AXIS_ORDER:
        digest.update(f"{name}={float(point[name])!r};".encode("ascii"))
    return int.from_bytes(digest.digest(), "little")


def _point_label(point):
    # l_band is an integer and prints in full
    return " ".join(
        f"{name}={point[name]}" if name == "l_band" else f"{name}={point[name]:g}"
        for name in AXIS_ORDER
    )


def _config_for_point(base: SystemConfig, point, seed: int) -> SystemConfig:
    return SystemConfig(
        n_t=base.n_t,
        n_r=base.n_r,
        snr_db=point["snr_db"],
        fading=FadingParams(m=point["m"], omega=point["omega"]),
        correlation=CorrelationSpec(
            n=base.correlation.n, rho=point["rho"], l_band=int(point["l_band"])
        ),
        mode=base.mode,
        trials=base.trials,
        seed=seed,
    )


def _measure(config: SystemConfig, full_fit: bool) -> Dict[str, Optional[float]]:
    """The result columns of one point."""
    esrc_mc, std_err, samples = monte_carlo_esrc(config)
    betas = [fit_exponential(row) for row in samples]
    analytic = esrc_closed_form(BetaVector(betas))
    columns = dict(
        esrc_mc=esrc_mc,
        esrc_stderr=std_err,
        esrc_analytic=analytic,
        rel_err=abs(esrc_mc - analytic) / analytic,
        alpha_mean=None,
        gof_pass_rate=None,
    )
    if full_fit:
        fits = [fit_gamma_ml(row) for row in samples]
        columns["alpha_mean"] = float(np.mean([fit.alpha for fit in fits]))
        columns["gof_pass_rate"] = float(np.mean([fit.chi2_pass and fit.ks_pass for fit in fits]))
    return columns


_NO_RESULT = dict.fromkeys(
    ("esrc_mc", "esrc_stderr", "esrc_analytic", "rel_err", "alpha_mean", "gof_pass_rate")
)


def run_sweep(plan: SweepPlan, full_fit: bool = False) -> List[SweepRow]:
    """Run every point of the plan in deterministic order.

    Any exception raised while a point is measured makes that point a
    status=failed row with empty result columns, and a WARNING gives the
    exception's type and message; the sweep keeps going so one bad corner
    does not cost the whole table.  KeyboardInterrupt is not an Exception
    and ends the sweep.  full_fit below MIN_FIT_SAMPLES trials per point
    raises ValueError before any point runs.
    """
    if full_fit and plan.base.trials < MIN_FIT_SAMPLES:
        raise ValueError(
            f"--full-fit needs at least {MIN_FIT_SAMPLES} trials per point, "
            f"got {plan.base.trials}"
        )
    rows: List[SweepRow] = []
    points = list(plan.points())
    log.info("sweep of %d points, %d trials each", len(points), plan.base.trials)
    for point in points:
        seed = point_seed(plan.base.seed, point)
        config = _config_for_point(plan.base, point, seed)
        try:
            columns, status = _measure(config, full_fit), "ok"
            log.info(
                "%s: esrc_mc=%.6g rel_err=%.2e",
                _point_label(point),
                columns["esrc_mc"],
                columns["rel_err"],
            )
        except Exception as exc:
            log.warning("%s: failed (%s: %s)", _point_label(point), type(exc).__name__, exc)
            columns, status = _NO_RESULT, "failed"
        rows.append(SweepRow(**point, trials=config.trials, seed=seed, **columns, status=status))
    return rows


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".9g")


def render_csv(rows: Sequence[SweepRow]) -> str:
    """Serialize rows under the fixed header; floats carry 9 significant digits."""
    lines = [CSV_HEADER]
    for row in rows:
        *cells, status = astuple(row)
        lines.append(",".join([_cell(value) for value in cells] + [status]))
    return "\n".join(lines) + "\n"


def write_text(text: str, destination) -> None:
    """Write a finished table to the path `destination`, or to stdout when it is None."""
    if destination is None:
        sys.stdout.write(text)
        return
    with open(destination, "w", encoding="ascii", newline="") as fh:
        fh.write(text)


def emit_csv(rows: Sequence[SweepRow], destination) -> None:
    """Write the CSV table; reruns of the same plan are byte-identical."""
    write_text(render_csv(rows), destination)


def _count(name, token):
    # checked here, not only by SystemConfig: the correlated side's size
    # comes from these counts before any reference config exists
    value = _integer(name, token)
    if value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return value


def _side(name, token):
    return SemiCorrelationMode(token)


def _setting(name, token, reference):
    """reference with its integer field name (trials or seed) read from token."""
    return replace(reference, **{name: _integer(name, token)})


# the antenna settings: parser and default
_SETTINGS = {"n_t": (_count, 8), "n_r": (_count, 8), "side": (_side, "transmit")}
_SCALAR_KEYS = ("preset", "n_t", "n_r", *AXES, "side", "trials", "seed")


def parse_config(
    text: str,
    *,
    preset: Optional[str] = None,
    trials: Optional[int] = None,
    seed: Optional[int] = None,
    allow_extended: bool = False,
) -> SweepPlan:
    """Turn a configuration document into a validated SweepPlan.

    The document is line-oriented ``key = value`` with optional
    ``[sweep.<param>]`` sections, each carrying a ``values = v1, v2, ...``
    list.  ``#`` starts a comment.  The keyword arguments are command-line
    overrides and take precedence over the document's own keys.
    """
    scalars, sections = _parse_document(text)

    lineno, chosen = scalars.pop("preset", (None, "none"))
    if preset is not None:
        lineno, chosen = None, preset
    if chosen not in PRESET_NAMES + ("none",):
        raise _at(
            lineno, f"unknown preset {chosen!r}; valid presets: {', '.join(PRESET_NAMES)} or none"
        )
    recipe = PRESETS.get(chosen, _NO_PRESET)

    settings = {
        key: _parsed(parse, key, *scalars.get(key, (None, default)))
        for key, (parse, default) in _SETTINGS.items()
    }
    mode = settings["side"]
    n_side = mode.correlated_count(settings["n_r"], settings["n_t"])
    # the defaults hold for every antenna count, so a value checked against
    # this reference fails only on its own range
    defaults = {name: AXES[name](name, token, n_side) for name, token in _BASE_DEFAULTS.items()}
    try:
        reference = SystemConfig(
            n_t=settings["n_t"],
            n_r=settings["n_r"],
            snr_db=defaults["snr_db"],
            fading=FadingParams(m=defaults["m"], omega=defaults["omega"]),
            correlation=CorrelationSpec(n=n_side, rho=defaults["rho"], l_band=defaults["l_band"]),
            mode=mode,
            trials=DEFAULT_TRIALS,
            seed=0,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    for key, override in (("trials", trials), ("seed", seed)):
        for lineno, token in (scalars.get(key, (None, None)), (None, override)):
            if token is not None:
                reference = _parsed(_setting, key, lineno, token, reference)

    base = {}
    for name in AXES:
        default = recipe.base.get(name, _BASE_DEFAULTS[name])
        lineno, token = scalars.get(name, (None, default))
        base[name] = _parsed(_axis_value, name, lineno, token, reference, allow_extended)
    axes = []
    for name, values in recipe.axes.items():
        tokens = values(n_side - 1) if callable(values) else values
        axes.append((name, _axis_values(name, tokens, reference, allow_extended)))
    for name, (lineno, tokens) in sections.items():
        if name not in recipe.axes and name not in recipe.base:
            axes.append((name, _axis_values(name, tokens, reference, allow_extended, lineno)))
    plan_base = _config_for_point(reference, base, reference.seed)
    return SweepPlan(base=plan_base, axes=tuple(axes))


def _parse_document(text):
    """Split the document into raw scalar entries and sweep-section value lists.

    Each entry keeps its line number, so a value that fails its range
    check later still names the line it came from.
    """
    scalars = {}
    axes = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {lineno}: malformed section header {line!r}")
            name = line[1:-1].strip()
            if not name.startswith("sweep."):
                raise ConfigError(
                    f"line {lineno}: unknown section [{name}]; only [sweep.<param>] is allowed"
                )
            param = name[len("sweep.") :]
            if param not in AXES:
                raise ConfigError(
                    f"line {lineno}: unknown sweep parameter {param!r}; "
                    f"valid axes: {', '.join(AXIS_ORDER)}"
                )
            if param in axes:
                raise ConfigError(f"line {lineno}: duplicate sweep section for {param!r}")
            axes[param] = None
            section = param
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not value:
            raise ConfigError(f"line {lineno}: key {key!r} has no value")
        if section is None:
            if key not in _SCALAR_KEYS:
                raise ConfigError(
                    f"line {lineno}: unknown key {key!r}; valid keys: {', '.join(_SCALAR_KEYS)}"
                )
            if key in scalars:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            scalars[key] = (lineno, value)
        else:
            if key != "values":
                raise ConfigError(
                    f"line {lineno}: only 'values' may appear inside [sweep.{section}], got {key!r}"
                )
            if axes[section] is not None:
                raise ConfigError(f"line {lineno}: duplicate values for [sweep.{section}]")
            items = [item.strip() for item in value.split(",")]
            if not all(items):
                raise ConfigError(f"line {lineno}: empty entry in the {section} values list")
            axes[section] = (lineno, items)
    for param, entry in axes.items():
        if entry is None:
            raise ConfigError(f"[sweep.{param}] section is missing its values list")
    return scalars, axes
