"""Command-line experiment runner.

Subcommands:

  solve <config.json> [run flags]     run an experiment described by a JSON file
  experiment integral|ct [flags]      run a preset; each flag sets the config key of its name
  norm-estimate <matrix.csv>          operator norm between l^r spaces

A config, flags included, is checked completely, by building the library
objects it describes, before any work; out_dir is created only after the runs.
Exit codes: 0 success, 1 configuration or validation failure (a bad value, a key
its preset never reads), 2 runtime invariant violation (a divergence) or a command
line argparse rejects (an unknown flag, a flag without its value), 3 I/O or
data-format failure (a missing file, a CSV that does not parse).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import reprlib
import sys
import time
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from ._svg import line_chart
from .diagnostics import ConvergenceRecord, ensemble_stats
from .exceptions import (
    ConfigurationError,
    DataFormatError,
    DimensionMismatchError,
    InvalidInputError,
    IterationInvariantError,
)
from .noise import RNG_ALGORITHM, GaussianNoise, ImpulseNoise, SaltPepperNoise, check_seed, corrupt
from .operators import (
    ObservationSet,
    RadonGeometry,
    block_norms,
    boyd_operator_norm,
    build_integral_operator,
    build_radon_operator,
    check_partition,
    check_phantom_size,
    check_signal_size,
    exact_sparse_signal,
    load_matrix_csv,
    partition_rows,
    save_matrix_csv,
    sparse_disk_phantom,
)
from .solver import (
    APrioriStop,
    ConstantSchedule,
    PolynomialSchedule,
    SlowDecaySchedule,
    SolverConfig,
    a_priori_stop_index,
    run_seeds,
)
from .spaces import SpaceDescriptor, _real

NoiseModel = GaussianNoise | ImpulseNoise | SaltPepperNoise

# The class each kind of a kind-tagged spec builds; None stands for no object.
_NOISE_KINDS = {"none": None, "gaussian": GaussianNoise, "impulse": ImpulseNoise, "salt_pepper": SaltPepperNoise}
_SCHEDULE_KINDS = {"slow_decay": SlowDecaySchedule, "polynomial": PolynomialSchedule, "constant": ConstantSchedule}
_STOPPING_KINDS = {"max_epochs": None, "a_priori": APrioriStop}

# Each preset's table lists every key the preset reads, beyond the common ones.
_PRESET_DEFAULTS = {
    "integral": {
        "n": 1000,
        "n_batches": 100,
        "epochs": 250,
        "schedule": {"kind": "slow_decay", "scale": "L_max"},
        "midpoint_columns": True,
    },
    "ct": {
        "grid_side": 64,
        "n_angles": 60,
        "angle_step": 3.0,
        "n_detectors": 95,
        "pixel_size": 0.1,
        "n_batches": 60,
        "epochs": 100,
        "schedule": {"kind": "slow_decay", "scale": "L_max/2"},
        "phantom_noise": {"kind": "none"},
    },
    "custom": {
        "n_batches": 1,
        "epochs": 100,
        "schedule": {"kind": "slow_decay", "scale": "L_max"},
        "matrix_csv": None,
        "signal_csv": None,
        "data_csv": None,
    },
}

_COMMON_DEFAULTS = {
    "r_x": 2.0,
    "p": 2.0,
    "r_y": 2.0,
    "q": None,
    "method": "sgd",
    "seed": 0,
    "seeds": 1,
    "noise": {"kind": "none"},
    "stopping": {"kind": "max_epochs"},
    "out_dir": "out",
}

# The norm-estimate settings of a run whose step scale is in units of L_max.
_NORM_SETTINGS = {"tol": 1e-8, "max_iter": 500}
# A symbolic slow-decay scale, in units of L_max.
_L_MAX_UNITS = {"L_max": 1.0, "L_max/2": 0.5}


@dataclass
class ExperimentConfig:
    """Validated experiment description (raw JSON echo kept for the manifest)."""

    preset: str
    solver: SolverConfig
    scale_in_l_max: bool  # the schedule's scale is in units of L_max, known after the norm estimate
    n: int | None
    n_batches: int
    seeds: int
    noise: NoiseModel | None
    out_dir: str
    geometry: RadonGeometry | None = None
    phantom_noise: NoiseModel | None = None
    matrix_csv: str | None = None
    signal_csv: str | None = None
    data_csv: str | None = None
    # n and midpoint_columns are the integral preset's. Having no default, neither
    # may be null, and a preset that does not read them leaves them None.
    midpoint_columns: bool | None = field(kw_only=True)
    echo: dict = field(default_factory=dict)


def _check_keys(section: str, data: dict, allowed):
    unknown = set(data) - set(allowed)
    if unknown:
        raise ConfigurationError(f"unknown key(s) in {section}: {', '.join(sorted(unknown))}")


def _read(section: str, data: dict, key: str, kind: str = "float"):
    """data[key] read as the annotation kind.

    A str is a string with no NUL character (no file path holds one) and a bool true or false. Any
    other kind is a finite JSON number, never a bool, a string, NaN or an infinity, and an int an integral one.
    """
    if key not in data:
        raise ConfigurationError(f"{section} needs a {key!r} entry")
    value = data[key]
    if kind == "str" and isinstance(value, str) and "\0" in value:
        raise ConfigurationError(f"{section}.{key} must be a string with no NUL character; got {reprlib.repr(value)}")
    if kind in ("str", "bool"):
        if isinstance(value, str if kind == "str" else bool):
            return value
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        if isinstance(value, int) or math.isfinite(value) and (kind != "int" or value.is_integer()):
            try:
                return int(value) if kind == "int" else float(value)
            except OverflowError:  # an integer beyond the float range
                pass
    expected = {"str": "a string", "bool": "true or false", "int": "an integer"}.get(kind, "a finite number")
    raise ConfigurationError(f"{section}.{key} must be {expected}; got {reprlib.repr(value)}")


def _from_fields(section: str, cls, data: dict, **given):
    """cls built from its dataclass fields: a given field is passed in, any other is read from data.

    Each field is read by _read as its annotation, X | None as X. A null is read only
    where the default is None. A field that data leaves out keeps its default, or is
    None when it is X | None without one.
    """
    kwargs = {}
    for f in fields(cls):
        kind, _, optional = f.type.partition(" | ")
        if f.name in given:
            kwargs[f.name] = given[f.name]
        elif f.name in data and not (data[f.name] is None and f.default is None):
            kwargs[f.name] = _read(section, data, f.name, kind)
        elif f.default is MISSING and f.default_factory is MISSING:
            kwargs[f.name] = None if optional else _read(section, data, f.name, kind)  # names the missing key
    return cls(**kwargs)


def _from_spec(section: str, spec, table: dict, **given):
    """The object of a kind-tagged spec, built by _from_fields from the class table[kind].

    A kind's keys are "kind" and its class's fields but the given ones; a kind whose
    class is None takes no other key and gives None.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigurationError(f"{section} must be an object with a 'kind' field; got {reprlib.repr(spec)}")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in table:
        raise ConfigurationError(f"{section}.kind must be one of {sorted(table)}; got {reprlib.repr(kind)}")
    cls = table[kind]
    _check_keys(section, spec, {"kind"} | ({f.name for f in fields(cls)} - set(given) if cls else set()))
    return None if cls is None else _from_fields(section, cls, spec, **given)


def build_config(raw: dict) -> ExperimentConfig:
    """Merge defaults, reject keys the preset never reads, and build every object a run needs before its problem."""
    preset = raw.get("preset", "integral")
    if not isinstance(preset, str) or preset not in _PRESET_DEFAULTS:
        raise ConfigurationError(
            f"preset must be one of {sorted(_PRESET_DEFAULTS)}; got {reprlib.repr(preset)}"
        )
    defaults = {**_COMMON_DEFAULTS, **_PRESET_DEFAULTS[preset], "preset": preset}
    _check_keys(f"{preset} config", raw, defaults)
    merged = {**defaults, **raw}

    x_space = SpaceDescriptor(_read("config", merged, "r_x"), _read("config", merged, "p"))
    n_batches, epochs, seeds = (_read("config", merged, k, "int") for k in ("n_batches", "epochs", "seeds"))
    if n_batches < 1 or epochs < 1 or seeds < 1:
        raise ConfigurationError("n_batches, epochs and seeds must be >= 1")
    spec = merged["schedule"]
    scale = spec.get("scale", "L_max") if isinstance(spec, dict) and spec.get("kind") == "slow_decay" else None
    scale_in_l_max = isinstance(scale, str)
    if scale_in_l_max:
        if scale not in _L_MAX_UNITS:
            raise ConfigurationError(
                f"symbolic schedule scale must be one of {sorted(_L_MAX_UNITS)}; got {reprlib.repr(scale)}"
            )
        spec = {**spec, "scale": _L_MAX_UNITS[scale]}
    schedule = _from_spec("schedule", spec, _SCHEDULE_KINDS, n_batches=n_batches, p_conj=x_space.p_conj)
    noise = _from_spec("noise", merged["noise"], _NOISE_KINDS)
    stopping = _from_spec("stopping", merged["stopping"], _STOPPING_KINDS)
    if stopping is not None and noise is None:
        raise ConfigurationError("a_priori stopping needs noisy data; noise kind 'none' gives delta = 0")
    solver = _from_fields(
        "config", SolverConfig, merged, x_space=x_space,
        y_space=SpaceDescriptor(_read("config", merged, "r_y"), x_space.p), schedule=schedule, stopping=stopping,
    )
    check_seed(solver.seed, "seed", seeds)

    own = {}  # the objects the preset builds from its own keys
    if preset == "ct":
        geometry = _from_fields("config", RadonGeometry, merged)
        check_phantom_size(geometry.grid_side)
        check_partition(geometry.n_angles * geometry.n_detectors, n_batches)
        own = {"geometry": geometry,
               "phantom_noise": _from_spec("phantom_noise", merged["phantom_noise"], _NOISE_KINDS)}
    cfg = _from_fields("config", ExperimentConfig, merged, preset=preset, solver=solver, n_batches=n_batches,
                       scale_in_l_max=scale_in_l_max, seeds=seeds, noise=noise, echo=merged, **own)
    if preset == "integral":
        check_signal_size(cfg.n)
        check_partition(cfg.n, n_batches)
    elif preset == "custom":
        if not cfg.matrix_csv:
            raise ConfigurationError("custom preset needs matrix_csv")
        if not cfg.signal_csv and not cfg.data_csv:
            raise ConfigurationError("custom preset needs signal_csv or data_csv")
    return cfg


def parse_config(path) -> ExperimentConfig:
    """Load and validate a JSON experiment file (strict: unknown keys rejected)."""
    return build_config(_read_json(path))


def _read_json(path) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"{path}: JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, nested too deep, or an integer of too many digits
        raise ConfigurationError(f"{path}: not a readable JSON config: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{path}: top-level JSON value must be an object")
    return raw


def _build_problem(cfg: ExperimentConfig):
    """(op, obs, x_true); x_true is None for a custom run without signal_csv. The noiseless
    data are data_csv's when it is given, else the matrix times x_true."""
    x_true = None
    if cfg.preset == "integral":
        A = build_integral_operator(cfg.n, midpoint_columns=cfg.midpoint_columns)
        x_true = exact_sparse_signal(cfg.n)
    elif cfg.preset == "ct":
        A = build_radon_operator(cfg.geometry)
        x_true = sparse_disk_phantom(cfg.geometry.grid_side)
        if cfg.phantom_noise is not None:
            x_true, _ = corrupt(x_true, cfg.phantom_noise, cfg.solver.x_space.r)
    else:
        A = load_matrix_csv(cfg.matrix_csv)
        if cfg.signal_csv:
            x_true = load_matrix_csv(cfg.signal_csv).ravel()
            if x_true.size != A.shape[1]:
                raise DimensionMismatchError("signal length must match matrix columns")
    op = partition_rows(A, cfg.n_batches, cfg.solver.y_space)
    y_clean = load_matrix_csv(cfg.data_csv).ravel() if cfg.data_csv else A @ x_true
    y_data, delta = (y_clean, 0.0) if cfg.noise is None else corrupt(y_clean, cfg.noise, cfg.solver.y_space.r)
    return op, ObservationSet.from_full(y_data, op, delta), x_true


def write_pgm(path, image: np.ndarray):
    """8-bit binary PGM, min-max scaled."""
    img = _real(image, "image", 2)
    if not img.size:
        raise DimensionMismatchError(f"image has no pixels; got shape {img.shape}")
    lo, hi = float(img.min()), float(img.max())
    if not math.isfinite(hi - lo):  # a NaN or infinite pixel, or a range past the float range
        raise InvalidInputError(f"image must be finite, with max - min in the float range; got [{lo:.3g}, {hi:.3g}]")
    scaled = np.zeros_like(img) if hi == lo else (img - lo) / (hi - lo)
    data = np.round(scaled * 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii"))
        f.write(data.tobytes())


# The timed phases of run_experiment, in order; manifest.json records each one's seconds.
_PHASES = ("problem", "norm_estimate", "solve", "write")


def run_experiment(cfg: ExperimentConfig) -> int:
    solver = cfg.solver
    marks = [time.perf_counter()]  # the start, then the end of each phase
    op, obs, x_true = _build_problem(cfg)
    if solver.stopping is not None:  # fails here, before the norm estimate, when the data are noise-free
        a_priori_stop_index(solver.stopping, obs.noise_level, solver.x_space.p)
    marks.append(time.perf_counter())

    l_max = estimates = None
    if cfg.scale_in_l_max:
        estimates = block_norms(op, solver.x_space.r, **_NORM_SETTINGS)
        l_max = max(e.value for e in estimates)
        missed = [str(i) for i, e in enumerate(estimates) if not e.converged]
        if missed:
            print(f"warning: the norm estimate of block(s) {', '.join(missed)} did not converge in "
                  f"{_NORM_SETTINGS['max_iter']} iterations, so L_max = {l_max:.6g} is only a lower bound",
                  file=sys.stderr)
        solver = replace(solver, schedule=replace(solver.schedule, scale=solver.schedule.scale * l_max))
    marks.append(time.perf_counter())

    seeds = [solver.seed + j for j in range(cfg.seeds)]
    results = run_seeds(op, obs, solver, cfg.seeds, x_true=x_true, x_ref=x_true)
    marks.append(time.perf_counter())

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts = []
    for s, result in zip(seeds, results):
        name = f"trace_seed{s:04d}.csv"
        result.record.to_csv(out / name)
        artifacts.append(name)
    epoch = results[0].record.epoch
    stats = {
        f.name: ensemble_stats([r.record.column(f.name) for r in results])
        for f in fields(ConvergenceRecord)[1:]  # every column but the epoch
    }
    header, columns = ["epoch"], [epoch]
    for c, (mean, se) in stats.items():
        header += [c + "_mean", c + "_se"]
        columns += [mean, se]
    save_matrix_csv(out / "trace_mean.csv", np.column_stack(columns), ",".join(header))
    artifacts.append("trace_mean.csv")

    x_final = results[0].state.x
    save_matrix_csv(out / "reconstruction.csv", x_final[:, None])
    artifacts.append("reconstruction.csv")
    if cfg.preset == "ct":
        g = cfg.geometry.grid_side
        write_pgm(out / "reconstruction.pgm", x_final.reshape(g, g))
        artifacts.append("reconstruction.pgm")

    series = [("objective", epoch, stats["objective"][0])]
    if x_true is not None:
        series.append(("bregman", epoch, stats["bregman"][0]))
    line_chart(out / "plot.svg", series, title=f"{cfg.preset} experiment", x_label="epoch")
    artifacts.append("plot.svg")
    marks.append(time.perf_counter())

    manifest = {
        "version": __version__,
        "rng": RNG_ALGORITHM,
        "config": cfg.echo,
        "realized_noise_level": obs.noise_level,
        "operator_norm_estimate": l_max,
        "operator_norm_blocks": None if estimates is None else [
            {"value": e.value, "iterations": e.iterations, "converged": e.converged} for e in estimates
        ],
        "seeds": seeds,
        "work": [result.work() for result in results],
        "artifacts": artifacts,
        "timings_s": {phase: end - start for phase, start, end in zip(_PHASES, marks, marks[1:])},
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        },
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(artifacts) + 1} artifacts to {out}")
    return 0


def _with_flags(raw: dict, args) -> dict:
    """raw with every flag that was given; a flag's dest is the key it sets."""
    given = {k: v for k, v in vars(args).items() if v is not None and k not in ("command", "func", "config", "matrix")}
    return {**raw, **given}


def _cmd_solve(args) -> int:
    return run_experiment(build_config(_with_flags(_read_json(args.config), args)))


def _cmd_experiment(args) -> int:
    raw = _with_flags({}, args)
    if "q" in raw:
        raw.setdefault("method", "generalized_kaczmarz")
    return run_experiment(build_config(raw))


def _flag_value(text: str):
    """A flag's text read like the config value it sets: the number it spells, else its JSON
    value, else the text itself; the config checks then judge it (a bad value exits 1)."""
    for read in (int, float, json.loads):
        try:
            return read(text)
        except (ValueError, RecursionError):
            pass
    return text


def _cmd_norm_estimate(args) -> int:
    est = boyd_operator_norm(load_matrix_csv(args.matrix), **_with_flags({}, args))  # its defaults fill the rest
    status = "converged" if est.converged else "max-iterations-reached"
    print(f"norm estimate: {est.value:.12g}")
    print(f"iterations: {est.iterations} ({status})")
    print(f"starts: {est.starts}")
    return 0


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="banach-sgd",
        description="Mini-batch descent experiments for linear inverse problems in l^r geometry.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p):
        p.add_argument("--epochs", type=_flag_value, help="override epoch count")
        p.add_argument("--seed", type=_flag_value, help="base seed (default 0)")
        p.add_argument("--seeds", type=_flag_value, help="ensemble size (default 1)")
        p.add_argument("--out-dir", dest="out_dir", help="artifact directory (default 'out')")

    p_solve = sub.add_parser("solve", help="run an experiment from a JSON config")
    p_solve.add_argument("config")
    add_run_flags(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_exp = sub.add_parser("experiment", help="run a preset experiment")
    p_exp.add_argument("preset", choices=["integral", "ct"])
    p_exp.add_argument("--n", type=_flag_value, help="integral: discretisation size (default 1000)")
    p_exp.add_argument("--n-batches", dest="n_batches", type=_flag_value)
    p_exp.add_argument("--grid-side", dest="grid_side", type=_flag_value)
    p_exp.add_argument("--n-angles", dest="n_angles", type=_flag_value)
    p_exp.add_argument("--n-detectors", dest="n_detectors", type=_flag_value)
    p_exp.add_argument("--rx", dest="r_x", type=_flag_value, help="solution-space norm exponent")
    p_exp.add_argument("--ry", dest="r_y", type=_flag_value, help="data-space norm exponent")
    p_exp.add_argument("--p", type=_flag_value, help="duality-map power (default 2)")
    p_exp.add_argument("--q", type=_flag_value, help="residual power (implies generalized_kaczmarz)")
    p_exp.add_argument("--method", help="sgd (default), landweber or generalized_kaczmarz")
    p_exp.add_argument("--noise", type=_flag_value, help='JSON, e.g. \'{"kind":"gaussian","sigma":0.01}\'')
    add_run_flags(p_exp)
    p_exp.set_defaults(func=_cmd_experiment)

    p_norm = sub.add_parser("norm-estimate", help="operator norm of a CSV matrix")
    p_norm.add_argument("matrix")
    p_norm.add_argument("--rx", type=float)
    p_norm.add_argument("--ry", type=float)
    p_norm.add_argument("--tol", type=float)
    p_norm.add_argument("--max-iter", dest="max_iter", type=int)
    p_norm.set_defaults(func=_cmd_norm_estimate)
    return parser


def main(argv=None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, DataFormatError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (ConfigurationError, InvalidInputError, DimensionMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except IterationInvariantError as exc:
        print(f"runtime invariant violated: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
