"""Command-line experiment runner.

Subcommands:

  solve <config.json>                 run an experiment described by a JSON file
  experiment integral|ct [overrides]  run a preset with command-line overrides
  norm-estimate <matrix.csv>          operator norm between l^r spaces

Exit codes: 0 success, 1 configuration/validation failure,
2 runtime invariant violation, 3 I/O or data-format failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from ._svg import line_chart
from .diagnostics import ensemble_stats
from .exceptions import (
    ConfigurationError,
    DimensionMismatchError,
    InvalidInputError,
    IterationInvariantError,
)
from .noise import RNG_ALGORITHM, GaussianNoise, ImpulseNoise, SaltPepperNoise, corrupt
from .operators import (
    ObservationSet,
    RadonGeometry,
    boyd_operator_norm,
    build_integral_operator,
    build_radon_operator,
    exact_sparse_signal,
    load_matrix_csv,
    max_block_norm,
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
    StepSchedule,
    run,
    with_seed,
)
from .spaces import SpaceDescriptor

NoiseModel = GaussianNoise | ImpulseNoise | SaltPepperNoise

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
    },
    "custom": {
        "n_batches": 1,
        "epochs": 100,
        "schedule": {"kind": "slow_decay", "scale": "L_max"},
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

_ALLOWED_KEYS = {
    "preset", "r_x", "p", "r_y", "q", "method", "n", "n_batches", "epochs",
    "seed", "seeds", "schedule", "noise", "stopping", "out_dir",
    "grid_side", "n_angles", "angle_step", "n_detectors", "pixel_size",
    "phantom_noise", "matrix_csv", "signal_csv", "data_csv", "midpoint_columns",
}

_SCHEDULE_KEYS = {
    "slow_decay": {"kind", "scale"},
    "polynomial": {"kind", "mu0", "beta"},
    "constant": {"kind", "mu0"},
}
_NOISE_KEYS = {
    "none": {"kind"},
    "gaussian": {"kind", "sigma", "seed"},
    "impulse": {"kind", "pct", "lo", "hi", "seed"},
    "salt_pepper": {"kind", "pct", "salt_value", "pepper_value", "seed"},
}
_STOPPING_KEYS = {
    "max_epochs": {"kind"},
    "a_priori": {"kind", "beta", "theta"},
}


@dataclass
class ExperimentConfig:
    """Validated experiment description (raw JSON echo kept for the manifest)."""

    preset: str
    x_space: SpaceDescriptor
    y_space: SpaceDescriptor
    method: str
    q: float | None
    n: int | None
    n_batches: int
    epochs: int
    seed: int
    seeds: int
    schedule: StepSchedule | None  # None while the slow-decay scale waits for the norm estimate
    l_max_fraction: float | None  # that scale as a fraction of L_max
    noise: NoiseModel | None
    a_priori: tuple[float, float] | None  # (beta, theta) of the a-priori stop
    out_dir: str
    geometry: RadonGeometry | None = None
    phantom_noise: NoiseModel | None = None
    matrix_csv: str | None = None
    signal_csv: str | None = None
    data_csv: str | None = None
    midpoint_columns: bool = True
    echo: dict = field(default_factory=dict)


def _check_keys(section: str, data: dict, allowed):
    unknown = set(data) - set(allowed)
    if unknown:
        raise ConfigurationError(f"unknown key(s) in {section}: {', '.join(sorted(unknown))}")


def _number(section: str, data: dict, key: str, kind=float, default=None):
    """kind(data[key]), or default when the key is absent and default is given."""
    if key not in data:
        if default is None:
            raise ConfigurationError(f"{section} needs a {key!r} entry")
        return default
    try:
        return kind(data[key])
    except (TypeError, ValueError):
        kind_name = "an integer" if kind is int else "a number"
        raise ConfigurationError(f"{section}.{key} must be {kind_name}; got {data[key]!r}") from None


def _validated_sub(section: str, data, table) -> dict:
    if not isinstance(data, dict) or "kind" not in data:
        raise ConfigurationError(f"{section} must be an object with a 'kind' field")
    kind = data["kind"]
    if not isinstance(kind, str) or kind not in table:
        raise ConfigurationError(f"{section}.kind must be one of {sorted(table)}; got {kind!r}")
    _check_keys(section, data, table[kind])
    return data


def build_config(raw: dict) -> ExperimentConfig:
    """Merge defaults, reject unknown keys, and validate every invariant."""
    _check_keys("config", raw, _ALLOWED_KEYS)
    preset = raw.get("preset", "integral")
    if not isinstance(preset, str) or preset not in _PRESET_DEFAULTS:
        raise ConfigurationError(f"preset must be one of {sorted(_PRESET_DEFAULTS)}; got {preset!r}")
    merged = dict(_COMMON_DEFAULTS)
    merged.update(_PRESET_DEFAULTS[preset])
    merged.update(raw)
    merged["preset"] = preset

    x_space = SpaceDescriptor(_number("config", merged, "r_x"), _number("config", merged, "p"))
    y_space = SpaceDescriptor(_number("config", merged, "r_y"), x_space.p)
    method = merged["method"]
    q = merged.get("q")
    if q is not None and method != "generalized_kaczmarz":
        raise ConfigurationError("q is only valid with method generalized_kaczmarz")
    n_batches, epochs, seeds = (_number("config", merged, k, int) for k in ("n_batches", "epochs", "seeds"))
    if n_batches < 1 or epochs < 1 or seeds < 1:
        raise ConfigurationError("n_batches, epochs and seeds must be >= 1")

    schedule, l_max_fraction = _schedule_from_spec(
        _validated_sub("schedule", merged["schedule"], _SCHEDULE_KEYS), n_batches, x_space.p_conj
    )
    noise = _noise_from_spec("noise", _validated_sub("noise", merged["noise"], _NOISE_KEYS))
    stopping = _validated_sub("stopping", merged["stopping"], _STOPPING_KEYS)
    a_priori = None
    if stopping["kind"] == "a_priori":
        a_priori = (_number("stopping", stopping, "beta", float, 0.0),
                    _number("stopping", stopping, "theta", float, 0.9))

    geometry = None
    n = merged.get("n")
    if preset == "integral":
        n = _number("config", merged, "n", int, 1000)
        if n % n_batches != 0:
            raise ConfigurationError(f"n_batches ({n_batches}) must divide n ({n})")
    elif preset == "ct":
        geometry = RadonGeometry(
            grid_side=_number("config", merged, "grid_side", int),
            n_angles=_number("config", merged, "n_angles", int),
            angle_step=_number("config", merged, "angle_step"),
            n_detectors=_number("config", merged, "n_detectors", int),
            pixel_size=_number("config", merged, "pixel_size"),
        )
        rows = geometry.n_angles * geometry.n_detectors
        if rows % n_batches != 0:
            raise ConfigurationError(f"n_batches ({n_batches}) must divide the sinogram size ({rows})")
    else:
        if not merged.get("matrix_csv"):
            raise ConfigurationError("custom preset needs matrix_csv")
        if not merged.get("signal_csv") and not merged.get("data_csv"):
            raise ConfigurationError("custom preset needs signal_csv or data_csv")

    phantom_noise = merged.get("phantom_noise")
    if phantom_noise is not None:
        phantom_noise = _noise_from_spec(
            "phantom_noise", _validated_sub("phantom_noise", phantom_noise, _NOISE_KEYS)
        )

    return ExperimentConfig(
        preset=preset,
        x_space=x_space,
        y_space=y_space,
        method=method,
        q=None if q is None else _number("config", merged, "q"),
        n=n,
        n_batches=n_batches,
        epochs=epochs,
        seed=_number("config", merged, "seed", int),
        seeds=seeds,
        schedule=schedule,
        l_max_fraction=l_max_fraction,
        noise=noise,
        a_priori=a_priori,
        out_dir=str(merged["out_dir"]),
        geometry=geometry,
        phantom_noise=phantom_noise,
        matrix_csv=merged.get("matrix_csv"),
        signal_csv=merged.get("signal_csv"),
        data_csv=merged.get("data_csv"),
        midpoint_columns=bool(merged.get("midpoint_columns", True)),
        echo=merged,
    )


def parse_config(path) -> ExperimentConfig:
    """Load and validate a JSON experiment file (strict: unknown keys rejected)."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"{path}: JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{path}: top-level JSON value must be an object")
    return build_config(raw)


def _noise_from_spec(section: str, spec: dict):
    """The noise model of a validated spec; None for kind "none"."""
    kind = spec["kind"]
    if kind == "none":
        return None
    seed = _number(section, spec, "seed", int, 0)
    if kind == "gaussian":
        return GaussianNoise(sigma=_number(section, spec, "sigma"), seed=seed)
    if kind == "impulse":
        return ImpulseNoise(
            pct=_number(section, spec, "pct"),
            lo=_number(section, spec, "lo", float, 0.1),
            hi=_number(section, spec, "hi", float, 0.4),
            seed=seed,
        )
    return SaltPepperNoise(
        pct=_number(section, spec, "pct"),
        salt_value=None if spec.get("salt_value") is None else _number(section, spec, "salt_value"),
        pepper_value=_number(section, spec, "pepper_value", float, 0.0),
        seed=seed,
    )


def _schedule_from_spec(spec: dict, n_batches: int, p_conj: float):
    """(schedule, None), or (None, fraction) when the scale is that fraction of L_max."""
    kind = spec["kind"]
    if kind == "constant":
        return ConstantSchedule(_number("schedule", spec, "mu0")), None
    if kind == "polynomial":
        return PolynomialSchedule(_number("schedule", spec, "mu0"), _number("schedule", spec, "beta")), None
    scale = spec.get("scale", "L_max")
    if isinstance(scale, str):
        table = {"L_max": 1.0, "L_max/2": 0.5}
        if scale not in table:
            raise ConfigurationError(
                f"symbolic schedule scale must be one of {sorted(table)}; got {scale!r}"
            )
        return None, table[scale]
    return SlowDecaySchedule(_number("schedule", spec, "scale"), n_batches, p_conj), None


def _build_problem(cfg: ExperimentConfig):
    """Returns (matrix, x_true or None)."""
    if cfg.preset == "integral":
        A = build_integral_operator(cfg.n, midpoint_columns=cfg.midpoint_columns)
        x_true = exact_sparse_signal(cfg.n)
        return A, x_true
    if cfg.preset == "ct":
        A = build_radon_operator(cfg.geometry)
        x_true = sparse_disk_phantom(cfg.geometry.grid_side)
        if cfg.phantom_noise is not None:
            x_true, _ = corrupt(x_true, cfg.phantom_noise, cfg.x_space.r)
        return A, x_true
    A = load_matrix_csv(cfg.matrix_csv)
    if cfg.signal_csv:
        x_true = load_matrix_csv(cfg.signal_csv).ravel()
        if x_true.size != A.shape[1]:
            raise DimensionMismatchError("signal length must match matrix columns")
        return A, x_true
    return A, None


def write_pgm(path, image: np.ndarray):
    """8-bit binary PGM, min-max scaled."""
    img = np.asarray(image, dtype=float)
    lo, hi = float(img.min()), float(img.max())
    scaled = np.zeros_like(img) if hi == lo else (img - lo) / (hi - lo)
    data = np.round(scaled * 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii"))
        f.write(data.tobytes())


def run_experiment(cfg: ExperimentConfig) -> int:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    A, x_true = _build_problem(cfg)
    op = partition_rows(A, cfg.n_batches, cfg.y_space)
    if x_true is not None:
        y_clean = A @ x_true
    else:
        y_clean = load_matrix_csv(cfg.data_csv).ravel()
        if y_clean.size != op.total_rows:
            raise DimensionMismatchError("data length must match matrix rows")
    delta = 0.0
    y_data = y_clean
    if cfg.noise is not None:
        y_data, delta = corrupt(y_clean, cfg.noise, cfg.y_space.r)

    l_max = None
    schedule = cfg.schedule
    if schedule is None:
        l_max = max_block_norm(op, cfg.x_space.r, tol=1e-8, max_iter=500)
        schedule = SlowDecaySchedule(cfg.l_max_fraction * l_max, cfg.n_batches, cfg.x_space.p_conj)

    stopping = None
    if cfg.a_priori is not None:
        if delta <= 0:
            raise ConfigurationError("a_priori stopping needs noisy data (realized delta is 0)")
        beta, theta = cfg.a_priori
        stopping = APrioriStop(delta=delta, beta=beta, power=cfg.x_space.p, theta=theta)

    obs = ObservationSet.from_full(y_data, op, delta)

    base = SolverConfig(
        x_space=cfg.x_space,
        y_space=cfg.y_space,
        schedule=schedule,
        method=cfg.method,
        q=cfg.q,
        stopping=stopping,
        seed=cfg.seed,
        epochs=cfg.epochs,
    )

    seeds = [cfg.seed + j for j in range(cfg.seeds)]
    results = [run(op, obs, with_seed(base, s), x_true=x_true, x_ref=x_true) for s in seeds]

    artifacts = []
    for s, result in zip(seeds, results):
        name = f"trace_seed{s:04d}.csv"
        result.record.to_csv(out / name)
        artifacts.append(name)
    epoch = results[0].record.epoch
    stats = {
        c: ensemble_stats([r.record.column(c) for r in results])
        for c in ("objective", "residual", "bregman", "delta1", "delta2", "step")
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

    manifest = {
        "version": __version__,
        "rng": RNG_ALGORITHM,
        "config": cfg.echo,
        "realized_noise_level": delta,
        "operator_norm_estimate": l_max,
        "seeds": seeds,
        "artifacts": artifacts,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(artifacts) + 1} artifacts to {out}")
    return 0


def _cmd_solve(args) -> int:
    cfg = parse_config(args.config)
    cfg = _apply_overrides(cfg, args)
    return run_experiment(cfg)


def _cmd_experiment(args) -> int:
    raw = {"preset": args.preset}
    for key in ("n", "n_batches", "grid_side", "n_angles", "n_detectors"):
        v = getattr(args, key, None)
        if v is not None:
            raw[key] = v
    if args.rx is not None:
        raw["r_x"] = args.rx
    if args.ry is not None:
        raw["r_y"] = args.ry
    if args.p is not None:
        raw["p"] = args.p
    if args.q is not None:
        raw["q"] = args.q
        raw["method"] = "generalized_kaczmarz"
    if args.method is not None:
        raw["method"] = args.method
    if args.noise is not None:
        try:
            raw["noise"] = json.loads(args.noise)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"--noise is not valid JSON: {exc.msg}") from exc
    cfg = build_config(raw)
    return run_experiment(_apply_overrides(cfg, args))


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    """Re-validate the configuration with the run flags that were given."""
    updates = {key: getattr(args, key) for key in ("epochs", "seed", "seeds", "out_dir")
               if getattr(args, key, None) is not None}
    return build_config({**cfg.echo, **updates}) if updates else cfg


def _cmd_norm_estimate(args) -> int:
    try:
        A = load_matrix_csv(args.matrix)
    except (OSError, InvalidInputError) as exc:
        print(f"error: cannot read matrix: {exc}", file=sys.stderr)
        return 3
    est = boyd_operator_norm(A, args.rx, args.ry, tol=args.tol, max_iter=args.max_iter)
    status = "converged" if est.converged else "max-iterations-reached"
    print(f"norm estimate: {est.value:.12g}")
    print(f"iterations: {est.iterations} ({status})")
    return 0


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="banach-sgd",
        description="Mini-batch descent experiments for linear inverse problems in l^r geometry.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p):
        p.add_argument("--epochs", type=int, default=None, help="override epoch count")
        p.add_argument("--seed", type=int, default=None, help="base seed (default 0)")
        p.add_argument("--seeds", type=int, default=None, help="ensemble size (default 1)")
        p.add_argument("--out-dir", default=None, help="artifact directory (default 'out')")

    p_solve = sub.add_parser("solve", help="run an experiment from a JSON config")
    p_solve.add_argument("config")
    add_run_flags(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_exp = sub.add_parser("experiment", help="run a preset experiment")
    p_exp.add_argument("preset", choices=["integral", "ct"])
    p_exp.add_argument("--n", type=int, default=None, help="integral: discretisation size (default 1000)")
    p_exp.add_argument("--n-batches", dest="n_batches", type=int, default=None)
    p_exp.add_argument("--grid-side", dest="grid_side", type=int, default=None)
    p_exp.add_argument("--n-angles", dest="n_angles", type=int, default=None)
    p_exp.add_argument("--n-detectors", dest="n_detectors", type=int, default=None)
    p_exp.add_argument("--rx", type=float, default=None, help="solution-space norm exponent")
    p_exp.add_argument("--ry", type=float, default=None, help="data-space norm exponent")
    p_exp.add_argument("--p", type=float, default=None, help="duality-map power (default 2)")
    p_exp.add_argument("--q", type=float, default=None, help="residual power (implies generalized_kaczmarz)")
    p_exp.add_argument("--method", choices=["sgd", "landweber", "generalized_kaczmarz"], default=None)
    p_exp.add_argument("--noise", default=None, help='JSON, e.g. \'{"kind":"gaussian","sigma":0.01}\'')
    add_run_flags(p_exp)
    p_exp.set_defaults(func=_cmd_experiment)

    p_norm = sub.add_parser("norm-estimate", help="operator norm of a CSV matrix")
    p_norm.add_argument("matrix")
    p_norm.add_argument("--rx", type=float, default=2.0)
    p_norm.add_argument("--ry", type=float, default=2.0)
    p_norm.add_argument("--tol", type=float, default=1e-10)
    p_norm.add_argument("--max-iter", dest="max_iter", type=int, default=2000)
    p_norm.set_defaults(func=_cmd_norm_estimate)
    return parser


def main(argv=None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, InvalidInputError, DimensionMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except IterationInvariantError as exc:
        print(f"runtime invariant violated: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
