"""Command-line experiment harness.

Subcommands cover the full desk-scale experiment matrix: single
train/eval runs, the interpolation-type sweep, the tuning/init ablation
grid, few-shot curves, distribution-shift grids, and run verification.
Each subcommand registers its handler with the parser, and `main` calls
it. The four grid commands (sweep, ablation, few-shot, distribution
shift) share one runner, `_run_grid`, over methods x cells x seeds.
Every command is a pure function of (config, seed): rerunning a command
into a fresh directory reproduces byte-identical outputs, and each run
directory carries a manifest (a format line, the resolved config and
each file's size and FNV-1a checksum) sufficient to rerun or audit it.

Config files are plain text `key = value` lines; `#` starts a comment.
A key that names a PromptConfig or TrainConfig field takes that field's
default and is copied into it by name. Every table a command writes goes
through metrics.write_csv.

Exit codes: 0 success, 1 verification failure or a diverged fit, 2 config
error.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import data as datamod
from . import metrics as metricsmod
from . import prompt as promptmod
from . import training
from .encoders import export_prototypes, fnv1a64
from .training import BASELINE, COOP, METHODS, ORDINALCLIP, ZEROSHOT, TrainConfig


class ConfigError(Exception):
    pass


class VerificationError(Exception):
    pass


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_int_list(raw: str) -> tuple[int, ...]:
    raw = raw.strip()
    if not raw:
        return ()
    return tuple(int(v) for v in raw.split(","))


def _int_flag(raw: str, flag: str) -> tuple[int, ...]:
    """A grid axis: one or more comma-separated integers."""
    try:
        values = _parse_int_list(raw)
    except ValueError as exc:
        raise ConfigError(f"bad {flag} value {raw!r}: {exc}") from exc
    if not values:
        raise ConfigError(f"{flag} is empty; give at least one value")
    return values


# key -> (parser, default). The manifest echoes every resolved key, so new
# knobs must be added here to stay reproducible.
CONFIG_SCHEMA = {
    # data
    "data_source": (str, "synthetic"),
    "csv_path": (str, ""),
    "num_ranks": (int, 20),
    "per_rank": (int, 40),
    "input_dim": (int, 16),
    "noise_sigma": (float, 0.25),
    "data_seed": (int, 0),
    "train_fraction": (float, 0.8),
    # method and prompt
    "method": (str, ORDINALCLIP),
    "num_base_ranks": (int, promptmod.PromptConfig.num_base_ranks),
    "num_context": (int, promptmod.PromptConfig.num_context),
    "word_dim": (int, promptmod.PromptConfig.word_dim),
    "interpolation": (str, promptmod.PromptConfig.interpolation),
    "epsilon": (float, promptmod.PromptConfig.epsilon),
    "tune_rank": (_parse_bool, promptmod.PromptConfig.tune_rank),
    "tune_ctx": (_parse_bool, promptmod.PromptConfig.tune_ctx),
    "init_ctx": (_parse_bool, promptmod.PromptConfig.init_ctx),
    # encoders
    "latent_dim": (int, 64),
    "hidden_dim": (int, 32),
    "max_len": (int, 16),
    "vocab_size": (int, 64),
    "encoder_seed": (int, 7),
    # training
    "epochs": (int, TrainConfig.epochs),
    "batch_size": (int, TrainConfig.batch_size),
    "learning_rate": (float, TrainConfig.learning_rate),
    "lr_decay_factor": (float, TrainConfig.lr_decay_factor),
    "decay_epochs": (_parse_int_list, TrainConfig.decay_epochs),
    "beta1": (float, TrainConfig.beta1),
    "beta2": (float, TrainConfig.beta2),
    "adam_eps": (float, TrainConfig.adam_eps),
    "temperature": (float, TrainConfig.temperature),
    "seed": (int, TrainConfig.seed),
    "last_layer_lr_mult": (float, TrainConfig.last_layer_lr_mult),
    # evaluation
    "prediction_rule": (str, metricsmod.ARGMAX),
    "eval_seeds": (int, 3),
}

# The PromptConfig keys, copied into it by name, except num_ranks, which
# comes from the dataset.
_PROMPT_FIELDS = tuple(f.name for f in fields(promptmod.PromptConfig) if f.name != "num_ranks")

# Echoed in the manifest only for prompt-based methods.
PROMPT_KEYS = _PROMPT_FIELDS + ("max_len", "vocab_size")


def load_config(path: str | None) -> dict:
    """Resolve a config file against the schema defaults."""
    cfg = {key: default for key, (_, default) in CONFIG_SCHEMA.items()}
    if path is not None:
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in CONFIG_SCHEMA:
                raise ConfigError(
                    f"{path}:{lineno}: unknown key {key!r}; valid keys: "
                    + ", ".join(sorted(CONFIG_SCHEMA))
                )
            parser = CONFIG_SCHEMA[key][0]
            try:
                cfg[key] = parser(raw)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: dict) -> None:
    if cfg["method"] not in METHODS:
        raise ConfigError(f"method must be one of {METHODS}, got {cfg['method']!r}")
    if cfg["data_source"] not in ("synthetic", "csv"):
        raise ConfigError(f"data_source must be synthetic or csv, got {cfg['data_source']!r}")
    if cfg["data_source"] == "csv" and not cfg["csv_path"]:
        raise ConfigError("missing required key: csv_path (data_source = csv)")
    if cfg["interpolation"] not in promptmod.INTERPOLATION_KINDS:
        raise ConfigError(
            f"interpolation must be one of {promptmod.INTERPOLATION_KINDS}, "
            f"got {cfg['interpolation']!r}"
        )
    if cfg["prediction_rule"] not in metricsmod.PREDICTION_RULES:
        raise ConfigError(
            f"prediction_rule must be one of {metricsmod.PREDICTION_RULES}, "
            f"got {cfg['prediction_rule']!r}"
        )
    if cfg["eval_seeds"] < 1:
        raise ConfigError(f"eval_seeds must be >= 1, got {cfg['eval_seeds']}")


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


# ---------------------------------------------------------------------------
# building blocks shared by the commands


def _load_dataset(cfg: dict) -> datamod.OrdinalDataset:
    if cfg["data_source"] == "csv":
        try:
            return datamod.load_csv(cfg["csv_path"])
        except (OSError, ValueError) as exc:
            raise ConfigError(f"csv_path {cfg['csv_path']!r}: {exc}") from exc
    # Every check generate_synthetic makes is a check on config values.
    try:
        return datamod.generate_synthetic(
            cfg["num_ranks"], cfg["per_rank"], cfg["input_dim"], cfg["noise_sigma"],
            cfg["data_seed"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _prepare(cfg: dict, out_dir: str):
    """Create the output directory, then load and split the data;
    returns (out, train_ds, test_ds)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ds = _load_dataset(cfg)
    fraction = cfg["train_fraction"]
    spec = datamod.SplitSpec(fraction, 1.0 - fraction, seed=cfg["data_seed"])
    # Every check train_test_split makes is a check on config values.
    try:
        return (out, *datamod.train_test_split(ds, spec))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _prompt_config(cfg: dict, num_ranks: int, **overrides) -> promptmod.PromptConfig:
    merged = {key: cfg[key] for key in _PROMPT_FIELDS} | overrides
    return promptmod.PromptConfig(num_ranks, **merged)


def _train_config(cfg: dict, seed: int) -> TrainConfig:
    """The TrainConfig keys, copied into it by name, with the cell's seed."""
    train_cfg = TrainConfig(**{f.name: cfg[f.name] for f in fields(TrainConfig)} | {"seed": seed})
    try:
        return train_cfg.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_model(cfg: dict, method: str, num_ranks: int, input_dim: int, init_seed: int,
                 **prompt_overrides) -> training.ModelState:
    prompt_cfg = None
    if method != BASELINE:
        prompt_cfg = _prompt_config(cfg, num_ranks, **prompt_overrides)
    # Every model-shape check build_model makes is a check on config values.
    try:
        return training.build_model(
            method,
            num_ranks,
            prompt_cfg=prompt_cfg,
            input_dim=input_dim,
            hidden_dim=cfg["hidden_dim"],
            latent_dim=cfg["latent_dim"],
            max_len=cfg["max_len"],
            vocab_size=max(cfg["vocab_size"], num_ranks),
            encoder_seed=cfg["encoder_seed"],
            init_seed=init_seed,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _run_cell(cfg: dict, method: str, train_ds, test_ds, seed: int,
              **prompt_overrides):
    """Train one model and evaluate it; returns (report, state, trace)."""
    train_cfg = _train_config(cfg, seed)  # zeroshot too: it evaluates at its temperature
    state = _build_model(
        cfg, method, train_ds.num_ranks, train_ds.input_dim, seed, **prompt_overrides
    )
    trace = training.LossTrace()
    if method != ZEROSHOT:
        trace = training.fit(state, train_ds, train_cfg)
    report = training.evaluate(
        state, test_ds, rule=cfg["prediction_rule"], temperature=cfg["temperature"]
    )
    return report, state, trace


def _whole(ds: datamod.OrdinalDataset, seed: int) -> datamod.OrdinalDataset:
    """The column subsample that keeps every training sample."""
    return ds


def _eval_seeds(cfg: dict) -> range:
    return range(cfg["seed"], cfg["seed"] + cfg["eval_seeds"])


def _run_grid(cfg: dict, train_ds, test_ds, rows, cols, seeds):
    """(mean MAE table, mean ordinality table), one row per `rows` entry
    and one column per `cols` entry.

    A row is (method, prompt overrides); a column is (subsample, prompt
    overrides), where subsample(train_ds, seed) supplies the cell's
    training split. Each cell trains once per seed, and that seed drives
    both the subsample and the model, so all methods see identically
    seeded subsamples per repetition. Every split and model shape is
    checked before the first cell trains.
    """
    try:
        splits = [[subsample(train_ds, seed) for seed in seeds] for subsample, _ in cols]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for method, row_overrides in rows:
        for _, col_overrides in cols:
            _build_model(cfg, method, train_ds.num_ranks, train_ds.input_dim, seeds[0],
                         **row_overrides, **col_overrides)
    mae_table, ord_table = [], []
    for method, row_overrides in rows:
        cells = [
            [_run_cell(cfg, method, split, test_ds, seed, **row_overrides, **col_overrides)[0]
             for split, seed in zip(col_splits, seeds)]
            for col_splits, (_, col_overrides) in zip(splits, cols)
        ]
        mae_table.append([float(np.mean([r.mae for r in cell])) for cell in cells])
        ord_table.append([float(np.mean([r.ordinality for r in cell])) for cell in cells])
    return mae_table, ord_table


def _labelled(labels, *tables) -> list[list]:
    """Each label tuple followed by its row of every table, in order."""
    return [list(label) + sum(rows, []) for label, *rows in zip(labels, *tables)]


# ---------------------------------------------------------------------------
# manifest


# The first line of every manifest. `report` refuses a manifest that does
# not start with it, so one of another format fails on this line rather
# than as a checksum mismatch per file.
MANIFEST_FORMAT = "# run manifest"

# A [files] entry: a plain file name, its size and its hex digest. 20
# digits hold any 64-bit size and stay far below int()'s digit limit.
_FILE_ENTRY = re.compile(r"(.+) ([0-9]{1,20}) ([0-9a-f]{16})")


def _write_manifest(out_dir: Path, cfg: dict, method: str, extra: dict | None = None) -> None:
    lines = [MANIFEST_FORMAT]
    skip = set() if method != BASELINE else set(PROMPT_KEYS)
    for key in sorted(CONFIG_SCHEMA):
        if key in skip:
            continue
        lines.append(f"{key} = {_format_value(cfg[key])}")
    for key, value in sorted((extra or {}).items()):
        lines.append(f"{key} = {_format_value(value)}")
    lines.append("[files]")
    for path in sorted(out_dir.iterdir()):
        if path.name == "manifest.txt" or path.is_dir():
            continue
        blob = path.read_bytes()
        lines.append(f"{path.name} {len(blob)} {fnv1a64(blob):016x}")
    (out_dir / "manifest.txt").write_text("\n".join(lines) + "\n")


def _read_manifest(out_dir: Path) -> tuple[dict, list[tuple[str, int, str]]]:
    """(config, [(name, size, digest)]) of a run's manifest. Anything that
    does not parse, and a file entry that is not a plain name in the run
    directory, raises VerificationError naming the line."""
    path = out_dir / "manifest.txt"
    if not path.is_file():
        raise VerificationError(f"missing manifest: {path}")
    blob = path.read_bytes()
    try:
        lines = blob.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        lineno = blob.count(b"\n", 0, exc.start) + 1
        raise VerificationError(f"{path}:{lineno}: not UTF-8 text") from exc
    if lines[0] != MANIFEST_FORMAT:
        raise VerificationError(
            f"{path}:1: unknown manifest format {lines[0]!r}; expected {MANIFEST_FORMAT!r}"
        )
    config, files = {}, []
    in_files = False
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line == "[files]":
            in_files = True
        elif in_files:
            entry = _FILE_ENTRY.fullmatch(line)
            if entry is None:
                raise VerificationError(
                    f"{path}:{lineno}: expected 'name size digest', got {line!r}"
                )
            name, size, digest = entry.groups()
            if name in (".", "..") or "/" in name:
                raise VerificationError(f"{path}:{lineno}: {name!r} is not a plain file name")
            files.append((name, int(size), digest))
        elif "=" in line:
            key, value = (part.strip() for part in line.split("=", 1))
            config[key] = value
        else:
            raise VerificationError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
    return config, files


# ---------------------------------------------------------------------------
# commands


def _write_tables(out: Path, cfg: dict, header: list[str], tables: dict,
                  extra: dict | None = None) -> int:
    """Write each named table and the manifest; print the first table."""
    for name, rows in tables.items():
        metricsmod.write_csv(out / name, header, rows)
    _write_manifest(out, cfg, ORDINALCLIP, extra)
    _print_table(header, next(iter(tables.values())))
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    method = cfg["method"]
    out, train_ds, test_ds = _prepare(cfg, args.out)
    report, state, trace = _run_cell(cfg, method, train_ds, test_ds, cfg["seed"])

    training.save_state(state, out / "checkpoint.bin")
    trace.to_csv(out / "loss_trace.csv")
    metricsmod.write_csv(
        out / "metrics.csv", ("metric", "value"),
        [("mae", report.mae), ("accuracy", report.accuracy), ("ordinality", report.ordinality)]
        + [(f"count_{rank}", count) for rank, count in enumerate(report.per_rank_counts)],
    )
    protos = training.prototypes_of(state)
    export_prototypes(out / "prototypes.bin", protos)
    metricsmod.export_heatmap(
        metricsmod.prototype_similarity(protos, cfg["temperature"]),
        out / "prototype_similarity",
    )
    if state.interpolation is not None:
        metricsmod.export_heatmap(state.interpolation, out / "interpolation_matrix")

    extra = {}
    if method != BASELINE and not (cfg["tune_rank"] or cfg["tune_ctx"]) and method != ZEROSHOT:
        extra["mode_note"] = "image-encoder-only"
    _write_manifest(out, cfg, method, extra)
    print(f"run complete: method={method} test_mae={report.mae:.4f} "
          f"accuracy={report.accuracy:.4f} ordinality={report.ordinality:.4f}")
    print(f"outputs in {out}")
    return 0


def cmd_sweep_interpolation(args: argparse.Namespace) -> int:
    """One ordinalclip fit per (interpolation type, base-rank count) at
    the config seed."""
    counts = _int_flag(args.counts, "--counts")
    kinds = tuple(k.strip() for k in args.types.split(",") if k.strip())
    if not kinds:
        raise ConfigError("--types is empty; give at least one value")
    cfg = load_config(args.config)
    for kind in kinds:
        if kind not in promptmod.INTERPOLATION_KINDS:
            raise ConfigError(f"unknown interpolation type {kind!r}")
    out, train_ds, test_ds = _prepare(cfg, args.out)
    maes, _ = _run_grid(cfg, train_ds, test_ds,
                        [(ORDINALCLIP, {"interpolation": kind}) for kind in kinds],
                        [(_whole, {"num_base_ranks": count}) for count in counts],
                        [cfg["seed"]])
    header = ["interpolation"] + [f"base_{c}" for c in counts]
    tables = {"interpolation_sweep.csv": _labelled([(kind,) for kind in kinds], maes)}
    return _write_tables(out, cfg, header, tables,
                         {"sweep_counts": counts, "sweep_types": ",".join(kinds)})


ABLATION_CELLS = (
    # (tune_rank, tune_ctx, init_ctx) in the ablation table's column order
    (True, False, False),
    (False, True, False),
    (True, True, False),
    (True, False, True),
    (False, True, True),
    (True, True, True),
)


def cmd_ablation(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    out, train_ds, test_ds = _prepare(cfg, args.out)
    cells = [(method, cell) for method in (COOP, ORDINALCLIP) for cell in ABLATION_CELLS]
    keys = ("tune_rank", "tune_ctx", "init_ctx")
    maes, ords = _run_grid(cfg, train_ds, test_ds,
                           [(method, dict(zip(keys, cell))) for method, cell in cells],
                           [(_whole, {})], _eval_seeds(cfg))
    labels = [(method, *map(_format_value, cell)) for method, cell in cells]
    header = ["method", *keys, "mae", "ordinality"]
    return _write_tables(out, cfg, header, {"ablation.csv": _labelled(labels, maes, ords)})


TABLE_METHODS = (BASELINE, COOP, ORDINALCLIP)


def _method_tables(cfg: dict, out_dir: str, name: str, subsamples, headers: list[str],
                   extra: dict) -> int:
    """Every table method on every subsample column, into
    <name>_mae.csv and <name>_ordinality.csv."""
    out, train_ds, test_ds = _prepare(cfg, out_dir)
    maes, ords = _run_grid(cfg, train_ds, test_ds, [(m, {}) for m in TABLE_METHODS],
                           [(s, {}) for s in subsamples], _eval_seeds(cfg))
    labels = [(method,) for method in TABLE_METHODS]
    tables = {f"{name}_mae.csv": _labelled(labels, maes),
              f"{name}_ordinality.csv": _labelled(labels, ords)}
    return _write_tables(out, cfg, ["method"] + headers, tables, extra)


def cmd_fewshot(args: argparse.Namespace) -> int:
    shots = _int_flag(args.shots, "--shots")
    cfg = load_config(args.config)
    return _method_tables(
        cfg, args.out, "fewshot",
        [lambda ds, seed, s=s: datamod.few_shot_subsample(ds, s, seed) for s in shots],
        [f"shot_{s}" for s in shots],
        {"shots": shots},
    )


def _parse_grid(raw: str) -> tuple[tuple[int, float], ...]:
    cells = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            cls_part, frac_part = token.split(":")
            cells.append((int(cls_part), float(frac_part)))
        except ValueError as exc:
            raise ConfigError(
                f"bad distribution-shift cell {token!r}; expected classes:fraction"
            ) from exc
    if not cells:
        raise ConfigError("--grid is empty; give at least one classes:fraction cell")
    return tuple(cells)


def cmd_distshift(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    cells = _parse_grid(args.grid)
    return _method_tables(
        cfg, args.out, "distshift",
        [lambda ds, seed, c=c, f=f: datamod.distribution_shift_subsample(ds, c, f, seed)
         for c, f in cells],
        [f"{c}-{int(round(f * 100))}" for c, f in cells],
        {"grid": args.grid},
    )


def cmd_report(args: argparse.Namespace) -> int:
    out = Path(args.run_dir)
    try:
        config, files = _read_manifest(out)
    except VerificationError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print("# configuration")
    for key in sorted(config):
        print(f"{key} = {config[key]}")
    metrics_path = out / "metrics.csv"
    if metrics_path.exists():
        print("# metrics")
        print(metrics_path.read_text().strip())
    print("# files")
    failures = []
    for name, size, digest in files:
        path = out / name
        if not path.is_file():
            failures.append(f"missing file: {name}")
            print(f"{name}  MISSING")
            continue
        blob = path.read_bytes()
        ok = len(blob) == size and f"{fnv1a64(blob):016x}" == digest
        print(f"{name}  {len(blob)} bytes  {'ok' if ok else 'CHECKSUM MISMATCH'}")
        if not ok:
            failures.append(f"checksum mismatch: {name}")
    if failures:
        for failure in failures:
            print(failure, file=sys.stderr)
        return 1
    return 0


def _print_table(header: list[str], rows: list[list]) -> None:
    print(",".join(header))
    for row in rows:
        print(",".join(f"{v:.4f}" if isinstance(v, float) else str(v) for v in row))


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordinalproto",
        description="Ordinal regression with interpolated language prototypes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train one model and write a run directory")
    train.add_argument("--config", default=None, help="key = value config file")
    train.add_argument("--out", required=True, help="output run directory")
    train.set_defaults(handler=cmd_train)

    sweep = sub.add_parser("sweep-interpolation", help="base-rank count x type sweep")
    sweep.add_argument("--config", default=None)
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--counts", default="2,3,4,5,6,7,8,9",
                       help="comma-separated base-rank counts")
    sweep.add_argument("--types", default=",".join(promptmod.INTERPOLATION_KINDS),
                       help="comma-separated interpolation types")
    sweep.set_defaults(handler=cmd_sweep_interpolation)

    ablation = sub.add_parser("ablation", help="tune/init grid for coop and ordinalclip")
    ablation.add_argument("--config", default=None)
    ablation.add_argument("--out", required=True)
    ablation.set_defaults(handler=cmd_ablation)

    fewshot = sub.add_parser("fewshot", help="few-shot curves for all methods")
    fewshot.add_argument("--config", default=None)
    fewshot.add_argument("--out", required=True)
    fewshot.add_argument("--shots", default="1,2,4,8", help="comma-separated shot counts")
    fewshot.set_defaults(handler=cmd_fewshot)

    distshift = sub.add_parser("distshift", help="distribution-shift grid for all methods")
    distshift.add_argument("--config", default=None)
    distshift.add_argument("--out", required=True)
    distshift.add_argument("--grid", default="8:0.9",
                           help="comma-separated classes:fraction cells")
    distshift.set_defaults(handler=cmd_distshift)

    report = sub.add_parser("report", help="verify and summarize a run directory")
    report.add_argument("run_dir")
    report.set_defaults(handler=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except training.TrainingDivergedError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
