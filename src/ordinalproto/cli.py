"""Command-line experiment harness.

Subcommands cover the full desk-scale experiment matrix: single
train/eval runs, the interpolation-type sweep, the tuning/init ablation
grid, few-shot curves, distribution-shift grids, and run verification.
Each subcommand registers its handler with the parser, and `main` calls
it. The four grid commands (sweep, ablation, few-shot, distribution
shift) share one runner, `_run_grid`, over methods x cells x seeds.
Every command is a pure function of (config, seed): rerunning a command
into a fresh directory reproduces byte-identical outputs, and each run
directory carries a manifest sufficient to rerun or audit it: a format
line, every config key at its resolved value (for every method, whether
it reads the key or not), the command's own keys, and each file's size
and FNV-1a checksum. `report` rejects a run whose manifest does not
parse, whose listed files are missing or differ, or that holds a file
the manifest does not list, and prints no file's contents before it has
verified that file.

Config files are plain text `key = value` lines; `#` starts a comment.
A key that names a PromptConfig or TrainConfig field takes that field's
default and is copied into it by name. Every table a command writes goes
through metrics.write_csv.

Exit codes: 0 success, 1 verification failure or a diverged fit, 2 config
error, which includes an --out that is not new or an empty directory.
Commands return 0 or raise; `main` alone turns an error into its exit
code, and its except clauses map each error class to its code.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import data as datamod
from . import metrics as metricsmod
from . import prompt as promptmod
from . import training
from .encoders import BlockFileError, export_prototypes, fnv1a64, read_prototypes
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


def _flag_values(raw: str, flag: str, parse) -> tuple:
    """A grid axis: `parse` of each comma-separated token of a grid flag,
    in order, skipping empty tokens. A token `parse` rejects with
    ValueError, or no token at all, is a config error naming the flag."""
    try:
        values = tuple(parse(token) for token in raw.split(",") if token.strip())
    except ValueError as exc:
        raise ConfigError(f"bad {flag} value {raw!r}: {exc}") from exc
    if not values:
        raise ConfigError(f"{flag} is empty; give at least one value")
    return values


def _grid_cell(token: str) -> tuple[int, float]:
    """One classes:fraction cell of --grid."""
    try:
        classes, fraction = token.split(":")
        return int(classes), float(fraction)
    except ValueError:
        raise ValueError(f"cell {token.strip()!r} is not classes:fraction") from None


def _schema_of(cls) -> dict:
    """key -> (parser, default) for each field of a config dataclass but
    num_ranks, which comes from the dataset; the default's type picks the
    parser."""
    parsers = {bool: _parse_bool, tuple: _parse_int_list}
    return {
        f.name: (parsers.get(type(f.default), type(f.default)), f.default)
        for f in fields(cls) if f.name != "num_ranks"
    }


# key -> (parser, default). The manifest echoes every resolved key, so new
# knobs must be added here to stay reproducible. A PromptConfig or
# TrainConfig field is a key with that field's default.
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
    **_schema_of(promptmod.PromptConfig),
    # encoders
    "latent_dim": (int, 64),
    "hidden_dim": (int, 32),
    "max_len": (int, 16),
    "vocab_size": (int, 64),
    "encoder_seed": (int, 7),
    # training
    **_schema_of(TrainConfig),
    # evaluation
    "prediction_rule": (str, metricsmod.ARGMAX),
    "eval_seeds": (int, 3),
}

# The PromptConfig keys, copied into it by name.
_PROMPT_FIELDS = tuple(_schema_of(promptmod.PromptConfig))


def load_config(path: str | None) -> dict:
    """Resolve a config file against the schema defaults."""
    cfg = {key: default for key, (_, default) in CONFIG_SCHEMA.items()}
    if path is not None:
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        set_on = {}  # key -> the line that set it
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
            if key in set_on:
                raise ConfigError(f"{path}:{lineno}: {key} already set on line {set_on[key]}")
            set_on[key] = lineno
            parser = CONFIG_SCHEMA[key][0]
            try:
                cfg[key] = parser(raw)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: dict) -> None:
    """Reject a resolved config no command can run with. It runs at load
    time, before any data loads, and is where TrainConfig's values are
    checked; the dataset and model checks need the data, and run later."""
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
    for key in ("seed", "data_seed", "encoder_seed"):
        if cfg[key] < 0:
            raise ConfigError(f"{key} must be >= 0, got {cfg[key]}")
    try:
        _train_config(cfg, cfg["seed"]).validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


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


def _prepare(cfg: dict):
    """Load and split the data; returns (train_ds, test_ds). A sample whose
    features are all zero, subnormal entries counted as zero, is a config
    error for every method: a prompt method cannot normalize its
    embedding, and a grid command trains prompt methods on the same data.
    cfg's num_ranks and input_dim are set to the data's, for the manifest;
    a CSV run keeps per_rank and noise_sigma at values it did not read, as
    the baseline keeps num_context."""
    ds = _load_dataset(cfg)
    cfg["num_ranks"], cfg["input_dim"] = ds.num_ranks, ds.input_dim
    tiny = np.finfo(np.float64).tiny
    zero = np.flatnonzero((np.abs(ds.features) < tiny).all(axis=1))
    if zero.size:
        raise ConfigError(
            f"sample {zero[0]} has all-zero features (entries below {tiny:.4g} in "
            "magnitude count as zero); the image encoder maps it to an embedding "
            "with no direction"
        )
    fraction = cfg["train_fraction"]
    spec = datamod.SplitSpec(fraction, 1.0 - fraction, seed=cfg["data_seed"])
    # Every check train_test_split makes is a check on config values.
    try:
        return datamod.train_test_split(ds, spec)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _prompt_config(cfg: dict, num_ranks: int, **overrides) -> promptmod.PromptConfig:
    merged = {key: cfg[key] for key in _PROMPT_FIELDS} | overrides
    return promptmod.PromptConfig(num_ranks, **merged)


def _train_config(cfg: dict, seed: int) -> TrainConfig:
    """The TrainConfig keys, copied into it by name, with the cell's seed.
    load_config has validated them."""
    return TrainConfig(**{f.name: cfg[f.name] for f in fields(TrainConfig)} | {"seed": seed})


def _build_model(cfg: dict, method: str, num_ranks: int, input_dim: int, init_seed: int,
                 **prompt_overrides) -> training.ModelState:
    # Every model-shape check build_model makes is a check on config values.
    try:
        return training.build_model(
            method,
            num_ranks,
            prompt_cfg=_prompt_config(cfg, num_ranks, **prompt_overrides),
            input_dim=input_dim,
            hidden_dim=cfg["hidden_dim"],
            latent_dim=cfg["latent_dim"],
            max_len=cfg["max_len"],
            vocab_size=cfg["vocab_size"],
            encoder_seed=cfg["encoder_seed"],
            init_seed=init_seed,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _run_cell(cfg: dict, method: str, train_ds, test_ds, seed: int,
              **prompt_overrides):
    """Train one model and evaluate it; returns (report, prototypes, state,
    loss rows): evaluate's report and prototypes, the trained model, and
    fit's (epoch, mean_loss, lr) rows, none for zeroshot. train_ds is a
    non-empty train split or subsample of one."""
    state = _build_model(
        cfg, method, train_ds.num_ranks, train_ds.input_dim, seed, **prompt_overrides
    )
    rows = [] if method == ZEROSHOT else training.fit(state, train_ds, _train_config(cfg, seed))
    report, protos = training.evaluate(
        state, test_ds, rule=cfg["prediction_rule"], temperature=cfg["temperature"]
    )
    return report, protos, state, rows


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


def _run_files(out_dir: Path) -> dict[str, bytes]:
    """{name: bytes} of every regular file in a run directory but the
    manifest, in name order, each read once: what the manifest's [files]
    section lists. A directory or link is not a regular file and has no
    entry."""
    return {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())
            if path.name != "manifest.txt" and path.is_file() and not path.is_symlink()}


def _file_digests(blobs: dict[str, bytes]) -> dict[str, tuple[int, str]]:
    """{name: (size, hex FNV-1a digest)} of each file's bytes."""
    return {name: (len(blob), f"{fnv1a64(blob):016x}") for name, blob in blobs.items()}


def _write_manifest(out_dir: Path, cfg: dict, extra: dict | None = None) -> None:
    """The format line, every CONFIG_SCHEMA key at its resolved value, the
    command's extra keys, and a [files] entry per file."""
    keys = [(key, cfg[key]) for key in sorted(CONFIG_SCHEMA)] + sorted((extra or {}).items())
    lines = [MANIFEST_FORMAT, *(f"{key} = {_format_value(value)}" for key, value in keys),
             "[files]"]
    digests = _file_digests(_run_files(out_dir))
    lines += [f"{name} {size} {digest}" for name, (size, digest) in digests.items()]
    (out_dir / "manifest.txt").write_text("\n".join(lines) + "\n")


def _read_manifest(out_dir: Path) -> tuple[dict, list[tuple[str, int, str]]]:
    """(config, [(name, size, digest)]) of a run's manifest. Anything that
    does not parse, a file entry that is not a plain name in the run
    directory, and a key or file set twice raise VerificationError naming
    the line."""
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
    set_on = {}  # (in [files], key or file name) -> the line that set it
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line == "[files]":
            in_files = True
            continue
        if in_files:
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
            name, value = (part.strip() for part in line.split("=", 1))
            config[name] = value
        else:
            raise VerificationError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        first = set_on.setdefault((in_files, name), lineno)
        if first != lineno:
            raise VerificationError(f"{path}:{lineno}: {name} already set on line {first}")
    return config, files


# ---------------------------------------------------------------------------
# commands


def _write_tables(out_dir: str, cfg: dict, header: list[str], tables: dict,
                  extra: dict | None = None) -> int:
    """Create the output directory, write each named table and the
    manifest; print the first table."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, rows in tables.items():
        metricsmod.write_csv(out / name, header, rows)
    _write_manifest(out, cfg, extra)
    _print_table(header, next(iter(tables.values())))
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    method = cfg["method"]
    train_ds, test_ds = _prepare(cfg)
    report, protos, state, rows = _run_cell(cfg, method, train_ds, test_ds, cfg["seed"])

    # Created only now, once every config check has passed, so that a
    # config error leaves no directory behind.
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    training.save_state(state, out / "checkpoint.bin")
    metricsmod.write_csv(out / "loss_trace.csv", ("epoch", "mean_loss", "lr"), rows)
    metricsmod.write_csv(
        out / "metrics.csv", ("metric", "value"),
        [("mae", report.mae), ("accuracy", report.accuracy), ("ordinality", report.ordinality)]
        + [(f"count_{rank}", count) for rank, count in enumerate(report.per_rank_counts)],
    )
    export_prototypes(out / "prototypes.bin", protos)
    metricsmod.export_heatmap(
        metricsmod.prototype_similarity(protos, cfg["temperature"]),
        out / "prototype_similarity",
    )
    if state.interpolation is not None:
        metricsmod.export_heatmap(state.interpolation, out / "interpolation_matrix")
    _write_manifest(out, cfg)
    print(f"run complete: method={method} test_mae={report.mae:.4f} "
          f"accuracy={report.accuracy:.4f} ordinality={report.ordinality:.4f}")
    print(f"outputs in {out}")
    return 0


def cmd_sweep_interpolation(args: argparse.Namespace) -> int:
    """One ordinalclip fit per (interpolation type, base-rank count) at
    the config seed."""
    counts = _flag_values(args.counts, "--counts", int)
    kinds = _flag_values(args.types, "--types", str.strip)
    cfg = load_config(args.config)
    train_ds, test_ds = _prepare(cfg)
    maes, _ = _run_grid(cfg, train_ds, test_ds,
                        [(ORDINALCLIP, {"interpolation": kind}) for kind in kinds],
                        [(_whole, {"num_base_ranks": count}) for count in counts],
                        [cfg["seed"]])
    header = ["interpolation"] + [f"base_{c}" for c in counts]
    tables = {"interpolation_sweep.csv": _labelled([(kind,) for kind in kinds], maes)}
    return _write_tables(args.out, cfg, header, tables,
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
    train_ds, test_ds = _prepare(cfg)
    cells = [(method, cell) for method in (COOP, ORDINALCLIP) for cell in ABLATION_CELLS]
    keys = ("tune_rank", "tune_ctx", "init_ctx")
    maes, ords = _run_grid(cfg, train_ds, test_ds,
                           [(method, dict(zip(keys, cell))) for method, cell in cells],
                           [(_whole, {})], _eval_seeds(cfg))
    labels = [(method, *map(_format_value, cell)) for method, cell in cells]
    header = ["method", *keys, "mae", "ordinality"]
    return _write_tables(args.out, cfg, header, {"ablation.csv": _labelled(labels, maes, ords)})


TABLE_METHODS = (BASELINE, COOP, ORDINALCLIP)


def _method_tables(cfg: dict, out_dir: str, name: str, subsamples, headers: list[str],
                   extra: dict) -> int:
    """Every table method on every subsample column, into
    <name>_mae.csv and <name>_ordinality.csv."""
    train_ds, test_ds = _prepare(cfg)
    maes, ords = _run_grid(cfg, train_ds, test_ds, [(m, {}) for m in TABLE_METHODS],
                           [(s, {}) for s in subsamples], _eval_seeds(cfg))
    labels = [(method,) for method in TABLE_METHODS]
    tables = {f"{name}_mae.csv": _labelled(labels, maes),
              f"{name}_ordinality.csv": _labelled(labels, ords)}
    return _write_tables(out_dir, cfg, ["method"] + headers, tables, extra)


def cmd_fewshot(args: argparse.Namespace) -> int:
    shots = _flag_values(args.shots, "--shots", int)
    cfg = load_config(args.config)
    return _method_tables(
        cfg, args.out, "fewshot",
        [lambda ds, seed, s=s: datamod.few_shot_subsample(ds, s, seed) for s in shots],
        [f"shot_{s}" for s in shots],
        {"shots": shots},
    )


def cmd_distshift(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    cells = _flag_values(args.grid, "--grid", _grid_cell)
    return _method_tables(
        cfg, args.out, "distshift",
        [lambda ds, seed, c=c, f=f: datamod.distribution_shift_subsample(ds, c, f, seed)
         for c, f in cells],
        [f"{c}-{int(round(f * 100))}" for c, f in cells],
        {"grid": ",".join(f"{c}:{f!r}" for c, f in cells)},
    )


def cmd_report(args: argparse.Namespace) -> int:
    """Print a run's configuration, metrics and files, and verify it:
    every listed file must be a regular file that matches its size and
    checksum (a listed name that is a directory or link fails as not a
    regular file), every other entry but the manifest, a directory or link
    included, fails as unlisted, and then an ordinalclip run's prototypes
    must pass _check_compact. Each file is read once, and the metrics it
    prints and the prototypes it checks are the bytes that matched the
    manifest; metrics.csv is printed only once it matches and decodes as
    UTF-8 text. Returns 0, or raises VerificationError (one line per
    failure) or BlockFileError, which main turns into exit 1."""
    out = Path(args.run_dir)
    config, files = _read_manifest(out)
    blobs = _run_files(out)
    found = _file_digests(blobs)
    print("# configuration")
    for key in sorted(config):
        print(f"{key} = {config[key]}")
    if ("metrics.csv", *found.get("metrics.csv", ())) in files:
        try:
            text = blobs["metrics.csv"].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise VerificationError(f"{out / 'metrics.csv'}: not UTF-8 text") from exc
        print("# metrics")
        # The universal newlines of Path.read_text.
        print(text.replace("\r\n", "\n").replace("\r", "\n").strip())
    print("# files")
    failures = []
    entries = {path.name for path in out.iterdir()} - {"manifest.txt"}
    for name, size, digest in files:
        if name not in found:
            if name in entries:
                failures.append(f"not a regular file: {name}")
                print(f"{name}  NOT A REGULAR FILE")
            else:
                failures.append(f"missing file: {name}")
                print(f"{name}  MISSING")
            continue
        ok = found[name] == (size, digest)
        print(f"{name}  {found[name][0]} bytes  {'ok' if ok else 'CHECKSUM MISMATCH'}")
        if not ok:
            failures.append(f"checksum mismatch: {name}")
    for name in sorted(entries - {entry[0] for entry in files}):
        failures.append(f"unlisted file: {name}")
        print(f"{name}  NOT IN MANIFEST")
    if failures:
        raise VerificationError("\n".join(failures))
    if config.get("method") == ORDINALCLIP and "prototypes.bin" in found:
        _check_compact(out / "prototypes.bin", blobs["prototypes.bin"], config)
    return 0


def _check_compact(path: Path, blob: bytes, config: dict) -> None:
    """The prototypes of an ordinalclip run, read from `blob`, the bytes
    of its prototypes.bin at `path`, have numerical rank at most the
    manifest's num_base_ranks (metrics.numerical_rank). Raises
    VerificationError, in one line, when they do not, and BlockFileError
    when they do not load. The SVD runs only when metrics.rank_certified
    cannot vouch for the rank, which it does for every trained run."""
    try:
        bound = int(config["num_base_ranks"])
    except (KeyError, ValueError) as exc:
        raise VerificationError(f"{path}: no integer num_base_ranks in the manifest") from exc
    protos = read_prototypes(path, blob)
    if metricsmod.rank_certified(protos, bound):
        return
    rank = metricsmod.numerical_rank(protos)
    if rank > bound:
        raise VerificationError(
            f"{path}: numerical rank {rank} exceeds num_base_ranks {bound}"
        )


def _print_table(header: list[str], rows: list[list]) -> None:
    print(",".join(header))
    for row in rows:
        print(",".join(f"{v:.4f}" if isinstance(v, float) else str(v) for v in row))


# ---------------------------------------------------------------------------


def _experiment(sub, name: str, summary: str, handler) -> argparse.ArgumentParser:
    """A subcommand that reads a config file and writes a run directory."""
    parser = sub.add_parser(name, help=summary)
    parser.add_argument("--config", default=None, help="key = value config file")
    parser.add_argument("--out", required=True, help="output run directory")
    parser.set_defaults(handler=handler)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordinalproto",
        description="Ordinal regression with interpolated language prototypes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _experiment(sub, "train", "train one model and write a run directory", cmd_train)

    sweep = _experiment(sub, "sweep-interpolation", "base-rank count x type sweep",
                        cmd_sweep_interpolation)
    sweep.add_argument("--counts", default="2,3,4,5,6,7,8,9",
                       help="comma-separated base-rank counts")
    sweep.add_argument("--types", default=",".join(promptmod.INTERPOLATION_KINDS),
                       help="comma-separated interpolation types")

    _experiment(sub, "ablation", "tune/init grid for coop and ordinalclip", cmd_ablation)

    fewshot = _experiment(sub, "fewshot", "few-shot curves for all methods", cmd_fewshot)
    fewshot.add_argument("--shots", default="1,2,4,8", help="comma-separated shot counts")

    distshift = _experiment(sub, "distshift", "distribution-shift grid for all methods",
                            cmd_distshift)
    distshift.add_argument("--grid", default="8:0.9",
                           help="comma-separated classes:fraction cells")

    report = sub.add_parser("report", help="verify and summarize a run directory")
    report.add_argument("run_dir")
    report.set_defaults(handler=cmd_report)

    return parser


def _check_out(raw: str) -> None:
    """An --out path must be new or an empty directory, so no manifest
    lists a stale file: the nearest of it and its ancestors that exists (a
    dangling link does) is a directory, and is empty if it is --out."""
    out = Path(raw)
    existing = next(path for path in (out, *out.parents) if os.path.lexists(path))
    if not existing.is_dir():
        raise ConfigError(f"--out {raw}: {existing} is not a directory")
    if existing == out and any(out.iterdir()):
        raise ConfigError(f"--out {raw}: the directory is not empty")


def main(argv=None) -> int:
    """Run a command. Commands return 0 or raise; the except clauses are
    the one table that maps each error class to its exit code."""
    args = build_parser().parse_args(argv)
    try:
        if "out" in args:  # checked before any command loads data
            _check_out(args.out)
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except training.TrainingDivergedError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 1
    except (VerificationError, BlockFileError) as exc:
        print(exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
