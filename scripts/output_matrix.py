"""Run a fixed matrix of CLI commands and keep everything they produce.

    python3 scripts/output_matrix.py OUT

Each command runs as its own `python -m ordinalproto.cli` process on the
package in this checkout's src/, with OUT as its working directory, so
every path a command sees or prints is relative and the same in any
checkout. OUT must be new or empty. Afterwards it holds:

    configs/<config>.cfg       the config files the commands read
    configs/ranks.csv          the dataset the CSV runs read
    configs/zeros.csv          and its copy with zero features
    runs/<run>/                every run directory the commands write
    logs/<nn>-<name>.stdout    each command's standard output,
    logs/<nn>-<name>.stderr    its standard error,
    logs/<nn>-<name>.code      and its exit code

To check that a change keeps every output, run the script on a copy of
the parent commit and on the change, then compare the two with
`diff -r PARENT_OUT CHANGE_OUT`.

The matrix: `train` and `report` of all four methods at the default
config, with both prompt tune gates off, and at C = 100 (per_rank 8,
batch_size 16, epochs 10); ordinalclip and coop with num_context = 0,
whose token table has no context rows; the baseline at
last_layer_lr_mult = 0.5 and with prediction_rule = expectation;
ordinalclip and the baseline on 12 training rows in batches of 11 and 1
(num_ranks 4, per_rank 4, batch_size 11, epochs 3), so every epoch ends
in a one-row batch; ordinalclip on configs/ranks.csv (data_source = csv),
whose rank labels 2, 5, 7 and 11 are remapped to 0..3; ordinalclip and
the baseline on configs/zeros.csv, ranks.csv with one feature of each row
set to exact zero, on half its rows in the one-row run's batches, so every
epoch ends in a one-row batch whose first image-layer product holds a
zero;
`sweep-interpolation --counts 2,3,5`, `ablation`, `fewshot`,
`distshift --grid 2:0.5,3:0.0` and the same grid typed with padding and
an empty cell at C = 8 (per_rank 12, epochs 8), each with `report`; a
baseline `train` at learning_rate = 1e300 (num_ranks 4, per_rank 4,
epochs 1), whose evaluation diverges; `fewshot` on configs/ranks.csv
with `report`, a grid manifest of CSV data; four config errors, each
of which exits 2 with one stderr line and writes no run directory:
`train` at epochs = 0, at num_base_ranks = 30 and at prediction_rule =
median, and `fewshot --shots 0`; and `report` of eight damaged copies
of the default ordinalclip run, runs/damaged-<damage>, which pin what
report prints, and how it exits, on each. Four leave the manifest as it
is: a flipped byte in loss_trace.csv, an added file, a deleted
metrics.csv and a [files] line without its digest. Four rebuild the
damaged file's manifest entry, so that its checksum passes: a
metrics.csv that is not UTF-8 text, one with CRLF line ends, a
truncated prototypes.bin, and a prototypes.bin of numerical rank
num_base_ranks + 1. The entries are rebuilt with the script's own
FNV-1a, not the package's, so that the script runs unchanged on any
checkout.
"""

from __future__ import annotations

import os
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
METHODS = ("ordinalclip", "coop", "baseline", "zeroshot")
C100 = {"num_ranks": 100, "per_rank": 8, "batch_size": 16, "epochs": 10}
C8 = {"num_ranks": 8, "per_rank": 12, "epochs": 8}
ONE_ROW = {"num_ranks": 4, "per_rank": 4, "batch_size": 11, "epochs": 3}
CSV_RANKS = (2, 5, 7, 11)
GRIDS = {
    "sweep": ["sweep-interpolation", "--counts", "2,3,5"],
    "ablation": ["ablation"],
    "fewshot": ["fewshot"],
    "distshift": ["distshift", "--grid", "2:0.5,3:0.0"],
    "distshift-tokens": ["distshift", "--grid", " 2:0.5 ,,3:0.0"],
}


def train_configs() -> dict[str, dict]:
    """The configs run through `train` and then `report`, by name."""
    out = {}
    for method in METHODS:
        out[method] = {"method": method}
        out[f"{method}-frozen"] = {"method": method, "tune_rank": "false", "tune_ctx": "false"}
        out[f"{method}-c100"] = {"method": method, **C100}
    for method in ("ordinalclip", "coop"):
        out[f"{method}-no-context"] = {"method": method, "num_context": 0}
    out["baseline-lr-mult"] = {"method": "baseline", "last_layer_lr_mult": 0.5}
    out["baseline-expectation"] = {"method": "baseline", "prediction_rule": "expectation"}
    for method in ("ordinalclip", "baseline"):
        out[f"{method}-one-row"] = {"method": method, **ONE_ROW}
    out["ordinalclip-csv"] = {"method": "ordinalclip", "data_source": "csv",
                              "csv_path": "configs/ranks.csv"}
    for method in ("ordinalclip", "baseline"):
        out[f"{method}-zeros-one-row"] = {
            "method": method, "data_source": "csv", "csv_path": "configs/zeros.csv",
            "train_fraction": 0.5, "batch_size": ONE_ROW["batch_size"],
            "epochs": ONE_ROW["epochs"]}
    return out


def ranks_csv() -> str:
    """A fixed 3-feature dataset, six rows per rank in CSV_RANKS, each
    feature the row's rank position plus a deterministic offset."""
    lines = ["rank,f0,f1,f2"]
    for position, rank in enumerate(CSV_RANKS):
        for i in range(6):
            row = [position + ((7 * i + 3 * k) % 11 - 5) / 10 + 0.05 for k in range(3)]
            lines.append(",".join([str(rank), *(f"{v:.2f}" for v in row)]))
    return "\n".join(lines) + "\n"


def zeros_csv() -> str:
    """ranks_csv with feature i % 3 of its i-th row set to exact zero, so
    every row holds a zero and none is all zero (an all-zero row exits 2)."""
    header, *rows = ranks_csv().splitlines()
    lines = [header]
    for i, row in enumerate(rows):
        cells = row.split(",")
        cells[1 + i % 3] = "0"
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


DIVERGING = {"method": "baseline", "learning_rate": "1e300", "num_ranks": 4, "per_rank": 4,
             "epochs": 1}
# Configs `train` must reject with exit 2, by name.
CONFIG_ERRORS = {"epochs-0": {"epochs": 0}, "base-ranks-30": {"num_base_ranks": 30},
                 "rule-median": {"prediction_rule": "median"}}


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a of a byte string, one byte at a time."""
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def rewrite(run: Path, name: str, change, rebuild: bool = False) -> None:
    """Replace a run file's bytes with change(bytes); with rebuild, then
    rewrite its manifest entry to match, so that its checksum passes."""
    path = run / name
    blob = change(path.read_bytes())
    path.write_bytes(blob)
    if rebuild:
        manifest = run / "manifest.txt"
        manifest.write_text(re.sub(rf"(?m)^{re.escape(name)} .*$",
                                   f"{name} {len(blob)} {fnv1a64(blob):016x}",
                                   manifest.read_text()))


def forged_prototypes(blob: bytes, rank: int) -> bytes:
    """A prototype file of the shape of `blob` whose unit rows have
    numerical rank `rank`, with a valid block checksum."""
    rows, cols = struct.unpack_from("<2Q", blob, 5)
    rng = np.random.default_rng(rank)
    forged = rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, cols))
    payload = (forged / np.linalg.norm(forged, axis=1, keepdims=True)).astype("<f8").tobytes()
    body = blob[:21] + payload
    return body + struct.pack("<Q", fnv1a64(body))


def base_ranks(run: Path) -> int:
    return int(re.search(r"(?m)^num_base_ranks = (\d+)$",
                         (run / "manifest.txt").read_text()).group(1))


# Damage done to a copy of runs/ordinalclip before `report` reads it, by
# name. The last four rebuild the damaged file's manifest entry.
DAMAGES = {
    "loss-trace-byte": lambda run: rewrite(run, "loss_trace.csv",
                                           lambda b: b[:20] + bytes([b[20] ^ 1]) + b[21:]),
    "added-file": lambda run: (run / "extra.csv").write_text("rank\n"),
    "deleted-metrics": lambda run: (run / "metrics.csv").unlink(),
    "files-line-without-digest": lambda run: rewrite(
        run, "manifest.txt", lambda b: re.sub(rb"(?m)^(metrics\.csv \d+) \w+$", rb"\1", b)),
    "metrics-not-utf8": lambda run: rewrite(run, "metrics.csv", lambda b: b + b"\xff\xfe",
                                            rebuild=True),
    "metrics-crlf": lambda run: rewrite(run, "metrics.csv",
                                        lambda b: b.replace(b"\n", b"\r\n"), rebuild=True),
    "prototypes-truncated": lambda run: rewrite(run, "prototypes.bin", lambda b: b[:-100],
                                                rebuild=True),
    "prototypes-rank-above-base": lambda run: rewrite(
        run, "prototypes.bin", lambda b: forged_prototypes(b, base_ranks(run) + 1),
        rebuild=True),
}


def commands() -> list[tuple[str, list[str]]]:
    """(name, CLI arguments) of every command, in the order they run."""
    out = []
    for name in train_configs():
        out.append((f"train-{name}", ["train", "--config", f"configs/{name}.cfg",
                                      "--out", f"runs/{name}"]))
        out.append((f"report-{name}", ["report", f"runs/{name}"]))
    for name, argv in GRIDS.items():
        out.append((name, argv + ["--config", "configs/c8.cfg", "--out", f"runs/{name}"]))
        out.append((f"report-{name}", ["report", f"runs/{name}"]))
    out.append(("train-baseline-1e300", ["train", "--config", "configs/baseline-1e300.cfg",
                                         "--out", "runs/baseline-1e300"]))
    out.append(("fewshot-csv", ["fewshot", "--config", "configs/ordinalclip-csv.cfg",
                                "--out", "runs/fewshot-csv"]))
    out.append(("report-fewshot-csv", ["report", "runs/fewshot-csv"]))
    for name in CONFIG_ERRORS:
        out.append((f"train-{name}", ["train", "--config", f"configs/{name}.cfg",
                                      "--out", f"runs/{name}"]))
    out.append(("fewshot-shots-0", ["fewshot", "--shots", "0", "--config", "configs/c8.cfg",
                                    "--out", "runs/fewshot-shots-0"]))
    for damage in DAMAGES:
        out.append((f"report-damaged-{damage}", ["report", f"runs/damaged-{damage}"]))
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: output_matrix.py OUT", file=sys.stderr)
        return 2
    out = Path(argv[0])
    if out.exists() and (not out.is_dir() or any(out.iterdir())):
        print(f"{out} must be new or an empty directory", file=sys.stderr)
        return 2
    for sub in ("configs", "runs", "logs"):
        (out / sub).mkdir(parents=True)
    all_configs = (train_configs() | {"c8": C8, "baseline-1e300": DIVERGING}
                   | CONFIG_ERRORS)
    for name, cfg in all_configs.items():
        text = "".join(f"{key} = {value}\n" for key, value in cfg.items())
        (out / "configs" / f"{name}.cfg").write_text(text)
    (out / "configs" / "ranks.csv").write_text(ranks_csv())
    (out / "configs" / "zeros.csv").write_text(zeros_csv())
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for index, (name, args) in enumerate(commands()):
        if name.startswith("report-damaged-"):  # a damaged copy of runs/ordinalclip
            shutil.copytree(out / "runs" / "ordinalclip", out / args[-1])
            DAMAGES[name.removeprefix("report-damaged-")](out / args[-1])
        proc = subprocess.run([sys.executable, "-m", "ordinalproto.cli", *args], cwd=out,
                              env=env, capture_output=True)
        log = f"logs/{index:02d}-{name}"
        (out / f"{log}.stdout").write_bytes(proc.stdout)
        (out / f"{log}.stderr").write_bytes(proc.stderr)
        (out / f"{log}.code").write_text(f"{proc.returncode}\n")
        print(f"{index:02d} {name}: exit {proc.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
