"""The benchmark's workloads and the checks on their outputs.

Each workload is a list of `ordinalproto` CLI commands run in one process
against a generated config file. The workload seed feeds `data_seed` and
`seed`; the package sees nothing but that config. Shapes are fixed here;
`tiny` shrinks a workload for the benchmark's own tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_SEED = 0
LOSS_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    commands: tuple[tuple[str, ...], ...]
    # Method and few-shot count of the first model the commands build; the
    # set-up probe builds the same one.
    first_method: str
    first_shots: int = 0
    tiny: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        # Most-run command (C=20, B=64, 500 steps): tape, prompt/text and image layers evenly, plus run-dir hashing.
        Workload(
            name="train-default",
            config={},
            commands=(("train", "--config", "{config}", "--out", "{out}"), ("report", "{out}")),
            first_method="ordinalclip",
            tiny={"epochs": 2, "per_rank": 8},
        ),
        # C=100, B=16, 5 epochs: the C-proportional prompt subgraph and text encoder dominate; C^2 work in metrics.
        Workload(
            name="ranks-100",
            config={"num_ranks": 100, "per_rank": 8, "batch_size": 16, "epochs": 5},
            commands=(("train", "--config", "{config}", "--out", "{out}"), ("report", "{out}")),
            first_method="ordinalclip",
            tiny={"epochs": 1, "per_rank": 2},
        ),
        # 12 short fits, a third of them baseline cells that bypass prompt/text: per-fit overhead and grid running show.
        Workload(
            name="fewshot-grid",
            config={"eval_seeds": 2},
            commands=(("fewshot", "--config", "{config}", "--out", "{out}", "--shots", "2,8"),),
            first_method="baseline",
            first_shots=2,
            tiny={"epochs": 2, "eval_seeds": 1},
        ),
    )
}


def config_for(workload: Workload, seed: int, tiny: bool = False) -> dict:
    cfg = {"data_seed": seed, "seed": seed, **workload.config}
    if tiny:
        cfg.update(workload.tiny)
    return cfg


def write_config(cfg: dict, path: Path) -> None:
    path.write_text("".join(f"{key} = {value}\n" for key, value in sorted(cfg.items())))


def command_argv(command: tuple[str, ...], config: Path, out: Path) -> list[str]:
    return [arg.format(config=config, out=out) for arg in command]


def read_outputs(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}


# ---------------------------------------------------------------------------
# checks


def _csv_rows(blob: bytes) -> list[list[str]]:
    return [line.split(",") for line in blob.decode().splitlines()]


def reported_numbers(outputs: dict[str, bytes]) -> dict:
    """The figures a workload reports, as the reference stores them:
    metrics.csv's mae/accuracy/ordinality and the few-shot tables as the
    exact strings written, the loss trace as its CSV rows."""
    numbers = {}
    if "metrics.csv" in outputs:
        rows = _csv_rows(outputs["metrics.csv"])
        numbers["metrics"] = {
            key: value for key, value in rows[1:] if key in ("mae", "accuracy", "ordinality")
        }
    if "loss_trace.csv" in outputs:
        numbers["loss_trace"] = outputs["loss_trace.csv"].decode().splitlines()[1:]
    for name in ("fewshot_mae.csv", "fewshot_ordinality.csv"):
        if name in outputs:
            numbers[name] = outputs[name].decode()
    return numbers


def compare_to_reference(numbers: dict, reference: dict) -> list[str]:
    """Mismatches between a run's reported numbers and the committed ones."""
    problems = []
    for key in sorted(set(numbers) | set(reference)):
        got, want = numbers.get(key), reference.get(key)
        if key == "loss_trace" and got is not None and want is not None:
            got_rows = [[float(v) for v in row.split(",")] for row in got]
            want_rows = [[float(v) for v in row.split(",")] for row in want]
            close = len(got_rows) == len(want_rows) and all(
                len(g) == len(w) and all(math.isclose(a, b, rel_tol=LOSS_RTOL) for a, b in zip(g, w))
                for g, w in zip(got_rows, want_rows)
            )
            if not close:
                problems.append(f"loss_trace differs from the reference beyond rtol {LOSS_RTOL}")
        elif got != want:
            problems.append(f"{key}: got {got!r}, reference {want!r}")
    return problems


def check_run_dir(outputs: dict[str, bytes], out: Path) -> list[str]:
    """Cross-checks inside one train run directory, recomputed from the
    package's public functions: metrics in range, and the ordinality in
    metrics.csv equal to the one of the exported prototypes."""
    from ordinalproto import encoders, metrics

    if "metrics.csv" not in outputs:
        return []
    values = reported_numbers(outputs)["metrics"]
    problems = []
    mae, acc, ordinality = (float(values[k]) for k in ("mae", "accuracy", "ordinality"))
    if not (mae >= 0.0 and 0.0 <= acc <= 1.0 and 0.0 <= ordinality <= 1.0):
        problems.append(f"metrics out of range: {values}")
    protos = encoders.import_prototypes(out / "prototypes.bin")
    recomputed = f"{metrics.ordinality_score(protos):.12g}"
    if recomputed != values["ordinality"]:
        problems.append(
            f"ordinality {values['ordinality']} != {recomputed} recomputed from prototypes.bin"
        )
    return problems


def diff_outputs(got: dict[str, bytes], want: dict[str, bytes]) -> list[str]:
    """Files that differ byte for byte between two runs of one config."""
    names = sorted(set(got) | set(want))
    return [f"{name} differs between runs" for name in names if got.get(name) != want.get(name)]


def steps_of_fit(train_ds, cfg) -> int:
    """Steps `training.fit` takes: epochs x ceil(n / batch_size)."""
    return cfg.epochs * math.ceil(len(train_ds) / cfg.batch_size)
