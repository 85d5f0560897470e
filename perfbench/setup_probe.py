"""One set-up, timed from outside by run.py in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py CONFIG METHOD SHOTS

Imports the package, resolves CONFIG, generates and splits the dataset,
takes a SHOTS-per-rank subsample when SHOTS > 0, and builds the first
METHOD model the way the CLI would, through public functions only.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ordinalproto import cli, data, prompt, training  # noqa: E402


def main(config_path: str, method: str, shots: int) -> None:
    cfg = cli.load_config(config_path)
    ds = data.generate_synthetic(
        cfg["num_ranks"], cfg["per_rank"], cfg["input_dim"], cfg["noise_sigma"], cfg["data_seed"]
    )
    spec = data.SplitSpec(cfg["train_fraction"], 1.0 - cfg["train_fraction"], cfg["data_seed"])
    train_ds, _ = data.train_test_split(ds, spec)
    if shots:
        train_ds = data.few_shot_subsample(train_ds, shots, cfg["seed"])
    prompt_cfg = None
    if method != training.BASELINE:
        prompt_cfg = prompt.PromptConfig(
            num_ranks=train_ds.num_ranks,
            **{key: cfg[key] for key in (
                "num_base_ranks", "num_context", "word_dim", "interpolation",
                "epsilon", "tune_rank", "tune_ctx", "init_ctx",
            )},
        )
    training.build_model(
        method,
        train_ds.num_ranks,
        prompt_cfg=prompt_cfg,
        input_dim=train_ds.input_dim,
        hidden_dim=cfg["hidden_dim"],
        latent_dim=cfg["latent_dim"],
        max_len=cfg["max_len"],
        vocab_size=max(cfg["vocab_size"], train_ds.num_ranks),
        encoder_seed=cfg["encoder_seed"],
        init_seed=cfg["seed"],
    )


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], int(sys.argv[3]))
