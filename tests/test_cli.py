"""Command-line behaviour, run in-process through `cli.main`.

Exit codes: a config or a grid flag that parses but holds an invalid
value is a config error (exit 2), never a traceback, and a grid command
rejects it before any cell trains; so is an --out that is not new or an
empty directory, before any data loads. Run directories: a rerun is
byte-identical, `checkpoint.bin` holds the parameters behind the prototypes
in `prototypes.bin`, its image blocks and those prototypes alone reproduce
`metrics.csv`, and `report` verifies a run (exit 0) or names what does not
match (exit 1), printing no file's contents before verifying it. Grid
commands: with one evaluation seed, a grid cell that keeps every training
sample and the default prompt equals `train`.
"""

import builtins
import collections
import io
import os
import re
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import encode_images, prototypes_of
from ordinalproto import cli, data, encoders, metrics, prompt, training
from ordinalproto.diffcore import Tape, guarded
from ordinalproto.encoders import BlockFileError, ImageEncoder, import_prototypes, read_blocks

TINY = {
    "num_ranks": 5,
    "per_rank": 8,
    "epochs": 6,
    "batch_size": 8,
    "eval_seeds": 1,
}


def _write_config(path, **overrides):
    path.write_text("".join(f"{k} = {v}\n" for k, v in {**TINY, **overrides}.items()))
    return str(path)


def _csv(path):
    """(header line, rows as lists of cells) of a comma-separated table."""
    header, *rows = path.read_text().splitlines()
    return header, [row.split(",") for row in rows]


def _metrics(run_dir):
    return dict(row for row in _csv(run_dir / "metrics.csv")[1])


FLOAT_KEYS = [key for key, (parser, _) in cli.CONFIG_SCHEMA.items() if parser is float]


@pytest.mark.parametrize(
    "line, needle",
    [
        ("num_base_ranks = 30", "num_base_ranks"),
        ("epsilon = 0", "epsilon"),
        ("num_context = 16", "max_len"),
        ("batch_size = 0", "batch_size"),
        ("temperature = 0", "temperature"),
        ("temperature = nan", "temperature must be positive, got nan"),
        ("method = zeroshot\ntemperature = 0", "temperature must be positive"),
        ("num_ranks = 1", "2 ranks"),
        ("per_rank = 0", "per_rank"),
        ("train_fraction = 1.5", "train fraction"),
        ("noise_sigma = -1", "noise_sigma"),
        ("input_dim = 0", "input_dim"),
        ("hidden_dim = 0", "hidden_dim must be >= 1, got 0"),
        ("latent_dim = 0", "latent_dim must be >= 1, got 0"),
        *[(f"{key} = nan", "got nan") for key in FLOAT_KEYS],
        ("beta1 = 1", "beta1 must be in [0, 1), got 1.0"),
        ("beta2 = 1", "beta2 must be in [0, 1), got 1.0"),
        ("learning_rate = inf", "learning_rate must be finite and >= 0, got inf"),
        ("adam_eps = -1", "adam_eps must be finite and > 0, got -1.0"),
        ("adam_eps = 0", "adam_eps must be finite and > 0, got 0.0"),
        ("temperature = inf", "temperature must be finite, got inf"),
        ("temperature = 1e-310", "temperature must have a finite reciprocal, got 1e-310"),
        ("temperature = 5e-324", "temperature must have a finite reciprocal, got 5e-324"),
        ("method = baseline\ntemperature = 1e-310", "temperature must have a finite reciprocal"),
        ("method = zeroshot\ntemperature = 1e-310", "temperature must have a finite reciprocal"),
        ("interpolation = inverse-proportion\nepsilon = 1e-310",
         "epsilon must have a finite reciprocal, got 1e-310"),
        ("epsilon = 5e-324", "epsilon must have a finite reciprocal, got 5e-324"),
        ("noise_sigma = 0", "sample 0 has all-zero features"),
        ("method = baseline\nnoise_sigma = 0", "sample 0 has all-zero features"),
        ("method = zeroshot\nnoise_sigma = 5e-324", "sample 0 has all-zero features"),
        ("lr_decay_factor = -1", "lr_decay_factor must be finite and >= 0, got -1.0"),
        ("last_layer_lr_mult = -0.5", "last_layer_lr_mult must be finite and >= 0, got -0.5"),
        ("decay_epochs = -3,99", "decay_epochs entries must be >= 0, got -3"),
        ("seed = -1", "config error: seed must be >= 0, got -1"),
        ("data_seed = -1", "config error: data_seed must be >= 0, got -1"),
        ("encoder_seed = -1", "config error: encoder_seed must be >= 0, got -1"),
        ("epochs = 1\nepochs = 2", "run.cfg:2: epochs already set on line 1"),
        pytest.param(None, "cannot read config", id="missing-config-file"),
        pytest.param(
            "num_ranks = 3\nper_rank = 1\ntrain_fraction = 0.3\nnum_base_ranks = 2",
            "train fraction 0.3 of 3 samples leaves the train split empty",
            id="empty-train-split",
        ),
    ],
)
def test_invalid_value_exits_with_config_error(tmp_path, capsys, line, needle):
    config = tmp_path / "run.cfg"
    if line is not None:  # None: the config file does not exist
        config.write_text(line + "\n")
    code = cli.main(["train", "--config", str(config), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: ")
    assert needle in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["train", "fewshot"])
@pytest.mark.parametrize(
    "line, message",
    [
        ("epochs = 0", "epochs must be >= 1, got 0"),
        ("method = zeroshot\ntemperature = 0", "temperature must be positive, got 0.0"),
        ("num_ranks = 4\nper_rank = 4\nepochs = 2\ndecay_epochs = 0,0",
         "decay_epochs lists epoch 0 twice"),
    ],
    ids=["epochs-0", "zeroshot-temperature-0", "decay-epochs-0-0"],
)
def test_an_invalid_training_value_is_rejected_before_any_data_is_generated(
    tmp_path, capsys, monkeypatch, command, line, message
):
    """The training values are checked as the config loads, so a bad one
    is reported before the dataset is drawn, whatever the command."""
    def no_data(*args, **kwargs):
        raise AssertionError("data was generated before the bad value was rejected")

    monkeypatch.setattr(cli.datamod, "generate_synthetic", no_data)
    config = tmp_path / "run.cfg"
    config.write_text(line + "\n")
    code = cli.main([command, "--config", str(config), "--out", str(tmp_path / "run")])
    assert code == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["fewshot", "--shots", "2,0"], "shots must be >= 1, got 0"),
        (["fewshot", "--shots", "0"], "shots must be >= 1, got 0"),
        (["fewshot", "--shots", "x"], "bad --shots value 'x'"),
        (["sweep-interpolation", "--counts", "a"], "bad --counts value 'a'"),
        (["sweep-interpolation", "--counts", "2,30"], "num_base_ranks must be in [2, num_ranks=4]"),
        (["distshift", "--grid", "2:0.5,30:0.5"], "reduce_classes must be in [0, 4], got 30"),
        (["distshift", "--grid", "2:1.5"], "reduce_fraction must be in [0, 1), got 1.5"),
        (["fewshot", "--shots", ""], "--shots is empty"),
        (["sweep-interpolation", "--counts", ""], "--counts is empty"),
        (["sweep-interpolation", "--types", ""], "--types is empty"),
        (["distshift", "--grid", ""], "--grid is empty"),
        (["distshift", "--grid", "x"], "bad --grid value 'x': cell 'x' is not classes:fraction"),
        (["sweep-interpolation", "--types", "linear,bogus", "--counts", "2,3"],
         f"interpolation must be one of {prompt.INTERPOLATION_KINDS}, got 'bogus'"),
    ],
    ids=["shots-0", "shots-only-0", "shots-x", "counts-a", "counts-30", "grid-30-classes",
         "grid-fraction-1.5", "shots-empty", "counts-empty", "types-empty", "grid-empty",
         "grid-x", "types-bogus"],
)
def test_invalid_grid_flag_exits_with_config_error_before_any_cell_trains(
    tmp_path, capsys, monkeypatch, argv, needle
):
    def no_training(*args, **kwargs):
        raise AssertionError("a grid cell trained before the bad value was rejected")

    monkeypatch.setattr(cli.training, "fit", no_training)
    config = _write_config(tmp_path / "run.cfg", num_ranks=4, per_rank=4, epochs=1)
    code = cli.main(argv + ["--config", config, "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: ")
    assert needle in err
    assert not (tmp_path / "run").exists()


def test_empty_tokens_of_a_grid_flag_are_skipped():
    assert cli._flag_values("1,,2", "--shots", int) == (1, 2)
    assert cli._flag_values(" 8:0.9, ,2:0.5,", "--grid", cli._grid_cell) == ((8, 0.9), (2, 0.5))


def test_a_grid_flag_is_recorded_in_the_manifest_as_parsed(tmp_path):
    """distshift records its parsed cells, as fewshot records its parsed
    shots, not the flag as typed."""
    config = _write_config(tmp_path / "run.cfg", epochs=1)
    runs = {"distshift": ["distshift", "--grid", " 2:0.5 ,,3:0.0"],
            "fewshot": ["fewshot", "--shots", " 2, ,3"]}
    for name, argv in runs.items():
        assert cli.main(argv + ["--config", config, "--out", str(tmp_path / name)]) == 0
    assert cli._read_manifest(tmp_path / "distshift")[0]["grid"] == "2:0.5,3:0.0"
    assert cli._read_manifest(tmp_path / "fewshot")[0]["shots"] == "2,3"


@pytest.mark.parametrize("command", ["train", "fewshot"])
def test_a_config_error_keeps_an_existing_out_directory_as_it_is(tmp_path, capsys, command):
    out = tmp_path / "run"
    out.mkdir()
    config = _write_config(tmp_path / "run.cfg", num_ranks=3, per_rank=1, train_fraction=0.3,
                           num_base_ranks=2)
    assert cli.main([command, "--config", config, "--out", str(out)]) == 2
    assert "leaves the train split empty" in capsys.readouterr().err
    assert _files(out) == {}


@pytest.mark.parametrize(
    "argv, out",
    [
        (["train"], "file"),
        (["train"], "file/run"),
        (["fewshot", "--shots", "2"], "file/run"),
    ],
    ids=["train-file", "train-under-a-file", "fewshot-under-a-file"],
)
def test_an_out_that_cannot_be_a_directory_exits_with_config_error_before_any_data_loads(
    tmp_path, capsys, monkeypatch, argv, out
):
    def no_data(*args, **kwargs):
        raise AssertionError("data loaded before --out was rejected")

    monkeypatch.setattr(cli, "_prepare", no_data)
    (tmp_path / "file").write_text("kept\n")
    config = _write_config(tmp_path / "run.cfg")
    before = _files(tmp_path)
    code = cli.main(argv + ["--config", config, "--out", str(tmp_path / out)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"config error: --out {tmp_path / out}: {tmp_path / 'file'} is not a directory\n"
    )
    assert _files(tmp_path) == before


def _tree(root):
    """Every path under root by relative name: a file's bytes, a link's
    target, or None for a directory."""
    tree = {}
    for path in sorted(root.rglob("*")):
        if path.is_symlink():
            tree[str(path.relative_to(root))] = os.readlink(path)
        else:
            tree[str(path.relative_to(root))] = None if path.is_dir() else path.read_bytes()
    return tree


@pytest.mark.parametrize(
    "argv, out, existing",
    [
        (["train"], "run", None),
        (["fewshot", "--shots", "2"], "run", None),
        (["train"], "link", "link"),
        (["train"], "link/run", "link"),
    ],
    ids=["train-then-train", "train-then-fewshot", "dangling-link", "under-a-dangling-link"],
)
def test_an_out_that_is_not_new_or_empty_exits_with_config_error_before_any_data_loads(
    tmp_path, capsys, monkeypatch, argv, out, existing
):
    """A second command into a run directory would write next to the first
    run's files, and its manifest would certify them; a dangling link, or
    a path under one, cannot be made a directory. Each is one config
    error line, and nothing under the test directory changes."""
    config = _write_config(tmp_path / "run.cfg")
    assert cli.main(["train", "--config", config, "--out", str(tmp_path / "run")]) == 0
    os.symlink(tmp_path / "missing", tmp_path / "link")
    capsys.readouterr()

    def no_data(*args, **kwargs):
        raise AssertionError("data loaded before --out was rejected")

    monkeypatch.setattr(cli, "_prepare", no_data)
    config = _write_config(tmp_path / "baseline.cfg", method="baseline")
    before = _tree(tmp_path)
    code = cli.main(argv + ["--config", config, "--out", str(tmp_path / out)])
    assert code == 2
    reason = ("the directory is not empty" if existing is None
              else f"{tmp_path / existing} is not a directory")
    assert capsys.readouterr().err == f"config error: --out {tmp_path / out}: {reason}\n"
    assert _tree(tmp_path) == before


@pytest.mark.parametrize(
    "content, needle",
    [
        (None, "No such file"),
        ("rank,f0\n1,abc\n", "non-numeric cell 'abc'"),
    ],
    ids=["missing", "malformed"],
)
def test_unreadable_csv_exits_with_config_error(tmp_path, capsys, content, needle):
    csv_path = tmp_path / "data.csv"
    if content is not None:
        csv_path.write_text(content)
    config = tmp_path / "run.cfg"
    config.write_text(f"data_source = csv\ncsv_path = {csv_path}\n")
    code = cli.main(["train", "--config", str(config), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"config error: csv_path '{csv_path}': ")
    assert needle in err


@pytest.mark.parametrize("method", ["baseline", "ordinalclip"])
def test_a_csv_of_one_rank_exits_with_config_error(tmp_path, capsys, method):
    """A CSV whose samples all carry one label holds one rank; no method
    trains on it, and none makes up a second, empty rank."""
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("rank,f0,f1\n" + "".join(f"5,{i + 1},0.5\n" for i in range(5)))
    config = tmp_path / "run.cfg"
    config.write_text(f"data_source = csv\ncsv_path = {csv_path}\nmethod = {method}\n")
    code = cli.main(["train", "--config", str(config), "--out", str(tmp_path / "run")])
    assert code == 2
    assert capsys.readouterr().err == (
        f"config error: csv_path '{csv_path}': need at least 2 ranks, got 1\n"
    )
    assert not (tmp_path / "run").exists()


def test_a_csv_sample_with_all_zero_features_exits_with_config_error(tmp_path, capsys):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("rank,f0,f1\n0,0.5,1\n1,0,0\n2,1,0.5\n0,0.25,1\n")
    config = tmp_path / "run.cfg"
    config.write_text(f"data_source = csv\ncsv_path = {csv_path}\n")
    code = cli.main(["train", "--config", str(config), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: sample 1 has all-zero features")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["train", "fewshot"])
def test_a_csv_sample_with_only_subnormal_features_exits_with_config_error(
        tmp_path, capsys, command):
    """The row 1,5e-324,0,0 passes a test for exact zeros, but its first-layer
    product is zero, so the default config's first Adam step diverges. It
    is rejected before training, as an all-zero row is; the row
    1,1e-300,0,0 trains."""
    rows = np.random.default_rng(0).normal(size=(16, 3)).tolist()
    ordinary = "".join(f"{i % 4},{','.join(map(repr, row))}\n" for i, row in enumerate(rows))
    for tail, code in [("1,5e-324,0,0", 2), ("1,1e-300,0,0", 0)]:
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("rank,f0,f1,f2\n" + ordinary + tail + "\n")
        config = tmp_path / "run.cfg"
        config.write_text(f"data_source = csv\ncsv_path = {csv_path}\n")
        out = tmp_path / f"run-{code}"
        assert cli.main([command, "--config", str(config), "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("config error: sample 16 has all-zero features (entries "
                                  "below 2.225e-308 in magnitude count as zero)")
            assert not out.exists()
        else:
            assert err == ""


@pytest.mark.parametrize(
    "overrides",
    [{"method": "baseline", "learning_rate": 1000}, {"temperature": 0.0001}],
    ids=["baseline-lr-1000", "temperature-1e-4"],
)
def test_a_softmax_that_underflows_on_a_label_still_trains(tmp_path, capsys, overrides):
    """Both configs drive the softmax of some label to exactly 0. The loss
    is taken from log-probabilities, which stay finite, so the run
    completes with a finite loss in every epoch."""
    config = _write_config(tmp_path / "run.cfg", num_ranks=6, per_rank=8, epochs=3, **overrides)
    assert cli.main(["train", "--config", config, "--out", str(tmp_path / "run")]) == 0
    header, rows = _csv(tmp_path / "run" / "loss_trace.csv")
    assert header == "epoch,mean_loss,lr"
    assert [row[0] for row in rows] == ["0", "1", "2"]
    assert all(np.isfinite(float(row[1])) for row in rows)
    assert capsys.readouterr().err == ""


def test_a_diverged_fit_exits_1_with_one_line_and_finite_norms(tmp_path, capsys):
    """At learning_rate = 1e300 one Adam step sends the baseline's
    parameters to ~1e300, still finite, and the next forward pass
    overflows. The error names the op and a finite norm for every group."""
    config = _write_config(tmp_path / "run.cfg", method="baseline", learning_rate="1e300",
                           num_ranks=6, per_rank=8, epochs=3)
    code = cli.main(["train", "--config", config, "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("training diverged: non-finite values in forward pass "
                          "(non-finite values produced by op 'matmul')")
    assert err.count("\n") == 1 and "Traceback" not in err
    norms = _norms(err)
    assert set(norms) == {"head.weights", "head.bias", "image.w1", "image.b1", "image.w2",
                          "image.b2"}
    assert all(np.isfinite(v) and v > 1e299 for v, _ in norms.values())
    assert all(np.isfinite(peak) and 0 < peak <= v for v, peak in norms.values())


def _norms(err):
    """The (norm, max|x|) a `training diverged` line lists, by group."""
    groups = re.findall(r"([\w.]+) (\S+) \(max\|x\| ([^)]+)\)",
                        err.split("parameter norms: ", 1)[1])
    return {name: (float(norm), float(peak)) for name, norm, peak in groups}


@pytest.mark.parametrize(
    "method, learning_rate, cause, finite",
    [
        ("ordinalclip", "1e308", "after Adam step 1 in context, base_ranks;", False),
        ("baseline", "1e308", "in forward pass (", False),
        # The id the row had when it asserted only "in forward pass (".
        pytest.param("baseline", "1e300",
                     "in forward pass (non-finite values produced by op 'matmul')", True,
                     id="baseline-1e300-in forward pass (-True"),
    ],
)
def test_a_fit_that_diverges_on_its_last_step_exits_1_with_one_line(
    tmp_path, capsys, method, learning_rate, cause, finite
):
    """Twelve training samples in a batch of 64 make one step, so the
    first forward pass after the Adam step is the evaluation. At 1e308
    that step overflows ordinalclip's prompt groups, and the step itself
    names them; the baseline's groups reach ~1e308, still finite, but a
    norm reads inf and its evaluation overflows. At 1e300 every parameter
    and norm stays finite, while the matmul of the baseline's scores
    overflows."""
    config = _write_config(tmp_path / "run.cfg", method=method, learning_rate=learning_rate,
                           num_ranks=4, per_rank=4, epochs=1, batch_size=64)
    code = cli.main(["train", "--config", config, "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("training diverged: non-finite values " + cause)
    assert err.count("\n") == 1 and "Traceback" not in err
    norms = _norms(err)
    assert "image.w1" in norms and all(v > 1e299 for v, _ in norms.values())
    assert all(np.isfinite(v) for v, _ in norms.values()) == finite
    if method == "baseline":
        # Every group is finite, so is every max|x|, even where a norm reads inf.
        assert all(np.isfinite(peak) and peak > 1e299 for _, peak in norms.values())
    assert not (tmp_path / "run" / "manifest.txt").exists()


@pytest.mark.parametrize("learning_rate", ["1e300", "1e160"])
def test_a_fit_that_diverges_on_a_rerun_step_reports_as_a_recorded_one(
    tmp_path, capsys, monkeypatch, learning_rate
):
    """The baseline's first step sends its parameters to ~1e300 or ~1e160,
    and its second overflows in the closed-form tail's guarded pass. The
    line, exit code and op are those of the same fit recorded every step:
    a fresh prompt tape each step, and the tail checked after every op."""
    config = _write_config(tmp_path / "run.cfg", method="baseline", learning_rate=learning_rate,
                           num_ranks=6, per_rank=8, epochs=3)
    train_step = training.train_step
    steps = []

    def spied(state, batch_x, batch_y, *args):
        steps.append(len(batch_y))
        return train_step(state, batch_x, batch_y, *args)

    def recording(state, batch_x, batch_y, cfg, adam, lr, tape, *rest):
        return spied(state, batch_x, batch_y, cfg, adam, lr, Tape(), *rest)

    def checked(forward, operands_finite):
        return guarded(forward, operands_finite=False)

    errs = []
    for step in (spied, recording):
        steps.clear()
        monkeypatch.setattr(training, "train_step", step)
        if step is recording:
            monkeypatch.setattr(training, "guarded", checked)
        out = str(tmp_path / step.__name__)
        assert cli.main(["train", "--config", config, "--out", out]) == 1
        assert steps == [8, 8]
        errs.append(capsys.readouterr().err)
    rerun_err, recorded_err = errs
    assert rerun_err == recorded_err
    assert rerun_err.startswith("training diverged: non-finite values in forward pass "
                                "(non-finite values produced by op 'matmul')")
    assert rerun_err.count("\n") == 1 and "Traceback" not in rerun_err


def test_a_baseline_at_a_tiny_temperature_trains_with_no_warning(tmp_path, capsys):
    """temperature = 1e-308 passes validation. The baseline trains at
    temperature 1, and its prototype similarity table softmaxes its head
    rows' cosines at 1e-308: the shift of a negative row entry by the row
    max overflows to -inf, probability exactly 0. The run exits 0 and
    writes nothing to stderr."""
    config = _write_config(tmp_path / "run.cfg", method="baseline", temperature="1e-308")
    assert cli.main(["train", "--config", config, "--out", str(tmp_path / "run")]) == 0
    assert capsys.readouterr().err == ""


# 0, the smallest subnormal, a subnormal whose reciprocal overflows, and
# a value near the float64 maximum.
EXTREME_FLOATS = ("0.0", "5e-324", "1e-310", "1.7e308")


def test_every_float_key_at_an_extreme_value_ends_in_a_documented_way(tmp_path, capsys):
    """train, for every method, with each float key in turn at each of
    EXTREME_FLOATS; an epsilon run uses the inverse-proportion kernel,
    which reads it. Each run exits 0, exits 1 with one `training
    diverged: ` line, or exits 2 with one `config error: ` line. No
    exception and no warning escapes cli.main, and --out is either absent
    or holds a manifest."""
    failures = []
    for method in training.METHODS:
        for key in FLOAT_KEYS:
            for value in EXTREME_FLOATS:
                case = f"{method}-{key}-{value}"
                lines = {"num_ranks": 5, "per_rank": 6, "epochs": 2, "batch_size": 8,
                         "method": method, key: value}
                if key == "epsilon":
                    lines["interpolation"] = "inverse-proportion"
                config = tmp_path / f"{case}.cfg"
                config.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
                out = tmp_path / case
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    try:
                        code = cli.main(["train", "--config", str(config), "--out", str(out)])
                    except Exception as exc:
                        capsys.readouterr()
                        failures.append(f"{case}: {type(exc).__name__}: {exc}")
                        continue
                err = capsys.readouterr().err
                prefix = {1: "training diverged: ", 2: "config error: "}.get(code)
                if code != 0 and not (
                    prefix and err.startswith(prefix) and err.count("\n") == 1
                ):
                    failures.append(f"{case}: exit {code}, stderr {err!r}")
                if out.exists() and not (out / "manifest.txt").is_file():
                    failures.append(f"{case}: {out.name} holds no manifest")
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("method", ["ordinalclip", "baseline", "zeroshot"])
def test_train_builds_the_prototypes_once(tmp_path, monkeypatch, method):
    """prototypes.bin holds the prototypes the evaluation scored against:
    outside fit, the scores graph is built once, and the prompt graph only
    inside it, not a second time to export them."""
    calls = {"_graph": [], "_prompt_nodes": []}
    fitting = []
    fit = training.fit

    def fit_spy(*args):
        fitting.append(True)
        try:
            return fit(*args)
        finally:
            fitting.pop()

    def counted(name):
        original = getattr(training, name)

        def spy(state, *args):
            if not fitting:
                calls[name].append(state.method)
            return original(state, *args)

        return spy

    monkeypatch.setattr(training, "fit", fit_spy)
    for name in calls:
        monkeypatch.setattr(training, name, counted(name))
    config = _write_config(tmp_path / "run.cfg", method=method, epochs=2)
    assert cli.main(["train", "--config", config, "--out", str(tmp_path / "run")]) == 0
    assert calls["_graph"] == [method]
    assert calls["_prompt_nodes"] == ([] if method == "baseline" else [method])


TRAIN_RUNS = {
    "baseline": {"method": "baseline"},
    "baseline-expectation": {"method": "baseline", "prediction_rule": "expectation"},
    "baseline-lr-mult": {"method": "baseline", "last_layer_lr_mult": 0.5},
    "coop": {"method": "coop"},
    "coop-init": {"method": "coop", "init_ctx": "true"},
    "expectation": {"tune_rank": "false", "prediction_rule": "expectation"},
    "image-only": {"tune_rank": "false", "tune_ctx": "false"},
    "inverse-2": {"interpolation": "inverse-proportion", "num_base_ranks": 2},
    "inverse-3": {"interpolation": "inverse-proportion"},
    "ordinalclip": {"method": "ordinalclip"},
    "zeroshot": {"method": "zeroshot"},
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Tiny train runs (TRAIN_RUNS) of every method and of non-default
    prompts and prediction rule, a second ordinalclip run into a fresh
    directory, and one run of every grid command."""
    root = tmp_path_factory.mktemp("cli")
    out = {}
    for name, overrides in TRAIN_RUNS.items():
        config = _write_config(root / f"{name}.cfg", **overrides)
        out[name] = root / name
        assert cli.main(["train", "--config", config, "--out", str(out[name])]) == 0
    config = str(root / "ordinalclip.cfg")
    commands = {
        "rerun": ["train"],
        "sweep": ["sweep-interpolation", "--counts", "2,3", "--types",
                  "linear,inverse-proportion"],
        "ablation": ["ablation"],
        "fewshot": ["fewshot", "--shots", str(TINY["per_rank"])],
        "distshift": ["distshift", "--grid", "0:0.5"],
    }
    for name, argv in commands.items():
        out[name] = root / name
        assert cli.main(argv + ["--config", config, "--out", str(out[name])]) == 0
    return out


def _files(run_dir):
    return {p.name: p.read_bytes() for p in sorted(run_dir.iterdir())}


def test_train_rerun_is_byte_identical(runs):
    assert _files(runs["rerun"]) == _files(runs["ordinalclip"])


@pytest.mark.parametrize("name", [*TRAIN_RUNS, "rerun", "sweep", "ablation", "fewshot",
                                  "distshift"])
def test_report_accepts_an_untouched_run(runs, capsys, name):
    assert cli.main(["report", str(runs[name])]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("name", [*TRAIN_RUNS, "sweep", "ablation", "fewshot", "distshift"])
def test_every_manifest_lists_every_config_key_at_its_resolved_value(runs, name):
    """Whatever the method, and whether it reads a key or not; a grid
    command adds only its own flags. No method adds a mode note."""
    config, _ = cli._read_manifest(runs[name])
    source = name if name in TRAIN_RUNS else "ordinalclip"  # the grid commands' config
    resolved = cli.load_config(str(runs[name].parent / f"{source}.cfg"))
    assert {key: config[key] for key in cli.CONFIG_SCHEMA} == {
        key: cli._format_value(value) for key, value in resolved.items()
    }
    extra = config.keys() - cli.CONFIG_SCHEMA.keys()
    assert extra == {"sweep": {"sweep_counts", "sweep_types"}, "fewshot": {"shots"},
                     "distshift": {"grid"}}.get(name, set())


@pytest.mark.parametrize("command", [["train"], ["fewshot", "--shots", "2"]],
                         ids=["train", "fewshot"])
def test_a_csv_run_records_the_shape_of_its_data(tmp_path, capsys, command):
    """A CSV run's manifest gives the num_ranks and input_dim of the data
    it trained on, not the config's: 4 ranks (labels 2, 5, 7 and 11,
    remapped to 0..3) of 3 features, against TINY's 5 and the default 16.
    Every other key keeps its resolved value, per_rank and noise_sigma
    too, which a CSV run does not read, and report accepts the run."""
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("rank,f0,f1,f2\n" + "".join(
        f"{rank},{position + 1 + 0.1 * i:.2f},{0.5 + 0.05 * i:.2f},{1 - 0.1 * position:.2f}\n"
        for position, rank in enumerate((2, 5, 7, 11)) for i in range(6)
    ))
    config = _write_config(tmp_path / "run.cfg", data_source="csv", csv_path=csv_path)
    out = tmp_path / "run"
    assert cli.main(command + ["--config", config, "--out", str(out)]) == 0
    manifest, _ = cli._read_manifest(out)
    resolved = cli.load_config(config) | {"num_ranks": 4, "input_dim": 3}
    assert {key: manifest[key] for key in cli.CONFIG_SCHEMA} == {
        key: cli._format_value(value) for key, value in resolved.items()
    }
    assert cli.main(["report", str(out)]) == 0
    assert capsys.readouterr().err == ""


def _checkpoint(run_dir, state) -> dict:
    """The blocks of a run's checkpoint.bin by name, read with the magic and
    block names of state's model family."""
    magic, names = training._checkpoint_blocks(state)
    path = run_dir / "checkpoint.bin"
    return dict(zip(names, read_blocks(path, path.read_bytes(), magic, len(names))))


@pytest.mark.parametrize("name", ["ordinalclip", "coop", "baseline"])
def test_checkpoint_restores_the_exported_prototypes(runs, name):
    """The blocks of checkpoint.bin, copied into a model rebuilt from the
    run's config, give bitwise the prototypes in prototypes.bin."""
    cfg = cli.load_config(str(runs[name].parent / f"{name}.cfg"))
    state = cli._build_model(cfg, cfg["method"], cfg["num_ranks"], cfg["input_dim"], cfg["seed"])
    exported = import_prototypes(runs[name] / "prototypes.bin")
    assert not np.array_equal(prototypes_of(state), exported)
    blocks = _checkpoint(runs[name], state)
    for group, array in state.params.items():
        array[...] = blocks[group]
    np.testing.assert_array_equal(prototypes_of(state), exported)


@pytest.mark.parametrize("name", TRAIN_RUNS)
def test_metrics_follow_from_the_image_blocks_and_prototypes_alone(runs, tmp_path,
                                                                   monkeypatch, name):
    """The paper's deployment claim: once learned, the language prototypes
    are kept and the language model discarded. The rebuilt test split, the
    image blocks of checkpoint.bin and the matrix in prototypes.bin (for
    the baseline, its head blocks) reproduce metrics.csv byte for byte, and
    no model, text encoder or prompt is built on the way."""
    for owner, attr in [(training, "build_model"), (encoders.PseudoTextEncoder, "create"),
                        (encoders.PseudoTextEncoder, "encode"), (prompt, "init_parameters"),
                        (prompt, "assemble_sequences"), (prompt, "interpolate_rank_embeddings")]:
        monkeypatch.setattr(owner, attr, lambda *a, _n=attr, **k: pytest.fail(f"{_n} called"))
    run = runs[name]
    cfg = cli.load_config(str(run.parent / f"{name}.cfg"))
    _, test_ds = cli._prepare(cfg)
    # A probe whose params hold only its family's group names, with no
    # arrays, gives the checkpoint's block names.
    family = (("head.weights", "head.bias") if cfg["method"] == "baseline"
              else ("context", "base_ranks"))
    probe = training.ModelState(cfg["method"], dict.fromkeys(family + ImageEncoder.NAMES))
    blocks = _checkpoint(run, probe)
    features, embeddings = encode_images(
        {name: blocks[name] for name in ImageEncoder.NAMES}, test_ds.features
    )
    protos = import_prototypes(run / "prototypes.bin")
    if cfg["method"] == "baseline":
        scores = features @ blocks["head.weights"].T + blocks["head.bias"]
        temperature = 1.0  # the one its cross-entropy trains at
    else:
        scores = embeddings @ protos.T
        temperature = cfg["temperature"]
    predicted = metrics.predict(scores, cfg["prediction_rule"], temperature)
    report = metrics.metric_report(predicted, test_ds.labels, protos, test_ds.num_ranks)
    metrics.write_csv(
        tmp_path / "metrics.csv", ("metric", "value"),
        [("mae", report.mae), ("accuracy", report.accuracy), ("ordinality", report.ordinality)]
        + [(f"count_{rank}", count) for rank, count in enumerate(report.per_rank_counts)],
    )
    assert (tmp_path / "metrics.csv").read_bytes() == (run / "metrics.csv").read_bytes()


def _tamper(run_dir):
    data = bytearray((run_dir / "metrics.csv").read_bytes())
    data[-2] ^= 1
    (run_dir / "metrics.csv").write_bytes(bytes(data))


def _unlist_and_change(run_dir):
    """Delete the manifest entry of prototypes.bin and append to the file,
    which the rank check would otherwise read unverified."""
    manifest = run_dir / "manifest.txt"
    manifest.write_text(re.sub(r"(?m)^prototypes\.bin .*\n", "", manifest.read_text()))
    with open(run_dir / "prototypes.bin", "ab") as f:
        f.write(b"\0" * 8)


def _add_directory(run_dir):
    (run_dir / "extra_dir").mkdir()
    (run_dir / "extra_dir" / "extra.csv").write_text("rank\n")


def _checkpoint_to_link(run_dir):
    """checkpoint.bin, unchanged, moved out and linked back in."""
    target = run_dir.parent / "checkpoint.bin"
    (run_dir / "checkpoint.bin").rename(target)
    os.symlink(target, run_dir / "checkpoint.bin")


@pytest.mark.parametrize(
    "damage, needle, shown",
    [
        (_tamper, "checksum mismatch: metrics.csv", "CHECKSUM MISMATCH"),
        (lambda d: (d / "checkpoint.bin").unlink(), "missing file: checkpoint.bin",
         "\ncheckpoint.bin  MISSING\n"),
        (lambda d: (d / "manifest.txt").unlink(), "missing manifest: ", ""),
        (_unlist_and_change, "unlisted file: prototypes.bin",
         "\nprototypes.bin  NOT IN MANIFEST\n"),
        (lambda d: (d / "extra.csv").write_text("rank\n"), "unlisted file: extra.csv",
         "\nextra.csv  NOT IN MANIFEST\n"),
        (_add_directory, "unlisted file: extra_dir", "\nextra_dir  NOT IN MANIFEST\n"),
        (lambda d: os.symlink(d / "missing", d / "link"), "unlisted file: link",
         "\nlink  NOT IN MANIFEST\n"),
        (_checkpoint_to_link, "not a regular file: checkpoint.bin",
         "\ncheckpoint.bin  NOT A REGULAR FILE\n"),
    ],
    ids=["changed-byte", "deleted-file", "missing-manifest", "entry-deleted-and-file-changed",
         "file-added", "directory-added", "dangling-link-added", "listed-file-replaced-by-a-link"],
)
def test_report_flags_a_damaged_run(runs, tmp_path, capsys, damage, needle, shown):
    run_dir = tmp_path / "run"
    shutil.copytree(runs["ordinalclip"], run_dir)
    damage(run_dir)
    assert cli.main(["report", str(run_dir)]) == 1
    out, err = capsys.readouterr()
    assert needle in err
    assert shown in out


def _append_non_utf8(run_dir):
    with open(run_dir / "metrics.csv", "ab") as f:
        f.write(b"\xff\xfe")


def _metrics_to_directory(run_dir):
    (run_dir / "metrics.csv").unlink()
    (run_dir / "metrics.csv").mkdir()


def _listed_non_utf8(run_dir):
    _append_non_utf8(run_dir)
    _rebuild_manifest_entry(run_dir, "metrics.csv")


@pytest.mark.parametrize(
    "damage, expected",
    [
        (_append_non_utf8, "checksum mismatch: metrics.csv\n"),
        (_metrics_to_directory, "not a regular file: metrics.csv\n"),
        (_listed_non_utf8, "{run_dir}/metrics.csv: not UTF-8 text\n"),
    ],
    ids=["appended-0xff-0xfe", "replaced-by-a-directory", "listed-and-not-utf8"],
)
def test_report_prints_metrics_only_once_they_verify(runs, tmp_path, capsys, damage,
                                                      expected):
    """An untouched run's report shows metrics.csv under `# metrics`. A
    damaged one, or one that verifies but is not UTF-8 text, is never
    printed; report exits 1 with one line on stderr instead of a
    traceback."""
    run_dir = tmp_path / "run"
    shutil.copytree(runs["ordinalclip"], run_dir)
    assert cli.main(["report", str(run_dir)]) == 0
    text = (run_dir / "metrics.csv").read_text()
    assert f"\n# metrics\n{text}# files\n" in capsys.readouterr().out
    damage(run_dir)
    assert cli.main(["report", str(run_dir)]) == 1
    out, err = capsys.readouterr()
    assert "# metrics" not in out
    assert err == expected.format(run_dir=run_dir)


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
def test_report_prints_metrics_with_universal_newlines(runs, tmp_path, capsys, newline):
    """A metrics.csv whose lines end in CRLF or CR, under a rebuilt
    manifest, prints under `# metrics` as the LF original does."""
    run_dir = tmp_path / "run"
    shutil.copytree(runs["ordinalclip"], run_dir)
    assert cli.main(["report", str(run_dir)]) == 0
    untouched = capsys.readouterr().out
    path = run_dir / "metrics.csv"
    path.write_bytes(path.read_bytes().replace(b"\n", newline))
    _rebuild_manifest_entry(run_dir, "metrics.csv")
    assert cli.main(["report", str(run_dir)]) == 0
    out = capsys.readouterr().out

    def metrics_section(text):
        return text[text.index("\n# metrics\n") : text.index("\n# files\n")]

    assert metrics_section(out) == metrics_section(untouched)


@pytest.mark.parametrize(
    "pattern, repl, needle",
    [
        (re.escape(cli.MANIFEST_FORMAT) + "\n", "", "unknown manifest format 'adam_eps = "),
        (re.escape(cli.MANIFEST_FORMAT), "# run manifest v9",
         "unknown manifest format '# run manifest v9'"),
        ("epochs = 6", "epochs 6", "expected 'key = value', got 'epochs 6'"),
        (r"metrics\.csv (\d+) \w+", r"metrics.csv \1", "expected 'name size digest'"),
        (r"metrics\.csv \d+", "metrics.csv x", "expected 'name size digest'"),
        (r"metrics\.csv \d+", "metrics.csv " + "9" * 5000, "expected 'name size digest'"),
        (r"\Z", "\xff", "not UTF-8 text"),
        (r"metrics\.csv", "../c.cfg", "'../c.cfg' is not a plain file name"),
        (r"metrics\.csv", "{outside}", "c.cfg' is not a plain file name"),
        (r"metrics\.csv", ".", "'.' is not a plain file name"),
        (r"metrics\.csv", "..", "'..' is not a plain file name"),
    ],
    ids=["format-line-missing", "format-line-unknown", "config-line-without-equals",
         "entry-with-two-fields", "entry-size-x", "entry-size-5000-digits", "trailing-0xff",
         "entry-in-parent-dir", "entry-absolute", "entry-dot", "entry-dotdot"],
)
def test_report_refuses_a_damaged_manifest_in_one_line(runs, tmp_path, capsys, pattern,
                                                       repl, needle):
    """The first match of pattern is on the damaged line, whose number the
    error names. The entries naming c.cfg would verify if report read
    them, since it holds the bytes of metrics.csv."""
    run_dir = tmp_path / "run"
    shutil.copytree(runs["ordinalclip"], run_dir)
    shutil.copy(run_dir / "metrics.csv", tmp_path / "c.cfg")
    manifest = run_dir / "manifest.txt"
    text = manifest.read_bytes().decode("latin-1")
    lineno = text.count("\n", 0, re.search(pattern, text).start()) + 1
    damaged = re.sub(pattern, repl.format(outside=tmp_path / "c.cfg"), text, count=1)
    manifest.write_bytes(damaged.encode("latin-1"))
    assert cli.main(["report", str(run_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{manifest}:{lineno}: ")
    assert needle in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "pattern, repl, needle, first",
    [
        (r"\[files\]\n", "method = coop\nnum_base_ranks = 99\n[files]\n", "method", "method = "),
        (r"(metrics\.csv .*\n)", r"\1\1", "metrics.csv", "metrics.csv "),
    ],
    ids=["key-set-twice", "file-listed-twice"],
)
def test_report_refuses_a_key_or_file_set_twice(runs, tmp_path, capsys, pattern, repl, needle,
                                                first):
    """A manifest that sets a key, or lists a file, a second time fails in
    one line naming both lines, as load_config does for a config: report
    prints no configuration, so no forged value, and exits 1. The second
    method line would otherwise turn an ordinalclip run into a coop one,
    which skips the rank check."""
    run_dir = tmp_path / "run"
    shutil.copytree(runs["ordinalclip"], run_dir)
    manifest = run_dir / "manifest.txt"
    text = manifest.read_text()
    first_line = text.count("\n", 0, text.index(f"\n{first}") + 1) + 1
    damaged = re.sub(pattern, repl, text, count=1)
    lineno = damaged.count("\n", 0, damaged.rindex(f"\n{first}") + 1) + 1
    manifest.write_text(damaged)
    assert cli.main(["report", str(run_dir)]) == 1
    out, err = capsys.readouterr()
    assert err == f"{manifest}:{lineno}: {needle} already set on line {first_line}\n"
    assert out == ""


def _forge_prototypes(run_dir, rank, rebuild_manifest=True):
    """Replace prototypes.bin with a unit-row matrix of its shape and the
    given rank and, unless told not to, rebuild its manifest entry, so
    that every checksum passes."""
    path = run_dir / "prototypes.bin"
    num_ranks, dim = import_prototypes(path).shape
    rng = np.random.default_rng(rank)
    forged = rng.normal(size=(num_ranks, rank)) @ rng.normal(size=(rank, dim))
    encoders.export_prototypes(path, forged / np.linalg.norm(forged, axis=1, keepdims=True))
    if rebuild_manifest:
        _rebuild_manifest_entry(run_dir)


def _rebuild_manifest_entry(run_dir, name="prototypes.bin"):
    """Rewrite the manifest entry of a run's file to match the file."""
    blob = (run_dir / name).read_bytes()
    manifest = run_dir / "manifest.txt"
    manifest.write_text(re.sub(
        rf"(?m)^{re.escape(name)} .*$",
        f"{name} {len(blob)} {encoders.fnv1a64(blob):016x}",
        manifest.read_text(),
    ))


@pytest.mark.parametrize("name", ["ordinalclip", "inverse-2", "expectation"])
def test_report_flags_ordinalclip_prototypes_of_rank_above_the_base_rank_count(
    runs, tmp_path, capsys, name
):
    """A forged prototypes.bin of rank C' + 1 under a rebuilt manifest
    passes every checksum, and fails the rank check in one line; one of
    rank C' passes it."""
    run_dir = tmp_path / "run"
    shutil.copytree(runs[name], run_dir)
    base = int(cli._read_manifest(run_dir)[0]["num_base_ranks"])
    _forge_prototypes(run_dir, base)
    assert cli.main(["report", str(run_dir)]) == 0
    assert capsys.readouterr().err == ""
    _forge_prototypes(run_dir, base + 1)
    assert cli.main(["report", str(run_dir)]) == 1
    err = capsys.readouterr().err
    assert err == (f"{run_dir / 'prototypes.bin'}: numerical rank {base + 1} exceeds "
                   f"num_base_ranks {base}\n")


def test_report_certifies_every_trained_ordinalclip_run_without_the_svd(runs, monkeypatch):
    monkeypatch.setattr(metrics, "numerical_rank", lambda *a: pytest.fail("SVD run"))
    for name in [*TRAIN_RUNS, "rerun"]:
        assert cli.main(["report", str(runs[name])]) == 0, name


def test_report_checks_the_rank_only_after_the_checksums_pass(runs, tmp_path, capsys):
    run_dir = tmp_path / "run"
    shutil.copytree(runs["ordinalclip"], run_dir)
    base = int(cli._read_manifest(run_dir)[0]["num_base_ranks"])
    _forge_prototypes(run_dir, base + 1, rebuild_manifest=False)
    assert cli.main(["report", str(run_dir)]) == 1
    assert capsys.readouterr().err == "checksum mismatch: prototypes.bin\n"


def test_report_checks_no_rank_for_coop(runs, tmp_path, capsys):
    """CoOp's rank rows are free, so its prototypes may have full rank."""
    run_dir = tmp_path / "run"
    shutil.copytree(runs["coop"], run_dir)
    _forge_prototypes(run_dir, TINY["num_ranks"])
    assert cli.main(["report", str(run_dir)]) == 0


def test_report_names_the_file_of_a_non_finite_prototype(runs, tmp_path, capsys):
    """A NaN in an ordinalclip prototypes.bin under a rebuilt manifest
    passes every checksum, and fails on loading in one line that starts
    with the file's path, as every other report failure names its file."""
    run_dir = tmp_path / "run"
    shutil.copytree(runs["ordinalclip"], run_dir)
    path = run_dir / "prototypes.bin"
    protos = import_prototypes(path)
    protos[2, 1] = np.nan
    encoders.export_prototypes(path, protos)
    _rebuild_manifest_entry(run_dir)
    assert cli.main(["report", str(run_dir)]) == 1
    assert capsys.readouterr().err == f"{path}: non-finite prototype entry at row 2, col 1\n"


def test_bytes_after_the_checksum_are_rejected(runs, tmp_path, capsys):
    """16 bytes appended to a run's prototypes.bin are rejected in one
    line, by import_prototypes and by report under a rebuilt manifest
    entry, though the matrix they follow is unchanged."""
    run_dir = tmp_path / "run"
    shutil.copytree(runs["ordinalclip"], run_dir)
    path = run_dir / "prototypes.bin"
    with open(path, "ab") as f:
        f.write(bytes(range(16)))
    message = f"{path}: 16 bytes after the checksum"
    with pytest.raises(BlockFileError, match=f"^{re.escape(message)}$"):
        import_prototypes(path)
    _rebuild_manifest_entry(run_dir)
    assert cli.main(["report", str(run_dir)]) == 1
    assert capsys.readouterr().err == message + "\n"


def test_report_prints_and_rank_checks_the_bytes_it_verified(runs, tmp_path, capsys,
                                                              monkeypatch):
    """report opens each file of a run once, so the metrics it prints and
    the prototypes it rank-checks are the bytes that matched the manifest.
    With every later open of metrics.csv or prototypes.bin diverted to
    other bytes (a changed metric, and prototypes of rank C' + 1), report
    of an untouched ordinalclip run prints, writes to stderr and exits as
    it does without the diversion."""
    run_dir = tmp_path / "run"
    shutil.copytree(runs["ordinalclip"], run_dir)
    assert cli.main(["report", str(run_dir)]) == 0
    untouched = capsys.readouterr()
    other = tmp_path / "other"
    shutil.copytree(run_dir, other)
    _tamper(other)
    _forge_prototypes(other, int(cli._read_manifest(other)[0]["num_base_ranks"]) + 1)
    opens = collections.Counter()
    real_open = io.open

    def diverting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and Path(file).parent == run_dir:
            name = Path(file).name
            opens[name] += 1
            if opens[name] > 1 and name in ("metrics.csv", "prototypes.bin"):
                file = other / name
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", diverting_open)
    monkeypatch.setattr(builtins, "open", diverting_open)
    code = cli.main(["report", str(run_dir)])
    monkeypatch.undo()
    assert (code, *capsys.readouterr()) == (0, *untouched)
    assert set(opens.values()) == {1}
    assert opens.keys() == {p.name for p in run_dir.iterdir()}


def test_grid_commands_write_their_tables_and_headers(runs):
    expected = {
        "sweep": {"interpolation_sweep.csv": "interpolation,base_2,base_3"},
        "ablation": {"ablation.csv": "method,tune_rank,tune_ctx,init_ctx,mae,ordinality"},
        "fewshot": {"fewshot_mae.csv": "method,shot_8", "fewshot_ordinality.csv": "method,shot_8"},
        "distshift": {
            "distshift_mae.csv": "method,0-50",
            "distshift_ordinality.csv": "method,0-50",
        },
    }
    for name, tables in expected.items():
        assert sorted(p.name for p in runs[name].iterdir()) == sorted([*tables, "manifest.txt"])
        for table, header in tables.items():
            assert _csv(runs[name] / table)[0] == header


def test_sweep_cells_equal_train_with_that_prompt(runs):
    _, rows = _csv(runs["sweep"] / "interpolation_sweep.csv")
    assert [row[0] for row in rows] == ["linear", "inverse-proportion"]
    assert rows[0][2] == _metrics(runs["ordinalclip"])["mae"]
    assert rows[1][1] == _metrics(runs["inverse-2"])["mae"]
    assert rows[1][2] == _metrics(runs["inverse-3"])["mae"]


def test_ablation_rows_and_default_cell_equal_train(runs):
    _, rows = _csv(runs["ablation"] / "ablation.csv")
    assert [row[:4] for row in rows] == [
        [method, *(cli._format_value(v) for v in cell)]
        for method in ("coop", "ordinalclip")
        for cell in cli.ABLATION_CELLS
    ]
    train = _metrics(runs["ordinalclip"])
    assert ["ordinalclip", "true", "true", "false", train["mae"], train["ordinality"]] in rows


@pytest.mark.parametrize("name", ["fewshot", "distshift"])
def test_full_training_set_column_equals_train(runs, name):
    methods = ("baseline", "coop", "ordinalclip")
    for metric in ("mae", "ordinality"):
        _, rows = _csv(runs[name] / f"{name}_{metric}.csv")
        assert rows == [[m, _metrics(runs[m])[metric]] for m in methods]


def test_fewshot_cell_is_the_mean_over_identically_seeded_subsamples(tmp_path):
    """Repetition k trains every method on few_shot_subsample(train, shots,
    seed + k) with model seed seed + k."""
    config = _write_config(tmp_path / "run.cfg", eval_seeds=2, seed=3)
    argv = ["fewshot", "--config", config, "--out", str(tmp_path / "out"), "--shots", "2"]
    assert cli.main(argv) == 0
    cfg = cli.load_config(config)
    train_ds, test_ds = cli._prepare(cfg)
    _, rows = _csv(tmp_path / "out" / "fewshot_mae.csv")
    for method, mae in rows:
        reports = [
            cli._run_cell(cfg, method, data.few_shot_subsample(train_ds, 2, seed), test_ds, seed)[0]
            for seed in (3, 4)
        ]
        assert mae == f"{np.mean([r.mae for r in reports]):.12g}"
