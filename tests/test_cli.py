"""Command-line behaviour, run in-process through `cli.main`.

Exit codes: a config or a grid flag that parses but holds an invalid
value is a config error (exit 2), never a traceback, and a grid command
rejects it before any cell trains. Run directories: a rerun is
byte-identical, `checkpoint.bin` restores the prototypes in
`prototypes.bin`, and `report` verifies them (exit 0) or names what does
not match (exit 1). Grid commands: with one evaluation seed, a grid cell that
keeps every training sample and the default prompt equals `train`.
"""

import re
import shutil

import numpy as np
import pytest

from ordinalproto import cli, data, training
from ordinalproto.encoders import import_prototypes

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
    assert not (tmp_path / "run" / "manifest.txt").exists()


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["fewshot", "--shots", "2,0"], "shots must be >= 1, got 0"),
        (["fewshot", "--shots", "x"], "bad --shots value 'x'"),
        (["sweep-interpolation", "--counts", "a"], "bad --counts value 'a'"),
        (["sweep-interpolation", "--counts", "2,30"], "num_base_ranks must be in [2, num_ranks=4]"),
        (["distshift", "--grid", "2:0.5,30:0.5"], "reduce_classes must be in [0, 4], got 30"),
        (["distshift", "--grid", "2:1.5"], "reduce_fraction must be in [0, 1), got 1.5"),
        (["fewshot", "--shots", ""], "--shots is empty"),
        (["sweep-interpolation", "--counts", ""], "--counts is empty"),
        (["sweep-interpolation", "--types", ""], "--types is empty"),
        (["distshift", "--grid", ""], "--grid is empty"),
    ],
    ids=["shots-0", "shots-x", "counts-a", "counts-30", "grid-30-classes", "grid-fraction-1.5",
         "shots-empty", "counts-empty", "types-empty", "grid-empty"],
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
    if needle.endswith("is empty"):  # needs no data, so it is rejected before any output
        assert not (tmp_path / "run").exists()


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
    assert all(np.isfinite(v) and v > 1e299 for v in norms.values())


def _norms(err):
    """The parameter norms a `training diverged` line lists, by group."""
    pairs = re.findall(r"'([\w.]+)': ([^,}]+)", err.split("parameter norms: ", 1)[1])
    return {name: float(value) for name, value in pairs}


@pytest.mark.parametrize(
    "method, learning_rate, cause, finite",
    [
        ("ordinalclip", "1e308", "after Adam step 1 in context, base_ranks;", False),
        ("baseline", "1e308", "in forward pass (", False),
        ("baseline", "1e300", "in forward pass (", True),
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
    and norm stays finite, while the baseline's scores overflow."""
    config = _write_config(tmp_path / "run.cfg", method=method, learning_rate=learning_rate,
                           num_ranks=4, per_rank=4, epochs=1, batch_size=64)
    code = cli.main(["train", "--config", config, "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("training diverged: non-finite values " + cause)
    assert err.count("\n") == 1 and "Traceback" not in err
    norms = _norms(err)
    assert "image.w1" in norms and all(v > 1e299 for v in norms.values())
    assert all(np.isfinite(v) for v in norms.values()) == finite
    assert not (tmp_path / "run" / "manifest.txt").exists()


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Tiny train runs of three methods and of two non-default prompts, a
    second ordinalclip run into a fresh directory, and one run of every
    grid command."""
    root = tmp_path_factory.mktemp("cli")
    out = {}
    trains = {
        "baseline": {"method": "baseline"},
        "coop": {"method": "coop"},
        "inverse-2": {"interpolation": "inverse-proportion", "num_base_ranks": 2},
        "inverse-3": {"interpolation": "inverse-proportion"},
        "ordinalclip": {"method": "ordinalclip"},
    }
    for name, overrides in trains.items():
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


@pytest.mark.parametrize("name", ["ordinalclip", "coop", "baseline", "sweep", "ablation",
                                  "fewshot", "distshift"])
def test_report_accepts_an_untouched_run(runs, capsys, name):
    assert cli.main(["report", str(runs[name])]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("name", ["ordinalclip", "coop", "baseline"])
def test_checkpoint_restores_the_exported_prototypes(runs, name):
    """checkpoint.bin loads into a model rebuilt from the run's config, and
    that model's prototypes are bitwise the ones in prototypes.bin."""
    cfg = cli.load_config(str(runs[name].parent / f"{name}.cfg"))
    state = cli._build_model(cfg, cfg["method"], cfg["num_ranks"], cfg["input_dim"], cfg["seed"])
    exported = import_prototypes(runs[name] / "prototypes.bin")
    assert not np.array_equal(training.prototypes_of(state), exported)
    training.load_state_into(state, runs[name] / "checkpoint.bin")
    np.testing.assert_array_equal(training.prototypes_of(state), exported)


def _tamper(run_dir):
    data = bytearray((run_dir / "metrics.csv").read_bytes())
    data[-2] ^= 1
    (run_dir / "metrics.csv").write_bytes(bytes(data))


@pytest.mark.parametrize(
    "damage, needle",
    [
        (_tamper, "checksum mismatch: metrics.csv"),
        (lambda d: (d / "checkpoint.bin").unlink(), "missing file: checkpoint.bin"),
        (lambda d: (d / "manifest.txt").unlink(), "missing manifest: "),
    ],
    ids=["changed-byte", "deleted-file", "missing-manifest"],
)
def test_report_flags_a_damaged_run(runs, tmp_path, capsys, damage, needle):
    run_dir = tmp_path / "run"
    shutil.copytree(runs["ordinalclip"], run_dir)
    damage(run_dir)
    assert cli.main(["report", str(run_dir)]) == 1
    assert needle in capsys.readouterr().err


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
    _, train_ds, test_ds = cli._prepare(cfg, tmp_path / "data")
    _, rows = _csv(tmp_path / "out" / "fewshot_mae.csv")
    for method, mae in rows:
        reports = [
            cli._run_cell(cfg, method, data.few_shot_subsample(train_ds, 2, seed), test_ds, seed)[0]
            for seed in (3, 4)
        ]
        assert mae == f"{np.mean([r.mae for r in reports]):.12g}"
