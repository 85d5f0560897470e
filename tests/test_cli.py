"""Command-line exit codes: a config that parses but holds an invalid
value is a config error (exit 2), never a traceback."""

import pytest

from ordinalproto import cli


@pytest.mark.parametrize(
    "line, needle",
    [
        ("num_base_ranks = 30", "num_base_ranks"),
        ("epsilon = 0", "epsilon"),
        ("num_context = 16", "max_len"),
        ("batch_size = 0", "batch_size"),
        ("temperature = 0", "temperature"),
        ("num_ranks = 1", "2 ranks"),
        ("per_rank = 0", "per_rank"),
        ("train_fraction = 1.5", "train fraction"),
        ("noise_sigma = -1", "noise_sigma"),
    ],
)
def test_invalid_value_exits_with_config_error(tmp_path, capsys, line, needle):
    config = tmp_path / "run.cfg"
    config.write_text(line + "\n")
    code = cli.main(["train", "--config", str(config), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: ")
    assert needle in err
    assert not (tmp_path / "run" / "manifest.txt").exists()
