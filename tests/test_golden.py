"""Golden outputs: the text files a few cheap commands write, pinned byte
for byte across commits.

The commands are `train` of ordinalclip, coop and the baseline at CONFIG,
and `fewshot --shots 1,2` at the ordinalclip config, run in-process through
`cli.main`. tests/golden/<run>/ holds each run's `metrics.csv` and
`loss_trace.csv`, or the grid's tables, as the files themselves, so that
a mismatch diffs readably. Block files and manifests are not pinned: their
last bits may move under a change that keeps every value within 1e-12.

These files print 12 significant digits, so a change of ~1e-15 rarely
moves them. A change that does re-pins the file from the run it names and
lists the line that moved.
"""

from pathlib import Path

import pytest

from ordinalproto import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIG = {"num_ranks": 6, "per_rank": 10, "epochs": 8, "batch_size": 8, "eval_seeds": 2}
# (run, method of its config, command, pinned files), in the order they run.
RUNS = [
    *[(method, method, ["train"], ("metrics.csv", "loss_trace.csv"))
      for method in ("ordinalclip", "coop", "baseline")],
    ("fewshot", "ordinalclip", ["fewshot", "--shots", "1,2"],
     ("fewshot_mae.csv", "fewshot_ordinality.csv")),
]
PINNED = [f"{run}/{name}" for run, _, _, names in RUNS for name in names]


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    """The directory every run of RUNS writes under, one subdirectory per
    run."""
    root = tmp_path_factory.mktemp("golden")
    for run, method, command, _ in RUNS:
        cfg = root / f"{run}.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in {**CONFIG, "method": method}.items()))
        assert cli.main([*command, "--config", str(cfg), "--out", str(root / run)]) == 0
    return root


def test_every_pinned_file_is_one_a_run_writes():
    """No golden file goes unchecked, and none the test checks is missing."""
    files = sorted(p.relative_to(GOLDEN).as_posix() for p in GOLDEN.rglob("*") if p.is_file())
    assert files == sorted(PINNED)


@pytest.mark.parametrize("path", PINNED)
def test_the_run_writes_the_pinned_bytes(produced, path):
    assert (produced / path).read_bytes().decode() == (GOLDEN / path).read_bytes().decode()
