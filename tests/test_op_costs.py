"""scripts/op_costs.py: one line per op kind the prompt tape records and
one for the closed-form tail, on a tiny config, in well under a second."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "op_costs.py"
CONFIG = {"num_ranks": 4, "per_rank": 4, "batch_size": 8, "latent_dim": 8, "hidden_dim": 8,
          "input_dim": 6, "max_len": 8, "vocab_size": 8}


def _script():
    spec = importlib.util.spec_from_file_location("op_costs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("method", ["ordinalclip", "coop", "baseline"])
def test_prints_one_line_per_recorded_op_kind(tmp_path, capsys, method):
    op_costs = _script()
    config = tmp_path / "tiny.cfg"
    config.write_text("".join(f"{k} = {v}\n" for k, v in {**CONFIG, "method": method}.items()))
    tape, _, _ = op_costs.first_step(op_costs.cli.load_config(str(config)))
    recorded = {node.op for node in tape._nodes} - {"constant", "parameter"}
    assert op_costs.main([str(config)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:2] == ["op", "kind"]
    assert lines[-1].startswith("outside the rules: ")
    rows = [line.split() for line in lines[1:-1]]
    assert sorted(row[0] for row in rows) == sorted(recorded | {"tail"})
    assert bool(recorded) == (method != "baseline")
    for kind, calls, fwd, bwd in rows:
        assert int(calls) >= 1 and float(fwd) >= 0.0 and float(bwd) >= 0.0, kind


def test_a_wrong_argument_count_prints_usage(capsys):
    assert _script().main([]) == 2
    assert capsys.readouterr().err.startswith("usage: python3 scripts/op_costs.py CONFIG")
