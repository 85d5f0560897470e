"""Time a config's re-run training step per op kind.

    python3 scripts/op_costs.py CONFIG

Builds the config's model (its method, at its seed) on the package in
this checkout's src/, records `training.forward_loss` on the first
training batch `fit` would take, then re-runs and differentiates that
tape 300 times, as `train_step` does on every later step of that batch
size. Prints one line per op kind the tape records: its calls per step
and the forward and backward microseconds per step spent in its rules.
The last line gives the time of `Tape.rerun` + `Tape.backward` per step
spent outside the rules, and its share of the whole.

Each step is timed twice: once as the package runs it, and once with
every rule wrapped in a timer. The outside-the-rules time is the first
less the second's rule time, so the timers' own cost lands in the rules'
columns, not in the outside share. The package is not changed; the
rules are wrapped by swapping entries of diffcore's rule tables.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ordinalproto import cli, diffcore, matching, training  # noqa: E402
from ordinalproto.encoders import ImageEncoder  # noqa: E402

STEPS = 300


def first_step(cfg: dict):
    """(tape, loss node, re-run leaves) of the config's model on the first
    batch fit takes: the first batch_size rows of its seed's first
    permutation of the training split."""
    train_ds, _ = cli._prepare(cfg)
    state = cli._build_model(cfg, cfg["method"], train_ds.num_ranks, train_ds.input_dim,
                             cfg["seed"])
    perm = np.random.default_rng(cfg["seed"]).permutation(len(train_ds))
    idx = perm[:cfg["batch_size"]]
    x, y = train_ds.features[idx], train_ds.labels[idx]
    tape, loss = training.forward_loss(state, x, y, cfg["temperature"])
    leaves = {ImageEncoder.BATCH: x, matching.LABELS: matching.label_column(y)}
    return tape, loss, leaves


def _timed(rule, kind, seconds, calls):
    def timed(*args):
        start = time.perf_counter()
        result = rule(*args)
        seconds[kind] += time.perf_counter() - start
        calls[kind] += 1
        return result
    return timed


def op_costs(tape, loss, leaves, steps: int = STEPS):
    """(forward calls, forward seconds, backward seconds) per op kind over
    the timed steps, and the seconds of rerun + backward over the plain
    steps."""
    grads = tape.backward(loss)
    forward, backward = dict(diffcore._FORWARD), dict(diffcore._BACKWARD)
    calls, fwd, bwd = Counter(), Counter(), Counter()
    timed = ({kind: _timed(rule, kind, fwd, calls) for kind, rule in forward.items()},
             {kind: _timed(rule, kind, bwd, Counter()) for kind, rule in backward.items()})
    plain = 0.0
    for _ in range(steps):
        start = time.perf_counter()
        tape.rerun(leaves)
        tape.backward(loss, out=grads)
        plain += time.perf_counter() - start
        diffcore._FORWARD.update(timed[0])
        diffcore._BACKWARD.update(timed[1])
        try:
            tape.rerun(leaves)
            tape.backward(loss, out=grads)
        finally:
            diffcore._FORWARD.update(forward)
            diffcore._BACKWARD.update(backward)
    return calls, fwd, bwd, plain


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python3 scripts/op_costs.py CONFIG", file=sys.stderr)
        return 2
    tape, loss, leaves = first_step(cli.load_config(args[0]))
    calls, fwd, bwd, plain = op_costs(tape, loss, leaves)
    us = 1e6 / STEPS
    print(f"{'op kind':<20}{'calls/step':>11}{'forward us':>12}{'backward us':>13}")
    for kind in sorted(calls):
        print(f"{kind:<20}{calls[kind] // STEPS:>11}{fwd[kind] * us:>12.1f}{bwd[kind] * us:>13.1f}")
    rules = sum(fwd.values()) + sum(bwd.values())
    outside = plain - rules
    print(f"outside the rules: {outside * us:.1f} us of {plain * us:.1f} us per step "
          f"({outside / plain:.0%}), {len(tape)} nodes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
