"""Time a config's re-run training step: the prompt tape per op kind, and
the closed-form tail as a line of its own.

    python3 scripts/op_costs.py CONFIG

Builds the config's model (its method, at its seed) on the package in
this checkout's src/, runs `training.forward_loss` on the first training
batch `fit` would take, which records the prompt tape, then runs that
step 300 times more, forward_loss then backward_loss, as `train_step`
does on every later step. Prints one line per op kind the prompt tape
records: its calls per step and the forward and backward microseconds per
step spent in its rules. The `tail` line gives the rest of forward_loss
and backward_loss per step: the closed-form image encoder, scores and
loss, and for the baseline, which records no tape, the whole step. The
last line gives the time of `Tape.rerun` + `Tape.backward` per step spent
outside the rules, and its share of their whole.

Each step is timed twice: once as the package runs it, with only
`Tape.rerun` and `Tape.backward` wrapped in a timer, and once with every
rule wrapped in a timer too. The outside-the-rules time is the first's
tape time less the second's rule time, so the rule timers' own cost lands
in the rules' columns, not in the outside share. The package is not
changed; the timers are swapped in as class attributes and entries of
diffcore's rule tables, and swapped back after each step.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ordinalproto import cli, diffcore, training  # noqa: E402
from ordinalproto.diffcore import Tape  # noqa: E402

STEPS = 300


def first_step(cfg: dict):
    """(prompt tape, model, batch) of the config's model after forward_loss
    on the first batch fit takes: the first batch_size rows of its seed's
    first permutation of the training split. The batch is forward_loss's
    (features, labels, temperature); the baseline's tape is empty."""
    train_ds, _ = cli._prepare(cfg)
    state = cli._build_model(cfg, cfg["method"], train_ds.num_ranks, train_ds.input_dim,
                             cfg["seed"])
    perm = np.random.default_rng(cfg["seed"]).permutation(len(train_ds))
    idx = perm[:cfg["batch_size"]]
    batch = train_ds.features[idx], train_ds.labels[idx], cfg["temperature"]
    tape = Tape()
    training.forward_loss(state, tape, *batch)
    return tape, state, batch


def _timed(function, key, seconds, calls=None):
    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            seconds[key] += time.perf_counter() - start
            if calls is not None:
                calls[key] += 1
    return timed


def _step(state, tape, batch, grads, seconds):
    """One re-run step, its forward_loss and backward_loss times added to
    seconds["forward"] and seconds["backward"]. No step moves a group, and
    first_step's forward_loss checked the tail's finite, so each passes
    tail_finite, as a fit's steps do."""
    start = time.perf_counter()
    _, kept = training.forward_loss(state, tape, *batch, tail_finite=True)
    middle = time.perf_counter()
    training.backward_loss(state, tape, kept, grads)
    seconds["forward"] += middle - start
    seconds["backward"] += time.perf_counter() - middle


def op_costs(tape, state, batch, steps: int = STEPS):
    """(forward calls, forward seconds, backward seconds) per op kind over
    the timed steps, and the seconds of forward_loss, backward_loss,
    Tape.rerun and Tape.backward over the plain steps."""
    grads = {name: np.empty_like(value) for name, value in state.trainable_parameters().items()}
    forward, backward = dict(diffcore._FORWARD), dict(diffcore._BACKWARD)
    methods = {"rerun": Tape.rerun, "backward": Tape.backward}
    calls, fwd, bwd, plain, unused = Counter(), Counter(), Counter(), Counter(), Counter()
    timed = ({kind: _timed(rule, kind, fwd, calls) for kind, rule in forward.items()},
             {kind: _timed(rule, kind, bwd) for kind, rule in backward.items()})
    for _ in range(steps):
        for name, method in methods.items():
            setattr(Tape, name, _timed(method, f"Tape.{name}", plain))
        try:
            _step(state, tape, batch, grads, plain)
        finally:
            for name, method in methods.items():
                setattr(Tape, name, method)
        diffcore._FORWARD.update(timed[0])
        diffcore._BACKWARD.update(timed[1])
        try:
            _step(state, tape, batch, grads, unused)
        finally:
            diffcore._FORWARD.update(forward)
            diffcore._BACKWARD.update(backward)
    return calls, fwd, bwd, plain


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python3 scripts/op_costs.py CONFIG", file=sys.stderr)
        return 2
    tape, state, batch = first_step(cli.load_config(args[0]))
    calls, fwd, bwd, plain = op_costs(tape, state, batch)
    us = 1e6 / STEPS
    print(f"{'op kind':<20}{'calls/step':>11}{'forward us':>12}{'backward us':>13}")
    for kind in sorted(calls):
        print(f"{kind:<20}{calls[kind] // STEPS:>11}{fwd[kind] * us:>12.1f}{bwd[kind] * us:>13.1f}")
    tail_forward = plain["forward"] - plain["Tape.rerun"]
    tail_backward = plain["backward"] - plain["Tape.backward"]
    print(f"{'tail':<20}{1:>11}{tail_forward * us:>12.1f}{tail_backward * us:>13.1f}")
    on_tape = plain["Tape.rerun"] + plain["Tape.backward"]
    outside = on_tape - sum(fwd.values()) - sum(bwd.values())
    share = f" ({outside / on_tape:.0%})" if on_tape else ""
    print(f"outside the rules: {outside * us:.1f} us of {on_tape * us:.1f} us per step"
          f"{share}, {len(tape)} nodes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
