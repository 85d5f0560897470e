"""Runtime wrappers that trace the package's layers from outside.

`Tracer` patches each layer's public entry point at the name its caller
looks up (a module global such as `training.forward_loss`, or a class
attribute such as `Tape.backward`), records one span per call, and puts
every original back when the `with` block ends. The package source is
never edited. Spans are (name, start, end, parent) tuples kept in memory;
`write_spans` writes them out once the benchmark is done.

The tape primitives (`Tape.record`, `constant`, `parameter`) run ~170
times per step, so they get a count and a busy time instead of a span,
and only while a `train_step` span is open. That count is exact and
repeats run to run; it is `diffcore.nodes_per_step`.

An entry point that does not exist (a later change may delete one) is
listed in `absent` and skipped; the metrics built on it read 0.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import Counter

STEP = "training.train_step"

# (module, attribute at the caller's lookup site, span name). One span name
# may cover several entry points: a layer's metric sums them.
SPANNED = (
    ("ordinalproto.cli", "cmd_report", "cli.report"),
    ("ordinalproto.cli", "fnv1a64", "encoders.fnv1a64"),
    ("ordinalproto.encoders", "fnv1a64", "encoders.fnv1a64"),
    ("ordinalproto.data", "generate_synthetic", "data.generate"),
    ("ordinalproto.data", "train_test_split", "data.subsample"),
    ("ordinalproto.data", "few_shot_subsample", "data.subsample"),
    ("ordinalproto.training", "build_model", "training.build_model"),
    ("ordinalproto.training", "fit", "training.fit"),
    ("ordinalproto.training", "train_step", STEP),
    ("ordinalproto.training", "forward_loss", "training.forward_loss"),
    ("ordinalproto.training", "AdamState.update", "training.adam"),
    ("ordinalproto.training", "evaluate", "training.evaluate"),
    ("ordinalproto.diffcore", "Tape.backward", "diffcore.backward"),
    ("ordinalproto.prompt", "interpolate_rank_embeddings", "prompt.forward"),
    ("ordinalproto.prompt", "assemble_sequences", "prompt.forward"),
    ("ordinalproto.encoders", "PseudoTextEncoder.encode", "encoders.text_forward"),
    ("ordinalproto.encoders", "ImageEncoder.encode", "encoders.image_forward"),
    ("ordinalproto.matching", "similarity", "matching.loss_forward"),
    ("ordinalproto.matching", "contrastive_loss", "matching.loss_forward"),
    ("ordinalproto.matching", "baseline_logits", "matching.loss_forward"),
    ("ordinalproto.matching", "cross_entropy_loss", "matching.loss_forward"),
    ("ordinalproto.metrics", "ordinality_score", "metrics.report"),
    ("ordinalproto.metrics", "export_heatmap", "metrics.report"),
)

# Counted (not spanned) inside train_step: every node a step puts on the tape.
COUNTED = (
    ("ordinalproto.diffcore", "Tape.record", "diffcore.record"),
    ("ordinalproto.diffcore", "Tape.constant", "diffcore.constant"),
    ("ordinalproto.diffcore", "Tape.parameter", "diffcore.parameter"),
)


def _resolve(module_name: str, path: str):
    """(owner, attribute, original) or None when the entry point is absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    # A class's own __dict__ holds the plain function, so restoring it
    # leaves the class exactly as it was.
    original = vars(owner).get(attr)
    if not callable(original):
        return None
    return owner, attr, original


class Tracer:
    """Context manager: patch on entry, restore on exit, keep the spans."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter = Counter()
        self.busy: Counter = Counter()
        self.bytes_hashed = 0
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._steps_open = 0
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for module_name, path, span_name in SPANNED:
                self._patch(module_name, path, self._spanning(span_name))
            for module_name, path, count_name in COUNTED:
                self._patch(module_name, path, self._counting(count_name))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _patch(self, module_name: str, path: str, make_wrapper) -> None:
        found = _resolve(module_name, path)
        if found is None:
            label = f"{module_name.rsplit('.', 1)[-1]}.{path}"
            if label not in self.absent:
                self.absent.append(label)
            return
        owner, attr, original = found
        setattr(owner, attr, make_wrapper(original))
        self._patched.append((owner, attr, original))

    def _restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _spanning(self, name: str):
        spans, stack = self.spans, self._stack
        is_step = name == STEP
        is_hash = name == "encoders.fnv1a64"

        def make(fn):
            def traced(*args, **kwargs):
                idx = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(idx)
                if is_step:
                    self._steps_open += 1
                if is_hash:
                    self.bytes_hashed += len(args[0])
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    if is_step:
                        self._steps_open -= 1
                    spans[idx] = (name, start, end, parent)

            return traced

        return make

    def _counting(self, name: str):
        counts, busy = self.counts, self.busy

        def make(fn):
            def counted(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    if self._steps_open:
                        busy[name] += time.perf_counter() - start
                        counts[name] += 1

            return counted

        return make

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for idx, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{idx},{name},{start:.9f},{end:.9f},{parent}\n")


def _ancestor_names(spans) -> list[frozenset]:
    """For each span, the names of the spans enclosing it. A parent is
    always opened, so indexed, before its children."""
    out: list[frozenset] = []
    for _, _, _, parent in spans:
        out.append(frozenset() if parent < 0 else out[parent] | {spans[parent][0]})
    return out


def _durations(spans, ancestors, seconds, name: str, in_step: bool) -> list[float]:
    """Durations of the outermost spans called `name`, optionally only
    those inside a train_step."""
    return [
        seconds(start, end)
        for (span_name, start, end, _), outer in zip(spans, ancestors)
        if span_name == name and name not in outer and (STEP in outer or not in_step)
    ]


def _self_time(spans, seconds, name: str) -> float:
    """Total time of `name` spans minus the time of their direct children."""
    ids = {i for i, span in enumerate(spans) if span[0] == name}
    total = sum(seconds(spans[i][1], spans[i][2]) for i in ids)
    children = sum(seconds(start, end) for _, start, end, parent in spans if parent in ids)
    return total - children


def layer_metrics(tracer: Tracer, runs: int, seconds, busy_factor: float
                  ) -> dict[str, tuple[float, str]]:
    """Per-layer figures, {name: (value, unit)}, over `runs` traced runs of
    one workload. Per-step figures cover only time inside train_step.

    `seconds(start, end)` turns a span into the duration to report, and
    `busy_factor` scales the tape primitives' summed busy time the same way.
    """
    spans = tracer.spans
    ancestors = _ancestor_names(spans)

    def durations(name, in_step=False):
        return _durations(spans, ancestors, seconds, name, in_step)

    steps = durations(STEP)
    n_steps = max(len(steps), 1)

    def per_step_ms(name):
        return sum(durations(name, in_step=True)) / n_steps * 1e3

    def per_call_ms(name):
        d = durations(name)
        return sum(d) / len(d) * 1e3 if d else 0.0

    def per_run_ms(name):
        return sum(durations(name)) / runs * 1e3

    fits = durations("training.fit")
    hashing_s = sum(durations("encoders.fnv1a64"))
    nodes = sum(tracer.counts.values())
    records = tracer.counts["diffcore.record"]
    step_ms = sorted(d * 1e3 for d in steps) or [0.0]
    quantiles = statistics.quantiles(step_ms, n=10) if len(step_ms) > 1 else step_ms * 9
    return {
        "diffcore.nodes_per_step": (nodes / n_steps, "count"),
        "diffcore.record_us_per_call": (
            tracer.busy["diffcore.record"] * busy_factor / records * 1e6 if records else 0.0, "us"),
        "diffcore.backward_ms_per_step": (per_step_ms("diffcore.backward"), "ms"),
        "prompt.forward_ms_per_step": (per_step_ms("prompt.forward"), "ms"),
        "encoders.text_forward_ms_per_step": (per_step_ms("encoders.text_forward"), "ms"),
        "encoders.image_forward_ms_per_step": (per_step_ms("encoders.image_forward"), "ms"),
        "matching.loss_forward_ms_per_step": (per_step_ms("matching.loss_forward"), "ms"),
        "training.forward_ms_per_step": (per_step_ms("training.forward_loss"), "ms"),
        "training.forward_self_ms_per_step": (
            _self_time(spans, seconds, "training.forward_loss") / n_steps * 1e3, "ms"),
        "training.adam_ms_per_step": (per_step_ms("training.adam"), "ms"),
        "training.step_ms_p50": (statistics.median(step_ms), "ms"),
        "training.step_ms_p90": (quantiles[8], "ms"),
        "training.step_samples": (len(steps), "count"),
        "training.fit_overhead_ms": (
            (sum(fits) - sum(steps)) / len(fits) * 1e3 if fits else 0.0, "ms"),
        "training.evaluate_ms": (per_call_ms("training.evaluate"), "ms"),
        "training.build_model_ms": (per_call_ms("training.build_model"), "ms"),
        "metrics.report_ms": (per_run_ms("metrics.report"), "ms"),
        "encoders.fnv1a64_bytes": (tracer.bytes_hashed / runs, "bytes"),
        "encoders.fnv1a64_mib_per_s": (
            tracer.bytes_hashed / hashing_s / 2**20 if hashing_s else 0.0, "MiB/s"),
        "cli.report_ms": (per_call_ms("cli.report"), "ms"),
        "data.generate_ms": (per_call_ms("data.generate"), "ms"),
        "data.subsample_ms": (per_run_ms("data.subsample"), "ms"),
    }
