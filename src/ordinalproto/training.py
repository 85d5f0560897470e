"""Model assembly and the optimization loop.

A model is one of four methods sharing as much of the pipeline as
possible:

  ordinalclip  prompts = shared context rows + rank rows interpolated
               from a few base rank rows (the ordinal mechanism).
  coop         same codepath with interpolation bypassed: every rank row
               is a free parameter, initialized from its rank token.
  zeroshot     coop-style prompts evaluated untrained.
  baseline     no prompts; a linear head with cross-entropy on the image
               features, the classification control.

The image encoder trains in every method. Adam updates touch only the
parameter groups enabled by tune_rank / tune_ctx. A disabled group enters
the training tape as a constant, so backward neither computes nor returns
its gradient, and it stays bitwise identical. One seed drives everything
(init, shuffling), so identical configs reproduce identical parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import matching, prompt
from .data import OrdinalDataset
from .diffcore import Tape
from .encoders import ImageEncoder, PseudoTextEncoder, encode_images, read_blocks, write_blocks
from .metrics import ARGMAX, MetricReport, metric_report, predict, write_csv
from .prompt import PromptConfig

ORDINALCLIP = "ordinalclip"
COOP = "coop"
BASELINE = "baseline"
ZEROSHOT = "zeroshot"
METHODS = (ORDINALCLIP, COOP, BASELINE, ZEROSHOT)

PROMPT_MAGIC = b"OPRM2"
BASELINE_MAGIC = b"OPBH2"


class TrainingDivergedError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 64
    learning_rate: float = 1.2e-3
    lr_decay_factor: float = 0.1
    decay_epochs: tuple[int, ...] = (30,)
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    temperature: float = 0.07
    seed: int = 0
    last_layer_lr_mult: float = 1.0

    def validate(self) -> "TrainConfig":
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        # 0 is allowed so a no-op step can be probed; negative rates are not.
        if not 0 <= self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        for name in ("lr_decay_factor", "last_layer_lr_mult"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        # Adam divides by sqrt(v) + adam_eps, which must stay positive.
        if not 0 < self.adam_eps < math.inf:
            raise ValueError(f"adam_eps must be finite and > 0, got {self.adam_eps}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not self.temperature > 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if self.temperature == math.inf:
            raise ValueError("temperature must be finite, got inf")
        return self


@dataclass
class ModelState:
    method: str
    image_encoder: ImageEncoder
    text_encoder: PseudoTextEncoder | None = None
    prompt_cfg: PromptConfig | None = None
    context: np.ndarray | None = None
    base_ranks: np.ndarray | None = None
    interpolation: np.ndarray | None = None
    head_weights: np.ndarray | None = None
    head_bias: np.ndarray | None = None
    num_ranks: int = 0

    @property
    def uses_prompts(self) -> bool:
        return self.method != BASELINE

    def parameter_groups(self) -> dict[str, np.ndarray]:
        """Every live parameter array, in checkpoint order, under its tape
        name: the prompt or head groups, then the image encoder's."""
        if self.uses_prompts:
            groups = {"context": self.context, "base_ranks": self.base_ranks}
        else:
            groups = {"head.weights": self.head_weights, "head.bias": self.head_bias}
        return groups | self.image_encoder.parameters()

    def trainable_parameters(self) -> dict[str, np.ndarray]:
        """The groups Adam is allowed to update, honoring the tune gates."""
        groups = self.parameter_groups()
        if self.uses_prompts:
            if not (self.prompt_cfg.tune_ctx and self.context.shape[0] > 0):
                del groups["context"]
            if not self.prompt_cfg.tune_rank:
                del groups["base_ranks"]
        return groups


def rank_token_ids(num_ranks: int, vocab_size: int) -> tuple[int, ...]:
    """Low vocabulary ids standing in for the rank label words."""
    return tuple(j % vocab_size for j in range(num_ranks))


def build_model(
    method: str,
    num_ranks: int,
    prompt_cfg: PromptConfig | None = None,
    input_dim: int = 16,
    hidden_dim: int = 32,
    latent_dim: int = 64,
    max_len: int = 16,
    vocab_size: int = 64,
    encoder_seed: int = 7,
    init_seed: int = 0,
) -> ModelState:
    """Assemble a fresh model for one method.

    The frozen text encoder depends only on encoder_seed, playing the role
    of the shared pretrained model: varying init_seed re-rolls the
    trainable parameters, never the encoder.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; valid methods: {METHODS}")
    prompt_seed, image_seed = (
        int(s) for s in np.random.SeedSequence(init_seed).generate_state(2)
    )
    image_encoder = ImageEncoder.create(
        image_seed, input_dim=input_dim, hidden_dim=hidden_dim, latent_dim=latent_dim
    )
    if method == BASELINE:
        rng = np.random.default_rng(prompt_seed)
        head_w = rng.normal(0.0, 0.01, (num_ranks, latent_dim))
        head_b = np.zeros((1, num_ranks))
        return ModelState(
            method=method,
            image_encoder=image_encoder,
            head_weights=head_w,
            head_bias=head_b,
            num_ranks=num_ranks,
        )
    if prompt_cfg is None:
        raise ValueError(f"method {method!r} requires a prompt config")
    if prompt_cfg.num_ranks != num_ranks:
        raise ValueError(
            f"prompt config num_ranks {prompt_cfg.num_ranks} != dataset num_ranks {num_ranks}"
        )
    if method in (COOP, ZEROSHOT):
        # Free per-rank embeddings: carried in the base-rank slot with one
        # row per rank and no interpolation.
        prompt_cfg = replace(prompt_cfg, num_base_ranks=num_ranks)
    prompt_cfg.validate()
    if prompt_cfg.num_context + 1 > max_len:
        raise ValueError(
            f"a prompt of num_context + 1 = {prompt_cfg.num_context + 1} tokens "
            f"exceeds max_len {max_len}"
        )
    text_encoder = PseudoTextEncoder.create(
        encoder_seed,
        word_dim=prompt_cfg.word_dim,
        latent_dim=latent_dim,
        max_len=max_len,
        vocab_size=vocab_size,
    )
    ctx, base = prompt.init_parameters(
        prompt_cfg, prompt_seed, token_table=text_encoder.token_table
    )
    interpolation = None
    if method == ORDINALCLIP:
        interpolation = prompt.build_interpolation_matrix(prompt_cfg)
    else:
        base = text_encoder.token_table[
            list(rank_token_ids(num_ranks, vocab_size))
        ].copy()
    return ModelState(
        method=method,
        image_encoder=image_encoder,
        text_encoder=text_encoder,
        prompt_cfg=prompt_cfg,
        context=ctx,
        base_ranks=base,
        interpolation=interpolation,
        num_ranks=num_ranks,
    )


# ---------------------------------------------------------------------------
# forward graphs


def _prompt_nodes(state: ModelState, tape: Tape, trainable: bool) -> int:
    """Prototype node for the current prompt parameters.

    With trainable set, each group its tune gate enables is a named
    parameter; every other group is a constant.
    """

    def leaf(array: np.ndarray, name: str, tuned: bool) -> int:
        return tape.parameter(array, name) if trainable and tuned else tape.constant(array)

    cfg = state.prompt_cfg
    ctx_node = (
        leaf(state.context, "context", cfg.tune_ctx) if state.context.shape[0] > 0 else None
    )
    base_node = leaf(state.base_ranks, "base_ranks", cfg.tune_rank)
    if state.interpolation is not None:
        ranks_node = prompt.interpolate_rank_embeddings(tape, state.interpolation, base_node)
    else:
        ranks_node = base_node
    seqs = prompt.assemble_sequences(tape, ctx_node, ranks_node)
    return state.text_encoder.encode(tape, seqs)


def forward_loss(
    state: ModelState, batch_x: np.ndarray, batch_y: np.ndarray, temperature: float
) -> tuple[Tape, int]:
    """Build the full training graph for one batch; returns (tape, loss)."""
    tape = Tape()
    if state.uses_prompts:
        protos = _prompt_nodes(state, tape, trainable=True)
        _, embeddings = state.image_encoder.encode(tape, batch_x)
        scores = matching.similarity(tape, embeddings, protos)
        loss = matching.contrastive_loss(tape, scores, batch_y, state.num_ranks, temperature)
    else:
        features, _ = state.image_encoder.encode(tape, batch_x, normalize=False)
        w = tape.parameter(state.head_weights, "head.weights")
        b = tape.parameter(state.head_bias, "head.bias")
        logits = matching.baseline_logits(tape, w, b, features)
        loss = matching.cross_entropy_loss(tape, logits, batch_y, state.num_ranks)
    return tape, loss


def prototypes_of(state: ModelState) -> np.ndarray:
    """Unit-norm prototype rows used for prediction and ordinality.

    The baseline has no language prototypes; its normalized head weight
    rows play that role so its ordinality is measurable the same way.
    """
    if state.uses_prompts:
        tape = Tape()
        return tape.value(_prompt_nodes(state, tape, trainable=False)).copy()
    norms = np.linalg.norm(state.head_weights, axis=1, keepdims=True)
    if (norms == 0).any():
        raise ValueError("baseline head has a zero weight row; cannot normalize")
    return state.head_weights / norms


def evaluate(
    state: ModelState,
    ds: OrdinalDataset,
    rule: str = ARGMAX,
    temperature: float = 1.0,
) -> MetricReport:
    """Predict a rank per sample from raw per-rank scores (similarities to
    the prototypes, or the baseline's logits) and report the metrics.

    A forward pass that goes non-finite raises TrainingDivergedError, as
    in train_step.
    """
    # Overflow here is reported as divergence below, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            features, embeddings = encode_images(state.image_encoder, ds.features)
            protos = prototypes_of(state)
        except FloatingPointError as exc:
            raise _diverged(state, f"in forward pass ({exc})") from exc
        if state.uses_prompts:
            scores = embeddings @ protos.T
        else:
            scores = features @ state.head_weights.T + state.head_bias
    if not np.isfinite(scores).all():
        raise _diverged(state, "in forward pass (non-finite scores)")
    predictions = predict(scores, rule=rule, temperature=temperature)
    return metric_report(predictions, ds.labels, protos, ds.num_ranks)


# ---------------------------------------------------------------------------
# optimization


class AdamState:
    """First/second moment estimates per parameter plus the step counter.

    An update works in place: every temporary lands in one of two scratch
    buffers per parameter group, allocated once. It performs the same float
    operations in the same order as the textbook expressions
    m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g and
    p -= (rate*(m/bias1)) / (sqrt(v/bias2) + eps), so the result is
    bitwise the same.
    """

    def __init__(self, params: dict[str, np.ndarray], cfg: TrainConfig):
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self._scratch = {k: (np.empty_like(v), np.empty_like(v)) for k, v in params.items()}
        self.step = 0
        self.beta1 = cfg.beta1
        self.beta2 = cfg.beta2
        self.eps = cfg.adam_eps

    def update(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
               lr: float, lr_mults: dict[str, float] | None = None) -> None:
        self.step += 1
        beta1, beta2, eps = self.beta1, self.beta2, self.eps
        bias1 = 1.0 - beta1**self.step
        bias2 = 1.0 - beta2**self.step
        mults = lr_mults or {}
        for name in sorted(params):
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            a, b = self._scratch[name]
            m *= beta1
            np.multiply(g, 1.0 - beta1, out=a)
            m += a
            v *= beta2
            np.multiply(g, 1.0 - beta2, out=a)
            a *= g
            v += a
            np.divide(m, bias1, out=a)
            a *= lr * mults.get(name, 1.0)
            np.divide(v, bias2, out=b)
            np.sqrt(b, out=b)
            b += eps
            a /= b
            params[name] -= a


def _lr_multipliers(state: ModelState, cfg: TrainConfig) -> dict[str, float]:
    mult = cfg.last_layer_lr_mult
    if mult == 1.0:
        return {}
    out = {"image.w2": mult, "image.b2": mult}
    if not state.uses_prompts:
        out["head.weights"] = mult
        out["head.bias"] = mult
    return out


def _norm(x: np.ndarray) -> float:
    """Frobenius norm as max|x| * ||x / max|x|||, finite for every finite x,
    however large its entries."""
    scale = float(np.abs(x).max(initial=0.0))
    if scale == 0.0 or not np.isfinite(scale):
        return scale
    return scale * float(np.linalg.norm(x / scale))


def _diverged(state: ModelState, what: str) -> TrainingDivergedError:
    """The error for a fit gone non-finite: what went non-finite, and the
    norm of every trainable group."""
    norms = {k: _norm(v) for k, v in state.trainable_parameters().items()}
    return TrainingDivergedError(f"non-finite values {what}; parameter norms: {norms}")


def _finite(x: np.ndarray) -> bool:
    # As diffcore's finiteness check: vdot raises no floating-point flag,
    # and only an overflowing or non-finite sum falls through to the scan.
    return math.isfinite(np.vdot(x, x)) or bool(np.isfinite(x).all())


def train_step(
    state: ModelState,
    batch_x: np.ndarray,
    batch_y: np.ndarray,
    cfg: TrainConfig,
    adam: AdamState,
    lr: float | None = None,
) -> float:
    """One forward/backward/update; returns the batch loss value.

    A non-finite forward pass, or an update that leaves a group
    non-finite, raises TrainingDivergedError at this step.
    """
    if len(batch_y) == 0:
        raise ValueError("train_step requires a non-empty batch")
    try:
        tape, loss_node = forward_loss(state, batch_x, batch_y, cfg.temperature)
    except FloatingPointError as exc:
        raise _diverged(state, f"in forward pass ({exc})") from exc
    loss_value = float(tape.value(loss_node)[0, 0])
    # The tape's parameters are exactly the trainable groups.
    params = state.trainable_parameters()
    adam.update(
        params,
        tape.backward(loss_node),
        cfg.learning_rate if lr is None else lr,
        _lr_multipliers(state, cfg),
    )
    bad = [name for name, value in params.items() if not _finite(value)]
    if bad:
        raise _diverged(state, f"after Adam step {adam.step} in {', '.join(bad)}")
    return loss_value


@dataclass
class LossTrace:
    rows: list[tuple[int, float, float]] = field(default_factory=list)

    def append(self, epoch: int, mean_loss: float, lr: float) -> None:
        self.rows.append((epoch, mean_loss, lr))

    def to_csv(self, path) -> None:
        write_csv(path, ("epoch", "mean_loss", "lr"), self.rows)


@np.errstate(over="ignore", invalid="ignore")
def fit(state: ModelState, train_ds: OrdinalDataset, cfg: TrainConfig) -> LossTrace:
    """epochs x ceil(n / B) steps with a seeded shuffle per epoch.

    The learning rate is multiplied by the decay factor at the start of
    each epoch listed in decay_epochs (0-based). A fit that goes
    non-finite raises TrainingDivergedError; numpy's overflow and invalid
    warnings, which would only repeat that, are off while it runs.
    """
    cfg.validate()
    if len(train_ds) == 0:
        raise ValueError("cannot fit on an empty dataset")
    if state.method == ZEROSHOT:
        raise ValueError("the zeroshot method is evaluated untrained; fit does not apply")
    rng = np.random.default_rng(cfg.seed)
    adam = AdamState(state.trainable_parameters(), cfg)
    trace = LossTrace()
    lr = cfg.learning_rate
    n = len(train_ds)
    for epoch in range(cfg.epochs):
        if epoch in cfg.decay_epochs:
            lr *= cfg.lr_decay_factor
        perm = rng.permutation(n)
        losses = []
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            losses.append(
                train_step(
                    state, train_ds.features[idx], train_ds.labels[idx], cfg, adam, lr
                )
            )
        mean_loss = float(np.mean(losses))
        if not np.isfinite(mean_loss):
            raise TrainingDivergedError(f"non-finite epoch loss at epoch {epoch}")
        trace.append(epoch, mean_loss, lr)
    return trace


# ---------------------------------------------------------------------------
# checkpoints: one block file (encoders.write_blocks) per model, with a magic
# per model family


def _checkpoint_blocks(state: ModelState) -> tuple[bytes, dict[str, np.ndarray]]:
    """(magic, named blocks in file order) of the model's checkpoint:
    num_ranks as a 1x1 block, then every parameter group."""
    magic = PROMPT_MAGIC if state.uses_prompts else BASELINE_MAGIC
    return magic, {"num_ranks": np.array([[float(state.num_ranks)]]), **state.parameter_groups()}


def save_state(state: ModelState, path) -> None:
    magic, blocks = _checkpoint_blocks(state)
    write_blocks(path, magic, blocks.values())


def load_state_into(state: ModelState, path) -> ModelState:
    """Restore parameters saved by save_state into a freshly built model.

    A checkpoint of the other model family fails on its magic. num_ranks
    and every block's shape are checked against the model before anything
    is copied into its arrays, so a checkpoint that does not fit leaves the
    model as it was.
    """
    magic, current = _checkpoint_blocks(state)
    loaded = dict(zip(current, read_blocks(path, magic, len(current))))
    for name, array in loaded.items():
        expected = current[name].shape
        if array.shape != expected:
            raise ValueError(
                f"checkpoint {name} has shape {array.shape}; the model expects {expected}"
            )
        if name == "num_ranks" and array[0, 0] != state.num_ranks:
            raise ValueError(
                f"checkpoint num_ranks {array[0, 0]:g} != model num_ranks {state.num_ranks}"
            )
    del loaded["num_ranks"]
    for name, array in loaded.items():
        current[name][...] = array
    return state
