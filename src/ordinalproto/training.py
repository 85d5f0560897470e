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

The image encoder trains in every method. build_model decides the rest
of the method policy: it lists the prompt groups tune_rank / tune_ctx
disable in ModelState.frozen. A frozen group enters the prompt tape as a
constant, so backward neither computes nor returns its gradient, Adam
never touches it, and it stays bitwise identical. One seed drives
everything (init, shuffling), so identical configs reproduce identical
parameters.

A model keeps every parameter group in one dict, `ModelState.params`,
under the name the tape, Adam, the learning-rate multipliers, the
checkpoint and the divergence message all use for it. Before its first
step, `fit` moves every trainable group into one C-contiguous float64
vector (AdamState) and puts views of it in the dict, so the tape's
parameter nodes, evaluate, the checkpoint and the exported prototypes all
read the vector. Each step writes the gradients into the matching slices
of one gradient vector, and Adam and the finiteness check then each run
once over the whole vector. Frozen groups stay outside it.

A step's graph is split in two. The prompt head, the only graph the
prompt methods learn through, lives on a tape (_prompt_nodes): one per
fit, recorded by its first step and re-run by every later one. The tail,
the image encoder, the scores and the loss, is closed-form numpy
(_graph, then the loss), differentiated by hand in the tape's op order,
bitwise; its adjoint of the prototypes seeds the tape's reverse sweep.
The baseline has no prompt head and uses no tape. Fit and evaluate score
through the same forward half, _graph, so inference is the image encoder
matched against the prototypes fit trained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import matching, prompt
from .data import OrdinalDataset
from .diffcore import (Tape, all_finite, check_finite, guarded, l2_normalize_rows,
                       l2_normalize_rows_grad)
from .encoders import ImageEncoder, PseudoTextEncoder, write_blocks
from .metrics import ARGMAX, MetricReport, metric_report, predict
from .prompt import PromptConfig

ORDINALCLIP = "ordinalclip"
COOP = "coop"
BASELINE = "baseline"
ZEROSHOT = "zeroshot"
METHODS = (ORDINALCLIP, COOP, BASELINE, ZEROSHOT)

PROMPT_MAGIC = b"OPRM3"
# The groups the prompt tape reads; every other group is the closed-form
# tail's.
PROMPT_GROUPS = ("context", "base_ranks")
BASELINE_MAGIC = b"OPBH3"


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
        # A negative factor would turn the fit into gradient ascent.
        for name in ("lr_decay_factor", "last_layer_lr_mult"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        # An epoch at or past `epochs` never starts, and is allowed: a
        # config's default decay epoch may lie beyond a short fit. fit
        # decays once per epoch listed, so a repeated entry would be lost.
        for index, epoch in enumerate(self.decay_epochs):
            if epoch < 0:
                raise ValueError(f"decay_epochs entries must be >= 0, got {epoch}")
            if epoch in self.decay_epochs[:index]:
                raise ValueError(f"decay_epochs lists epoch {epoch} twice")
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
        # Scores are divided by the temperature.
        if not math.isfinite(1.0 / self.temperature):
            raise ValueError(f"temperature must have a finite reciprocal, got {self.temperature}")
        return self


@dataclass
class ModelState:
    """One model. `params` holds every parameter group under its name, in
    checkpoint order: PROMPT_GROUPS for a prompt method, `head.weights`
    and `head.bias` for the baseline, then the image encoder's
    ImageEncoder.NAMES. `frozen` names the groups the tune gates hold
    fixed (build_model sets it); they enter the prompt tape as constants
    and Adam never sees them. The frozen text encoder is set for the
    prompt methods only, the fixed interpolation matrix for ordinalclip
    only."""

    method: str
    params: dict[str, np.ndarray]
    text_encoder: PseudoTextEncoder | None = None
    frozen: tuple[str, ...] = ()
    interpolation: np.ndarray | None = None
    num_ranks: int = 0

    @property
    def uses_prompts(self) -> bool:
        return self.method != BASELINE

    def trainable_parameters(self) -> dict[str, np.ndarray]:
        """The groups Adam is allowed to update: every group not frozen,
        in `params` order."""
        return {name: value for name, value in self.params.items() if name not in self.frozen}


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
    trainable parameters, never the encoder. Its vocabulary holds
    max(vocab_size, num_ranks + num_context) tokens: ids 0..C-1 stand in
    for the rank words, and the context template
    (prompt.template_token_ids) takes the top num_context ids, so the two
    never overlap. The table is drawn last, row by row, so a larger
    vocabulary leaves its first rows as they are. A prompt method's caller
    passes a prompt config for num_ranks ranks, which build_model then
    validates; the baseline reads none.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; valid methods: {METHODS}")
    prompt_seed, image_seed = (
        int(s) for s in np.random.SeedSequence(init_seed).generate_state(2)
    )
    image = ImageEncoder.create(
        image_seed, input_dim=input_dim, hidden_dim=hidden_dim, latent_dim=latent_dim
    )
    if method == BASELINE:
        rng = np.random.default_rng(prompt_seed)
        head = {
            "head.weights": rng.normal(0.0, 0.01, (num_ranks, latent_dim)),
            "head.bias": np.zeros((1, num_ranks)),
        }
        return ModelState(method=method, params=head | image, num_ranks=num_ranks)
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
        vocab_size=max(vocab_size, num_ranks + prompt_cfg.num_context),
    )
    ctx, base = prompt.init_parameters(
        prompt_cfg, prompt_seed, token_table=text_encoder.token_table
    )
    interpolation = None
    if method == ORDINALCLIP:
        interpolation = prompt.build_interpolation_matrix(prompt_cfg)
    else:
        base = text_encoder.token_table[:num_ranks].copy()
    gates = {"context": prompt_cfg.tune_ctx, "base_ranks": prompt_cfg.tune_rank}
    return ModelState(
        method=method,
        params={"context": ctx, "base_ranks": base} | image,
        text_encoder=text_encoder,
        frozen=tuple(name for name, tuned in gates.items() if not tuned),
        interpolation=interpolation,
        num_ranks=num_ranks,
    )


# ---------------------------------------------------------------------------
# forward graphs


def _prompt_nodes(state: ModelState, tape: Tape) -> int:
    """Prototype node for the current prompt parameters. A group is a
    constant exactly when state.frozen names it, and a named parameter
    otherwise."""

    def leaf(name: str) -> int:
        array = state.params[name]
        return tape.constant(array) if name in state.frozen else tape.parameter(array, name)

    ctx_node = leaf("context")
    base_node = leaf("base_ranks")
    ranks_node = base_node
    if state.interpolation is not None:
        ranks_node = prompt.interpolate_rank_embeddings(tape, state.interpolation, base_node)
    table, prompts = prompt.assemble_sequences(tape, ctx_node, ranks_node)
    return state.text_encoder.encode(tape, table, prompts)


def _prototypes(state: ModelState, tape: Tape) -> np.ndarray:
    """A prompt model's prototypes off the prompt head: recorded on `tape`
    when it is empty, and otherwise re-run there. The re-run rebinds no
    leaf: the tape's parameter nodes are the groups themselves, which fit
    makes views that Adam moves in place."""
    if len(tape):
        tape.rerun({})
        return tape.value(len(tape) - 1)
    return tape.value(_prompt_nodes(state, tape))


def _graph(state: ModelState, prototypes: np.ndarray | None, batch_x: np.ndarray,
           check=check_finite) -> tuple[np.ndarray, tuple]:
    """(scores, what backward_loss reads) of one batch, the forward half fit
    and evaluate share: a prompt model's normalized image features against
    its prototypes, or the baseline's logits (prototypes None). check
    follows each step that can go non-finite (diffcore.guarded)."""
    features, image = ImageEncoder.encode(state.params, batch_x, check)
    if state.uses_prompts:
        embeddings, norms = l2_normalize_rows(features)
        scores, prototypes_t = matching.similarity(embeddings, prototypes, check)
        return scores, (image, embeddings, norms, prototypes_t)
    params = state.params
    logits, weights_t = matching.baseline_logits(params["head.weights"], params["head.bias"],
                                                 features, check)
    return logits, (image, features, weights_t)


def _tail_finite(state: ModelState) -> bool:
    """Whether every group the closed-form tail reads is finite."""
    return all(all_finite(value) for name, value in state.params.items()
               if name not in PROMPT_GROUPS)


def forward_loss(state: ModelState, tape: Tape, batch_x: np.ndarray, batch_y: np.ndarray,
                 temperature: float, tail_finite: bool | None = None) -> tuple[float, tuple]:
    """(loss, what backward_loss reads) of one batch.

    A prompt model's prototypes come off `tape` (_prototypes); the
    baseline leaves it empty. The tail, _graph and the loss, runs under
    diffcore.guarded as a re-run does: its groups are checked finite
    here, unless the caller passes tail_finite, which it knows (fit); the
    batch is checked in ImageEncoder.checked_batch and the labels in the
    loss. So one pass with the floating-point flags raising checks no
    value, and a raised flag runs the tail again with a check after each
    step and after the loss, naming the op a tape recording the tail
    would.
    """
    prototypes = _prototypes(state, tape) if state.uses_prompts else None
    labels = matching.label_column(batch_y)

    def tail(check):
        scores, kept = _graph(state, prototypes, batch_x, check)
        if state.uses_prompts:
            return matching.contrastive_loss(scores, labels, temperature, check), kept
        return matching.cross_entropy_loss(scores, labels, check), kept

    if tail_finite is None:
        tail_finite = _tail_finite(state)
    (loss, loss_kept), kept = guarded(tail, tail_finite)
    return loss, (loss_kept, kept)


def backward_loss(state: ModelState, tape: Tape, kept: tuple,
                  grads: dict[str, np.ndarray]) -> None:
    """Write the gradient of the loss forward_loss returned with `kept`,
    in every trainable group, into grads[name]: the tail's by hand, in the
    reverse of the tape's op order, then the prompt groups' by the prompt
    tape's reverse sweep, seeded with the prototypes' adjoint."""
    loss_kept, (image, *rest) = kept
    if state.uses_prompts:
        embeddings, norms, prototypes_t = rest
        d_scores = matching.contrastive_loss_grad(loss_kept)
        d_embeddings, d_prototypes = matching.similarity_grad(d_scores, embeddings, prototypes_t)
        d_features = l2_normalize_rows_grad(d_embeddings, embeddings, norms)
        tape.backward(len(tape) - 1, out=grads, seed=d_prototypes)
    else:
        features, weights_t = rest
        d_logits = matching.cross_entropy_loss_grad(loss_kept)
        d_features, grads["head.weights"][...], grads["head.bias"][...] = (
            matching.baseline_logits_grad(d_logits, features, weights_t))
    ImageEncoder.backward(state.params, image, d_features, grads)


def evaluate(
    state: ModelState,
    ds: OrdinalDataset,
    rule: str = ARGMAX,
    temperature: float = 1.0,
) -> tuple[MetricReport, np.ndarray]:
    """Predict a rank per sample from the _graph scores; returns the
    metrics and the unit-norm prototypes they were scored against. The
    baseline has no language prototypes; its head weight rows, normalized
    as l2-normalize-rows does, play that role so its ordinality is
    measurable the same way. The baseline predicts at temperature 1, the
    one its cross-entropy loss trains at; a prompt method at the given
    one, which its contrastive loss uses. Every step is checked as a
    recording checks it, and a non-finite one raises TrainingDivergedError,
    as in train_step.
    """
    # Overflow here is reported as divergence below, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            prototypes = _prototypes(state, Tape()) if state.uses_prompts else None
            scores, _ = _graph(state, prototypes, ds.features)
            if not state.uses_prompts:
                prototypes, _ = l2_normalize_rows(state.params["head.weights"])
                temperature = 1.0
        except FloatingPointError as exc:
            raise _diverged(state, f"in forward pass ({exc})") from exc
    predictions = predict(scores, rule=rule, temperature=temperature)
    return metric_report(predictions, ds.labels, prototypes, ds.num_ranks), prototypes


# ---------------------------------------------------------------------------
# optimization


class AdamState:
    """Adam over one flat parameter vector.

    The constructor copies the given groups, in order, into `values`, one
    C-contiguous float64 vector. `params` maps each group name to a view
    of its slice, shaped like the group, and `grads` to a view of the same
    slice of the gradient vector `grad`, which the caller fills before
    each update (Tape.backward(out=grads)). `lr_mults` maps a group name
    to a multiplier of its learning rate, 1.0 for a group it omits; a
    name of no given group is ignored. `mults` holds them one per
    element, so the rate vector mults * lr that an update takes gives
    each entry the double lr * mult.

    An update works in place on whole vectors, with the same numpy calls
    however many groups there are: every temporary lands in one of two
    scratch vectors, allocated once. It performs the same float operations
    in the same order as the textbook per-group expressions
    m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g and
    p -= (rate*(m/bias1)) / (sqrt(v/bias2) + eps), and each is elementwise,
    so the result is bitwise the same.
    """

    def __init__(self, params: dict[str, np.ndarray], cfg: TrainConfig,
                 lr_mults: dict[str, float]):
        sizes = [value.size for value in params.values()]
        size = sum(sizes)
        self.values = np.empty(size)
        self.grad = np.empty(size)
        self.params = _views(self.values, params)
        self.grads = _views(self.grad, params)
        for name, value in params.items():
            self.params[name][...] = value
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._scratch = (np.empty(size), np.empty(size))
        self.mults = np.repeat([lr_mults.get(name, 1.0) for name in params], sizes)
        self.step = 0
        self.beta1 = cfg.beta1
        self.beta2 = cfg.beta2
        self.eps = cfg.adam_eps

    def update(self, rate: np.ndarray) -> None:
        """One Adam step of `values` at the per-element rate vector `rate`
        (mults * lr), from the gradient in `grad`."""
        self.step += 1
        beta1, beta2, eps = self.beta1, self.beta2, self.eps
        bias1 = 1.0 - beta1**self.step
        bias2 = 1.0 - beta2**self.step
        g, m, v = self.grad, self.m, self.v
        a, b = self._scratch
        m *= beta1
        np.multiply(g, 1.0 - beta1, out=a)
        m += a
        v *= beta2
        np.multiply(g, 1.0 - beta2, out=a)
        a *= g
        v += a
        np.divide(m, bias1, out=a)
        a *= rate
        np.divide(v, bias2, out=b)
        np.sqrt(b, out=b)
        b += eps
        a /= b
        self.values -= a


def _views(vector: np.ndarray, groups: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Consecutive slices of vector, one per group in order, each a view
    shaped like its group."""
    views, start = {}, 0
    for name, value in groups.items():
        views[name] = vector[start : start + value.size].reshape(value.shape)
        start += value.size
    return views


def _norm(x: np.ndarray, scale: float) -> float:
    """Frobenius norm of x given scale = max|x|, as scale * ||x / scale||.
    The sum of squares cannot overflow, so the norm is finite whenever it
    fits in a float64; that of a group with several entries near the
    float64 maximum does not, and reads inf."""
    if scale == 0.0 or not np.isfinite(scale):
        return scale
    return scale * float(np.linalg.norm(x / scale))


def _diverged(state: ModelState, what: str) -> TrainingDivergedError:
    """The error for a fit gone non-finite: what went non-finite, and the
    norm and max|x| of every trainable group. max|x| is finite for every
    finite group, however large its norm."""
    groups = []
    for name, value in state.trainable_parameters().items():
        peak = float(np.abs(value).max(initial=0.0))
        groups.append(f"{name} {_norm(value, peak):.6g} (max|x| {peak:.6g})")
    return TrainingDivergedError(
        f"non-finite values {what}; parameter norms: {', '.join(groups)}"
    )


def train_step(
    state: ModelState,
    batch_x: np.ndarray,
    batch_y: np.ndarray,
    cfg: TrainConfig,
    adam: AdamState,
    rate: np.ndarray,
    tape: Tape,
    tail_finite: bool | None = None,
) -> float:
    """One forward/backward/update at the per-element rate vector `rate`
    (AdamState.update); returns the batch loss value. tail_finite, when
    given, is whether every group the closed-form tail reads is finite
    (forward_loss).

    The model's trainable groups are the views adam.params, as fit
    arranges, so the prompt tape's parameter nodes hold them and see each
    update in place. `tape` is the fit's prompt tape: the first step
    records the prompt head on it, and every later step re-runs it
    (forward_loss). The re-run checks its named leaves, the prompt groups
    Adam moved in place, and runs every op with floating-point flags
    raising and no per-op check, as the closed-form tail does. A
    non-finite leaf or a raised flag runs the ops again with recording's
    check after each, so a divergence names the op a recorded step would
    (Tape.rerun, diffcore.guarded). A non-finite forward pass, or an
    update that leaves a group non-finite, raises TrainingDivergedError at
    this step; only then are the groups scanned one by one, to name the
    non-finite ones. ImageEncoder.checked_batch, which every batch
    passes, rejects an empty one.
    """
    try:
        loss, kept = forward_loss(state, tape, batch_x, batch_y, cfg.temperature, tail_finite)
    except FloatingPointError as exc:
        raise _diverged(state, f"in forward pass ({exc})") from exc
    backward_loss(state, tape, kept, adam.grads)
    adam.update(rate)
    if not all_finite(adam.values):
        bad = [name for name, value in adam.params.items() if not all_finite(value)]
        raise _diverged(state, f"after Adam step {adam.step} in {', '.join(bad)}")
    return loss


@np.errstate(over="ignore", invalid="ignore")
def fit(state: ModelState, train_ds: OrdinalDataset,
        cfg: TrainConfig) -> list[tuple[int, float, float]]:
    """epochs x ceil(n / B) steps with a seeded shuffle per epoch; returns
    one (epoch, mean_loss, lr) row per epoch.

    The learning rate is multiplied by the decay factor at the start of
    each epoch listed in decay_epochs (0-based), and each epoch's steps
    take the rate vector adam.mults * lr. The prompt head does not depend
    on the batch, so the first step records it on the fit's one tape and
    every later step re-runs that tape (train_step); parameters and
    losses are bitwise those of recording every step. A fit that goes
    non-finite raises TrainingDivergedError; numpy's overflow and invalid
    warnings, which would only repeat that, are off while it runs.

    Before the first step every trainable group moves into the flat
    vector of the fit's AdamState: state.params holds its views from then
    on, also after fit returns. The tail's groups are checked finite once,
    there: they are trainable, so from then on each step's post-Adam check
    of the whole vector proves them finite for the next (train_step's
    tail_finite).

    Callers pass a validated config (TrainConfig.validate) and a non-empty
    training set, and never fit zeroshot, which is evaluated untrained.
    """
    rng = np.random.default_rng(cfg.seed)
    # last_layer_lr_mult scales the image encoder's last layer and the
    # baseline's head; AdamState skips a name it does not hold.
    last_layer = ("image.w2", "image.b2", "head.weights", "head.bias")
    adam = AdamState(state.trainable_parameters(), cfg,
                     dict.fromkeys(last_layer, cfg.last_layer_lr_mult))
    state.params.update(adam.params)
    tail_finite = _tail_finite(state)
    rows = []
    lr = cfg.learning_rate
    n = len(train_ds)
    tape = Tape()
    for epoch in range(cfg.epochs):
        if epoch in cfg.decay_epochs:
            lr *= cfg.lr_decay_factor
        rate = adam.mults * lr
        perm = rng.permutation(n)
        losses = []
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            losses.append(
                train_step(state, train_ds.features[idx], train_ds.labels[idx], cfg, adam, rate,
                           tape, tail_finite)
            )
        mean_loss = float(np.mean(losses))
        if not np.isfinite(mean_loss):
            raise TrainingDivergedError(f"non-finite epoch loss at epoch {epoch}")
        rows.append((epoch, mean_loss, lr))
    return rows


# ---------------------------------------------------------------------------
# checkpoints: one block file (encoders.write_blocks) per model, with a magic
# per model family


def _checkpoint_blocks(state: ModelState) -> tuple[bytes, dict[str, np.ndarray]]:
    """(magic, named blocks in file order) of the model's checkpoint:
    num_ranks as a 1x1 block, then every parameter group."""
    magic = PROMPT_MAGIC if state.uses_prompts else BASELINE_MAGIC
    return magic, {"num_ranks": np.array([[float(state.num_ranks)]]), **state.params}


def save_state(state: ModelState, path) -> None:
    magic, blocks = _checkpoint_blocks(state)
    write_blocks(path, magic, blocks.values())
