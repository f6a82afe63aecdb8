"""Desk-scale encoder-based inversion with a frozen toy generator.

The prompt "a @ music with * as the rhythm" is tokenized against a fixed
eight-word vocabulary. The embeddings of "@" and "*" are not looked up:
they are produced by a trainable genre encoder (one-hot genre -> embedding)
and a trainable rhythm projector (binary rhythm sequence -> embedding).
Everything else is frozen: the embedding table and a toy generator that
maps the mean-pooled prompt embedding either to a regression target
(frozen linear map, MSE) or to token logits (frozen linear map, softmax
cross-entropy). Training therefore updates only the two encoders, which is
checked literally through content digests of the frozen blocks.

Gradients are hand-derived and verified against central finite differences;
`gradcheck` reports the worst relative error per parameter block, probing
most blocks in bulk from the forward's cached intermediates.

All arithmetic is float64 and single-threaded, so a (seed, config, dataset)
triple reproduces parameters and checkpoints bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields
from functools import partial

import numpy as np

from .pose import finite_array, load_json, number_array, positive_number

PROMPT_WORDS = ("a", "@", "music", "with", "*", "as", "the", "rhythm")
GENRE_SLOT = PROMPT_WORDS.index("@")
RHYTHM_SLOT = PROMPT_WORDS.index("*")

MODES = ("regression", "categorical")

GRADCHECK_STEP = 1e-5
GRADCHECK_THRESHOLD = 1e-4
GRADCHECK_SEED = 0


@dataclass(frozen=True)
class ModelDims:
    """Sizes kept small enough for exhaustive finite-difference checks."""

    embed_dim: int = 16      # d: textual embedding width
    hidden: int = 32         # MLP hidden width
    attn_dim: int = 16       # per-frame width inside the attention projector
    rhythm_len: int = 308    # fixed rhythm input length (5.12 s at 60 fps)
    n_genres: int = 10
    target_dim: int = 24     # regression target width
    audio_vocab: int = 32    # toy audio-token vocabulary (categorical mode)

    def __post_init__(self):
        for name in ("embed_dim", "hidden", "attn_dim", "rhythm_len", "target_dim", "audio_vocab"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.n_genres < 2:
            raise ValueError("need at least 2 genres")

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class FrozenModel:
    """The frozen embedding table and toy generator; never updated by training.

    table: (len(PROMPT_WORDS), d), one row per prompt word. weights: the
    generator, (target_dim, d) outputs scored by MSE in regression mode or
    (audio_vocab, d) logits scored by cross-entropy in categorical mode.
    """

    mode: str
    table: np.ndarray
    weights: np.ndarray

    def digests(self) -> dict:
        return {"embedding_table": _digest(self.table), "generator": _digest(self.weights)}


@dataclass
class GenreEncoderParams:
    weight: np.ndarray  # (d, G)
    bias: np.ndarray    # (d,)

    @staticmethod
    def shapes(dims: ModelDims) -> dict:
        return {"weight": (dims.embed_dim, dims.n_genres), "bias": (dims.embed_dim,)}


@dataclass
class MlpProjector:
    """Rhythm bits -> embedding through one tanh hidden layer."""

    w1: np.ndarray  # (h, T)
    b1: np.ndarray  # (h,)
    w2: np.ndarray  # (d, h)
    b2: np.ndarray  # (d,)

    @staticmethod
    def shapes(dims: ModelDims) -> dict:
        return {
            "w1": (dims.hidden, dims.rhythm_len),
            "b1": (dims.hidden,),
            "w2": (dims.embed_dim, dims.hidden),
            "b2": (dims.embed_dim,),
        }

    def forward(self, rhythms: np.ndarray):
        hidden = np.tanh(rhythms @ self.w1.T + self.b1)
        return hidden @ self.w2.T + self.b2, (hidden,)

    def backward(self, rhythms: np.ndarray, trace, dslot: np.ndarray) -> dict:
        (hidden,) = trace
        dz1 = (dslot @ self.w2) * (1.0 - hidden * hidden)
        return {
            "w1": dz1.T @ rhythms,
            "b1": dz1.sum(axis=0),
            "w2": dslot.T @ hidden,
            "b2": dslot.sum(axis=0),
        }

    def probes(self, rhythms: np.ndarray, trace) -> dict:
        """Gradient-check probes (see _dense_probes) for every block."""
        (hidden,) = trace
        w1, b1 = _dense_probes(rhythms, self.w2, rhythms @ self.w1.T + self.b1)
        w2, b2 = _dense_probes(hidden, np.eye(len(self.w2)))
        return {"w1": w1, "b1": b1, "w2": w2, "b2": b2}


@dataclass
class AttnPosProjector:
    """Rhythm bits -> embedding through mean-pooled self-attention over frames."""

    frame_embed: np.ndarray  # (d',): lifts the per-frame scalar
    pos_table: np.ndarray    # (T, d')
    w_query: np.ndarray      # (d', d')
    w_key: np.ndarray        # (d', d')
    w_value: np.ndarray      # (d', d')
    w_out: np.ndarray        # (d, d')
    b_out: np.ndarray        # (d,)

    @staticmethod
    def shapes(dims: ModelDims) -> dict:
        a = dims.attn_dim
        return {
            "frame_embed": (a,),
            "pos_table": (dims.rhythm_len, a),
            "w_query": (a, a),
            "w_key": (a, a),
            "w_value": (a, a),
            "w_out": (dims.embed_dim, a),
            "b_out": (dims.embed_dim,),
        }

    def forward(self, rhythms: np.ndarray):
        x = rhythms[:, :, None] * self.frame_embed + self.pos_table  # (B, T, d')
        q = x @ self.w_query.T
        k = x @ self.w_key.T
        v = x @ self.w_value.T
        scale = 1.0 / math.sqrt(self.frame_embed.shape[0])
        n, t = rhythms.shape
        attn = np.empty((n, t, t))
        col = np.empty((n, t))
        # one sample's (T, T) block at a time, so it stays in cache across its passes
        for b, s in enumerate(attn):
            np.matmul(q[b], k[b].T, out=s)  # the scores, turned into softmax rows in place
            s *= scale
            s -= s.max(axis=1, keepdims=True)
            np.exp(s, out=s)
            s /= s.sum(axis=1, keepdims=True)
            # the mean over query rows commutes with "@ v": pool = colmean(attn) @ v
            col[b] = s.mean(axis=0)
        pool = (col[:, None, :] @ v)[:, 0]
        return pool @ self.w_out.T + self.b_out, (x, q, k, v, attn, col, pool, scale)

    def backward(self, rhythms: np.ndarray, trace, dslot: np.ndarray) -> dict:
        x, q, k, v, attn, col, pool, scale = trace
        dpool = dslot @ self.w_out  # (B, d')
        # every query row receives dpool / T, so d(attn) is the same row u for all of them
        u = (v @ dpool[:, :, None])[:, :, 0] / x.shape[1]  # (B, T)
        dv = col[:, :, None] * dpool[:, None, :]
        dq = np.empty_like(q)
        dk = np.empty_like(k)
        ds = np.empty(attn.shape[1:])  # the softmax backward of one sample
        for b, a in enumerate(attn):
            np.subtract(u[b], a @ u[b, :, None], out=ds)
            ds *= a
            ds *= scale
            np.matmul(ds, k[b], out=dq[b])
            np.matmul(ds.T, q[b], out=dk[b])
        dx = dq @ self.w_query + dk @ self.w_key + dv @ self.w_value
        return {
            "frame_embed": np.tensordot(rhythms, dx, axes=([0, 1], [0, 1])),
            "pos_table": dx.sum(axis=0),
            "w_query": np.tensordot(dq, x, axes=([0, 1], [0, 1])),
            "w_key": np.tensordot(dk, x, axes=([0, 1], [0, 1])),
            "w_value": np.tensordot(dv, x, axes=([0, 1], [0, 1])),
            "w_out": dslot.T @ pool,
            "b_out": dslot.sum(axis=0),
        }

    def probes(self, rhythms: np.ndarray, trace) -> dict:
        """Gradient-check probes for all but frame_embed, w_query and w_key,
        which move every row of q or k."""
        x, q, k, v, attn, col, pool, scale = trace
        w_out, b_out = _dense_probes(pool, np.eye(len(self.w_out)))
        # pool = (col @ x) @ w_value.T: the attention does not depend on v
        w_value, _ = _dense_probes((col[:, None, :] @ x)[:, 0], self.w_out)
        rows = attn @ v  # each query row's output; pool is their mean

        def pos_table(t, delta):
            # moving pos_table[t, c] moves row t of q, k and v only; P = delta.size probes
            dq, dk, dv = ((delta[..., None] * w.T).reshape(-1, w.shape[0])
                          for w in (self.w_query, self.w_key, self.w_value))
            qt, kt, vt = q[:, t, None] + dq, k[:, t, None] + dk, v[:, t, None] + dv  # (B, P, d')
            s = qt @ k.transpose(0, 2, 1)  # softmax row t, recomputed
            s[:, :, t] = (qt * kt).sum(axis=-1)
            s *= scale
            s -= s.max(axis=-1, keepdims=True)
            np.exp(s, out=s)
            s /= s.sum(axis=-1, keepdims=True)
            total = s @ v + s[:, :, t, None] * dv
            # every other row i scales its column-t weight by exp(scale q_i . dk), then
            # renormalises from its sum of 1; its output moves in O(d')
            grow = np.expm1(scale * (q @ dk.T)).transpose(0, 2, 1)  # (B, P, T)
            at = attn[:, None, :, t]
            w = 1.0 / (1.0 + at * grow)
            w[:, :, t] = 0.0
            total += w @ rows
            total += (at * (grow + 1.0) * w).sum(axis=-1)[..., None] * vt
            total -= (at * w).sum(axis=-1)[..., None] * v[:, t, None]
            shift = (total / x.shape[1] - pool[:, None]) @ self.w_out.T  # (B, P, d)
            return shift.transpose(1, 0, 2).reshape(delta.shape + (len(q), -1))

        return {"pos_table": pos_table, "w_value": w_value, "w_out": w_out, "b_out": b_out}


def _dense_probes(inputs, m, z=None):
    """(weight, bias) gradient-check probes of a layer z = inputs @ weight.T + bias.

    Moving weight[i, j] by delta moves z[:, i] by delta * inputs[:, j] (a bias
    weighs a column of ones) and the slot by m[:, i] times that, or times the
    change in tanh(z[:, i]) when z is given. A probe maps block row r and its
    (2, L) +-step changes to the (2, L, B, d) slot shifts.
    """
    def probe(x, r, delta):
        # block row r holds flat coordinates r * L ... r * L + L - 1, each an (i, j)
        i, j = np.divmod(r * delta.shape[1] + np.arange(delta.shape[1]), x.shape[1])
        change = delta[..., None] * x.T[j]  # (2, L, B)
        if z is not None:
            change = np.tanh(z.T[i] + change) - np.tanh(z.T[i])
        return change[..., None] * m.T[i][:, None, :]

    return partial(probe, inputs), partial(probe, np.ones((len(inputs), 1)))


PROJECTORS = {"mlp": MlpProjector, "attnpos": AttnPosProjector}
VARIANTS = tuple(PROJECTORS)


@dataclass
class EncoderParams:
    """The only trainable state: genre encoder plus one rhythm projector."""

    genre: GenreEncoderParams
    rhythm: MlpProjector | AttnPosProjector

    @property
    def variant(self) -> str:
        return next(name for name, cls in PROJECTORS.items() if type(self.rhythm) is cls)

    def blocks(self) -> dict:
        """Named parameter arrays: genre then rhythm, each in field order."""
        parts = [(part.name, getattr(self, part.name)) for part in fields(self)]
        return {f"{name}.{f.name}": getattr(p, f.name) for name, p in parts for f in fields(p)}


@dataclass(frozen=True)
class TrainingConfig:
    """Documented defaults: at these settings the teacher-student experiment
    cuts the loss by well over 90% (ratio ~0.04 on the default seeds)."""

    variant: str = "mlp"
    mode: str = "regression"
    learning_rate: float = 1.0
    epochs: int = 2000
    seed: int = 7
    frozen_seed: int = 1001

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        # learning_rate 0 is allowed: it makes training a no-op by contract.
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning_rate must be nonnegative, got {self.learning_rate!r}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be nonnegative, got {self.epochs!r}")

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Sample:
    """One training example: rhythm bits, one-hot genre, generator target."""

    rhythm_bits: np.ndarray
    genre: np.ndarray
    target: np.ndarray


def _digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=np.float64).tobytes()).hexdigest()


def build_frozen(dims: ModelDims, mode: str, seed: int) -> FrozenModel:
    """Construct the frozen embedding table and toy generator from one seed.

    Both are standard normal scaled by 1/sqrt(d), drawn in a fixed order:
    table first, then the generator matrix for the requested mode.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    rng = np.random.default_rng(seed)
    d = dims.embed_dim
    table = rng.standard_normal((len(PROMPT_WORDS), d)) / math.sqrt(d)
    rows = dims.target_dim if mode == "regression" else dims.audio_vocab
    weights = rng.standard_normal((rows, d)) / math.sqrt(d)
    return FrozenModel(mode=mode, table=table, weights=weights)


def init_encoder_params(dims: ModelDims, variant: str, seed: int) -> EncoderParams:
    """Seeded uniform [-0.1, 0.1] init; blocks are drawn in blocks() order."""
    if variant not in PROJECTORS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    rng = np.random.default_rng(seed)

    def draw(cls):
        shapes = cls.shapes(dims)
        return cls(**{f.name: rng.uniform(-0.1, 0.1, shapes[f.name]) for f in fields(cls)})

    return EncoderParams(genre=draw(GenreEncoderParams), rhythm=draw(PROJECTORS[variant]))


def _fit_length(bits, length: int) -> np.ndarray:
    """Validate rhythm input values and pad with zeros / truncate at the tail."""
    v = finite_array(np.ravel(bits), "rhythm input values", 1)
    if (v < 0).any() or (v > 1).any():
        raise ValueError("rhythm input values must lie in [0, 1]")
    out = np.zeros(length)
    out[: len(v)] = v[:length]
    return out


def _check_one_hot(g) -> np.ndarray:
    g = np.asarray(g, dtype=np.float64).reshape(-1)
    if not (((g == 0.0) | (g == 1.0)).all() and g.sum() == 1.0):
        raise ValueError("genre input must be one-hot")
    return g


def _stack_targets(targets, dims: ModelDims, mode: str) -> np.ndarray:
    """Regression: the (B, target_dim) targets. Categorical: a (B, V) weight
    matrix holding 1/len(ids) per listed id, so a repeated id counts once per listing."""
    if mode == "regression":
        t = np.stack([np.asarray(x, dtype=np.float64).reshape(-1) for x in targets])
        expected = (len(targets), dims.target_dim)
        if t.shape != expected:
            raise ValueError(f"target shape {t.shape} does not match output {expected}")
        return t
    n_vocab = dims.audio_vocab
    weights = np.zeros((len(targets), n_vocab))
    for row, target in zip(weights, targets):
        ids = np.asarray(target).reshape(-1)
        # integral floats such as 1.0 are ids; 1.7 or an empty list is not a target
        if ids.size == 0 or (ids != np.floor(ids)).any() or ids.min() < 0 or ids.max() >= n_vocab:
            raise ValueError(
                f"target token ids must be a nonempty list of integers in [0, {n_vocab})"
            )
        np.add.at(row, ids.astype(np.int64), 1.0 / ids.size)
    return weights


@dataclass(frozen=True)
class PreparedBatch:
    """Validated, length-fitted batch stacked for vectorized training."""

    mode: str
    rhythms: np.ndarray  # (B, T)
    genres: np.ndarray   # (B, G)
    targets: np.ndarray  # (B, target_dim) regression targets or (B, V) token-id weights


def prepare_batch(batch, dims: ModelDims, mode: str) -> PreparedBatch:
    """Validate and stack a list of Samples; a PreparedBatch of this mode passes through.

    Loops that evaluate the same batch many times (training epochs, gradient
    check probes) prepare it once and pass the PreparedBatch on.
    """
    if isinstance(batch, PreparedBatch):
        if batch.mode != mode:
            raise ValueError(f"batch was prepared for {batch.mode!r}, not {mode!r}")
        return batch
    batch = list(batch)
    if not batch:
        raise ValueError("batch must be nonempty")
    rhythms = np.stack([_fit_length(s.rhythm_bits, dims.rhythm_len) for s in batch])
    genres = np.stack([_check_one_hot(s.genre) for s in batch])
    if genres.shape[1] != dims.n_genres:
        raise ValueError(f"genre input must have {dims.n_genres} entries, got {genres.shape[1]}")
    targets = _stack_targets([s.target for s in batch], dims, mode)
    return PreparedBatch(mode=mode, rhythms=rhythms, genres=genres, targets=targets)


def _batch_forward(params: EncoderParams, frozen: FrozenModel, prep: PreparedBatch):
    """The forward pass: (pooled, v_genre, v_rhythm, trace), one row per sample.

    v_genre and v_rhythm are the "@" and "*" slot embeddings; pooled is the
    mean over the prompt with both slots substituted; trace holds the
    rhythm projector's intermediates for the backward pass.
    """
    v_genre = np.tanh(prep.genres @ params.genre.weight.T + params.genre.bias)
    v_rhythm, trace = params.rhythm.forward(prep.rhythms)
    # non-slot prompt rows contribute a constant to the pooled mean
    rows = frozen.table.copy()
    rows[GENRE_SLOT] = 0.0
    rows[RHYTHM_SLOT] = 0.0
    pooled = (rows.sum(axis=0) + v_genre + v_rhythm) / len(PROMPT_WORDS)
    return pooled, v_genre, v_rhythm, trace


def _batch_loss_grad(frozen: FrozenModel, pooled: np.ndarray, targets: np.ndarray, grad=True):
    """Mean loss over the trailing (B, out) axes of pooled (B, d) or a (..., B, d)
    stack of gradient-check probes, and, if grad, its gradient w.r.t. pooled."""
    n = pooled.shape[-2]
    out = pooled @ frozen.weights.T  # (..., B, target_dim) outputs or (..., B, V) logits
    if frozen.mode == "regression":
        diff = out - targets
        m = diff.shape[-1]
        loss = (diff * diff).sum(axis=(-2, -1)) / (n * m)
        return loss, (2.0 / (n * m)) * diff @ frozen.weights if grad else None
    top = out.max(axis=-1, keepdims=True)
    logz = top[..., 0] + np.log(np.exp(out - top).sum(axis=-1))
    loss = (logz - (targets * out).sum(axis=-1)).mean(axis=-1)
    return loss, ((np.exp(out - logz[..., None]) - targets) / n) @ frozen.weights if grad else None


def batch_loss(params: EncoderParams, frozen: FrozenModel, batch, dims: ModelDims = ModelDims()) -> float:
    """Mean reconstruction loss over a batch, forward only."""
    prep = prepare_batch(batch, dims, frozen.mode)
    pooled, _, _, _ = _batch_forward(params, frozen, prep)
    return float(_batch_loss_grad(frozen, pooled, prep.targets, grad=False)[0])


def batch_loss_and_gradients(
    params: EncoderParams, frozen: FrozenModel, batch, dims: ModelDims = ModelDims()
):
    """Mean loss and exact analytic gradients for the encoder parameters only.

    The embedding table and generator are constants of the computation, so
    no gradient exists for them by construction.
    """
    prep = prepare_batch(batch, dims, frozen.mode)
    pooled, v_genre, _, trace = _batch_forward(params, frozen, prep)
    loss, dpooled = _batch_loss_grad(frozen, pooled, prep.targets)
    dslot = dpooled / len(PROMPT_WORDS)  # only the two slot rows depend on parameters
    dz_g = dslot * (1.0 - v_genre * v_genre)
    grads = {"genre.weight": dz_g.T @ prep.genres, "genre.bias": dz_g.sum(axis=0)}
    for name, grad in params.rhythm.backward(prep.rhythms, trace, dslot).items():
        grads[f"rhythm.{name}"] = grad
    return float(loss), grads


@dataclass
class TrainResult:
    params: EncoderParams
    frozen: FrozenModel
    loss_history: list
    config: TrainingConfig
    dims: ModelDims
    frozen_digests: dict


def train(config: TrainingConfig, dataset, dims: ModelDims = ModelDims()) -> TrainResult:
    """Full-batch gradient descent on the encoder parameters.

    The loss history has epochs + 1 entries: the loss before each update and
    the final loss. Divergence (non-finite loss) raises ValueError with the
    epoch index; the overflow on the way there raises no warning of its own.
    The frozen blocks are digest-checked before and after as a guard.
    """
    prep = prepare_batch(dataset, dims, config.mode)
    frozen = build_frozen(dims, config.mode, config.frozen_seed)
    digests = frozen.digests()
    params = init_encoder_params(dims, config.variant, config.seed)
    blocks = params.blocks()  # the updates below are in place, so the map stays valid
    history = []
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            loss, grads = batch_loss_and_gradients(params, frozen, prep, dims)
            if not math.isfinite(loss):
                raise ValueError(f"training diverged at epoch {epoch}: loss is not finite")
            history.append(loss)
            for name, grad in grads.items():
                blocks[name] -= config.learning_rate * grad
        final = batch_loss(params, frozen, prep, dims)
    if not math.isfinite(final):
        raise ValueError(f"training diverged at epoch {config.epochs}: loss is not finite")
    history.append(final)
    if frozen.digests() != digests:
        raise RuntimeError("frozen blocks changed during training")
    return TrainResult(
        params=params,
        frozen=frozen,
        loss_history=history,
        config=config,
        dims=dims,
        frozen_digests=digests,
    )


@dataclass(frozen=True)
class GradCheckReport:
    """Worst relative error per parameter block, analytic vs central differences.

    Relative error is |analytic - fd| / max(|analytic|, |fd|, 1e-6); the
    floor keeps finite-difference roundoff on near-zero coordinates from
    registering as disagreement. worst_index holds, per block, the flat
    index of the first coordinate with that block's error.
    """

    variant: str
    mode: str
    seed: int
    step: float
    threshold: float
    block_errors: dict
    worst_index: dict
    max_error: float
    passed: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


def make_random_batch(dims: ModelDims, mode: str, n_samples: int, rng) -> list:
    """Random rhythm bits (about 10% ones), genres, and targets for checks."""
    batch = []
    for _ in range(n_samples):
        bits = (rng.random(dims.rhythm_len) < 0.1).astype(np.float64)
        genre = np.zeros(dims.n_genres)
        genre[rng.integers(dims.n_genres)] = 1.0
        if mode == "regression":
            target = rng.standard_normal(dims.target_dim)
        else:
            target = rng.integers(0, dims.audio_vocab, size=1)
        batch.append(Sample(rhythm_bits=bits, genre=genre, target=target))
    return batch


def _probe_losses(params: EncoderParams, frozen: FrozenModel, prep: PreparedBatch) -> dict:
    """Per block, the (2, size) batch losses with each coordinate moved by +step and
    -step: a block row per stacked loss where a probe exists, else batch_loss."""
    pooled, _, _, trace = _batch_forward(params, frozen, prep)
    probes = {f"rhythm.{name}": p for name, p in params.rhythm.probes(prep.rhythms, trace).items()}
    g = params.genre
    probes["genre.weight"], probes["genre.bias"] = _dense_probes(
        prep.genres, np.eye(len(g.weight)), prep.genres @ g.weight.T + g.bias)
    losses = {}
    for name, block in params.blocks().items():
        flat = block.reshape(-1)
        out = losses[name] = np.empty((2, flat.size))
        probe = probes.get(name)
        if probe is None:
            for i in range(flat.size):
                keep = flat[i]
                for sign, step in enumerate((GRADCHECK_STEP, -GRADCHECK_STEP)):
                    flat[i] = keep + step
                    out[sign, i] = batch_loss(params, frozen, prep)
                flat[i] = keep
            continue
        width = block.shape[-1]  # one block row at a time keeps the stacks small
        rows = out.reshape(2, -1, width)
        for r, row in enumerate(block.reshape(-1, width)):
            delta = np.stack([(row + GRADCHECK_STEP) - row, (row - GRADCHECK_STEP) - row])
            moved = pooled + probe(r, delta) / len(PROMPT_WORDS)
            rows[:, r] = _batch_loss_grad(frozen, moved, prep.targets, grad=False)[0]
    return losses


def gradcheck(
    variant: str,
    mode: str,
    seed: int = GRADCHECK_SEED,
    dims: ModelDims = ModelDims(),
    n_samples: int = 3,
) -> GradCheckReport:
    """Compare analytic encoder gradients against central finite differences."""
    frozen = build_frozen(dims, mode, np.random.default_rng([seed, 0]).integers(2**32))
    params = init_encoder_params(dims, variant, np.random.default_rng([seed, 1]).integers(2**32))
    raw = make_random_batch(dims, mode, n_samples, np.random.default_rng([seed, 2]))
    batch = prepare_batch(raw, dims, mode)  # validated once, not on every probe
    _, analytic = batch_loss_and_gradients(params, frozen, batch, dims)
    block_errors = {}
    worst_index = {}
    for name, (up, down) in _probe_losses(params, frozen, batch).items():
        fd = (up - down) / (2.0 * GRADCHECK_STEP)
        a = analytic[name].reshape(-1)
        errors = np.abs(a - fd) / np.maximum(np.maximum(np.abs(a), np.abs(fd)), 1e-6)
        worst_index[name] = int(errors.argmax())
        block_errors[name] = float(errors[worst_index[name]])
    max_error = max(block_errors.values())
    return GradCheckReport(
        variant=variant,
        mode=mode,
        seed=int(seed),
        step=GRADCHECK_STEP,
        threshold=GRADCHECK_THRESHOLD,
        block_errors=block_errors,
        worst_index=worst_index,
        max_error=max_error,
        passed=bool(max_error < GRADCHECK_THRESHOLD),
    )


def make_teacher_student_dataset(
    dims: ModelDims,
    variant: str,
    mode: str,
    n_samples: int,
    seed: int,
    frozen_seed: int,
) -> list:
    """Targets produced by a hidden same-architecture teacher.

    In regression mode the teacher's generator outputs are the targets, so a
    zero-loss solution exists; in categorical mode the targets are the
    teacher's argmax tokens.
    """
    frozen = build_frozen(dims, mode, frozen_seed)
    rng = np.random.default_rng(seed)
    teacher = init_encoder_params(dims, variant, int(rng.integers(2**32)))
    batch = make_random_batch(dims, mode, n_samples, rng)
    pooled, _, _, _ = _batch_forward(teacher, frozen, prepare_batch(batch, dims, mode))
    outputs = pooled @ frozen.weights.T
    if mode == "categorical":
        outputs = [np.array([int(np.argmax(out))]) for out in outputs]
    return [
        Sample(rhythm_bits=s.rhythm_bits, genre=s.genre, target=target)
        for s, target in zip(batch, outputs)
    ]


def sample_json_dict(sample: Sample, fps: float = 60.0) -> dict:
    """The on-disk form of one training sample (cmd_train_toy input schema)."""
    bits = [int(b) if float(b).is_integer() else float(b) for b in sample.rhythm_bits]
    target = np.asarray(sample.target)
    return {
        "rhythm": {"fps": fps, "bits": bits},
        "genre": [int(g) for g in sample.genre],
        "target": [int(t) for t in target] if target.dtype.kind in "iu" else target.tolist(),
    }


def sample_from_json_dict(doc) -> Sample:
    """Inverse of sample_json_dict: checks the types and structure of one sample.

    Every number must be finite, and "rhythm.fps", where given, positive.
    Values (bits in [0, 1], a one-hot genre, the target's shape and token ids)
    are checked where the sample is used, by prepare_batch.
    Integer targets keep an integer dtype, so token ids stay ids.
    """
    if not isinstance(doc, dict):
        raise ValueError("sample must be a JSON object")
    rhythm = doc.get("rhythm")
    if not isinstance(rhythm, dict):
        raise ValueError('sample needs a "rhythm" object with a "bits" list')
    if "fps" in rhythm:
        positive_number(rhythm["fps"], '"rhythm.fps"')
    target = doc.get("target")
    integral = isinstance(target, list) and all(type(t) is int for t in target)
    return Sample(
        rhythm_bits=number_array(rhythm.get("bits"), '"rhythm.bits"'),
        genre=number_array(doc.get("genre"), '"genre"'),
        target=number_array(target, '"target"', np.int64 if integral else np.float64),
    )


def checkpoint_bytes(result: TrainResult) -> bytes:
    """Canonical JSON encoding; bit-identical for identical runs."""
    doc = {
        "version": 1,
        "config": result.config.to_json_dict(),
        "dims": result.dims.to_json_dict(),
        "params": {name: block.tolist() for name, block in result.params.blocks().items()},
        "frozen_digests": dict(result.frozen_digests),
        "final_loss": result.loss_history[-1],
    }
    return json.dumps(doc, sort_keys=True).encode("utf-8")


def load_checkpoint(data: bytes) -> dict:
    doc = load_json(data, "malformed checkpoint JSON")
    if not isinstance(doc, dict) or doc.get("version") != 1:
        raise ValueError("unsupported checkpoint format")
    return doc


def loss_history_csv(history) -> str:
    lines = ["epoch,loss"]
    lines.extend(f"{epoch},{loss!r}" for epoch, loss in enumerate(history))
    return "\n".join(lines) + "\n"
