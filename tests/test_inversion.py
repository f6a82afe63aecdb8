import ast
import dataclasses
import math
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from kinebeat import inversion
from kinebeat.inversion import (
    GENRE_SLOT,
    GRADCHECK_STEP,
    GRADCHECK_THRESHOLD,
    PROMPT_WORDS,
    RHYTHM_SLOT,
    VARIANTS,
    GenreEncoderParams,
    ModelDims,
    PreparedBatch,
    Sample,
    TrainingConfig,
    _batch_forward,
    batch_loss,
    batch_loss_and_gradients,
    build_frozen,
    checkpoint_bytes,
    gradcheck,
    init_encoder_params,
    load_checkpoint,
    loss_history_csv,
    make_random_batch,
    make_teacher_student_dataset,
    prepare_batch,
    sample_from_json_dict,
    sample_json_dict,
    train,
)

from oracles import (
    attnpos_rhythm_oracle,
    cross_entropy_oracle,
    genre_encoder_oracle,
    mean_pool_oracle,
    mlp_rhythm_oracle,
    mse_oracle,
    prompt_embeddings_oracle,
)

SMALL = ModelDims(
    embed_dim=6, hidden=5, attn_dim=4, rhythm_len=9, n_genres=3, target_dim=4, audio_vocab=5
)
ATTN_BLOCKS = ("frame_embed", "pos_table", "w_query", "w_key", "w_value", "w_out", "b_out")
TOKENS = range(len(PROMPT_WORDS))  # the prompt's token ids index the table directly


def small_batch(mode, seed=0, n=3):
    return make_random_batch(SMALL, mode, n, np.random.default_rng(seed))


def one_hot(i, n=SMALL.n_genres):
    g = np.zeros(n)
    g[i] = 1.0
    return g


def sample(bits, genre=None, target=None):
    return Sample(
        rhythm_bits=np.asarray(bits, dtype=np.float64),
        genre=one_hot(0) if genre is None else np.asarray(genre, dtype=np.float64),
        target=np.zeros(SMALL.target_dim) if target is None else target,
    )


def forward(params, samples, frozen=None):
    """(pooled, v_genre, v_rhythm) of the batched forward on SMALL samples."""
    frozen = frozen or build_frozen(SMALL, "regression", seed=1)
    prep = prepare_batch(samples, SMALL, frozen.mode)
    pooled, v_genre, v_rhythm, _ = _batch_forward(params, frozen, prep)
    return pooled, v_genre, v_rhythm


def slots(params, bits, genre=None):
    """The "@" and "*" slot embeddings of one sample."""
    _, v_genre, v_rhythm = forward(params, [sample(bits, genre)])
    return v_genre[0], v_rhythm[0]


def oracle_slots(params, bits, genre):
    b = {name: block.tolist() for name, block in params.blocks().items()}
    v_genre = genre_encoder_oracle(b["genre.weight"], b["genre.bias"], np.asarray(genre).tolist())
    bits = np.asarray(bits, dtype=np.float64).tolist()
    if params.variant == "mlp":
        w = [b[f"rhythm.{n}"] for n in ("w1", "b1", "w2", "b2")]
        return v_genre, mlp_rhythm_oracle(*w, bits)
    return v_genre, attnpos_rhythm_oracle(*(b[f"rhythm.{n}"] for n in ATTN_BLOCKS), bits)


def oracle_loss(params, frozen, s):
    """Per-sample reconstruction loss, composed from the scalar oracles."""
    rows = prompt_embeddings_oracle(
        frozen.table.tolist(), TOKENS, GENRE_SLOT, RHYTHM_SLOT,
        *oracle_slots(params, s.rhythm_bits, s.genre),
    )
    pooled = mean_pool_oracle(rows)
    weights = frozen.weights.tolist()
    if frozen.mode == "regression":
        return mse_oracle(weights, pooled, np.asarray(s.target).tolist())
    return cross_entropy_oracle(weights, pooled, [int(t) for t in s.target])


def zeroed(params):
    for block in params.blocks().values():
        block[...] = 0.0
    return params


def dense_attnpos_loss_and_gradients(blocks, prompt_rows, genre_slot, rhythm_slot, gen_weights, mode,
                                     genres, rhythms, targets):
    """The attnpos loss and gradients as computed before the attention was
    mean-pooled in closed form: o = attn @ v is formed, and the backward pass
    broadcasts do to every query row. Plain arrays in and out; blocks maps the
    nine parameter names to arrays. Also returns the softmax rows."""
    n_tokens = len(prompt_rows)
    v_genre = np.tanh(genres @ blocks["genre.weight"].T + blocks["genre.bias"])
    fe, pos = blocks["rhythm.frame_embed"], blocks["rhythm.pos_table"]
    wq, wk, wv = blocks["rhythm.w_query"], blocks["rhythm.w_key"], blocks["rhythm.w_value"]
    w_out, b_out = blocks["rhythm.w_out"], blocks["rhythm.b_out"]
    x = rhythms[:, :, None] * fe + pos  # (B, T, d')
    q = x @ wq.T
    k = x @ wk.T
    v = x @ wv.T
    scale = 1.0 / math.sqrt(fe.shape[0])
    scores = (q @ k.transpose(0, 2, 1)) * scale
    scores -= scores.max(axis=2, keepdims=True)
    attn = np.exp(scores)
    attn /= attn.sum(axis=2, keepdims=True)
    o = attn @ v
    pool = o.mean(axis=1)
    v_rhythm = pool @ w_out.T + b_out
    rows = prompt_rows.copy()
    rows[genre_slot] = 0.0
    rows[rhythm_slot] = 0.0
    fixed = rows.sum(axis=0)
    pooled = (fixed + v_genre + v_rhythm) / n_tokens

    n = pooled.shape[0]
    if mode == "regression":
        t = np.stack([np.asarray(y, dtype=np.float64).reshape(-1) for y in targets])
        diff = pooled @ gen_weights.T - t
        m = diff.shape[1]
        loss = float((diff * diff).sum() / (n * m))
        dpooled = (2.0 / (n * m)) * diff @ gen_weights
    else:
        logits = pooled @ gen_weights.T
        logz = logits.max(axis=1) + np.log(
            np.exp(logits - logits.max(axis=1, keepdims=True)).sum(axis=1)
        )
        dlogits = np.exp(logits - logz[:, None])
        losses = np.empty(n)
        for i, target in enumerate(targets):
            ids = np.atleast_1d(np.asarray(target)).astype(np.int64)
            losses[i] = logz[i] - logits[i, ids].mean()
            np.add.at(dlogits[i], ids, -1.0 / len(ids))
        loss = float(losses.mean())
        dpooled = (dlogits / n) @ gen_weights

    grads = {}
    dslot = dpooled / n_tokens
    dz_g = dslot * (1.0 - v_genre * v_genre)
    grads["genre.weight"] = dz_g.T @ genres
    grads["genre.bias"] = dz_g.sum(axis=0)
    n_frames = x.shape[1]
    grads["rhythm.w_out"] = dslot.T @ pool
    grads["rhythm.b_out"] = dslot.sum(axis=0)
    dpool = dslot @ w_out  # (B, d')
    do = np.broadcast_to(dpool[:, None, :] / n_frames, x.shape)
    dattn = do @ v.transpose(0, 2, 1)
    dv = attn.transpose(0, 2, 1) @ do
    ds = attn * (dattn - (dattn * attn).sum(axis=2, keepdims=True))
    ds = ds * scale
    dq = ds @ k
    dk = ds.transpose(0, 2, 1) @ q
    grads["rhythm.w_query"] = np.tensordot(dq, x, axes=([0, 1], [0, 1]))
    grads["rhythm.w_key"] = np.tensordot(dk, x, axes=([0, 1], [0, 1]))
    grads["rhythm.w_value"] = np.tensordot(dv, x, axes=([0, 1], [0, 1]))
    dx = dq @ wq + dk @ wk + dv @ wv
    grads["rhythm.pos_table"] = dx.sum(axis=0)
    grads["rhythm.frame_embed"] = np.tensordot(rhythms, dx, axes=([0, 1], [0, 1]))
    return loss, grads, attn


def assert_matches_dense(params, frozen, batch, dims):
    """batch_loss_and_gradients against the dense reference: loss at rel 1e-12,
    each gradient block within 1e-12 of that block's largest magnitude."""
    prep = prepare_batch(batch, dims, frozen.mode)
    expected_loss, expected, attn = dense_attnpos_loss_and_gradients(
        params.blocks(), frozen.table, GENRE_SLOT, RHYTHM_SLOT,
        frozen.weights, frozen.mode, prep.genres, prep.rhythms, [s.target for s in batch],
    )
    loss, grads = batch_loss_and_gradients(params, frozen, prep, dims)
    assert loss == pytest.approx(expected_loss, rel=1e-12)
    assert sorted(grads) == sorted(expected) and len(grads) == 9
    for name, ref in expected.items():
        assert np.abs(grads[name] - ref).max() <= 1e-12 * np.abs(ref).max(), name
    return attn


def batched_attnpos_loss_and_gradients(blocks, prompt_rows, genre_slot, rhythm_slot, gen_weights, mode,
                                       genres, rhythms, target_rows):
    """The attnpos loss and gradients as computed before the attention was
    blocked per sample: every softmax and backward pass runs over the whole
    (B, T, T) buffer at once. Plain arrays in and out; blocks maps the nine
    parameter names to arrays, and target_rows are the prepared (B, m)
    regression targets or (B, V) token-id weights."""
    n_tokens = len(prompt_rows)
    v_genre = np.tanh(genres @ blocks["genre.weight"].T + blocks["genre.bias"])
    fe, pos = blocks["rhythm.frame_embed"], blocks["rhythm.pos_table"]
    wq, wk, wv = blocks["rhythm.w_query"], blocks["rhythm.w_key"], blocks["rhythm.w_value"]
    w_out, b_out = blocks["rhythm.w_out"], blocks["rhythm.b_out"]
    x = rhythms[:, :, None] * fe + pos  # (B, T, d')
    q = x @ wq.T
    k = x @ wk.T
    v = x @ wv.T
    scale = 1.0 / math.sqrt(fe.shape[0])
    attn = q @ k.transpose(0, 2, 1)
    attn *= scale
    attn -= attn.max(axis=2, keepdims=True)
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=2, keepdims=True)
    col = attn.mean(axis=1)  # (B, T)
    pool = (col[:, None, :] @ v)[:, 0]
    v_rhythm = pool @ w_out.T + b_out
    rows = prompt_rows.copy()
    rows[genre_slot] = 0.0
    rows[rhythm_slot] = 0.0
    pooled = (rows.sum(axis=0) + v_genre + v_rhythm) / n_tokens

    n = pooled.shape[0]
    out = pooled @ gen_weights.T
    if mode == "regression":
        diff = out - target_rows
        m = diff.shape[1]
        loss = float((diff * diff).sum() / (n * m))
        dpooled = (2.0 / (n * m)) * diff @ gen_weights
    else:
        logz = out.max(axis=1) + np.log(np.exp(out - out.max(axis=1, keepdims=True)).sum(axis=1))
        p = np.exp(out - logz[:, None])
        loss = float((logz - (target_rows * out).sum(axis=1)).mean())
        dpooled = ((p - target_rows) / n) @ gen_weights

    dslot = dpooled / n_tokens
    dz_g = dslot * (1.0 - v_genre * v_genre)
    dpool = dslot @ w_out  # (B, d')
    u = (v @ dpool[:, :, None])[:, :, 0] / x.shape[1]  # (B, T)
    dv = col[:, :, None] * dpool[:, None, :]
    ds = u[:, None, :] - attn @ u[:, :, None]
    ds *= attn
    ds *= scale
    dq = ds @ k
    dk = ds.transpose(0, 2, 1) @ q
    dx = dq @ wq + dk @ wk + dv @ wv
    return loss, {
        "genre.weight": dz_g.T @ genres,
        "genre.bias": dz_g.sum(axis=0),
        "rhythm.frame_embed": np.tensordot(rhythms, dx, axes=([0, 1], [0, 1])),
        "rhythm.pos_table": dx.sum(axis=0),
        "rhythm.w_query": np.tensordot(dq, x, axes=([0, 1], [0, 1])),
        "rhythm.w_key": np.tensordot(dk, x, axes=([0, 1], [0, 1])),
        "rhythm.w_value": np.tensordot(dv, x, axes=([0, 1], [0, 1])),
        "rhythm.w_out": dslot.T @ pool,
        "rhythm.b_out": dslot.sum(axis=0),
    }


class TestAssemble:
    def test_substituting_table_rows_is_identity(self):
        # slot embeddings equal to the table's own rows pool to the plain prompt mean
        frozen = build_frozen(SMALL, "regression", seed=1)
        entries = frozen.table
        entries[GENRE_SLOT] = 0.0  # tanh(0 g + 0) is exactly 0
        params = zeroed(init_encoder_params(SMALL, "mlp", seed=0))
        params.rhythm.b2[...] = entries[RHYTHM_SLOT]
        pooled, _, _ = forward(params, [sample(np.ones(SMALL.rhythm_len))], frozen)
        expected = mean_pool_oracle(entries.tolist())
        np.testing.assert_allclose(pooled[0], expected, rtol=0, atol=1e-15)

    def test_rhythm_slot_locality(self):
        params = init_encoder_params(SMALL, "mlp", seed=1)
        rng = np.random.default_rng(2)
        bits = (rng.random((2, SMALL.rhythm_len)) < 0.5).astype(float)
        bits[1, 0] = 1.0 - bits[0, 0]
        _, v_genre, v_rhythm = forward(params, [sample(b) for b in bits])
        np.testing.assert_array_equal(v_genre[0], v_genre[1])
        assert (v_rhythm[0] != v_rhythm[1]).any()

    def test_zero_slots_leave_other_rows_alone(self):
        frozen = build_frozen(SMALL, "regression", seed=1)
        params = zeroed(init_encoder_params(SMALL, "attnpos", seed=0))
        pooled, v_genre, v_rhythm = forward(params, [sample(np.ones(3))], frozen)
        zero = [0.0] * SMALL.embed_dim
        np.testing.assert_array_equal(v_genre[0], zero)
        np.testing.assert_array_equal(v_rhythm[0], zero)
        rows = prompt_embeddings_oracle(
            frozen.table.tolist(), TOKENS, GENRE_SLOT, RHYTHM_SLOT, zero, zero
        )
        np.testing.assert_allclose(pooled[0], mean_pool_oracle(rows), rtol=0, atol=1e-15)

    def test_dimension_mismatch(self):
        frozen = build_frozen(SMALL, "regression", seed=1)
        params = init_encoder_params(SMALL, "mlp", seed=0)
        too_wide = sample(np.ones(3), genre=one_hot(0, SMALL.n_genres + 1))
        with pytest.raises(ValueError, match="genre input must have 3 entries"):
            batch_loss(params, frozen, [too_wide], SMALL)


class TestForwards:
    def test_mlp_all_zero_weights(self):
        params = zeroed(init_encoder_params(SMALL, "mlp", seed=0))
        _, out = slots(params, np.ones(SMALL.rhythm_len))
        np.testing.assert_array_equal(out, np.zeros(SMALL.embed_dim))

    def test_mlp_zero_input_closed_form(self):
        params = init_encoder_params(SMALL, "mlp", seed=3)
        p = params.rhythm
        _, out = slots(params, np.zeros(SMALL.rhythm_len))
        np.testing.assert_allclose(out, p.w2 @ np.tanh(p.b1) + p.b2, rtol=1e-15)

    def test_mlp_matches_straight_line_reimplementation(self):
        params = init_encoder_params(SMALL, "mlp", seed=5)
        rng = np.random.default_rng(6)
        r = (rng.random(SMALL.rhythm_len) < 0.3).astype(float)
        _, expected = oracle_slots(params, r, one_hot(0))
        _, got = slots(params, r)
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_attnpos_matches_straight_line_reimplementation(self):
        params = init_encoder_params(SMALL, "attnpos", seed=7)
        rng = np.random.default_rng(8)
        r = (rng.random(SMALL.rhythm_len) < 0.3).astype(float)
        _, expected = oracle_slots(params, r, one_hot(0))
        _, got = slots(params, r)
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_rhythm_input_validation_and_padding(self):
        params = init_encoder_params(SMALL, "mlp", seed=0)
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            prepare_batch([sample(np.full(SMALL.rhythm_len, 2.0))], SMALL, "regression")
        _, short = slots(params, np.ones(3))
        padded = np.concatenate([np.ones(3), np.zeros(SMALL.rhythm_len - 3)])
        np.testing.assert_array_equal(short, slots(params, padded)[1])

    def test_genre_zero_params(self):
        params = init_encoder_params(SMALL, "mlp", seed=0)
        params.genre = GenreEncoderParams(weight=np.zeros((6, 3)), bias=np.zeros(6))
        out, _ = slots(params, np.ones(3), one_hot(1))
        np.testing.assert_array_equal(out, np.zeros(6))

    def test_genre_one_hot_selects_column(self):
        rng = np.random.default_rng(4)
        params = init_encoder_params(SMALL, "mlp", seed=0)
        params.genre = GenreEncoderParams(rng.standard_normal((6, 3)), rng.standard_normal(6))
        g = params.genre
        out, _ = slots(params, np.ones(3), one_hot(2))
        np.testing.assert_allclose(out, np.tanh(g.weight[:, 2] + g.bias), rtol=1e-15)

    def test_genre_rejects_non_one_hot(self):
        for bad in ([1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.5, 0.5, 0.0]):
            with pytest.raises(ValueError, match="one-hot"):
                prepare_batch([sample(np.ones(3), genre=bad)], SMALL, "regression")

    def test_distinct_genres_distinct_embeddings(self):
        rng = np.random.default_rng(9)
        params = init_encoder_params(SMALL, "mlp", seed=0)
        params.genre = GenreEncoderParams(rng.standard_normal((6, 3)), rng.standard_normal(6))
        pair = [sample(np.ones(3), one_hot(0)), sample(np.ones(3), one_hot(1))]
        _, v_genre, _ = forward(params, pair)
        assert np.linalg.norm(v_genre[0] - v_genre[1]) > 0


class TestReconstructionLoss:
    def test_exact_target_gives_zero(self):
        frozen = build_frozen(SMALL, "regression", seed=2)
        params = init_encoder_params(SMALL, "attnpos", seed=3)
        batch = small_batch("regression", seed=0)
        pooled, _, _ = forward(params, batch, frozen)
        outputs = pooled @ frozen.weights.T
        exact = [Sample(s.rhythm_bits, s.genre, y) for s, y in zip(batch, outputs)]
        assert batch_loss(params, frozen, exact, SMALL) == 0.0

    def test_uniform_logits_cross_entropy(self):
        dims = ModelDims(embed_dim=6, audio_vocab=4)
        frozen = build_frozen(dims, "categorical", seed=2)
        frozen.weights[...] = 0.0  # logits = 0 @ pooled = 0, uniform softmax
        params = init_encoder_params(dims, "mlp", seed=0)
        raw = make_random_batch(dims, "categorical", 2, np.random.default_rng(1))
        batch = [Sample(s.rhythm_bits, s.genre, np.array([1])) for s in raw]
        loss = batch_loss(params, frozen, batch, dims)
        assert loss == pytest.approx(math.log(4.0), rel=1e-12)

    def test_matches_duplicate_implementation(self):
        frozen = build_frozen(SMALL, "regression", seed=3)
        params = init_encoder_params(SMALL, "mlp", seed=11)
        batch = small_batch("regression", seed=11, n=5)
        expected = sum(oracle_loss(params, frozen, s) for s in batch) / len(batch)
        assert batch_loss(params, frozen, batch, SMALL) == pytest.approx(expected, rel=1e-12)

    def test_shape_mismatch(self):
        frozen = build_frozen(SMALL, "regression", seed=3)
        params = init_encoder_params(SMALL, "mlp", seed=0)
        with pytest.raises(ValueError, match="target shape"):
            batch_loss(params, frozen, [sample(np.ones(3), target=np.zeros(3))], SMALL)
        with pytest.raises(ValueError, match="target shape"):
            prepare_batch([sample(np.ones(3), target=np.zeros(3))], SMALL, "regression")

    def test_categorical_target_ids(self):
        frozen = build_frozen(SMALL, "categorical", seed=3)
        params = init_encoder_params(SMALL, "mlp", seed=0)

        def loss(ids):
            return batch_loss(params, frozen, [sample(np.ones(3), target=np.asarray(ids))], SMALL)

        for bad in ([], [1.7], [-1], [SMALL.audio_vocab], [float("nan")]):
            with pytest.raises(ValueError, match="nonempty list of integers"):
                loss(bad)
            with pytest.raises(ValueError, match="nonempty list of integers"):
                prepare_batch([sample(np.ones(3), target=np.asarray(bad))], SMALL, "categorical")
        assert loss([1.0]) == loss([1])

    def test_prepared_batch_keeps_its_mode(self):
        # with target_dim == audio_vocab, regression targets have the shape of
        # categorical id weights, so only the recorded mode tells them apart
        dims = dataclasses.replace(SMALL, target_dim=SMALL.audio_vocab)
        raw = make_random_batch(dims, "regression", 2, np.random.default_rng(0))
        prep = prepare_batch(raw, dims, "regression")
        assert prepare_batch(prep, dims, "regression") is prep
        frozen = build_frozen(dims, "categorical", seed=3)
        params = init_encoder_params(dims, "mlp", seed=0)
        for fn in (batch_loss, batch_loss_and_gradients):
            with pytest.raises(ValueError, match="prepared for 'regression', not 'categorical'"):
                fn(params, frozen, prep, dims)

    @pytest.mark.parametrize("variant", ["mlp", "attnpos"])
    def test_multi_id_categorical_targets(self, variant):
        # each sample scores the mean cross-entropy over its listed ids; a repeated id counts twice
        frozen = build_frozen(SMALL, "categorical", seed=8)
        params = init_encoder_params(SMALL, variant, seed=9)
        raw = small_batch("categorical", seed=10)
        targets = ([1, 1, 3], [0, 4], [2])
        batch = [Sample(s.rhythm_bits, s.genre, np.array(t)) for s, t in zip(raw, targets)]
        expected = sum(oracle_loss(params, frozen, s) for s in batch) / len(batch)
        assert batch_loss(params, frozen, batch, SMALL) == pytest.approx(expected, rel=1e-12)
        _, analytic = batch_loss_and_gradients(params, frozen, batch, SMALL)
        for name, block in params.blocks().items():
            flat = block.reshape(-1)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + GRADCHECK_STEP
                up = batch_loss(params, frozen, batch, SMALL)
                flat[i] = keep - GRADCHECK_STEP
                down = batch_loss(params, frozen, batch, SMALL)
                flat[i] = keep
                fd = (up - down) / (2.0 * GRADCHECK_STEP)
                a = analytic[name].reshape(-1)[i]
                assert abs(a - fd) / max(abs(a), abs(fd), 1e-6) < GRADCHECK_THRESHOLD, (name, i)


class TestGradients:
    @pytest.mark.parametrize("variant", ["mlp", "attnpos"])
    @pytest.mark.parametrize("mode", ["regression", "categorical"])
    def test_gradcheck_passes(self, variant, mode):
        report = gradcheck(variant, mode, seed=5, dims=SMALL, n_samples=2)
        assert report.passed, report.block_errors
        assert report.max_error < 1e-4

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_gradcheck_deterministic(self, variant):
        a = gradcheck(variant, "regression", seed=5, dims=SMALL, n_samples=2)
        b = gradcheck(variant, "regression", seed=5, dims=SMALL, n_samples=2)
        assert a == b

    def test_zero_residual_zero_gradient(self):
        frozen = build_frozen(SMALL, "regression", seed=4)
        params = init_encoder_params(SMALL, "mlp", seed=5)
        raw = small_batch("regression", seed=6)
        pooled, _, _ = forward(params, raw, frozen)
        outputs = pooled @ frozen.weights.T
        batch = [Sample(s.rhythm_bits, s.genre, y) for s, y in zip(raw, outputs)]
        loss, grads = batch_loss_and_gradients(params, frozen, batch, SMALL)
        assert loss <= 1e-30
        assert all(np.linalg.norm(g) < 1e-8 for g in grads.values())

    def test_batch_paths_agree(self):
        # the vectorized batch loss equals the mean of the scalar per-sample oracle
        for variant in ("mlp", "attnpos"):
            for mode in ("regression", "categorical"):
                frozen = build_frozen(SMALL, mode, seed=4)
                params = init_encoder_params(SMALL, variant, seed=5)
                batch = small_batch(mode, seed=7)
                expected = sum(oracle_loss(params, frozen, s) for s in batch) / len(batch)
                got = batch_loss(params, frozen, batch, SMALL)
                assert got == pytest.approx(expected, rel=1e-12), (variant, mode)

    @pytest.mark.parametrize("mode", ["regression", "categorical"])
    @pytest.mark.parametrize("n_samples", [1, 3, 16])
    @pytest.mark.parametrize("rhythm_len", [1, 5, 308])
    @pytest.mark.parametrize("attn_dim", [3, 16])
    def test_attnpos_matches_dense_reference(self, mode, n_samples, rhythm_len, attn_dim):
        dims = ModelDims(attn_dim=attn_dim, rhythm_len=rhythm_len)
        frozen = build_frozen(dims, mode, seed=rhythm_len)
        params = init_encoder_params(dims, "attnpos", seed=attn_dim)
        batch = make_random_batch(dims, mode, n_samples, np.random.default_rng(n_samples))
        assert_matches_dense(params, frozen, batch, dims)

    @pytest.mark.parametrize("mode", ["regression", "categorical"])
    @pytest.mark.parametrize("n_samples", [1, 3, 16])
    @pytest.mark.parametrize("dims", [ModelDims(), SMALL], ids=["default", "small"])
    def test_attnpos_is_bitwise_the_batched_reference(self, mode, n_samples, dims):
        # blocking the attention per sample changes no summation order, so no byte moves
        frozen = build_frozen(dims, mode, seed=n_samples)
        params = init_encoder_params(dims, "attnpos", seed=n_samples + 1)
        raw = make_random_batch(dims, mode, n_samples, np.random.default_rng(n_samples + 2))
        prep = prepare_batch(raw, dims, mode)
        expected_loss, expected = batched_attnpos_loss_and_gradients(
            params.blocks(), frozen.table, GENRE_SLOT, RHYTHM_SLOT,
            frozen.weights, mode, prep.genres, prep.rhythms, prep.targets,
        )
        loss, grads = batch_loss_and_gradients(params, frozen, prep, dims)
        assert loss == expected_loss
        assert sorted(grads) == sorted(expected) and len(grads) == 9
        for name, ref in expected.items():
            assert np.array_equal(grads[name], ref), name  # shape and every value, exactly

    def test_attnpos_matches_dense_reference_with_a_nearly_one_hot_row(self):
        # a large first coordinate of frame 0, which only the query sees, makes
        # softmax row 0 nearly one-hot: there attn @ u nearly cancels u
        dims = ModelDims()
        frozen = build_frozen(dims, "categorical", seed=4)
        params = init_encoder_params(dims, "attnpos", seed=5)
        p = params.rhythm
        p.w_key[:, 0] = 0.0
        p.w_value[:, 0] = 0.0
        p.pos_table[0, 0] = 1e4
        batch = make_random_batch(dims, "categorical", 3, np.random.default_rng(6))
        attn = assert_matches_dense(params, frozen, batch, dims)
        assert (attn[:, 0].max(axis=1) > 0.99).all()
        assert attn[:, 1:].max() < 0.01

    def test_attnpos_memory_is_bounded_by_the_attention(self):
        # one (B, T, T) softmax buffer and one (T, T) backward block per thread
        dims = ModelDims()
        frozen = build_frozen(dims, "categorical", seed=1)
        params = init_encoder_params(dims, "attnpos", seed=2)
        raw = make_random_batch(dims, "categorical", 16, np.random.default_rng(3))
        batch = prepare_batch(raw, dims, "categorical")
        attn_bytes = 16 * dims.rhythm_len ** 2 * 8

        def peak(fn):
            tracemalloc.start()
            try:
                fn(params, frozen, batch, dims)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(batch_loss_and_gradients) < 2 * attn_bytes
        assert peak(batch_loss) < 1.5 * attn_bytes

    def test_gradcheck_worst_index_reproduces_block_error(self):
        assert_gradcheck_reports_first_largest_error("attnpos", "categorical", seed=5)

    def test_gradcheck_reports_the_first_of_tied_errors(self):
        # two coordinates of rhythm.w1 tie at that block's largest error
        assert_gradcheck_reports_first_largest_error("mlp", "regression", seed=1)


class TestAttnPosHelperThread:
    """The attention's per-sample blocks, forward and backward, are split by
    run_on_two_threads: the caller runs samples 0, 2, 4, ... and one helper thread
    the rest, with the caller's numpy error state; a helper's failure comes back to
    the caller and no thread outlives a call. One sample, or no thread to be had,
    runs every block in the caller."""

    @staticmethod
    def make_batch(n_samples, dims=SMALL, mode="categorical"):
        frozen = build_frozen(dims, mode, seed=n_samples)
        params = init_encoder_params(dims, "attnpos", seed=n_samples + 1)
        raw = make_random_batch(dims, mode, n_samples, np.random.default_rng(n_samples + 2))
        return params, frozen, prepare_batch(raw, dims, mode)

    @staticmethod
    def record_parts(monkeypatch):
        """(thread id, samples) of every part of a block loop, as each one runs."""
        parts, split = [], inversion.run_on_two_threads

        def recording(work, items):
            def part(samples):
                parts.append((threading.get_ident(), list(samples)))
                work(samples)

            split(part, items)

        monkeypatch.setattr(inversion, "run_on_two_threads", recording)
        return parts

    @pytest.mark.parametrize("n_samples, helpers", [(1, 0), (2, 2), (5, 2), (16, 2)])
    def test_one_helper_per_pass_when_a_second_sample_exists(self, n_samples, helpers, monkeypatch):
        params, frozen, batch = self.make_batch(n_samples)
        started, start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda t: (started.append(t), start(t))[1])
        parts = self.record_parts(monkeypatch)
        batch_loss_and_gradients(params, frozen, batch, SMALL)
        assert len(started) == helpers  # one for the forward, one for the backward
        samples = list(range(n_samples))
        caller = threading.get_ident()
        if helpers:
            halves = sorted([(True, samples[::2]), (False, samples[1::2])] * 2)
            assert sorted((ident == caller, s) for ident, s in parts) == halves
        else:
            assert parts == [(caller, samples)] * 2

    def test_no_thread_to_start_runs_every_block_in_the_caller(self, monkeypatch):
        params, frozen, batch = self.make_batch(5, ModelDims())
        expected_loss, expected = batch_loss_and_gradients(params, frozen, batch)

        def cannot_start(thread):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", cannot_start)
        parts = self.record_parts(monkeypatch)
        threads = threading.active_count()
        loss, grads = batch_loss_and_gradients(params, frozen, batch)
        assert loss == expected_loss
        assert sorted(grads) == sorted(expected) and len(grads) == 9
        for name, ref in expected.items():
            assert grads[name].tobytes() == ref.tobytes(), name
        assert parts == [(threading.get_ident(), list(range(5)))] * 2
        assert threading.active_count() == threads

    @pytest.mark.parametrize("failing", ["helper", "caller"])
    def test_a_failed_block_raises_in_the_caller(self, failing, monkeypatch):
        class BlockFailed(Exception):
            pass

        caller, softmax, threads_seen = threading.get_ident(), inversion._softmax_rows, set()

        def softmax_failing_in_one_thread(s, scale):
            threads_seen.add(threading.get_ident())
            if (threading.get_ident() == caller) == (failing == "caller"):
                raise BlockFailed(failing)
            if failing == "caller":
                time.sleep(0.05)  # the helper outlasts the caller's failure unless joined
            softmax(s, scale)

        monkeypatch.setattr(inversion, "_softmax_rows", softmax_failing_in_one_thread)
        params, frozen, batch = self.make_batch(4)
        threads = threading.active_count()
        with pytest.raises(BlockFailed, match=failing):
            batch_loss_and_gradients(params, frozen, batch, SMALL)
        assert threading.active_count() == threads
        assert caller in threads_seen and len(threads_seen) == 2

    def test_divergence_warns_in_neither_thread(self):
        # no outer np.errstate: train's own over/invalid="ignore" must reach the helper
        ds = make_teacher_student_dataset(SMALL, "attnpos", "regression", 4, seed=3, frozen_seed=2)
        cfg = TrainingConfig(variant="attnpos", learning_rate=1e9, epochs=200, seed=3, frozen_seed=2)
        threads = threading.active_count()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="diverged at epoch"):
                train(cfg, ds, SMALL)
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert threading.active_count() == threads


def assert_gradcheck_reports_first_largest_error(variant, mode, seed, n_samples=2):
    """Recompute every coordinate's error, one at a time, from gradcheck's own +-step
    losses (TestProbeLosses pins those to batch_loss); each block reports its
    largest, at the first index."""
    report = gradcheck(variant, mode, seed=seed, dims=SMALL, n_samples=n_samples)
    assert report.to_json_dict()["worst_index"] == report.worst_index
    frozen = build_frozen(SMALL, mode, np.random.default_rng([seed, 0]).integers(2**32))
    params = init_encoder_params(SMALL, variant, np.random.default_rng([seed, 1]).integers(2**32))
    raw = make_random_batch(SMALL, mode, n_samples, np.random.default_rng([seed, 2]))
    batch = prepare_batch(raw, SMALL, mode)
    _, analytic = batch_loss_and_gradients(params, frozen, batch, SMALL)
    step = report.step
    for name, (ups, downs) in inversion._probe_losses(params, frozen, batch).items():
        errs = []
        for i, (up, down) in enumerate(zip(ups.tolist(), downs.tolist())):
            fd = (up - down) / (2.0 * step)
            a = float(analytic[name].reshape(-1)[i])
            errs.append(abs(a - fd) / max(abs(a), abs(fd), 1e-6))
        assert report.block_errors[name] == max(errs), name
        assert report.worst_index[name] == errs.index(max(errs)), name


def assert_probe_losses_match_batch_loss(variant, mode, dims, picks_per_block=None, seed=0,
                                         weight_scale=1.0):
    """Each stacked +-step loss equals batch_loss with that one coordinate moved."""
    frozen = build_frozen(dims, mode, seed)
    params = init_encoder_params(dims, variant, seed + 1)
    for block in params.blocks().values():
        block *= weight_scale
    batch = prepare_batch(make_random_batch(dims, mode, 3, np.random.default_rng(seed + 2)), dims, mode)
    losses = inversion._probe_losses(params, frozen, batch)
    assert list(losses) == list(params.blocks())
    for name, block in params.blocks().items():
        flat = block.reshape(-1)
        assert losses[name].shape == (2, flat.size), name
        picks = range(flat.size)
        if picks_per_block is not None:  # spread over the block, first and last included
            picks = np.unique(np.linspace(0, flat.size - 1, picks_per_block).astype(int))
        for i in picks:
            keep = flat[i]
            expected = []
            for step in (GRADCHECK_STEP, -GRADCHECK_STEP):
                flat[i] = keep + step
                expected.append(batch_loss(params, frozen, batch, dims))
            flat[i] = keep
            up, down = losses[name][:, i]
            np.testing.assert_allclose([up, down], expected, rtol=1e-13, atol=0, err_msg=f"{name}[{i}]")
            fd_gap = abs((up - down) - (expected[0] - expected[1])) / (2.0 * GRADCHECK_STEP)
            assert fd_gap <= 1e-9, (name, i, fd_gap)


class TestProbeLosses:
    """gradcheck's bulk losses against batch_loss, the evaluator of record."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("mode", ["regression", "categorical"])
    # at the init scale (+-0.1) the attention is nearly flat and tanh nearly linear, so the
    # row update's renormalisation moves a loss by about 1e-14; weights x10 make it count
    @pytest.mark.parametrize("seed, weight_scale", [(0, 1.0), (1, 10.0)])
    def test_every_coordinate_at_small_dims(self, variant, mode, seed, weight_scale):
        assert_probe_losses_match_batch_loss(variant, mode, SMALL, seed=seed, weight_scale=weight_scale)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_probes_are_pure_and_use_one_path(self, monkeypatch, variant):
        """Every block's losses come from its probe: no batch_loss call, no parameter write."""
        def no_batch_loss(*args):
            raise AssertionError("gradcheck called batch_loss")

        monkeypatch.setattr(inversion, "batch_loss", no_batch_loss)
        frozen = build_frozen(SMALL, "categorical", 0)
        params = init_encoder_params(SMALL, variant, 1)
        before = {name: block.tobytes() for name, block in params.blocks().items()}
        for block in params.blocks().values():
            block.flags.writeable = False  # a write raises "assignment destination is read-only"
        batch = prepare_batch(small_batch("categorical", seed=2), SMALL, "categorical")
        losses = inversion._probe_losses(params, frozen, batch)
        assert list(losses) == list(before)
        assert {name: block.tobytes() for name, block in params.blocks().items()} == before
        assert gradcheck(variant, "categorical", dims=SMALL, n_samples=2).passed

    @pytest.mark.parametrize("variant", [
        # about 3 s: the forward reruns of three blocks and the reference batch_loss calls
        "mlp", pytest.param("attnpos", marks=pytest.mark.slow),
    ])
    @pytest.mark.parametrize("mode", ["regression", "categorical"])
    def test_spread_coordinates_at_default_dims(self, variant, mode):
        assert_probe_losses_match_batch_loss(variant, mode, ModelDims(), picks_per_block=12)

    @pytest.mark.parametrize("variant", [
        "mlp", pytest.param("attnpos", marks=pytest.mark.slow),
    ])
    def test_gradcheck_memory_at_default_dims(self, variant):
        dims = ModelDims()
        # attnpos: the forward's cached (B, T, T) attention stays alive while each rerun of
        # the forward builds its own; about 5.9 MB, under three such arrays at gradcheck's B = 3
        bound = 8e6 if variant == "mlp" else 3 * (3 * dims.rhythm_len ** 2 * 8)
        tracemalloc.start()
        try:
            report = gradcheck(variant, "regression", dims=dims)  # the benchmark's mode
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak <= bound, peak


class TestSingleDispatch:
    def test_no_comparison_names_a_variant(self):
        """The projector is chosen once, through PROJECTORS: no branch tests a variant name."""
        tree = ast.parse(Path(inversion.__file__).read_text(encoding="utf-8"))
        branches = [
            ast.unparse(node)
            for node in ast.walk(tree)
            if isinstance(node, ast.Compare)
            for operand in (node.left, *node.comparators)
            if any(isinstance(c, ast.Constant) and c.value in VARIANTS for c in ast.walk(operand))
        ]
        assert branches == []


class TestTraining:
    def test_zero_learning_rate_constant_history(self):
        ds = make_teacher_student_dataset(SMALL, "mlp", "regression", 4, seed=1, frozen_seed=2)
        cfg = TrainingConfig(learning_rate=0.0, epochs=20, seed=1, frozen_seed=2)
        history = train(cfg, ds, SMALL).loss_history
        assert len(history) == 21
        assert len(set(history)) == 1

    @pytest.mark.parametrize("variant,mode", [("mlp", "regression"), ("attnpos", "categorical")])
    def test_same_seed_bitwise_identical(self, variant, mode):
        ds = make_teacher_student_dataset(SMALL, variant, mode, 4, seed=3, frozen_seed=2)
        cfg = TrainingConfig(
            variant=variant, mode=mode, learning_rate=1.0, epochs=50, seed=3, frozen_seed=2
        )
        a = train(cfg, ds, SMALL)
        b = train(cfg, ds, SMALL)
        assert checkpoint_bytes(a) == checkpoint_bytes(b)
        assert a.loss_history == b.loss_history

    def test_frozen_blocks_unchanged(self):
        ds = make_teacher_student_dataset(SMALL, "mlp", "regression", 4, seed=3, frozen_seed=2)
        cfg = TrainingConfig(learning_rate=1.0, epochs=30, seed=3, frozen_seed=2)
        before = build_frozen(SMALL, "regression", 2)
        result = train(cfg, ds, SMALL)
        assert result.frozen_digests == before.digests()
        assert result.frozen.table.tobytes() == before.table.tobytes()
        assert result.frozen.weights.tobytes() == before.weights.tobytes()

    def test_teacher_student_reduction_at_documented_defaults(self):
        dims = ModelDims()
        cfg = TrainingConfig()  # mlp, regression, lr 1.0, 2000 epochs, seed 7
        ds = make_teacher_student_dataset(
            dims, cfg.variant, cfg.mode, 16, seed=cfg.seed, frozen_seed=cfg.frozen_seed
        )
        history = train(cfg, ds, dims).loss_history
        assert history[-1] <= 0.1 * history[0]

    def test_divergent_lr_reports_epoch(self):
        ds = make_teacher_student_dataset(SMALL, "mlp", "regression", 4, seed=3, frozen_seed=2)
        cfg = TrainingConfig(learning_rate=1e9, epochs=200, seed=3, frozen_seed=2)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="diverged at epoch"):
                train(cfg, ds, SMALL)

    def test_rhythm_input_sensitivity(self):
        params = init_encoder_params(SMALL, "mlp", seed=12)
        bits = np.zeros(SMALL.rhythm_len)
        flipped = bits.copy()
        flipped[4] = 1.0
        _, _, v_rhythm = forward(params, [sample(bits), sample(flipped)])
        assert np.linalg.norm(v_rhythm[0] - v_rhythm[1]) > 0

    def test_train_and_gradcheck_prepare_the_batch_once(self, monkeypatch):
        prepared = []
        original = inversion.prepare_batch

        def counting(batch, dims, mode):
            if not isinstance(batch, PreparedBatch):
                prepared.append(len(batch))
            return original(batch, dims, mode)

        monkeypatch.setattr(inversion, "prepare_batch", counting)
        ds = make_teacher_student_dataset(SMALL, "mlp", "regression", 4, seed=3, frozen_seed=2)
        prepared.clear()
        train(TrainingConfig(epochs=5, seed=3, frozen_seed=2), ds, SMALL)
        assert prepared == [4]
        prepared.clear()
        gradcheck("mlp", "regression", seed=5, dims=SMALL, n_samples=2)
        assert prepared == [2]


class TestCheckpoint:
    def test_roundtrip_and_contents(self):
        ds = make_teacher_student_dataset(SMALL, "attnpos", "categorical", 3, seed=5, frozen_seed=6)
        cfg = TrainingConfig(
            variant="attnpos", mode="categorical", learning_rate=0.5, epochs=5, seed=5, frozen_seed=6
        )
        result = train(cfg, ds, SMALL)
        doc = load_checkpoint(checkpoint_bytes(result))
        assert doc["version"] == 1
        assert doc["config"]["variant"] == "attnpos"
        assert set(doc["frozen_digests"]) == {"embedding_table", "generator"}
        for name, block in result.params.blocks().items():
            np.testing.assert_array_equal(np.asarray(doc["params"][name]), block)

    def test_loss_csv(self):
        csv_text = loss_history_csv([1.0, 0.5, 0.25])
        lines = csv_text.strip().splitlines()
        assert lines[0] == "epoch,loss"
        assert lines[1] == "0,1.0"
        assert len(lines) == 4


class TestSampleJson:
    @pytest.mark.parametrize("mode", ["regression", "categorical"])
    def test_round_trip(self, mode):
        for s in small_batch(mode, seed=3):
            back = sample_from_json_dict(sample_json_dict(s))
            np.testing.assert_array_equal(back.rhythm_bits, s.rhythm_bits)
            np.testing.assert_array_equal(back.genre, s.genre)
            np.testing.assert_array_equal(back.target, s.target)
            assert back.target.dtype == s.target.dtype


def diverging_on_the_last_step():
    """One epoch whose loss is finite and an update so large that the final loss is not."""
    ds = make_teacher_student_dataset(SMALL, "mlp", "regression", 4, seed=3, frozen_seed=2)
    train(TrainingConfig(learning_rate=1e300, epochs=1, seed=3, frozen_seed=2), ds, SMALL)


@pytest.mark.parametrize("misuse, message", [
    pytest.param(lambda: ModelDims(hidden=0), "hidden must be positive", id="dims-nonpositive"),
    pytest.param(lambda: ModelDims(n_genres=1), "need at least 2 genres", id="dims-one-genre"),
    pytest.param(lambda: TrainingConfig(variant="rnn"),
                 "variant must be one of ('mlp', 'attnpos'), got 'rnn'", id="config-variant"),
    pytest.param(lambda: TrainingConfig(mode="ranking"),
                 "mode must be one of ('regression', 'categorical'), got 'ranking'", id="config-mode"),
    pytest.param(lambda: build_frozen(SMALL, "ranking", 0),
                 "mode must be one of ('regression', 'categorical'), got 'ranking'", id="frozen-mode"),
    pytest.param(lambda: init_encoder_params(SMALL, "rnn", 0),
                 "variant must be one of ('mlp', 'attnpos'), got 'rnn'", id="init-variant"),
    pytest.param(lambda: prepare_batch([], SMALL, "regression"), "batch must be nonempty",
                 id="empty-batch"),
    pytest.param(diverging_on_the_last_step, "training diverged at epoch 1: loss is not finite",
                 id="final-loss-diverged"),
    pytest.param(lambda: load_checkpoint(b'{"version": 2}'), "unsupported checkpoint format",
                 id="checkpoint-version"),
])
def test_misuse_raises_its_message(misuse, message):
    with pytest.raises(ValueError) as exc:
        misuse()
    assert str(exc.value) == message
