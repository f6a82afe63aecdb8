"""Independent brute-force oracles the implementation is checked against.

Everything here is written as plain nested loops over scalars, with no reuse
of the library's vectorized code paths. Sums use math.fsum, which is exactly
rounded regardless of order, so oracle totals and pipeline totals agree
bit for bit.
"""

import math


def velocity_oracle(frames):
    """Elementwise first differences of the (T, J, 3) keypoint list."""
    T = len(frames)
    J = len(frames[0])
    return [
        [[frames[t + 1][j][c] - frames[t][j][c] for c in range(2)] for j in range(J)]
        for t in range(T - 1)
    ]


def direction_bin_oracle(vx, vy, bins):
    """(speed, bin index) for one velocity; bin is None at zero speed."""
    speed = math.sqrt(vx * vx + vy * vy)
    if speed == 0.0:
        return 0.0, None
    theta = math.atan2(vy, vx)
    if theta < 0.0:
        theta = theta + 2.0 * math.pi
    width = 2.0 * math.pi / bins
    k = int(math.floor(theta / width))
    if k > bins - 1:
        k = bins - 1
    return speed, k


def rhythm_bits_oracle(frames, fps, bins, window, min_value=0.0, min_rel=0.0):
    """Straight-line transcription of the whole rhythm pipeline.

    frames is a (T, J, 3) nested list; returns a list of T ints.
    """
    T = len(frames)
    J = len(frames[0])
    vel = velocity_oracle(frames)
    # one-hot direction discretization
    v_q = [[[0.0] * bins for _ in range(J)] for _ in range(T - 1)]
    for t in range(T - 1):
        for j in range(J):
            speed, k = direction_bin_oracle(vel[t][j][0], vel[t][j][1], bins)
            if k is not None:
                v_q[t][j][k] = speed
    # rectified temporal difference, then total per step
    totals = []
    for t in range(T - 2):
        terms = []
        for j in range(J):
            for k in range(bins):
                diff = v_q[t + 1][j][k] - v_q[t][j][k]
                terms.append(max(0.0, diff))
        totals.append(math.fsum(terms))
    return windowed_peaks_oracle(totals, fps, window, min_value, min_rel, offset=2, length=T)


def windowed_peaks_oracle(values, fps, window, min_value=0.0, min_rel=0.0, offset=0, length=None):
    """Windowed-max predicate scan with the first-of-plateau tie rule."""
    n = len(values)
    if length is None:
        length = n + offset
    half = int(round(window * fps / 2.0))
    threshold = min_value
    if n:
        threshold = max(min_value, min_rel * max(values))
    bits = [0] * length
    for t in range(n):
        if not values[t] > threshold:
            continue
        if t > 0 and values[t - 1] == values[t]:
            continue
        is_max = True
        for u in range(max(0, t - half), min(n, t + half + 1)):
            if values[u] > values[t]:
                is_max = False
                break
        if is_max:
            bits[t + offset] = 1
    return bits


def max_matching_oracle(gen, ref, tolerance):
    """Exhaustive maximum one-to-one matching size via bitmask recursion."""
    n_ref = len(ref)
    memo = {}

    def best(i, used):
        if i == len(gen):
            return 0
        key = (i, used)
        if key in memo:
            return memo[key]
        result = best(i + 1, used)  # leave gen[i] unmatched
        for j in range(n_ref):
            if used & (1 << j):
                continue
            if abs(gen[i] - ref[j]) <= tolerance:
                result = max(result, 1 + best(i + 1, used | (1 << j)))
        memo[key] = result
        return result

    return best(0, 0)


def _dot(row, vec):
    return math.fsum(row[i] * vec[i] for i in range(len(vec)))


def genre_encoder_oracle(weight, bias, genre):
    """tanh(W g + b) for one genre vector; weight is (d, G) nested lists."""
    return [math.tanh(_dot(weight[i], genre) + bias[i]) for i in range(len(bias))]


def mlp_rhythm_oracle(w1, b1, w2, b2, bits):
    """Two-layer tanh MLP on one length-fitted rhythm sequence."""
    hidden = [math.tanh(math.fsum([b1[a]] + [w1[a][t] * bits[t] for t in range(len(bits))]))
              for a in range(len(b1))]
    return [_dot(w2[i], hidden) + b2[i] for i in range(len(b2))]


def attnpos_rhythm_oracle(frame_embed, pos_table, w_query, w_key, w_value, w_out, b_out, bits):
    """Single-head self-attention over frames, mean-pooled, then projected."""
    T, dp = len(bits), len(frame_embed)
    x = [[bits[t] * frame_embed[e] + pos_table[t][e] for e in range(dp)] for t in range(T)]
    q = [[_dot(w_query[i], x[t]) for i in range(dp)] for t in range(T)]
    k = [[_dot(w_key[i], x[t]) for i in range(dp)] for t in range(T)]
    v = [[_dot(w_value[i], x[t]) for i in range(dp)] for t in range(T)]
    pooled_terms = [[] for _ in range(dp)]
    for t in range(T):
        scores = [_dot(q[t], k[s]) / math.sqrt(dp) for s in range(T)]
        mx = max(scores)
        weights = [math.exp(s - mx) for s in scores]
        total = math.fsum(weights)
        for e in range(dp):
            pooled_terms[e].append(math.fsum(weights[s] / total * v[s][e] for s in range(T)))
    pool = [math.fsum(terms) / T for terms in pooled_terms]
    return [_dot(w_out[i], pool) + b_out[i] for i in range(len(b_out))]


def prompt_embeddings_oracle(table, tokens, genre_slot, rhythm_slot, v_genre, v_rhythm):
    """Prompt rows looked up in the table, with the two slot rows substituted."""
    rows = [list(table[tok]) for tok in tokens]
    rows[genre_slot] = list(v_genre)
    rows[rhythm_slot] = list(v_rhythm)
    return rows


def mean_pool_oracle(rows):
    return [math.fsum(row[i] for row in rows) / len(rows) for i in range(len(rows[0]))]


def mse_oracle(weights, pooled, target):
    """Mean squared error of weights @ pooled against the target vector."""
    m = len(target)
    return math.fsum((_dot(weights[r], pooled) - target[r]) ** 2 for r in range(m)) / m


def cross_entropy_oracle(weights, pooled, ids):
    """Mean softmax cross-entropy of weights @ pooled against token ids."""
    logits = [_dot(row, pooled) for row in weights]
    mx = max(logits)
    logz = mx + math.log(math.fsum(math.exp(z - mx) for z in logits))
    return math.fsum(logz - logits[i] for i in ids) / len(ids)
