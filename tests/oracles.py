"""Independent brute-force references used by the metric and optimizer tests.

Everything here is computed with plain loops and counting, or the
textbook formula, deliberately not sharing code with the library
implementations it checks.
"""

import math

import numpy as np


def brute_rank(candidates, scores, positive):
    """Count-based rank: 1 + better-scored + equal-scored with smaller index."""
    pos_at = list(candidates).index(positive)
    pos_score = scores[pos_at]
    rank = 1
    for c, s in zip(candidates, scores):
        if c == positive:
            continue
        if s > pos_score or (s == pos_score and c < positive):
            rank += 1
    return rank


def brute_metrics(raw_trials, k_values):
    """Naive reference for HR@K, NDCG@K, MRR and AUC over raw trials.

    raw_trials: list of (candidates, scores, positive) triples.
    """
    out = {f"hr@{k}": 0.0 for k in k_values}
    out.update({f"ndcg@{k}": 0.0 for k in k_values})
    out["mrr"] = 0.0
    out["auc"] = 0.0
    n = len(raw_trials)
    for candidates, scores, positive in raw_trials:
        r = brute_rank(candidates, scores, positive)
        for k in k_values:
            if r <= k:
                out[f"hr@{k}"] += 1.0 / n
                out[f"ndcg@{k}"] += (math.log(2.0) / math.log(1.0 + r)) / n
        out["mrr"] += (1.0 / r) / n
        pos_at = list(candidates).index(positive)
        pos_score = scores[pos_at]
        below = sum(1 for i, s in enumerate(scores) if i != pos_at and s < pos_score)
        ties = sum(1 for i, s in enumerate(scores) if i != pos_at and s == pos_score)
        out["auc"] += ((below + 0.5 * ties) / (len(candidates) - 1)) / n
    return out


class TextbookAdam:
    """Adam with bias correction, one tensor at a time (Kingma & Ba, 2015).

    The per-tensor form that ``hincrec.training.Adam`` replaced with one
    flat in-place step; the flat step must match it bit for bit.
    """

    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = {}
        self.v = {}

    def step(self, tensors, grads, maximize=False):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, arr in tensors.items():
            g = -grads[name] if maximize else grads[name]
            if name not in self.m:
                self.m[name] = np.zeros_like(arr)
                self.v[name] = np.zeros_like(arr)
            m, v = self.m[name], self.v[name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * (g * g)
            m_hat = m / (1 - b1**self.t)
            v_hat = v / (1 - b2**self.t)
            arr -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
