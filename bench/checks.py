"""Correctness checks run after each workload's timed part.

Every check compares the program's output with an independent
computation or with a property of the method, never with a stored copy
of earlier output, and raises ``CheckFailed`` when it does not hold.
"""

from __future__ import annotations

import math

import numpy as np

from hincrec import autodiff, embedding, policy


class CheckFailed(AssertionError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- pretrain ------------------------------------------------------------------


def check_losses(window_losses: list[list[float]], n_concepts: int) -> None:
    """All losses finite; the last window's mean loss is below the first
    window's and below ln K, the loss of the uniform policy."""
    flat = [x for w in window_losses for x in w]
    require(len(window_losses) >= 2, "pretrain ran fewer than two windows")
    require(all(math.isfinite(x) for x in flat), "non-finite pretrain loss")
    first, last = float(np.mean(window_losses[0])), float(np.mean(window_losses[-1]))
    require(last < first, f"pretrain loss did not fall: first {first:.4f}, last {last:.4f}")
    require(
        last < math.log(n_concepts),
        f"pretrain loss {last:.4f} not below ln K = {math.log(n_concepts):.4f}",
    )


def batch_loss(tape, leaves, mdl, env, pairs):
    """Mean cross-entropy of (user, target) pairs, built as pretrain does."""
    actions = policy.ActionSet.full(env.n_concepts)
    total = None
    for user, target in pairs:
        u, _ = embedding.build_user_embedding(tape, leaves, mdl.embed, env.corpus, user)
        dist = policy.build_action_distribution(tape, leaves, mdl.policy, u, actions)
        nll = tape.scale(tape.log(tape.gather_row(dist, target)), -1.0)
        total = nll if total is None else tape.vecadd(total, nll)
    return tape.scale(total, 1.0 / len(pairs))


def tape_gradients(mdl, env, pairs) -> dict[str, np.ndarray]:
    tape = autodiff.Tape()
    leaves = mdl.leaves(tape)
    return tape.gradients(batch_loss(tape, leaves, mdl, env, pairs), leaves)


def check_directional_derivatives(
    mdl, env, pairs, grads: dict[str, np.ndarray], rng: np.random.Generator,
    directions: int = 3, eps: float = 1e-5, rtol: float = 1e-6,
) -> None:
    """``grads`` agree with central differences of the batch loss along
    seeded random unit directions over all parameters."""
    tensors = mdl.tensors

    def loss_at() -> float:
        tape = autodiff.Tape(record=False)
        return float(batch_loss(tape, mdl.leaves(tape), mdl, env, pairs).value)

    for _ in range(directions):
        d = {k: rng.standard_normal(v.shape) for k, v in tensors.items()}
        norm = math.sqrt(sum(float(np.sum(x * x)) for x in d.values()))
        analytic = sum(float(np.sum(grads[k] * d[k])) for k in tensors) / norm
        for k, v in tensors.items():
            v += (eps / norm) * d[k]
        plus = loss_at()
        for k, v in tensors.items():
            v -= (2 * eps / norm) * d[k]
        minus = loss_at()
        for k, v in tensors.items():
            v += (eps / norm) * d[k]
        numeric = (plus - minus) / (2 * eps)
        scale = max(abs(analytic), abs(numeric), 1e-3)
        require(
            abs(analytic - numeric) <= rtol * scale,
            f"gradient disagrees with central difference: {analytic!r} vs {numeric!r}",
        )


# -- reinforce -----------------------------------------------------------------


def bag_snapshot(corpus, users) -> dict:
    return {
        (u, mp.id): tuple(tuple(w) for w in corpus.bag(u, mp.id))
        for u in users
        for mp in corpus.metapaths
    }


def check_restored(digest_before: int, digest_after: int, bags_before: dict, bags_after: dict) -> None:
    require(digest_before == digest_after, "graph digest changed across episodes and rollbacks")
    changed = [key for key in bags_before if bags_before[key] != bags_after.get(key)]
    require(not changed, f"{len(changed)} walk bags differ after rollback, e.g. {changed[:1]}")


def check_episode_stats(stats, horizon: int) -> None:
    """One embedding per episode plus one per correct step, where the
    correct steps are (length + total reward) / 2, and length <= T."""
    for i, s in enumerate(stats):
        correct = (s.length + s.total_reward) / 2
        require(
            s.embed_count == 1 + correct,
            f"episode {i}: {s.embed_count} embeddings for {correct:g} correct steps",
        )
        require(1 <= s.length <= horizon, f"episode {i}: length {s.length} outside 1..{horizon}")


def check_finite_params(tensors: dict[str, np.ndarray]) -> None:
    bad = [k for k, v in tensors.items() if not np.all(np.isfinite(v))]
    require(not bad, f"non-finite parameters: {bad}")


# -- serve ---------------------------------------------------------------------


def _leaky(x, slope):
    return np.where(x > 0, x, slope * x)


def _softmax(x, axis=-1):
    e = np.exp(x - np.max(x, axis=axis, keepdims=True))
    return e / np.sum(e, axis=axis, keepdims=True)


def oracle_logits(mdl, corpus, user) -> np.ndarray:
    """Policy logits of ``user`` in plain numpy: HAN node attention over
    the set of nodes the user's walks reach, path attention, linear policy."""
    t = {**mdl.embed.tensors, **mdl.policy.tensors}
    slope = mdl.embed.cfg.leaky_slope
    embs, scores = [], []
    for mp in mdl.embed.metapaths:
        others = sorted(
            {ref for walk in corpus.bag(user, mp.id) for ref in walk} - {user},
            key=lambda r: r.sort_key(),
        )
        nodes = [user] + others
        H = np.stack([t[f"proj.{r.type.value}"] @ t[f"feat.{r.type.value}"][r.index] for r in nodes])
        A = t[f"attn.mp{mp.id}"]
        f1 = H.shape[1]
        e = _leaky((A[:, :f1] @ H[0])[:, None] + A[:, f1:] @ H.T, slope)  # heads x nodes
        z = _leaky(_softmax(e) @ H, slope)                                 # heads x f1
        emb = z.reshape(-1)
        embs.append(emb)
        scores.append(t["path.q"] @ np.tanh(t["path.W"] @ emb + t["path.b"]))
    beta = _softmax(np.array(scores))
    u = sum(b * emb for b, emb in zip(beta, embs))
    out = t["policy.scores"] @ u
    return out + t["policy.bias"] if "policy.bias" in t else out


def check_logits(mdl, corpus, user, logits: np.ndarray, tol: float = 1e-9) -> None:
    want = oracle_logits(mdl, corpus, user)
    err = float(np.max(np.abs(want - logits)))
    require(err <= tol, f"logits of {user!r} differ from the numpy oracle by {err:.3g}")


def check_topk(top: list[int], logits: np.ndarray, clicked: set, k: int) -> None:
    """``top`` is the k best unclicked concepts by (-logit, index)."""
    eligible = np.array([c for c in range(logits.size) if c not in clicked], dtype=int)
    want = eligible[np.lexsort((eligible, -logits[eligible]))][:k].tolist()
    require(list(top) == want, f"top-{k} {list(top)[:5]}... differs from {want[:5]}...")


def check_trials(trials, clicked_by_user: dict, n_concepts: int, n_negatives: int) -> None:
    for t in trials:
        cands = [int(c) for c in t.candidates]
        clicked = clicked_by_user.get(t.user, set())
        negatives = [c for c in cands if c != t.positive]
        require(cands.count(t.positive) == 1, f"{t.user!r}: positive not present exactly once")
        require(len(set(negatives)) == len(negatives), f"{t.user!r}: repeated negative")
        require(not clicked.intersection(negatives), f"{t.user!r}: clicked concept as negative")
        require(all(0 <= c < n_concepts for c in cands), f"{t.user!r}: concept out of range")
        pool = n_concepts - len(clicked | {t.positive})
        require(len(negatives) == min(n_negatives, pool), f"{t.user!r}: wrong negative count")


def brute_report(ranked) -> tuple[list[int], tuple[float, ...]]:
    """Ranks and (HR@5,10,20, NDCG@5,10,20, MRR, AUC) from scores alone;
    ties rank toward the smaller concept index."""
    ranks, aucs = [], []
    for t in ranked:
        cands = np.asarray(t.candidates)
        pos = t.scores[cands == t.positive][0]
        neg = cands != t.positive
        higher = int(np.sum(t.scores[neg] > pos))
        ties = t.scores[neg] == pos
        ranks.append(1 + higher + int(np.sum(ties & (cands[neg] < t.positive))))
        aucs.append((np.sum(t.scores[neg] < pos) + 0.5 * np.sum(ties)) / np.sum(neg))
    r = np.array(ranks, dtype=float)
    hr = [float(np.mean(r <= k)) for k in (5, 10, 20)]
    nd = [float(np.mean(np.where(r <= k, 1.0 / np.log2(1.0 + r), 0.0))) for k in (5, 10, 20)]
    return ranks, (*hr, *nd, float(np.mean(1.0 / r)), float(np.mean(aucs)))


def check_report(ranked, report, tol: float = 1e-12) -> None:
    ranks, values = brute_report(ranked)
    require([t.rank for t in ranked] == ranks, "trial ranks differ from brute-force ranks")
    require(report.n_trials == len(ranked), "report counts the wrong number of trials")
    for name, want, got in zip(report._COLUMNS, values, report.values()):
        require(abs(want - got) <= tol, f"{name}: aggregate {got!r} vs brute force {want!r}")
