"""Replayed-click environment, cross-entropy pretraining, and REINFORCE.

An episode recommends concepts to one user against their held-out
clicks: a correct pick earns +1 and wires a new click edge (changing the
user's embedding), a wrong pick earns -1 and ends the episode with the
graph untouched. Policy-gradient updates maximize the discounted-return
objective plus an entropy bonus.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .autodiff import Tape, Var
from .graph import HinGraph, NodeRef, NodeType, Relation
from .metapath import MetaPath, PathCorpus
from .model import FlatParams, ModelParams
from .embedding import build_user_embedding, build_user_embeddings, neighborhood
from .policy import ActionSet, build_action_distribution, policy_logits, select_action

logger = logging.getLogger("hincrec.training")

GroundTruth = Mapping[NodeRef, frozenset]

# Adam's moment decay rates and denominator guard (Kingma & Ba defaults).
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def step(
    graph: HinGraph,
    targets: GroundTruth,
    user: NodeRef,
    action: int,
) -> tuple[float, bool]:
    """Apply one recommendation: (+1, edge inserted) when `action` is a
    held-out click of `user`, else (-1, graph untouched)."""
    if action in targets.get(user, ()):
        inserted = graph.add_edge(
            user, NodeRef(NodeType.CONCEPT, action), Relation.CLICK
        )
        return 1.0, inserted
    return -1.0, False


def discounted_returns(rewards: list[float], gamma: float) -> list[float]:
    """Suffix-discounted returns R_t = r_t + gamma * R_{t+1}."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must be within [0, 1]")
    out = [0.0] * len(rewards)
    acc = 0.0
    for i in range(len(rewards) - 1, -1, -1):
        acc = rewards[i] + gamma * acc
        out[i] = acc
    return out


@dataclass
class StepRecord:
    """One step: the action, its reward and the distribution it was drawn
    from, which is None at the first step, whose distribution is the
    episode's row of its update's first-step matrix (`FirstStep`)."""

    action: int
    reward: float
    dist: Optional[Var]


@dataclass
class Episode:
    user: NodeRef
    first: FirstStep
    steps: list[StepRecord]
    gamma: float
    added_edges: list[tuple[NodeRef, NodeRef]]
    embed_count: int

    def total_reward(self) -> float:
        return sum(s.reward for s in self.steps)


@dataclass
class ObjectiveResult:
    value: float          # maximized objective: policy term + entropy bonus
    policy_term: float    # sum_t log pi(c_t | u_t) * R_t
    entropy_raw: float    # sum_t sum_c pi log pi (negative entropy, <= 0)
    grads: dict[str, np.ndarray]


def _objective(
    episodes: list[Episode], lam: float
) -> tuple[Var, list[tuple[float, float, float]]]:
    """The summed objective of an update's episodes on their tape, and each
    episode's (objective, policy term, negative entropy) values.

    `episodes` are the rows of their update's first-step distributions, in
    order. The first steps' terms are a fixed handful of nodes over that
    (B, K) matrix: the taken entries, their logs summed weighted by the
    returns, and the summed p log p. A later step adds its own terms. Each
    episode's values are summed from the node values as a chain of its own
    steps would sum them (see `objective_and_gradients`).
    """
    first = episodes[0].first
    if [e.first.row for e in episodes] != list(range(first.dists.value.shape[0])):
        raise ValueError("episodes are not the rows of their update, in order")
    if not all(e.steps for e in episodes):
        raise ValueError("episode has no steps")
    tape = first.tape
    returns = [discounted_returns([s.reward for s in e.steps], e.gamma) for e in episodes]
    log_p = tape.log(tape.take(first.dists, [e.steps[0].action for e in episodes]))
    pg = tape.vsum(log_p, [r[0] for r in returns])
    plogp = tape.plogp(first.dists)
    negent = tape.vsum(plogp)
    values = []
    for b, (e, rets) in enumerate(zip(episodes, returns)):
        policy_term, entropy_raw = log_p.value[b] * rets[0], np.sum(plogp.value[b])
        for rec, ret in zip(e.steps[1:], rets[1:]):
            step_log_p = tape.log(tape.gather_row(rec.dist, rec.action))
            step_negent = tape.vsum(tape.plogp(rec.dist))
            pg = tape.vecadd(pg, tape.scale(step_log_p, ret))
            negent = tape.vecadd(negent, step_negent)
            policy_term += step_log_p.value * ret
            entropy_raw += step_negent.value
        values.append((
            float(policy_term + entropy_raw * -lam), float(policy_term), float(entropy_raw)
        ))
    total = tape.vecadd(pg, tape.scale(negent, -lam))
    return total, values


def objective_and_gradients(episode: Episode, lam: float) -> ObjectiveResult:
    """Build the objective of an update of one episode on its tape and
    backpropagate.

    The objective is sum_t log pi(c_t|u_t) * R_t - lam * sum_t sum_c
    pi log pi, i.e. the entropy term is a bonus under maximization.
    Gradients come back per tensor name, pointing in the ascent direction,
    copied out of the model's flat gradient, which its next update clears.
    """
    total, ((value, policy_term, entropy_raw),) = _objective([episode], lam)
    grads = episode.first.tape.gradients(total, episode.first.leaves)
    return ObjectiveResult(value, policy_term, entropy_raw, {k: g.copy() for k, g in grads.items()})


class Adam:
    """Standard Adam with bias correction over the flat vector `theta` of
    `params`, from its flat gradient `grad`.

    Construction takes the params' training buffers, zeroed, so every
    Adam starts from zero moments. A step is a fixed number of in-place
    passes over theta, the gradient, the two moments and a scratch
    vector, with the per-element arithmetic of the textbook per-tensor
    step. It consumes the gradient, which holds scratch values after it.
    """

    def __init__(self, params: FlatParams, lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self._g, (self._m, self._v, self._s) = params.training_buffers()

    def step(self, maximize: bool = False) -> None:
        """One update from the gradient in `params.grad`; raises
        FloatingPointError, with nothing changed, when a gradient entry is
        not finite."""
        m, v, g, s = self._m, self._v, self._g, self._s
        if not np.isfinite(g).all():
            bad = next(n for n, gv in self.params.grads.items() if not np.isfinite(gv).all())
            raise FloatingPointError(f"non-finite gradient for {bad}")
        if maximize:
            np.negative(g, out=g)
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        m *= b1
        np.multiply(g, 1 - b1, out=s)
        m += s
        v *= b2
        np.multiply(g, g, out=s)
        s *= 1 - b2
        v += s
        # s = lr * m_hat / (sqrt(v_hat) + eps), evaluated left to right
        np.divide(m, 1 - b1**self.t, out=s)
        s *= self.lr
        np.divide(v, 1 - b2**self.t, out=g)
        np.sqrt(g, out=g)
        g += ADAM_EPS
        s /= g
        self.params.theta -= s


@dataclass
class TrainingEnv:
    """Frozen base graph plus the sampled corpus and per-user targets."""

    graph: HinGraph
    corpus: PathCorpus
    targets: dict[NodeRef, frozenset]
    users: list[NodeRef]
    n_concepts: int
    walks_per_path: int = 10
    max_walk_len: Optional[int] = None


def make_training_env(
    graph: HinGraph,
    targets: dict[NodeRef, frozenset],
    metapaths: list[MetaPath],
    walks_per_path: int = 10,
    max_walk_len: Optional[int] = None,
    *,
    rng: np.random.Generator,
) -> TrainingEnv:
    users = sorted((u for u in targets if targets[u]), key=lambda r: r.index)
    if not users:
        raise ValueError("no users with held-out targets")
    corpus = PathCorpus.build(
        graph, users, metapaths, n=walks_per_path, max_len=max_walk_len, rng=rng
    )
    return TrainingEnv(
        graph=graph,
        corpus=corpus,
        targets=targets,
        users=users,
        n_concepts=graph.node_count(NodeType.CONCEPT),
        walks_per_path=walks_per_path,
        max_walk_len=max_walk_len,
    )


@dataclass(slots=True)
class FirstStep:
    """One episode's start on its update's recording tape: the update's
    (B, dim) user embeddings and (B, K) unmasked action distributions,
    whose row `row` is the episode's user's."""

    tape: Tape
    leaves: dict[str, Var]
    u: Var
    dists: Var
    row: int


def _open_update(
    model: ModelParams, env: TrainingEnv, users: list[NodeRef]
) -> tuple[Tape, dict[str, Var], Var, Var]:
    """Opens an update's recording tape on the model's `training_leaves`
    and embeds `users` on it in one `build_user_embeddings` pass over the
    neighborhood keys that `env.corpus` keeps: (tape, leaves, the (B, dim)
    embeddings, their (B, K) policy logits)."""
    tape = Tape()
    leaves = model.training_leaves(tape)
    hoods = [neighborhood(env.corpus, user, model.embed.metapaths) for user in users]
    u, _ = build_user_embeddings(tape, leaves, model.embed, hoods)
    return tape, leaves, u, policy_logits(tape, leaves, u)


def first_steps(model: ModelParams, env: TrainingEnv, users: list[NodeRef]) -> list[FirstStep]:
    """Starts the episodes of `users` in one update (`_open_update`), with
    one softmax over their logits; every action is open at a first step,
    so nothing is masked."""
    tape, leaves, u, logits = _open_update(model, env, users)
    dist = tape.softmax(logits)
    return [FirstStep(tape, leaves, u, dist, b) for b in range(len(users))]


def play_episode(
    model: ModelParams,
    env: TrainingEnv,
    user: NodeRef,
    horizon: int,
    epsilon: float,
    gamma: float,
    rng: np.random.Generator,
    *,
    first: Optional[FirstStep] = None,
) -> Episode:
    """Roll out one episode, adding a click edge to env.graph on each
    correct step.

    The episode starts from `first`, the user's row of an update's
    `first_steps`; without it, it is an update of one episode, and the
    user is embedded as a batch of one. After every correct step, and
    never after the episode-ending incorrect one, the user's walks are
    redrawn against the changed graph into a corpus of the episode's own,
    and the user is embedded again from it; env.corpus is never written.
    Until then, a later step reads the user's row of `first.u`, cut from
    it when first read. Call `rollback_episode` afterwards to remove the
    edges; if the rollout raises, they are removed before the error
    propagates.
    """
    if first is None:
        (first,) = first_steps(model, env, [user])
    tape, leaves, u_var = first.tape, first.leaves, None
    episode = Episode(
        user=user,
        first=first,
        steps=[],
        gamma=gamma,
        added_edges=[],
        embed_count=1,
    )
    rewalked = PathCorpus(env.corpus.metapaths)
    actions = ActionSet.full(env.n_concepts)
    dist, probs = None, first.dists.value[first.row]
    t = 1
    try:
        while True:
            action = select_action(probs, actions, epsilon, rng)
            actions = actions.shrink(action)
            reward, mutated = step(env.graph, env.targets, user, action)
            episode.steps.append(StepRecord(action, reward, dist))
            if mutated:
                episode.added_edges.append((user, NodeRef(NodeType.CONCEPT, action)))
                rewalked.resample_user(
                    env.graph, user, env.walks_per_path, env.max_walk_len, rng=rng
                )
                u_var, _ = build_user_embedding(tape, leaves, model.embed, rewalked, user)
                episode.embed_count += 1
            if reward < 0 or t >= horizon or actions.count() == 0:
                return episode
            t += 1
            if u_var is None:
                u_var = tape.gather_row(first.u, first.row)
            dist = build_action_distribution(tape, leaves, model.policy, u_var, actions)
            probs = dist.value
    except BaseException:
        rollback_episode(env, episode)
        raise


def rollback_episode(env: TrainingEnv, episode: Episode) -> None:
    """Remove the click edges the episode added to env.graph."""
    for a, b in episode.added_edges:
        env.graph.remove_edge(a, b, Relation.CLICK)


@dataclass(slots=True)
class EpisodeStats:
    total_reward: float
    length: int
    embed_count: int
    objective: float
    seconds: float = 0.0


def pretrain(
    model: ModelParams,
    env: TrainingEnv,
    episodes: int = 10_000,
    lr: float = 1e-3,
    batch: int = 8,
    *,
    rng: np.random.Generator,
) -> tuple[ModelParams, list[float]]:
    """Cross-entropy pretraining against held-out next clicks.

    One episode is one mini-batch of `batch` uniformly drawn
    (user, target-concept) pairs scored over the full unmasked action
    set, in one tape pass: the users' neighborhood keys are the ones
    `env.corpus` keeps, and the loss is the fused mean cross-entropy.
    A loss that is not finite raises FloatingPointError before the
    parameters change. Returns the model and the per-episode mean loss
    trace.
    """
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    instances = [
        (user, concept)
        for user in env.users
        for concept in sorted(env.targets[user])
    ]
    if not instances:
        raise ValueError("no (user, target) pairs to pretrain on")
    adam = Adam(model, lr)
    losses: list[float] = []
    for ep in range(episodes):
        picks = [instances[int(rng.integers(len(instances)))] for _ in range(batch)]
        tape, leaves, _, logits = _open_update(model, env, [user for user, _ in picks])
        loss = tape.cross_entropy(logits, [target for _, target in picks])
        if not math.isfinite(loss.value):
            raise FloatingPointError(
                f"non-finite pretrain loss {float(loss.value)} in episode {ep + 1}"
            )
        tape.gradients(loss, leaves)  # into model.grad
        adam.step(maximize=False)
        losses.append(float(loss.value))
        if (ep + 1) % 500 == 0:
            recent = float(np.mean(losses[-500:]))
            logger.info("pretrain episode %d/%d: loss %.4f", ep + 1, episodes, recent)
    return model, losses


def train_rl(
    model: ModelParams,
    env: TrainingEnv,
    episodes: int,
    horizon: int = 20,
    gamma: float = 0.9,
    epsilon: float = 0.18,
    lam: float = 0.08,
    lr: float = 1e-4,
    batch: int = 8,
    *,
    rng: np.random.Generator,
) -> tuple[ModelParams, list[EpisodeStats]]:
    """REINFORCE fine-tuning with entropy regularization, in updates of
    `batch` episodes (the last update may hold fewer).

    An update draws its training users uniformly, then starts all their
    episodes in one batched pass (`first_steps`) and plays them one after
    another on its tape. Each replays clicks until the first miss or the
    horizon, and its click edges are rolled back before the next episode
    starts, so every episode sees the base graph. One Adam ascent step on
    the sum of the episodes' entropy-regularized return objectives ends
    the update. Each episode's `seconds` is its update's wall time over
    the update's episode count.
    """
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    adam = Adam(model, lr)
    stats: list[EpisodeStats] = []
    # Totals take a few values (rewards are +-1); the records share one
    # float per value, so a caller that keeps every record keeps less.
    totals: dict[float, float] = {}
    for lo in range(0, episodes, batch):
        t0 = time.perf_counter()
        users = [
            env.users[int(rng.integers(len(env.users)))]
            for _ in range(min(batch, episodes - lo))
        ]
        played = []
        for user, first in zip(users, first_steps(model, env, users)):
            episode = play_episode(model, env, user, horizon, epsilon, gamma, rng, first=first)
            rollback_episode(env, episode)
            played.append(episode)
        objective, values = _objective(played, lam)
        first = played[0].first
        first.tape.gradients(objective, first.leaves)  # into model.grad
        adam.step(maximize=True)
        share = (time.perf_counter() - t0) / len(played)
        for ep, (episode, (value, _, _)) in enumerate(zip(played, values), start=lo + 1):
            total = episode.total_reward()
            stat = EpisodeStats(
                total_reward=totals.setdefault(total, total),
                length=len(episode.steps),
                embed_count=episode.embed_count,
                objective=value,
                seconds=share,
            )
            stats.append(stat)
            logger.debug(
                "episode %d: user %s reward %.0f length %d",
                ep,
                episode.user,
                stat.total_reward,
                stat.length,
            )
            if ep % 200 == 0:
                recent = float(np.mean([s.total_reward for s in stats[-200:]]))
                logger.info("rl episode %d/%d: mean reward %.2f", ep, episodes, recent)
    return model, stats
