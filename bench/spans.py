"""In-memory span tracer around the public functions of hincrec's modules.

A traced call becomes a span ``[name, start, end, parent, op]``: ``name``
is ``<layer>.<function>`` with the layer being the hincrec module,
``parent`` the index of the enclosing span (-1 at top level) and ``op``
the id shared by every span of one training episode or serve request.
Tape primitives are only counted, not spanned: a span per primitive would
cost more than the primitive. Hooks are installed by replacing module and
class attributes and are removed again by ``uninstall``, so code outside a
traced region runs the program unmodified.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from hincrec import autodiff, data, embedding, graph, metapath, metrics, synth, training

_now = time.perf_counter

# (owner, attribute, span name or None for count-only, post-hook name)
SETUP_HOOKS = [
    (synth, "generate_synthetic", "synth.generate", None),
    (data, "temporal_split", "data.split", None),
    (data, "holdout_targets", "data.holdout", None),
    (data, "load_dataset", "data.load", None),
]

RUN_HOOKS = [
    (metapath.PathCorpus, "build", "metapath.corpus_build", None),
    (metapath.PathCorpus, "resample_user", "metapath.resample_user", None),
    (metapath, "sample_instances", None, "walks"),
    (embedding, "metapath_neighbors", None, "neighbors"),
    (training, "build_user_embedding", "embedding.build_user_embedding", None),
    (metrics, "user_embedding", "embedding.user_embedding", None),
    (autodiff.Tape, "__init__", None, "tape"),
    (autodiff.Tape, "gradients", "autodiff.gradients", None),
    (training, "build_action_distribution", "policy.build_action_distribution", None),
    (training, "select_action", "policy.select_action", None),
    (training, "pretrain", "training.pretrain", None),
    (training, "train_rl", "training.train_rl", None),
    (training, "play_episode", "training.play_episode", "episode"),
    (training, "objective_and_gradients", "training.objective_and_gradients", None),
    (training.Adam, "step", "training.adam_step", None),
    (training, "rollback_episode", "training.rollback_episode", None),
    (metrics, "build_trials", "metrics.build_trials", "trials"),
    (metrics, "score_trials", "metrics.score_trials", None),
    (metrics, "aggregate", "metrics.aggregate", None),
    (metrics.PolicyScorer, "logits", "metrics.policy_logits", None),
]

# Edge writes are traced only in the timed part: generating a world makes
# ~10^5 of them, and spans there would inflate the set-up figures.
GRAPH_HOOKS = [
    (graph.HinGraph, "add_edge", "graph.add_edge", None),
    (graph.HinGraph, "remove_edge", "graph.remove_edge", None),
]

# Every public Tape method that appends a primitive to the tape.
TAPE_PRIMITIVES = sorted(
    name
    for name, value in vars(autodiff.Tape).items()
    if callable(value) and not name.startswith("_")
    and name not in ("leaf", "backward", "gradients")
)

LAYERS = ("graph", "metapath", "embedding", "autodiff", "policy", "training", "metrics")


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = 0
        self.first_timed = 0  # index of the first span of the timed part
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- hooks -------------------------------------------------------------

    def _post(self, kind, args, kwargs, result) -> None:
        c = self.counts
        if kind == "walks":
            c["walks_requested"] += kwargs.get("n", args[3] if len(args) > 3 else 10)
            c["walks_returned"] += len(result)
        elif kind == "neighbors":
            c["neighbor_lists"] += 1
            c["neighbor_nodes"] += len(result)
        elif kind == "episode":
            c["episodes"] += 1
            c["episode_steps"] += len(result.steps)
            c["episode_embeds"] += result.embed_count
        elif kind == "trials":
            c["trials"] += len(result)

    def _wrap(self, name, post, fn):
        spans, stack = self.spans, self._stack

        if name is None and post == "tape":
            def tape_init(tape, *args, **kwargs):
                fn(tape, *args, **kwargs)
                if tape.record:
                    self.op += 1  # one recording tape per training episode
            return tape_init

        if name is None:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                self._post(post, args, kwargs, result)
                return result
            return counted

        def spanned(*args, **kwargs):
            rec = [name, _now(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = _now()
                stack.pop()
            if post is not None:
                self._post(post, args, kwargs, result)
            return result
        return spanned

    def _count_primitive(self, fn):
        counts = self.counts

        def primitive(*args, **kwargs):
            counts["tape_ops"] += 1
            return fn(*args, **kwargs)
        return primitive

    def install(self, hooks) -> None:
        for owner, attr, name, post in hooks:
            original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(name, post, original.__func__))
            else:
                wrapped = self._wrap(name, post, original)
            setattr(owner, attr, wrapped)
        if any(owner is autodiff.Tape for owner, *_ in hooks):
            for attr in TAPE_PRIMITIVES:
                original = vars(autodiff.Tape)[attr]
                self._saved.append((autodiff.Tape, attr, original))
                setattr(autodiff.Tape, attr, self._count_primitive(original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def new_op(self) -> None:
        self.op += 1

    # -- summaries ---------------------------------------------------------

    def totals(self, first_span: int = 0) -> tuple[dict, dict, dict]:
        """Per span name: (call count, total time, self time) from span
        index ``first_span`` on. Self time is a span's duration minus the
        durations of its direct children."""
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        child: list[float] = [0.0] * len(self.spans)
        for i in range(len(self.spans) - 1, first_span - 1, -1):
            name, start, end, parent, _ = self.spans[i]
            dur = end - start
            calls[name] += 1
            total[name] += dur
            if parent >= first_span:
                child[parent] += dur
        self_time: dict[str, float] = defaultdict(float)
        for i in range(first_span, len(self.spans)):
            name, start, end, _, _ = self.spans[i]
            self_time[name] += (end - start) - child[i]
        return calls, total, self_time

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                fh,
            )


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]
