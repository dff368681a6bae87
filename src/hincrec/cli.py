"""Command-line entry points: gen, sample, pretrain, train, eval, recommend.

Exit codes: 0 success, 1 usage error (with usage text on stderr), 2 data
or configuration error.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path
from typing import Optional

# Set before numpy loads BLAS, which reads it once: the evaluation's small
# batched products ran slower and less steadily on one BLAS thread per core.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from .config import ConfigError, TrainConfig, load_synth_config, load_train_config
from .data import (
    Dataset,
    DuplicateId,
    ParseError,
    click_counts,
    holdout_targets,
    load_dataset,
    save_dataset,
    temporal_split,
)
from .embedding import EmbedConfig
from .graph import HinGraph, NodeRef, NodeType, Relation, SchemaViolation
from .metapath import PathCorpus, builtin_metapaths
from .metrics import PolicyScorer, PopularityScorer, RandomScorer, evaluate
from .model import ModelParams, init_model
from .serialize import CheckpointError
from .synth import ConfigInvalid, generate_synthetic
from .training import TrainingEnv, make_training_env, pretrain, train_rl

logger = logging.getLogger("hincrec.cli")

_DATA_ERRORS = (
    ParseError,
    SchemaViolation,
    DuplicateId,
    ConfigInvalid,
    ConfigError,
    CheckpointError,
    OSError,
    KeyError,
    ValueError,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="hincrec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic dataset")
    gen.add_argument("--config", required=True, help="generator config file")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--seed", type=int, default=None)
    gen.set_defaults(func=_cmd_gen)

    sample = sub.add_parser("sample", help="sample the meta-path corpus to a TSV")
    sample.add_argument("--data", required=True)
    sample.add_argument("--out", required=True)
    sample.add_argument("--config", default=None)
    sample.add_argument("--seed", type=int, default=None)
    sample.set_defaults(func=_cmd_sample)

    for name, fn in (("pretrain", _cmd_pretrain), ("train", _cmd_train)):
        cmd = sub.add_parser(name, help=f"{name} a model and write a checkpoint")
        cmd.add_argument("--config", required=True)
        cmd.add_argument("--data", required=True)
        cmd.add_argument("--ckpt", required=True)
        cmd.add_argument("--cutoff", type=int, default=None,
                         help="train/test click-time cutoff (default: use all clicks)")
        cmd.add_argument("--holdout", type=float, default=0.5,
                         help="fraction of each user's clicks held out as targets")
        cmd.add_argument("--seed", type=int, default=None)
        if name == "train":
            cmd.description = (
                "Pretrains (unless --init or --from-scratch), then runs REINFORCE in "
                "updates of the config's `batch` episodes, one Adam step each; "
                "`batch` also sets the pretraining mini-batch."
            )
            cmd.add_argument("--init", default=None, help="warm-start checkpoint")
            cmd.add_argument("--from-scratch", action="store_true",
                             help="skip pretraining, start from random weights")
            cmd.add_argument("--reward-log", default=None,
                             help="write per-episode rewards to this TSV")
        cmd.set_defaults(func=fn)

    ev = sub.add_parser("eval", help="rank held-out clicks and print metrics")
    ev.add_argument("--ckpt", default=None)
    ev.add_argument("--data", required=True)
    ev.add_argument("--cutoff", type=int, required=True)
    ev.add_argument("--config", default=None)
    ev.add_argument("--seed", type=int, default=None)
    ev.add_argument("--scorer", choices=("model", "random", "popularity"), default="model")
    ev.add_argument("--negatives", type=_positive_int, default=99)
    ev.add_argument("--pretty", action="store_true")
    ev.set_defaults(func=_cmd_eval)

    rec = sub.add_parser("recommend", help="print the greedy top-K for one user")
    rec.add_argument("--ckpt", required=True)
    rec.add_argument("--data", required=True)
    rec.add_argument("--user", required=True)
    rec.add_argument("--topk", type=_positive_int, default=20)
    rec.add_argument("--cutoff", type=int, default=None)
    rec.add_argument("--config", default=None)
    rec.add_argument("--seed", type=int, default=None)
    rec.set_defaults(func=_cmd_recommend)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    logging.basicConfig(
        level=logging.INFO, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"hincrec: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args) or 0
    except _DATA_ERRORS as exc:
        print(f"hincrec: {exc}", file=sys.stderr)
        return 2


# -- helpers -----------------------------------------------------------------


def _load_data(data_dir: str) -> Dataset:
    root = Path(data_dir)
    return load_dataset(root / "nodes.tsv", root / "edges.tsv")


def _seed_of(args, cfg: TrainConfig) -> int:
    return args.seed if args.seed is not None else cfg.seed


def _train_config(path: Optional[str]) -> TrainConfig:
    return load_train_config(path) if path else TrainConfig()


def _load_model(ckpt: str, graph: HinGraph) -> ModelParams:
    """The checkpoint at `ckpt`, refused unless its feature tables and its
    concept scores have one row per node of `graph`."""
    model = ModelParams.load(ckpt)
    tables = [(nt, model.embed.tensors[f"feat.{nt.value}"]) for nt in NodeType]
    tables.append((NodeType.CONCEPT, model.policy.tensors["policy.scores"]))
    for nt, table in tables:
        if table.shape[0] != graph.node_count(nt):
            raise ConfigError(
                f"checkpoint {ckpt} was trained on {table.shape[0]} {nt.value} nodes, "
                f"the dataset has {graph.node_count(nt)}"
            )
    return model


def _effective_cutoff(ds: Dataset, cutoff: Optional[int]) -> int:
    if cutoff is not None:
        return cutoff
    if not ds.clicks:
        raise ParseError("dataset has no clicks; nothing to train on")
    return max(c.ts for c in ds.clicks)


def _prepare_training(args):
    cfg = load_train_config(args.config)
    seed = _seed_of(args, cfg)
    ds = _load_data(args.data)
    split = temporal_split(ds, _effective_cutoff(ds, args.cutoff))
    hold = holdout_targets(split.train, args.holdout)
    rng = np.random.default_rng(seed)
    env = make_training_env(
        hold.graph,
        hold.targets,
        builtin_metapaths(),
        walks_per_path=cfg.N,
        max_walk_len=cfg.l,
        rng=rng,
    )
    model = init_model(
        hold.graph,
        builtin_metapaths(),
        EmbedConfig(dim=cfg.d, heads=cfg.L),
        rng=rng,
    )
    return cfg, env, model, rng


def _pretrain(
    cfg: TrainConfig, env: TrainingEnv, model: ModelParams, rng: np.random.Generator
) -> None:
    pretrain(
        model, env, episodes=cfg.pretrain_episodes, lr=cfg.lr_pretrain, batch=cfg.batch, rng=rng
    )


def _model_scorer(args, cfg: TrainConfig, graph: HinGraph, users: list[NodeRef]) -> PolicyScorer:
    """The greedy scorer of the checkpoint ``args.ckpt`` (see `_load_model`)
    over `users`' walks on `graph`, drawn at the run's seed."""
    model = _load_model(args.ckpt, graph)
    corpus = PathCorpus.build(
        graph,
        users,
        model.embed.metapaths,
        n=cfg.N,
        max_len=cfg.l,
        rng=np.random.default_rng(_seed_of(args, cfg)),
    )
    return PolicyScorer(model, graph, corpus)


# -- subcommands ---------------------------------------------------------------


def _cmd_gen(args) -> int:
    cfg = load_synth_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    ds = generate_synthetic(cfg)
    nodes_path, edges_path = save_dataset(ds, args.out)
    logger.info(
        "wrote %s (%d nodes) and %s (%d clicks)",
        nodes_path,
        ds.graph.total_nodes(),
        edges_path,
        len(ds.clicks),
    )
    return 0


def _cmd_sample(args) -> int:
    cfg = _train_config(args.config)
    ds = _load_data(args.data)
    rng = np.random.default_rng(_seed_of(args, cfg))
    users = [NodeRef(NodeType.USER, i) for i in range(ds.user_count())]
    corpus = PathCorpus.build(
        ds.graph, users, builtin_metapaths(), n=cfg.N, max_len=cfg.l, rng=rng
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        corpus.write_text(fh, ds.ids.name)
    logger.info("wrote corpus for %d users to %s", len(users), args.out)
    return 0


def _cmd_pretrain(args) -> int:
    cfg, env, model, rng = _prepare_training(args)
    _pretrain(cfg, env, model, rng)
    model.save(args.ckpt)
    logger.info("wrote checkpoint %s", args.ckpt)
    return 0


def _cmd_train(args) -> int:
    cfg, env, model, rng = _prepare_training(args)
    if args.init:
        model = _load_model(args.init, env.graph)
    elif not args.from_scratch:
        _pretrain(cfg, env, model, rng)
    model, stats = train_rl(
        model,
        env,
        episodes=cfg.E,
        horizon=cfg.T,
        gamma=cfg.gamma,
        epsilon=cfg.epsilon,
        lam=cfg.lam,
        lr=cfg.lr_rl,
        batch=cfg.batch,
        rng=rng,
    )
    if args.reward_log:
        with open(args.reward_log, "w", encoding="utf-8") as fh:
            fh.write("episode\treward\tlength\n")
            for i, s in enumerate(stats, start=1):
                fh.write(f"{i}\t{s.total_reward:.0f}\t{s.length}\n")
    model.save(args.ckpt)
    logger.info("wrote checkpoint %s", args.ckpt)
    return 0


def _cmd_eval(args) -> int:
    cfg = _train_config(args.config)
    seed = _seed_of(args, cfg)
    ds = _load_data(args.data)
    split = temporal_split(ds, args.cutoff)
    if not split.test_positives:
        print("hincrec: no test positives after the cutoff", file=sys.stderr)
        return 2
    if args.scorer == "model":
        if not args.ckpt:
            raise ConfigError("--ckpt is required for the model scorer")
        users = sorted({user for user, _ in split.test_positives}, key=lambda r: r.index)
        scorer = _model_scorer(args, cfg, split.train.graph, users)
    elif args.scorer == "random":
        scorer = RandomScorer(seed)
    else:
        scorer = PopularityScorer(click_counts(split.train))
    report = evaluate(
        scorer,
        split.test_positives,
        split.clicked_by_user(),
        ds.concept_count(),
        n_negatives=args.negatives,
        seed=seed,
    )
    print(report.pretty() if args.pretty else report.to_tsv())
    return 0


def _cmd_recommend(args) -> int:
    cfg = _train_config(args.config)
    ds = _load_data(args.data)
    graph = ds.graph
    if args.cutoff is not None:
        graph = temporal_split(ds, args.cutoff).train.graph
    user = ds.ids.ref(args.user)
    if user.type != NodeType.USER:
        raise ConfigError(f"{args.user!r} is not a user id")
    logits = _model_scorer(args, cfg, graph, [user]).logits(user)
    already = {ref.index for ref in graph.neighbors(user, Relation.CLICK)}
    order = sorted(
        (c for c in range(len(logits)) if c not in already),
        key=lambda c: (-logits[c], c),
    )
    for rank, concept in enumerate(order[: args.topk], start=1):
        name = ds.ids.name(NodeRef(NodeType.CONCEPT, concept))
        print(f"{rank}\t{name}\t{logits[concept]:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
