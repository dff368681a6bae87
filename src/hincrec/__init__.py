"""Meta-path attention user embeddings + reinforced concept recommendation
over a heterogeneous MOOC interaction graph."""

from .graph import HinGraph, NodeRef, NodeType, Relation, SchemaViolation
from .metapath import MetaPath, PathCorpus, builtin_metapaths, metapath_neighbors, sample_instances
from .autodiff import ShapeMismatch, Tape, Var, grad_check
from .embedding import (
    EmbedConfig,
    EmbedParams,
    UserEmbedding,
    user_embedding,
)
from .policy import (
    ActionNotAvailable,
    ActionSet,
    EmptyActionSet,
    PolicyParams,
    select_action,
)
from .model import ModelParams, init_model
from .training import (
    Adam,
    Episode,
    TrainingEnv,
    discounted_returns,
    make_training_env,
    objective_and_gradients,
    play_episode,
    pretrain,
    rollback_episode,
    step,
    train_rl,
)
from .metrics import (
    EvalReport,
    PolicyScorer,
    PopularityScorer,
    RandomScorer,
    RankedTrial,
    auc,
    aggregate,
    build_trials,
    evaluate,
    hit_ratio,
    mrr,
    ndcg,
    score_trials,
)
from .data import (
    Click,
    Dataset,
    DuplicateId,
    ParseError,
    holdout_targets,
    load_dataset,
    save_dataset,
    temporal_split,
)
from .synth import ConfigInvalid, SynthConfig, generate_synthetic
from .config import ConfigError, TrainConfig, load_synth_config, load_train_config

__version__ = "0.1.0"
