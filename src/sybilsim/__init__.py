"""Deterministic simulator of decentralized learning under Sybil poisoning attacks.

The package is organised around the train-aggregate loop of decentralized
learning: small numpy models (:mod:`sybilsim.numerics`), dataset synthesis and
poisoning (:mod:`sybilsim.data`), network graphs and attack-edge placement
(:mod:`sybilsim.topology`), robust aggregation rules (:mod:`sybilsim.aggregation`),
the signed-history gossip layer (:mod:`sybilsim.gossip`), and the synchronous
round engine (:mod:`sybilsim.engine`).  Experiments are driven either through
the library API or the ``sybilsim`` command line tool (:mod:`sybilsim.cli`).
"""

__version__ = "0.1.0"

from sybilsim.numerics import (
    Architecture,
    Model,
    TrainConfig,
    cosine_similarity,
    evaluate_accuracy,
    init_model,
    train_sgd,
)
from sybilsim.data import (
    AttackSpec,
    LabeledDataset,
    PartitionSpec,
    apply_backdoor,
    apply_label_flip,
    attack_score,
    dirichlet_partition,
    load_idx,
    synth_blobs,
)
from sybilsim.topology import (
    SSPPlan,
    Topology,
    attach_sybils,
    bfs_distances,
    cap_degrees,
    kmedoids,
    plan_ssp_attack,
    random_geometric_graph,
)
from sybilsim.aggregation import (
    ContributionSet,
    coordinate_median,
    fedavg,
    foolsgold_scores,
    krum_score,
    krum_select,
    multi_krum,
    sybilwall_weights,
)
from sybilsim.gossip import (
    HistoryDB,
    HistoryRecord,
    RoundMessage,
    SignedHistory,
    compose_message,
    filter_db,
    receive_message,
    select_gossip,
    update_db,
)
from sybilsim.config import SimulationConfig
from sybilsim.engine import RoundMetrics, RunResult, run_simulation

__all__ = [
    "Architecture",
    "AttackSpec",
    "ContributionSet",
    "HistoryDB",
    "HistoryRecord",
    "LabeledDataset",
    "Model",
    "PartitionSpec",
    "RoundMessage",
    "RoundMetrics",
    "RunResult",
    "SSPPlan",
    "SignedHistory",
    "SimulationConfig",
    "Topology",
    "TrainConfig",
    "apply_backdoor",
    "apply_label_flip",
    "attach_sybils",
    "attack_score",
    "bfs_distances",
    "cap_degrees",
    "compose_message",
    "coordinate_median",
    "cosine_similarity",
    "dirichlet_partition",
    "evaluate_accuracy",
    "fedavg",
    "filter_db",
    "foolsgold_scores",
    "init_model",
    "kmedoids",
    "krum_score",
    "krum_select",
    "load_idx",
    "multi_krum",
    "plan_ssp_attack",
    "random_geometric_graph",
    "receive_message",
    "run_simulation",
    "select_gossip",
    "synth_blobs",
    "sybilwall_weights",
    "train_sgd",
    "update_db",
]
