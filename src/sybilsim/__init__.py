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
