"""The shared oracles agree with the program's constants and stay independent."""

import ast
import inspect
from pathlib import Path

import oracles
from sybilsim import aggregation, topology


def test_oracles_share_the_program_constants_and_import_none_of_it():
    assert oracles.SCORE_FLOOR == aggregation.SCORE_FLOOR
    eps = inspect.signature(oracles.similarity_scores).parameters["eps"].default
    assert eps == aggregation.LOGIT_EPS
    for n, phi, total in ((10, 0.2, 2), (50, 1.1, 55), (10, 1e-11, 1)):
        assert oracles.attack_edge_total(n, phi) == total
        assert topology.attack_edge_counts(n, phi)[0] == total
    tree = ast.parse(Path(oracles.__file__).read_text())
    imported = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for a in node.names]
    imported += [node.module or "" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert not [name for name in imported if name.split(".")[0] == "sybilsim"]
