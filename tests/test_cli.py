"""Command line interface: argument handling, outputs, exit codes."""

import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import warnings
from dataclasses import is_dataclass
from pathlib import Path
from typing import Optional, get_args, get_origin, get_type_hints

import numpy as np
import pytest
import yaml

import sybilsim
from sybilsim.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from sybilsim.config import AttackConfig, ConfigError, SimulationConfig, load_config
from sybilsim.engine import _build_attack_spec, _build_datasets, run_simulation
from sybilsim.gossip import SCHEMES

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = PYPROJECT.parent / "README.md"

BASE_YAML = """\
seed: 11
rounds: 4
aggregator: fedavg
honest_nodes: 8
degree_bound: 8
topology:
  radius: 0.7
data:
  kind: blobs
  classes: 4
  per_class: 10
  test_per_class: 5
  dim: 16
  spread: 0.15
  alpha: 0.5
train:
  learning_rate: 0.05
  local_epochs: 2
  batch_size: 8
gossip:
  lam: 0.8
"""

ATTACK_YAML = BASE_YAML.replace("aggregator: fedavg", "aggregator: sybilwall") + """\
attack:
  kind: backdoor
  phi: 1.0
  target: 2
  pattern_size: 3
  pattern_value: 1.0
rule_params:
  kappa: 8.0
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(BASE_YAML)
    return str(path)


@pytest.fixture
def attack_config_file(tmp_path):
    path = tmp_path / "attack.yaml"
    path.write_text(ATTACK_YAML)
    return str(path)


def _float_paths(cls, prefix=""):
    """Dotted path of every float field, sections and optional sections opened."""
    for name, hint in get_type_hints(cls).items():
        inner = [t for t in (hint, *get_args(hint)) if is_dataclass(t)]
        if inner:
            yield from _float_paths(inner[0], f"{prefix}{name}.")
        elif hint is float:
            yield f"{prefix}{name}"


FLOAT_PATHS = list(_float_paths(SimulationConfig))


class TestValidate:
    def test_good_config(self, config_file, capsys):
        assert main(["validate", "--config", config_file]) == EXIT_OK
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[-1] == "config ok"
        echoed = json.loads("\n".join(lines[:-1]))
        assert echoed["aggregator"] == "fedavg"
        assert echoed["honest_nodes"] == 8

    def test_missing_file(self, tmp_path, capsys):
        code = main(["validate", "--config", str(tmp_path / "nope.yaml")])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_unparseable_yaml(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("seed: [unclosed\n")
        assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, field",
        [
            ("aggegator: fedavg\n", "aggegator"),
            ("rule_params:\n  krum_f: 1\n", "rule_params.krum_f"),
            ("rule_params:\n  multikrum_m: 2\n", "rule_params.multikrum_m"),
            ("rule_params:\n  logit_eps: 1.0e-5\n", "rule_params.logit_eps"),
            ("out_dir: elsewhere\n", "out_dir"),
        ],
        ids=["aggegator", "krum_f", "multikrum_m", "logit_eps", "out_dir"],
    )
    def test_unknown_field(self, tmp_path, capsys, extra, field):
        # a typo, and the settings that are derived (Krum's f, Multi-Krum's
        # m), fixed (the logit clip) or left to the command line (output)
        path = tmp_path / "typo.yaml"
        path.write_text(BASE_YAML + extra)
        assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
        assert f"{field}: unknown field" in capsys.readouterr().err

    def test_unknown_aggregator(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(BASE_YAML.replace("fedavg", "trimmed"))
        assert main(["validate", "--config", str(path)]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "old, new, field",
        [
            ("rounds: 4", 'rounds: "10"', "rounds: expected int, got str"),
            ("  radius: 0.7", "  radius: wide", "topology.radius: expected float, got str"),
            ("  local_epochs: 2", "  local_epochs: true", "train.local_epochs: expected int"),
            ("  lam: 0.8", "  lam: [0.8]", "gossip.lam: expected float, got list"),
            (
                "  lam: 0.8",
                "  lam: 0.8\n  scheme: rsa",
                f"gossip.scheme: must be one of {', '.join(SCHEMES)}, not 'rsa'",
            ),
        ],
    )
    def test_mistyped_value_names_the_field(self, tmp_path, capsys, old, new, field):
        path = tmp_path / "typed.yaml"
        path.write_text(BASE_YAML.replace(old, new))
        assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
        assert f"config error: {field}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, field",
        [
            pytest.param(
                BASE_YAML.replace("  radius: 0.7", "  radius: 1.5"),
                "topology.radius",
                id="radius-above-sqrt2",
            ),
            pytest.param(
                ATTACK_YAML.replace("degree_bound: 8", "degree_bound: 3").replace(
                    "phi: 1.0", "phi: 2.0"
                ),
                "degree_bound",
                id="no-room-for-attack-edges",
            ),
            pytest.param(
                # 8 * phi rounds up to 9 edges, so some node takes 2
                ATTACK_YAML.replace("degree_bound: 8", "degree_bound: 3").replace(
                    "phi: 1.0", "phi: 1.0000000005"
                ),
                "degree_bound",
                id="no-room-for-attack-edges-in-the-fuzz-band",
            ),
            pytest.param(
                # 99 * phi overflows a float
                ATTACK_YAML.replace("honest_nodes: 8", "honest_nodes: 99").replace(
                    "phi: 1.0", "phi: 1.0e+307"
                ),
                "degree_bound",
                id="no-room-for-attack-edges-past-the-float-range",
            ),
        ],
    )
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_network_the_run_cannot_build_is_a_config_error(
        self, tmp_path, capsys, text, field, command
    ):
        """What would fail while building the network fails validation first."""
        path = tmp_path / "unbuildable.yaml"
        path.write_text(text)
        args = [command, "--config", str(path)]
        if command == "run":
            args += ["--out-dir", str(tmp_path / "out")]
        assert main(args) == EXIT_CONFIG
        assert f"config error: {field}: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, field",
        [
            pytest.param(
                BASE_YAML.replace("honest_nodes: 8", "honest_nodes: 40").replace(
                    "  radius: 0.7", "  radius: 0.05"
                ),
                "topology.radius",
                id="no-connected-graph",
            ),
            pytest.param(
                BASE_YAML.replace("seed: 11", "seed: 1")
                .replace("honest_nodes: 8", "honest_nodes: 12")
                .replace("degree_bound: 8", "degree_bound: 2")
                .replace("  radius: 0.7", "  radius: 1.4"),
                "degree_bound",
                id="only-bridges-left-to-cap",
            ),
        ],
    )
    @pytest.mark.parametrize("command", ["run", "sweep", "topology"])
    def test_network_that_fails_to_build_is_a_config_error(
        self, tmp_path, capsys, text, field, command
    ):
        """A config that validates but whose network cannot be generated
        or capped exits 2 naming the setting, not 3."""
        path = tmp_path / "unbuilt.yaml"
        path.write_text(text)
        assert main(["validate", "--config", str(path)]) == EXIT_OK
        args = [command, "--config", str(path), "--out-dir", str(tmp_path / "out")]
        if command == "sweep":
            args += ["--axis", "aggregator", "--values", "fedavg"]
        assert main(args) == EXIT_CONFIG
        assert f"config error: {field}: " in capsys.readouterr().err

    @pytest.mark.parametrize("size, code", [(16, EXIT_OK), (17, EXIT_CONFIG)])
    def test_blob_trigger_must_fit_data_dim(self, tmp_path, capsys, size, code):
        path = tmp_path / "trigger.yaml"
        path.write_text(ATTACK_YAML.replace("pattern_size: 3", f"pattern_size: {size}"))
        assert main(["validate", "--config", str(path)]) == code
        if code == EXIT_CONFIG:
            err = capsys.readouterr().err
            assert "config error: attack.pattern_size: must be <= data.dim" in err

    @pytest.mark.parametrize(
        "text, extra, field",
        [
            pytest.param(
                BASE_YAML.replace("seed: 11", "seed: -1"), [], "seed", id="negative-seed"
            ),
            pytest.param(BASE_YAML, ["--seed", "-1"], "seed", id="negative-seed-flag"),
            pytest.param(
                BASE_YAML, ["--seed", str(2**63)], "seed", id="seed-flag-past-int64"
            ),
            pytest.param(
                BASE_YAML.replace("  radius: 0.7", "  radius: 0.7\n  seed: -5"),
                [],
                "topology.seed",
                id="negative-topology-seed",
            ),
        ],
    )
    @pytest.mark.parametrize("command", ["validate", "run", "topology", "sweep"])
    def test_seed_the_run_cannot_use_is_a_config_error(
        self, tmp_path, capsys, text, extra, field, command
    ):
        """A seed outside [0, 2**63) fails every command before any work."""
        path = tmp_path / "seeded.yaml"
        path.write_text(text)
        args = [command, "--config", str(path), "--out-dir", str(tmp_path / "out")]
        if command == "sweep":
            args += ["--axis", "aggregator", "--values", "fedavg"]
        assert main(args + extra) == EXIT_CONFIG
        assert f"config error: {field}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_largest_seed_runs(self, config_file, tmp_path):
        args = ["--config", config_file, "--seed", str(2**63 - 1)]
        assert main(["validate"] + args) == EXIT_OK
        assert main(["run", "--out-dir", str(tmp_path)] + args) == EXIT_OK

    def test_every_float_setting_is_found(self):
        assert FLOAT_PATHS == [
            "topology.radius", "data.spread", "data.alpha", "train.learning_rate",
            "attack.phi", "attack.pattern_value", "gossip.lam", "rule_params.kappa",
        ]

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("path", FLOAT_PATHS)
    def test_non_finite_float_setting_is_a_config_error(self, path, value):
        cfg = SimulationConfig(attack=AttackConfig(kind="backdoor"))
        section, name = path.split(".")
        setattr(getattr(cfg, section), name, value)
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)}: must be finite$"):
            cfg.validate()

    def test_infinite_phi_fails_validate_with_exit_2(self, tmp_path, capsys):
        # checked before the attack-edge headroom, so the error names phi
        path = tmp_path / "inf.yaml"
        path.write_text(ATTACK_YAML.replace("phi: 1.0", "phi: .inf"))
        assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
        assert "config error: attack.phi: must be finite" in capsys.readouterr().err

    def test_int_for_float_and_null_for_optional_accepted(self, tmp_path):
        path = tmp_path / "loose.yaml"
        path.write_text(
            BASE_YAML.replace("  learning_rate: 0.05", "  learning_rate: 1")
            + "  capacity: null\n"
        )
        assert main(["validate", "--config", str(path)]) == EXIT_OK


# Every scalar config path and the type its error names.  Loading reads
# these types from the dataclass annotations; this table pins them.
SCALAR_TYPES = {
    "seed": "int",
    "rounds": "int",
    "aggregator": "str",
    "honest_nodes": "int",
    "degree_bound": "int",
    "adversary_epochs": "int",
    "topology.radius": "float",
    "topology.seed": "int",
    "data.kind": "str",
    "data.classes": "int",
    "data.per_class": "int",
    "data.test_per_class": "int",
    "data.dim": "int",
    "data.spread": "float",
    "data.alpha": "float",
    "data.images_path": "str",
    "data.labels_path": "str",
    "data.test_images_path": "str",
    "data.test_labels_path": "str",
    "train.learning_rate": "float",
    "train.local_epochs": "int",
    "train.batch_size": "int",
    "attack.kind": "str",
    "attack.phi": "float",
    "attack.source": "int",
    "attack.target": "int",
    "attack.pattern_size": "int",
    "attack.pattern_value": "float",
    "gossip.lam": "float",
    "gossip.capacity": "int",
    "gossip.sybils_gossip": "bool",
    "gossip.scheme": "str",
    "rule_params.kappa": "float",
    "downtime[0].node": "int",
    "downtime[0].start": "int",
    "downtime[0].length": "int",
}


def _scalar_hints(cls, prefix=""):
    """(path, annotation) of every scalar field, opening sections and the
    first entry of a list."""
    for name, hint in get_type_hints(cls).items():
        inner = [t for t in (hint, *get_args(hint)) if is_dataclass(t)]
        if not inner:
            yield f"{prefix}{name}", hint
        elif get_origin(hint) is list:
            yield from _scalar_hints(inner[0], f"{prefix}{name}[0].")
        else:
            yield from _scalar_hints(inner[0], f"{prefix}{name}.")


def _config_with(tmp_path, path, value) -> str:
    """The attack config plus one downtime entry, with ``path`` set to ``value``."""
    raw = yaml.safe_load(ATTACK_YAML)
    raw["downtime"] = [{"node": 1, "start": 2}]
    *parents, leaf = re.findall(r"[^.\[\]]+", path)
    target = raw
    for key in parents:
        target = target[int(key)] if key.isdigit() else target[key]
    target[int(leaf) if leaf.isdigit() else leaf] = value
    out = tmp_path / "typed.yaml"
    out.write_text(yaml.safe_dump(raw))
    return str(out)


class TestConfigTypes:
    def test_table_names_every_scalar_field(self):
        hints = dict(_scalar_hints(SimulationConfig))
        assert sorted(hints) == sorted(SCALAR_TYPES)
        for kind in (Optional[str], Optional[int], bool):
            assert kind in hints.values()

    def test_base_config_with_downtime_validates(self, tmp_path, capsys):
        config = _config_with(tmp_path, "seed", 11)
        assert main(["validate", "--config", config]) == EXIT_OK

    @pytest.mark.parametrize("path, kind", sorted(SCALAR_TYPES.items()))
    def test_list_for_a_scalar_names_the_field(self, tmp_path, capsys, path, kind):
        config = _config_with(tmp_path, path, [1])
        assert main(["validate", "--config", config]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: {path}: expected {kind}, got list" in err

    @pytest.mark.parametrize(
        "path, problem",
        [
            *[
                (name, "expected a mapping, got NoneType")
                for name in ("topology", "data", "train", "gossip", "rule_params")
            ],
            ("downtime", "expected a list, got NoneType"),
            ("downtime[0]", "expected a mapping, got NoneType"),
        ],
    )
    def test_null_for_a_section_names_it(self, tmp_path, capsys, path, problem):
        config = _config_with(tmp_path, path, None)
        assert main(["validate", "--config", config]) == EXIT_CONFIG
        assert f"config error: {path}: {problem}" in capsys.readouterr().err

    def test_null_attack_means_no_attack(self, tmp_path):
        assert load_config(_config_with(tmp_path, "attack", None)).attack is None


class TestRun:
    def test_writes_metrics_and_manifest(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--config", config_file, "--out-dir", str(out)])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "final accuracy" in stdout
        lines = (out / "metrics.csv").read_text().strip().split("\n")
        assert lines[0] == "round,mean_accuracy,mean_attack_score"
        assert len(lines) == 5  # header + 4 rounds
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 11
        assert manifest["config"]["rounds"] == 4

    def test_seed_flag_overrides_config(self, config_file, tmp_path):
        out = tmp_path / "seeded"
        main(["run", "--config", config_file, "--seed", "99", "--out-dir", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 99

    def test_repeat_runs_are_byte_identical(self, config_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", config_file, "--out-dir", str(a)])
        main(["run", "--config", config_file, "--out-dir", str(b)])
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()

    def test_out_dir_env_fallback(self, config_file, tmp_path, monkeypatch):
        target = tmp_path / "from-env"
        monkeypatch.setenv("SYBILSIM_OUT_DIR", str(target))
        assert main(["run", "--config", config_file]) == EXIT_OK
        assert (target / "metrics.csv").exists()

    def test_out_dir_defaults_to_runs(self, config_file, tmp_path, monkeypatch):
        monkeypatch.delenv("SYBILSIM_OUT_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", config_file]) == EXIT_OK
        assert (tmp_path / "runs" / "metrics.csv").exists()

    def test_runtime_failure_exit_code(self, config_file, tmp_path, monkeypatch, capsys):
        def boom(cfg, workers=1):
            raise RuntimeError("boom")

        monkeypatch.setattr("sybilsim.cli.run_simulation", boom)
        code = main(
            ["run", "--config", config_file, "--out-dir", str(tmp_path / "x")]
        )
        assert code == EXIT_RUNTIME
        assert "runtime failure: RuntimeError: boom" in capsys.readouterr().err

    def test_underflowing_gossip_weights_exit_runtime(self, tmp_path, capsys):
        path = tmp_path / "lam.yaml"
        path.write_text(BASE_YAML.replace("lam: 0.8", "lam: 1000"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", "--config", str(path), "--out-dir", str(tmp_path / "x")])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert re.search(r"runtime failure: NumericFailure: node \d+ round 1: .*lam 1000", err)

    def test_unscorable_histories_exit_runtime(self, tmp_path, capsys):
        path = tmp_path / "lr.yaml"
        path.write_text(
            BASE_YAML.replace("aggregator: fedavg", "aggregator: sybilwall")
            .replace("learning_rate: 0.05", "learning_rate: 1.0e+200")
        )
        with np.errstate(all="ignore"):
            code = main(["run", "--config", str(path), "--out-dir", str(tmp_path / "x")])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "runtime failure: NumericFailure: node 0 round 2: " in err


class TestSweep:
    def test_summary_rows_match_per_run_finals(self, config_file, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--config",
                config_file,
                "--axis",
                "aggregator",
                "--values",
                "fedavg,median",
                "--out-dir",
                str(out),
            ]
        )
        assert code == EXIT_OK
        summary = (out / "summary.csv").read_text().strip().split("\n")
        assert summary[0] == (
            "axis,value,final_round,final_mean_accuracy,final_mean_attack_score"
        )
        assert len(summary) == 3
        for row in summary[1:]:
            axis, value, *final_fields = row.split(",")
            assert axis == "aggregator"
            per_run = (out / f"aggregator-{value}" / "metrics.csv").read_text()
            assert per_run.strip().split("\n")[-1] == ",".join(final_fields)

    def test_numeric_axis_values(self, config_file, tmp_path):
        out = tmp_path / "alpha"
        code = main(
            [
                "sweep",
                "--config",
                config_file,
                "--axis",
                "alpha",
                "--values",
                "0.1,1",
                "--out-dir",
                str(out),
            ]
        )
        assert code == EXIT_OK
        assert (out / "alpha-0.1" / "metrics.csv").exists()
        assert (out / "alpha-1.0" / "metrics.csv").exists()

    def test_phi_sweep_needs_an_attack_section(self, config_file, tmp_path, capsys):
        code = main(
            [
                "sweep",
                "--config",
                config_file,
                "--axis",
                "phi",
                "--values",
                "0.5,1",
                "--out-dir",
                str(tmp_path / "phi"),
            ]
        )
        assert code == EXIT_CONFIG
        assert "attack" in capsys.readouterr().err

    def test_rejects_unknown_aggregator_value(self, config_file, tmp_path, capsys):
        code = main(
            [
                "sweep",
                "--config",
                config_file,
                "--axis",
                "aggregator",
                "--values",
                "trimmed",
                "--out-dir",
                str(tmp_path / "bad"),
            ]
        )
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "axis, values",
        [
            ("alpha", "x,y"),
            ("alpha", "0.5,0.50"),
            ("phi", "1,1.0"),
            ("aggregator", "fedavg,fedavg"),
        ],
        ids=["non-numeric", "repeated-alpha", "repeated-phi", "repeated-aggregator"],
    )
    def test_rejects_bad_values(self, attack_config_file, tmp_path, capsys, axis, values):
        """Bad or repeated values exit 2 naming ``values`` before any run:
        ``1`` and ``1.0`` are one value, and a repeat would overwrite its
        own run directory."""
        out = tmp_path / "bad"
        code = main(
            [
                "sweep",
                "--config",
                attack_config_file,
                "--axis",
                axis,
                "--values",
                values,
                "--out-dir",
                str(out),
            ]
        )
        assert code == EXIT_CONFIG
        assert "values" in capsys.readouterr().err
        assert not out.exists()


class TestTopologyCommand:
    def test_plain_graph(self, config_file, tmp_path, capsys):
        out = tmp_path / "topo"
        code = main(["topology", "--config", config_file, "--out-dir", str(out)])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "0 sybils" in stdout
        data = json.loads((out / "topology.json").read_text())
        assert len(data["nodes"]) == 8
        assert data["sybils"] == []
        assert not (out / "attack_plan.json").exists()

    def test_attack_graph_writes_plan(self, attack_config_file, tmp_path, capsys):
        out = tmp_path / "topo"
        code = main(
            ["topology", "--config", attack_config_file, "--out-dir", str(out)]
        )
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "scenario:" in stdout
        plan = json.loads((out / "attack_plan.json").read_text())
        assert plan["scenario"] in ("dense", "sparse", "distributed")
        topo = json.loads((out / "topology.json").read_text())
        assert len(topo["sybils"]) >= 1

    @pytest.mark.parametrize("topology_seed", [None, 5])
    def test_edges_match_the_simulated_network(
        self, attack_config_file, tmp_path, topology_seed
    ):
        path = Path(attack_config_file)
        if topology_seed is not None:
            path.write_text(
                path.read_text().replace(
                    "  radius: 0.7\n", f"  radius: 0.7\n  seed: {topology_seed}\n"
                )
            )
        out = tmp_path / "topo"
        args = ["--config", str(path), "--seed", "3", "--out-dir", str(out)]
        assert main(["topology"] + args) == EXIT_OK
        written = json.loads((out / "topology.json").read_text())["edges"]
        cfg = load_config(str(path))
        assert cfg.topology.seed == topology_seed
        cfg.seed = 3
        simulated = run_simulation(cfg).topology.edges
        assert sorted(map(tuple, written)) == sorted(simulated)


def declared_console_script(name):
    """Return the ``module:attr`` target that pyproject.toml declares for ``name``."""
    text = PYPROJECT.read_text()
    if sys.version_info >= (3, 11):
        import tomllib

        return tomllib.loads(text)["project"]["scripts"][name]
    # Python 3.10 has no tomllib: match the entry under the [project.scripts] table.
    table = re.search(r"^\[project\.scripts\]$(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert table, "pyproject.toml declares no [project.scripts] table"
    entry = re.search(rf'^{re.escape(name)}\s*=\s*"([^"]+)"', table.group(1), re.M)
    assert entry, f"[project.scripts] declares no {name} entry"
    return entry.group(1)


def source_env():
    """The environment with the directory this process imported sybilsim
    from first on ``PYTHONPATH``, so a child interpreter runs this checkout's
    code rather than another install."""
    source_root = str(Path(sybilsim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source_root, env.get("PYTHONPATH")]))
    return env


def assert_validates(cmd, env=None):
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "config ok" in proc.stdout


def _write_idx(path: Path, images: np.ndarray, labels: np.ndarray) -> None:
    n, rows, cols = images.shape
    (path / "images").write_bytes(
        struct.pack(">IIII", 0x803, n, rows, cols) + images.astype(np.uint8).tobytes()
    )
    (path / "labels").write_bytes(
        struct.pack(">II", 0x801, n) + labels.astype(np.uint8).tobytes()
    )


IDX_YAML = """\
seed: 3
rounds: 3
aggregator: sybilwall
honest_nodes: 6
degree_bound: 8
topology:
  radius: 0.8
data:
  kind: idx
  alpha: 1.0
  images_path: {root}/train/images
  labels_path: {root}/train/labels
  test_images_path: {root}/test/images
  test_labels_path: {root}/test/labels
train:
  local_epochs: 2
attack:
{attack}"""

BACKDOOR_ATTACK = """\
  kind: backdoor
  phi: 1.0
  target: {target}
  pattern_size: 2
"""

FLIP_ATTACK = """\
  kind: label_flip
  phi: 1.0
  source: {source}
  target: {target}
"""


class TestIdxData:
    """Runs on 4x4 IDX images of 3 classes, whose class count the config
    cannot know before the files are loaded."""

    @pytest.fixture
    def idx_root(self, tmp_path):
        rng = np.random.default_rng(0)
        for split, per_class in (("train", 12), ("test", 5)):
            labels = np.repeat(np.arange(3), per_class)
            images = rng.integers(0, 60, (len(labels), 4, 4))
            for c in range(3):  # one bright row per class
                images[labels == c, c + 1, :] += 180
            (tmp_path / split).mkdir()
            _write_idx(tmp_path / split, images, labels)
        return tmp_path

    def _config(self, root: Path, attack: str) -> str:
        path = root / "idx.yaml"
        path.write_text(IDX_YAML.format(root=root, attack=attack))
        return str(path)

    def test_backdoor_run_completes_and_reruns_identically(self, idx_root):
        config = self._config(idx_root, BACKDOOR_ATTACK.format(target=2))
        out = idx_root / "out"
        assert main(["run", "--config", config, "--out-dir", str(out)]) == EXIT_OK
        csv = (out / "metrics.csv").read_text()
        assert len(csv.strip().split("\n")) == 4  # header + 3 rounds
        first, again = (run_simulation(load_config(config)) for _ in range(2))
        assert first.metrics_csv() == again.metrics_csv() == csv
        for i in first.topology.honest:
            assert np.array_equal(first.final_models[i], again.final_models[i])
            assert np.array_equal(first.final_histories[i], again.final_histories[i])

    @pytest.mark.parametrize(
        "attack, field",
        [
            (BACKDOOR_ATTACK.format(target=5), "attack.target"),
            (FLIP_ATTACK.format(source=1, target=7), "attack.target"),
            (FLIP_ATTACK.format(source=4, target=1), "attack.source"),
        ],
        ids=["backdoor-target", "flip-target", "flip-source"],
    )
    def test_class_beyond_the_loaded_labels_is_a_config_error(
        self, idx_root, capsys, attack, field
    ):
        config = self._config(idx_root, attack)
        assert main(["validate", "--config", config]) == EXIT_OK
        code = main(["run", "--config", config, "--out-dir", str(idx_root / "x")])
        assert code == EXIT_CONFIG
        assert f"config error: {field}: class out of range" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "attack, field, problem",
        [
            (BACKDOOR_ATTACK.format(target=-1), "attack.target", "class out of range"),
            (FLIP_ATTACK.format(source=-1, target=1), "attack.source", "class out of range"),
            (FLIP_ATTACK.format(source=2, target=2), "attack.target", "must differ"),
        ],
        ids=["negative-target", "negative-source", "source-is-target"],
    )
    def test_validate_checks_what_it_can_know(
        self, idx_root, capsys, attack, field, problem
    ):
        config = self._config(idx_root, attack)
        assert main(["validate", "--config", config]) == EXIT_CONFIG
        assert f"config error: {field}: {problem}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "split, classes, width, target, problem",
        [
            ("train", 4, 4, 3, "data.test_labels_path: 3 classes, but the training files have 4"),
            ("test", 4, 4, 2, "data.test_labels_path: 4 classes, but the training files have 3"),
            (
                "test", 3, 3, 2,
                "data.test_images_path: 9 pixels per image, but the training files have 16",
            ),
        ],
        ids=["train-has-more-classes", "test-has-more-classes", "smaller-test-images"],
    )
    def test_splits_that_disagree_are_a_config_error(
        self, idx_root, capsys, split, classes, width, target, problem
    ):
        labels = np.repeat(np.arange(classes), 5)
        images = np.random.default_rng(1).integers(0, 256, (len(labels), width, width))
        _write_idx(idx_root / split, images, labels)
        config = self._config(idx_root, FLIP_ATTACK.format(source=1, target=target))
        assert main(["validate", "--config", config]) == EXIT_OK
        code = main(["run", "--config", config, "--out-dir", str(idx_root / "x")])
        assert code == EXIT_CONFIG
        assert f"config error: {problem}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "split, corrupted, edit, problem",
        [
            (
                "train", "images", lambda raw: struct.pack(">I", 0x804) + raw[4:],
                "{images}: bad IDX magic 0x00000804 at byte 0",
            ),
            ("test", "labels", lambda raw: raw[:-1], "{labels}: truncated IDX data"),
            (
                "test", "labels",
                lambda raw: struct.pack(">II", 0x801, len(raw) - 9) + raw[8:-1],
                "{images}: image count 15 does not match label count 14 in {labels}",
            ),
        ],
        ids=["bad-magic", "truncated-data", "count-mismatch"],
    )
    def test_malformed_file_is_a_config_error(
        self, idx_root, capsys, split, corrupted, edit, problem
    ):
        path = idx_root / split / corrupted
        path.write_bytes(edit(path.read_bytes()))
        config = self._config(idx_root, FLIP_ATTACK.format(source=1, target=2))
        code = main(["run", "--config", config, "--out-dir", str(idx_root / "x")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: data: ")
        paths = {name: idx_root / split / name for name in ("images", "labels")}
        assert problem.format(**paths) in err

    @pytest.mark.parametrize(
        "emptied, problem",
        [
            ((), "data.labels_path: every label is 0, but training needs 2 classes"),
            (("train",), "data.labels_path: the IDX pair holds no samples"),
            (("test",), "data.test_labels_path: the IDX pair holds no samples"),
            (("train", "test"), "data.labels_path: the IDX pair holds no samples"),
        ],
        ids=["one-training-class", "empty-train", "empty-test", "both-empty"],
    )
    def test_training_pair_without_two_classes_is_a_config_error(
        self, idx_root, capsys, emptied, problem
    ):
        if not emptied:  # 60 training images, every one labelled 0
            images = np.random.default_rng(2).integers(0, 256, (60, 4, 4))
            _write_idx(idx_root / "train", images, np.zeros(60))
        for split in emptied:
            _write_idx(idx_root / split, np.zeros((0, 4, 4)), np.zeros(0))
        config = self._config(idx_root, FLIP_ATTACK.format(source=1, target=2))
        assert main(["validate", "--config", config]) == EXIT_OK
        code = main(["run", "--config", config, "--out-dir", str(idx_root / "x")])
        assert code == EXIT_CONFIG
        assert f"config error: {problem}" in capsys.readouterr().err

    def test_images_without_pixels_are_a_config_error(self, idx_root, capsys):
        labels = np.repeat(np.arange(3), 20)
        for split in ("train", "test"):  # 60 images of 0x4 pixels in both pairs
            _write_idx(idx_root / split, np.zeros((60, 0, 4)), labels)
        config = self._config(idx_root, FLIP_ATTACK.format(source=1, target=2))
        assert main(["validate", "--config", config]) == EXIT_OK
        code = main(["run", "--config", config, "--out-dir", str(idx_root / "x")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: data.images_path: the IDX images have no pixels" in err

    def test_flip_classes_missing_from_the_test_pair_are_a_config_error(
        self, idx_root, capsys
    ):
        rng = np.random.default_rng(3)
        for split, labels in (
            ("train", np.repeat(np.arange(4), 12)),
            ("test", np.repeat([0, 3], 5)),  # 4 classes, none of them 1 or 2
        ):
            _write_idx(idx_root / split, rng.integers(0, 256, (len(labels), 4, 4)), labels)
        config = self._config(idx_root, FLIP_ATTACK.format(source=1, target=2))
        assert main(["validate", "--config", config]) == EXIT_OK
        code = main(["run", "--config", config, "--out-dir", str(idx_root / "x")])
        assert code == EXIT_CONFIG
        assert (
            "config error: data.test_labels_path: test set has no samples of classes 1 or 2"
            in capsys.readouterr().err
        )

    @pytest.mark.parametrize("shape", [(4, 6), (6, 4)], ids=["wide", "tall"])
    def test_trigger_larger_than_the_images_is_a_config_error(self, idx_root, capsys, shape):
        labels = np.repeat(np.arange(3), 12)
        for split in ("train", "test"):
            _write_idx(idx_root / split, np.zeros((36, *shape)), labels)
        attack = BACKDOOR_ATTACK.format(target=2).replace("pattern_size: 2", "pattern_size: 5")
        config = self._config(idx_root, attack)
        assert main(["validate", "--config", config]) == EXIT_OK
        code = main(["run", "--config", config, "--out-dir", str(idx_root / "x")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: attack.pattern_size: a 5x5 trigger does not fit" in err

    def test_trigger_sits_in_the_corner_of_non_square_images(self, idx_root):
        labels = np.repeat(np.arange(3), 12)
        for split in ("train", "test"):  # 6 rows of 8 pixels
            _write_idx(idx_root / split, np.zeros((36, 6, 8)), labels)
        cfg = load_config(self._config(idx_root, BACKDOOR_ATTACK.format(target=2)))
        train, _ = _build_datasets(cfg)
        spec = _build_attack_spec(cfg, train)
        assert [i for i, _ in spec.pattern] == [0, 1, 8, 9]

    def test_class_past_the_blob_default_is_accepted(self, idx_root):
        # data.classes (default 10) describes blobs only
        config = self._config(idx_root, FLIP_ATTACK.format(source=1, target=11))
        assert load_config(config).attack.target == 11


def _leaf_names(cls) -> set:
    """Names of the scalar fields under a config dataclass, sections and
    list entries (``Optional[AttackConfig]``, ``List[DowntimeEntry]``) opened."""
    names = set()
    for name, hint in get_type_hints(cls).items():
        inner = [t for t in (hint, *get_args(hint)) if is_dataclass(t)]
        names |= _leaf_names(inner[0]) if inner else {name}
    return names


class TestReadmeConfig:
    def test_config_block_loads_and_names_every_field(self, tmp_path):
        text = README.read_text()
        block = re.search(r"## Config shape.*?```yaml\n(.*?)```", text, re.S).group(1)
        path = tmp_path / "readme.yaml"
        path.write_text(block)
        load_config(str(path))
        missing = {
            name
            for name in _leaf_names(SimulationConfig)
            if not re.search(rf"\b{name}\b", block)
        }
        assert not missing, f"README config block omits {sorted(missing)}"


class TestInstalledEntryPoint:
    def test_console_script_runs(self, config_file):
        # Start the declared entry point in a fresh interpreter the way pip's
        # generated wrapper does, so no install is needed.
        module, attr = declared_console_script("sybilsim").split(":")
        wrapper = (
            f"import sys; from {module} import {attr}; "
            f"sys.argv[0] = 'sybilsim'; sys.exit({attr}())"
        )
        assert_validates(
            [sys.executable, "-c", wrapper, "validate", "--config", config_file],
            env=source_env(),
        )

    @pytest.mark.skipif(
        shutil.which("sybilsim") is None,
        reason="no installed sybilsim console script on PATH",
    )
    def test_installed_console_script_runs(self, config_file):
        assert_validates(
            [shutil.which("sybilsim"), "validate", "--config", config_file]
        )


# The CLI in a child interpreter that cannot import the cryptography package.
WITHOUT_CRYPTOGRAPHY = """\
import sys

class NoCryptography:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "cryptography":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)

sys.meta_path.insert(0, NoCryptography())
from sybilsim.cli import main
sys.exit(main(sys.argv[1:]))
"""


class TestWithoutCryptography:
    """Only ed25519 signing needs the cryptography package."""

    @staticmethod
    def _cli(command, config, out_dir):
        args = [command, "--config", str(config), "--out-dir", str(out_dir)]
        return subprocess.run(
            [sys.executable, "-c", WITHOUT_CRYPTOGRAPHY, *args],
            capture_output=True, text=True, timeout=120, env=source_env(),
        )

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_blake2_config_runs(self, config_file, tmp_path, command):
        proc = self._cli(command, config_file, tmp_path / "out")
        assert proc.returncode == EXIT_OK, proc.stderr

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_ed25519_config_is_a_config_error(self, tmp_path, command):
        path = tmp_path / "ed25519.yaml"
        path.write_text(BASE_YAML.replace("  lam: 0.8", "  lam: 0.8\n  scheme: ed25519"))
        proc = self._cli(command, path, tmp_path / "out")
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert proc.stderr.startswith("config error: gossip.scheme: ed25519 cannot load: ")
        assert "'cryptography'" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()
