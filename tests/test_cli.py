"""Command line interface: argument handling, outputs, exit codes."""

import json
import os
import re
import shutil
import struct
import subprocess
import sys
from dataclasses import is_dataclass
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np
import pytest

import sybilsim
from sybilsim.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from sybilsim.config import SimulationConfig, load_config
from sybilsim.engine import run_simulation

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

    def test_int_for_float_and_null_for_optional_accepted(self, tmp_path):
        path = tmp_path / "loose.yaml"
        path.write_text(
            BASE_YAML.replace("  learning_rate: 0.05", "  learning_rate: 1")
            + "  capacity: null\n"
        )
        assert main(["validate", "--config", str(path)]) == EXIT_OK


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

    def test_rejects_non_numeric_values(self, config_file, tmp_path):
        code = main(
            [
                "sweep",
                "--config",
                config_file,
                "--axis",
                "alpha",
                "--values",
                "x,y",
                "--out-dir",
                str(tmp_path / "bad"),
            ]
        )
        assert code == EXIT_CONFIG


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
        # generated wrapper does, so no install is needed. The directory this
        # process imported sybilsim from goes first on the child's path, so
        # the child runs this checkout's code rather than another install.
        module, attr = declared_console_script("sybilsim").split(":")
        source_root = str(Path(sybilsim.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [source_root, env.get("PYTHONPATH")])
        )
        wrapper = (
            f"import sys; from {module} import {attr}; "
            f"sys.argv[0] = 'sybilsim'; sys.exit({attr}())"
        )
        assert_validates(
            [sys.executable, "-c", wrapper, "validate", "--config", config_file],
            env=env,
        )

    @pytest.mark.skipif(
        shutil.which("sybilsim") is None,
        reason="no installed sybilsim console script on PATH",
    )
    def test_installed_console_script_runs(self, config_file):
        assert_validates(
            [shutil.which("sybilsim"), "validate", "--config", config_file]
        )
