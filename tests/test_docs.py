"""Every run config documented in the README and the config reference loads
and runs, the reference's batch config loads, and the README's library
example executes."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from gridpulse import engine
from gridpulse.config import build_run_config, load_config, load_experiment

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "docs/config.md")


def run_config_blocks() -> list:
    """Each ```yaml block of the docs that is a run config, id'd by file and block."""
    blocks = []
    for name in DOCS:
        text = (ROOT / name).read_text()
        for i, block in enumerate(re.findall(r"```yaml\n(.*?)```", text, re.S)):
            if block.startswith("schema:"):
                blocks.append(pytest.param(block, id=f"{name}-{i}"))
    return blocks


def test_both_files_document_a_run_config():
    files = {param.id.rsplit("-", 1)[0] for param in run_config_blocks()}
    assert files == set(DOCS)


@pytest.mark.parametrize("block", run_config_blocks())
def test_documented_run_config_loads(tmp_path, block):
    path = tmp_path / "run.yaml"
    path.write_text(block)
    cfg = load_config(path)
    assert cfg.source.jitter <= cfg.params.kappa / 4


@pytest.mark.parametrize("block", run_config_blocks())
def test_documented_run_config_runs(tmp_path, block):
    path = tmp_path / "run.yaml"
    path.write_text(block)
    cfg = load_config(path)
    result = engine.run(cfg)
    assert result.completed
    assert result.counts.shape == (cfg.layers, cfg.base.num_vertices)


def test_documented_batch_config_loads(tmp_path):
    blocks = [block for block in re.findall(r"```yaml\n(.*?)```", (ROOT / DOCS[1]).read_text(),
                                            re.S) if block.startswith("run:")]
    assert len(blocks) == 1
    path = tmp_path / "batch.yaml"
    path.write_text(blocks[0])
    spec = load_experiment(path)
    assert spec.seeds == (1, 2, 3) and spec.axes == {"topology.m": [8, 16], "layers": [6, 10]}
    assert spec.trials == 200 and len(spec.behavior_mix) == 5
    assert build_run_config(spec.run).layers == 10


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert float(capsys.readouterr().out) >= 0.0
