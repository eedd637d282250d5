"""Every run config documented in the README and the config reference loads."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from gridpulse.config import load_config

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
