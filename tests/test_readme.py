"""The front page runs: the README's Quickstart block is executed as
written, so an API change that breaks it fails here first."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quickstart_runs(capsys):
    block = re.search(r"## Quickstart\n\n```python\n(.*?)```",
                      README.read_text(), re.S).group(1)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["status"].is_complete
    printed = capsys.readouterr().out
    # the log of both universes: a GRAM job and a vanilla job on a glidein
    for event in ("submit", "execute", "terminate"):
        assert event in printed
    assert "glidein-1@anl-lrm" in printed
