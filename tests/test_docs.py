import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = [
    pytest.param(block, id=f"{name}-{i}")
    for name in ("README.md", "PAPER.md")
    for i, block in enumerate(re.findall(r"^```python\n(.*?)^```",
                                         (ROOT / name).read_text(encoding="utf-8"),
                                         flags=re.DOTALL | re.MULTILINE))
]


SCENARIOS = re.findall(r"^```yaml\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"),
                       flags=re.DOTALL | re.MULTILINE)


def test_docs_have_python_examples():
    assert {b.id.split("-")[0] for b in BLOCKS} == {"README.md", "PAPER.md"}
    assert SCENARIOS


@pytest.mark.parametrize("block", BLOCKS)
def test_python_example_runs(block):
    exec(compile(block, "<doc example>", "exec"), {})


@pytest.mark.parametrize("block", SCENARIOS)
def test_readme_scenario_is_valid(block):
    import yaml

    from optoflux import cli

    cli.Scenario.from_dict(yaml.load(block, Loader=cli._UniqueKeyLoader))


def test_readme_lists_every_scenario_key():
    from optoflux import cli

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    keys = [f"{name}.{key}" for name, (_, section) in cli._SECTIONS.items() for key in section]
    assert [key for key in keys if f"| `{key}` |" not in readme] == []
