"""The README's config example and library example run as written."""

import json
import os
import re

from cavitystream.cli import EXIT_OK, parse_config, run

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme_block(language: str) -> str:
    with open(README) as fh:
        blocks = re.findall(rf"^```{language}\n(.*?)^```", fh.read(), re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1, f"expected one {language} block in README.md"
    return blocks[0]


def test_config_example_parses_and_solves(tmp_path):
    doc = json.loads(readme_block("json"))
    parse_config(doc)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    assert run(["solve", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == EXIT_OK


def test_library_example_runs(capsys):
    exec(compile(readme_block("python"), README, "exec"), {})
    assert capsys.readouterr().out == "4*a*x*y - 4*a*y^2 - 2*x^2*y + 2*y^3\n"
