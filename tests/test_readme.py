"""The README's config reference and its `sample` example match the code."""

import json
import os
import re
from pathlib import Path

from bridgelab import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _readme_section(title: str) -> str:
    return README.split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def _spec_keys(spec: dict, path: str) -> set[str]:
    keys = set()
    for key, entry in spec.items():
        keys.add(f"{path}.{key}")
        if isinstance(entry, dict):  # kind -> the spec of the other keys
            for sub in entry.values():
                keys |= _spec_keys(sub, path)
        elif isinstance(entry[0], dict):  # a nested section
            keys |= _spec_keys(entry[0], f"{path}.{key}")
    return keys


def test_config_reference_lists_exactly_the_spec_keys():
    table_keys = re.findall(r"^\| `([\w.]+)` \|", _readme_section("Config reference"), re.M)
    assert len(table_keys) == len(set(table_keys))
    spec_keys = set().union(*(_spec_keys(spec, name) for name, spec in cli._SPECS.items()))
    assert set(table_keys) == spec_keys


def test_minimal_sample_config_runs_as_written(tmp_path):
    usage = _readme_section("CLI usage")
    block = usage.split("A minimal `sample` config:\n\n```json\n", 1)[1].split("```", 1)[0]
    config = tmp_path / "cfg.json"
    config.write_text(block)
    rows = json.loads(block)["sample"]
    out = tmp_path / "run"
    assert cli.main(["sample", "--config", str(config), "--out", str(out), "--seed", "0"]) == 0
    assert sorted(os.listdir(out)) == [
        "diagnostics.json", "manifest.json", "moments.json", "sample.csv"
    ]
    n_rows = rows["n_conditions"] * rows["n_replicates"]
    assert len((out / "sample.csv").read_text().splitlines()) == 1 + n_rows
