"""The README's config reference, its `sample` example, its library example, and the
tile sizes and CSV encoder sizes and bounds it states match the code."""

import json
import os
import re
from pathlib import Path

from bridgelab import cli, metrics

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _readme_section(title: str) -> str:
    return README.split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def _spec_entries(spec: dict, path: str) -> dict[str, object]:
    """Every key path of spec, mapped to its (type, default, bound) entry, or to a dict for
    a kind key."""
    entries = {}
    for key, entry in spec.items():
        entries[f"{path}.{key}"] = entry
        if isinstance(entry, dict):  # kind -> the spec of the other keys
            for sub in entry.values():
                entries.update(_spec_entries(sub, path))
        elif isinstance(entry[0], dict):  # a nested section
            entries.update(_spec_entries(entry[0], f"{path}.{key}"))
    return entries


def test_config_reference_lists_exactly_the_spec_keys():
    rows = re.findall(r"^\| `([\w.]+)` \|([^|]*)\|[^|]*\|([^|]*)\|$",
                      _readme_section("Config reference"), re.M)
    table = {key: (typ.strip(), bound.strip()) for key, typ, bound in rows}
    assert len(rows) == len(table)
    spec = {}
    for name, section in cli._SPECS.items():
        spec.update(_spec_entries(section, name))
    assert set(table) == set(spec)
    for key, entry in spec.items():  # each integer key's README bound is its spec bound
        if not isinstance(entry, dict) and entry[0] == "integer":
            assert table[key][0] == "integer", key
            assert re.match(rf">= {entry[2]}\b", table[key][1]), (key, table[key][1])


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


def test_library_usage_runs_as_written(capsys):
    block = _readme_section("Library usage").split("```python\n", 1)[1].split("```", 1)[0]
    scope: dict = {}
    exec(compile(block, "README.md", "exec"), scope)
    assert scope["result"].x0_batch.shape == (1000, 1)
    assert capsys.readouterr().out.startswith("[")


def _row_counts(text: str) -> set[int]:
    """Every row count the text states, as "N rows" or "N-row"."""
    return {int(n) for n in re.findall(r"(\d+)[ -]rows?\b", text)}


def test_metrics_paragraphs_state_the_tile_constants():
    metrics_item = _readme_section("What it does").split("- **Metrics**", 1)[1].split("\n- **", 1)[0]
    assert _row_counts(metrics_item) == {metrics._ROW_TILE}
    note = _readme_section("Numerical notes").split(
        "- **Pair distances equal SciPy's `cdist` bit for bit.**", 1)[1].split("\n- **", 1)[0]
    assert _row_counts(note) == {metrics._PAIR_BLOCK}


def test_artifact_paragraph_states_the_encoder_sizes_and_fixed_notation_bounds():
    paragraph = "Artifacts are encoded" + _readme_section("CLI usage").split(
        "Artifacts are encoded", 1)[1].split("\n\n", 1)[0]
    assert _row_counts(paragraph) == {cli._BLOCK_ROWS}
    bounds = {float(x) for x in re.findall(r"\b\d+e-?\d+\b", paragraph)}
    assert bounds == {cli._FIXED_LO, cli._FIXED_HI}
