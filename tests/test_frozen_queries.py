"""Every frozen CLI answer of the `queries` benchmark, replayed through
`cli.main`: the exit code and stdout must match byte for byte, so that an
output change fails here before the benchmark sees it.  Each entry is
replayed twice in one process, first with no named lattice, embedding
report or recognition kept, so that every search runs,
and then warm, as the benchmark's session asks them again.  The file is
only read."""

import json
from pathlib import Path

import pytest

from hklat import classify, lattices
from hklat.cli import main

FROZEN = json.loads(
    (Path(__file__).parents[1] / "perfbench" / "expected" / "queries.json").read_text()
)
COUNTS = {"invariants": 126, "embed": 126, "involution": 504, "census": 37, "local-actions": 8}


def _argv(command, key, entry, tmp_path):
    """The command line the benchmark runs for one frozen entry."""
    if command == "invariants":
        return [command, key]
    if command == "embed":
        return [command, "--expr", key]
    if command == "involution":
        r, a, delta = key.split(",")
        return [command, "--r", r, "--a", a, "--delta", delta]
    if command == "census":
        locus = tmp_path / f"{key}.json"
        locus.write_text(json.dumps(entry["locus"]))
        return [command, str(locus)] + (["--check", entry["check"]] if entry["check"] else [])
    return [command, "--prime", key]


@pytest.mark.parametrize("command", list(COUNTS))
def test_cli_replays_every_frozen_query(command, capsys, tmp_path):
    entries = FROZEN[command]
    assert len(entries) == COUNTS[command]
    lattices.realize.cache_clear()
    classify.embed_in_L.cache_clear()
    classify.recognize.cache_clear()
    differ = []
    for replay in ("cold", "warm"):
        for key, entry in sorted(entries.items()):
            code = main(_argv(command, key, entry, tmp_path))
            out = capsys.readouterr().out
            if (code, out) != (entry["code"], entry["out"]):
                differ.append((replay, key, code, out))
    assert differ == []
