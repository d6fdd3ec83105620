"""Print where a ledger directory's bytes go, by kind.

Loads the ledger first, so only a directory that loads is counted, then
splits each epoch file into its operation line, its entries' weight lines
and payloads (each payload with the LF that ends it), its references and
its chain line, and counts ``cluster.state`` and any other file whole. The kinds sum to the directory's size, printed last:

    PYTHONPATH=src python tools/ledger_bytes.py DIR
"""

import sys
from pathlib import Path

from cloudledger.ledger import _BLOCK_LINE, _CHAIN_SIZE, CLUSTER_FILE, load_ledger

KINDS = ("operation lines", "entry weight lines", "payloads", "references", "chain lines", CLUSTER_FILE, "other files")


def ledger_bytes(directory: Path) -> dict[str, int]:
    """The directory's bytes by kind, in KINDS order."""
    counts = dict.fromkeys(KINDS, 0)
    points = load_ledger(directory).points
    for point in points:
        record = point.record
        position = record.index(b"\n") + 1
        counts["operation lines"] += position
        while (line := _BLOCK_LINE.match(record, position, len(record) - _CHAIN_SIZE)) is not None:
            if line["weight"] is None:
                counts["references"] += line.end() - position
                position = line.end()
            else:
                counts["entry weight lines"] += line.end() - position
                counts["payloads"] += int(line["weight"]) + 1
                position = line.end() + int(line["weight"]) + 1
        counts["chain lines"] += len(record) - position
    epoch_files = {f"{point.epoch}.snapshot" for point in points}
    for path in directory.iterdir():
        if path.name not in epoch_files:
            counts[CLUSTER_FILE if path.name == CLUSTER_FILE else "other files"] += path.stat().st_size
    return counts


def main(arguments: list[str]) -> int:
    if len(arguments) != 1:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    counts = ledger_bytes(Path(arguments[0]))
    total = sum(counts.values())
    for kind, count in counts.items():
        print(f"{kind}: {count} B ({100 * count / max(total, 1):.1f}%)")
    print(f"total: {total} B")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
