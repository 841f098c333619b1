#!/usr/bin/env python3
"""Regenerate the bundled traditional-to-simplified table.

Reads the OpenCC project's TSCharacters.txt and TSPhrases.txt (Apache
License 2.0), keeps the first simplified candidate of each entry, drops
identity mappings, and rewrites values until every mapping's output is a
fixed point of the table itself, so conversion is idempotent.

Usage:
    python3 tools/gen_t2s_table.py TSCharacters.txt TSPhrases.txt > src/zhstance/data/t2s.tsv
"""

from __future__ import annotations

import sys

from zhstance.zh_convert import ConversionTable, to_simplified

HEADER = """\
# Traditional-to-simplified Chinese conversion table.
# Derived from the OpenCC project's TSCharacters and TSPhrases data
# (https://github.com/BYVoid/OpenCC, Apache License 2.0), reduced to one
# simplified candidate per entry and filtered so conversion is idempotent.
"""


def read_pairs(path: str) -> list[tuple[str, str]]:
    pairs = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, rest = line.partition("\t")
            candidates = rest.split()
            if key and candidates:
                pairs.append((key, candidates[0]))
    return pairs


def _keep(key: str, value: str) -> bool:
    # Identity entries are redundant for single characters (passthrough
    # already leaves them alone) but load-bearing for phrases, where they
    # shield the phrase from wrong character-by-character conversion.
    return key != value or len(key) > 1


def fixpoint(pairs: list[tuple[str, str]]) -> list[tuple[str, str]]:
    pairs = [(k, v) for k, v in dict(pairs).items() if _keep(k, v)]
    for _ in range(10):
        table = ConversionTable(dict(pairs))
        rewritten = [(k, to_simplified(v, table)) for k, v in pairs]
        rewritten = [(k, v) for k, v in rewritten if _keep(k, v)]
        if rewritten == pairs:
            return pairs
        pairs = rewritten
    raise SystemExit("value rewriting did not converge")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    pairs = fixpoint(read_pairs(argv[0]) + read_pairs(argv[1]))
    table = ConversionTable(dict(pairs))
    for key, value in pairs:
        assert to_simplified(key, table) == value, (key, value)
        assert to_simplified(value, table) == value, (key, value)
    sys.stdout.write(HEADER)
    for key, value in sorted(pairs):
        sys.stdout.write(f"{key}\t{value}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
