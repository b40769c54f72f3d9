"""Rewrite ``expected.json``: the default seed's corpus and reference answers.

Usage: python3 bench/pin.py

The benchmark compares its references against these pins whenever it runs
the default seed, so a change to the generator, the chart oracle or the
JSON rendering cannot move the reference without showing. Rerun this only
for a deliberate change to one of those, and say why in the change.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import corpus  # noqa: E402


def main() -> None:
    pins = {}
    for workload in corpus.WORKLOADS:
        sentences = corpus.generate(workload, corpus.DEFAULT_SEED)
        for s in sentences:
            s.expected, note = corpus.reference(workload, s)
            if note:
                sys.exit(f"not pinning: {note}")
        pins[workload] = [corpus.pin_entry(s) for s in sentences]
    # one sentence per line, so a changed pin shows as a one-line diff
    blocks = [f"  {json.dumps(w)}: [\n" + ",\n".join(f"    {json.dumps(e)}" for e in entries) + "\n  ]"
              for w, entries in pins.items()]
    corpus.PINS_PATH.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    main()
