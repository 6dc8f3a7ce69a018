"""External-command paraphrase provider for the benchmark (stdlib only).

Speaks the `lbk fuse --provider-kind external_command` protocol: reads
{"task": "paraphrase", "text": ..., "l_min": ..., ...} on stdin and prints
{"text": ...}. The transform is deterministic (first l_min words, reversed,
lowercased) so the benchmark can build the expected prompt on its own.

With ``--log FILE`` it appends one line per invocation holding its own
user+system CPU seconds, interpreter start included. That is how the traced
run counts provider calls and their cost without touching stdout.

    echo '{"text": "a b c", "l_min": 8}' | python3 bench/provider.py
"""

from __future__ import annotations

import json
import resource
import sys


def transform(text: str, l_min: int) -> str:
    return " ".join(w.lower() for w in reversed(text.split()[:l_min]))


def main(argv: list[str]) -> int:
    request = json.load(sys.stdin)
    sys.stdout.write(json.dumps({"text": transform(request["text"], int(request.get("l_min", 8)))}))
    sys.stdout.flush()
    if len(argv) == 2 and argv[0] == "--log":
        ru = resource.getrusage(resource.RUSAGE_SELF)
        with open(argv[1], "a", encoding="utf-8") as fh:
            fh.write(f"{ru.ru_utime + ru.ru_stime!r}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
