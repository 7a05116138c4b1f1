"""One `gaudin` CLI call in a fresh interpreter, with timing marks.

    python3 child.py MARKS TRACE [gaudin arguments ...]

Imports ``gaudin.cli``, optionally installs the span tracer (TRACE=1), calls
``gaudin.cli.main`` with the remaining arguments and writes a JSON file MARKS
holding the monotonic clock just before and just after that call, and the
path ``gaudin.cli`` was imported from.  Traced calls add the raw spans, the
commutation-pair counter and the size of the straightening cache.  With the
single argument ``probe`` it records the first mark and exits without
calling ``main``.
"""

import sys
import time


def run(marks_path: str, traced: bool, argv: list[str]) -> int:
    import gaudin.algebra
    import gaudin.cli

    tracer = None
    if traced:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    marks = {"module": gaudin.cli.__file__}
    if argv == ["probe"]:
        marks["main_start"] = time.monotonic()
        rc = 0
    else:
        entry = gaudin.cli.main
        marks["main_start"] = time.monotonic()
        rc = entry(argv)
        marks["main_end"] = time.monotonic()
    if tracer is not None:
        marks["spans"] = tracer.spans
        marks["counters"] = dict(tracer.counters)
        marks["straighten_cache_words"] = len(gaudin.algebra._STRAIGHTEN)
    import json
    with open(marks_path, "w") as fh:
        json.dump(marks, fh)
    return rc


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2] == "1", sys.argv[3:]))
