"""Set-up probe, run in a fresh interpreter by run.py.

Usage: python3 setup_probe.py SRC_DIR SPEC_JSON

Times importing ``setopt`` and building the workload's inputs through the
program's own loaders (catalog constructors, ``jsonio.load_json`` plus
the matching ``*_from_dict``), and prints the elapsed seconds.
"""

import json
import sys
import time


def main() -> int:
    src, spec_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as fh:
        spec = json.load(fh)
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    from setopt import catalog, jsonio

    for kind, arg in spec:
        if kind == "problem":
            catalog.make_problem(arg)
        elif kind == "cvp":
            catalog.make_cvp(arg)
        elif kind == "catalog_instance":
            catalog.make_instance(arg)
        elif kind == "table":
            jsonio.problem_from_dict(jsonio.load_json(arg))
        elif kind == "instance":
            jsonio.instance_from_dict(jsonio.load_json(arg))
        else:
            raise ValueError(f"unknown loader kind {kind!r}")
    print(repr(time.perf_counter() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
