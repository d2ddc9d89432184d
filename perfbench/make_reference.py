"""Record the reference outputs the benchmark's gate compares against.

    python3 perfbench/make_reference.py

Runs every suite and census op of every reference seed (see
workloads.py) and writes their exit status, report digest and check
count, or the exception raised, to perfbench/reference.json.  Run it
only on a commit whose outputs are known to be right: a change that
alters reports on purpose regenerates the file and says why.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import workloads


def main():
    lib = workloads.import_library()
    tmpdir = tempfile.mkdtemp(dir=str(workloads.ROOT))
    try:
        ops = {}
        for op in workloads.reference_ops(lib, os.path.join(tmpdir, "out.json")):
            res = workloads.execute(op, recording=True)
            if res["problems"]:
                raise SystemExit("%s: %s" % (op.label, res["problems"]))
            ops[op.label] = res["record"]
            print(op.label, res["record"], file=sys.stderr)
    finally:
        shutil.rmtree(tmpdir)
    with open(workloads.REFERENCE, "w") as fh:
        json.dump({"config": workloads.config(), "ops": ops}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
