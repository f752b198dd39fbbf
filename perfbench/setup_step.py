"""One set-up of a workload, in a fresh interpreter.

    python3 perfbench/setup_step.py SRC_DIR [WEIGHTS_JSON N_MAX OUT_PATH]

Imports sgtree (and its CLI) from SRC_DIR; with a table job, also builds
the Z-table and saves it as SGTZ.  Prints one JSON line with the inner
timings.  The parent times the whole process, from spawn to exit, so the
interpreter start counts as set-up too.
"""

import json
import os
import sys
import time


def main(argv: list[str]) -> int:
    t0 = time.perf_counter()
    sys.path.insert(0, argv[0])
    import sgtree
    import sgtree.cli  # noqa: F401  (the experiment workload's entry point)

    out = {"import_s": time.perf_counter() - t0}
    if len(argv) == 4:
        ws = sgtree.WeightSequence.from_config(json.loads(argv[1]))
        t1 = time.perf_counter()
        table = sgtree.build_ztable(ws, int(argv[2]))
        t2 = time.perf_counter()
        sgtree.save_ztable(table, argv[3])
        out.update(build_s=t2 - t1, save_s=time.perf_counter() - t2, sgtz_bytes=os.path.getsize(argv[3]))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
