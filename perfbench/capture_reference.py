"""Write ``perfbench/reference.json`` from the library as it stands.

Usage: ``python3 perfbench/capture_reference.py`` from the repository root.

The file holds the outputs of each workload's fixed reference item (and, for
``theory``, of a reference boundary request).  Every benchmark run compares the
library's outputs against it, so regenerate it only for a change whose new
outputs have been checked by other means.
"""

import json
import os
import sys
import tempfile

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import lassocrescent  # noqa: E402
import lassocrescent.cli  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def main():
    ref = {}
    with tempfile.TemporaryDirectory(dir=os.path.dirname(HERE)) as out_dir:
        for name, cls in WORKLOADS.items():
            workload = cls(lassocrescent, out_dir)
            ref[name] = {"warmup": workload.run_reference()}
            if name == "theory":
                ref[name]["end"] = workload.end_values()
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
