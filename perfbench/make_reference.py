"""Write reference.json: each workload's sup distances and rates.

    python3 perfbench/make_reference.py

Run it on the commit whose outputs are the reference (the values stored now
come from the commit named in the file).  The benchmark compares every
study against these numbers at a relative tolerance of 1e-9.
"""

import json
import sys
from pathlib import Path

import workloads  # first: it sets the BLAS thread count before numpy loads

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from facts import git_commit  # noqa: E402


def main():
    out = {
        "commit": git_commit(workloads.ROOT),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "workloads": {},
    }
    scratch = workloads.ROOT / ".perfbench_out" / "reference"
    for name, workload in workloads.WORKLOADS.items():
        path = workloads.write_config(workload.config(0, scratch / name), scratch / f"{name}.json")
        result = workloads.run_study(path)
        out["workloads"][name] = {
            "sup_distances": [float(d) for d in result.sup_distances],
            "rates": [float(r) for r in result.rate_table.rates],
        }
        print(name, out["workloads"][name], flush=True)
    target = Path(__file__).with_name("reference.json")
    target.write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
