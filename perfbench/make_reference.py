"""Regenerate reference.json: the U and V curves of the first ops of every
workload at the default seed, checked by run.py whenever it runs that seed.

    python3 perfbench/make_reference.py

Run it only when a change is meant to alter the comparison's numbers, and
say so in the change.
"""

import json

import run

REF_OPS = {"sigma-sweep": 3, "seed-sweep": 3, "parabolic-trace": 2}


def main():
    run.pin_blas_threads()
    run.import_library()
    import workloads

    out = {"seed": run.DEFAULT_SEED, "s_grid": workloads.S_GRID.tolist(), "workloads": {}}
    for name in run.WORKLOAD_NAMES:
        state = workloads.WORKLOADS[name](run.DEFAULT_SEED)
        out["workloads"][name] = [state.curves(state.op(i)) for i in range(REF_OPS[name])]
    with open(run.REFERENCE, "w") as fh:
        json.dump(out, fh)
        fh.write("\n")


if __name__ == "__main__":
    main()
