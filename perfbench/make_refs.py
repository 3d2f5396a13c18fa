"""Write the reference outputs the benchmark checks against.

    python3 perfbench/make_refs.py [workload ...]

Run it at the commit whose outputs are the reference (the stored files
come from the commit that added the benchmark).  For every op with stored
arrays it runs the op once and saves them to ``perfbench/refs/<workload>.npz``;
sampled_window also stores the selective records its exact engines use.
"""

import sys

import run  # pins BLAS threads before numpy loads

import numpy as np


def build(factory, refs=None):
    """Run every op of ``factory(seed=0, refs)`` that stores arrays and
    return ``refs`` extended by the packed outputs."""
    from checks import pack
    from workloads import op_key

    refs = dict(refs or {})
    workload = factory(0, refs)
    try:
        workload.begin_pass()
        for op in workload.ops:
            if op.arrays is not None:
                for key, array in op.arrays(op.call()).items():
                    refs.update(pack(f"{op_key(op.name)}.{key}", array))
        workload.end_pass()
    finally:
        workload.close()
    return refs


def main(names):
    run.import_package()
    from checks import pack
    from workloads import REFS, WORKLOADS, sampled_window_records

    REFS.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        inputs = {}
        if name == "sampled_window":
            for key, record in sampled_window_records().items():
                inputs.update(pack(key, record))
        refs = build(WORKLOADS[name], inputs)
        np.savez_compressed(REFS / f"{name}.npz", **refs)
        print(f"{name}: {len(refs) // 3} arrays")


if __name__ == "__main__":
    main(sys.argv[1:])
