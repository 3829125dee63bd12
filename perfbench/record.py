"""Record the output digests the benchmark's gate compares against.

    python3 perfbench/record.py

Run it on the commit whose outputs are the reference, the commit the
benchmark was defined on; it rewrites perfbench/expected.json.  For every
workload and size it stores the instance count and the seed-independent
digest of one repetition.  For oracle_consistency it also stores, per pool
member, the digest of its oracle value and of its class reference as
epsilon_oracle_consistency gives them for that character alone, so any
seed's picks can be checked.
"""

from __future__ import annotations

import json

import worker
from worker import EXPECTED, WORKLOADS, characters, digest, epsilon, oracle


def _pool_digests(wl) -> dict:
    pool = {}
    for fname, conductors, _ in wl.GROUPS["full"]:
        psi = characters.make_psi(wl.fields[fname])
        for c in conductors:
            rows = []
            for chi in wl.pool(fname, c):
                values = []

                def oracle_fn(chi_, psi_, delta):
                    values.append(oracle.oracle_sum(chi_, psi_, delta))
                    return values[-1]

                rep = epsilon.epsilon_oracle_consistency([chi], psi, oracle_fn)
                rows.append({"oracle": digest(values[0].serialize()),
                             "reference": digest(rep["classes"][0]["reference"])})
            pool[f"{fname}:{c}"] = rows
    return pool


def main():
    expected = {}
    for name, cls in WORKLOADS.items():
        expected[name] = {}
        for size in ("full", "tiny"):
            wl = cls(size)
            wl.setup()
            wl.inputs(0)
            out = wl.run()
            if out.failed:
                raise SystemExit(f"{name}/{size}: {out.failed} instances failed")
            expected[name][size] = {"instances": out.instances,
                                    "digest": wl.digest(out)}
            print(name, size, expected[name][size], flush=True)
        if name == "oracle_consistency":
            expected[name]["pool"] = _pool_digests(wl)
    probe = worker.negative_control()
    if probe["failing"] == 0:
        raise SystemExit("negative control passed on the reference commit")
    print("negative control", probe)
    with open(EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
