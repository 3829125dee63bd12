"""One repetition of a benchmark workload, run in a fresh process.

    python3 perfbench/worker.py WORKLOAD SEED MODE SIZE

MODE is `setup` (set up and stop), `run` (set up, run, check), `trace` (the
same with the layer spans of tracing.py installed after set-up) or `probe`
(the negative control).  SIZE is `full` or `tiny`.  The last stdout line is
one JSON object; run.py reads it.

Set-up is the import of the package and the construction of the fields and
the twin pair; it ends at the `setup_done` stamp (time.monotonic, which is
the same clock in every process).  Inputs are then drawn from the seed, and
only the workload's library calls are timed.  Outputs are checked against
the digests in expected.json, recorded from the reference commit by
record.py.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import resource
import sys
import time
import traceback
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
OUT = HERE / "out"

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from localchar import characters, converse, epsilon, localfield, oracle  # noqa: E402
from localchar.reporting import canonical_json  # noqa: E402


def digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


class Outcome:
    """What one repetition did: instance count, failures, per-instance
    latencies in ms, and the records whose digests the gate checks."""

    def __init__(self):
        self.instances = 0
        self.failed = 0
        self.latencies_ms: list[float] = []
        self.records = None


class _Ticks:
    """stdout sink that stamps every line written to it."""

    def __init__(self):
        self.stamps: list[float] = []

    def write(self, text):
        for _ in range(text.count("\n")):
            self.stamps.append(time.perf_counter())
        return len(text)

    def flush(self):
        pass


def _intervals_ms(t0, stamps):
    out = []
    for t in stamps:
        out.append((t - t0) * 1e3)
        t0 = t
    return out


class Workload:
    """Set up once per process, draw inputs from the seed, run, check.
    `digest` covers what the seed does not change; `problems` checks the
    rest."""

    def inputs(self, seed):
        pass  # exhaustive families: the seed picks nothing

    def digest(self, out) -> str | None:
        return digest(out.records)

    def problems(self, out, expected) -> list[str]:
        return []


# ---------------------------------------------------------------- rank-1


class Rank1Twists(Workload):
    """Criterion 3: every twist of the p=7, N=5 twin pair by a character of
    Q_7^x of conductor <= bound (7 (p-1)^2 twists at bound 2, 1764 at 3)."""

    SIZES = {"full": 2, "tiny": 1}

    def __init__(self, size):
        self.bound = self.SIZES[size]
        self.size = size

    def setup(self):
        self.pair = converse.build_twin_characters(
            converse.TwinConfig(p=7, N=5, precision=12))

    def run(self) -> Outcome:
        out = Outcome()
        ticks = _Ticks()
        t0 = time.perf_counter()
        # progress=1 makes the library report each finished twist
        with contextlib.redirect_stdout(ticks):
            report = converse.verify_rank_one_twists(self.pair, self.bound,
                                                     progress=1)
        out.latencies_ms = _intervals_ms(t0, ticks.stamps)
        out.instances = report["twists"]
        out.failed = len(report["failures"])
        out.records = report
        return out

    def problems(self, out, expected) -> list[str]:
        if not out.records["pass"]:
            return ["verify_rank_one_twists did not pass"]
        return []


# --------------------------------------------------------- coset products


class CosetProducts(Workload):
    """Criterion 4: the p=11, N=7 twin pair against the rank-2 twisting-pair
    catalog of conductor bound 4, streamed one pair at a time.  The catalog
    yields all m <= 2 pairs and the ramified m = 3 pairs first (285), so the
    full size keeps 315 of the m = 3 unram(2) pairs that dominate
    criterion 4."""

    SIZES = {"full": 600, "tiny": 12}

    def __init__(self, size):
        self.pairs = self.SIZES[size]
        self.size = size

    def setup(self):
        self.pair = converse.build_twin_characters(
            converse.TwinConfig(p=11, N=7, precision=28))

    def run(self) -> Outcome:
        out = Outcome()
        out.records = []
        clock = time.perf_counter
        catalog = converse.iter_twist_pairs(11, 2, 4, 16)
        for tw in islice(catalog, self.pairs):
            out.instances += 1
            t0 = clock()
            try:
                rep = converse.verify_coset_products(self.pair, tw)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                out.failed += 1
                out.records.append({"pair": tw.label(), "error": True})
                continue
            out.latencies_ms.append((clock() - t0) * 1e3)
            ok = (rep.verdict and rep.route_a["equal"]
                  and rep.route_b["agrees_with_route_a"]
                  and rep.route_b["membership_level_two"])
            out.failed += not ok
            out.records.append(rep.serialize())
        return out


# ------------------------------------------------------- closed form/oracle


class OracleConsistency(Workload):
    """Criterion 2: closed-form epsilon against the brute-force oracle on
    F = Q_7 and E = Q_7(7^(1/5)), k = 12, grouped as the criterion groups
    them.  Each class (field, conductor) has a fixed pool of random_char
    draws, twice the criterion's count; the seed picks the members, so
    every character's output has a recorded digest."""

    # (field, conductors, characters per conductor), criterion 2's mix
    GROUPS = {
        "full": [("F", (2, 3, 4, 5), 14), ("E", (2, 3, 4, 5, 6, 7), 8),
                 ("E", (8, 9), 4)],
        "tiny": [("F", (2, 3), 2), ("E", (2, 3), 2)],
    }
    FULL_COUNT = {(f, c): n for f, cs, n in GROUPS["full"] for c in cs}

    def __init__(self, size):
        self.groups = self.GROUPS[size]
        self.size = size

    def setup(self):
        self.fields = {
            "F": localfield.make_tower(7, (), 12),
            "E": localfield.make_tower(7, [localfield.TameRamified(5, 1)], 12),
        }

    def pool(self, fname, c):
        rng = random.Random(f"pool:{fname}:{c}")
        return [characters.random_char(self.fields[fname], c, rng)
                for _ in range(2 * self.FULL_COUNT[fname, c])]

    def inputs(self, seed):
        rng = random.Random(seed)
        self.batches = []
        for fname, conductors, count in self.groups:
            picks = []
            for c in conductors:
                idx = rng.sample(range(2 * self.FULL_COUNT[fname, c]), count)
                pool = self.pool(fname, c)
                picks += [(f"{fname}:{c}", i, pool[i]) for i in idx]
            self.batches.append((fname, picks))

    def run(self) -> Outcome:
        out = Outcome()
        values = []
        stamps = []
        clock = time.perf_counter

        def oracle_fn(chi, psi, delta):
            val = oracle.oracle_sum(chi, psi, delta)
            stamps.append(clock())
            values.append(val)
            return val

        reports = []
        t0 = clock()
        for fname, picks in self.batches:
            psi = characters.make_psi(self.fields[fname])
            chars = [chi for _, _, chi in picks]
            out.instances += len(chars)
            start = len(stamps)
            try:
                reports.append(epsilon.epsilon_oracle_consistency(
                    chars, psi, oracle_fn))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                out.failed += len(chars)
                reports.append(None)
            out.latencies_ms += _intervals_ms(t0, stamps[start:])
            t0 = clock()
        out.records = {"reports": reports, "values": values}
        return out

    def digest(self, out) -> str | None:
        """Digest of the reports without the class references: sample
        counts, closed-form/oracle ratios and q-power shifts, which the seed
        does not change."""
        if None in out.records["reports"]:
            return None
        rest = [{"classes": [{k: v for k, v in cls.items() if k != "reference"}
                             for cls in rep["classes"]],
                 "shift_relations": rep["shift_relations"]}
                for rep in out.records["reports"]]
        return digest(rest)

    def problems(self, out, expected) -> list[str]:
        """Each oracle value, and each class reference (closed form and
        oracle of the class's first character), against the digests
        record.py took of that pool member alone."""
        rec = out.records
        if None in rec["reports"]:
            return ["a consistency scan raised"]
        bad = []
        pool = expected["pool"]
        first = {}
        picks = [pk for _, batch in self.batches for pk in batch]
        for (key, i, _), val in zip(picks, rec["values"]):
            first.setdefault(key, i)
            if digest(val.serialize()) != pool[key][i]["oracle"]:
                bad.append(f"oracle value of {key}#{i} differs")
        for (fname, _), rep in zip(self.batches, rec["reports"]):
            for cls in rep["classes"]:
                key = f"{fname}:{cls['conductor']}"
                if digest(cls["reference"]) != pool[key][first[key]]["reference"]:
                    bad.append(f"class reference of {key} differs")
        return bad


WORKLOADS = {
    "rank1_twists": Rank1Twists,
    "coset_products": CosetProducts,
    "oracle_consistency": OracleConsistency,
}


# ------------------------------------------------------- negative control


def negative_control() -> dict:
    """Criterion 10's probe: 40 unram(2), m = 2 pairs against the p=11, N=7
    pair whose second twin is perturbed on 1 + P^2; not all may pass."""
    pair = converse.build_twin_characters(
        converse.TwinConfig(p=11, N=7, precision=28))
    bad = converse.TwinPair(pair.cfg, pair.E, pair.phi1,
                            converse.mutate_on_level_two(pair.phi2),
                            pair.beta, pair.selector, pair.tower)
    sample = [tw for tw in converse.iter_twist_pairs(11, 2, 3, 16)
              if tw.m == 2 and tw.shape.startswith("unram")][:40]
    failing = sum(not converse.verify_coset_products(bad, tw).verdict
                  for tw in sample)
    return {"pairs": len(sample), "failing": failing}


# ------------------------------------------------------------------ main


def load_expected():
    with open(EXPECTED) as fh:
        return json.load(fh)


def repetition(name, seed, mode, size) -> dict:
    if mode == "probe":
        return {"probe": negative_control()}
    wl = WORKLOADS[name](size)
    wl.setup()
    setup_done = time.monotonic()
    if mode == "setup":
        return {"setup_done": setup_done}
    wl.inputs(seed)
    tracer = None
    if mode == "trace":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    t0 = time.perf_counter()
    out = wl.run()
    work_s = time.perf_counter() - t0
    res = {"setup_done": setup_done, "work_s": work_s,
           "instances": out.instances, "failed": out.failed,
           "latencies_ms": out.latencies_ms,
           "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        res["layers"] = tracer.metrics()
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{name}.npz")
    res["problems"] = check(wl, out, load_expected()[name])
    return res


def check(wl, out, expected) -> list[str]:
    """The output gate: instance count, the workload's own checks, and the
    seed-independent digest."""
    bad = wl.problems(out, expected)
    if wl.digest(out) != expected[wl.size]["digest"]:
        bad.append("output digest differs from the reference commit")
    if out.instances != expected[wl.size]["instances"]:
        bad.append(f"{out.instances} instances, expected "
                   f"{expected[wl.size]['instances']}")
    return bad


def main(argv):
    name, seed, mode, size = argv
    print(json.dumps(repetition(name, int(seed), mode, size)))


if __name__ == "__main__":
    main(sys.argv[1:])
