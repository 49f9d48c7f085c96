#!/usr/bin/env python3
"""Write perfbench/reference.json from the outputs of the current sources.

    python3 perfbench/make_reference.py

The reference is the yardstick every later commit is checked against, so
regenerate it only at a commit whose outputs are trusted.  It records, per
operation, the stdout and every file it writes (polynomial files as SHA-256,
root sets as centers, reports as text), and it freezes the pool of rational
base points the census workload draws from: those whose integral-scan
finished within POOL_MAX_WALL_S.  The others are listed with their outcome.
"""

from __future__ import annotations

import json
import shutil
import time

import numpy as np

import checks
import run

POOL_MAX_WALL_S = 0.1  # the millisecond mode: seed-drawn operations stay a small share of census


def _record(op: run.Op, cache, out) -> dict:
    before = checks.tree_state(cache)
    r = run.run_op(op, cache, out, trace=False, budget_end=time.monotonic() + 600)
    if r.rc is None:
        return {"outcome": f"passed its {op.deadline:g} s deadline"}
    if r.rc != 0:
        raise SystemExit(f"{op.name}: exit {r.rc}; see {out / 'stderr'}")
    entry = {"wall": r.wall, "stdout": r.stdout, "files": {}}
    after = checks.tree_state(cache)
    for rel, path in checks.tree(cache).items():
        if before.get(rel) != after[rel]:
            entry["files"][rel] = checks.file_spec(rel, path)
    roots = out / "roots.txt"
    if roots.exists():
        entry["roots"] = checks.reference_centers(roots.read_text())
    return entry


def main() -> int:
    work = run.WORK / "reference"
    shutil.rmtree(work, ignore_errors=True)
    ops = {}
    sequences = [
        [run.ENUMERATE, run.BOUNDS, run.MISIUREWICZ, run.EQUIDIST],
        run.SMOKE,
        *[[op] for op in run.CENSUS_FIXED],
    ]
    for k, seq in enumerate(sequences):
        for i, op in enumerate(seq):
            cache = work / f"seq{k}" / (f"cache{i}" if op.own_cache else "cache")
            cache.mkdir(parents=True, exist_ok=True)
            ops[op.name] = _record(op, cache, work / f"seq{k}" / f"op{i}")
            print(f"{ops[op.name].get('wall', 0):8.2f} s  {op.name}", flush=True)

    pool, excluded = [], {}
    for i, alpha in enumerate(run.pool_candidates()):
        op = run.census_op(run.POOL[0], run.POOL[1], alpha, run.POOL[2])
        cache = work / "pool" / f"cache{i}"
        cache.mkdir(parents=True)
        entry = _record(op, cache, work / "pool" / f"op{i}")
        if "wall" in entry and entry["wall"] <= POOL_MAX_WALL_S:
            pool.append(alpha)
            ops[op.name] = entry
        else:
            excluded[alpha] = entry["outcome"] if "outcome" in entry else f"took {entry['wall']:.2f} s"
        print(f"{alpha:>6}: {'pool' if alpha in pool else excluded[alpha]}", flush=True)

    for entry in ops.values():
        sets = [spec["roots"] for spec in entry.get("files", {}).values() if "roots" in spec]
        sets += [entry["roots"]] if "roots" in entry else []
        for centers in sets:
            if not checks.disks_disjoint(np.array([complex(a, b) for a, b in centers])):
                raise SystemExit(f"reference disks overlap in {entry}")
        entry.pop("wall", None)
    ref = {
        "made_with": run.provenance(),
        "ops": ops,
        "census_pool": pool,
        "census_excluded": excluded,
    }
    # one line per operation keeps the file diffable
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in ref.items() if k != "ops"]
    ops_lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(ops.items())]
    run.REFERENCE.write_text(
        "{\n" + ",\n".join(lines) + ',\n"ops": {\n' + ",\n".join(ops_lines) + "\n}}\n"
    )
    print(f"wrote {run.REFERENCE}: {len(ops)} operations, pool of {len(pool)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
