"""One benchmark worker: a fresh interpreter that sets up x3y9z2, runs one
job and writes what it saw as JSON.  The checks on that output are made
by run.py, outside the program.

    python3 perfbench/worker.py '<job spec JSON>' RESULT_PATH

The spec carries "job", "trace", "t_spawn" (the parent's monotonic clock
just before the spawn; CLOCK_MONOTONIC is shared by all processes on
Linux) and the job's own arguments.  The worker exits with the exit code
of the CLI call it makes, or 0.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time

from tracer import Tracer, import_all


def set_up(trace):
    """Import x3y9z2 and load and validate the three trusted files."""
    import_all()
    tracer = Tracer().install() if trace else None
    from x3y9z2.dataio import data_hashes, load_descent_data, load_mw_data, load_tables
    problems = load_descent_data().verify()
    if problems:
        raise SystemExit(f"trusted descent data failed verification: {problems}")
    load_mw_data()
    load_tables()
    data_hashes()
    return tracer


def job_setup(spec):
    return {}, 0


def job_local_filter(spec):
    """Descent construction and the Q_3 filter over every class that passes
    the cubic-norm filter, for equations 5, 1 and 2, in a seeded order."""
    from x3y9z2.dataio import load_descent_data
    from x3y9z2.descent import build_descent_forms, cubic_norm_filter, enumerate_delta
    from x3y9z2.local import ProjectiveSystem, Undecided, is_locally_soluble

    dd = load_descent_data()
    items = []
    for eq in (5, 1, 2):
        spec_eq = dd.specs[eq]
        for expo, delta in cubic_norm_filter(enumerate_delta(spec_eq), spec_eq.leading_coeff):
            items.append((eq, expo, delta))
    random.Random(spec["order_seed"]).shuffle(items)
    survivors = {"5": [], "1": [], "2": []}
    undecided = recheck_failed = 0
    for eq, expo, delta in items:
        sysd = build_descent_forms(dd.specs[eq].algebra, delta, eq_id=eq, expo=expo)
        system = ProjectiveSystem.from_mpolys(list(sysd.curve_forms()))
        try:
            verdict = is_locally_soluble(system, 3, max_depth=12)
        except Undecided:
            undecided += 1
            continue
        if not verdict.recheck(system):
            recheck_failed += 1
        if verdict.soluble:
            survivors[str(eq)].append(list(expo))
    return {
        "classes": len(items),
        "survivors": {eq: sorted(s) for eq, s in survivors.items()},
        "undecided": undecided,
        "recheck_failed": recheck_failed,
    }, 0


def job_chabauty(spec):
    """`x3y9z2 --json-out OUT chabauty run --eq E --delta K`, as a user runs it."""
    from x3y9z2.cli import main
    code = main(["--json-out", spec["out"], "chabauty", "run",
                 "--eq", str(spec["eq"]), "--delta", str(spec["delta"])])
    return {}, code


def job_pipeline(spec):
    """`x3y9z2 --json-out OUT pipeline run`, as a user runs it."""
    from x3y9z2.cli import main
    from x3y9z2.pipeline import LAST_TIMINGS
    code = main(["--json-out", spec["out"], "pipeline", "run"])
    return {"stages": dict(LAST_TIMINGS)}, code


def job_rank0_assembly(spec):
    """Every pipeline stage but the Chabauty one, called in run_pipeline's
    order through the pipeline module: the static tables, equation 5 with
    its rank-0 quotients, lifting, theorem 1 and the brute-force oracle.
    The equation 1 and 2 value sets are the job's input (spec["fam1"])."""
    from x3y9z2 import pipeline
    from x3y9z2.param import STValue, transfer_st_value

    clock = time.perf_counter
    stages = {}
    t0 = clock()
    claims = (pipeline.verify_parametrizations() + pipeline.verify_mw_table()
              + pipeline.verify_rank_table_constants())
    stages["static_tables"] = clock() - t0

    t0 = clock()
    eq5 = pipeline.run_eq5_stage()
    claims += pipeline.verify_quotient_claims()
    stages["eq5_stage"] = clock() - t0

    t0 = clock()
    eq6_values = {transfer_st_value(v) for v in eq5["values"]}
    fam1_values = {STValue.parse(s) for s in spec["fam1"]}
    final, _, lift_claims = pipeline.run_lift_stage(eq5["values"] | eq6_values, fam1_values)
    claims += lift_claims
    t1_claims, final_signed = pipeline.verify_theorem1(final)
    claims += t1_claims
    oracle = pipeline.signed_triples(pipeline.brute_search(3, 10_000))
    stages["assembly_and_oracle"] = clock() - t0

    def ser(values):
        return sorted(v.serialize() for v in values)

    return {
        "stages": stages,
        "counts": [eq5["n_candidates"], eq5["n_cubic_norm"], eq5["n_soluble"]],
        "values": {"eq5": ser(eq5["values"]), "eq6": ser(eq6_values)},
        "final_solutions": [list(t) for t in final_signed],
        "oracle_solutions": [list(t) for t in oracle],
        "claims": [[c.claim_id, c.verdict] for c in claims],
    }, 0


JOBS = {
    "setup": job_setup,
    "local_filter": job_local_filter,
    "chabauty": job_chabauty,
    "pipeline": job_pipeline,
    "rank0_assembly": job_rank0_assembly,
}


def main(spec_text, out_path):
    spec = json.loads(spec_text)
    tracer = set_up(spec["trace"])
    t_ready = time.monotonic()
    t0 = time.perf_counter()
    output, code = JOBS[spec["job"]](spec)
    wall = time.perf_counter() - t0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "setup_s": t_ready - spec["t_spawn"],
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,     # ru_maxrss is in KiB on Linux
        "output": output,
        "trace": tracer.snapshot() if tracer else None,
    }
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
