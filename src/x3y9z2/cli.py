"""Command-line interface.

Subcommands mirror the pipeline stages; `pipeline run` executes the
whole reproduction and exits 0 only when every claim is PASS or an
expected CORRECTED (the recorded misprints).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .arith.localfield import residue_degrees
from .arith.rationals import factorize
from .chabauty.engine import DEFAULT_PRIMES, CurveProblem, RankConditionViolated, rational_st_values
from .chabauty.setup import chabauty_setup_for_row
from .dataio import (TrustedDataError, load_descent_data, load_mw_data, load_tables,
                     quartic_field, set_data_dir)
from .descent import build_descent_forms, cubic_norm_filter, enumerate_delta
from .local import ProjectiveSystem, Undecided, is_locally_soluble
from .param import lift_to_ninth
from .pipeline import (BRUTE_BOUNDS, PipelineError, brute_search, report_to_json, run_pipeline,
                       signed_triples)
from .verify import (verify_mw_table, verify_parametrizations, verify_quotient_claims,
                     verify_rank_table_constants)

# Misprints adjudicated by computation; any other CORRECTED (or FAIL) is
# an error condition for the exit code.
EXPECTED_CORRECTED_PREFIXES = (
    "eq5 quotient E1 right-hand side",
    "eq5 quotient E1 base point",
    "eq5 E1 c=2 torsion point (2, 1, 8)",
    "eq5 E2 c=3 torsion point (2, -1, 8)",
    "value set eq2",
    "assembly family3 row (s,t)=(1,0)",
    "theorem1 entry (1,1,0)",
)


def unexpected_verdict(verdict: str, claim_id: str) -> bool:
    """FAIL, or CORRECTED other than a recorded misprint."""
    return verdict == "FAIL" or (verdict == "CORRECTED" and not any(
        claim_id.startswith(p) for p in EXPECTED_CORRECTED_PREFIXES))


def _print_claims(claims):
    """One line per claim, then the count of unexpected verdicts; exit
    code 0 only when there are none."""
    bad = 0
    for c in claims:
        line = f"{c.verdict:9s} {c.claim_id}"
        if c.verdict == "CORRECTED":
            line += f"  [printed {c.printed} -> computed {c.computed}]"
        print(line)
        bad += unexpected_verdict(c.verdict, c.claim_id)
    print(f"{len(claims)} claims; unexpected problems: {bad}")
    return 0 if bad == 0 else 1


class OutputPathError(Exception):
    """The --json-out file cannot be written (exit 2)."""


def _write_json_out(path, text):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputPathError(f"cannot write --json-out {path}: {type(exc).__name__}") from None


def _emit(payload, args):
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if getattr(args, "json_out", None):
        _write_json_out(args.json_out, text)
    else:
        sys.stdout.write(text)


def cmd_search(args):
    sols = brute_search(args.y_bound, args.aux_bound)
    _emit({"solutions": [list(t) for t in signed_triples(sols)]}, args)
    return 0


def cmd_param_verify(args):
    return _print_claims(verify_parametrizations())


def cmd_param_lift(args):
    try:
        sols = lift_to_ninth(args.x, args.v, args.z)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    _emit({
        "input": [args.x, args.v, args.z],
        "primitive_solutions": [[s.x, s.y, s.z] for s in sols],
        "equivalent_to_primitive": bool(sols),
    }, args)
    return 0


def _spec_and_classes(eq):
    dd = load_descent_data()
    spec = dd.specs[eq]
    classes = cubic_norm_filter(enumerate_delta(spec), spec.leading_coeff)
    return spec, classes


def cmd_descent_build(args):
    spec, classes = _spec_and_classes(args.eq)
    if not 0 <= args.delta < len(classes):
        print(f"delta index out of range (0..{len(classes) - 1})", file=sys.stderr)
        return 2
    expo, delta = classes[args.delta]
    sysd = build_descent_forms(spec.algebra, delta, eq_id=args.eq, expo=expo)
    payload = {
        "eq": args.eq,
        "delta_index": args.delta,
        "exponents": list(expo),
        "delta_coordinates": [str(c) for c in delta.coords],
        "identity_verified": sysd.verify_identity(),
        "forms": {
            f"Q{i}": {"".join(f"y{k}^{e}" if e > 1 else (f"y{k}" if e else "")
                              for k, e in enumerate(expo2) if e): str(c)
                      for expo2, c in sorted(sysd.forms[i].terms.items(), reverse=True)}
            for i in range(4)
        },
    }
    _emit(payload, args)
    return 0


def cmd_local_sweep(args):
    spec, classes = _spec_and_classes(args.eq)
    verdicts = []
    for idx, (expo, delta) in enumerate(classes):
        sysd = build_descent_forms(spec.algebra, delta)
        system = ProjectiveSystem.from_mpolys(list(sysd.curve_forms()))
        verdicts.append({"index": idx, "exponents": list(expo)})
        try:
            v = is_locally_soluble(system, args.p)
            verdicts[-1].update(soluble=v.soluble, nodes=v.nodes,
                                witness_depth=v.depth_searched if v.soluble else None)
        except Undecided as e:
            verdicts[-1].update(soluble=None, undecided=str(e))
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
    _emit({"eq": args.eq, "p": args.p, "n_classes": len(classes),
           "survivors": sum(v["soluble"] is True for v in verdicts), "verdicts": verdicts}, args)
    return 0 if all(v["soluble"] is not None for v in verdicts) else 1


def cmd_ec_verify_tables(args):
    return _print_claims(verify_rank_table_constants() + verify_mw_table()
                         + verify_quotient_claims())


def cmd_chabauty_run(args):
    dd = load_descent_data()
    mw = load_mw_data()
    tables = load_tables()
    rows = tables["quartic_field_table"][f"eq{args.eq}"]["rows"]
    if not 0 <= args.delta < len(rows):
        print(f"delta index out of range (0..{len(rows) - 1})", file=sys.stderr)
        return 2
    row = rows[args.delta]
    setup = chabauty_setup_for_row(dd, mw, args.eq, row)
    outcome = rational_st_values(setup.curve, setup.psi, setup.gens,
                                 setup.known_points, primes=args.primes)
    _emit({"eq": args.eq, "delta": row["delta"], "table_i": row["i"],
           "setup_checks": {k: (v if isinstance(v, (bool, int)) else str(v))
                            for k, v in setup.checks.items()},
           "outcome": outcome.as_dict()}, args)
    return 0 if outcome.complete else 1


def cmd_pipeline_run(args):
    report = run_pipeline(primes=args.primes)
    bad = [c for c in report["claims"] if unexpected_verdict(c["verdict"], c["id"])]
    if args.json_out:
        _write_json_out(args.json_out, report_to_json(report))
    summary = report["verdict_summary"]
    print(f"claims: {summary['PASS']} PASS, {summary['CORRECTED']} CORRECTED, "
          f"{summary['FAIL']} FAIL")
    print("final solutions (x, y, z):")
    for t in report["final_solutions"]:
        print(f"  {tuple(t)}")
    if bad:
        print("unexpected verdicts:")
        for c in bad:
            print("  ", c)
        return 1
    return 0


def _primes(text):
    """--primes: comma-separated primes, e.g. 11,31.  Each prime of K
    above an entry must have a residue field no larger than the largest
    that the default primes reach; the residue sieve's rows of multiples
    and the bound on its class count grow with that field (the point
    counts do not: curve_order_fq scans F_p, or at degree >= 2 reads
    #E(F_q) off a closed form).  The largest field above p has q = p^k
    elements, k the largest of residue_degrees(f, p) (p^3 at the ramified
    2 and 3, where f = (x + 1)^4 gives one root and a cubic rest)."""
    try:
        primes = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of integers: {text!r}") from None
    f = quartic_field().minpoly.integer_coeffs()
    cap = max(p ** max(residue_degrees(f, p)) for p in DEFAULT_PRIMES)
    for p in primes:
        if p < 2 or factorize(p) != {p: 1}:
            raise argparse.ArgumentTypeError(f"{p} is not a prime")
        q = p ** max(residue_degrees(f, p))
        if q > cap:
            raise argparse.ArgumentTypeError(
                f"a prime of K above {p} has a residue field of q = {q} elements, "
                f"more than the {cap} that the default primes reach")
    return primes


def build_parser():
    ap = argparse.ArgumentParser(prog="x3y9z2",
                                 description="Exact re-execution of the x^3 + y^9 = z^2 computation")
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    ap.add_argument("--data-dir", help="override directory for the trusted data files")
    ap.add_argument("--json-out", help="write JSON output to this file")
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("search", help="brute-force primitive solutions")
    s.add_argument("--y-bound", type=int, default=BRUTE_BOUNDS[0])
    s.add_argument("--aux-bound", type=int, default=BRUTE_BOUNDS[1])
    s.set_defaults(func=cmd_search)

    p = sub.add_parser("param", help="parametrization utilities")
    psub = p.add_subparsers(dest="subcommand", required=True)
    pv = psub.add_parser("verify-identities")
    pv.set_defaults(func=cmd_param_verify)
    pl = psub.add_parser("lift")
    pl.add_argument("--x", type=int, required=True)
    pl.add_argument("--v", type=int, required=True)
    pl.add_argument("--z", type=int, required=True)
    pl.set_defaults(func=cmd_param_lift)

    d = sub.add_parser("descent", help="descent-form construction")
    dsub = d.add_subparsers(dest="subcommand", required=True)
    db = dsub.add_parser("build")
    db.add_argument("--eq", type=int, choices=(1, 2, 5), required=True)
    db.add_argument("--delta", type=int, required=True, help="class index (lex order)")
    db.set_defaults(func=cmd_descent_build)

    l = sub.add_parser("local", help="local solubility sweeps")
    lsub = l.add_subparsers(dest="subcommand", required=True)
    ls = lsub.add_parser("sweep")
    ls.add_argument("--eq", type=int, choices=(1, 2, 5), required=True)
    ls.add_argument("--p", type=int, default=3)
    ls.set_defaults(func=cmd_local_sweep)

    e = sub.add_parser("ec", help="elliptic-curve table verification")
    esub = e.add_subparsers(dest="subcommand", required=True)
    ev = esub.add_parser("verify-tables")
    ev.set_defaults(func=cmd_ec_verify_tables)

    c = sub.add_parser("chabauty", help="the Chabauty stage")
    csub = c.add_subparsers(dest="subcommand", required=True)
    cr = csub.add_parser("run")
    cr.add_argument("--eq", type=int, choices=(1, 2), required=True)
    cr.add_argument("--delta", type=int, required=True, help="row index in the class table")
    cr.add_argument("--primes", type=_primes, default=DEFAULT_PRIMES)
    cr.set_defaults(func=cmd_chabauty_run)

    pp = sub.add_parser("pipeline", help="the full reproduction")
    ppsub = pp.add_subparsers(dest="subcommand", required=True)
    pr = ppsub.add_parser("run")
    pr.add_argument("--primes", type=_primes, default=DEFAULT_PRIMES)
    pr.set_defaults(func=cmd_pipeline_run)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.data_dir:
        set_data_dir(args.data_dir)
    try:
        return args.func(args)
    except (PipelineError, CurveProblem, RankConditionViolated, TrustedDataError) as exc:
        print(f"x3y9z2: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OutputPathError as exc:
        print(f"x3y9z2: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
