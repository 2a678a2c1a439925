"""Pipeline pieces that run quickly, and the CLI surface."""

import json
import subprocess
import sys
import time

import pytest

from x3y9z2.cli import build_parser
from x3y9z2.dataio import data_hashes
from x3y9z2.param import STValue
from x3y9z2.pipeline import (brute_search, report_to_json, run_lift_stage,
                             signed_triples, verify_theorem1)

FINAL_SET = [(-7, 2, -13), (-7, 2, 13), (-1, 1, 0), (0, 1, -1), (0, 1, 1),
             (1, -1, 0), (1, 0, -1), (1, 0, 1), (2, 1, -3), (2, 1, 3)]


class TestBruteSearch:
    def test_y_zero(self):
        sols = brute_search(0, 100)
        assert signed_triples(sols) == [(1, 0, -1), (1, 0, 1)]

    def test_membership(self):
        sols = signed_triples(brute_search(2, 10))
        assert (-7, 2, 13) in sols
        assert (-7) ** 3 + 2**9 == 169 == 13**2

    def test_full_oracle(self):
        assert signed_triples(brute_search(3, 10_000)) == FINAL_SET

    def test_excludes_imprimitive(self):
        # 4^3 + 2^9 = 24^2 but gcd = 2
        sols = signed_triples(brute_search(2, 10))
        assert (4, 2, 24) not in sols


class TestLiftStage:
    def _values(self, strs):
        return {STValue.parse(s) for s in strs}

    def test_assembly_from_canonical_values(self):
        fam3 = self._values(["-2", "0", "1", "2", "4", "oo",
                             "-1", "-1/2"])
        fam1 = self._values(["-3", "-1", "0", "1", "3", "oo"])
        final, rows, claims = run_lift_stage(fam3, fam1)
        verdicts = {c.claim_id: c.verdict for c in claims}
        assert verdicts["assembly family3 coverage"] == "PASS"
        assert verdicts["assembly family1 coverage"] == "PASS"
        assert verdicts["assembly family3 row (s,t)=(1,0)"] == "CORRECTED"
        t1, final_signed = verify_theorem1(final)
        assert final_signed == FINAL_SET
        t1v = {c.claim_id: c.verdict for c in t1}
        assert t1v["theorem1 entry (1,1,0)"] == "CORRECTED"
        assert t1v["theorem1 entry (-7,2,13)"] == "PASS"


class TestEq5Stage:
    def test_per_row_candidate_values(self):
        """Torsion values per rank-table row, with intersection where both
        quotients have rank 0."""
        from x3y9z2.pipeline import run_eq5_stage
        eq5 = run_eq5_stage()
        rows = dict(eq5["per_row_values"])
        assert rows[1] == ["-2", "0", "oo"]      # E1 side, c1 = 1
        assert rows[2] == ["-2", "0"]            # both sides rank 0: intersection
        assert rows[4] == ["0"]                  # E2 trivial torsion kills more
        assert rows[20] == ["-2", "2"]           # E1 side, c1 = 2
        assert rows[13] == ["0", "4"]            # E2 side, c2 = 6
        assert sorted(eq5["values"],
                      key=lambda v: v.sort_key()) == \
            [STValue(-2), STValue(0), STValue(1), STValue(2), STValue(4),
             STValue.infinity()]


def test_table_rows_must_match_survivors_one_to_one(descent_data):
    """Rows match survivors modulo cubes; a row outside the survivors, or a
    count mismatch, stops the stage."""
    from x3y9z2.pipeline import PipelineError, _match_table_rows
    spec = descent_data.specs[5]
    A = spec.algebra
    g1, g2 = spec.generators[:2]
    survivors = [((1, 0), g1), ((0, 1), g2)]
    _match_table_rows("t", A, survivors, [("r1", g2 * g1**3), ("r2", g1)])
    with pytest.raises(PipelineError, match="r2 not among the local survivors"):
        _match_table_rows("t", A, survivors, [("r1", g1), ("r2", g1**4)])
    with pytest.raises(PipelineError, match="1 locally soluble classes, expected 2"):
        _match_table_rows("t", A, survivors[:1], [("r1", g1), ("r2", g2)])


def test_report_json_deterministic():
    payload = {"b": [3, 1], "a": {"y": 2, "x": 1}}
    assert report_to_json(payload) == report_to_json(json.loads(json.dumps(payload)))


def test_data_hashes_cover_all_files():
    hashes = data_hashes()
    assert set(hashes) == {"selmer_generators.json", "mw_generators.json",
                           "paper_tables.json"}
    assert all(len(h) == 64 for h in hashes.values())


class TestCli:
    def _run(self, *args):
        return subprocess.run([sys.executable, "-m", "x3y9z2.cli", *args],
                              capture_output=True, text=True, timeout=300)

    def test_verify_identities(self):
        out = self._run("param", "verify-identities")
        assert out.returncode == 0
        assert out.stdout.count("PASS") == 12

    def test_search_json(self, tmp_path):
        out = self._run("--json-out", str(tmp_path / "s.json"),
                        "search", "--y-bound", "1", "--aux-bound", "50")
        assert out.returncode == 0
        data = json.loads((tmp_path / "s.json").read_text())
        assert [0, 1, 1] in data["solutions"]

    def test_lift_verdict(self):
        out = self._run("param", "lift", "--x", "132", "--v", "-24", "--z", "1512")
        assert out.returncode == 0
        data = json.loads(out.stdout)
        assert data["equivalent_to_primitive"] is False

    def test_lift_refuses_a_non_solution(self):
        out = self._run("param", "lift", "--x", "1", "--v", "1", "--z", "1")
        assert out.returncode == 2
        assert "does not satisfy" in out.stderr and "Traceback" not in out.stderr

    def test_descent_build(self):
        out = self._run("descent", "build", "--eq", "5", "--delta", "0")
        assert out.returncode == 0
        data = json.loads(out.stdout)
        assert data["identity_verified"] is True
        assert data["forms"]["Q0"] == {"y0^3": "1"}

    def test_local_sweep_eq1(self):
        out = self._run("local", "sweep", "--eq", "1", "--p", "3")
        assert out.returncode == 0
        data = json.loads(out.stdout)
        assert data["n_classes"] == 9
        assert data["survivors"] == 4
        assert sum(v["nodes"] for v in data["verdicts"]) == 190

    @pytest.mark.parametrize("args", [
        ("chabauty", "run", "--eq", "1", "--delta", "0", "--primes", "11,x"),
        ("chabauty", "run", "--eq", "1", "--delta", "0", "--primes", "25"),
        ("pipeline", "run", "--primes", "143"),
        ("pipeline", "run", "--primes", "11,"),
    ])
    def test_bad_primes_and_precision_refused(self, args):
        out = subprocess.run([sys.executable, "-m", "x3y9z2.cli", *args],
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 2
        assert "error: argument --" in out.stderr and "Traceback" not in out.stderr
        assert out.stdout == ""

    @pytest.mark.parametrize("args", [
        ("--precision=40", "chabauty", "run", "--eq", "1", "--delta", "0"),
        ("local", "sweep", "--eq", "5", "--p", "2", "--max-depth=20"),
        ("pipeline", "run", "--y-bound=2"),
        ("pipeline", "run", "--aux-bound=100"),
    ])
    def test_tuning_options_are_gone(self, args, capsys):
        """The p-adic precision, the first search depth and the oracle box
        are the program's own: each former option is an unknown argument."""
        with pytest.raises(SystemExit) as exited:
            build_parser().parse_args(args)
        assert exited.value.code == 2
        option, = (a for a in args if "=" in a)
        assert f"error: unrecognized arguments: {option}" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ("chabauty", "run", "--eq", "1", "--delta", "0", "--primes", "1009"),
        ("pipeline", "run", "--primes", "11,101"),
        ("chabauty", "run", "--eq", "1", "--delta", "3", "--primes", "43"),
    ])
    def test_primes_with_a_large_residue_field_refused(self, args):
        """1009 has two primes of degree 2 above it (q = 1009^2), 101 one
        of degree 4, and 43 reaches 43^2, the next field above 31^2; each
        is refused before any stage runs."""
        start = time.monotonic()
        out = subprocess.run([sys.executable, "-m", "x3y9z2.cli", *args],
                             capture_output=True, text=True, timeout=60)
        assert time.monotonic() - start < 5
        assert out.returncode == 2 and out.stdout == ""
        p = int(args[-1].split(",")[-1])
        q = {1009: 1009**2, 101: 101**4, 43: 43**2}[p]
        assert f"above {p} has a residue field of q = {q} elements" in out.stderr
        assert "Traceback" not in out.stderr

    def test_default_and_small_residue_fields_accepted(self):
        parser = build_parser()
        chabauty = parser.parse_args(["chabauty", "run", "--eq", "1", "--delta", "0"])
        assert chabauty.primes == (11, 31)
        assert parser.parse_args(["pipeline", "run"]).primes == (11, 31)
        # Largest residue fields 31^2, 5^4, 13^2 and 37; 2 ramifies.
        assert parser.parse_args(["pipeline", "run", "--primes", "31,5,13,37,2"]).primes == (
            31, 5, 13, 37, 2)

    @pytest.mark.parametrize("p", ["1", "4", "103"])
    def test_local_sweep_refuses_a_bad_prime(self, p):
        out = subprocess.run([sys.executable, "-m", "x3y9z2.cli", "local", "sweep",
                              "--eq", "1", "--p", p],
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 2
        assert "prime" in out.stderr and "Traceback" not in out.stderr

    def test_ec_verify_tables(self):
        out = self._run("ec", "verify-tables")
        assert out.returncode == 0
        assert "unexpected problems: 0" in out.stdout
        assert out.stdout.count("CORRECTED") == 4

    def test_chabauty_run_row0(self):
        out = self._run("chabauty", "run", "--eq", "1", "--delta", "0")
        assert out.returncode == 0
        data = json.loads(out.stdout)
        assert data["outcome"]["status"] == "Complete"
        assert data["outcome"]["values"] == ["oo"]


def _edit_json(path, change):
    data = json.loads(path.read_text())
    change(data)
    path.write_text(json.dumps(data))


def test_data_dir_override_catches_tampering(data_copy):
    """A corrupted trusted-data file must surface as a FAIL, not pass
    silently (the auditability contract of --data-dir); the stages that
    use the point stop with one line on stderr, not a traceback."""
    def push_g1_off_the_curve(mw):
        mw["curves"][0]["points"][0]["x"][0] = "3"
    _edit_json(data_copy / "mw_generators.json", push_g1_off_the_curve)

    def run(*args):
        return subprocess.run([sys.executable, "-m", "x3y9z2.cli",
                               "--data-dir", str(data_copy), *args],
                              capture_output=True, text=True, timeout=300)
    out = run("ec", "verify-tables")
    assert out.returncode != 0
    assert "FAIL" in out.stdout
    for args in (("chabauty", "run", "--eq", "2", "--delta", "1"), ("pipeline", "run")):
        out = run(*args)
        assert out.returncode == 1, args
        assert "Traceback" not in out.stderr
        assert "CurveProblem: trusted point of E1:" in out.stderr
        assert len(out.stderr.splitlines()) == 1


def test_tampered_descent_data_exits_cleanly(data_copy):
    """An edited K.minpoly, or an eq-1 algebra that splits, in
    selmer_generators.json stops `pipeline run` with one line on stderr
    and exit 1, not a traceback."""
    path = data_copy / "selmer_generators.json"
    original = path.read_text()

    def edit_minpoly(sd):
        sd["K"]["minpoly"][0] = "2"

    def split_eq1(sd):
        sd["eq1"]["defining"] = sd["eq5"]["defining"]

    for change, message in ((edit_minpoly, "trusted minimal polynomial of K differs"),
                            (split_eq1, "eq1: quartic-field equations have irreducible")):
        path.write_text(original)
        _edit_json(path, change)
        out = subprocess.run([sys.executable, "-m", "x3y9z2.cli", "--data-dir", str(data_copy),
                              "pipeline", "run"], capture_output=True, text=True, timeout=300)
        assert out.returncode == 1
        assert "Traceback" not in out.stderr
        assert f"x3y9z2: TrustedDataError: {message}" in out.stderr
        assert len(out.stderr.splitlines()) == 1


def _cli(*args):
    return subprocess.run([sys.executable, "-m", "x3y9z2.cli", *args],
                          capture_output=True, text=True, timeout=300)


def test_missing_data_dir_exits_cleanly(tmp_path):
    """A --data-dir without the data files: one stderr line naming the
    file, exit 1."""
    missing = tmp_path / "nonexistent"
    out = _cli("--data-dir", str(missing), "ec", "verify-tables")
    assert out.returncode == 1
    assert out.stderr.splitlines() == [
        f"x3y9z2: TrustedDataError: cannot read {missing / 'selmer_generators.json'}: "
        "FileNotFoundError"]


def test_data_file_that_is_not_json_exits_cleanly(data_copy):
    (data_copy / "paper_tables.json").write_text("{not json")
    out = _cli("--data-dir", str(data_copy), "ec", "verify-tables")
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    assert len(out.stderr.splitlines()) == 1
    assert out.stderr.startswith("x3y9z2: TrustedDataError: paper_tables.json is not JSON: ")


@pytest.mark.parametrize("name, change, message", [
    ("selmer_generators.json", lambda d: d.pop("eq5"),
     "selmer_generators.json has a malformed entry: the file has no key 'eq5'"),
    ("mw_generators.json", lambda d: d["curves"][0].pop("points"),
     "mw_generators.json has a malformed entry: the file.curves[0] has no key 'points'"),
    ("paper_tables.json", lambda d: d.pop("quotient_claims"),
     "paper_tables.json has a malformed entry: the file has no key 'quotient_claims'"),
    ("mw_generators.json", lambda d: d.update(curves=5),
     "mw_generators.json has a malformed entry: the file.curves is 5"),
    ("paper_tables.json", lambda d: d["rank_table"].update(rows=5),
     "paper_tables.json has a malformed entry: the file.rank_table.rows is 5"),
    ("paper_tables.json", lambda d: d["final_assembly"]["family1_rows"].__setitem__(2, [1]),
     "paper_tables.json has a malformed entry: the file.final_assembly.family1_rows[2] is [1]"),
], ids=["selmer-key", "mw-key", "tables-key", "mw-shape", "tables-shape", "tables-row-shape"])
def test_data_file_without_a_key_exits_cleanly(data_copy, name, change, message):
    """A trusted file that parses but lacks a key, or holds an entry of
    the wrong shape: one stderr line naming the file and the entry, exit 1."""
    _edit_json(data_copy / name, change)
    out = _cli("--data-dir", str(data_copy), "ec", "verify-tables")
    assert out.returncode == 1
    assert out.stderr.splitlines() == [f"x3y9z2: TrustedDataError: {message}"]


@pytest.mark.parametrize("change, message", [
    (lambda curves: curves.pop(2), "must hold each curve 1-6 once, not curve 3 0 times"),
    (lambda curves: curves[3].update(i=2),
     "must hold each curve 1-6 once, not curve 2 2 times, curve 4 0 times"),
    (lambda curves: curves[5].update(i=7), "has a malformed entry: the file.curves[5].i is 7"),
], ids=["missing", "repeated", "unknown"])
def test_mw_data_without_one_curve_exits_cleanly(data_copy, change, message):
    """mw_generators.json must hold each of E_1..E_6 once: a missing,
    repeated or unknown curve stops `ec verify-tables`, which checks the
    points it has, and `pipeline run`, which asks for each curve, with one
    stderr line and exit 1."""
    _edit_json(data_copy / "mw_generators.json", lambda d: change(d["curves"]))
    for command in (("ec", "verify-tables"), ("pipeline", "run")):
        out = _cli("--data-dir", str(data_copy), *command)
        assert out.returncode == 1, command
        assert out.stderr.splitlines() == [
            f"x3y9z2: TrustedDataError: mw_generators.json {message}"], command


def test_unwritable_json_out_exits_cleanly(tmp_path):
    """--json-out into a missing directory: one stderr line, exit 2."""
    target = tmp_path / "nonexistent" / "x.json"
    out = _cli("--json-out", str(target), "search", "--y-bound", "1", "--aux-bound", "10")
    assert out.returncode == 2
    assert out.stderr.splitlines() == [
        f"x3y9z2: cannot write --json-out {target}: FileNotFoundError"]
    assert not target.parent.exists()


def test_rank_condition_violated(mw_data):
    from x3y9z2.chabauty.engine import ChabautyRun, RankConditionViolated, RationalFunctionOnE
    from x3y9z2.dataio import quartic_field
    K = quartic_field()
    E = mw_data.curve(1)
    g = mw_data.points(1)[0]
    psi = RationalFunctionOnE(field=K, num=(K.one(), K.zero(), K.zero()),
                              den=(K.one(), K.one(), K.zero()))
    with pytest.raises(RankConditionViolated):
        ChabautyRun(E, psi, [g, g, g, g], [], 11)


def test_stage_cache_follows_the_data_dir(data_copy):
    """No stage result of one data directory is reused for another: after
    set_data_dir points at tampered eq5 generators, the next run_eq5_stage
    in the same process fails as a fresh process does."""
    from x3y9z2.dataio import set_data_dir
    from x3y9z2.pipeline import PipelineError, run_eq5_stage

    def tamper(sel):
        sel["eq5"]["generators"][0] = ["1", "-1", "-1/4", "-1/7"]
    _edit_json(data_copy / "selmer_generators.json", tamper)
    run_eq5_stage()
    set_data_dir(data_copy)
    try:
        with pytest.raises(PipelineError, match="generator 0 has norm"):
            run_eq5_stage()
    finally:
        set_data_dir(None)


def test_quotient_torsion_follows_the_data_dir(data_copy):
    """The torsion of an eq-5 quotient depends on the eq-5 constant of the
    loaded data: after set_data_dir to data with C = 2, the same call in
    the same process answers for the new data, as a fresh process does."""
    from x3y9z2.dataio import set_data_dir
    from x3y9z2.verify import quotient_torsion

    def set_constant(sel):
        sel["eq5"]["C"] = "2"
    _edit_json(data_copy / "selmer_generators.json", set_constant)
    assert quotient_torsion("E1,delta", 1)[0] == "Z/3"
    set_data_dir(data_copy)
    try:
        assert quotient_torsion("E1,delta", 1) == ("Z/2", [(2, 1, 2)], (2, -1, 0))
    finally:
        set_data_dir(None)


def test_quotient_torsion_runs_once_per_integral_model(data_copy, monkeypatch):
    """run_eq5_stage and verify_quotient_claims ask for the torsion of 13
    eq-5 quotients (label, c), whose integral models are 7 curves
    y^2 = x^3 + k.  From a cold memo (freshly loaded data) torsion_over_Q
    runs once per model."""
    from x3y9z2 import verify
    from x3y9z2.dataio import load_descent_data, set_data_dir
    from x3y9z2.pipeline import run_eq5_stage
    seen = []
    torsion_over_Q = verify.torsion_over_Q
    monkeypatch.setattr(verify, "torsion_over_Q",
                        lambda E: seen.append((E.a, E.b)) or torsion_over_Q(E))
    set_data_dir(data_copy)
    try:
        run_eq5_stage()
        verify.verify_quotient_claims()
        assert len(load_descent_data().quotient_torsion) == 13
    finally:
        set_data_dir(None)
    assert sorted(b for _, b in seen) == [-3888, -432, -108, -48, -27, -12, -3]
    assert len(set(seen)) == len(seen) == 7
