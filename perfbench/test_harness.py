"""Self-tests of the benchmark harness: every way a pass can go wrong is a
failed attempt and never a timing.  They use stand-in workers, so they
take seconds, not minutes.

    python3 -m pytest -q perfbench
"""

import hashlib
import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

FAKE_HEADER = textwrap.dedent("""\
    import json, sys, time
    spec = json.loads(sys.argv[1])

    def finish(output, code=0, trace=None):
        with open(sys.argv[2], "w") as fh:
            json.dump({"setup_s": 0.25, "wall_s": 1.5, "cpu_s": 1.5, "peak_rss_mb": 20.0,
                       "output": output, "trace": trace}, fh)
        sys.exit(code)
""")


def fake_worker(tmp_path, body):
    path = tmp_path / "fake_worker.py"
    path.write_text(FAKE_HEADER + textwrap.dedent(body))
    return [sys.executable, str(path)]


def local_output(survivors=None):
    return {"classes": 261, "undecided": 0, "recheck_failed": 0,
            "survivors": survivors or run.LOCAL_SURVIVORS}


def make_run(tmp_path, name, body, trace=False):
    work = tmp_path / "work"
    work.mkdir(exist_ok=True)
    return run.Run(name, seed=7, trace=trace, tmp=str(work),
                   worker=fake_worker(tmp_path, body))


def assert_failed_without_timing(r, fragment):
    p = r.passes[-1]
    assert p.error is not None and fragment in p.error
    assert (r.attempted, r.failed) == (1, 1)
    assert r.end_to_end() == {}


def test_good_pass_is_a_timing(tmp_path):
    r = make_run(tmp_path, "local_filter", f"finish({local_output()!r})")
    r.run_pass(0, False, time.monotonic() + 30)
    assert r.passes[0].error is None
    assert r.end_to_end()["wall_s"] == 1.5


def test_wrong_survivor_count_fails(tmp_path):
    survivors = dict(run.LOCAL_SURVIVORS, **{"5": run.LOCAL_SURVIVORS["5"][1:]})
    r = make_run(tmp_path, "local_filter", f"finish({local_output(survivors)!r})")
    r.run_pass(0, False, time.monotonic() + 30)
    assert_failed_without_timing(r, "21 survivors, expected 22")


def test_nonzero_exit_fails(tmp_path):
    r = make_run(tmp_path, "local_filter", f"finish({local_output()!r}, code=1)")
    r.run_pass(0, False, time.monotonic() + 30)
    assert_failed_without_timing(r, "exit code 1")


def test_timeout_fails_and_kills_the_worker(tmp_path):
    pid_file = tmp_path / "pid"
    r = make_run(tmp_path, "local_filter", f"""
        import os
        open({str(pid_file)!r}, "w").write(str(os.getpid()))
        time.sleep(60)
    """)
    r.run_pass(0, False, time.monotonic() + 1.0)
    assert_failed_without_timing(r, "timeout")
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text()), 0)


def test_run_stops_before_a_pass_would_overrun(tmp_path):
    r = make_run(tmp_path, "local_filter", f"time.sleep(0.3)\nfinish({local_output()!r})")
    t0 = time.monotonic()
    r.measure(4.0)
    elapsed = time.monotonic() - t0
    assert elapsed < 4.5
    assert len(r.passes) >= 2 and r.failed == 0


def test_first_pass_runs_even_when_longer_than_the_run(tmp_path):
    r = make_run(tmp_path, "local_filter", f"time.sleep(0.3)\nfinish({local_output()!r})")
    r.measure(0.01)
    assert len(r.passes) == 1 and r.failed == 0
    assert len(r.setup_samples()) == run.SETUP_PROBES + 1


def _report(extra):
    report = {"claims": [{"id": "pipeline vs brute-force oracle", "verdict": "PASS"}],
              "final_solutions": run.TEN_TRIPLES, "extra": extra}
    return json.dumps(report, sort_keys=True) + "\n"


def test_tampered_report_fails(tmp_path):
    good = _report("certificate")
    tampered = _report("certificatf")
    r = make_run(tmp_path, "pipeline", f"""
        open(spec["out"], "w").write({tampered!r})
        finish({{"stages": {{}}}})
    """)
    r.report_sha = hashlib.sha256(good.encode()).hexdigest()   # the other runs
    r.run_pass(0, False, time.monotonic() + 30)
    assert_failed_without_timing(r, "differs")


def test_report_gate_checks_solutions_and_oracle():
    assert run.check_pipeline_report(_report("x").encode())[0] is None
    bad = json.loads(_report("x"))
    bad["claims"][0]["verdict"] = "FAIL"
    assert "oracle" in run.check_pipeline_report(json.dumps(bad).encode())[0]
    bad = json.loads(_report("x"))
    bad["final_solutions"] = bad["final_solutions"][1:]
    assert "10 signed" in run.check_pipeline_report(json.dumps(bad).encode())[0]


def test_chabauty_gate():
    good = {"outcome": {"status": "Complete", "values": ["-3", "0", "3"]}}
    assert run.check_chabauty_report(json.dumps(good), 2, 1) is None
    wrong = {"outcome": {"status": "Complete", "values": ["0", "3"]}}
    assert "values" in run.check_chabauty_report(json.dumps(wrong), 2, 1)
    open_ = {"outcome": {"status": "Inconclusive", "values": []}}
    assert "status" in run.check_chabauty_report(json.dumps(open_), 2, 1)


def test_traced_pass_with_a_silent_wrapper_fails(tmp_path):
    trace = {"stats": {}, "counts": {}}
    r = make_run(tmp_path, "local_filter", f"finish({local_output()!r}, trace={trace!r})",
                 trace=True)
    r.run_pass(0, True, time.monotonic() + 30)
    assert "recorded no call" in r.passes[0].error
    assert r.per_layer() == {}


def test_tracer_rebinds_every_name():
    """After install, no x3y9z2 module still holds an unwrapped original."""
    script = textwrap.dedent("""
        import importlib, sys
        from tracer import TRACED, Tracer, import_all
        import_all()
        originals = {}
        for name, module, attr, kind in TRACED:
            if "." not in attr:
                originals[name] = getattr(importlib.import_module(module), attr)
        Tracer().install()
        left = [(m, k) for m, mod in sys.modules.items() if m.startswith("x3y9z2")
                for k, v in vars(mod).items() if any(v is o for o in originals.values())]
        import x3y9z2.pipeline, x3y9z2.chabauty.setup, x3y9z2.verify, x3y9z2.ec
        wrapped = [x3y9z2.pipeline.nf_nth_root, x3y9z2.chabauty.setup.curve_order_fq,
                   x3y9z2.verify.torsion_over_Q, x3y9z2.ec.torsion_over_Q,
                   x3y9z2.pipeline.is_locally_soluble]
        assert all(hasattr(f, "__wrapped__") for f in wrapped), wrapped
        print(left)
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(run.ROOT / "src"), str(run.HERE)]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
