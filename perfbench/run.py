"""Benchmark harness for x3y9z2.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every pass runs in fresh interpreters
(perfbench/worker.py), one at a time: one closed-loop client, one worker
process.  Passes repeat while the next one, judged by the longest so far,
would end within S seconds of the start (at least one pass).
Every pass is checked here, outside the program; a wrong result, a
non-zero exit, an exception or a timeout makes the pass a failed
attempt, and a failed pass contributes no timing.

The last line of standard output is the result object.  With --trace 0 it
holds the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer ones.  A record of the host and the inputs of the run goes to
standard error.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import TIMED, TRACED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = [sys.executable, str(HERE / "worker.py")]

# -- expected results --------------------------------------------------------

TEN_TRIPLES = [[-7, 2, -13], [-7, 2, 13], [-1, 1, 0], [0, 1, -1], [0, 1, 1],
               [1, -1, 0], [1, 0, -1], [1, 0, 1], [2, 1, -3], [2, 1, 3]]

# Exponent vectors (over the Selmer generators) of the classes that are
# soluble over Q_3: 22 for equation 5, 4 each for equations 1 and 2.
LOCAL_SURVIVORS = {
    "5": [[0, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 1, 0, 2], [0, 1, 2, 0, 0],
          [0, 2, 0, 0, 0], [1, 0, 2, 0, 0], [1, 1, 0, 0, 0], [1, 2, 1, 0, 0],
          [2, 0, 0, 0, 0], [2, 0, 0, 0, 2], [2, 0, 0, 1, 0], [2, 0, 0, 1, 1],
          [2, 0, 0, 2, 0], [2, 0, 1, 0, 0], [2, 0, 1, 1, 2], [2, 0, 1, 2, 1],
          [2, 0, 2, 0, 1], [2, 0, 2, 1, 0], [2, 0, 2, 2, 2], [2, 1, 1, 0, 0],
          [2, 2, 0, 1, 0], [2, 2, 2, 0, 0]],
    "1": [[0, 0, 0, 0], [0, 2, 0, 0], [1, 2, 0, 0], [2, 2, 0, 0]],
    "2": [[0, 0, 0, 0], [0, 1, 0, 0], [1, 2, 0, 0], [2, 2, 0, 0]],
}

# (eq, row index in the class table) -> s/t values of a complete run.
CHABAUTY_VALUES = {
    (2, 1): ["-3", "0", "3"],   # rank-2 curve E1, closed at p = 11
    (1, 3): ["-1"],             # rank-1 curve E4, needs p = 11, then p = 31
}

# The union of the equation 1 and 2 value sets that the Chabauty stage
# proves; rank0_assembly takes it as input.
FAM1_VALUES = ["-3", "-1", "0", "1", "3", "oo"]

RANK0_EXPECTED = {
    "counts": [243, 243, 22],
    "values": {"eq5": ["-2", "0", "1", "2", "4", "oo"],
               "eq6": ["-1", "-1/2", "-2", "0", "1", "oo"]},
    # The recorded misprints in the printed tables that these stages reach.
    "corrected": sorted([
        "eq5 quotient E1 right-hand side",
        "eq5 quotient E1 base point",
        "eq5 E1 c=2 torsion point (2, 1, 8)",
        "eq5 E2 c=3 torsion point (2, -1, 8)",
        "assembly family3 row (s,t)=(1,0)",
        "theorem1 entry (1,1,0)",
    ]),
}

# -- workloads ---------------------------------------------------------------

DATAIO = ("dataio.load_descent_data", "dataio.DescentData.verify", "dataio.load_mw_data",
          "dataio.load_tables", "dataio.data_hashes")
DESCENT_LOCAL = ("descent.enumerate_delta", "descent.cubic_norm_filter",
                 "descent.build_descent_forms", "local.is_locally_soluble",
                 "local.jacobian_evals")
CHABAUTY = ("arith.roots.nf_nth_root", "arith.roots.small_primes",
            "ec.reduction.curve_order_fq", "ec.reduction.non_divisibility_sieve",
            "ec.reduction.primes_above", "chabauty.setup.chabauty_setup_for_row",
            "chabauty.engine.rational_st_values",
            "chabauty.engine.certify_index_coprimality", "chabauty.engine.residue_sieve",
            "chabauty.engine.ChabautyRun.run", "chabauty.engine.prime_attempts")
RANK0 = ("arith.roots.nf_nth_root", "verify.quotient_torsion", "ec.torsion.torsion_over_Q",
         "pipeline.brute_search", "pipeline.run_lift_stage")


@dataclass(frozen=True)
class Workload:
    jobs: object           # (random.Random, tmp dir) -> job specs of one pass
    expect: tuple          # trace names that must record calls in a traced pass
    worker_timeout: float  # seconds, per worker
    run_cap: float         # no pass may run past this many seconds into the run


def _local_filter_jobs(rng, tmp):
    return [{"job": "local_filter", "order_seed": rng.randrange(2**32)}]


def _chabauty_jobs(rng, tmp):
    classes = sorted(CHABAUTY_VALUES)
    rng.shuffle(classes)
    return [{"job": "chabauty", "eq": eq, "delta": delta,
             "out": str(Path(tmp) / f"chabauty-{eq}-{delta}-{rng.randrange(2**32)}.json")}
            for eq, delta in classes]


def _rank0_jobs(rng, tmp):
    return [{"job": "rank0_assembly", "fam1": FAM1_VALUES}]


def _pipeline_jobs(rng, tmp):
    return [{"job": "pipeline", "out": str(Path(tmp) / f"report-{rng.randrange(2**32)}.json")}]


WORKLOADS = {
    "chabauty_cold": Workload(_chabauty_jobs, DATAIO + CHABAUTY, 120, 170),
    "rank0_assembly": Workload(_rank0_jobs, DATAIO + DESCENT_LOCAL + RANK0, 90, 170),
    # Not in BENCHMARK.json: rank0_assembly runs the same Q_3 filter over
    # 243 of its 261 classes, and two workloads leave room for long runs.
    "local_filter": Workload(_local_filter_jobs, DATAIO + DESCENT_LOCAL, 90, 170),
    # Not in BENCHMARK.json: one pass takes about 150 s, more than a
    # benchmark run may.  Run it by hand for the north-star number.
    "pipeline": Workload(_pipeline_jobs, DATAIO + DESCENT_LOCAL + CHABAUTY + RANK0,
                         900, 1800),
}

SETUP_PROBES = 5          # set-up-only interpreters per untraced run
SETUP_TIMEOUT = 60

# -- running workers ---------------------------------------------------------


class WorkerFailed(Exception):
    pass


def run_worker(argv, timeout, result_path, env=None):
    """Run one worker to completion and return its result, or raise
    WorkerFailed on a non-zero exit, a timeout or a missing result."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"timeout after {timeout:.1f} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or [""]
        raise WorkerFailed(f"exit code {proc.returncode}: {tail[0]}")
    try:
        with open(result_path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as e:
        raise WorkerFailed(f"no readable result: {e}") from None


def _worker_env(hash_seed):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


# -- result gate -------------------------------------------------------------


def check_local_filter(output):
    if output["classes"] != 261:
        return f"{output['classes']} classes passed the cubic-norm filter, expected 261"
    if output["undecided"]:
        return f"{output['undecided']} classes Undecided"
    if output["recheck_failed"]:
        return f"{output['recheck_failed']} witnesses failed LocalVerdict.recheck"
    for eq, expected in LOCAL_SURVIVORS.items():
        got = output["survivors"][eq]
        if len(got) != len(expected):
            return f"eq{eq}: {len(got)} survivors, expected {len(expected)}"
        if got != expected:
            return f"eq{eq}: survivor set differs from the expected one"
    return None


def check_chabauty_report(text, eq, delta):
    try:
        out = json.loads(text)["outcome"]
    except (ValueError, KeyError, TypeError):
        return f"eq{eq} delta {delta}: unreadable report"
    if out.get("status") != "Complete":
        return f"eq{eq} delta {delta}: status {out.get('status')!r}"
    if out.get("values") != sorted(CHABAUTY_VALUES[(eq, delta)]):
        return f"eq{eq} delta {delta}: values {out.get('values')}"
    return None


def check_rank0(output):
    if output["counts"] != RANK0_EXPECTED["counts"]:
        return f"eq5 counts {output['counts']}"
    if output["values"] != RANK0_EXPECTED["values"]:
        return f"eq5/eq6 values {output['values']}"
    if output["final_solutions"] != TEN_TRIPLES:
        return "final solutions differ from the 10 signed triples"
    if output["oracle_solutions"] != output["final_solutions"]:
        return "brute-force oracle disagrees"
    failed = [cid for cid, verdict in output["claims"] if verdict == "FAIL"]
    if failed:
        return f"FAIL claims: {failed}"
    corrected = sorted(cid for cid, verdict in output["claims"] if verdict == "CORRECTED")
    if corrected != RANK0_EXPECTED["corrected"]:
        return f"unexpected CORRECTED claims: {corrected}"
    return None


def check_pipeline_report(data, known_sha=None):
    """Check report bytes; returns (error or None, sha256 of the bytes).
    known_sha is the sha of the other runs of the same source tree."""
    sha = hashlib.sha256(data).hexdigest()
    try:
        report = json.loads(data)
        oracle = [c for c in report["claims"] if c["id"] == "pipeline vs brute-force oracle"]
        final = report["final_solutions"]
    except (ValueError, KeyError, TypeError):
        return "unreadable report", sha
    if final != TEN_TRIPLES:
        return "final solutions differ from the 10 signed triples", sha
    if len(oracle) != 1 or oracle[0]["verdict"] != "PASS":
        return "oracle claim is not PASS", sha
    if known_sha is not None and sha != known_sha:
        return f"report sha256 {sha[:16]} differs from {known_sha[:16]} of other runs", sha
    return None, sha


def missing_wrappers(trace, expect):
    """Expected trace names that recorded no call: a missed rebinding must
    not pass for a zero cost."""
    stats, counts = trace["stats"], trace["counts"]
    return [name for name in expect
            if not (stats.get(name, {}).get("calls") or counts.get(name))]


# -- passes ------------------------------------------------------------------


@dataclass
class Pass:
    traced: bool
    error: str | None = None
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    setup_s: list = field(default_factory=list)
    trace: dict | None = None
    stages: dict = field(default_factory=dict)
    hash_seeds: list = field(default_factory=list)


class Run:
    def __init__(self, name, seed, trace, tmp, worker=WORKER, state_dir=None):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.trace = trace
        self.tmp = tmp
        self.worker = worker
        self.state_file = Path(state_dir) / "report_sha256.json" if state_dir else None
        self.report_sha = self._load_known_sha()
        self.passes = []
        self.setup_probes = []      # set-up times, or None for a failed probe

    def _load_known_sha(self):
        if self.state_file is None or not self.state_file.exists():
            return None
        return json.loads(self.state_file.read_text()).get(source_sha256())

    def _save_known_sha(self):
        if self.state_file is None or self.report_sha is None:
            return
        known = json.loads(self.state_file.read_text()) if self.state_file.exists() else {}
        known[source_sha256()] = self.report_sha
        self.state_file.write_text(json.dumps(known, indent=1, sort_keys=True))

    def _spawn(self, spec, hash_seed, timeout):
        path = Path(self.tmp) / f"result-{os.getpid()}-{time.monotonic_ns()}.json"
        spec = dict(spec, t_spawn=time.monotonic())
        try:
            return run_worker(self.worker + [json.dumps(spec), str(path)], timeout, path,
                              _worker_env(hash_seed))
        finally:
            path.unlink(missing_ok=True)

    def probe_setup(self, index, deadline):
        rng = random.Random(f"{self.seed}/setup/{index}")
        timeout = min(SETUP_TIMEOUT, deadline - time.monotonic())
        try:
            res = self._spawn({"job": "setup", "trace": False}, rng.randrange(2**32), timeout)
            self.setup_probes.append(res["setup_s"])
        except WorkerFailed as e:
            self.setup_probes.append(None)
            print(f"setup probe failed: {e}", file=sys.stderr)

    def run_pass(self, index, traced, deadline):
        """One pass; its inputs depend only on the seed and the index."""
        rng = random.Random(f"{self.seed}/{index}")
        p = Pass(traced=traced)
        merged = {"stats": {}, "counts": {}}
        try:
            for spec in self.workload.jobs(rng, self.tmp):
                hash_seed = rng.randrange(2**32)
                p.hash_seeds.append(hash_seed)
                timeout = min(self.workload.worker_timeout, deadline - time.monotonic())
                res = self._spawn(dict(spec, trace=traced), hash_seed, timeout)
                error = self._check(spec, res["output"])
                if error:
                    raise WorkerFailed(error)
                p.wall_s += res["wall_s"]
                p.cpu_s += res["cpu_s"]
                p.peak_rss_mb = max(p.peak_rss_mb, res["peak_rss_mb"])
                p.setup_s.append(res["setup_s"])
                p.stages.update(res["output"].get("stages", {}))
                if traced:
                    _merge_trace(merged, res["trace"])
            if traced:
                missing = missing_wrappers(merged, self.workload.expect)
                if missing:
                    raise WorkerFailed(f"traced functions recorded no call: {missing}")
                p.trace = merged
        except WorkerFailed as e:
            p.error = str(e)
        except (KeyError, TypeError, ValueError) as e:
            p.error = f"malformed worker result: {e!r}"
        if p.error:
            print(f"pass {index} failed: {p.error}", file=sys.stderr)
        self.passes.append(p)
        return p

    def _check(self, spec, output):
        job = spec["job"]
        if job == "local_filter":
            return check_local_filter(output)
        if job == "rank0_assembly":
            return check_rank0(output)
        data = Path(spec["out"]).read_bytes() if Path(spec["out"]).exists() else b""
        if job == "chabauty":
            return check_chabauty_report(data, spec["eq"], spec["delta"])
        error, sha = check_pipeline_report(data, self.report_sha)
        if error is None:
            self.report_sha = sha
        return error

    def measure(self, seconds):
        """Set-up probes, then passes until the next one, judged by the
        longest so far, would end more than `seconds` after the start."""
        start = time.monotonic()
        deadline = start + self.workload.run_cap
        if not self.trace:
            for i in range(SETUP_PROBES):
                self.probe_setup(i, deadline)
        longest = 0.0
        index = 0
        while True:
            now = time.monotonic()
            if index and (now + longest - start > seconds or now + 1.5 * longest > deadline):
                break
            self.run_pass(index, False, deadline)
            if self.trace:
                self.run_pass(index, True, deadline)
            longest = max(longest, time.monotonic() - now)
            index += 1
        if all(p.error is None for p in self.passes):
            self._save_known_sha()

    # -- summary -------------------------------------------------------------

    @property
    def attempted(self):
        return len(self.passes) + len(self.setup_probes)

    @property
    def failed(self):
        return (sum(p.error is not None for p in self.passes)
                + sum(s is None for s in self.setup_probes))

    def ok_passes(self, traced):
        return [p for p in self.passes if p.error is None and p.traced == traced]

    def setup_samples(self):
        return ([s for s in self.setup_probes if s is not None]
                + [s for p in self.ok_passes(False) for s in p.setup_s])

    def end_to_end(self):
        ok = self.ok_passes(False)
        setups = self.setup_samples()
        metrics = {}
        if ok:
            metrics["wall_s"] = statistics.median(p.wall_s for p in ok)
            metrics["cpu_s"] = statistics.median(p.cpu_s for p in ok)
            metrics["peak_rss_mb"] = statistics.median(p.peak_rss_mb for p in ok)
        if setups:
            metrics["setup_s"] = statistics.median(setups)
        return metrics

    def per_layer(self):
        traced = self.ok_passes(True)
        if not traced:
            return {}
        rows = [layer_metrics(p.trace, p.stages) for p in traced]
        metrics = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
        untraced = self.ok_passes(False)
        if untraced:
            metrics["trace_overhead_s"] = (statistics.median(p.wall_s for p in traced)
                                           - statistics.median(p.wall_s for p in untraced))
        return metrics

    def samples(self):
        """Sample count and quartiles of each per-pass timing, for the record."""
        out = {}
        for traced in (False, True):
            ok = self.ok_passes(traced)
            for key in ("wall_s", "cpu_s", "peak_rss_mb"):
                vals = [getattr(p, key) for p in ok]
                if vals:
                    out[("traced_" if traced else "") + key] = _spread(vals)
        setups = self.setup_samples()
        if setups:
            out["setup_s"] = _spread(setups)
        return out


def _spread(vals):
    q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
    return {"n": len(vals), "median": statistics.median(vals), "q1": q[0], "q3": q[2]}


def _merge_trace(into, trace):
    for name, st in trace["stats"].items():
        acc = into["stats"].setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for k in acc:
            acc[k] += st[k]
    for name, n in trace["counts"].items():
        into["counts"][name] = into["counts"].get(name, 0) + n


STAGES = ("static_tables", "eq5_stage", "chabauty_stage", "table_claims",
          "assembly_and_oracle")


def layer_metrics(trace, stages):
    """Every per-layer metric the trace can give, zero where not reached."""
    stats, counts = trace["stats"], trace["counts"]
    m = {"dataio.load_s": sum(stats.get(n, {}).get("total_s", 0.0) for n in DATAIO)}
    for name, _, _, kind in TRACED:
        if kind == TIMED:
            st = stats.get(name, {})
            for key in ("calls", "self_s", "total_s"):
                m[f"{name}.{key}"] = st.get(key, 0)
        else:
            m[name] = counts.get(name, 0)
    for name in ("local.soluble", "local.refute_s", "local.witness_s",
                 "arith.roots.nf_nth_root.found"):
        m[name] = counts.get(name, 0)
    for stage in STAGES:
        m[f"pipeline.stage.{stage}_s"] = stages.get(stage, 0.0)
    return m


# -- host record -------------------------------------------------------------

CALIBRATION_ITERS = 3_000_000


def calibrate():
    """A fixed pure-Python loop; its time tells a slow host from a slow change."""
    t0 = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_ITERS):
        x = (x * 31 + i) % 1_000_003
    return time.perf_counter() - t0


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def git_commit():
    """HEAD of ROOT/.git, read without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256():
    """Content hash of src/, which identifies the code under test when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "x3y9z2").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# -- main --------------------------------------------------------------------


def load_metric_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "x3y9z2" / "__init__.py").is_file():
        print(f"no x3y9z2 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    e2e_units, layer_units = load_metric_spec()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    state_dir = ROOT / ".perfbench"
    state_dir.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=state_dir)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "git_commit": git_commit(),
        "source_sha256": source_sha256(), "loadavg_before": loadavg(),
        "calibration_before_s": calibrate(),
    }
    run = Run(args.workload, args.seed, bool(args.trace), tmp, state_dir=state_dir)
    try:
        run.measure(args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    record.update({
        "calibration_after_s": calibrate(), "loadavg_after": loadavg(),
        "passes": [{"traced": p.traced, "wall_s": p.wall_s, "error": p.error,
                    "hash_seeds": p.hash_seeds} for p in run.passes],
        "setup_probes_s": run.setup_probes,
        "report_sha256": run.report_sha,
        "samples": run.samples(),
    })
    print("record " + json.dumps(record, sort_keys=True), file=sys.stderr)

    if args.trace:
        found, units = run.per_layer(), layer_units
    else:
        found, units = run.end_to_end(), e2e_units
    metrics = {name: {"value": found[name], "unit": unit}
               for name, unit in units.items() if name in found}
    if args.workload == "pipeline" and args.trace and found:
        metrics.update({f"pipeline.stage.{s}_s": {"value": found[f"pipeline.stage.{s}_s"],
                                                  "unit": "s"}
                        for s in ("chabauty_stage", "table_claims")})
    correct = run.failed == 0 and len(metrics) >= len(units)
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
