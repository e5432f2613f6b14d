#!/usr/bin/env python3
"""End-to-end benchmark of `gendpr release`, with a layer-attributed traced pass.

Usage (from the root of a gendpr source tree):

    python3 perfbench/run.py --workload paper_g3 --seed 1 [--seconds 40] --trace 0
    python3 perfbench/run.py --smoke

One invocation builds the CLI and the traced-pass helper (Release, into
.bench_build/), generates the workload's workspace from the seed with
`gendpr gen` (cached under .bench_work/), warms the page cache, and then runs
the real `gendpr release` command closed loop, one study in flight, until
--seconds have passed. Every run is checked (exit code, TSV, run report,
equivalence with the centralized comparator on f=0 workloads, recorded
SHA-256 of the TSV). With --trace 1 the same runs are followed by the
in-process traced pass (perfbench_trace) and the per-layer metrics are
printed instead of the end-to-end ones.

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The line before it carries the details: quartiles and sample counts of every
timing, the output checks, the environment fingerprint and the workspace
generation time. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORK = ROOT / ".bench_work"
DIGESTS = HERE / "tsv_sha256.json"
# Metric names and units come from the benchmark definition at the root.
SPEC_PATH = ROOT / "BENCHMARK.json"
SPEC = {}

# The paper's thresholds (§7): MAF 0.05, LD 1e-5, FPR 0.1, power 0.9.
POWER_LIMIT = 0.9
THRESHOLDS = ["--maf", "0.05", "--ld", "1e-5", "--fpr", "0.1", "--power", str(POWER_LIMIT)]

# name -> shape. `cohorts` is how many workspaces one invocation generates
# from its seed and spreads its runs over (see cohort_seeds). `smoke` is the
# reduced shape of the self-test (--smoke).
# ld_fanout_g8 is runnable by hand but not listed in BENCHMARK.json: its
# run-to-run spread on a shared host is too wide to gate (see README.md).
WORKLOADS = {
    "paper_g3": dict(cases=14860, controls=13035, snps=10000, gdos=3, f=0, tile_width=0, cohorts=1,
                     smoke=dict(cases=1486, controls=1303, snps=1000)),
    "collusion_g5f2": dict(cases=14860, controls=13035, snps=5000, gdos=5, f=2, tile_width=0, cohorts=6,
                           smoke=dict(cases=1486, controls=1303, snps=500)),
    "ld_fanout_g8": dict(cases=1200, controls=1200, snps=30000, gdos=8, f=0, tile_width=1000, cohorts=1,
                         smoke=dict(cases=400, controls=400, snps=3000)),
}

DEADLINE_S = 170.0       # one invocation must end within 180 s
RUN_LIMIT_S = 90.0       # one `gendpr release` child
GEN_LIMIT_S = 120.0
BUILD_LIMIT_S = 840.0
KEEP_WORKSPACES = 2      # invocations' worth per workload, newest first
COHORT_SEED_STRIDE = 1000
STEAL_LIMIT = 0.1        # host steal time as a share of a run's CPU time
SIZE_METRICS = ("peak_rss_mb", "wire_mb", "tools.minflt")

# Everything the program reads from the environment is under GENDPR_; the
# children get none of it, so a stray GENDPR_TRANSPORT, GENDPR_EVENT_LOOPS,
# GENDPR_POOL_BUFFERS, GENDPR_BENCH_SCALE or GENDPR_REPORT_DIR (or a backend
# override) cannot change what is measured.
CHILD_ENV = {k: v for k, v in os.environ.items() if not k.startswith("GENDPR_")}

T0 = time.monotonic()


class HarnessError(Exception):
    """The benchmark itself cannot run (no source tree, build failure)."""


def log(msg):
    print(f"[perfbench {time.monotonic() - T0:6.1f}s] {msg}", file=sys.stderr, flush=True)


def remaining(limit):
    return max(1.0, min(limit, DEADLINE_S - (time.monotonic() - T0)))


# ---------------------------------------------------------------- build ----

def ensure_built():
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or not (ROOT / "tools" / "gendpr_cli.cpp").is_file():
        raise HarnessError(f"no gendpr source tree at {ROOT} (need src/ and tools/ next to perfbench/)")
    quiet = dict(stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT, env=CHILD_ENV)
    try:
        if not (BUILD / "CMakeCache.txt").is_file():
            log("configuring Release build in .bench_build")
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, timeout=BUILD_LIMIT_S, **quiet)
        jobs = str(len(os.sched_getaffinity(0)))
        subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "gendpr_cli", "perfbench_trace"],
                       check=True, timeout=BUILD_LIMIT_S, **quiet)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as exc:
        raise HarnessError(f"build failed: {exc}") from exc
    gendpr = BUILD / "gendpr_tools" / "gendpr"
    helper = BUILD / "perfbench_trace"
    for binary in (gendpr, helper):
        if not os.access(binary, os.X_OK):
            raise HarnessError(f"build produced no {binary}")
    return gendpr, helper


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ------------------------------------------------------------ children ----

def steal_ticks():
    """Host steal time of all vCPUs so far, in clock ticks (0 if unknown)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return 0


def spawn(argv, stdout_path, stderr_path, limit):
    """Runs argv to completion, timed from fork to reap.

    Returns (exit_code, wall_s, rusage, timed_out, steal_s). The child is
    killed at `limit` seconds; either way it has been reaped when this
    returns. `steal_s` is the host's steal time over all vCPUs while the
    child ran: time other tenants took from this machine.
    """
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    lock = threading.Lock()
    state = {"reaped": False, "killed": False}
    steal0 = steal_ticks()
    start = time.perf_counter()
    pid = os.posix_spawn(str(argv[0]), [str(a) for a in argv], CHILD_ENV, file_actions=actions)

    def kill():
        with lock:
            if not state["reaped"]:
                state["killed"] = True
                os.kill(pid, signal.SIGKILL)

    timer = threading.Timer(limit, kill)
    timer.start()
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    with lock:
        state["reaped"] = True
    timer.cancel()
    steal = (steal_ticks() - steal0) / os.sysconf("SC_CLK_TCK")
    return os.waitstatus_to_exitcode(status), wall, usage, state["killed"], steal


def run_helper(helper, args, scratch, limit):
    """Runs perfbench_trace; returns (parsed stdout, None) or (None, error)."""
    out, err = scratch / "helper.out", scratch / "helper.err"
    code, _, _, timed_out, _ = spawn([helper, *args], out, err, remaining(limit))
    if code != 0 or timed_out:
        tail = err.read_text(errors="replace")[-500:]
        return None, f"perfbench_trace {args[0]} failed (exit {code}, timed out {timed_out}): {tail}"
    return json.loads(out.read_text()), None


# ----------------------------------------------------------- workspaces ----

def cohort_seeds(seed, shape):
    """The `gendpr gen` seeds of an invocation's cohorts.

    Cohort 0 is generated from the invocation's seed itself; cohort j from
    seed + 1000 j. Spreading the runs over several cohorts averages out how
    much the data of one seed varies the work (the size of L'').
    """
    return [seed + COHORT_SEED_STRIDE * j for j in range(shape["cohorts"])]


def prepare_workspaces(name, shape, seeds, gendpr, smoke):
    """Generates (or reuses) one workspace per seed; returns [(dir, info)].

    A workspace is reused while its seed and the gendpr binary are the same.
    Missing ones are generated side by side, one `gendpr gen` each. This is
    outside every timer; generation time (of the batch, until each process
    was reaped) and input size are reported as information only.
    """
    binary = sha256_file(gendpr)[:16]
    tag = f"{name}{'-smoke' if smoke else ''}"
    spaces, pending, failures = [], [], []
    try:
        for seed in seeds:
            ws = WORK / "ws" / f"{tag}-s{seed}-{binary}"
            spaces.append(ws)
            if (ws / "generated.json").is_file():
                continue
            shutil.rmtree(ws, ignore_errors=True)
            ws.mkdir(parents=True)  # `gendpr gen` does not create it
            argv = [gendpr, "gen", ws, "--cases", shape["cases"], "--controls", shape["controls"],
                    "--snps", shape["snps"], "--gdos", shape["gdos"], "--seed", seed]
            log(f"generating {ws.name}")
            with open(ws / "gen.out", "wb") as out, open(ws / "gen.err", "wb") as err:
                proc = subprocess.Popen([str(a) for a in argv], stdout=out, stderr=err, env=CHILD_ENV)
            pending.append((ws, proc))
        start = time.perf_counter()
        for ws, proc in pending:
            try:
                code = proc.wait(timeout=remaining(GEN_LIMIT_S))
            except subprocess.TimeoutExpired:
                code = "timed out"
            if code != 0:
                failures.append(f"gendpr gen {ws.name} failed ({code}): {(ws / 'gen.err').read_text()[-500:]}")
            else:
                (ws / "generated.json").write_text(json.dumps({"gen_s": time.perf_counter() - start}))
    finally:
        for _, proc in pending:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    if failures:
        raise HarnessError("; ".join(failures))
    # Keep the newest few workspaces of this workload.
    keep = set(spaces)
    siblings = sorted((p for p in (WORK / "ws").glob(f"{tag}-s[0-9]*") if p not in keep),
                      key=lambda p: p.stat().st_mtime, reverse=True)
    for old in siblings[KEEP_WORKSPACES * len(spaces) - len(spaces):]:
        shutil.rmtree(old, ignore_errors=True)
    fresh = {ws for ws, _ in pending}
    result = []
    for ws in spaces:
        os.utime(ws)
        info = json.loads((ws / "generated.json").read_text())
        info["reused"] = ws not in fresh
        # Warm the page cache: read every input once before the first timed run.
        total = 0
        for path in sorted(ws.glob("*.vcf")):
            with open(path, "rb") as fh:
                while chunk := fh.read(1 << 22):
                    total += len(chunk)
        info["input_mb"] = total / 1e6
        result.append((ws, info))
    # Flush what generation wrote, so writeback does not overlap the first
    # timed run.
    os.sync()
    return result


# -------------------------------------------------------------- checks ----

def release_argv(gendpr, ws, shape, seed, tsv, report):
    return [gendpr, "release", ws, "--gdos", shape["gdos"], "--f", shape["f"], *THRESHOLDS,
            "--seed", seed, "--tile-width", shape["tile_width"],
            "--transport", "epoll", "--event-loops", "1", "--out", tsv, "--report", report]


def check_outputs(tsv, report_path, expected_l_safe):
    """Validates one run's outputs; returns (errors, sha256, facts).

    `facts` holds what the metrics need from the run report: `study_s`,
    `wire_bytes` and the metrics `labels`.
    """
    errors = []
    if not tsv.is_file() or not report_path.is_file():
        return ["no TSV or no run report written"], None, None
    data = tsv.read_bytes()
    try:
        report = json.loads(report_path.read_text())
        selection = report["study"]["selection"]
        facts = {"study_s": report["phases"]["total_ms"] / 1e3,
                 "wire_bytes": report["network"]["total_bytes"],
                 "labels": report.get("metrics", {}).get("labels", {})}
        lines = data.decode().splitlines()
        snps = [int(line.split("\t", 1)[0]) for line in lines[1:]]
    except (ValueError, KeyError, UnicodeDecodeError) as exc:
        return [f"unreadable output: {exc}"], None, None
    if not lines or not lines[0].startswith("snp\t"):
        errors.append("TSV has no header")
    if selection["final_power"] > POWER_LIMIT:
        errors.append(f"final_power {selection['final_power']} > {POWER_LIMIT}")
    if not selection["l_safe"] <= selection["l_double_prime"] <= selection["l_prime"]:
        errors.append("selection sizes not nested: l_safe <= l_double_prime <= l_prime fails")
    if len(snps) != selection["l_safe"]:
        errors.append(f"TSV has {len(snps)} rows, report says l_safe={selection['l_safe']}")
    transport = facts["labels"].get("net.transport")
    if transport != "epoll":
        errors.append(f"ran on transport {transport!r}, not epoll")
    if expected_l_safe is not None and snps != expected_l_safe:
        errors.append("TSV SNP set differs from the centralized comparator's L_safe")
    return errors, hashlib.sha256(data).hexdigest(), facts


# ------------------------------------------------------------- metrics ----

def summary(values):
    """Median, quartiles and count of one timing."""
    if not values:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def timed_runs(runs):
    """The runs the timings come from: those that passed their checks and
    during which the host took little CPU time from this machine.

    On a shared host, other tenants' load shows as steal time, and a
    multi-threaded study whose threads wait for one another slows by far
    more than the time stolen (on collusion_g5f2, 10% steal has made runs
    70% slower). Runs whose steal exceeded STEAL_LIMIT of the CPU time the
    run used are still checked, but not timed (their sizes, SIZE_METRICS,
    still count). When every run of an invocation was disturbed, all of
    them are timed.
    """
    ok = [r for r in runs if not r["errors"]]
    for r in ok:
        r["disturbed"] = r["steal_s"] > STEAL_LIMIT * (r["user_s"] + r["sys_s"])
    return [r for r in ok if not r["disturbed"]] or ok


def e2e_samples(ok):
    return {
        "e2e_s": [r["wall_s"] for r in ok],
        "study_s": [r["study_s"] for r in ok],
        "setup_s": [r["wall_s"] - r["study_s"] for r in ok],
        "cpu_s": [r["user_s"] + r["sys_s"] for r in ok],
        "peak_rss_mb": [r["maxrss_kb"] / 1024 for r in ok],
        "wire_mb": [r["wire_bytes"] / 1e6 for r in ok],
        "tools.user_s": [r["user_s"] for r in ok],
        "tools.sys_s": [r["sys_s"] for r in ok],
        "tools.minflt": [r["minflt"] for r in ok],
        "tools.nvcsw": [r["nvcsw"] for r in ok],
        "tools.nivcsw": [r["nivcsw"] for r in ok],
    }


# --------------------------------------------------------- environment ----

def fingerprint(labels):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = {}
    if (BUILD / "CMakeCache.txt").is_file():
        for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
            if ":" in line and "=" in line and not line.startswith(("#", "//")):
                key, value = line.split("=", 1)
                cache[key.split(":", 1)[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "unknown")
    for f in sorted(BUILD.glob("CMakeFiles/*/CMakeCXXCompiler.cmake")):
        text = f.read_text()
        ident = [l.split('"')[1] for l in text.splitlines() if l.startswith(("set(CMAKE_CXX_COMPILER_ID ", "set(CMAKE_CXX_COMPILER_VERSION "))]
        compiler = f"{compiler} ({' '.join(ident)})"
    git_sha = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        git_sha = res.stdout.strip() or None
    tree = hashlib.sha256()
    for top in ("src", "tools", "perfbench", "CMakeLists.txt"):
        paths = [ROOT / top] if (ROOT / top).is_file() else sorted((ROOT / top).rglob("*"))
        for p in paths:
            if p.is_file() and "__pycache__" not in p.parts:
                tree.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "kernel": platform.release(),
        "compiler": compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "git_sha": git_sha,
        "source_sha256": tree.hexdigest(),
        "kernel.backend": labels.get("kernel.backend"),
        "crypto.backend": labels.get("crypto.backend"),
        "net.transport": labels.get("net.transport"),
    }


# ---------------------------------------------------------------- main ----

def run_workload(name, seed, seconds, trace, gendpr, helper, smoke=False, workspace=None):
    """Measures one workload; returns (result line dict, detail dict).

    The runs go round the invocation's cohorts (see `cohort_seeds`) until
    `seconds` have passed and every cohort has run once. A metric is the
    mean over the cohorts of each cohort's median.
    """
    shape = dict(WORKLOADS[name])
    if smoke:
        shape.update(shape["smoke"])
        shape["tile_width"] = shape["tile_width"] // 10
    if workspace is None:
        seeds = cohort_seeds(seed, shape)
        spaces = prepare_workspaces(name, shape, seeds, gendpr, smoke)
    else:
        seeds = [seed]
        spaces = [(workspace, {"gen_s": 0.0, "reused": True, "input_mb": 0.0})]
    cohorts = [{"seed": s, "ws": ws, "gen": info} for s, (ws, info) in zip(seeds, spaces)]
    out = WORK / "runs" / f"{name}{'-smoke' if smoke else ''}-s{seed}-t{trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    harness_errors = []

    # The f=0 equivalence reference, computed once per cohort, untimed. The
    # traced pass (on cohort 0) computes it too, so trace runs take cohort
    # 0's from there.
    for j, cohort in enumerate(cohorts):
        cohort["expected"] = None
        if shape["f"] == 0 and not (trace and j == 0):
            ref, err = run_helper(helper, ["reference", cohort["ws"], "--gdos", shape["gdos"]], out, 150.0)
            if err:
                harness_errors.append(err)
            else:
                cohort["expected"] = ref["l_safe"]

    runs = []
    window = time.monotonic()
    while len(runs) < len(cohorts) or time.monotonic() - window < seconds:
        if runs and DEADLINE_S - (time.monotonic() - T0) < 3 * runs[-1]["wall_s"] + (40 if trace else 5):
            log("stopping early to stay inside the invocation deadline")
            break
        i = len(runs)
        cohort = cohorts[i % len(cohorts)]
        tsv, report = out / f"run{i}.tsv", out / f"run{i}.json"
        argv = release_argv(gendpr, cohort["ws"], shape, cohort["seed"], tsv, report)
        code, wall, usage, timed_out, steal = spawn(argv, out / f"run{i}.out", out / f"run{i}.err",
                                                    remaining(RUN_LIMIT_S))
        run = {"cohort": i % len(cohorts), "exit": code, "timed_out": timed_out, "wall_s": wall,
               "user_s": usage.ru_utime, "sys_s": usage.ru_stime, "maxrss_kb": usage.ru_maxrss,
               "minflt": usage.ru_minflt, "nvcsw": usage.ru_nvcsw, "nivcsw": usage.ru_nivcsw,
               "steal_s": steal, "tsv": tsv, "report": report}
        if timed_out:
            run["errors"] = ["hit the per-run time limit"]
        elif code != 0:
            run["errors"] = [f"exit code {code}: {(out / f'run{i}.err').read_text(errors='replace')[-300:]}"]
        else:
            run["errors"] = []
        runs.append(run)
        log(f"{name} run {i} (cohort seed {cohort['seed']}): {wall:.3f} s, exit {code}")

    trace_doc = None
    if trace:
        trace_tsv = out / "trace.tsv"
        trace_doc, err = run_helper(
            helper, ["trace", cohorts[0]["ws"], "--gdos", shape["gdos"], "--f", shape["f"],
                     "--tile-width", shape["tile_width"], "--seed", cohorts[0]["seed"], "--out", trace_tsv],
            out, 170.0)
        if err:
            harness_errors.append(err)
        elif shape["f"] == 0:
            cohorts[0]["expected"] = trace_doc["centralized_l_safe"]

    # Output checks, after the timed loop.
    labels = {}
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    for j, cohort in enumerate(cohorts):
        recorded = None if smoke else digests.get(name, {}).get(str(cohort["seed"]))
        shas = set()
        for run in (r for r in runs if r["cohort"] == j):
            if run["errors"]:
                continue
            errors, sha, facts = check_outputs(run["tsv"], run["report"], cohort["expected"])
            run["errors"] = errors
            if errors:
                continue
            run["sha256"] = sha
            shas.add(sha)
            if recorded is not None and sha != recorded:
                run["errors"].append(f"TSV sha256 {sha[:12]} differs from the recorded {recorded[:12]}")
            run["study_s"] = facts["study_s"]
            run["wire_bytes"] = facts["wire_bytes"]
            labels = labels or facts["labels"]
        if len(shas) > 1:
            harness_errors.append(f"TSV of cohort seed {cohort['seed']} differs between runs: "
                                  f"{sorted(s[:12] for s in shas)}")
        cohort["tsv_sha256"], cohort["recorded_sha256"] = sorted(shas), recorded
    if trace and trace_doc is not None:
        trace_sha = hashlib.sha256((out / "trace.tsv").read_bytes()).hexdigest()
        if cohorts[0]["tsv_sha256"] and trace_sha not in cohorts[0]["tsv_sha256"]:
            harness_errors.append("traced pass TSV differs from the CLI's")
        if shape["f"] == 0 and trace_doc["isolated_l_safe_size"] != len(trace_doc["l_safe"]):
            harness_errors.append("isolated stats selection disagrees with the protocol's L_safe size")
        tm = trace_doc["metrics"]
        if tm["gendpr.span_coverage_pct"] < 90.0:
            harness_errors.append(f"spans cover only {tm['gendpr.span_coverage_pct']:.1f}% of the study span")

    attempted = len(runs) + (1 if trace else 0)
    failed = sum(1 for r in runs if r["errors"])
    if trace and (trace_doc is None or harness_errors):
        failed += 1
    correct = failed == 0 and not harness_errors

    # Sizes do not depend on the host, so every checked run counts for them.
    timed, ok = timed_runs(runs), [r for r in runs if not r["errors"]]
    per_cohort = []
    for j in range(len(cohorts)):
        samples = e2e_samples([r for r in timed if r["cohort"] == j])
        sizes = e2e_samples([r for r in ok if r["cohort"] == j])
        per_cohort.append({k: sizes[k] if k in SIZE_METRICS else v for k, v in samples.items()})
    for j, samples in enumerate(per_cohort):
        cohorts[j]["timings"] = {k: summary(v) for k, v in samples.items()}
    values = {}
    for k in per_cohort[0]:
        medians = [c["timings"][k]["median"] for c in cohorts if c["timings"][k]["n"]]
        values[k] = statistics.fmean(medians) if medians else 0.0
    if trace_doc is not None:
        tm = trace_doc["metrics"]
        values.update(tm)
        setup0 = cohorts[0]["timings"]["setup_s"]
        values["tools.glue_ms"] = ((setup0["median"] if setup0["n"] else values["setup_s"]) * 1e3
                                   - tm["genome.vcf_read_ms"] - tm["gendpr.provision_ms"] - tm["release.build_ms"])
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing and trace_doc is not None:
        harness_errors.append(f"metrics not produced: {missing}")
        correct = False
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in wanted}

    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke,
        "closed_loop_clients": 1,
        "cohorts": [{"seed": c["seed"],
                     "workspace": {"dir": str(c["ws"].relative_to(ROOT)) if c["ws"].is_relative_to(ROOT)
                                   else str(c["ws"]), **c["gen"]},
                     "timings": {m["name"]: c["timings"][m["name"]] for m in SPEC["end_to_end"]},
                     "rusage": {k: v for k, v in c["timings"].items() if k.startswith("tools.")},
                     "tsv_sha256": c["tsv_sha256"], "recorded_sha256": c["recorded_sha256"],
                     "centralized_check": c["expected"] is not None}
                    for c in cohorts],
        "timed_runs": len(timed), "steal_limit": STEAL_LIMIT,
        "runs": [{k: (str(v) if isinstance(v, Path) else v) for k, v in r.items()} for r in runs],
        "harness_errors": harness_errors,
        "environment": fingerprint(labels),
    }
    if trace_doc is not None:
        detail["trace"] = {k: trace_doc[k] for k in ("kernel_backend", "crypto_backend", "isolated_l_safe_size")}
    (out / "detail.json").write_text(json.dumps(detail, indent=1))
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, detail


def smoke_test(gendpr, helper, seed):
    """Runs every workload once at reduced size (with its traced pass), then
    a deliberately broken workspace that must be counted as failed."""
    ok = True
    for name in WORKLOADS:
        result, detail = run_workload(name, seed, 0, 1, gendpr, helper, smoke=True)
        log(f"smoke {name}: correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']} errors={detail['harness_errors']}")
        ok &= result["correct"]
    # A workspace with a truncated slice: the run must fail and be counted.
    shape = {**WORKLOADS["paper_g3"], **WORKLOADS["paper_g3"]["smoke"]}
    [(good, _)] = prepare_workspaces("paper_g3", shape, cohort_seeds(seed, shape)[:1], gendpr, smoke=True)
    broken = WORK / "ws" / "broken"
    shutil.rmtree(broken, ignore_errors=True)
    shutil.copytree(good, broken)
    slice1 = broken / "gdo1.vcf"
    slice1.write_bytes(slice1.read_bytes()[: slice1.stat().st_size // 2])
    result, detail = run_workload("paper_g3", seed, 0, 0, gendpr, helper, smoke=True, workspace=broken)
    counted = result["failed"] == result["attempted"] == 1 and not result["correct"]
    log(f"smoke broken workspace: failed={result['failed']} of {result['attempted']} "
        f"({'counted as failed' if counted else 'NOT counted as failed'})")
    shutil.rmtree(broken, ignore_errors=True)
    return ok and counted


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measured window (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="self-test: every workload once at reduced size, plus a broken workspace")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")
    global SPEC, T0
    try:
        try:
            SPEC = json.loads(SPEC_PATH.read_text())
        except (OSError, ValueError) as exc:
            raise HarnessError(f"cannot read {SPEC_PATH}: {exc}") from exc
        gendpr, helper = ensure_built()
        T0 = time.monotonic()  # the first run's build is outside the deadline
        if args.smoke:
            return 0 if smoke_test(gendpr, helper, args.seed) else 1
        seconds = SPEC["run_seconds"] if args.seconds is None else args.seconds
        result, detail = run_workload(args.workload, args.seed, seconds, args.trace, gendpr, helper)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(detail, separators=(",", ":")))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
