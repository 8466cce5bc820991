#!/usr/bin/env python3
"""End-to-end benchmark of the Anvil toolchain as a user runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  The first run builds anvilc
and the layer tool (perfbench/layers.cpp) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).  Every
operation is a real anvilc invocation on inputs generated from
--seed, and every output is checked.  The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 a
traced run times each layer from outside the program and writes a
Chrome-trace JSON file.  perfbench/README.md documents the workloads,
the metrics and the layer -> end-to-end map.

Exit codes: 0 ran (correct or not, see the JSON); 2 usage or not a
source checkout; 3 build failed.
"""

import argparse
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED_PATH = BENCH_DIR / "expected.json"
BUILD_TYPE = "RelWithDebInfo"  # the repository's default build type

WORKLOADS = ("check_suite", "farm_regression", "jit_dense", "vcd_single")
SIM_WORKLOADS = ("farm_regression", "jit_dense", "vcd_single")

# --seed picks one of POOL simulation seeds, each with
# checked-in expected statistics (expected.json).
POOL = 8
FARM_WORKERS = 2

# Simulated cycles per invocation ("full" for measurement, "tiny" for
# the self-check).
SIZES = {
    "full": {"farm_regression": 100000, "jit_dense": 50000,
             "vcd_single": 20000},
    "tiny": {"farm_regression": 2000, "jit_dense": 2000,
             "vcd_single": 1000},
}

# The design each sim workload runs.
DESIGN = {"farm_regression": "axi_demux", "jit_dense": "aes",
          "vcd_single": "axi_demux"}

# Set-up invocations per run; its median is setup_s.  The cheap ones
# are dominated by process start, which varies run to run.
SETUP_REPEATS = {"check_suite": 41, "farm_regression": 25,
                 "jit_dense": 3, "vcd_single": 25}

DEADLINE_S = 165.0          # stop starting work after this
TIMEOUT_S = {"interp": 60.0, "jit": 150.0}

E2E = [("wall_s", "s"), ("setup_s", "s"), ("throughput_per_s", "1/s"),
       ("peak_rss_mb", "MB")]

PER_LAYER = [
    ("lang.parse_s", "s"), ("ir.elaborate_s", "s"),
    ("types.check_s", "s"), ("types.check_pct", "%"),
    ("ir.optimize_s", "s"), ("ir.events_after_opt", "count"),
    ("codegen.rtlgen_s", "s"), ("codegen.sv_s", "s"),
    ("codegen.sv_bytes", "bytes"), ("codegen.emit_s", "s"),
    ("codegen.kernel_bytes", "bytes"), ("codegen.jit_s", "s"),
    ("codegen.jit_cache_hits", "count"), ("rtl.netlist_s", "s"),
    ("rtl.nets", "count"), ("rtl.levels", "count"),
    ("rtl.sweep_s", "s"), ("rtl.commit_s", "s"),
    ("rtl.nodes_per_cycle", "count"), ("rtl.useful_ratio", "ratio"),
    ("rtl.kernel_s", "s"), ("obs.coverage_s", "s"),
    ("obs.coverage_ablation_s", "s"), ("obs.contracts_s", "s"),
    ("obs.contracts_ablation_s", "s"), ("obs.activity_s", "s"),
    ("obs.triage_s", "s"), ("obs.vcd_s", "s"), ("obs.vcd_timer_s", "s"),
    ("obs.events_bytes", "bytes"), ("obs.merge_s", "s"),
    ("tb.other_s", "s"), ("anvil.worker_imbalance", "ratio"),
    ("remainder.frontend_s", "s"), ("remainder.process_s", "s"),
    ("trace_overhead_pct", "%"),
]

# Span name -> per-layer metric carrying its self time.
SPAN_METRIC = {
    "lang.parse": "lang.parse_s", "ir.elaborate": "ir.elaborate_s",
    "types.check": "types.check_s", "ir.optimize": "ir.optimize_s",
    "codegen.rtlgen": "codegen.rtlgen_s", "codegen.sv": "codegen.sv_s",
    "codegen.emit": "codegen.emit_s", "codegen.jit": "codegen.jit_s",
    "rtl.netlist": "rtl.netlist_s", "rtl.sweep": "rtl.sweep_s",
    "rtl.commit": "rtl.commit_s", "rtl.kernel": "rtl.kernel_s",
    "obs.coverage": "obs.coverage_s", "obs.contracts": "obs.contracts_s",
    "obs.activity": "obs.activity_s", "obs.triage": "obs.triage_s",
    "obs.vcd": "obs.vcd_timer_s", "obs.merge": "obs.merge_s",
    "run": "tb.other_s", "frontend": "remainder.frontend_s",
    "invocation": "remainder.process_s",
}

# --metrics timer -> span name under "run".
RUN_TIMERS = {
    "phase.sweep": "rtl.sweep", "phase.commit": "rtl.commit",
    "phase.kernel": "rtl.kernel", "obs.coverage": "obs.coverage",
    "obs.contracts": "obs.contracts", "obs.activity": "obs.activity",
    "obs.triage": "obs.triage", "obs.vcd": "obs.vcd",
}


def fail_usage(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


# --------------------------------------------------------------------
# Processes


class Proc:
    """One finished child: exit code, wall seconds, peak RSS of its
    process tree (from wait4), and its captured output."""

    def __init__(self, rc, wall, rss_mb, out, err, timed_out):
        self.rc, self.wall, self.rss_mb = rc, wall, rss_mb
        self.out, self.err, self.timed_out = out, err, timed_out


class Runner:
    """Starts every child in its own process group, reaps it with wait4,
    kills its whole group on timeout, and keeps nothing running past
    the benchmark's deadline."""

    def __init__(self, start):
        self.start = start
        self.live = set()

    def remaining(self):
        return DEADLINE_S - (time.perf_counter() - self.start)

    def run(self, argv, cwd, env, timeout):
        timeout = max(1.0, min(timeout, self.remaining() + 10.0))
        out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
        for p in (out_path, err_path):
            if p.exists():
                p.unlink()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            p = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out,
                                 stderr=err, stdin=subprocess.DEVNULL,
                                 start_new_session=True)
            self.live.add(p.pid)
            timed_out = threading.Event()

            def kill():
                timed_out.set()
                try:
                    os.killpg(p.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

            timer = threading.Timer(timeout, kill)
            timer.start()
            _, status, ru = os.wait4(p.pid, 0)
            wall = time.perf_counter() - t0
            timer.cancel()
            timer.join()
            p.returncode = os.waitstatus_to_exitcode(status)
            self.live.discard(p.pid)
            try:  # reap anything the child left in its group
                os.killpg(p.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
        text = out_path.read_text(errors="replace")
        etext = err_path.read_text(errors="replace")
        out_path.unlink()
        err_path.unlink()
        return Proc(p.returncode, wall, ru.ru_maxrss / 1024.0, text,
                    etext, timed_out.is_set())

    def kill_all(self):
        for pid in list(self.live):
            try:
                os.killpg(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
        self.live.clear()


# --------------------------------------------------------------------
# Build


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def ensure_built(bdir):
    """Configure once, then let the build tool bring anvilc and the
    layer tool up to date.  Output goes to a log, not stdout."""
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    jobs = str(os.cpu_count() or 2)
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"] + gen)
    steps.append(["cmake", "--build", str(bdir), "-j", jobs, "--target",
                  "anvilc", "perfbench_layers"])
    with open(log, "ab") as lf:
        for cmd in steps:
            if subprocess.run(cmd, stdout=lf, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode:
                tail = log.read_text(errors="replace").splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                print(f"perfbench: build failed (see {log})",
                      file=sys.stderr)
                sys.exit(3)
    anvilc = bdir / "anvil" / "anvilc"
    layers = bdir / "perfbench_layers"
    return anvilc, layers


# --------------------------------------------------------------------
# Output parsing and checks

RE_SIM = re.compile(r"^sim: (\d+) cycles, (\d+) toggles", re.M)
RE_SUMMARY = re.compile(r"^sim-summary (.*)$", re.M)
RE_WORKER = re.compile(r"^worker \d+: seed \d+: .*$", re.M)
RE_TRIAGE = re.compile(r"^triage: .*$", re.M)
FALLBACK_NOTE = "compiled backend unavailable"


def sim_stats(kind, proc, art):
    """The simulated statistics an invocation reports."""
    st = {}
    m = RE_SIM.search(proc.out)
    if m:
        st["cycles"], st["toggles"] = int(m.group(1)), int(m.group(2))
    m = RE_SUMMARY.search(proc.out)
    if m:
        st["summary"] = m.group(1)
    if kind == "farm_regression":
        st["workers"] = RE_WORKER.findall(proc.out)
        m = RE_TRIAGE.search(proc.out)
        st["triage"] = m.group(0) if m else None
    if kind == "vcd_single":
        vcd = art / "wave.vcd"
        st["vcd_bytes"] = vcd.stat().st_size if vcd.exists() else None
    return st


def check_sim(kind, proc, art, expect, ablation=()):
    """Problems with one sim invocation, [] when it is correct.  An
    ablation run drops observers, so only what they do not change is
    compared."""
    problems = []
    if proc.timed_out:
        return ["timed out"]
    if proc.rc != 0:
        problems.append(f"exit code {proc.rc}")
    if FALLBACK_NOTE in proc.err:
        problems.append("compiled backend fell back to the interpreter")
    got = sim_stats(kind, proc, art)
    keys = ["cycles", "toggles"]
    if not ablation:
        keys = list(expect)
    elif kind == "vcd_single" and "vcd" not in ablation:
        keys.append("vcd_bytes")
    for k in keys:
        if got.get(k) != expect.get(k):
            problems.append(f"{k}: got {got.get(k)!r}, "
                            f"expected {expect.get(k)!r}")
    return problems


# --------------------------------------------------------------------
# Statistics


def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail(xs):
    """The highest percentile with at least ten samples beyond it."""
    n = len(xs)
    if n < 11:
        return None
    v = sorted(xs)
    return 100.0 * (n - 10) / n, v[n - 11]


# --------------------------------------------------------------------
# Spans


class Trace:
    """Spans kept in memory: name, start, end (seconds on the run's
    clock), parent index.  Written once, at the end, as Chrome-trace
    JSON."""

    def __init__(self):
        self.spans = []

    def add(self, name, start, dur, parent, **args):
        self.spans.append({"name": name, "start": start, "dur": dur,
                           "parent": parent, "args": args})
        return len(self.spans) - 1

    def self_times(self, root):
        """Self time per span name in the subtree of `root`: duration
        minus the children's, which are laid end to end, so the self
        times add up to the root's duration."""
        kids = {}
        for i, s in enumerate(self.spans):
            kids.setdefault(s["parent"], []).append(i)
        out = {}

        def walk(i):
            s = self.spans[i]
            own = s["dur"] - sum(self.spans[k]["dur"]
                                 for k in kids.get(i, []))
            out[s["name"]] = out.get(s["name"], 0.0) + own
            for k in kids.get(i, []):
                walk(k)

        walk(root)
        return out

    def write(self, path, meta):
        events = []
        for i, s in enumerate(self.spans):
            args = dict(s["args"], span=i, parent=s["parent"])
            events.append({"name": s["name"], "ph": "X", "pid": 1,
                           "tid": 1, "ts": s["start"] * 1e6,
                           "dur": s["dur"] * 1e6, "args": args})
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events,
                                    "metadata": meta}) + "\n")


def add_replay(trace, rep, start, parent):
    """Attach a layer-tool replay's spans under `parent` at
    `start`, keeping their measured offsets; returns the end."""
    spans = rep["spans"]
    if not spans:
        return start
    base = spans[0]["start_ns"]
    idx = {}
    for i, s in enumerate(spans):
        par = idx[s["parent"]] if s["parent"] >= 0 else parent
        name = "frontend" if s["name"] == "compile" else s["name"]
        idx[i] = trace.add(name, start + (s["start_ns"] - base) / 1e9,
                           (s["end_ns"] - s["start_ns"]) / 1e9, par)
    return start + (spans[-1]["end_ns"] - base) / 1e9


# --------------------------------------------------------------------
# Workloads


class Bench:
    def __init__(self, args):
        self.args = args
        self.workload = args.workload
        self.size = args.size
        self.start = time.perf_counter()
        self.runner = Runner(self.start)
        self.attempted = 0
        self.failures = []
        self.expected = json.loads(EXPECTED_PATH.read_text())
        if args.plant_wrong:
            self.plant_wrong()
        self.sim_seed = 101 + 10 * (args.seed % POOL)
        self.unit_no = 0

    # -- setup -------------------------------------------------------

    def plant_wrong(self):
        """Corrupt one expected verdict or statistic (self-check)."""
        e = self.expected
        if self.workload == "check_suite":
            e["verdicts"]["top_unsafe"] = 0
        else:
            for entry in e[self.workload][self.size].values():
                entry["toggles"] += 1

    def prepare(self, anvilc, layers, work):
        self.anvilc, self.layers, self.work = anvilc, layers, work
        inputs = work / "inputs"
        inputs.mkdir(parents=True)
        p = self.runner.run([str(layers), "sources", str(inputs)],
                            work, self.env(work), TIMEOUT_S["interp"])
        self.op("write sources", [] if p.rc == 0 else [f"rc {p.rc}"])
        for ex in sorted((ROOT / "examples").glob("*.anvil")):
            shutil.copyfile(ex, inputs / f"example_{ex.name}")
        self.inputs = inputs
        names = sorted(x.stem for x in inputs.glob("*.anvil"))
        # The edit loop visits the sources in a seeded order.
        random.Random(self.args.seed).shuffle(names)
        self.sources = names
        self.source_bytes = sum((inputs / f"{n}.anvil").stat().st_size
                                for n in names)

    def env(self, udir):
        env = dict(os.environ)
        for key, sub in (("TMPDIR", "tmp"), ("HOME", "home"),
                         ("XDG_CACHE_HOME", "cache")):
            (udir / sub).mkdir(exist_ok=True)
            env[key] = str(udir / sub)
        return env

    def op(self, what, problems):
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")

    def new_unit_dir(self):
        self.unit_no += 1
        d = self.work / f"unit{self.unit_no}"
        d.mkdir()
        return d

    def invoke(self, argv, udir, kind="interp"):
        return self.runner.run([str(self.anvilc)] + argv, udir,
                               self.env(udir), TIMEOUT_S[kind])

    # -- invocations -------------------------------------------------

    def sim_argv(self, seed, cycles, art, metrics=False, drop=()):
        """The workload's anvilc command line; `drop` removes flags
        for an ablation."""
        w = self.workload
        src = str(self.inputs / f"{DESIGN[w]}.anvil")
        if w == "farm_regression":
            argv = ["--farm", str(FARM_WORKERS), "--sim", str(cycles),
                    "--seed-base", str(seed)]
        else:
            argv = ["--sim", str(cycles), "--seed", str(seed)]
        if w == "jit_dense":
            argv += ["--backend", "compiled"]
        if "cov" not in drop:
            argv.append("--cov")
        if "contracts" not in drop:
            argv.append("--contracts")
        if w == "farm_regression":
            argv += ["--events", str(art / "events")]
        if w == "vcd_single" and "vcd" not in drop:
            argv += ["--vcd", str(art / "wave.vcd")]
        if metrics:
            argv += ["--metrics", str(art / "metrics.json")]
        return argv + [src]

    def unit_seeds(self):
        if self.workload == "jit_dense":
            return [self.sim_seed, self.sim_seed + 1]
        return [self.sim_seed]

    def expect(self, seed):
        return self.expected[self.workload][self.size][str(seed)]

    def cycles(self):
        return SIZES[self.size][self.workload]

    def run_check_suite_unit(self, udir):
        """One pass of `anvilc -o <file>.sv` over every source.
        Returns (wall, rss, per-source (proc, name, sv bytes))."""
        verdicts = self.expected["verdicts"]
        wall, rss, rows = 0.0, 0.0, []
        for name in self.sources:
            sv = udir / f"{name}.sv"
            p = self.invoke(["-o", str(sv),
                             str(self.inputs / f"{name}.anvil")], udir)
            wall += p.wall
            rss = max(rss, p.rss_mb)
            want = verdicts.get(name, 0)
            problems = []
            if p.timed_out:
                problems.append("timed out")
            elif p.rc != want:
                problems.append(f"exit code {p.rc}, expected {want}")
            elif (want == 0) != sv.exists():
                problems.append("SV output presence does not match the "
                                "verdict")
            self.op(f"check {name}", problems)
            rows.append((p, name, sv.stat().st_size if sv.exists() else 0))
            if sv.exists():
                sv.unlink()
        return wall, rss, rows

    def run_sim_unit(self, udir, metrics=False, drop=()):
        """The workload's invocation(s) at each unit seed.  Returns
        (wall, rss, cycles, [(proc, seed, artifacts dir)])."""
        kind = "jit" if self.workload == "jit_dense" else "interp"
        wall, rss, cycles, rows = 0.0, 0.0, 0, []
        for seed in self.unit_seeds():
            art = udir / f"s{seed}"
            art.mkdir()
            p = self.invoke(self.sim_argv(seed, self.cycles(), art,
                                          metrics, drop),
                            udir, kind)
            wall += p.wall
            rss = max(rss, p.rss_mb)
            exp = self.expect(seed)
            problems = check_sim(self.workload, p, art, exp, drop)
            if not problems and self.workload == "farm_regression" and \
                    not drop:
                problems = self.check_streams(art, exp)
            self.op(f"{self.workload} seed {seed}"
                    f"{' without ' + ','.join(drop) if drop else ''}",
                    problems)
            cycles += exp["cycles"]
            rows.append((p, seed, art))
        return wall, rss, cycles, rows

    def check_streams(self, art, exp):
        got = 0
        for w in range(FARM_WORKERS):
            f = art / f"events.{w}"
            if not f.exists():
                return [f"missing event stream {f.name}"]
            for line in f.read_text().splitlines()[::-1]:
                if '"e":"run_end"' in line:
                    got += json.loads(line)["cycles"]
                    break
        if got != exp["cycles"]:
            return [f"event streams carry {got} cycles, expected "
                    f"{exp['cycles']}"]
        return []

    def run_unit(self, udir):
        """(wall, rss, work) of one untraced unit; work is simulated
        cycles, or source bytes for check_suite."""
        if self.workload == "check_suite":
            wall, rss, _ = self.run_check_suite_unit(udir)
            return wall, rss, self.source_bytes
        wall, rss, cycles, _ = self.run_sim_unit(udir)
        return wall, rss, cycles

    def setup_once(self, udir):
        """The workload's invocation shrunk to the least work: at
        --sim 1 for sim workloads, on the smallest accepted source for
        check_suite."""
        if self.workload == "check_suite":
            name = min((n for n in self.sources
                        if self.expected["verdicts"].get(n, 0) == 0),
                       key=lambda n: (self.inputs / f"{n}.anvil")
                       .stat().st_size)
            p = self.invoke(["-o", str(udir / "setup.sv"),
                             str(self.inputs / f"{name}.anvil")], udir)
            self.op("setup", [] if p.rc == 0 else [f"exit code {p.rc}"])
            return p.wall
        kind = "jit" if self.workload == "jit_dense" else "interp"
        art = udir / "setup"
        art.mkdir()
        p = self.invoke(self.sim_argv(self.sim_seed, 1, art), udir, kind)
        problems = [] if p.rc == 0 else [f"exit code {p.rc}"]
        if FALLBACK_NOTE in p.err:
            problems.append("compiled backend fell back")
        m = RE_SIM.search(p.out)
        workers = FARM_WORKERS if self.workload == "farm_regression" else 1
        if not m or int(m.group(1)) != workers:
            problems.append("setup run did not simulate one cycle")
        self.op("setup", problems)
        return p.wall

    def in_unit_dir(self, fn):
        udir = self.new_unit_dir()
        try:
            return fn(udir)
        finally:
            shutil.rmtree(udir, ignore_errors=True)

    def time_left(self, t0):
        return (time.perf_counter() - t0 < self.args.seconds and
                self.runner.remaining() > 0)

    # -- trace 0 -----------------------------------------------------

    def measure(self):
        """Units for --seconds, with the set-up invocations spread
        between them so setup_s samples the whole run."""
        repeats = SETUP_REPEATS[self.workload] if self.size == "full" else 1
        per_unit = max(1, repeats // 8)
        setups, walls, rates, rss = [], [], [], []
        busy = 0.0
        while True:
            for _ in range(min(per_unit, repeats - len(setups))):
                setups.append(self.in_unit_dir(self.setup_once))
            t0 = time.perf_counter()
            wall, peak, work = self.in_unit_dir(self.run_unit)
            busy += time.perf_counter() - t0
            walls.append(wall)
            rates.append(work / wall)
            rss.append(peak)
            if busy >= self.args.seconds or self.runner.remaining() <= 0:
                break
        while len(setups) < repeats:
            setups.append(self.in_unit_dir(self.setup_once))
        t = tail(walls)
        print(f"wall_s            {median(walls):.6f} s   (median of "
              f"{len(walls)} units; " +
              (f"p{t[0]:.1f} = {t[1]:.6f} s" if t else
               "no percentile has 10 samples beyond it") +
              f"; n = {len(walls)})")
        print(f"setup_s           {median(setups):.6f} s   (median of "
              f"{len(setups)})")
        what = ("Anvil source bytes checked" if self.workload ==
                "check_suite" else "simulated cycles")
        print(f"throughput_per_s  {median(rates):.1f} 1/s   ({what} per "
              f"second of invocation wall)")
        print(f"peak_rss_mb       {median(rss):.2f} MB")
        return {"wall_s": median(walls), "setup_s": median(setups),
                "throughput_per_s": median(rates),
                "peak_rss_mb": median(rss)}

    # -- trace 1 -----------------------------------------------------

    def replay(self, name, udir, netlist=False, emit=False):
        argv = [str(self.layers), "replay",
                str(self.inputs / f"{name}.anvil")]
        if netlist:
            argv.append("--netlist")
        if emit:
            argv.append("--emit")
        p = self.runner.run(argv, udir, self.env(udir),
                            TIMEOUT_S["interp"])
        try:
            rep = json.loads(p.out)
        except ValueError:
            rep = None
        self.op(f"replay {name}", [] if p.rc == 0 and rep else
                [f"layer tool exit code {p.rc}"])
        return rep or {"spans": [], "counts": {}, "ok": False}

    def traced_check_suite(self, trace, at, udir, counts):
        wall, _, rows = self.run_check_suite_unit(udir)
        root = trace.add("unit", at, wall, -1, workload=self.workload)
        for p, name, sv_bytes in rows:
            inv = trace.add("invocation", at, p.wall, root, source=name,
                            exit_code=p.rc)
            rep = self.replay(name, udir)
            add_replay(trace, rep, at, inv)
            c = rep["counts"]
            if self.expected["verdicts"].get(name, 0) == 0 and \
                    c.get("codegen.sv_bytes") != sv_bytes:
                self.op(f"replay {name} matches anvilc",
                        [f"SV bytes {c.get('codegen.sv_bytes')} vs "
                         f"{sv_bytes}"])
            for k in ("ir.events_after_opt", "codegen.sv_bytes"):
                counts[k] = counts.get(k, 0) + c.get(k, 0)
            at += p.wall
        return root, wall

    def traced_sim(self, trace, at, udir, counts):
        w = self.workload
        wall, _, _, rows = self.run_sim_unit(udir, metrics=True)
        root = trace.add("unit", at, wall, -1, workload=w)
        for p, seed, art in rows:
            inv = trace.add("invocation", at, p.wall, root, seed=seed,
                            exit_code=p.rc)
            rep = self.replay(DESIGN[w], udir, netlist=True,
                              emit=(w == "jit_dense"))
            t = add_replay(trace, rep, at, inv)
            for k in ("ir.events_after_opt", "codegen.sv_bytes",
                      "rtl.nets", "rtl.levels", "codegen.kernel_bytes"):
                counts[k] = counts.get(k, 0) + rep["counts"].get(k, 0)
            try:
                met = json.loads((art / "metrics.json").read_text())
            except (OSError, ValueError):
                met = {}
                self.op("metrics artifact", ["missing or malformed"])
            timers = met.get("timers_ns", {})
            ctr = met.get("counters", {})
            if w == "jit_dense":
                emit = sum(s["end_ns"] - s["start_ns"] for s in rep["spans"]
                           if s["name"] == "codegen.emit") / 1e9
                jit = timers.get("jit.compile", 0) / 1e9 - emit
                trace.add("codegen.jit", t, jit, inv)
                t += jit
                counts["codegen.jit_cache_hits"] = (
                    counts.get("codegen.jit_cache_hits", 0) +
                    ctr.get("jit.cache_hit", 0))
            run_timers = timers
            if w == "farm_regression":
                run_timers, imbalance = self.critical_worker(art)
                counts.setdefault("anvil.worker_imbalance", []).append(
                    imbalance)
            run_wall = run_timers.get("run.wall", 0) / 1e9
            run = trace.add("run", t, run_wall, inv)
            c = t
            for key, span in RUN_TIMERS.items():
                if key in run_timers:
                    d = run_timers[key] / 1e9
                    trace.add(span, c, d, run)
                    c += d
            t += run_wall
            for k in ("sweep.nodes_evaluated", "sweep.frames",
                      "sweep.nets_changed"):
                counts[k] = counts.get(k, 0) + ctr.get(k, 0)
            if w == "farm_regression":
                streams = [str(art / f"events.{i}")
                           for i in range(FARM_WORKERS)]
                counts["obs.events_bytes"] = counts.get(
                    "obs.events_bytes", 0) + sum(
                        os.path.getsize(s) for s in streams
                        if os.path.exists(s))
                m = self.merge(streams, udir)
                trace.add("obs.merge", t, m, inv)
            at += p.wall
        return root, wall

    def critical_worker(self, art):
        """Per-worker timers of the slowest farm worker (it sets the
        farm's wall time), and slowest / median worker wall."""
        workers = []
        for i in range(FARM_WORKERS):
            timers, wall = {}, 0
            f = art / f"events.{i}"
            for line in (f.read_text().splitlines() if f.exists() else []):
                if '"e":"timer"' in line:
                    ev = json.loads(line)
                    timers[ev["k"]] = ev["ns"]
                elif '"e":"run_end"' in line:
                    wall = json.loads(line)["wall_ns"]
            workers.append((wall, timers))
        walls = [w for w, _ in workers]
        slow = max(workers, key=lambda x: x[0])
        return slow[1], (max(walls) / median(walls) if median(walls)
                         else 0.0)

    def merge(self, streams, udir):
        p = self.runner.run([str(self.layers), "merge"] + streams,
                            udir, self.env(udir), TIMEOUT_S["interp"])
        try:
            m = json.loads(p.out)
        except ValueError:
            m = {}
        exp = self.expect(self.sim_seed)
        ok = p.rc == 0 and m.get("cycles") == exp["cycles"] and \
            m.get("toggles") == exp["toggles"]
        self.op("merge event streams", [] if ok else
                [f"merger exit {p.rc}, totals {m.get('cycles')}/"
                 f"{m.get('toggles')}"])
        return m.get("merge_ns", 0) / 1e9

    def ablations(self):
        return {"farm_regression": ("cov", "contracts"),
                "vcd_single": ("cov", "contracts", "vcd")}.get(
                    self.workload, ())

    def traced(self):
        """Pairs of (untraced unit, traced unit) plus one ablation run
        per observer, until --seconds have passed."""
        trace = Trace()
        plain, traced_walls, per_unit, abl = [], [], [], {}
        t0 = time.perf_counter()
        while True:
            at = time.perf_counter() - self.start
            plain.append(self.in_unit_dir(self.run_unit)[0])
            counts = {}
            if self.workload == "check_suite":
                root, wall = self.in_unit_dir(
                    lambda s: self.traced_check_suite(trace, at, s, counts))
            else:
                root, wall = self.in_unit_dir(
                    lambda s: self.traced_sim(trace, at, s, counts))
            traced_walls.append(wall)
            selfs = trace.self_times(root)
            per_unit.append((selfs, counts, wall))
            for flag in self.ablations():
                w = self.in_unit_dir(
                    lambda s: self.run_sim_unit(s, drop=(flag,))[0])
                abl.setdefault(flag, []).append(plain[-1] - w)
            if not self.time_left(t0):
                break
        return trace, plain, traced_walls, per_unit, abl

    def layer_metrics(self, plain, traced_walls, per_unit, abl):
        vals = {name: [] for name, _ in PER_LAYER}
        for selfs, counts, wall in per_unit:
            for span, metric in SPAN_METRIC.items():
                vals[metric].append(selfs.get(span, 0.0))
            vals["types.check_pct"].append(
                100.0 * selfs.get("types.check", 0.0) / wall)
            for k in ("ir.events_after_opt", "codegen.sv_bytes",
                      "rtl.nets", "rtl.levels", "codegen.kernel_bytes",
                      "codegen.jit_cache_hits", "obs.events_bytes"):
                vals[k].append(counts.get(k, 0))
            frames = counts.get("sweep.frames", 0)
            nodes = counts.get("sweep.nodes_evaluated", 0)
            vals["rtl.nodes_per_cycle"].append(nodes / frames
                                               if frames else 0.0)
            vals["rtl.useful_ratio"].append(
                counts.get("sweep.nets_changed", 0) / nodes if nodes
                else 0.0)
            vals["anvil.worker_imbalance"].append(
                median(counts.get("anvil.worker_imbalance", [])))
        vals["obs.coverage_ablation_s"] = abl.get("cov", [])
        vals["obs.contracts_ablation_s"] = abl.get("contracts", [])
        vals["obs.vcd_s"] = abl.get("vcd", [])
        base = median(plain)
        vals["trace_overhead_pct"] = [
            100.0 * (median(traced_walls) - base) / base]
        return {k: median(v) for k, v in vals.items()}

    def report_trace(self, trace, per_unit, metrics, host):
        selfs, _, wall = per_unit[-1]
        total = sum(selfs.values())
        print(f"self time of the last traced unit (wall {wall:.6f} s):")
        for name, v in sorted(selfs.items(), key=lambda x: -x[1]):
            print(f"  {name:22s} {v:.6f} s  {100 * v / wall:6.2f}%")
        print(f"  {'sum':22s} {total:.6f} s  (identity error "
              f"{abs(total - wall):.3g} s)")
        self.op("self times add up to the unit wall",
                [] if abs(total - wall) <= 1e-9 * max(1.0, wall) else
                [f"{total} != {wall}"])
        path = build_dir() / "traces" / \
            f"{self.workload}-seed{self.args.seed}.json"
        trace.write(path, host)
        print(f"trace: {path}")
        for name, unit in PER_LAYER:
            print(f"{name:26s} {metrics[name]:.6g} {unit}")


def host_facts(bench, layers, work):
    p = bench.runner.run([str(layers), "host"], work, bench.env(work),
                         TIMEOUT_S["interp"])
    cc = json.loads(p.out).get("jit_compiler", "") if p.rc == 0 else ""
    version = ""
    if cc:
        v = bench.runner.run([cc, "--version"], work, bench.env(work),
                             TIMEOUT_S["interp"])
        version = v.out.splitlines()[0] if v.out else ""
    return {"workload": bench.workload, "seed": bench.args.seed,
            "sim_seed": bench.sim_seed, "size": bench.size,
            "nproc": os.cpu_count(), "jit_compiler": cc,
            "jit_compiler_version": version, "build_type": BUILD_TYPE}


def record_expected(anvilc, layers, work):
    """Regenerate expected.json with the interpreter backend."""
    out = {"verdicts": json.loads(EXPECTED_PATH.read_text())["verdicts"]}
    for w in SIM_WORKLOADS:
        out[w] = {}
        for size in SIZES:
            args = argparse.Namespace(workload=w, seed=0, size=size,
                                      plant_wrong=False, seconds=0)
            b = Bench(args)
            b.expected = {}
            b.prepare(anvilc, layers, work / f"{w}-{size}")
            table = {}
            for i in range(POOL):
                for seed in {101 + 10 * i, 101 + 10 * i +
                             (1 if w == "jit_dense" else 0)}:
                    udir = b.new_unit_dir()
                    art = udir / "art"
                    art.mkdir()
                    argv = [a for a in b.sim_argv(seed, SIZES[size][w], art)
                            if a not in ("--backend", "compiled")]
                    p = b.invoke(argv, udir)
                    if p.rc != 0:
                        sys.exit(f"record: {w} seed {seed}: rc {p.rc}")
                    table[str(seed)] = sim_stats(w, p, art)
                    shutil.rmtree(udir)
            out[w][size] = table
    EXPECTED_PATH.write_text(json.dumps(out, indent=1, sort_keys=True)
                             + "\n")
    print(f"wrote {EXPECTED_PATH}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(SIZES), default="full",
                    help="tiny: the self-check's input sizes")
    ap.add_argument("--plant-wrong", action="store_true",
                    help="corrupt one expected value (self-check)")
    ap.add_argument("--record-expected", action="store_true",
                    help="regenerate perfbench/expected.json")
    args = ap.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src").is_dir():
        fail_usage(f"{ROOT} is not an Anvil source checkout "
                   "(no CMakeLists.txt / src)")
    if not args.record_expected and not args.workload:
        fail_usage("--workload is required")

    bdir = build_dir()
    anvilc, layers = ensure_built(bdir)
    work = bdir / "work" / str(os.getpid())
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    bench = None
    try:
        if args.record_expected:
            record_expected(anvilc, layers, work)
            return
        bench = Bench(args)
        bench.prepare(anvilc, layers, work)
        host = host_facts(bench, layers, work)
        print(f"perfbench: {args.workload} seed {args.seed} "
              f"(simulation seed {bench.sim_seed}) trace {args.trace}")
        print("host: " + json.dumps(host))
        if args.trace == 0:
            values = bench.measure()
            units = dict(E2E)
        else:
            trace, plain, tw, per_unit, abl = bench.traced()
            values = bench.layer_metrics(plain, tw, per_unit, abl)
            bench.report_trace(trace, per_unit, values, host)
            units = dict(PER_LAYER)
        for f in bench.failures[:20]:
            print(f"FAILED: {f}")
        failed = len(bench.failures)
        print(f"failed_ratio      {failed / bench.attempted:.6f} "
              f"({failed} of {bench.attempted} operations)")
        print(json.dumps({
            "correct": failed == 0, "attempted": bench.attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in values.items()}}))
    finally:
        if bench:
            bench.runner.kill_all()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
