#!/usr/bin/env python3
"""Repository benchmark: time to verdict, memory and decided share of julie.

Run from the repository root:

    python3 perfbench/run.py --workload table1-gpo --seed 1 --seconds 20 --trace 0

It builds release `julie` and the benchmark's own probe
(perfbench/probe), generates the input nets from the seed, runs the
workload and prints every metric by name with its unit. The last line of
standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

--trace 0 runs `julie check` (or `julie serve`) as child processes, one
job at a time, and reports the end-to-end metrics. --trace 1 is a separate
traced run: the probe calls each layer's public functions in-process with
a span around every call, and the per-layer metrics are reported. The
spans are written once, at the end, as Chrome trace-event JSON under
.bench_work/, which Perfetto opens offline.

Every job carries its expected verdict; a wrong verdict or a crashed job
makes the run incorrect and the exit code 1. See perfbench/README.md for
the workloads, the metrics and the seed behaviours the traced run shows.
"""

import argparse
import hashlib
import http.client
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

WORK = ".bench_work"
MIN_ROUNDS = 3
JOB_LIMIT_S = 120

# Neighbouring philosophers share a fork, so they never eat together.
MUTEX = "AG !(m(eat0) >= 1 & m(eat1) >= 1)"
DEADLOCK = "EF deadlock"

NSDP_WHY = "NSDP deadlocks by construction: all philosophers take their left fork"
ASAT_WHY = "ASAT deadlocks by construction"
OVER_WHY = "OVER deadlocks by construction: every car yields"
RW_WHY = "RW is deadlock-free: a writer always finishes"
CYCLIC_WHY = "CYCLIC is deadlock-free: the token ring always moves"
MUTEX_WHY = "philosophers 0 and 1 share fork 1"


def job(jid, net, engine, expect, why, threads=1, zdd=False, reduce=False,
        timeout=0, prop=DEADLOCK, states=None, agree=None, witnesses=1):
    """One `julie check` job with its hand-written expected verdict.

    `states` pins a state count known independently of this
    implementation; jobs sharing an `agree` tag must report equal state
    counts because they are separate implementations or settings."""
    return dict(id=jid, net=net, engine=engine, threads=threads, zdd=zdd,
                reduce=reduce, timeout=timeout, prop=prop, expect=expect,
                why=why, states=states, agree=agree, witnesses=witnesses)


TABLE1 = [
    job("nsdp8-gpo", "nsdp:8", "gpo", "deadlock", NSDP_WHY, states=3),
    job("nsdp8-gpo-zdd", "nsdp:8", "gpo", "deadlock", NSDP_WHY, zdd=True, states=3),
    job("nsdp7-gpo", "nsdp:7", "gpo", "deadlock", NSDP_WHY, states=3),
    job("nsdp7-gpo-zdd", "nsdp:7", "gpo", "deadlock", NSDP_WHY, zdd=True, states=3),
    job("asat4-gpo", "asat:4", "gpo", "deadlock", ASAT_WHY, agree="asat4-gpn"),
    job("asat4-gpo-zdd", "asat:4", "gpo", "deadlock", ASAT_WHY, zdd=True, agree="asat4-gpn"),
    job("asat8-gpo-zdd", "asat:8", "gpo", "deadlock", ASAT_WHY, zdd=True),
    job("over6-gpo", "over:6", "gpo", "deadlock", OVER_WHY, agree="over6-gpn"),
    job("over6-gpo-zdd", "over:6", "gpo", "deadlock", OVER_WHY, zdd=True, agree="over6-gpn"),
    job("rw12-gpo", "rw:12", "gpo", "deadlock-free", RW_WHY, agree="rw12-gpn"),
    job("rw12-gpo-zdd", "rw:12", "gpo", "deadlock-free", RW_WHY, zdd=True, agree="rw12-gpn"),
]

COMB_WHY = "every dead-end branch of the comb is a deadlock"
EXPLORE = [
    job("nsdp8-full-t1", "nsdp:8", "full", "deadlock", NSDP_WHY, agree="nsdp8"),
    job("nsdp8-full-t2", "nsdp:8", "full", "deadlock", NSDP_WHY, threads=2, agree="nsdp8"),
    job("asat8-full-t1", "asat:8", "full", "deadlock", ASAT_WHY, agree="asat8"),
    job("asat8-full-t2", "asat:8", "full", "deadlock", ASAT_WHY, threads=2, agree="asat8"),
    job("over5-full-t1", "over:5", "full", "deadlock", OVER_WHY, agree="over5"),
    job("over5-full-t2", "over:5", "full", "deadlock", OVER_WHY, threads=2, agree="over5"),
    # comb(d, w) reaches 1 + d * (w + 1) markings
    job("comb-full-t1", "comb:200:16", "full", "deadlock", COMB_WHY, states=3401),
    job("comb-full-t2", "comb:200:16", "full", "deadlock", COMB_WHY, threads=2, states=3401),
    job("nsdp10-po", "nsdp:10", "po", "deadlock", NSDP_WHY),
    job("over5-bdd", "over:5", "bdd", "deadlock", OVER_WHY, agree="over5"),
    job("over5-unfold", "over:5", "unfold", "deadlock", OVER_WHY),
]

PROPERTY = [
    job("nsdp8-full-mutex", "nsdp:8", "full", "holds", MUTEX_WHY, prop=MUTEX),
    job("nsdp8-po-mutex", "nsdp:8", "po", "holds", MUTEX_WHY, prop=MUTEX),
    job("nsdp24-pdr-mutex", "nsdp:24", "pdr", "holds", MUTEX_WHY, prop=MUTEX),
    job("nsdp24-pdr-ef-neighbours", "nsdp:24", "pdr", "does-not-hold", MUTEX_WHY,
        prop="EF (m(eat0) >= 1 & m(eat1) >= 1)"),
    job("nsdp24-pdr-ef-apart", "nsdp:24", "pdr", "holds",
        "philosophers 0 and 2 share no fork", prop="EF (m(eat0) >= 1 & m(eat2) >= 1)"),
    job("nsdp24-pdr-ag-apart", "nsdp:24", "pdr", "violated",
        "philosophers 0 and 2 share no fork", prop="AG !(m(eat0) >= 1 & m(eat2) >= 1)"),
    job("nsdp8-auto", "nsdp:8", "auto", "deadlock", NSDP_WHY, threads=2),
    job("asat8-full-reduce", "asat:8", "full", "deadlock", ASAT_WHY, reduce=True),
    # undecided on the seed code: pdr does not settle the reduced ASAT(8)
    job("asat8-pdr-reduce", "asat:8", "pdr", "deadlock", ASAT_WHY, reduce=True, timeout=1),
    job("over9-full-reduce", "over:9", "full", "deadlock", OVER_WHY, reduce=True),
    job("over9-po-reduce", "over:9", "po", "deadlock", OVER_WHY, reduce=True),
    job("over9-pdr-reduce", "over:9", "pdr", "deadlock", OVER_WHY, reduce=True),
    job("cyclic30-full-reduce", "cyclic:30", "full", "deadlock-free", CYCLIC_WHY, reduce=True),
    job("cyclic30-po-reduce", "cyclic:30", "po", "deadlock-free", CYCLIC_WHY, reduce=True),
    job("cyclic30-pdr-reduce", "cyclic:30", "pdr", "deadlock-free", CYCLIC_WHY, reduce=True),
]

# serve-mix draws its job sequence from this pool: small zoo nets x
# engines x properties x witness counts (the count is part of the
# results-cache key, so it widens the pool of distinct keys).
SERVE_NETS = [
    ("nsdp:5", "deadlock", NSDP_WHY),
    ("asat:4", "deadlock", ASAT_WHY), ("over:3", "deadlock", OVER_WHY),
    ("over:4", "deadlock", OVER_WHY), ("rw:4", "deadlock-free", RW_WHY),
    ("rw:5", "deadlock-free", RW_WHY), ("rw:6", "deadlock-free", RW_WHY),
    ("cyclic:4", "deadlock-free", CYCLIC_WHY), ("cyclic:5", "deadlock-free", CYCLIC_WHY),
    ("cyclic:6", "deadlock-free", CYCLIC_WHY),
]
SERVE_ENGINES = ["po", "gpo", "full", "pdr", "auto"]
SERVE_CLIENTS = 2


def serve_pool():
    pool = []
    for net, expect, why in SERVE_NETS:
        props = [(DEADLOCK, expect, why)]
        if net.startswith("nsdp"):
            props.append((MUTEX, "holds", MUTEX_WHY))
        for engine in SERVE_ENGINES:
            for i, (prop, exp, w) in enumerate(props):
                for wit in (1, 2):
                    pool.append(job(f"{net.replace(':', '')}-{engine}-{i}-w{wit}", net,
                                    engine, exp, w, prop=prop, witnesses=wit))
    return pool


def serve_sequence(rng):
    """Every pool key twice, the repeat after the first submission: half
    the jobs can be results-cache hits. The seed draws the order."""
    fresh = serve_pool()
    rng.shuffle(fresh)
    fresh.reverse()
    seq, pending = [], []
    while fresh or pending:
        if fresh and (not pending or rng.random() < 0.5):
            seq.append(fresh.pop())
            pending.append(seq[-1])
        else:
            seq.append(pending.pop(rng.randrange(len(pending))))
    return seq


# serve-mix has no fixed list: serve_sequence draws it from the seed
WORKLOADS = {
    "table1-gpo": TABLE1,
    "explore-enum": EXPLORE,
    "property-mix": PROPERTY,
    "serve-mix": None,
}

E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "job_geomean_ms": "ms", "job_p50_ms": "ms",
    "job_p90_ms": "ms", "jobs_per_s": "1/s", "peak_rss_mb": "MB",
    "rss_geomean_mb": "MB", "decided_share": "ratio",
}

LAYER_UNITS = {
    "parse.ms": "ms", "reduce.ms": "ms", "reduce.transitions_kept_ratio": "ratio",
    "reduce.states_kept_ratio": "ratio", "conflict.ms": "ms",
    "conflict.choice_sets": "count", "conflict.count_ms": "ms",
    "r0.explicit_ms": "ms", "r0.zdd_ms": "ms", "r0.zdd_nodes": "count",
    "gpo.analyze_ms": "ms", "gpo.states": "count", "gpo.enabling_reuse_ratio": "ratio",
    "gpo.unique_hit_ratio": "ratio", "gpo.op_cache_hits": "count",
    "explore.t1_ms": "ms", "explore.t2_ms": "ms", "explore.states_per_s_t1": "1/s",
    "explore.states_per_s_t2": "1/s", "explore.bytes_per_state": "B",
    "po.ms": "ms", "po.states_ratio": "ratio", "bdd.ms": "ms", "bdd.peak_nodes": "count",
    "unfold.ms": "ms", "unfold.events": "count", "unfold.cutoff_ratio": "ratio",
    "pdr.ms": "ms", "pdr.sat_calls": "count", "pdr.lemmas": "count",
    "pdr.validate_ms": "ms", "pdr.decided_share": "ratio",
    "engine.run_ms": "ms", "witness.lift_ms": "ms", "cli.overhead_ms": "ms",
    "portfolio.winner_ms": "ms", "portfolio.cancel_lag_ms": "ms",
    "portfolio.legs_launched": "count", "report.render_ms": "ms",
    "serve.healthz_rtt_ms": "ms", "serve.submit_ms": "ms", "serve.queue_wait_ms": "ms",
    "serve.cache_hit_ratio": "ratio",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log(f"perfbench: {msg}")
    sys.exit(1)


def build():
    """Builds release julie and the probe; fails loudly, never skips."""
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isfile("Cargo.toml") or not os.path.isdir("crates/julie"):
        fail("run from the repository root: Cargo.toml and crates/julie are missing")
    for cmd in (["cargo", "build", "--release", "--offline", "-p", "julie"],
                ["cargo", "build", "--release", "--offline",
                 "--manifest-path", "perfbench/probe/Cargo.toml"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    julie = os.path.join(target, "release", "julie")
    probe = os.path.join(target, "release", "perfbench-probe")
    for b in (julie, probe):
        if not os.access(b, os.X_OK):
            fail(f"{b} was not built")
    return os.path.abspath(julie), os.path.abspath(probe)


def run_child(argv, out_path, limit=JOB_LIMIT_S):
    """Runs one child to completion; returns (wall_s, exit code, peak RSS MB).

    The peak RSS is the kernel's accounting for this one child, read by
    wait4 after it exits. A child over `limit` seconds is killed and
    reported with exit code None."""
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        p = subprocess.Popen(argv, stdout=out, stderr=sys.stderr)
        killer = threading.Timer(limit, p.kill)
        killer.start()
        _, status, usage = os.wait4(p.pid, 0)
        wall = time.perf_counter() - start
        killer.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    code = p.returncode if p.returncode >= 0 else None
    return wall, code, usage.ru_maxrss / 1024.0


def net_path(inputs, spec):
    return os.path.join(inputs, spec.replace(":", "_") + ".net")


def check_argv(julie, inputs, j):
    argv = [julie, "check", net_path(inputs, j["net"]), f"--engine={j['engine']}",
            f"--threads={j['threads']}", f"--property={j['prop']}", "--json"]
    if j["zdd"]:
        argv.append("--zdd")
    if j["reduce"]:
        argv.append("--reduce")
    if j["timeout"]:
        argv.append(f"--timeout={j['timeout']}")
    return argv


class Gate:
    """Checks verdicts against the hand-written expectations."""

    def __init__(self):
        self.attempted = 0
        self.decided = 0
        self.wrong = 0
        self.errors = 0
        self.states = {}

    def record(self, j, code, report):
        """Classifies one finished job."""
        self.attempted += 1
        if code not in (0, 1, 2) or report is None:
            self.errors += 1
            log(f"perfbench: job {j['id']} failed (exit {code})")
            return
        if report.get("exit_code") != code:
            self.wrong += 1
            log(f"perfbench: job {j['id']}: exit {code} but report says {report.get('exit_code')}")
            return
        if code == 2:
            return
        verdict, states = report.get("verdict"), report.get("states")
        if verdict != j["expect"]:
            self.wrong += 1
            log(f"perfbench: WRONG VERDICT {j['id']}: {verdict}, expected {j['expect']} "
                f"({j['why']})")
        elif j["states"] is not None and states != j["states"]:
            self.wrong += 1
            log(f"perfbench: WRONG STATE COUNT {j['id']}: {states}, expected {j['states']}")
        elif j["agree"] is not None:
            seen = self.states.setdefault(j["agree"], (states, j["id"]))
            if seen[0] != states:
                self.wrong += 1
                log(f"perfbench: STATE COUNTS DISAGREE: {j['id']} {states}, "
                    f"{seen[1]} {seen[0]}")
        self.decided += 1

    @property
    def failed(self):
        return self.wrong + self.errors


def last_json(path):
    try:
        with open(path) as f:
            lines = f.read().strip().splitlines()
        return json.loads(lines[-1]) if lines else None
    except (OSError, ValueError):
        return None


def generate(probe, specs, i=0):
    """Writes the nets into a fresh directory; returns (dir, seconds)."""
    out = os.path.join(WORK, f"inputs-{i}")
    shutil.rmtree(out, ignore_errors=True)
    start = time.perf_counter()
    if subprocess.run([probe, "gen", out] + specs).returncode != 0:
        fail("input generation failed")
    return out, time.perf_counter() - start


def inputs_hash(jobs, inputs, specs):
    h = hashlib.sha256()
    for j in jobs:
        h.update(json.dumps(j, sort_keys=True).encode())
    for spec in sorted(set(specs)):
        with open(net_path(inputs, spec), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def geomean(xs):
    return math.exp(statistics.fmean(math.log(x) for x in xs))


def summarize(times, rss, setups, throughputs, gate, samples_path):
    """End-to-end metrics from the samples of all rounds.

    Each job's time and peak RSS is its median over the rounds, and set-up
    time and throughput are medians over the rounds, so one slow round
    does not move the sums and percentiles."""
    with open(samples_path, "w") as f:
        json.dump({"times": times, "rss": rss, "setups": setups,
                   "throughputs": throughputs}, f)
    t = [statistics.median(v) for v in times.values()]
    r = [statistics.median(v) for v in rss.values()]
    log(f"perfbench: {len(t)} jobs x {len(setups)} rounds")
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(t),
        "job_geomean_ms": geomean([x * 1e3 for x in t]),
        "job_p50_ms": statistics.median(t) * 1e3,
        "job_p90_ms": statistics.quantiles(t, n=10)[8] * 1e3,
        "jobs_per_s": statistics.median(throughputs),
        "peak_rss_mb": max(r),
        "rss_geomean_mb": geomean(r),
        "decided_share": gate.decided / max(gate.attempted, 1),
    }


def more_rounds(done, start, seconds):
    elapsed = time.perf_counter() - start
    return done < MIN_ROUNDS or elapsed + elapsed / done <= seconds


def run_checks(julie, probe, specs, jobs, rng, seconds, samples_path):
    """Rounds of set-up followed by every job in a seeded order."""
    gate = Gate()
    times = {j["id"]: [] for j in jobs}
    rss = {j["id"]: [] for j in jobs}
    setups, throughputs = [], []
    out = os.path.join(WORK, "job.out")
    start = time.perf_counter()
    while not setups or more_rounds(len(setups), start, seconds):
        inputs, setup_s = generate(probe, specs, len(setups))
        setups.append(setup_s)
        order = list(jobs)
        rng.shuffle(order)
        round_start = time.perf_counter()
        for j in order:
            wall, code, mb = run_child(check_argv(julie, inputs, j), out)
            gate.record(j, code, last_json(out))
            times[j["id"]].append(wall)
            rss[j["id"]].append(mb)
        throughputs.append(len(jobs) / (time.perf_counter() - round_start))
    return gate, summarize(times, rss, setups, throughputs, gate, samples_path)


class Server:
    """A `julie serve` child on a fresh data directory."""

    def __init__(self, julie, data_dir):
        shutil.rmtree(data_dir, ignore_errors=True)
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [julie, "serve", f"--data-dir={data_dir}", "--workers=2"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        self.port = None
        for line in self.proc.stdout:
            if line.startswith("listening on "):
                self.port = int(line.rsplit(":", 1)[1])
                break
        self.start_s = time.perf_counter() - start
        # keep draining stdout so the server never blocks on a full pipe
        self.drain = threading.Thread(target=self.proc.stdout.read, daemon=True)
        self.drain.start()
        if self.port is None:
            self.stop()
            fail("julie serve did not report its address")

    def request(self, method, path, body=None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=JOB_LIMIT_S)
        try:
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"} if body else {})
            resp = conn.getresponse()
            return resp.status, resp.read().decode()
        finally:
            conn.close()

    def stop(self):
        """SIGTERM, then wait; returns the server's peak RSS in MB."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        killer = threading.Timer(30, self.proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
        except ChildProcessError:
            usage = None
        killer.cancel()
        self.drain.join(timeout=5)
        self.proc.stdout.close()
        return usage.ru_maxrss / 1024.0 if usage else 0.0


def submission(inputs, j):
    with open(net_path(inputs, j["net"])) as f:
        net = f.read()
    return json.dumps({"net": net, "engine": j["engine"], "property": j["prop"],
                       "witnesses": j["witnesses"], "threads": j["threads"]})


def serve_job(server, body):
    """POST one job and wait until it is terminal.

    Returns (code, report): code is the report's exit code, "503" when
    the job was refused, or None when it failed."""
    status, text = server.request("POST", "/jobs", body)
    if status == 503:
        return "503", None
    if status != 202:
        return None, None
    status, text = server.request("GET", f"/jobs/{json.loads(text)['id']}/wait")
    docs = [json.loads(line) for line in text.splitlines() if line.strip()]
    if status != 200 or not docs or docs[-1].get("state") != "done":
        return None, None
    report = docs[-1].get("report")
    return report.get("exit_code"), report


def run_serve(julie, probe, specs, seq, seconds, samples_path):
    """Rounds of set-up (nets, then a fresh server) and the job sequence.

    A job's samples are keyed by its position in the sequence."""
    gate = Gate()
    times = {i: [] for i in range(len(seq))}
    server_rss, setups, throughputs = [], [], []
    lock = threading.Lock()
    start = time.perf_counter()
    while not setups or more_rounds(len(setups), start, seconds):
        inputs, gen_s = generate(probe, specs, len(setups))
        bodies = [submission(inputs, j) for j in seq]
        server = Server(julie, os.path.join(WORK, "serve-data"))
        setups.append(gen_s + server.start_s)
        nxt = iter(range(len(seq)))

        def client():
            while True:
                with lock:
                    i = next(nxt, None)
                if i is None:
                    return
                t0 = time.perf_counter()
                code, report = serve_job(server, bodies[i])
                wall = time.perf_counter() - t0
                with lock:
                    times[i].append(wall)
                    if code == "503":
                        gate.attempted += 1
                    else:
                        gate.record(seq[i], code, report)

        round_start = time.perf_counter()
        clients = [threading.Thread(target=client) for _ in range(SERVE_CLIENTS)]
        try:
            for c in clients:
                c.start()
            for c in clients:
                c.join()
        finally:
            throughputs.append(len(seq) / (time.perf_counter() - round_start))
            server_rss.append(server.stop())
    return gate, summarize(times, {"server": server_rss}, setups, throughputs, gate,
                           samples_path)


def trace_serve(julie, inputs, jobs, gate, events, origin):
    """Serve-layer probe: healthz round trips, submit latency, queue wait
    and cache hits, with a span per request."""

    def span(name, jid, t0, t1):
        events.append({"name": name, "cat": "serve", "ph": "X", "pid": 2, "tid": 1,
                       "ts": (t0 - origin) * 1e6, "dur": (t1 - t0) * 1e6,
                       "args": {"job": jid, "parent": None}})

    server = Server(julie, os.path.join(WORK, "serve-trace"))
    try:
        rtts = []
        for _ in range(20):
            t0 = time.perf_counter()
            server.request("GET", "/healthz")
            t1 = time.perf_counter()
            rtts.append(t1 - t0)
            span("GET /healthz", "probe:serve", t0, t1)
        submits, waits = [], []
        for j in jobs + jobs:
            body = submission(inputs, j)
            t0 = time.perf_counter()
            status, text = server.request("POST", "/jobs", body)
            t1 = time.perf_counter()
            span("POST /jobs", j["id"], t0, t1)
            submits.append(t1 - t0)
            if status != 202:
                gate.attempted += 1
                continue
            ack = json.loads(text)
            if ack["state"] == "queued":
                while True:
                    _, text = server.request("GET", f"/jobs/{ack['id']}")
                    if json.loads(text)["state"] != "queued":
                        break
                t2 = time.perf_counter()
                span("queued", j["id"], t1, t2)
                waits.append(t2 - t1)
            _, text = server.request("GET", f"/jobs/{ack['id']}/wait")
            span("GET /jobs/{id}/wait", j["id"], t1, time.perf_counter())
            doc = json.loads(text.splitlines()[-1])
            report = doc.get("report") if doc.get("state") == "done" else None
            gate.record(j, report.get("exit_code") if report else None, report)
        _, text = server.request("GET", "/healthz")
        h = json.loads(text)
    finally:
        server.stop()
    lookups = max(h["cache_hits"] + h["cache_misses"], 1)
    return {
        "serve.healthz_rtt_ms": statistics.median(rtts) * 1e3,
        "serve.submit_ms": statistics.median(submits) * 1e3,
        "serve.queue_wait_ms": statistics.median(waits) * 1e3 if waits else 0.0,
        "serve.cache_hit_ratio": h["cache_hits"] / lookups,
    }


def write_jobs_tsv(path, inputs, jobs):
    with open(path, "w") as f:
        for j in jobs:
            f.write("\t".join([j["id"], net_path(inputs, j["net"]), j["engine"],
                               str(j["threads"]), "1" if j["zdd"] else "0",
                               "1" if j["reduce"] else "0", str(j["timeout"]),
                               j["prop"]]) + "\n")


def run_traced(julie, probe, inputs, jobs, serve_jobs, name, seed):
    origin = time.perf_counter()
    tsv = os.path.join(WORK, "jobs.tsv")
    write_jobs_tsv(tsv, inputs, jobs)
    rust_trace = os.path.join(WORK, "probe-trace.json")
    out = os.path.join(WORK, "probe.out")
    _, code, _ = run_child([probe, "probe", tsv, rust_trace], out, limit=170)
    result = last_json(out)
    if code != 0 or result is None:
        fail(f"the traced probe run failed (exit {code})")
    metrics = dict(result["metrics"])

    # julie::engine: the same jobs as `julie check` children, against the
    # in-process engine time of each
    gate = Gate()
    overhead = []
    job_out = os.path.join(WORK, "job.out")
    for j in jobs:
        wall, code, _ = run_child(check_argv(julie, inputs, j), job_out)
        gate.record(j, code, last_json(job_out))
        overhead.append(wall * 1e3 - result["jobs"][j["id"]])
    metrics["cli.overhead_ms"] = statistics.median(overhead)

    # bytes per stored state of a bare NSDP(9) exploration, above the
    # resident size of a trivial one, from the kernel's peak-RSS accounting
    _, c1, big = run_child([probe, "explore", net_path(inputs, "nsdp:9"), "1"], out)
    with open(out) as f:
        states = int(f.read().strip() or 0)
    _, c2, small = run_child([probe, "explore", net_path(inputs, "nsdp:3"), "1"], out)
    if c1 != 0 or c2 != 0 or states == 0:
        fail("the exploration memory probe failed")
    metrics["explore.bytes_per_state"] = (big - small) * 1024 * 1024 / states

    with open(rust_trace) as f:
        events = json.load(f)["traceEvents"]
    metrics.update(trace_serve(julie, inputs, serve_jobs, gate, events, origin))

    trace_path = os.path.join(WORK, f"trace-{name}-{seed}.json")
    with open(trace_path, "w") as f:
        json.dump({"displayTimeUnit": "ms", "traceEvents": events}, f)
    log(f"perfbench: wrote {len(events)} spans to {trace_path}")
    missing = set(LAYER_UNITS) - set(metrics)
    if missing:
        fail(f"the traced run did not measure {sorted(missing)}")
    return gate, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    julie, probe = build()
    os.makedirs(WORK, exist_ok=True)
    rng = random.Random(args.seed)
    if args.workload == "serve-mix":
        jobs = serve_sequence(rng)
    else:
        jobs = list(WORKLOADS[args.workload])
        rng.shuffle(jobs)
    # the serve probe of the traced run uses one job per serve net
    serve_probe = [job(f"serve-{n.replace(':', '')}", n, "po", e, w)
                   for n, e, w in SERVE_NETS]
    specs = sorted({j["net"] for j in jobs})
    inputs, _ = generate(probe, specs, "hash")
    print(f"inputs: workload={args.workload} seed={args.seed} jobs={len(jobs)} "
          f"sha256={inputs_hash(jobs, inputs, specs)}")
    samples = os.path.join(WORK, f"samples-{args.workload}-{args.seed}.json")

    if args.trace:
        extra = {j["net"] for j in serve_probe} | {"nsdp:9", "nsdp:3"}
        inputs, _ = generate(probe, sorted(set(specs) | extra), "trace")
        distinct = list({j["id"]: j for j in jobs}.values())
        gate, values = run_traced(julie, probe, inputs, distinct, serve_probe,
                                  args.workload, args.seed)
        units = LAYER_UNITS
    elif args.workload == "serve-mix":
        gate, values = run_serve(julie, probe, specs, jobs, args.seconds, samples)
        units = E2E_UNITS
    else:
        gate, values = run_checks(julie, probe, specs, jobs, rng, args.seconds, samples)
        units = E2E_UNITS

    for k in sorted(units):
        print(f"{k} = {values[k]:.6g} {units[k]}")
    print(f"wrong_verdicts = {gate.wrong} count")
    correct = gate.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in sorted(units)},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
