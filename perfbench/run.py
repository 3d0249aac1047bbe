#!/usr/bin/env python3
"""The seqhide benchmark: one workload per run, from the checkout root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the shipped binary (`cargo build --release`, default features) and
the benchmark's own harness (perfbench/harness), generates the workload's
inputs from the seed, drives `seqhide hide` or `seqhide serve` from
outside, checks every output, and prints one JSON object as the last line
of standard output. `--trace 0` reports the end-to-end metrics; `--trace 1`
makes a separate traced run and reports the per-layer metrics. Exits 1
when a build fails or a correctness gate fails.

See perfbench/README.md for the workloads, the metrics and their layers.
"""

import argparse
import hashlib
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
TARGET = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
SEQHIDE = os.path.join(TARGET, "release", "seqhide")
HARNESS = os.path.join(TARGET, "release", "perfbench")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

# Work per run is fixed by --seconds through these nominal costs, never by
# a measured duration: a slower build does the same work and takes longer.
WORKLOADS = {
    # 400k short sequences, 8 gap-constrained patterns: scan, verify, IO.
    # Its traced run also runs the same input through `--stream`.
    "hide_wide": {"gen": "wide", "sequences": 400_000, "nominal_s": 4.2, "stream": True,
                  "calib_reps": 1, "calib_s": 1.0},
    # 3k long sequences, 2 unconstrained patterns: local marking.
    "hide_long": {"gen": "long", "sequences": 3_000, "nominal_s": 1.5, "stream": False,
                  "calib_reps": 3, "calib_s": 0.27},
    # seqhide serve under an open-loop mix of reads and deltas.
    "serve_mixed": {"rate": 12.0},
}

# Metric names and units come from BENCHMARK.json, next to this directory.
with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
    _SPEC = json.load(f)
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

# The open-loop client marks a run invalid when it sent a request this late:
# longer than a delayed-ACK stall means it no longer kept its schedule.
MAX_LAG_MS = 50.0


class GateError(Exception):
    """A correctness gate failed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def sh(argv, **kw):
    """Runs a helper to completion, returning its stdout; raises on failure."""
    r = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, **kw)
    if r.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[:3])} … failed ({r.returncode}): {r.stderr.strip()}")
    return r.stdout


def build():
    if not os.path.exists(os.path.join(ROOT, "Cargo.toml")):
        raise RuntimeError("no Cargo.toml here: run from the root of a seqhide checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=TARGET)
    for extra in (["--bin", "seqhide"], ["--manifest-path", os.path.join(HERE, "harness", "Cargo.toml")]):
        sh(["cargo", "build", "--release", "--offline", "-q"] + extra, cwd=ROOT, env=env)


def timed_child(argv, stdout_path):
    """Runs the program as a child: wall seconds, peak RSS in MB (from
    `wait4`), exit code and standard error."""
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "w+b") as err:
        start = time.perf_counter()
        child = subprocess.Popen(argv, stdout=out, stderr=err)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        message = err.read().decode(errors="replace")
    return wall, usage.ru_maxrss / 1024.0, child.returncode, message


def read_text(path):
    with open(path) as f:
        return f.read()


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def key_values(text):
    out = {}
    for line in text.splitlines():
        k, _, v = line.partition(" ")
        out[k] = v
    return out


def read_spec(work):
    spec = {"pattern": []}
    with open(os.path.join(work, "spec.txt")) as f:
        for line in f:
            k, _, v = line.rstrip("\n").partition(" ")
            if k == "pattern":
                spec["pattern"].append(v)
            else:
                spec[k] = v
    return spec


def pattern_flags(spec):
    flags = []
    for p in spec["pattern"]:
        flags += ["--pattern", p]
    if "max_gap" in spec:
        flags += ["--max-gap", spec["max_gap"]]
    return flags


def tail(values):
    """The highest percentile with at least ten samples beyond it; with too
    few samples for that to reach the 75th percentile, the 75th percentile
    (a single slowest sample mostly measures the host, not the program).
    Returns (value, percentile, samples)."""
    v = sorted(values)
    k = len(v) - 11
    if len(v) < 2 or 100.0 * k / (len(v) - 1) < 75.0:
        return (statistics.quantiles(v, n=4)[2] if len(v) > 1 else v[0]), 75.0, len(v)
    return v[k], 100.0 * k / (len(v) - 1), len(v)


# ---------------------------------------------------------------- hide_*


# The layer times a traced `hide` run reports; with the unaccounted
# remainder they add up to its wall time.
LAYERS = ["data.read_s", "data.parse_s", "data.write_s", "matching.scan_s",
          "core.select_s", "core.local_s", "core.verify_s"]

# Numbers only the streaming pass of a traced run produces.
STREAM_LAYER = ["data.read_s", "stream.pass1_s", "stream.pass2_s", "stream.batches",
                "stream.peak_batch_kb", "stream.peak_rss_mb", "stream.unaccounted_s"]


def hide_argv(spec, seed, db, out, stream):
    argv = [SEQHIDE, "hide", "--db", db, "--psi", spec["psi"], "--threads", "1",
            "--seed", str(seed), "--out", out] + pattern_flags(spec)
    return argv + (["--stream"] if stream else [])


def check_release(spec, db, release):
    """The independent check: shape, marks, and residual support ≤ ψ."""
    v = key_values(sh([HARNESS, "check", "--orig", db, "--release", release,
                       "--psi", spec["psi"]] + pattern_flags(spec)))
    if v["hidden"] != "1":
        raise GateError(f"{release}: residual supports {v['supports']} exceed ψ={spec['psi']}")
    return int(v["marks"])


def calibrate(w, spec, db):
    """Seconds the independent checker takes over the run's own input, run
    `calib_reps` times: fixed work in the benchmark's own code, which the
    program under test does not share. On a shared VM the host's speed can
    drift 2x over minutes; scaling each invocation's wall time by the checker's
    speed beside it (`calib_s` ÷ this) removes that drift and leaves the
    program's own speed, at the speed the host has when the checker takes
    `calib_s`."""
    argv = [HARNESS, "check", "--orig", db, "--release", db, "--psi", spec["psi"]]
    start = time.perf_counter()
    for _ in range(w["calib_reps"]):
        sh(argv + pattern_flags(spec))
    return time.perf_counter() - start


def cli_marks(stdout_path):
    with open(stdout_path) as f:
        for line in f:
            if line.startswith("total marks (M1):"):
                return int(line.split(":")[1])
    raise GateError(f"no mark count in {stdout_path}")


def run_hide(name, w, seed, seconds, trace, work):
    sh([HARNESS, "gen", w["gen"], "--seed", str(seed), "--dir", work,
        "--sequences", str(w["sequences"])])
    spec = read_spec(work)
    db = os.path.join(work, "db.txt")
    n = int(spec["sequences"])
    attempted = failed = 0

    def invoke(tag, stream):
        nonlocal attempted, failed
        out = os.path.join(work, f"{tag}.txt")
        attempted += 1
        wall, rss, code, err = timed_child(hide_argv(spec, seed, db, out, stream),
                                           os.path.join(work, f"{tag}.stdout"))
        if code != 0:
            failed += 1
            raise GateError(f"seqhide hide exited {code}: {err.strip()}")
        return out, wall, rss

    if not trace:
        # Each invocation's wall time is scaled to reference host speed by
        # the calibration runs on either side of it (see `calibrate`).
        cal = [calibrate(w, spec, db)]
        first, setup_raw, _ = invoke("setup", False)
        cal.append(calibrate(w, spec, db))
        digest = file_digest(first)
        marks = check_release(spec, db, first)
        if cli_marks(os.path.join(work, "setup.stdout")) != marks:
            raise GateError("the CLI's mark count differs from the marks in its release")
        reps = max(1, round(seconds / w["nominal_s"]))
        raw, rss = [], []
        for i in range(reps):
            out, wall, peak = invoke(f"run{i}", False)
            cal.append(calibrate(w, spec, db))
            if file_digest(out) != digest:
                raise GateError(f"timed run {i} released different bytes")
            os.remove(out)
            raw.append(wall)
            rss.append(peak)
        speed = [w["calib_s"] * 2 / (a + b) for a, b in zip(cal, cal[1:])]
        setup_s = setup_raw * speed[0]
        walls = [x * f for x, f in zip(raw, speed[1:])]
        t, pct, count = tail(walls)
        log(f"{name}: {reps} timed invocations of {n} sequences; raw walls "
            f"{['%.3f' % x for x in raw]}, host speed {['%.3f' % x for x in speed]}; "
            f"raw seq/s {n / statistics.median(raw):.1f}; tail_ms at p{pct:.1f} of {count}")
        # Rates come from the median invocation: a mean lets one invocation
        # that met a host slowdown the calibration missed move the run.
        median = statistics.median(walls)
        metrics = {
            "setup_s": setup_s,
            "seq_per_s": n / median,
            "peak_rss_mb": max(rss),
            "marks": marks,
            "ok_share": (attempted - failed) / attempted,
            "p50_ms": median * 1e3,
            "tail_ms": t * 1e3,
            "write_p50_ms": median * 1e3,
            "sat_rps": 1 / median,
        }
        return metrics, attempted, failed

    # Traced run: an untraced CLI run for the reference bytes and wall
    # time, then the same work through the library with layer timers.
    def traced(stream):
        nonlocal attempted
        tag = "stream" if stream else "memory"
        cli_out, cli_wall, cli_rss = invoke(f"cli-{tag}", stream)
        out = os.path.join(work, f"traced-{tag}.txt")
        argv = [HARNESS, "trace", "--db", db, "--out", out, "--psi", spec["psi"],
                "--seed", str(seed)] + pattern_flags(spec) + (["--stream"] if stream else [])
        attempted += 1
        t = {k: float(v) for k, v in key_values(sh(argv)).items()}
        if file_digest(out) != file_digest(cli_out):
            raise GateError(f"traced {tag} release differs from the CLI release")
        if int(t["marks"]) != check_release(spec, db, out):
            raise GateError(f"traced {tag} mark count differs from the marks in its release")
        t["unaccounted_s"] = t["wall_s"] - sum(t[k] for k in LAYERS)
        log(f"{name}: traced {tag} wall {t['wall_s']:.3f} s, untraced {cli_wall:.3f} s; "
            + ", ".join(f"{k} {100 * t[k] / t['wall_s']:.1f}%" for k in LAYERS)
            + f", unaccounted {100 * t['unaccounted_s'] / t['wall_s']:.1f}%"
            + f"; victim tail at p{t['core.victim_tail_pct']:.2f}")
        return t, cli_out, cli_wall, cli_rss

    t, memory_out, cli_wall, _ = traced(False)
    metrics = {k: t[k] for k in PER_LAYER if k in t}
    metrics["matching.supporter_share"] = t["matching.supporters"] / max(1.0, t["matching.probed"])
    metrics["core.unaccounted_s"] = t["unaccounted_s"]
    metrics["trace.overhead"] = t["wall_s"] / cli_wall
    for k in STREAM_LAYER:
        metrics[k] = 0.0
    if w["stream"]:
        # The streaming pipeline must release the in-memory bytes; its
        # own layer numbers are reported under `stream.*` and `data.read_s`.
        ts, stream_out, _, stream_rss = traced(True)
        if file_digest(stream_out) != file_digest(memory_out):
            raise GateError("--stream release differs from the in-memory release")
        metrics.update({k: ts[k] for k in STREAM_LAYER if k in ts})
        metrics["stream.peak_rss_mb"] = stream_rss
        metrics["stream.unaccounted_s"] = ts["unaccounted_s"]
    return metrics, attempted, failed


# ---------------------------------------------------------- serve_mixed


def request_line(sock_file, sock, obj):
    sock.sendall((json.dumps(obj) + "\n").encode())
    line = sock_file.readline()
    if not line:
        raise GateError(f"server closed the connection on {obj['type']}")
    return json.loads(line)


class Server:
    """A `seqhide serve` child, started on a free port."""

    def __init__(self, work, tag):
        self.ready = os.path.join(work, f"ready{tag}")
        self.start = time.perf_counter()
        self.child = subprocess.Popen(
            [SEQHIDE, "serve", "--addr", "127.0.0.1:0", "--ready-file", self.ready],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        self.reaped = False
        self.addr = None

    def set_up(self, work, datasets):
        """Waits for the ready file, loads the datasets, builds the delta
        session and makes one warm-up read; returns seconds since spawn."""
        deadline = self.start + 30
        while not (os.path.exists(self.ready) and read_text(self.ready).endswith("\n")):
            if time.perf_counter() > deadline or self.child.poll() is not None:
                raise GateError("server did not become ready")
            time.sleep(0.002)
        host, port = read_text(self.ready).splitlines()[0].strip().rsplit(":", 1)
        self.addr = f"{host}:{port}"
        with socket.create_connection((host, int(port))) as sock, \
                sock.makefile("r", encoding="utf-8") as f:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for name, _, patterns in datasets:
                r = request_line(f, sock, {"type": "load", "name": name,
                                           "path": os.path.join(work, f"{name}.txt")})
                if r.get("status") != "ok":
                    raise GateError(f"load {name}: {r}")
            # The write dataset's delta session is built by its first delta;
            # an empty delta builds it without changing the data.
            wname, wpsi, wpatterns = datasets[-1]
            r = request_line(f, sock, {"type": "delta", "dataset": wname, "add": [],
                                       "remove": [], "patterns": wpatterns, "psi": wpsi})
            if r.get("status") != "ok":
                raise GateError(f"session build: {r}")
            name, psi, patterns = datasets[0]
            r = request_line(f, sock, {"type": "sanitize", "dataset": name,
                                       "patterns": patterns, "psi": psi})
            if r.get("status") != "ok":
                raise GateError(f"warm-up read: {r}")
        return time.perf_counter() - self.start

    def stop(self):
        """Drains the server; returns its peak RSS in MB."""
        if self.reaped:
            return 0.0
        try:
            if self.addr is None:
                raise OSError("the server never became ready")
            host, port = self.addr.rsplit(":", 1)
            with socket.create_connection((host, int(port)), timeout=10) as sock:
                sock.sendall(b'{"type":"shutdown"}\n')
                sock.recv(4096)
        except OSError:
            self.child.kill()
        _, status, usage = os.wait4(self.child.pid, 0)
        self.child.returncode = os.waitstatus_to_exitcode(status)
        self.reaped = True
        return usage.ru_maxrss / 1024.0


def load_requests(work):
    reqs = []
    with open(os.path.join(work, "requests.txt")) as f:
        for line in f:
            conn, due, kind, key, body = line.rstrip("\n").split(" ", 4)
            reqs.append({"conn": int(conn), "kind": kind, "key": key, "body": json.loads(body)})
    return reqs


def run_client(server, work, mode):
    out = os.path.join(work, f"records-{mode}.txt")
    sh([HARNESS, "client", "--addr", server.addr, "--requests",
        os.path.join(work, "requests.txt"), "--mode", mode, "--out", out])
    recs = []
    with open(out) as f:
        for line in f:
            due, sent, recv, resp = line.rstrip("\n").split(" ", 3)
            recs.append({"due": int(due), "sent": int(sent), "recv": int(recv),
                         "resp_bytes": len(resp), "resp": json.loads(resp)})
    return recs


def run_serve(name, w, seed, seconds, trace, work):
    rate = w["rate"]
    count = max(20, int(round(rate * seconds)))
    sh([HARNESS, "gen", "serve", "--seed", str(seed), "--dir", work,
        "--requests", str(count), "--rate", str(rate)])
    datasets = []
    with open(os.path.join(work, "spec.txt")) as f:
        for line in f:
            _, dname, psi, patterns = line.rstrip("\n").split(" ", 3)
            datasets.append((dname, int(psi), json.loads(patterns)))
    sizes = {}
    truth = {}
    for dname, psi, patterns in datasets:
        path = os.path.join(work, f"{dname}.txt")
        sizes[dname] = sum(1 for line in read_text(path).splitlines() if line.strip())
        v = key_values(sh([HARNESS, "check", "--orig", path, "--release", path, "--psi", str(psi)]
                          + [a for p in patterns for a in ("--pattern", p)]))
        truth[dname] = [int(x) for x in v["supports"].split(",")]
    reqs = load_requests(work)

    servers = []
    try:
        setups = []
        for k in range(1 if trace else 3):
            if servers:
                servers[-1].stop()
            servers.append(Server(work, k))
            setups.append(servers[-1].set_up(work, datasets))
        server = servers[-1]
        open_recs = run_client(server, work, "open")
        closed_recs = run_client(server, work, "closed")
        peak_rss = server.stop()
    finally:
        for s in servers:
            if not s.reaped:
                s.child.kill()
                s.child.wait()
    if server.child.returncode != 0:
        raise GateError(f"server exited {server.child.returncode}")

    # Gates: every reply ok and right; one served release per distinct
    # sanitize spec equals `seqhide hide` on the same dataset and flags.
    failed = 0
    marks = 0
    served = {}
    for recs in (open_recs, closed_recs):
        for req, rec in zip(reqs, recs):
            r = rec["resp"]
            kind, body = req["kind"], req["body"]
            ok = r.get("status") == "ok"
            if ok and kind in ("sanitize", "delta"):
                ok = r.get("hidden") is True and all(s <= body["psi"] for s in r["residual_supports"])
                marks += r.get("marks", 0)
            if ok and kind == "sanitize":
                release = r["release"].encode()
                prior = served.setdefault(req["key"], (body, release))
                ok = prior[1] == release
            if ok and kind == "verify":
                ok = r.get("supports") == truth[body["dataset"]]
            if ok and kind == "stats":
                ok = r.get("sequences") == sizes[body["dataset"]]
            if not ok:
                failed += 1
                log(f"{name}: failed {kind} ({req['key']}): {str(r)[:300]}")
    for key, (body, release) in sorted(served.items()):
        db = os.path.join(work, f"{body['dataset']}.txt")
        out = os.path.join(work, "cli-" + key.replace(":", "-") + ".txt")
        argv = [SEQHIDE, "hide", "--db", db, "--psi", str(body["psi"]), "--algorithm",
                body["algorithm"], "--seed", str(body["seed"]), "--out", out]
        argv += [a for p in body["patterns"] for a in ("--pattern", p)]
        sh(argv)
        with open(out, "rb") as f:
            if f.read() != release:
                raise GateError(f"served release for {key} differs from seqhide hide")
        check_release({"psi": str(body["psi"]), "pattern": body["patterns"]}, db, out)
    attempted = 2 * len(reqs)
    if failed:
        raise GateError(f"{failed} of {attempted} requests failed")

    lag_ms = max((r["sent"] - r["due"]) / 1e6 for r in open_recs)
    if lag_ms > MAX_LAG_MS:
        raise GateError(f"the client fell {lag_ms:.1f} ms behind schedule: the run is invalid")

    def latencies(recs, reads):
        return [(r["recv"] - r["due"]) / 1e6 for q, r in zip(reqs, recs)
                if (q["kind"] != "delta") == reads]

    # Latency metrics come from the closed-loop pass (two callers that each
    # wait for their reply): on a shared VM the open-loop medians of
    # millisecond requests swing with CPU wake-up and delayed-ACK state from
    # run to run, while closed-loop latencies repeat. The open-loop figures
    # are reported as per-layer numbers.
    read_ms, write_ms = latencies(closed_recs, True), latencies(closed_recs, False)
    open_read_ms, open_write_ms = latencies(open_recs, True), latencies(open_recs, False)
    closed_s = (max(r["recv"] for r in closed_recs) - min(r["sent"] for r in closed_recs)) / 1e9
    seqs = sum(2 if q["kind"] == "delta" else sizes[q["body"]["dataset"]] for q in reqs)
    t, pct, samples = tail(read_ms)
    log(f"{name}: {len(reqs)} requests, open loop at {rate}/s then closed loop "
        f"({len(read_ms)} reads, {len(write_ms)} deltas); tail_ms at p{pct:.1f} of {samples} reads; "
        f"closed pass {closed_s:.2f} s; generator lag {lag_ms:.2f} ms")

    if not trace:
        metrics = {
            "setup_s": statistics.median(setups),
            "seq_per_s": seqs / closed_s,
            "peak_rss_mb": peak_rss,
            "marks": marks,
            "ok_share": (attempted - failed) / attempted,
            "p50_ms": statistics.median(read_ms),
            "tail_ms": t,
            "write_p50_ms": statistics.median(write_ms),
            "sat_rps": len(reqs) / closed_s,
        }
        return metrics, attempted, failed

    # Per-layer numbers: the server's own `timings` on every sanitize
    # reply, and an in-process replay for dataset parse and delta.
    san = [(q, r) for q, r in zip(reqs, open_recs) if q["kind"] == "sanitize"]

    def med(values):
        return statistics.median(values) if values else 0.0

    def timing(r, key):
        return r["resp"]["timings"][key] / 1e6

    stages = ("queue_wait_ns", "parse_ns", "sanitize_ns", "serialize_ns")
    out = sh([HARNESS, "replay", "--dir", work, "--requests", os.path.join(work, "requests.txt")])
    replay = key_values(out)
    for line in out.splitlines():
        if line.startswith("delta_marks "):
            _, i, m = line.split()
            if open_recs[int(i)]["resp"]["marks"] != int(m):
                raise GateError(f"replayed delta {i} marks {m} differ from the served reply")
    metrics = {k: 0.0 for k in PER_LAYER}
    metrics.update({
        "serve.unaccounted_ms": med([(r["recv"] - r["sent"]) / 1e6 - sum(timing(r, s) for s in stages)
                                     for _, r in san]),
        "serve.conn_wait_ms": med([(r["sent"] - r["due"]) / 1e6 for r in open_recs]),
        "serve.decode_ms": med([timing(r, "parse_ns") for _, r in san]),
        "serve.exec_ms": med([timing(r, "sanitize_ns") for _, r in san]),
        "serve.serialize_ms": med([timing(r, "serialize_ns") for _, r in san]),
        "serve.queue_wait_ms": med([timing(r, "queue_wait_ns") for _, r in san]),
        "serve.resp_kb": med([r["resp_bytes"] / 1024 for _, r in san]),
        "serve.shed": float(sum(1 for r in open_recs + closed_recs
                                if r["resp"].get("status") in ("overloaded", "quota_exceeded"))),
        "exec.db_parse_ms": float(replay["exec.db_parse_ms"]),
        "delta.apply_ms": float(replay["delta.apply_ms"]),
        "delta.remarked": float(replay["delta.remarked"]),
        "delta.restored": float(replay["delta.restored"]),
        "gen.lag_ms": lag_ms,
        "serve.open_p50_ms": med(open_read_ms),
        "serve.open_write_p50_ms": med(open_write_ms),
        # The server's timings are always on, so the traced run is the
        # untraced run plus an offline replay: no overhead to divide out.
        "trace.overhead": 1.0,
    })
    log(f"{name}: closed-loop read p50 {med(read_ms):.2f} ms, open-loop {med(open_read_ms):.2f} ms; "
        f"sanitize unaccounted p50 "
        f"{metrics['serve.unaccounted_ms']:.2f} ms, exec p50 {metrics['serve.exec_ms']:.3f} ms")
    return metrics, attempted, failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
    except RuntimeError as e:
        log(f"perfbench: {e}")
        return 1
    work = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    os.makedirs(work)
    w = WORKLOADS[args.workload]
    runner = run_serve if args.workload == "serve_mixed" else run_hide
    try:
        metrics, attempted, failed = runner(args.workload, w, args.seed, args.seconds,
                                            bool(args.trace), work)
    except GateError as e:
        log(f"{args.workload}: correctness gate failed: {e}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    if set(metrics) != set(units) and not args.trace:
        raise RuntimeError(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")
    for k, unit in units.items():
        metrics.setdefault(k, 0.0)
        print(f"{k:28s} {metrics[k]:>16.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
