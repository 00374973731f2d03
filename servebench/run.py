#!/usr/bin/env python3
"""Serving benchmark: runs one workload against the real socket server.

    python3 servebench/run.py --workload read-mix --seed 1 --seconds 10 --trace 0

Run from the repository root.  It builds `xut` and the benchmark's own
OCaml load generator (servebench/xsb.ml) with dune, generates the workload's
inputs from the seed, starts `xut serve --socket --domains 2` as a child
process and drives it from one load-generator process.  With --trace 0
it prints the end-to-end metrics; with --trace 1 it replays the same
request sequence in-process and prints the per-layer metrics.  The last
stdout line is the JSON result; the lines before it are the report.
See servebench/README.md for the workloads and metrics."""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading

sys.dont_write_bytecode = True  # leave nothing behind in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import arith  # noqa: E402

WORKLOADS = ("read-mix", "commit-mix", "ingest-stream")
XUT = os.path.join("_build", "default", "bin", "xut.exe")
XSB = os.path.join("_build", "default", "servebench", "xsb.exe")
WORK = ".bench_work"
SOCK = os.path.join(WORK, "s.sock")
SETUP_ROUNDS = 21
DIAG_SECONDS = 3.0
TICK = os.sysconf("SC_CLK_TCK")

# The request class each workload is about: its p50_ms / tail_ms.
FOCUS = {"read-mix": "read", "commit-mix": "commit", "ingest-stream": "stream"}


def declared(section):
    """(name, unit) of each metric BENCHMARK.json declares in a section."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")
    with open(path) as f:
        return [(m["name"], m["unit"]) for m in json.load(f)[section]]


def log(msg):
    print(msg, flush=True)


def fail(msg):
    print("servebench: " + msg, file=sys.stderr, flush=True)
    sys.exit(2)


# ---------------------------------------------------------------- host


def cpu_times():
    """Aggregate /proc/stat jiffies: (total, idle incl. iowait, steal)."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    fields += [0] * (8 - len(fields))
    return sum(fields[:8]), fields[3] + fields[4], fields[7]


def proc_cpu(pid):
    """user+sys seconds of a process."""
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / TICK


def thread_cpu(pid):
    """tid -> user+sys seconds, per thread of a process."""
    out = {}
    for tid in os.listdir("/proc/%d/task" % pid):
        try:
            with open("/proc/%d/task/%s/stat" % (pid, tid)) as f:
                fields = f.read().rsplit(")", 1)[1].split()
            out[tid] = (int(fields[11]) + int(fields[12])) / TICK
        except OSError:
            pass
    return out


def vm_hwm_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for pid %d" % pid)


def source_identity():
    """The commit, or "unknown" outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------- processes


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        fail("run from the root of the xut source tree (dune-project, lib/, bin/ not found)")
    if shutil.which("dune") is None:
        fail("dune not found")
    r = subprocess.run(
        # no shared dune cache: the build stays inside the checkout
        ["dune", "build", "--root", ".", "--cache=disabled", "./bin/xut.exe", "./servebench/xsb.exe"],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=850,
    )
    if r.returncode != 0:
        fail("build failed:\n" + r.stderr[-4000:])


def xsb(args, timeout=170):
    r = subprocess.run([XSB] + args, capture_output=True, text=True, timeout=timeout)
    if r.returncode != 0:
        raise RuntimeError("xsb %s failed: %s" % (args[0], r.stderr.strip()[-2000:]))
    return r


class Server:
    """`xut serve --socket` as a child process, stopped with SIGINT."""

    def __init__(self, domains):
        if os.path.exists(SOCK):
            os.remove(SOCK)
        self.log = open(os.path.join(WORK, "server.log"), "ab")
        self.proc = subprocess.Popen(
            [XUT, "serve", "--socket", SOCK, "--domains", str(domains)],
            stdin=subprocess.DEVNULL,
            stdout=self.log,
            stderr=self.log,
        )
        self.pid = self.proc.pid

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def start_and_setup(args, inputs, domains=2):
    """Spawn a server and send the workload's set-up."""
    srv = Server(domains)
    try:
        xsb(["setup", "--workload", args.workload, "--dir", inputs, "--socket", SOCK], timeout=120)
    except Exception:
        srv.stop()
        raise
    return srv


def setup_times(args, inputs):
    """SETUP_ROUNDS set-up times, spawn to last set-up reply, each timed
    by xsb around a server it spawns and stops itself.  xsb runs in its
    own process group, so an aborted run takes those servers down too."""
    out = os.path.join(WORK, "setup.out")
    proc = subprocess.Popen(
        [XSB, "setup-timed", "--workload", args.workload, "--dir", inputs, "--socket", SOCK,
         "--server", XUT, "--rounds", str(SETUP_ROUNDS), "--out", out],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=150)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError("xsb setup-timed failed: %s" % err.strip()[-2000:])
    with open(out) as f:
        times = [float(line.split()[1]) for line in f if line.startswith("setup_s ")]
    if len(times) != SETUP_ROUNDS:
        raise RuntimeError("xsb setup-timed gave %d of %d rounds" % (len(times), SETUP_ROUNDS))
    return times


def drive(args, inputs, srv, seconds, out):
    """Run the closed loop; returns the parsed records plus the server's
    CPU, per-thread CPU and the host's steal/idle shares over the timed
    window (bracketed by the load generator's go/end lines)."""
    proc = subprocess.Popen(
        [XSB, "drive", "--workload", args.workload, "--seed", str(args.seed), "--dir", inputs,
         "--socket", SOCK, "--seconds", str(seconds), "--out", out],
        stdout=subprocess.PIPE,
        text=True,
    )
    watchdog = threading.Timer(seconds + 120, proc.kill)
    watchdog.daemon = True
    watchdog.start()
    host = {}
    try:
        for line in proc.stdout:
            tag = line.strip()
            if tag in ("go", "end"):
                k = tag == "end"
                host["cpu%d" % k], host["thr%d" % k] = proc_cpu(srv.pid), thread_cpu(srv.pid)
                host["drv%d" % k], host["stat%d" % k] = proc_cpu(proc.pid), cpu_times()
                if k:
                    host["rss"] = vm_hwm_mb(srv.pid)
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or "cpu1" not in host:
        raise RuntimeError("xsb drive failed (exit %d)" % proc.returncode)
    rec = read_records(out)
    (t_a, i_a, s_a), (t_b, i_b, s_b) = host["stat0"], host["stat1"]
    span = max(1, t_b - t_a)
    rec["host"] = {
        "server_cpu_s": host["cpu1"] - host["cpu0"],
        "threads_cpu_s": sorted(
            (host["thr1"].get(t, 0) - host["thr0"].get(t, 0) for t in host["thr1"]), reverse=True
        ),
        "loadgen_cpu_s": host["drv1"] - host["drv0"],
        "steal_share": (s_b - s_a) / span,
        "idle_share": (i_b - i_a) / span,
        "peak_rss_mb": host["rss"],
    }
    return rec


def read_records(path):
    rec = {"samples": [], "fails": [], "stats": {}, "metric": {}, "spans": [], "sockstat": {},
           "call_kind": [], "diag_wait_us": {}, "failed": 0}
    with open(path) as f:
        for line in f:
            parts = line.rstrip("\n").split(" ")
            tag = parts[0]
            if tag == "sample":
                rec["samples"].append((parts[1], parts[2], float(parts[3]), float(parts[4])))
            elif tag == "span":
                rec["spans"].append({
                    "sid": int(parts[1]), "parent": int(parts[2]), "req": int(parts[3]),
                    "name": parts[4], "start": float(parts[5]), "end": float(parts[6]),
                    "amount": int(parts[7])})
            elif tag == "fail":
                rec["fails"].append(" ".join(parts[1:]))
            elif tag == "stat":
                rec["stats"][parts[1]] = float(parts[2])
            elif tag == "sockstat":
                rec["sockstat"][parts[1]] = float(parts[2])
            elif tag == "metric":
                rec["metric"][parts[1]] = float(parts[2])
            elif tag == "call_kind":
                rec["call_kind"].append((parts[1], float(parts[2]), int(parts[3])))
            elif tag == "diag_wait_us":
                rec["diag_wait_us"][int(parts[1])] = float(parts[2])
            elif tag == "window":
                rec["window"] = (float(parts[1]), float(parts[2]))
            elif tag in ("failed", "input_bytes", "replayed", "inflight"):
                rec[tag] = int(parts[1])
            elif tag in ("replay_untraced_s", "replay_traced_s", "span_cost_ns", "end_time"):
                rec[tag] = float(parts[1])
    return rec


# ---------------------------------------------------------------- metrics


def ratio(a, b):
    return a / b if b else 0.0


def end_to_end(args, rec, setups):
    samples = rec["samples"]
    start, end = rec["window"]
    done = [s for s in samples if s[3] <= end]
    n = len(done)
    attempted = len(samples)
    failed = rec["failed"]  # every failed check, counted once by xsb
    host = rec["host"]
    focus = [(s[3], (s[3] - s[2]) * 1e3) for s in samples if s[0] == FOCUS[args.workload]]
    if not focus:
        raise RuntimeError("no %s requests completed" % FOCUS[args.workload])
    tail_p, tail_v = arith.windowed_tail(focus, start, end)
    v = {
        "setup_s": statistics.median(setups),
        "throughput_rps": arith.throughput([s[3] for s in samples], start, end),
        "p50_ms": arith.percentile(sorted(x for _, x in focus), 50),
        "tail_ms": tail_v,
        "cpu_ms_per_req": host["server_cpu_s"] * 1e3 / max(1, n),
        "peak_rss_mb": host["peak_rss_mb"],
    }
    metrics = pick(v, "end_to_end")

    log("workload %s seed %d window %.1fs attempted %d completed-in-window %d failed %d"
        % (args.workload, args.seed, end - start, attempted, n, failed))
    log("  tail_ms: p%g, median of its value in three sub-windows" % tail_p)
    for kind in ("read", "commit", "stream", "load"):
        lat = sorted((s[3] - s[2]) * 1e3 for s in samples if s[0] == kind)
        if lat:
            p, v = arith.tail(lat)
            log("  %s_p50_ms %.3f ms   %s_tail_ms %.3f ms (p%g, n=%d)"
                % (kind, arith.percentile(lat, 50), kind, v, p, len(lat)))
        labels = sorted({s[1] for s in samples if s[0] == kind})
        for lab in labels:
            lat = sorted((s[3] - s[2]) * 1e3 for s in samples if s[0] == kind and s[1] == lab)
            log("    %-10s n=%-6d p50 %.3f ms" % (lab, len(lat), arith.percentile(lat, 50)))
    log("  ingest_mb_s %.3f MB/s" % (rec.get("input_bytes", 0) / 1e6 / (rec["end_time"] - start)))
    log("  failed_share %.6f ratio" % ratio(failed, attempted))
    log("  server cpu %.3f s over the window, per thread %s; load generator cpu %.3f s"
        % (host["server_cpu_s"], ["%.2f" % t for t in host["threads_cpu_s"][:6]],
           host["loadgen_cpu_s"]))
    for f in rec["fails"]:
        log("  FAIL " + f)
    return metrics, attempted, failed


def pick(values, section):
    """The metrics BENCHMARK.json declares in a section, with their units."""
    missing = [name for name, _ in declared(section) if name not in values]
    if missing:
        raise RuntimeError("no computation for declared metric(s) %s" % ", ".join(missing))
    return {name: (values[name], unit) for name, unit in declared(section)}


def per_layer(rec):
    agg = arith.aggregate(rec["spans"])  # span times are in µs

    def a(name):
        x = agg.get(name)
        if not x or x["count"] == 0:
            raise RuntimeError("traced replay recorded no %s span" % name)
        return x

    def mean_us(name):
        return a(name)["self"] / a(name)["count"]

    def mb_s(name):
        return a(name)["amount"] / a(name)["self"]  # bytes/µs == MB/s

    def ns_per(name):
        return a(name)["self"] * 1e3 / max(1, a(name)["amount"])

    st, m = rec["stats"], rec["metric"]
    reads = st.get("cache_hits", 0) + st.get("cache_misses", 0)
    v = {
        "xml.sax_parse_mb_s": mb_s("xml.sax_parse"),
        "xml.dom_parse_mb_s": mb_s("xml.dom_parse"),
        "xml.serialize_mb_s": mb_s("xml.serialize"),
        "service.plan_compile_us": mean_us("service.plan_compile"),
        "service.plan_hit_ratio": ratio(st.get("cache_hits", 0), reads),
        "service.call_us": m["service.call_us"],
        "service.wait_us": m["service.wait_us"],
        "service.queue_depth_max": st.get("queue_depth_max", 0),
        "schema.product_us": mean_us("schema.product"),
        "schema.validate_commit_us": mean_us("schema.validate_commit"),
        "schema.skipped_nodes_per_read": ratio(st.get("skipped_nodes", 0), reads),
        "automata.annotate_ns_per_node": ns_per("automata.annotate"),
        "automata.repair_us_per_commit": mean_us("automata.repair"),
        "automata.repair_reused_share": ratio(
            st.get("repair_reused_nodes", 0),
            st.get("repair_reused_nodes", 0) + st.get("repair_recomputed_nodes", 0)),
        "automata.nfa_memo_hit_rate": st.get("nfa_memo_hit_rate", 0),
        "core.topdown_ns_per_node": ns_per("core.topdown"),
        "core.compose_us": mean_us("core.compose"),
        "core.run_composed_us": mean_us("core.run_composed"),
        "core.sax_fused_mb_s": mb_s("core.sax_fused"),
        "core.sax_twopass_mb_s": mb_s("core.sax_twopass"),
        "core.sax_deep_ms": mean_us("core.sax_deep") / 1e3,
        "core.stream_fused_share": ratio(
            st.get("streams_fused", 0), st.get("streams_fused", 0) + st.get("stream_fallbacks", 0)),
        "update.stage_us": mean_us("update.stage"),
        "update.materialize_us": mean_us("update.materialize"),
        "update.commit_noop_share": ratio(
            st.get("commit_noops", 0), st.get("commits", 0) + st.get("commit_noops", 0)),
        "transport.frame_encode_us": mean_us("transport.frame_encode"),
        "transport.frame_decode_us": mean_us("transport.frame_decode"),
        "transport.socket_overhead_us": m["transport.socket_overhead_us"],
        "transport.bytes_out_per_req": ratio(
            rec["sockstat"].get("bytes_out", 0), rec["sockstat"].get("requests", 0)),
        "trace.overhead_share": m["trace.overhead_share"],
    }
    # Both are costs.  The wait is only sure to be one where requests
    # queue: more in flight than the server's two domains (ingest-stream
    # has two, so its wait is contention alone and may read about 0).
    positive = ["trace.overhead_share"] + (["service.wait_us"] if rec["inflight"] > 2 else [])
    for name in positive:
        if not v[name] > 0:
            raise RuntimeError("%s came out %g; it is a cost and must be positive" % (name, v[name]))
    return pick(v, "per_layer"), agg


def report_layers(agg, rec):
    log("per-span self time (traced replay of %d requests):" % rec["replayed"])
    log("  %-30s %8s %12s %12s" % ("span", "count", "self_ms", "self_us/call"))
    layers = {}
    for name, x in sorted(agg.items(), key=lambda kv: -kv[1]["self"]):
        log("  %-30s %8d %12.3f %12.2f" % (name, x["count"], x["self"] / 1e3, x["self"] / x["count"]))
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + x["self"]
    total = sum(layers.values())
    log("per-layer self time:")
    for layer, t in sorted(layers.items(), key=lambda kv: -kv[1]):
        log("  %-12s %10.3f ms %6.1f%%" % (layer, t / 1e3, 100 * t / total))
    log("tracing overhead: %.1f ns per span x %d spans over an untraced replay of %.4f s "
        "(one traced replay took %.4f s)"
        % (rec["span_cost_ns"], len(rec["spans"]), rec["replay_untraced_s"], rec["replay_traced_s"]))
    for kind, us, n in rec["call_kind"]:
        log("  service.call_us[%s] %.2f us (n=%d)" % (kind, us, n))


def diagnostic(args, inputs):
    """Read-mix at one and two server domains: throughput, the server's
    per-thread CPU and the load generator's CPU over the window.  When
    server plus load-generator CPU fill the host's cores, the load
    generator is taking the second core; when they do not and the second
    worker adds little throughput, shared state holds the workers back.
    Reported, never gated."""
    rows = []
    for domains in (1, 2):
        srv = start_and_setup(args, inputs, domains)
        try:
            rec = drive(args, inputs, srv, DIAG_SECONDS, os.path.join(WORK, "diag.out"))
        finally:
            srv.stop()
        start, end = rec["window"]
        rows.append((domains, arith.throughput([s[3] for s in rec["samples"]], start, end),
                     rec["host"]))
    return rows


# ---------------------------------------------------------------- main


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # a terminated run still stops its server (finally blocks run on exit)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(3))

    build()
    os.makedirs(WORK, exist_ok=True)
    inputs = os.path.join(WORK, "in-%s-%d" % (args.workload, args.seed))
    if not os.path.isdir(inputs):
        tmp = inputs + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        xsb(["gen", "--workload", args.workload, "--seed", str(args.seed), "--dir", tmp])
        os.rename(tmp, inputs)
    ident = source_identity()

    if args.trace == 0:
        setups = setup_times(args, inputs)
        srv = start_and_setup(args, inputs)
        try:
            rec = drive(args, inputs, srv, args.seconds, os.path.join(WORK, "drive.out"))
        finally:
            srv.stop()
        metrics, attempted, failed = end_to_end(args, rec, setups)
        h = rec["host"]
        log("meta " + json.dumps({
            "source": ident, "nproc": os.cpu_count(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "setup_rounds_s": setups,
            "steal_share": round(h["steal_share"], 4), "idle_share": round(h["idle_share"], 4)}))
    else:
        diag = diagnostic(args, inputs) if args.workload == "read-mix" else []
        srv = start_and_setup(args, inputs)
        t0 = cpu_times()
        try:
            out = os.path.join(WORK, "trace.out")
            xsb(["trace", "--workload", args.workload, "--seed", str(args.seed), "--dir", inputs,
                 "--socket", SOCK, "--out", out])
        finally:
            srv.stop()
        t1 = cpu_times()
        rec = read_records(out)
        metrics, agg = per_layer(rec)
        report_layers(agg, rec)
        for domains, rps, h in diag:
            log("domains=%d throughput_rps %.1f server_cpu %.2f cores (threads %s) loadgen_cpu "
                "%.2f cores, host %d cores, service.wait_us %.1f, steal %.3f"
                % (domains, rps, h["server_cpu_s"] / DIAG_SECONDS,
                   ["%.2f" % (t / DIAG_SECONDS) for t in h["threads_cpu_s"][:4]],
                   h["loadgen_cpu_s"] / DIAG_SECONDS, os.cpu_count(),
                   rec["diag_wait_us"].get(domains, float("nan")), h["steal_share"]))
        if diag:
            (_, r1, _), (_, r2, h2) = diag
            busy = (h2["server_cpu_s"] + h2["loadgen_cpu_s"]) / DIAG_SECONDS
            log("diagnosis: 2 domains give %.2fx the 1-domain throughput; server+loadgen use "
                "%.2f of %d cores -> %s"
                % (r2 / r1, busy, os.cpu_count(),
                   "the host is full: the load generator competes for the second core"
                   if busy > 0.9 * os.cpu_count() else
                   "cores are idle: the workers are held back by shared state (plan-cache lock, "
                   "metrics atomics, stop-the-world GC) or by the transport threads"))
        for f in rec["fails"]:
            log("  FAIL " + f)
        attempted, failed = rec["replayed"], rec["failed"]
        span = max(1, t1[0] - t0[0])
        log("meta " + json.dumps({
            "source": ident, "nproc": os.cpu_count(), "workload": args.workload,
            "seed": args.seed, "steal_share": round((t1[2] - t0[2]) / span, 4),
            "idle_share": round((t1[1] - t0[1]) / span, 4)}))
    for name, (value, unit) in metrics.items():
        log("%s %.6g %s" % (name, value, unit))
    print(arith.result_line(failed == 0, max(1, attempted), failed, metrics), flush=True)


if __name__ == "__main__":
    main()
