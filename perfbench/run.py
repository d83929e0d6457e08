#!/usr/bin/env python3
"""End-to-end benchmark of `netrel serve` (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload road-serve --seed 1 --seconds 50 --trace 0

--trace 0 drives the real binary: one `netrel serve --graph FILE` process
per session and one closed-loop client on its stdin/stdout, and reports
the end-to-end metrics. --trace 1 runs one serve session for its replies,
then replays the same stream in-process (nrbench trace), checks that the
replay did what serve and a real Engine.query did (the same answers bit
for bit, the same cache work) and reports the per-layer metrics. Either
way every answer is checked, the last stdout line is one JSON object,
and the exit code is 0 only if nothing failed.
"""

import argparse
import collections
import hashlib
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time

# Per workload: serve --jobs and the reference sample count (a multiple
# of the 62 worlds one bit-sliced pass draws). Terminal sets are fixed per
# workload, so the references are computed on a checkout's first run only
# (~15 s on a 10^5-edge graph) and read from the cache afterwards.
WORKLOADS = {
    "pro-construct": {"jobs": 1, "ref_samples": 4960},
    "sample-large": {"jobs": 2, "ref_samples": 620},
    "road-serve": {"jobs": 1, "ref_samples": 620},
}
SETUP_PROBES = 40          # serve start-ups measured per run besides the sessions
QUERY_TIMEOUT_S = 60.0     # a reply later than this fails the query
Z = 5.0                    # standard errors an answer may sit from the reference
REF_SEED = 20190326        # reference stream seed, independent of the workload seed
WORK = ".perfbench"        # scratch directory in the checkout (git-ignored)
CLASSES = ("hit", "warm", "cold")  # memo hit, cached preprocessing, neither


def fail_setup(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    # Test hooks that would pin the clock or the domain count.
    env.pop("NETREL_FAKE_CLOCK", None)
    env.pop("NETREL_FORCE_DOMAINS", None)
    # Keep dune's shared cache out of the home directory.
    env["DUNE_CACHE"] = "disabled"
    return env


def build():
    for f in ("dune-project", os.path.join("bin", "dune"), os.path.join("perfbench", "dune")):
        if not os.path.exists(f):
            fail_setup(f"{f} not found: run from the root of a netrel checkout")
    targets = ["./bin/netrel_cli.exe", "./perfbench/nrbench.exe"]
    try:
        r = subprocess.run(["dune", "build", "--root", ".", *targets], env=child_env(),
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail_setup(f"dune build failed: {e}")
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace"))
        fail_setup("dune build failed")
    return [os.path.join("_build", "default", t[2:]) for t in targets]


def tool(nrbench, *args, timeout=170):
    r = subprocess.run([nrbench, *map(str, args)], env=child_env(), stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, timeout=timeout)
    if r.returncode != 0:
        sys.stderr.write(r.stderr.decode(errors="replace"))
        fail_setup(f"nrbench {args[0]} failed")
    return r.stdout.decode()


# ---- serve client ----

class Serve:
    """One `netrel serve` process driven as a closed loop: a request line
    is written only after the previous reply arrived."""

    def __init__(self, exe, graph, jobs, log):
        self.p = subprocess.Popen([exe, "serve", "--graph", graph, "--jobs", str(jobs)],
                                  stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log,
                                  env=child_env())
        self.fd = self.p.stdout.fileno()
        self.buf = b""

    def request(self, line, timeout=QUERY_TIMEOUT_S):
        """The reply line, or None on timeout, crash or EOF."""
        try:
            self.p.stdin.write(line.encode() + b"\n")
            self.p.stdin.flush()
        except OSError:
            return None
        deadline = time.perf_counter() + timeout
        while b"\n" not in self.buf:
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([self.fd], [], [], left)[0]:
                return None
            chunk = os.read(self.fd, 1 << 16)
            if not chunk:
                return None
            self.buf += chunk
        reply, _, self.buf = self.buf.partition(b"\n")
        return reply.decode(errors="replace")

    def peak_rss_mb(self):
        with open(f"/proc/{self.p.pid}/status") as f:
            for l in f:
                if l.startswith("VmHWM:"):
                    return int(l.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def close(self):
        try:
            self.p.stdin.write(b"quit\n")
            self.p.stdin.close()
        except OSError:
            pass
        try:
            self.p.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.p.kill()
            self.p.wait()
        self.p.stdout.close()


def session(exe, graph, jobs, lines, log):
    """Spawn serve, wait for its first `stats` reply (set-up), send the
    stream, read VmHWM, ask for the engine counters, quit."""
    t0 = time.perf_counter()
    s = Serve(exe, graph, jobs, log)
    try:
        first = s.request("stats")
        out = {"setup": time.perf_counter() - t0, "latency": [], "replies": [], "stats": None}
        if first is None:
            out["replies"] = [None] * len(lines)
            return out
        w0 = time.perf_counter()
        for line in lines:
            t = time.perf_counter()
            reply = s.request(line)
            if reply is None:
                break
            out["latency"].append(time.perf_counter() - t)
            out["replies"].append(reply)
        out["wall"] = time.perf_counter() - w0
        alive = len(out["replies"]) == len(lines)
        out["replies"] += [None] * (len(lines) - len(out["replies"]))
        if alive:
            out["rss_mb"] = s.peak_rss_mb()
            stats = s.request("stats")
            out["stats"] = json.loads(stats)["engine"] if stats else None
        return out
    finally:
        s.close()


# ---- answer check ----

def se(p, n):
    """Binomial standard error of a proportion from n samples, smoothed
    so that 0 or n hits still carry a nonzero error."""
    if n <= 0:
        return 0.0
    q = (min(max(p, 0.0), 1.0) * n + 0.5) / (n + 1)
    return math.sqrt(q * (1 - q) / n)


def answer_se(res, lo, hi, p_ref):
    """The answer's standard error if the reference were the true value.
    A sampler's is binomial at the reference value on its drawn samples
    (a small sample can read exactly 0 or 1, where its own error
    vanishes). A pro answer's randomness is its stratified descents over
    the unresolved mass hi - lo; under randomised-rounding allocation a
    descent may carry that whole mass, so the error is at most
    (hi - lo) / sqrt(descents). An exact answer has none."""
    if res.get("exact"):
        return 0.0
    if "samples_used" in res:
        return se(p_ref, res["samples_used"])
    n = res["samples_drawn"]
    return (hi - lo) / math.sqrt(n) if n else 0.0


def terminals_of(line):
    for tok in line.split():
        if tok.startswith("terminals="):
            return tok[len("terminals="):]
    raise ValueError(f"query line without terminals: {line}")


def check(line, reply, first, refs):
    """None if the reply passes every check, else the reason it fails."""
    if reply is None:
        return "no reply (timeout or crash)"
    try:
        doc = json.loads(reply)
    except ValueError:
        return "reply is not JSON"
    if "error" in doc:
        return "error reply: " + str(doc["error"])
    res = doc.get("result") or {}
    try:
        v, lo, hi = float(res["value"]), float(res["lower"]), float(res["upper"])
    except (KeyError, TypeError, ValueError):
        return "result lacks value/lower/upper"
    if not 0.0 <= lo <= v <= hi <= 1.0:
        return f"0 <= lower <= value <= upper <= 1 broken: {lo} {v} {hi}"
    if line in first and first[line] != res:
        return "repeat differs from the first answer"
    first.setdefault(line, res)
    hits, n = refs[terminals_of(line)]
    p_ref, se_ref = hits / n, se(hits / n, n)
    tol = Z * math.hypot(answer_se(res, lo, hi, p_ref), se_ref)
    if abs(v - p_ref) > tol:
        return f"value {v} is {abs(v - p_ref) / tol * Z:.1f} SE from reference {p_ref}"
    if "s_given" in res and (hi < p_ref - Z * se_ref or lo > p_ref + Z * se_ref):
        return f"proven bounds [{lo}, {hi}] exclude reference {p_ref} +- {Z} SE"
    return None


def references(nrbench, graph, lines, n):
    """Reference (hits, samples) per terminal set, cached in the checkout
    by graph content digest, terminals, seed and sample count."""
    path = os.path.join(WORK, "refs.json")
    cache = {}
    if os.path.exists(path):
        with open(path) as f:
            cache = json.load(f)
    with open(graph, "rb") as f:
        digest = hashlib.sha1(f.read()).hexdigest()[:16]
    key = lambda ts: f"{digest}|{ts}|{REF_SEED}|{n}"
    sets = sorted({terminals_of(l) for l in lines})
    missing = [ts for ts in sets if key(ts) not in cache]
    if missing:
        out = tool(nrbench, "ref", graph, 2, n, REF_SEED, *missing)
        for row in out.split("\n"):
            if row:
                ts, hits, used = row.split()
                cache[key(ts)] = [int(hits), int(used)]
        with open(path + ".tmp", "w") as f:
            json.dump(cache, f)
        os.replace(path + ".tmp", path)
    return {ts: cache[key(ts)] for ts in sets}


# ---- statistics ----

def metric(value, unit):
    return {"value": value, "unit": unit}


def steal_seconds():
    """CPU time the hypervisor gave to other guests (all CPUs), from
    /proc/stat; printed with each run to explain a noisy figure."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


# ---- modes ----

def end_to_end(serve_exe, graph, jobs, lines, refs, seconds, log):
    t0, steal0 = time.perf_counter(), steal_seconds()
    probe = lambda: session(serve_exe, graph, jobs, [], log)["setup"]
    # Half the set-up probes before the sessions and half after, so that
    # they sample the whole run, not one stretch of it.
    setups = [probe() for _ in range(SETUP_PROBES // 2)]
    probes_took = time.perf_counter() - t0
    sessions, took = [], []
    while True:
        t = time.perf_counter()
        sessions.append(session(serve_exe, graph, jobs, lines, log))
        took.append(time.perf_counter() - t)
        if time.perf_counter() - t0 + statistics.mean(took) + probes_took > seconds:
            break
    setups += [probe() for _ in range(SETUP_PROBES // 2)]
    first = {}
    failures = []
    for s in sessions:
        setups.append(s["setup"])
        for line, reply in zip(lines, s["replies"]):
            why = check(line, reply, first, refs)
            if why:
                failures.append(f"{why} [{line}]")
    walls = [s["wall"] for s in sessions if "wall" in s]
    rss = [s["rss_mb"] for s in sessions if "rss_mb" in s]
    # Every session sends the same lines in the same order. A typical
    # session has each line's median latency across the run's sessions:
    # a neighbour's load burst then lifts the few queries it overlapped,
    # not the whole session it fell in. Wall and quantiles are its.
    complete = [s["latency"] for s in sessions if len(s["latency"]) == len(lines)]
    typical = [statistics.median(xs) for xs in zip(*complete)]
    attempted = len(lines) * len(sessions)
    metrics = {}
    if rss and len(typical) > 1:
        p90 = statistics.quantiles(typical, n=10, method="inclusive")[-1]
        # Start-up times sit on a floor, and a neighbour's load lifts
        # whole stretches of probes for seconds at a time; the fastest
        # start-up of the run is what the program itself costs.
        metrics = {
            "setup_s": metric(min(setups), "s"),
            "wall_s": metric(sum(typical), "s"),
            "query_p50_s": metric(statistics.median(typical), "s"),
            "query_p90_s": metric(p90, "s"),
            "peak_rss_mb": metric(statistics.median(rss), "MB"),
        }
    print("session walls " + " ".join(f"{w:.3f}" for w in walls) + " s")
    print(f"sessions {len(sessions)} ({len(complete)} complete), queries per session "
          f"{len(lines)}, setup samples {len(setups)}, "
          f"cpu steal {steal_seconds() - steal0:.2f} s in {time.perf_counter() - t0:.1f} s")
    return attempted, failures, metrics


def span_self_times(spans):
    child = {}
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child.get(s["id"], 0.0) for s in spans}


def per_layer(tr, engine, jobs):
    spans, queries = tr["spans"], tr["queries"]
    self_t = span_self_times(spans)
    total, words, by_q = {}, {}, {}
    for s in spans:
        total[s["name"]] = total.get(s["name"], 0.0) + self_t[s["id"]]
        words[s["name"]] = words.get(s["name"], 0.0) + s["minor_words"]
        by_q.setdefault(s["qid"], {})[s["name"]] = s
    roots = [s for s in spans if s["parent"] < 0]
    e2e = sum(s["end"] - s["start"] for s in roots)
    unattributed = sum(self_t[s["id"]] for s in roots)
    dur = lambda s: s["end"] - s["start"]
    t = lambda name: total.get(name, 0.0)

    eq = {c: [q["engine"]["s"] for q in queries if q["engine"]["class"] == c]
          for c in CLASSES}
    pro = [q for q in queries if q["method"] == "pro" and q["class"] != "hit"]
    # Descents = jobs-1 estimate minus construction, both on the calling
    # domain; a query that drew no descent has none.
    desc = [q for q in pro if q["samples_drawn"] > 0]
    descent = sum(q["estimate1_s"] - q["construct_s"] for q in desc)
    desc_words = sum(q["estimate1_words"] - q["construct_words"] for q in desc)
    drawn = sum(q["samples_drawn"] for q in pro)
    masses = [m for q in pro for m in q["resolved_mass"]]
    ratios = [q["reduction_ratio"] for q in pro if q.get("reduction_ratio") is not None]
    fixed = [q for q in queries if q["class"] != "hit" and "kernel" in q]
    rate = {}
    for q in fixed:
        r = rate.setdefault(q["kernel"], [0, 0.0])
        r[0] += q["samples"]
        r[1] += dur(by_q[q["qid"]]["mcsampling"])
    samp_words = sum(by_q[q["qid"]]["mcsampling"]["minor_words"] for q in fixed)
    adaptive = [q for q in queries if q["class"] != "hit" and "rounds" in q]
    speed = [q["jobs1_s"] / dur(by_q[q["qid"]]["mcsampling"]) for q in fixed if "jobs1_s" in q]
    mean = lambda xs: sum(xs) / len(xs) if xs else 0.0
    med = lambda xs: statistics.median(xs) if xs else 0.0
    prep = engine["prep.hit"] + engine["prep.miss"]

    m = {
        "ugraph.parse_s": (t("ugraph.parse"), "s"),
        "bingraph.load_s": (t("bingraph.load"), "s"),
        "bingraph.to_graph_s": (t("bingraph.to_graph"), "s"),
        "kernel.csr_s": (t("kernel.csr"), "s"),
        "bingraph.digest_s": (t("bingraph.digest"), "s"),
        "engine.self_s": (t("engine.query"), "s"),
        "engine.result_hit_ratio": (engine["result.hit"] / max(1, engine["queries"]), "ratio"),
        "engine.prep_hit_ratio": (engine["prep.hit"] / prep if prep else 0.0, "ratio"),
        "engine.hit_p50_s": (med(eq["hit"]), "s"),
        "engine.warm_p50_s": (med(eq["warm"]), "s"),
        "engine.cold_p50_s": (med(eq["cold"]), "s"),
        "preprocess.s": (t("preprocess"), "s"),
        "preprocess.alloc_mw": (words.get("preprocess", 0.0) / 1e6, "Mwords"),
        "preprocess.reduction_ratio": (med(ratios), "ratio"),
        "graphalgo.ordering_s": (t("graphalgo.ordering"), "s"),
        "s2bdd.construct_s": (sum(q["construct_s"] for q in pro), "s"),
        "s2bdd.construct_alloc_mw": (sum(q["construct_words"] for q in pro) / 1e6, "Mwords"),
        "s2bdd.layers": (sum(q["layers"] for q in pro), "count"),
        "s2bdd.max_width": (max([q["max_width"] for q in pro], default=0), "count"),
        "s2bdd.deleted_nodes": (sum(q["deleted_nodes"] for q in pro), "count"),
        "s2bdd.peak_state_words": (max([q["peak_state_words"] for q in pro], default=0), "words"),
        "s2bdd.resolved_mass": (mean(masses), "ratio"),
        "s2bdd.descent_s": (descent, "s"),
        "s2bdd.samples_drawn": (drawn, "count"),
        "s2bdd.alloc_words_per_descent": (desc_words / drawn if drawn else 0.0, "words"),
        "mcsampling.s": (t("mcsampling"), "s"),
        "mcsampling.alloc_words_per_sample":
            (samp_words / sum(r[0] for r in rate.values()) if rate else 0.0, "words"),
        "adaptive.s": (t("adaptive"), "s"),
        "adaptive.rounds": (mean([q["rounds"] for q in adaptive]), "count"),
        "adaptive.overshoot": (mean([q["overshoot"] for q in adaptive]), "ratio"),
        "par.speedup": (mean(speed) if jobs > 1 else 1.0, "ratio"),
        "statsdoc.render_s": (t("statsdoc.render"), "s"),
        "unattributed_s": (unattributed, "s"),
    }
    for k in ("mc-flat", "mc-bitsliced", "ht-flat"):
        n, secs = rate.get(k, (0, 0.0))
        m[f"mcsampling.samples_per_s.{k}"] = (n / secs if secs else 0.0, "1/s")
    return e2e, {k: metric(v, u) for k, (v, u) in m.items()}


def replay_checks(tr, replies, serve_engine):
    """Reasons the replay is not the computation serve ran, if any."""
    spans, queries = tr["spans"], tr["queries"]
    failures = []
    # The same answers as serve and as the real Engine.query.
    for q, reply in zip(queries, replies):
        if json.loads(reply)["result"] != q["result"]:
            failures.append(f"traced answer differs from the serve reply [{q['line']}]")
        if not q["engine"]["same_answer"]:
            failures.append(f"traced answer differs from Engine.query [{q['line']}]")
        if not q.get("jobs1_same", True):
            failures.append(f"jobs-1 shadow estimate differs from the query's [{q['line']}]")
    # The same cache work, per query against Engine.query's counter
    # deltas and in sum against serve's own counters.
    builds = {"bingraph.digest": "digests", "kernel.csr": "csr_builds",
              "preprocess": "prep_builds"}
    count = collections.Counter((s["qid"], s["name"]) for s in spans)
    for q in queries:
        if q["class"] != q["engine"]["class"]:
            failures.append(f"replay class {q['class']} but Engine.query "
                            f"{q['engine']['class']} [{q['line']}]")
        for name, key in builds.items():
            if count[q["qid"], name] != q["engine"][key]:
                failures.append(f"replay has {count[q['qid'], name]} {name} spans, "
                                f"Engine.query {q['engine'][key]} {key} [{q['line']}]")
    e = serve_engine
    want = {"bingraph.digest": e["queries"] - e["digest_from_header"],
            "kernel.csr": e["csr.miss"], "preprocess": e["prep.miss"]}
    for name, n in want.items():
        got = sum(1 for s in spans if s["name"] == name and s["qid"] >= 0)
        if got != n:
            failures.append(f"replay has {got} {name} spans, serve's counters say {n}")
    classes = {c: sum(q["class"] == c for q in queries) for c in CLASSES}
    if (classes["hit"], classes["warm"]) != (e["result.hit"], e["prep.hit"]):
        failures.append(f"replay classes {classes} disagree with serve counters {e}")
    # About the same cost as Engine.query per class, so that the replay's
    # layer spans do not charge work the engine no longer does.
    query_span = {s["qid"]: s["end"] - s["start"] for s in spans if s["name"] == "engine.query"}
    for c in CLASSES:
        mine = [query_span[q["qid"]] for q in queries if q["class"] == c]
        real = [q["engine"]["s"] for q in queries if q["class"] == c]
        if mine and not 0.5 <= statistics.median(mine) / statistics.median(real) <= 2.0:
            failures.append(f"{c} queries: replay p50 {statistics.median(mine):.4g} s, "
                            f"Engine.query p50 {statistics.median(real):.4g} s")
    return classes, failures


def traced(serve_exe, nrbench, graph, jobs, lines, refs, qfile, work, log):
    s = session(serve_exe, graph, jobs, lines, log)
    first = {}
    failures = [f"{why} [{l}]" for l, r in zip(lines, s["replies"])
                if (why := check(l, r, first, refs))]
    if failures or s["stats"] is None:
        return len(lines), failures or ["serve session died"], {}
    out = os.path.join(work, "trace.json")
    tool(nrbench, "trace", graph, qfile, jobs, out)
    with open(out) as f:
        tr = json.load(f)
    # The replay must compute exactly what serve computed.
    classes, failures = replay_checks(tr, s["replies"], s["stats"])
    e2e, metrics = per_layer(tr, s["stats"], jobs)
    serve_e2e = s["setup"] + s["wall"]
    print(f"traced replay {e2e:.4f} s in-process vs serve {serve_e2e:.4f} s "
          f"(set-up + wall); query classes {classes}")
    return len(lines), failures, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    cfg = WORKLOADS[a.workload]

    serve_exe, nrbench = build()
    work = os.path.join(WORK, f"{a.workload}-{a.seed}")
    os.makedirs(work, exist_ok=True)
    tool(nrbench, "gen", a.workload, a.seed, work)
    graph = next(os.path.join(work, f) for f in ("graph.nrb", "graph.txt")
                 if os.path.exists(os.path.join(work, f)))
    qfile = os.path.join(work, "queries.txt")
    with open(qfile) as f:
        lines = [l.strip() for l in f if l.strip()]
    refs = references(nrbench, graph, lines, cfg["ref_samples"])

    with open(os.path.join(work, "serve.log"), "wb") as log:
        if a.trace:
            attempted, failures, metrics = traced(serve_exe, nrbench, graph, cfg["jobs"],
                                                  lines, refs, qfile, work, log)
        else:
            attempted, failures, metrics = end_to_end(serve_exe, graph, cfg["jobs"], lines,
                                                      refs, a.seconds, log)
    for why in failures[:20]:
        print("FAILED:", why)
    print(f"failed_frac {len(failures) / attempted:.6g} ({len(failures)}/{attempted})")
    for k, v in metrics.items():
        print(f"{k} {v['value']:.6g} {v['unit']}")
    ok = not failures and bool(metrics)
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
