#!/usr/bin/env python3
"""A/B benchmark campaign: a parent revision against the change, in pairs.

Usage (from anywhere inside the repository):

    python3 scripts/bench_ab.py --base HEAD~1 --pairs 10 \\
        --workloads hash_contended --out BENCH_20.json
    python3 scripts/bench_ab.py --base HEAD~1 --pairs 3 --trace 1 \\
        --workloads hash_contended --out BENCH_20_traced.json
    python3 scripts/bench_ab.py --selftest

Both sides run one benchmark, the change's: BENCHMARK.json and the
directories its "paths" list (perfbench/) come from the change, every other
file from the side's own revision, so a change to the benchmark is measured
on both sides. Each combination is extracted with `git archive` into
.bench_build/ab/<src sha>-<bench sha>/, a plain snapshot that registers
nothing in .git and that a later campaign reuses but never modifies.
--head defaults to `git stash create` (the tracked files as they stand,
staged new files included), or HEAD when nothing is modified, so later
edits cannot leak into a running campaign.
Each side then builds itself there through the benchmark's
perfbench/run.py. For every pair, and for every workload within the pair,
it runs `perfbench/run.py --trace <0|1>` for BENCHMARK.json's run_seconds
once per side, flipping which side runs first from one pair to the next,
and reads each run's last-line JSON and its `host` line (nproc, CPU model,
steal share).

The output file holds the three SHAs (base, head, bench), the host
fingerprint, every run (with its steal and failed/attempted), and per
workload and end-to-end metric of BENCHMARK.json:
each side's median and quartiles (`statistics.quantiles(n=4)`, as
perfbench/WORKLOADS.md computes spread), the pairs the change won, and a
verdict against the metric's bound:

  better        the change won at least 9 in 10 pairs and its median beats
                the parent's by more than the parent's interquartile range,
                or every change run beats every parent run;
  not claimable what would be "better", but the workload has fewer than
                10 pairs, a run without a result (a crash or a timeout),
                a run that failed its output checks, or a larger failed
                share at the change than at the parent;
  unresolved    otherwise, when either side's spread (IQR / median)
                exceeds the bound;
  worse         otherwise, when the median moved the wrong way by more
                than the bound;
  within bound  otherwise.

With --trace 1 the runs are traced and the summary covers BENCHMARK.json's
per_layer metrics instead: each side's median and quartiles and the pairs
the change won, with no verdict, since those metrics have no bound. The
failed-share, crashed-run and failed-check bookkeeping is the same.

The file is rewritten after every run, so an interrupted campaign keeps
what it measured ("complete": false). Stdlib only. --selftest checks the
arithmetic on synthetic runs and needs neither git nor a build.
"""

import argparse
import json
import os
import pathlib
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
AB_DIR = ROOT / ".bench_build" / "ab"
WIN_SHARE = 0.9  # pairs the change must win for a "better" verdict
MIN_PAIRS = 10   # fewer pairs cannot resolve a 9-in-10 win share
HOST_LINE = re.compile(
    r'^host nproc=(\d+) cpu_model="([^"]*)" steal_ticks=\d+ steal_pct=([\d.]+)')


def fail(msg):
    print(f"bench_ab: {msg}", file=sys.stderr)
    sys.exit(1)


# ------------------------------------------------------------- arithmetic
def summarize(values):
    """Median, quartiles and spread (IQR / median) of one side's runs."""
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    spread = (q3 - q1) / med if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "spread": spread, "n": len(values)}


def compare(parent, change, better):
    """Summaries of paired runs of one metric (lists in pair order) and the
    pairs the change won; `better` is "lower" or "higher"."""
    sign = 1.0 if better == "lower" else -1.0
    p, c = summarize(parent), summarize(change)
    return {"parent": p, "change": c,
            "wins": sum(1 for a, b in zip(parent, change)
                        if sign * (b - a) < 0),
            "pairs": min(len(parent), len(change)),
            "relative_change": (c["median"] - p["median"]) / p["median"]
            if p["median"] else 0.0}


def verdict(parent, change, better, bound, refusals=()):
    """compare() plus a verdict against `bound`, the relative bound of
    BENCHMARK.json; `refusals` are the workload's reasons a gain cannot be
    claimed."""
    sign = 1.0 if better == "lower" else -1.0
    out = compare(parent, change, better)
    p, c, wins, pairs = out["parent"], out["change"], out["wins"], out["pairs"]
    gain = sign * (p["median"] - c["median"])  # > 0: the change is better
    worse_by = -gain / p["median"] if p["median"] else 0.0
    dominates = all(sign * (b - a) < 0 for a in parent for b in change)
    if dominates or (pairs and wins >= WIN_SHARE * pairs and
                     gain > p["iqr"]):
        word = "not claimable" if refusals else "better"
    elif max(p["spread"], c["spread"]) > bound:
        word = "unresolved"
    elif worse_by > bound:
        word = "worse"
    else:
        word = "within bound"
    return {**out, "bound": bound, "verdict": word}


def analyze(runs, spec, trace=0):
    """Per workload: failed share per side, then a verdict per end-to-end
    metric, or with `trace` a comparison per per-layer metric.

    A run without metrics (no result line) pairs with nothing and counts
    in its side's crashed_runs.
    """
    out = {}
    for w in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == w]
        sides = {side: {r["pair"]: r for r in mine
                        if r["side"] == side and r["metrics"]}
                 for side in ("parent", "change")}
        paired = sorted(set(sides["parent"]) & set(sides["change"]))
        entry = {"pairs": len(paired), "failed_share": {}, "metrics": {}}
        for side in ("parent", "change"):
            rs = list(sides[side].values())
            attempted = sum(r["attempted"] or 0 for r in rs)
            failed = sum(r["failed"] or 0 for r in rs)
            entry["failed_share"][side] = {
                "failed": failed, "attempted": attempted,
                "share": failed / attempted if attempted else 0.0,
                "incorrect_runs": sum(1 for r in rs if not r["correct"]),
                "crashed_runs": sum(1 for r in mine if r["side"] == side
                                    and not r["metrics"])}
        fs = entry["failed_share"]
        refusals = []
        if len(paired) < MIN_PAIRS:
            refusals.append(f"{len(paired)} pairs, fewer than {MIN_PAIRS}")
        if any(fs[s]["crashed_runs"] for s in fs):
            refusals.append("a run without a result")
        if any(fs[s]["incorrect_runs"] for s in fs):
            refusals.append("a run that failed its output checks")
        if fs["change"]["share"] > fs["parent"]["share"]:
            refusals.append("a larger failed share at the change")
        entry["refusals"] = refusals
        for m in spec["per_layer" if trace else "end_to_end"]:
            a = [sides["parent"][i]["metrics"].get(m["name"]) for i in paired]
            b = [sides["change"][i]["metrics"].get(m["name"]) for i in paired]
            if not paired or None in a or None in b:
                continue
            entry["metrics"][m["name"]] = (
                compare(a, b, m["better"]) if trace else
                verdict(a, b, m["better"], m["bound"], refusals))
        out[w] = entry
    return out


# ---------------------------------------------------------------- running
def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def resolve(rev):
    return git("rev-parse", "--verify", f"{rev}^{{commit}}")


def side_trees(base, head):
    """Per side, the (source, benchmark) revisions of the tree it runs: its
    own sources under the change's benchmark."""
    return {"parent": (base, head), "change": (head, head)}


def tree_dir(src, bench):
    """The extraction of one combination, keyed by both SHAs."""
    return AB_DIR / f"{src}-{bench}"


def from_bench(path, bench_paths):
    """Whether a tree takes `path` from the benchmark's revision rather than
    from the side's own: BENCHMARK.json and the directories it lists."""
    return any(path == p or path.startswith(p + "/") for p in bench_paths)


def extract(src, bench, bench_paths):
    """The tree of `src` with `bench`'s benchmark, under tree_dir(); an
    extraction is finished (and reused as it is) once it holds its stamp."""
    dest = tree_dir(src, bench)
    stamp = dest / ".extracted"
    if stamp.is_file():
        return dest
    shutil.rmtree(dest, ignore_errors=True)  # an interrupted extraction
    dest.mkdir(parents=True)
    for sha, benchmark in ((src, False), (bench, True)):
        archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", sha],
                                   stdout=subprocess.PIPE)
        with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
            for member in tar:
                if from_bench(member.name, bench_paths) == benchmark:
                    tar.extract(member, dest)
        if archive.wait() != 0:
            fail(f"git archive {sha} failed")
    stamp.write_text(f"src {src}\nbench {bench}\n")
    return dest


def run_once(root, workload, seconds, seed, trace):
    """One perfbench run in checkout `root`; returns its parsed record."""
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)  # each side builds in its own tree
    cmd = [sys.executable, str(root / "perfbench" / "run.py"),
           "--workload", workload, "--seconds", str(seconds),
           "--seed", str(seed), "--trace", str(trace)]
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                          text=True)
    lines = proc.stdout.splitlines()
    record = {"workload": workload, "exit": proc.returncode,
              "started": round(t0, 1), "wall_s": round(time.time() - t0, 1),
              "correct": False, "attempted": None, "failed": None,
              "metrics": {}, "steal_pct": None}
    for line in lines:
        m = HOST_LINE.match(line)
        if m:
            record["host"] = {"nproc": int(m.group(1)),
                              "cpu_model": m.group(2)}
            record["steal_pct"] = float(m.group(3))
    try:
        result = json.loads(lines[-1])
        record.update(correct=result["correct"],
                      attempted=result["attempted"], failed=result["failed"],
                      metrics={k: v["value"]
                               for k, v in result["metrics"].items()})
    except (IndexError, ValueError, KeyError, TypeError):
        record["stderr_tail"] = proc.stderr[-2000:]
    return record


def host_fingerprint(runs):
    host = next((r["host"] for r in runs if "host" in r), {})
    gov = pathlib.Path("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
    return {"nproc": host.get("nproc", os.cpu_count()),
            "cpu_model": host.get("cpu_model"),
            "governor": gov.read_text().strip() if gov.is_file() else None}


def campaign(args):
    base_sha = resolve(args.base)
    head_sha = resolve(args.head or git("stash", "create") or "HEAD")
    trees = side_trees(base_sha, head_sha)
    bench_sha = trees["change"][1]
    spec = json.loads(git("show", f"{bench_sha}:BENCHMARK.json"))
    bench_paths = [*spec["paths"], "BENCHMARK.json"]
    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else known
    for w in workloads:
        if w not in known:
            fail(f"unknown workload {w!r} (BENCHMARK.json has {known})")
    seconds = spec["run_seconds"]
    roots = {side: extract(*trees[side], bench_paths) for side in trees}
    doc = {"base": base_sha, "head": head_sha, "bench": bench_sha,
           "seconds": seconds,
           "seed": args.seed, "trace": args.trace,
           "pairs_requested": args.pairs, "workloads": workloads,
           "complete": False, "runs": []}
    out = pathlib.Path(args.out)

    def save():
        doc["host"] = host_fingerprint(doc["runs"])
        doc["summary"] = analyze(doc["runs"], spec, args.trace)
        out.write_text(json.dumps(doc, indent=1) + "\n")

    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change",
                                                            "parent")
        for w in workloads:
            for side in order:
                rec = run_once(roots[side], w, seconds, args.seed,
                               args.trace)
                rec.update(side=side, pair=pair, first=order[0] == side)
                doc["runs"].append(rec)
                print(f"pair {pair} {w} {side}: exit {rec['exit']} steal "
                      f"{rec['steal_pct']}% failed {rec['failed']}/"
                      f"{rec['attempted']} {rec['metrics']}", flush=True)
                save()
    doc["complete"] = True
    save()
    for w, entry in doc["summary"].items():
        if entry["refusals"]:
            print(f"{w}: no gain claimable: {'; '.join(entry['refusals'])}")
        for name, v in entry["metrics"].items():
            print(f"{w} {name}: {v['parent']['median']:.4g} -> "
                  f"{v['change']['median']:.4g} ({v['wins']}/{v['pairs']} "
                  f"won) {v.get('verdict', '')}")


# --------------------------------------------------------------- selftest
def selftest():
    spec = {"end_to_end": [
        {"name": "sat_rps", "better": "higher", "bound": 0.2},
        {"name": "get_p50_us", "better": "lower", "bound": 0.25},
        {"name": "setup_s", "better": "lower", "bound": 0.25},
        {"name": "rss_mb", "better": "lower", "bound": 0.1},
        {"name": "put_p50_us", "better": "lower", "bound": 0.25}]}
    parent = {"sat_rps": [80, 82, 84, 86, 88, 81, 83, 85, 87, 89],
              "get_p50_us": [20, 21, 22, 23, 24, 20, 21, 22, 23, 24],
              "setup_s": [1.0, 1.0, 1.0, 1.0, 3.0, 1.0, 1.0, 3.0, 3.0, 3.0],
              "rss_mb": [5.0] * 10,
              "put_p50_us": [20] * 7 + [200] * 3}
    change = {"sat_rps": [180, 190, 200, 210, 220, 185, 195, 205, 215, 70],
              "get_p50_us": [21, 22, 23, 24, 25, 21, 22, 23, 24, 25],
              "setup_s": [1.0] * 10,
              "rss_mb": [5.6] * 10,
              "put_p50_us": [10] * 10}

    def synth(failed_change=0, pairs=10, crashed=()):
        """Runs of both series; `crashed` pairs' change runs lack metrics."""
        runs = []
        for side, series in (("parent", parent), ("change", change)):
            for i in range(pairs):
                lost = side == "change" and i in crashed
                runs.append({
                    "workload": "w", "side": side, "pair": i,
                    "correct": not lost, "attempted": None if lost else 1000,
                    "failed": failed_change if side == "change" and i == 0
                    else 0,
                    "metrics": {} if lost else
                    {k: v[i] for k, v in series.items()}})
        return analyze(runs, spec)["w"]

    got = synth()
    checks = []

    def expect(cond, what):
        checks.append((cond, what))

    q = statistics.quantiles([80, 82, 84, 86, 88, 81, 83, 85, 87, 89], n=4)
    s = got["metrics"]["sat_rps"]
    expect(s["parent"]["median"] == 84.5, "median of 80..89 is 84.5")
    expect(abs(s["parent"]["iqr"] - (q[2] - q[0])) < 1e-12,
           "IQR is q3 - q1 of statistics.quantiles(n=4)")
    expect(abs(s["parent"]["q1"] - 81.75) < 1e-12, "q1 of 80..89 (exclusive)")
    expect(s["wins"] == 9 and s["pairs"] == 10, "9 of 10 pairs won")
    expect(s["verdict"] == "better" and got["refusals"] == [],
           "a 9/10, 2x gain with no failures is better")
    g = got["metrics"]["get_p50_us"]
    expect(g["wins"] == 0, "a lower-is-better loss in every pair wins none")
    expect(g["verdict"] == "within bound", "+4.5% p50 is within 0.25")
    st = got["metrics"]["setup_s"]
    expect(abs(st["parent"]["spread"] - 2.0) < 1e-12,
           "spread is IQR / median (2.0 / 1.0)")
    expect(st["verdict"] == "unresolved",
           "a parent spread above the bound is unresolved")
    pp = got["metrics"]["put_p50_us"]
    expect(pp["parent"]["spread"] > 0.25 and pp["verdict"] == "better",
           "every change run beating every parent run is better, "
           "whatever the spread")
    r = got["metrics"]["rss_mb"]
    expect(abs(r["relative_change"] - 0.12) < 1e-12, "+12% rss")
    expect(r["verdict"] == "worse", "+12% rss is worse against 0.1")

    more = synth(failed_change=1)
    fs = more["failed_share"]
    expect(fs["change"]["failed"] == 1 and fs["change"]["attempted"] == 10000
           and fs["parent"]["share"] == 0.0, "failed share sums every run")
    expect(more["metrics"]["sat_rps"]["verdict"] == "not claimable" and
           more["metrics"]["put_p50_us"]["verdict"] == "not claimable",
           "no gain is claimable when the change fails a larger share")
    expect(more["metrics"]["rss_mb"]["verdict"] == "worse" and
           more["metrics"]["get_p50_us"]["verdict"] == "within bound",
           "a refusal touches only the would-be gains")
    few = synth(pairs=3)
    expect(few["pairs"] == 3 and
           few["metrics"]["sat_rps"]["verdict"] == "not claimable",
           "3 pairs cannot claim a gain, even one every run shows")
    lost = synth(crashed=(9,))
    expect(lost["pairs"] == 9 and
           lost["failed_share"]["change"]["crashed_runs"] == 1 and
           lost["failed_share"]["parent"]["crashed_runs"] == 0,
           "a run without a result pairs with nothing and is counted")
    expect(lost["metrics"]["sat_rps"]["verdict"] == "not claimable",
           "a run without a result refuses the claim")

    # --trace 1: per-layer metrics are compared, never given a verdict.
    layer_spec = {"per_layer": [
        {"name": "server.queue_wait_p50_us", "better": "lower"},
        {"name": "asl.window_get_us", "better": "higher"}]}
    wait = {"parent": [7.7, 8.8, 8.0], "change": [1.0, 0.9, 9.0]}
    window = {"parent": [10.0, 10.0, 10.0], "change": [12.0, 10.0, 11.0]}
    traced = [{"workload": "w", "side": side, "pair": i, "correct": True,
               "attempted": 1000, "failed": 0,
               "metrics": {} if (side, i) == ("change", 3) else
               {"server.queue_wait_p50_us": (wait[side] + [0.0])[i],
                "asl.window_get_us": (window[side] + [0.0])[i],
                "get_p50_us": 5.0}}
              for side in ("parent", "change") for i in range(4)]
    layers = analyze(traced, layer_spec, trace=1)["w"]
    qw = layers["metrics"]["server.queue_wait_p50_us"]
    expect(qw["parent"]["median"] == 8.0 and qw["change"]["median"] == 1.0
           and qw["wins"] == 2 and qw["pairs"] == 3,
           "per-layer medians and pairs won (lower is better)")
    expect(layers["metrics"]["asl.window_get_us"]["wins"] == 2,
           "per-layer pairs won (higher is better, ties win nothing)")
    expect(all("verdict" not in v for v in layers["metrics"].values()) and
           "get_p50_us" not in layers["metrics"],
           "a traced campaign gives per-layer metrics and no verdict")
    expect(layers["failed_share"]["change"]["crashed_runs"] == 1 and
           layers["pairs"] == 3,
           "a traced run without a result is counted, as untraced")
    hl = HOST_LINE.match('host nproc=4 cpu_model="Intel(R) Xeon(R) '
                         'Processor" steal_ticks=12 steal_pct=0.37 seed=1')
    expect(hl is not None and hl.group(3) == "0.37",
           "the kvbench host line parses")

    # Which tree each side runs.
    expect(side_trees("b", "h") == {"parent": ("b", "h"),
                                    "change": ("h", "h")},
           "both sides run the change's benchmark")
    dirs = {tree_dir(*pair) for pair in (("b", "h"), ("b", "b"), ("h", "h"))}
    expect(len(dirs) == 3, "an extraction is keyed by both SHAs")
    paths = ["perfbench", "BENCHMARK.json"]
    expect(all(from_bench(f, paths) for f in
               ("perfbench", "perfbench/run.py", "BENCHMARK.json")),
           "the benchmark's files come from the benchmark's revision")
    expect(not any(from_bench(f, paths) for f in
                   ("src/server/request_queue.h", "perfbench_old/run.py",
                    "scripts/bench_ab.py", "BENCHMARK.json.orig")),
           "every other file comes from the side's own revision")
    bad = [what for ok, what in checks if not ok]
    for what in bad:
        print(f"selftest FAIL: {what}")
    print(f"bench_ab selftest: {len(checks) - len(bad)}/{len(checks)} passed")
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--base", help="parent revision (git rev)")
    ap.add_argument("--head", help="change revision (default: `git stash "
                    "create`, or HEAD when nothing is modified)")
    ap.add_argument("--workloads", help="comma-separated (default: all)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: traced runs, per-layer metrics, no verdict")
    ap.add_argument("--out", help="BENCH_<n>.json to write")
    args = ap.parse_args()
    if args.selftest:
        sys.exit(selftest())
    if not args.base or not args.out:
        fail("--base and --out are required (or --selftest)")
    if args.pairs < 1:
        fail("--pairs must be at least 1")
    campaign(args)


if __name__ == "__main__":
    main()
