#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload apps-par --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-check

A run builds perfbench/main.exe with dune, runs it in its own process
group, and passes its standard output through; the last line is the
result object.  Run records and Chrome traces go to perfbench/out/.
The self-check runs every workload at tiny sizes, traced and untraced,
and checks the emitted metric names against BENCHMARK.json, the span
tree of each trace, and that a corrupted sink result counts as failed.
"""

import json
import os
import signal
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
OUT = os.path.join("perfbench", "out")
# A run must end within 180 s; leave room for the process group kill.
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            die("run from the root of a checkout (missing %s)" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
    )
    if r.returncode != 0:
        die("build failed", 3)


def run_exe(args, timeout=RUN_TIMEOUT_S, quiet=False):
    """Run main.exe in its own process group; return (code, stdout)."""
    p = subprocess.Popen(
        [EXE] + args,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL if quiet else None,
        start_new_session=True,
        text=True,
    )
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        # Pool workers share the group: stop all of them, then reap.
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        return (124, "")
    return (p.returncode, out)


def result_of(out):
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


# ---------------------------------------------------------------------
# Self-check
# ---------------------------------------------------------------------


def check_names(spec, res, trace, where):
    want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = set(res["metrics"])
    errs = []
    if want - got:
        errs.append("%s: missing %s" % (where, sorted(want - got)))
    if got - want:
        errs.append("%s: not in BENCHMARK.json %s" % (where, sorted(got - want)))
    return errs


def check_spans(path, where):
    """Every bench span's parent exists and encloses it; a job's spans
    share its id."""
    with open(path) as f:
        doc = json.load(f)
    events = doc["traceEvents"] if isinstance(doc, dict) else doc
    spans = {}
    for e in events:
        if e.get("cat") == "bench" and e.get("ph") == "X":
            a = e["args"]
            spans[a["id"]] = (a["parent"], a["job"], e["ts"], e["ts"] + e["dur"], e["name"])
    errs = []
    if not any(s[4] == "job" for s in spans.values()):
        errs.append("%s: no job spans" % where)
    for sid, (parent, job, t0, t1, name) in spans.items():
        if parent == 0:
            continue
        if parent not in spans:
            errs.append("%s: span %d (%s) has no parent %d" % (where, sid, name, parent))
            continue
        p_job, p0, p1 = spans[parent][1], spans[parent][2], spans[parent][3]
        if p_job != 0 and p_job != job:
            errs.append("%s: span %d (%s) in job %d under job %d" % (where, sid, name, job, p_job))
        if t0 < p0 - 1 or t1 > p1 + 1:
            errs.append("%s: span %d (%s) outside its parent" % (where, sid, name))
    if any(s[4] == "job" and s[1] == 0 for s in spans.values()):
        errs.append("%s: a job span has no job id" % where)
    return errs


def self_check():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    errs = []
    seed = 7
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            where = "%s trace=%d" % (name, trace)
            args = ["--workload", name, "--seed", str(seed), "--seconds", "2",
                    "--trace", str(trace), "--size", "tiny"]
            code, out = run_exe(args)
            res = result_of(out)
            if code != 0 or res is None:
                errs.append("%s: exit %d, no result" % (where, code))
                continue
            if not res["correct"] or res["failed"] != 0:
                errs.append("%s: %d of %d jobs failed" % (where, res["failed"], res["attempted"]))
            errs += check_names(spec, res, trace, where)
            if trace:
                errs += check_spans(
                    os.path.join(OUT, "trace-%s-seed%d.json" % (name, seed)), where)
        # A corrupted sink result must count as a failure.
        args = ["--workload", name, "--seed", str(seed), "--seconds", "1",
                "--trace", "0", "--size", "tiny", "--corrupt-every", "3"]
        code, out = run_exe(args, quiet=True)
        res = result_of(out)
        rec = os.path.join(OUT, "run-%s-seed%d-trace0.json" % (name, seed))
        if code != 0 or res is None:
            errs.append("%s corrupt: exit %d, no result" % (name, code))
        else:
            with open(rec) as f:
                corrupted = json.load(f)["corrupted"]
            if corrupted == 0 or res["failed"] != corrupted or res["correct"]:
                errs.append("%s corrupt: %d corrupted, %d failed, correct=%s"
                            % (name, corrupted, res["failed"], res["correct"]))
    for e in errs:
        print("FAIL " + e)
    print("self-check: %s" % ("ok" if not errs else "%d problem(s)" % len(errs)))
    return 0 if not errs else 1


def main():
    args = sys.argv[1:]
    build()
    if args == ["--self-check"]:
        sys.exit(self_check())
    code, out = run_exe(args)
    if code != 0 or result_of(out) is None:
        die("benchmark exited with code %d" % code, code or 1)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
