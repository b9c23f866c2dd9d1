#!/usr/bin/env python3
"""Same-host A/B performance gate: perfbench on a base revision against
HEAD.

Usage, from anywhere in the repository:

    python3 scripts/perf_gate.py [<base-rev>]      # default HEAD~1

Both sides are commits: uncommitted changes are not measured. The gate
checks `<base-rev>` out in a temporary `git worktree` and builds
perfbench there through `perfbench/run.py` (offline), then checks HEAD
out in the same worktree and builds it again. Each side gets its own
target directory, so neither build overwrites the other's binary. Both
build at the same path because the symbol hashes of perfbench's path
dependencies depend on the checkout's absolute path: two checkouts of
one commit at different paths link to different code layouts, which
moved `paper-sweep`'s `run_s` by 3 % in 9 of 10 pairs. At one path they
link to the same binary.

It then runs PAIRS alternating base/HEAD pairs of
`--trace 0 --seconds SECONDS` per workload of HEAD's `BENCHMARK.json`,
at each workload's default seed, prints one row per workload and
end-to-end metric and exits 1 when:

- a run on either side reports `correct: false` or `failed > 0`;
- a metric's HEAD median is worse than the base median by more than the
  metric's `bound` in `BENCHMARK.json`;
- `run_s` is worse in at least 9/10 of the pairs AND the medians differ
  by more than the base's interquartile range (the benchmark's rule for
  claiming a gain, mirrored).

Only two builds on the same host are ever compared, so no absolute
number is a floor. With PAIRS = 10 and SECONDS = 2 a gate run takes
about 4.5 minutes on a 2-vCPU guest. There it failed on an 11-21 %
slowdown injected into each of the fan-out, the channel, the scheduler,
the report build and the per-cell delivery path, on the workload that
stresses each, and passed HEAD against itself 5 times out of 5
(CHANGES.md records every run).
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

PAIRS = 10
SECONDS = 2
# The mirrored gain rule: HEAD worse in at least this share of the pairs.
PAIR_SHARE = 0.9
# The only metric the pair rule applies to.
PAIR_METRIC = "run_s"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(xs):
    """(Q1, median, Q3) of `xs`, inclusive method."""
    return tuple(statistics.quantiles(xs, n=4, method="inclusive"))


def verdict(base, head, end_to_end):
    """Judges one workload.

    `base` and `head` are the parsed result lines of its runs, pair `i`
    being `(base[i], head[i])`; `end_to_end` is `BENCHMARK.json`'s list.
    Returns `(rows, failures)`: one row per metric and the reasons the
    workload fails (empty when it passes).
    """
    failures = []
    for side, runs in (("base", base), ("HEAD", head)):
        bad = sum(1 for r in runs if not r["correct"] or r["failed"] > 0)
        if bad:
            failures.append(f"{side}: {bad} of {len(runs)} runs incorrect or failed")
    rows = []
    for m in end_to_end:
        name = m["name"]
        try:
            b = [r["metrics"][name]["value"] for r in base]
            h = [r["metrics"][name]["value"] for r in head]
        except KeyError:
            failures.append(f"{name}: missing from a result")
            continue
        # Positive means HEAD is worse.
        sign = 1 if m["better"] == "lower" else -1
        qb, qh = quartiles(b), quartiles(h)
        worse = sign * (qh[1] - qb[1]) + 0.0  # no "-0.0%" rows
        rel = worse / abs(qb[1]) if qb[1] else (float("inf") if worse > 0 else 0.0)
        losses = sum(1 for x, y in zip(b, h) if sign * (y - x) > 0)
        reasons = []
        if rel > m["bound"]:
            reasons.append(f"median {rel:+.1%} worse, bound {m['bound']:.0%}")
        if (
            name == PAIR_METRIC
            and losses >= PAIR_SHARE * len(b)
            and worse > qb[2] - qb[0]
        ):
            reasons.append(f"worse in {losses}/{len(b)} pairs by more than the base IQR")
        failures += [f"{name}: {r}" for r in reasons]
        rows.append((name, qb, qh, rel, losses, len(b), "FAIL" if reasons else "ok"))
    return rows, failures


def git(*args):
    out = subprocess.run(["git", "-C", ROOT, *args], stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        raise SystemExit(f"perf_gate: git {' '.join(args)} failed")
    return out.stdout.strip()


def build(src, rev, target):
    """Checks commit `rev` out at `src` and builds perfbench into
    `target`; returns the binary's path."""
    git("-C", src, "checkout", "--quiet", "--detach", rev)
    if not os.path.exists(os.path.join(src, "perfbench", "run.py")):
        raise SystemExit(f"perf_gate: {rev} has no perfbench/run.py")
    out = subprocess.run(
        [sys.executable, os.path.join(src, "perfbench", "run.py")],
        cwd=src,
        env=dict(os.environ, CARGO_TARGET_DIR=target),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    # run.py builds, then runs the benchmark with the arguments it was
    # given: with none, the benchmark prints its usage and exits 2. A
    # failed build exits 1.
    if out.returncode != 2:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"perf_gate: building perfbench at {rev} failed")
    return os.path.join(target, "release", "mobicache-perfbench")


def run(binary, workload):
    """One perfbench run; returns its result line."""
    args = ["--workload", workload, "--seconds", str(SECONDS), "--trace", "0"]
    out = subprocess.run(
        [binary, *args], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"perf_gate: {binary} {' '.join(args)} exited {out.returncode}")
    return json.loads(lines[-1])


def fmt(q):
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def main(argv):
    if len(argv) > 1 or (argv and argv[0].startswith("-")):
        print("usage: perf_gate.py [<base-rev>]", file=sys.stderr)
        return 2
    rev = argv[0] if argv else "HEAD~1"
    tmp = tempfile.mkdtemp(prefix="perf-gate-")
    src = os.path.join(tmp, "src")
    failed = []
    try:
        # Resolved here: inside the worktree, HEAD is the worktree's own.
        commits = [git("rev-parse", "--verify", f"{r}^{{commit}}") for r in (rev, "HEAD")]
        git("worktree", "add", "--quiet", "--detach", src, commits[0])
        binary = {
            "base": build(src, commits[0], os.path.join(tmp, "target-base")),
            "HEAD": build(src, commits[1], os.path.join(tmp, "target-head")),
        }
        with open(os.path.join(src, "BENCHMARK.json")) as f:
            bench = json.load(f)
        print(f"perf_gate: {rev} vs HEAD, {PAIRS} pairs x {SECONDS} s per workload")
        print(f"{'workload':<14}{'metric':<32}{'base median [Q1, Q3]':<34}"
              f"{'HEAD median [Q1, Q3]':<34}{'worse by':>9}{'pairs':>7}  verdict")
        for w in bench["workloads"]:
            name = w["name"]
            res = {"base": [], "HEAD": []}
            for i in range(PAIRS):
                for side in ("base", "HEAD") if i % 2 == 0 else ("HEAD", "base"):
                    res[side].append(run(binary[side], name))
            rows, why = verdict(res["base"], res["HEAD"], bench["end_to_end"])
            for metric, qb, qh, rel, losses, n, v in rows:
                print(f"{name:<14}{metric:<32}{fmt(qb):<34}{fmt(qh):<34}"
                      f"{rel:>+9.1%}{f'{losses}/{n}':>7}  {v}", flush=True)
            failed += [f"{name} {r}" for r in why]
    finally:
        subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force", src],
                       stderr=subprocess.DEVNULL)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "-C", ROOT, "worktree", "prune"])
    for r in failed:
        print(f"perf_gate: FAIL {r}")
    print("perf_gate: " + ("FAIL" if failed else "PASS"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
