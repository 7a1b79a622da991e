#!/usr/bin/env python3
"""Build and run the DiCE benchmark.  Run from the repository root.

  python3 dicebench/run.py --workload NAME --seed N --seconds S --trace 0|1
      Build the harness from source (dune), run one workload, print its
      report; the last line of stdout is the JSON result.

  python3 dicebench/run.py steady [--runs N] [--seconds S] [--seed-base K]
                                  [--workloads a,b,...]
      Run every workload N times, alternating between workloads, each
      run with its own seed, and print the median and quartiles of
      every metric, and each metric's quartile spread as a share of its
      median.

  python3 dicebench/run.py freeze
      Rebuild the frozen corpus dicebench/corpus from examples/corpus
      and check that every copied entry still replays.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = "dicebench"
EXE = os.path.join("_build", "default", HERE, "main.exe")
WORKLOADS = ["demo27-faults", "gadget-wheel", "gr250-explore", "corpus-repair"]


def die(msg):
    print(f"dicebench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("run from the repository root: no dune-project or lib/ here")
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    if not dune and not shutil.which("opam"):
        die("neither dune nor opam is on PATH")
    # The shared dune cache lives outside the checkout; keep every write
    # of the build inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        cmd + ["build", "--root", ".", "./" + HERE + "/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if r.returncode != 0 or not os.path.isfile(EXE):
        die("build failed")


def run_one(args, capture=False):
    r = subprocess.run([EXE] + args, stdout=subprocess.PIPE if capture else None,
                       text=True)
    return r


def steady(argv):
    opts = {"runs": "10", "seconds": "10", "seed-base": "1",
            "workloads": ",".join(WORKLOADS)}
    i = 0
    while i < len(argv):
        key = argv[i].lstrip("-")
        if key not in opts or i + 1 >= len(argv):
            die(f"steady: unknown or incomplete option {argv[i]}")
        opts[key] = argv[i + 1]
        i += 2
    workloads = opts["workloads"].split(",")
    runs, base = int(opts["runs"]), int(opts["seed-base"])
    results = {w: [] for w in workloads}
    for k in range(runs):
        for w in workloads:
            seed = base + k
            r = run_one(["--workload", w, "--seed", str(seed), "--seconds",
                         opts["seconds"], "--trace", "0"], capture=True)
            lines = r.stdout.strip().splitlines()
            if r.returncode != 0 or not lines:
                die(f"{w} seed {seed} exited {r.returncode}")
            res = json.loads(lines[-1])
            results[w].append(res)
            print(f"{w} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                  flush=True)
    print()
    for w in workloads:
        rs = results[w]
        shares = sorted({r["failed"] / r["attempted"] for r in rs})
        print(f"{w}: {len(rs)} runs, all correct={all(r['correct'] for r in rs)}, "
              f"failed share={shares}")
        for name in rs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in rs]
            unit = rs[0]["metrics"][name]["unit"]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:34s} median {med:12.6g} {unit:7s} q1 {q1:12.6g} "
                  f"q3 {q3:12.6g} spread {100 * spread:6.2f}%")


def main():
    argv = sys.argv[1:]
    build()
    if argv[:1] == ["steady"]:
        steady(argv[1:])
    elif argv == ["freeze"]:
        sys.exit(run_one(["freeze", os.path.join("examples", "corpus"),
                          os.path.join(HERE, "corpus")]).returncode)
    else:
        sys.exit(run_one(argv).returncode)


if __name__ == "__main__":
    main()
