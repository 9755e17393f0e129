"""Benchmark for the ``onng`` CLI.

    python3 perfbench/run.py --workload points|metric|exhaustive \\
        --seed N --seconds S --trace 0|1

Run from a checkout of the repository: the program is ``src/onng``, started
as ``python -m onng.cli`` with ``src`` on ``PYTHONPATH``.  One harness
process issues the workload's commands closed-loop, one at a time, each in a
fresh interpreter, and checks every output (``checks.py``).

``--trace 0`` generates the inputs ``SETUP_REPEATS`` times (``setup_s`` is
the median), then repeats the whole command list until ``--seconds`` have
passed and reports the median pass as ``wall_s`` and the largest peak RSS of
any command as ``peak_rss_mb``.  ``--trace 1`` makes one untraced pass and
one traced pass, in which ``tracer.py`` runs each command in-process with
spans around the calls into each layer, and reports the ``layers.PER_LAYER``
metrics.  End-to-end metrics are never taken from a traced run.

The last stdout line is the result object; the line before it records the
seed, each input file's sha256, each command's stdout sha256 and the
machine (nproc, Python, numpy).  Full results, and the spans of a traced
run, are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import checks
import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
COMMAND_TIMEOUT_S = 150
# End-to-end metrics and their units, as BENCHMARK.json lists them.
END_TO_END = {"wall_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}


@dataclass
class Outcome:
    exit_code: int
    wall_s: float
    rss_mib: float
    stdout: str
    digest: str


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, cid: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append({"cmd": cid, "problems": problems})


def _env() -> dict:
    env = dict(os.environ)
    # Let the interpreter cache onng's bytecode, as an installed package
    # would: the first set-up command compiles, and no timed command does.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], stdout_path: Path, env: dict) -> Outcome:
    """Run one process to completion; wall time, and peak RSS from wait4."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=env)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    data = stdout_path.read_bytes()
    return Outcome(proc.returncode, wall, usage.ru_maxrss / 1024,
                   data.decode("utf-8", "replace"), hashlib.sha256(data).hexdigest())


def onng(cmd: workloads.Command) -> list[str]:
    return [sys.executable, "-m", "onng.cli", *cmd.argv]


def traced(cmd_id: str, argv, spans: Path, stdout: Path) -> list[str]:
    return [sys.executable, str(HERE / "tracer.py"), cmd_id, str(spans), str(stdout), "--", *argv]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _output_file(cmd: workloads.Command) -> Path:
    return ROOT / cmd.argv[cmd.argv.index("-o") + 1]


def set_up(wl: workloads.Workload, env: dict, tally: Tally, run_dir: Path, repeats: int):
    """Write the inputs ``repeats`` times; every repeat must give the same
    bytes.  Returns each repeat's seconds and the inputs' sha256."""
    times, first = [], None
    for r in range(repeats):
        start = time.perf_counter()
        results = [(g, spawn(onng(g), run_dir / "stdout" / f"setup{r}.{g.cid}.out", env)) for g in wl.gens]
        for path, perm in wl.order_files.items():
            (ROOT / path).write_text("".join(f"{v}\n" for v in perm), encoding="utf-8")
        times.append(time.perf_counter() - start)
        hashes = {str(_output_file(g).relative_to(ROOT)): _sha256(_output_file(g)) for g in wl.gens}
        hashes.update({p: _sha256(ROOT / p) for p in wl.order_files})
        first = first or hashes
        for g, res in results:
            problems = checks.check_result(res.exit_code, res.stdout, g.expect)
            key = str(_output_file(g).relative_to(ROOT))
            if hashes[key] != first[key]:
                problems.append("generated input differs from the first set-up's")
            tally.record(g.cid, problems)
    return times, first


def run_pass(wl: workloads.Workload, env: dict, tally: Tally, run_dir: Path, tag: str, digests: dict):
    """One closed-loop pass over the command list; returns its wall time and
    each command's outcome.  Every output is checked after the pass."""
    outcomes = {}
    start = time.perf_counter()
    for cmd in wl.commands:
        outcomes[cmd.cid] = spawn(onng(cmd), run_dir / "stdout" / f"{tag}.{cmd.cid}.out", env)
    wall = time.perf_counter() - start
    for cmd in wl.commands:
        _check(cmd, outcomes[cmd.cid], tally, digests)
    return wall, outcomes


def _check(cmd, res: Outcome, tally: Tally, digests: dict, cid: str | None = None) -> list[str]:
    """Check one run of ``cmd``, including that its stdout has the same bytes
    as the command's first run; ``digests`` holds each first digest."""
    problems = checks.check_result(res.exit_code, res.stdout, cmd.expect)
    problems += checks.same_stdout(digests.setdefault(cmd.cid, res.digest), res.digest)
    tally.record(cid or cmd.cid, problems)
    return problems


def measure(wl, env, tally, run_dir, seconds: float, digests: dict) -> dict:
    setup, _ = set_up(wl, env, tally, run_dir, SETUP_REPEATS)
    walls, rss, per_pass = [], 0.0, []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, outcomes = run_pass(wl, env, tally, run_dir, f"pass{len(walls)}", digests)
        walls.append(wall)
        rss = max([rss, *(o.rss_mib for o in outcomes.values())])
        per_pass.append({"wall_s": wall, "commands": {c: {"wall_s": o.wall_s, "rss_mib": o.rss_mib}
                                                      for c, o in outcomes.items()}})
    values = {"wall_s": statistics.median(walls), "peak_rss_mb": rss, "setup_s": statistics.median(setup)}
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    return {"metrics": metrics, "setup_s": setup, "passes": per_pass}


def _trace_one(cmd_id: str, argv, run_dir: Path, env: dict):
    spans = run_dir / "spans" / f"{cmd_id}.json"
    res = spawn(traced(cmd_id, argv, spans, run_dir / "stdout" / f"traced.{cmd_id}.out"),
                run_dir / "stdout" / f"traced.{cmd_id}.log", env)
    if res.exit_code == 0 and spans.is_file():
        doc = json.loads(spans.read_text(encoding="utf-8"))
        res.stdout = (run_dir / "stdout" / f"traced.{cmd_id}.out").read_text(encoding="utf-8")
        res.digest = hashlib.sha256(res.stdout.encode("utf-8")).hexdigest()
        return res, doc
    return res, None


def measure_traced(wl, env, tally, run_dir, digests: dict) -> dict:
    (run_dir / "spans").mkdir()
    (run_dir / "traced_inputs").mkdir()
    _, inputs = set_up(wl, env, tally, run_dir, 1)
    untraced_wall, _ = run_pass(wl, env, tally, run_dir, "untraced", digests)

    setup_docs = []
    for g in wl.gens:
        out = run_dir / "traced_inputs" / _output_file(g).name
        argv = [*g.argv[: g.argv.index("-o")], "-o", str(out)]
        res, doc = _trace_one(f"setup.{g.cid}", argv, run_dir, env)
        problems = checks.check_result(res.exit_code, res.stdout, g.expect)
        if doc is None:
            problems.append("traced run wrote no spans")
        elif _sha256(out) != inputs[str(_output_file(g).relative_to(ROOT))]:
            problems.append("traced set-up wrote other bytes than the untraced one")
        tally.record(f"setup.{g.cid}", problems)
        setup_docs.append(doc or {"spans": []})

    cmd_docs, reports, walls, jobs1 = [], {}, {}, {}
    start = time.perf_counter()
    for cmd in wl.commands:
        res, doc = _trace_one(cmd.cid, cmd.argv, run_dir, env)
        walls[cmd.cid] = res.wall_s
        if not _check(cmd, res, tally, digests) and doc is not None:
            cmd_docs.append(doc)
            reports[cmd.cid] = json.loads(res.stdout)
    traced_wall = time.perf_counter() - start
    for cmd in wl.commands:
        if "--jobs" in cmd.argv and cmd.argv[cmd.argv.index("--jobs") + 1] != "1":
            argv = list(cmd.argv)
            argv[argv.index("--jobs") + 1] = "1"
            res, doc = _trace_one(f"{cmd.cid}.jobs1", argv, run_dir, env)
            _check(cmd, res, tally, digests, cid=f"{cmd.cid}.jobs1")
            if doc is not None:
                jobs1[cmd.cid] = doc
    if len(cmd_docs) < len(wl.commands):
        tally.record("trace", ["a traced command failed or wrote no spans"])
        return {"metrics": {}}

    values = layers.per_layer(cmd_docs, setup_docs, reports, walls, jobs1, traced_wall, untraced_wall)
    units = {name: unit for name, unit, *_ in layers.PER_LAYER}
    all_docs = [*setup_docs, *cmd_docs, *jobs1.values()]
    (run_dir / "spans.json").write_text(json.dumps(all_docs), encoding="utf-8")
    return {
        "metrics": {name: (values[name], units[name]) for name in units},
        "layer_self_s": layers.layer_self_times(cmd_docs),
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "mapping": [dict(zip(("name", "unit", "better", "moves", "on"), row)) for row in layers.PER_LAYER],
    }


def machine() -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy,
            "platform": platform.platform()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the onng CLI.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "onng" / "cli.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'onng'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "inputs").mkdir(parents=True)
    (run_dir / "stdout").mkdir()
    wl = workloads.build(args.workload, args.seed, str((run_dir / "inputs").relative_to(ROOT)))
    env, tally, digests = _env(), Tally(), {}
    if args.trace:
        result = measure_traced(wl, env, tally, run_dir, digests)
    else:
        result = measure(wl, env, tally, run_dir, args.seconds, digests)

    inputs = {p.name: _sha256(p) for p in sorted((run_dir / "inputs").iterdir())}
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "machine": machine(), "inputs_sha256": inputs,
        "stdout_sha256": digests,
        "attempted": tally.attempted, "failed": tally.failed,
        "fail_frac": tally.failed / max(1, tally.attempted), "problems": tally.problems,
        **{k: v for k, v in result.items() if k != "metrics"},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    shutil.rmtree(run_dir / "inputs")
    shutil.rmtree(run_dir / "stdout")
    for temp in ("traced_inputs", "spans"):
        shutil.rmtree(run_dir / temp, ignore_errors=True)
    for p in tally.problems:
        print(f"perfbench: FAILED {p['cmd']}: {'; '.join(p['problems'])}", file=sys.stderr)
    print(json.dumps({k: record[k] for k in ("workload", "seed", "machine", "inputs_sha256",
                                             "stdout_sha256", "fail_frac")}, sort_keys=True))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
