"""Benchmark of the stubborn CLI: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload monte_carlo --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # table of every workload

Run from the root of a checkout.  The program is used from the checkout's
`src/` (no install step); a directory without it is refused with exit 2.

A run starts one workload process (child.py) that loads the config through
`cli.load_config` and repeats the workload's commands through
`cli.run_command` for --seconds after a warm-up pass, then times three
fresh interpreters that import `stubborn.cli` and load the config.
With --trace 0 the last line carries the end-to-end metrics, with
--trace 1 the per-layer metrics; both list attempted and failed passes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 3
CHILD_TIMEOUT_S = 150.0

# A fresh interpreter: import the CLI, then load the config (setup_s).
PROBE = (
    "import sys, time\n"
    "import stubborn.cli as cli\n"
    "t1 = time.clock_gettime(time.CLOCK_MONOTONIC)\n"
    "cli.load_config(sys.argv[1])\n"
    "print(t1, time.clock_gettime(time.CLOCK_MONOTONIC))\n"
)


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a failed pass)."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def machine() -> dict:
    """nproc, CPU model and cache sizes of the machine running the benchmark."""
    model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        "unknown",
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        if level in ("2", "3"):
            caches[f"L{level}" + ("" if kind == "Unified" else f"-{kind}")] = _read(f"{index}/size")
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model, "caches": caches}


def _wait(proc: subprocess.Popen, deadline: float):
    """Reap proc and return its resource usage; kill it at the deadline."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage
        if _now() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise BenchError(f"workload process killed after {CHILD_TIMEOUT_S} s")
        time.sleep(0.05)


def setup_times(config_path: Path, env: dict) -> list[tuple[float, float]]:
    """(import_s, config_s) of SETUP_PROBES fresh interpreters."""
    out = []
    for _ in range(SETUP_PROBES):
        t0 = _now()
        proc = subprocess.run(
            [sys.executable, "-c", PROBE, str(config_path)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed: {proc.stderr.strip()[-2000:]}")
        t1, t2 = (float(v) for v in proc.stdout.split())
        out.append((t1 - t0, t2 - t1))
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload once; returns the raw record (passes, usage, setup, env)."""
    wl = workloads.WORKLOADS[name]
    work = ROOT / ".perfbench_out" / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    configs = wl.configs(seed)
    for scenario, cfg in configs.items():
        (work / f"{scenario}.json").write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), STUBBORN_THREADS=str(nproc), PYTHONHASHSEED="0")

    result_path = work / "child.json"
    with open(work / "child.log", "w", encoding="utf-8") as log:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), "--workload", name,
             "--config-dir", str(work), "--out", str(work / "out"),
             "--seconds", str(seconds), "--trace", str(int(trace)), "--result", str(result_path)],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=log,
        )
        usage = _wait(proc, _now() + CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"workload process exited {proc.returncode}: {_read(str(work / 'child.log'))[-3000:]}")
    record = json.loads(result_path.read_text(encoding="utf-8"))
    shutil.rmtree(work / "out")
    record["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    record["setup"] = setup_times(work / f"{wl.scenarios[0].name}.json", env)
    record["environment"] = dict(machine(), STUBBORN_THREADS=env["STUBBORN_THREADS"], **record["versions"])
    record["computed_bytes_moved"] = {
        "value": wl.bytes_moved(configs),
        "basis": "computed from the config, not measured: " + wl.bytes_moved_basis,
    }
    (work / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return record


def _failed(record: dict) -> int:
    return sum(bool(p["errors"]) for p in record["passes"])


def end_to_end(record: dict) -> dict[str, float]:
    wall = statistics.median(p["wall_s"] for p in record["passes"][1:])
    attempted = len(record["passes"])
    return {
        "setup_s": statistics.median(a + b for a, b in record["setup"]),
        "wall_s": wall,
        "throughput": record["work_per_pass"] / wall,
        "peak_rss_mb": record["peak_rss_mb"],
        "success_rate": (attempted - _failed(record)) / attempted,
    }


def per_layer(record: dict) -> dict[str, float]:
    passes = record["passes"][1:]
    traced = [p["wall_s"] for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    out = dict(record["layers"])
    out.update({
        "setup.import_s": statistics.median(a for a, _ in record["setup"]),
        "setup.config_s": statistics.median(b for _, b in record["setup"]),
        "process.cpu_s": statistics.median(p["cpu_s"] for p in plain),
        "process.cpu_util": statistics.median(p["cpu_s"] / p["wall_s"] for p in plain),
        "trace.overhead": statistics.median(traced) / statistics.median(p["wall_s"] for p in plain) - 1.0,
        "cli.rows_written": record["output"]["rows_written"],
        "cli.bytes_written": record["output"]["bytes_written"],
    })
    return out


def result_line(record: dict, specs: list[dict], values: dict[str, float]) -> dict:
    failed = _failed(record)
    return {
        "correct": failed == 0,
        "attempted": len(record["passes"]),
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in specs},
    }


def _report(record: dict) -> None:
    """Human-readable lines before the result: environment, sizes, failures."""
    print(json.dumps({"environment": record["environment"], "seed": record["seed"]}, sort_keys=True))
    print(json.dumps({
        "workload": record["workload"],
        "work_per_pass": record["work_per_pass"],
        "work_unit": record["work_unit"],
        "output_bytes": record["output"]["files"],
        "computed_bytes_moved": record["computed_bytes_moved"],
    }, sort_keys=True))
    for i, p in enumerate(record["passes"]):
        for err in p["errors"][:3]:
            print(f"pass {i} failed: {err}", file=sys.stderr)
    if record.get("unwrapped"):
        print(f"not traced (function missing): {record['unwrapped']}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    bench_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "stubborn" / "cli.py").is_file() or not bench_path.is_file():
        print(f"error: no stubborn source tree (src/stubborn) under {ROOT}", file=sys.stderr)
        return 2
    bench = json.loads(bench_path.read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    derive = per_layer if args.trace else end_to_end
    try:
        if args.workload != "all":
            record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
            _report(record)
            print(json.dumps(result_line(record, specs, derive(record))))
            return 0
        lines = {}
        for name in names:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace))
            line = result_line(record, specs, derive(record))
            lines[name] = line
            error_rate = line["failed"] / line["attempted"]
            print(f"{name}: attempted {line['attempted']} passes, error_rate {error_rate:.4g}, "
                  f"{record['work_per_pass']} {record['work_unit']} per pass")
            for metric, m in line["metrics"].items():
                print(f"  {metric:40s} {m['value']:>14.6g} {m['unit']}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": all(v["correct"] for v in lines.values()),
        "attempted": sum(v["attempted"] for v in lines.values()),
        "failed": sum(v["failed"] for v in lines.values()),
        "metrics": {f"{w}.{k}": m for w, v in lines.items() for k, m in v["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
