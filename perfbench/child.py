"""Workload process: closed-loop passes of one workload through the public CLI.

Started by run.py with PYTHONPATH pointing at the checkout's `src` and
STUBBORN_THREADS set.  One client: each pass starts after the previous one
ends.  A warm-up pass sets the reference bytes and is checked against the
seed-commit reference values; every later pass must write the same bytes.
With --trace 1 traced and untraced passes alternate, so the per-layer
figures and the tracing overhead come from the same process.

Writes one JSON result file; stdout is not used (`validate` prints to it).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _outputs(cmd_dir: Path) -> dict[str, Path]:
    return {p.name: p for p in sorted(cmd_dir.iterdir()) if p.name != "manifest.json"}


def run_pass(cli, steps: list[tuple[str, str, object]], out: Path, tracer) -> dict:
    """One pass: every (scenario, command, config) step, timed, then inspected."""
    uninstall = tracing.install(tracer) if tracer is not None else None
    codes, crash = [], None
    cpu0, t0 = _cpu_s(), time.perf_counter()
    try:
        for scenario, command, config in steps:
            codes.append(cli.run_command(command, config, str(out / scenario / command)))
    except Exception:  # noqa: BLE001 - a crashing pass is a failed pass
        crash = traceback.format_exc(limit=5)
    finally:
        wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
        if uninstall is not None:
            uninstall()
    errors = [crash] if crash else []
    errors += [f"{c}: exit code {rc}" for (_, c, _), rc in zip(steps, codes) if rc != 0]
    files: dict[str, dict[str, Path]] = {}
    digest = hashlib.sha256()
    for scenario, command, _ in steps if not crash else ():
        cmd_dir = out / scenario / command
        manifest = json.loads((cmd_dir / "manifest.json").read_text(encoding="utf-8"))
        if manifest.get("status") != "ok":
            errors.append(f"{command}: manifest status {manifest.get('status')}: {manifest.get('error')}")
        for name, path in _outputs(cmd_dir).items():
            files.setdefault(scenario, {})[name] = path
            digest.update(f"{scenario}/{name}".encode() + b"\0" + path.read_bytes())
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "traced": tracer is not None,
        "errors": errors,
        "digest": digest.hexdigest(),
        "files": files,
    }


def _gate(wl, raws: dict[str, dict], files: dict[str, dict[str, Path]]) -> list[str]:
    """Reference checks of the warm-up pass, scenario by scenario."""
    reference = workloads.load_reference()
    errors = []
    for sc in wl.scenarios:
        try:
            errors += sc.gate(raws[sc.name], files.get(sc.name, {}), reference[sc.name])
        except Exception as exc:  # noqa: BLE001 - unreadable outputs fail the gate
            errors.append(f"{sc.name}: gate could not read the outputs: {type(exc).__name__}: {exc}")
    return errors


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--config-dir", required=True, help="holds <scenario>.json for each scenario")
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    from stubborn import cli

    wl = workloads.WORKLOADS[args.workload]
    paths = {sc.name: Path(args.config_dir) / f"{sc.name}.json" for sc in wl.scenarios}
    raws = {name: json.loads(p.read_text(encoding="utf-8")) for name, p in paths.items()}
    steps = []
    for sc in wl.scenarios:
        config = cli.load_config(str(paths[sc.name]))
        steps += [(sc.name, command, config) for command in sc.commands]
    out = Path(args.out)
    tracer = tracing.Tracer() if args.trace else None

    warm = run_pass(cli, steps, out, None)
    if not warm["errors"]:
        warm["errors"] = _gate(wl, raws, warm["files"])
    written = [p for scenario_files in warm["files"].values() for p in scenario_files.values()]
    output = {
        "bytes_written": sum(p.stat().st_size for p in written),
        "rows_written": sum(p.read_bytes().count(b"\n") - 1 for p in written if p.suffix == ".csv"),
        "files": {p.name: p.stat().st_size for p in written},
    }

    passes = [warm]
    started = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        p = run_pass(cli, steps, out, tracer if traced else None)
        if not p["errors"] and p["digest"] != warm["digest"]:
            p["errors"] = ["output bytes differ from the warm-up pass"]
        elif not p["errors"] and warm["errors"]:
            p["errors"] = ["same output bytes as the failing warm-up pass"]
        passes.append(p)
        # Stop once the next pass would end further past --seconds than this
        # one ends before it, so a run measures --seconds give or take half a pass.
        typical = statistics.median(q["wall_s"] for q in passes[1:])
        if time.perf_counter() - started + typical / 2 >= args.seconds and (not args.trace or len(passes) >= 3):
            break

    result = {
        "workload": wl.name,
        "seed": next(iter(raws.values()))["numerics"]["seed"],
        "work_per_pass": wl.work(raws),
        "work_unit": wl.work_unit,
        "output": output,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": sys.modules["numpy"].__version__,
            "scipy": sys.modules["scipy"].__version__ if "scipy" in sys.modules else None,
            "stubborn": cli.__version__,
        },
        "passes": [{k: p[k] for k in ("wall_s", "cpu_s", "traced", "errors")} for p in passes],
    }
    if tracer is not None:
        spans, counters = tracer.collect()
        n_traced = sum(p["traced"] for p in passes)
        result["layers"] = tracing.layer_metrics(spans, counters, n_traced)
        result["unwrapped"] = sorted(tracer.missing)
        with open(out.parent / "spans.jsonl", "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    Path(args.result).write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
