"""Self-test of the benchmark harness (not part of the package's test suite).

    python3 perfbench/selftest.py

* span arithmetic: union and self time on a synthetic nested and
  overlapping span set, and parent links across a worker-thread fan-out;
* transparency: for every command, a traced pass writes the same bytes
  as an untraced pass, and uninstalling restores every original binding;
* the correctness gate accepts the reference values and rejects a wrong
  number in each output it checks.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import child  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORK = HERE.parent / ".perfbench_out" / "selftest"
SCENARIOS = {sc.name: sc for wl in workloads.WORKLOADS.values() for sc in wl.scenarios}


def test_union_length() -> None:
    assert tracing.union_length([]) == 0.0
    assert tracing.union_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == 3.0
    assert tracing.union_length([(0.0, 10.0), (2.0, 3.0)]) == 10.0
    assert tracing.union_length([(2.0, 3.0), (0.0, 1.0), (1.0, 2.0)]) == 3.0


def test_self_times_nested_and_overlapping() -> None:
    # A [0, 10] has overlapping children B [1, 4] and C [3, 6] (two worker
    # threads), D [8, 12] running past A's end, and 1 s of counted calls.
    # B has a nested child E [2, 3].
    spans = [
        (1, 0, "A", 0.0, 10.0, 1.0),
        (2, 1, "B", 1.0, 4.0, 0.0),
        (3, 1, "C", 3.0, 6.0, 0.0),
        (4, 1, "D", 8.0, 12.0, 0.0),
        (5, 2, "E", 2.0, 3.0, 0.0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {1: 10.0 - 5.0 - 2.0 - 1.0, 2: 2.0, 3: 3.0, 4: 4.0, 5: 1.0}, selfs
    m = tracing.layer_metrics(spans, {}, n_passes=2)
    assert m["A.calls"] == 0.5 and m["A.busy_s"] == 5.0 and m["A.self_s"] == 1.0, m


def test_tracer_parents_and_counters() -> None:
    ticks = iter(range(1000))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.span("leaf", lambda: None)
    point = tracer.counted("point", lambda: None)

    def fan_out():
        point()
        workers = [threading.Thread(target=leaf) for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=10)
        assert not any(w.is_alive() for w in workers)
        leaf()

    tracer.span("root", tracer.span("fan", fan_out, fanout=True))()
    spans, counters = tracer.collect()
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span[2], []).append(span)
    (root,), (fan,) = by_name["root"], by_name["fan"]
    assert root[1] == 0 and fan[1] == root[0]
    assert [s[1] for s in by_name["leaf"]] == [fan[0]] * 3, "worker spans must hang off the fan-out span"
    assert counters["point.calls"] == 1 and fan[5] == counters["point.busy_s"] == 1.0


def _small_configs() -> dict[str, dict]:
    small = {
        "mc_sweep": {"numerics": {"n_paths": 300, "u_grid_n": 3}},
        "path_dump": {"numerics": {"n_paths": 40}},
        "feedback_grid": {"numerics": {"x_grid": {"n": 17}, "density": {"n_steps": 10, "snapshot_stride": 5}}},
        "oracle_validate": {"numerics": {"n_paths": 2000}},
    }
    return {name: workloads._merge(SCENARIOS[name].config(7), over) for name, over in small.items()}


def test_traced_pass_is_transparent() -> None:
    from stubborn import cli, dynamics, lagrangian

    originals = (dynamics.step_normals, lagrangian.derivatives, cli.COMMANDS["sweep"])
    for name, raw in _small_configs().items():
        out = WORK / name
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.json").write_text(json.dumps(raw), encoding="utf-8")
        config = cli.load_config(str(out / "config.json"))
        commands = SCENARIOS[name].commands
        steps = [(name, command, config) for command in commands]
        tracer = tracing.Tracer()
        with contextlib.redirect_stdout(io.StringIO()):  # validate prints its suites
            plain = child.run_pass(cli, steps, out / "plain", None)
            traced = child.run_pass(cli, steps, out / "traced", tracer)
        assert not plain["errors"] and not traced["errors"], (plain["errors"], traced["errors"])
        assert plain["digest"] == traced["digest"], f"{name}: traced pass wrote different bytes"
        assert not tracer.missing, tracer.missing
        spans, _ = tracer.collect()
        assert {f"cli.{c}" for c in commands} <= {s[2] for s in spans}
    assert originals == (dynamics.step_normals, lagrangian.derivatives, cli.COMMANDS["sweep"])


def _csv(path: Path, text: str) -> dict[str, Path]:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return {path.name: path}


def test_gate_rejects_wrong_numbers() -> None:
    ref = workloads.load_reference()
    out = WORK / "gate"

    # sweep: the reference itself passes; one J moved by 10 standard errors fails.
    sc = SCENARIOS["mc_sweep"]
    cfg, r = sc.config(1), ref["mc_sweep"]
    u = [i / 20 for i in range(21)]

    def sweep(shift: float) -> dict[str, Path]:
        rows = [f"{u[i]!r},{j + (shift if i == 5 else 0.0)!r},{se * math.sqrt(8)!r},0.0"
                for i, (j, se) in enumerate(zip(r["J_mean"], r["J_stderr"]))]
        return _csv(out / "sweep.csv", "u,J_mean,J_stderr,invalid_fraction\n" + "\n".join(rows) + "\n")

    assert sc.gate(cfg, sweep(0.0), r) == []
    assert sc.gate(cfg, sweep(10 * 3 * r["J_stderr"][5]), r)

    # paths: 40 synthetic paths with the reference final mean pass; a clamp
    # flag on a positive state, a negative state or a shifted mean fail.
    sc = SCENARIOS["path_dump"]
    cfg, r = workloads._merge(sc.config(1), {"numerics": {"n_paths": 40}}), ref["path_dump"]

    def paths(final_shift=0.0, bad_clamp=False, negative=False) -> dict[str, Path]:
        buf = io.StringIO()
        buf.write("path_id,step,s,x,clamped\n")
        for pid in range(40):
            for k in range(101):
                x = r["final_mean"] + (0.01 if pid % 2 else -0.01) + (final_shift if k == 100 else 0.0)
                clamp = 1 if bad_clamp and (pid, k) == (3, 7) else 0
                x = -x if negative and (pid, k) == (4, 9) else x
                buf.write(f"{pid},{k},{k * 0.01!r},{x!r},{clamp}\n")
        return _csv(out / "paths.csv", buf.getvalue())

    assert sc.gate(cfg, paths(), r) == []
    assert sc.gate(cfg, paths(final_shift=0.05), r)
    assert sc.gate(cfg, paths(bad_clamp=True), r)
    assert sc.gate(cfg, paths(negative=True), r)

    # optimize + density: the reference tables pass; a moved u_star or psi fails.
    sc = SCENARIOS["feedback_grid"]
    cfg, r = sc.config(1), ref["feedback_grid"]

    def tables(u_shift=0.0, psi_scale=1.0) -> dict[str, Path]:
        rows = ["s,x,u_star,u_unclamped,residual,n_candidates,mode_flags,status"]
        for i, (s, x, n, status, u_star, _cands) in enumerate(r["optimize"]):
            u_out = u_star + (u_shift if i == 100 else 0.0)
            rows.append(f"{s!r},{x!r},{u_out!r},{u_out!r},0.0,{n},flags,{status}")
        dens = list(csv.reader(r["density_csv"].splitlines()))
        dens[2000][2] = repr(float(dens[2000][2]) * psi_scale)
        files = _csv(out / "optimize.csv", "\n".join(rows) + "\n")
        files.update(_csv(out / "density.csv", "\n".join(",".join(d) for d in dens) + "\n"))
        return files

    assert sc.gate(cfg, tables(), r) == []
    assert sc.gate(cfg, tables(u_shift=1e-6), r)
    assert sc.gate(cfg, tables(psi_scale=1.0 + 1e-7), r)

    sc = SCENARIOS["oracle_validate"]
    report = {"passed": False, "suites": {"root_residuals": {"passed": False}}}
    assert sc.gate({}, _csv(out / "report.json", json.dumps(report)), {})


def main() -> int:
    tests = [(n, f) for n, f in globals().items() if n.startswith("test_") and callable(f)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed}/{len(tests)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
