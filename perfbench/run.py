"""Benchmark entry point: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload build|serve|maintain --seed N --seconds S --trace 0|1

Run from the root of a checkout. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end metrics of BENCHMARK.json, with ``--trace 1``
its per-layer metrics, and the spans plus a per-layer self-time table go
to ``.perfbench_out/trace-<workload>-seed<N>.json``. Everything the run
writes lives under ``.perfbench_tmp/<pid>/`` and is removed at exit.

An operation that raises (a build, a query, a windowed step, the set-up)
is counted in ``failed`` and the run goes on. A metric that no operation
measured is left out of the line, ``correct`` is false and the exit code
is 1.
"""

from __future__ import annotations

import time

_T_IMPORT = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Fixed Ray CPU count (never above the vCPUs this process may use), so a
# parent and a child commit are measured with the same parallelism.
RAY_CPUS = 4
OBJECT_STORE_BYTES = 512 << 20
# Ray puts unix sockets under its temp dir; a socket path longer than the
# kernel's 107-byte limit makes ray.init fail, so a deep checkout falls
# back to Ray's default temp dir.
_SOCKET_TAIL = "/session_2000-01-01_00-00-00_000000_4194304/sockets/plasma_store"
_SOCKET_PATH_MAX = 107


def process_age_s() -> float:
    """Seconds since this process started (from /proc; falls back to the
    time since this module was imported)."""
    try:
        with open("/proc/self/stat") as f:
            start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return time.perf_counter() - _T_IMPORT


def tree_cpu_s() -> float:
    """CPU seconds of this process, its reaped children and every live
    descendant (the Ray processes), read from /proc."""
    tick = os.sysconf("SC_CLK_TCK")
    kids: dict[int, list[int]] = {}
    cpu: dict[int, float] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                rest = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        kids.setdefault(int(rest[1]), []).append(int(name))
        cpu[int(name)] = (int(rest[11]) + int(rest[12])) / tick
    total, todo = 0.0, [os.getpid()]
    while todo:
        pid = todo.pop()
        total += cpu.get(pid, 0.0)
        todo.extend(kids.get(pid, ()))
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return total + ru.ru_utime + ru.ru_stime


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["build", "serve", "maintain"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def main(argv=None) -> None:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    sys.path.insert(0, ROOT)
    # Ray workers import the engine (and this package's callables) by module
    # path; they inherit this process's environment
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    import docinsight_ray  # a checkout without the program stops here

    if not os.path.abspath(docinsight_ray.__file__).startswith(ROOT + os.sep):
        sys.exit(f"perfbench: docinsight_ray imported from {docinsight_ray.__file__}, "
                 f"not from this checkout ({ROOT})")
    import ray

    from perfbench import layers, workloads
    from perfbench.refbm25 import CheckFailed
    from perfbench.tracer import Tracer

    num_cpus = min(RAY_CPUS, len(os.sched_getaffinity(0)))
    run_dir = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(run_dir)
    tracer = Tracer(args.trace == 1)
    values: dict[str, float] = {}
    rounds: list[dict] = []
    correct = True
    try:
        ray_tmp = os.path.join(run_dir, "ray")
        extra = {"_temp_dir": ray_tmp} if len(ray_tmp + _SOCKET_TAIL) <= _SOCKET_PATH_MAX else {}
        ray.init(address="local", num_cpus=num_cpus, object_store_memory=OBJECT_STORE_BYTES,
                 include_dashboard=False, log_to_driver=False, logging_level="ERROR", **extra)
        import ray.data

        ray.data.DataContext.get_current().enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.WARNING)
        ctx = workloads.Ctx(seed=args.seed, seconds=args.seconds, tracer=tracer,
                            run_dir=run_dir, num_cpus=num_cpus)
        setup, run, check = workloads.WORKLOADS[args.workload]

        def set_up():
            workloads.warm_ray_workers(num_cpus)
            return setup(ctx)

        with tracer.span("setup"):
            ok, st = workloads.attempt("set-up", set_up)
        values["setup_s"] = process_age_s()
        if not ok:
            rounds.append({"attempted": 1, "failed": 1, "metrics": {}})
        else:
            # whole rounds while --seconds last (at least one); a metric is
            # the median over the rounds that measured it, and the checks
            # read the last round that did not fail
            cpu0 = tree_cpu_s()
            t_run = time.perf_counter()
            with tracer.span("run"):
                while not rounds or time.perf_counter() - t_run < args.seconds:
                    rounds.append(run(ctx, st, len(rounds)))
            cpu_s = tree_cpu_s() - cpu0
            for name in {n for r in rounds for n in r["metrics"]}:
                values[name] = statistics.median(
                    r["metrics"][name] for r in rounds if name in r["metrics"])
            try:
                with tracer.span("check"):
                    check(ctx, st)
            except CheckFailed as e:
                correct = False
                print(f"perfbench: check failed: {e}", file=sys.stderr)
            except Exception:
                correct = False
                workloads.log(f"check raised:\n{traceback.format_exc()}")
            if tracer.enabled:
                with tracer.span("layers"):
                    ok, layer = workloads.attempt(
                        "per-layer probes", lambda: layers.layer_metrics(ctx, args.workload, st))
                values = layer if ok else {}
                values["run.cpu_s"] = cpu_s
                values["trace.overhead_s"] = len(tracer.spans) * tracer.span_cost_s()
    finally:
        ray.shutdown()
        shutil.rmtree(run_dir, ignore_errors=True)

    wanted = spec["per_layer" if tracer.enabled else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        # a metric no round measured: every attempt at it raised
        correct = False
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    if tracer.enabled:
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "seconds": args.seconds, "ray_cpus": num_cpus, "metrics": metrics})
        print(f"perfbench: spans and per-layer table in {path}", file=sys.stderr)
        for name, row in sorted(tracer.table().items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"  {name:44s} n={row['count']:<6d} total={row['total_s']:9.3f}s "
                  f"self={row['self_s']:9.3f}s", file=sys.stderr)
    print(json.dumps({"correct": correct,
                      "attempted": sum(int(r["attempted"]) for r in rounds),
                      "failed": sum(int(r["failed"]) for r in rounds), "metrics": metrics}))
    if missing:
        sys.exit(1)


if __name__ == "__main__":
    main()
