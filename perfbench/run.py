"""Route-throughput benchmark of the urbanprop CLI on seeded grid cities.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grid400_doppler --seed 1 \\
        --seconds 40 --trace 0

The program under test is ``src/urbanprop`` of the same checkout; it is
imported from there and nowhere else.  Each run writes a grid city and route
for ``--seed`` (see ``scene.py``), then drives the real CLI in-process,
``urbanprop.cli.main([...])``, as one client running one batch command at a
time (a closed loop).

Every run starts with a check pass, which also warms caches: the
workload's command on the scene of ``REFERENCE_SEED``, compared position by
position with the output pinned in ``reference/`` (``refcheck.py``).  The
seeded scene has other building heights, which can change which buildings
are visible, so its commands are held to their own first output instead:
every row present, in route order, and every later command identical.  A
position fails when its row is missing or differs, and every position of a
command that exits non-zero or crashes fails.  The check pass counts towards
``--seconds``.

``--trace 0`` times whole commands with no hooks installed and reports:
    positions_per_s   route positions / median seconds of one command, from
                      map load to the closed output file;
    setup_s           median seconds of load_config + load_map + load_route
                      over several loads of the scene;
    peak_rss_mb       peak resident memory of this process, plus, when the
                      command uses a worker pool, worker count times the
                      largest worker's peak (an upper bound on their sum);
    correct_fraction  positions that matched / positions attempted.
Both times are wall seconds rescaled to a reference host speed: on a
shared host the same command's wall time swings by a factor of two within
minutes, so each timed item is bracketed by a fixed calibration loop and
divided by how slow the loop ran (``HostClock``).  The raw wall times and
calibrations are kept in the run's record.

``--trace 1`` alternates untraced and traced commands and reports the
per-layer metrics of ``spans.py``; see ``traced_phase``.

The last line of standard output is the result object; the line before it
records the environment, workload and any notes.  Without the program next
to this directory the benchmark exits with status 2 and prints no result.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import calibrate
import refcheck
import scene
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_DIR = os.path.join(HERE, "reference")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
REFERENCE_SEED = 0
SETUP_SAMPLES = 7
CALIBRATE_SCRIPT = os.path.abspath(calibrate.__file__)
CALIBRATION_REF_S = 0.08  # the calibration loop on a quiet 2-core Xeon host
MIN_TRACED = 2        # counters must repeat, so compare at least two commands
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
MODULES = ("cli", "config", "geometry", "pipeline", "identify", "link",
           "baselines", "fields", "kernels", "doppler")


@dataclass(frozen=True)
class Workload:
    name: str
    n: int            # the city is n x n buildings
    command: str
    workers: int
    step: float       # metres between route positions
    output: str       # file the command writes
    stride: int = 1   # keeps every stride-th position; the smoke test's few

    def reference(self, directory):
        return os.path.join(directory, self.name + os.path.splitext(
            self.output)[1])


# Why these three: grid400_doppler is the reference mix (kernel, candidate
# selection and chain extraction about 40/30/30) and the only one through
# the Doppler layer.  grid1600_predict_w2 has 4x the triangles per kernel
# call and 1600 buildings per candidate loop, the largest map load, and is
# the only one through the worker pool.  grid100_identify has small kernel
# calls, so per-call overhead dominates, and writes identification only.
WORKLOADS = {w.name: w for w in (
    Workload("grid400_doppler", 20, "doppler", 1, 5.0, "doppler.csv"),
    Workload("grid1600_predict_w2", 40, "predict", 2, 5.0, "predict.csv"),
    Workload("grid100_identify", 10, "identify", 1, 2.5, "identify.jsonl"),
)}


class ProgramMissing(Exception):
    """The checkout holds no importable urbanprop package."""


def import_program(root):
    """Import ``root/src/urbanprop``; return {short name: module or None}."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "urbanprop", "__init__.py")):
        raise ProgramMissing(f"no urbanprop package under {src}")
    sys.path.insert(0, src)
    pkg = importlib.import_module("urbanprop")
    if not os.path.abspath(pkg.__file__).startswith(os.path.abspath(src)):
        raise ProgramMissing(f"urbanprop imported from {pkg.__file__}, "
                             f"not from {src}")
    mods = {"urbanprop": pkg}
    for name in MODULES:
        try:
            mods[name] = importlib.import_module(f"urbanprop.{name}")
        except ImportError:
            mods[name] = None
    if not callable(getattr(mods["cli"], "main", None)):
        raise ProgramMissing("urbanprop.cli.main not found")
    return mods


# -- environment -----------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_sha(root):
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def code_digest(root):
    """sha256 over the program's and this benchmark's Python sources."""
    h = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def environment(mods, seed):
    import numpy
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    kernel = getattr(mods["kernels"], "segment_triangles", None)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "numba_imports": numba_imports,
        "kernel": None if kernel is None
        else f"{kernel.__module__}.{kernel.__qualname__}",
        "git_sha": _git_sha(ROOT),
        "code_sha256": code_digest(ROOT),
        "seed": seed,
    }


# -- commands and their checks ---------------------------------------------


class Tally:
    """Positions attempted and failed over every command of the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.drifted = False      # a counter that must repeat did not
        self.notes = []

    def note(self, message):
        self.notes.append(message)
        print(f"perfbench: {message}", file=sys.stderr)

    def score(self, path, code, positions, expected=None, exact=False):
        """Count the positions of one command whose row is missing or wrong.

        Rows are compared with ``expected`` by ``refcheck.row_matches`` or,
        with ``exact``, for equality; without ``expected`` each row need only
        carry its own index.  Returns the rows read, or None.
        """
        self.attempted += positions
        if code != 0:
            self.failed += positions
            self.note(f"command exited with {code}")
            return None
        try:
            rows = refcheck.read_rows(path)
        except (OSError, ValueError) as exc:
            self.failed += positions
            self.note(f"unreadable output {path}: {exc}")
            return None
        if expected is None:
            failed = refcheck.count_unindexed(rows, positions)
        elif exact:
            failed = sum(1 for i, want in enumerate(expected)
                         if i >= len(rows) or rows[i] != want)
        else:
            failed = refcheck.count_failed(rows, expected)
        if failed:
            self.failed += failed
            self.note(f"{failed} of {positions} positions wrong in a command")
        return rows


def run_command(cli, sc, out_dir, workers, command, tracer=None):
    """One CLI invocation; returns (wall seconds, exit code)."""
    argv = ["--config", sc["config"], "--output", out_dir,
            "--workers", str(workers), command]
    gc.collect()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.root("cli", cli.main, argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash fails the command's positions, not the run
        traceback.print_exc()
        code = -1
    return time.perf_counter() - start, code


class Runner:
    """The command of one workload on the scene of one seed."""

    def __init__(self, mods, workload, seed, work):
        self.mods = mods
        self.wl = workload
        self.tally = Tally()
        self.work = work
        self.out_dir = os.path.join(work, "out")
        self.out_path = os.path.join(self.out_dir, workload.output)
        self.scene = self.write_scene(seed)
        self.positions = self.scene["positions"]
        self.first_rows = None

    def write_scene(self, seed):
        return scene.write_scene(os.path.join(self.work, f"scene-{seed}"),
                                 self.wl.n, seed, self.wl.step, self.wl.stride)

    def command(self, workers, tracer=None, sc=None):
        """The workload's command on ``sc`` (default: the seeded scene);
        returns (wall seconds, exit code)."""
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        return run_command(self.mods["cli"], sc or self.scene, self.out_dir,
                           workers, self.wl.command, tracer)

    def check_pass(self, reference_dir):
        """The command on the reference scene, compared with the pinned output."""
        expected = refcheck.read_rows(self.wl.reference(reference_dir))
        sc = self.write_scene(REFERENCE_SEED)
        _wall, code = self.command(self.wl.workers, sc=sc)
        self.tally.score(self.out_path, code, sc["positions"], expected)

    def timed(self, workers, tracer=None):
        """The command on the seeded scene, checked against its first
        output; returns its wall seconds."""
        wall, code = self.command(workers, tracer)
        rows = self.tally.score(self.out_path, code, self.positions,
                                self.first_rows, exact=True)
        if self.first_rows is None:
            self.first_rows = rows
        return wall

    def setup_seconds(self):
        """Wall seconds of the public loaders on the scene."""
        pkg = self.mods["urbanprop"]
        gc.collect()
        start = time.perf_counter()
        pkg.load_config(self.scene["config"])
        pkg.load_map(self.scene["map"])
        pkg.load_route(self.scene["route"])
        return time.perf_counter() - start


def _fits(deadline, *durations):
    return time.perf_counter() + sum(durations) <= deadline


def peak_rss_mb(workers):
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workers > 1:
        kib += workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


class HostClock:
    """Wall times rescaled to the reference host speed.

    Every measured item is bracketed by runs of the calibration loop; its
    wall time is divided by the host's slowness, the mean of the two
    bracketing calibration times over ``CALIBRATION_REF_S``.  A change in
    the program moves the item and not the calibration, so it shows in full.
    An item that runs on ``width`` cores (a command with a worker pool) is
    bracketed by the loop run on ``width`` processes at once: this one and
    ``width - 1`` helper processes, which ``close`` stops and waits for.
    """

    def __init__(self, workers):
        self._helpers = [
            subprocess.Popen([sys.executable, CALIBRATE_SCRIPT], text=True,
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE)
            for _ in range(workers - 1)]
        self._last = None             # (width, seconds) of the last run
        self.calibrations = []

    def _calibrate(self, width):
        helpers = self._helpers[:width - 1]
        for helper in helpers:
            helper.stdin.write("\n")
            helper.stdin.flush()
        times = [calibrate.calibration_seconds()]
        times += [float(helper.stdout.readline()) for helper in helpers]
        seconds = statistics.fmean(times)
        self.calibrations.append((width, seconds))
        return seconds

    def measure(self, fn, width=1):
        """Run ``fn() -> wall seconds``; return (wall, rescaled seconds)."""
        if self._last is not None and self._last[0] == width:
            before = self._last[1]
        else:
            before = self._calibrate(width)
        wall = fn()
        after = self._calibrate(width)
        self._last = (width, after)
        return wall, wall * 2.0 * CALIBRATION_REF_S / (before + after)

    def close(self):
        for helper in self._helpers:
            helper.stdin.close()
        for helper in self._helpers:
            helper.wait(timeout=60)
            helper.stdout.close()


def untraced_phase(runner, deadline):
    clock = HostClock(runner.wl.workers)
    commands, setups = [], []      # (wall, rescaled) pairs
    try:
        while True:
            commands.append(clock.measure(
                lambda: runner.timed(runner.wl.workers), runner.wl.workers))
            setups.append(clock.measure(runner.setup_seconds))
            if not _fits(deadline, commands[-1][0], setups[-1][0],
                         *(c for _w, c in clock.calibrations[-4:])):
                break
        while len(setups) < SETUP_SAMPLES:
            setups.append(clock.measure(runner.setup_seconds))
        # before close: the helpers' memory is not the program's
        rss = peak_rss_mb(runner.wl.workers)
    finally:
        clock.close()
    command_s = statistics.median(r for _w, r in commands)
    return {
        "positions_per_s": (runner.positions / command_s, "1/s"),
        "setup_s": (statistics.median(r for _w, r in setups), "s"),
        "peak_rss_mb": (rss, "MB"),
    }, {"command_wall_s": [w for w, _r in commands],
        "setup_wall_s": [w for w, _r in setups],
        "calibration_s": clock.calibrations}


# -- traced run ------------------------------------------------------------


def tail_percentile(samples):
    """Highest percentile of TAIL_LADDER with TAIL_BEYOND samples beyond it,
    as (percentile, nearest-rank value), or (None, None) when none has."""
    n = len(samples)
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= TAIL_BEYOND:
            rank = max(1, math.ceil(pct / 100.0 * n))
            return pct, sorted(samples)[rank - 1]
    return None, None


def parallel_efficiency(runner):
    """predict_route wall at 1 worker / (2 x wall at 2 workers), no hooks."""
    pkg = runner.mods["urbanprop"]
    sc = runner.scene
    try:
        cfg = pkg.load_config(sc["config"])
        gmap = pkg.load_map(sc["map"])
        route = pkg.load_route(sc["route"])
        walls = {}
        for workers in (1, 2):
            gc.collect()
            start = time.perf_counter()
            pkg.predict_route(cfg, gmap, route, workers=workers)
            walls[workers] = time.perf_counter() - start
    except (AttributeError, TypeError) as exc:
        spans.warn(f"parallel efficiency not measured ({exc!r})")
        return None
    return walls[1] / (2.0 * walls[2])


def _combine(per_command, tally):
    """Mean of each time over the traced commands; counts must repeat."""
    out = {}
    for name in per_command[0]:
        values = [m[name] for m in per_command]
        if any(v is None for v in values):
            out[name] = None
        elif name in spans.SELF_TIME_METRICS:
            out[name] = statistics.fmean(values)
        else:
            if len(set(values)) > 1:
                tally.note(f"counter {name} drifted between commands: {values}")
                tally.drifted = True
            out[name] = values[0]
    return out


def traced_phase(runner, deadline, spans_path):
    """Per-layer metrics from traced commands at one worker.

    Spans recorded in forked workers would stay in the children, so traced
    and untraced commands both run at one worker; the untraced ones give
    ``bench.trace_overhead_fraction``.  Per-layer times are seconds per
    command, averaged over the traced commands; positions' latencies pool
    the traced commands.
    """
    efficiency = parallel_efficiency(runner)
    tracer = spans.Tracer()
    clock = HostClock(1)
    untraced, traced, per_command, latencies = [], [], [], []

    def traced_command():
        tracer.reset()
        tracer.install(runner.mods)
        try:
            return runner.timed(1, tracer)
        finally:
            tracer.uninstall()

    with open(spans_path, "w", encoding="utf-8") as fh:
        while True:
            untraced.append(clock.measure(lambda: runner.timed(1)))
            traced.append(clock.measure(traced_command))
            tracer.write(fh, len(traced) - 1)
            metrics = spans.command_metrics(tracer)
            metrics["cli.output_bytes"] = (os.path.getsize(runner.out_path)
                                           if os.path.exists(runner.out_path)
                                           else 0)
            per_command.append(metrics)
            latencies += [d * 1e3 for d in tracer.durations(spans.POSITION_SPAN)]
            if len(traced) >= MIN_TRACED and not _fits(
                    deadline, untraced[-1][0], traced[-1][0]):
                break
    layer = _combine(per_command, runner.tally)
    tail_pct, tail = tail_percentile(latencies)
    layer.update({
        "pipeline.position_ms_p50":
            statistics.median(latencies) if latencies else None,
        "pipeline.position_ms_tail": tail,
        "pipeline.position_ms_tail_pct": tail_pct,
        "pipeline.position_ms_samples": len(latencies),
        "pipeline.parallel_efficiency": efficiency,
        # rescaled times of back-to-back pairs, against the host's drift
        "bench.trace_overhead_fraction": statistics.median(
            t[1] / u[1] for t, u in zip(traced, untraced)) - 1.0,
    })
    return layer, {"untraced_wall_s": [w for w, _r in untraced],
                   "traced_wall_s": [w for w, _r in traced],
                   "calibration_s": clock.calibrations}


# Per-layer metrics of ``--trace 1``, in output order, with their units.
PER_LAYER_UNITS = {
    "config.load_s": "s",
    "geometry.load_map_s": "s",
    "kernels.calls": "count",
    "kernels.triangles_tested": "count",
    "kernels.hit_ratio": "ratio",
    "kernels.s": "s",
    "identify.classify_s": "s",
    "identify.candidates_s": "s",
    "identify.visibility_s": "s",
    "identify.candidates_per_position": "count",
    "identify.visible_ratio": "ratio",
    "link.extract_chain_s": "s",
    "link.total_field_s": "s",
    "link.stages_per_position": "count",
    "link.capped_fraction": "fraction",
    "geometry.f_block_calls": "count",
    "geometry.f_block_s": "s",
    "fields.recursive_chain_s": "s",
    "doppler.route_doppler_s": "s",
    "doppler.route_velocities_calls": "count",
    "pipeline.predict_route_s": "s",
    "pipeline.positions": "count",
    "pipeline.position_ms_p50": "ms",
    "pipeline.position_ms_tail": "ms",
    "pipeline.position_ms_tail_pct": "%",
    "pipeline.position_ms_samples": "count",
    "pipeline.parallel_efficiency": "ratio",
    "cli.write_s": "s",
    "cli.output_bytes": "B",
    "bench.trace_overhead_fraction": "fraction",
}


# -- determinism across runs -----------------------------------------------


EXACT_COUNTERS = ("kernels.calls", "kernels.triangles_tested",
                  "identify.candidates_per_position",
                  "link.stages_per_position", "link.capped_fraction")


def check_counter_drift(store_path, key, layer, tally):
    """Compare the exact counters with an earlier run of the same code and
    seed, recorded in ``store_path``; record them when none exists."""
    counters = {name: layer.get(name) for name in EXACT_COUNTERS}
    try:
        with open(store_path, encoding="utf-8") as fh:
            store = json.load(fh)
    except (OSError, ValueError):
        store = {}
    earlier = store.get(key)
    if earlier is None:
        store[key] = counters
        tmp = store_path + f".{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(store, fh, indent=1, sort_keys=True)
        os.replace(tmp, store_path)
        return
    drifted = sorted(n for n in counters if counters[n] != earlier.get(n))
    for name in drifted:
        tally.note(f"counter {name} drifted from an earlier run of the same "
                   f"code and seed: {earlier.get(name)} -> {counters[name]}")
    if drifted:
        tally.drifted = True


# -- entry point -----------------------------------------------------------


def run(mods, workload, seed, seconds, trace, work,
        reference_dir=REFERENCE_DIR, state_dir=WORK_DIR):
    """One benchmark run; returns (result object, record of the run).

    ``work`` holds the run's scenes and outputs; ``state_dir`` keeps the
    spans of the last traced run and the counters of earlier ones.
    """
    deadline = time.perf_counter() + seconds
    runner = Runner(mods, workload, seed, work)
    runner.check_pass(reference_dir)
    tally = runner.tally
    if trace:
        os.makedirs(os.path.join(state_dir, "spans"), exist_ok=True)
        spans_path = os.path.join(state_dir, "spans",
                                  f"{workload.name}-seed{seed}.jsonl")
        layer, timings = traced_phase(runner, deadline, spans_path)
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        e2e, timings = untraced_phase(runner, deadline)
        e2e["correct_fraction"] = (1.0 - tally.failed / tally.attempted,
                                   "fraction")
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in e2e.items()}
    env = environment(mods, seed)
    if trace:
        check_counter_drift(
            os.path.join(state_dir, "counters.json"),
            f"{workload.name}|seed={seed}|code={env['code_sha256']}",
            layer, tally)
    result = {"correct": tally.failed == 0 and not tally.drifted,
              "attempted": tally.attempted, "failed": tally.failed,
              "metrics": metrics}
    record = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": trace, "timings": timings,
              "positions_per_command": runner.positions, "env": env,
              "notes": tally.notes}
    return result, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        mods = import_program(ROOT)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = os.path.join(WORK_DIR, f"run-{workload.name}-{args.seed}-{os.getpid()}")
    try:
        result, record = run(mods, workload, args.seed, args.seconds,
                             args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
