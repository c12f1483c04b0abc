"""Regenerate the pinned outputs in ``reference/`` with the current program.

Usage (from the repository root)::

    python3 perfbench/make_references.py [workload ...]

Each reference is the workload's command, at its worker count, on the
scene of ``run.REFERENCE_SEED``, which every run's check pass repeats.
Regenerating one changes what the benchmark accepts as correct, so the
change of behaviour behind it belongs in CHANGES.md.
"""

import os
import shutil
import sys

import run


def write_reference(mods, workload, reference_dir, work):
    runner = run.Runner(mods, workload, run.REFERENCE_SEED, work)
    _wall, code = runner.command(workload.workers)
    if code != 0:
        raise RuntimeError(f"{workload.name}: command exited with {code}")
    os.makedirs(reference_dir, exist_ok=True)
    path = workload.reference(reference_dir)
    shutil.copyfile(runner.out_path, path)
    return path


def main(argv):
    mods = run.import_program(run.ROOT)
    for name in argv or sorted(run.WORKLOADS):
        work = os.path.join(run.WORK_DIR, f"reference-{name}-{os.getpid()}")
        try:
            print(write_reference(mods, run.WORKLOADS[name], run.REFERENCE_DIR,
                                  work))
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
