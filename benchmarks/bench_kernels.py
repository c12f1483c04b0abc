"""Benchmark the segment/triangle intersection kernel.

Times one batched call of ``segment_triangles`` over S segments against a
loop of S single-segment calls of the same kernel on the same random
triangle soup, and checks that both give bit-identical hit parameters.

Usage::

    python benchmarks/bench_kernels.py [--triangles N] [--segments M] [--repeats R]
"""

import argparse
import time

import numpy as np

from urbanprop.kernels import segment_triangles

EPS_HIT = 1e-9


def make_soup(rng, n_triangles):
    base = rng.uniform(-100.0, 100.0, size=(n_triangles, 3))
    v0 = base
    v1 = base + rng.uniform(-10.0, 10.0, size=(n_triangles, 3))
    v2 = base + rng.uniform(-10.0, 10.0, size=(n_triangles, 3))
    return (np.ascontiguousarray(v0), np.ascontiguousarray(v1),
            np.ascontiguousarray(v2))


def make_segments(rng, n_segments):
    a = rng.uniform(-120.0, 120.0, size=(n_segments, 3))
    b = rng.uniform(-120.0, 120.0, size=(n_segments, 3))
    return a, b


def per_segment(a, b, soup):
    return np.stack([segment_triangles(a[i], b[i], *soup, EPS_HIT)
                     for i in range(a.shape[0])])


def batched(a, b, soup):
    return segment_triangles(a, b, *soup, EPS_HIT)


def bench(fn, segs, soup, repeats):
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*segs, soup)
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--triangles", type=int, default=2000)
    parser.add_argument("--segments", type=int, default=200)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    soup = make_soup(rng, args.triangles)
    segs = make_segments(rng, args.segments)

    loop_t = per_segment(*segs, soup)
    batch_t = batched(*segs, soup)
    if not np.array_equal(loop_t, batch_t):
        raise SystemExit("batched and per-segment results differ")

    n_ops = args.segments * args.triangles
    t_loop = bench(per_segment, segs, soup, args.repeats)
    t_batch = bench(batched, segs, soup, args.repeats)
    print(f"soup: {args.triangles} triangles, {args.segments} segments, "
          f"best of {args.repeats}; results identical")
    print(f"per-segment loop : {t_loop * 1e3:8.2f} ms  "
          f"({n_ops / t_loop / 1e6:.1f} M tri-tests/s)")
    print(f"batched call     : {t_batch * 1e3:8.2f} ms  "
          f"({n_ops / t_batch / 1e6:.1f} M tri-tests/s)")
    print(f"speedup          : {t_loop / t_batch:8.2f}x")


if __name__ == "__main__":
    main()
