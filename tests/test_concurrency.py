"""The numerical entry points give the same results from 4 threads as
serially: they keep no shared mutable state."""

import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from compose_approx.expr import eval_scalar, parse
from compose_approx.faadibruno import compile_expansion, composite_jet
from compose_approx.minimax import weighted_remez
from compose_approx.weighted import GridConfig, JacobiWeight, derivative_fn, weighted_sup_norm

GRID = GridConfig(points=1025)
XS = np.linspace(-0.9, 0.9, 33)


def _tasks():
    f = parse("sin(3*x)+x^2", 1)
    flat = parse("x^4-x^2+1", 1)
    h = parse("(1+x)^1.5", 1)
    outer = parse("y1*y2+exp(y1/4)", 2)
    inner = [parse("sin(x)", 1), parse("1/(3+x)", 1)]
    tasks = []
    for w in (JacobiWeight(0.0, 0.0), JacobiWeight(0.25, 0.5)):
        tasks.append(lambda w=w: weighted_sup_norm(derivative_fn(f, 2), w, 2, GRID))
        tasks.append(lambda w=w: weighted_sup_norm(derivative_fn(flat, 4), w, 4, GRID))
        tasks.append(lambda w=w: weighted_remez(lambda x: eval_scalar(h, x), 6, w, GRID))
    tasks.append(lambda: composite_jet(outer, inner, XS, 4))
    tasks.append(lambda: composite_jet(outer, inner, 0.3, 5))
    return tasks


def _same(a, b) -> bool:
    if isinstance(a, list):
        return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))
    return a == b


def test_four_threads_match_serial():
    tasks = _tasks()
    serial = [task() for task in tasks]
    order = list(range(len(tasks))) * 4
    random.Random(3).shuffle(order)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [(i, pool.submit(tasks[i])) for i in order]
            results = [(i, fut.result(timeout=120)) for i, fut in futures]
    finally:
        sys.setswitchinterval(old)
    for i, got in results:
        assert _same(got, serial[i]), f"task {i} differs under threads"


def test_cold_expansion_cache_from_four_threads():
    f = parse("exp(y1/8)+y2*y3", 3, ["y1", "y2", "y3"])
    g = [parse(s, 1) for s in ("sin(x)", "1/(3+x)", "cos(x)")]
    serial = composite_jet(f, g, 0.3, 8)
    compile_expansion.cache_clear()
    start = threading.Barrier(4)

    def task():
        start.wait(timeout=60)
        return composite_jet(f, g, 0.3, 8)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = [fut.result(timeout=120) for fut in [pool.submit(task) for _ in range(4)]]
    finally:
        sys.setswitchinterval(old)
    for got in results:
        assert got == serial
