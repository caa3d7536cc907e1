"""Span recorder for the traced run.

It wraps the public functions of each satdecomp module where every caller
binds them (for example `estimator.substitute` and `proofs.propagate_only`),
so the spans are recorded from the benchmark's files and the program is not
edited. Spans are kept in memory as (id, parent, layer, name, start, end,
info) with one run id, written out as JSON lines at the end, and reduced to
the per-layer metrics. A layer's self time is the duration of its spans minus
the time their child spans cover.

Only the process that installed the recorder records anything: forked pool
workers inherit the wrappers but call straight through, so with workers > 1
the worker-side layers read zero and the parent side shows as pool time.
"""
from __future__ import annotations

import json
import os
import pickle
import resource
import statistics
import time
from functools import wraps

# (layer, public functions wrapped at every binding)
TARGETS = (
    ("formula", ("substitute", "parse_dimacs", "write_dimacs")),
    ("solver", ("solve", "propagate_only", "check_drat")),
    ("estimator", (
        "estimate_d_hardness", "estimate_d_hardness_with_up_preprocessing",
        "branch_assignment", "branch_bits", "mask_seed",
    )),
    ("search", ("variable_weights", "reduce_search_space", "ga_minimize")),
    ("decompose", ("solve_with_backdoor",)),
    ("proofs", ("generate_proof_bundle", "check_proof_bundle", "build_cube_group")),
    ("parallel", ("ordered_map",)),
    ("cli", ("main",)),
)
ESTIMATES = ("estimate_d_hardness", "estimate_d_hardness_with_up_preprocessing")

# name -> (unit, better); the order is the order of the report
PER_LAYER = {
    "formula.substitute_s": ("s", "lower"),
    "formula.substitute_calls": ("count", "lower"),
    "formula.dimacs_s": ("s", "lower"),
    "formula.dimacs_bytes": ("bytes", "lower"),
    "solver.probe_s": ("s", "lower"),
    "solver.probe_calls": ("count", "lower"),
    "solver.solve_s": ("s", "lower"),
    "solver.solve_calls": ("count", "lower"),
    "solver.props_per_s": ("1/s", "higher"),
    "solver.propagations": ("count", "lower"),
    "solver.conflicts": ("count", "lower"),
    "solver.proof_solve_s": ("s", "lower"),
    "solver.drat_check_s": ("s", "lower"),
    "solver.drat_steps": ("count", "lower"),
    "solver.drat_steps_per_s": ("1/s", "higher"),
    "solver.branch_p50_ms": ("ms", "lower"),
    "solver.branch_p90_ms": ("ms", "lower"),
    "estimator.estimate_s": ("s", "lower"),
    "estimator.estimate_calls": ("count", "lower"),
    "estimator.self_s": ("s", "lower"),
    "estimator.branches_evaluated": ("count", "lower"),
    "estimator.branches_used": ("count", "higher"),
    "estimator.useful_ratio": ("ratio", "higher"),
    "estimator.exhaustive_switches": ("count", "lower"),
    "estimator.rounds": ("count", "lower"),
    "estimator.easy_ratio": ("ratio", "higher"),
    "search.weights_s": ("s", "lower"),
    "search.weight_probes": ("count", "lower"),
    "search.fitness_calls": ("count", "lower"),
    "search.fresh_evals": ("count", "lower"),
    "search.cache_hit_ratio": ("ratio", "higher"),
    "search.ga_self_s": ("s", "lower"),
    "decompose.replay_s": ("s", "lower"),
    "decompose.branches": ("count", "lower"),
    "proofs.generate_s": ("s", "lower"),
    "proofs.check_s": ("s", "lower"),
    "proofs.self_s": ("s", "lower"),
    "proofs.units": ("count", "lower"),
    "proofs.bundle_bytes": ("bytes", "lower"),
    "parallel.map_s": ("s", "lower"),
    "parallel.calls": ("count", "lower"),
    "parallel.pools": ("count", "lower"),
    "parallel.items": ("count", "lower"),
    "parallel.pickled_bytes": ("bytes", "lower"),
    "parallel.child_cpu_s": ("s", "lower"),
    "cli.main_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _info(name: str, args, kwargs, result) -> dict | None:
    """Counts taken from a call's result, recorded with its span."""
    if name == "solve":
        cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
        return {
            "props": result.propagations,
            "conflicts": result.conflicts,
            "proof": bool(cfg is not None and cfg.proof_logging),
        }
    if name == "propagate_only":
        return {"props": result.propagations}
    if name == "check_drat":
        steps = len(args[1].steps)
        return {"steps": steps if result.ok else (result.failed_step or 0) + 1}
    if name in ESTIMATES:
        return {
            "n": result.stats.n,
            "easy": result.easy_count,
            "exhaustive": result.exhaustive,
        }
    if name in ("parse_dimacs", "write_dimacs"):
        return {"bytes": len(args[0] if name == "parse_dimacs" else result)}
    if name == "solve_with_backdoor":
        return {"branches": len(result.branches)}
    if name == "generate_proof_bundle":
        size = sum(
            os.path.getsize(os.path.join(result.directory, fn))
            for fn in os.listdir(result.directory)
        )
        return {"units": len(result.units), "bytes": size}
    if name == "FitnessEvaluator.evaluate":
        return {"fresh": result[1]}
    return None


class Recorder:
    """Spans and call events of one traced run, kept in memory."""

    def __init__(self, sd, run_id: str) -> None:
        self.sd = sd
        self.run_id = run_id
        self.pid = os.getpid()
        self.spans: list[list] = []   # [id, parent, layer, name, t0, t1, info]
        self.maps: list[tuple] = []   # (parent span, items, workers) per ordered_map call
        self.pool_maps: list[tuple] = []  # (fn, items, chunksize) per pool.map
        self.pools = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- recording -------------------------------------------------------
    def _open(self, layer: str, name: str) -> list:
        span = [len(self.spans), self._stack[-1] if self._stack else None,
                layer, name, time.perf_counter(), None, None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span: list) -> None:
        span[5] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, layer: str, name: str, fn):
        rec = self

        @wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != rec.pid:
                return fn(*args, **kwargs)
            span = rec._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._close(span)
            span[6] = _info(name, args, kwargs, result)
            return result

        return traced

    def _wrap_map(self, fn):
        rec = self

        @wraps(fn)
        def traced(f, items, workers=1):
            if os.getpid() != rec.pid:
                return fn(f, items, workers)
            rec.maps.append((rec._stack[-1] if rec._stack else None, len(items), workers))
            return rec._iterate(fn(f, items, workers))

        return traced

    def _iterate(self, gen):
        # each next() on the pool's generator is one span: the parent's time
        # in ordered_map, including in-process work and waiting on workers
        try:
            while True:
                span = self._open("parallel", "ordered_map")
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(span)
                yield item
        finally:
            gen.close()

    def _pool_class(self, base):
        rec = self

        class CountingPool(base):
            def __init__(self, *args, **kwargs):
                rec.pools += 1
                super().__init__(*args, **kwargs)

            def map(self, fn, *iterables, timeout=None, chunksize=1):
                items = list(iterables[0])
                rec.pool_maps.append((fn, items, chunksize))
                return super().map(fn, items, timeout=timeout, chunksize=chunksize)

        return CountingPool

    # -- install / remove --------------------------------------------------
    def _patch(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        sd = self.sd
        modules = [getattr(sd, layer) for layer, _ in TARGETS] + [sd.package]
        for layer, names in TARGETS:
            for name in names:
                orig = getattr(getattr(sd, layer), name)
                if name == "ordered_map":
                    wrapper = self._wrap_map(orig)
                else:
                    wrapper = self._wrap(layer, name, orig)
                for mod in modules:
                    if getattr(mod, name, None) is orig:
                        self._patch(mod, name, wrapper)
        evaluator = sd.search.FitnessEvaluator
        self._patch(evaluator, "evaluate",
                    self._wrap("search", "FitnessEvaluator.evaluate", evaluator.evaluate))
        self._patch(sd.parallel, "ProcessPoolExecutor",
                    self._pool_class(sd.parallel.ProcessPoolExecutor))

    def remove(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, layer, name, t0, t1, info in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "id": sid, "parent": parent,
                    "layer": layer, "name": name, "start": t0, "end": t1,
                    "info": info,
                }) + "\n")

    # -- reduction to per-layer metrics -----------------------------------
    def metrics(self, child_cpu_s: float, overhead_s: float) -> dict[str, float]:
        spans = self.spans
        child_time = [0.0] * len(spans)
        children: dict[int, list[int]] = {}
        for sid, parent, *_ in spans:
            if parent is not None:
                children.setdefault(parent, []).append(sid)
                child_time[parent] += spans[sid][5] - spans[sid][4]

        def dur(s):
            return s[5] - s[4]

        def self_time(s):
            return dur(s) - child_time[s[0]]

        def ancestors(s):
            p = s[1]
            while p is not None:
                yield spans[p]
                p = spans[p][1]

        def named(name):
            return [s for s in spans if s[3] == name]

        def total(name):
            return sum(dur(s) for s in named(name))

        def layer_self(layer, names=None):
            return sum(self_time(s) for s in spans
                       if s[2] == layer and (names is None or s[3] in names))

        m: dict[str, float] = {}
        subs = named("substitute")
        probes = named("propagate_only")
        solves = named("solve")
        m["formula.substitute_s"] = sum(dur(s) for s in subs)
        m["formula.substitute_calls"] = len(subs)
        dimacs = named("parse_dimacs") + named("write_dimacs")
        m["formula.dimacs_s"] = sum(dur(s) for s in dimacs)
        m["formula.dimacs_bytes"] = sum(s[6]["bytes"] for s in dimacs)

        probe_s = sum(dur(s) for s in probes)
        solve_s = sum(dur(s) for s in solves)
        props = sum(s[6]["props"] for s in probes + solves)
        m["solver.probe_s"] = probe_s
        m["solver.probe_calls"] = len(probes)
        m["solver.solve_s"] = solve_s
        m["solver.solve_calls"] = len(solves)
        m["solver.props_per_s"] = props / (probe_s + solve_s) if probe_s + solve_s else 0.0
        m["solver.propagations"] = props
        m["solver.conflicts"] = sum(s[6]["conflicts"] for s in solves)
        m["solver.proof_solve_s"] = sum(dur(s) for s in solves if s[6]["proof"])
        checks = named("check_drat")
        drat_s = sum(dur(s) for s in checks)
        drat_steps = sum(s[6]["steps"] for s in checks)
        m["solver.drat_check_s"] = drat_s
        m["solver.drat_steps"] = drat_steps
        m["solver.drat_steps_per_s"] = drat_steps / drat_s if drat_s else 0.0

        # a branch is one ordered_map item that substitutes into the formula;
        # its time is that of its substitute, probe and solve calls
        branch_ms = []
        for s in named("ordered_map"):
            kids = [spans[c] for c in children.get(s[0], ())]
            if any(k[3] == "substitute" for k in kids):
                branch_ms.append(1000 * sum(
                    dur(k) for k in kids
                    if k[3] in ("substitute", "propagate_only", "solve")
                ))
        if branch_ms:
            m["solver.branch_p50_ms"] = statistics.median(branch_ms)
        else:
            m["solver.branch_p50_ms"] = 0.0
        if len(branch_ms) >= 100:
            m["solver.branch_p90_ms"] = statistics.quantiles(branch_ms, n=10)[-1]
        else:
            m["solver.branch_p90_ms"] = 0.0

        estimates = [s for s in spans if s[3] in ESTIMATES]
        est_ids = {s[0] for s in estimates}
        rounds_of: dict[int, list[int]] = {sid: [] for sid in est_ids}
        for parent, n_items, _ in self.maps:
            p = parent
            while p is not None and p not in est_ids:
                p = spans[p][1]
            if p is not None:
                rounds_of[p].append(n_items)
        evaluated = sum(sum(r) for r in rounds_of.values())
        used = sum(s[6]["n"] for s in estimates)
        with_up = [s for s in estimates if s[6]["easy"] is not None]
        up_n = sum(s[6]["n"] for s in with_up)
        m["estimator.estimate_s"] = sum(dur(s) for s in estimates)
        m["estimator.estimate_calls"] = len(estimates)
        m["estimator.self_s"] = layer_self("estimator")
        m["estimator.branches_evaluated"] = evaluated
        m["estimator.branches_used"] = used
        m["estimator.useful_ratio"] = used / evaluated if evaluated else 0.0
        m["estimator.exhaustive_switches"] = sum(
            1 for s in estimates if s[6]["exhaustive"] and len(rounds_of[s[0]]) > 1
        )
        m["estimator.rounds"] = sum(len(r) for r in rounds_of.values())
        m["estimator.easy_ratio"] = (
            sum(s[6]["easy"] for s in with_up) / up_n if up_n else 0.0
        )

        evals = named("FitnessEvaluator.evaluate")
        fresh = sum(1 for s in evals if s[6]["fresh"])
        m["search.weights_s"] = total("variable_weights")
        m["search.weight_probes"] = sum(
            1 for s in probes if any(a[3] == "variable_weights" for a in ancestors(s))
        )
        m["search.fitness_calls"] = len(evals)
        m["search.fresh_evals"] = fresh
        m["search.cache_hit_ratio"] = 1 - fresh / len(evals) if evals else 0.0
        m["search.ga_self_s"] = layer_self(
            "search", ("ga_minimize", "FitnessEvaluator.evaluate"))

        replays = named("solve_with_backdoor")
        m["decompose.replay_s"] = sum(dur(s) for s in replays)
        m["decompose.branches"] = sum(s[6]["branches"] for s in replays)

        bundles = named("generate_proof_bundle")
        m["proofs.generate_s"] = sum(dur(s) for s in bundles)
        m["proofs.check_s"] = total("check_proof_bundle")
        m["proofs.self_s"] = layer_self("proofs")
        m["proofs.units"] = sum(s[6]["units"] for s in bundles)
        m["proofs.bundle_bytes"] = sum(s[6]["bytes"] for s in bundles)

        pickled = 0
        for fn, items, chunksize in self.pool_maps:
            for i in range(0, len(items), chunksize):
                pickled += len(pickle.dumps((fn, tuple(items[i:i + chunksize]))))
        m["parallel.map_s"] = total("ordered_map")
        m["parallel.calls"] = len(self.maps)
        m["parallel.pools"] = self.pools
        m["parallel.items"] = sum(n for _, n, _ in self.maps)
        m["parallel.pickled_bytes"] = pickled
        m["parallel.child_cpu_s"] = child_cpu_s

        m["cli.main_s"] = total("main")
        m["cli.self_s"] = layer_self("cli")
        m["trace.overhead_s"] = overhead_s
        return m


def child_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime
