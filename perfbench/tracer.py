"""Spans recorded from outside the program, and the per-layer metrics built from them.

The tracer replaces the public names that callers look up (module attributes,
``__post_init__`` of the value classes, the ``OrthonormalBasis.matrix``
property) with wrappers that record a span per call: name, start, end,
parent span and request id. Spans stay in memory and are written out when
the run ends. Self time is a span's duration minus the time its child spans
cover; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import weakref
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from inputs import ENGINE_DIMS

SCENARIOS = ("leggett-garg", "three-box", "cheshire-cat", "hardy", "peres-mermin", "bell")

KDQ_CALLS = ("marginals", "negativity", "overlap_from_kd", "overlap_direct", "unitary_from_actions", "reconstruct_state")

# name -> (unit, better); the order is the order of BENCHMARK.json
PER_LAYER: dict[str, tuple[str, str]] = {
    "import.kdqlab_s": ("s", "lower"),
    "import.numpy_s": ("s", "lower"),
    "import.weaksim_s": ("s", "lower"),
    "cli.scenario_s": ("s", "lower"),
    "cli.kd_s": ("s", "lower"),
    "cli.weak_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "scenario_file.load_s": ("s", "lower"),
    "qcore.state_init_us": ("us", "lower"),
    "qcore.state_init_calls": ("count", "lower"),
    **{f"qcore.basis_init_us.d{d}": ("us", "lower") for d in ENGINE_DIMS},
    "qcore.basis_init_calls": ("count", "lower"),
    "qcore.basis_matrix_us": ("us", "lower"),
    "qcore.basis_matrix_calls": ("count", "lower"),
    **{f"kdq.kd_joint_self_us.d{d}": ("us", "lower") for d in ENGINE_DIMS},
    **{f"kdq.validate_us.d{d}": ("us", "lower") for d in ENGINE_DIMS},
    "kdq.kd_joint_calls": ("count", "lower"),
    **{f"kdq.{name}_us": ("us", "lower") for name in KDQ_CALLS},
    **{f"kdq.kd_joint_ops_computed.d{d}": ("flop", "lower") for d in ENGINE_DIMS},
    **{f"kdq.kd_joint_bytes_computed.d{d}": ("B", "lower") for d in ENGINE_DIMS},
    **{f"scenarios.build_self_ms.{name}": ("ms", "lower") for name in SCENARIOS},
    **{f"scenarios.checks.{name}": ("count", "higher") for name in SCENARIOS},
    "weaksim.sample_ns_per_shot": ("ns", "lower"),
    "weaksim.post_selection_us": ("us", "lower"),
    "weaksim.closed_mean_us": ("us", "lower"),
    "weaksim.quad_mean_ms": ("ms", "lower"),
    "weaksim.density_calls_per_quad": ("count", "lower"),
    "weaksim.freq_max_abs_z": ("sigma", "lower"),
    "weaksim.mean_max_abs_z": ("sigma", "lower"),
    "weaksim.quad_vs_closed_max_err": ("reading", "lower"),
    "trace.overhead_share": ("share", "lower"),
    "ops_failed_share": ("share", "lower"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None
    key: object = None
    extra: object = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _dim_of_first(arg, *_, **__):
    return arg.dim


def _shots(a, basis_m, basis_b, cfg, shots, seed):
    return int(shots)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.stack: list[int] = []
        self.request: int | None = None
        self.active = False
        self.density_calls: dict[int, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []
        self._last_matrix: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn, key=None, extra=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer.stack[-1] if tracer.stack else None
            try:
                span_key = key(*args, **kwargs) if key else None
            except Exception:  # a key the program no longer offers is left out, never raised
                span_key = None
            tracer.stack.append(index)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                tracer.stack.pop()
                info = extra(args, result) if extra and result is not None else None
                tracer.spans[index] = Span(name, start, end, parent, tracer.request, span_key, info)

        return wrapper

    def _count_density(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active and tracer.stack:
                tracer.density_calls[tracer.stack[-1]] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _matrix_bytes(self, args, result) -> int:
        """Bytes materialised by one ``matrix`` access; 0 when the same array is handed out again."""
        basis = args[0]
        fresh = self._last_matrix.get(basis) is not result
        self._last_matrix[basis] = result
        return int(result.nbytes) if fresh else 0

    def _patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` with ``make(original)``; names the program no longer defines are skipped."""
        original = vars(owner).get(attr)
        if original is None:
            return
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self, kd) -> None:
        """Wrap the public names of every layer; ``kd`` is the imported kdqlab package."""
        cli, kdq, qcore, scenarios, scenario_file, weaksim = (
            kd.cli, kd.kdq, kd.qcore, kd.scenarios, kd.scenario_file, kd.weaksim
        )
        by_dim = {"kd_joint", "marginals", "negativity", "reconstruct_state"}
        for fn_name in ("kd_joint", *KDQ_CALLS, "weak_value"):
            wrapped = self._wrap(f"kdq.{fn_name}", vars(kdq)[fn_name], key=_dim_of_first if fn_name in by_dim else None)
            for module in (kdq, scenarios, cli):
                self._patch(module, fn_name, lambda _: wrapped)
        for fn_name in ("sample", "post_selection_probability", "conditional_pointer_mean", "conditional_pointer_mean_quadrature"):
            wrapped = self._wrap(f"weaksim.{fn_name}", vars(weaksim)[fn_name], key=_shots if fn_name == "sample" else None)
            for module in (weaksim, cli):
                self._patch(module, fn_name, lambda _: wrapped)
        self._patch(weaksim, "pointer_joint_density", self._count_density)
        self._patch(
            scenarios,
            "build",
            lambda fn: self._wrap("scenarios.build", fn, key=lambda name, theta=None: name, extra=lambda args, r: len(r.checks)),
        )
        loader = self._wrap("scenario_file.load_scenario_file", scenario_file.load_scenario_file)
        for module in (scenario_file, cli):
            self._patch(module, "load_scenario_file", lambda _: loader)
        self._patch(cli, "main", lambda fn: self._wrap("cli.main", fn, key=lambda argv=None: argv[0] if argv else None))

        for cls, key in (
            (qcore.StateVector, None),
            (qcore.Operator, None),
            (qcore.OrthonormalBasis, lambda self: len(self.vectors)),
            (kdq.ActionSpectrum, None),
            (kdq.KDDistribution, lambda self: self.state_a.dim),
        ):
            name = f"{cls.__module__.rsplit('.', 1)[-1]}.{cls.__name__}.__post_init__"
            self._patch(cls, "__post_init__", lambda fn, name=name, key=key: self._wrap(name, fn, key=key))
        if isinstance(vars(qcore.OrthonormalBasis).get("matrix"), property):
            self._patch(
                qcore.OrthonormalBasis,
                "matrix",
                lambda prop: property(
                    self._wrap("qcore.OrthonormalBasis.matrix", prop.fget, key=lambda self: len(self.vectors), extra=self._matrix_bytes)
                ),
            )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def call(self, request: int, fn, *args):
        """Run one request with recording on."""
        self.request = request
        self.active = True
        try:
            return fn(*args)
        finally:
            self.active = False
            self.request = None

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "request": span.request,
                }
                if span.key is not None:
                    record["key"] = span.key
                out.write(json.dumps(record) + "\n")

    # -- aggregation -----------------------------------------------------

    def layer_metrics(self, requests: int) -> dict[str, float]:
        """Per-layer metrics from the recorded spans; 0 where the workload never reached a layer."""
        spans = self.spans
        child_time = defaultdict(float)
        for span in spans:
            if span.parent is not None:
                child_time[span.parent] += span.seconds
        by_name = defaultdict(list)
        for index, span in enumerate(spans):
            by_name[span.name].append(index)

        def mean(values):
            values = list(values)
            return sum(values) / len(values) if values else 0.0

        def durations(name, key=None):
            return [spans[i].seconds for i in by_name[name] if key is None or spans[i].key == key]

        def self_times(name, key=None):
            return [spans[i].seconds - child_time[i] for i in by_name[name] if key is None or spans[i].key == key]

        def per_request(name):
            return len(by_name[name]) / requests if requests else 0.0

        def under(index, name):
            parent = spans[index].parent
            while parent is not None:
                if spans[parent].name == name:
                    return parent
                parent = spans[parent].parent
            return None

        metrics: dict[str, float] = {}
        main = "cli.main"
        metrics["cli.scenario_s"] = mean(durations(main, "scenario"))
        metrics["cli.kd_s"] = mean(durations(main, "kd"))
        metrics["cli.weak_s"] = mean(durations(main, "weak"))
        metrics["cli.self_s"] = mean(self_times(main))
        metrics["scenario_file.load_s"] = mean(durations("scenario_file.load_scenario_file"))

        state, basis, matrix = (
            "qcore.StateVector.__post_init__",
            "qcore.OrthonormalBasis.__post_init__",
            "qcore.OrthonormalBasis.matrix",
        )
        metrics["qcore.state_init_us"] = 1e6 * mean(durations(state))
        metrics["qcore.state_init_calls"] = per_request(state)
        for d in ENGINE_DIMS:
            metrics[f"qcore.basis_init_us.d{d}"] = 1e6 * mean(durations(basis, d))
        metrics["qcore.basis_init_calls"] = per_request(basis)
        metrics["qcore.basis_matrix_us"] = 1e6 * mean(durations(matrix))
        metrics["qcore.basis_matrix_calls"] = per_request(matrix)

        joint, validate = "kdq.kd_joint", "kdq.KDDistribution.__post_init__"
        matrix_bytes = defaultdict(int)
        for i in by_name[matrix]:
            owner = under(i, joint)
            if owner is not None and spans[i].extra:
                matrix_bytes[owner] += spans[i].extra
        for d in ENGINE_DIMS:
            calls = [i for i in by_name[joint] if spans[i].key == d]
            metrics[f"kdq.kd_joint_self_us.d{d}"] = 1e6 * mean(self_times(joint, d))
            metrics[f"kdq.validate_us.d{d}"] = 1e6 * mean(durations(validate, d))
            # bm = <b|m> is one complex (d,d) matmul; <m|a> and <a|b> are matvecs;
            # the table is two elementwise complex products (8 flops per
            # multiply-add, 6 per multiply)
            metrics[f"kdq.kd_joint_ops_computed.d{d}"] = float(8 * d**3 + 28 * d**2) if calls else 0.0
            # bytes of basis matrices materialised inside the call plus the
            # kernel's own complex128 outputs (bm, table, <m|a>, <a|b>)
            metrics[f"kdq.kd_joint_bytes_computed.d{d}"] = (
                mean(matrix_bytes[i] + 16 * (2 * d * d + 2 * d) for i in calls) if calls else 0.0
            )
        metrics["kdq.kd_joint_calls"] = per_request(joint)
        for name in KDQ_CALLS:
            metrics[f"kdq.{name}_us"] = 1e6 * mean(durations(f"kdq.{name}"))

        build = "scenarios.build"
        for name in SCENARIOS:
            metrics[f"scenarios.build_self_ms.{name}"] = 1e3 * mean(self_times(build, name))
            metrics[f"scenarios.checks.{name}"] = mean(spans[i].extra for i in by_name[build] if spans[i].key == name and spans[i].extra is not None)

        samples = by_name["weaksim.sample"]
        shots = sum(spans[i].key or 0 for i in samples)
        metrics["weaksim.sample_ns_per_shot"] = 1e9 * sum(spans[i].seconds for i in samples) / shots if shots else 0.0
        metrics["weaksim.post_selection_us"] = 1e6 * mean(durations("weaksim.post_selection_probability"))
        metrics["weaksim.closed_mean_us"] = 1e6 * mean(durations("weaksim.conditional_pointer_mean"))
        quads = by_name["weaksim.conditional_pointer_mean_quadrature"]
        metrics["weaksim.quad_mean_ms"] = 1e3 * mean(spans[i].seconds for i in quads)
        metrics["weaksim.density_calls_per_quad"] = mean(self.density_calls[i] for i in quads)
        return metrics
