"""Per-layer tracing of singfib from outside the package.

``Tracer.install`` replaces each traced function by a timing wrapper at
every place singfib holds it (module attributes, re-exports, and methods
on classes), and ``uninstall`` puts the originals back.  The untraced run
never creates a Tracer, so it runs the program untouched.

Coarse functions keep a full span (id, name, start, end, parent id) in
memory.  The hot ones (about 700k calls in one ``audit`` pass) keep only
counters and self time per (function, caller) pair.  Self time is a call's
duration minus the time its traced callees took.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any

import singfib  # noqa: F401  (loads every module whose attributes the wrappers replace)

#: metric name -> (module, attribute path) of the function it times
TRACED = {
    "poly.evaluate": ("poly", "Poly.evaluate"),
    "poly.mul": ("poly", "Poly.__mul__"),
    "poly.add": ("poly", "Poly.__add__"),
    "poly.differentiate": ("poly", "Poly.differentiate"),
    "poly.substitute": ("poly", "Poly.substitute"),
    "linalg.rank": ("linalg", "rank"),
    "linalg.nullspace": ("linalg", "nullspace"),
    "linalg.solve": ("linalg", "solve"),
    "linalg.dot": ("linalg", "dot"),
    "linalg.mat_vec": ("linalg", "mat_vec"),
    "linalg.poly_det": ("linalg", "poly_det"),
    "exterior.wedge": ("exterior", "wedge"),
    "exterior.ext_d": ("exterior", "ext_d"),
    "exterior.pullback": ("exterior", "pullback"),
    "exterior.hodge_star": ("exterior", "hodge_star"),
    "exterior.interior": ("exterior", "interior"),
    "exterior.schouten": ("exterior", "schouten"),
    "exterior.poincare_homotopy": ("exterior", "poincare_homotopy"),
    "exterior.coefficient_matrix": ("exterior", "_Graded.coefficient_matrix"),
    "interval.certified_minimum": ("interval", "certified_minimum"),
    "interval.enclose": ("interval", "enclose"),
    "catalog.get_model": ("catalog", "get_model"),
    "catalog.random_point": ("catalog", "random_point"),
    "catalog.random_noncritical_point": ("catalog", "random_noncritical_point"),
    "reference.leaf_claim_value": ("reference", "LeafClaim.value_sq"),
    "reference.ws_leaf_claim_sq": ("reference", "ws_leaf_claim_sq"),
    "reference.claimed_bivector": ("reference", "claimed_bivector"),
    "poisson.flaschka_ratiu": ("poisson", "flaschka_ratiu"),
    "poisson.matrix_at": ("poisson", "PoissonBivector.matrix_at"),
    "poisson.rank_at": ("poisson", "rank_at"),
    "poisson.jacobi": ("poisson", "jacobi"),
    "leaves.leaf_frame": ("leaves", "leaf_frame"),
    "leaves.solve_structure_covector": ("leaves", "solve_structure_covector"),
    "leaves.leaf_coefficient": ("leaves", "leaf_coefficient"),
    "nearsymp.build_omega0": ("nearsymp", "build_omega0"),
    "nearsymp.assemble": ("nearsymp", "assemble"),
    "nearsymp.repair_correction": ("nearsymp", "repair_correction"),
    "nearsymp.degeneracy_checks": ("nearsymp", "degeneracy_checks"),
    "nearsymp.fibre_positivity": ("nearsymp", "fibre_positivity"),
    "nearsymp.epsilon_bound": ("nearsymp", "epsilon_bound"),
}
HOT = {
    "poly.evaluate",
    "poly.mul",
    "poly.add",
    "poly.differentiate",
    "poly.substitute",
    "linalg.dot",
    "exterior.coefficient_matrix",
    "interval.enclose",
}
MODULES = ("poly", "linalg", "exterior", "interval", "catalog", "reference", "poisson", "leaves", "nearsymp")
#: calls whose arguments are counted for distinct inputs over calls
DISTINCT = ("poisson.flaschka_ratiu", "nearsymp.fibre_positivity")
MINIMUM = "interval.certified_minimum"

# frame layout: [name, start, child time, span id, first argument]
_NAME, _START, _CHILD, _ID, _ARG = range(5)


def original(name: str) -> Any:
    """The function a metric name refers to, as singfib's module defines it."""
    module, path = TRACED[name]
    obj: Any = sys.modules[f"singfib.{module}"]
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _singfib_namespaces():
    """Every module of the package and every class those modules hold."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "singfib" or mod_name.startswith("singfib.")):
            continue
        yield module
        for value in vars(module).values():
            if isinstance(value, type):
                yield value


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.raised: Counter[tuple[str, str]] = Counter()
        self.edges: Counter[tuple[str, str]] = Counter()
        self.edge_self_s: defaultdict[tuple[str, str], float] = defaultdict(float)
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.inputs: dict[str, set] = {name: set() for name in DISTINCT}
        self.minimum_nodes = 0
        self._root = ["-", 0.0, 0.0, -1, None]
        self._stack = [self._root]
        self._next_id = 0
        self._patches: list[tuple[Any, str, Any]] = []

    # -- installing and removing the wrappers ---------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name in TRACED:
            orig = original(name)
            wrapper = self._wrap(name, orig)
            for space in _singfib_namespaces():
                for attr, value in list(vars(space).items()):
                    if value is orig:
                        self._patches.append((space, attr, orig))
                        setattr(space, attr, wrapper)

    def uninstall(self) -> None:
        for space, attr, orig in reversed(self._patches):
            setattr(space, attr, orig)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    # -- the wrappers --------------------------------------------------------------

    def _wrap(self, name: str, orig):
        stack = self._stack
        calls, self_s, raised = self.calls, self.self_s, self.raised
        hot = name in HOT
        edges, edge_self_s, spans = self.edges, self.edge_self_s, self.spans
        inputs = self.inputs.get(name)
        counts_nodes = name == "interval.enclose"

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if inputs is not None:
                inputs.add((args, tuple(sorted(kwargs.items()))))
            if counts_nodes and parent[_NAME] == MINIMUM and args[0] is parent[_ARG]:
                # certified_minimum encloses its own polynomial once per branch-and-bound node
                self.minimum_nodes += 1
            if hot:
                span_id = -1
            else:
                span_id = self._next_id
                self._next_id += 1
            frame = [name, 0.0, 0.0, span_id, args[0] if args else None]
            stack.append(frame)
            start = frame[_START] = perf_counter()
            try:
                return orig(*args, **kwargs)
            except BaseException as exc:
                raised[(name, type(exc).__name__)] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                parent[_CHILD] += duration
                own = duration - frame[_CHILD]
                calls[name] += 1
                self_s[name] += own
                if hot:
                    edges[(name, parent[_NAME])] += 1
                    edge_self_s[(name, parent[_NAME])] += own
                else:
                    spans.append((span_id, name, start, end, parent[_ID]))

        wrapper.__wrapped__ = orig
        wrapper.__name__ = getattr(orig, "__name__", name)
        return wrapper

    @contextmanager
    def span(self, name: str):
        """A span for work the benchmark itself starts, such as one item."""
        frame = [name, perf_counter(), 0.0, self._next_id, None]
        self._next_id += 1
        self._stack.append(frame)
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((frame[_ID], name, frame[_START], end, self._stack[-1][_ID]))

    # -- results -------------------------------------------------------------------

    def failures(self, name: str) -> int:
        return sum(n for (fn, _), n in self.raised.items() if fn == name)

    def metrics(self) -> dict[str, float]:
        """Calls, self time, module self time and the waste ratios, by metric name."""
        out: dict[str, float] = {}
        for name in TRACED:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for module in MODULES:
            out[f"{module}.self_s"] = sum(self.self_s[n] for n in TRACED if n.startswith(module + "."))

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        for name in DISTINCT:
            out[f"{name}.distinct_ratio"] = ratio(len(self.inputs[name]), self.calls[name])
        out["catalog.draws_per_point"] = ratio(
            self.calls["catalog.random_point"], self.calls["catalog.random_noncritical_point"]
        )
        attempted = self.calls["leaves.leaf_coefficient"]
        out["leaves.points_used_ratio"] = ratio(attempted - self.failures("leaves.leaf_coefficient"), attempted)
        out["interval.nodes_per_minimum"] = ratio(self.minimum_nodes, self.calls[MINIMUM])
        return out

    def write(self, path) -> None:
        """Spans as JSON lines, then one line of counters per (function, caller)."""
        with open(path, "w") as fh:
            for span_id, name, start, end, parent in sorted(self.spans):
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end, "parent": parent}))
                fh.write("\n")
            edges = [
                {"name": fn, "caller": caller, "calls": n, "self_s": self.edge_self_s[(fn, caller)]}
                for (fn, caller), n in sorted(self.edges.items())
            ]
            fh.write(json.dumps({"hot_edges": edges, "raised": [[f, e, n] for (f, e), n in sorted(self.raised.items())]}))
            fh.write("\n")


def installed_wrappers() -> list[str]:
    """Attributes of singfib that still hold a tracing wrapper (empty after uninstall)."""
    found = []
    for space in _singfib_namespaces():
        for attr, value in vars(space).items():
            if callable(value) and getattr(value, "__wrapped__", None) is not None and getattr(
                value, "__qualname__", ""
            ).startswith("Tracer._wrap"):
                found.append(f"{getattr(space, '__name__', space)}.{attr}")
    return found

