"""Per-layer tracing from outside the program.

`Tracer.install` replaces the module-level names that `equisynth.cli` and
`equisynth.solver` call with wrappers that record a span (name, start, end,
parent, operation) and a few counts taken from the arguments and results.
Nothing in the package changes; `uninstall` puts the originals back.  Spans
stay in memory until the run writes them out.

Layers and the names that feed them:

    parsing     cli.parse_game, cli.parse_comm_graph, cli.parse_query
    epistemic   cli.build_reachable
    solver      cli.solve, solver.punishment_region, solver._solve_layer,
                solver._layer_color_classes, cli.model_check_strategy
    parity      solver.solve_parity
    translate   cli.omega, cli.check_normed, cli.check_deviation_resistance
    cli         the operation itself, and EveStrategy.from_dict
"""
from __future__ import annotations

import time
from collections import Counter, defaultdict


def _eg_counts(result, _args):
    return {"eve_states": result.eve_count(), "adam_nodes": result.adam_count()}


def _parity_counts(_result, args):
    pg = args[0]
    nodes = pg.node_count()
    return {"parity_calls": 1, "parity_edges": sum(map(len, pg.succ)),
            "product_nodes": nodes, "max_product_nodes": nodes}


def _layer_counts(result, _args):
    return {"layers": 1, "colour_classes": len(result.classes)}


def _solve_counts(result, _args):
    return {"found": int(result is not None)}


# (module attribute, span name, count function or None).  The span names
# are the keys the per-layer metrics are computed from.
CLI_POINTS = (
    ("parse_game", "parse", None),
    ("parse_comm_graph", "parse", None),
    ("parse_query", "parse", None),
    ("build_reachable", "build", _eg_counts),
    ("solve", "solve", _solve_counts),
    ("model_check_strategy", "model_check",
     lambda r, _a: {"model_check_nodes": r.product_nodes}),
    ("omega", "omega", None),
    ("check_normed", "normed", lambda r, _a: {"normed_explored": r.explored}),
    ("check_deviation_resistance", "resist",
     lambda r, _a: {"resist_nodes": r.product_nodes}),
)
SOLVER_POINTS = (
    ("punishment_region", "punish", lambda _r, _a: {"punish_calls": 1}),
    ("_solve_layer", "layer", _layer_counts),
    ("_layer_color_classes", "colour_classes", None),
    ("solve_parity", "parity", _parity_counts),
)
MAX_COUNTS = ("max_product_nodes",)


class Tracer:
    def __init__(self):
        # One span: [name, start, end, parent index or -1, operation id].
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _count(self, counts: dict) -> None:
        for key, value in counts.items():
            if key in MAX_COUNTS:
                self.maxima[key] = max(self.maxima.get(key, 0), value)
            else:
                self.counts[key] += value

    def wrap(self, fn, name: str, count=None):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                self._count(count(result, args))
            return result

        traced.__wrapped__ = fn
        return traced

    def call(self, op_id: int, fn, *args):
        """Run one operation as a root span."""
        self._op = op_id
        idx = self._open("op")
        try:
            return fn(*args)
        finally:
            self._close(idx)

    # -- installation -----------------------------------------------------
    def _patch(self, owner, attr: str, value) -> None:
        # Class attributes are saved raw, so a staticmethod stays one.
        saved = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._restore.append((owner, attr, saved))
        setattr(owner, attr, value)

    def install(self, cli, solver) -> None:
        for attr, name, count in CLI_POINTS:
            self._patch(cli, attr, self.wrap(getattr(cli, attr), name, count))
        for attr, name, count in SOLVER_POINTS:
            self._patch(solver, attr, self.wrap(getattr(solver, attr), name, count))
        cls = cli.EveStrategy
        load = self.wrap(cls.from_dict, "verify_load")
        self._patch(cls, "from_dict", staticmethod(load))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- aggregation ------------------------------------------------------
    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.maxima.clear()

    def totals(self, scales: dict[int, float]) -> tuple[dict[str, float], dict[str, float]]:
        """Per span name: total duration and total self time (duration minus
        the part covered by direct children), each span's duration multiplied
        by the factor `scales` gives its operation."""
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            seconds = (end - start) * scales[op]
            total[name] += seconds
            if parent >= 0:
                child[parent] += seconds
        self_time: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent, op) in enumerate(self.spans):
            self_time[name] += (end - start) * scales[op] - child[i]
        return total, self_time

    def layer_metrics(self, scales: dict[int, float]) -> dict[str, float]:
        """Per-layer metrics of the spans and counts recorded since `reset`,
        times scaled per operation by `scales`."""
        t, own = self.totals(scales)
        c = self.counts
        build_s = t["build"]
        nodes = c["eve_states"] + c["adam_nodes"]
        return {
            "parsing.s": t["parse"],
            "epistemic.build_s": build_s,
            "epistemic.eve_states": c["eve_states"],
            "epistemic.adam_nodes": c["adam_nodes"],
            "epistemic.nodes_per_s": nodes / build_s if build_s else 0.0,
            "parity.solve_s": t["parity"],
            "parity.calls": c["parity_calls"],
            "parity.edges": c["parity_edges"],
            "lar.product_nodes": c["product_nodes"],
            "lar.max_product_nodes": self.maxima.get("max_product_nodes", 0),
            "lar.colour_classes": c["colour_classes"],
            "lar.build_s": own["layer"],
            "solver.solve_s": t["solve"],
            "solver.punish_s": t["punish"],
            "solver.punish_self_s": t["punish"] - t["parity"],
            "solver.colour_classes_s": t["colour_classes"],
            "solver.lasso_s": own["solve"],
            "solver.punish_calls": c["punish_calls"],
            "solver.layers": c["layers"],
            "solver.useful_ratio": c["found"] / c["punish_calls"] if c["punish_calls"] else 0.0,
            "solver.model_check_s": t["model_check"],
            "solver.model_check_nodes": c["model_check_nodes"],
            "translate.omega_s": t["omega"],
            "translate.normed_s": t["normed"],
            "translate.normed_explored": c["normed_explored"],
            "translate.resist_s": t["resist"],
            "translate.resist_nodes": c["resist_nodes"],
            "cli.verify_load_s": t["verify_load"],
            "cli.self_s": own["op"],
        }

    def shares(self, scales: dict[int, float]) -> dict[str, float]:
        """Self time of each layer, summing to the operations' total time."""
        t, own = self.totals(scales)
        return {
            "parsing": t["parse"],
            "epistemic": t["build"],
            "parity": t["parity"],
            "solver.colour_classes": t["colour_classes"],
            "lar.build": own["layer"],
            "solver.punish (rest)": own["punish"],
            "solver.lasso": own["solve"],
            "solver.model_check": t["model_check"],
            "translate": t["omega"] + t["normed"] + t["resist"],
            "cli.verify_load": t["verify_load"],
            "cli.self": own["op"],
        }

    def to_json(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "counts": dict(self.counts),
            "maxima": self.maxima,
        }
