"""Spans and counters recorded from outside the cnomial package.

The tracer replaces public functions at the attribute their caller looks
up (for example ``engine.mat_vec_mul``, because engine imports it by name)
with wrappers that record a span: name, start, end, parent span and op id.
Self time (a span's duration minus its child spans) is accumulated as each
span closes, since the package is single-threaded and children always
close before their parent.  Spans stay in memory and are written out once,
at the end.  Nothing under src/ is modified.
"""

from __future__ import annotations

import gzip
import itertools
import operator
import time
from array import array
from math import comb

# Span name prefix -> layer.  "bench" spans are the benchmark's own op and
# set-up brackets: their self time is work outside every wrapped function.
LAYERS = ("seqcore", "apparition", "transfer", "initvec", "polyarith",
          "engine", "oracle", "cli")

# (module, attribute, span name).  The attribute is the one the caller
# looks up at call time, so the wrapper sees every call that goes through it.
SPAN_TARGETS = (
    ("cnomial.cli", "run", "cli.run"),
    ("cnomial.apparition", "classify", "apparition.classify"),
    ("cnomial.seqcore", "parse_selector", "seqcore.parse_selector"),
    ("cnomial.seqcore", "load_terms_file", "seqcore.load_terms_file"),
    ("cnomial.engine", "eval_generating_poly", "engine.eval_generating_poly"),
    ("cnomial.engine", "linear_representation", "engine.linear_representation"),
    ("cnomial.engine", "LinearRepresentation.to_json_dict", "engine.to_json_dict"),
    ("cnomial.engine", "mat_vec_mul", "polyarith.mat_vec_mul"),
    ("cnomial.engine", "row_vec_mul", "polyarith.row_vec_mul"),
    ("cnomial.engine", "digit_matrices", "transfer.digit_matrices"),
    ("cnomial.initvec", "vector_for", "initvec.vector_for"),
    ("cnomial.oracle", "brute_generating_poly", "oracle.brute_generating_poly"),
    ("cnomial.oracle", "corial_valuation_table", "oracle.corial_valuation_table"),
)

NO_PARENT = -1


class Tracer:
    def __init__(self):
        self.active = False
        self.op_id = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._stack: list[list] = []          # [span_id, child_seconds]
        self._next_id = 0
        self.span_id = array("q")
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_self = array("d")
        self.counters: dict[str, int] = {
            "seqcore.residues_yielded": 0,
            "initvec.tuples_enumerated": 0,
            "oracle.tuples_enumerated": 0,
            "engine.digits_processed": 0,
            "polyarith.peak_coeff_bits": 0,
            "polyarith.max_degree": 0,
            "transfer.digit_matrices_hits": 0,
            "transfer.digit_matrices_misses": 0,
        }
        self.paths: dict[str, int] = {}
        self._residue_counters: list[itertools.count] = []
        self._digit_cache_start = (0, 0)
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self) -> list:
        frame = [self._next_id, 0.0, self._stack[-1] if self._stack else None]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def end(self, frame: list, name_id: int, t0: float, t1: float) -> None:
        self._stack.pop()
        dur = t1 - t0
        parent = frame[2]
        if parent is not None:
            parent[1] += dur
        self.span_id.append(frame[0])
        self.span_name.append(name_id)
        self.span_parent.append(parent[0] if parent is not None else NO_PARENT)
        self.span_op.append(self.op_id)
        self.span_start.append(t0)
        self.span_end.append(t1)
        self.span_self.append(dur - frame[1])

    def merge_child(self, child: dict, parent_frame: list) -> None:
        """Fold spans and counters written by a traced child process into
        this tracer, re-parenting the child's root spans under parent_frame."""
        # Spans are stored as they close, so a parent follows its children.
        remap = {}
        for span in child["spans"]:
            remap[span[0]] = self._next_id
            self._next_id += 1
        for sid, name, parent, start, end, self_s in child["spans"]:
            if parent == NO_PARENT:
                parent_frame[1] += end - start
                new_parent = parent_frame[0]
            else:
                new_parent = remap[parent]
            self.span_id.append(remap[sid])
            self.span_name.append(self.name_id(name))
            self.span_parent.append(new_parent)
            self.span_op.append(self.op_id)
            self.span_start.append(start)
            self.span_end.append(end)
            self.span_self.append(self_s)
        for key, value in child["counters"].items():
            if key in ("polyarith.peak_coeff_bits", "polyarith.max_degree"):
                self.counters[key] = max(self.counters[key], value)
            else:
                self.counters[key] += value
        for path, n in child["paths"].items():
            self.paths[path] = self.paths.get(path, 0) + n

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        nid = self.name_id(name)
        tracer = self
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer.begin()
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(frame, nid, t0, perf())
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_eval(self, args, kwargs, result) -> None:
        self.counters["engine.digits_processed"] += len(result.decomposition[3])
        path = result.path.value
        self.paths[path] = self.paths.get(path, 0) + 1

    def _after_row_vec(self, args, kwargs, poly) -> None:
        # The answer polynomial: its degree and widest coefficient.
        c = self.counters
        c["polyarith.max_degree"] = max(c["polyarith.max_degree"], poly.degree)
        if poly:
            bits = max(coef for _, coef in poly.items()).bit_length()
            c["polyarith.peak_coeff_bits"] = max(c["polyarith.peak_coeff_bits"], bits)

    def _after_brute(self, args, kwargs, result) -> None:
        k = args[2] if len(args) > 2 else kwargs["k"]
        n = args[3] if len(args) > 3 else kwargs["n"]
        self.counters["oracle.tuples_enumerated"] += comb(n + k - 1, k - 1)

    def install(self) -> None:
        """Patch every target; import the package first if needed."""
        import importlib

        after = {
            "engine.eval_generating_poly": self._after_eval,
            "polyarith.row_vec_mul": self._after_row_vec,
            "oracle.brute_generating_poly": self._after_brute,
        }
        for module_name, attr, span in SPAN_TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            self._restore.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(span, original, after.get(span)))

        from cnomial import initvec, seqcore, transfer

        # Counters only: these run millions of times, so no span.
        residues = seqcore.residues
        f_value = initvec.f_value
        tracer = self
        counters = self.counters

        def counted_residues(spec, m):
            if not tracer.active:
                return residues(spec, m)
            # zip/map/count are C iterators: the per-index cost stays small.
            c = itertools.count()
            tracer._residue_counters.append(c)
            return map(operator.itemgetter(0), zip(residues(spec, m), c))

        def counted_f_value(*args, **kwargs):
            if tracer.active:
                counters["initvec.tuples_enumerated"] += 1
            return f_value(*args, **kwargs)

        self._restore.append((seqcore, "residues", residues))
        self._restore.append((initvec, "f_value", f_value))
        seqcore.residues = counted_residues
        initvec.f_value = counted_f_value
        self._digit_cache = transfer.digit_matrices.cache_info

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._restore):
            setattr(owner, leaf, original)
        self._restore.clear()

    def start(self) -> None:
        info = self._digit_cache()
        self._digit_cache_start = (info.hits, info.misses)
        self.active = True

    def stop(self) -> None:
        self.active = False
        info = self._digit_cache()
        self.counters["transfer.digit_matrices_hits"] += info.hits - self._digit_cache_start[0]
        self.counters["transfer.digit_matrices_misses"] += info.misses - self._digit_cache_start[1]
        self.counters["seqcore.residues_yielded"] += sum(next(c) for c in self._residue_counters)
        self._residue_counters.clear()

    # -- output ------------------------------------------------------------

    def child_payload(self) -> dict:
        """What a traced child process hands back to its parent."""
        spans = [
            (self.span_id[i], self.names[self.span_name[i]], self.span_parent[i],
             self.span_start[i], self.span_end[i], self.span_self[i])
            for i in range(len(self.span_id))
        ]
        return {"spans": spans, "counters": self.counters, "paths": self.paths}

    def layer_metrics(self) -> dict[str, float]:
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for nid, start, end, own in zip(self.span_name, self.span_start,
                                        self.span_end, self.span_self):
            name = self.names[nid]
            total[name] = total.get(name, 0.0) + (end - start)
            self_s[name] = self_s.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
        layer_self = {layer: 0.0 for layer in LAYERS + ("bench",)}
        for name, s in self_s.items():
            layer_self[name.split(".", 1)[0]] += s
        c = self.counters
        hits, misses = c["transfer.digit_matrices_hits"], c["transfer.digit_matrices_misses"]
        m = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS if layer != "cli"}
        m.update({
            "bench.self_s": layer_self["bench"],
            "apparition.classify_s": total.get("apparition.classify", 0.0),
            "apparition.classify_calls": calls.get("apparition.classify", 0),
            "seqcore.residues_yielded": c["seqcore.residues_yielded"],
            "polyarith.mat_vec_mul_s": total.get("polyarith.mat_vec_mul", 0.0),
            "polyarith.mat_vec_mul_calls": calls.get("polyarith.mat_vec_mul", 0),
            "polyarith.row_vec_mul_s": total.get("polyarith.row_vec_mul", 0.0),
            "polyarith.peak_coeff_bits": c["polyarith.peak_coeff_bits"],
            "polyarith.max_degree": c["polyarith.max_degree"],
            "engine.eval_s": total.get("engine.eval_generating_poly", 0.0),
            "engine.eval_self_s": self_s.get("engine.eval_generating_poly", 0.0),
            "engine.eval_calls": calls.get("engine.eval_generating_poly", 0),
            "engine.digits_processed": c["engine.digits_processed"],
            "transfer.digit_matrices_s": total.get("transfer.digit_matrices", 0.0),
            "transfer.digit_matrices_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "initvec.vector_for_s": total.get("initvec.vector_for", 0.0),
            "initvec.vector_for_calls": calls.get("initvec.vector_for", 0),
            "initvec.tuples_enumerated": c["initvec.tuples_enumerated"],
            "oracle.brute_s": total.get("oracle.brute_generating_poly", 0.0),
            "oracle.table_s": total.get("oracle.corial_valuation_table", 0.0),
            "oracle.tuples_enumerated": c["oracle.tuples_enumerated"],
            "cli.run_self_s": self_s.get("cli.run", 0.0),
            "trace.spans": len(self.span_id),
        })
        for path in ("IdealMatrixProduct", "AcceptableMatrixProduct",
                     "TrivialNoApparition", "OracleFallback"):
            m[f"engine.path_{path}_ops"] = self.paths.get(path, 0)
        return m

    def write_spans(self, path: str, origin: float) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as f:
            f.write("span_id,name,start_s,end_s,parent,op,self_s\n")
            for i in range(len(self.span_id)):
                f.write(f"{self.span_id[i]},{self.names[self.span_name[i]]},"
                        f"{self.span_start[i] - origin:.9f},{self.span_end[i] - origin:.9f},"
                        f"{self.span_parent[i]},{self.span_op[i]},{self.span_self[i]:.9f}\n")
