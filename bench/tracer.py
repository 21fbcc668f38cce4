"""Span tracing around the engine's public functions, from outside `src/`.

`Tracer.install` wraps every public function of the traced modules and
rebinds the wrapper in every `znfree` namespace that binds the original
(`render` in nielsen and pregroup, `multiply` in tower, hnn and factory, the
lamvec names inside tower, ...).  A span is (name, start, end, parent, task
id); spans are kept in flat arrays while the run lasts and written out when
it ends.  Three kinds of wrapper keep memory bounded (a reduce task makes
about 10^5 spans and several times as many small calls):

- span: every call of tower, hnn, factory, nielsen, pregroup and wordexpr;
- leaf: words calls are counted, and the time of the outermost one is added
  to the enclosing span's leaf time, which its self time excludes;
- count: lamvec calls and tower's accessors (lenvec, is_identity, ...) cost
  about as much as a wrapper, so they are only counted.

A span's self time is its duration minus its child spans and leaf time.
Spans opened while a task runs carry its index; set-up spans carry -1.
Checks and input generation run with tracing disabled.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

SPAN_MODULES = ("tower", "hnn", "factory", "nielsen", "pregroup", "wordexpr")
# leaves: no span is stored, their calls and time are folded into the
# enclosing span (words functions only call each other)
LEAF_MODULES = ("words",)
# calls that cost about as much as a wrapper: counted only
COUNT_MODULES = ("lamvec",)
COUNT_ONLY = {f"tower.{n}" for n in (
    "lenvec", "word_elem", "is_identity", "lam_len", "length", "height",
    "head_period", "tail_period", "offset_periods", "offset_period",
    "block_len", "zero_offset", "gen_elem", "letter_elem")}
SETUP = -1


class Tracer:
    def __init__(self, tower_names: dict):
        self.tower_names = tower_names  # id(tower) -> label, filled later
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.task = array("i")
        self.leaf_s = array("d")  # time of leaf calls made directly inside
        self.stack: list[int] = []
        self.task_id = SETUP
        self.enabled = True
        self.leaf_depth = 0
        self.mul_depth = 0
        # the fields below count the task phase only
        self.counts: Counter = Counter()  # calls of leaves and count-only
        self.leaf_total: Counter = Counter()  # outermost leaf time per layer
        self.results: Counter = Counter()  # non-None results per name
        self.ball_elems = 0
        self.outer: list[tuple[int, str]] = []  # (span index, tower label)
        self.seen_pairs: set = set()
        self.repeats = 0

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, after=None, before=None):
        nid = self._id(name)
        clock = time.perf_counter
        names, starts, ends = self.name, self.start, self.end
        parents, tasks, leaf_s = self.parent, self.task, self.leaf_s
        stack = self.stack
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            tasks.append(tracer.task_id)
            ends.append(0.0)
            leaf_s.append(0.0)
            if before is not None:
                before(idx, args)
            stack.append(idx)
            starts.append(clock())
            try:
                res = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                if before is not None:
                    tracer.mul_depth -= 1
            if after is not None:
                after(res)
            return res

        return wrapper

    def _leaf(self, name, layer, fn):
        clock = time.perf_counter
        counts, total = self.counts, self.leaf_total
        leaf_s, stack = self.leaf_s, self.stack
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            in_task = tracer.task_id != SETUP
            if in_task:
                counts[name] += 1
            if tracer.leaf_depth:
                return fn(*args, **kwargs)
            tracer.leaf_depth = 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                d = clock() - t0
                tracer.leaf_depth = 0
                if stack:
                    leaf_s[stack[-1]] += d
                if in_task:
                    total[layer] += d

        return wrapper

    def _count(self, name, fn):
        counts = self.counts
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.enabled and tracer.task_id != SETUP:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _before_multiply(self, idx, args):
        # outer calls: no multiply span is open below this one
        if self.mul_depth == 0 and self.task_id != SETUP:
            t, g, h = args[:3]
            self.outer.append((idx, self.tower_names.get(id(t), "other")))
            # Elem hashes are hashes of the canonical keys
            pair = hash((g, h))
            if pair in self.seen_pairs:
                self.repeats += 1
            else:
                self.seen_pairs.add(pair)
        self.mul_depth += 1

    def _hit(self, name):
        def after(res):
            if res is not None and self.task_id != SETUP:
                self.results[name] += 1
        return after

    def _ball(self, res):
        if self.task_id != SETUP:
            self.ball_elems += len(res)

    def _wrapper(self, short, name, fn):
        if short in LEAF_MODULES:
            return self._leaf(name, short, fn)
        if short in COUNT_MODULES or name in COUNT_ONLY:
            return self._count(name, fn)
        if name == "tower.multiply":
            return self._span(name, fn, before=self._before_multiply)
        if name in ("tower.abelian_exponents", "pregroup.decompose"):
            return self._span(name, fn, after=self._hit(name))
        if name == "nielsen.ball":
            return self._span(name, fn, after=self._ball)
        return self._span(name, fn)

    def install(self) -> None:
        """Wrap the traced modules' public functions in every znfree
        namespace that binds them."""
        mods = {n: m for n, m in sys.modules.items()
                if n == "znfree" or n.startswith("znfree.")}
        repl = {}
        for short in SPAN_MODULES + LEAF_MODULES + COUNT_MODULES:
            mod = mods[f"znfree.{short}"]
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    repl[id(fn)] = self._wrapper(short, f"{short}.{attr}", fn)
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and id(val) in repl:
                    setattr(mod, attr, repl[id(val)])
        gs = mods["znfree.nielsen"].GenSet
        gs.__init__ = self._span("nielsen.GenSet", gs.__init__)

    # -- output ------------------------------------------------------------

    def aggregate(self) -> dict:
        """(in task phase, name) -> (calls, self time), where a span's self
        time is its duration minus the time of its child spans and leaf
        calls."""
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        names, starts, ends = self.name, self.start, self.end
        parents, tasks, leaf_s = self.parent, self.task, self.leaf_s
        for i in range(len(names)):
            key = (tasks[i] != SETUP, names[i])
            calls[key] += 1
            d = ends[i] - starts[i]
            self_s[key] += d - leaf_s[i]
            p = parents[i]
            if p >= 0:
                self_s[(tasks[p] != SETUP, names[p])] -= d
        return {(ph, self.names[nid]): (n, self_s[(ph, nid)])
                for (ph, nid), n in calls.items()}

    def metrics(self) -> dict:
        agg = self.aggregate()

        def calls(name, phase=True):
            return agg.get((phase, name), (0, 0.0))[0]

        def self_s(name, phase=True):
            return agg.get((phase, name), (0, 0.0))[1]

        def ratio(a, b):
            return a / b if b else 0

        n_outer = len(self.outer)
        by_tower: defaultdict = defaultdict(list)
        for i, label in self.outer:
            by_tower[label].append(self.end[i] - self.start[i])
        m = {
            "words.calls": sum(n for k, n in self.counts.items()
                               if k.startswith("words.")),
            "words.self_s": self.leaf_total["words"],
            "lamvec.calls": sum(n for k, n in self.counts.items()
                                if k.startswith("lamvec.")),
            "tower.multiply.calls": calls("tower.multiply"),
            "tower.multiply.outer_calls": n_outer,
            "tower.multiply.self_s": self_s("tower.multiply"),
        }
        for label in ("fa3", "fa4", "fa5", "fp", "ns3", "t1", "surf2"):
            ds = by_tower.get(label, [])
            m[f"tower.multiply.mean_us.{label}"] = 1e6 * ratio(sum(ds),
                                                               len(ds))
        m["tower.multiply.repeat_share"] = ratio(self.repeats, n_outer)
        m["tower.build.calls"] = calls("tower.build")
        m["tower.build.self_s"] = self_s("tower.build")
        m["tower.build.per_multiply"] = ratio(calls("tower.build"), n_outer)
        ae = "tower.abelian_exponents"
        m[f"{ae}.calls"] = calls(ae)
        m[f"{ae}.self_s"] = self_s(ae)
        m[f"{ae}.hit_ratio"] = ratio(self.results[ae], calls(ae))
        for fn in ("com", "invert", "cyclic_decompose", "centralizer",
                   "is_conjugate"):
            m[f"tower.{fn}.calls"] = calls(f"tower.{fn}")
            m[f"tower.{fn}.self_s"] = self_s(f"tower.{fn}")
        for fn in ("pow_elem", "equals", "primitive_root"):
            m[f"tower.{fn}.calls"] = calls(f"tower.{fn}")
        # the set-up layers are measured over the set-up phase
        m["tower.validate_tower.self_s"] = self_s("tower.validate_tower",
                                                  False)
        m["hnn.extend_hnn.calls"] = calls("hnn.extend_hnn", False)
        m["hnn.extend_hnn.self_s"] = self_s("hnn.extend_hnn", False)
        m["hnn.check_admissible.self_s"] = self_s("hnn.check_admissible",
                                                  False)
        m["factory.self_s"] = sum(v[1] for (ph, n), v in agg.items()
                                  if not ph and n.startswith("factory."))
        m["nielsen.reduce_genset.calls"] = calls("nielsen.reduce_genset")
        m["nielsen.reduce_genset.self_s"] = self_s("nielsen.reduce_genset")
        m["nielsen.moves"] = sum(calls(f"nielsen.{mv}")
                                 for mv in ("mu", "eta", "nu"))
        m["nielsen.ball.calls"] = calls("nielsen.ball")
        m["nielsen.ball.self_s"] = self_s("nielsen.ball")
        m["nielsen.ball.elems"] = self.ball_elems
        m["nielsen.is_reduced.self_s"] = self_s("nielsen.is_reduced")
        m["nielsen.verify_witnesses.self_s"] = self_s(
            "nielsen.verify_witnesses")
        m["nielsen.GenSet.calls"] = calls("nielsen.GenSet")
        m["nielsen.subgroup_contains.calls"] = calls(
            "nielsen.subgroup_contains")
        m["nielsen.subgroup_contains.self_s"] = self_s(
            "nielsen.subgroup_contains")
        m["wordexpr.render.calls"] = calls("wordexpr.render")
        m["wordexpr.render.self_s"] = self_s("wordexpr.render")
        pd = "pregroup.decompose"
        m[f"{pd}.calls"] = calls(pd)
        m[f"{pd}.self_s"] = self_s(pd)
        m[f"{pd}.hit_ratio"] = ratio(self.results[pd], calls(pd))
        rp = "pregroup.reduce_psequence"
        m[f"{rp}.calls"] = calls(rp)
        m[f"{rp}.self_s"] = self_s(rp)
        m["pregroup.split_level.self_s"] = self_s("pregroup.split_level")
        return m

    def write(self, path) -> None:
        """Spans as a JSON header plus one binary column per field."""
        cols = {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "task": self.task,
                "leaf_s": self.leaf_s}
        header = {"names": self.names, "spans": len(self.name),
                  "columns": [[k, v.typecode] for k, v in cols.items()]}
        path.with_suffix(".json").write_text(json.dumps(header))
        with open(path.with_suffix(".bin"), "wb") as f:
            for col in cols.values():
                col.tofile(f)
