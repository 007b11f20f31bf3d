"""Outside-in tracer for removal_lab: spans around the public functions of
each layer, recorded without changing anything under src/.

install() replaces every binding of each wrapped function across the
removal_lab.* module namespaces (removal and ramsey import by name, so
patching only the defining module would miss their calls); methods are
replaced on their class.  uninstall() puts the originals back.  A span is
(name, start, end, parent); spans stay in memory in flat arrays and are
written out once, when the run ends.  The solution generator of `patterns`
is wrapped per next(), so its span ("patterns.enum") covers only the time
spent producing chunks, not the caller's work between them.

Counters are read from arguments and return values at the same boundaries
(tuples enumerated, FFT points, model attempts, ...), never from inside the
functions.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

# (layer, module, attribute); "Class.method" attributes are patched on the class
TARGETS = [
    ("fields", "removal_lab.fields", "null_space"),
    ("fields", "removal_lab.fields", "rank"),
    ("fields", "removal_lab.fields", "Subspace.from_rows"),
    ("fields", "removal_lab.fields", "Subspace.complement"),
    ("space", "removal_lab.space", "Space.coset_points"),
    ("space", "removal_lab.space", "Space.subspace_points"),
    ("space", "removal_lab.space", "Space.coset_ids"),
    ("space", "removal_lab.space", "Coloring.restrict"),
    ("space", "removal_lab.space", "read_coloring"),
    ("space", "removal_lab.space", "write_coloring"),
    ("fourier", "removal_lab.fourier", "transform"),
    ("fourier", "removal_lab.fourier", "batch_coset_norms"),
    ("energy", "removal_lab.energy", "project_energy"),
    ("patterns", "removal_lab.patterns", "iter_solution_chunks"),
    ("patterns", "removal_lab.patterns", "pattern_stats"),
    ("patterns", "removal_lab.patterns", "first_instance"),
    ("patterns", "removal_lab.patterns", "batch_rank"),
    ("patterns", "removal_lab.patterns", "subpattern_closure"),
    ("patterns", "removal_lab.patterns", "complexity1_check"),
    ("regularize", "removal_lab.regularize", "regularity_recolor"),
    ("regularize", "removal_lab.regularize", "regular_model"),
    ("regularize", "removal_lab.regularize", "strong_regularize"),
    ("regularize", "removal_lab.regularize", "green_regularize"),
    ("regularize", "removal_lab.regularize", "verify_model"),
    ("ramsey", "removal_lab.ramsey", "decide_dichotomy"),
    ("ramsey", "removal_lab.ramsey", "canonical_coloring"),
    ("removal", "removal_lab.removal", "induced_removal"),
    ("cli", "removal_lab.cli", "main"),
]
LAYERS = ("cli", "removal", "ramsey", "regularize", "energy", "fourier", "patterns", "space", "fields")
ENUM_SPAN = "patterns.enum"
GENERATORS = {"patterns.iter_solution_chunks"}
PHASES = ("recolor", "closure", "dichotomy", "verify")
OUTCOMES = ("free", "case_a", "refused")


def span_name(layer: str, attr: str) -> str:
    return f"{layer}.{attr.rsplit('.', 1)[-1]}"


def metric_units() -> dict[str, str]:
    """Every per-layer metric the tracer computes, in print order, with its unit."""
    units = {}
    for layer, _, attr in TARGETS:
        name = span_name(layer, attr)
        units[f"{name}.calls"] = "count"
        if name in GENERATORS:
            units["patterns.enum_s"] = "s"
            units["patterns.chunks"] = "count"
            units["patterns.tuples"] = "count"
        else:
            units[f"{name}.s"] = "s"
    units.update({
        "patterns.first_instance.hit_ratio": "ratio",
        "regularize.model_attempts": "count",
        "regularize.green_rounds": "count",
        "regularize.verify_model.ok_ratio": "ratio",
        "regularize.model_nontrivial_ratio": "ratio",
        "fourier.coset_fft_points": "count",
        "space.read_coloring.points": "count",
        "ramsey.chi_tried": "count",
    })
    units.update({f"removal.phase.{ph}_s": "s" for ph in PHASES})
    units.update({f"removal.outcome.{o}": "count" for o in OUTCOMES})
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    return units


def _chi_index(chi, r: int) -> int:
    """Position of chi in the lexicographic order decide_dichotomy walks."""
    idx = 0
    for c in chi:
        idx = idx * r + (int(c) - 1)
    return idx


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_outer = array("b")  # no enclosing span of the same name
        self._stack: list[int] = []
        self._depth: dict[int, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []
        self.passes: list[tuple[int, int, dict]] = []  # (first span, end span, counter deltas)
        self._pass_start: tuple[int, dict] = (0, {})

    # --- span recording ---------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_outer.append(self._depth[nid] == 0)
        self.span_end.append(0.0)
        self._depth[nid] += 1
        self._stack.append(i)
        self.span_start.append(perf_counter())
        return i

    def _close(self, i: int, nid: int) -> None:
        self.span_end[i] = perf_counter()
        self._stack.pop()
        self._depth[nid] -= 1

    # --- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, func):
        nid = self._id(name)
        post = getattr(self, "_post_" + name.replace(".", "_"), None)
        error = getattr(self, "_error_" + name.replace(".", "_"), None)
        sig = inspect.signature(func)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                self._close(i, nid)
                if error is not None:
                    error(exc)
                raise
            self._close(i, nid)
            if post is not None:
                post(result, sig.bind(*args, **kwargs).arguments)
            return result

        return traced

    def _wrap_generator(self, name: str, func):
        nid = self._id(ENUM_SPAN)
        counts = self.counts

        @functools.wraps(func)
        def traced(*args, **kwargs):
            counts[name + ".calls"] += 1
            gen = func(*args, **kwargs)
            try:
                while True:
                    i = self._open(nid)
                    try:
                        chunk = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._close(i, nid)
                    counts["patterns.chunks"] += 1
                    counts["patterns.tuples"] += int(chunk.shape[0])
                    yield chunk
            finally:
                gen.close()

        return traced

    # counters read at the boundaries, keyed by span name

    def _post_patterns_first_instance(self, result, args):
        self.counts["patterns.first_instance.hits"] += result is not None

    def _post_regularize_regular_model(self, result, args):
        self.counts["regularize.model_attempts"] += int(result.attempts)
        self.counts["regularize.model_nontrivial"] += result.v1.dim > 0

    def _post_regularize_green_regularize(self, result, args):
        self.counts["regularize.green_rounds"] += len(result.rounds)

    def _post_regularize_verify_model(self, result, args):
        self.counts["regularize.verify_model.ok"] += bool(result["ok"])

    def _post_fourier_batch_coset_norms(self, result, args):
        # dim 0 returns early without a transform, so it adds no FFT points
        if args["sub"].dim > 0:
            self.counts["fourier.coset_fft_points"] += int(np.asarray(args["reps"]).size) * args["space"].p ** args["sub"].dim

    def _post_space_read_coloring(self, result, args):
        self.counts["space.read_coloring.points"] += int(result.space.size)

    def _post_ramsey_decide_dichotomy(self, result, args):
        if result.case == "A":
            self.counts["ramsey.chi_tried"] += len(result.certificates)
        else:
            self.counts["ramsey.chi_tried"] += _chi_index(result.chi, result.r) + 1

    def _post_removal_induced_removal(self, result, args):
        self.counts["removal.outcome.free"] += 1

    def _error_removal_induced_removal(self, exc):
        kind = type(exc).__name__
        if kind == "CaseAAbort":
            self.counts["removal.outcome.case_a"] += 1
        elif kind == "VerificationError":
            self.counts["removal.outcome.refused"] += 1

    # --- patching -------------------------------------------------------------

    def install(self) -> None:
        import removal_lab.cli  # noqa: F401  (loads every module that gets patched)

        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items()) if key == "removal_lab" or key.startswith("removal_lab.")]
        for layer, modname, attr in TARGETS:
            name = span_name(layer, attr)
            mod = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                setattr(cls, meth, wrapped)
                self._restore.append((cls, meth, raw))
                continue
            orig = getattr(mod, attr)
            wrap = self._wrap_generator if name in GENERATORS else self._wrap
            wrapped = wrap(name, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)
                        self._restore.append((m, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    # --- passes and metrics -----------------------------------------------------

    def begin_pass(self) -> None:
        self._pass_start = (len(self.span_start), dict(self.counts))

    def end_pass(self) -> None:
        start, before = self._pass_start
        delta = {k: v - before.get(k, 0) for k, v in self.counts.items()}
        self.passes.append((start, len(self.span_start), delta))

    def pass_metrics(self, index: int) -> dict[str, float]:
        """Per-layer metrics of one traced pass (all keys of metric_units())."""
        a, b, counts = self.passes[index]
        names = np.array(self.span_name[a:b], dtype=np.int32)
        parent = np.array(self.span_parent[a:b], dtype=np.int32) - a
        dur = np.array(self.span_end[a:b]) - np.array(self.span_start[a:b])
        outer = np.array(self.span_outer[a:b], dtype=bool)
        has_parent = parent >= 0
        covered = np.zeros(b - a)
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_time = dur - covered
        layer_of = np.array([name.split(".")[0] for name in self.names] or [""])

        out: dict[str, float] = {}
        for metric, unit in metric_units().items():
            out[metric] = 0.0 if unit in ("s", "ratio") else 0
        for nid, name in enumerate(self.names):
            sel = names == nid
            if name == ENUM_SPAN:
                out["patterns.enum_s"] = float(dur[sel & outer].sum())
                continue
            out[f"{name}.calls"] = int(np.count_nonzero(sel))
            out[f"{name}.s"] = float(dur[sel & outer].sum())
        for key in ("patterns.iter_solution_chunks.calls", "patterns.chunks", "patterns.tuples",
                    "regularize.model_attempts", "regularize.green_rounds", "fourier.coset_fft_points",
                    "space.read_coloring.points", "ramsey.chi_tried") + tuple(f"removal.outcome.{o}" for o in OUTCOMES):
            out[key] = int(counts.get(key, 0))
        out["patterns.first_instance.hit_ratio"] = _ratio(counts.get("patterns.first_instance.hits", 0), out["patterns.first_instance.calls"])
        out["regularize.verify_model.ok_ratio"] = _ratio(counts.get("regularize.verify_model.ok", 0), out["regularize.verify_model.calls"])
        out["regularize.model_nontrivial_ratio"] = _ratio(counts.get("regularize.model_nontrivial", 0), out["regularize.regular_model.calls"])
        if names.size:
            layers = layer_of[names]
            for layer in LAYERS:
                out[f"{layer}.self_s"] = float(self_time[layers == layer].sum())
        out.update(self._phases(names, parent, dur))
        return out

    def _phases(self, names, parent, dur) -> dict[str, float]:
        """removal.phase.*_s: induced_removal's child spans, by the phase they ran in.

        Children before regularity_recolor (the complexity check) count as
        closure work; children after decide_dichotomy are the verify phase.
        """
        phase = {f"removal.phase.{ph}_s": 0.0 for ph in PHASES}
        ids = self._ids
        rid = ids.get("removal.induced_removal")
        if rid is None:
            return phase
        recolor_id = ids.get("regularize.regularity_recolor")
        dich_id = ids.get("ramsey.decide_dichotomy")
        for r in np.nonzero(names == rid)[0]:
            seen_dichotomy = False
            for c in np.nonzero(parent == r)[0]:
                if names[c] == recolor_id:
                    key = "recolor"
                elif names[c] == dich_id:
                    key, seen_dichotomy = "dichotomy", True
                else:
                    key = "verify" if seen_dichotomy else "closure"
                phase[f"removal.phase.{key}_s"] += float(dur[c])
        return phase

    def write(self, path: str) -> None:
        """All spans of the run as one compressed .npz (times in seconds)."""
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name=np.array(self.span_name, dtype=np.int32),
            parent=np.array(self.span_parent, dtype=np.int32),
            start=np.array(self.span_start),
            end=np.array(self.span_end),
            passes=np.array([(a, b) for a, b, _ in self.passes], dtype=np.int64).reshape(-1, 2),
        )


def _ratio(num: int, den: int) -> float:
    """num/den, and 0.0 when nothing was attempted."""
    return num / den if den else 0.0
