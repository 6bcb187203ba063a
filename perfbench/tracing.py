"""In-memory spans around the public functions of each mubsic module.

The tracer never edits the package: it replaces module attributes in the
benchmark's own process, in every mubsic module that holds the same object
(``frames`` imports ``hs_inner`` by name, ``siclab`` imports ``least_squares``
and ``hermitian_eigensystem``), and puts the originals back afterwards.

A span is (name, start, end, parent span, step id).  The layer of a span is
the part of its name before the first dot; artifact file readers and writers
count as the ``cli`` layer wherever they live.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import time
from array import array
from contextlib import contextmanager

from verdicts import median, ratio, self_times

LAYERS = ("cli", "linalg", "weyl", "plane", "frames", "siclab")
STEP = "step"

# (module, attribute, span name).  "Class.method" attributes are patched on
# the class.
WRAPPED = (
    ("cli", "build_parser", "cli.argparse"),
    ("cli", "_read_json", "cli.read_json"),
    ("cli", "_write_json", "cli.write_json"),
    ("cli", "_write_text", "cli.write_text"),
    ("linalg", "read_operator_json", "cli.read_operator_json"),
    ("siclab", "ingest_fiducial", "cli.ingest_fiducial"),
    ("siclab", "write_fiducial_json", "cli.write_fiducial_json"),
    ("siclab", "spectra_from_csv", "cli.spectra_from_csv"),
    ("linalg", "matrix_to_json_dict", "linalg.matrix_to_json_dict"),
    ("linalg", "matrix_from_json_dict", "linalg.matrix_from_json_dict"),
    ("linalg", "HermitianOp.from_matrix", "linalg.from_matrix"),
    ("linalg", "hs_inner", "linalg.hs_inner"),
    ("linalg", "hermitian_eigensystem", "linalg.eigh"),
    ("weyl", "build_mub", "weyl.build_mub"),
    ("weyl", "verify_mub", "weyl.verify_mub"),
    ("weyl", "build_weyl_pair", "weyl.build_weyl_pair"),
    ("weyl", "build_hg_basis", "weyl.build_hg_basis"),
    ("weyl", "monomial", "weyl.monomial"),
    ("weyl", "MubFamily.to_json_dict", "weyl.mub_to_json"),
    ("plane", "build_dapg", "plane.build_dapg"),
    ("plane", "build_apg", "plane.build_apg"),
    ("plane", "verify_incidence", "plane.verify_incidence"),
    ("plane", "verify_apg", "plane.verify_apg"),
    ("plane", "export_incidence", "plane.export"),
    ("plane", "export_apg", "plane.export"),
    ("frames", "point_frame_from_mub", "frames.construct"),
    ("frames", "point_frame_from_hg", "frames.construct"),
    ("frames", "line_ops_from_points", "frames.bridge"),
    ("frames", "verify_point_table", "frames.verify_tables"),
    ("frames", "verify_line_table", "frames.verify_tables"),
    ("frames", "verify_point_line_products", "frames.verify_point_line"),
    ("frames", "quasi_distribution", "frames.quasi"),
    ("frames", "line_probabilities", "frames.quasi"),
    ("frames", "point_frame_to_json_dict", "frames.to_json"),
    ("frames", "line_frame_to_json_dict", "frames.to_json"),
    ("frames", "point_frame_from_json_dict", "frames.from_json"),
    ("frames", "line_frame_from_json_dict", "frames.from_json"),
    ("siclab", "search_fiducial", "siclab.search"),
    ("siclab", "solve_cyclic_probability", "siclab.solve_prob"),
    ("siclab", "qubit_fiducial", "siclab.builtin_fiducial"),
    ("siclab", "qutrit_fiducial", "siclab.builtin_fiducial"),
    ("siclab", "generate_hw_sic", "siclab.generate"),
    ("siclab", "verify_sic", "siclab.verify_sic"),
    ("siclab", "extract_mu_pom", "siclab.extract_mu_pom"),
    ("siclab", "spectra_table", "siclab.spectra"),
    ("siclab", "spectra_to_csv", "siclab.spectra_csv"),
    ("siclab", "assert_column_constant", "siclab.column_check"),
    ("siclab", "group_columns_by_spectrum", "siclab.group"),
    ("siclab", "SicFamily.to_json_dict", "siclab.family_json"),
    ("siclab", "SicFamily.from_json_dict", "siclab.family_json"),
)

# Per-layer metrics: name -> (kind, span names).  "time" is the time spent
# inside any of the spans (a span nested directly in another of the set is
# not counted twice); "calls" counts the spans.
SPAN_METRICS = {
    "cli.json_read_s": ("time", {"cli.read_json", "cli.read_operator_json",
                                 "cli.ingest_fiducial", "cli.spectra_from_csv"}),
    "cli.json_write_s": ("time", {"cli.write_json", "cli.write_text", "cli.write_fiducial_json"}),
    "linalg.codec_s": ("time", {"linalg.matrix_to_json_dict", "linalg.matrix_from_json_dict"}),
    "linalg.codec_calls": ("calls", {"linalg.matrix_to_json_dict", "linalg.matrix_from_json_dict"}),
    "linalg.from_matrix_calls": ("calls", {"linalg.from_matrix"}),
    "linalg.hs_inner_calls": ("calls", {"linalg.hs_inner"}),
    "linalg.hs_inner_s": ("time", {"linalg.hs_inner"}),
    "linalg.eigh_calls": ("calls", {"linalg.eigh"}),
    "linalg.eigh_s": ("time", {"linalg.eigh"}),
    "weyl.build_mub_s": ("time", {"weyl.build_mub"}),
    "weyl.verify_mub_s": ("time", {"weyl.verify_mub"}),
    "weyl.build_hg_basis_s": ("time", {"weyl.build_hg_basis"}),
    "weyl.monomial_calls": ("calls", {"weyl.monomial"}),
    "plane.build_dapg_s": ("time", {"plane.build_dapg"}),
    "plane.build_dapg_calls": ("calls", {"plane.build_dapg"}),
    "plane.verify_incidence_s": ("time", {"plane.verify_incidence"}),
    "plane.verify_apg_s": ("time", {"plane.verify_apg"}),
    "frames.construct_s": ("time", {"frames.construct"}),
    "frames.bridge_s": ("time", {"frames.bridge"}),
    "frames.verify_tables_s": ("time", {"frames.verify_tables"}),
    "frames.verify_point_line_s": ("time", {"frames.verify_point_line"}),
    "frames.quasi_s": ("time", {"frames.quasi"}),
    "siclab.search_s": ("time", {"siclab.search"}),
    "siclab.search_restarts": ("calls", {"siclab.search_lsq"}),
    "siclab.search_nfev": ("calls", {"siclab.search_fun"}),
    "siclab.search_njev": ("calls", {"siclab.search_jac"}),
    "siclab.search_fun_s": ("time", {"siclab.search_fun"}),
    "siclab.search_jac_s": ("time", {"siclab.search_jac"}),
    "siclab.solve_prob_s": ("time", {"siclab.solve_prob"}),
    "siclab.solve_prob_nfev": ("calls", {"siclab.solve_fun"}),
    "siclab.generate_s": ("time", {"siclab.generate"}),
    "siclab.verify_sic_s": ("time", {"siclab.verify_sic"}),
    "siclab.extract_mu_pom_s": ("time", {"siclab.extract_mu_pom"}),
    "siclab.spectra_s": ("time", {"siclab.spectra"}),
    "siclab.group_s": ("time", {"siclab.group"}),
}


class Tracer:
    """Spans kept in flat arrays, so that a few hundred thousand fit in a few
    megabytes; counters for what a span does not show (bytes, converged
    restarts)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.step = array("i")
        self.counters: dict[str, float] = {}
        self._stack = [-1]
        self._step_id = -1

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.step.append(self._step_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def begin_step(self) -> int:
        """Open the span of one CLI call; spans until its close share its id."""
        self._step_id += 1
        return self.open(STEP)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def is_open(self, name: str) -> bool:
        return any(self.names[self.name_id[i]] == name for i in self._stack[1:])

    def wrap(self, fn, name: str, after=None):
        """``fn`` inside a span; ``after(args, kwargs, result)`` runs inside it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            finally:
                self.close(idx)

        return traced

    # --- analysis ----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics over every span recorded so far."""
        names = [self.names[i] for i in self.name_id]
        durs = [e - s for s, e in zip(self.start, self.end)]
        by_name: dict[str, list[int]] = {}
        for i, n in enumerate(names):
            by_name.setdefault(n, []).append(i)
        out = {}
        for metric, (kind, members) in SPAN_METRICS.items():
            hits = [i for n in members for i in by_name.get(n, ())]
            if kind == "calls":
                out[metric] = len(hits)
            else:
                out[metric] = sum(
                    durs[i] for i in hits
                    if self.parent[i] < 0 or names[self.parent[i]] not in members
                )
        own = self_times(durs, self.parent)
        lsq = by_name.get("siclab.search_lsq", [])
        out["siclab.search_solver_other_s"] = sum(own[i] for i in lsq)
        out["siclab.search_useful_ratio"] = ratio(self.counters.get("search_converged", 0), len(lsq))
        out["cli.artifact_bytes_read"] = self.counters.get("bytes_read", 0)
        out["cli.artifact_bytes_written"] = self.counters.get("bytes_written", 0)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
        for n, t in zip(names, own):
            layer = n.split(".", 1)[0]
            if layer != STEP:
                out[f"{layer}.self_s"] += t
        steps = by_name.get(STEP, [])
        unattributed = sum(own[i] for i in steps)
        out["trace.unattributed_s"] = unattributed
        out["trace.coverage"] = 1.0 - ratio(unattributed, sum(durs[i] for i in steps))
        out["trace.spans"] = len(names)
        return out

    def rows(self) -> list[list]:
        """Every span as [name, start, end, parent, step]."""
        return [
            [self.names[n], s, e, p, st]
            for n, s, e, p, st in zip(self.name_id, self.start, self.end, self.parent, self.step)
        ]


def _path_size(path) -> int:
    return os.path.getsize(path) if path is not None else 0


@contextmanager
def instrumented(tracer: Tracer, mubsic):
    """Patch every function in WRAPPED (and scipy's least_squares as siclab
    sees it) with a traced version for the duration of the block."""
    modules = {name: getattr(mubsic, name) for name in LAYERS}
    search_tol = mubsic.siclab.SearchConfig().objective_tol

    def count_read(args, kwargs, result):
        tracer.count("bytes_read", _path_size(args[0]))

    def count_text(args, kwargs, result):
        tracer.count("bytes_read", len(args[0].encode()))

    def count_written(args, kwargs, result):
        if args[0] is not None:
            tracer.count("bytes_written", len(args[1].encode()))

    def count_file_written(args, kwargs, result):
        tracer.count("bytes_written", _path_size(args[0]))

    def trace_parse(args, kwargs, parser):
        parser.parse_args = tracer.wrap(parser.parse_args, "cli.argparse")

    after = {
        "cli.build_parser": trace_parse,
        "cli._read_json": count_read,
        "linalg.read_operator_json": count_read,
        "siclab.ingest_fiducial": count_read,
        "siclab.spectra_from_csv": count_text,
        "cli._write_text": count_written,
        "siclab.write_fiducial_json": count_file_written,
    }

    least_squares = modules["siclab"].least_squares

    def traced_least_squares(fun, x0, *args, jac, **kwargs):
        kind = "search" if tracer.is_open("siclab.search") else "solve"
        with tracer.span(f"siclab.{kind}_lsq"):
            res = least_squares(
                tracer.wrap(fun, f"siclab.{kind}_fun"), x0, *args,
                jac=tracer.wrap(jac, f"siclab.{kind}_jac"), **kwargs,
            )
        if kind == "search" and float((res.fun ** 2).sum()) <= search_tol:
            tracer.count("search_converged")
        return res

    undo = []

    def patch(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    try:
        patch(modules["siclab"], "least_squares", traced_least_squares)
        for mod_name, attr, span in WRAPPED:
            mod = modules[mod_name]
            hook = after.get(f"{mod_name}.{attr}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    patch(cls, meth, classmethod(tracer.wrap(raw.__func__, span, hook)))
                else:
                    patch(cls, meth, tracer.wrap(raw, span, hook))
                continue
            orig = getattr(mod, attr)
            traced = tracer.wrap(orig, span, hook)
            for other in modules.values():
                for name, value in list(vars(other).items()):
                    if value is orig:
                        patch(other, name, traced)
        yield
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


def layer_table(metrics: dict) -> list[tuple[str, float]]:
    """(layer, self seconds) rows, largest first."""
    rows = [(layer, metrics[f"{layer}.self_s"]) for layer in LAYERS]
    rows.append(("(unattributed step time)", metrics["trace.unattributed_s"]))
    return sorted(rows, key=lambda r: -r[1])


def median_metrics(runs: list[dict]) -> dict:
    return {k: median([r[k] for r in runs]) for k in runs[0]}


def write_spans(path: str, tracers: list[Tracer], extra: dict) -> None:
    """Write the spans of every traced pass, and ``extra``, as gzipped JSON."""
    with gzip.open(path, "wt") as fh:
        json.dump({**extra, "span_fields": ["name", "start", "end", "parent", "step"],
                   "passes": [t.rows() for t in tracers]}, fh)
