"""One phase of a benchmark workload, run in a fresh interpreter.

``run.py`` starts this as ``python perfbench/worker.py '<json spec>'``
with ``PYTHONPATH`` pointing at the checkout's ``src`` and every thread
pool pinned to one thread.  A fresh interpreter per phase means the
library's caches (``_cc_pair_count``, ``_FACTOR_CACHE``) start empty.
The worker calls only public library functions and prints one JSON
object as its last line of standard output.

Modes: ``pipeline`` (a stream of systems through every stage),
``census`` (one pass over the census grid) and ``cli-ref`` (the
expected output of each CLI command, from an in-process ``cli.main``).
"""

from __future__ import annotations

import time

_T0 = time.process_time()
import moduli_sys as ms  # noqa: E402  (the import is what setup_s times)

IMPORT_S = time.process_time() - _T0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from random import Random  # noqa: E402

from moduli_sys import cli  # noqa: E402

import inputs  # noqa: E402
import speed  # noqa: E402
from spans import NO_TRACE, Tracer, digest, percentile, span_cost_s  # noqa: E402

CENSUS_BOUND = 1 << 24  # passed explicitly, so MODULI_SYS_CENSUS_BOUND cannot matter
DIGEST_ITEMS = 16
REPLAY_PER_CLASS = 8
REPLAY_CLASSES = (3, 6, 10)
HEAVY_STAGES = ("quiver.is_simple", "kalman.canonical_form", "grassmann.moduli_point",
                "grassmann.stratum_point", "realization.realize")
STAGES = ("system.classify", "quiver.is_simple", "kalman.kalman_code",
          "kalman.canonical_form", "grassmann.moduli_point", "grassmann.stratum_point",
          "grassmann.locus_membership", "system.markov_parameters",
          "realization.realize", "realization.verify_realization")


# -- pipeline ------------------------------------------------------------------


def to_system(item: dict, q: int | None):
    return ms.system_from_json(inputs.system_json(item, item["shape"], q))


def stages(system, item_id, tr) -> dict:
    """Every pipeline stage on one system; cc-only stages need cc."""
    m, n, p = system.shape()
    out = {"cls": tr.call("system.classify", item_id, ms.classify, system)}
    out["simple"] = tr.call("quiver.is_simple", item_id, ms.is_simple, ms.QuiverRep.of(system))
    if out["cls"].cc:
        out["code"] = tr.call("kalman.kalman_code", item_id, ms.kalman_code, system)
        out["g"], out["canon"] = tr.call("kalman.canonical_form", item_id, ms.canonical_form, system)
        out["point"] = tr.call("grassmann.moduli_point", item_id, ms.moduli_point, system)
        out["big"] = tr.call("grassmann.stratum_point", item_id, ms.stratum_point, system)
        out["membership"] = tr.call("grassmann.locus_membership", item_id,
                                    ms.locus_membership, out["big"], m, p)
    seq = tr.call("system.markov_parameters", item_id, ms.MarkovSequence.from_system, system, 2 * n + 1)
    out["real"] = tr.call("realization.realize", item_id, ms.realize, seq)
    out["verified"] = tr.call("realization.verify_realization", item_id,
                              ms.verify_realization, out["real"], seq)
    return out


def cell_exempt(code, n: int) -> bool:
    """Whether a cell mismatch is the known ``moduli_point`` defect.

    For n >= 4 and codes with two or more occupied columns, the pivots of
    ``moduli_point`` depend on the canonical form's entries, not only on
    the code, and differ from ``multiindex_from_code`` for most such
    pipeline systems (smallest case: F_2, (m, n, p) = (2, 4, 0), heights
    (2, 2): pivots {1, 2, 3, 4}, multi-index {1, 2, 3, 5}).  Like
    criterion 6, that is an open defect of the program, not of one item.
    """
    return n >= 4 and len(code.occupied_columns) >= 2


def check(system, out) -> list[str]:
    """Gate problems of one item.

    ``in_co`` is not checked against ``classify``: that is the open
    criterion-6 discrepancy, not a benchmark failure.  Where the cell
    check meets the known defect (:func:`cell_exempt`), the point must
    still lie in the chart of the code's multi-index: the minor there is
    invertible, so the pivots precede the multi-index in Gale order.
    """
    m, n, p = system.shape()
    cls = out["cls"]
    problems = []
    if out["simple"] != cls.canonical:
        problems.append("is_simple disagrees with classify().canonical")
    if cls.cc:
        index = ms.multiindex_from_code(out["code"])
        if tuple(out["point"].pivots) != tuple(index):
            if not cell_exempt(out["code"], n):
                problems.append("moduli_point cell differs from multiindex_from_code(kalman_code)")
            elif out["point"].minor(index) == 0:
                problems.append("moduli_point is outside the chart of multiindex_from_code(kalman_code)")
        if not out["membership"].in_cc:
            problems.append("relation plane of a cc system is outside the cc locus")
        elif ms.stratum_dimension(out["big"], m, p) != n:
            problems.append("stratum_dimension differs from n")
    if not out["verified"]:
        problems.append("realization does not reproduce its Markov window")
    real = out["real"]
    if cls.canonical and (real.n != n or not ms.classify(real).canonical):
        problems.append("realization of a canonical input is not canonical of order n")
    return problems


def record(item: dict, out: dict) -> dict:
    cls = out["cls"]
    rec = {
        "id": item["id"], "shape": list(item["shape"]), "kind": item["kind"],
        "class": [cls.cc, cls.co, cls.canonical, cls.rank_c, cls.rank_o],
        "simple": out["simple"], "realized": ms.system_to_json(out["real"]),
    }
    if cls.cc:
        mem = out["membership"]
        rec.update(
            code=out["code"].to_json(),
            canon=ms.system_to_json(out["canon"]),
            cell=list(out["point"].pivots),
            relation_plane=out["big"].point.to_json(),
            loci=[mem.in_cc, mem.in_co, mem.in_canonical],
        )
    return rec


def replay(kept, q) -> tuple[dict, float]:
    """Time the public linalg kernels on each kept item's own matrices.

    Returns ``{(kernel, n): [microseconds]}`` and the share of items whose
    ``charpoly(A)`` repeats an earlier item's, which bounds what a
    charpoly-keyed cache could hit.
    """
    samples = defaultdict(list)
    taken = defaultdict(int)
    seen = set()
    repeats = 0
    for system, out in kept:
        key = (q, ms.charpoly(system.A))
        repeats += key in seen
        seen.add(key)
        n = system.n
        if n not in REPLAY_CLASSES or taken[n] >= REPLAY_PER_CLASS:
            continue
        taken[n] += 1
        ctrb = ms.controllability_matrix(system)
        relation = ms.hstack([system.B, system.C.transpose(), system.A])
        jobs = [("rank", ms.rank, ctrb), ("rref_with_pivots", ms.rref_with_pivots, ctrb),
                ("kernel_basis", ms.kernel_basis, relation), ("charpoly", ms.charpoly, system.A),
                ("matmul", system.A.__matmul__, ctrb)]
        if "g" in out:
            jobs += [("det", ms.det, out["g"]), ("inverse", ms.inverse, out["g"])]
        for name, fn, arg in jobs:
            start = time.process_time()
            fn(arg)
            samples[(name, n)].append((time.process_time() - start) * 1e6)
    return samples, repeats / max(len(kept), 1)


def pipeline(spec: dict) -> dict:
    q, seed = spec["q"], spec["seed"]
    tr = Tracer() if spec["trace"] else NO_TRACE
    # Warm-up on another seed lets sympy's lazy first-call set-up finish.
    for item in inputs.take(inputs.pipeline_items(-1 - seed, q), len(inputs.BLOCK)):
        if item["shape"][1] <= 3:
            stages(to_system(item, q), -1, NO_TRACE)

    self_test = inputs.self_test(seed, q)
    problems = []
    stream = inputs.pipeline_items(seed, q)
    deadline = time.perf_counter() + spec["seconds"]
    attempted = failed = cc_items = cell_mismatches = 0
    times, raw_times, n_of, kept, records = [], [], [], [], []
    n_by_item = {}
    # A run stops at a block boundary after the deadline, so every run
    # measures whole blocks of the stratified shape and kind mix.
    while time.perf_counter() < deadline or attempted % len(inputs.BLOCK):
        item = next(stream)
        item_id = item["id"]
        system = to_system(item, q)
        n_by_item[item_id] = system.n
        attempted += 1
        try:
            before = speed.sample()
            start = time.process_time()
            out = tr.call("item", item_id, stages, system, item_id, tr)
            elapsed = time.process_time() - start
            after = speed.sample()
            bad = check(system, out)
        except Exception as exc:  # one item's error is counted, the run goes on
            failed += 1
            problems.append(f"item {item_id}: {type(exc).__name__}: {exc}")
            continue
        # An item whose output fails the gate still did its work: it is
        # timed, and counted in ``failed``.
        if bad:
            failed += 1
            problems += [f"item {item_id}: {b}" for b in bad]
        if out["cls"].cc:
            cc_items += 1
            cell_mismatches += tuple(out["point"].pivots) != tuple(ms.multiindex_from_code(out["code"]))
        times.append(speed.scaled(elapsed, before, after))
        raw_times.append(elapsed)
        n_of.append(system.n)
        if len(records) < DIGEST_ITEMS:
            records.append(record(item, out))
        if spec["trace"]:
            kept.append((system, out))
    result = {
        "import_s": IMPORT_S, "attempted": attempted, "failed": failed,
        "problems": problems[:20], "self_test": self_test, "item_times": times,
        "raw_s": sum(raw_times), "item_n": n_of,
        "digest": digest(records), "digest_items": len(records),
        "cc_items": cc_items, "cell_mismatches": cell_mismatches,
    }
    if spec["trace"]:
        tr.write(spec["spans_path"])
        result["layers"] = pipeline_layers(tr, kept, raw_times, n_of, n_by_item, q)
        result["layers"]["grassmann.cell_mismatch_share"] = cell_mismatches / max(cc_items, 1)
    return result


def pipeline_layers(tr: Tracer, kept, times, n_of, n_by_item, q) -> dict:
    named = tr.by_name()
    layers = {}
    for stage in STAGES:
        own = [t for _, t in named.get(stage, [])]
        layers[f"{stage}.calls"] = len(own)
        layers[f"{stage}.busy_s"] = sum(own)
    for stage in HEAVY_STAGES:
        for n in inputs.N_CLASSES:
            own = [t for item_id, t in named.get(stage, []) if n_by_item.get(item_id) == n]
            layers[f"{stage}.n{n}.p50_ms"] = percentile(own, 0.5) * 1e3
    for n in inputs.N_CLASSES:
        layers[f"item.n{n}.p50_ms"] = percentile([t for t, k in zip(times, n_of) if k == n], 0.5) * 1e3
    samples, repeat_share = replay(kept, q)
    for (name, n), values in samples.items():
        layers[f"linalg.{name}.n{n}.p50_us"] = percentile(values, 0.5)
    layers["inputs.cc_share"] = sum(out["cls"].cc for _, out in kept) / max(len(kept), 1)
    layers["inputs.canonical_share"] = sum(out["cls"].canonical for _, out in kept) / max(len(kept), 1)
    layers["inputs.charpoly_repeat_share"] = repeat_share
    # The linalg replay is not traced, so it is left out of both sides.
    layers["trace.overhead_share"] = len(tr.spans) * span_cost_s() / sum(times)
    return layers


# -- census --------------------------------------------------------------------

# The criterion-1 grid of the acceptance suite, then larger exhaustive cells.
CRITERION_1_GRID = [(m, n, p, q) for m in (1, 2) for p in (0, 1, 2)
                    for n in (0, 1, 2) for q in (2, 3, 5)]
CRITERION_1_GRID += [(m, 3, p, 2) for m in (1, 2) for p in (0, 1)]
EXHAUSTIVE_CELLS = [(1, 3, 1, 3), (1, 4, 0, 2), (3, 3, 0, 2)]
FORMS_CELLS = [(1, 2, 1, 3)]
CENSUS_SPAN = {"cc": "counting.census_cc", "co": "counting.census_co",
               "forms": "counting.census_cc_forms"}


def census_calls(seed: int) -> list[tuple[str, tuple]]:
    """Every census call of one pass, in a seeded order."""
    calls = [(kind, cell) for cell in CRITERION_1_GRID + EXHAUSTIVE_CELLS for kind in ("cc", "co")]
    calls += [("forms", cell) for cell in FORMS_CELLS]
    Random(f"census-{seed}").shuffle(calls)
    return calls


def nominal_states(kind: str, cell: tuple) -> int:
    """States the cell stands for, whatever the code enumerates."""
    m, n, p, q = cell
    width = {"cc": n + m, "co": n + p, "forms": n + m + p}[kind]
    return q ** (n * width)


def census_one(kind: str, cell: tuple):
    if kind == "co":
        return ms.census_co(*cell, bound=CENSUS_BOUND)
    mode = "canonical-forms" if kind == "forms" else "exhaustive"
    return ms.census_cc(*cell, mode=mode, bound=CENSUS_BOUND)


def census(spec: dict) -> dict:
    tr = Tracer() if spec["trace"] else NO_TRACE
    # Warm-up on cells outside the grid, so no pair count gets cached early.
    census_one("cc", (3, 1, 0, 7))
    census_one("co", (1, 1, 3, 7))
    census_one("forms", (1, 1, 1, 2))

    calls = census_calls(spec["seed"])
    attempted = failed = 0
    problems, rows = [], []
    start = time.process_time()
    for kind, cell in calls:
        attempted += 1
        try:
            report = tr.call(CENSUS_SPAN[kind], list(cell), census_one, kind, cell)
        except Exception as exc:  # one cell's error is counted, the pass goes on
            failed += 1
            problems.append(f"{kind} {cell}: {type(exc).__name__}: {exc}")
            continue
        if not report.match or report.orbit_count * report.gl_order != report.raw_cc_triples:
            failed += 1
            problems.append(f"{kind} {cell}: {report.csv_row()}")
        rows.append(f"{kind},{report.csv_row()}")
    pass_s = time.process_time() - start
    result = {
        "import_s": IMPORT_S, "attempted": attempted, "failed": failed,
        "problems": problems[:20], "pass_s": pass_s,
        "states": sum(nominal_states(kind, cell) for kind, cell in calls),
        "digest": digest(sorted(rows)), "digest_items": len(rows),
    }
    if spec["trace"]:
        tr.write(spec["spans_path"])
        result["layers"] = census_layers(tr, calls, pass_s)
    return result


def census_layers(tr: Tracer, calls, pass_s: float) -> dict:
    named = tr.by_name()
    layers = {}
    for kind in ("cc", "co"):
        own = [t for _, t in named.get(CENSUS_SPAN[kind], [])]
        layers[f"{CENSUS_SPAN[kind]}.calls"] = len(own)
        layers[f"{CENSUS_SPAN[kind]}.busy_s"] = sum(own)
    forms_busy = sum(t for _, t in named.get(CENSUS_SPAN["forms"], []))
    layers["counting.census_cc_forms.busy_s"] = forms_busy
    exhaustive = [(kind, cell) for kind, cell in calls if kind != "forms"]
    exhaustive_busy = layers["counting.census_cc.busy_s"] + layers["counting.census_co.busy_s"]
    layers["counting.exhaustive.ns_per_state"] = (
        exhaustive_busy / sum(nominal_states(k, c) for k, c in exhaustive) * 1e9)
    forms_states = sum(nominal_states(k, c) for k, c in calls if k == "forms")
    layers["counting.forms.us_per_state"] = forms_busy / forms_states * 1e6
    # A cell reuses a pair space when an earlier cell enumerated the same
    # (inputs, n, q): (m, n, q) of (A, B) for cc and (p, n, q) of (A, C) for co.
    seen, repeats = set(), 0
    for kind, (m, n, p, q) in exhaustive:
        key = (m if kind == "cc" else p, n, q)
        repeats += key in seen
        seen.add(key)
    layers["inputs.repeat_cell_share"] = repeats / len(exhaustive)
    layers["trace.overhead_share"] = len(tr.spans) * span_cost_s() / pass_s
    return layers


# -- CLI reference ---------------------------------------------------------------


def cli_ref(spec: dict) -> dict:
    """Pick the CLI input systems, write them, and run each command in-process."""
    chosen = {}
    for name, want in (("q_system", "canonical"), ("f5_system", "cc")):
        for cand in spec["candidates"][name]:
            cls = ms.classify(ms.system_from_json(cand))
            if getattr(cls, want):
                chosen[name] = cand
                break
        else:
            raise RuntimeError(f"no {want} candidate for {name}")
        with open(spec["paths"][name], "w", encoding="utf-8") as fh:
            json.dump(chosen[name], fh)
    expected = []
    for argv in spec["commands"]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
        expected.append([code, out.getvalue()])
    return {"import_s": IMPORT_S, "expected": expected}


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.realpath(os.path.join(spec["root"], "src"))
    if not os.path.realpath(ms.__file__).startswith(src + os.sep):
        print(f"error: moduli_sys came from {ms.__file__}, not from {src}", file=sys.stderr)
        return 2
    mode = {"pipeline": pipeline, "census": census, "cli-ref": cli_ref}[spec["mode"]]
    print(json.dumps(mode(spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
