#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark for twqp.

Run from the repository root:

    python3 perfbench/run.py --workload experiment-default --seed 32 --seconds 35 --trace 0

One process, one client, a closed loop: each call starts when the previous
one has returned, and no thread or process is started.  The inputs are
generated from --seed; twqp only sees the written corpus, topics and qrels.
Every output is checked; a call that raises or fails its check counts as a
failed operation.  The last stdout line is the JSON result:
end-to-end metrics with --trace 0, per-layer metrics from a traced run with
--trace 1.  End-to-end times are scaled to a reference host pace by
pace.PaceMeter; the unscaled values are printed as "# raw" lines.  See
perfbench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from pace import REFERENCE_KERNEL_S, PaceMeter, Span

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
K = 1000

# Each workload fixes its sizes.  A run repeats single passes (an index ->
# save -> load -> search pass, then one run_experiment call on experiment
# workloads) while they fit in --seconds, then tops the ingest passes up to
# ingest_passes.  Each pass saves and loads the snapshot snapshot_reps times.
WORKLOADS = {
    "experiment-default": dict(
        generator="synthetic", n_docs=1000, vocab_size=800, n_queries=20,
        experiment=True, ingest_passes=6, snapshot_reps=4,
    ),
    "experiment-multiterm": dict(
        generator="multiterm", n_docs=1000, vocab_size=800, n_queries=10,
        experiment=True, ingest_passes=6, snapshot_reps=4,
    ),
    "ingest-search": dict(
        generator="synthetic", n_docs=20000, vocab_size=5000, n_queries=100,
        experiment=False, ingest_passes=3, snapshot_reps=1,
    ),
}
MIN_SEARCHES_PER_PASS = 1000

END_TO_END_UNITS = {
    "job_s": "s",
    "setup_s": "s",
    "snapshot_save_s": "s",
    "snapshot_load_s": "s",
    "snapshot_mib": "MiB",
    "search_ms_mean": "ms",
    "search_ms_p90": "ms",
    "peak_rss_mib": "MiB",
}


class Tally:
    """Operations attempted and failed; a failure is an exception or a failed check."""

    def __init__(self, meter: PaceMeter) -> None:
        self.meter = meter
        self.attempted = 0
        self.failed = 0

    def op(self, fn, check=None) -> tuple[object, Span]:
        """Run fn once, timed; check(result) returns a problem string or None."""
        self.attempted += 1
        start, start_busy = self.meter.clock()
        try:
            out = fn()
        except Exception:
            end, end_busy = self.meter.clock()
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None, Span(start, end, end_busy - start_busy)
        end, end_busy = self.meter.clock()
        elapsed = Span(start, end, end_busy - start_busy)
        try:
            problem = check(out) if check is not None else None
        except Exception:  # output so malformed that checking it raised
            problem = traceback.format_exc()
        if problem:
            self.failed += 1
            print(f"check failed: {problem}", file=sys.stderr)
        return out, elapsed


# ---------------------------------------------------------------------------
# Inputs and the independent reference they are checked against
# ---------------------------------------------------------------------------


class Oracle:
    """Query likelihood recomputed from the generated token counts.

    Generated tokens are analyzer-stable, so the index must hold exactly
    these counts.  Scores use the library's association order, so a correct
    retrieval matches bit for bit.
    """

    def __init__(self, documents) -> None:
        self.tf = {d.doc_id: Counter(d.text.split()) for d in documents}
        self.lengths = {d: sum(c.values()) for d, c in self.tf.items()}
        self.postings: dict[str, dict[str, int]] = {}
        for d in sorted(self.tf):
            for w, n in self.tf[d].items():
                self.postings.setdefault(w, {})[d] = n
        self.cf = {w: sum(p.values()) for w, p in self.postings.items()}
        self.total = sum(self.lengths.values())

    def retrieve(self, terms, k: int, mu: float) -> list[tuple[str, float]]:
        counts = sorted(Counter(terms).items())
        docs = set().union(*(self.postings.get(w, {}) for w, _ in counts))
        scored = []
        for d in docs:
            score = 0.0
            for w, n in counts:
                p = (self.tf[d].get(w, 0) + mu * (self.cf[w] / self.total)) / (self.lengths[d] + mu)
                score += n * math.log(p)
            scored.append((d, score))
        scored.sort(key=lambda e: (-e[1], e[0]))
        return scored[:k]

    def average_precision(self, doc_ids, relevant: set[str]) -> float:
        hits, total = 0, 0.0
        for rank, d in enumerate(doc_ids, start=1):
            if d in relevant:
                hits += 1
                total += hits / rank
        return total / len(relevant)


def make_collection(spec: dict, seed: int):
    import twqp

    sizes = dict(n_docs=spec["n_docs"], vocab_size=spec["vocab_size"], n_queries=spec["n_queries"])
    if spec["generator"] == "multiterm":
        from multiterm import make_multiterm

        return make_multiterm(seed, **sizes)
    return twqp.make_synthetic(seed, **sizes)


def tree_digest(root: Path) -> str:
    """sha256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Passes: everything below calls twqp through module attributes looked up at
# call time, so the tracer's wrappers see the benchmark's own calls too.
# ---------------------------------------------------------------------------


class Workload:
    def __init__(self, name: str, seed: int, work: Path, meter: PaceMeter) -> None:
        import twqp

        self.name, self.seed, self.work = name, seed, work
        self.spec = WORKLOADS[name]
        self.tally = Tally(meter)
        collection = make_collection(self.spec, seed)
        self.paths = {k: str(v) for k, v in twqp.write_collection(collection, work / "in").items()}
        self.oracle = Oracle(collection.documents)
        self.qrels = collection.qrels
        self.queries = [
            twqp.Query(qid, tuple(twqp.analyze(title))) for qid, title in collection.topics
        ]
        # Enough mu values, evenly spread over the tuning range 100..5000, for
        # MIN_SEARCHES_PER_PASS retrievals per pass (the 50-point MU_GRID
        # itself when there are 20 queries).
        n_mu = max(2, math.ceil(MIN_SEARCHES_PER_PASS / len(self.queries)))
        self.mus = [round(100 + i * 4900 / (n_mu - 1)) for i in range(n_mu)]
        # Batches of operation Spans, one batch per pass; a job is the list
        # of operations it made.
        self.samples: dict[str, list[list[Span]]] = {
            k: [] for k in ("setup", "save", "load", "search")
        }
        self.jobs: list[list[Span]] = []
        self.snapshot_bytes = 0
        self.digests: list[str] = []
        # Checks call the library through this reference, never through a
        # traced wrapper, so checking adds no spans.
        self.retrieve_unwrapped = twqp.retrieval.retrieve_topk
        self.reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))

    # -- index -> save -> load -> search sweep -----------------------------

    def ingest_pass(self) -> float:
        """One index -> save -> load -> search sweep; returns seconds spent in
        twqp.  Without an experiment, this pass is the workload's job."""
        import twqp.evaluation as tevaluation
        import twqp.index as tindex
        import twqp.retrieval as tretrieval

        tally, oracle = self.tally, self.oracle
        spans: list[Span] = []
        built, dt = tally.op(
            lambda: tindex.build_index(tindex.read_corpus(self.paths["corpus"])),
            lambda ix: None
            if ix.postings == oracle.postings and ix.doc_lengths == oracle.lengths
            else "built index differs from the generated token counts",
        )
        if built is None:
            raise RuntimeError("index build failed; nothing left to measure")
        self.samples["setup"].append([dt])
        spans.append(dt)

        # Saves and loads repeat back to back, so that one sample spans
        # several of the host's speed states (see pace.py).
        snapshot = self.work / "index.snapshot"
        batch = []
        for _ in range(self.spec["snapshot_reps"]):
            _, dt = tally.op(
                lambda: built.save(snapshot),
                lambda _: None if snapshot.stat().st_size > 0 else "empty snapshot",
            )
            batch.append(dt)
        self.samples["save"].append(batch)
        spans += batch
        self.snapshot_bytes = snapshot.stat().st_size
        batch = []
        for _ in range(self.spec["snapshot_reps"]):
            loaded, dt = tally.op(
                lambda: tindex.Index.load(snapshot),
                lambda ix: None
                if ix.postings == built.postings and ix.doc_lengths == built.doc_lengths
                else "loaded snapshot differs from the built index",
            )
            if loaded is None:
                raise RuntimeError("snapshot load failed; nothing left to measure")
            batch.append(dt)
        self.samples["load"].append(batch)
        spans += batch

        # Every list's AP is checked; the first and last mu of the sweep are
        # also checked against the built index and the oracle.
        checked = {self.mus[0], self.mus[-1]}
        batch = []
        for mu in self.mus:
            for q in self.queries:
                def check(run, q=q, mu=mu):
                    if mu in checked:
                        if run.entries != self.retrieve_unwrapped(q, K, mu, built).entries:
                            return f"{q.query_id} mu={mu}: loaded and built index disagree"
                        if list(run.entries) != oracle.retrieve(q.terms, K, mu):
                            return f"{q.query_id} mu={mu}: ranking differs from the oracle"
                    return None

                run, dt = tally.op(lambda q=q, mu=mu: tretrieval.retrieve_topk(q, K, mu, loaded), check)
                batch.append(dt)
                spans.append(dt)
                if run is None:
                    continue
                relevant = self.qrels.relevant_docs(q.query_id)
                _, dt = tally.op(
                    lambda: tevaluation.average_precision(run, self.qrels, K),
                    lambda ap: None
                    if math.isclose(ap, oracle.average_precision(run.doc_ids, relevant))
                    else f"{q.query_id} mu={mu}: AP {ap} differs from the oracle",
                )
                spans.append(dt)
        self.samples["search"].append(batch)
        if not self.spec["experiment"]:
            self.jobs.append(spans)
        return sum(s.busy for s in spans)

    # -- run_experiment ----------------------------------------------------

    def experiment(self) -> float:
        import twqp.config as tconfig
        import twqp.experiment as texperiment

        out = self.work / f"out{len(self.jobs)}"
        config = tconfig.ExperimentConfig(
            corpus=self.paths["corpus"],
            topics=self.paths["topics"],
            qrels=self.paths["qrels"],
            output_dir=str(out),
        )
        _, dt = self.tally.op(
            lambda: texperiment.run_experiment(config), lambda r: self.check_experiment(r, out)
        )
        shutil.rmtree(out, ignore_errors=True)
        self.jobs.append([dt])
        return dt.busy

    def check_experiment(self, result, out: Path) -> str | None:
        import twqp.experiment as texperiment

        digest = tree_digest(out)
        self.digests.append(digest)
        print(f"# output tree sha256 {digest}")
        expected = self.reference["output_tree_sha256"].get(self.name, {}).get(str(self.seed))
        if expected is not None and digest != expected:
            return f"output tree {digest} differs from the recorded {expected}"
        if digest != self.digests[0]:
            return "output tree differs between calls with the same inputs"
        if set(result.runs) != set(texperiment.METHOD_ORDER):
            return f"unexpected methods {sorted(result.runs)}"
        qids = sorted(q.query_id for q in self.queries)
        for label, runs in result.runs.items():
            if sorted(runs) != qids:
                return f"{label} does not cover every query"
        for q in self.queries:
            initial = result.runs[texperiment.QL_LABEL][q.query_id]
            if list(initial.entries) != self.oracle.retrieve(q.terms, K, result.best_mu):
                return f"{q.query_id}: initial ranking differs from the oracle"
        for label, agg in result.report.aggregates.items():
            if not all(0.0 <= v <= 1.0 for v in agg.values()):
                return f"{label}: aggregate outside [0, 1]"
        if self.spec["generator"] == "multiterm":
            return self.check_multiterm_reach(result)
        return None

    def check_multiterm_reach(self, result) -> str | None:
        """Fails once the workload stops reaching the paths it exists for."""
        if min(len(q.terms) for q in self.queries) < 2:
            return "a multiterm query has fewer than 2 terms"
        lengths = self.oracle.lengths.values()
        if max(lengths) < 10 * min(lengths):
            return f"document lengths span only {min(lengths)}..{max(lengths)}"
        sror, ql = result.runs["SROR"], result.runs["QLOpt-init"]
        if all(sror[q].doc_ids == ql[q].doc_ids for q in ql):
            return "SROR ranks every query exactly as QLOpt-init"
        return None

    # -- one measured run ---------------------------------------------------

    def run(self, seconds: float) -> None:
        """Repeat single passes until the next one would overrun --seconds,
        then top up the ingest passes, so samples spread over the whole run."""
        deadline = time.perf_counter() + seconds
        passes = 0
        while True:
            started = time.perf_counter()
            self.single_pass()
            passes += 1
            now = time.perf_counter()
            if now + (now - started) > deadline:
                break
        while passes < self.spec["ingest_passes"]:
            self.ingest_pass()
            passes += 1

    def single_pass(self) -> float:
        """One ingest pass, then one experiment call on experiment workloads;
        returns seconds spent in twqp."""
        busy = self.ingest_pass()
        if self.spec["experiment"]:
            busy += self.experiment()
        return busy

    def end_to_end(self, seconds) -> dict[str, float]:
        """Metrics with each operation's time read by seconds(span).

        An operation metric is the median over passes of the pass's mean
        time per operation.  A single save, load or search is shorter than
        the host's speed states, so single times are bimodal and their
        median jumps between the modes from run to run; a pass's mean
        spans many states and scales with the pace meter like a job does.
        """

        def per_op(key: str) -> float:
            return statistics.median(
                sum(map(seconds, batch)) / len(batch) for batch in self.samples[key]
            )

        search = sorted(seconds(span) * 1e3 for batch in self.samples["search"] for span in batch)
        return {
            "job_s": statistics.median(sum(map(seconds, job)) for job in self.jobs),
            "setup_s": per_op("setup"),
            "snapshot_save_s": per_op("save"),
            "snapshot_load_s": per_op("load"),
            "snapshot_mib": self.snapshot_bytes / 2**20,
            "search_ms_mean": per_op("search") * 1e3,
            # Nearest rank.  p99 is printed apart, unbounded: on a host that
            # stalls for milliseconds now and then, the p99 of a 0.3 ms
            # search measures the stalls (0.5-4.6 ms over ten runs).
            "search_ms_p90": search[math.ceil(0.90 * len(search)) - 1],
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


PER_LAYER_COUNTS = (
    "retrieval.docs_scored",
    "qpp.predict_quality.wig.calls",
    "qpp.predict_quality.nqc.calls",
    "qpp.predict_quality.scoreratio.calls",
    "weighting.retrievals",
    "weighting.distinct_retrievals",
    "rerank.docs_rescored",
)


def per_layer_metrics(tracer, untraced_s: float, traced_s: float) -> dict[str, tuple[float, str]]:
    from tracer import span_names

    metrics: dict[str, tuple[float, str]] = {}
    totals = tracer.totals()
    for name in span_names():
        row = totals[name]
        metrics[f"{name}_s"] = (row["s"], "s")
        metrics[f"{name}_self_s"] = (row["self_s"], "s")
        metrics[f"{name}.calls"] = (row["calls"], "count")
    counts = dict(tracer.counts, **{"weighting.distinct_retrievals": len(tracer.weighting_keys)})
    for name in PER_LAYER_COUNTS:
        metrics[name] = (counts.get(name, 0), "count")
    retrievals = counts.get("weighting.retrievals", 0)
    metrics["weighting.distinct_retrieval_frac"] = (
        len(tracer.weighting_keys) / retrievals if retrievals else 0.0,
        "ratio",
    )
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["trace.missing_spans"] = (len(tracer.missing), "count")
    return metrics


# ---------------------------------------------------------------------------


def environment() -> dict[str, object]:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "twqp" / "__init__.py").is_file():
        print(f"twqp sources not found under {src}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import twqp

    if Path(twqp.__file__).resolve().parent != src / "twqp":
        print(f"imported twqp from {twqp.__file__}, not from {src}", file=sys.stderr)
        return 2

    env = environment()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    meter = PaceMeter()
    try:
        setup_start = time.perf_counter()
        workload = Workload(args.workload, args.seed, work, meter)
        print(f"# generated and wrote inputs in {time.perf_counter() - setup_start:.2f} s")
        if args.trace:
            from tracer import Tracer

            untraced = workload.single_pass()
            tracer = Tracer()
            tracer.install()
            try:
                traced = workload.single_pass()
            finally:
                tracer.uninstall()
            for name in tracer.missing:
                print(f"# missing span: {name} (target not found in twqp)", file=sys.stderr)
            metrics = per_layer_metrics(tracer, untraced, traced)
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(trace_path, {"workload": args.workload, "seed": args.seed, "env": env})
            print(f"# spans written to {trace_path.relative_to(ROOT)}")
        else:
            meter.start()
            workload.run(args.seconds)
            meter.stop()
            metrics = {
                k: (v, END_TO_END_UNITS[k]) for k, v in workload.end_to_end(meter.scaled).items()
            }
            raw = workload.end_to_end(lambda span: span.busy)
            samples = workload.samples
            print(f"# samples: passes={len(samples['setup'])}"
                  f" searches={sum(map(len, samples['search']))} pace={len(meter.kernel_s)}")
            print(f"# job samples (s): {' '.join(f'{sum(map(meter.scaled, j)):.3f}' for j in workload.jobs)}")
            print(f"# pace factor {REFERENCE_KERNEL_S / statistics.fmean(meter.kernel_s):.4f}")
            for name, value in raw.items():
                print(f"# raw {name} = {value:.6g} {END_TO_END_UNITS[name]}")
            tail = sorted(span.busy * 1e3 for batch in samples["search"] for span in batch)
            print(f"# raw search_ms_p99 = {tail[math.ceil(0.99 * len(tail)) - 1]:.6g} ms (not bounded)")
    finally:
        meter.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    tally = workload.tally
    print(f"# env {json.dumps(env, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(f"# failed_frac = {tally.failed / tally.attempted:.6g} ({tally.failed}/{tally.attempted})")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
