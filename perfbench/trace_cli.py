"""Run one headtrack CLI verb in-process with timing and counting wrappers.

Usage: python3 perfbench/trace_cli.py SPANS_JSON VERB [ARGS...]

The wrappers replace the module attributes that callers look up at call
time (``kalman.predict`` as the tracker reaches it, ``tracker.build_cost_matrix``
as imported into the tracker, ``metrics.solve_assignment`` as imported into
metrics, ...). No source file of the package is changed. Spans are
``[name, start, end, parent]`` with ``parent`` the index of the enclosing
span (-1 for the root); they and the counters stay in memory and are
written to SPANS_JSON once the verb returns. A wrapped function that no
longer exists is listed under ``absent`` instead of failing the run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.absent: list[str] = []
        self.trackers: dict[int, object] = {}  # every Tracker seen, for end-of-run counts

    def wrap(self, name, fn, before=None, after=None):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{name}:{type(exc).__name__}"] += 1
                raise
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def install(self, owner, attr: str, name: str, before=None, after=None) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:
            self.absent.append(name)
            return
        setattr(owner, attr, self.wrap(name, fn, before, after))

    def guarded(self, metric: str, hook):
        """Run a counting hook; a hook that no longer fits the code marks its metric absent."""

        def run(*args):
            if metric in self.absent:
                return
            try:
                hook(*args)
            except (AttributeError, TypeError, IndexError, KeyError):
                self.absent.append(metric)

        return run


def install_all(tracer: Tracer) -> None:
    from headtrack import association, dataio, kalman, lifting, metrics, tracker

    t = tracer
    removed = getattr(tracker, "REMOVED", "removed")

    def count_lines(args, kwargs, result):
        t.counts["dataio.lines"] += len(result)

    def count_descriptors(args, kwargs, result):
        t.counts["dataio.descriptors"] += len(result)

    def after_step(args, kwargs, result):
        t.trackers[id(args[0])] = args[0]
        live = sum(1 for trk in args[0].tracks if trk.status != removed)
        t.samples["tracker.live_tracks"].append(live)

    def after_cost(args, kwargs, result):
        t.counts["association.pairs"] += int(result.values.size)
        t.counts["association.admissible_pairs"] += int(result.gate_mask.sum())

    def after_solve(args, kwargs, result):
        t.counts["association.matches"] += len(result)

    def after_update(args, kwargs, result):
        t.samples["kalman.iterations"].append(result.iterations)
        t.counts["kalman.not_converged"] += not result.converged

    def after_complete(args, kwargs, result):
        filled, skipped = result
        t.counts["lifting.frames_filled"] += len(filled) - len(args[0])
        t.counts["lifting.gaps_skipped"] += len(skipped)

    def before_evaluate(args, kwargs):
        frames = args[0] if args else kwargs["frames"]
        t.counts["metrics.gt_ids"] = len({g for f in frames for g, _ in f.gt})
        t.counts["metrics.hyp_ids"] = len({h for f in frames for h, _ in f.hyp})

    def count_spawn(args, kwargs, result):
        t.counts["tracker.spawned"] += 1

    g = t.guarded
    t.install(dataio, "parse_mot", "dataio.parse_mot", after=g("dataio.lines", count_lines))
    t.install(
        dataio, "read_descriptors", "dataio.read_descriptors",
        after=g("dataio.descriptors", count_descriptors),
    )
    t.install(dataio, "mot_to_detections", "dataio.mot_to_detections")
    t.install(dataio, "write_mot", "dataio.write_mot")
    tracker_cls = getattr(tracker, "Tracker", None)
    t.install(tracker_cls, "step", "tracker.step", after=g("tracker.live_tracks", after_step))
    t.install(tracker_cls, "_spawn", "tracker.spawn", after=g("tracker.spawned", count_spawn))
    t.install(
        tracker, "build_cost_matrix", "association.build_cost_matrix",
        after=g("association.pairs", after_cost),
    )
    t.install(
        tracker, "solve_assignment", "association.solve_assignment",
        after=g("association.matches", after_solve),
    )
    t.install(association, "linear_sum_assignment", "association.lsa")
    t.install(kalman, "predict", "kalman.predict")
    t.install(
        kalman, "iterated_update", "kalman.iterated_update",
        after=g("kalman.iterations", after_update),
    )
    t.install(
        lifting, "complete", "lifting.complete",
        after=g("lifting.frames_filled", after_complete),
    )
    t.install(
        metrics, "evaluate", "metrics.evaluate", before=g("metrics.gt_ids", before_evaluate)
    )
    t.install(metrics, "solve_assignment", "metrics.solve_assignment")
    t.install(metrics, "_idf1", "metrics.idf1")


def main(argv: list[str]) -> int:
    out_path, verb_args = argv[0], argv[1:]
    from headtrack import cli, tracker

    tracer = Tracer()
    install_all(tracer)
    rc = tracer.wrap(f"cli.{verb_args[0]}", cli.main)(verb_args)
    removed = getattr(tracker, "REMOVED", "removed")
    try:
        tracer.counts["tracker.removed"] = sum(
            trk.status == removed for obj in tracer.trackers.values() for trk in obj.tracks
        )
    except AttributeError:
        tracer.absent.append("tracker.removed")
    doc = {
        "rc": rc,
        "spans": tracer.spans,
        "counts": dict(tracer.counts),
        "samples": dict(tracer.samples),
        "absent": tracer.absent,
    }
    with open(out_path, "w") as fh:
        json.dump(doc, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
