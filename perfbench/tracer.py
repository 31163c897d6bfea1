"""Spans around semimatch's public functions, installed from outside the
package for a traced set-up or op and removed afterwards.

Each span counts calls and sums total and self seconds; self time is the
span's duration minus the time covered by spans opened inside it. A wrapper
goes on the name a caller looks up at call time: ``semimatch.trainer`` and
``semimatch.cli`` import their collaborators by name, so those module
attributes are replaced, not the defining modules' ones.
"""

from __future__ import annotations

import functools
import time

import semimatch.cli
import semimatch.data
import semimatch.trainer
from semimatch.augment import FeatureExtractor

from workloads import patched

# (object whose attribute is wrapped, attribute, span name)
TARGETS = (
    (semimatch.data, "synthesize_corpus", "data.synthesize_corpus"),
    (semimatch.data, "save_corpus", "data.save_corpus"),
    (semimatch.data, "load_corpus", "data.load_corpus"),
    (semimatch.cli, "load_corpus", "data.load_corpus"),
    (semimatch.cli, "train", "trainer.train"),
    (semimatch.trainer, "train", "trainer.train"),
    (semimatch.trainer, "stratified_split", "data.stratified_split"),
    (semimatch.trainer, "make_batches", "data.make_batches"),
    (semimatch.trainer, "augment_signal", "augment.augment_signal"),
    (semimatch.trainer, "augment_tokens", "augment.augment_tokens"),
    (FeatureExtractor, "__call__", "augment.featurize"),
    (semimatch.trainer, "forward_batch", "model.forward_batch"),
    (semimatch.trainer, "build_task_terms", "losses.build_task_terms"),
    (semimatch.trainer, "loss_and_gradients", "model.loss_and_gradients"),
    (semimatch.trainer, "adam_step", "model.adam_step"),
    (semimatch.trainer, "evaluate", "trainer.evaluate"),
)

SPANS = tuple(dict.fromkeys(name for _, _, name in TARGETS))

# Which end-to-end metric, on which workload, each per-layer metric should move.
MOVES = {
    "augment.featurize": "run_s on signal-ssl and sweep; about 7% of run_s on tokens-ssl",
    "augment.augment_signal": "run_s on signal-ssl and sweep; zero on tokens-ssl",
    "augment.augment_tokens": "run_s on tokens-ssl only",
    "model.forward_batch": "fixmatch_s and fullmatch_s on signal-ssl and tokens-ssl",
    "model.loss_and_gradients": "fixmatch_s and fullmatch_s on signal-ssl and tokens-ssl",
    "model.adam_step": "fixmatch_s and fullmatch_s on signal-ssl and tokens-ssl; "
                       "the largest model share of baseline_s",
    "losses.build_task_terms": "fullmatch_s on signal-ssl and tokens-ssl",
    "losses.accept_ratio": "none directly: useful versus attempted unlabelled work, "
                           "fixmatch_s and fullmatch_s on every workload",
    "losses.k_mean": "none directly: the rank cut, fullmatch_s on every workload",
    "trainer.evaluate": "run_s on every workload",
    "trainer.train": "other_s is train() time no span covers; run_s on every workload",
    "data.load_corpus": "setup_s on every workload, and run_s on sweep",
    "data.save_corpus": "setup_s on every workload",
    "data.synthesize_corpus": "setup_s on every workload",
    "data.make_batches": "run_s on every workload",
    "data.stratified_split": "run_s on every workload",
    "data.split_warnings": "none: stratified_split warnings per op, kept out of the output",
    "trace.coverage": "none: the lowest share of one train() call's wall time inside spans",
    "trace.overhead_frac": "none: traced over untraced run_s, minus one",
    "baseline_s": "run_s on every workload; train() time per op by method, from untraced ops",
    "fixmatch_s": "run_s on every workload; train() time per op by method, from untraced ops",
    "fullmatch_s": "run_s on every workload; train() time per op by method, from untraced ops",
}


class Tracer:
    """Per-span ``[calls, total_s, self_s]`` for the spans in ``SPANS``, and
    ``(total_s, self_s)`` of every train() call."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in SPANS}
        self.train_calls: list[tuple[float, float]] = []
        self._open: list[list[float]] = []   # child seconds of each open span

    def reset(self):
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
        self.train_calls.clear()

    def snapshot(self) -> dict[str, tuple[int, float, float]]:
        return {name: tuple(stat) for name, stat in self.stats.items()}

    def _wrap(self, name, fn):
        stat = self.stats[name]
        per_call = self.train_calls if name == "trainer.train" else None
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children = [0.0]
            open_spans.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                open_spans.pop()
                if open_spans:
                    open_spans[-1][0] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - children[0]
                if per_call is not None:
                    per_call.append((elapsed, elapsed - children[0]))
        return span

    def installed(self):
        """Context manager that wraps every target and restores it on exit."""
        return patched([(owner, attr, self._wrap(name, getattr(owner, attr)))
                        for owner, attr, name in TARGETS])
