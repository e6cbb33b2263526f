"""In-memory span tracing of tvseg's public entry points.

A ``Tracer`` replaces a fixed list of functions and methods with thin
wrappers that record one span per call (name, start, end, parent) and
keep a reference to whatever the per-layer counters need.  The wrappers
never touch arguments or results, so a traced run computes bit for bit
what an untraced one does.  ``uninstall`` puts every original back.

Spans are summarised into per-layer metrics after each workload unit;
nothing is written while a unit runs.
"""

import functools
import importlib
import os
import sys
import time

import numpy as np

# Row-major 3x3 Sobel taps.  They are orthogonal, so the two signs that
# TotalVariation.theta_coeffs folds into its 9 coefficients can be read
# back by projection.
_SOBEL_A = np.array([-1.0, -2.0, -1.0, 0.0, 0.0, 0.0, 1.0, 2.0, 1.0])
_SOBEL_B = np.array([-1.0, 0.0, 1.0, -2.0, 0.0, 2.0, -1.0, 0.0, 1.0])

# (module, class or None, attribute, span name)
ALL_TARGETS = (
    ("tvseg.network", "Network", "batch_forward", "network.forward"),
    ("tvseg.network", "Network", "batch_backward", "network.backward"),
    ("tvseg.network", None, "sgd_step", "network.sgd"),
    ("tvseg.tv_loss", "TotalVariation", "theta", "tv_loss.theta"),
    ("tvseg.tv_loss", "TotalVariation", "theta_coeffs", "tv_loss.theta_coeffs"),
    ("tvseg.trainer", None, "train", "trainer.train"),
    ("tvseg.trainer", None, "predict_image", "trainer.predict"),
    ("tvseg.mrf", None, "icm_smooth", "mrf.icm"),
    ("tvseg.pnm", None, "read_pnm", "pnm.read"),
    ("tvseg.pnm", None, "write_pnm", "pnm.write"),
    ("tvseg.data", None, "save_prob_map", "data.save_prob_map"),
    ("tvseg.data", None, "load_prob_map", "data.load_prob_map"),
    ("tvseg.evaluate", None, "run_experiment", "evaluate.run_experiment"),
    ("tvseg.cli", None, "main", "cli.main"),
)

# Untraced runs time only these coarse stages: a handful of calls per
# second, so the wrappers cost nothing measurable.
STAGE_TARGETS = tuple(t for t in ALL_TARGETS
                      if t[3] in ("trainer.train", "trainer.predict", "mrf.icm"))

# Per-layer metric names and units, in report order.
PER_LAYER = {
    "network.fwd_sup_s": "s", "network.bwd_sup_s": "s",
    "network.fwd_unsup_s": "s", "network.bwd_unsup_s": "s",
    "network.sgd_s": "s", "network.fwd_predict_s": "s",
    "network.patches": "count", "network.patch_bytes": "B",
    "tv_loss.calls": "count", "tv_loss.s": "s", "tv_loss.zero_sign_frac": "ratio",
    "trainer.train_s": "s", "trainer.train_self_s": "s", "trainer.iterations": "count",
    "trainer.predict_s": "s", "trainer.predict_self_s": "s",
    "mrf.icm_s": "s", "mrf.icm_calls": "count", "mrf.pixels": "count",
    "mrf.relabel_frac": "ratio",
    "pnm.read_s": "s", "pnm.write_s": "s",
    "pnm.bytes_read": "B", "pnm.bytes_written": "B",
    "data.save_prob_map_s": "s", "data.load_prob_map_s": "s", "data.synth_s": "s",
    "evaluate.run_experiment_s": "s", "evaluate.self_s": "s",
    "cli.main_s": "s", "cli.self_s": "s",
    "train_iters_per_s": "1/s", "predict_px_per_s": "px/s", "icm_px_per_s": "px/s",
    "trace.overhead_frac": "ratio",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "role", "data")

    def __init__(self, name, parent):
        self.name = name
        self.start = self.end = 0.0
        self.parent = parent
        self.role = None
        self.data = None


class Tracer:
    """Records spans for calls into the wrapped targets."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list = []
        self._fwd_of_cache: dict[int, int] = {}
        self._last_train_fwd: int | None = None

    # -- installation -------------------------------------------------------

    def install(self, targets=ALL_TARGETS) -> None:
        """Wrap each target in its defining module or class, and in every
        loaded tvseg module that imported it by name."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        try:
            for mod_name, cls_name, attr, span in targets:
                module = importlib.import_module(mod_name)
                if cls_name is not None:
                    cls = getattr(module, cls_name)
                    orig = cls.__dict__[attr]
                    self._patch(cls, attr, orig, self._wrap(span, orig))
                    continue
                orig = getattr(module, attr)
                wrapper = self._wrap(span, orig)
                for name, mod in list(sys.modules.items()):
                    if name != "tvseg" and not name.startswith("tvseg."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, key, orig, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, owner, key, orig, wrapper) -> None:
        self._restore.append((owner, key, orig))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, orig = self._restore.pop()
            setattr(owner, key, orig)

    # -- recording ----------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name, args)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.spans[idx].end = time.perf_counter()
                tracer._stack.pop()
            tracer._record(idx, args, result)
            return result
        return wrapper

    def _inside(self, name) -> bool:
        return any(self.spans[i].name == name for i in self._stack)

    def _open(self, name, args) -> int:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, parent)
        idx = len(self.spans)
        self.spans.append(span)
        if name == "network.forward":
            # A forward is "unsup" once the TV loss reads its output;
            # that is decided when theta is called, before the backward.
            if self._inside("trainer.predict"):
                span.role = "predict"
            else:
                span.role = "sup"
                self._last_train_fwd = idx
        elif name == "network.backward":
            fwd = self._fwd_of_cache.pop(id(args[1]), None)
            span.role = self.spans[fwd].role if fwd is not None else "sup"
        elif name.startswith("tv_loss.") and self._last_train_fwd is not None:
            self.spans[self._last_train_fwd].role = "unsup"
        self._stack.append(idx)
        span.start = time.perf_counter()
        return idx

    def _record(self, idx, args, result) -> None:
        """Keep what the counters need; the analysis runs after the unit."""
        span = self.spans[idx]
        name = span.name
        if name == "network.forward":
            self._fwd_of_cache[id(result[1])] = idx
            span.data = np.asarray(args[1]).nbytes, len(args[1])
        elif name == "tv_loss.theta_coeffs":
            span.data = result
        elif name == "trainer.train":
            span.data = int(result[1].sup_loss.size)
        elif name == "trainer.predict":
            span.data = int(result.shape[0] * result.shape[1])
        elif name == "mrf.icm":
            span.data = args[0], result
        elif name in ("pnm.read", "pnm.write"):
            span.data = args[0]


def self_times(spans) -> list[float]:
    """Span duration minus the time covered by its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def work_done(span) -> int:
    """Iterations for a train span, pixels for predict and ICM spans."""
    if span.name == "mrf.icm":
        return int(span.data[1].size)
    return span.data


def layer_metrics(spans) -> dict:
    """Per-layer totals for one traced unit.  The stage throughputs,
    data.synth_s and trace.overhead_frac come from elsewhere."""
    own = self_times(spans)
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    for s, o in zip(spans, own):
        key = s.name if s.role is None else f"{s.name}.{s.role}"
        total[key] = total.get(key, 0.0) + (s.end - s.start)
        self_total[s.name] = self_total.get(s.name, 0.0) + o

    def t(key):
        return total.get(key, 0.0)

    patches = 0
    predict_bytes: dict[int, int] = {}
    for s in spans:
        if s.name == "network.forward" and s.role == "predict":
            nbytes, count = s.data
            patches += count
            predict_bytes[s.parent] = predict_bytes.get(s.parent, 0) + nbytes
    patch_bytes = max(predict_bytes.values(), default=0)

    zero = responses = 0
    for s in spans:
        if s.name == "tv_loss.theta_coeffs":
            c = np.asarray(s.data)
            signs = np.rint([c @ _SOBEL_A / 12.0, c @ _SOBEL_B / 12.0])
            zero += int((signs == 0).sum())
            responses += 2
    relabelled = pixels = 0
    for s in spans:
        if s.name == "mrf.icm":
            probs, labels = s.data
            pixels += labels.size
            relabelled += int((labels != probs.argmax(axis=2)).sum())

    def io_bytes(name):
        return sum(os.path.getsize(s.data) for s in spans if s.name == name)

    return {
        "network.fwd_sup_s": t("network.forward.sup"),
        "network.bwd_sup_s": t("network.backward.sup"),
        "network.fwd_unsup_s": t("network.forward.unsup"),
        "network.bwd_unsup_s": t("network.backward.unsup"),
        "network.sgd_s": t("network.sgd"),
        "network.fwd_predict_s": t("network.forward.predict"),
        "network.patches": patches,
        "network.patch_bytes": patch_bytes,
        "tv_loss.calls": sum(1 for s in spans if s.name.startswith("tv_loss.")),
        "tv_loss.s": t("tv_loss.theta") + t("tv_loss.theta_coeffs"),
        "tv_loss.zero_sign_frac": zero / responses if responses else 0.0,
        "trainer.train_s": t("trainer.train"),
        "trainer.train_self_s": self_total.get("trainer.train", 0.0),
        "trainer.iterations": sum(s.data for s in spans if s.name == "trainer.train"),
        "trainer.predict_s": t("trainer.predict"),
        "trainer.predict_self_s": self_total.get("trainer.predict", 0.0),
        "mrf.icm_s": t("mrf.icm"),
        "mrf.icm_calls": sum(1 for s in spans if s.name == "mrf.icm"),
        "mrf.pixels": pixels,
        "mrf.relabel_frac": relabelled / pixels if pixels else 0.0,
        "pnm.read_s": t("pnm.read"),
        "pnm.write_s": t("pnm.write"),
        "pnm.bytes_read": io_bytes("pnm.read"),
        "pnm.bytes_written": io_bytes("pnm.write"),
        "data.save_prob_map_s": t("data.save_prob_map"),
        "data.load_prob_map_s": t("data.load_prob_map"),
        "evaluate.run_experiment_s": t("evaluate.run_experiment"),
        "evaluate.self_s": self_total.get("evaluate.run_experiment", 0.0),
        "cli.main_s": t("cli.main"),
        "cli.self_s": self_total.get("cli.main", 0.0),
    }
