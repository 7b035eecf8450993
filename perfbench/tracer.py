"""Spans around the calls into each module of the program, from outside.

The program is not changed: :class:`Tracer` replaces each traced public
function, under every name a ``dirtytx`` module (or the package) finds
it by, with a wrapper that records a span.  Modules call each other by
name at call time (``precoding.real_roots``, ``experiments.simulate_batch``),
so the wrappers see the calls between modules as well as the
benchmark's own.  Spans stay in memory until :meth:`Tracer.write`.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index
of the enclosing span or -1, ``op`` the operation it ran under.  A
span's self time is its duration minus that of its direct children.
"""

import functools
import statistics
import sys
import threading
import time

# (module, function) pairs; a layer is a module under src/dirtytx/.
TRACED = (
    ("precoding", "optimal_precoder"),
    ("precoding", "conventional_mrt"),
    ("precoding", "distortion_aware_mrt"),
    ("polyroots", "real_roots"),
    ("polyroots", "unique_positive_root"),
    ("nmse", "nmse_branches"),
    ("nmse", "minmax_backoff"),
    ("mxm", "minmax_backoff_m"),
    ("mxm", "mrt_variants_m"),
    ("mxm", "simulate_batch_m"),
    ("montecarlo", "simulate_batch"),
    ("montecarlo", "empirical_cdf_distance"),
    ("montecarlo", "covariance_mismatch"),
    ("montecarlo", "empirical_nmse"),
    ("model", "build_model"),
    ("experiments", "run_experiment"),
    ("experiments", "render"),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self._local = threading.local()
        self._patched = []
        # Per-call observations taken from arguments and results.
        self.obs = {
            "invalid": 0,
            "roots_kept": 0,
            "roots_degree": 0,
            "balanced": 0,
            "precoder_durations": [],
            "backoff_m_durations": {},
            "render_bytes": 0,
            "samples": {},
            "failures": {},
        }

    # ---------------------------------------------------------------
    # installing and removing the wrappers
    # ---------------------------------------------------------------

    def install(self, package):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package.__name__ or name.startswith(package.__name__ + "."))]
        for mod_name, fn_name in TRACED:
            original = getattr(getattr(package, mod_name), fn_name)
            wrapper = self._wrap("%s.%s" % (mod_name, fn_name), original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else -1
            idx = len(self.spans)
            self.spans.append(None)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans[idx] = (name, start, end, parent, self.op)
            if observe is not None:
                observe(args, result, end - start)
            return result

        return wrapper

    # ---------------------------------------------------------------
    # observations
    # ---------------------------------------------------------------

    def _observe_precoding_optimal_precoder(self, args, result, dur):
        self.obs["invalid"] += 0 if result.valid else 1
        self.obs["precoder_durations"].append(dur)

    def _observe_polyroots_real_roots(self, args, result, dur):
        self.obs["roots_kept"] += result.roots.size
        self.obs["roots_degree"] += result.coefficients.size - 1

    def _observe_nmse_minmax_backoff(self, args, result, dur):
        self.obs["balanced"] += result.active_case == "balanced"

    def _observe_mxm_minmax_backoff_m(self, args, result, dur):
        self.obs["backoff_m_durations"].setdefault(args[0].n_branches, []).append(dur)

    def _observe_experiments_render(self, args, result, dur):
        self.obs["render_bytes"] += len(result.encode("utf-8"))

    def _count_batch(self, key, result):
        self.obs["samples"][key] = self.obs["samples"].get(key, 0) + result.n
        failed = result.n - int(result.converged.sum())
        self.obs["failures"][key] = self.obs["failures"].get(key, 0) + failed

    def _observe_montecarlo_simulate_batch(self, args, result, dur):
        self._count_batch("montecarlo.simulate_batch", result)

    def _observe_mxm_simulate_batch_m(self, args, result, dur):
        self._count_batch("mxm.simulate_batch_m", result)

    # ---------------------------------------------------------------
    # results
    # ---------------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus direct children's."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self):
        """Calls, total and self seconds per traced function."""
        out = {"%s.%s" % t: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for t in TRACED}
        for span, own in zip(self.spans, self.self_times()):
            entry = out[span[0]]
            entry["calls"] += 1
            entry["total_s"] += span[2] - span[1]
            entry["self_s"] += own
        return out

    def write(self, path):
        """Write the spans as CSV: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write("%s,%.9f,%.9f,%d,%d\n" % (name, start, end, parent, op))


def _p50_us(durations):
    return statistics.median(durations) * 1e6 if durations else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, warnings_by_kind, passes):
    """The per-layer metric values of one traced run of ``passes``
    traced passes (names as in BENCHMARK.json, without the ones measured
    outside the tracer).  Counts, times and bytes are per pass, so they
    do not grow with the number of passes that fit in the run."""
    s = tracer.summary()
    obs = tracer.obs
    m = {}
    for name in ("precoding.optimal_precoder", "precoding.conventional_mrt", "precoding.distortion_aware_mrt",
                 "polyroots.real_roots", "nmse.nmse_branches", "nmse.minmax_backoff", "mxm.mrt_variants_m",
                 "montecarlo.simulate_batch", "experiments.run_experiment"):
        m[name + ".calls"] = s[name]["calls"] / passes
        m[name + ".self_s"] = s[name]["self_s"] / passes
    for name in ("montecarlo.empirical_cdf_distance", "montecarlo.covariance_mismatch",
                 "montecarlo.empirical_nmse", "model.build_model"):
        m[name + ".self_s"] = s[name]["self_s"] / passes
    m["precoding.optimal_precoder.p50_us"] = _p50_us(obs["precoder_durations"])
    m["precoding.invalid_ratio"] = _ratio(obs["invalid"], s["precoding.optimal_precoder"]["calls"])
    m["polyroots.real_roots.kept_ratio"] = _ratio(obs["roots_kept"], obs["roots_degree"])
    m["polyroots.unique_positive_root.calls"] = s["polyroots.unique_positive_root"]["calls"] / passes
    m["nmse.minmax_backoff.balanced_ratio"] = _ratio(obs["balanced"], s["nmse.minmax_backoff"]["calls"])
    m["nmse.minmax_backoff.discarded"] = warnings_by_kind.get("crossing_discarded", 0) / passes
    for mm in (2, 4, 8):
        m["mxm.minmax_backoff_m.m%d.p50_us" % mm] = _p50_us(obs["backoff_m_durations"].get(mm, []))
    for key in ("mxm.simulate_batch_m", "montecarlo.simulate_batch"):
        samples = obs["samples"].get(key, 0)
        m[key + ".samples_per_s"] = _ratio(samples, s[key]["total_s"])
    m["mxm.simulate_batch_m.failure_ratio"] = _ratio(
        obs["failures"].get("mxm.simulate_batch_m", 0), obs["samples"].get("mxm.simulate_batch_m", 0))
    m["montecarlo.failure_ratio"] = _ratio(
        obs["failures"].get("montecarlo.simulate_batch", 0), obs["samples"].get("montecarlo.simulate_batch", 0))
    m["experiments.render.s"] = s["experiments.render"]["total_s"] / passes
    m["experiments.render.bytes"] = obs["render_bytes"] / passes
    return m
