"""Spans around calls into the library's layers, recorded from outside.

``Tracer.install`` replaces module attributes of ``fatscreens`` with timing
wrappers, so the library itself is unchanged.  Each call records a span
``[name, start, end, parent, item]`` in memory; ``write`` dumps them at the
end of the run and ``metrics`` turns them into per-layer self times, call
counts and the counters gathered at the same boundaries.
"""

from __future__ import annotations

import gzip
import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

LAYERS = ("fatgraph", "screens", "geometry", "holonomy", "asymptotics")

# Wrapped function -> the modules whose binding of it is replaced.  The
# fatgraph helpers are wrapped where ``screens`` binds them, so their spans
# are the calls screens makes into fatgraph.  Screen and geometry functions
# are also wrapped where ``asymptotics`` imports them.
WRAPPED = {
    "fatgraph.parse_fatgraph": ("fatgraph",),
    "fatgraph.subgraph": ("screens",),
    "fatgraph.boundary_cycles": ("screens",),
    "fatgraph.reduce_path": ("screens",),
    "fatgraph.canonical_path": ("screens",),
    "fatgraph.is_recurrent": ("screens",),
    "screens.enumerate_screens": ("screens",),
    "screens.screen_boundary": ("screens", "asymptotics"),
    "screens.relative_boundary": ("screens",),
    "screens.depth_family": ("screens",),
    "screens.screen_of_exponents": ("screens", "asymptotics"),
    "screens.validate_screen": ("screens", "asymptotics"),
    "geometry.invert_coords": ("geometry",),
    "geometry.in_cell": ("geometry", "asymptotics"),
    "geometry.simplicial_coords": ("geometry", "asymptotics"),
    "holonomy.holonomy": ("holonomy",),
    "holonomy.trace_gap_of_path": ("holonomy", "asymptotics"),
    "holonomy.abs_trace_of_path": ("holonomy",),
    "asymptotics.detect_short_curves": ("asymptotics",),
    "asymptotics.sweep": ("asymptotics",),
}
# calls out of a layer into a dependency; their errors are not the layer's
MP_SPAN = "holonomy.mp"
SOLVE_SPAN = "geometry.linalg_solve"


def _module(name: str):
    return importlib.import_module(f"fatscreens.{name}")


class _Proxy:
    """Stands in for a module; listed attributes are replaced, the rest delegate."""

    def __init__(self, real, **overrides):
        self._real = real
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Spans and counters of one run; ``install`` starts recording, ``uninstall`` stops."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item = -1
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.pairs: set = set()
        self.candidate_frac = 0.0
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> None:
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(len(self.spans))
        self.spans.append([name, perf_counter(), 0.0, parent, self.item])

    def _close(self) -> None:
        self.spans[self.stack.pop()][2] = perf_counter()

    @contextmanager
    def span(self, name: str, inner=None):
        """Record a span around a block, entering ``inner`` inside it if given."""
        self._open(name)
        try:
            with inner if inner is not None else nullcontext() as value:
                yield value
        finally:
            self._close()

    def _wrap(self, name: str, fn, hook=None):
        layer = name.split(".", 1)[0]

        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                self._close()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    # counters read off arguments and results, outside the span

    def _count_steps(self, args, kwargs, result) -> None:
        path = args[2] if len(args) > 2 else kwargs["path"]
        self.counts["holonomy.steps"] += len(path.steps)

    def _count_points(self, args, kwargs, result) -> None:
        self.counts["asymptotics.sweep.points"] += len(result.rows)

    def _count_pair(self, args, kwargs, result) -> None:
        s, member = args[0], frozenset(args[1])
        pred = min((a for a in s.family if member < a), key=len)
        self.pairs.add((member, pred))

    def _count_candidates(self, args, kwargs, result) -> None:
        # every connected recurrent proper subset is a member of some screen
        # (alone with the full edge set), so the distinct members are the
        # enumeration's candidates; the masks scanned are all nonempty subsets
        g = args[0]
        top = g.all_edges()
        members = {a for s in result for a in s.family if a != top}
        self.candidate_frac = len(members) / ((1 << g.n_edges) - 1)

    # -- installation --------------------------------------------------------

    def _patch(self, module, attr: str, value) -> None:
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> None:
        hooks = {"holonomy.holonomy": self._count_steps,
                 "asymptotics.sweep": self._count_points,
                 "screens.relative_boundary": self._count_pair,
                 "screens.enumerate_screens": self._count_candidates}
        for name, sites in WRAPPED.items():
            home, attr = name.split(".", 1)
            wrapper = self._wrap(name, getattr(_module(home), attr), hooks.get(name))
            for site in sites:
                self._patch(_module(site), attr, wrapper)
        hol, geo = _module("holonomy"), _module("geometry")
        mpmath = hol.mpmath
        self._patch(hol, "mpmath", _Proxy(
            mpmath, workdps=lambda dps: self.span(MP_SPAN, mpmath.workdps(dps))))
        np = geo.np
        self._patch(geo, "np", _Proxy(np, linalg=_Proxy(
            np.linalg,
            solve=self._timed(SOLVE_SPAN, np.linalg.solve),
            lstsq=self._timed(SOLVE_SPAN, np.linalg.lstsq))))

    def _timed(self, name: str, fn):
        def timed(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return timed

    def uninstall(self) -> None:
        while self._restore:
            module, attr, value = self._restore.pop()
            setattr(module, attr, value)

    # -- output --------------------------------------------------------------

    def self_times(self) -> tuple[dict, Counter]:
        """Total self time and call count per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        busy: dict = defaultdict(float)
        calls: Counter = Counter()
        for k, (name, start, end, _, _) in enumerate(self.spans):
            busy[name] += end - start - child[k]
            calls[name] += 1
        return busy, calls

    def metrics(self, scale: float = 1.0) -> dict:
        """Per-layer metrics as name -> (value, unit); times are multiplied by ``scale``."""
        busy, calls = self.self_times()
        out = {}
        for name in list(WRAPPED) + [MP_SPAN]:
            out[f"{name}.s"] = (busy[name] * scale, "s")
            out[f"{name}.calls"] = (calls[name], "count")
        evaluations = calls["holonomy.trace_gap_of_path"] + calls["holonomy.abs_trace_of_path"]
        out["holonomy.mp_frac"] = (calls[MP_SPAN] / evaluations if evaluations else 0.0,
                                   "ratio")
        out["holonomy.steps"] = (self.counts["holonomy.steps"], "count")
        out["asymptotics.sweep.points"] = (self.counts["asymptotics.sweep.points"], "count")
        out["screens.enumerate.candidate_frac"] = (self.candidate_frac, "ratio")
        rb_calls = calls["screens.relative_boundary"]
        out["screens.relative_boundary.reuse_frac"] = (
            1.0 - len(self.pairs) / rb_calls if rb_calls else 0.0, "ratio")
        out["geometry.newton_steps"] = (calls[SOLVE_SPAN], "count")
        out[f"{SOLVE_SPAN}.s"] = (busy[SOLVE_SPAN] * scale, "s")
        for layer in LAYERS:
            out[f"{layer}.errors"] = (self.errors[layer], "count")
        return out

    def write(self, path: Path) -> None:
        """Spans as gzipped tab-separated rows: id, name, start, end, parent, item.

        Times are seconds from the first span; parent and item are -1 for none.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id\tname\tstart\tend\tparent\titem\n")
            for k, (name, start, end, parent, item) in enumerate(self.spans):
                f.write(f"{k}\t{name}\t{start - t0:.7f}\t{end - t0:.7f}\t{parent}\t{item}\n")
