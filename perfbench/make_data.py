"""Rebuild the benchmark's checked-in inputs and reference outputs.

    PYTHONPATH=src python3 perfbench/make_data.py

Writes into ``perfbench/data``:

- ``census12.fg``: ``trivalent_graph(12, random.Random(0))`` (genus 1,
  4 punctures, 6656 screens);
- ``genus2.fg``: a pinned copy of ``tests/data/genus2.fg``;
- ``genus2_ref.json`` and ``census12_ref.json``: screen count, a digest of
  all screen families, one digest per screen (family, depth exponents and
  canonical boundary curves, in ``family_key`` order), and for genus 2 the
  essential-curve pool that the negative control draws from;
- ``lengths12_ref.json``: the 46-curve essential pool of ``census12.fg``,
  64 in-cell weight vectors from ``[0.5, 2]**12`` and their curve lengths.

References are computed with the library as it stands, so run this only to
re-baseline against a version whose outputs are known to be right.
"""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path

import workloads as wl
from fatscreens import fatgraph as fgr
from fatscreens import geometry as geo
from fatscreens import holonomy as hol
from fatscreens import screens as scn

REPO = Path(__file__).resolve().parent.parent
N_WEIGHTS = 64


def essential_pool(g: fgr.Fatgraph) -> list[fgr.EdgePath]:
    """Boundary curves of all recurrent proper subsets, sorted by steps."""
    pool = {}
    top = g.all_edges()
    for mask in range(1, 1 << g.n_edges):
        sub = frozenset(e for e in range(g.n_edges) if mask >> e & 1)
        if sub != top and fgr.is_recurrent(g, sub):
            for c in fgr.subset_boundary(g, sub):
                pool[c.steps] = c
    return [pool[k] for k in sorted(pool)]


def screen_reference(g: fgr.Fatgraph) -> dict:
    screens = sorted(scn.enumerate_screens(g), key=wl.family_key)
    return {
        "screen_count": len(screens),
        "families_digest": wl.digest(tuple(wl.family_key(s) for s in screens)),
        "screen_digests": [wl.screen_digest(s, fam, scn.screen_boundary(s))
                           for s in screens for fam in [scn.depth_family(s)]],
    }


def in_cell_weights(g: fgr.Fatgraph, rng: random.Random) -> geo.LambdaAssignment:
    while True:
        lam = geo.lambda_assignment([rng.uniform(0.5, 2.0) for _ in range(g.n_edges)])
        if geo.in_cell(g, lam):
            return lam


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, separators=(",", ":")) + "\n")


def main() -> None:
    wl.DATA.mkdir(exist_ok=True)
    census = wl.trivalent_graph(12, random.Random(0))
    if fgr.topology(census) != (1, 4):
        raise SystemExit(f"census graph has topology {fgr.topology(census)}, expected (1, 4)")
    header, body = fgr.fatgraph_to_text(census).split("\n", 1)
    (wl.DATA / "census12.fg").write_text(
        f"{header}\n# trivalent_graph(12, random.Random(0)) from perfbench/workloads.py\n"
        f"{body}")
    shutil.copyfile(REPO / "tests" / "data" / "genus2.fg", wl.DATA / "genus2.fg")

    census = wl.load_graph("census12.fg")
    genus2 = wl.load_graph("genus2.fg")
    ref = screen_reference(genus2)
    ref["pool"] = [list(c.steps) for c in essential_pool(genus2)]
    write_json(wl.DATA / "genus2_ref.json", ref)
    write_json(wl.DATA / "census12_ref.json", screen_reference(census))

    curves = essential_pool(census)
    rng = random.Random(12)
    weights = [in_cell_weights(census, rng) for _ in range(N_WEIGHTS)]
    lengths = [[hol.hyp_length(hol.abs_trace_of_path(census, lam, c)) for c in curves]
               for lam in weights]
    write_json(wl.DATA / "lengths12_ref.json", {
        "curves": [list(c.steps) for c in curves],
        "weights": [list(lam.values) for lam in weights],
        "lengths": lengths,
    })


if __name__ == "__main__":
    main()
