"""Reference models of the token rings, written apart from the engines.

Each ring family is restated here from Dijkstra's and the paper's
definitions as vectorised NumPy code over integer state codes: its own
variable order, its own encoding, its own successor function.  Nothing
here imports ``repro``; the benchmark compares what the engines return
(cores, worst-case convergence steps) with what these models compute.

Run it to print the reference values the benchmark checks against::

    python3 perfbench/reference.py
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

Values = Dict[str, np.ndarray]
Guard = Callable[[Values], np.ndarray]
Update = Callable[[Values], Values]


@dataclass
class RingModel:
    """A ring as variables with radices, guarded actions and init states."""

    name: str
    variables: List[Tuple[str, int]]
    actions: List[Tuple[str, Guard, Update]]
    init: List[Dict[str, int]]

    @property
    def size(self) -> int:
        return int(np.prod([radix for _, radix in self.variables]))

    def _places(self) -> List[int]:
        places, place = [], 1
        for _, radix in self.variables:
            places.append(place)
            place *= radix
        return places

    def decode(self, codes: np.ndarray) -> Values:
        return {
            name: (codes // place) % radix
            for (name, radix), place in zip(self.variables, self._places())
        }

    def encode(self, values: Values) -> np.ndarray:
        code = np.zeros_like(next(iter(values.values())))
        for (name, _), place in zip(self.variables, self._places()):
            code = code + values[name] * place
        return code

    def encode_state(self, assignment: Dict[str, object]) -> int:
        """Code of one state given as ``name -> value`` (bools as 0/1)."""
        return int(
            sum(
                int(assignment[name]) * place
                for (name, _), place in zip(self.variables, self._places())
            )
        )

    def edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every transition ``(source, target)`` of the central daemon."""
        codes = np.arange(self.size, dtype=np.int64)
        values = self.decode(codes)
        sources, targets = [], []
        for _, guard, update in self.actions:
            enabled = guard(values)
            if not enabled.any():
                continue
            chosen = {name: column[enabled] for name, column in values.items()}
            moved = dict(chosen)
            moved.update(update(chosen))
            sources.append(codes[enabled])
            targets.append(self.encode(moved))
        if not sources:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        return np.concatenate(sources), np.concatenate(targets)

    def reachable(self, starts: Sequence[int]) -> np.ndarray:
        """Flags of the states reachable from ``starts`` (inclusive)."""
        sources, targets = self.edges()
        order = np.argsort(sources, kind="stable")
        by_source = targets[order]
        pointer = np.searchsorted(sources[order], np.arange(self.size + 1))
        seen = np.zeros(self.size, dtype=bool)
        frontier = np.unique(np.asarray(starts, dtype=np.int64))
        seen[frontier] = True
        while frontier.size:
            nxt = by_source[_gather(pointer, frontier)]
            nxt = np.unique(nxt[~seen[nxt]])
            seen[nxt] = True
            frontier = nxt
        return seen

    def init_codes(self) -> List[int]:
        return [self.encode_state(state) for state in self.init]


def _gather(pointer: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Indices of the CSR rows ``nodes`` of a ``pointer`` array."""
    starts = pointer[nodes]
    counts = pointer[nodes + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.repeat(starts - np.cumsum(counts) + counts, counts)
    return offsets + np.arange(total, dtype=np.int64)


def longest_outside(model: RingModel, core: np.ndarray) -> Optional[int]:
    """Longest transition path that stays outside ``core``.

    A state's depth is 0 when it has no successor, else the maximum over
    its successors of 1 (successor in the core) or 1 plus the
    successor's depth.  Computed by peeling the outside region from its
    sinks (Kahn's algorithm).  ``None`` when a cycle lies outside the
    core: no finite bound exists.
    """
    sources, targets = model.edges()
    outside = ~core
    keep = outside[sources]
    sources, targets = sources[keep], targets[keep]
    best = np.zeros(model.size, dtype=np.int64)
    best[sources[core[targets]]] = 1
    inner = outside[targets]
    sources, targets = sources[inner], targets[inner]
    pending = np.bincount(sources, minlength=model.size)
    order = np.argsort(targets, kind="stable")
    by_target = sources[order]
    pointer = np.searchsorted(targets[order], np.arange(model.size + 1))
    frontier = np.nonzero(outside & (pending == 0))[0]
    done = 0
    while frontier.size:
        done += frontier.size
        idx = _gather(pointer, frontier)
        preds = by_target[idx]
        if preds.size == 0:
            break
        depth_of_target = np.repeat(
            best[frontier], pointer[frontier + 1] - pointer[frontier]
        )
        np.maximum.at(best, preds, depth_of_target + 1)
        uniq, counts = np.unique(preds, return_counts=True)
        pending[uniq] -= counts
        frontier = uniq[pending[uniq] == 0]
    if done < int(outside.sum()):
        return None
    return int(best[outside].max()) if outside.any() else 0


# -- ring families ---------------------------------------------------------


def kstate(n: int, k: int) -> RingModel:
    """Dijkstra's K-state ring: ``n`` counters mod ``k``."""
    top = n - 1
    c = [f"c.{j}" for j in range(n)]
    actions: List[Tuple[str, Guard, Update]] = [
        (
            "bottom",
            lambda v: v[c[0]] == v[c[top]],
            lambda v: {c[0]: (v[c[0]] + 1) % k},
        )
    ]
    for j in range(1, n):
        actions.append(
            (
                f"copy.{j}",
                lambda v, j=j: v[c[j]] != v[c[j - 1]],
                lambda v, j=j: {c[j]: v[c[j - 1]]},
            )
        )
    init = [{name: value for name in c} for value in range(k)]
    return RingModel(f"kstate({n},{k})", [(name, k) for name in c], actions, init)


def kstate_privileges(model: RingModel, n: int) -> np.ndarray:
    """Number of privileged processes of every K-state configuration."""
    v = model.decode(np.arange(model.size, dtype=np.int64))
    count = (v["c.0"] == v[f"c.{n - 1}"]).astype(np.int64)
    for j in range(1, n):
        count += v[f"c.{j}"] != v[f"c.{j - 1}"]
    return count


def kstate_core_size(n: int, k: int) -> int:
    """Single-token K-state configurations: k + (n-1)·k·(k-1)."""
    return k + (n - 1) * k * (k - 1)


def kstate_stabilizes(n: int, k: int) -> bool:
    """Dijkstra's bound under the central daemon: k ≥ n − 1."""
    return k >= n - 1


def dijkstra3(n: int) -> RingModel:
    """Dijkstra's 3-state ring (paper, end of Section 5)."""
    top = n - 1
    c = [f"c.{j}" for j in range(n)]
    actions: List[Tuple[str, Guard, Update]] = [
        (
            "top",
            lambda v: (v[c[top - 1]] == v[c[0]])
            & ((v[c[top - 1]] + 1) % 3 != v[c[top]]),
            lambda v: {c[top]: (v[c[top - 1]] + 1) % 3},
        ),
        (
            "bottom",
            lambda v: v[c[1]] == (v[c[0]] + 1) % 3,
            lambda v: {c[0]: (v[c[1]] + 1) % 3},
        ),
    ]
    for j in range(1, top):
        actions.append(
            (
                f"up.{j}",
                lambda v, j=j: v[c[j - 1]] == (v[c[j]] + 1) % 3,
                lambda v, j=j: {c[j]: v[c[j - 1]]},
            )
        )
        actions.append(
            (
                f"down.{j}",
                lambda v, j=j: v[c[j + 1]] == (v[c[j]] + 1) % 3,
                lambda v, j=j: {c[j]: v[c[j + 1]]},
            )
        )
    init = [
        {c[0]: value, **{name: (value + 1) % 3 for name in c[1:]}}
        for value in range(3)
    ]
    return RingModel(f"dijkstra3({n})", [(name, 3) for name in c], actions, init)


def dijkstra4(n: int) -> RingModel:
    """Dijkstra's 4-state ring (paper, end of Section 4); up.N is false."""
    top = n - 1
    c = [f"c.{j}" for j in range(n)]
    up = {j: f"up.{j}" for j in range(1, top)}

    def up_of(v: Values, j: int) -> np.ndarray:
        return v[up[j]] if j in up else np.zeros_like(v[c[0]])

    actions: List[Tuple[str, Guard, Update]] = [
        (
            "top",
            lambda v: v[c[top - 1]] != v[c[top]],
            lambda v: {c[top]: v[c[top - 1]]},
        ),
        (
            "bottom",
            lambda v: (v[c[1]] == v[c[0]]) & (up_of(v, 1) == 0),
            lambda v: {c[0]: 1 - v[c[0]]},
        ),
    ]
    for j in range(1, top):
        actions.append(
            (
                f"up.{j}",
                lambda v, j=j: v[c[j - 1]] != v[c[j]],
                lambda v, j=j: {c[j]: v[c[j - 1]], up[j]: np.ones_like(v[c[j]])},
            )
        )
        actions.append(
            (
                f"down.{j}",
                lambda v, j=j: (v[c[j + 1]] == v[c[j]])
                & (up_of(v, j + 1) == 0)
                & (v[up[j]] == 1),
                lambda v, j=j: {up[j]: np.zeros_like(v[c[j]])},
            )
        )
    variables = [(name, 2) for name in c] + [(up[j], 2) for j in range(1, top)]
    init = [
        {**{name: value for name in c}, **{name: 0 for name in up.values()}}
        for value in range(2)
    ]
    return RingModel(f"dijkstra4({n})", variables, actions, init)


def btr(n: int) -> RingModel:
    """The abstract bidirectional token ring BTR (Section 3.1)."""
    top = n - 1
    dt = [f"dt.{j}" for j in range(top)]
    ut = {j: f"ut.{j}" for j in range(1, n)}
    one = np.ones_like
    zero = np.zeros_like
    actions: List[Tuple[str, Guard, Update]] = [
        (
            "top",
            lambda v: v[ut[top]] == 1,
            lambda v: {dt[top - 1]: one(v[ut[top]]), ut[top]: zero(v[ut[top]])},
        ),
        (
            "bottom",
            lambda v: v[dt[0]] == 1,
            lambda v: {dt[0]: zero(v[dt[0]]), ut[1]: one(v[dt[0]])},
        ),
    ]
    for j in range(1, top):
        actions.append(
            (
                f"up.{j}",
                lambda v, j=j: v[ut[j]] == 1,
                lambda v, j=j: {ut[j]: zero(v[ut[j]]), ut[j + 1]: one(v[ut[j]])},
            )
        )
        actions.append(
            (
                f"down.{j}",
                lambda v, j=j: v[dt[j]] == 1,
                lambda v, j=j: {dt[j - 1]: one(v[dt[j]]), dt[j]: zero(v[dt[j]])},
            )
        )
    names = dt + [ut[j] for j in range(1, n)]
    init = [{name: int(name == placed) for name in names} for placed in names]
    return RingModel(f"btr({n})", [(name, 2) for name in names], actions, init)


FAMILIES = {
    "kstate": kstate,
    "dijkstra3": dijkstra3,
    "dijkstra4": dijkstra4,
    "btr": btr,
}

#: Self-stabilization verdicts by family, from Dijkstra and the paper:
#: the 3- and 4-state rings stabilize; BTR, C2 and C3 alone do not.
SELF_STABILIZES = {"dijkstra3": True, "dijkstra4": True, "btr": False,
                   "c2": False, "c3": False}


def expected_self_stabilizes(family: str, n: int, k: Optional[int]) -> bool:
    if family == "kstate":
        assert k is not None
        return kstate_stabilizes(n, k)
    return SELF_STABILIZES[family]


def build(family: str, n: int, k: Optional[int] = None) -> RingModel:
    return kstate(n, k) if family == "kstate" else FAMILIES[family](n)


def self_stabilization_reference(
    family: str, n: int, k: Optional[int] = None
) -> Dict[str, object]:
    """Core and worst-case steps of a ring checked against itself."""
    model = build(family, n, k)
    core = model.reachable(model.init_codes())
    return {
        "core": core,
        "core_size": int(core.sum()),
        "worst_case_steps": longest_outside(model, core),
        "model": model,
    }


def kstate_utr_reference(n: int, k: int) -> Dict[str, object]:
    """K-state against UTR: the core is the single-token configurations."""
    model = kstate(n, k)
    core = kstate_privileges(model, n) == 1
    return {
        "core": core,
        "core_size": int(core.sum()),
        "worst_case_steps": longest_outside(model, core)
        if kstate_stabilizes(n, k) else None,
        "model": model,
    }


def dijkstra4_btr_reference(n: int) -> Dict[str, object]:
    """Dijkstra's 4-state ring against BTR: the core is what the initial
    configurations reach (the legitimate states)."""
    model = dijkstra4(n)
    core = model.reachable(model.init_codes())
    return {
        "core": core,
        "core_size": int(core.sum()),
        "worst_case_steps": longest_outside(model, core),
        "model": model,
    }


def _summary(reference: Dict[str, object]) -> Dict[str, object]:
    return {
        "states": reference["model"].size,  # type: ignore[union-attr]
        "core_size": reference["core_size"],
        "worst_case_steps": reference["worst_case_steps"],
    }


def main() -> int:
    rows = {
        "kstate(7,7) vs UTR": _summary(kstate_utr_reference(7, 7)),
        "kstate(7,5) vs UTR": _summary(kstate_utr_reference(7, 5)),
        "kstate(6,4) vs UTR": _summary(kstate_utr_reference(6, 4)),
        "dijkstra4(10) vs BTR": _summary(dijkstra4_btr_reference(10)),
    }
    for family in ("kstate", "dijkstra3", "dijkstra4", "btr"):
        for n in (3, 4, 5):
            ks = [n - 2, n - 1] if family == "kstate" else [None]
            for k in ks:
                if k is not None and k < 2:
                    continue
                label = f"{family}({n}{'' if k is None else f',{k}'}) self"
                rows[label] = {
                    **_summary(self_stabilization_reference(family, n, k)),
                    "stabilizes": expected_self_stabilizes(family, n, k),
                }
    for n, k in ((7, 7), (7, 5), (6, 4)):
        rows[f"kstate({n},{k}) formula"] = {
            "core_size": kstate_core_size(n, k),
            "stabilizes": kstate_stabilizes(n, k),
        }
    print(json.dumps(rows, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
