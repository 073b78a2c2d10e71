"""Seeded GCL text for small token rings (the ``small-specs`` workload).

The batch has a fixed make-up, so every seed costs the same: K-state
rings (n, k) = (3, 2), (4, 2), (4, 3), (5, 3), (5, 4), and Dijkstra's
3-state ring, Dijkstra's 4-state ring and BTR for n = 3, 4, 5.  The seed
varies what must not change a verdict: variable and program names, the
order of processes and actions, and which legitimate states are
declared initial.  The text is written here from the rings' definitions,
not from ``repro.rings``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: (family, n, k) of every generated spec, in batch order.
BATCH: Tuple[Tuple[str, int, Optional[int]], ...] = (
    ("kstate", 3, 2),
    ("kstate", 4, 2),
    ("kstate", 4, 3),
    ("kstate", 5, 3),
    ("kstate", 5, 4),
    ("dijkstra3", 3, None),
    ("dijkstra3", 4, None),
    ("dijkstra3", 5, None),
    ("dijkstra4", 3, None),
    ("dijkstra4", 4, None),
    ("dijkstra4", 5, None),
    ("btr", 3, None),
    ("btr", 4, None),
    ("btr", 5, None),
)

_PREFIXES = ("c", "x", "s", "v", "q")


@dataclass
class Spec:
    """One generated (or example) spec and what it is an instance of."""

    label: str
    family: str
    n: int
    k: Optional[int]
    text: str
    #: reference-model variable name -> name used in ``text``
    names: Dict[str, str] = field(default_factory=dict)


@dataclass
class _Action:
    name: str
    owner: int
    guard: str
    assigns: List[Tuple[str, str]]


def _render(
    rng: random.Random,
    program: str,
    declarations: Sequence[Tuple[List[str], str]],
    owners: Dict[int, Tuple[List[str], List[str]]],
    actions: List[_Action],
    init: List[Dict[str, str]],
) -> str:
    lines = [f"program {program}"]
    for names, domain in declarations:
        lines.append(f"var {', '.join(names)} : {domain}")
    processes = list(owners)
    rng.shuffle(processes)
    for j in processes:
        owns, reads = owners[j]
        lines.append(f"process p{j} owns {', '.join(owns)} reads {', '.join(reads)}")
    rng.shuffle(actions)
    for action in actions:
        body = ", ".join(f"{lhs} := {rhs}" for lhs, rhs in action.assigns)
        lines.append(f"action {action.name} of p{action.owner} :: {action.guard} --> {body}")
    chosen = rng.sample(init, rng.randint(1, len(init)))
    lines.append(
        "init "
        + " || ".join(
            "(" + " && ".join(f"{name} == {value}" for name, value in state.items()) + ")"
            for state in chosen
        )
    )
    return "\n".join(lines) + "\n"


def kstate_spec(rng: random.Random, n: int, k: int) -> Spec:
    p = rng.choice(_PREFIXES)
    c = [f"{p}.{j}" for j in range(n)]
    top = n - 1
    actions = [_Action("bottom", 0, f"({c[0]} == {c[top]})", [(c[0], f"(({c[0]} + 1) % {k})")])]
    actions += [
        _Action(f"copy.{j}", j, f"({c[j]} != {c[j - 1]})", [(c[j], c[j - 1])])
        for j in range(1, n)
    ]
    owners = {j: ([c[j]], [c[(j - 1) % n]]) for j in range(n)}
    init = [{name: str(value) for name in c} for value in range(k)]
    text = _render(rng, f"K{k}_{p}_n{n}", [(c, f"mod {k}")], owners, actions, init)
    return Spec(f"kstate({n},{k})", "kstate", n, k, text,
                {f"c.{j}": c[j] for j in range(n)})


def dijkstra3_spec(rng: random.Random, n: int) -> Spec:
    p = rng.choice(_PREFIXES)
    c = [f"{p}.{j}" for j in range(n)]
    top = n - 1

    def plus1(name: str) -> str:
        return f"(({name} + 1) % 3)"

    actions = [
        _Action("top", top, f"(({c[top - 1]} == {c[0]}) && ({plus1(c[top - 1])} != {c[top]}))",
                [(c[top], plus1(c[top - 1]))]),
        _Action("bottom", 0, f"({c[1]} == {plus1(c[0])})", [(c[0], plus1(c[1]))]),
    ]
    for j in range(1, top):
        actions.append(_Action(f"up.{j}", j, f"({c[j - 1]} == {plus1(c[j])})", [(c[j], c[j - 1])]))
        actions.append(_Action(f"down.{j}", j, f"({c[j + 1]} == {plus1(c[j])})", [(c[j], c[j + 1])]))
    owners = {j: ([c[j]], [c[i] for i in sorted({(j - 1) % n, (j + 1) % n})]) for j in range(n)}
    init = [
        {c[0]: str(value), **{name: str((value + 1) % 3) for name in c[1:]}}
        for value in range(3)
    ]
    text = _render(rng, f"Dijkstra3_{p}_n{n}", [(c, "mod 3")], owners, actions, init)
    return Spec(f"dijkstra3({n})", "dijkstra3", n, None, text,
                {f"c.{j}": c[j] for j in range(n)})


def dijkstra4_spec(rng: random.Random, n: int) -> Spec:
    p = rng.choice(_PREFIXES)
    c = [f"{p}.{j}" for j in range(n)]
    top = n - 1
    up = {j: f"up{p}.{j}" for j in range(1, top)}

    def not_up(j: int) -> str:
        return f"!({up[j]})" if j in up else "!(false)"

    actions = [
        _Action("top", top, f"({c[top - 1]} != {c[top]})", [(c[top], c[top - 1])]),
        _Action("bottom", 0, f"(({c[1]} == {c[0]}) && {not_up(1)})", [(c[0], f"!({c[0]})")]),
    ]
    for j in range(1, top):
        actions.append(_Action(f"up.{j}", j, f"({c[j - 1]} != {c[j]})",
                               [(c[j], c[j - 1]), (up[j], "true")]))
        actions.append(_Action(f"down.{j}", j,
                               f"((({c[j + 1]} == {c[j]}) && {not_up(j + 1)}) && {up[j]})",
                               [(up[j], "false")]))
    owners: Dict[int, Tuple[List[str], List[str]]] = {}
    for j in range(n):
        owns = [c[j]] + ([up[j]] if j in up else [])
        reads = [c[i] for i in (j - 1, j + 1) if 0 <= i < n]
        reads += [up[i] for i in (j - 1, j + 1) if i in up]
        owners[j] = (owns, reads)
    init = [
        {**{name: value for name in c}, **{name: "false" for name in up.values()}}
        for value in ("false", "true")
    ]
    declarations = [(c + [up[j] for j in range(1, top)], "bool")]
    text = _render(rng, f"Dijkstra4_{p}_n{n}", declarations, owners, actions, init)
    names = {f"c.{j}": c[j] for j in range(n)}
    names.update({f"up.{j}": up[j] for j in up})
    return Spec(f"dijkstra4({n})", "dijkstra4", n, None, text, names)


def btr_spec(rng: random.Random, n: int) -> Spec:
    p = rng.choice(_PREFIXES)
    top = n - 1
    dt = [f"d{p}.{j}" for j in range(top)]
    ut = {j: f"u{p}.{j}" for j in range(1, n)}
    actions = [
        _Action("top", top, ut[top], [(dt[top - 1], "true"), (ut[top], "false")]),
        _Action("bottom", 0, dt[0], [(dt[0], "false"), (ut[1], "true")]),
    ]
    for j in range(1, top):
        actions.append(_Action(f"up.{j}", j, ut[j], [(ut[j], "false"), (ut[j + 1], "true")]))
        actions.append(_Action(f"down.{j}", j, dt[j], [(dt[j - 1], "true"), (dt[j], "false")]))
    owners: Dict[int, Tuple[List[str], List[str]]] = {}
    for j in range(n):
        owns = ([dt[j]] if j < top else []) + ([ut[j]] if j in ut else [])
        reads = [dt[i] for i in (j - 1, j + 1) if 0 <= i < top]
        reads += [ut[i] for i in (j - 1, j + 1) if i in ut]
        owners[j] = (owns, reads)
    names = dt + [ut[j] for j in range(1, n)]
    init = [{name: ("true" if name == placed else "false") for name in names} for placed in names]
    text = _render(rng, f"BTR_{p}_n{n}", [(names, "bool")], owners, actions, init)
    mapping = {f"dt.{j}": dt[j] for j in range(top)}
    mapping.update({f"ut.{j}": ut[j] for j in ut})
    return Spec(f"btr({n})", "btr", n, None, text, mapping)


def generate(seed: int) -> List[Spec]:
    """The seeded batch, in a seeded order."""
    rng = random.Random(seed)
    specs = []
    for family, n, k in BATCH:
        if family == "kstate":
            assert k is not None
            specs.append(kstate_spec(rng, n, k))
        elif family == "dijkstra3":
            specs.append(dijkstra3_spec(rng, n))
        elif family == "dijkstra4":
            specs.append(dijkstra4_spec(rng, n))
        else:
            specs.append(btr_spec(rng, n))
    rng.shuffle(specs)
    return specs


#: The example files and the family each is an instance of.
EXAMPLES: Tuple[Tuple[str, str, int, Optional[int]], ...] = (
    ("btr_n4.gcl", "btr", 4, None),
    ("c2_n4.gcl", "c2", 4, None),
    ("c3_n4.gcl", "c3", 4, None),
    ("dijkstra3_n4.gcl", "dijkstra3", 4, None),
    ("dijkstra4_n4.gcl", "dijkstra4", 4, None),
    ("kstate_n5_k4.gcl", "kstate", 5, 4),
)
