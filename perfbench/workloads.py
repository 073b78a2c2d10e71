"""The four workloads: their checks, and how each outcome is verified.

Every operation is one call of the verifier's public API, from the input
program (or GCL text) to the returned verdict.  Its inputs are built
fresh before each call, outside the timed region, so no cache inside
the program carries over from one call to the next.  After the timed
rounds, every outcome is checked against values computed apart from the
engines:

* verdicts against Dijkstra and the paper (``reference.py``);
* cores and worst-case steps against the reference ring models;
* witnesses replayed step by step through the ``repro.gcl`` evaluator
  (guards and assignments of the program's own actions);
* the engines' printed verdicts against each other, byte for byte;
* the engine that decided against the engine requested.
"""

from __future__ import annotations

import functools
import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import reference
import specgen
from repro.checker import (
    check_convergence_refinement,
    check_everywhere_refinement,
    check_stabilization,
)
from repro.gcl import parser as gcl_parser
from repro.kernel.shared import using_memory_budget
from repro.obs import Instrumentation
from repro.rings import (
    btr3_abstraction,
    btr3_program,
    btr4_abstraction,
    btr_program,
    c1_program,
    c2_program,
    c3_program,
    dijkstra_four_state,
    kstate_program,
    utr_abstraction,
    utr_program,
    utr_token_creation_wrapper,
    w1_global_program,
    w1_local_program,
    w2_refined_program,
)

#: Working-set budget of the shared engine: small enough that
#: K-state(7,7) and Dijkstra 4-state(10) spill and reuse action tables.
MEM_BUDGET = "16M"
#: K-state(7,7)'s budget on ``check-pass``: below 16 times its visited
#: bit field (100 KiB), so the visited set pages to an mmap file.
MMAP_BUDGET = "1M"
#: Worker processes for the shared engine: the 2-core box's ``nproc``.
WORKERS = 2

REFINE_ENGINES = ("tuple", "packed", "vector")
SMALL_ENGINES = ("tuple", "packed", "vector", "shared")


class EngineEvents(Instrumentation):
    """Keeps only the ``engine.*`` events (which engine ran, and why)."""

    def __init__(self) -> None:
        self.events: List[Tuple[str, Dict[str, object]]] = []

    def event(self, name: str, /, **fields: object) -> None:
        if name.startswith("engine."):
            self.events.append((name, dict(fields)))


@dataclass
class Outcome:
    """What one operation returned, kept for the checks after the run."""

    text: str
    holds: bool
    engine: Optional[str]
    events: List[Tuple[str, Dict[str, object]]]
    core: Optional[frozenset] = None
    steps: Optional[int] = None
    witness_kind: Optional[str] = None
    witness: Tuple = ()


@dataclass
class Op:
    """One check: build inputs (untimed), run (timed), verify (after)."""

    label: str
    group: str  # operations in one group must print identical verdicts
    engine: str
    make: Callable[[], Dict[str, object]]
    run: Callable[[Dict[str, object], Instrumentation], object]
    verify: Callable[[Outcome, Dict[str, object]], List[str]]
    refine: bool = False


def outcome_of(result: object, instrumentation: Instrumentation) -> Outcome:
    events = getattr(instrumentation, "events", None)
    if events is None:  # a Recorder: take the engine events of its record
        events = [
            (event.name, dict(event.fields))
            for event in instrumentation.record().events  # type: ignore[attr-defined]
            if event.name.startswith("engine.")
        ]
    check = getattr(result, "result", result)
    witness = check.witness
    return Outcome(
        text=result.format(),  # type: ignore[attr-defined]
        holds=bool(check.holds),
        engine=getattr(result, "engine", None),
        events=list(events),
        core=getattr(result, "core", None),
        steps=getattr(result, "worst_case_steps", None),
        witness_kind=witness.kind.name if witness is not None else None,
        witness=tuple(witness.states) if witness is not None else (),
    )


def engine_problem(op: Op, outcome: Outcome) -> Optional[str]:
    """Why the engine that decided is not the one requested, if it is not.

    A swap is accepted only when an ``engine.fallback`` event that names
    the requested engine gives a reason.
    """
    fallbacks = [
        fields for name, fields in outcome.events
        if name == "engine.fallback" and fields.get("requested") == op.engine
        and fields.get("reason")
    ]
    if op.refine:
        selected = {
            fields.get("engine") for name, fields in outcome.events
            if name == "engine.selected"
        }
        ran = selected or {"tuple"}
        if ran <= {op.engine} or fallbacks:
            return None
        return f"requested {op.engine}, {'/'.join(sorted(ran))} decided without an engine.fallback event"
    if outcome.engine == op.engine or fallbacks:
        return None
    return f"requested {op.engine}, {outcome.engine} decided without an engine.fallback event"


# -- replay through the repro.gcl evaluator ----------------------------------


def gcl_successors(program, state) -> List[tuple]:
    """Successors of ``state`` under the central daemon, by the program's
    own guards and assignments."""
    env = program.env_of(state)
    return [
        program.state_of(action.execute(env))
        for action in program.actions
        if action.enabled(env)
    ]


def gcl_reachable(program, starts: Sequence[tuple]) -> set:
    seen = set(starts)
    frontier = list(seen)
    while frontier:
        nxt = []
        for state in frontier:
            for successor in gcl_successors(program, state):
                if successor not in seen:
                    seen.add(successor)
                    nxt.append(successor)
        frontier = nxt
    return seen


def replay_cycle(program, states: Tuple, outside: Callable[[tuple], bool]) -> List[str]:
    problems = []
    if len(states) < 2 or states[0] != states[-1]:
        problems.append("divergent-cycle witness does not close")
    for source, target in zip(states, states[1:]):
        if target not in gcl_successors(program, source):
            problems.append(f"witness step {source} -> {target} is no transition")
            break
    if not all(outside(state) for state in states):
        problems.append("divergent-cycle witness enters the legitimate states")
    return problems


def verify_stabilization_witness(program, outcome: Outcome, outside) -> List[str]:
    if outcome.witness_kind == "DIVERGENT_CYCLE":
        return replay_cycle(program, outcome.witness, outside)
    if outcome.witness_kind == "ILLEGITIMATE_DEADLOCK":
        (state,) = outcome.witness
        problems = []
        if gcl_successors(program, state):
            problems.append("deadlock witness has an enabled action")
        if not outside(state):
            problems.append("deadlock witness is legitimate")
        return problems
    return [f"unexpected witness {outcome.witness_kind}"]


# -- verifying against the reference models -----------------------------------


@functools.lru_cache(maxsize=None)
def reference_of(kind: str, *args: object) -> Dict[str, object]:
    """A reference computation, made once per run, after the timed rounds."""
    return getattr(reference, kind)(*args)


def _codes(model: reference.RingModel, program, states, names: Dict[str, str]) -> np.ndarray:
    """Reference codes of engine states (``names``: model -> program)."""
    schema_names = program.schema().names
    index = {name: i for i, name in enumerate(schema_names)}
    return np.array(
        [
            model.encode_state({m: state[index[p]] for m, p in names.items()})
            for state in states
        ],
        dtype=np.int64,
    )


def verify_stabilization(
    outcome: Outcome,
    program,
    expected_holds: bool,
    ref: Dict[str, object],
    names: Dict[str, str],
    formula_core: Optional[int] = None,
) -> List[str]:
    problems = []
    if outcome.holds != expected_holds:
        problems.append(f"verdict {outcome.holds}, expected {expected_holds}")
        return problems
    model: reference.RingModel = ref["model"]  # type: ignore[assignment]
    core: np.ndarray = ref["core"]  # type: ignore[assignment]
    got = outcome.core or frozenset()
    if formula_core is not None and len(got) != formula_core:
        problems.append(f"core has {len(got)} states, k+(n-1)k(k-1) = {formula_core}")
    if len(got) != int(core.sum()) or not core[_codes(model, program, got, names)].all():
        problems.append("core differs from the reference core")
    if expected_holds:
        if outcome.steps != ref["worst_case_steps"]:
            problems.append(
                f"worst_case_steps {outcome.steps}, reference longest path "
                f"{ref['worst_case_steps']}"
            )
        return problems

    def outside(state) -> bool:
        return not bool(core[_codes(model, program, [state], names)[0]])

    return problems + verify_stabilization_witness(program, outcome, outside)


def _identity(model: reference.RingModel) -> Dict[str, str]:
    return {name: name for name, _ in model.variables}


# -- check-pass ----------------------------------------------------------------


def _shared_stabilization(concrete, abstract, alpha, instrumentation, budget=MEM_BUDGET):
    with using_memory_budget(budget):
        return check_stabilization(
            concrete, abstract, alpha, compute_steps=True, engine="shared",
            workers=WORKERS, instrumentation=instrumentation,
        )


def _kstate_utr_op(n: int, k: int, engine: str, budget: str = MEM_BUDGET) -> Op:
    def make():
        return {"concrete": kstate_program(n, k), "abstract": utr_program(n),
                "alpha": utr_abstraction(n, k)}

    def run(inputs, instrumentation):
        if engine == "shared":
            return _shared_stabilization(
                inputs["concrete"], inputs["abstract"], inputs["alpha"], instrumentation,
                budget,
            )
        return check_stabilization(
            inputs["concrete"], inputs["abstract"], inputs["alpha"],
            engine=engine, instrumentation=instrumentation,
        )

    def verify(outcome, inputs):
        ref = reference_of("kstate_utr_reference", n, k)
        return verify_stabilization(
            outcome, inputs["concrete"], reference.kstate_stabilizes(n, k), ref,
            _identity(ref["model"]), reference.kstate_core_size(n, k),  # type: ignore[arg-type]
        )

    return Op(f"K-state({n},{k})->UTR {engine}", f"kstate-utr-{n}-{k}", engine, make, run, verify)


def _dijkstra4_btr_op(n: int) -> Op:
    def make():
        return {"concrete": dijkstra_four_state(n), "abstract": btr_program(n),
                "alpha": btr4_abstraction(n)}

    def run(inputs, instrumentation):
        return _shared_stabilization(
            inputs["concrete"], inputs["abstract"], inputs["alpha"], instrumentation
        )

    def verify(outcome, inputs):
        ref = reference_of("dijkstra4_btr_reference", n)
        return verify_stabilization(
            outcome, inputs["concrete"], True, ref, _identity(ref["model"])  # type: ignore[arg-type]
        )

    return Op(f"Dijkstra4({n})->BTR shared", f"d4-btr-{n}", "shared", make, run, verify)


def check_pass(seed: int) -> List[Op]:
    return [_kstate_utr_op(7, 7, "shared", MMAP_BUDGET), _dijkstra4_btr_op(10)]


# -- check-fail ----------------------------------------------------------------


def _fair_trap_op(n: int, engine: str) -> Op:
    def make():
        utr = utr_program(n)
        return {"concrete": utr.merged_with(utr_token_creation_wrapper(n)), "abstract": utr}

    def run(inputs, instrumentation):
        return check_stabilization(
            inputs["concrete"], inputs["abstract"], fairness="strong",
            compute_steps=False, engine=engine, instrumentation=instrumentation,
        )

    def verify(outcome, inputs):
        # UTR with the token-creation wrapper does not stabilize even under
        # strong fairness: two tokens can rotate in lockstep forever.
        if outcome.holds:
            return ["verdict True, expected False (lockstep tokens)"]
        if outcome.witness_kind != "DIVERGENT_CYCLE" or "fair trap" not in outcome.text:
            return [f"expected a fair-trap witness, got {outcome.witness_kind}"]

        def outside(state) -> bool:
            return sum(bool(flag) for flag in state) != 1

        return replay_cycle(inputs["concrete"], outcome.witness, outside)

    return Op(f"UTR[]W1u({n}) strong {engine}", f"utr-w1u-{n}", engine, make, run, verify)


def check_fail(seed: int) -> List[Op]:
    return [
        _kstate_utr_op(7, 5, "shared"),
        _kstate_utr_op(6, 4, "vector"),
        _fair_trap_op(8, "packed"),
    ]


# -- refine --------------------------------------------------------------------


def _composite(n: int, base):
    return base(n).merged_with(w1_local_program(n)).merged_with(w2_refined_program(n))


def _abstract_of(inputs, state):
    alpha = inputs.get("alpha")
    return alpha(state) if alpha is not None else state


def _verify_refinement(outcome: Outcome, inputs, expected: bool, kind: Optional[str]) -> List[str]:
    if outcome.holds != expected:
        return [f"verdict {outcome.holds}, expected {expected}"]
    if expected:
        return []
    if outcome.witness_kind != kind:
        return [f"witness {outcome.witness_kind}, expected {kind}"]
    concrete, abstract = inputs["concrete"], inputs["abstract"]
    source, target = outcome.witness
    problems = []
    if target not in gcl_successors(concrete, source):
        problems.append("witness is no transition of the concrete program")
    image_source = _abstract_of(inputs, source)
    image_target = _abstract_of(inputs, target)
    abstract_steps = gcl_successors(abstract, image_source)
    if kind == "ILLEGAL_TRANSITION":
        if image_target in abstract_steps:
            problems.append("witness transition is a transition of the abstract program")
    elif kind == "NO_ABSTRACT_PATH":
        reach = gcl_reachable(abstract, abstract_steps)
        if image_target in reach:
            problems.append("an abstract path realizes the witness transition")
    elif kind == "COMPRESSION_ON_CYCLE":
        if image_target == image_source or image_target in abstract_steps:
            problems.append("witness transition is not a compression")
        if source not in gcl_reachable(concrete, [target]):
            problems.append("witness transition lies on no cycle")
    return problems


def _refine_op(label: str, engine: str, make, call, expected: bool,
               kind: Optional[str] = None) -> Op:
    def run(inputs, instrumentation):
        return call(inputs, engine, instrumentation)

    def verify(outcome, inputs):
        return _verify_refinement(outcome, inputs, expected, kind)

    return Op(f"{label} {engine}", label, engine, make, run, verify, refine=True)


def _convergence(inputs, engine, instrumentation, **flags):
    return check_convergence_refinement(
        inputs["concrete"], inputs["abstract"], inputs.get("alpha"),
        engine=engine, instrumentation=instrumentation, **flags,
    )


def refine(seed: int) -> List[Op]:
    instances = [
        ("[K-state(6,5) <= UTR]",
         lambda: {"concrete": kstate_program(6, 5), "abstract": utr_program(6),
                  "alpha": utr_abstraction(6, 5)},
         _convergence, True, None),
        ("Lemma 7 [C1 <= BTR](5)",
         lambda: {"concrete": c1_program(5), "abstract": btr_program(5),
                  "alpha": btr4_abstraction(5)},
         _convergence, True, None),
        ("Lemma 10 literal (4)",
         lambda: {"concrete": _composite(4, c2_program), "abstract": _composite(4, btr3_program)},
         _convergence, False, "NO_ABSTRACT_PATH"),
        ("Lemma 12 literal (4)",
         lambda: {"concrete": c3_program(4), "abstract": btr_program(4),
                  "alpha": btr3_abstraction(4)},
         lambda inputs, engine, instrumentation: _convergence(
             inputs, engine, instrumentation, stutter_insensitive=True),
         False, "COMPRESSION_ON_CYCLE"),
        ("[W1'' (= W1'](4)",
         lambda: {"concrete": w1_local_program(4), "abstract": w1_global_program(4)},
         lambda inputs, engine, instrumentation: check_everywhere_refinement(
             inputs["concrete"], inputs["abstract"], open_systems=True,
             engine=engine, instrumentation=instrumentation),
         False, "ILLEGAL_TRANSITION"),
    ]
    ops = [
        _refine_op(label, engine, make, call, expected, kind)
        for label, make, call, expected, kind in instances
        for engine in REFINE_ENGINES
    ]
    # Requests the shared engine, which refinement does not have: today
    # it runs packed with no engine.fallback event, so this operation
    # fails the engine check on every run.
    label, make, call, expected, kind = instances[0]
    ops.append(_refine_op(label, "shared", make, call, expected, kind))
    return ops


# -- small-specs -----------------------------------------------------------------


def _spec_op(spec: specgen.Spec, engine: str, load: Callable[[], str]) -> Op:
    def make():
        return {"text": load()}

    def run(inputs, instrumentation):
        program = gcl_parser.parse_program(inputs["text"])
        inputs["program"] = program
        return check_stabilization(
            program, program, engine=engine, instrumentation=instrumentation
        )

    def verify(outcome, inputs):
        program = inputs.get("program") or gcl_parser.parse_program(inputs["text"])
        expected = reference.expected_self_stabilizes(spec.family, spec.n, spec.k)
        if spec.family in reference.FAMILIES:
            ref = reference_of("self_stabilization_reference", spec.family, spec.n, spec.k)
            return verify_stabilization(outcome, program, expected, ref, spec.names)
        # C2 and C3: no reference model; legitimate states come from the
        # gcl evaluator, starting at the declared initial states.
        if outcome.holds != expected:
            return [f"verdict {outcome.holds}, expected {expected}"]
        legitimate = gcl_reachable(program, list(program.initial_states()))
        return verify_stabilization_witness(
            program, outcome, lambda state: state not in legitimate
        )

    return Op(f"{spec.label} self {engine}", spec.label, engine, make, run, verify)


def small_specs(seed: int, examples_dir: str) -> List[Op]:
    ops = []
    for spec in specgen.generate(seed):
        for engine in SMALL_ENGINES:
            ops.append(_spec_op(spec, engine, lambda text=spec.text: text))
    for filename, family, n, k in specgen.EXAMPLES:
        path = os.path.join(examples_dir, filename)
        spec = specgen.Spec(f"examples/specs/{filename}", family, n, k, "")
        with open(path, encoding="utf-8") as handle:
            header = gcl_parser.parse_program(handle.read())
        spec.names = {name: name for name in header.schema().names}

        def load(path=path) -> str:
            with open(path, encoding="utf-8") as handle:
                return handle.read()

        for engine in SMALL_ENGINES:
            ops.append(_spec_op(spec, engine, load))
    return ops


WORKLOADS: Dict[str, Callable[..., List[Op]]] = {
    "check-pass": check_pass,
    "check-fail": check_fail,
    "refine": refine,
    "small-specs": small_specs,
}


def build(name: str, seed: int, root: str) -> List[Op]:
    """The workload's operations.

    Only ``small-specs`` draws its inputs from the seed.  The other
    workloads are the fixed instances the paper's results rest on, run
    in a fixed order: peak memory depends on the order of the checks.
    """
    if name == "small-specs":
        ops = small_specs(seed, os.path.join(root, "examples", "specs"))
        random.Random(seed).shuffle(ops)
        return ops
    return WORKLOADS[name](seed)
