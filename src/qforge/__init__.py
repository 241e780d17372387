"""qforge: build, compile, simulate and shrink quantum circuits.

The toolkit covers the whole path from an embedded circuit builder
(named qubits, controls, chaining, looping, ladder tiling) through a
verifying/lowering compiler to the integer QP instruction format, with
a full state-vector simulator, a linear-time computational-basis
simulator, a circuit unit-test harness and an automatic qubit-reduction
transform that specializes constant qubits into families of smaller
kernels.
"""
from .ir import (
    BadLadderGeometry,
    Circuit,
    CircuitError,
    ConflictingRegister,
    Control,
    ControlTargetsOverlap,
    DuplicateControlConflict,
    Gate,
    GateKind,
    Index,
    LengthMismatch,
    Named,
    QubitRef,
    as_ref,
    ccx,
    chain,
    cnot,
    ctrl,
    h,
    interleave,
    ladder,
    mcx,
    nctrl,
    new_circuit,
    qubits,
    repeat,
    s,
    sdg,
    swap,
    t,
    tdg,
    with_controls,
    x,
    y,
    z,
)
from .source import ParseError, UndeclaredRegister, UnknownGate, parse_source, print_source
from .passes import (
    CompileError,
    Diagnostic,
    PassConfig,
    compile_circuit,
    expand_multi_controls,
    lower_negative_controls,
    lower_swaps,
    resolve_names,
    verify,
)
from .qp import QPGate, QPProgram, emit_qp, parse_qp
from .statevector import (
    BasisOutOfRange,
    StateTooLarge,
    StateVector,
    UnloweredSwap,
    apply_gate,
    apply_swap,
    init_state,
    probabilities,
    run,
)
from .logic import BasisState, NonLogicGate, run_logic
from .reduction import (
    EntangledSpecialization,
    NotAPermutation,
    NotReducible,
    ReducedKernel,
    ReductionReport,
    Specialization,
    UnsupportedForSemanticReduction,
    extract_permutation,
    find_control_only_qubits,
    generate_kernels,
    specialize_syntactic,
    synthesize_from_permutation,
    write_kernels,
)
from .library import (
    AdderLayout,
    cuccaro_full_add,
    full_add,
    increment_kernel,
    load_fixture,
    maj,
    mod_add,
    mod_add_layout_permutation,
    unmaj,
)
from .harness import (
    AmplitudeExpectation,
    Backend,
    CaseResult,
    TestCase,
    TestReport,
    parse_suite,
    run_suite,
)

__version__ = "0.1.0"
