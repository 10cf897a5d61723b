(** Compiled cycle-accurate simulator over the {!Levelize} IR.

    Drop-in replacement for {!Cyclesim} (same evaluation model: settle,
    then registers latch read-before-write and memories commit
    read-first), but instead of interpreting the signal graph through
    per-uid hashtables it specializes the circuit once at {!create}:

    - every node gets a dense slot (the {!Levelize} slot order, which is
      a valid evaluation order) in preallocated value arrays — signals of
      width [<= 62] live in a plain [int array] with no per-cycle
      allocation, wider signals in a [Bits.t array];
    - every combinational node becomes one closure specialized to its
      kind, operand slots and width mask, run in slot order by {!settle};
    - registers, synchronous memory reads and memory write ports become
      latch/commit closures, so {!step} is three tight array loops.

    Outputs are bit-identical to {!Cyclesim} on every circuit (the
    lockstep qcheck suite in [test/test_compile.ml] holds both backends
    to that). Unlike the interpreter, an unconnected wire is rejected
    here at {!create} time with [Invalid_argument] naming the wire,
    before the first [step] can trip over it. *)

type t

val create : Circuit.t -> t
(** Compile the circuit. Raises [Invalid_argument] naming the offending
    signal if the circuit contains an unconnected wire. *)

val set_input : t -> string -> Bits.t -> unit
(** Raises [Not_found] for unknown ports, [Invalid_argument] on width
    mismatch. Values persist across cycles until overwritten. Driving an
    input with the value it already holds is a no-op: a settled
    simulator stays settled. *)

val set_input_int : t -> string -> int -> unit
(** [set_input t name (Bits.of_int ~width v)] with the port's width, with
    the same exceptions: [Invalid_argument] for a negative [v], which is
    otherwise masked to the port width. Allocates nothing for ports of
    width [<= 62]. *)

val output : t -> string -> Bits.t
(** Settles first if needed. Raises [Not_found] for unknown ports. *)

val output_int : t -> string -> int

val peek : t -> Signal.t -> Bits.t
(** Read any signal's settled value (for debugging/tests), settling first
    if needed. *)

val settle : t -> unit
(** Recompute combinational logic without advancing the clock. A no-op
    when nothing changed since the last settle: the settled values are a
    function of the inputs, the register and sync-read state and the
    memory contents, and only {!set_input} with a new value, {!step} and
    {!write_memory} change those. Every reader settles on demand, so an
    explicit call is never needed for correctness. *)

val step : t -> unit
(** Settle if needed, then advance one clock edge: registers and
    synchronous reads latch, memory writes commit. The combinational
    logic is left unsettled; the next reader (or {!step}) settles it, so
    a test bench that re-drives inputs after the edge pays one settle per
    cycle, not two. *)

val cycle : t -> int
(** Number of clock edges so far. *)

val read_memory : t -> Signal.Mem.mem -> int -> Bits.t
val write_memory : t -> Signal.Mem.mem -> int -> Bits.t -> unit
(** Backdoor memory access for test benches. *)
