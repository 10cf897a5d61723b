(** Discrete-event simulation engine.

    Time is a dimensionless integer tick; the SoC models interpret it as a
    clock cycle of the accelerator fabric clock. Events scheduled for the
    same tick fire in scheduling order (deterministic). *)

type t

val create : unit -> t
val now : t -> int

val schedule : t -> delay:int -> (unit -> unit) -> unit
(** Schedule a callback [delay >= 0] ticks from now. *)

val schedule_at : t -> time:int -> (unit -> unit) -> unit
(** Schedule at an absolute time [>= now]. *)

exception Livelock of { fired : int; pending : int; clock : int }
(** Raised by {!run} when [max_events] fire without draining the queue. *)

val run : ?until:int -> ?max_events:int -> t -> unit
(** Drain the event queue. With [until], stop once the next event would fire
    after [until] (the clock is left at [until]). With [max_events], raise
    {!Livelock} when an event is still due after that many have fired — the
    guard that keeps a fault campaign from wedging the simulator. A queue
    that drains in exactly [max_events] events returns normally. *)

val run_until : t -> until:int -> max_events:int -> unit
(** [run ~until ~max_events] without optional arguments: the entry point
    for callers that advance an engine once per coordinator round, where
    the [Some] boxes of the optional form would be allocated every call.
    [run] delegates here, so both share one loop. *)

val drain_or_fail : ?max_events:int -> t -> unit
(** [run] with a default 10M-event budget that converts {!Livelock} into
    [Failure] carrying the pending-event count — use in tests so a
    deadlocked simulation reports instead of hanging [dune runtest]. *)

val step : t -> bool
(** Fire the single next event. Returns [false] when the queue is empty. *)

val peek_time : t -> int
(** Timestamp of the next queued event, [max_int] when the queue is empty —
    the lookahead a conservative multi-engine coordinator (one engine per
    simulated device) needs to pick which engine fires next. Returns an
    unboxed [int], so polling it every round allocates nothing. *)

val pending : t -> int
(** Number of queued events. *)

val fired : t -> int
(** Number of events fired over the engine's lifetime, by {!step} and
    {!run} alike. *)
