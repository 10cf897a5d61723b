type event = { time : int; seq : int; action : unit -> unit }

(* Binary min-heap ordered by (time, seq). *)
type t = {
  mutable heap : event array;
  mutable size : int;
  mutable clock : int;
  mutable next_seq : int;
  mutable fired : int;  (* events fired over the engine's lifetime *)
}

let dummy = { time = 0; seq = 0; action = ignore }
let create () =
  { heap = Array.make 64 dummy; size = 0; clock = 0; next_seq = 0; fired = 0 }

let now t = t.clock
let pending t = t.size
let fired t = t.fired

let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow t =
  let heap = Array.make (2 * Array.length t.heap) dummy in
  Array.blit t.heap 0 heap 0 t.size;
  t.heap <- heap

let push t ev =
  if t.size = Array.length t.heap then grow t;
  t.heap.(t.size) <- ev;
  t.size <- t.size + 1;
  let i = ref (t.size - 1) in
  while !i > 0 && before t.heap.(!i) t.heap.((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    let tmp = t.heap.(parent) in
    t.heap.(parent) <- t.heap.(!i);
    t.heap.(!i) <- tmp;
    i := parent
  done

let pop t =
  let top = t.heap.(0) in
  t.size <- t.size - 1;
  t.heap.(0) <- t.heap.(t.size);
  t.heap.(t.size) <- dummy;
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < t.size && before t.heap.(l) t.heap.(!smallest) then smallest := l;
    if r < t.size && before t.heap.(r) t.heap.(!smallest) then smallest := r;
    if !smallest <> !i then begin
      let tmp = t.heap.(!smallest) in
      t.heap.(!smallest) <- t.heap.(!i);
      t.heap.(!i) <- tmp;
      i := !smallest
    end
    else continue := false
  done;
  top

let schedule_at t ~time action =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf
         "Engine.schedule_at: time %d is in the past (clock is at %d)" time
         t.clock);
  let ev = { time; seq = t.next_seq; action } in
  t.next_seq <- t.next_seq + 1;
  push t ev

let schedule t ~delay action =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.clock + delay) action

let peek_time t = if t.size = 0 then max_int else t.heap.(0).time

let fire_next t =
  let ev = pop t in
  if ev.time > t.clock then t.clock <- ev.time;
  t.fired <- t.fired + 1;
  ev.action ()

let step t =
  if t.size = 0 then false
  else begin
    fire_next t;
    true
  end

exception Livelock of { fired : int; pending : int; clock : int }

let () =
  Printexc.register_printer (function
    | Livelock { fired; pending; clock } ->
        Some
          (Printf.sprintf
             "Desim.Engine.Livelock: fired %d events without draining (%d \
              still pending at t=%d ps)"
             fired pending clock)
    | _ -> None)

(* The one run loop: fire every event due at or before [until]. The
   budget is checked only once an event is known to be due, so a queue
   that drains in exactly [max_events] events is not a livelock. [fired]
   never escapes, so it stays an unboxed local and the loop allocates
   nothing of its own. *)
let fire_due t ~until ~max_events =
  let fired = ref 0 in
  while t.size > 0 && t.heap.(0).time <= until do
    if !fired >= max_events then
      raise (Livelock { fired = !fired; pending = t.size; clock = t.clock });
    fire_next t;
    incr fired
  done

let run_until t ~until ~max_events =
  fire_due t ~until ~max_events;
  if until > t.clock then t.clock <- until

let run ?until ?(max_events = max_int) t =
  match until with
  | Some until -> run_until t ~until ~max_events
  | None -> fire_due t ~until:max_int ~max_events

let drain_or_fail ?(max_events = 10_000_000) t =
  try run ~max_events t
  with Livelock { fired; pending; clock } ->
    failwith
      (Printf.sprintf
         "Engine.drain_or_fail: still %d pending event(s) after %d fired \
          (t=%d ps) — likely a deadlocked or livelocked test"
         pending fired clock)
