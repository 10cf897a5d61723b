(* Tests for the discrete-event engine and statistics. *)

module E = Desim.Engine
module S = Desim.Stats

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_event_order () =
  let e = E.create () in
  let log = ref [] in
  E.schedule e ~delay:5 (fun () -> log := 5 :: !log);
  E.schedule e ~delay:1 (fun () -> log := 1 :: !log);
  E.schedule e ~delay:3 (fun () -> log := 3 :: !log);
  E.run e;
  Alcotest.(check (list int)) "fires in time order" [ 1; 3; 5 ] (List.rev !log);
  check_int "clock at last event" 5 (E.now e)

let test_same_time_fifo () =
  let e = E.create () in
  let log = ref [] in
  for i = 0 to 9 do
    E.schedule e ~delay:7 (fun () -> log := i :: !log)
  done;
  E.run e;
  Alcotest.(check (list int))
    "same-tick events keep scheduling order"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !log)

let test_nested_scheduling () =
  let e = E.create () in
  let hits = ref 0 in
  let rec chain n =
    if n > 0 then
      E.schedule e ~delay:2 (fun () ->
          incr hits;
          chain (n - 1))
  in
  chain 10;
  E.run e;
  check_int "chain completes" 10 !hits;
  check_int "clock advanced by 2 each" 20 (E.now e)

let test_run_until () =
  let e = E.create () in
  let hits = ref 0 in
  for i = 1 to 10 do
    E.schedule e ~delay:(i * 10) (fun () -> incr hits)
  done;
  E.run ~until:45 e;
  check_int "only events <= 45" 4 !hits;
  check_int "clock parked at limit" 45 (E.now e);
  E.run e;
  check_int "rest fire later" 10 !hits

let test_schedule_past_rejected () =
  let e = E.create () in
  E.schedule e ~delay:10 (fun () -> ());
  E.run e;
  Alcotest.check_raises "past time"
    (Invalid_argument
       "Engine.schedule_at: time 5 is in the past (clock is at 10)")
    (fun () -> E.schedule_at e ~time:5 (fun () -> ()))

let test_livelock_guard () =
  let e = E.create () in
  (* a self-rescheduling event never drains: the guard must trip *)
  let rec again () = E.schedule e ~delay:1 again in
  again ();
  (match E.run ~max_events:1000 e with
  | () -> Alcotest.fail "expected Livelock"
  | exception E.Livelock { fired; pending; _ } ->
      check_int "fired the budget" 1000 fired;
      check_bool "work still pending" true (pending > 0));
  (* drain_or_fail converts it into a Failure naming the pending count *)
  let e2 = E.create () in
  let rec again2 () = E.schedule e2 ~delay:1 again2 in
  again2 ();
  (match E.drain_or_fail ~max_events:100 e2 with
  | () -> Alcotest.fail "expected Failure"
  | exception Failure msg ->
      let contains s sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      check_bool "message reports pending events" true
        (contains msg "pending event(s)"))

let test_drain_or_fail_clean () =
  let e = E.create () in
  let hits = ref 0 in
  for _ = 1 to 5 do
    E.schedule e ~delay:3 (fun () -> incr hits)
  done;
  E.drain_or_fail e;
  check_int "clean drain fires everything" 5 !hits

let test_exact_budget () =
  (* a queue that drains in exactly [max_events] events is not a
     livelock, through every entry point *)
  let five () =
    let e = E.create () in
    let hits = ref 0 in
    for _ = 1 to 5 do
      E.schedule e ~delay:3 (fun () -> incr hits)
    done;
    (e, hits)
  in
  let e, hits = five () in
  E.run ~max_events:5 e;
  check_int "run drains" 5 !hits;
  let e, hits = five () in
  E.drain_or_fail ~max_events:5 e;
  check_int "drain_or_fail drains" 5 !hits;
  let e, hits = five () in
  E.run_until e ~until:3 ~max_events:5;
  check_int "run_until drains" 5 !hits;
  check_int "fired counts every event" 5 (E.fired e);
  (* one event over the budget still trips the guard *)
  let e, _ = five () in
  E.schedule e ~delay:4 ignore;
  match E.run ~max_events:5 e with
  | () -> Alcotest.fail "expected Livelock"
  | exception E.Livelock { fired; pending; _ } ->
      check_int "fired the budget" 5 fired;
      check_int "one still pending" 1 pending

let test_heap_stress () =
  (* Push events with pseudo-random times, check they fire sorted. *)
  let e = E.create () in
  let seed = ref 12345 in
  let next () =
    seed := ((!seed * 1103515245) + 12345) land 0x3FFFFFFF;
    !seed mod 10_000
  in
  let fired = ref [] in
  for _ = 1 to 2000 do
    let t = next () in
    E.schedule e ~delay:t (fun () -> fired := t :: !fired)
  done;
  E.run e;
  let fired = List.rev !fired in
  check_int "all fired" 2000 (List.length fired);
  check_bool "sorted" true
    (fst
       (List.fold_left
          (fun (ok, prev) t -> (ok && t >= prev, t))
          (true, 0) fired))

let test_stats () =
  let c = S.counter () in
  S.incr c;
  S.incr ~by:4 c;
  check_int "counter" 5 (S.count c);
  let s = S.series () in
  List.iter (S.observe s) [ 1.0; 2.0; 3.0 ];
  let sum = S.summarize s in
  check_int "n" 3 sum.S.n;
  Alcotest.(check (float 1e-9)) "mean" 2.0 sum.S.mean;
  Alcotest.(check (float 1e-9)) "min" 1.0 sum.S.min;
  Alcotest.(check (float 1e-9)) "max" 3.0 sum.S.max;
  let h = S.histogram ~bucket_width:10. in
  List.iter (S.record h) [ 1.; 5.; 11.; 25. ];
  Alcotest.(check (list (pair (float 1e-9) int)))
    "buckets"
    [ (0., 2); (10., 1); (20., 1) ]
    (S.buckets h);
  let b = S.busy_tracker () in
  S.mark_busy b ~from_:0 ~until:10;
  S.mark_busy b ~from_:20 ~until:25;
  check_int "busy time" 15 (S.busy_time b);
  Alcotest.(check (float 1e-9)) "utilization" 0.15 (S.utilization b ~total:100)

(* Regression: overlapping busy intervals must merge, not double-count —
   the old accumulator summed raw durations and could report > 100%
   utilization for a port marked busy by two overlapping transactions. *)
let test_busy_overlap () =
  let b = S.busy_tracker () in
  S.mark_busy b ~from_:0 ~until:10;
  S.mark_busy b ~from_:5 ~until:15;
  check_int "overlap merged" 15 (S.busy_time b);
  S.mark_busy b ~from_:0 ~until:15;
  check_int "duplicate absorbed" 15 (S.busy_time b);
  S.mark_busy b ~from_:15 ~until:20;
  check_int "adjacent coalesced" 20 (S.busy_time b);
  S.mark_busy b ~from_:100 ~until:110;
  S.mark_busy b ~from_:30 ~until:40;
  check_int "disjoint summed" 40 (S.busy_time b);
  S.mark_busy b ~from_:0 ~until:110;
  check_int "superset absorbs all" 110 (S.busy_time b);
  Alcotest.(check (float 1e-9))
    "utilization clamped" 1.0
    (S.utilization b ~total:50)

let test_summarize_opt () =
  let s = S.series () in
  Alcotest.(check bool) "empty is None" true (S.summarize_opt s = None);
  (match S.summarize s with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "summarize of empty series must raise");
  S.observe s 7.0;
  (match S.summarize_opt s with
  | Some sum ->
      check_int "n" 1 sum.S.n;
      Alcotest.(check (float 1e-9)) "mean" 7.0 sum.S.mean
  | None -> Alcotest.fail "non-empty series must summarize")

let test_bucket_gaps () =
  let h = S.histogram ~bucket_width:10. in
  List.iter (S.record h) [ 1.; 35. ];
  Alcotest.(check (list (pair (float 1e-9) int)))
    "interior zero buckets present"
    [ (0., 1); (10., 0); (20., 0); (30., 1) ]
    (S.buckets h)

let test_quantiles () =
  let s = S.series () in
  Alcotest.(check bool) "empty quantile" true (S.quantile_opt s ~q:0.5 = None);
  List.iter (S.observe s) [ 4.0; 1.0; 3.0; 2.0 ];
  let q x = Option.get (S.quantile_opt s ~q:x) in
  Alcotest.(check (float 1e-9)) "p0 = min" 1.0 (q 0.0);
  Alcotest.(check (float 1e-9)) "p100 = max" 4.0 (q 1.0);
  Alcotest.(check (float 1e-9)) "median interpolates" 2.5 (q 0.5);
  Alcotest.(check (float 1e-9)) "clamped below" 1.0 (q (-1.0))

let prop name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:100 ~name arb f)

(* Event-heap order against a sorted-list reference. Every event gets a
   label in scheduling order, which is the engine's sequence order; a
   [Schedule] event may schedule one child when it fires. One engine is
   driven with [run_until], a twin with [run ~until]; after every op both
   must have fired exactly the reference's (time, label) sequence, and
   agree with it on [peek_time] and the clock. *)
type heap_op = Schedule of int * int option | Step | Until of int

let heap_op_gen =
  QCheck.Gen.(
    frequency
      [
        ( 5,
          map2
            (fun d c -> Schedule (d, c))
            (int_bound 50)
            (opt ~ratio:0.3 (int_bound 20)) );
        (2, return Step);
        (2, map (fun d -> Until (d - 10)) (int_bound 60));
      ])

let heap_op_print = function
  | Schedule (d, c) ->
      Printf.sprintf "Schedule (%d, %s)" d
        (match c with Some c -> string_of_int c | None -> "-")
  | Step -> "Step"
  | Until d -> Printf.sprintf "Until %d" d

type twin = { eng : E.t; mutable fired_log : (int * int) list; mutable label : int }

let rec twin_schedule tw ~time child =
  let label = tw.label in
  tw.label <- label + 1;
  E.schedule_at tw.eng ~time (fun () ->
      tw.fired_log <- (time, label) :: tw.fired_log;
      Option.iter
        (fun c -> twin_schedule tw ~time:(E.now tw.eng + c) None)
        child)

let heap_order_matches ops =
  (* reference: pending (time, label, child), sorted by (time, label) *)
  let pending = ref [] and clock = ref 0 and label = ref 0 in
  let expected = ref [] in
  let insert time child =
    pending := List.merge compare [ (time, !label, child) ] !pending;
    incr label
  in
  let fire () =
    match !pending with
    | [] -> ()
    | (time, l, child) :: rest ->
        pending := rest;
        clock := max !clock time;
        expected := (time, l) :: !expected;
        Option.iter (fun c -> insert (!clock + c) None) child
  in
  let peek () = match !pending with (t, _, _) :: _ -> t | [] -> max_int in
  let mk () = { eng = E.create (); fired_log = []; label = 0 } in
  let a = mk () and b = mk () in
  List.for_all
    (fun op ->
      let stepped_ok =
        match op with
        | Schedule (d, child) ->
            let time = !clock + d in
            twin_schedule a ~time child;
            twin_schedule b ~time child;
            insert time child;
            true
        | Step ->
            let due = peek () < max_int in
            fire ();
            let sa = E.step a.eng in
            let sb = E.step b.eng in
            sa = due && sb = due
        | Until d ->
            let until = !clock + d in
            E.run_until a.eng ~until ~max_events:max_int;
            E.run ~until b.eng;
            while peek () <= until do
              fire ()
            done;
            clock := max !clock until;
            true
      in
      stepped_ok
      && List.for_all
           (fun tw ->
             E.peek_time tw.eng = peek ()
             && E.now tw.eng = !clock
             && tw.fired_log = !expected)
           [ a; b ])
    ops

let props =
  [
    prop "heap fires in (time, seq) order; peek/run_until agree"
      (QCheck.make ~print:QCheck.Print.(list heap_op_print)
         QCheck.Gen.(list_size (1 -- 120) heap_op_gen))
      heap_order_matches;
    prop "events always fire in nondecreasing time order"
      QCheck.(list_of_size Gen.(1 -- 200) (int_bound 1000))
      (fun delays ->
        let e = E.create () in
        let fired = ref [] in
        List.iter
          (fun d -> E.schedule e ~delay:d (fun () -> fired := E.now e :: !fired))
          delays;
        E.run e;
        let fired = List.rev !fired in
        List.length fired = List.length delays
        && fst
             (List.fold_left
                (fun (ok, prev) t -> (ok && t >= prev, t))
                (true, 0) fired));
  ]

let () =
  Alcotest.run "desim"
    [
      ( "engine",
        [
          Alcotest.test_case "event order" `Quick test_event_order;
          Alcotest.test_case "same-time fifo" `Quick test_same_time_fifo;
          Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
          Alcotest.test_case "run until" `Quick test_run_until;
          Alcotest.test_case "past rejected" `Quick test_schedule_past_rejected;
          Alcotest.test_case "livelock guard" `Quick test_livelock_guard;
          Alcotest.test_case "drain_or_fail clean" `Quick
            test_drain_or_fail_clean;
          Alcotest.test_case "exact budget drains" `Quick test_exact_budget;
          Alcotest.test_case "heap stress" `Quick test_heap_stress;
        ] );
      ( "stats",
        [
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "busy overlap" `Quick test_busy_overlap;
          Alcotest.test_case "summarize_opt" `Quick test_summarize_opt;
          Alcotest.test_case "bucket gaps" `Quick test_bucket_gaps;
          Alcotest.test_case "quantiles" `Quick test_quantiles;
        ] );
      ("properties", props);
    ]
