(* perfbench: the repository benchmark.

     main.exe --workload serve-ladder|fleet-rolling|a3-rtl --seed N
              --seconds S --trace 0|1

   One single-threaded process builds the named workload from its seed,
   then repeats "set up, run, check" for S seconds of host time. Every
   repetition is checked (accounting invariants, bit-exact outputs, and
   a digest equal to the first repetition's), and the last line on
   stdout is one JSON object with the keys correct / attempted / failed
   / metrics. With --trace 0 the metrics are the end-to-end ones; with
   --trace 1 untraced and traced repetitions alternate, the per-layer
   metrics are reported, and the benchmark's own host spans are written
   as Chrome trace JSON under perfbench/out/. perfbench/METRICS.md
   defines every metric. *)

module B = Beethoven
module H = Runtime.Handle
module E = Desim.Engine
module D = Platform.Device
module A3 = Attention.A3
module A3_core = Attention.A3_rtl_core

let us n = n * 1_000_000
let now = Unix.gettimeofday
let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

let median = function
  | [] -> 0.
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b = 0. then 0. else a /. b
let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let fsum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs

(* ------------------------------------------------------------------ *)
(* Host spans                                                          *)
(* ------------------------------------------------------------------ *)

(* The benchmark's own spans around each public call, in host time. They
   reuse the repository tracer with host picoseconds as its clock, so its
   Chrome writer renders them in microseconds. Only traced repetitions
   and the traced run's probes record them. *)
let host_origin = now ()
let host_spans : Trace.t option ref = ref None
let open_spans : int list ref = ref []
let host_ps () = int_of_float ((now () -. host_origin) *. 1e12)

let span cat name f =
  match !host_spans with
  | None -> f ()
  | Some tr ->
      let parent = match !open_spans with p :: _ -> Some p | [] -> None in
      let id =
        Trace.begin_span tr ~now:(host_ps ()) ?parent ~txn:0 ~track:"host"
          ~cat ~name ()
      in
      open_spans := id :: !open_spans;
      Fun.protect f ~finally:(fun () ->
          open_spans := List.tl !open_spans;
          Trace.end_span tr ~now:(host_ps ()) id)

(* ------------------------------------------------------------------ *)
(* One repetition                                                      *)
(* ------------------------------------------------------------------ *)

type outcome = {
  digest : string;  (** must equal the first repetition's *)
  attempted : int;  (** requests offered (queries on a3-rtl) *)
  failed : int;  (** shed, failed, bad or lost *)
  problems : string list;  (** failed checks *)
  sim : (string * float) list;  (** simulated end-to-end metrics *)
  layers : (string * float) list;  (** per-layer figures of this run *)
}

(* A workload sets up from its seed (untimed by [run_s]) and returns the
   timed part. [tracer] is the repository's simulated-time tracer, passed
   through every public [?tracer] argument on traced repetitions. *)
type workload = {
  name : string;
  setup : seed:int -> tracer:Trace.t option -> unit -> outcome;
  probes : seed:int -> (string * float) list;
      (** standalone per-layer probes of the traced run *)
}

(* the worst tenant's p50 and the worst tenant's p99 (not necessarily
   the same tenant) *)
let worst_tenant (ts : Serve.tenant_report list) =
  List.fold_left
    (fun (p50, p99) (t : Serve.tenant_report) ->
      match t.tr_total with
      | Some p -> (Float.max p50 p.ph_p50_us, Float.max p99 p.ph_p99_us)
      | None -> (p50, p99))
    (0., 0.) ts

let queue_p99 (ts : Serve.tenant_report list) =
  List.fold_left
    (fun acc (t : Serve.tenant_report) ->
      match t.tr_queue with Some p -> Float.max acc p.ph_p99_us | None -> acc)
    0. ts

let shed (t : Serve.tenant_report) =
  t.tr_shed_queue + t.tr_shed_deadline + t.tr_shed_degraded

let lost (t : Serve.tenant_report) = shed t + t.tr_failed + t.tr_bad_responses
let in_slo_completions (t : Serve.tenant_report) =
  t.tr_completed - t.tr_slo_violations

(* every tenant's p99 within its SLO and nothing shed *)
let meets_slo (ts : Serve.tenant_report list) slo_us =
  List.for_all
    (fun (t : Serve.tenant_report) ->
      shed t = 0
      && match t.tr_total with Some p -> p.ph_p99_us <= slo_us | None -> false)
    ts

(* mean service time (submission to response) of a completion, in
   fabric cycles *)
let mean_service_cycles (ts : Serve.tenant_report list) ~clock_ps =
  let n, total_us =
    List.fold_left
      (fun (n, tot) (t : Serve.tenant_report) ->
        match t.tr_service with
        | Some p -> (n + p.ph_n, tot +. (p.ph_mean_us *. float_of_int p.ph_n))
        | None -> (n, tot))
      (0, 0.) ts
  in
  ratio (total_us *. 1e6) (float_of_int n *. float_of_int clock_ps)

let sim_metrics ~goodput ~p50_p99:(p50, p99) ~max_rps ~cycles =
  [
    ("sim_goodput_rps", goodput);
    ("sim_p50_us", p50);
    ("sim_p99_us", p99);
    ("sim_max_rps_in_slo", max_rps);
    ("sim_cycles_per_query", cycles);
  ]

(* Memory-path figures read through the SoC's public accessors, plus the
   NoC hop series the tracer collects. *)
let memory_layers soc tracer =
  let dram = B.Soc.dram soc in
  let ports = Array.to_list (B.Soc.axi_ports soc) in
  let hits = Dram.row_hits dram and misses = Dram.row_misses dram in
  let read_p99 =
    List.fold_left
      (fun acc p ->
        match Desim.Stats.quantile_opt (Axi.read_latency p) ~q:0.99 with
        | Some v -> Float.max acc v
        | None -> acc)
      0. ports
  in
  let hops =
    Option.bind tracer (fun tr -> Trace.Series.summary tr "noc.mem.hop_ps")
  in
  [
    ( "dram.bytes",
      float_of_int (Dram.bytes_read dram + Dram.bytes_written dram) );
    ( "dram.row_hit_ratio",
      ratio (float_of_int hits) (float_of_int (hits + misses)) );
    ("dram.bank_conflicts", float_of_int (Dram.bank_conflicts dram));
    ("dram.gbs", Dram.achieved_bandwidth_gbs dram);
    ( "axi.txns",
      float_of_int
        (sum (fun p -> Axi.reads_issued p + Axi.writes_issued p) ports) );
    ("axi.read_p99_ns", read_p99 /. 1e3);
    ("axi.errors", float_of_int (sum Axi.error_responses ports));
    ( "noc.mem_hops",
      match hops with Some s -> float_of_int s.su_n | None -> 0. );
    ("noc.hop_p99_ps", match hops with Some s -> s.su_p99 | None -> 0.);
  ]

let handle_layers h ~sim_ps =
  [
    ("handle.commands", float_of_int (H.commands_sent h));
    ("handle.retries", float_of_int (H.command_retries h));
    ("handle.timeouts", float_of_int (H.command_timeouts h));
    ( "handle.server_busy_ratio",
      ratio (float_of_int (H.server_busy_ps h)) (float_of_int sim_ps) );
  ]

(* ------------------------------------------------------------------ *)
(* Standalone probes                                                   *)
(* ------------------------------------------------------------------ *)

let probe_repeats = 3

(* A [Cache.elaborate] miss on a fresh cache, then a hit on the same
   config; medians over [probe_repeats]. *)
let elaborate_probe config platform =
  let samples =
    List.init probe_repeats (fun _ ->
        let cache = B.Elaborate.Cache.create () in
        let elab label =
          snd
            (timed (fun () ->
                 span "elaborate" ("Elaborate.Cache.elaborate " ^ label)
                   (fun () ->
                     B.Elaborate.Cache.elaborate cache config platform)))
        in
        let cold = elab "miss" in
        let warm = elab "hit" in
        if B.Elaborate.Cache.hits cache <> B.Elaborate.Cache.entries cache then
          failwith "elaborate probe: the second elaboration missed the cache";
        (cold, warm))
  in
  [
    ("elaborate.cold_ms", 1e3 *. median (List.map fst samples));
    ("elaborate.warm_ms", 1e3 *. median (List.map snd samples));
  ]

let soc_boot_probe ?memory_bytes design behaviors =
  let boot () =
    snd
      (timed (fun () ->
           span "soc" "Soc.create" (fun () ->
               ignore (B.Soc.create ?memory_bytes design ~behaviors))))
  in
  [
    ( "soc.boot_ms",
      1e3 *. median (List.init probe_repeats (fun _ -> boot ())) );
  ]

(* The A³ netlist alone on the compiled simulator under seeded random
   stimulus: what one settle and one step cost without the SoC bridge. *)
let rtl_probe_cycles = 4000

let rtl_probe ~seed =
  let circuit = A3_core.circuit () in
  let sim, compile_s =
    timed (fun () ->
        span "rtl" "Hw.Compile.create" (fun () -> Hw.Compile.create circuit))
  in
  let rng = Random.State.make [| seed |] in
  let random_bits w =
    let digits = (w + 3) / 4 in
    let top = if w mod 4 = 0 then 16 else 1 lsl (w mod 4) in
    Bits.of_hex_string ~width:w
      (String.init digits (fun i ->
           "0123456789abcdef".[Random.State.int rng
                                  (if i = 0 then top else 16)]))
  in
  let vectors =
    Array.init 64 (fun _ ->
        List.map (fun (n, w) -> (n, random_bits w)) (Hw.Circuit.inputs circuit))
  in
  let settle_s = ref 0. and step_s = ref 0. in
  span "rtl" "Hw.Compile settle/step" (fun () ->
      for c = 0 to rtl_probe_cycles - 1 do
        List.iter
          (fun (n, b) -> Hw.Compile.set_input sim n b)
          vectors.(c land 63);
        let t0 = now () in
        Hw.Compile.settle sim;
        let t1 = now () in
        Hw.Compile.step sim;
        settle_s := !settle_s +. (t1 -. t0);
        step_s := !step_s +. (now () -. t1)
      done);
  let per_cycle s = 1e9 *. s /. float_of_int rtl_probe_cycles in
  [
    ("rtl.compile_ms", 1e3 *. compile_s);
    ("rtl.settle_ns", per_cycle !settle_s);
    ("rtl.step_ns", per_cycle !step_s);
  ]

(* ------------------------------------------------------------------ *)
(* serve-ladder                                                        *)
(* ------------------------------------------------------------------ *)

(* Every tenant shares one SLO. Queues and deadlines are sized so that
   overload shows as queueing delay rather than shedding: a shed request
   would count as a failed operation. *)
let slo_ps = us 250
let slo_us = float_of_int slo_ps /. 1e6

let tenant ~name ~weight ~clients mix load =
  Serve.Tenant.make ~name ~weight ~clients ~slo_ps ~deadline_ps:(us 100_000)
    ~queue_cap:1_000_000 ~mix ~load ()

(* Two open-loop tenants at [rps] per client (4 clients each) and one
   closed-loop interactive tenant (2 clients, 20 us think time). *)
let tenants ~rps =
  let open Serve in
  [
    tenant ~name:"batch" ~weight:2.0 ~clients:4 Mix.heterogeneous
      (Tenant.open_loop ~rate_rps:rps ());
    tenant ~name:"stream" ~weight:1.0 ~clients:4 Mix.default
      (Tenant.open_loop ~rate_rps:rps ());
    tenant ~name:"interactive" ~weight:1.0 ~clients:2
      [ Mix.memcpy ~bytes:4096 (); Mix.vecadd ~bytes:4096 () ]
      (Tenant.closed_loop ~think_ps:(us 20) ());
  ]

(* (per-client open-loop rate, duration) of each rung: light, moderate,
   the knee, overload. The knee rung runs longest because its latency
   quantiles are the reported ones. *)
let ladder =
  [
    (10_000., us 4000);
    (20_000., us 4000);
    (25_000., us 12_000);
    (50_000., us 4000);
  ]
let knee_rung = 2

(* the design a serving session deploys: one system per kernel kind *)
let serve_design ~n_cores =
  let systems =
    List.map
      (fun k -> Serve.system_of_kind k ~n_cores)
      (Serve.kinds_used (tenants ~rps:1.))
  in
  B.Config.make ~name:"serve" systems

let serve_ladder ~seed ~tracer =
  let platform = D.aws_f1 in
  let cfg =
    Serve.config ~seed ~tenants:(tenants ~rps:(fst (List.hd ladder))) ()
  in
  let session, create_s =
    timed (fun () ->
        span "serve" "Serve.Session.create" (fun () ->
            Serve.Session.create ?tracer ~platform cfg ()))
  in
  fun () ->
    let rungs =
      List.mapi
        (fun i (rps, duration_ps) ->
          timed (fun () ->
              span "serve" (Printf.sprintf "Serve.Session.run_phase rung%d" i)
                (fun () ->
                  Serve.Session.run_phase ~tenants:(tenants ~rps) session
                    ~duration_ps)))
        ladder
    in
    let reports = List.map fst rungs in
    let all_tenants =
      List.concat_map (fun (r : Serve.report) -> r.r_tenants) reports
    in
    let offered =
      sum (fun (t : Serve.tenant_report) -> t.tr_offered) all_tenants
    in
    let wall_s =
      float_of_int (sum (fun (r : Serve.report) -> r.r_wall_ps) reports) /. 1e12
    in
    let knee = List.nth reports knee_rung in
    let max_rps =
      List.fold_left
        (fun acc (r : Serve.report) ->
          if meets_slo r.r_tenants slo_us then
            fsum (fun (t : Serve.tenant_report) -> t.tr_offered_rps) r.r_tenants
          else acc)
        0. reports
    in
    let batches = sum (fun (r : Serve.report) -> r.r_batches) reports in
    let batched =
      sum (fun (r : Serve.report) -> r.r_batched_commands) reports
    in
    let h = Serve.Session.handle session in
    let host_run_s = fsum snd rungs in
    {
      digest = String.concat "\n" (List.map Serve.digest reports);
      attempted = offered;
      failed = sum lost all_tenants;
      problems =
        List.concat
          (List.mapi
             (fun i r ->
               List.map (Printf.sprintf "rung%d: %s" i) (Serve.violations r))
             reports);
      sim =
        sim_metrics
          ~goodput:(float_of_int (sum in_slo_completions all_tenants) /. wall_s)
          ~p50_p99:(worst_tenant knee.r_tenants) ~max_rps
          ~cycles:
            (mean_service_cycles all_tenants
               ~clock_ps:platform.fabric_clock_ps);
      layers =
        [
          ("serve.create_ms", 1e3 *. create_s);
          ("soc.boots", 1.);
          ("serve.host_us_per_req", 1e6 *. host_run_s /. float_of_int offered);
          ( "serve.batch_mean",
            ratio (float_of_int batched) (float_of_int batches) );
          ( "serve.queue_p99_us",
            queue_p99 (List.nth reports (List.length reports - 1)).r_tenants );
          ( "serve.shed_ratio",
            ratio (float_of_int (sum shed all_tenants)) (float_of_int offered)
          );
        ]
        @ List.mapi
            (fun i (_, s) -> (Printf.sprintf "serve.phase_s.rung%d" i, s))
            rungs
        @ List.mapi
            (fun i (r : Serve.report) ->
              ( Printf.sprintf "serve.p99_us.rung%d" i,
                snd (worst_tenant r.r_tenants) ))
            reports
        @ handle_layers h ~sim_ps:(Serve.Session.now session)
        @ memory_layers (H.soc h) tracer;
    }

let serve_probes ~seed =
  let config =
    serve_design
      ~n_cores:(Serve.config ~seed ~tenants:(tenants ~rps:1.) ()).c_n_cores
  in
  elaborate_probe config D.aws_f1
  @ soc_boot_probe
      (B.Elaborate.elaborate config D.aws_f1)
      Serve.behavior_of_system

(* ------------------------------------------------------------------ *)
(* fleet-rolling                                                       *)
(* ------------------------------------------------------------------ *)

let fleet_phase_ps = us 2000
let fleet_rps = 20_000.
let fleet_rounds = 3
let cluster_memory_bytes = 128 * 1024 * 1024

(* Two outstanding commands per core: with the cluster default of four,
   a kria slot homing two tenants under a failover backlog can run out
   of hugepages in Handle.malloc, which raises. *)
let fleet_config ~seed =
  Cluster.config ~seed ~duration_ps:fleet_phase_ps ~devices:4 ~warm:3
    ~core_cap:2
    ~platforms:D.[ aws_f1; u200; kria ]
    ~tenants:(tenants ~rps:fleet_rps) ()

let fleet_rolling ~seed ~tracer =
  let cfg = fleet_config ~seed in
  let session, create_s =
    timed (fun () ->
        span "cluster" "Cluster.Session.create" (fun () ->
            Cluster.Session.create ?tracer cfg ()))
  in
  fun () ->
    let phase_s = ref [] in
    let phase () =
      let r, s =
        timed (fun () ->
            span "cluster" "Cluster.Session.run_phase" (fun () ->
                Cluster.Session.run_phase session ~duration_ps:fleet_phase_ps))
      in
      phase_s := s :: !phase_s;
      r
    in
    let steady = phase () in
    let kills =
      List.init fleet_rounds (fun _ ->
          let dev =
            List.assoc "batch" (Cluster.Session.snapshot session).c_placements
          in
          let q0 = Cluster.Session.quarantines session in
          let killed_at = Cluster.Session.now session in
          span "cluster" "Cluster.Session.kill" (fun () ->
              Cluster.Session.kill session ~dev);
          ignore (phase ());
          let quarantined = Cluster.Session.quarantines session > q0 in
          let (), restore_s =
            timed (fun () ->
                span "cluster" "Cluster.Session.restore" (fun () ->
                    Cluster.Session.restore session ~dev))
          in
          let promoted =
            span "cluster" "Cluster.Session.promote_standby" (fun () ->
                Cluster.Session.promote_standby session)
          in
          ignore (phase ());
          (dev, killed_at, quarantined, promoted, restore_s))
    in
    let r = Cluster.Session.snapshot session in
    let ts = r.c_tenants in
    let devices = r.c_devices in
    let kill_to_quarantine_ps =
      List.map
        (fun (dev, at, _, _, _) ->
          let d = List.nth devices dev in
          match
            List.find_opt
              (fun (t, s) -> t >= at && s = Cluster.Health.Quarantined)
              d.dr_transitions
          with
          | Some (t, _) -> float_of_int (t - at)
          | None -> 0.)
        kills
    in
    let problems =
      Cluster.violations r
      @ (if r.c_lost_acked <> 0 then [ "acked commands lost" ] else [])
      @ List.concat_map
          (fun (dev, _, quarantined, promoted, _) ->
            (if quarantined then []
             else [ Printf.sprintf "killing dev%d quarantined nothing" dev ])
            @ if promoted then [] else [ "no standby to promote" ])
          kills
    in
    let wall_s = float_of_int r.c_wall_ps /. 1e12 in
    let n_dev = float_of_int (List.length devices) in
    {
      digest = Cluster.digest r;
      attempted = sum (fun (t : Serve.tenant_report) -> t.tr_offered) ts;
      failed = sum lost ts + r.c_lost_acked;
      problems;
      sim =
        sim_metrics
          ~goodput:(float_of_int (sum in_slo_completions ts) /. wall_s)
          ~p50_p99:(worst_tenant ts)
          ~max_rps:
            (if meets_slo steady.c_tenants slo_us then
               fsum (fun (t : Serve.tenant_report) -> t.tr_offered_rps) ts
             else 0.)
          ~cycles:(mean_service_cycles ts ~clock_ps:D.aws_f1.fabric_clock_ps);
      layers =
        [
          ("cluster.create_ms", 1e3 *. create_s);
          ( "cluster.restore_ms",
            1e3 *. median (List.map (fun (_, _, _, _, s) -> s) kills) );
          ("cluster.phase_s", median !phase_s);
          ( "cluster.kill_to_quarantine_us",
            median kill_to_quarantine_ps /. 1e6 );
          ("cluster.replays", float_of_int r.c_replays);
          ( "cluster.replay_ok_ratio",
            if r.c_replays = 0 then 1.
            else float_of_int r.c_replayed_ok /. float_of_int r.c_replays );
          ("cluster.duplicates", float_of_int r.c_duplicates);
          ( "cluster.hb_miss",
            match tracer with
            | Some tr -> float_of_int (Trace.counter_value tr "cluster.hb_miss")
            | None -> 0. );
          ( "cluster.util_mean",
            fsum (fun (d : Cluster.device_report) -> d.dr_utilization) devices
            /. n_dev );
          ( "soc.boots",
            float_of_int
              (sum
                 (fun (d : Cluster.device_report) -> d.dr_generations)
                 devices) );
          ( "handle.commands",
            float_of_int
              (sum (fun (d : Cluster.device_report) -> d.dr_dispatched) devices)
          );
          ( "handle.server_busy_ratio",
            ratio
              (float_of_int
                 (sum
                    (fun (d : Cluster.device_report) -> d.dr_busy_ps)
                    devices))
              (n_dev *. float_of_int r.c_wall_ps) );
          ("serve.queue_p99_us", queue_p99 ts);
          ( "serve.shed_ratio",
            ratio (float_of_int (sum shed ts))
              (float_of_int
                 (sum (fun (t : Serve.tenant_report) -> t.tr_offered) ts)) );
        ];
    }

let fleet_probes ~seed =
  let config = serve_design ~n_cores:(fleet_config ~seed).cl_n_cores in
  elaborate_probe config D.aws_f1
  @ soc_boot_probe ~memory_bytes:cluster_memory_bytes
      (B.Elaborate.elaborate config D.aws_f1)
      Serve.behavior_of_system

(* ------------------------------------------------------------------ *)
(* a3-rtl                                                              *)
(* ------------------------------------------------------------------ *)

let a3_queries = 6
let a3_cores = 2
let a3_slo_ps = us 50
let a3_think_ps = us 10
let a3_system = "A3RTL"

(* The engine stepped by the benchmark itself, counting the events it
   fires for engine.events / engine.ns_per_event. *)
let step_until engine ~events cond =
  while not (cond ()) do
    if not (E.step engine) then failwith "a3-rtl: simulation drained early";
    incr events
  done

let a3_rtl ~seed ~tracer =
  let platform = D.aws_f1 in
  let rng = Random.State.make [| seed |] in
  let rows n =
    Array.init n (fun _ ->
        Array.init A3.dim (fun _ -> Random.State.int rng 33 - 16))
  in
  (* every query attends over its own sequence: its own keys and values *)
  let keys = Array.init a3_queries (fun _ -> rows A3.n_keys) in
  let values = Array.init a3_queries (fun _ -> rows A3.n_keys) in
  let queries = rows a3_queries in
  let expect =
    Array.mapi
      (fun i query -> A3.attend_fixed ~query ~keys:keys.(i) ~values:values.(i))
      queries
  in
  let think_ps =
    Array.init a3_queries (fun _ ->
        int_of_float
          (-.float_of_int a3_think_ps *. log (1. -. Random.State.float rng 1.)))
  in
  let design =
    span "elaborate" "Elaborate.elaborate" (fun () ->
        B.Elaborate.elaborate (A3_core.config ~n_cores:a3_cores ()) platform)
  in
  let soc =
    span "soc" "Soc.create" (fun () ->
        B.Soc.create ?tracer design ~behaviors:(fun _ -> A3_core.behavior))
  in
  let h = H.create soc in
  let engine = H.engine h in
  let events = ref 0 in
  let upload rows =
    let p = H.malloc h (Array.length rows * 64) in
    let buf = H.host_bytes h p in
    Array.iteri
      (fun r row ->
        Array.iteri
          (fun c v ->
            Bytes.set buf ((r * A3.dim) + c) (Char.chr (v land 0xff)))
          row)
      rows;
    p
  in
  let pk = Array.map upload keys and pv = Array.map upload values in
  let pq = upload queries in
  let po = H.malloc h (a3_queries * 64) in
  let (), dma_s =
    timed (fun () ->
        span "handle" "Handle.copy_to_fpga" (fun () ->
            let pending = ref 0 in
            List.iter
              (fun p ->
                incr pending;
                H.copy_to_fpga h p ~on_done:(fun () -> decr pending))
              (pq :: Array.to_list pk @ Array.to_list pv);
            step_until engine ~events (fun () -> !pending = 0)))
  in
  let send ~core cmd args k =
    H.on_settled (H.send h ~system:a3_system ~core ~cmd ~args) (function
      | Ok _ -> k ()
      | Error msg -> failwith ("a3-rtl: " ^ msg))
  in
  (* One closed-loop client per core: a seeded think time, then load_kv of
     the next query's sequence and attend. The two clients contend for the
     runtime server, the NoC and DRAM, so latencies depend on how their
     seeded timelines overlap. *)
  fun () ->
    let latencies = Array.make a3_queries 0 and attend_ps = ref 0 in
    let remaining = ref a3_queries in
    let rec client core i =
      if i < a3_queries then
        E.schedule engine ~delay:think_ps.(i) (fun () ->
            let t0 = E.now engine in
            send ~core Attention.Accel.load_kv_command
              [
                ("k_addr", Int64.of_int pk.(i).rp_addr);
                ("v_addr", Int64.of_int pv.(i).rp_addr);
              ]
              (fun () ->
                let t1 = E.now engine in
                send ~core A3_core.attend_command
                  [
                    ("q_addr", Int64.of_int (pq.rp_addr + (64 * i)));
                    ("out_addr", Int64.of_int (po.rp_addr + (64 * i)));
                    ("n_queries", 1L);
                  ]
                  (fun () ->
                    attend_ps := !attend_ps + (E.now engine - t1);
                    latencies.(i) <- E.now engine - t0;
                    decr remaining;
                    client core (i + a3_cores))))
    in
    let events0 = !events in
    let (), run_engine_s =
      timed (fun () ->
          span "handle" "Handle.send load_kv/attend" (fun () ->
              for core = 0 to a3_cores - 1 do
                client core core
              done;
              step_until engine ~events (fun () -> !remaining = 0)))
    in
    let run_events = !events - events0 in
    let fetched = ref false in
    span "handle" "Handle.copy_from_fpga" (fun () ->
        H.copy_from_fpga h po ~on_done:(fun () -> fetched := true);
        step_until engine ~events (fun () -> !fetched));
    let out = H.host_bytes h po in
    let got =
      Array.init a3_queries (fun q ->
          Array.init A3.dim (fun c ->
              let v = Char.code (Bytes.get out ((q * A3.dim) + c)) in
              if v >= 128 then v - 256 else v))
    in
    let mismatched =
      List.filter (fun q -> got.(q) <> expect.(q)) (List.init a3_queries Fun.id)
    in
    let series = Desim.Stats.series () in
    Array.iter (fun l -> Desim.Stats.observe series (float_of_int l)) latencies;
    let q p =
      Option.value ~default:0. (Desim.Stats.quantile_opt series ~q:p) /. 1e6
    in
    let in_slo =
      List.length
        (List.filter
           (fun i -> latencies.(i) <= a3_slo_ps && not (List.mem i mismatched))
           (List.init a3_queries Fun.id))
    in
    let busy_ps = Array.fold_left ( + ) 0 latencies in
    let clock = float_of_int platform.fabric_clock_ps in
    let attend_cycles = float_of_int !attend_ps /. clock in
    {
      digest =
        String.concat ","
          (List.map string_of_int
             (Array.to_list latencies
             @ List.concat_map Array.to_list (Array.to_list got)));
      attempted = a3_queries;
      failed = List.length mismatched;
      problems =
        List.map
          (Printf.sprintf "query %d: output differs from A3.attend_fixed")
          mismatched;
      sim =
        sim_metrics
          ~goodput:(1e12 *. float_of_int in_slo /. float_of_int busy_ps)
          ~p50_p99:(q 0.5, q 0.99)
          ~max_rps:
            (if in_slo = a3_queries then
               1e12
               *. float_of_int (a3_cores * a3_queries)
               /. float_of_int busy_ps
             else 0.)
          ~cycles:(float_of_int busy_ps /. clock /. float_of_int a3_queries);
      layers =
        [
          ("soc.boots", 1.);
          ("handle.dma_ms", 1e3 *. dma_s);
          ("engine.events", float_of_int run_events);
          ( "engine.ns_per_event",
            1e9 *. ratio run_engine_s (float_of_int run_events) );
          ("rtl.cycles", attend_cycles);
          ("rtl.soc_ns_per_cycle", 1e9 *. run_engine_s /. attend_cycles);
        ]
        @ handle_layers h ~sim_ps:(E.now engine)
        @ memory_layers soc tracer;
    }

let a3_probes ~seed:_ =
  let config = A3_core.config ~n_cores:a3_cores () in
  let design = B.Elaborate.elaborate config D.aws_f1 in
  elaborate_probe config D.aws_f1
  @ soc_boot_probe design (fun _ -> A3_core.behavior)

let workloads =
  [
    { name = "serve-ladder"; setup = serve_ladder; probes = serve_probes };
    { name = "fleet-rolling"; setup = fleet_rolling; probes = fleet_probes };
    { name = "a3-rtl"; setup = a3_rtl; probes = a3_probes };
  ]

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

type sample = {
  traced : bool;
  setup_s : float;
  run_s : float;
  alloc_words : float;
  minor_gcs : int;
  major_gcs : int;
  out : outcome;
}

let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let repetition w ~seed ~traced =
  (* start every repetition from a collected heap, so one repetition's
     garbage is not charged to the next *)
  Gc.full_major ();
  let tracer = if traced then Some (Trace.create ()) else None in
  let run, setup_s =
    timed (fun () -> span "bench" "setup" (fun () -> w.setup ~seed ~tracer))
  in
  let g0 = Gc.quick_stat () and a0 = allocated () in
  let out, run_s = timed (fun () -> span "bench" "run" run) in
  let a1 = allocated () and g1 = Gc.quick_stat () in
  {
    traced;
    setup_s;
    run_s;
    alloc_words = a1 -. a0;
    minor_gcs = g1.minor_collections - g0.minor_collections;
    major_gcs = g1.major_collections - g0.major_collections;
    out;
  }

let end_to_end ~setups ~peak_heap_words samples =
  let untraced = List.filter (fun s -> not s.traced) samples in
  let m f = median (List.map f untraced) in
  let first = (List.hd untraced).out in
  [
    ("setup_s", median setups);
    ("run_s", m (fun s -> s.run_s));
    ( "peak_heap_mb",
      float_of_int (peak_heap_words * (Sys.word_size / 8)) /. 1048576. );
    (* allocation differs by a few words from one repetition to the next,
       so a median would depend on how many fit in the time; the second
       repetition's repeats exactly for a seed *)
    ("alloc_mw", (List.nth untraced 1).alloc_words /. 1e6);
  ]
  @ first.sim

(* Every metric with its unit, in the order BENCHMARK.json lists them. A
   workload that does not exercise a layer reports 0 for its metrics. *)
let end_to_end_metrics =
  [
    ("setup_s", "s"); ("run_s", "s"); ("peak_heap_mb", "MB");
    ("alloc_mw", "Mword"); ("sim_goodput_rps", "1/s"); ("sim_p50_us", "us");
    ("sim_p99_us", "us"); ("sim_max_rps_in_slo", "1/s");
    ("sim_cycles_per_query", "cycles");
  ]

let per_layer_metrics =
  [
    ("elaborate.cold_ms", "ms"); ("elaborate.warm_ms", "ms");
    ("soc.boot_ms", "ms"); ("soc.boots", "count"); ("serve.create_ms", "ms");
    ("cluster.create_ms", "ms"); ("cluster.restore_ms", "ms");
    ("engine.events", "count"); ("engine.ns_per_event", "ns");
    ("rtl.compile_ms", "ms"); ("rtl.settle_ns", "ns"); ("rtl.step_ns", "ns");
    ("rtl.cycles", "cycles"); ("rtl.soc_ns_per_cycle", "ns");
    ("rtl.bridge_ns_per_cycle", "ns"); ("handle.commands", "count");
    ("handle.retries", "count"); ("handle.timeouts", "count");
    ("handle.server_busy_ratio", "ratio"); ("handle.dma_ms", "ms");
    ("serve.phase_s.rung0", "s"); ("serve.phase_s.rung1", "s");
    ("serve.phase_s.rung2", "s"); ("serve.phase_s.rung3", "s");
    ("serve.host_us_per_req", "us"); ("serve.batch_mean", "cmd/batch");
    ("serve.queue_p99_us", "us"); ("serve.shed_ratio", "ratio");
    ("serve.p99_us.rung0", "us"); ("serve.p99_us.rung1", "us");
    ("serve.p99_us.rung2", "us"); ("serve.p99_us.rung3", "us");
    ("dram.bytes", "B"); ("dram.row_hit_ratio", "ratio");
    ("dram.bank_conflicts", "count"); ("dram.gbs", "GB/s");
    ("axi.txns", "count"); ("axi.read_p99_ns", "ns"); ("axi.errors", "count");
    ("noc.mem_hops", "count"); ("noc.hop_p99_ps", "ps");
    ("cluster.phase_s", "s"); ("cluster.kill_to_quarantine_us", "us");
    ("cluster.replays", "count"); ("cluster.replay_ok_ratio", "ratio");
    ("cluster.duplicates", "count"); ("cluster.hb_miss", "count");
    ("cluster.util_mean", "ratio"); ("gc.minor_collections", "count");
    ("gc.major_collections", "count"); ("trace.overhead_ratio", "ratio");
  ]

let per_layer w ~seed samples =
  let traced = List.filter (fun s -> s.traced) samples in
  let untraced = List.filter (fun s -> not s.traced) samples in
  let m l f = median (List.map f l) in
  let probes = w.probes ~seed @ rtl_probe ~seed in
  let measured = probes @ (List.hd traced).out.layers in
  let get k = Option.value ~default:0. (List.assoc_opt k measured) in
  let derived =
    [
      ( "rtl.bridge_ns_per_cycle",
        if get "rtl.soc_ns_per_cycle" = 0. then 0.
        else
          get "rtl.soc_ns_per_cycle" -. (2. *. get "rtl.settle_ns")
          -. get "rtl.step_ns" );
      ("gc.minor_collections", m untraced (fun s -> float_of_int s.minor_gcs));
      ("gc.major_collections", m untraced (fun s -> float_of_int s.major_gcs));
      ( "trace.overhead_ratio",
        m traced (fun s -> s.run_s) /. m untraced (fun s -> s.run_s) -. 1. );
    ]
  in
  let all = derived @ measured in
  List.map
    (fun (k, _) -> (k, Option.value ~default:0. (List.assoc_opt k all)))
    per_layer_metrics

let unit_of name = List.assoc name (end_to_end_metrics @ per_layer_metrics)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let m =
    String.concat ", "
      (List.map
         (fun (k, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" k (json_number v)
             (unit_of k))
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": \
     {%s}}\n%!"
    correct attempted failed m

let write_trace w ~seed tr =
  let dir = Filename.concat "perfbench" "out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path =
    Filename.concat dir (Printf.sprintf "%s-seed%d.trace.json" w.name seed)
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Trace.to_chrome_json tr));
  Printf.eprintf "perfbench: host spans written to %s\n%!" path

(* Set-ups alone, made before anything runs: the allocator then has no
   large free region yet, so every sample boots its device memory from
   fresh pages. After a run, a set-up may reuse the run's freed heap and
   read several times faster. *)
let setup_reps = 5

let setup_samples w ~seed =
  List.init setup_reps (fun _ ->
      Gc.full_major ();
      snd (timed (fun () -> (w.setup ~seed ~tracer:None : unit -> outcome))))

let run w ~seed ~seconds ~trace =
  let t_end = now () +. float_of_int seconds in
  let setups = if trace then [] else setup_samples w ~seed in
  let host_tracer = Trace.create () in
  (* the heap peak after two repetitions: independent of how many fit in
     the time budget, yet it shows memory one repetition leaves behind *)
  let peak_heap_words = ref 0 in
  let rec go acc i =
    (* --trace 1 alternates untraced and traced repetitions *)
    let traced = trace && i mod 2 = 1 in
    host_spans := if traced then Some host_tracer else None;
    let s = repetition w ~seed ~traced in
    host_spans := None;
    Printf.eprintf "perfbench: %s rep %d%s setup %.3fs run %.3fs\n%!" w.name i
      (if traced then " (traced)" else "") s.setup_s s.run_s;
    if i = 1 then peak_heap_words := (Gc.quick_stat ()).top_heap_words;
    let acc = s :: acc in
    let min_reps = if trace then 4 else 2 in
    if now () < t_end || i + 1 < min_reps then go acc (i + 1) else List.rev acc
  in
  let samples = go [] 0 in
  let first = (List.hd samples).out in
  let problems =
    List.concat_map
      (fun s ->
        s.out.problems
        @
        if s.out.digest = first.digest then []
        else [ "report digest differs from the first repetition's" ])
      samples
  in
  List.iter
    (fun p -> Printf.eprintf "perfbench: check failed: %s\n%!" p)
    problems;
  let attempted = sum (fun s -> s.out.attempted) samples in
  let correct = problems = [] in
  let failed =
    if correct then sum (fun s -> s.out.failed) samples else attempted
  in
  let metrics =
    if trace then begin
      host_spans := Some host_tracer;
      let layers = per_layer w ~seed samples in
      host_spans := None;
      write_trace w ~seed host_tracer;
      layers
    end
    else end_to_end ~setups ~peak_heap_words:!peak_heap_words samples
  in
  print_result ~correct ~attempted ~failed metrics

let () =
  let workload = ref "" and seed = ref 1 in
  let seconds = ref 10 and trace = ref 0 in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        " serve-ladder | fleet-rolling | a3-rtl" );
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_int seconds, " host seconds to measure for");
      ("--trace", Arg.Set_int trace, " 1 for the traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | None ->
      Printf.eprintf "perfbench: unknown workload %S\n%s\n" !workload usage;
      exit 2
  | Some _ when !seconds < 1 || (!trace <> 0 && !trace <> 1) ->
      prerr_endline usage;
      exit 2
  | Some w -> run w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
