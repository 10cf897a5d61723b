module B = Beethoven
module H = Runtime.Handle
module D = Serve.Dispatch
module Mix = Serve.Mix
module Tenant = Serve.Tenant

module Health = struct
  type state = Healthy | Suspect | Quarantined | Dead | Standby

  let name = function
    | Healthy -> "healthy"
    | Suspect -> "suspect"
    | Quarantined -> "quarantined"
    | Dead -> "dead"
    | Standby -> "standby"
end

(* ------------------------------------------------------------------ *)
(* Configuration                                                      *)
(* ------------------------------------------------------------------ *)

type config = {
  cl_seed : int;
  cl_duration_ps : int;
  cl_tenants : Tenant.t list;
  cl_devices : int;
  cl_warm : int;
  cl_platforms : Platform.Device.t list;
  cl_n_cores : int;
  cl_core_cap : int;
  cl_heartbeat_ps : int;
  cl_suspect_misses : int;
  cl_quarantine_misses : int;
  cl_drain_ps : int;
  cl_replay_max_retries : int;
  cl_replay_backoff_ps : int;
  cl_resident_bytes : int;
  cl_promote_strikes : int;
  cl_slo_hot_frac : float;
  cl_max_events : int;
}

let config ?(seed = 42) ?(duration_ps = 2_000_000_000) ?(devices = 2)
    ?warm
    ?(platforms =
      [ Platform.Device.aws_f1; Platform.Device.u200; Platform.Device.kria ])
    ?(n_cores = 2) ?(core_cap = 4) ?(heartbeat_ps = 50_000_000)
    ?(suspect_misses = 2) ?(quarantine_misses = 4)
    ?(drain_ps = 150_000_000) ?(replay_max_retries = 3)
    ?(replay_backoff_ps = 20_000_000) ?(resident_bytes = 64 * 1024)
    ?(promote_strikes = 3) ?(slo_hot_frac = 0.5) ?(max_events = 50_000_000)
    ~tenants () =
  if tenants = [] then invalid_arg "Cluster.config: no tenants";
  if devices < 1 then invalid_arg "Cluster.config: devices must be >= 1";
  let warm = match warm with Some w -> w | None -> devices in
  if warm < 1 || warm > devices then
    invalid_arg "Cluster.config: warm must be in [1, devices]";
  if platforms = [] then invalid_arg "Cluster.config: no platforms";
  if heartbeat_ps < 1 then invalid_arg "Cluster.config: heartbeat must be >= 1";
  if quarantine_misses < suspect_misses then
    invalid_arg "Cluster.config: quarantine_misses < suspect_misses";
  {
    cl_seed = seed;
    cl_duration_ps = duration_ps;
    cl_tenants = tenants;
    cl_devices = devices;
    cl_warm = warm;
    cl_platforms = platforms;
    cl_n_cores = n_cores;
    cl_core_cap = core_cap;
    cl_heartbeat_ps = heartbeat_ps;
    cl_suspect_misses = suspect_misses;
    cl_quarantine_misses = quarantine_misses;
    cl_drain_ps = drain_ps;
    cl_replay_max_retries = replay_max_retries;
    cl_replay_backoff_ps = replay_backoff_ps;
    cl_resident_bytes = resident_bytes;
    cl_promote_strikes = promote_strikes;
    cl_slo_hot_frac = slo_hot_frac;
    cl_max_events = max_events;
  }

type chaos =
  | Kill of { at : int; dev : int }
  | Restore of { at : int; dev : int }

(* ------------------------------------------------------------------ *)
(* Cluster state                                                      *)
(* ------------------------------------------------------------------ *)

type inflight = {
  il_req : D.req;
  il_tenant : int;
  il_gen : int;  (* device generation the command was sent to *)
}

type devstate = {
  dv_slot : int;
  dv_platform : Platform.Device.t;
  mutable dv_gen : int;
  mutable dv_handle : H.t;
  mutable dv_inj : Fault.Injector.t;
  mutable dv_tracer : Trace.t option;
  mutable dv_state : Health.state;
  mutable dv_frozen : bool;  (* engine excluded from the lockstep *)
  mutable dv_misses : int;  (* consecutive missed heartbeats *)
  mutable dv_brownout : int;  (* probes still inside a brownout window *)
  dv_vt : D.vclock;  (* per-device SFQ virtual time *)
  dv_out : int array array;  (* [system][core] outstanding *)
  dv_inflight : (int, inflight) Hashtbl.t;  (* txn -> record *)
  mutable dv_dispatched : int;
  mutable dv_completed : int;
  mutable dv_busy_prev : int;  (* server busy accumulated by dead gens *)
  mutable dv_transitions : (int * Health.state) list;  (* reverse *)
}

type ctstate = {
  ct_l : D.ledger;
  ct_index : int;
  mutable ct_home : int;  (* device slot *)
  mutable ct_resident : (H.t * H.remote_ptr) option;
  mutable ct_degraded : bool;
}

let tenant ts = D.tenant ts.ct_l
let tenant_name ts = (tenant ts).Tenant.t_name

(* Coordinator agenda: host-level actions (heartbeats, chaos, drain
   deadlines, replay backoffs) executed between lockstep rounds, when
   every live engine clock agrees. A sorted list keyed by (time, seq) —
   seq keeps same-time actions in insertion order. *)
type agenda_item = { ag_time : int; ag_seq : int; ag_act : unit -> unit }

type cstate = {
  st_cfg : config;
  st_host : Desim.Engine.t;  (* clients + host-side bookkeeping *)
  st_kinds : Mix.kind list;
  st_tenants : ctstate array;
  st_devices : devstate array;
  st_plan : Fault.Plan.t;
  st_policy : Fault.Policy.t option;
  st_tracer : Trace.t option;
  st_sink : D.sink;
  mutable st_next_txn : int;
  st_acked : (int, unit) Hashtbl.t;
  mutable st_duplicates : int;
  mutable st_replays : int;
  mutable st_replayed_ok : int;
  mutable st_quarantines : int;
  mutable st_promotions : int;
  mutable st_resharded : (string * int * int) list;  (* reverse *)
  mutable st_agenda : agenda_item list;  (* sorted by (time, seq) *)
  mutable st_agenda_seq : int;
  mutable st_dirty : bool;  (* some device may have dispatchable work *)
  mutable st_win_completed : int;  (* completions since the last probe *)
  mutable st_win_viol : int;
  mutable st_strikes : int;  (* consecutive hot probe windows *)
  mutable st_horizon : int;  (* heartbeats self-reschedule until then *)
  mutable st_served_ps : int;  (* accumulated traffic-phase time *)
  mutable st_phases : int;  (* phases started (next phase's salt) *)
  st_live : Desim.Engine.t array;  (* this round's live engines, reused *)
  mutable st_n_live : int;  (* filled prefix of [st_live] *)
  mutable st_rounds : int;  (* lockstep rounds over the session *)
  mutable st_retired_events : int;  (* fired by rebooted-away engines *)
}

let now st = Desim.Engine.now st.st_host

let schedule_action st ~at act =
  let it = { ag_time = at; ag_seq = st.st_agenda_seq; ag_act = act } in
  st.st_agenda_seq <- st.st_agenda_seq + 1;
  let rec ins = function
    | [] -> [ it ]
    | hd :: tl ->
        if
          hd.ag_time < it.ag_time
          || (hd.ag_time = it.ag_time && hd.ag_seq < it.ag_seq)
        then hd :: ins tl
        else it :: hd :: tl
  in
  st.st_agenda <- ins st.st_agenda

let bump st name =
  match st.st_tracer with None -> () | Some tr -> Trace.add tr name 1

let transition st dv state =
  if dv.dv_state <> state then begin
    dv.dv_state <- state;
    dv.dv_transitions <- (now st, state) :: dv.dv_transitions;
    match st.st_tracer with
    | None -> ()
    | Some tr ->
        Trace.instant tr ~now:(now st) ~track:"cluster/health" ~cat:"health"
          ~name:(Printf.sprintf "dev%d->%s" dv.dv_slot (Health.name state))
          ()
  end

(* ------------------------------------------------------------------ *)
(* Device boot                                                        *)
(* ------------------------------------------------------------------ *)

(* Boot one SoC generation into a slot. Each generation gets its own
   forked injector (scope = slot + devices * gen), so sibling devices
   and successive reboots draw from independent seeded streams. *)
let boot_soc cfg ~plan ~policy ~traced ~slot ~gen ~platform =
  let kinds = Serve.kinds_used cfg.cl_tenants in
  let systems =
    List.map (fun k -> Serve.system_of_kind k ~n_cores:cfg.cl_n_cores) kinds
  in
  let root = Fault.Injector.create plan in
  let inj =
    Fault.Injector.fork root ~scope:(slot + (cfg.cl_devices * gen))
  in
  let design =
    B.Elaborate.elaborate
      (B.Config.make ~name:(Printf.sprintf "dev%d" slot) systems)
      platform
  in
  let behaviors = Serve.behavior_of_system in
  let tracer =
    if traced then Some (Trace.create ~device:(Printf.sprintf "dev%d" slot) ())
    else None
  in
  (* 128 MB of device memory: embedded slots model a hugetlb pool of
     half their memory in 2 MB slots, and every outstanding request
     holds two hugepage-backed buffers — the default 64 MB pool (16
     slots) is exactly exhaustible at full core occupancy *)
  let soc =
    B.Soc.create ~memory_bytes:(128 * 1024 * 1024) ?tracer ~fault:inj ?policy
      design ~behaviors
  in
  (B.Soc.engine soc, H.create soc, inj, tracer)

let fresh_device cfg ~plan ~policy ~traced ~slot ~state =
  let platform =
    List.nth cfg.cl_platforms (slot mod List.length cfg.cl_platforms)
  in
  let _, handle, inj, tracer =
    boot_soc cfg ~plan ~policy ~traced ~slot ~gen:0 ~platform
  in
  let n_sys = List.length (Serve.kinds_used cfg.cl_tenants) in
  {
    dv_slot = slot;
    dv_platform = platform;
    dv_gen = 0;
    dv_handle = handle;
    dv_inj = inj;
    dv_tracer = tracer;
    dv_state = state;
    dv_frozen = false;
    dv_misses = 0;
    dv_brownout = 0;
    dv_vt = { D.vt = 0. };
    dv_out = Array.init n_sys (fun _ -> Array.make cfg.cl_n_cores 0);
    dv_inflight = Hashtbl.create 64;
    dv_dispatched = 0;
    dv_completed = 0;
    dv_busy_prev = 0;
    dv_transitions = [ (0, state) ];
  }

let dev_engine dv = H.engine dv.dv_handle

(* Reboot a killed slot: the old generation's server-busy total is
   banked, a fresh SoC (next generation, fresh forked injector) joins
   the standby pool with its engine clock synced to cluster time. *)
let reboot st dv =
  let cfg = st.st_cfg in
  dv.dv_busy_prev <- dv.dv_busy_prev + H.server_busy_ps dv.dv_handle;
  st.st_retired_events <-
    st.st_retired_events + Desim.Engine.fired (dev_engine dv);
  dv.dv_gen <- dv.dv_gen + 1;
  let traced = dv.dv_tracer <> None || (st.st_tracer <> None) in
  let engine, handle, inj, tracer =
    boot_soc cfg ~plan:st.st_plan ~policy:st.st_policy ~traced
      ~slot:dv.dv_slot ~gen:dv.dv_gen ~platform:dv.dv_platform
  in
  Desim.Engine.run ~until:(now st) engine;
  dv.dv_handle <- handle;
  dv.dv_inj <- inj;
  dv.dv_tracer <- tracer;
  dv.dv_frozen <- false;
  dv.dv_misses <- 0;
  dv.dv_brownout <- 0;
  dv.dv_vt.vt <- 0.;
  Array.iter (fun row -> Array.fill row 0 (Array.length row) 0) dv.dv_out;
  Hashtbl.reset dv.dv_inflight;
  transition st dv Health.Standby

(* ------------------------------------------------------------------ *)
(* Placement                                                          *)
(* ------------------------------------------------------------------ *)

let is_active dv =
  (not dv.dv_frozen)
  && (dv.dv_state = Health.Healthy || dv.dv_state = Health.Suspect)

(* Least total homed tenant weight among active devices; ties to the
   lowest slot. *)
let pick_home st =
  let load = Array.make (Array.length st.st_devices) 0. in
  Array.iter
    (fun ts ->
      if ts.ct_home >= 0 && not ts.ct_degraded then
        load.(ts.ct_home) <- load.(ts.ct_home) +. (tenant ts).Tenant.t_weight)
    st.st_tenants;
  let best = ref (-1) in
  Array.iter
    (fun dv ->
      if is_active dv then
        if !best < 0 || load.(dv.dv_slot) < load.(!best) then
          best := dv.dv_slot)
    st.st_devices;
  if !best >= 0 then Some !best else None

(* Move a tenant's residence: free the working set on the handle that
   allocated it (pure allocator bookkeeping even on a frozen device) and
   allocate on the new home — the data-locality cost a re-shard pays. *)
let release_resident ts =
  (match ts.ct_resident with Some (h, ptr) -> H.mfree h ptr | None -> ());
  ts.ct_resident <- None

let rehome st ts ~target =
  release_resident ts;
  let h = st.st_devices.(target).dv_handle in
  ts.ct_home <- target;
  ts.ct_resident <- Some (h, H.malloc h st.st_cfg.cl_resident_bytes);
  st.st_dirty <- true

let degrade st ts =
  if not ts.ct_degraded then begin
    ts.ct_degraded <- true;
    bump st "cluster.degraded";
    release_resident ts;
    ts.ct_home <- -1
  end

(* ------------------------------------------------------------------ *)
(* Dispatch                                                           *)
(* ------------------------------------------------------------------ *)

let choose_core st dv ~si =
  D.choose_core dv.dv_handle ~system_id:si ~cap:st.st_cfg.cl_core_cap
    dv.dv_out.(si)

(* Settle a request's outcome against the cluster ledgers. The txn id
   is the ack id: the first completion wins; any later completion of
   the same txn (a browned-out device finishing a command that was
   already replayed elsewhere) is dropped by the dedup check. *)
let ack st ts (r : D.req) ~replayed ~submit_ps ~seen_ps ~done_ps ~ok =
  if Hashtbl.mem st.st_acked r.rq_txn then begin
    st.st_duplicates <- st.st_duplicates + 1;
    bump st "cluster.duplicate_dropped"
  end
  else begin
    Hashtbl.replace st.st_acked r.rq_txn ();
    if replayed then st.st_replayed_ok <- st.st_replayed_ok + 1;
    st.st_win_completed <- st.st_win_completed + 1;
    if D.complete st.st_sink ts.ct_l r ~ok ~submit_ps ~seen_ps ~done_ps then
      st.st_win_viol <- st.st_win_viol + 1
  end;
  D.resume r

let fail_request st ts r =
  D.fail st.st_sink ts.ct_l;
  D.resume r

(* Submit one request on its tenant's home device. Runs only from the
   coordinator (between lockstep rounds) or from a callback of the same
   device's engine, so the target engine clock always equals cluster
   time. *)
let rec submit st ts (r : D.req) =
  let dv = st.st_devices.(ts.ct_home) in
  let h = dv.dv_handle in
  let gen = dv.dv_gen in
  let si = D.system_index st.st_kinds r.rq_class.Mix.k_kind in
  match choose_core st dv ~si with
  | None -> assert false (* caller reserved capacity *)
  | Some core ->
      dv.dv_out.(si).(core) <- dv.dv_out.(si).(core) + 1;
      dv.dv_dispatched <- dv.dv_dispatched + 1;
      let bytes = r.rq_class.Mix.k_bytes in
      let a = H.malloc h bytes and b = H.malloc h bytes in
      let submit_ps = Desim.Engine.now (dev_engine dv) in
      let args, cmd, expect =
        D.command r.rq_class.Mix.k_kind ~bytes ~src:a.H.rp_addr
          ~dst:b.H.rp_addr
      in
      let replayed = r.rq_attempts > 0 in
      Hashtbl.replace dv.dv_inflight r.rq_txn
        { il_req = r; il_tenant = ts.ct_index; il_gen = gen };
      let rh =
        H.send ~queued_at:r.rq_arrival h
          ~system:(Mix.kind_system r.rq_class.Mix.k_kind)
          ~core ~cmd ~args
      in
      H.on_settled rh (fun res ->
          (* Fires inside this device's engine (or synchronously from a
             coordinator-driven send); if the generation moved on, the
             registry entry belongs to a newer boot and stays. *)
          let done_ps = Desim.Engine.now (dev_engine dv) in
          H.mfree h a;
          H.mfree h b;
          dv.dv_out.(si).(core) <- dv.dv_out.(si).(core) - 1;
          (match Hashtbl.find_opt dv.dv_inflight r.rq_txn with
          | Some il when il.il_gen = gen ->
              Hashtbl.remove dv.dv_inflight r.rq_txn
          | _ -> ());
          (match res with
          | Ok v ->
              dv.dv_completed <- dv.dv_completed + 1;
              let seen_ps =
                match H.response_seen_at rh with
                | Some s -> s
                | None -> done_ps
              in
              (match st.st_tracer with
              | None -> ()
              | Some tr ->
                  ignore
                    (Trace.complete_span tr ~start:r.rq_arrival ~stop:done_ps
                       ~track:(Printf.sprintf "cluster/%s" (tenant_name ts))
                       ~cat:"cluster" ~name:r.rq_class.Mix.k_label
                       ~args:
                         [
                           ("device", Trace.Int dv.dv_slot);
                           ("txn", Trace.Int r.rq_txn);
                         ]
                       ()));
              ack st ts r ~replayed ~submit_ps ~seen_ps ~done_ps
                ~ok:(v = expect)
          | Error _ ->
              (* The device-local watchdog exhausted recovery (every
                 core quarantined). Retry elsewhere with backoff while
                 the budget lasts — the same path a post-drain replay
                 takes. *)
              retry_or_fail st ts r);
          st.st_dirty <- true)

(* Bounded-exponential-backoff replay of a command that either lost its
   device (drain deadline passed) or failed device-local recovery. *)
and retry_or_fail st ts (r : D.req) =
  if Hashtbl.mem st.st_acked r.rq_txn then ()
  else if r.rq_attempts >= st.st_cfg.cl_replay_max_retries then
    fail_request st ts r
  else begin
    let delay =
      st.st_cfg.cl_replay_backoff_ps * (1 lsl r.rq_attempts)
    in
    r.rq_attempts <- r.rq_attempts + 1;
    st.st_replays <- st.st_replays + 1;
    bump st "cluster.replay";
    schedule_action st ~at:(now st + delay) (fun () -> replay st ts r)
  end

and replay st ts (r : D.req) =
  if Hashtbl.mem st.st_acked r.rq_txn then ()
  else if ts.ct_degraded || ts.ct_home < 0 then fail_request st ts r
  else begin
    let dv = st.st_devices.(ts.ct_home) in
    let si = D.system_index st.st_kinds r.rq_class.Mix.k_kind in
    if (not (is_active dv)) || choose_core st dv ~si = None then
      (* home busy or gone: burn an attempt and back off again *)
      retry_or_fail st ts r
    else submit st ts r
  end

(* Start-time fair queueing across the tenants homed on one device, with
   a per-device virtual clock. Every tenant's queue head is shed here,
   homed on this device or not. *)
let pick_next st dv =
  let cand = ref None in
  Array.iter
    (fun ts ->
      let l = ts.ct_l in
      D.shed st.st_sink l ~degraded:ts.ct_degraded;
      if ts.ct_home = dv.dv_slot && not ts.ct_degraded then
        match D.head l with
        | None -> ()
        | Some r -> (
            let si = D.system_index st.st_kinds r.rq_class.Mix.k_kind in
            match choose_core st dv ~si with
            | None -> ()  (* system saturated on this device *)
            | Some _ ->
                let key = D.sfq_key l dv.dv_vt in
                let better =
                  match !cand with None -> true | Some (k, _, _) -> key < k
                in
                if better then cand := Some (key, ts, r)))
    st.st_tenants;
  match !cand with
  | None -> None
  | Some (_, ts, r) ->
      D.pop st.st_sink ts.ct_l;
      D.sfq_charge ts.ct_l r dv.dv_vt;
      Some (ts, r)

let pump_device st dv =
  let rec go () =
    match pick_next st dv with
    | None -> ()
    | Some (ts, r) ->
        submit st ts r;
        go ()
  in
  if is_active dv then go ()

let pump_all st =
  while st.st_dirty do
    st.st_dirty <- false;
    Array.iter (fun dv -> pump_device st dv) st.st_devices;
    (* a degraded tenant's queue still needs shedding even though no
       device pumps it *)
    Array.iter
      (fun ts ->
        if ts.ct_degraded then D.shed st.st_sink ts.ct_l ~degraded:true)
      st.st_tenants
  done

(* ------------------------------------------------------------------ *)
(* Health: quarantine, drain, re-shard, promotion                     *)
(* ------------------------------------------------------------------ *)

(* After the drain deadline: every still-unacknowledged command of the
   drained generation is replayed on its tenant's new home. Replays go
   through the same backoff budget as device-local failures. Then the
   device is frozen — a browned-out (alive) device gets no further
   engine time, so a late completion there can only arrive before this
   point and is deduped by the ack table. *)
let replay_inflight st dv =
  Hashtbl.fold (fun txn il acc -> (txn, il) :: acc) dv.dv_inflight []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (txn, il) ->
         Hashtbl.remove dv.dv_inflight txn;
         if not (Hashtbl.mem st.st_acked txn) then
           retry_or_fail st st.st_tenants.(il.il_tenant) il.il_req)

let finish_drain st dv ~gen =
  if dv.dv_gen = gen then begin
    replay_inflight st dv;
    dv.dv_frozen <- true;
    if dv.dv_state <> Health.Dead then transition st dv Health.Dead
  end

(* Quarantine a device: log it, stop admitting, re-home its tenants to
   the least-loaded survivor (or degrade, lowest weight first, when no
   survivor exists), and arm the drain deadline. *)
let quarantine_device st dv ~reason =
  if dv.dv_state <> Health.Quarantined && dv.dv_state <> Health.Dead then begin
    st.st_quarantines <- st.st_quarantines + 1;
    bump st "cluster.quarantine";
    Fault.Injector.log dv.dv_inj ~now:(now st) ~cls:Fault.Class.Device_offline
      ~kind:Fault.Log.Quarantined
      ~site:(Printf.sprintf "dev%d: %s" dv.dv_slot reason);
    transition st dv Health.Quarantined;
    let victims =
      Array.to_list st.st_tenants
      |> List.filter (fun ts -> ts.ct_home = dv.dv_slot)
    in
    List.iter
      (fun ts ->
        match pick_home st with
        | Some target ->
            st.st_resharded <-
              (tenant_name ts, dv.dv_slot, target) :: st.st_resharded;
            bump st "cluster.reshard";
            rehome st ts ~target
        | None -> ())
      victims;
    (* No survivor: shed load, lowest weight first, until the ones we
       cannot place are marked degraded. *)
    Array.to_list st.st_tenants
    |> List.filter (fun ts -> ts.ct_home = dv.dv_slot)
    |> List.sort (fun a b ->
           compare
             ((tenant a).Tenant.t_weight, a.ct_index)
             ((tenant b).Tenant.t_weight, b.ct_index))
    |> List.iter (fun ts -> degrade st ts);
    let gen = dv.dv_gen in
    schedule_action st
      ~at:(now st + st.st_cfg.cl_drain_ps)
      (fun () -> finish_drain st dv ~gen)
  end

(* Promote a standby device into service. Re-admit degraded tenants
   (highest weight first) onto it; with none degraded, migrate the
   most-backlogged tenant so the fresh capacity actually serves. *)
let promote st dv =
  if dv.dv_state = Health.Standby && not dv.dv_frozen then begin
    st.st_promotions <- st.st_promotions + 1;
    bump st "cluster.promote";
    transition st dv Health.Healthy;
    let degraded =
      Array.to_list st.st_tenants
      |> List.filter (fun ts -> ts.ct_degraded)
      |> List.sort (fun a b ->
             compare
               ((tenant b).Tenant.t_weight, a.ct_index)
               ((tenant a).Tenant.t_weight, b.ct_index))
    in
    match degraded with
    | _ :: _ ->
        List.iter
          (fun ts ->
            ts.ct_degraded <- false;
            st.st_resharded <-
              (tenant_name ts, -1, dv.dv_slot) :: st.st_resharded;
            rehome st ts ~target:dv.dv_slot)
          degraded
    | [] -> (
        let cand = ref None in
        Array.iter
          (fun ts ->
            let backlog = D.backlog ts.ct_l in
            if backlog > 0 && ts.ct_home >= 0 && ts.ct_home <> dv.dv_slot
            then
              match !cand with
              | Some (b, _) when b >= backlog -> ()
              | _ -> cand := Some (backlog, ts))
          st.st_tenants;
        match !cand with
        | Some (_, ts) ->
            st.st_resharded <-
              (tenant_name ts, ts.ct_home, dv.dv_slot)
              :: st.st_resharded;
            bump st "cluster.reshard";
            rehome st ts ~target:dv.dv_slot
        | None -> ())
  end

let standby st =
  Array.to_list st.st_devices
  |> List.find_opt (fun dv -> dv.dv_state = Health.Standby && not dv.dv_frozen)

let cluster_busy st =
  Array.exists (fun ts -> D.backlog ts.ct_l > 0) st.st_tenants
  || Array.exists (fun dv -> Hashtbl.length dv.dv_inflight > 0) st.st_devices

(* One heartbeat round: probe every serving device, advance the health
   state machine, then evaluate elastic promotion on the cluster-wide
   SLO window. All decisions draw from each device's forked stream, so
   the round is deterministic. *)
let rec heartbeat st =
  let cfg = st.st_cfg in
  Array.iter
    (fun dv ->
      match dv.dv_state with
      | Health.Healthy | Health.Suspect ->
          let missed =
            if dv.dv_frozen then true
            else begin
              let inj = dv.dv_inj in
              if
                dv.dv_brownout = 0
                && Fault.Injector.decide inj Fault.Class.Device_brownout
              then begin
                dv.dv_brownout <-
                  1 + Fault.Injector.draw_int inj ~bound:cfg.cl_quarantine_misses;
                Fault.Injector.log inj ~now:(now st)
                  ~cls:Fault.Class.Device_brownout ~kind:Fault.Log.Injected
                  ~site:
                    (Printf.sprintf "dev%d brownout %d probes" dv.dv_slot
                       dv.dv_brownout)
              end;
              if dv.dv_brownout > 0 then begin
                dv.dv_brownout <- dv.dv_brownout - 1;
                true
              end
              else if Fault.Injector.decide inj Fault.Class.Heartbeat_loss
              then begin
                Fault.Injector.log inj ~now:(now st)
                  ~cls:Fault.Class.Heartbeat_loss ~kind:Fault.Log.Injected
                  ~site:(Printf.sprintf "dev%d probe lost" dv.dv_slot);
                true
              end
              else false
            end
          in
          if missed then begin
            dv.dv_misses <- dv.dv_misses + 1;
            bump st "cluster.hb_miss";
            if dv.dv_misses >= cfg.cl_quarantine_misses then
              quarantine_device st dv
                ~reason:
                  (Printf.sprintf "%d consecutive missed heartbeats"
                     dv.dv_misses)
            else if dv.dv_misses >= cfg.cl_suspect_misses then
              transition st dv Health.Suspect
          end
          else begin
            (* a response heals a merely-suspect device: transient
               heartbeat loss and short brownouts never quarantine *)
            if dv.dv_misses > 0 then begin
              dv.dv_misses <- 0;
              if dv.dv_state = Health.Suspect then begin
                transition st dv Health.Healthy;
                Fault.Injector.log dv.dv_inj ~now:(now st)
                  ~cls:Fault.Class.Heartbeat_loss ~kind:Fault.Log.Recovered
                  ~site:(Printf.sprintf "dev%d probes resumed" dv.dv_slot)
              end
            end
          end
      | _ -> ())
    st.st_devices;
  (* Elastic promotion: sustained SLO violation (or stranded degraded
     tenants) pulls a standby device into service. *)
  let hot =
    st.st_win_completed > 0
    && float_of_int st.st_win_viol
       > cfg.cl_slo_hot_frac *. float_of_int st.st_win_completed
  in
  st.st_win_completed <- 0;
  st.st_win_viol <- 0;
  if hot then st.st_strikes <- st.st_strikes + 1 else st.st_strikes <- 0;
  let stranded = Array.exists (fun ts -> ts.ct_degraded) st.st_tenants in
  if st.st_strikes >= cfg.cl_promote_strikes || stranded then begin
    match standby st with
    | Some dv ->
        promote st dv;
        st.st_strikes <- 0
    | None -> ()
  end;
  if now st < st.st_horizon || cluster_busy st then
    schedule_action st ~at:(now st + cfg.cl_heartbeat_ps) (fun () ->
        heartbeat st)

(* ------------------------------------------------------------------ *)
(* Chaos                                                              *)
(* ------------------------------------------------------------------ *)

let kill_device st dv =
  if not dv.dv_frozen then begin
    Fault.Injector.log dv.dv_inj ~now:(now st) ~cls:Fault.Class.Device_offline
      ~kind:Fault.Log.Injected
      ~site:(Printf.sprintf "dev%d offline" dv.dv_slot);
    bump st "cluster.kill";
    (* the engine freezes: nothing in flight there ever settles; the
       heartbeat monitor notices, quarantines, drains, and re-shards *)
    dv.dv_frozen <- true;
    if dv.dv_state = Health.Standby then transition st dv Health.Dead
  end

let restore_device st dv =
  if dv.dv_frozen then begin
    bump st "cluster.restore";
    (* a restore can land before the drain deadline fires; the reboot
       bumps the generation (making the pending drain a no-op), so
       replay whatever the dead generation still held first *)
    replay_inflight st dv;
    reboot st dv
  end

(* ------------------------------------------------------------------ *)
(* Lockstep coordinator                                               *)
(* ------------------------------------------------------------------ *)

(* Conservative multi-engine lockstep: find the earliest pending event
   across the host engine, every live device engine, and the agenda;
   advance every live engine to that time (host first, then devices in
   slot order — engines without events there just move their clock), and
   iterate until no live engine holds an event at or before it. Agenda
   actions and the dispatch pump run between rounds, when every live
   clock agrees — so cross-engine calls (H.send from the coordinator,
   closed-loop wakeups on the host engine from a device completion) are
   always made at a single consistent cluster time.

   The live set only changes in agenda actions and session calls (kill,
   drain, restore), never inside an engine event, so one snapshot holds
   for a whole round. It is taken into the reused [st_live] array and the
   round reads it with [peek_time]/[run_until]: no list, option or
   closure is allocated per round. *)
let snapshot_live st =
  st.st_live.(0) <- st.st_host;
  let n = ref 1 in
  for i = 0 to Array.length st.st_devices - 1 do
    let dv = st.st_devices.(i) in
    if not dv.dv_frozen then begin
      st.st_live.(!n) <- dev_engine dv;
      incr n
    end
  done;
  st.st_n_live <- !n

let run_live st t =
  for i = 0 to st.st_n_live - 1 do
    Desim.Engine.run_until st.st_live.(i) ~until:t
      ~max_events:st.st_cfg.cl_max_events
  done

let live_due st t =
  let due = ref false and i = ref 0 in
  while (not !due) && !i < st.st_n_live do
    due := Desim.Engine.peek_time st.st_live.(!i) <= t;
    incr i
  done;
  !due

let advance_live st t =
  snapshot_live st;
  run_live st t

let drive st =
  let cfg = st.st_cfg in
  (* earliest pending time over the agenda and the live snapshot;
     [max_int] when nothing is pending anywhere *)
  let next_min () =
    let m =
      ref (match st.st_agenda with it :: _ -> it.ag_time | [] -> max_int)
    in
    for i = 0 to st.st_n_live - 1 do
      let p = Desim.Engine.peek_time st.st_live.(i) in
      if p < !m then m := p
    done;
    !m
  in
  let rec run_due_agenda () =
    match st.st_agenda with
    | it :: tl when it.ag_time <= now st ->
        st.st_agenda <- tl;
        it.ag_act ();
        run_due_agenda ()
    | _ -> ()
  in
  let rounds0 = st.st_rounds in
  let rec loop () =
    st.st_rounds <- st.st_rounds + 1;
    if st.st_rounds - rounds0 > cfg.cl_max_events then
      failwith "Cluster: coordinator livelock (round budget exhausted)";
    run_due_agenda ();
    pump_all st;
    snapshot_live st;
    let t = next_min () in
    if t < max_int then begin
      run_live st t;
      (* same-time cascades across engines *)
      while live_due st t do
        run_live st t
      done;
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Run + report                                                       *)
(* ------------------------------------------------------------------ *)

type device_report = {
  dr_name : string;
  dr_platform : string;
  dr_state : Health.state;
  dr_generations : int;
  dr_dispatched : int;
  dr_completed : int;
  dr_busy_ps : int;
  dr_utilization : float;
  dr_transitions : (int * Health.state) list;
  dr_injector : Fault.Injector.t option;
}

type report = {
  c_seed : int;
  c_duration_ps : int;
  c_wall_ps : int;
  c_tenants : Serve.tenant_report list;
  c_devices : device_report list;
  c_placements : (string * int) list;
  c_resharded : (string * int * int) list;
  c_quarantines : int;
  c_promotions : int;
  c_replays : int;
  c_replayed_ok : int;
  c_duplicates : int;
  c_lost_acked : int;
  c_degraded_sheds : int;
  c_device_tracers : (string * Trace.t) list;
  c_rounds : int;
  c_events : int;
}

(* Build the cluster state and boot every device slot. Shared by the
   one-shot [run] and by [Session.create]. *)
let mk_state ?tracer ?plan ?fault_policy cfg =
  let plan =
    match plan with
    | Some p -> p
    | None -> { Fault.Plan.none with Fault.Plan.seed = cfg.cl_seed }
  in
  let host = Desim.Engine.create () in
  let st =
    {
      st_cfg = cfg;
      st_host = host;
      st_kinds = Serve.kinds_used cfg.cl_tenants;
      st_tenants =
        Array.of_list
          (List.mapi
             (fun i t ->
               {
                 ct_l = D.ledger t;
                 ct_index = i;
                 ct_home = -1;
                 ct_resident = None;
                 ct_degraded = false;
               })
             cfg.cl_tenants);
      st_devices =
        Array.init cfg.cl_devices (fun slot ->
            fresh_device cfg ~plan ~policy:fault_policy
              ~traced:(tracer <> None) ~slot
              ~state:
                (if slot < cfg.cl_warm then Health.Healthy else Health.Standby));
      st_plan = plan;
      st_policy = fault_policy;
      st_tracer = tracer;
      st_sink =
        D.sink ~prefix:"cluster" ~count_offers:true ~sample_depth:false host
          tracer;
      st_next_txn = 0;
      st_acked = Hashtbl.create 1024;
      st_duplicates = 0;
      st_replays = 0;
      st_replayed_ok = 0;
      st_quarantines = 0;
      st_promotions = 0;
      st_resharded = [];
      st_agenda = [];
      st_agenda_seq = 0;
      st_dirty = false;
      st_win_completed = 0;
      st_win_viol = 0;
      st_strikes = 0;
      st_horizon = 0;
      st_served_ps = 0;
      st_phases = 0;
      st_live = Array.make (cfg.cl_devices + 1) host;
      st_n_live = 0;
      st_rounds = 0;
      st_retired_events = 0;
    }
  in
  (* Initial placement: tenants in declaration order onto the least
     weight-loaded warm device — data locality established by giving
     each tenant its resident working set on its home. *)
  Array.iter
    (fun ts ->
      match pick_home st with
      | Some slot -> rehome st ts ~target:slot
      | None -> degrade st ts)
    st.st_tenants;
  st

(* Assemble the cumulative cluster report from live state. Pure
   observation (counters, series summaries) — nothing is drained,
   scheduled or drawn, so sessions can snapshot mid-scenario. *)
let mk_report st ~duration_ps =
  let cfg = st.st_cfg in
  let wall_ps = now st in
  let tenants =
    Array.to_list
      (Array.map
         (fun ts -> D.tenant_report ts.ct_l ~duration_ps ~wall_ps)
         st.st_tenants)
  in
  let devices =
    Array.to_list
      (Array.map
         (fun dv ->
           let busy = dv.dv_busy_prev + H.server_busy_ps dv.dv_handle in
           {
             dr_name = Printf.sprintf "dev%d" dv.dv_slot;
             dr_platform = dv.dv_platform.Platform.Device.name;
             dr_state = dv.dv_state;
             dr_generations = dv.dv_gen + 1;
             dr_dispatched = dv.dv_dispatched;
             dr_completed = dv.dv_completed;
             dr_busy_ps = busy;
             dr_utilization =
               (if wall_ps = 0 then 0.
                else float_of_int busy /. float_of_int wall_ps);
             dr_transitions = List.rev dv.dv_transitions;
             dr_injector = Some dv.dv_inj;
           })
         st.st_devices)
  in
  let sum f = List.fold_left (fun a t -> a + f t) 0 tenants in
  {
    c_seed = cfg.cl_seed;
    c_duration_ps = duration_ps;
    c_wall_ps = wall_ps;
    c_tenants = tenants;
    c_devices = devices;
    c_placements =
      Array.to_list
        (Array.map
           (fun ts -> (tenant_name ts, ts.ct_home))
           st.st_tenants);
    c_resharded = List.rev st.st_resharded;
    c_quarantines = st.st_quarantines;
    c_promotions = st.st_promotions;
    c_replays = st.st_replays;
    c_replayed_ok = st.st_replayed_ok;
    c_duplicates = st.st_duplicates;
    c_lost_acked =
      Hashtbl.length st.st_acked - sum (fun t -> t.Serve.tr_completed);
    c_degraded_sheds = sum (fun t -> t.Serve.tr_shed_degraded);
    c_device_tracers =
      Array.to_list st.st_devices
      |> List.filter_map (fun dv ->
             match dv.dv_tracer with
             | Some tr -> Some (Printf.sprintf "dev%d" dv.dv_slot, tr)
             | None -> None);
    c_rounds = st.st_rounds;
    c_events =
      Array.fold_left
        (fun a dv -> a + Desim.Engine.fired (dev_engine dv))
        (st.st_retired_events + Desim.Engine.fired st.st_host)
        st.st_devices;
  }

(* One traffic phase from the current cluster time: re-arm the heartbeat
   monitor, spawn a fresh generation of clients (salt = phase index;
   phase 0 = the historical streams) on the host engine, and drive the
   fleet until every engine and the agenda are quiet. Client streams
   derive from (seed, salt, tenant, client) only, so the offered load is
   identical for any placement, device count, or chaos schedule. *)
let serve_phase st ~duration_ps =
  let t0 = now st in
  st.st_horizon <- t0 + duration_ps;
  st.st_served_ps <- st.st_served_ps + duration_ps;
  schedule_action st ~at:(t0 + st.st_cfg.cl_heartbeat_ps) (fun () ->
      heartbeat st);
  Serve.spawn_clients ~engine:st.st_host ~seed:st.st_cfg.cl_seed
    ~salt:st.st_phases ~horizon:(t0 + duration_ps) ~t0
    ~tenants:(Array.to_list (Array.map tenant st.st_tenants))
    ~offer:(fun ~tenant ~klass ~k ->
      let ts = st.st_tenants.(tenant) in
      let admitted = D.offer st.st_sink ts.ct_l ~txn:st.st_next_txn ~klass ~k in
      if admitted then begin
        st.st_next_txn <- st.st_next_txn + 1;
        st.st_dirty <- true
      end;
      admitted)
    ();
  st.st_phases <- st.st_phases + 1;
  drive st

let run ?tracer ?plan ?fault_policy ?(chaos = []) cfg () =
  let st = mk_state ?tracer ?plan ?fault_policy cfg in
  (* Chaos schedule and the first heartbeat go on the agenda. *)
  List.iter
    (fun c ->
      let at, dev, act =
        match c with
        | Kill { at; dev } -> (at, dev, kill_device)
        | Restore { at; dev } -> (at, dev, restore_device)
      in
      if dev < 0 || dev >= cfg.cl_devices then
        invalid_arg "Cluster.run: chaos device out of range";
      schedule_action st ~at (fun () -> act st st.st_devices.(dev)))
    chaos;
  serve_phase st ~duration_ps:cfg.cl_duration_ps;
  mk_report st ~duration_ps:cfg.cl_duration_ps

(* ------------------------------------------------------------------ *)
(* Sessions: the fleet outlives a single campaign                     *)
(* ------------------------------------------------------------------ *)

module Session = struct
  type t = cstate

  let create ?tracer ?plan ?fault_policy cfg () =
    mk_state ?tracer ?plan ?fault_policy cfg

  let now = now
  let check_dev st name dev =
    if dev < 0 || dev >= Array.length st.st_devices then
      invalid_arg (Printf.sprintf "Cluster.Session.%s: device out of range" name)

  let health st ~dev =
    check_dev st "health" dev;
    st.st_devices.(dev).dv_state

  (* Immediate chaos actions: the executor performs these between
     lockstep rounds (the cluster is settled), so they run directly
     rather than through the agenda. *)
  let kill st ~dev =
    check_dev st "kill" dev;
    kill_device st st.st_devices.(dev)

  let restore st ~dev =
    check_dev st "restore" dev;
    restore_device st st.st_devices.(dev)

  let promote_standby st =
    match standby st with
    | Some dv ->
        promote st dv;
        true
    | None -> false

  (* Reports are cumulative over the session (the dedup/ack ledgers are
     cluster-lifetime), so [c_lost_acked] stays meaningful across
     phases. Between phases the agenda is empty (drive runs it dry), so
     [serve_phase] always re-arms the heartbeat chain. *)
  let run_phase st ~duration_ps =
    if duration_ps < 1 then
      invalid_arg "Cluster.Session.run_phase: duration must be >= 1";
    serve_phase st ~duration_ps;
    mk_report st ~duration_ps:(max 1 st.st_served_ps)

  (* Advance cluster time without traffic: host engine plus every live
     device engine move to [now + delta] in lockstep (pending agenda
     work — e.g. a drain deadline — fires on the way). *)
  let sleep st ~delta_ps =
    if delta_ps < 0 then
      invalid_arg "Cluster.Session.sleep: negative delta";
    let target = now st + delta_ps in
    let rec go () =
      (match st.st_agenda with
      | it :: tl when it.ag_time <= target ->
          advance_live st it.ag_time;
          st.st_agenda <- tl;
          it.ag_act ();
          (* dispatch any work the action freed; completions landing
             after [target] stay pending and settle in the next phase *)
          pump_all st;
          go ()
      | _ -> ())
    in
    go ();
    advance_live st target

  let snapshot st = mk_report st ~duration_ps:(max 1 st.st_served_ps)
  let phases st = st.st_phases
  let quarantines st = st.st_quarantines
end

(* ------------------------------------------------------------------ *)
(* Accounting checks, digest, render                                  *)
(* ------------------------------------------------------------------ *)

let violations r =
  let out = ref [] in
  let add fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  if r.c_lost_acked <> 0 then
    add "cluster: %d acked commands missing from tenant ledgers"
      r.c_lost_acked;
  if r.c_duplicates < 0 then add "cluster: negative duplicate count";
  D.tenant_violations r.c_tenants @ List.rev !out

let conserved r = violations r = []

let digest r =
  let b = Buffer.create 512 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "cluster seed=%d devs=%d wall=%d q=%d promo=%d replay=%d/%d dup=%d lost=%d"
    r.c_seed
    (List.length r.c_devices)
    r.c_wall_ps r.c_quarantines r.c_promotions r.c_replayed_ok r.c_replays
    r.c_duplicates r.c_lost_acked;
  List.iter
    (fun (d : device_report) ->
      pf " | %s st=%s gen=%d disp=%d ok=%d busy=%d" d.dr_name
        (Health.name d.dr_state) d.dr_generations d.dr_dispatched
        d.dr_completed d.dr_busy_ps)
    r.c_devices;
  List.iter
    (fun t ->
      let open Serve in
      pf " | %s off=%d adm=%d shq=%d shd=%d shg=%d ok=%d fail=%d slo=%d by=%d"
        t.tr_name t.tr_offered t.tr_admitted t.tr_shed_queue
        t.tr_shed_deadline t.tr_shed_degraded t.tr_completed t.tr_failed
        t.tr_slo_violations t.tr_bytes_served;
      match t.tr_total with
      | Some p -> pf " p99=%.2f" p.ph_p99_us
      | None -> pf " p99=-")
    r.c_tenants;
  Buffer.contents b

let render r =
  let b = Buffer.create 2048 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "cluster campaign: seed=%d devices=%d duration=%.0f us wall=%.0f us\n"
    r.c_seed
    (List.length r.c_devices)
    (float_of_int r.c_duration_ps /. 1e6)
    (float_of_int r.c_wall_ps /. 1e6);
  pf
    "  health: %d quarantines, %d promotions; %d replays (%d completed), %d \
     duplicate acks dropped, %d lost acked\n"
    r.c_quarantines r.c_promotions r.c_replays r.c_replayed_ok r.c_duplicates
    r.c_lost_acked;
  List.iter
    (fun (d : device_report) ->
      pf "  %-5s %-32s %-11s gen=%d disp=%-6d ok=%-6d util=%5.1f%%\n"
        d.dr_name d.dr_platform
        (Health.name d.dr_state)
        d.dr_generations d.dr_dispatched d.dr_completed
        (100. *. d.dr_utilization);
      List.iter
        (fun (t, s) ->
          if t > 0 then
            pf "        @%-10.0f -> %s\n"
              (float_of_int t /. 1e6)
              (Health.name s))
        d.dr_transitions)
    r.c_devices;
  (match r.c_resharded with
  | [] -> ()
  | moves ->
      pf "  re-shards:\n";
      List.iter
        (fun (name, from, to_) ->
          if from < 0 then pf "    %s: degraded -> dev%d\n" name to_
          else pf "    %s: dev%d -> dev%d\n" name from to_)
        moves);
  pf "  placements:";
  List.iter
    (fun (name, slot) ->
      if slot < 0 then pf " %s=degraded" name else pf " %s=dev%d" name slot)
    r.c_placements;
  pf "\n";
  pf "\n%-10s %4s %8s %8s %6s %6s %6s %8s %6s %6s %10s %10s\n" "tenant" "wt"
    "offered" "admitted" "shedQ" "shedD" "shedG" "complete" "fail" "slo!"
    "offered/s" "achieved/s";
  List.iter
    (fun t ->
      let open Serve in
      pf "%-10s %4.1f %8d %8d %6d %6d %6d %8d %6d %6d %10.0f %10.0f\n"
        t.tr_name t.tr_weight t.tr_offered t.tr_admitted t.tr_shed_queue
        t.tr_shed_deadline t.tr_shed_degraded t.tr_completed t.tr_failed
        t.tr_slo_violations t.tr_offered_rps t.tr_achieved_rps)
    r.c_tenants;
  D.render_sheds_and_latency b r.c_tenants;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Degradation curve                                                  *)
(* ------------------------------------------------------------------ *)

let demo_tenants ~rate_rps =
  [
    Tenant.make ~name:"gold" ~weight:3.0 ~clients:4 ~slo_ps:400_000_000
      ~deadline_ps:900_000_000
      ~mix:[ Mix.memcpy ~bytes:(8 * 1024) () ]
      ~load:(Tenant.open_loop ~rate_rps:(rate_rps /. 4.) ())
      ();
    Tenant.make ~name:"bronze" ~weight:1.0 ~clients:2 ~slo_ps:500_000_000
      ~deadline_ps:900_000_000
      ~mix:[ Mix.vecadd ~bytes:(4 * 1024) () ]
      ~load:(Tenant.Closed_loop { think_ps = 30_000_000 })
      ();
  ]

type loss_point = {
  lp_devices : int;
  lp_offered_rps : float;
  lp_achieved_rps : float;
  lp_completed : int;
  lp_shed : int;
  lp_p99_us : float;
}

let device_loss_curve ?(seed = 42) ?(duration_ps = 1_500_000_000)
    ?(rate_rps = 120_000.) ~devices () =
  if devices < 1 then invalid_arg "Cluster.device_loss_curve: devices >= 1";
  (* one shard tenant per device slot, so the offered load actually
     spreads across the fleet and killing k slots concentrates it on
     the survivors *)
  let tenants =
    List.init devices (fun i ->
        Tenant.make
          ~name:(Printf.sprintf "shard%d" i)
          ~clients:4 ~queue_cap:128 ~slo_ps:300_000_000
          ~deadline_ps:600_000_000
          ~mix:[ Mix.memcpy ~bytes:(16 * 1024) () ]
          ~load:
            (Tenant.open_loop
               ~rate_rps:(rate_rps /. float_of_int (4 * devices))
               ())
          ())
  in
  let point ~kill =
    let cfg = config ~seed ~duration_ps ~devices ~tenants () in
    let chaos =
      List.init kill (fun i -> Kill { at = duration_ps / 3; dev = i })
    in
    let r = run ~chaos cfg () in
    let open Serve in
    let sumf f = List.fold_left (fun a t -> a +. f t) 0. r.c_tenants in
    let sumi f = List.fold_left (fun a t -> a + f t) 0 r.c_tenants in
    {
      lp_devices = devices - kill;
      lp_offered_rps = sumf (fun t -> t.tr_offered_rps);
      lp_achieved_rps = sumf (fun t -> t.tr_achieved_rps);
      lp_completed = sumi (fun t -> t.tr_completed);
      lp_shed =
        sumi (fun t ->
            t.tr_shed_queue + t.tr_shed_deadline + t.tr_shed_degraded);
      lp_p99_us =
        List.fold_left
          (fun a t ->
            match t.tr_total with
            | Some p -> Float.max a p.ph_p99_us
            | None -> a)
          0. r.c_tenants;
    }
  in
  List.init devices (fun kill -> point ~kill)

let render_loss_curve points =
  let b = Buffer.create 256 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "%8s %12s %12s %9s %6s %9s\n" "devices" "offered/s" "achieved/s"
    "complete" "shed" "p99 us";
  List.iter
    (fun p ->
      pf "%8d %12.0f %12.0f %9d %6d %9.1f\n" p.lp_devices p.lp_offered_rps
        p.lp_achieved_rps p.lp_completed p.lp_shed p.lp_p99_us)
    points;
  Buffer.contents b
