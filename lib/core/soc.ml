let log_src = Logs.Src.create "beethoven.soc" ~doc:"Simulated SoC events"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

type t = {
  engine : Desim.Engine.t;
  design : Elaborate.t;
  platform : Platform.Device.t;
  dram : Dram.t;
  axi_ports : Axi.t array; (* one per DDR controller *)
  memory : Devmem.t; (* sparse: pages materialise on first write *)
  ace_snoop_ps : int;
      (* embedded platforms: per-transaction AXI-ACE coherence cost *)
  mutable coherent_txns : int;
  mutable cores : core_inst array; (* indexed by command endpoint id *)
  mutable next_axi_id : int;
  fault : Fault.Injector.t option;
  policy : Fault.Policy.t;
  tracer : Trace.t option;
}

and ctx = {
  engine : Desim.Engine.t;
  clock_ps : int;
  core_id : int;
  system : Config.system;
  soc : t;
}

and core_inst = {
  ci_ctx : ctx;
  ci_readers : (string, port array) Hashtbl.t;
  ci_writers : (string, port array) Hashtbl.t;
  ci_spads : (string, spad) Hashtbl.t;
  ci_behavior : Rocc.t list -> respond:(int64 -> unit) -> unit;
      (* the system's behavior, applied to this core's [ci_ctx] once *)
  ci_queue : (Rocc.t list * int option * (int64 -> unit)) Queue.t;
      (* queued beats carry the trace span of the issuing host command *)
  mutable ci_partial : Rocc.t list;
  mutable ci_busy : bool;
  mutable ci_hung : bool;
  mutable ci_partial_epoch : int;
  ci_track : string; (* trace lane, "core <system>/<id>" *)
  ci_cur_span : int option ref;
      (* execution span of the in-flight command; shared with the core's
         readers/writers so their streams parent under it *)
}

and behavior = ctx -> Rocc.t list -> respond:(int64 -> unit) -> unit

(* One memory channel instance, Reader or Writer alike. *)
and port = {
  p_soc : t;
  p_axi : Axi.t; (* the DDR controller port this channel is wired to *)
  p_cfg : Config.channel;
  p_base_id : int;
  p_noc_ps : int;
  mutable p_busy : bool;
  mutable p_txn : writer_txn option; (* a Writer's open transaction *)
  p_track : string;
  p_parent : unit -> int option; (* current exec span of the owning core *)
}

and writer_txn = {
  wt_total_items : int;
  wt_item_bytes : int;
  mutable wt_pushed : int;
  mutable wt_buffered : int; (* items occupying buffer space (incl. in flight) *)
  mutable wt_unshipped : int; (* buffered items not yet sent to AXI *)
  mutable wt_next_addr : int;
  mutable wt_remaining_bytes : int;
  mutable wt_in_flight : int;
  mutable wt_next_push_time : int;
  wt_waiting_push : (unit -> unit) Queue.t; (* on_accept of blocked pushes *)
  wt_accepting : (unit -> unit) Queue.t; (* on_accept of admitted items *)
  wt_accept : unit -> unit; (* the one action of every admit event *)
  wt_on_done : unit -> unit;
  mutable wt_bursts_outstanding : int;
  mutable wt_all_issued : bool;
  wt_span : int option; (* trace span covering the whole transaction *)
}

and spad = {
  sp_cfg : Config.scratchpad;
  sp_soc : t;
  sp_reader : port;
  sp_data : Bytes.t;
  sp_row_bytes : int;
}

(* ------------------------------------------------------------------ *)
(* Device memory contents                                              *)
(* ------------------------------------------------------------------ *)

let mem_size t = Devmem.size t.memory
let resident_bytes t = Devmem.resident_pages t.memory * Devmem.page_bytes
let read_u8 t a = Devmem.get_u8 t.memory a
let write_u8 t a v = Devmem.set_u8 t.memory a v
let read_u32 t a = Devmem.get_int32_le t.memory a
let write_u32 t a v = Devmem.set_int32_le t.memory a v
let read_u64 t a = Devmem.get_int64_le t.memory a
let write_u64 t a v = Devmem.set_int64_le t.memory a v

let blit_in t ~src ~dst_addr =
  Devmem.blit_from_bytes src 0 t.memory dst_addr (Bytes.length src)

let blit_out t ~src_addr ~dst =
  Devmem.blit_to_bytes t.memory src_addr dst 0 (Bytes.length dst)

let copy_within t ~src ~dst ~bytes =
  Devmem.copy_within t.memory ~src ~dst ~len:bytes

(* On embedded platforms every fabric access is marked coherent over
   AXI-ACE (§II-C2); the snoop adds a couple of interconnect cycles and is
   counted for the stats report. *)
let coherence_ps t =
  if t.ace_snoop_ps > 0 then begin
    t.coherent_txns <- t.coherent_txns + 1;
    t.ace_snoop_ps
  end
  else 0

(* ------------------------------------------------------------------ *)
(* Fault-recovery accounting                                           *)
(* ------------------------------------------------------------------ *)

(* Every injected AXI error is resolved exactly once: [Recovered] when a
   retry eventually succeeds, [Unrecovered] when the retry budget runs
   out. [n] failed attempts resolve together. The ledger site ("<port>
   <what>@0x<addr>") is formatted only when there is an entry to log. *)
let fault_resolve t ~cls ~n ~recovered ~port ~what ~addr =
  match t.fault with
  | Some inj when n > 0 ->
      let kind =
        if recovered then Fault.Log.Recovered else Fault.Log.Unrecovered
      in
      let now = Desim.Engine.now t.engine in
      let site = Printf.sprintf "%s %s@0x%x" port what addr in
      for _ = 1 to n do
        Fault.Injector.log inj ~now ~cls ~kind ~site
      done
  | _ -> ()

let axi_retry_budget t = t.policy.Fault.Policy.axi_max_retries

let axi_backoff t ~attempt =
  t.policy.Fault.Policy.axi_backoff_ps * (1 lsl min attempt 10)

(* An AXI response, settled: [Done] on success, [Retry backoff_ps] while
   the retry budget lasts, [Lost] once it is spent. A final outcome
   resolves the failed attempts in the fault ledger under the site
   "<channel> <what>@0x<addr>"; the success path allocates nothing. *)
type settled = Done | Retry of int | Lost

let settle (p : port) ~cls ~what ~addr ~attempt resp =
  let soc = p.p_soc in
  match resp with
  | Axi.Resp.Okay ->
      fault_resolve soc ~cls ~n:attempt ~recovered:true
        ~port:p.p_cfg.Config.ch_name ~what ~addr;
      Done
  | Axi.Resp.Slverr | Axi.Resp.Decerr ->
      if attempt < axi_retry_budget soc then Retry (axi_backoff soc ~attempt)
      else begin
        fault_resolve soc ~cls ~n:(attempt + 1) ~recovered:false
          ~port:p.p_cfg.Config.ch_name ~what ~addr;
        Lost
      end

(* ------------------------------------------------------------------ *)
(* Memory channels: what Readers and Writers share                     *)
(* ------------------------------------------------------------------ *)

let beat_bytes (p : port) = (Axi.params p.p_axi).Axi.Params.data_bytes

(* A transfer is widened to whole AXI beats: it starts at [beat_floor]
   and spans [padded_bytes]. *)
let beat_floor p addr = addr - (addr mod beat_bytes p)

let padded_bytes p ~addr ~bytes =
  let bb = beat_bytes p in
  ((addr + bytes + bb - 1) / bb * bb) - beat_floor p addr

(* the widened transfer as legal bursts no longer than the channel's *)
let segments (p : port) ~addr ~bytes =
  let prm = Axi.params p.p_axi in
  let prm =
    {
      prm with
      Axi.Params.max_burst_beats =
        min prm.Axi.Params.max_burst_beats p.p_cfg.Config.ch_burst_beats;
    }
  in
  Axi.Burst.split ~params:prm ~addr:(beat_floor p addr)
    ~bytes:(padded_bytes p ~addr ~bytes)

let pick_id (p : port) k =
  let n = (Axi.params p.p_axi).Axi.Params.n_ids in
  if p.p_cfg.Config.ch_use_tlp then (p.p_base_id + k) mod n else p.p_base_id

(* A request travels through the memory NoC (+ coherence snoop on
   embedded platforms) before it reaches the AXI port. *)
let after_hop (p : port) k =
  Desim.Engine.schedule p.p_soc.engine
    ~delay:(p.p_noc_ps + coherence_ps p.p_soc)
    k

(* Open a span covering one reader/writer stream, parented under the
   owning core's in-flight execution span; returns an [on_done] wrapper
   that closes it. The span is named "<what> 0x<addr> <bytes>B", formatted
   only when there is a tracer. *)
let stream_span (p : port) ~what ~addr ~bytes ~on_done =
  let soc = p.p_soc in
  match soc.tracer with
  | None -> (None, on_done)
  | Some tr ->
      let clock_ps = soc.platform.Platform.Device.fabric_clock_ps in
      Trace.observe tr "noc.mem.hop_ps" (float_of_int p.p_noc_ps);
      Trace.observe_hist tr "noc.mem.hop_ps"
        ~bucket_width:(float_of_int clock_ps)
        (float_of_int p.p_noc_ps);
      let sp =
        Trace.begin_span tr
          ~now:(Desim.Engine.now soc.engine)
          ?parent:(p.p_parent ()) ~track:p.p_track ~cat:"mem"
          ~name:(Printf.sprintf "%s 0x%x %dB" what addr bytes)
          ()
      in
      ( Some sp,
        fun () ->
          Trace.end_span tr ~now:(Desim.Engine.now soc.engine) sp;
          on_done () )

(* Move a region at full channel throughput, without item-level
   delivery: at most [ch_max_in_flight] bursts at a time, each retried
   under the fault policy. The channel frees, and [on_done] fires, one
   NoC hop after the last response. *)
let bulk (p : port) (dir : Dram.dir) ~addr ~bytes ~on_done =
  if p.p_busy then
    failwith
      (match dir with
      | Dram.Read -> "Reader busy: one stream at a time"
      | Dram.Write -> "Writer busy: one transaction at a time");
  p.p_busy <- true;
  let engine = p.p_soc.engine in
  let span, on_done =
    stream_span p
      ~what:(match dir with Dram.Read -> "rd.bulk" | Dram.Write -> "wr.bulk")
      ~addr ~bytes ~on_done
  in
  let cls =
    match dir with
    | Dram.Read -> Fault.Class.Axi_read_error
    | Dram.Write -> Fault.Class.Axi_write_error
  in
  let what =
    match dir with Dram.Read -> "rd-bulk seg" | Dram.Write -> "wr-bulk seg"
  in
  let segs = Array.of_list (segments p ~addr ~bytes) in
  let n_segs = Array.length segs in
  let in_flight = ref 0 in
  let next_seg = ref 0 in
  let completed = ref 0 in
  let rec try_issue () =
    if !next_seg < n_segs && !in_flight < p.p_cfg.Config.ch_max_in_flight
    then begin
      let si = !next_seg in
      incr next_seg;
      incr in_flight;
      issue_seg si 0;
      try_issue ()
    end
  and issue_seg si attempt =
    let seg = segs.(si) in
    let id = pick_id p si in
    let on_resp resp =
      match settle p ~cls ~what ~addr:seg.Axi.Burst.addr ~attempt resp with
      | Retry backoff ->
          Desim.Engine.schedule engine ~delay:backoff (fun () ->
              issue_seg si (attempt + 1))
      | Done | Lost ->
          decr in_flight;
          incr completed;
          if !completed = n_segs then
            Desim.Engine.schedule engine ~delay:p.p_noc_ps (fun () ->
                p.p_busy <- false;
                on_done ())
          else try_issue ()
    in
    after_hop p (fun () ->
        match dir with
        | Dram.Read ->
            Axi.read ?span p.p_axi ~id ~addr:seg.Axi.Burst.addr
              ~beats:seg.Axi.Burst.beats
              ~on_beat:(fun ~beat:_ -> ())
              ~on_done:on_resp
        | Dram.Write ->
            Axi.write ?span p.p_axi ~id ~addr:seg.Axi.Burst.addr
              ~beats:seg.Axi.Burst.beats ~on_done:on_resp)
  in
  try_issue ()

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

module Reader = struct
  type r = port

  let beat_bytes = beat_bytes

  let stream (r : r) ~addr ~bytes ?item_bytes ~on_item ~on_done () =
    if r.p_busy then failwith "Reader busy: one stream at a time";
    if bytes <= 0 then invalid_arg "Reader.stream: bytes";
    r.p_busy <- true;
    let engine = r.p_soc.engine in
    let clock_ps = r.p_soc.platform.Platform.Device.fabric_clock_ps in
    let bb = beat_bytes r in
    let item_bytes =
      Option.value item_bytes ~default:r.p_cfg.Config.ch_data_bytes
    in
    if item_bytes > bb || bb mod item_bytes <> 0 then
      invalid_arg "Reader.stream: item width must divide the AXI beat";
    let span, on_done =
      stream_span r ~what:"rd.stream" ~addr ~bytes ~on_done
    in
    let items_per_beat = bb / item_bytes in
    let lead_items = addr mod bb / item_bytes in
    let n_items = ((bytes - 1) / item_bytes) + 1 in
    let segs = Array.of_list (segments r ~addr ~bytes) in
    let n_segs = Array.length segs in
    (* beat arrival times, flattened; segment [i]'s first beat is at
       [seg_base.(i)] *)
    let seg_base = Array.make n_segs 0 in
    for i = 1 to n_segs - 1 do
      seg_base.(i) <- seg_base.(i - 1) + segs.(i - 1).Axi.Burst.beats
    done;
    let total_beats = Array.fold_left (fun a s -> a + s.Axi.Burst.beats) 0 segs in
    let beat_time = Array.make total_beats max_int in
    let free_beats = ref r.p_cfg.Config.ch_buffer_beats in
    let in_flight = ref 0 in
    let next_seg = ref 0 in
    (* delivery cursor *)
    let delivered = ref 0 in
    let next_delivery = ref 0 in
    let pumping = ref false in
    let rec try_issue () =
      if
        !next_seg < n_segs
        && !in_flight < r.p_cfg.Config.ch_max_in_flight
        && !free_beats >= segs.(!next_seg).Axi.Burst.beats
      then begin
        let si = !next_seg in
        incr next_seg;
        free_beats := !free_beats - segs.(si).Axi.Burst.beats;
        incr in_flight;
        issue_seg si 0;
        try_issue ()
      end
    and issue_seg si attempt =
      let seg = segs.(si) in
      let id = pick_id r si in
      after_hop r (fun () ->
          Axi.read ?span r.p_axi ~id ~addr:seg.Axi.Burst.addr
            ~beats:seg.Axi.Burst.beats
            ~on_beat:(fun ~beat ->
              (* data beat returns through the NoC *)
              Desim.Engine.schedule engine ~delay:r.p_noc_ps (fun () ->
                  beat_time.(seg_base.(si) + beat) <-
                    Desim.Engine.now engine;
                  pump ()))
            ~on_done:(fun resp ->
              match
                settle r ~cls:Fault.Class.Axi_read_error ~what:"rd seg"
                  ~addr:seg.Axi.Burst.addr ~attempt resp
              with
              | Done ->
                  decr in_flight;
                  try_issue ()
              | Retry backoff ->
                  Desim.Engine.schedule engine ~delay:backoff (fun () ->
                      issue_seg si (attempt + 1))
              | Lost ->
                  (* the burst is lost but the stream stays alive: its
                     beats complete so the pipeline never wedges *)
                  let now = Desim.Engine.now engine in
                  for b = 0 to seg.Axi.Burst.beats - 1 do
                    if beat_time.(seg_base.(si) + b) = max_int then
                      beat_time.(seg_base.(si) + b) <- now
                  done;
                  decr in_flight;
                  pump ();
                  try_issue ()))
    and pump () =
      if not !pumping then begin
        pumping := true;
        step ()
      end
    and step () =
      if !delivered >= n_items then begin
        pumping := false;
        r.p_busy <- false;
        on_done ()
      end
      else begin
        let item = !delivered in
        let global_beat = (lead_items + item) / items_per_beat in
        if beat_time.(global_beat) = max_int then pumping := false
          (* beat not here yet; a later arrival re-pumps *)
        else begin
          let now = Desim.Engine.now engine in
          let at = max (max now beat_time.(global_beat)) !next_delivery in
          next_delivery := at + clock_ps;
          Desim.Engine.schedule_at engine ~time:at deliver
        end
      end
    (* [pumping] stays set from scheduling a delivery until it fires, so
       at most one delivery per stream is ever pending and the item it
       carries is always [!delivered]: one closure serves the stream *)
    and deliver () =
      let item = !delivered in
      delivered := item + 1;
      on_item ~offset:(item * item_bytes);
      (* freeing: last item of its beat returns a buffer credit *)
      if (lead_items + item + 1) mod items_per_beat = 0 || item + 1 = n_items
      then begin
        incr free_beats;
        try_issue ()
      end;
      step ()
    in
    try_issue ()

  let stream_strided (r : r) ~addr ~row_bytes ~stride ~n_rows ?item_bytes
      ~on_item ~on_done () =
    if row_bytes <= 0 || n_rows <= 0 then
      invalid_arg "Reader.stream_strided: dimensions";
    if stride < row_bytes then
      invalid_arg "Reader.stream_strided: stride smaller than the row";
    let rec row i =
      if i >= n_rows then on_done ()
      else
        stream r ~addr:(addr + (i * stride)) ~bytes:row_bytes ?item_bytes
          ~on_item:(fun ~offset -> on_item ~row:i ~offset)
          ~on_done:(fun () -> row (i + 1))
          ()
    in
    row 0

  let bulk (r : r) ~addr ~bytes ~on_done =
    bulk r Dram.Read ~addr ~bytes ~on_done
end

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

module Writer = struct
  type w = port

  (* Issue the next write burst if enough data is buffered. *)
  let rec try_ship (w : w) txn =
    let bb = beat_bytes w in
    let prm = Axi.params w.p_axi in
    let burst_beats =
      min w.p_cfg.Config.ch_burst_beats prm.Axi.Params.max_burst_beats
    in
    if txn.wt_remaining_bytes > 0
       && txn.wt_in_flight < w.p_cfg.Config.ch_max_in_flight
    then begin
      let items_per_beat = max 1 (bb / txn.wt_item_bytes) in
      let want_beats =
        min burst_beats (((txn.wt_remaining_bytes - 1) / bb) + 1)
      in
      (* respect the 4KB rule *)
      let to_boundary =
        (Axi.Burst.boundary - (txn.wt_next_addr mod Axi.Burst.boundary)) / bb
      in
      let want_beats = min want_beats (max 1 to_boundary) in
      let have_items = txn.wt_unshipped in
      let want_items = want_beats * items_per_beat in
      let last_burst = txn.wt_pushed = txn.wt_total_items in
      if have_items >= want_items || last_burst then begin
        (* once everything is pushed, remaining beats may be pure padding
           (sub-beat tails written with byte strobes) *)
        let beats =
          if have_items > 0 then
            min want_beats (((have_items - 1) / items_per_beat) + 1)
          else want_beats
        in
        let burst_bytes = min (beats * bb) txn.wt_remaining_bytes in
        let burst_items = min have_items (beats * items_per_beat) in
        txn.wt_unshipped <- txn.wt_unshipped - burst_items;
        let addr = txn.wt_next_addr in
        txn.wt_next_addr <- txn.wt_next_addr + (beats * bb);
        txn.wt_remaining_bytes <- txn.wt_remaining_bytes - burst_bytes;
        txn.wt_in_flight <- txn.wt_in_flight + 1;
        txn.wt_bursts_outstanding <- txn.wt_bursts_outstanding + 1;
        if txn.wt_remaining_bytes = 0 then txn.wt_all_issued <- true;
        let id = pick_id w (addr / max 1 (beats * bb)) in
        let complete () =
          txn.wt_in_flight <- txn.wt_in_flight - 1;
          txn.wt_bursts_outstanding <- txn.wt_bursts_outstanding - 1;
          (* the B response frees the buffer space this burst held *)
          txn.wt_buffered <- txn.wt_buffered - burst_items;
          let n = ref burst_items in
          while !n > 0 && not (Queue.is_empty txn.wt_waiting_push) do
            admit w txn (Queue.take txn.wt_waiting_push);
            decr n
          done;
          if txn.wt_all_issued && txn.wt_bursts_outstanding = 0 then begin
            w.p_busy <- false;
            w.p_txn <- None;
            txn.wt_on_done ()
          end
          else try_ship w txn
        in
        (* a retry re-issues at the AXI port, without crossing the NoC
           again *)
        let rec attempt_write attempt =
          Axi.write ?span:txn.wt_span w.p_axi ~id ~addr ~beats
            ~on_done:(fun resp ->
              match
                settle w ~cls:Fault.Class.Axi_write_error ~what:"wr burst"
                  ~addr ~attempt resp
              with
              | Done | Lost -> complete ()
              | Retry backoff ->
                  Desim.Engine.schedule w.p_soc.engine ~delay:backoff
                    (fun () -> attempt_write (attempt + 1)))
        in
        after_hop w (fun () -> attempt_write 0);
        try_ship w txn
      end
    end

  (* Admit one pushed item into the buffer; it is accepted one fabric
     cycle after the previous one. Admit times never decrease, so the
     admit events fire in admit order and each takes its [on_accept] from
     the head of [wt_accepting]: the transaction's single [wt_accept]
     action serves every item. *)
  and admit (w : w) txn on_accept =
    txn.wt_pushed <- txn.wt_pushed + 1;
    txn.wt_buffered <- txn.wt_buffered + 1;
    txn.wt_unshipped <- txn.wt_unshipped + 1;
    let engine = w.p_soc.engine in
    let at = max (Desim.Engine.now engine) txn.wt_next_push_time in
    txn.wt_next_push_time <-
      at + w.p_soc.platform.Platform.Device.fabric_clock_ps;
    Queue.push on_accept txn.wt_accepting;
    Desim.Engine.schedule_at engine ~time:at txn.wt_accept

  let begin_txn (w : w) ~addr ~bytes ~on_done =
    if w.p_busy then failwith "Writer busy: one transaction at a time";
    if bytes <= 0 then invalid_arg "Writer.begin_txn: bytes";
    w.p_busy <- true;
    let item_bytes = w.p_cfg.Config.ch_data_bytes in
    let span, on_done = stream_span w ~what:"wr.txn" ~addr ~bytes ~on_done in
    let rec txn =
      {
        wt_span = span;
        wt_total_items = ((bytes - 1) / item_bytes) + 1;
        wt_item_bytes = item_bytes;
        wt_pushed = 0;
        wt_buffered = 0;
        wt_unshipped = 0;
        wt_next_addr = beat_floor w addr;
        wt_remaining_bytes = padded_bytes w ~addr ~bytes;
        wt_in_flight = 0;
        wt_next_push_time = 0;
        wt_waiting_push = Queue.create ();
        wt_accepting = Queue.create ();
        wt_accept =
          (fun () ->
            let on_accept = Queue.take txn.wt_accepting in
            on_accept ();
            try_ship w txn);
        wt_on_done = on_done;
        wt_bursts_outstanding = 0;
        wt_all_issued = false;
        }
    in
    w.p_txn <- Some txn

  let push (w : w) ~on_accept =
    match w.p_txn with
    | None -> failwith "Writer.push: no open transaction"
    | Some txn ->
        let bb = beat_bytes w in
        let items_per_beat = max 1 (bb / txn.wt_item_bytes) in
        let capacity = w.p_cfg.Config.ch_buffer_beats * items_per_beat in
        if txn.wt_buffered < capacity && Queue.is_empty txn.wt_waiting_push
        then admit w txn on_accept
        else Queue.push on_accept txn.wt_waiting_push

  let bulk (w : w) ~addr ~bytes ~on_done =
    bulk w Dram.Write ~addr ~bytes ~on_done
end

(* ------------------------------------------------------------------ *)
(* Scratchpad                                                          *)
(* ------------------------------------------------------------------ *)

module Scratchpad = struct
  type sp = spad

  let depth (sp : sp) = sp.sp_cfg.Config.sp_n_datas
  let latency (sp : sp) = sp.sp_cfg.Config.sp_latency

  let init_from_memory (sp : sp) ~addr ?bytes ~on_done () =
    let total = sp.sp_row_bytes * depth sp in
    let bytes = Option.value bytes ~default:total in
    if bytes > total then invalid_arg "Scratchpad.init: larger than capacity";
    Reader.bulk sp.sp_reader ~addr ~bytes ~on_done:(fun () ->
        (* contents land as the fill completes *)
        Devmem.blit_to_bytes sp.sp_soc.memory addr sp.sp_data 0 bytes;
        on_done ())

  let get (sp : sp) row =
    if row < 0 || row >= depth sp then invalid_arg "Scratchpad.get: row";
    Bytes.sub sp.sp_data (row * sp.sp_row_bytes) sp.sp_row_bytes

  let set (sp : sp) row v =
    if row < 0 || row >= depth sp then invalid_arg "Scratchpad.set: row";
    if Bytes.length v <> sp.sp_row_bytes then
      invalid_arg "Scratchpad.set: row width";
    Bytes.blit v 0 sp.sp_data (row * sp.sp_row_bytes) sp.sp_row_bytes

  let get_u64 (sp : sp) row =
    if row < 0 || row >= depth sp then invalid_arg "Scratchpad.get_u64: row";
    if sp.sp_row_bytes >= 8 then Bytes.get_int64_le sp.sp_data (row * sp.sp_row_bytes)
    else begin
      let v = ref 0L in
      for i = sp.sp_row_bytes - 1 downto 0 do
        v :=
          Int64.logor
            (Int64.shift_left !v 8)
            (Int64.of_int (Char.code (Bytes.get sp.sp_data ((row * sp.sp_row_bytes) + i))))
      done;
      !v
    end

  let set_u64 (sp : sp) row v =
    if row < 0 || row >= depth sp then invalid_arg "Scratchpad.set_u64: row";
    let n = min sp.sp_row_bytes 8 in
    for i = 0 to n - 1 do
      Bytes.set sp.sp_data
        ((row * sp.sp_row_bytes) + i)
        (Char.chr
           (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xffL)))
    done
end

(* ------------------------------------------------------------------ *)
(* SoC construction                                                    *)
(* ------------------------------------------------------------------ *)

let fresh_axi_id t =
  let n = t.platform.Platform.Device.axi.Axi.Params.n_ids in
  let id = t.next_axi_id mod n in
  t.next_axi_id <- t.next_axi_id + 1;
  id

(* memory channels spread round-robin over the DDR controller ports, as
   the platform developer's channel assignment would *)
let port_for t ep = t.axi_ports.(ep mod Array.length t.axi_ports)

let make_port t ~cfg ~ep ~noc_ps ~track ~parent =
  {
    p_soc = t;
    p_axi = port_for t ep;
    p_cfg = cfg;
    p_base_id = fresh_axi_id t;
    p_noc_ps = noc_ps;
    p_busy = false;
    p_txn = None;
    p_track = track;
    p_parent = parent;
  }

let spad_fill_channel (sp : Config.scratchpad) =
  Config.read_channel ~name:(sp.Config.sp_name ^ "[init]")
    ~data_bytes:(max 1 (sp.Config.sp_data_bits / 8))
    ()

let create ?(memory_bytes = 64 * 1024 * 1024) ?trace ?tracer ?fault
    ?(policy = Fault.Policy.default) (design : Elaborate.t) ~behaviors =
  let engine = Desim.Engine.create () in
  let platform = design.Elaborate.platform in
  let dram = Dram.create engine platform.Platform.Device.dram in
  (match tracer with Some tr -> Dram.set_tracer dram tr | None -> ());
  (* one AXI port per DDR controller; they share the DRAM device model,
     but each has its own per-ID transaction queues *)
  let n_ports = max 1 platform.Platform.Device.dram.Dram.Config.n_channels in
  let axi_ports =
    Array.init n_ports (fun i ->
        let name = Printf.sprintf "ddr%d" i in
        if i = 0 then
          Axi.create ?trace ?tracer ~name ?fault engine dram
            platform.Platform.Device.axi
        else
          Axi.create ?tracer ~name ?fault engine dram
            platform.Platform.Device.axi)
  in
  let n_cores = Config.total_cores design.Elaborate.config in
  let t =
    {
      engine;
      design;
      platform;
      dram;
      memory = Devmem.create memory_bytes;
      ace_snoop_ps =
        (if platform.Platform.Device.host.Platform.Device.shared_address_space
         then 2 * platform.Platform.Device.fabric_clock_ps
         else 0);
      coherent_txns = 0;
      axi_ports;
      cores = [||];
      next_axi_id = 0;
      fault;
      policy;
      tracer;
    }
  in
  (* Wire the ECC/fault tap into the DRAM model: every read burst may
     corrupt a word (latching its pre-corruption codeword), then the
     controller scrubs the burst window; writes drop stale codewords. *)
  (match fault with
  | None -> ()
  | Some inj ->
      let ecc = Fault.Injector.ecc inj in
      Dram.set_burst_hook dram (fun ~addr ~bytes ~dir ->
          match dir with
          | Dram.Write ->
              if addr < Devmem.size t.memory then
                Fault.Ecc.note_write ecc ~addr
                  ~bytes:(min bytes (Devmem.size t.memory - addr))
          | Dram.Read ->
              if addr + bytes <= Devmem.size t.memory then begin
                let now = Desim.Engine.now engine in
                let flip ~cls ~bits =
                  let words = max 1 (bytes / 8) in
                  let word_addr =
                    addr + (8 * Fault.Injector.draw_int inj ~bound:words)
                  in
                  if word_addr + 8 <= Devmem.size t.memory then begin
                    let b1 = Fault.Injector.draw_int inj ~bound:64 in
                    Fault.Ecc.inject_flip ecc ~mem:t.memory ~word_addr ~bit:b1;
                    if bits > 1 then begin
                      let b2 =
                        (b1 + 1 + Fault.Injector.draw_int inj ~bound:63) mod 64
                      in
                      Fault.Ecc.inject_flip ecc ~mem:t.memory ~word_addr ~bit:b2
                    end;
                    Fault.Injector.log inj ~now ~cls ~kind:Fault.Log.Injected
                      ~site:
                        (Printf.sprintf "dram word 0x%x, %d bit%s flipped"
                           word_addr bits (if bits > 1 then "s" else ""))
                  end
                in
                if Fault.Injector.decide inj Fault.Class.Dram_flip then
                  flip ~cls:Fault.Class.Dram_flip ~bits:1;
                if Fault.Injector.decide inj Fault.Class.Dram_double_flip then
                  flip ~cls:Fault.Class.Dram_double_flip ~bits:2;
                (* the controller checks ECC on every read burst *)
                let corrected, uncorrectable =
                  Fault.Ecc.scrub ecc ~mem:t.memory ~addr ~bytes
                in
                for _ = 1 to corrected do
                  Fault.Injector.log inj ~now ~cls:Fault.Class.Dram_flip
                    ~kind:Fault.Log.Corrected
                    ~site:(Printf.sprintf "ecc corrected in burst@0x%x" addr)
                done;
                for _ = 1 to uncorrectable do
                  Fault.Injector.log inj ~now ~cls:Fault.Class.Dram_double_flip
                    ~kind:Fault.Log.Unrecovered
                    ~site:
                      (Printf.sprintf "ecc uncorrectable in burst@0x%x" addr)
                done
              end));
  let cores = Array.make n_cores None in
  List.iter
    (fun (sys : Config.system) ->
      for core = 0 to sys.Config.n_cores - 1 do
        let ep =
          Elaborate.cmd_endpoint design ~system:sys.Config.sys_name ~core
        in
        let ctx =
          { engine; clock_ps = platform.Platform.Device.fabric_clock_ps;
            core_id = core; system = sys; soc = t }
        in
        let mem_ep chan =
          Elaborate.mem_endpoint design ~system:sys.Config.sys_name ~core
            ~channel:chan
        in
        let mem_noc_ps chan =
          Noc.latency_ps design.Elaborate.mem_noc ~ep_id:(mem_ep chan)
        in
        (* the core's in-flight execution span; channel streams started by
           the behavior parent under it *)
        let cur_span = ref None in
        let parent () = !cur_span in
        let core_track =
          Printf.sprintf "core %s/%d" sys.Config.sys_name core
        in
        let chan_track chan = Printf.sprintf "%s %s" core_track chan in
        let ports channels =
          let tbl = Hashtbl.create 4 in
          List.iter
            (fun (c : Config.channel) ->
              let arr =
                Array.init c.Config.ch_n_channels (fun i ->
                    let chan = Printf.sprintf "%s[%d]" c.Config.ch_name i in
                    make_port t ~cfg:c ~ep:(mem_ep chan)
                      ~noc_ps:(mem_noc_ps chan) ~track:(chan_track chan)
                      ~parent)
              in
              Hashtbl.add tbl c.Config.ch_name arr)
            channels;
          tbl
        in
        let readers = ports sys.Config.read_channels in
        let writers = ports sys.Config.write_channels in
        let spads = Hashtbl.create 4 in
        List.iter
          (fun sp ->
            let row_bytes = max 1 ((sp.Config.sp_data_bits + 7) / 8) in
            let noc_ps, sp_ep =
              if sp.Config.sp_init_from_memory then
                let chan = Printf.sprintf "%s[init]" sp.Config.sp_name in
                (mem_noc_ps chan, mem_ep chan)
              else (0, 0)
            in
            Hashtbl.add spads sp.Config.sp_name
              {
                sp_cfg = sp;
                sp_soc = t;
                sp_reader =
                  make_port t ~cfg:(spad_fill_channel sp) ~ep:sp_ep ~noc_ps
                    ~track:(chan_track (sp.Config.sp_name ^ "[init]"))
                    ~parent;
                sp_data = Bytes.make (row_bytes * sp.Config.sp_n_datas) '\000';
                sp_row_bytes = row_bytes;
              })
          sys.Config.scratchpads;
        cores.(ep) <-
          Some
            {
              ci_ctx = ctx;
              ci_readers = readers;
              ci_writers = writers;
              ci_spads = spads;
              ci_behavior = behaviors sys.Config.sys_name ctx;
              ci_queue = Queue.create ();
              ci_partial = [];
              ci_busy = false;
              ci_hung = false;
              ci_partial_epoch = 0;
              ci_track = core_track;
              ci_cur_span = cur_span;
            }
      done)
    design.Elaborate.config.Config.systems;
  t.cores <- Array.map Option.get cores;
  t

let engine t = t.engine
let tracer t = t.tracer
let fault_injector t = t.fault
let policy t = t.policy
let axi_ports t = t.axi_ports
let design t = t.design
let platform t = t.platform
let dram t = t.dram

(* ------------------------------------------------------------------ *)
(* Command dispatch                                                    *)
(* ------------------------------------------------------------------ *)

let find_core t ~system ~core =
  let ep = Elaborate.cmd_endpoint t.design ~system ~core in
  t.cores.(ep)

let cmd_key t ~system_id ~core_id =
  let sys = List.nth t.design.Elaborate.config.Config.systems system_id in
  Elaborate.cmd_endpoint t.design ~system:sys.Config.sys_name ~core:core_id

let core_hung t ~system_id ~core_id =
  t.cores.(cmd_key t ~system_id ~core_id).ci_hung

let spec_for (sys : Config.system) funct =
  List.find_opt (fun c -> c.Cmd_spec.cmd_funct = funct) sys.Config.commands

let queue_depth_name (ci : core_inst) =
  Printf.sprintf "cmdq.%s/%d.depth" ci.ci_ctx.system.Config.sys_name
    ci.ci_ctx.core_id

let rec pump_core t (ci : core_inst) =
  if (not ci.ci_busy) && (not ci.ci_hung) && not (Queue.is_empty ci.ci_queue)
  then begin
    ci.ci_busy <- true;
    let beats, cmd_span, respond = Queue.pop ci.ci_queue in
    let start = Desim.Engine.now t.engine in
    let exec_span =
      match t.tracer with
      | None -> None
      | Some tr ->
          Trace.sample tr ~now:start (queue_depth_name ci)
            (Queue.length ci.ci_queue);
          Some
            (Trace.begin_span tr ~now:start ?parent:cmd_span
               ~track:ci.ci_track ~cat:"exec"
               ~name:
                 (Printf.sprintf "exec funct=%d"
                    (List.hd beats).Rocc.funct)
               ())
    in
    ci.ci_cur_span := exec_span;
    ci.ci_behavior beats ~respond:(fun data ->
        ci.ci_busy <- false;
        (match (t.tracer, exec_span) with
        | Some tr, Some sp ->
            let now = Desim.Engine.now t.engine in
            Trace.end_span tr ~now sp;
            Trace.add tr
              (Printf.sprintf "%s.busy_ps" ci.ci_track)
              (now - start);
            ci.ci_cur_span := None
        | _ -> ());
        respond data;
        pump_core t ci)
  end

(* One message over the command NoC with fault decoration: delay
   injection/recovery is logged, drops are recorded under [key] for the
   runtime watchdog to resolve. Without a fault injector this is a plain
   [Noc.send]. *)
let cmd_noc_send t ~ep_id ~key ~drop_cls ~site ?span k =
  let cmd_noc = t.design.Elaborate.cmd_noc in
  let tracer = t.tracer in
  match t.fault with
  | None ->
      ignore (Noc.send cmd_noc t.engine ~ep_id ?tracer ~label:"cmd" ?span k)
  | Some inj -> (
      let delayed = ref false in
      let k' () =
        if !delayed then
          Fault.Injector.log inj ~now:(Desim.Engine.now t.engine)
            ~cls:Fault.Class.Noc_delay ~kind:Fault.Log.Recovered ~site;
        k ()
      in
      match
        Noc.send cmd_noc t.engine ~ep_id ?tracer ~label:"cmd" ?span
          ~fault:(inj, drop_cls) k'
      with
      | Noc.Delivered -> ()
      | Noc.Delayed d ->
          delayed := true;
          Fault.Injector.log inj ~now:(Desim.Engine.now t.engine)
            ~cls:Fault.Class.Noc_delay ~kind:Fault.Log.Injected
            ~site:(Printf.sprintf "%s (+%d ps)" site d)
      | Noc.Dropped ->
          Fault.Injector.note_lost inj ~now:(Desim.Engine.now t.engine)
            ~cls:drop_cls ~key ~site;
          (match (tracer, span) with
          | Some tr, Some sp ->
              (* tie the lost message back to its ledger entry *)
              Trace.add_arg tr sp "fault_id"
                (Trace.Int (Fault.Injector.last_id inj))
          | _ -> ()))

let send_command ?span t (cmd : Rocc.t) ~on_response =
  let systems = t.design.Elaborate.config.Config.systems in
  if cmd.Rocc.system_id < 0 || cmd.Rocc.system_id >= List.length systems then
    invalid_arg
      (Printf.sprintf "Soc.send_command: no system %d" cmd.Rocc.system_id);
  let sys = List.nth systems cmd.Rocc.system_id in
  if cmd.Rocc.core_id < 0 || cmd.Rocc.core_id >= sys.Config.n_cores then
    invalid_arg
      (Printf.sprintf "Soc.send_command: %s has no core %d"
         sys.Config.sys_name cmd.Rocc.core_id);
  let ci = find_core t ~system:sys.Config.sys_name ~core:cmd.Rocc.core_id in
  let ep =
    Elaborate.cmd_endpoint t.design ~system:sys.Config.sys_name
      ~core:cmd.Rocc.core_id
  in
  let mmio_ps = t.platform.Platform.Device.host.Platform.Device.mmio_latency_ps in
  Log.debug (fun m ->
      m "cmd sys=%d core=%d funct=%d @%dps" cmd.Rocc.system_id
        cmd.Rocc.core_id cmd.Rocc.funct (Desim.Engine.now t.engine));
  let deliver () =
    (* a hung core swallows its traffic; the runtime watchdog notices *)
    if not ci.ci_hung then begin
      ci.ci_partial <- ci.ci_partial @ [ cmd ];
      ci.ci_partial_epoch <- ci.ci_partial_epoch + 1;
      let expected =
        match spec_for sys cmd.Rocc.funct with
        | Some spec -> Cmd_spec.rocc_beats spec
        | None -> 1
      in
      if List.length ci.ci_partial >= expected then begin
        let beats = ci.ci_partial in
        ci.ci_partial <- [];
        let hang =
          match t.fault with
          | Some inj ->
              Fault.Injector.should_hang inj ~system:cmd.Rocc.system_id
                ~core:cmd.Rocc.core_id
          | None -> false
        in
        if hang then begin
          let inj = Option.get t.fault in
          ci.ci_hung <- true;
          Fault.Injector.note_lost inj
            ~now:(Desim.Engine.now t.engine)
            ~cls:Fault.Class.Core_hang ~key:ep
            ~site:
              (Printf.sprintf "core sys=%d core=%d hung at dispatch"
                 cmd.Rocc.system_id cmd.Rocc.core_id)
        end
        else begin
          let respond data =
            (* response returns over the NoC and is picked up at the MMIO
               frontend *)
            cmd_noc_send t ~ep_id:ep ~key:ep
              ~drop_cls:Fault.Class.Noc_resp_drop
              ~site:
                (Printf.sprintf "resp sys=%d core=%d" cmd.Rocc.system_id
                   cmd.Rocc.core_id)
              ?span
              (fun () ->
                Desim.Engine.schedule t.engine ~delay:mmio_ps (fun () ->
                    on_response
                      {
                        Rocc.resp_system_id = cmd.Rocc.system_id;
                        resp_core_id = cmd.Rocc.core_id;
                        resp_data = data;
                      }))
          in
          Queue.push (beats, span, respond) ci.ci_queue;
          (match t.tracer with
          | Some tr ->
              Trace.sample tr
                ~now:(Desim.Engine.now t.engine)
                (queue_depth_name ci)
                (Queue.length ci.ci_queue)
          | None -> ());
          pump_core t ci
        end
      end
      else begin
        (* arm the reassembly watchdog: if the rest of a multi-beat
           command never lands (a dropped beat), the stale partial is
           torn down so a retry reassembles from a clean slate *)
        match t.fault with
        | None -> ()
        | Some _ ->
            let epoch = ci.ci_partial_epoch in
            Desim.Engine.schedule t.engine
              ~delay:t.policy.Fault.Policy.partial_timeout_ps (fun () ->
                if ci.ci_partial_epoch = epoch && ci.ci_partial <> [] then begin
                  ci.ci_partial <- [];
                  ci.ci_partial_epoch <- ci.ci_partial_epoch + 1;
                  Log.debug (fun m ->
                      m "partial command timed out sys=%d core=%d"
                        cmd.Rocc.system_id cmd.Rocc.core_id)
                end)
      end
    end
  in
  (* the write crosses the MMIO frontend, then the command NoC carries
     the beat to the core *)
  Desim.Engine.schedule t.engine ~delay:mmio_ps (fun () ->
      cmd_noc_send t ~ep_id:ep ~key:ep ~drop_cls:Fault.Class.Noc_cmd_drop
        ~site:
          (Printf.sprintf "cmd beat sys=%d core=%d funct=%d"
             cmd.Rocc.system_id cmd.Rocc.core_id cmd.Rocc.funct)
        ?span deliver)

(* ------------------------------------------------------------------ *)
(* Behavior-facing accessors                                           *)
(* ------------------------------------------------------------------ *)

let core_of_ctx (ctx : ctx) =
  find_core ctx.soc ~system:ctx.system.Config.sys_name ~core:ctx.core_id

let reader ctx ?(idx = 0) name =
  match Hashtbl.find_opt (core_of_ctx ctx).ci_readers name with
  | Some arr when idx < Array.length arr -> arr.(idx)
  | _ -> invalid_arg ("Soc.reader: no channel " ^ name)

let writer ctx ?(idx = 0) name =
  match Hashtbl.find_opt (core_of_ctx ctx).ci_writers name with
  | Some arr when idx < Array.length arr -> arr.(idx)
  | _ -> invalid_arg ("Soc.writer: no channel " ^ name)

let scratchpad ctx name =
  match Hashtbl.find_opt (core_of_ctx ctx).ci_spads name with
  | Some sp -> sp
  | None -> invalid_arg ("Soc.scratchpad: no scratchpad " ^ name)

module Intercore = struct
  type port = {
    p_ctx : ctx;
    p_cfg : Config.intra_core_port;
    mutable p_next_send : int;
  }

  let write port ~target_core ~row ~data ~on_done =
    let ctx = port.p_ctx in
    let t = ctx.soc in
    let target_sys = port.p_cfg.Config.ic_to_system in
    let target =
      try find_core t ~system:target_sys ~core:target_core
      with Invalid_argument _ ->
        invalid_arg "Intercore.write: bad target core"
    in
    let sp =
      match
        Hashtbl.find_opt target.ci_spads port.p_cfg.Config.ic_to_scratchpad
      with
      | Some sp -> sp
      | None -> invalid_arg "Intercore.write: target scratchpad missing"
    in
    if Bytes.length data <> sp.sp_row_bytes then
      invalid_arg "Intercore.write: row width mismatch";
    if row < 0 || row >= sp.sp_cfg.Config.sp_n_datas then
      invalid_arg "Intercore.write: row out of range";
    (* route: source core -> fabric root -> target core, one write per
       cycle per channel *)
    let src_ep =
      Elaborate.cmd_endpoint t.design ~system:ctx.system.Config.sys_name
        ~core:ctx.core_id
    in
    let dst_ep =
      Elaborate.cmd_endpoint t.design ~system:target_sys ~core:target_core
    in
    let latency =
      Noc.latency_ps t.design.Elaborate.cmd_noc ~ep_id:src_ep
      + Noc.latency_ps t.design.Elaborate.cmd_noc ~ep_id:dst_ep
    in
    let now = Desim.Engine.now ctx.engine in
    let start = max now port.p_next_send in
    port.p_next_send <- start + ctx.clock_ps;
    Desim.Engine.schedule_at ctx.engine ~time:(start + latency) (fun () ->
        Scratchpad.set sp row data;
        on_done ())
end

let intercore_out (ctx : ctx) name =
  match
    List.find_opt
      (fun ic -> ic.Config.ic_name = name)
      ctx.system.Config.intra_core_ports
  with
  | Some cfg -> { Intercore.p_ctx = ctx; p_cfg = cfg; p_next_send = 0 }
  | None -> invalid_arg ("Soc.intercore_out: no port " ^ name)

let after_cycles (ctx : ctx) n k =
  Desim.Engine.schedule ctx.engine ~delay:(n * ctx.clock_ps) k

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let stats_report t =
  let buf = Buffer.create 512 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let now = Desim.Engine.now t.engine in
  pr "SoC statistics after %.3f us simulated:\n" (float_of_int now /. 1e6);
  pr "  DRAM: %d B read, %d B written, %.2f GB/s achieved, %d row hits / %d misses\n"
    (Dram.bytes_read t.dram) (Dram.bytes_written t.dram)
    (Dram.achieved_bandwidth_gbs t.dram)
    (Dram.row_hits t.dram) (Dram.row_misses t.dram);
  let reads =
    Array.fold_left (fun acc p -> acc + Axi.reads_issued p) 0 t.axi_ports
  in
  let writes =
    Array.fold_left (fun acc p -> acc + Axi.writes_issued p) 0 t.axi_ports
  in
  pr "  AXI: %d read txns, %d write txns over %d port(s)" reads writes
    (Array.length t.axi_ports);
  (* read latency over every port: mean = total / count, max of maxima *)
  let n, total, worst =
    Array.fold_left
      (fun ((n, total, worst) as acc) p ->
        match Desim.Stats.summarize_opt (Axi.read_latency p) with
        | Some s ->
            ( n + s.Desim.Stats.n,
              total +. s.Desim.Stats.total,
              Float.max worst s.Desim.Stats.max )
        | None -> acc)
      (0, 0., 0.) t.axi_ports
  in
  if n > 0 then
    pr ", read latency mean %.0f ns (max %.0f)"
      (total /. float_of_int n /. 1000.)
      (worst /. 1000.);
  pr "\n";
  pr "  NoC: %d command messages, %d memory-fabric buffers\n"
    (Noc.messages_sent t.design.Elaborate.cmd_noc)
    (Noc.n_buffers t.design.Elaborate.mem_noc);
  if t.ace_snoop_ps > 0 then
    pr "  ACE: %d coherent transactions (%d ps snoop each)\n"
      t.coherent_txns t.ace_snoop_ps;
  (match t.fault with
  | None -> ()
  | Some inj ->
      pr "  faults: %s\n" (Fault.Injector.counters_line inj);
      let ecc = Fault.Injector.ecc inj in
      pr "  ECC: %d corrected, %d uncorrectable\n" (Fault.Ecc.corrected ecc)
        (Fault.Ecc.uncorrectable ecc));
  Buffer.contents buf

let coherent_transactions t = t.coherent_txns
