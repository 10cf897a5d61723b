module Config = struct
  type t = {
    name : string;
    tck_ps : int;
    cl : int;
    trcd : int;
    trp : int;
    tras : int;
    tccd : int;
    tburst : int;
    tturnaround : int;
    trefi : int;
    trfc : int;
    bus_bytes : int;
    row_bytes : int;
    n_banks : int;
    n_channels : int;
  }

  let ddr4_2400 =
    {
      name = "DDR4-2400";
      tck_ps = 833;
      cl = 17;
      trcd = 17;
      trp = 17;
      tras = 39;
      tccd = 6;
      tburst = 4;
      tturnaround = 8;
      trefi = 9363 (* 7.8 us *);
      trfc = 420 (* ~350 ns *);
      bus_bytes = 8;
      row_bytes = 8192;
      n_banks = 16;
      n_channels = 1;
    }

  let ddr4_2400_quad = { ddr4_2400 with name = "4x DDR4-2400"; n_channels = 4 }
  let burst_bytes t = t.bus_bytes * 8

  let peak_bandwidth_gbs t =
    let bytes_per_ps =
      float_of_int (burst_bytes t * t.n_channels)
      /. float_of_int (t.tburst * t.tck_ps)
    in
    bytes_per_ps *. 1000.
end

type dir = Read | Write

type bank = { mutable open_row : int; mutable ready_at : int }
(* open_row = -1 when closed *)

type channel = {
  banks : bank array;
  mutable bus_free_at : int;
  mutable last_dir : dir option;
  mutable next_refresh_at : int;
}

type t = {
  engine : Desim.Engine.t;
  cfg : Config.t;
  channels : channel array;
  mutable bytes_read : int;
  mutable bytes_written : int;
  mutable row_hits : int;
  mutable row_misses : int;
  mutable bank_conflicts : int; (* command stalled on a busy bank *)
  mutable first_traffic_at : int option;
  mutable tracer : Trace.t option;
  mutable last_traffic_at : int;
  (* fired at each device burst's data completion time, before the
     requester's [on_chunk] — the ECC / fault-injection tap point *)
  mutable burst_hook : (addr:int -> bytes:int -> dir:dir -> unit) option;
}

let create engine cfg =
  let channel () =
    {
      banks = Array.init cfg.Config.n_banks (fun _ -> { open_row = -1; ready_at = 0 });
      bus_free_at = 0;
      last_dir = None;
      next_refresh_at = cfg.Config.trefi * cfg.Config.tck_ps;
    }
  in
  {
    engine;
    cfg;
    channels = Array.init cfg.Config.n_channels (fun _ -> channel ());
    bytes_read = 0;
    bytes_written = 0;
    row_hits = 0;
    row_misses = 0;
    bank_conflicts = 0;
    first_traffic_at = None;
    tracer = None;
    last_traffic_at = 0;
    burst_hook = None;
  }

let config t = t.cfg
let set_burst_hook t f = t.burst_hook <- Some f
let set_tracer t tr = t.tracer <- Some tr

(* Address mapping: burst | channel | bank | row. Interleaving channels and
   banks at burst granularity spreads streams for parallelism, like the
   default DRAMsim3 mapping. *)
let map_addr t addr =
  let cfg = t.cfg in
  let burst = addr / Config.burst_bytes cfg in
  let chan = burst mod cfg.n_channels in
  let burst = burst / cfg.n_channels in
  let bank = burst mod cfg.n_banks in
  let col_bursts_per_row = max 1 (cfg.row_bytes / Config.burst_bytes cfg) in
  let row = burst / cfg.n_banks / col_bursts_per_row in
  (chan, bank, row)

(* Schedule one device burst; returns its data completion time. *)
let schedule_burst t ~addr ~dir =
  let cfg = t.cfg in
  let chan_i, bank_i, row = map_addr t addr in
  let ch = t.channels.(chan_i) in
  let bank = ch.banks.(bank_i) in
  let now = Desim.Engine.now t.engine in
  let ck n = n * cfg.tck_ps in
  (* refreshes that have already elapsed close every row before this
     command is classified as a hit or miss *)
  if cfg.trfc > 0 then
    while ch.next_refresh_at <= now do
      let refresh_end = ch.next_refresh_at + ck cfg.trfc in
      if ch.bus_free_at < refresh_end then ch.bus_free_at <- refresh_end;
      ch.next_refresh_at <- ch.next_refresh_at + ck cfg.trefi;
      Array.iter (fun b -> b.open_row <- -1) ch.banks
    done;
  if bank.ready_at > now then t.bank_conflicts <- t.bank_conflicts + 1;
  let t_cmd = max now bank.ready_at in
  let t_col_ready =
    if bank.open_row = row then begin
      t.row_hits <- t.row_hits + 1;
      t_cmd
    end
    else begin
      t.row_misses <- t.row_misses + 1;
      let precharge = if bank.open_row >= 0 then ck cfg.trp else 0 in
      bank.open_row <- row;
      t_cmd + precharge + ck cfg.trcd
    end
  in
  let turnaround =
    match ch.last_dir with
    | Some d when d <> dir -> ck cfg.tturnaround
    | _ -> 0
  in
  let data_start =
    ref (max (t_col_ready + ck cfg.cl) (ch.bus_free_at + turnaround))
  in
  (* all-bank refresh: every tREFI the channel stalls for tRFC and every
     row closes *)
  if cfg.trfc > 0 then
    while ch.next_refresh_at <= !data_start do
      let refresh_end = ch.next_refresh_at + ck cfg.trfc in
      if !data_start < refresh_end then data_start := refresh_end;
      ch.next_refresh_at <- ch.next_refresh_at + ck cfg.trefi;
      Array.iter (fun b -> b.open_row <- -1) ch.banks
    done;
  let data_start = !data_start in
  let data_end = data_start + ck cfg.tburst in
  ch.bus_free_at <- data_end;
  ch.last_dir <- Some dir;
  bank.ready_at <- t_col_ready + ck cfg.tccd;
  let bytes = Config.burst_bytes cfg in
  (match dir with
  | Read -> t.bytes_read <- t.bytes_read + bytes
  | Write -> t.bytes_written <- t.bytes_written + bytes);
  if t.first_traffic_at = None then t.first_traffic_at <- Some now;
  if data_end > t.last_traffic_at then t.last_traffic_at <- data_end;
  data_end

let submit t ~addr ~bytes ~dir ?on_chunk ~on_complete ?span () =
  if bytes <= 0 then invalid_arg "Dram.submit: bytes must be positive";
  let chunk_size = Config.burst_bytes t.cfg in
  let n_chunks = ((bytes - 1) / chunk_size) + 1 in
  let hits0 = t.row_hits
  and misses0 = t.row_misses
  and conflicts0 = t.bank_conflicts in
  (* Bursts of one request target sequential addresses; schedule them all
     now — the per-channel bus and per-bank state serialize them in time.
     Within a request, completions are forced monotone and scheduled in
     chunk order, so they fire in chunk order: one closure per request
     walks the chunks with a counter instead of one closure per chunk. *)
  let next_chunk = ref 0 in
  let complete_chunk () =
    let chunk = !next_chunk in
    next_chunk := chunk + 1;
    (match t.burst_hook with
    | Some f -> f ~addr:(addr + (chunk * chunk_size)) ~bytes:chunk_size ~dir
    | None -> ());
    (match on_chunk with Some f -> f ~chunk | None -> ());
    if chunk = n_chunks - 1 then on_complete ()
  in
  let last_end = ref 0 in
  for chunk = 0 to n_chunks - 1 do
    let chunk_addr = addr + (chunk * chunk_size) in
    let data_end = max (schedule_burst t ~addr:chunk_addr ~dir) !last_end in
    last_end := data_end;
    Desim.Engine.schedule_at t.engine ~time:data_end complete_chunk
  done;
  (* All bank/bus timing resolved synchronously above, so the trace span
     for the whole request can be recorded here with its final end time
     and the row-hit/miss/conflict deltas it produced. *)
  match t.tracer with
  | None -> ()
  | Some tr ->
      let now = Desim.Engine.now t.engine in
      let dir_s = match dir with Read -> "rd" | Write -> "wr" in
      let sp =
        Trace.begin_span tr ~now ?parent:span ~track:"dram" ~cat:"dram"
          ~name:(Printf.sprintf "%s 0x%x %dB" dir_s addr bytes)
          ()
      in
      let hits = t.row_hits - hits0
      and misses = t.row_misses - misses0
      and conflicts = t.bank_conflicts - conflicts0 in
      Trace.add_arg tr sp "row_hits" (Trace.Int hits);
      Trace.add_arg tr sp "row_misses" (Trace.Int misses);
      if conflicts > 0 then
        Trace.add_arg tr sp "bank_conflicts" (Trace.Int conflicts);
      Trace.add tr "dram.row_hits" hits;
      Trace.add tr "dram.row_misses" misses;
      Trace.add tr "dram.bank_conflicts" conflicts;
      Trace.end_span tr ~now:!last_end sp

let bytes_read t = t.bytes_read
let bytes_written t = t.bytes_written
let row_hits t = t.row_hits
let row_misses t = t.row_misses
let bank_conflicts t = t.bank_conflicts

let achieved_bandwidth_gbs t =
  match t.first_traffic_at with
  | None -> 0.
  | Some start ->
      let elapsed = t.last_traffic_at - start in
      if elapsed <= 0 then 0.
      else
        float_of_int (t.bytes_read + t.bytes_written)
        /. float_of_int elapsed *. 1000.
