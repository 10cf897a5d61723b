(* Bridge between an RTL core (Hw.Sim, compiled backend by default) and
   the transaction-level SoC: the composer-generated glue a Beethoven
   user never writes by hand. *)

(* Device memory or a scratchpad row as one bitvector: the bytes go
   into [buf] most-significant first and [Bits.concat_ints] packs them,
   so the only allocation is the result. [widths] holds one 8 per entry
   of [buf]. *)
let bits_of_mem soc ~widths buf addr =
  let n = Array.length buf in
  for i = 0 to n - 1 do
    buf.(i) <- Soc.read_u8 soc (addr + (n - 1 - i))
  done;
  Bits.concat_ints ~widths buf

(* zero-extended or truncated to [buf]'s length, as [Bits.resize] *)
let bits_of_row ~widths buf row =
  let n = Array.length buf and len = Bytes.length row in
  for i = 0 to n - 1 do
    let k = n - 1 - i in
    buf.(i) <- (if k < len then Char.code (Bytes.get row k) else 0)
  done;
  Bits.concat_ints ~widths buf

let mem_of_bits soc addr b =
  let n_bytes = Bits.width b / 8 in
  for i = 0 to n_bytes - 1 do
    Soc.write_u8 soc (addr + i)
      (Bits.to_int (Bits.slice b ~hi:((8 * i) + 7) ~lo:(8 * i)))
  done

(* An input the netlist may have constant-folded away: [None] is never
   driven. Port names are resolved once per core, not per cycle. *)
type in_port = string option

let drive sim (p : in_port) v =
  match p with Some name -> Hw.Sim.set_input sim name v | None -> ()

let drive_int sim (p : in_port) v =
  match p with Some name -> Hw.Sim.set_input_int sim name v | None -> ()

type read_bridge = {
  rb_reader : Soc.Reader.r;
  rb_items : int Queue.t; (* offsets whose data has arrived *)
  rb_req_ready : in_port;
  rb_data_valid : in_port;
  rb_data : in_port;
  rb_req_valid : string;
  rb_req_addr : string;
  rb_req_len : string;
  rb_data_ready : string;
  rb_widths : int array; (* one 8 per data byte *)
  rb_buf : int array;
  mutable rb_base : int; (* base address of the active stream *)
  mutable rb_presented : bool; (* data_valid currently asserted *)
  mutable rb_active : bool; (* a stream is in flight *)
}

type write_bridge = {
  wb_writer : Soc.Writer.w;
  wb_req_ready : in_port;
  wb_data_ready : in_port;
  wb_req_valid : string;
  wb_req_addr : string;
  wb_req_len : string;
  wb_data_valid : string;
  wb_data : string;
  mutable wb_base : int;
  mutable wb_offset : int;
  mutable wb_open : bool; (* a transaction is open *)
  mutable wb_done : bool; (* last opened txn fully responded *)
  mutable wb_unacked : int; (* pushes not yet accepted by the writer *)
}

type spad_bridge = {
  sb_name : string;
  sb_spad : Soc.Scratchpad.sp;
  sb_rd_addr : string;
  sb_rd_data : string;
  sb_addr_fast : bool; (* rd_addr fits Hw.Sim.output_int *)
  sb_widths : int array; (* one 8 per row byte *)
  sb_buf : int array;
  mutable sb_addr : int; (* the address this cycle's row was read at *)
}

type core_state = {
  sim : Hw.Sim.t;
  sys_name : string;
  core_id : int;
  req_valid : in_port;
  req_funct : in_port;
  req_p1 : in_port;
  req_p2 : in_port;
  resp_ready : in_port;
  reads : read_bridge list;
  writes : write_bridge list;
  spads : spad_bridge list;
}

let input_exists circuit name =
  List.mem_assoc name (Hw.Circuit.inputs circuit)

let output_exists circuit name =
  List.mem_assoc name (Hw.Circuit.outputs circuit)

let require_port circuit ~dir name =
  let ok =
    match dir with
    | `In -> input_exists circuit name
    | `Out -> output_exists circuit name
  in
  if not ok then
    failwith
      (Printf.sprintf "Rtl_core: circuit %s is missing %s port %S"
         (Hw.Circuit.name circuit)
         (match dir with `In -> "input" | `Out -> "output")
         name)

(* Outputs are mandatory (the fabric samples them); unconsumed inputs are
   constant-folded out of the user's netlist and simply aren't driven. *)
let validate circuit (sys : Config.system) =
  List.iter (require_port circuit ~dir:`Out)
    [ "req_ready"; "resp_valid"; "resp_data" ];
  List.iter
    (fun (rc : Config.channel) ->
      let c = rc.Config.ch_name in
      List.iter (require_port circuit ~dir:`Out)
        [ c ^ "_req_valid"; c ^ "_req_addr"; c ^ "_req_len"; c ^ "_data_ready" ])
    sys.Config.read_channels;
  List.iter
    (fun (wc : Config.channel) ->
      let c = wc.Config.ch_name in
      List.iter (require_port circuit ~dir:`Out)
        [
          c ^ "_req_valid"; c ^ "_req_addr"; c ^ "_req_len"; c ^ "_data_valid";
          c ^ "_data";
        ])
    sys.Config.write_channels

(* The bridge state of one core: its simulator and port bindings. *)
let make_state ?backend ~build (ctx : Soc.ctx) =
  let circuit = build () in
  validate circuit ctx.Soc.system;
  let sim = Hw.Sim.create ?backend circuit in
  let in_port name : in_port =
    if input_exists circuit name then Some name else None
  in
  let bytes_widths n = Array.make n 8 in
  let reads =
    List.map
      (fun (rc : Config.channel) ->
        let c = rc.Config.ch_name in
        {
          rb_reader = Soc.reader ctx c;
          rb_items = Queue.create ();
          rb_req_ready = in_port (c ^ "_req_ready");
          rb_data_valid = in_port (c ^ "_data_valid");
          rb_data = in_port (c ^ "_data");
          rb_req_valid = c ^ "_req_valid";
          rb_req_addr = c ^ "_req_addr";
          rb_req_len = c ^ "_req_len";
          rb_data_ready = c ^ "_data_ready";
          rb_widths = bytes_widths rc.Config.ch_data_bytes;
          rb_buf = Array.make rc.Config.ch_data_bytes 0;
          rb_base = 0;
          rb_presented = false;
          rb_active = false;
        })
      ctx.Soc.system.Config.read_channels
  in
  let writes =
    List.map
      (fun (wc : Config.channel) ->
        let c = wc.Config.ch_name in
        {
          wb_writer = Soc.writer ctx c;
          wb_req_ready = in_port (c ^ "_req_ready");
          wb_data_ready = in_port (c ^ "_data_ready");
          wb_req_valid = c ^ "_req_valid";
          wb_req_addr = c ^ "_req_addr";
          wb_req_len = c ^ "_req_len";
          wb_data_valid = c ^ "_data_valid";
          wb_data = c ^ "_data";
          wb_base = 0;
          wb_offset = 0;
          wb_open = false;
          wb_done = true;
          wb_unacked = 0;
        })
      ctx.Soc.system.Config.write_channels
  in
  (* scratchpads with RTL read ports: <name>_rd_addr / <name>_rd_data *)
  let spads =
    List.filter_map
      (fun (sp : Config.scratchpad) ->
        let nm = sp.Config.sp_name in
        let rd_addr = nm ^ "_rd_addr" and rd_data = nm ^ "_rd_data" in
        match List.assoc_opt rd_addr (Hw.Circuit.outputs circuit) with
        | None -> None
        | Some addr ->
            if not (input_exists circuit rd_data) then
              failwith
                (Printf.sprintf
                   "Rtl_core: %s_rd_addr without a %s_rd_data input" nm nm);
            let row_bytes = (sp.Config.sp_data_bits + 7) / 8 in
            Some
              {
                sb_name = nm;
                sb_spad = Soc.scratchpad ctx nm;
                sb_rd_addr = rd_addr;
                sb_rd_data = rd_data;
                sb_addr_fast = Hw.Signal.width addr <= 62;
                sb_widths = bytes_widths row_bytes;
                sb_buf = Array.make row_bytes 0;
                sb_addr = 0;
              })
      ctx.Soc.system.Config.scratchpads
  in
  {
    sim;
    sys_name = ctx.Soc.system.Config.sys_name;
    core_id = ctx.Soc.core_id;
    req_valid = in_port "req_valid";
    req_funct = in_port "req_funct";
    req_p1 = in_port "req_p1";
    req_p2 = in_port "req_p2";
    resp_ready = in_port "resp_ready";
    reads;
    writes;
    spads;
  }

let high sim name = Hw.Sim.output_int sim name = 1

let spad_addr sim sb =
  if sb.sb_addr_fast then Hw.Sim.output_int sim sb.sb_rd_addr
  else Bits.to_int_trunc (Hw.Sim.output sim sb.sb_rd_addr)

(* Scratchpad read ports are asynchronous. Every address is read off the
   settled netlist first, then every row is driven, then one settle
   propagates the data; an unchanged row leaves the simulator settled
   and costs nothing. This is sound only while no address depends
   combinationally on returned data, so each address is read again after
   the settle, and a netlist that moved one is rejected: its answer would
   depend on the order the ports were served in. *)
let serve_scratchpads st =
  let sim = st.sim in
  List.iter (fun sb -> sb.sb_addr <- spad_addr sim sb) st.spads;
  List.iter
    (fun sb ->
      let depth = Soc.Scratchpad.depth sb.sb_spad in
      let row = if sb.sb_addr < depth then sb.sb_addr else 0 in
      Hw.Sim.set_input sim sb.sb_rd_data
        (bits_of_row ~widths:sb.sb_widths sb.sb_buf
           (Soc.Scratchpad.get sb.sb_spad row)))
    st.spads;
  Hw.Sim.settle sim;
  List.iter
    (fun sb ->
      let now = spad_addr sim sb in
      if now <> sb.sb_addr then
        failwith
          (Printf.sprintf
             "Rtl_core: system %s core %d, scratchpad %s: %s moved from %d \
              to %d once %s was driven; a scratchpad read address must not \
              depend combinationally on the read data"
             st.sys_name st.core_id sb.sb_name sb.sb_rd_addr sb.sb_addr now
             sb.sb_rd_data))
    st.spads

(* The netlist is built and compiled on the core's first command, when
   the SoC around it is complete. *)
let behavior ?backend ~build () : Soc.behavior =
 fun ctx ->
  let st = lazy (make_state ?backend ~build ctx) in
  fun beats ~respond ->
  let st = Lazy.force st in
  let sim = st.sim in
  let soc = ctx.Soc.soc in
  let pending_beats = ref beats in
  let resp_data = ref 0L in
  let responded = ref false in
  let budget = ref 10_000_000 in
  let rec cycle () =
    decr budget;
    if !budget <= 0 then
      failwith "Rtl_core: core never responded (cycle budget exhausted)";
    (* -- drive inputs for this cycle; unchanged values cost nothing -- *)
    (match !pending_beats with
    | beat :: _ ->
        drive_int sim st.req_valid 1;
        drive_int sim st.req_funct beat.Rocc.funct;
        drive sim st.req_p1 (Bits.of_int64 ~width:64 beat.Rocc.payload1);
        drive sim st.req_p2 (Bits.of_int64 ~width:64 beat.Rocc.payload2)
    | [] -> drive_int sim st.req_valid 0);
    drive_int sim st.resp_ready 1;
    List.iter
      (fun rb ->
        (* request port accepted only while the Reader is idle; streams
           are serialized per channel like the hardware Reader *)
        drive_int sim rb.rb_req_ready (if rb.rb_active then 0 else 1);
        if Queue.is_empty rb.rb_items then begin
          drive_int sim rb.rb_data_valid 0;
          rb.rb_presented <- false
        end
        else begin
          drive_int sim rb.rb_data_valid 1;
          drive sim rb.rb_data
            (bits_of_mem soc ~widths:rb.rb_widths rb.rb_buf
               (rb.rb_base + Queue.peek rb.rb_items));
          rb.rb_presented <- true
        end)
      st.reads;
    List.iter
      (fun wb ->
        drive_int sim wb.wb_req_ready (if wb.wb_open then 0 else 1);
        drive_int sim wb.wb_data_ready
          (if wb.wb_open && wb.wb_unacked < 4 then 1 else 0))
      st.writes;
    Hw.Sim.settle sim;
    if st.spads <> [] then serve_scratchpads st;
    (* -- sample handshakes that fire at this edge -- *)
    let req_fired = high sim "req_ready" && !pending_beats <> [] in
    List.iter
      (fun rb ->
        if (not rb.rb_active) && high sim rb.rb_req_valid then begin
          let addr = Bits.to_int_trunc (Hw.Sim.output sim rb.rb_req_addr) in
          let len = Bits.to_int_trunc (Hw.Sim.output sim rb.rb_req_len) in
          rb.rb_base <- addr;
          rb.rb_active <- true;
          Soc.Reader.stream rb.rb_reader ~addr ~bytes:len
            ~on_item:(fun ~offset -> Queue.push offset rb.rb_items)
            ~on_done:(fun () -> rb.rb_active <- false)
            ()
        end;
        if rb.rb_presented && high sim rb.rb_data_ready then
          ignore (Queue.pop rb.rb_items))
      st.reads;
    List.iter
      (fun wb ->
        if (not wb.wb_open) && high sim wb.wb_req_valid then begin
          let addr = Bits.to_int_trunc (Hw.Sim.output sim wb.wb_req_addr) in
          let len = Bits.to_int_trunc (Hw.Sim.output sim wb.wb_req_len) in
          wb.wb_open <- true;
          wb.wb_done <- false;
          wb.wb_base <- addr;
          wb.wb_offset <- 0;
          Soc.Writer.begin_txn wb.wb_writer ~addr ~bytes:len
            ~on_done:(fun () ->
              wb.wb_open <- false;
              wb.wb_done <- true)
        end
        else if
          wb.wb_open && wb.wb_unacked < 4 && high sim wb.wb_data_valid
        then begin
          let data = Hw.Sim.output sim wb.wb_data in
          mem_of_bits soc (wb.wb_base + wb.wb_offset) data;
          wb.wb_offset <- wb.wb_offset + (Bits.width data / 8);
          wb.wb_unacked <- wb.wb_unacked + 1;
          Soc.Writer.push wb.wb_writer
            ~on_accept:(fun () -> wb.wb_unacked <- wb.wb_unacked - 1)
        end)
      st.writes;
    if high sim "resp_valid" && not !responded then begin
      resp_data := Bits.to_int64 (Hw.Sim.output sim "resp_data");
      responded := true
    end;
    Hw.Sim.step sim;
    if req_fired then pending_beats := List.tl !pending_beats;
    (* -- done? -- *)
    let writes_settled = List.for_all (fun wb -> wb.wb_done) st.writes in
    if !responded && writes_settled then respond !resp_data
    else Desim.Engine.schedule ctx.Soc.engine ~delay:ctx.Soc.clock_ps cycle
  in
  cycle ()
