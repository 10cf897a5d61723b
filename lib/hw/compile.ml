(* Compiled cycle-accurate simulator: the Levelize.t array specialized at
   create time into one closure per node over dense slot-indexed value
   arrays. Signals of width <= 62 live in a plain int array (OCaml's
   63-bit int, masked, so the stored value is always the canonical
   non-negative bitvector); wider signals fall back to Bits.t limbs. The
   evaluation model is Cyclesim's: settle in slot order (dependencies
   always resolve to lower slots), then latch — registers
   read-before-write, synchronous memory reads latch the pre-write
   contents, memory writes commit last. *)

open Signal

let fast_width = 62
let mask_of w = if w >= 62 then max_int else (1 lsl w) - 1

type mem_store = M_fast of int array | M_wide of Bits.t array

type t = {
  lv : Levelize.t;
  widths : int array; (* per-slot signal width *)
  fast : bool array; (* per-slot: value lives in [ivals]? *)
  ivals : int array; (* settled values, single-word slots *)
  wvals : Bits.t array; (* settled values, wide slots *)
  prog : (unit -> unit) array; (* settle program, slot order *)
  latch : (unit -> unit) array; (* buffer next reg/sync values *)
  commit : (unit -> unit) array; (* mem writes, then reg/sync state *)
  in_slots : (string, int list) Hashtbl.t; (* input name -> its slots *)
  out_slots : (string, int) Hashtbl.t; (* output name -> its slot *)
  mems : (int, mem_store) Hashtbl.t; (* mem uid -> contents *)
  mutable cycle : int;
  mutable settled : bool;
}

let bits_of_fast ~width v = Bits.of_int ~width v

let create circuit =
  let lv = Levelize.of_circuit circuit in
  let nodes = Levelize.nodes lv in
  let n = Array.length nodes in
  let widths = Array.map (fun nd -> width nd.Levelize.n_signal) nodes in
  let fast = Array.map (fun w -> w <= fast_width) widths in
  let ivals = Array.make n 0 in
  let wvals =
    Array.init n (fun i -> if fast.(i) then Bits.zero 0 else Bits.zero widths.(i))
  in
  let mems = Hashtbl.create 8 in
  List.iter
    (fun m ->
      Hashtbl.add mems (mem_uid m)
        (if mem_width m <= fast_width then M_fast (Array.make (mem_size m) 0)
         else M_wide (Array.make (mem_size m) (Bits.zero (mem_width m)))))
    (Circuit.memories circuit);
  (* exact for widths <= 62 after canonicalization *)
  let to_fast b = Bits.to_int_trunc b in
  let read_int slot =
    if fast.(slot) then fun () -> ivals.(slot)
    else fun () -> Bits.to_int_trunc wvals.(slot)
  in
  let read_bits slot =
    if fast.(slot) then
      let w = widths.(slot) in
      fun () -> bits_of_fast ~width:w ivals.(slot)
    else fun () -> wvals.(slot)
  in
  let prog = ref [] in
  let emit f = prog := f :: !prog in
  let latches = ref [] in
  let commits = ref [] in
  let in_slots = Hashtbl.create 8 in
  Array.iter
    (fun nd ->
      let g = nd.Levelize.n_signal in
      let s = nd.Levelize.n_slot in
      let deps = nd.Levelize.n_deps in
      let w = widths.(s) in
      let m = mask_of w in
      match kind g with
      | Const b -> if fast.(s) then ivals.(s) <- to_fast b else wvals.(s) <- b
      | Input name ->
          Hashtbl.replace in_slots name
            (s :: Option.value ~default:[] (Hashtbl.find_opt in_slots name))
      | Wire r -> (
          match !r with
          | None ->
              invalid_arg
                ("Hw.Compile.create: unconnected wire: " ^ Circuit.describe g)
          | Some _ ->
              let d = deps.(0) in
              if fast.(s) then emit (fun () -> ivals.(s) <- ivals.(d))
              else emit (fun () -> wvals.(s) <- wvals.(d)))
      | Op2 (op, _, _) ->
          let a = deps.(0) and b = deps.(1) in
          if fast.(a) then (
            match op with
            | Add -> emit (fun () -> ivals.(s) <- (ivals.(a) + ivals.(b)) land m)
            | Sub -> emit (fun () -> ivals.(s) <- (ivals.(a) - ivals.(b)) land m)
            | Mul -> emit (fun () -> ivals.(s) <- ivals.(a) * ivals.(b) land m)
            | And -> emit (fun () -> ivals.(s) <- ivals.(a) land ivals.(b))
            | Or -> emit (fun () -> ivals.(s) <- ivals.(a) lor ivals.(b))
            | Xor -> emit (fun () -> ivals.(s) <- ivals.(a) lxor ivals.(b))
            | Eq ->
                emit (fun () ->
                    ivals.(s) <- (if ivals.(a) = ivals.(b) then 1 else 0))
            | Lt ->
                emit (fun () ->
                    ivals.(s) <- (if ivals.(a) < ivals.(b) then 1 else 0)))
          else (
            match op with
            | Add -> emit (fun () -> wvals.(s) <- Bits.add wvals.(a) wvals.(b))
            | Sub -> emit (fun () -> wvals.(s) <- Bits.sub wvals.(a) wvals.(b))
            | Mul -> emit (fun () -> wvals.(s) <- Bits.mul wvals.(a) wvals.(b))
            | And ->
                emit (fun () -> wvals.(s) <- Bits.logand wvals.(a) wvals.(b))
            | Or -> emit (fun () -> wvals.(s) <- Bits.logor wvals.(a) wvals.(b))
            | Xor ->
                emit (fun () -> wvals.(s) <- Bits.logxor wvals.(a) wvals.(b))
            | Eq ->
                emit (fun () ->
                    ivals.(s) <- (if Bits.equal wvals.(a) wvals.(b) then 1 else 0))
            | Lt ->
                emit (fun () ->
                    ivals.(s) <- (if Bits.lt wvals.(a) wvals.(b) then 1 else 0)))
      | Not _ ->
          let a = deps.(0) in
          if fast.(s) then
            emit (fun () -> ivals.(s) <- Stdlib.lnot ivals.(a) land m)
          else emit (fun () -> wvals.(s) <- Bits.lognot wvals.(a))
      | Shift (dir, k, _) -> (
          let a = deps.(0) in
          if fast.(s) then
            if k = 0 then emit (fun () -> ivals.(s) <- ivals.(a))
            else if k >= w then (
              match dir with
              | Sll | Srl -> emit (fun () -> ivals.(s) <- 0)
              | Sra ->
                  let sign_bit = 1 lsl (w - 1) in
                  emit (fun () ->
                      ivals.(s) <-
                        (if ivals.(a) land sign_bit <> 0 then m else 0)))
            else
              match dir with
              | Sll -> emit (fun () -> ivals.(s) <- ivals.(a) lsl k land m)
              | Srl -> emit (fun () -> ivals.(s) <- ivals.(a) lsr k)
              | Sra ->
                  (* sign-extend into the 63-bit word, shift, re-mask *)
                  let up = 63 - w in
                  emit (fun () ->
                      ivals.(s) <- (ivals.(a) lsl up) asr (up + k) land m)
          else
            match dir with
            | Sll -> emit (fun () -> wvals.(s) <- Bits.shift_left wvals.(a) k)
            | Srl -> emit (fun () -> wvals.(s) <- Bits.shift_right wvals.(a) k)
            | Sra ->
                emit (fun () -> wvals.(s) <- Bits.shift_right_arith wvals.(a) k))
      | Mux _ ->
          let sel = deps.(0) in
          let cases = Array.sub deps 1 (Array.length deps - 1) in
          let nc = Array.length cases in
          if fast.(s) then
            if nc = 2 && fast.(sel) && widths.(sel) = 1 then (
              let c0 = cases.(0) and c1 = cases.(1) in
              emit (fun () ->
                  ivals.(s) <- (if ivals.(sel) = 0 then ivals.(c0) else ivals.(c1))))
            else
              let read_sel = read_int sel in
              emit (fun () ->
                  let i = read_sel () in
                  ivals.(s) <- ivals.(cases.(if i >= nc then nc - 1 else i)))
          else
            let read_sel = read_int sel in
            emit (fun () ->
                let i = read_sel () in
                wvals.(s) <- wvals.(cases.(if i >= nc then nc - 1 else i)))
      | Select (hi, lo, _) ->
          let a = deps.(0) in
          if fast.(s) then
            if fast.(a) then emit (fun () -> ivals.(s) <- ivals.(a) lsr lo land m)
            else emit (fun () -> ivals.(s) <- Bits.extract_int wvals.(a) ~lo ~width:w)
          else emit (fun () -> wvals.(s) <- Bits.slice wvals.(a) ~hi ~lo)
      | Concat _ ->
          (* head of the list = most-significant bits *)
          let k = Array.length deps in
          let d0 = deps.(0) in
          if fast.(s) && k > 1 && Array.for_all (( = ) d0) deps then (
            (* repeat/sext: k copies of one slot. The part is below 2^pw,
               so the product with the repunit sum_i 2^(i*pw) puts each
               copy in its own field without carries, and k*pw = w <= 62
               keeps it inside the int: one multiply, exact. *)
            let pw = widths.(d0) in
            let repunit = ref 0 in
            for i = 0 to k - 1 do
              repunit := !repunit lor (1 lsl (i * pw))
            done;
            let repunit = !repunit in
            emit (fun () -> ivals.(s) <- ivals.(d0) * repunit))
          else if fast.(s) && k = 2 then (
            let d1 = deps.(1) in
            let sh = widths.(d1) in
            emit (fun () -> ivals.(s) <- (ivals.(d0) lsl sh) lor ivals.(d1)))
          else if fast.(s) then (
            let shifts = Array.make k 0 in
            let off = ref 0 in
            for i = k - 1 downto 0 do
              shifts.(i) <- !off;
              off := !off + widths.(deps.(i))
            done;
            emit (fun () ->
                let v = ref 0 in
                for i = 0 to k - 1 do
                  v := !v lor (ivals.(deps.(i)) lsl shifts.(i))
                done;
                ivals.(s) <- !v))
          else if Array.for_all (fun d -> fast.(d)) deps then (
            (* a wide result of single-word parts: gather the ints into a
               reused buffer and build the result in one allocation *)
            let part_widths = Array.map (fun d -> widths.(d)) deps in
            let parts = Array.make k 0 in
            emit (fun () ->
                for i = 0 to k - 1 do
                  parts.(i) <- ivals.(deps.(i))
                done;
                wvals.(s) <- Bits.concat_ints ~widths:part_widths parts))
          else
            let getters = List.map read_bits (Array.to_list deps) in
            emit (fun () ->
                wvals.(s) <- Bits.concat_list (List.map (fun f -> f ()) getters))
      | Mem_read_async (mm, _) ->
          let read_addr = read_int deps.(0) in
          let size = mem_size mm in
          (match Hashtbl.find mems (mem_uid mm) with
          | M_fast arr ->
              emit (fun () ->
                  let a = read_addr () in
                  ivals.(s) <- (if a < size then arr.(a) else 0))
          | M_wide arr ->
              let z = Bits.zero (mem_width mm) in
              emit (fun () ->
                  let a = read_addr () in
                  wvals.(s) <- (if a < size then arr.(a) else z)))
      | Reg spec ->
          let ds = Levelize.slot_of lv spec.d in
          let enabled =
            match spec.enable with
            | None -> fun () -> true
            | Some e ->
                let es = Levelize.slot_of lv e in
                fun () -> ivals.(es) <> 0
          in
          let cleared =
            match spec.clear with
            | None -> fun () -> false
            | Some c ->
                let cs = Levelize.slot_of lv c in
                fun () -> ivals.(cs) <> 0
          in
          if fast.(s) then (
            ivals.(s) <- to_fast spec.init;
            let init_i = to_fast spec.init in
            let pend = ref 0 and armed = ref false in
            latches :=
              (fun () ->
                if cleared () then (pend := init_i; armed := true)
                else if enabled () then (pend := ivals.(ds); armed := true)
                else armed := false)
              :: !latches;
            commits :=
              (fun () -> if !armed then ivals.(s) <- !pend) :: !commits)
          else (
            wvals.(s) <- spec.init;
            let pend = ref spec.init and armed = ref false in
            latches :=
              (fun () ->
                if cleared () then (pend := spec.init; armed := true)
                else if enabled () then (pend := wvals.(ds); armed := true)
                else armed := false)
              :: !latches;
            commits :=
              (fun () -> if !armed then wvals.(s) <- !pend) :: !commits)
      | Mem_read_sync (mm, addr, enable) -> (
          let read_addr =
            let as_ = Levelize.slot_of lv addr in
            read_int as_
          in
          let es = Levelize.slot_of lv enable in
          let size = mem_size mm in
          match Hashtbl.find mems (mem_uid mm) with
          | M_fast arr ->
              let pend = ref 0 and armed = ref false in
              latches :=
                (fun () ->
                  if ivals.(es) <> 0 then (
                    let a = read_addr () in
                    pend := (if a < size then arr.(a) else 0);
                    armed := true)
                  else armed := false)
                :: !latches;
              commits :=
                (fun () -> if !armed then ivals.(s) <- !pend) :: !commits
          | M_wide arr ->
              let z = Bits.zero (mem_width mm) in
              let pend = ref z and armed = ref false in
              latches :=
                (fun () ->
                  if ivals.(es) <> 0 then (
                    pend := (let a = read_addr () in
                             if a < size then arr.(a) else z);
                    armed := true)
                  else armed := false)
                :: !latches;
              commits :=
                (fun () -> if !armed then wvals.(s) <- !pend) :: !commits))
    nodes;
  (* memory write ports commit after every reg/sync next is buffered but
     before state commits — read-first order, last port wins per address *)
  let mem_commits = ref [] in
  List.iter
    (fun mm ->
      let store = Hashtbl.find mems (mem_uid mm) in
      let size = mem_size mm in
      List.iter
        (fun wp ->
          let es = Levelize.slot_of lv wp.wp_enable in
          let read_addr = read_int (Levelize.slot_of lv wp.wp_addr) in
          let dsl = Levelize.slot_of lv wp.wp_data in
          match store with
          | M_fast arr ->
              mem_commits :=
                (fun () ->
                  if ivals.(es) <> 0 then
                    let a = read_addr () in
                    if a < size then arr.(a) <- ivals.(dsl))
                :: !mem_commits
          | M_wide arr ->
              mem_commits :=
                (fun () ->
                  if ivals.(es) <> 0 then
                    let a = read_addr () in
                    if a < size then arr.(a) <- wvals.(dsl))
                :: !mem_commits)
        (mem_write_ports mm))
    (Circuit.memories circuit);
  let out_slots = Hashtbl.create 16 in
  List.iter
    (fun (name, sg) -> Hashtbl.replace out_slots name (Levelize.slot_of lv sg))
    (Circuit.outputs circuit);
  {
    lv;
    widths;
    fast;
    ivals;
    wvals;
    prog = Array.of_list (List.rev !prog);
    latch = Array.of_list (List.rev !latches);
    commit = Array.of_list (List.rev !mem_commits @ List.rev !commits);
    in_slots;
    out_slots;
    mems;
    cycle = 0;
    settled = false;
  }

(* The settled values are a function of the inputs, the register and
   sync-read state and the memory contents; only a changed input, a step
   or a backdoor write touches those, and each clears [settled]. *)
let settle t =
  if not t.settled then begin
    let p = t.prog in
    for i = 0 to Array.length p - 1 do
      p.(i) ()
    done;
    t.settled <- true
  end

(* latch and commit on settled values; the next reader re-settles *)
let step t =
  settle t;
  let l = t.latch in
  for i = 0 to Array.length l - 1 do
    l.(i) ()
  done;
  let c = t.commit in
  for i = 0 to Array.length c - 1 do
    c.(i) ()
  done;
  t.cycle <- t.cycle + 1;
  t.settled <- false

(* store into every slot of one input; an unchanged value keeps the
   simulator settled *)
let rec store_int t v = function
  | [] -> ()
  | s :: rest ->
      if t.ivals.(s) <> v then begin
        t.ivals.(s) <- v;
        t.settled <- false
      end;
      store_int t v rest

let rec store_wide t v = function
  | [] -> ()
  | s :: rest ->
      if not (Bits.equal t.wvals.(s) v) then begin
        t.wvals.(s) <- v;
        t.settled <- false
      end;
      store_wide t v rest

let set_input t name v =
  let slots = Hashtbl.find t.in_slots name in
  let s0 = List.hd slots in
  let w = t.widths.(s0) in
  if Bits.width v <> w then
    invalid_arg
      (Printf.sprintf "Compile.set_input %s: width %d, expected %d" name
         (Bits.width v) w);
  if t.fast.(s0) then store_int t (Bits.to_int_trunc v) slots
  else store_wide t v slots

let set_input_int t name v =
  let slots = Hashtbl.find t.in_slots name in
  let s0 = List.hd slots in
  if t.fast.(s0) then begin
    (* Bits.of_int's validation and masking, without the box *)
    if v < 0 then invalid_arg "Bits.of_int: negative value";
    store_int t (v land mask_of t.widths.(s0)) slots
  end
  else set_input t name (Bits.of_int ~width:t.widths.(s0) v)

let value_of_slot t s =
  if t.fast.(s) then bits_of_fast ~width:t.widths.(s) t.ivals.(s)
  else t.wvals.(s)

let output t name =
  let s = Hashtbl.find t.out_slots name in
  settle t;
  value_of_slot t s

let output_int t name =
  let s = Hashtbl.find t.out_slots name in
  settle t;
  if t.fast.(s) then t.ivals.(s) else Bits.to_int t.wvals.(s)

let peek t s =
  settle t;
  value_of_slot t (Levelize.slot_of t.lv s)

let cycle t = t.cycle

let read_memory t m addr =
  let store = Hashtbl.find t.mems (mem_uid m) in
  if addr < 0 || addr >= mem_size m then invalid_arg "read_memory: range";
  match store with
  | M_fast arr -> bits_of_fast ~width:(mem_width m) arr.(addr)
  | M_wide arr -> arr.(addr)

let write_memory t m addr v =
  let store = Hashtbl.find t.mems (mem_uid m) in
  if addr < 0 || addr >= mem_size m then invalid_arg "write_memory: range";
  if Bits.width v <> mem_width m then invalid_arg "write_memory: width";
  (match store with
  | M_fast arr -> arr.(addr) <- Bits.to_int_trunc v
  | M_wide arr -> arr.(addr) <- v);
  t.settled <- false
