(* The sparse device-memory store against a dense [Bytes] reference:
   random sequences of scalar reads/writes (page-straddling ones
   included), blits in and out, overlapping moves in both directions,
   reads of never-written pages and the ECC flip/write/scrub model must
   leave both with the same contents, the same results and the same
   [Invalid_argument]s; only written pages may become resident. *)

module F = Fault

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let page = Devmem.page_bytes

(* three full pages and a partial fourth *)
let size = (3 * page) + 100

(* ---- the dense reference, ECC model included ---- *)

type dense = {
  mem : Bytes.t;
  latched : (int, int) Hashtbl.t; (* word addr -> check byte *)
  mutable corrected : int;
  mutable uncorrectable : int;
}

let dense () =
  { mem = Bytes.make size '\000'; latched = Hashtbl.create 8; corrected = 0;
    uncorrectable = 0 }

let dense_flip d ~word_addr ~bit =
  if bit < 0 || bit > 63 then invalid_arg "Ecc.inject_flip: bit";
  let a = word_addr land lnot 7 in
  if a + 8 > Bytes.length d.mem then
    invalid_arg "Ecc.inject_flip: address out of range";
  let w = Bytes.get_int64_le d.mem a in
  if not (Hashtbl.mem d.latched a) then
    Hashtbl.replace d.latched a (F.Ecc.encode w);
  Bytes.set_int64_le d.mem a (Int64.logxor w (Int64.shift_left 1L bit))

let dense_note_write d ~addr ~bytes =
  let a = ref (addr land lnot 7) in
  while !a <= (addr + bytes - 1) land lnot 7 do
    Hashtbl.remove d.latched !a;
    a := !a + 8
  done

let dense_scrub d ~addr ~bytes =
  let last = min ((addr + bytes - 1) land lnot 7) (Bytes.length d.mem - 8) in
  let c = ref 0 and u = ref 0 in
  let a = ref (addr land lnot 7) in
  while !a <= last do
    (match Hashtbl.find_opt d.latched !a with
    | None -> ()
    | Some check -> (
        Hashtbl.remove d.latched !a;
        match F.Ecc.decode ~data:(Bytes.get_int64_le d.mem !a) ~check with
        | F.Ecc.Ok -> ()
        | F.Ecc.Corrected w ->
            Bytes.set_int64_le d.mem !a w;
            incr c;
            d.corrected <- d.corrected + 1
        | F.Ecc.Uncorrectable ->
            incr u;
            d.uncorrectable <- d.uncorrectable + 1));
    a := !a + 8
  done;
  (!c, !u)

(* ---- operations ---- *)

type op =
  | Get8 of int
  | Set8 of int * int
  | Get32 of int
  | Set32 of int * int32
  | Get64 of int
  | Set64 of int * int64
  | Blit_in of { src_len : int; soff : int; dst : int; len : int; fill : int }
  | Blit_out of { src : int; dst_len : int; doff : int; len : int }
  | Copy of { src : int; dst : int; len : int }
  | Flip of int * int
  | Note_write of int * int
  | Scrub of int * int

let show = function
  | Get8 a -> Printf.sprintf "get8 %d" a
  | Set8 (a, v) -> Printf.sprintf "set8 %d %d" a v
  | Get32 a -> Printf.sprintf "get32 %d" a
  | Set32 (a, v) -> Printf.sprintf "set32 %d %ld" a v
  | Get64 a -> Printf.sprintf "get64 %d" a
  | Set64 (a, v) -> Printf.sprintf "set64 %d %Ld" a v
  | Blit_in { src_len; soff; dst; len; fill } ->
      Printf.sprintf "blit_in src_len=%d soff=%d dst=%d len=%d fill=%d" src_len
        soff dst len fill
  | Blit_out { src; dst_len; doff; len } ->
      Printf.sprintf "blit_out src=%d dst_len=%d doff=%d len=%d" src dst_len
        doff len
  | Copy { src; dst; len } ->
      Printf.sprintf "copy src=%d dst=%d len=%d" src dst len
  | Flip (a, b) -> Printf.sprintf "flip %d bit %d" a b
  | Note_write (a, n) -> Printf.sprintf "note_write %d %d" a n
  | Scrub (a, n) -> Printf.sprintf "scrub %d %d" a n

let source ~len ~fill =
  Bytes.init len (fun i -> Char.chr (((i * 131) + fill) land 0xff))

(* what an op returned, or the [Invalid_argument] message it raised *)
let outcome f = try Ok (f ()) with Invalid_argument m -> Error m

let show_outcome = function
  | Ok s -> "ok " ^ String.escaped s
  | Error m -> "Invalid_argument " ^ m

let run_dense d = function
  | Get8 a -> outcome (fun () -> string_of_int (Bytes.get_uint8 d.mem a))
  | Set8 (a, v) -> outcome (fun () -> Bytes.set_uint8 d.mem a (v land 0xff); "")
  | Get32 a -> outcome (fun () -> Int32.to_string (Bytes.get_int32_le d.mem a))
  | Set32 (a, v) -> outcome (fun () -> Bytes.set_int32_le d.mem a v; "")
  | Get64 a -> outcome (fun () -> Int64.to_string (Bytes.get_int64_le d.mem a))
  | Set64 (a, v) -> outcome (fun () -> Bytes.set_int64_le d.mem a v; "")
  | Blit_in { src_len; soff; dst; len; fill } ->
      outcome (fun () ->
          Bytes.blit (source ~len:src_len ~fill) soff d.mem dst len;
          "")
  | Blit_out { src; dst_len; doff; len } ->
      outcome (fun () ->
          let b = Bytes.make dst_len '\xaa' in
          Bytes.blit d.mem src b doff len;
          Bytes.to_string b)
  | Copy { src; dst; len } ->
      outcome (fun () -> Bytes.blit d.mem src d.mem dst len; "")
  | Flip (word_addr, bit) ->
      outcome (fun () -> dense_flip d ~word_addr ~bit; "")
  | Note_write (addr, bytes) ->
      outcome (fun () -> dense_note_write d ~addr ~bytes; "")
  | Scrub (addr, bytes) ->
      outcome (fun () ->
          let c, u = dense_scrub d ~addr ~bytes in
          Printf.sprintf "%d/%d" c u)

let run_store m ecc = function
  | Get8 a -> outcome (fun () -> string_of_int (Devmem.get_u8 m a))
  | Set8 (a, v) -> outcome (fun () -> Devmem.set_u8 m a v; "")
  | Get32 a -> outcome (fun () -> Int32.to_string (Devmem.get_int32_le m a))
  | Set32 (a, v) -> outcome (fun () -> Devmem.set_int32_le m a v; "")
  | Get64 a -> outcome (fun () -> Int64.to_string (Devmem.get_int64_le m a))
  | Set64 (a, v) -> outcome (fun () -> Devmem.set_int64_le m a v; "")
  | Blit_in { src_len; soff; dst; len; fill } ->
      outcome (fun () ->
          Devmem.blit_from_bytes (source ~len:src_len ~fill) soff m dst len;
          "")
  | Blit_out { src; dst_len; doff; len } ->
      outcome (fun () ->
          let b = Bytes.make dst_len '\xaa' in
          Devmem.blit_to_bytes m src b doff len;
          Bytes.to_string b)
  | Copy { src; dst; len } ->
      outcome (fun () -> Devmem.copy_within m ~src ~dst ~len; "")
  | Flip (word_addr, bit) ->
      outcome (fun () -> F.Ecc.inject_flip ecc ~mem:m ~word_addr ~bit; "")
  | Note_write (addr, bytes) ->
      outcome (fun () -> F.Ecc.note_write ecc ~addr ~bytes; "")
  | Scrub (addr, bytes) ->
      outcome (fun () ->
          let c, u = F.Ecc.scrub ecc ~mem:m ~addr ~bytes in
          Printf.sprintf "%d/%d" c u)

(* the pages a successful op wrote: only these may become resident *)
let mark_written written op =
  let range a n =
    if n > 0 then
      for p = a / page to (a + n - 1) / page do
        written.(p) <- true
      done
  in
  match op with
  | Set8 (a, _) -> range a 1
  | Set32 (a, _) -> range a 4
  | Set64 (a, _) -> range a 8
  | Blit_in { dst; len; _ } -> range dst len
  | Copy { dst; len; _ } -> range dst len
  | Flip (a, _) -> range (a land lnot 7) 8
  | Get8 _ | Get32 _ | Get64 _ | Blit_out _ | Note_write _ | Scrub _ -> ()

(* ---- generators: addresses cluster at page boundaries and the ends ---- *)

let gen_addr =
  let open QCheck.Gen in
  frequency
    [
      (4, map2 (fun p d -> (p * page) + d) (0 -- 3) (-12 -- 12));
      (3, 0 -- (size - 1));
      (1, -16 -- -1);
      (1, (size - 12) -- (size + 8));
    ]

let gen_len =
  let open QCheck.Gen in
  frequency
    [
      (4, 0 -- 80); (2, 0 -- (page + 200)); (1, 0 -- (2 * page)); (1, -3 -- -1);
    ]

let gen_op =
  let open QCheck.Gen in
  frequency
    [
      (2, map (fun a -> Get8 a) gen_addr);
      (2, map2 (fun a v -> Set8 (a, v)) gen_addr (0 -- 1023));
      (2, map (fun a -> Get32 a) gen_addr);
      (2, map2 (fun a v -> Set32 (a, v)) gen_addr (map Int32.of_int int));
      (2, map (fun a -> Get64 a) gen_addr);
      (2, map2 (fun a v -> Set64 (a, v)) gen_addr ui64);
      ( 2,
        map3
          (fun (src_len, soff) dst (len, fill) ->
            Blit_in { src_len; soff; dst; len; fill })
          (pair (0 -- (page + 300)) (-2 -- 300))
          gen_addr (pair gen_len (0 -- 255)) );
      ( 2,
        map3
          (fun src (dst_len, doff) len -> Blit_out { src; dst_len; doff; len })
          gen_addr
          (pair (0 -- (page + 300)) (-2 -- 300))
          gen_len );
      (* overlapping moves: dst within a few hundred bytes of src, both ways *)
      ( 3,
        map3
          (fun src delta len -> Copy { src; dst = src + delta; len })
          gen_addr (-300 -- 300) gen_len );
      ( 1,
        map3 (fun src dst len -> Copy { src; dst; len }) gen_addr gen_addr
          gen_len );
      (2, map2 (fun a b -> Flip (a, b)) gen_addr (0 -- 63));
      (1, map2 (fun a n -> Note_write (a, n)) (0 -- (size - 1)) (1 -- 200));
      (2, map2 (fun a n -> Scrub (a, n)) (0 -- (size - 1)) (1 -- 400));
    ]

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show ops))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (1 -- 40) gen_op)

let prop_matches_dense =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"page store matches dense Bytes" arb_ops
       (fun ops ->
         let d = dense () in
         let m = Devmem.create size and ecc = F.Ecc.create () in
         let written = Array.make ((size + page - 1) / page) false in
         List.iter
           (fun op ->
             let want = run_dense d op and got = run_store m ecc op in
             if want <> got then
               QCheck.Test.fail_reportf "%s: dense %s, store %s" (show op)
                 (show_outcome want) (show_outcome got);
             if Result.is_ok got then mark_written written op)
           ops;
         let image = Bytes.create size in
         Devmem.blit_to_bytes m 0 image 0 size;
         let n_written =
           Array.fold_left (fun n w -> if w then n + 1 else n) 0 written
         in
         Bytes.equal image d.mem
         && F.Ecc.corrected ecc = d.corrected
         && F.Ecc.uncorrectable ecc = d.uncorrectable
         && Devmem.resident_pages m = n_written))

(* ---- units ---- *)

let test_reads_never_allocate () =
  let m = Devmem.create (64 * 1024 * 1024) in
  let sum = ref 0 in
  for p = 0 to (64 * 1024 * 1024 / page) - 1 do
    sum :=
      !sum + Devmem.get_u8 m (p * page)
      + Int64.to_int (Devmem.get_int64_le m ((p * page) + 8))
  done;
  let b = Bytes.make (3 * page) '\xff' in
  Devmem.blit_to_bytes m (page - 5) b 0 (3 * page);
  Devmem.copy_within m ~src:0 ~dst:0 ~len:0;
  check_int "all zero" 0 !sum;
  check_bool "blit out of untouched pages is zero" true
    (Bytes.for_all (fun c -> c = '\000') b);
  check_int "nothing resident" 0 (Devmem.resident_pages m)

let test_straddle () =
  let m = Devmem.create (2 * page) in
  Devmem.set_int64_le m (page - 3) 0x0102_0304_0506_0708L;
  check_int "two pages" 2 (Devmem.resident_pages m);
  check_bool "u64 round trip" true
    (Devmem.get_int64_le m (page - 3) = 0x0102_0304_0506_0708L);
  check_int "low byte before the boundary" 0x08 (Devmem.get_u8 m (page - 3));
  check_int "high byte after it" 0x01 (Devmem.get_u8 m (page + 4));
  check_bool "u32 across" true (Devmem.get_int32_le m (page - 2) = 0x04050607l)

let test_bounds () =
  let m = Devmem.create 100 in
  let raises f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  check_bool "u8 at size" true (raises (fun () -> Devmem.get_u8 m 100));
  check_bool "u64 past end" true (raises (fun () -> Devmem.get_int64_le m 93));
  check_bool "u64 at last word" false
    (raises (fun () -> Devmem.get_int64_le m 92));
  check_bool "negative" true (raises (fun () -> Devmem.set_u8 m (-1) 0));
  check_bool "empty blit at end" false
    (raises (fun () -> Devmem.blit_from_bytes Bytes.empty 0 m 100 0));
  check_bool "negative length" true
    (raises (fun () -> Devmem.copy_within m ~src:0 ~dst:1 ~len:(-1)));
  check_int "nothing written by failures" 0 (Devmem.resident_pages m)

let () =
  Alcotest.run "devmem"
    [
      ( "store",
        [
          Alcotest.test_case "reads never allocate" `Quick
            test_reads_never_allocate;
          Alcotest.test_case "page straddle" `Quick test_straddle;
          Alcotest.test_case "bytes bounds" `Quick test_bounds;
        ] );
      ("model", [ prop_matches_dense ]);
    ]
