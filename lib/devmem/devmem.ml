(* Pages never written alias one shared zero page, so a read needs no
   presence test and never allocates; a writer swaps in a private page
   first ([writable]). Ranges are checked against [size] up front, which
   also keeps every page index inside [pages]. Segment walks are
   tail-recursive functions: no closures, no refs, no temporary
   buffers. *)

let page_bits = 16
let page_bytes = 1 lsl page_bits
let page_mask = page_bytes - 1

(* shared by every store and never written *)
let zero_page = Bytes.make page_bytes '\000'

type t = { size : int; pages : Bytes.t array; mutable resident : int }

let create size =
  if size < 0 then invalid_arg "Devmem.create: negative size";
  {
    size;
    pages = Array.make ((size + page_mask) lsr page_bits) zero_page;
    resident = 0;
  }

let size t = t.size
let resident_pages t = t.resident

(* [check] and [check_blit] raise what the dense [Bytes] accessors do *)
let check t a n =
  if a < 0 || a > t.size - n then invalid_arg "index out of bounds"

let page t a = Array.unsafe_get t.pages (a lsr page_bits)

let writable t a =
  let p = a lsr page_bits in
  let pg = Array.unsafe_get t.pages p in
  if pg != zero_page then pg
  else begin
    let pg = Bytes.make page_bytes '\000' in
    Array.unsafe_set t.pages p pg;
    t.resident <- t.resident + 1;
    pg
  end

(* byte-wise little-endian access, for a value straddling two pages *)
let rec get_le t a n =
  if n = 0 then 0
  else
    Bytes.get_uint8 (page t a) (a land page_mask)
    lor (get_le t (a + 1) (n - 1) lsl 8)

let rec set_le t a n v =
  if n > 0 then begin
    Bytes.set_uint8 (writable t a) (a land page_mask) (v land 0xff);
    set_le t (a + 1) (n - 1) (v lsr 8)
  end

let get_u8 t a =
  check t a 1;
  Bytes.get_uint8 (page t a) (a land page_mask)

let set_u8 t a v =
  check t a 1;
  Bytes.set_uint8 (writable t a) (a land page_mask) (v land 0xff)

let get_int32_le t a =
  check t a 4;
  let o = a land page_mask in
  if o <= page_bytes - 4 then Bytes.get_int32_le (page t a) o
  else Int32.of_int (get_le t a 4)

let set_int32_le t a v =
  check t a 4;
  let o = a land page_mask in
  if o <= page_bytes - 4 then Bytes.set_int32_le (writable t a) o v
  else set_le t a 4 (Int32.to_int v)

let get_int64_le t a =
  check t a 8;
  let o = a land page_mask in
  if o <= page_bytes - 8 then Bytes.get_int64_le (page t a) o
  else
    Int64.logor
      (Int64.of_int (get_le t a 4))
      (Int64.shift_left (Int64.of_int (get_le t (a + 4) 4)) 32)

let set_int64_le t a v =
  check t a 8;
  let o = a land page_mask in
  if o <= page_bytes - 8 then Bytes.set_int64_le (writable t a) o v
  else begin
    set_le t a 4 (Int64.to_int v);
    set_le t (a + 4) 4 (Int64.to_int (Int64.shift_right_logical v 32))
  end

let check_blit ~src_len ~src ~dst_len ~dst len =
  if len < 0 || src < 0 || src > src_len - len || dst < 0 || dst > dst_len - len
  then invalid_arg "Bytes.blit"

(* the bytes left in [a]'s page *)
let room a = page_bytes - (a land page_mask)

let min3 a b c =
  if a <= b then if a <= c then a else c else if b <= c then b else c

let rec blit_in src soff t dst len =
  if len > 0 then begin
    let n = if len < room dst then len else room dst in
    Bytes.blit src soff (writable t dst) (dst land page_mask) n;
    blit_in src (soff + n) t (dst + n) (len - n)
  end

let blit_from_bytes src soff t dst len =
  check_blit ~src_len:(Bytes.length src) ~src:soff ~dst_len:t.size ~dst len;
  blit_in src soff t dst len

let rec blit_out t src dst doff len =
  if len > 0 then begin
    let n = if len < room src then len else room src in
    Bytes.blit (page t src) (src land page_mask) dst doff n;
    blit_out t (src + n) dst (doff + n) (len - n)
  end

let blit_to_bytes t src dst doff len =
  check_blit ~src_len:t.size ~src ~dst_len:(Bytes.length dst) ~dst:doff len;
  blit_out t src dst doff len

(* Overlap is safe segment by segment: copying towards lower addresses
   walks forwards, towards higher addresses backwards, so no segment
   reads bytes an earlier one wrote. Within a segment [Bytes.blit] is a
   memmove. *)
let rec copy_fwd t src dst len =
  if len > 0 then begin
    let n = min3 len (room src) (room dst) in
    let dp = writable t dst in
    Bytes.blit (page t src) (src land page_mask) dp (dst land page_mask) n;
    copy_fwd t (src + n) (dst + n) (len - n)
  end

(* [src_end]/[dst_end] are one past the last byte still to copy *)
let rec copy_bwd t src_end dst_end len =
  if len > 0 then begin
    let s = src_end - 1 and d = dst_end - 1 in
    let n = min3 len ((s land page_mask) + 1) ((d land page_mask) + 1) in
    let dp = writable t d in
    Bytes.blit (page t s)
      ((s land page_mask) + 1 - n)
      dp
      ((d land page_mask) + 1 - n)
      n;
    copy_bwd t (src_end - n) (dst_end - n) (len - n)
  end

let copy_within t ~src ~dst ~len =
  check_blit ~src_len:t.size ~src ~dst_len:t.size ~dst len;
  if dst <= src then copy_fwd t src dst len
  else copy_bwd t (src + len) (dst + len) len
