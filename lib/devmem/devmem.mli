(** Sparse device memory: a page store that stands in for one dense
    [Bytes.t] of the same size.

    Memory is a table of fixed {!page_bytes} pages. A page is allocated
    and zeroed on its first write; a page never written reads as zero,
    and reading it never allocates. Every accessor checks its range
    against {!size} before touching a page and raises [Invalid_argument]
    exactly where the matching [Bytes] operation on a dense array of
    that size would (same message, and nothing written on failure). *)

type t

val page_bytes : int
(** 64 KB. *)

val create : int -> t
(** [create size]: [size] bytes, all zero, none of them resident.
    Raises [Invalid_argument] if [size] is negative. *)

val size : t -> int

val resident_pages : t -> int
(** Pages materialised so far (each by its first write). Never
    decreases. *)

val get_u8 : t -> int -> int
val set_u8 : t -> int -> int -> unit
(** Stores the low 8 bits. *)

val get_int32_le : t -> int -> int32
val set_int32_le : t -> int -> int32 -> unit
val get_int64_le : t -> int -> int64
val set_int64_le : t -> int -> int64 -> unit
(** Multi-byte accesses may straddle a page boundary. *)

val blit_from_bytes : Bytes.t -> int -> t -> int -> int -> unit
(** [blit_from_bytes src src_off t dst len], as [Bytes.blit]. *)

val blit_to_bytes : t -> int -> Bytes.t -> int -> int -> unit
(** [blit_to_bytes t src dst dst_off len], as [Bytes.blit]. *)

val copy_within : t -> src:int -> dst:int -> len:int -> unit
(** Move [len] bytes inside the store; the ranges may overlap, with
    [Bytes.blit]'s memmove semantics. *)
