(** String helpers shared by every emitter: hand-rolled JSON (the
    toolchain has no JSON library baked in) and content digests. *)

val json_escape : string -> string
(** The body of a JSON string literal: quote, backslash, [\n], [\r] and
    [\t] get their short escapes, other control characters [\uXXXX]. *)

val fnv1a64 : string -> int64
(** FNV-1a 64-bit hash. [Int64.mul] wraps on overflow, which is exactly
    the FNV modulus. *)
