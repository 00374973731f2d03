(** Chunked input for the streaming parser.

    A reader pulls fixed-size chunks from its source on demand, so
    parsing a document keeps O(chunk + current token) bytes in memory —
    the property the Section 6 algorithm's working-set claim rests on.

    The parser consumes input in runs: {!skip}, {!add} and {!take} scan
    a maximal run of bytes outside a stop {!cls} inside the chunk
    buffer, with one refill check per chunk and one blit per run (one
    per chunk, for a run that straddles the seam between two chunks).
    A run that ends inside its chunk is cut out with a single
    [Bytes.sub_string], no intermediate [Buffer].  The per-character
    {!peek}/{!advance} serve the one-byte dispatch between runs.

    Line and column are exact at every cursor position, whatever the
    chunk size: they are derived from input offsets, and scans count the
    newlines inside a run as they pass them. *)

type t

val of_string : string -> t
val of_channel : ?chunk_size:int -> in_channel -> t

val peek : t -> char
(** The next character, ['\000'] at end of input. *)

val advance : t -> unit
val next : t -> char

val eof : t -> bool

type cls
(** A byte class: the bytes that end a run. *)

val cls : stop:(char -> bool) -> cls
(** Build a class once, at module initialization: it is a 256-byte
    table. *)

val skip : t -> cls -> unit
(** Consume the maximal run of non-stop bytes. *)

val add : t -> cls -> Buffer.t -> unit
(** Consume the maximal run of non-stop bytes, appending it to the
    buffer. *)

val take : t -> cls -> string
(** Consume and return the maximal run of non-stop bytes ([""] when the
    next byte stops it, or at end of input). *)

val line : t -> int
val col : t -> int

val bytes_read : t -> int
(** Total characters consumed so far. *)
