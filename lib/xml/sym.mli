(** Global element-name interning.

    Maps element names to dense integer symbols, process-wide, so the
    automaton hot paths dispatch transitions on an [int] compare instead
    of [String.equal].  Interning happens where an automaton meets an
    open tag: at tree build time ({!Node.element}, whose symbol everything
    downstream reuses) and per start event in the streaming transforms.
    The SAX parser itself does not intern.

    Domain-safe: lookups are lock-free reads of an immutable snapshot
    published through an [Atomic]; insertions (first sighting of a name)
    take a mutex and publish a fresh snapshot.  A name interned on any
    domain yields the same symbol on every domain, forever. *)

type t = int
(** A symbol: a small dense non-negative int, stable for the process
    lifetime. *)

val none : t
(** A symbol no name maps to ([-1]); usable as a sentinel. *)

val intern : string -> t
(** [intern s] returns the symbol of [s], allocating a fresh one on first
    sight.  Lock-free when [s] is already known. *)

val find : string -> t
(** Like {!intern} but returns {!none} instead of allocating when [s] has
    never been interned (never takes the mutex). *)

val name : t -> string
(** Reverse lookup.  Raises [Invalid_argument] for unknown symbols. *)

val count : unit -> int
(** Number of distinct symbols interned so far (exact). *)

val interns : unit -> int
(** Total {!intern} calls.  Maintained without synchronization, so the
    value is approximate when several domains intern concurrently (it can
    only undercount); exact on a single domain. *)
