open Xut_xml
open Xut_automata

(** Algorithm [twoPassSAX] (Section 6): transform-query evaluation as two
    passes of SAX parsing, never materializing the document as a tree.

    Pass 1 integrates the bottom-up qualifier evaluation with parsing: a
    stack mirrors the open-element path, QualDP runs at each end-tag, and
    the truth of every top-level qualifier is recorded in the list [Ld],
    keyed by the document-order element number (our stand-in for the
    paper's cursor ids; see DESIGN.md).  Pass 2 replays the parse running
    the selecting NFA, consulting [Ld] for qualifier checks — pass 2 keeps
    both the unfiltered state sets (for cursor alignment with pass 1) and
    the filtered ones (for selection) — and emits the transformed document
    as an output event stream.

    Memory is bounded by the document depth times the query size, plus
    [Ld] (8 bytes per qualifier check); time is linear in the input, up
    to sorting [Ld] once between the passes. *)

exception Unsupported_streaming of string
(** Raised for context qualifiers (paths starting with a qualified '.'),
    which would require evaluating a qualifier at the virtual document
    node before any input is seen. *)

type source = (Sax.event -> unit) -> unit
(** Something that can replay the document's events, twice
    (e.g. [Sax.parse_file path] or [Sax.events_of_tree root]). *)

type run_stats = {
  max_stack_depth : int;  (** pass-1 peak stack size *)
  truth_entries : int;    (** size of Ld *)
  elements_seen : int;
  skipped_subtrees : int;  (** subtrees the schema skip-set pruned in pass 1 *)
  skipped_elements : int;  (** elements inside those subtrees (exact count) *)
}

val run :
  ?skip:(Sym.t -> bool) ->
  Selecting_nfa.t ->
  Transform_ast.update ->
  source:source ->
  sink:(Sax.event -> unit) ->
  run_stats
(** [skip], when given, is a schema skip-set oracle over element symbols
    ({!Xut_schema.Schema.skippable}): a [true] answer promises no node at
    or below such an element can be selected or contribute a qualifier
    truth, so pass 1 skips the subtree (no frames, no truth entries) and
    pass 2 copies its events to the sink verbatim, with no transitions.
    @raise Transform_ast.Invalid_update when the update deletes the
    document element. *)

val one_pass : Selecting_nfa.t -> bool
(** [one_pass nfa] is [true] when the compiled plan never consults the
    bottom-up truth table: the context qualifier is trivially true and no
    NFA state carries a qualifier.  Such plans are fully streamable in a
    single forward pass ({!run_once}) with O(depth) memory — the
    degenerate forest-transducer decomposition where the bottom-up
    automaton is empty. *)

val run_once :
  ?skip:(Sym.t -> bool) ->
  Selecting_nfa.t ->
  Transform_ast.update ->
  source:source ->
  sink:(Sax.event -> unit) ->
  run_stats
(** Fused single-pass transform: pass 2 alone over one reading of the
    input, for plans where {!one_pass} holds.  The [source] is consumed
    exactly once, so it may be a non-replayable stream (a socket, a
    pipe).  Returned stats have [truth_entries = 0]; [skipped_*] count
    the subtrees/elements copied verbatim under the schema skip-set.
    @raise Unsupported_streaming when [one_pass nfa] is [false].
    @raise Transform_ast.Invalid_update when the update deletes the
    document element. *)

val transform : Transform_ast.update -> Node.element -> Node.element
(** Run the streaming algorithm over an in-memory tree (events replayed
    from the tree, result rebuilt by the DOM builder) — the configuration
    used by the equivalence tests and the Fig. 12 bench. *)

val transform_file : Transform_ast.update -> src:string -> out:Buffer.t -> run_stats
(** Parse [src] twice and serialize the transformed document into [out]
    (the Fig. 14 configuration). *)
