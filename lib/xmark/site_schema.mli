open Xut_schema

(** The built-in regular-tree-grammar schema of the XMark [site]
    vocabulary — exactly the grammar {!Generator} produces, so
    generated documents always validate against it. *)

val schema_name : string
(** ["xmark"]. *)

val bench_schema_name : string
(** ["xmark-bench"]: {!schema} widened so the marker element
    ({!bench_marker}) is allowed under every spine insertion target
    (document element down to [description]) — the variant the
    schema-bound marker-commit workloads load (servebench commit-mix,
    the repair tests), keeping pruning alive across marker commits. *)

val bench_marker : string
(** ["xut_bench_promo"]. *)

val schema : Schema.t Lazy.t
val bench_schema : Schema.t Lazy.t

val register : unit -> unit
(** Put both schemas in the {!Xut_schema.Schema} registry (the CLI and
    the tests call this at startup). *)
