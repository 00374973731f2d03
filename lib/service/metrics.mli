(** Service-level metrics: request/error/cache counters, queue depth and
    a latency histogram, all domain-safe.

    Counters are [Atomic.t]; the histogram is a fixed array of atomic
    buckets on a power-of-two microsecond scale, so recording a latency
    is lock-free and quantiles are answered from the bucket counts
    without retaining per-request samples. *)

type t

val create : unit -> t

(** {2 Counters} *)

val incr_requests : t -> unit
val incr_errors : t -> unit
val incr_cache_hits : t -> unit
val incr_cache_misses : t -> unit

val requests : t -> int
val errors : t -> int
val cache_hits : t -> int
val cache_misses : t -> int

(** {2 Queue depth}

    Maintained by the worker pool: {!queue_enter} on enqueue,
    {!queue_leave} on dequeue.  {!queue_depth} is the instantaneous
    depth, {!max_queue_depth} the high-water mark. *)

val queue_enter : t -> unit
val queue_leave : t -> unit
val queue_depth : t -> int
val max_queue_depth : t -> int

(** {2 Latency histogram} *)

val record_latency : t -> float -> unit
(** [record_latency m seconds] adds one observation. *)

(** {2 Transport counters}

    Maintained by the socket server ({!Xut_transport.Server}): accepted
    / rejected connections, the active-connection gauge, and framed
    traffic in both directions.  They live here rather than in the
    transport so one [STATS] request reports the whole serving path. *)

val conn_accepted : t -> unit
(** One accepted connection: bumps the accepted total and the active
    gauge. *)

val conn_closed : t -> unit
(** The accepted connection ended: drops the active gauge. *)

val conn_rejected : t -> unit
(** A connection was turned away at the limit (BUSY). *)

val frame_in : t -> int -> unit
(** One well-framed request of the given total size (header + payload)
    was read. *)

val frame_out : t -> int -> unit
(** One response frame of the given total size was written. *)

val frame_malformed : t -> unit
(** A frame failed header validation, payload decoding, or was
    truncated by a disconnect/timeout. *)

(** {2 Streaming counters}

    Maintained by the streaming result path ({!Service.transform_stream}
    and the transport's chunked replies): streams started, chunks
    handed to consumers, and payload bytes streamed. *)

val stream_started : t -> unit
val stream_chunk : t -> int -> unit
(** One chunk of the given payload size was handed to a consumer. *)

val streams : t -> int
val stream_chunks : t -> int
val stream_bytes : t -> int

val incr_streams_fused : t -> unit
(** A streaming-ingest request ran fused: one-pass SAX transform, no
    tree, no truth table. *)

val incr_stream_fallbacks : t -> unit
(** A streaming-ingest request could not run fused (the plan needs the
    bottom-up pass or a materialized tree) and was served — with
    byte-identical output — by a fallback path. *)

val streams_fused : t -> int
val stream_fallbacks : t -> int

val incr_schema_bindings_dropped : t -> unit
(** A COMMIT produced a document that no longer conforms to its bound
    schema, so the binding was dropped (see {!Doc_store.commit}). *)

val schema_bindings_dropped : t -> int

(** {2 Invalidation counters}

    Maintained by the service's document-lifecycle hook: every
    annotation table evicted from a cached plan because its document was
    unloaded or replaced counts here (surfaced as [doc_invalidations]
    in the STATS dump). *)

val add_invalidations : t -> int -> unit
val invalidations : t -> int

(** {2 Annotation-repair counters}

    Maintained by the commit-time repair hook: per-plan annotation
    tables carried across a commit by {!Plan_cache.repair}
    ([annotation_repairs]), tables evicted because the diff was
    degenerate ([repair_fallbacks]), and the summed entry counts the
    repairs recomputed versus carried over — the recomputed/reused ratio
    is the incrementality the repair path buys over full
    re-annotation. *)

val add_repairs :
  t -> repaired:int -> fallbacks:int -> recomputed:int -> reused:int -> unit

val annotation_repairs : t -> int
val repair_fallbacks : t -> int
val repair_recomputed_nodes : t -> int
val repair_reused_nodes : t -> int

(** {2 View counters}

    Maintained by the stored-view serving path: views (re)defined
    ([view_defs]), requests answered by a composed plan against a view
    ([view_hits]), compositions actually performed — not served from the
    composed-plan cache — ([composed_plans]), composed plans and view
    annotation memos dropped or repaired by the dependency-graph walk on
    document lifecycle events and view redefinitions
    ([view_invalidations]), and requests that fell back to naive
    materialization because the query or chain was outside the
    composable fragment ([compose_fallbacks] — the fallback used to be
    silent). *)

val incr_view_defs : t -> unit
val incr_view_hits : t -> unit
val incr_composed_plans : t -> unit
val add_view_invalidations : t -> int -> unit
val incr_compose_fallbacks : t -> unit

val view_defs : t -> int
val view_hits : t -> int
val composed_plans : t -> int
val view_invalidations : t -> int
val compose_fallbacks : t -> int

(** {2 Schema-pruning counters}

    Maintained by the schema-aware serving path: element subtrees the
    skip-set pruned without a visit ([skipped_subtrees]) and the exact
    number of elements inside them ([skipped_nodes], from the document's
    size table — work avoided, not done), requests rejected at admission
    because the NFA x schema product proved the query can select nothing
    ([statically_empty_rejections]), and products actually constructed —
    not served from a per-plan memo — ([schema_products]). *)

val add_skipped : t -> subtrees:int -> nodes:int -> unit
val incr_statically_empty : t -> unit
val incr_schema_products : t -> unit

val skipped_subtrees : t -> int
val skipped_nodes : t -> int
val statically_empty_rejections : t -> int
val schema_products : t -> int

(** {2 Commit counters}

    Maintained by the write path ([COMMIT] requests): effective commits
    (the document generation advanced), rejected commits (pending-list
    conflicts), and no-op commits (the query selected nothing, so no new
    tree exists and nothing changed).  [commits] therefore equals the
    generation delta attributable to the write path — the invariant the
    write-churn smoke asserts.  Effective commits also feed a
    power-of-two histogram of surviving pending-list lengths. *)

val commit_recorded : t -> primitives:int -> unit
(** One effective commit whose pending list held [primitives] surviving
    primitives. *)

val commit_conflict : t -> unit
val commit_noop : t -> unit

val commits : t -> int
val commit_conflicts : t -> int
val commit_noops : t -> int

val pending_count : t -> int
(** Commits recorded into the pending-list histogram (= {!commits}). *)

val pending_quantile : t -> float -> int
(** [pending_quantile m 0.95]: pending-list length at the given
    quantile, from the histogram buckets (bucket lower bound); [0] when
    empty. *)

val pending_max : t -> int
(** Longest surviving pending list committed, exactly. *)

val conns_accepted : t -> int
val conns_active : t -> int
val conns_rejected : t -> int
val frames_in : t -> int
val frames_out : t -> int
val frames_malformed : t -> int
val bytes_in : t -> int
val bytes_out : t -> int

val latency_count : t -> int

val quantile : t -> float -> float
(** [quantile m 0.95] returns an estimate (in seconds) of the given
    latency quantile, from the histogram buckets, clamped to
    {!max_latency}; [0.] when empty. *)

val max_latency : t -> float
(** Largest latency observed, exactly (in seconds). *)

val reset : t -> unit

val nfa_memo_stats : unit -> int * int
(** Process-wide selecting-NFA transition-memo [(hits, misses)]
    (approximate under concurrent domains). *)

val sym_stats : unit -> int * int
(** [(distinct symbols, intern calls)] of the global element-name symbol
    table; the gap between the two is the hit count. *)

val serialize_pool_stats : unit -> int * int
(** [(hits, misses)] of the process-wide serializer buffer pool
    ({!Xut_xml.Serialize.Pool}). *)

val dump : t -> string
(** Multi-line text rendering of every metric (the [STATS] payload),
    including the transition-memo and symbol-table counters above. *)
