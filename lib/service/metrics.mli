(** Service-level metrics, declared once.

    Every metric is one line of the declaration in [metrics.ml], which
    gives its STATS name, a doc string and its kind:

    - a {e counter} is a running total; {!reset} zeroes it;
    - a {e gauge} is a level ([queue_depth], [conns_active]); it
      survives {!reset}.  A gauge declared with [~peak:true] also
      reports its high-water mark as [<name>_max], which {!reset}
      lowers to the current level;
    - a {e histogram} reports [<name>_count], [_p50], [_p95] and [_max]
      from 32 power-of-two buckets (latencies in ns, bucketed in us and
      rendered in ms with an [_ms] suffix; counts bucketed as is);
    - a {e probe} reads process-wide values (serializer pool,
      transition memo, symbol table) at dump time.

    {!create}, {!reset}, {!dump} and {!describe} all walk that one
    declaration, in order, so the STATS text is derived from it and
    nowhere else.  All cells are [Atomic.t]: updates are lock-free and
    domain-safe, and quantiles come from bucket counts without retaining
    samples.

    {b Adding a counter} takes two lines: its declaration in
    [metrics.ml], e.g.
    [let widgets = counter "widgets" "widgets frobbed"] (plus a
    [val widgets : counter] here), and its increment at the call site,
    [Metrics.incr m Metrics.widgets].  Its STATS line, its reset and its
    [describe] entry follow from the declaration. *)

type t
type counter
type histogram

val create : unit -> t

(** {2 Access} *)

val incr : t -> counter -> unit
val decr : t -> counter -> unit
(** Gauges only. *)

val add : t -> counter -> int -> unit
val get : t -> counter -> int

val peak : t -> counter -> int
(** The high-water mark of a gauge declared with a peak
    ({!queue_depth}). *)

val observe : t -> histogram -> int -> unit
(** One observation: nanoseconds for {!latency}, a primitive count for
    {!pending_primitives}. *)

val observations : t -> histogram -> int

val quantile : t -> histogram -> float -> float
(** [quantile m h 0.95]: the bucket estimate of the given quantile;
    [0.] when empty.  For {!latency} in seconds (the bucket's geometric
    middle, clamped to {!maximum}); for counts the bucket's lower bound
    (1 for bucket 0). *)

val maximum : t -> histogram -> int
(** Largest observation, exactly, in the unit observed. *)

val reset : t -> unit

val dump : t -> string
(** The STATS text: one ["name value"] line per declared key, in
    declaration order. *)

val describe : unit -> (string * string) list
(** [(STATS key, doc)] for every key {!dump} prints, in the same
    order. *)

(** {2 The declaration}

    Requests and the plan cache, maintained by the service: *)

val requests : counter
val errors : counter
val cache_hits : counter
val cache_misses : counter

val queue_depth : counter
(** Gauge with peak, maintained by the worker pool's enqueue/dequeue
    hooks. *)

val latency : histogram

(** Connections and frames, maintained by the socket server
    ({!Xut_transport.Server}) so one STATS request reports the whole
    serving path: *)

val conns_accepted : counter
val conns_active : counter
val conns_rejected : counter
val frames_in : counter
val frames_out : counter
val frames_malformed : counter
val bytes_in : counter
val bytes_out : counter

(** Streamed replies and streamed ingest: *)

val streams : counter
val stream_chunks : counter
val stream_bytes : counter
val streams_fused : counter
val stream_fallbacks : counter

(** Document lifecycle, annotation repair and stored views: *)

val schema_bindings_dropped : counter
val doc_invalidations : counter
val annotation_repairs : counter
val repair_fallbacks : counter
val repair_recomputed_nodes : counter
val repair_reused_nodes : counter
val view_defs : counter
val view_hits : counter
val composed_plans : counter
val view_invalidations : counter
val compose_fallbacks : counter

(** Schema pruning: *)

val skipped_subtrees : counter
val skipped_nodes : counter
val statically_empty_rejections : counter
val schema_products : counter

(** The write path: *)

val commits : counter
val commit_conflicts : counter
val commit_noops : counter
val pending_primitives : histogram
