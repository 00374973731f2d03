(* Buckets are powers of two in microseconds: bucket [i] counts
   latencies in [2^i, 2^(i+1)) us.  32 buckets reach ~71 minutes, far
   beyond any request this service answers. *)

let n_buckets = 32

type t = {
  requests : int Atomic.t;
  errors : int Atomic.t;
  cache_hits : int Atomic.t;
  cache_misses : int Atomic.t;
  depth : int Atomic.t;
  max_depth : int Atomic.t;
  buckets : int Atomic.t array;
  count : int Atomic.t;
  max_latency_ns : int Atomic.t;
  conns_accepted : int Atomic.t;
  conns_active : int Atomic.t;
  conns_rejected : int Atomic.t;
  frames_in : int Atomic.t;
  frames_out : int Atomic.t;
  frames_malformed : int Atomic.t;
  bytes_in : int Atomic.t;
  bytes_out : int Atomic.t;
  streams : int Atomic.t;
  stream_chunks : int Atomic.t;
  stream_bytes : int Atomic.t;
  streams_fused : int Atomic.t;
  stream_fallbacks : int Atomic.t;
  schema_bindings_dropped : int Atomic.t;
  invalidations : int Atomic.t;
  annotation_repairs : int Atomic.t;
  repair_fallbacks : int Atomic.t;
  repair_recomputed_nodes : int Atomic.t;
  repair_reused_nodes : int Atomic.t;
  view_defs : int Atomic.t;
  view_hits : int Atomic.t;
  composed_plans : int Atomic.t;
  view_invalidations : int Atomic.t;
  compose_fallbacks : int Atomic.t;
  skipped_subtrees : int Atomic.t;
  skipped_nodes : int Atomic.t;
  statically_empty_rejections : int Atomic.t;
  schema_products : int Atomic.t;
  commits : int Atomic.t;
  commit_conflicts : int Atomic.t;
  commit_noops : int Atomic.t;
  (* pending-list length histogram: bucket [i] counts commits whose
     surviving primitive count fell in [2^i, 2^(i+1)) (bucket 0 is
     counts 0 and 1). *)
  pending_buckets : int Atomic.t array;
  pending_count : int Atomic.t;
  pending_max : int Atomic.t;
}

let create () =
  {
    requests = Atomic.make 0;
    errors = Atomic.make 0;
    cache_hits = Atomic.make 0;
    cache_misses = Atomic.make 0;
    depth = Atomic.make 0;
    max_depth = Atomic.make 0;
    buckets = Array.init n_buckets (fun _ -> Atomic.make 0);
    count = Atomic.make 0;
    max_latency_ns = Atomic.make 0;
    conns_accepted = Atomic.make 0;
    conns_active = Atomic.make 0;
    conns_rejected = Atomic.make 0;
    frames_in = Atomic.make 0;
    frames_out = Atomic.make 0;
    frames_malformed = Atomic.make 0;
    bytes_in = Atomic.make 0;
    bytes_out = Atomic.make 0;
    streams = Atomic.make 0;
    stream_chunks = Atomic.make 0;
    stream_bytes = Atomic.make 0;
    streams_fused = Atomic.make 0;
    stream_fallbacks = Atomic.make 0;
    schema_bindings_dropped = Atomic.make 0;
    invalidations = Atomic.make 0;
    annotation_repairs = Atomic.make 0;
    repair_fallbacks = Atomic.make 0;
    repair_recomputed_nodes = Atomic.make 0;
    repair_reused_nodes = Atomic.make 0;
    view_defs = Atomic.make 0;
    view_hits = Atomic.make 0;
    composed_plans = Atomic.make 0;
    view_invalidations = Atomic.make 0;
    compose_fallbacks = Atomic.make 0;
    skipped_subtrees = Atomic.make 0;
    skipped_nodes = Atomic.make 0;
    statically_empty_rejections = Atomic.make 0;
    schema_products = Atomic.make 0;
    commits = Atomic.make 0;
    commit_conflicts = Atomic.make 0;
    commit_noops = Atomic.make 0;
    pending_buckets = Array.init n_buckets (fun _ -> Atomic.make 0);
    pending_count = Atomic.make 0;
    pending_max = Atomic.make 0;
  }

let incr_requests m = Atomic.incr m.requests
let incr_errors m = Atomic.incr m.errors
let incr_cache_hits m = Atomic.incr m.cache_hits
let incr_cache_misses m = Atomic.incr m.cache_misses

let requests m = Atomic.get m.requests
let errors m = Atomic.get m.errors
let cache_hits m = Atomic.get m.cache_hits
let cache_misses m = Atomic.get m.cache_misses

let rec raise_max cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then raise_max cell v

let queue_enter m =
  let d = Atomic.fetch_and_add m.depth 1 + 1 in
  raise_max m.max_depth d

let queue_leave m = Atomic.decr m.depth
let queue_depth m = Atomic.get m.depth
let max_queue_depth m = Atomic.get m.max_depth

let bucket_of_us us =
  if us <= 1 then 0
  else
    let rec go i v = if v <= 1 || i = n_buckets - 1 then i else go (i + 1) (v lsr 1) in
    go 0 us

let record_latency m seconds =
  let ns = int_of_float (seconds *. 1e9) in
  let us = ns / 1_000 in
  Atomic.incr m.buckets.(bucket_of_us us);
  Atomic.incr m.count;
  raise_max m.max_latency_ns ns

let latency_count m = Atomic.get m.count

let conn_accepted m =
  Atomic.incr m.conns_accepted;
  Atomic.incr m.conns_active

let conn_closed m = Atomic.decr m.conns_active
let conn_rejected m = Atomic.incr m.conns_rejected

let frame_in m bytes =
  Atomic.incr m.frames_in;
  ignore (Atomic.fetch_and_add m.bytes_in bytes)

let frame_out m bytes =
  Atomic.incr m.frames_out;
  ignore (Atomic.fetch_and_add m.bytes_out bytes)

let frame_malformed m = Atomic.incr m.frames_malformed

let stream_started m = Atomic.incr m.streams

let stream_chunk m bytes =
  Atomic.incr m.stream_chunks;
  ignore (Atomic.fetch_and_add m.stream_bytes bytes)

let add_invalidations m n = if n > 0 then ignore (Atomic.fetch_and_add m.invalidations n)
let invalidations m = Atomic.get m.invalidations

let add_repairs m ~repaired ~fallbacks ~recomputed ~reused =
  if repaired > 0 then ignore (Atomic.fetch_and_add m.annotation_repairs repaired);
  if fallbacks > 0 then ignore (Atomic.fetch_and_add m.repair_fallbacks fallbacks);
  if recomputed > 0 then ignore (Atomic.fetch_and_add m.repair_recomputed_nodes recomputed);
  if reused > 0 then ignore (Atomic.fetch_and_add m.repair_reused_nodes reused)

let annotation_repairs m = Atomic.get m.annotation_repairs
let repair_fallbacks m = Atomic.get m.repair_fallbacks
let repair_recomputed_nodes m = Atomic.get m.repair_recomputed_nodes
let repair_reused_nodes m = Atomic.get m.repair_reused_nodes

let incr_view_defs m = Atomic.incr m.view_defs
let incr_view_hits m = Atomic.incr m.view_hits
let incr_composed_plans m = Atomic.incr m.composed_plans
let add_view_invalidations m n =
  if n > 0 then ignore (Atomic.fetch_and_add m.view_invalidations n)
let incr_compose_fallbacks m = Atomic.incr m.compose_fallbacks

let view_defs m = Atomic.get m.view_defs
let view_hits m = Atomic.get m.view_hits
let composed_plans m = Atomic.get m.composed_plans
let view_invalidations m = Atomic.get m.view_invalidations
let compose_fallbacks m = Atomic.get m.compose_fallbacks

let add_skipped m ~subtrees ~nodes =
  if subtrees > 0 then ignore (Atomic.fetch_and_add m.skipped_subtrees subtrees);
  if nodes > 0 then ignore (Atomic.fetch_and_add m.skipped_nodes nodes)

let incr_statically_empty m = Atomic.incr m.statically_empty_rejections
let incr_schema_products m = Atomic.incr m.schema_products

let skipped_subtrees m = Atomic.get m.skipped_subtrees
let skipped_nodes m = Atomic.get m.skipped_nodes
let statically_empty_rejections m = Atomic.get m.statically_empty_rejections
let schema_products m = Atomic.get m.schema_products

let commit_recorded m ~primitives =
  Atomic.incr m.commits;
  Atomic.incr m.pending_buckets.(bucket_of_us primitives);
  Atomic.incr m.pending_count;
  raise_max m.pending_max primitives

let commit_conflict m = Atomic.incr m.commit_conflicts
let commit_noop m = Atomic.incr m.commit_noops

let commits m = Atomic.get m.commits
let commit_conflicts m = Atomic.get m.commit_conflicts
let commit_noops m = Atomic.get m.commit_noops
let pending_count m = Atomic.get m.pending_count
let pending_max m = Atomic.get m.pending_max

(* Representative primitive count of bucket i: its lower bound. *)
let pending_quantile m q =
  let total = Atomic.get m.pending_count in
  if total = 0 then 0
  else begin
    let rank = max 1 (int_of_float (ceil (q *. float_of_int total))) in
    let seen = ref 0 and answer = ref 0 and found = ref false in
    for i = 0 to n_buckets - 1 do
      if not !found then begin
        seen := !seen + Atomic.get m.pending_buckets.(i);
        if !seen >= rank then begin
          answer := (if i = 0 then 1 else 1 lsl i);
          found := true
        end
      end
    done;
    !answer
  end

let streams m = Atomic.get m.streams
let stream_chunks m = Atomic.get m.stream_chunks
let stream_bytes m = Atomic.get m.stream_bytes

let incr_streams_fused m = Atomic.incr m.streams_fused
let incr_stream_fallbacks m = Atomic.incr m.stream_fallbacks
let incr_schema_bindings_dropped m = Atomic.incr m.schema_bindings_dropped
let streams_fused m = Atomic.get m.streams_fused
let stream_fallbacks m = Atomic.get m.stream_fallbacks
let schema_bindings_dropped m = Atomic.get m.schema_bindings_dropped

let conns_accepted m = Atomic.get m.conns_accepted
let conns_active m = Atomic.get m.conns_active
let conns_rejected m = Atomic.get m.conns_rejected
let frames_in m = Atomic.get m.frames_in
let frames_out m = Atomic.get m.frames_out
let frames_malformed m = Atomic.get m.frames_malformed
let bytes_in m = Atomic.get m.bytes_in
let bytes_out m = Atomic.get m.bytes_out

let max_latency m = float_of_int (Atomic.get m.max_latency_ns) *. 1e-9

(* Representative latency of bucket i: its geometric middle, 2^i*sqrt(2) us. *)
let bucket_value i = float_of_int (1 lsl i) *. 1.4142 *. 1e-6

let quantile m q =
  let total = Atomic.get m.count in
  if total = 0 then 0.
  else begin
    let rank = max 1 (int_of_float (ceil (q *. float_of_int total))) in
    let seen = ref 0 and answer = ref 0. and found = ref false in
    for i = 0 to n_buckets - 1 do
      if not !found then begin
        seen := !seen + Atomic.get m.buckets.(i);
        if !seen >= rank then begin
          answer := bucket_value i;
          found := true
        end
      end
    done;
    (* a bucket's midpoint can lie above every sample in it *)
    Float.min !answer (max_latency m)
  end

let reset m =
  Atomic.set m.requests 0;
  Atomic.set m.errors 0;
  Atomic.set m.cache_hits 0;
  Atomic.set m.cache_misses 0;
  Atomic.set m.max_depth (Atomic.get m.depth);
  Array.iter (fun b -> Atomic.set b 0) m.buckets;
  Atomic.set m.count 0;
  Atomic.set m.max_latency_ns 0;
  (* the active-connection gauge survives a reset (connections do) *)
  Atomic.set m.conns_accepted 0;
  Atomic.set m.conns_rejected 0;
  Atomic.set m.frames_in 0;
  Atomic.set m.frames_out 0;
  Atomic.set m.frames_malformed 0;
  Atomic.set m.bytes_in 0;
  Atomic.set m.bytes_out 0;
  Atomic.set m.streams 0;
  Atomic.set m.stream_chunks 0;
  Atomic.set m.stream_bytes 0;
  Atomic.set m.streams_fused 0;
  Atomic.set m.stream_fallbacks 0;
  Atomic.set m.schema_bindings_dropped 0;
  Atomic.set m.invalidations 0;
  Atomic.set m.annotation_repairs 0;
  Atomic.set m.repair_fallbacks 0;
  Atomic.set m.repair_recomputed_nodes 0;
  Atomic.set m.repair_reused_nodes 0;
  Atomic.set m.view_defs 0;
  Atomic.set m.view_hits 0;
  Atomic.set m.composed_plans 0;
  Atomic.set m.view_invalidations 0;
  Atomic.set m.compose_fallbacks 0;
  Atomic.set m.skipped_subtrees 0;
  Atomic.set m.skipped_nodes 0;
  Atomic.set m.statically_empty_rejections 0;
  Atomic.set m.schema_products 0;
  Atomic.set m.commits 0;
  Atomic.set m.commit_conflicts 0;
  Atomic.set m.commit_noops 0;
  Array.iter (fun b -> Atomic.set b 0) m.pending_buckets;
  Atomic.set m.pending_count 0;
  Atomic.set m.pending_max 0

(* Hot-path counters from the automata/xml layers (transition memo, symbol
   table).  Process-wide, not per-service, and unsynchronized on the hot
   path, so the values are approximate under concurrent domains. *)
let nfa_memo_stats () = Xut_automata.Selecting_nfa.global_memo_stats ()
let sym_stats () = (Xut_xml.Sym.count (), Xut_xml.Sym.interns ())
let serialize_pool_stats () = Xut_xml.Serialize.Pool.stats ()

let dump m =
  let b = Buffer.create 256 in
  let ms v = v *. 1e3 in
  Printf.bprintf b "requests %d\n" (requests m);
  Printf.bprintf b "errors %d\n" (errors m);
  Printf.bprintf b "cache_hits %d\n" (cache_hits m);
  Printf.bprintf b "cache_misses %d\n" (cache_misses m);
  Printf.bprintf b "queue_depth %d\n" (queue_depth m);
  Printf.bprintf b "queue_depth_max %d\n" (max_queue_depth m);
  Printf.bprintf b "latency_count %d\n" (latency_count m);
  Printf.bprintf b "latency_p50_ms %.3f\n" (ms (quantile m 0.50));
  Printf.bprintf b "latency_p95_ms %.3f\n" (ms (quantile m 0.95));
  Printf.bprintf b "latency_max_ms %.3f\n" (ms (max_latency m));
  Printf.bprintf b "conns_accepted %d\n" (conns_accepted m);
  Printf.bprintf b "conns_active %d\n" (conns_active m);
  Printf.bprintf b "conns_rejected %d\n" (conns_rejected m);
  Printf.bprintf b "frames_in %d\n" (frames_in m);
  Printf.bprintf b "frames_out %d\n" (frames_out m);
  Printf.bprintf b "frames_malformed %d\n" (frames_malformed m);
  Printf.bprintf b "bytes_in %d\n" (bytes_in m);
  Printf.bprintf b "bytes_out %d\n" (bytes_out m);
  Printf.bprintf b "streams %d\n" (streams m);
  Printf.bprintf b "stream_chunks %d\n" (stream_chunks m);
  Printf.bprintf b "stream_bytes %d\n" (stream_bytes m);
  Printf.bprintf b "streams_fused %d\n" (streams_fused m);
  Printf.bprintf b "stream_fallbacks %d\n" (stream_fallbacks m);
  Printf.bprintf b "schema_bindings_dropped %d\n" (schema_bindings_dropped m);
  Printf.bprintf b "doc_invalidations %d\n" (invalidations m);
  Printf.bprintf b "annotation_repairs %d\n" (annotation_repairs m);
  Printf.bprintf b "repair_fallbacks %d\n" (repair_fallbacks m);
  Printf.bprintf b "repair_recomputed_nodes %d\n" (repair_recomputed_nodes m);
  Printf.bprintf b "repair_reused_nodes %d\n" (repair_reused_nodes m);
  Printf.bprintf b "view_defs %d\n" (view_defs m);
  Printf.bprintf b "view_hits %d\n" (view_hits m);
  Printf.bprintf b "composed_plans %d\n" (composed_plans m);
  Printf.bprintf b "view_invalidations %d\n" (view_invalidations m);
  Printf.bprintf b "compose_fallbacks %d\n" (compose_fallbacks m);
  Printf.bprintf b "skipped_subtrees %d\n" (skipped_subtrees m);
  Printf.bprintf b "skipped_nodes %d\n" (skipped_nodes m);
  Printf.bprintf b "statically_empty_rejections %d\n" (statically_empty_rejections m);
  Printf.bprintf b "schema_products %d\n" (schema_products m);
  Printf.bprintf b "commits %d\n" (commits m);
  Printf.bprintf b "commit_conflicts %d\n" (commit_conflicts m);
  Printf.bprintf b "commit_noops %d\n" (commit_noops m);
  Printf.bprintf b "pending_primitives_count %d\n" (pending_count m);
  Printf.bprintf b "pending_primitives_p50 %d\n" (pending_quantile m 0.50);
  Printf.bprintf b "pending_primitives_p95 %d\n" (pending_quantile m 0.95);
  Printf.bprintf b "pending_primitives_max %d\n" (pending_max m);
  let pool_hits, pool_misses = serialize_pool_stats () in
  Printf.bprintf b "serialize_pool_hits %d\n" pool_hits;
  Printf.bprintf b "serialize_pool_misses %d\n" pool_misses;
  let hits, misses = nfa_memo_stats () in
  let rate = if hits + misses = 0 then 0. else float_of_int hits /. float_of_int (hits + misses) in
  Printf.bprintf b "nfa_memo_hits %d\n" hits;
  Printf.bprintf b "nfa_memo_misses %d\n" misses;
  Printf.bprintf b "nfa_memo_hit_rate %.3f\n" rate;
  let symbols, interns = sym_stats () in
  Printf.bprintf b "sym_symbols %d\n" symbols;
  Printf.bprintf b "sym_interns %d" interns;
  Buffer.contents b
