(* Every metric is one line of the declaration below: [create] allocates
   its cells, [reset] and [dump] walk the rows in declaration order.
   A service's metrics are one flat array of atomic cells; a declared
   handle is the index of its first cell. *)

(* Histogram buckets are powers of two: bucket [i] counts observations
   whose bucket value lies in [2^i, 2^(i+1)) (bucket 0 also holds 0 and
   1).  32 buckets reach ~71 minutes of microseconds. *)
let n_buckets = 32

type t = int Atomic.t array

type counter = {
  slot : int;
  peak : int;  (* the cell of the high-water mark, or -1 *)
}

type scale =
  | Time_ns  (* observed in ns, bucketed in us, rendered in ms *)
  | Count

(* [n_buckets] bucket cells, then the count, then the exact maximum *)
type histogram = { base : int; scale : scale }

type kind =
  | Counter of counter  (* a running total; reset zeroes it *)
  | Gauge of counter  (* a level; survives reset, its peak drops to it *)
  | Histogram of histogram  (* _count, _p50, _p95 and _max rows *)
  | Probe of string list * (unit -> string list)
      (* process-wide values read at dump time, one per name *)

type row = { name : string; doc : string; kind : kind }

let declared = ref []
let n_cells = ref 0

let alloc n =
  let s = !n_cells in
  n_cells := s + n;
  s

let declare name doc kind = declared := { name; doc; kind } :: !declared

let counter name doc =
  let c = { slot = alloc 1; peak = -1 } in
  declare name doc (Counter c);
  c

(* [~peak:true] adds the [<name>_max] row: the gauge's high-water mark *)
let gauge ?(peak = false) name doc =
  let slot = alloc 1 in
  let c = { slot; peak = (if peak then alloc 1 else -1) } in
  declare name doc (Gauge c);
  c

let histogram scale name doc =
  let h = { base = alloc (n_buckets + 2); scale } in
  declare name doc (Histogram h);
  h

let probe names doc read = declare (List.hd names) doc (Probe (names, read))

(* ---- the declaration, in STATS order ---- *)

let requests = counter "requests" "jobs handled (a batch counts once)"
let errors = counter "errors" "error responses (each failing batch item counts)"
let cache_hits = counter "cache_hits" "plan-cache lookups served from the cache"
let cache_misses = counter "cache_misses" "plan-cache lookups that compiled the query"
let queue_depth = gauge ~peak:true "queue_depth" "jobs queued for a worker"
let latency = histogram Time_ns "latency" "handler time per job"
let conns_accepted = counter "conns_accepted" "connections accepted by the socket server"
let conns_active = gauge "conns_active" "connections open now"
let conns_rejected = counter "conns_rejected" "connections turned away at the limit (BUSY)"
let frames_in = counter "frames_in" "well-framed requests read"
let frames_out = counter "frames_out" "response frames written"
let frames_malformed = counter "frames_malformed" "frames failing validation or truncated"
let bytes_in = counter "bytes_in" "bytes of well-framed requests (header + payload)"
let bytes_out = counter "bytes_out" "bytes of response frames written"
let streams = counter "streams" "streamed replies started"
let stream_chunks = counter "stream_chunks" "chunks handed to stream consumers"
let stream_bytes = counter "stream_bytes" "payload bytes streamed"
let streams_fused = counter "streams_fused" "ingests run as one fused SAX pass, no tree"
let stream_fallbacks = counter "stream_fallbacks" "ingests served by a two-pass or tree fallback"

let schema_bindings_dropped =
  counter "schema_bindings_dropped" "commits whose new tree broke its schema binding"

let doc_invalidations =
  counter "doc_invalidations" "annotation tables evicted by unload, reload or a failed repair"

let annotation_repairs = counter "annotation_repairs" "annotation tables repaired across a commit"
let repair_fallbacks = counter "repair_fallbacks" "tables evicted because the diff was degenerate"
let repair_recomputed_nodes = counter "repair_recomputed_nodes" "table entries repairs recomputed"
let repair_reused_nodes = counter "repair_reused_nodes" "table entries repairs carried over"
let view_defs = counter "view_defs" "views defined or redefined"
let view_hits = counter "view_hits" "view requests answered by a composed plan"
let composed_plans = counter "composed_plans" "compositions performed (composed-plan cache misses)"

let view_invalidations =
  counter "view_invalidations" "composed plans and view memos dropped or repaired"

let compose_fallbacks = counter "compose_fallbacks" "view requests that materialized the chain"
let skipped_subtrees = counter "skipped_subtrees" "subtrees a schema skip-set pruned unvisited"
let skipped_nodes = counter "skipped_nodes" "elements inside the pruned subtrees"

let statically_empty_rejections =
  counter "statically_empty_rejections" "requests rejected: the NFA x schema product is empty"

let schema_products = counter "schema_products" "NFA x schema products built (memo misses)"
let commits = counter "commits" "effective commits (the generation advanced)"
let commit_conflicts = counter "commit_conflicts" "commits rejected for pending-list conflicts"
let commit_noops = counter "commit_noops" "commits that selected nothing"

let pending_primitives =
  histogram Count "pending_primitives" "surviving pending-list length per effective commit"

let int = string_of_int

let () =
  probe [ "serialize_pool_hits"; "serialize_pool_misses" ] "serializer buffer pool (process-wide)"
    (fun () ->
      let hits, misses = Xut_xml.Serialize.Pool.stats () in
      [ int hits; int misses ]);
  probe
    [ "nfa_memo_hits"; "nfa_memo_misses"; "nfa_memo_hit_rate" ]
    "selecting-NFA transition memo (process-wide, approximate under domains)"
    (fun () ->
      let hits, misses = Xut_automata.Selecting_nfa.global_memo_stats () in
      let rate =
        if hits + misses = 0 then 0. else float_of_int hits /. float_of_int (hits + misses)
      in
      [ int hits; int misses; Printf.sprintf "%.3f" rate ]);
  probe [ "sym_symbols"; "sym_interns" ] "element-name symbol table: distinct names, intern calls"
    (fun () -> [ int (Xut_xml.Sym.count ()); int (Xut_xml.Sym.interns ()) ])

let rows = List.rev !declared

(* ---- access ---- *)

let create () = Array.init !n_cells (fun _ -> Atomic.make 0)

let rec raise_max cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then raise_max cell v

let add m c n =
  let v = Atomic.fetch_and_add m.(c.slot) n + n in
  if c.peak >= 0 then raise_max m.(c.peak) v

let incr m c = add m c 1
let decr m c = Atomic.decr m.(c.slot)
let get m c = Atomic.get m.(c.slot)
let peak m c = Atomic.get m.(c.peak)

let bucket_of v =
  let rec go i v = if v <= 1 || i = n_buckets - 1 then i else go (i + 1) (v lsr 1) in
  go 0 v

let observe m h v =
  Atomic.incr m.(h.base + bucket_of (match h.scale with Time_ns -> v / 1_000 | Count -> v));
  Atomic.incr m.(h.base + n_buckets);
  raise_max m.(h.base + n_buckets + 1) v

let observations m h = Atomic.get m.(h.base + n_buckets)
let maximum m h = Atomic.get m.(h.base + n_buckets + 1)

(* The bucket holding the q-quantile observation, or [None] when empty. *)
let quantile_bucket m h q =
  let total = observations m h in
  let rank = max 1 (int_of_float (ceil (q *. float_of_int total))) in
  let rec walk i seen =
    if i = n_buckets then None
    else
      let seen = seen + Atomic.get m.(h.base + i) in
      if seen >= rank then Some i else walk (i + 1) seen
  in
  if total = 0 then None else walk 0 0

let seconds ns = float_of_int ns *. 1e-9

let quantile m h q =
  match quantile_bucket m h q, h.scale with
  | None, _ -> 0.
  | Some i, Time_ns ->
    (* the bucket's geometric middle, 2^i*sqrt(2) us, which can lie
       above every sample in it: clamp to the maximum *)
    Float.min (float_of_int (1 lsl i) *. 1.4142 *. 1e-6) (seconds (maximum m h))
  | Some i, Count -> float_of_int (if i = 0 then 1 else 1 lsl i)

(* ---- reset and dump, derived from the rows ---- *)

let reset m =
  List.iter
    (fun r ->
      match r.kind with
      | Counter c -> Atomic.set m.(c.slot) 0
      | Gauge c -> if c.peak >= 0 then Atomic.set m.(c.peak) (get m c)
      | Histogram h -> for i = 0 to n_buckets + 1 do Atomic.set m.(h.base + i) 0 done
      | Probe _ -> ())
    rows

let keys r =
  match r.kind with
  | Counter _ -> [ r.name ]
  | Gauge c -> r.name :: (if c.peak >= 0 then [ r.name ^ "_max" ] else [])
  | Histogram h ->
    let unit = match h.scale with Time_ns -> "_ms" | Count -> "" in
    [ r.name ^ "_count"; r.name ^ "_p50" ^ unit; r.name ^ "_p95" ^ unit; r.name ^ "_max" ^ unit ]
  | Probe (names, _) -> names

let values m r =
  match r.kind with
  | Counter c -> [ int (get m c) ]
  | Gauge c -> int (get m c) :: (if c.peak >= 0 then [ int (peak m c) ] else [])
  | Histogram h ->
    let show, max =
      match h.scale with
      | Time_ns -> ((fun v -> Printf.sprintf "%.3f" (v *. 1e3)), seconds (maximum m h))
      | Count -> ((fun v -> int (int_of_float v)), float_of_int (maximum m h))
    in
    [ int (observations m h); show (quantile m h 0.50); show (quantile m h 0.95); show max ]
  | Probe (_, read) -> read ()

let dump m =
  List.concat_map (fun r -> List.map2 (fun k v -> k ^ " " ^ v) (keys r) (values m r)) rows
  |> String.concat "\n"

let describe () = List.concat_map (fun r -> List.map (fun k -> (k, r.doc)) (keys r)) rows
