open Core

(* What a Transform/Count runs against: a stored document, or a stored
   view answered via Sec. 4 composition over its base document. *)
type target = Doc of string | View of string

type request =
  | Load of { name : string; file : string; schema : string option }
  | Unload of { name : string }
  | Transform of { target : target; engine : Engine.algo; query : string }
  | Count of { target : target; engine : Engine.algo; query : string }
  | Apply of { doc : string; query : string }
  | Commit of { doc : string; query : string }
  | Defview of { name : string; query : string }
  | Undefview of { name : string }
  | Listviews
  | Stats
  | Batch of request list

type err_code =
  | Unknown_document
  | Query_parse_error
  | Eval_error
  | Conflict
  | Overloaded
  | Bad_request
  | View_compose_error
  | Statically_empty

type view_info = { v_name : string; v_base : string; v_depth : int; v_generation : int }

type payload =
  | Doc_loaded of
      { name : string;
        elements : int;
        reloaded : bool;
        generation : int;
        schema : string option
      }
  | Doc_unloaded of { name : string }
  | Tree of string
  | Element_count of int
  | Applied of { doc : string; primitives : int; collapsed : int; conflicts : string list }
  | Committed of
      { doc : string; primitives : int; collapsed : int; elements : int; generation : int }
  | View_defined of
      { name : string; base : string; depth : int; generation : int; redefined : bool }
  | View_undefined of { name : string }
  | View_list of view_info list
  | Stats_dump of string
  | Batch_results of response list
  | Stream_done of { bytes : int; chunks : int }

and response =
  | Ok of payload
  | Error of { code : err_code; message : string }

let err_code_name = function
  | Unknown_document -> "unknown-document"
  | Query_parse_error -> "query-parse-error"
  | Eval_error -> "eval-error"
  | Conflict -> "conflict"
  | Overloaded -> "overloaded"
  | Bad_request -> "bad-request"
  | View_compose_error -> "view-compose-error"
  | Statically_empty -> "statically-empty"

let err_code_of_name = function
  | "unknown-document" -> Some Unknown_document
  | "query-parse-error" -> Some Query_parse_error
  | "eval-error" -> Some Eval_error
  | "conflict" -> Some Conflict
  | "overloaded" -> Some Overloaded
  | "bad-request" -> Some Bad_request
  | "view-compose-error" -> Some View_compose_error
  | "statically-empty" -> Some Statically_empty
  | _ -> None

let error code fmt = Printf.ksprintf (fun message -> Error { code; message }) fmt

let rec render_response = function
  | Ok p -> Stdlib.Ok (render_payload p)
  | Error { code; message } ->
    Stdlib.Error (Printf.sprintf "%s: %s" (err_code_name code) message)

and render_payload = function
  | Doc_loaded { name; elements; reloaded; generation = _; schema } ->
    (* the fresh-load string is the pre-redesign protocol text; a reload
       is flagged so scripted clients can tell the tree was swapped, and
       a schema binding is echoed so they can tell validation took *)
    let base =
      if reloaded then Printf.sprintf "loaded %s elements=%d reloaded=true" name elements
      else Printf.sprintf "loaded %s elements=%d" name elements
    in
    (match schema with None -> base | Some s -> base ^ " schema=" ^ s)
  | Doc_unloaded { name } -> Printf.sprintf "unloaded %s" name
  | Tree s -> s
  | Element_count n -> Printf.sprintf "elements=%d" n
  | Applied { doc; primitives; collapsed; conflicts } ->
    let base =
      Printf.sprintf "apply %s primitives=%d collapsed=%d conflicts=%d" doc primitives
        collapsed (List.length conflicts)
    in
    if conflicts = [] then base else base ^ ": " ^ String.concat "; " conflicts
  | Committed { doc; primitives; collapsed; elements; generation } ->
    Printf.sprintf "committed %s primitives=%d collapsed=%d elements=%d generation=%d" doc
      primitives collapsed elements generation
  | View_defined { name; base; depth; generation; redefined } ->
    let base_s =
      Printf.sprintf "defview %s base=%s depth=%d generation=%d" name base depth generation
    in
    if redefined then base_s ^ " redefined=true" else base_s
  | View_undefined { name } -> Printf.sprintf "undefview %s" name
  | View_list views ->
    String.concat "\n"
      (Printf.sprintf "views %d" (List.length views)
      :: List.map
           (fun v ->
             Printf.sprintf "view %s base=%s depth=%d generation=%d" v.v_name v.v_base
               v.v_depth v.v_generation)
           views)
  | Stats_dump s -> s
  | Stream_done { bytes; chunks } -> Printf.sprintf "streamed bytes=%d chunks=%d" bytes chunks
  | Batch_results rs ->
    String.concat "\n"
      (List.map
         (fun r ->
           match render_response r with
           | Stdlib.Ok s -> "OK " ^ s
           | Stdlib.Error e -> "ERR " ^ e)
         rs)

(* What a worker dequeues: a request, or one of the two streamed
   transforms with the consumer its chunks go to.  The stream half never
   crosses the wire (transports decode their own stream framing and
   supply [emit]); [request] stays pure data. *)
type stream_params = { emit : string -> unit; chunk_size : int }

(* Where a streamed-ingest transform reads from: a stored document, or
   a server-side file that is never materialized as a tree. *)
type stream_source = From_doc of string | From_file of string

type job =
  | Plain_job of request
  | Stream_job of { doc : string; engine : Engine.algo; query : string; params : stream_params }
  | Ingest_job of { source : stream_source; query : string; params : stream_params }

type t = {
  store : Doc_store.t;
  cache : Plan_cache.t;
  views : View_store.t;
  metrics : Metrics.t;
  pool : (job, response) Worker_pool.t;
}

let default_chunk_size = Xut_xml.Serialize.Sink.default_chunk_size

(* ---------------- failures ----------------

   Parsers, engines and the update machinery fail by raising.  Every job
   runs under [guard], the one place an exception becomes a response: a
   query front end's failure (wrapped by [front_end]) answers
   [Query_parse_error], anything else [Eval_error]. *)

exception Bad_query of exn

let front_end f x = try f x with e -> raise (Bad_query e)

let exn_message = function
  | Failure msg
  | Sys_error msg
  | Transform_parser.Parse_error msg
  | Xut_xquery.Xq_parser.Parse_error msg
  | Xut_update.Apply.Invalid msg ->
    msg
  | Xut_xml.Sax.Parse_error { line; col; msg } ->
    Printf.sprintf "parse error at %d:%d: %s" line col msg
  | e -> Printexc.to_string e

let guard f =
  try f () with
  | Bad_query e -> error Query_parse_error "%s" (exn_message e)
  | e -> error Eval_error "%s" (exn_message e)

(* ---------------- schema-aware static pruning ----------------

   When the target document was loaded under a schema, the plan's NFA is
   multiplied with it ({!Xut_schema.Schema.product}, memoized per plan):
   a statically-empty product rejects the request before any document
   work, and otherwise the product's skip-set becomes a per-request
   oracle the engines consult to share whole subtrees without visiting
   them.  The oracle also does the accounting: each [true] answer is one
   pruned subtree, whose exact element population comes from the
   binding's size table (work {e avoided}, measured in O(1)). *)

type pruning = {
  product : Xut_schema.Schema.product;
  skip : Xut_xml.Node.element -> bool;  (* counting oracle for DOM engines *)
}

(* The product of [nfa] with the binding's schema, or [None] when the
   document has no (live) schema or the product can prune nothing. *)
let pruning_for ~metrics (dinfo : Doc_store.info) sizes products nfa =
  match dinfo.Doc_store.schema with
  | None -> None
  | Some sname -> begin
    match Xut_schema.Schema.find sname with
    | None -> None
    | Some schema ->
      let product, built = Product_memo.get products schema nfa in
      if built then Metrics.incr metrics Metrics.schema_products;
      if
        Xut_schema.Schema.skip_count product = 0
        && not (Xut_schema.Schema.statically_empty product)
      then None
      else begin
        let size_of e =
          let whole () = Xut_xml.Node.element_count (Xut_xml.Node.Element e) in
          match sizes with
          | Some tbl ->
            (match Hashtbl.find_opt tbl (Xut_xml.Node.id e) with
            | Some n -> n
            | None -> whole ())
          | None -> whole ()
        in
        let skip e =
          if Xut_schema.Schema.skippable product (Xut_xml.Node.sym e) then begin
            Metrics.incr metrics Metrics.skipped_subtrees;
            Metrics.add metrics Metrics.skipped_nodes (size_of e);
            true
          end
          else false
        in
        Some { product; skip }
      end
  end

(* The admission check: a Doc-target Transform/Count whose product is
   statically empty can never select anything in any document conforming
   to the schema — reject it before touching the tree. *)
let admit ~metrics (dinfo : Doc_store.info) pruning =
  match pruning with
  | Some p when Xut_schema.Schema.statically_empty p.product ->
    Metrics.incr metrics Metrics.statically_empty_rejections;
    Stdlib.Error
      (error Statically_empty
         "query selects nothing under schema %S (NFA x schema product is empty)"
         (Option.value ~default:"?" dinfo.Doc_store.schema))
  | _ -> Stdlib.Ok ()

(* ---------------- the request pipeline ----------------

   resolve (snapshot, plan, pruning, admission) -> dispatch (the engine
   pushes its answer as SAX events) -> consume (the events become a
   [Tree], an [Element_count] or a chunked stream). *)

let compile ~cache ~metrics query =
  let plan, outcome = front_end (Plan_cache.find_or_compile cache) query in
  Metrics.incr metrics
    (match outcome with
    | Plan_cache.Hit -> Metrics.cache_hits
    | Plan_cache.Miss -> Metrics.cache_misses);
  plan

type resolved = {
  plan : Plan_cache.plan;
  pruning : pruning option;
  root : Xut_xml.Node.element;
}

let resolve ~store ~cache ~metrics ~doc ~query =
  match Doc_store.snapshot store doc with
  | None -> Stdlib.Error (error Unknown_document "no document %S (LOAD it first)" doc)
  | Some (root, dinfo, sizes) ->
    let plan = compile ~cache ~metrics query in
    let pruning = pruning_for ~metrics dinfo sizes plan.Plan_cache.products plan.Plan_cache.nfa in
    Result.map (fun () -> { plan; pruning; root }) (admit ~metrics dinfo pruning)

let count_sax_skips ~metrics (stats : Sax_transform.run_stats) =
  Metrics.add metrics Metrics.skipped_subtrees stats.Sax_transform.skipped_subtrees;
  Metrics.add metrics Metrics.skipped_nodes stats.Sax_transform.skipped_elements

let sax_skip pruning = Option.map (fun p -> Xut_schema.Schema.skippable p.product) pruning

(* The one engine dispatch: every engine pushes its answer into
   [events].  GENTOP and TD-BU run the top-down emitter, TD-BU with the
   annotation oracle built by [table] (none: direct qualifier checks, as
   GENTOP); twoPassSAX replays the tree through both SAX passes, taking
   the skip-set by symbol; the others materialize their tree and replay
   it. *)
let dispatch ~metrics ?pruning ?table nfa update engine root events =
  let skip = Option.map (fun p -> p.skip) pruning in
  match (engine : Engine.algo) with
  | Engine.Gentop | Engine.Td_bu ->
    let checkp =
      match engine, table with
      | Engine.Td_bu, Some table -> Some (Xut_automata.Annotator.checkp (table ()) nfa)
      | _ -> None
    in
    Top_down.stream ?checkp ?skip nfa update root events
  | Engine.Two_pass_sax ->
    count_sax_skips ~metrics
      (Sax_transform.run ?skip:(sax_skip pruning) nfa update
         ~source:(Xut_xml.Sax.events_of_tree root) ~sink:events)
  | (Engine.Reference | Engine.Naive | Engine.Galax_update) as other ->
    Xut_xml.Sax.events_of_tree (Engine.transform other update root) events

(* How an answer leaves the dispatch: serialized whole into a [Tree],
   counted into an [Element_count] (no output tree, no string), or
   serialized in chunks to [emit]. *)
let consume ~metrics consumer body =
  let module Sink = Xut_xml.Serialize.Sink in
  let into sink =
    match body (Sink.event sink) with
    | () -> Sink.close sink
    | exception e ->
      Sink.abort sink;
      raise e
  in
  match consumer with
  | `Count ->
    let n = ref 0 in
    body (function Xut_xml.Sax.Start_element _ -> incr n | _ -> ());
    Ok (Element_count !n)
  | `Tree ->
    (* default-size chunks keep the pooled buffer small; the reply is
       their one concatenation *)
    let chunks = ref [] in
    ignore (into (Sink.create (fun c -> chunks := c :: !chunks)));
    Ok (Tree (String.concat "" (List.rev !chunks)))
  | `Stream { emit; chunk_size } ->
    Metrics.incr metrics Metrics.streams;
    let totals =
      into
        (Sink.create ~chunk_size (fun chunk ->
             Metrics.incr metrics Metrics.stream_chunks;
             Metrics.add metrics Metrics.stream_bytes (String.length chunk);
             emit chunk))
    in
    Ok (Stream_done { bytes = totals.Sink.bytes; chunks = totals.Sink.chunks })

let execute ~metrics { plan; pruning; root } engine consumer =
  let skip = Option.map (fun p -> p.skip) pruning in
  consume ~metrics consumer
    (dispatch ~metrics ?pruning
       ~table:(fun () -> Plan_cache.annotation ?skip plan root)
       plan.Plan_cache.nfa plan.Plan_cache.query.Transform_ast.update engine root)

let read_doc ~store ~cache ~metrics ~doc ~engine ~query consumer =
  match resolve ~store ~cache ~metrics ~doc ~query with
  | Stdlib.Error e -> e
  | Stdlib.Ok r -> execute ~metrics r engine consumer

(* ---------------- stored-view serving ---------------- *)

(* Both the composed path and the materializing fallback answer through
   these, so the two are byte-identical by construction: one serialized
   line per result item, or the element count of the items. *)
let render_value (v : Xut_xquery.Xq_value.t) =
  String.concat "\n"
    (List.map
       (fun item ->
         match item with
         | Xut_xquery.Xq_value.N n -> Xut_xml.Serialize.to_string n
         | Xut_xquery.Xq_value.D e -> Xut_xml.Serialize.element_to_string e
         | other -> Xut_xquery.Xq_value.string_of_item other)
       v)

let count_value (v : Xut_xquery.Xq_value.t) =
  List.fold_left
    (fun n item ->
      match item with
      | Xut_xquery.Xq_value.N node -> n + Xut_xml.Node.element_count node
      | Xut_xquery.Xq_value.D e -> n + Xut_xml.Node.element_count (Xut_xml.Node.Element e)
      | _ -> n + 1)
    0 v

(* The fallback: materialize the chain level by level through the engine
   dispatch, then evaluate the user query over the result.  Level 0 with
   TD-BU gets the view's memoized annotation table; the outer levels run
   over freshly built trees where no memo can help. *)
let materialize_chain ~metrics ~engine (levels : View_store.view list) root =
  let apply_level i t (v : View_store.view) =
    let b = Xut_xml.Dom.Builder.create () in
    let table =
      if i = 0 then Some (fun () -> Annotation_memo.find v.View_store.memo v.View_store.nfa t)
      else None
    in
    dispatch ~metrics ?table v.View_store.nfa v.View_store.update engine t
      (Xut_xml.Dom.Builder.handler b);
    Xut_xml.Dom.Builder.result b
  in
  List.fold_left (fun (i, t) v -> (i + 1, apply_level i t v)) (0, root) levels |> snd

let evaluate_view ~store ~cache ~views ~metrics ~name ~engine ~query =
  match View_store.resolve views name with
  | None -> Stdlib.Error (error Unknown_document "no view %S (DEFVIEW it first)" name)
  | Some chain -> begin
    match Doc_store.snapshot store chain.View_store.base with
    | None ->
      Stdlib.Error
        (error Unknown_document "no document %S (base of view %S; LOAD it first)"
           chain.View_store.base name)
    | Some (root, base_info, base_sizes) -> begin
      let expr = front_end Xut_xquery.Xq_parser.parse_expr query in
      let levels = chain.View_store.levels in
      let fallback () =
        Metrics.incr metrics Metrics.compose_fallbacks;
        let materialized = materialize_chain ~metrics ~engine levels root in
        Stdlib.Ok
          (Xut_xquery.Xq_eval.eval_expr (Xut_xquery.Xq_eval.env ~context:materialized ()) expr)
      in
      match User_query.of_expr expr with
      | Stdlib.Error _ ->
        (* not in the restricted user fragment: the Compose method
           does not apply, materialize instead *)
        fallback ()
      | Stdlib.Ok uq -> begin
        let key = View_store.signature chain ^ "||" ^ query in
        let deps =
          chain.View_store.base
          :: List.map (fun (v : View_store.view) -> v.View_store.name) levels
        in
        let updates = List.map (fun (v : View_store.view) -> v.View_store.update) levels in
        match
          Plan_cache.find_or_compose cache ~key ~deps (fun () ->
              Composition.compose_stack updates uq)
        with
        | Stdlib.Error _, _ -> fallback ()
        | Stdlib.Ok c, outcome ->
          if outcome = Plan_cache.Miss then Metrics.incr metrics Metrics.composed_plans;
          Metrics.incr metrics Metrics.view_hits;
          (* the oracle answers level-0 qualifier checks over the base
             tree from the view's memoized annotation table; when the
             base document is schema-bound, the innermost update's own
             NFA x schema product prunes the table build (the table is
             identical either way — views are never rejected) *)
          let oracle =
            match (engine : Engine.algo), levels with
            | Engine.Td_bu, (inner : View_store.view) :: _ ->
              let skip =
                Option.map
                  (fun p -> p.skip)
                  (pruning_for ~metrics base_info base_sizes inner.View_store.products
                     inner.View_store.nfa)
              in
              let table =
                Annotation_memo.find ?skip inner.View_store.memo inner.View_store.nfa root
              in
              Some (Xut_automata.Annotator.checkp table inner.View_store.nfa)
            | _ -> None
          in
          Stdlib.Ok (Composition.run_composed ?oracle c ~doc:root)
      end
    end
  end

(* A Transform/Count: the request picks the consumer, the target picks
   the path — a document runs the pipeline, a view composes. *)
let read ~store ~cache ~views ~metrics consumer target engine query =
  match target with
  | Doc doc -> read_doc ~store ~cache ~metrics ~doc ~engine ~query consumer
  | View name -> (
    match evaluate_view ~store ~cache ~views ~metrics ~name ~engine ~query with
    | Stdlib.Error e -> e
    | Stdlib.Ok v -> (
      match consumer with
      | `Tree -> Ok (Tree (render_value v))
      | `Count -> Ok (Element_count (count_value v))))

let handle_defview ~cache ~views ~metrics ~name ~query =
  match View_store.define views ~name ~source:query with
  | Stdlib.Error (`Parse m) -> error Query_parse_error "%s" m
  | Stdlib.Error (`Compose m) -> error View_compose_error "%s" m
  | Stdlib.Error (`Cycle path) ->
    error View_compose_error "view cycle: %s" (String.concat " -> " path)
  | Stdlib.Ok (v, redefined) ->
    Metrics.incr metrics Metrics.view_defs;
    if redefined then
      (* the definition changed: every composed plan over a chain through
         this name is stale (the generation in the cache key already
         misses, this reclaims the entries and counts the churn) *)
      Metrics.add metrics Metrics.view_invalidations
        (Plan_cache.invalidate_composed cache ~dep:name);
    Ok
      (View_defined
         {
           name;
           base = v.View_store.base;
           depth = View_store.depth views name;
           generation = v.View_store.generation;
           redefined;
         })

let handle_undefview ~cache ~views ~metrics ~name =
  if View_store.undefine views ~name then begin
    Metrics.add metrics Metrics.view_invalidations (Plan_cache.invalidate_composed cache ~dep:name);
    Ok (View_undefined { name })
  end
  else error Unknown_document "no view %S" name

let view_infos views =
  List.map
    (fun (i : View_store.info) ->
      {
        v_name = i.View_store.i_name;
        v_base = i.View_store.i_base;
        v_depth = i.View_store.i_depth;
        v_generation = i.View_store.i_generation;
      })
    (View_store.infos views)

(* The write path.  Both [APPLY] and [COMMIT] evaluate the query's
   updates into a pending list with snapshot semantics
   ({!Xut_update.Apply}); APPLY stops at the dry-run report, COMMIT
   materializes and swaps under {!Doc_store.commit}. *)
let parse_updates = front_end Transform_parser.parse_updates

let conflict_strings report =
  List.map Xut_update.Pending.render_conflict report.Xut_update.Apply.conflicts

let handle_apply ~store ~doc ~query =
  let updates = parse_updates query in
  match Doc_store.find store doc with
  | None -> error Unknown_document "no document %S (LOAD it first)" doc
  | Some root ->
    let report, _ = Xut_update.Apply.stage updates root in
    Ok
      (Applied
         {
           doc;
           primitives = report.Xut_update.Apply.primitives;
           collapsed = report.Xut_update.Apply.collapsed;
           conflicts = conflict_strings report;
         })

let handle_commit ~store ~metrics ~doc ~query =
  let updates = parse_updates query in
  let committed (info : Doc_store.info) report =
    Ok
      (Committed
         {
           doc;
           primitives = report.Xut_update.Apply.primitives;
           collapsed = report.Xut_update.Apply.collapsed;
           elements = info.Doc_store.elements;
           generation = info.Doc_store.generation;
         })
  in
  let result =
    Doc_store.commit store ~name:doc (fun _info root ->
        match Xut_update.Apply.run updates root with
        | Stdlib.Ok (report, materialized) ->
          let swap =
            Option.map
              (fun (root', diff) -> (root', Some diff.Xut_update.Apply.spine))
              materialized
          in
          Stdlib.Ok (swap, report)
        | Stdlib.Error report -> Stdlib.Error report)
  in
  match result with
  | Doc_store.Swapped (info, report) ->
    Metrics.incr metrics Metrics.commits;
    Metrics.observe metrics Metrics.pending_primitives report.Xut_update.Apply.primitives;
    committed info report
  | Doc_store.Unchanged (info, report) ->
    Metrics.incr metrics Metrics.commit_noops;
    committed info report
  | Doc_store.Rejected report ->
    Metrics.incr metrics Metrics.commit_conflicts;
    error Conflict "%s" (String.concat "; " (conflict_strings report))
  | Doc_store.No_document -> error Unknown_document "no document %S (LOAD it first)" doc

(* [depth] guards against nested batches; each batch item runs under its
   own [guard], so one failing item answers an [Error] in its slot. *)
let rec handle ~store ~cache ~views ~metrics ~depth = function
  | Load { name; file; schema } -> begin
    match Doc_store.load_file store ~name ?schema file with
    | Stdlib.Ok (info, reloaded) ->
      Ok
        (Doc_loaded
           {
             name = info.Doc_store.name;
             elements = info.Doc_store.elements;
             reloaded;
             generation = info.Doc_store.generation;
             schema = info.Doc_store.schema;
           })
    | Stdlib.Error msg -> error Bad_request "%s" msg
  end
  | Unload { name } ->
    if Doc_store.evict store name then Ok (Doc_unloaded { name })
    else error Unknown_document "no document %S" name
  | Transform { target; engine; query } ->
    read ~store ~cache ~views ~metrics `Tree target engine query
  | Count { target; engine; query } -> read ~store ~cache ~views ~metrics `Count target engine query
  | Apply { doc; query } -> handle_apply ~store ~doc ~query
  | Commit { doc; query } -> handle_commit ~store ~metrics ~doc ~query
  | Defview { name; query } -> handle_defview ~cache ~views ~metrics ~name ~query
  | Undefview { name } -> handle_undefview ~cache ~views ~metrics ~name
  | Listviews -> Ok (View_list (view_infos views))
  | Stats ->
    let b = Buffer.create 512 in
    Buffer.add_string b (Metrics.dump metrics);
    let cs = Plan_cache.stats cache in
    Printf.bprintf b
      "\nplan_cache entries=%d capacity=%d evictions=%d annotation_entries=%d \
       composed_entries=%d"
      cs.Plan_cache.entries cs.Plan_cache.capacity cs.Plan_cache.evictions
      cs.Plan_cache.annotation_entries cs.Plan_cache.composed_entries;
    List.iter
      (fun name ->
        match Doc_store.info store name with
        | Some i ->
          Printf.bprintf b "\ndoc %s elements=%d generation=%d" i.Doc_store.name
            i.Doc_store.elements i.Doc_store.generation;
          (match i.Doc_store.schema with
          | Some s -> Printf.bprintf b " schema=%s" s
          | None -> ())
        | None -> ())
      (Doc_store.names store);
    List.iter
      (fun (i : View_store.info) ->
        Printf.bprintf b "\nview %s base=%s depth=%d generation=%d" i.View_store.i_name
          i.View_store.i_base i.View_store.i_depth i.View_store.i_generation)
      (View_store.infos views);
    Ok (Stats_dump (Buffer.contents b))
  | Batch reqs ->
    if depth > 0 then error Bad_request "nested batch"
    else
      Ok
        (Batch_results
           (List.map
              (fun r -> guard (fun () -> handle ~store ~cache ~views ~metrics ~depth:(depth + 1) r))
              reqs))

(* ---------------- streamed ingest ----------------

   TRANSFORM-STREAM: transform a source without materializing the input
   as a tree, when the plan admits it.  The classifier is
   {!Sax_transform.one_pass}: a plan with no qualifiers anywhere (no
   context qualifier, no qualifier-bearing NFA state) never consults the
   bottom-up truth table, so the top-down pass alone over a single
   forward read of the input is the whole transform — O(depth) memory,
   end to end ([streams_fused]).

   Shapes outside that fragment fall back automatically, with
   byte-identical output (same serializer sink, same transform
   semantics), counted in [stream_fallbacks]:

   - a FILE source with a trivially-true context qualifier runs the full
     two-pass SAX algorithm, reading the file twice (the paper's Fig. 14
     configuration) — a truth table but still no tree;
   - everything else (context qualifiers; qualifier-bearing plans over a
     stored document, whose tree already exists) takes the GENTOP arm of
     the engine dispatch over the tree, streaming only the output. *)
let ingest ~store ~cache ~metrics params ~source ~query =
  let stream = `Stream params in
  let fused ?skip nfa update source =
    Metrics.incr metrics Metrics.streams_fused;
    consume ~metrics stream (fun events ->
        count_sax_skips ~metrics (Sax_transform.run_once ?skip nfa update ~source ~sink:events))
  in
  match source with
  | From_doc doc -> begin
    match resolve ~store ~cache ~metrics ~doc ~query with
    | Stdlib.Error e -> e
    | Stdlib.Ok ({ plan; pruning; root } as r) ->
      if Sax_transform.one_pass plan.Plan_cache.nfa then
        fused ?skip:(sax_skip pruning) plan.Plan_cache.nfa
          plan.Plan_cache.query.Transform_ast.update (Xut_xml.Sax.events_of_tree root)
      else begin
        Metrics.incr metrics Metrics.stream_fallbacks;
        execute ~metrics r Engine.Gentop stream
      end
  end
  | From_file path ->
    let plan = compile ~cache ~metrics query in
    let nfa = plan.Plan_cache.nfa and update = plan.Plan_cache.query.Transform_ast.update in
    let file h = Xut_xml.Sax.parse_file path h in
    if not (Sys.file_exists path) then error Eval_error "no such file %S" path
    else if Sax_transform.one_pass nfa then fused nfa update file
    else begin
      Metrics.incr metrics Metrics.stream_fallbacks;
      consume ~metrics stream (fun events ->
          match Xut_automata.Selecting_nfa.ctx_qual nfa with
          | Xut_xpath.Ast.Q_true ->
            count_sax_skips ~metrics (Sax_transform.run nfa update ~source:file ~sink:events)
          | _ ->
            dispatch ~metrics nfa update Engine.Gentop (Xut_xml.Dom.parse_file path) events)
    end

let rec count_errors = function
  | Error _ -> 1
  | Ok (Batch_results rs) -> List.fold_left (fun n r -> n + count_errors r) 0 rs
  | Ok _ -> 0

let create ?(domains = 1) ?(cache_capacity = 128) ?(queue_capacity = 64) ?store_shards () =
  let store = Doc_store.create ?shards:store_shards () in
  let cache = Plan_cache.create ~capacity:cache_capacity in
  let views = View_store.create () in
  let metrics = Metrics.create () in
  (* The lifecycle hook: a document leaving the store (UNLOAD, or the
     old tree of a reload) takes exactly its annotation tables with it —
     per-doc eviction, never a whole-memo wipe.  A COMMIT that supplied
     its rebuilt-spine diff instead has every cached plan's table
     {e repaired} for the new root (the old root's table stays
     addressable for in-flight readers until the per-plan LRU drops it);
     a fallback eviction counts as an invalidation like any other.

     The same event walks the view-dependency graph: every view whose
     chain passes through the document has its annotation memo repaired
     (commit with a usable diff) or evicted, and an UNLOAD/reload also
     drops the composed plans addressed through the document — all
     counted as [view_invalidations].  A plain COMMIT keeps composed
     plans: they depend on the definitions, not on document content. *)
  Doc_store.subscribe store (fun ev ->
      if ev.Doc_store.schema_dropped then Metrics.incr metrics Metrics.schema_bindings_dropped;
      (* The schema captured at the swap (if the new tree still
         conforms): each repaired table's fresh-subtree annotation runs
         under the owning plan's skip-set, exactly as a from-scratch
         build would.  The oracle changes cost, never content, so the
         repaired table equals the unpruned one — repair_fallbacks stays
         0 with pruning on. *)
      let skip_against nfa products =
        match ev.Doc_store.schema with
        | None -> None
        | Some sname -> begin
          match Xut_schema.Schema.find sname with
          | None -> None
          | Some schema ->
            let product, built = Product_memo.get products schema nfa in
            if built then Metrics.incr metrics Metrics.schema_products;
            if Xut_schema.Schema.skip_count product = 0 then None
            else
              Some
                (fun e -> Xut_schema.Schema.skippable product (Xut_xml.Node.sym e))
        end
      in
      (match ev.Doc_store.repair with
      | Some hint ->
        let plan_skip (plan : Plan_cache.plan) =
          skip_against plan.Plan_cache.nfa plan.Plan_cache.products
        in
        let totals =
          Plan_cache.repair ~plan_skip cache ~old_root_id:ev.Doc_store.root_id
            ~spine:hint.Doc_store.spine hint.Doc_store.new_root
        in
        Metrics.add metrics Metrics.annotation_repairs totals.Plan_cache.repaired;
        Metrics.add metrics Metrics.repair_fallbacks totals.Plan_cache.fallbacks;
        Metrics.add metrics Metrics.repair_recomputed_nodes totals.Plan_cache.recomputed_nodes;
        Metrics.add metrics Metrics.repair_reused_nodes totals.Plan_cache.reused_nodes;
        Metrics.add metrics Metrics.doc_invalidations totals.Plan_cache.fallbacks
      | None ->
        Metrics.add metrics Metrics.doc_invalidations
          (Plan_cache.invalidate cache ~root_id:ev.Doc_store.root_id));
      let view_churn = ref 0 in
      List.iter
        (fun vn ->
          match View_store.find views vn with
          | None -> ()
          | Some v -> (
            (* only views based directly on this document hold memo
               tables keyed by its root; for the rest this is a no-op *)
            match ev.Doc_store.repair with
            | Some hint -> (
              match
                Annotation_memo.repair
                  ?skip:(skip_against v.View_store.nfa v.View_store.products)
                  v.View_store.memo v.View_store.nfa
                  ~old_root_id:ev.Doc_store.root_id ~spine:hint.Doc_store.spine
                  hint.Doc_store.new_root
              with
              | `Absent -> ()
              | `Fallback | `Repaired _ -> incr view_churn)
            | None ->
              if Annotation_memo.invalidate v.View_store.memo ~root_id:ev.Doc_store.root_id
              then incr view_churn))
        (View_store.dependents views ev.Doc_store.name);
      (match ev.Doc_store.reason with
      | Doc_store.Unloaded | Doc_store.Replaced ->
        view_churn := !view_churn + Plan_cache.invalidate_composed cache ~dep:ev.Doc_store.name
      | Doc_store.Committed -> ());
      Metrics.add metrics Metrics.view_invalidations !view_churn);
  let handler job =
    Metrics.incr metrics Metrics.requests;
    let t0 = Unix.gettimeofday () in
    let resp =
      guard (fun () ->
          match job with
          | Plain_job req -> handle ~store ~cache ~views ~metrics ~depth:0 req
          | Stream_job { doc; engine; query; params } ->
            read_doc ~store ~cache ~metrics ~doc ~engine ~query (`Stream params)
          | Ingest_job { source; query; params } ->
            ingest ~store ~cache ~metrics params ~source ~query)
    in
    Metrics.observe metrics Metrics.latency
      (int_of_float ((Unix.gettimeofday () -. t0) *. 1e9));
    for _ = 1 to count_errors resp do
      Metrics.incr metrics Metrics.errors
    done;
    resp
  in
  let pool =
    Worker_pool.create
      ~on_enqueue:(fun () -> Metrics.incr metrics Metrics.queue_depth)
      ~on_dequeue:(fun () -> Metrics.decr metrics Metrics.queue_depth)
      ~domains ~queue_capacity handler
  in
  { store; cache; views; metrics; pool }

(* The pool's own error channel ([('b, string) result]) only fires when
   an exception escapes the handler — [guard] catches everything, so
   this is the backstop mapping, plus the shut-down case. *)
type future =
  | Ready of response
  | Pending of (response, string) Stdlib.result Worker_pool.future

let submit_job t job =
  match Worker_pool.submit t.pool job with
  | fut -> Pending fut
  | exception Invalid_argument _ ->
    Ready (error Overloaded "service is shut down")

let submit t req = submit_job t (Plain_job req)

let submit_stream t ~doc ~engine ~query ?(chunk_size = default_chunk_size) emit =
  submit_job t
    (Stream_job { doc; engine; query; params = { emit; chunk_size = max 1 chunk_size } })

let submit_ingest t ~source ~query ?(chunk_size = default_chunk_size) emit =
  submit_job t
    (Ingest_job { source; query; params = { emit; chunk_size = max 1 chunk_size } })

let flatten = function
  | Stdlib.Ok r -> r
  | Stdlib.Error msg -> error Eval_error "%s" msg

let await = function
  | Ready r -> r
  | Pending fut -> flatten (Worker_pool.await fut)

let peek = function
  | Ready r -> Some r
  | Pending fut -> Option.map flatten (Worker_pool.peek fut)

let call t req = await (submit t req)

let transform_stream t ~doc ~engine ~query ?chunk_size emit =
  await (submit_stream t ~doc ~engine ~query ?chunk_size emit)

let transform_ingest t ~source ~query ?chunk_size emit =
  await (submit_ingest t ~source ~query ?chunk_size emit)

let metrics t = t.metrics
let cache_stats t = Plan_cache.stats t.cache
let store t = t.store
let views t = t.views

(* Subscribers added here run after the service's own plan-cache hook,
   so by the time a transport broadcasts a notice the stale tables are
   already gone — a client acting on the notice sees fresh state. *)
let on_invalidate t f = Doc_store.subscribe t.store f
let shutdown t = Worker_pool.shutdown t.pool
