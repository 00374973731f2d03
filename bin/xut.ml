(* xut — command-line front end for the transform-query engines.

   Subcommands:
     transform    evaluate a transform query against a document
     compose      compose a transform query with a user query
     rewrite      print the standard-XQuery rewriting (Fig. 2)
     query        evaluate an XQuery (subset) against a document
     xmark        generate an XMark-style document
     serve        request loop over the xut_service layer: stdin lines, or the
                  framed binary protocol on a Unix socket / TCP port
     client       send framed requests to a running socket server
     bench-serve  closed-loop load driver for the service layer
                  (in-process or through the socket transport) *)

open Cmdliner
open Core

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

let load_doc path = Xut_xml.Dom.parse_file path

(* ---------------- run metadata (for bench JSON) ----------------

   Enough provenance to compare BENCH_*.json files across checkouts:
   which commit produced the numbers, when, and on how many cores. *)

let git_commit () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    let status = Unix.close_process_in ic in
    match (status, line) with Unix.WEXITED 0, l when l <> "" -> l | _ -> "unknown"
  with _ -> "unknown"

let iso_date () =
  let t = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900) (t.Unix.tm_mon + 1)
    t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min t.Unix.tm_sec

let json_meta oc =
  Printf.fprintf oc
    "  \"meta\": { \"commit\": \"%s\", \"date\": \"%s\", \"cores\": %d, \"os\": \"%s\" },\n"
    (git_commit ()) (iso_date ())
    (Domain.recommended_domain_count ())
    Sys.os_type

(* ---------------- shared arguments ---------------- *)

let doc_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "d"; "doc" ] ~docv:"FILE" ~doc:"Input XML document.")

let engine_arg =
  let parse s =
    match Engine.of_string s with
    | Some a -> Ok a
    | None ->
      Error (`Msg (Printf.sprintf "unknown engine %S (naive|gentop|td-bu|sax|copy|reference)" s))
  in
  let print ppf a = Format.pp_print_string ppf (Engine.name a) in
  Arg.(
    value
    & opt (conv (parse, print)) Engine.Gentop
    & info [ "e"; "engine" ] ~docv:"ENGINE"
        ~doc:"Evaluation engine: naive, gentop, td-bu, sax, copy or reference.")

let indent_arg =
  Arg.(value & flag & info [ "pretty" ] ~doc:"Indent the output document.")

let query_pos =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"QUERY" ~doc:"The query text, or @FILE to read it from a file.")

let read_query q = if String.length q > 0 && q.[0] = '@' then read_file (String.sub q 1 (String.length q - 1)) else q

let print_doc ~pretty root =
  print_endline
    (if pretty then Xut_xml.Serialize.element_to_string ~indent:2 root
     else Xut_xml.Serialize.element_to_string root)

(* ---------------- transform ---------------- *)

let transform_cmd =
  let run query doc engine pretty stats stream =
    let q = Transform_parser.parse (read_query query) in
    if stream then begin
      (* Fused constant-memory path: SAX parse straight through the
         selecting NFA into the chunked serializer, never building a
         tree.  Plans that need the bottom-up qualifier pass fall back
         to the two-parse configuration (still no tree); output is
         byte-identical either way. *)
      if pretty then begin
        Printf.eprintf "xut transform: --stream does not indent; drop --pretty\n";
        exit 2
      end;
      let update = q.Transform_ast.update in
      let nfa = Xut_automata.Selecting_nfa.of_path (Transform_ast.path update) in
      let source h = Xut_xml.Sax.parse_file doc h in
      let t0 = Unix.gettimeofday () in
      let sink = Xut_xml.Serialize.Sink.create print_string in
      let fused = Sax_transform.one_pass nfa in
      let rs =
        try
          if fused then Sax_transform.run_once nfa update ~source ~sink:(Xut_xml.Serialize.Sink.event sink)
          else Sax_transform.run nfa update ~source ~sink:(Xut_xml.Serialize.Sink.event sink)
        with e ->
          Xut_xml.Serialize.Sink.abort sink;
          raise e
      in
      ignore (Xut_xml.Serialize.Sink.close sink);
      print_newline ();
      let dt = Unix.gettimeofday () -. t0 in
      if stats then
        Format.eprintf "engine=%s time=%.4fs depth=%d truth=%d elements=%d@."
          (if fused then "fusedSAX" else "twoPassSAX")
          dt rs.Sax_transform.max_stack_depth rs.Sax_transform.truth_entries
          rs.Sax_transform.elements_seen;
      0
    end
    else begin
      let root = load_doc doc in
      Stats.reset ();
      let t0 = Unix.gettimeofday () in
      let out = Engine.run engine q ~doc:root in
      let dt = Unix.gettimeofday () -. t0 in
      print_doc ~pretty out;
      if stats then
        Format.eprintf "engine=%s time=%.4fs %a@." (Engine.name engine) dt Stats.pp (Stats.read ());
      0
    end
  in
  let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print timing and node counters to stderr.") in
  let stream =
    Arg.(value & flag
         & info [ "stream" ]
             ~doc:"Constant-memory streaming: drive the SAX parse of the document straight \
                   through the compiled plan into the serializer, never materializing a tree \
                   (single-pass when the plan is qualifier-free, two parses otherwise; \
                   ignores --engine).")
  in
  Cmd.v
    (Cmd.info "transform" ~doc:"Evaluate a transform query (update syntax) without touching the store.")
    Term.(const run $ query_pos $ doc_arg $ engine_arg $ indent_arg $ stats $ stream)

(* ---------------- compose ---------------- *)

let compose_cmd =
  let run tq uq doc_opt show naive_flag =
    let q = Transform_parser.parse (read_query tq) in
    let user = User_query.parse (read_query uq) in
    (match Composition.compose q.Transform_ast.update user with
    | Ok composed ->
      if show then begin
        print_endline "-- composed query (xut:* are runtime topDown helpers) --";
        print_endline (Composition.to_string composed)
      end;
      (match doc_opt with
      | Some path ->
        let root = load_doc path in
        let v =
          if naive_flag then Composition.naive q.Transform_ast.update user ~doc:root
          else Composition.run_composed composed ~doc:root
        in
        List.iter
          (fun item ->
            match item with
            | Xut_xquery.Xq_value.N n -> print_endline (Xut_xml.Serialize.to_string n)
            | other -> print_endline (Xut_xquery.Xq_value.string_of_item other))
          v
      | None -> ())
    | Error reason ->
      Printf.eprintf "not statically composable (%s); falling back to naive composition\n" reason;
      Option.iter
        (fun path ->
          let root = load_doc path in
          let v = Composition.naive q.Transform_ast.update user ~doc:root in
          List.iter
            (fun item ->
              match item with
              | Xut_xquery.Xq_value.N n -> print_endline (Xut_xml.Serialize.to_string n)
              | other -> print_endline (Xut_xquery.Xq_value.string_of_item other))
            v)
        doc_opt);
    0
  in
  let tq =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TRANSFORM" ~doc:"Transform query (or @FILE).")
  in
  let uq =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"USER" ~doc:"User query (or @FILE).")
  in
  let doc_opt =
    Arg.(value & opt (some file) None & info [ "d"; "doc" ] ~docv:"FILE" ~doc:"Evaluate against this document.")
  in
  let show = Arg.(value & flag & info [ "show" ] ~doc:"Print the composed query.") in
  let naive_flag =
    Arg.(value & flag & info [ "naive" ] ~doc:"Use the Naive Composition method instead.")
  in
  Cmd.v
    (Cmd.info "compose" ~doc:"Compose a user query with a transform query (Section 4).")
    Term.(const run $ tq $ uq $ doc_opt $ show $ naive_flag)

(* ---------------- rewrite ---------------- *)

let rewrite_cmd =
  let run query method_ =
    let q = Transform_parser.parse (read_query query) in
    (match method_ with
    | "naive" -> print_endline (Xquery_rewrite.rewrite_to_string q)
    | "gentop" -> print_endline (Xquery_compile.compile_to_string q)
    | m -> Printf.eprintf "unknown method %S (naive|gentop)\n" m);
    0
  in
  let method_ =
    Arg.(value & opt string "naive"
         & info [ "m"; "method" ] ~docv:"METHOD"
             ~doc:"Rewriting: 'naive' (Fig. 2 template) or 'gentop' (compiled automaton).")
  in
  Cmd.v
    (Cmd.info "rewrite"
       ~doc:"Print a transform query as standard XQuery (Fig. 2 template or compiled automaton).")
    Term.(const run $ query_pos $ method_)

(* ---------------- query ---------------- *)

let query_cmd =
  let run query doc =
    let root = load_doc doc in
    let env = Xut_xquery.Xq_eval.env ~context:root ~docs:[ ("doc", root) ] () in
    let v = Xut_xquery.Xq_eval.run_query env (read_query query) in
    List.iter
      (fun item ->
        match item with
        | Xut_xquery.Xq_value.N n -> print_endline (Xut_xml.Serialize.to_string n)
        | Xut_xquery.Xq_value.D e -> print_endline (Xut_xml.Serialize.element_to_string e)
        | other -> print_endline (Xut_xquery.Xq_value.string_of_item other))
      v;
    0
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Evaluate an XQuery (engine subset) against a document.")
    Term.(const run $ query_pos $ doc_arg)

(* ---------------- xmark ---------------- *)

let xmark_cmd =
  let run factor seed output stream =
    if stream then begin
      (* SAX generator mode: the document goes out as an event stream
         through the chunked serializer — same bytes as the default
         writer, and "-" sends them to stdout (e.g. to pipe into a
         TRANSFORM-STREAM FILE fifo). *)
      let write oc =
        let sink = Xut_xml.Serialize.Sink.create (output_string oc) in
        Xut_xmark.Generator.events ~seed:(Int64.of_int seed) ~factor
          (Xut_xml.Serialize.Sink.event sink);
        ignore (Xut_xml.Serialize.Sink.close sink)
      in
      if output = "-" then write stdout
      else begin
        Out_channel.with_open_bin output write;
        Printf.printf "wrote %s (factor %g, streamed)\n" output factor
      end
    end
    else begin
      Xut_xmark.Generator.to_file ~seed:(Int64.of_int seed) ~factor output;
      Printf.printf "wrote %s (factor %g)\n" output factor
    end;
    0
  in
  let factor =
    Arg.(value & opt float 0.01 & info [ "f"; "factor" ] ~docv:"F" ~doc:"XMark scaling factor.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.") in
  let output =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE" ~doc:"Output path (\"-\" for stdout with --stream).")
  in
  let stream =
    Arg.(value & flag
         & info [ "stream" ]
             ~doc:"Emit the document as a SAX event stream through the chunked serializer \
                   (byte-identical to the default writer); FILE may be \"-\" for stdout.")
  in
  Cmd.v
    (Cmd.info "xmark" ~doc:"Generate an XMark-style auction document.")
    Term.(const run $ factor $ seed $ output $ stream)

(* ---------------- serve ---------------- *)

let ingest_source_of_line = function
  | `Doc name -> Xut_service.Service.From_doc name
  | `File path -> Xut_service.Service.From_file path

let stdin_serve_loop svc =
  let rec loop () =
    match In_channel.input_line stdin with
    | None -> ()
    | Some line when String.trim line = "" -> loop ()
    | Some line ->
      (match Xut_transport.Wire.Line.decode_incoming line with
      | Error msg -> Printf.printf "ERR %s\n%!" msg
      | Ok (Xut_transport.Wire.Line.Plain req) ->
        let resp = Xut_service.Service.call svc req in
        Printf.printf "%s\n%!" (Xut_transport.Wire.Line.render_response resp)
      | Ok (Xut_transport.Wire.Line.Stream_ingest { source; query }) ->
        (* streamed ingest on the line protocol: raw chunks to stdout as
           they arrive, then the rendered completion on its own line *)
        let resp =
          Xut_service.Service.transform_ingest svc
            ~source:(ingest_source_of_line source) ~query print_string
        in
        print_newline ();
        Printf.printf "%s\n%!" (Xut_transport.Wire.Line.render_response resp));
      loop ()
  in
  loop ()

let socket_serve_loop svc addr max_conns read_timeout max_frame =
  let config =
    {
      Xut_transport.Server.max_frame;
      max_connections = max_conns;
      read_timeout;
    }
  in
  let server = Xut_transport.Server.start ~config ~service:svc addr in
  Printf.eprintf "xut serve: listening on %s\n%!"
    (Xut_transport.Addr.to_string (Xut_transport.Server.address server));
  let stop_requested = Atomic.make false in
  let request_stop _ = Atomic.set stop_requested true in
  Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
  while not (Atomic.get stop_requested) do
    Thread.delay 0.2
  done;
  Printf.eprintf "xut serve: draining and shutting down\n%!";
  Xut_transport.Server.stop server

let serve_cmd =
  let run domains cache_capacity queue_capacity socket_opt tcp_opt max_conns read_timeout
      max_frame_mib =
    if domains < 1 || cache_capacity < 0 || queue_capacity < 1 then begin
      Printf.eprintf "xut serve: need --domains >= 1, --cache >= 0, --queue >= 1\n";
      exit 2
    end;
    let addr_opt =
      match (socket_opt, tcp_opt) with
      | Some _, Some _ ->
        Printf.eprintf "xut serve: give --socket or --tcp, not both\n";
        exit 2
      | Some path, None -> Some (Xut_transport.Addr.Unix_socket path)
      | None, Some port -> Some (Xut_transport.Addr.Tcp { host = "0.0.0.0"; port })
      | None, None -> None
    in
    let svc =
      Xut_service.Service.create ~domains ~cache_capacity ~queue_capacity ()
    in
    Printf.eprintf "xut serve: %d domain%s, plan cache %d, queue %d\n%!" domains
      (if domains = 1 then "" else "s")
      cache_capacity queue_capacity;
    (match addr_opt with
    | Some addr ->
      socket_serve_loop svc addr max_conns read_timeout (max_frame_mib * 1024 * 1024)
    | None ->
      Printf.eprintf "LOAD / UNLOAD / TRANSFORM / COUNT / APPLY / COMMIT / STATS on stdin\n%!";
      stdin_serve_loop svc);
    Xut_service.Service.shutdown svc;
    0
  in
  let domains =
    Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc:"Worker domains.")
  in
  let cache =
    Arg.(value & opt int 128
         & info [ "cache" ] ~docv:"N" ~doc:"Plan-cache capacity (0 disables).")
  in
  let queue =
    Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N" ~doc:"Request-queue capacity.")
  in
  let socket_opt =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH" ~doc:"Listen on a Unix socket at PATH.")
  in
  let tcp_opt =
    Arg.(value & opt (some int) None
         & info [ "tcp" ] ~docv:"PORT" ~doc:"Listen on TCP port PORT (all interfaces).")
  in
  let max_conns =
    Arg.(value & opt int 64
         & info [ "max-conns" ] ~docv:"N"
             ~doc:"Connection limit; further clients get a BUSY error frame.")
  in
  let read_timeout =
    Arg.(value & opt float 30.
         & info [ "read-timeout" ] ~docv:"SECONDS"
             ~doc:"Drop a connection whose read stalls this long.")
  in
  let max_frame =
    Arg.(value & opt int 16
         & info [ "max-frame" ] ~docv:"MIB" ~doc:"Largest accepted frame payload, MiB.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve transform queries: stdin line protocol by default, or the framed binary \
             protocol on a Unix socket (--socket) / TCP port (--tcp).")
    Term.(
      const run $ domains $ cache $ queue $ socket_opt $ tcp_opt $ max_conns $ read_timeout
      $ max_frame)

(* ---------------- client ---------------- *)

let client_cmd =
  let run socket_opt tcp_opt batch stream chunk_size timeout notices requests =
    if batch && stream then begin
      Printf.eprintf "xut client: --batch and --stream do not combine\n";
      exit 2
    end;
    let addr =
      match (socket_opt, tcp_opt) with
      | Some _, Some _ | None, None ->
        Printf.eprintf "xut client: give exactly one of --socket PATH or --tcp HOST:PORT\n";
        exit 2
      | Some path, None -> Xut_transport.Addr.Unix_socket path
      | None, Some spec -> begin
        match Xut_transport.Addr.parse_tcp spec with
        | Ok addr -> addr
        | Error msg ->
          Printf.eprintf "xut client: %s\n" msg;
          exit 2
      end
    in
    (* requests from the command line, or lines from stdin *)
    let lines =
      if requests <> [] then requests
      else
        let rec slurp acc =
          match In_channel.input_line stdin with
          | None -> List.rev acc
          | Some l when String.trim l = "" -> slurp acc
          | Some l -> slurp (l :: acc)
        in
        slurp []
    in
    let parsed =
      List.map
        (fun line ->
          match Xut_transport.Wire.Line.decode_incoming line with
          | Ok incoming -> incoming
          | Error msg ->
            Printf.eprintf "xut client: %s\n" msg;
            exit 2)
        lines
    in
    if parsed = [] then begin
      Printf.eprintf "xut client: nothing to send\n";
      exit 2
    end;
    (* --notices opts into the v2 invalidation channel: the server pushes
       an id-0 frame whenever a stored document is unloaded or replaced,
       printed here as it is consumed (interleaved with replies). *)
    let on_notice =
      if notices then
        Some
          (fun n ->
            print_endline (Xut_transport.Wire.Binary.render_notice n);
            flush stdout)
      else None
    in
    let cli =
      try Xut_transport.Client.connect ~timeout ?on_notice addr with
      | Unix.Unix_error (e, _, _) ->
        Printf.eprintf "xut client: cannot connect to %s: %s\n"
          (Xut_transport.Addr.to_string addr) (Unix.error_message e);
        exit 3
      | Xut_transport.Client.Transport_error msg ->
        Printf.eprintf "xut client: %s\n" msg;
        exit 3
    in
    let failed = ref false in
    let print_resp resp =
      (match resp with Xut_service.Service.Error _ -> failed := true | _ -> ());
      print_endline (Xut_transport.Wire.Line.render_response resp)
    in
    (* A streamed TRANSFORM writes raw result bytes to stdout as the
       chunk frames arrive (plus a final newline), instead of buffering
       the whole document in a response frame. *)
    let stream_one req =
      match req with
      | Xut_service.Service.Transform { target = Xut_service.Service.Doc doc; engine; query }
        -> begin
        match
          Xut_transport.Client.transform_stream cli ~doc ~engine ~query ~chunk_size
            (fun chunk -> print_string chunk)
        with
        | Xut_service.Service.Ok (Xut_service.Service.Stream_done _) ->
          print_newline ();
          flush stdout
        | other ->
          flush stdout;
          print_resp other
      end
      | _ ->
        Printf.eprintf
          "xut client: --stream applies only to document-targeted TRANSFORM requests\n";
        failed := true
    in
    (* TRANSFORM-STREAM lines are inherently streaming (fused server-side
       ingest, protocol v2), whatever the --stream flag says. *)
    let ingest_one { Xut_transport.Wire.Line.source; query } =
      let source =
        match source with
        | `Doc name -> Xut_transport.Wire.Binary.Ingest_doc name
        | `File path -> Xut_transport.Wire.Binary.Ingest_file path
      in
      match
        Xut_transport.Client.transform_ingest cli ~source ~query ~chunk_size
          (fun chunk -> print_string chunk)
      with
      | Xut_service.Service.Ok (Xut_service.Service.Stream_done _) ->
        print_newline ();
        flush stdout
      | other ->
        flush stdout;
        print_resp other
    in
    let run_one = function
      | Xut_transport.Wire.Line.Plain req ->
        if stream then stream_one req
        else print_resp (Xut_transport.Client.call cli req)
      | Xut_transport.Wire.Line.Stream_ingest ingest -> ingest_one ingest
    in
    (try
       if batch then
         let plain =
           List.map
             (function
               | Xut_transport.Wire.Line.Plain req -> req
               | Xut_transport.Wire.Line.Stream_ingest _ ->
                 Printf.eprintf "xut client: TRANSFORM-STREAM cannot ride in a BATCH frame\n";
                 exit 2)
             parsed
         in
         List.iter print_resp (Xut_transport.Client.call_batch cli plain)
       else List.iter run_one parsed
     with Xut_transport.Client.Transport_error msg ->
       Printf.eprintf "xut client: %s\n" msg;
       Xut_transport.Client.close cli;
       exit 3);
    Xut_transport.Client.close cli;
    if !failed then 1 else 0
  in
  let socket_opt =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH" ~doc:"Connect to the Unix socket at PATH.")
  in
  let tcp_opt =
    Arg.(value & opt (some string) None
         & info [ "tcp" ] ~docv:"HOST:PORT" ~doc:"Connect over TCP (HOST:PORT, or bare PORT).")
  in
  let batch =
    Arg.(value & flag
         & info [ "batch" ]
             ~doc:"Send all requests as one BATCH frame (one response frame back).")
  in
  let stream =
    Arg.(value & flag
         & info [ "stream" ]
             ~doc:"Stream TRANSFORM results: the server sends the serialized document as \
                   chunked frames (protocol v2) written to stdout as they arrive, never \
                   holding the whole result in one frame.")
  in
  let chunk_size =
    Arg.(value & opt int Xut_service.Service.default_chunk_size
         & info [ "chunk-size" ] ~docv:"BYTES"
             ~doc:"Requested stream chunk size (with --stream).")
  in
  let timeout =
    Arg.(value & opt float 30.
         & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Read timeout waiting for responses.")
  in
  let notices =
    Arg.(value & flag
         & info [ "notices" ]
             ~doc:"Subscribe to server-push invalidation notices (protocol v2): a NOTICE line \
                   is printed whenever a stored document is unloaded, replaced or committed \
                   over while this client is connected.")
  in
  let requests =
    Arg.(value & pos_all string []
         & info [] ~docv:"REQUEST"
             ~doc:"Requests in the line syntax (e.g. 'STATS', 'TRANSFORM d td-bu ...', \
                   'APPLY d delete \\$a/site/regions', 'COMMIT d ...'); read from stdin when \
                   none are given.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send requests to a running xut socket server and print the replies (exit 0 when \
             all succeed, 1 on any ERR).")
    Term.(
      const run $ socket_opt $ tcp_opt $ batch $ stream $ chunk_size $ timeout $ notices
      $ requests)

(* ---------------- bench-serve ---------------- *)

(* One cache on/off measurement of the serving grid. *)
type bench_row = {
  rps : float;
  mb_s : float;
  kw_req : float;
  row_commits : int;
  row_repairs : int;
  row_fallbacks : int;
  read_p50_ms : float;  (* client-side read latency; storm mode only *)
  read_p95_ms : float;
  read_max_ms : float;
  row_view_hits : int;  (* view mode only *)
  row_composed : int;
  row_view_inval : int;
  row_compose_fallbacks : int;
  row_skipped_subtrees : int;  (* schema mode only *)
  row_skipped_nodes : int;
  row_products : int;
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0. else sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

(* The rebuilt-spine depth knob: the XMark element chain the marker
   writes descend along.  Depth 0 inserts under the document element
   (constant-depth spine); deeper targets make every commit rebuild a
   longer spine, which is what annotation repair's cost scales with. *)
let spine_steps = [| "site"; "open_auctions"; "open_auction"; "annotation"; "description" |]

let write_target depth =
  if depth = 0 then "$a"
  else
    "$a/"
    ^ String.concat "/"
        (Array.to_list (Array.sub spine_steps 0 (min depth (Array.length spine_steps))))

(* Disjoint XMark subtrees, one delete per view-chain level: deeper
   levels of one chain never shadow shallower ones, so every level of
   the composition does real work. *)
let view_level_updates =
  [| "site/closed_auctions/closed_auction/annotation";
     "site/regions//item/mailbox";
     "site/people/person/watches";
     "site/open_auctions/open_auction/bidder";
     "site/categories/category/description";
     "site/catgraph/edge" |]

let view_user_query = "for $x in site/people/person return $x/name"

let bench_serve_cmd =
  let run doc_opt factor requests domains_list engine query_opt payload stream chunk_size
      json_opt socket batch docs write_ratio write_depth commit_storm views chain_depth
      schema =
    (* Streaming is a payload-mode variant; batching does not apply (a
       stream is one transform per exchange).  Commit-storm mode is a
       synchronous loop (client-side latency is the point), so it takes
       over both knobs. *)
    let payload = payload || stream in
    let stream = stream && not commit_storm in
    let batch = if stream || commit_storm then 1 else max 1 batch in
    (* A storm is a high write ratio by definition; default to one
       commit per two requests unless the ratio was given explicitly. *)
    let write_ratio = if commit_storm && write_ratio = 0. then 0.5 else write_ratio in
    if write_ratio < 0. || write_ratio >= 1. then begin
      Printf.eprintf "bench-serve: --write-ratio must be in [0, 1)\n";
      exit 2
    end;
    if write_depth < 0 || write_depth > Array.length spine_steps then begin
      Printf.eprintf "bench-serve: --write-depth must be in [0, %d]\n"
        (Array.length spine_steps);
      exit 2
    end;
    if views < 0 || chain_depth < 1 then begin
      Printf.eprintf "bench-serve: --views must be >= 0 and --chain-depth >= 1\n";
      exit 2
    end;
    (* --schema loads the documents under the XMark schema, turning on
       admission checks and subtree skip-sets.  Write cells use the
       bench variant, which additionally permits the marker element the
       commit workload inserts. *)
    let schema_name_opt =
      if not schema then None
      else if write_ratio > 0. then Some Xut_xmark.Site_schema.bench_schema_name
      else Some Xut_xmark.Site_schema.schema_name
    in
    (* View mode serves composed answers, which are never streamed. *)
    let stream = stream && views = 0 in
    (* Every [wperiod]-th unit is a COMMIT instead of a read: with ratio
       R, one write per round(1/R) units. *)
    let wperiod =
      if write_ratio > 0. then max 1 (int_of_float (Float.round (1. /. write_ratio))) else 0
    in
    (* --docs N stores the document under N names and cycles requests
       over them round-robin: every shard of the store sees traffic and
       one shared plan annotates N distinct trees (the multi-document
       memo path).  N = 1 keeps the single-doc workload and its name. *)
    let docs = max 1 docs in
    let doc_names =
      if docs = 1 then [| "d" |] else Array.init docs (Printf.sprintf "d%d")
    in
    let doc_name i = doc_names.(i mod Array.length doc_names) in
    (* Document: the given file, or a generated XMark one. *)
    let doc_file, cleanup =
      match doc_opt with
      | Some f -> (f, fun () -> ())
      | None ->
        let f = Filename.temp_file "xut_bench" ".xml" in
        Xut_xmark.Generator.to_file ~seed:42L ~factor f;
        (f, fun () -> Sys.remove f)
    in
    let query =
      match query_opt with
      | Some q -> read_query q
      | None ->
        (* U7-shaped repeated-query workload over the XMark document:
           qualifier-heavy, so the memoized annotation pass matters. *)
        "transform copy $a := doc(\"d\") modify do delete $a/site/open_auctions/open_auction[bidder/increase > 5]/annotation[happiness < 20]/description//text return $a"
    in
    let domain_counts =
      String.split_on_char ',' domains_list
      |> List.filter_map (fun s ->
             match int_of_string_opt (String.trim s) with
             | Some n when n >= 1 -> Some n
             | _ -> None)
    in
    let domain_counts = if domain_counts = [] then [ 1; 2; 4 ] else domain_counts in
    Printf.printf
      "bench-serve: doc=%s docs=%d requests=%d engine=%s reply=%s transport=%s batch=%d \
       write-ratio=%g write-depth=%d%s%s cores=%d\n\
       query: %s\n\n"
      doc_file docs requests (Engine.name engine)
      (if stream then "stream" else if payload then "payload" else "count")
      (if socket then "unix-socket" else "in-process")
      batch write_ratio write_depth
      (if commit_storm then " commit-storm" else "")
      (match schema_name_opt with Some s -> " schema=" ^ s | None -> "")
      (Domain.recommended_domain_count ())
      query;
    Printf.printf "%-8s %-6s %10s %12s %10s %10s %10s %10s\n" "domains" "cache" "wall(s)"
      "req/s" "p95(ms)" "hits" "MB/s" "kw/req";
    let measure ~domains ~cache_on =
      let svc =
        Xut_service.Service.create ~domains
          ~cache_capacity:(if cache_on then 128 else 0)
          ~queue_capacity:(max 64 (4 * domains))
          ()
      in
      Array.iter
        (fun name ->
          match
            Xut_service.Service.call svc
              (Xut_service.Service.Load { name; file = doc_file; schema = schema_name_opt })
          with
          | Xut_service.Service.Ok _ -> ()
          | Xut_service.Service.Error { message; _ } -> failwith ("bench-serve: " ^ message))
        doc_names;
      (* --views N --chain-depth D: N independent view chains, each D
         deep, rooted round-robin over the stored documents; reads are
         then served against the chain tops through Sec. 4 composition. *)
      let view_tops = Array.init views (Printf.sprintf "v%d") in
      for k = 0 to views - 1 do
        for l = 1 to chain_depth do
          let name = if l = chain_depth then view_tops.(k) else Printf.sprintf "v%d_%d" k l in
          let base = if l = 1 then doc_name k else Printf.sprintf "v%d_%d" k (l - 1) in
          let upd = view_level_updates.((k + l) mod Array.length view_level_updates) in
          let def =
            Printf.sprintf {|transform copy $a := doc("%s") modify do delete $a/%s return $a|}
              base upd
          in
          match
            Xut_service.Service.call svc
              (Xut_service.Service.Defview { name; query = def })
          with
          | Xut_service.Service.Ok _ -> ()
          | Xut_service.Service.Error { message; _ } -> failwith ("bench-serve: " ^ message)
        done
      done;
      Xut_service.Metrics.reset (Xut_service.Service.metrics svc);
      let view_req i =
        let target = Xut_service.Service.View view_tops.(i mod views) in
        if payload then
          Xut_service.Service.Transform { target; engine; query = view_user_query }
        else Xut_service.Service.Count { target; engine; query = view_user_query }
      in
      let req_i = ref 0 in
      let req doc =
        if views > 0 then begin
          incr req_i;
          view_req !req_i
        end
        else begin
          let target = Xut_service.Service.Doc doc in
          if payload then Xut_service.Service.Transform { target; engine; query }
          else Xut_service.Service.Count { target; engine; query }
        end
      in
      (* The mixed read/write workload: every [wperiod]-th unit commits,
         alternating an insert of a marker element (under the document
         element, or --write-depth steps down the open_auctions spine)
         with a delete of every marker, so the document stays bounded
         and (almost) every commit is effective.  Out-of-order execution
         under several domains can only turn a delete into a no-op
         commit, never a conflict. *)
      let is_write i = wperiod > 0 && i mod wperiod = 0 in
      let write_req i =
        let wquery =
          if (i / wperiod) land 1 = 1 then
            Printf.sprintf "insert <xut_bench_promo>p</xut_bench_promo> into %s"
              (write_target write_depth)
          else "delete $a//xut_bench_promo"
        in
        Xut_service.Service.Commit { doc = doc_name i; query = wquery }
      in
      (* One "unit" is a frame's worth of work: a single request, or a
         BATCH of [batch] of them.  Units cycle over the doc names. *)
      let unit_req i =
        if batch = 1 then if is_write i then write_req i else req (doc_name i)
        else
          Xut_service.Service.Batch
            (List.init batch (fun j ->
                 if j = 0 && is_write i then write_req i
                 else req (doc_name ((i * batch) + j))))
      in
      (* Highest stored generation across the bench documents: with no
         concurrent loads, its growth during the run equals the number
         of effective commits (generations are store-wide monotone). *)
      let max_gen () =
        Array.fold_left
          (fun acc name ->
            match Xut_service.Doc_store.info (Xut_service.Service.store svc) name with
            | Some i -> max acc i.Xut_service.Doc_store.generation
            | None -> acc)
          0 doc_names
      in
      let gen0 = max_gen () in
      let units = (requests + batch - 1) / batch in
      let total = units * batch in
      (* Closed loop: keep a window of in-flight units, twice the
         worker count, so every domain always has work without the
         driver outrunning the queue. *)
      let window = max 2 (2 * domains) in
      (* Result-payload bytes: streamed chunks are counted in [emit]
         (worker domains, hence atomic); materialized payloads by
         walking the responses. *)
      let payload_bytes = Atomic.make 0 in
      let add_bytes n = ignore (Atomic.fetch_and_add payload_bytes n) in
      let rec note = function
        | Xut_service.Service.Ok (Xut_service.Service.Tree s) -> add_bytes (String.length s)
        | Xut_service.Service.Ok (Xut_service.Service.Batch_results rs) -> List.iter note rs
        | _ -> ()
      in
      let emit chunk = add_bytes (String.length chunk) in
      (* Gc.stat aggregates across domains, so the minor-words delta
         covers the workers where the per-request allocation happens. *)
      let gc0 = Gc.stat () in
      (* Commit-storm mode: client-side latency of every snapshot read,
         taken while commits land between them. *)
      let read_lat = ref [] in
      let dt =
        if commit_storm then begin
          let call, teardown =
            if not socket then
              ((fun r -> Xut_service.Service.call svc r), fun () -> ())
            else begin
              let sock_path = Filename.temp_file "xut_bench" ".sock" in
              Sys.remove sock_path;
              let server =
                Xut_transport.Server.start ~service:svc
                  (Xut_transport.Addr.Unix_socket sock_path)
              in
              let cli =
                Xut_transport.Client.connect (Xut_transport.Addr.Unix_socket sock_path)
              in
              ( (fun r -> Xut_transport.Client.call cli r),
                fun () ->
                  Xut_transport.Client.close cli;
                  Xut_transport.Server.stop server )
            end
          in
          let t0 = Unix.gettimeofday () in
          for i = 1 to total do
            let r = if is_write i then write_req i else req (doc_name i) in
            let tr = Unix.gettimeofday () in
            (match call r with
            | Xut_service.Service.Ok _ as resp -> note resp
            | Xut_service.Service.Error { message; _ } ->
              failwith ("bench-serve: " ^ message));
            if not (is_write i) then
              read_lat := (Unix.gettimeofday () -. tr) :: !read_lat
          done;
          let dt = Unix.gettimeofday () -. t0 in
          teardown ();
          dt
        end
        else if not socket then begin
          let submit_unit i =
            if stream && not (is_write i) then
              Xut_service.Service.submit_stream svc ~doc:(doc_name i) ~engine ~query
                ~chunk_size emit
            else Xut_service.Service.submit svc (unit_req i)
          in
          let in_flight = Queue.create () in
          let t0 = Unix.gettimeofday () in
          for i = 1 to units do
            if Queue.length in_flight >= window then
              note (Xut_service.Service.await (Queue.pop in_flight));
            Queue.push (submit_unit i) in_flight
          done;
          Queue.iter (fun fut -> note (Xut_service.Service.await fut)) in_flight;
          Unix.gettimeofday () -. t0
        end
        else begin
          (* The real transport: frames over a Unix socket, pipelined
             [window] deep (streams go one at a time: a stream owns the
             connection until its END frame). *)
          let sock_path = Filename.temp_file "xut_bench" ".sock" in
          Sys.remove sock_path;
          let server =
            Xut_transport.Server.start ~service:svc
              (Xut_transport.Addr.Unix_socket sock_path)
          in
          let cli = Xut_transport.Client.connect (Xut_transport.Addr.Unix_socket sock_path) in
          let t0 = Unix.gettimeofday () in
          if stream then
            for i = 1 to units do
              match
                if is_write i then Xut_transport.Client.call cli (write_req i)
                else
                  Xut_transport.Client.transform_stream cli ~doc:(doc_name i) ~engine ~query
                    ~chunk_size emit
              with
              | Xut_service.Service.Ok _ -> ()
              | Xut_service.Service.Error { message; _ } ->
                failwith ("bench-serve: " ^ message)
            done
          else begin
            let in_flight = ref 0 in
            for i = 1 to units do
              if !in_flight >= window then begin
                note (snd (Xut_transport.Client.recv cli));
                decr in_flight
              end;
              ignore (Xut_transport.Client.send cli (unit_req i));
              incr in_flight
            done;
            while !in_flight > 0 do
              note (snd (Xut_transport.Client.recv cli));
              decr in_flight
            done
          end;
          let dt = Unix.gettimeofday () -. t0 in
          Xut_transport.Client.close cli;
          Xut_transport.Server.stop server;
          dt
        end
      in
      let gc1 = Gc.stat () in
      let m = Xut_service.Service.metrics svc in
      let p95 = Xut_service.Metrics.(quantile m latency 0.95) *. 1e3 in
      let hits = Xut_service.Metrics.(get m cache_hits) in
      let errors = Xut_service.Metrics.(get m errors) in
      let commits = Xut_service.Metrics.(get m commits) in
      let conflicts = Xut_service.Metrics.(get m commit_conflicts) in
      let noops = Xut_service.Metrics.(get m commit_noops) in
      let gen_delta = max_gen () - gen0 in
      let repairs = Xut_service.Metrics.(get m annotation_repairs) in
      let fallbacks = Xut_service.Metrics.(get m repair_fallbacks) in
      let recomputed = Xut_service.Metrics.(get m repair_recomputed_nodes) in
      let reused = Xut_service.Metrics.(get m repair_reused_nodes) in
      let view_hits = Xut_service.Metrics.(get m view_hits) in
      let composed = Xut_service.Metrics.(get m composed_plans) in
      let view_inval = Xut_service.Metrics.(get m view_invalidations) in
      let compose_fb = Xut_service.Metrics.(get m compose_fallbacks) in
      let skipped_sub = Xut_service.Metrics.(get m skipped_subtrees) in
      let skipped_nodes = Xut_service.Metrics.(get m skipped_nodes) in
      let products = Xut_service.Metrics.(get m schema_products) in
      let cs = Xut_service.Service.cache_stats svc in
      Xut_service.Service.shutdown svc;
      if errors > 0 then failwith (Printf.sprintf "bench-serve: %d errors" errors);
      let rps = float_of_int total /. dt in
      let mb_s = float_of_int (Atomic.get payload_bytes) /. dt /. 1e6 in
      let kw_req =
        (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. float_of_int total /. 1e3
      in
      let lat = Array.of_list (List.map (fun s -> s *. 1e3) !read_lat) in
      Array.sort compare lat;
      Printf.printf "%-8d %-6s %10.3f %12.1f %10.2f %10d %10.2f %10.1f\n%!" domains
        (if cache_on then "on" else "off") dt rps p95 hits mb_s kw_req;
      if wperiod > 0 then
        Printf.printf
          "         write: ratio=%g commits=%d conflicts=%d noops=%d gen_delta=%d \
           monotone=%s annotation_entries=%d repairs=%d fallbacks=%d recomputed=%d \
           reused=%d\n%!"
          write_ratio commits conflicts noops gen_delta
          (if gen_delta = commits then "ok" else "no")
          cs.Xut_service.Plan_cache.annotation_entries repairs fallbacks recomputed reused;
      if commit_storm then
        Printf.printf
          "         storm: reads=%d read_p50_ms=%.3f read_p95_ms=%.3f read_max_ms=%.3f\n%!"
          (Array.length lat) (percentile lat 0.50) (percentile lat 0.95)
          (percentile lat 1.0);
      if views > 0 then
        Printf.printf
          "         views: n=%d depth=%d view_hits=%d composed_plans=%d \
           view_invalidations=%d compose_fallbacks=%d\n%!"
          views chain_depth view_hits composed view_inval compose_fb;
      (match schema_name_opt with
      | Some sname ->
        Printf.printf
          "         schema: name=%s skipped_subtrees=%d skipped_nodes=%d products=%d\n%!"
          sname skipped_sub skipped_nodes products
      | None -> ());
      {
        rps;
        mb_s;
        kw_req;
        row_commits = commits;
        row_repairs = repairs;
        row_fallbacks = fallbacks;
        row_view_hits = view_hits;
        row_composed = composed;
        row_view_inval = view_inval;
        row_compose_fallbacks = compose_fb;
        row_skipped_subtrees = skipped_sub;
        row_skipped_nodes = skipped_nodes;
        row_products = products;
        read_p50_ms = percentile lat 0.50;
        read_p95_ms = percentile lat 0.95;
        read_max_ms = percentile lat 1.0;
      }
    in
    let results =
      List.map
        (fun d ->
          let off = measure ~domains:d ~cache_on:false in
          let on = measure ~domains:d ~cache_on:true in
          (d, off, on))
        domain_counts
    in
    cleanup ();
    (match json_opt with
    | None -> ()
    | Some path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc "{\n";
          Printf.fprintf oc "  \"bench\": \"bench-serve\",\n";
          json_meta oc;
          Printf.fprintf oc "  \"engine\": \"%s\",\n" (Engine.name engine);
          Printf.fprintf oc "  \"requests\": %d,\n" requests;
          Printf.fprintf oc "  \"docs\": %d,\n" docs;
          Printf.fprintf oc "  \"reply\": \"%s\",\n"
            (if stream then "stream" else if payload then "payload" else "count");
          Printf.fprintf oc "  \"chunk_size\": %d,\n" chunk_size;
          Printf.fprintf oc "  \"transport\": \"%s\",\n"
            (if socket then "unix-socket" else "in-process");
          Printf.fprintf oc "  \"batch\": %d,\n" batch;
          Printf.fprintf oc "  \"write_ratio\": %g,\n" write_ratio;
          Printf.fprintf oc "  \"write_depth\": %d,\n" write_depth;
          Printf.fprintf oc "  \"commit_storm\": %b,\n" commit_storm;
          Printf.fprintf oc "  \"views\": %d,\n" views;
          Printf.fprintf oc "  \"chain_depth\": %d,\n" chain_depth;
          Printf.fprintf oc "  \"schema\": %s,\n"
            (match schema_name_opt with Some s -> Printf.sprintf "\"%s\"" s | None -> "null");
          Printf.fprintf oc "  \"rows\": [\n";
          List.iteri
            (fun i (d, off, on) ->
              Printf.fprintf oc
                "    { \"domains\": %d, \"req_s_cache_off\": %.1f, \"req_s_cache_on\": %.1f, \
                 \"payload_mb_s_cache_off\": %.2f, \"payload_mb_s_cache_on\": %.2f, \
                 \"minor_kwords_per_req_cache_off\": %.1f, \
                 \"minor_kwords_per_req_cache_on\": %.1f, \"commits_cache_off\": %d, \
                 \"commits_cache_on\": %d, \"repairs_cache_off\": %d, \
                 \"repairs_cache_on\": %d, \"repair_fallbacks_cache_off\": %d, \
                 \"repair_fallbacks_cache_on\": %d%s }%s\n"
                d off.rps on.rps off.mb_s on.mb_s off.kw_req on.kw_req off.row_commits
                on.row_commits off.row_repairs on.row_repairs off.row_fallbacks
                on.row_fallbacks
                (String.concat ""
                   [
                     (if commit_storm then
                        Printf.sprintf
                          ", \"read_p50_ms_cache_off\": %.3f, \"read_p95_ms_cache_off\": %.3f, \
                           \"read_max_ms_cache_off\": %.3f, \"read_p50_ms_cache_on\": %.3f, \
                           \"read_p95_ms_cache_on\": %.3f, \"read_max_ms_cache_on\": %.3f"
                          off.read_p50_ms off.read_p95_ms off.read_max_ms on.read_p50_ms
                          on.read_p95_ms on.read_max_ms
                      else "");
                     (if views > 0 then
                        Printf.sprintf
                          ", \"view_hits_cache_off\": %d, \"view_hits_cache_on\": %d, \
                           \"composed_plans_cache_off\": %d, \"composed_plans_cache_on\": %d, \
                           \"view_invalidations_cache_off\": %d, \
                           \"view_invalidations_cache_on\": %d, \
                           \"compose_fallbacks_cache_off\": %d, \"compose_fallbacks_cache_on\": %d"
                          off.row_view_hits on.row_view_hits off.row_composed on.row_composed
                          off.row_view_inval on.row_view_inval off.row_compose_fallbacks
                          on.row_compose_fallbacks
                      else "");
                     (if schema_name_opt <> None then
                        Printf.sprintf
                          ", \"skipped_subtrees_cache_off\": %d, \
                           \"skipped_subtrees_cache_on\": %d, \
                           \"skipped_nodes_cache_off\": %d, \"skipped_nodes_cache_on\": %d, \
                           \"schema_products_cache_off\": %d, \"schema_products_cache_on\": %d"
                          off.row_skipped_subtrees on.row_skipped_subtrees
                          off.row_skipped_nodes on.row_skipped_nodes off.row_products
                          on.row_products
                      else "");
                   ])
                (if i = List.length results - 1 then "" else ","))
            results;
          Printf.fprintf oc "  ]\n}\n");
      Printf.printf "[json: %s]\n" path);
    (match (List.nth_opt results 0, List.rev results) with
    | Some (d1, _, on1), (dn, _, onn) :: _ when dn > d1 ->
      Printf.printf "\nscaling: %d domains = %.2fx the %d-domain throughput (cache on)\n" dn
        (onn.rps /. on1.rps) d1
    | _ -> ());
    List.iter
      (fun (d, off, on) ->
        Printf.printf "cache: on = %.2fx off at %d domain%s\n" (on.rps /. off.rps) d
          (if d = 1 then "" else "s"))
      results;
    0
  in
  let doc_opt =
    Arg.(value & opt (some file) None
         & info [ "d"; "doc" ] ~docv:"FILE" ~doc:"Benchmark document (default: generated XMark).")
  in
  let factor =
    Arg.(value & opt float 0.002
         & info [ "f"; "factor" ] ~docv:"F" ~doc:"XMark factor for the generated document.")
  in
  let requests =
    Arg.(value & opt int 300 & info [ "n"; "requests" ] ~docv:"N" ~doc:"Requests per run.")
  in
  let domains_list =
    Arg.(value & opt string "1,2,4"
         & info [ "domains" ] ~docv:"LIST" ~doc:"Comma-separated worker-domain counts.")
  in
  let query_opt =
    Arg.(value & opt (some string) None
         & info [ "q"; "query" ] ~docv:"QUERY" ~doc:"Transform query (or @FILE) to repeat.")
  in
  let payload =
    Arg.(value & flag
         & info [ "payload" ]
             ~doc:"Request the full serialized result per request (TRANSFORM) instead of the \
                   lean element-count reply (COUNT).")
  in
  let stream =
    Arg.(value & flag
         & info [ "stream" ]
             ~doc:"Payload mode through the zero-materialization streaming path \
                   (transform_stream / chunked v2 frames) instead of one Tree response per \
                   request.  Implies --payload; ignores --batch.")
  in
  let chunk_size =
    Arg.(value & opt int Xut_service.Service.default_chunk_size
         & info [ "chunk-size" ] ~docv:"BYTES" ~doc:"Stream chunk size (with --stream).")
  in
  let json_opt =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE" ~doc:"Also write the result grid as JSON to FILE.")
  in
  let socket =
    Arg.(value & flag
         & info [ "socket" ]
             ~doc:"Drive the requests through the real transport: a Unix-socket server and a \
                   pipelining binary-protocol client, instead of in-process submit/await.")
  in
  let batch =
    Arg.(value & opt int 1
         & info [ "batch" ] ~docv:"N"
             ~doc:"Send requests as BATCH units of N (amortizes queue/future and frame \
                   overhead; 1 = plain requests).")
  in
  let docs =
    Arg.(value & opt int 1
         & info [ "docs" ] ~docv:"N"
             ~doc:"Load the document under N names (d0..dN-1) and cycle requests over them \
                   round-robin, exercising the sharded store and the per-plan multi-document \
                   annotation memo.")
  in
  let write_ratio =
    Arg.(value & opt float 0.
         & info [ "write-ratio" ] ~docv:"R"
             ~doc:"Mixed read/write workload: make one unit in round(1/R) a COMMIT \
                   (alternating insert/delete of a marker element), 0 <= R < 1.  Each row \
                   then reports commits, conflicts, no-ops, the generation delta and the \
                   annotation-table count.")
  in
  let write_depth =
    Arg.(value & opt int 0
         & info [ "write-depth" ] ~docv:"D"
             ~doc:"Nesting depth of the write target: 0 commits against the document element, \
                   D > 0 descends D steps of the open_auction spine \
                   (site/open_auctions/open_auction/annotation/description), so annotation \
                   repair cost scales with spine depth.")
  in
  let commit_storm =
    Arg.(value & flag
         & info [ "commit-storm" ]
             ~doc:"Commit-storm mode: a synchronous request loop with a high write ratio \
                   (default 0.5 unless --write-ratio is given) that records per-read snapshot \
                   latency and reports p50/p95/max, measuring read tail latency under \
                   sustained commits.  Ignores --stream and --batch.")
  in
  let views =
    Arg.(value & opt int 0
         & info [ "views" ] ~docv:"N"
             ~doc:"Serve reads through N stored-view chains (DEFVIEW) over the loaded \
                   documents instead of querying the documents directly; reads round-robin \
                   TRANSFORM/COUNT VIEW over the chain tops and run through Sec. 4 \
                   composition.  Writes (with --write-ratio) still COMMIT the base \
                   documents, exercising the view-dependency invalidation graph.  Ignores \
                   --stream.")
  in
  let chain_depth =
    Arg.(value & opt int 2
         & info [ "chain-depth" ] ~docv:"D"
             ~doc:"Depth of each view chain with --views: level 1 is defined over a base \
                   document, each further level over the previous view (default 2).")
  in
  let schema_flag =
    Arg.(value & flag
         & info [ "schema" ]
             ~doc:"Load the benchmark documents under the built-in XMark schema (the bench \
                   variant when writes are enabled), turning on statically-empty admission \
                   checks and schema skip-set subtree pruning.  Each row then reports \
                   skipped_subtrees, skipped_nodes and product constructions.")
  in
  let bench_engine =
    let parse s =
      match Engine.of_string s with
      | Some a -> Ok a
      | None -> Error (`Msg (Printf.sprintf "unknown engine %S" s))
    in
    let print ppf a = Format.pp_print_string ppf (Engine.name a) in
    Arg.(
      value
      & opt (conv (parse, print)) Engine.Td_bu
      & info [ "e"; "engine" ] ~docv:"ENGINE"
          ~doc:"Evaluation engine (default td-bu, the one the annotation memo serves).")
  in
  Cmd.v
    (Cmd.info "bench-serve"
       ~doc:"Closed-loop load benchmark of the service layer: domains 1..N, plan cache on/off.")
    Term.(
      const run $ doc_opt $ factor $ requests $ domains_list $ bench_engine $ query_opt
      $ payload $ stream $ chunk_size $ json_opt $ socket $ batch $ docs $ write_ratio
      $ write_depth $ commit_storm $ views $ chain_depth $ schema_flag)

(* ---------------- bench-stream ---------------- *)

(* Peak-RSS of streamed ingest vs materialized serving as the document
   grows.  VmHWM is a per-process high-water mark that never comes back
   down, so every measurement runs in its own forked child: the child
   serves one transform, reads its own VmHWM, writes one row to a file
   and _exits; the parent collects the rows.  The fused rows should stay
   flat while the materialized ones grow with the document. *)

let vm_hwm_kb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> 0
        | Some line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
        | Some _ -> go ()
      in
      go ())

type stream_row = {
  srow_mode : string;
  srow_factor : float;
  srow_file_bytes : int;
  srow_out_bytes : int;
  srow_rss_kb : int;
  srow_elapsed : float;
  srow_fused : int;
  srow_fallbacks : int;
  srow_digest : string;
}

(* The depth guard row of bench-stream: <a>^n<b/></a>^n under a
   qualifier query, so the streamed run makes both SAX passes over an
   n-deep stack.  A per-tag cost that grows with depth shows up here as
   minutes. *)
let deep_chain_depth = 200_000

let deep_chain_query =
  "transform copy $a := doc(\"d\") modify do insert <c/> into $a//a[b] return $a"

let bench_stream_cmd =
  let measure_child ~mode ~doc_file ~query ~chunk_size ~row_path =
    (* The transformed bytes go to a file — the only place the whole
       result exists — and are digested from there, so fused children
       never hold more than a chunk of output and the parent can still
       check fused/materialized byte-identity. *)
    let out_path = row_path ^ ".out" in
    (* Bound the GC's headroom in every measured child (both modes
       equally): the default space_overhead lets the major heap float on
       allocation churn, which reads as RSS "growth" that has nothing to
       do with what the pipeline retains. *)
    Gc.set { (Gc.get ()) with Gc.space_overhead = 60 };
    let t0 = Unix.gettimeofday () in
    let fused_n, fallback_n =
      match mode with
      | `Fused ->
        let svc = Xut_service.Service.create ~domains:1 () in
        let oc = Out_channel.open_bin out_path in
        let resp =
          Xut_service.Service.transform_ingest svc
            ~source:(Xut_service.Service.From_file doc_file) ~query ~chunk_size
            (Out_channel.output_string oc)
        in
        Out_channel.close oc;
        (match resp with
        | Xut_service.Service.Ok _ -> ()
        | Xut_service.Service.Error { message; _ } -> failwith message);
        let m = Xut_service.Service.metrics svc in
        (Xut_service.Metrics.(get m streams_fused), Xut_service.Metrics.(get m stream_fallbacks))
      | `Materialized ->
        let svc = Xut_service.Service.create ~domains:1 () in
        (match
           Xut_service.Service.call svc
             (Xut_service.Service.Load { name = "d"; file = doc_file; schema = None })
         with
        | Xut_service.Service.Ok _ -> ()
        | Xut_service.Service.Error { message; _ } -> failwith message);
        (match
           Xut_service.Service.call svc
             (Xut_service.Service.Transform
                { target = Xut_service.Service.Doc "d"; engine = Engine.Gentop; query })
         with
        | Xut_service.Service.Ok (Xut_service.Service.Tree s) ->
          Out_channel.with_open_bin out_path (fun oc -> Out_channel.output_string oc s)
        | Xut_service.Service.Ok _ -> failwith "bench-stream: unexpected response shape"
        | Xut_service.Service.Error { message; _ } -> failwith message);
        (0, 0)
    in
    let dt = Unix.gettimeofday () -. t0 in
    let out_bytes = (Unix.stat out_path).Unix.st_size in
    let digest = Digest.to_hex (Digest.file out_path) in
    Sys.remove out_path;
    Out_channel.with_open_text row_path (fun oc ->
        Printf.fprintf oc "%d %d %.6f %d %d %s\n" out_bytes (vm_hwm_kb ()) dt fused_n
          fallback_n digest)
  in
  let run factors_str query_opt chunk_size json_opt =
    let factors =
      String.split_on_char ',' factors_str
      |> List.filter_map (fun s -> float_of_string_opt (String.trim s))
      |> List.filter (fun f -> f > 0.)
    in
    let factors = if factors = [] then [ 0.001; 0.01; 0.1 ] else factors in
    let query =
      match query_opt with
      | Some q -> read_query q
      | None ->
        (* qualifier-free, so the plan is one-pass streamable and every
           fused row exercises the zero-tree path *)
        "transform copy $a := doc(\"d\") modify do delete $a/site/regions//item/mailbox \
         return $a"
    in
    Printf.printf "bench-stream: factors=%s chunk=%d\nquery: %s\n\n" factors_str chunk_size
      query;
    Printf.printf "%-18s %-8s %12s %12s %12s %10s %6s %5s\n" "mode" "factor" "file(B)"
      "out(B)" "peak_rss(kB)" "wall(s)" "fused" "fb";
    let rows =
      List.concat_map
        (fun doc ->
          let doc_file = Filename.temp_file "xut_stream_bench" ".xml" in
          let factor, query, (stream_name, mat_name) =
            match doc with
            | `Xmark factor ->
              Xut_xmark.Generator.to_file ~seed:42L ~factor doc_file;
              (factor, query, ("fused", "materialized"))
            | `Deep_chain ->
              Out_channel.with_open_bin doc_file (fun oc ->
                  for _ = 1 to deep_chain_depth do Out_channel.output_string oc "<a>" done;
                  Out_channel.output_string oc "<b/>";
                  for _ = 1 to deep_chain_depth do Out_channel.output_string oc "</a>" done);
              (0., deep_chain_query, ("deep-stream", "deep-materialized"))
          in
          let file_bytes = (Unix.stat doc_file).Unix.st_size in
          let per_mode mode =
            let row_path = Filename.temp_file "xut_stream_row" ".txt" in
            flush stdout;
            flush stderr;
            (match Unix.fork () with
            | 0 ->
              (try measure_child ~mode ~doc_file ~query ~chunk_size ~row_path
               with e ->
                 Printf.eprintf "bench-stream: %s\n%!" (Printexc.to_string e);
                 Unix._exit 1);
              Unix._exit 0
            | pid -> (
              match snd (Unix.waitpid [] pid) with
              | Unix.WEXITED 0 -> ()
              | _ -> failwith "bench-stream: measurement child failed"));
            let line = In_channel.with_open_text row_path In_channel.input_all in
            Sys.remove row_path;
            Scanf.sscanf line "%d %d %f %d %d %s"
              (fun out_bytes rss dt fused fb digest ->
                let row =
                  {
                    srow_mode = (match mode with `Fused -> stream_name | `Materialized -> mat_name);
                    srow_factor = factor;
                    srow_file_bytes = file_bytes;
                    srow_out_bytes = out_bytes;
                    srow_rss_kb = rss;
                    srow_elapsed = dt;
                    srow_fused = fused;
                    srow_fallbacks = fb;
                    srow_digest = digest;
                  }
                in
                Printf.printf "%-18s %-8g %12d %12d %12d %10.3f %6d %5d\n%!" row.srow_mode
                  factor file_bytes out_bytes rss dt fused fb;
                row)
          in
          let fused = per_mode `Fused in
          let mat = per_mode `Materialized in
          if fused.srow_digest <> mat.srow_digest then
            failwith
              (Printf.sprintf "bench-stream: %s and %s outputs differ at factor %g"
                 stream_name mat_name factor);
          Sys.remove doc_file;
          [ fused; mat ])
        (List.map (fun f -> `Xmark f) factors @ [ `Deep_chain ])
    in
    let fused_rows = List.filter (fun r -> r.srow_mode = "fused") rows in
    let rss_of f = (List.find (fun r -> r.srow_factor = f) fused_rows).srow_rss_kb in
    let fmin = List.fold_left min (List.hd factors) factors in
    let fmax = List.fold_left max (List.hd factors) factors in
    let ratio = float_of_int (rss_of fmax) /. float_of_int (max 1 (rss_of fmin)) in
    Printf.printf
      "\nfused peak-RSS: %d kB at factor %g -> %d kB at factor %g (%.2fx while the \
       document grew %.0fx)\n"
      (rss_of fmin) fmin (rss_of fmax) fmax ratio (fmax /. fmin);
    (match json_opt with
    | None -> ()
    | Some path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc "{\n";
          Printf.fprintf oc "  \"bench\": \"bench-stream\",\n";
          json_meta oc;
          Printf.fprintf oc "  \"query\": %S,\n" query;
          Printf.fprintf oc "  \"chunk_size\": %d,\n" chunk_size;
          Printf.fprintf oc "  \"fused_rss_ratio\": %.3f,\n" ratio;
          Printf.fprintf oc "  \"doc_growth\": %.1f,\n" (fmax /. fmin);
          Printf.fprintf oc "  \"deep_chain_depth\": %d,\n" deep_chain_depth;
          Printf.fprintf oc "  \"deep_chain_query\": %S,\n" deep_chain_query;
          Printf.fprintf oc "  \"rows\": [\n";
          List.iteri
            (fun i r ->
              Printf.fprintf oc
                "    { \"mode\": \"%s\", \"factor\": %g, \"file_bytes\": %d, \
                 \"out_bytes\": %d, \"peak_rss_kb\": %d, \"elapsed_s\": %.4f, \
                 \"streams_fused\": %d, \"stream_fallbacks\": %d, \"sha\": \"%s\" }%s\n"
                r.srow_mode r.srow_factor r.srow_file_bytes r.srow_out_bytes r.srow_rss_kb
                r.srow_elapsed r.srow_fused r.srow_fallbacks r.srow_digest
                (if i = List.length rows - 1 then "" else ","))
            rows;
          Printf.fprintf oc "  ]\n}\n");
      Printf.printf "[json: %s]\n" path);
    0
  in
  let factors =
    Arg.(value & opt string "0.001,0.01,0.1"
         & info [ "factors" ] ~docv:"LIST"
             ~doc:"Comma-separated XMark factors; the largest over the smallest is the \
                   document-growth ratio the fused peak-RSS is judged against.")
  in
  let query_opt =
    Arg.(value & opt (some string) None
         & info [ "q"; "query" ] ~docv:"QUERY"
             ~doc:"Transform query (or @FILE); the default is qualifier-free, hence fused.")
  in
  let chunk_size =
    Arg.(value & opt int Xut_service.Service.default_chunk_size
         & info [ "chunk-size" ] ~docv:"BYTES" ~doc:"Stream chunk size.")
  in
  let json_opt =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE" ~doc:"Also write the rows as JSON to FILE.")
  in
  Cmd.v
    (Cmd.info "bench-stream"
       ~doc:"Peak-RSS benchmark of streamed ingest (TRANSFORM-STREAM) vs materialized \
             serving over growing XMark documents, plus a 200k-deep chain row that guards \
             linear-in-depth streaming, one forked child per measurement.")
    Term.(const run $ factors $ query_opt $ chunk_size $ json_opt)

let main =
  let info = Cmd.info "xut" ~version:"1.0.0" ~doc:"Querying XML with update syntax (SIGMOD 2007)." in
  Cmd.group info
    [ transform_cmd; compose_cmd; rewrite_cmd; query_cmd; xmark_cmd; serve_cmd; client_cmd;
      bench_serve_cmd; bench_stream_cmd ]

let () =
  (* the built-in XMark schemas are available to every subcommand
     (serve validates LOAD ... SCHEMA against the registry) *)
  Xut_xmark.Site_schema.register ();
  exit (Cmd.eval' main)
