(* xsb — the OCaml half of the serving benchmark (see README.md).

   Subcommands, all driven by run.py:
     gen    write a workload's input documents for a seed
     setup  connect to a starting server (retrying) and send the
            workload's LOAD / DEFVIEW set-up, failing on any error reply
     setup-timed
            spawn the server itself, set it up and stop it, --rounds
            times, recording spawn -> last set-up reply per round
     drive  the closed-loop load generator: two socket connections, each
            with a small pipelined window, for a timed window; every
            answer is checked against the reference engines
     trace  the in-process replay of the workload's request sequence:
            per-layer spans, Service.call cost, queue wait, socket
            overhead and the tracing overhead

   Results go to an --out file as one record per line; run.py turns
   them into metrics.  Every input is a function of --seed. *)

open Xut_service
module S = Service
module Node = Xut_xml.Node
module Client = Xut_transport.Client
module Wire = Xut_transport.Wire
module Addr = Xut_transport.Addr
module Schema = Xut_schema.Schema
module Annotator = Xut_automata.Annotator
module Nfa = Xut_automata.Selecting_nfa

(* Monotonic seconds with nanosecond resolution: spans around
   microsecond calls need better than gettimeofday's microseconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* ---------------- workloads and their inputs ---------------- *)

type workload = Read_mix | Commit_mix | Ingest_stream

let workload_of_string = function
  | "read-mix" -> Some Read_mix
  | "commit-mix" -> Some Commit_mix
  | "ingest-stream" -> Some Ingest_stream
  | _ -> None

let n_docs = 4
let n_ingest_files = 3
let doc_factor = 0.01
let ingest_factor = 0.02
let deep_depth = 10_000

(* Fig. 11's U1-U10 embedded paths. *)
let u_paths =
  [| "/site/people/person";
     "/site/people/person[@id = \"person10\"]";
     "/site/people/person[profile/age > 20]";
     "/site/regions//item";
     "/site//description";
     "/site/closed_auctions/closed_auction/annotation/description/parlist/listitem/parlist/listitem/text/emph/keyword";
     "/site/open_auctions/open_auction[bidder/increase > 5]/annotation[happiness < 20]/description//text";
     "/site/open_auctions/open_auction[initial > 10 and reserve > 50]/bidder";
     "/site/regions//item[location = \"United States\"]";
     "/site//open_auctions/open_auction[not(@id = \"open_auction2\")]/bidder[increase > 10]" |]

let insert_query path =
  Printf.sprintf
    {|transform copy $a := doc("d") modify do insert <new_elem>text</new_elem> into $a%s return $a|}
    path

let hot_texts = Array.map insert_query u_paths

(* Qualifier-free (fused one-pass) and qualifier-bearing (two-pass
   fallback) streaming plans, as U indexes. *)
let fused_us = [| 0; 3; 4; 5 |]
let twopass_us = [| 1; 2; 7; 8 |]
let deep_query = {|transform copy $a := doc("d") modify do insert <c/> into $a//a[b] return $a|}

(* The commit-mix writer's spine: depth k inserts k steps down. *)
let spine = [| "site"; "open_auctions"; "open_auction"; "annotation" |]
let marker = Xut_xmark.Site_schema.bench_marker

let marker_insert depth =
  let target =
    if depth = 0 then "$a"
    else "$a/" ^ String.concat "/" (Array.to_list (Array.sub spine 0 depth))
  in
  Printf.sprintf "insert <%s>p</%s> into %s" marker marker target

let marker_delete = Printf.sprintf "delete $a//%s" marker

(* Read-mix views: two chains, two levels each, over d0 and d1. *)
let view_levels =
  [| ("v0_1", "d0", "site/closed_auctions/closed_auction/annotation");
     ("v0", "v0_1", "site/regions//item/mailbox");
     ("v1_1", "d1", "site/people/person/watches");
     ("v1", "v1_1", "site/open_auctions/open_auction/bidder") |]

let view_def base path =
  Printf.sprintf {|transform copy $a := doc("%s") modify do delete $a/%s return $a|} base path

let view_tops = [| "v0"; "v1" |]

let user_queries =
  [| "for $x in site/people/person return $x/name";
     "for $x in site/regions//item return $x/name" |]

let doc_file dir i = Filename.concat dir (Printf.sprintf "d%d.xml" i)
let ingest_file dir i = Filename.concat dir (Printf.sprintf "x%d.xml" i)
let deep_file dir = Filename.concat dir "deep.xml"
let doc_name i = Printf.sprintf "d%d" i

let data_files w dir =
  match w with
  | Read_mix | Commit_mix -> Array.init n_docs (doc_file dir)
  | Ingest_stream -> Array.init n_ingest_files (ingest_file dir)

let gen w ~seed ~dir =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let factor = match w with Ingest_stream -> ingest_factor | _ -> doc_factor in
  Array.iteri
    (fun i f ->
      Xut_xmark.Generator.to_file ~seed:(Int64.of_int ((seed * 16) + i + 1)) ~factor f)
    (data_files w dir);
  let oc = open_out_bin (deep_file dir) in
  for _ = 1 to deep_depth do output_string oc "<a>" done;
  output_string oc "<b/>";
  for _ = 1 to deep_depth do output_string oc "</a>" done;
  output_string oc "\n";
  close_out oc

(* ---------------- requests and their expected answers ---------------- *)

type kind = Read | Write | Stream | Load

let kind_name = function Read -> "read" | Write -> "commit" | Stream -> "stream" | Load -> "load"

type op = Plain of S.request | Ingest of { file : string; query : string }

type check =
  | Count_is of int
  | Tree_is of string  (* digest of the serialized result *)
  | Body_is of string  (* digest of the streamed body *)
  | Elements_is of int
  | Doc_read of { doc : int; u : int }  (* commit-mix: depends on the commit history *)
  | Doc_commit of { doc : int }
  | Commit_noop
  | Any_ok

type req = { kind : kind; label : string; op : op; check : check }

let plain kind label r check = { kind; label; op = Plain r; check }

let count_req target text = S.Count { target; engine = Core.Engine.Td_bu; query = text }

let transform_req d text =
  S.Transform { target = S.Doc d; engine = Core.Engine.Td_bu; query = text }

let as_transform update = Printf.sprintf {|transform copy $a := doc("d") modify do %s return $a|} update

let update_of text = (Core.Transform_parser.parse text).Core.Transform_ast.update
let reference text root = Core.Semantics.apply (update_of text) root
let elements root = Node.element_count (Node.Element root)
let digest s = Digest.to_hex (Digest.string s)
let tree_digest root = digest (Xut_xml.Serialize.element_to_string root)

let count_value (v : Xut_xquery.Xq_value.t) =
  List.fold_left
    (fun n item ->
      match item with
      | Xut_xquery.Xq_value.N node -> n + Node.element_count node
      | Xut_xquery.Xq_value.D e -> n + Node.element_count (Node.Element e)
      | _ -> n + 1)
    0 v

(* A seeded permutation, cycled: every element gets the same share. *)
let cycle rng arr =
  let a = Array.copy arr in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  let k = ref (Random.State.int rng (Array.length a)) in
  fun () ->
    let x = a.(!k mod Array.length a) in
    incr k;
    x

(* The commit-mix state after [k] commits to one document: 0 = as
   loaded, 1 + d = one marker round inserted at spine depth d. *)
let state_after k = if k land 1 = 0 then 0 else 1 + ((k - 1) / 2 mod Array.length spine)

let commit_text m = if m land 1 = 0 then marker_insert (m / 2 mod Array.length spine) else marker_delete

type ctx = {
  w : workload;
  dir : string;
  files : string array;
  trees : Node.element array;  (* parsed data files *)
  seed : int;
  (* commit-mix: counts.(doc).(state).(u), elems.(doc).(state) and the
     state trees, for history-dependent checks *)
  states : Node.element array array;
  counts : int array array array;
  elems : int array array;
}

let setup_requests w files =
  match w with
  | Read_mix ->
    List.init n_docs (fun i -> S.Load { name = doc_name i; file = files.(i); schema = None })
    @ Array.to_list
        (Array.map (fun (name, base, p) -> S.Defview { name; query = view_def base p }) view_levels)
  | Commit_mix ->
    List.init n_docs (fun i ->
        S.Load
          { name = doc_name i;
            file = files.(i);
            schema = Some Xut_xmark.Site_schema.bench_schema_name })
  | Ingest_stream -> [ S.Load { name = "spare"; file = files.(0); schema = None } ]

let make_ctx w ~seed ~dir =
  Xut_xmark.Site_schema.register ();
  let files = data_files w dir in
  let trees = Array.map (fun f -> Xut_xml.Dom.parse_file f) files in
  let states, counts, elems =
    match w with
    | Commit_mix ->
      let states =
        Array.map
          (fun t ->
            Array.append [| t |]
              (Array.init (Array.length spine) (fun d ->
                   reference (as_transform (marker_insert d)) t)))
          trees
      in
      let counts =
        Array.map (Array.map (fun s -> Array.map (fun q -> elements (reference q s)) hot_texts)) states
      in
      (states, counts, Array.map (Array.map elements) states)
    | _ -> ([||], [||], [||])
  in
  { w; dir; files; trees; seed; states; counts; elems }

(* The two connections' endless request sequences.  Slot patterns fix
   each request class's share exactly; the seed picks documents,
   queries and literals.  Reference answers are computed here, before
   any timing starts. *)
let hot_combos = Array.init (n_docs * Array.length hot_texts) (fun i -> (i / 10, i mod 10))

let slots pattern ~conn =
  let slot = ref (10 * conn) in
  fun () ->
    let c = pattern.[!slot mod String.length pattern] in
    incr slot;
    c

let sequences ctx =
  let rng conn = Random.State.make [| ctx.seed; conn; 7 |] in
  match ctx.w with
  | Read_mix ->
    let hot =
      Array.init n_docs (fun d ->
          Array.map
            (fun q ->
              let r = reference q ctx.trees.(d) in
              (elements r, tree_digest r))
            hot_texts)
    in
    let views =
      Array.concat
        (List.init (Array.length view_tops) (fun vi ->
             let updates =
               List.map
                 (fun (_, _, p) -> update_of (view_def "d" p))
                 [ view_levels.(2 * vi); view_levels.((2 * vi) + 1) ]
             in
             Array.map
               (fun uq ->
                 let v =
                   Core.Composition.naive_stack updates (Core.User_query.parse uq) ~doc:ctx.trees.(vi)
                 in
                 (view_tops.(vi), uq, count_value v))
               user_queries))
    in
    (* Cold texts: U2 / U9 with a random literal, a pool per connection
       cycled in order.  Two pools of 100 between re-uses of a text
       always outrun the 128-plan LRU, so every cold request compiles
       and annotates afresh. *)
    let pool_rng = Random.State.make [| ctx.seed; 11 |] in
    let seen = Hashtbl.create 256 in
    let rec fresh i =
      let text =
        if Random.State.int pool_rng 4 < 3 then
          insert_query
            (Printf.sprintf "/site/people/person[@id = \"person%d\"]" (Random.State.int pool_rng 2000))
        else
          insert_query
            (Printf.sprintf "/site/regions//item[location = \"%s %d\"]"
               (if Random.State.bool pool_rng then "Germany" else "Japan")
               (Random.State.int pool_rng 1000))
      in
      if Hashtbl.mem seen text then fresh i
      else begin
        Hashtbl.add seen text ();
        let d = i mod n_docs in
        (d, text, elements (reference text ctx.trees.(d)))
      end
    in
    let pools = Array.init 2 (fun _ -> Array.init 100 fresh) in
    Array.init 2 (fun conn ->
        let rng = rng conn in
        let next_count = cycle rng hot_combos and next_tf = cycle rng hot_combos in
        let next_view = cycle rng views in
        let cold_i = ref 0 in
        let slot = slots "CTCCVCKCTCCTCVCCKCTC" ~conn in
        fun () ->
          match slot () with
          | 'C' ->
            let d, u = next_count () in
            plain Read "count" (count_req (S.Doc (doc_name d)) hot_texts.(u)) (Count_is (fst hot.(d).(u)))
          | 'T' ->
            let d, u = next_tf () in
            plain Read "transform" (transform_req (doc_name d) hot_texts.(u)) (Tree_is (snd hot.(d).(u)))
          | 'V' ->
            let top, uq, n = next_view () in
            plain Read "view" (count_req (S.View top) uq) (Count_is n)
          | _ ->
            let cold = pools.(conn) in
            let d, text, n = cold.(!cold_i mod Array.length cold) in
            incr cold_i;
            plain Read "cold" (count_req (S.Doc (doc_name d)) text) (Count_is n))
  | Commit_mix ->
    let j = ref 0 in
    let writer () =
      let d = !j mod n_docs and m = !j / n_docs in
      incr j;
      plain Write "commit" (S.Commit { doc = doc_name d; query = commit_text m }) (Doc_commit { doc = d })
    in
    let next = cycle (rng 1) hot_combos in
    let reader () =
      let d, u = next () in
      plain Read "count" (count_req (S.Doc (doc_name d)) hot_texts.(u)) (Doc_read { doc = d; u })
    in
    [| writer; reader |]
  | Ingest_stream ->
    let body file q = digest (Xut_xml.Serialize.element_to_string (reference q file)) in
    let pairs us =
      Array.concat
        (List.init (Array.length ctx.files) (fun fi ->
             Array.map (fun u -> (ctx.files.(fi), hot_texts.(u), body ctx.trees.(fi) hot_texts.(u))) us))
    in
    let fused = pairs fused_us and twopass = pairs twopass_us in
    let deep = deep_file ctx.dir in
    let deep_body = body (Xut_xml.Dom.parse_file deep) deep_query in
    let loads = Array.mapi (fun i f -> (f, elements ctx.trees.(i))) ctx.files in
    let stream label (file, query, b) = { kind = Stream; label; op = Ingest { file; query }; check = Body_is b } in
    Array.init 2 (fun conn ->
        let rng = rng conn in
        let next_fused = cycle rng fused and next_twopass = cycle rng twopass in
        let next_load = cycle rng loads in
        let slot = slots "FTDTFTTDFTLTDFTTDFTT" ~conn in
        fun () ->
          match slot () with
          | 'F' -> stream "fused" (next_fused ())
          | 'T' -> stream "twopass" (next_twopass ())
          | 'D' -> stream "deep" (deep, deep_query, deep_body)
          | _ ->
            let file, n = next_load () in
            plain Load "load" (S.Load { name = "spare"; file; schema = None }) (Elements_is n))

(* The probe: a short fixed tail appended to every traced replay so each
   per-layer metric is measured on every workload, including layers the
   workload's own mix leaves idle. *)
let probe ctx =
  let f0 = ctx.files.(0) and t0 = ctx.trees.(0) in
  let pv1 = view_def "probe" "site/closed_auctions/closed_auction/annotation"
  and pv2 = view_def "pv1" "site/people/person/watches" in
  let uq = user_queries.(0) in
  let view_count =
    count_value
      (Core.Composition.naive_stack
         [ update_of pv1; update_of pv2 ]
         (Core.User_query.parse uq) ~doc:t0)
  in
  let with_marker = reference (as_transform (marker_insert 1)) t0 in
  let body root q = digest (Xut_xml.Serialize.element_to_string (reference q root)) in
  let deep = deep_file ctx.dir in
  let u1 = hot_texts.(0) and u7 = hot_texts.(6) and u2 = hot_texts.(1) in
  let cold = insert_query "/site/people/person[@id = \"person3\"]" in
  [ plain Load "load"
      (S.Load { name = "probe"; file = f0; schema = Some Xut_xmark.Site_schema.bench_schema_name })
      (Elements_is (elements t0));
    plain Load "defview" (S.Defview { name = "pv1"; query = pv1 }) Any_ok;
    plain Load "defview" (S.Defview { name = "pv2"; query = pv2 }) Any_ok;
    plain Read "count" (count_req (S.Doc "probe") u1) (Count_is (elements (reference u1 t0)));
    plain Read "count" (count_req (S.Doc "probe") u7) (Count_is (elements (reference u7 t0)));
    plain Read "transform" (transform_req "probe" u1) (Tree_is (tree_digest (reference u1 t0)));
    plain Read "cold" (count_req (S.Doc "probe") cold) (Count_is (elements (reference cold t0)));
    plain Read "view" (count_req (S.View "pv2") uq) (Count_is view_count);
    plain Write "commit" (S.Commit { doc = "probe"; query = marker_insert 1 })
      (Elements_is (elements with_marker));
    plain Read "count" (count_req (S.Doc "probe") u7) (Count_is (elements (reference u7 with_marker)));
    plain Write "commit" (S.Commit { doc = "probe"; query = marker_delete }) (Elements_is (elements t0));
    plain Write "commit" (S.Commit { doc = "probe"; query = marker_delete }) Commit_noop;
    { kind = Stream; label = "fused"; op = Ingest { file = f0; query = u1 }; check = Body_is (body t0 u1) };
    { kind = Stream; label = "twopass"; op = Ingest { file = f0; query = u2 }; check = Body_is (body t0 u2) };
    { kind = Stream;
      label = "deep";
      op = Ingest { file = deep; query = deep_query };
      check = Body_is (body (Xut_xml.Dom.parse_file deep) deep_query) } ]

(* A commit-mix read that may overlap commits to its document: its
   answer must match a state between [lo] commits (acknowledged before
   it was sent) and [hi] commits (sent before its answer arrived). *)
let read_allowed ctx ~doc ~u ~lo ~hi n =
  let allowed = List.init (hi - lo + 1) (fun i -> ctx.counts.(doc).(state_after (lo + i)).(u)) in
  if List.mem n allowed then Ok ()
  else
    Error
      (Printf.sprintf "commit-mix read d%d U%d = %d, allowed %s" doc (u + 1) n
         (String.concat "," (List.map string_of_int allowed)))

(* Checking one answer.  [state doc] is the commit-mix state index the
   caller's history allows (sequential replays know it exactly); drive
   mode checks history-dependent reads after the run instead. *)
let check ctx ~state req (resp : S.response) body =
  let fail fmt = Printf.ksprintf (fun m -> Stdlib.Error (req.label ^ ": " ^ m)) fmt in
  match resp, req.check with
  | S.Error { code; message }, _ -> fail "%s: %s" (S.err_code_name code) message
  | S.Ok (S.Element_count n), Count_is e -> if n = e then Ok () else fail "count %d, expected %d" n e
  | S.Ok (S.Tree t), Tree_is e -> if digest t = e then Ok () else fail "tree digest mismatch"
  | S.Ok (S.Stream_done _), Body_is e ->
    if body = Some e then Ok () else fail "stream body digest mismatch"
  | S.Ok (S.Doc_loaded { elements; _ }), Elements_is e
  | S.Ok (S.Committed { elements; _ }), Elements_is e ->
    if elements = e then Ok () else fail "elements %d, expected %d" elements e
  | S.Ok (S.Committed { primitives; _ }), Commit_noop ->
    if primitives = 0 then Ok () else fail "expected a no-op commit"
  | S.Ok (S.Committed { elements; primitives; _ }), Doc_commit { doc } ->
    let e = ctx.elems.(doc).(state doc) in
    if primitives > 0 && elements = e then Ok ()
    else fail "commit elements %d primitives %d, expected %d" elements primitives e
  | S.Ok (S.Element_count n), Doc_read { doc; u } ->
    let e = ctx.counts.(doc).(state doc).(u) in
    if n = e then Ok () else fail "count %d, expected %d" n e
  | S.Ok _, Any_ok -> Ok ()
  | S.Ok p, _ -> fail "unexpected reply %s" (Result.fold ~ok:Fun.id ~error:Fun.id (S.render_response (S.Ok p)))

(* ---------------- output records ---------------- *)

let out_lines = Queue.create ()
let out_mutex = Mutex.create ()

let emit fmt =
  Printf.ksprintf
    (fun s ->
      Mutex.lock out_mutex;
      Queue.push s out_lines;
      Mutex.unlock out_mutex)
    fmt

let failures = Atomic.make 0

let record_failure msg =
  if Atomic.fetch_and_add failures 1 < 20 then emit "fail %s" (String.escaped msg)

let write_out path =
  let oc = open_out path in
  Queue.iter (fun l -> output_string oc l; output_char oc '\n') out_lines;
  close_out oc

let emit_stats text =
  List.iter
    (fun line ->
      match String.split_on_char ' ' (String.trim line) with
      | [ k; v ] -> emit "stat %s %s" k v
      | _ -> ())
    (String.split_on_char '\n' text)

(* ---------------- socket client helpers ---------------- *)

let addr path = Addr.Unix_socket path

let rec connect_retry ?on_notice ~deadline a =
  match Client.connect ?on_notice a with
  | c -> c
  | exception (Unix.Unix_error _ as e) ->
    if now () > deadline then raise e;
    Unix.sleepf 0.001;
    connect_retry ?on_notice ~deadline a

(* Synchronous exchange of one request over the socket; streams are
   digested chunk by chunk. *)
let socket_exchange cli req =
  match req.op with
  | Plain r -> (Client.call cli r, None)
  | Ingest { file; query } ->
    let buf = Buffer.create (1 lsl 16) in
    let resp =
      Client.transform_ingest cli ~source:(Wire.Binary.Ingest_file file) ~query (Buffer.add_string buf)
    in
    (resp, Some (digest (Buffer.contents buf)))

let input_bytes req =
  match req.op with
  | Ingest { file; _ } | Plain (S.Load { file; _ }) -> (Unix.stat file).Unix.st_size
  | Plain _ -> 0

let setup_cmd w ~dir ~socket =
  let cli = connect_retry ~deadline:(now () +. 30.) (addr socket) in
  List.iter
    (fun r ->
      match Client.call cli r with
      | S.Ok _ -> ()
      | S.Error { message; _ } -> failwith ("setup: " ^ message))
    (setup_requests w (data_files w dir));
  Client.close cli

(* SIGINT, then reap; SIGKILL if the server has not drained in 20 s. *)
let stop_server pid =
  (try Unix.kill pid Sys.sigint with Unix.Unix_error _ -> ());
  let deadline = now () +. 20. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline -> Unix.sleepf 0.005; wait ()
    | 0, _ -> Unix.kill pid Sys.sigkill; ignore (Unix.waitpid [] pid)
    | _ -> ()
  in
  wait ()

(* The set-up time, [rounds] times: spawn the server, wait for its
   socket, send the set-up, stop the server.  One long-lived process
   times every round, so no process start of the benchmark's own is in
   the figure — only the server's. *)
let setup_timed_cmd w ~dir ~socket ~server ~rounds ~out =
  let log =
    Unix.openfile (Filename.concat (Filename.dirname socket) "server.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  for _ = 1 to rounds do
    (try Unix.unlink socket with Unix.Unix_error (Unix.ENOENT, _, _) -> ());
    let t0 = now () in
    let pid =
      Unix.create_process server [| server; "serve"; "--socket"; socket; "--domains"; "2" |] null log log
    in
    (match setup_cmd w ~dir ~socket with
    | () -> emit "setup_s %.6f" (now () -. t0)
    | exception e -> stop_server pid; raise e);
    stop_server pid
  done;
  write_out out

(* ---------------- drive: the closed loop ---------------- *)

type sample = { s_kind : kind; s_label : string; t0 : float; t1 : float }

(* Requests each connection keeps in flight: small, because every
   caller of the server waits for its replies. *)
let window = 2

let drive_cmd w ~seed ~dir ~socket ~seconds ~out =
  let ctx = make_ctx w ~seed ~dir in
  let seqs = sequences ctx in
  let a = addr socket in
  (* commit-mix bookkeeping: the writer's per-document (send, ack)
     times, the reader's answers, and the committed notices seen *)
  let commits = Array.make n_docs [] in
  let reads = ref [] in
  let notices = Atomic.make 0 in
  let in_bytes = Atomic.make 0 in
  let samples = Array.make 2 [] in
  let on_notice (n : Wire.Binary.notice) =
    if n.Wire.Binary.reason = Wire.Binary.Committed then Atomic.incr notices
  in
  let clients =
    Array.init 2 (fun conn ->
        let on_notice = if w = Commit_mix && conn = 0 then Some on_notice else None in
        connect_retry ?on_notice ~deadline:(now () +. 10.) a)
  in
  (* the writer is synchronous: its commits land in send order *)
  let window_of conn = if w = Commit_mix && conn = 0 then 1 else window in
  let t_start = now () in
  let deadline = t_start +. seconds in
  print_endline "go";
  let run conn =
    let cli = clients.(conn) and next = seqs.(conn) in
    let win = window_of conn in
    let inflight = Hashtbl.create 8 in
    let per_doc = Array.make n_docs 0 in
    let finish req t0 resp body =
      let t1 = now () in
      let state d = state_after per_doc.(d) in
      (match req.check, resp with
      | Doc_read { doc; u }, S.Ok (S.Element_count n) -> reads := (doc, u, t0, t1, n) :: !reads
      | _ ->
        (match req.check with
        | Doc_commit { doc } ->
          per_doc.(doc) <- per_doc.(doc) + 1;
          commits.(doc) <- (t0, t1) :: commits.(doc)
        | _ -> ());
        (match check ctx ~state req resp body with Ok () -> () | Error m -> record_failure m));
      ignore (Atomic.fetch_and_add in_bytes (input_bytes req));
      samples.(conn) <- { s_kind = req.kind; s_label = req.label; t0; t1 } :: samples.(conn)
    in
    let recv_one () =
      let id, resp = Client.recv cli in
      match Hashtbl.find_opt inflight id with
      | Some (req, t0) ->
        Hashtbl.remove inflight id;
        finish req t0 resp None
      | None -> record_failure (Printf.sprintf "unexpected reply id %Ld" id)
    in
    let pending = ref None in
    (try
       while now () < deadline do
         let req = match !pending with Some r -> r | None -> next () in
         pending := None;
         match req.op with
         | Ingest _ ->
           while Hashtbl.length inflight > 0 do recv_one () done;
           let t0 = now () in
           let resp, body = socket_exchange cli req in
           finish req t0 resp body
         | Plain r ->
           if Hashtbl.length inflight >= win then begin
             pending := Some req;
             recv_one ()
           end
           else begin
             let t0 = now () in
             let id = Client.send cli r in
             Hashtbl.replace inflight id (req, t0)
           end
       done;
       while Hashtbl.length inflight > 0 do recv_one () done
     with e -> record_failure ("connection: " ^ Printexc.to_string e))
  in
  let threads = Array.init 2 (fun conn -> Thread.create run conn) in
  Array.iter Thread.join threads;
  let t_end = now () in
  print_endline "end";
  (* commit-mix: each read must match a state its time window allows —
     at least the commits acknowledged before it was sent, at most those
     sent before its answer arrived — and each document's final state
     must equal the reference replay of the writer's sequence *)
  if w = Commit_mix then begin
    let commits = Array.map (fun l -> Array.of_list (List.rev l)) commits in
    List.iter
      (fun (doc, u, t0, t1, n) ->
        let c = commits.(doc) in
        let lo = Array.fold_left (fun k (_, ack) -> if ack <= t0 then k + 1 else k) 0 c in
        let hi = Array.fold_left (fun k (snd, _) -> if snd <= t1 then k + 1 else k) 0 c in
        match read_allowed ctx ~doc ~u ~lo ~hi n with Ok () -> () | Error m -> record_failure m)
      !reads;
    let cli = clients.(1) in
    Array.iteri
      (fun d c ->
        let final = ctx.states.(d).(state_after (Array.length c)) in
        match Client.call cli (transform_req (doc_name d) hot_texts.(0)) with
        | S.Ok (S.Tree t) when digest t = tree_digest (reference hot_texts.(0) final) -> ()
        | _ -> record_failure (Printf.sprintf "final d%d differs from the reference replay" d))
      commits;
    let effective = Array.fold_left (fun n c -> n + Array.length c) 0 commits in
    if Atomic.get notices <> effective then
      record_failure
        (Printf.sprintf "saw %d committed notices for %d commits" (Atomic.get notices) effective)
  end;
  (match Client.call clients.(1) S.Stats with
  | S.Ok (S.Stats_dump s) -> emit_stats s
  | _ -> record_failure "STATS failed");
  Array.iter Client.close clients;
  emit "window %.6f %.6f" t_start deadline;
  emit "end_time %.6f" t_end;
  emit "input_bytes %d" (Atomic.get in_bytes);
  Array.iter
    (List.iter (fun s ->
         emit "sample %s %s %.6f %.6f" (kind_name s.s_kind) s.s_label s.t0 s.t1))
    samples;
  emit "failed %d" (Atomic.get failures);
  write_out out

(* ---------------- trace: the in-process replay ---------------- *)

(* Spans: one per call into a layer's public function, with its parent
   span and request id.  [amount] is the unit of work the call did
   (bytes or nodes), for per-unit rates. *)
type span = { sid : int; parent : int; rq : int; name : string; s0 : float; s1 : float; amount : int }

let tracing = ref false
let spans = ref []
let span_stack = ref []
let next_sid = ref 0
let cur_req = ref 0

let span ?(amount = fun _ -> 0) name f =
  if not !tracing then f ()
  else begin
    incr next_sid;
    let sid = !next_sid in
    let parent = match !span_stack with p :: _ -> p | [] -> 0 in
    span_stack := sid :: !span_stack;
    let s0 = now () in
    let r = Fun.protect ~finally:(fun () -> span_stack := List.tl !span_stack) f in
    let s1 = now () in
    spans := { sid; parent; rq = !cur_req; name; s0; s1; amount = amount r } :: !spans;
    r
  end

(* Tracing's own cost per span: a loop of empty spans, traced minus
   untraced, fastest of three.  The traced replay's overhead is this
   times its span count: the difference of two whole replays would be
   run-to-run noise, not the microseconds the spans cost. *)
let span_cost () =
  let n = 100_000 in
  let loop () = for _ = 1 to n do span "calibrate" ignore done in
  let time traced =
    tracing := traced;
    spans := [];
    let t0 = now () in
    loop ();
    let dt = now () -. t0 in
    tracing := false;
    spans := [];
    dt
  in
  let best traced = List.fold_left Float.min infinity (List.init 3 (fun _ -> time traced)) in
  Float.max 0. ((best true -. best false) /. float_of_int n)

(* The mirror: the service's request pipeline re-assembled from the
   layers' public functions, so each call can be timed without touching
   the library.  It keeps its own plan, product, annotation and
   composition memos, like the service does. *)
type mdoc = { mutable root : Node.element; mutable sizes : (int, int) Hashtbl.t option; schema : Schema.t option }

type mview = { base : string; vupdate : Core.Transform_ast.update; vnfa : Nfa.t }

type mirror = {
  docs : (string, mdoc) Hashtbl.t;
  plans : (string, Plan_cache.plan) Hashtbl.t;
  products : (string, Schema.product) Hashtbl.t;
  (* (nfa key, root id) -> table, with the NFA and skip-set it was built under *)
  tables : (string * int, Annotator.table * Nfa.t * (Node.element -> bool) option) Hashtbl.t;
  mviews : (string, mview) Hashtbl.t;
  composed : (string, Core.Composition.composed) Hashtbl.t;
  preparsed : (string, Node.element) Hashtbl.t;  (* set-up parses, shared across replays *)
  sizes : (int, int) Hashtbl.t;  (* root id -> elements, the top-down span's amount *)
}

let mirror_create preparsed =
  { docs = Hashtbl.create 8; plans = Hashtbl.create 64; products = Hashtbl.create 64;
    tables = Hashtbl.create 64; mviews = Hashtbl.create 8; composed = Hashtbl.create 8;
    preparsed; sizes = Hashtbl.create 64 }

let size_of m root =
  match Hashtbl.find_opt m.sizes (Node.id root) with
  | Some n -> n
  | None ->
    let n = elements root in
    Hashtbl.replace m.sizes (Node.id root) n;
    n

let file_size f = (Unix.stat f).Unix.st_size

(* Set-up loads reuse the parses made for the reference answers; LOADs
   in the replayed sequence parse, as the server does. *)
let mirror_load m ~name ~file ~schema ~setup =
  let root =
    match Hashtbl.find_opt m.preparsed file with
    | Some r when setup -> r
    | _ -> span "xml.dom_parse" ~amount:(fun _ -> file_size file) (fun () -> Xut_xml.Dom.parse_file file)
  in
  let schema = Option.bind schema Schema.find in
  let sizes =
    Option.map
      (fun s ->
        match Schema.validate s root with Ok t -> t | Error e -> failwith ("validate: " ^ e))
      schema
  in
  Hashtbl.replace m.docs name { root; sizes; schema };
  S.Ok
    (S.Doc_loaded
       { name; elements = elements root; reloaded = false; generation = 0; schema = None })

let plan_of m text =
  match Hashtbl.find_opt m.plans text with
  | Some p -> p
  | None ->
    let p = span "service.plan_compile" (fun () -> Plan_cache.compile text) in
    Hashtbl.replace m.plans text p;
    p

(* The schema skip-set, while the document's binding stands. *)
let skip_of m key (d : mdoc) nfa =
  match d.schema, d.sizes with
  | None, _ | _, None -> None
  | Some s, Some _ ->
    let p =
      match Hashtbl.find_opt m.products key with
      | Some p -> p
      | None ->
        let p = span "schema.product" (fun () -> Schema.product s nfa) in
        Hashtbl.replace m.products key p;
        p
    in
    if Schema.skip_count p = 0 then None else Some (fun e -> Schema.skippable p (Node.sym e))

let table_of m key ?skip nfa root =
  match Hashtbl.find_opt m.tables (key, Node.id root) with
  | Some (t, _, _) -> t
  | None ->
    let t =
      span "automata.annotate" ~amount:Annotator.annotated_count (fun () ->
          Annotator.annotate ?skip nfa root)
    in
    Hashtbl.replace m.tables (key, Node.id root) (t, nfa, skip);
    t

let mirror_read m ~doc ~text ~count =
  let d = Hashtbl.find m.docs doc in
  let plan = plan_of m text in
  let nfa = plan.Plan_cache.nfa in
  let skip = skip_of m text d nfa in
  let table = table_of m text ?skip nfa d.root in
  let size = size_of m d.root in
  let out =
    span "core.topdown" ~amount:(fun _ -> size) (fun () ->
        Core.Top_down.run ~checkp:(Annotator.checkp table nfa) ?skip nfa
          plan.Plan_cache.query.Core.Transform_ast.update d.root)
  in
  if count then S.Ok (S.Element_count (elements out))
  else
    S.Ok
      (S.Tree
         (span "xml.serialize" ~amount:String.length (fun () ->
              Xut_xml.Serialize.element_to_string out)))

let rec resolve m name acc =
  match Hashtbl.find_opt m.mviews name with
  | Some v -> resolve m v.base ((name, v) :: acc)
  | None -> (name, acc)

let mirror_view m ~view ~query =
  let base, levels = resolve m view [] in
  let d = Hashtbl.find m.docs base in
  let key = String.concat "/" (List.map fst levels) ^ "||" ^ query in
  let composed =
    match Hashtbl.find_opt m.composed key with
    | Some c -> c
    | None ->
      let c =
        span "core.compose" (fun () ->
            Core.Composition.compose_stack
              (List.map (fun (_, v) -> v.vupdate) levels)
              (Core.User_query.parse query))
      in
      let c = match c with Ok c -> c | Error e -> failwith ("compose: " ^ e) in
      Hashtbl.replace m.composed key c;
      c
  in
  let iname, inner = List.hd levels in
  let key = "view:" ^ iname in
  let skip = skip_of m key d inner.vnfa in
  let table = table_of m key ?skip inner.vnfa d.root in
  let v =
    span "core.run_composed" (fun () ->
        Core.Composition.run_composed ~oracle:(Annotator.checkp table inner.vnfa) composed ~doc:d.root)
  in
  S.Ok (S.Element_count (count_value v))

let mirror_commit m ~doc ~query =
  let d = Hashtbl.find m.docs doc in
  let updates = Core.Transform_parser.parse_updates query in
  let report, norm = span "update.stage" (fun () -> Xut_update.Apply.stage updates d.root) in
  let primitives = report.Xut_update.Apply.primitives in
  (match span "update.materialize" (fun () -> Xut_update.Apply.materialize norm d.root) with
  | None -> ()
  | Some (root', diff) ->
    let spine = diff.Xut_update.Apply.spine in
    (match d.schema, d.sizes with
    | Some s, Some old_sizes ->
      d.sizes <-
        (match span "schema.validate_commit" (fun () -> Schema.validate_commit s ~spine ~old_sizes root') with
        | Ok t -> Some t
        | Error _ -> None)
    | _ -> ());
    let old_id = Node.id d.root in
    (* as Plan_cache.repair ~plan_skip: each table's fresh subtrees are
       annotated under its own skip-set, none once the binding dropped *)
    let bound = Option.is_some d.sizes in
    span "automata.repair" (fun () ->
        let olds =
          Hashtbl.fold
            (fun (k, id) (t, nfa, skip) acc -> if id = old_id then (k, t, nfa, skip) :: acc else acc)
            m.tables []
        in
        List.iter
          (fun (k, old_table, nfa, skip) ->
            let skip = if bound then skip else None in
            match Annotator.repair ?skip nfa ~old_table ~spine root' with
            | Some (t, _) -> Hashtbl.replace m.tables (k, Node.id root') (t, nfa, skip)
            | None -> ())
          olds);
    d.root <- root');
  S.Ok
    (S.Committed { doc; primitives; collapsed = 0; elements = elements d.root; generation = 0 })

let mirror_stream ~label ~file ~query =
  let update = update_of query in
  let nfa = Nfa.of_path (Core.Transform_ast.path update) in
  let bytes = file_size file in
  span "xml.sax_parse" ~amount:(fun _ -> bytes) (fun () -> Xut_xml.Sax.parse_file file ignore);
  let buf = Buffer.create (1 lsl 16) in
  let sink = Xut_xml.Serialize.Sink.create (Buffer.add_string buf) in
  let source h = Xut_xml.Sax.parse_file file h in
  let one_pass = Core.Sax_transform.one_pass nfa in
  let name =
    if label = "deep" then "core.sax_deep" else if one_pass then "core.sax_fused" else "core.sax_twopass"
  in
  span name ~amount:(fun _ -> bytes) (fun () ->
      let sink = Xut_xml.Serialize.Sink.event sink in
      ignore
        (if one_pass then Core.Sax_transform.run_once nfa update ~source ~sink
         else Core.Sax_transform.run nfa update ~source ~sink));
  let t = Xut_xml.Serialize.Sink.close sink in
  (S.Ok (S.Stream_done { bytes = t.Xut_xml.Serialize.Sink.bytes; chunks = t.Xut_xml.Serialize.Sink.chunks }),
   Some (digest (Buffer.contents buf)))

let mirror_exchange m ~setup req =
  let frame =
    match req.op with
    | Plain r -> Wire.Binary.encode_request r
    | Ingest { file; query } ->
      Wire.Binary.encode_ingest_request
        { Wire.Binary.source = Wire.Binary.Ingest_file file; query; chunk_size = S.default_chunk_size }
  in
  ignore
    (span "transport.frame_decode" (fun () -> Wire.Binary.decode_incoming ~version:2 frame));
  let resp, body =
    match req.op with
    | Ingest { file; query } -> mirror_stream ~label:req.label ~file ~query
    | Plain r ->
      let resp =
        match r with
        | S.Load { name; file; schema } -> mirror_load m ~name ~file ~schema ~setup
        | S.Defview { name; query } ->
          let u = update_of query in
          let base =
            match Core.Transform_parser.parse query with
            | { Core.Transform_ast.doc = b; _ } -> b
          in
          let vnfa = match Core.Composition.check_update u with Ok n -> n | Error e -> failwith e in
          Hashtbl.replace m.mviews name { base; vupdate = u; vnfa };
          S.Ok (S.View_undefined { name })
        | S.Count { target = S.Doc doc; query; _ } -> mirror_read m ~doc ~text:query ~count:true
        | S.Transform { target = S.Doc doc; query; _ } -> mirror_read m ~doc ~text:query ~count:false
        | S.Count { target = S.View view; query; _ } -> mirror_view m ~view ~query
        | S.Commit { doc; query } -> mirror_commit m ~doc ~query
        | _ -> failwith "mirror: unsupported request"
      in
      (resp, None)
  in
  ignore
    (span "transport.frame_encode" ~amount:String.length (fun () ->
         Wire.Binary.response_frame ~version:2 ~id:1L resp));
  (resp, body)

(* Replays.  Each starts from fresh state; [history] tracks the exact
   commit-mix history a sequential replay produces: a commit's answer is
   checked against the state it creates. *)
let history () = Array.make n_docs 0

let is_doc_commit req = match req.check with Doc_commit _ -> true | _ -> false

let checked ctx per_doc req (resp, body) =
  (match req.check with Doc_commit { doc } -> per_doc.(doc) <- per_doc.(doc) + 1 | _ -> ());
  match check ctx ~state:(fun d -> state_after per_doc.(d)) req resp body with
  | Ok () -> ()
  | Error m -> record_failure m

let mirror_replay ctx setup preparsed seq ~traced =
  let m = mirror_create preparsed in
  tracing := false;
  List.iter
    (fun r -> ignore (mirror_exchange m ~setup:true { kind = Load; label = "setup"; op = Plain r; check = Any_ok }))
    setup;
  spans := [];
  tracing := traced;
  let h = history () in
  let t0 = now () in
  List.iteri
    (fun i req ->
      cur_req := i + 1;
      let r = span ("request." ^ kind_name req.kind) (fun () -> mirror_exchange m ~setup:false req) in
      checked ctx h req r)
    seq;
  let dt = now () -. t0 in
  tracing := false;
  dt

let service_setup svc setup =
  List.iter
    (fun r -> match S.call svc r with S.Ok _ -> () | S.Error { message; _ } -> failwith ("setup: " ^ message))
    setup

let service_exchange svc req =
  match req.op with
  | Plain r -> (S.call svc r, None)
  | Ingest { file; query } ->
    let buf = Buffer.create (1 lsl 16) in
    let resp = S.transform_ingest svc ~source:(S.From_file file) ~query (Buffer.add_string buf) in
    (resp, Some (digest (Buffer.contents buf)))

(* Sequential replay in process ([svc]) and over the socket ([cli]) in
   lockstep, every answer checked: per request, the two latencies in µs.
   Reads and streams, which change nothing, alternate three times and
   keep each side's fastest: a host stall only ever adds time, and the
   socket overhead and queue wait are small differences of latencies. *)
let lockstep_replay ctx seq svc cli =
  let h_solo = history () and h_sock = history () in
  let timed exchange h req =
    let t0 = now () in
    let r = exchange req in
    let us = (now () -. t0) *. 1e6 in
    checked ctx h req r;
    us
  in
  List.map
    (fun req ->
      let once () = (timed (service_exchange svc) h_solo req, timed (socket_exchange cli) h_sock req) in
      let solo, sock =
        if req.kind <> Read && req.kind <> Stream then once ()
        else
          List.fold_left
            (fun (a, b) (x, y) -> (Float.min a x, Float.min b y))
            (infinity, infinity) (List.init 3 (fun _ -> once ()))
      in
      (req, solo, sock))
    seq

(* submit/await with [k] requests in flight, FIFO: latency from submit
   to the await that returns it.  Reads and streams overlap freely;
   the commit-mix writer's commits overlap reads but not each other, as
   the drive's synchronous writer does, and a read is checked against
   the states its window allows.  Loads and the probe's commits go
   alone (their neighbours' answers depend on them). *)
let inflight_replay ctx svc seq ~k =
  let q = Queue.create () in
  let lat = ref [] in
  let acked = history () and sent = history () in
  let commits_out = ref 0 in
  let drain_one () =
    let req, t0, fut, buf, lo = Queue.pop q in
    let resp = S.await fut in
    lat := (req, (now () -. t0) *. 1e6) :: !lat;
    let result =
      match req.check, resp with
      | Doc_read { doc; u }, S.Ok (S.Element_count n) -> read_allowed ctx ~doc ~u ~lo ~hi:sent.(doc) n
      | Doc_commit { doc }, _ ->
        acked.(doc) <- acked.(doc) + 1;
        decr commits_out;
        check ctx ~state:(fun d -> state_after acked.(d)) req resp None
      | _ ->
        let body = Option.map (fun b -> digest (Buffer.contents b)) buf in
        check ctx ~state:(fun d -> state_after acked.(d)) req resp body
    in
    match result with Ok () -> () | Error m -> record_failure m
  in
  let drain_while p = while p () do drain_one () done in
  List.iter
    (fun req ->
      let alone = req.kind = Load || (req.kind = Write && not (is_doc_commit req)) in
      if alone then drain_while (fun () -> not (Queue.is_empty q))
      else begin
        if is_doc_commit req then drain_while (fun () -> !commits_out > 0);
        drain_while (fun () -> Queue.length q >= k)
      end;
      let lo = match req.check with Doc_read { doc; _ } -> acked.(doc) | _ -> 0 in
      (match req.check with
      | Doc_commit { doc } -> sent.(doc) <- sent.(doc) + 1; incr commits_out
      | _ -> ());
      let t0 = now () in
      let fut, buf =
        match req.op with
        | Plain r -> (S.submit svc r, None)
        | Ingest { file; query } ->
          let b = Buffer.create (1 lsl 16) in
          (S.submit_ingest svc ~source:(S.From_file file) ~query (Buffer.add_string b), Some b)
      in
      Queue.push (req, t0, fut, buf, lo) q;
      if alone then drain_one ())
    seq;
  drain_while (fun () -> not (Queue.is_empty q));
  List.rev !lat

let mean l = if l = [] then 0. else List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let replay_length = function Read_mix -> 400 | Commit_mix -> 400 | Ingest_stream -> 20

(* The workload's in-flight count: two connections times their window;
   the commit-mix writer and every stream run one at a time. *)
let inflight_of w = match w with Read_mix -> 2 * window | Commit_mix -> window + 1 | Ingest_stream -> 2

let trace_cmd w ~seed ~dir ~socket ~out =
  let ctx = make_ctx w ~seed ~dir in
  let seqs = sequences ctx in
  let n = replay_length w in
  let seq = List.init n (fun i -> seqs.(i land 1) ()) @ probe ctx in
  let setup = setup_requests w ctx.files in
  let preparsed = Hashtbl.create 8 in
  Array.iteri (fun i f -> Hashtbl.replace preparsed f ctx.trees.(i)) ctx.files;
  emit "replayed %d" (List.length seq);
  (* Service.call alone, and the real transport at window 1 against
     the fresh server, in lockstep *)
  let svc = S.create ~domains:2 () in
  service_setup svc setup;
  let cli = connect_retry ~deadline:(now () +. 10.) (addr socket) in
  let paired = lockstep_replay ctx seq svc cli in
  S.shutdown svc;
  let solo = List.map (fun (_, us, _) -> us) paired in
  emit "metric service.call_us %.4f" (mean solo);
  List.iter
    (fun kind ->
      let l = List.filter_map (fun (r, us, _) -> if r.kind = kind then Some us else None) paired in
      if l <> [] then emit "call_kind %s %.2f %d" (kind_name kind) (mean l) (List.length l))
    [ Read; Write; Stream; Load ];
  emit "metric transport.socket_overhead_us %.4f"
    (median (List.filter_map (fun (r, solo, sock) -> if r.kind = Read then Some (sock -. solo) else None) paired));
  (match Client.call cli S.Stats with
  | S.Ok (S.Stats_dump s) ->
    List.iter
      (fun line ->
        match String.split_on_char ' ' line with
        | [ ("bytes_out" | "requests" | "frames_out") as k; v ] -> emit "sockstat %s %s" k v
        | _ -> ())
      (String.split_on_char '\n' s)
  | _ -> record_failure "socket STATS failed");
  Client.close cli;
  (* queue wait at the workload's in-flight count: per request, its
     fastest latency there over three replays minus its solo latency;
     the median *)
  let wait_at ~domains ~k =
    let replay () =
      let svc = S.create ~domains ~queue_capacity:64 () in
      service_setup svc setup;
      let lat = List.map snd (inflight_replay ctx svc seq ~k) in
      let stats = match S.call svc S.Stats with S.Ok (S.Stats_dump s) -> s | _ -> "" in
      S.shutdown svc;
      (lat, stats)
    in
    let lat, stats = replay () in
    let fastest = List.fold_left (fun a _ -> List.map2 Float.min a (fst (replay ()))) lat [ (); () ] in
    (median (List.map2 ( -. ) fastest solo), stats)
  in
  let k = inflight_of w in
  let wait, stats = wait_at ~domains:2 ~k in
  emit "inflight %d" k;
  emit "metric service.wait_us %.4f" wait;
  emit_stats stats;
  (* read-mix's one-vs-two-domain diagnostic *)
  if w = Read_mix then begin
    let w1, _ = wait_at ~domains:1 ~k in
    emit "diag_wait_us 1 %.4f" w1;
    emit "diag_wait_us 2 %.4f" wait
  end;
  (* the mirror: untraced twice (fastest kept), then traced once *)
  let cost = span_cost () in
  let untraced =
    Float.min
      (mirror_replay ctx setup preparsed seq ~traced:false)
      (mirror_replay ctx setup preparsed seq ~traced:false)
  in
  let traced = mirror_replay ctx setup preparsed seq ~traced:true in
  let recorded = List.length !spans in
  emit "replay_untraced_s %.6f" untraced;
  emit "replay_traced_s %.6f" traced;
  emit "span_cost_ns %.3f" (cost *. 1e9);
  emit "metric trace.overhead_share %.6g" (cost *. float_of_int recorded /. untraced);
  List.iter
    (fun s ->
      emit "span %d %d %d %s %.3f %.3f %d" s.sid s.parent s.rq s.name (s.s0 *. 1e6) (s.s1 *. 1e6) s.amount)
    (List.rev !spans);
  emit "failed %d" (Atomic.get failures);
  write_out out

(* ---------------- command line ---------------- *)

let () =
  let cmd = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  let workload = ref "" and seed = ref 1 and dir = ref "" and socket = ref "" in
  let seconds = ref 10. and out = ref "" and server = ref "" and rounds = ref 1 in
  let specs =
    [ ("--workload", Arg.Set_string workload, "NAME workload");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--dir", Arg.Set_string dir, "DIR input directory");
      ("--socket", Arg.Set_string socket, "PATH server socket");
      ("--seconds", Arg.Set_float seconds, "S timed window");
      ("--out", Arg.Set_string out, "FILE result records");
      ("--server", Arg.Set_string server, "EXE the xut binary to spawn");
      ("--rounds", Arg.Set_int rounds, "N set-up rounds") ]
  in
  let usage = "xsb (gen|setup|setup-timed|drive|trace) --workload W --seed N --dir DIR ..." in
  (try Arg.parse_argv ~current:(ref 1) Sys.argv specs (fun _ -> ()) usage
   with Arg.Bad m | Arg.Help m -> prerr_string m; exit 2);
  let w =
    match workload_of_string !workload with
    | Some w -> w
    | None -> prerr_endline ("unknown workload: " ^ !workload); exit 2
  in
  match cmd with
  | "gen" -> gen w ~seed:!seed ~dir:!dir
  | "setup" -> setup_cmd w ~dir:!dir ~socket:!socket
  | "setup-timed" -> setup_timed_cmd w ~dir:!dir ~socket:!socket ~server:!server ~rounds:!rounds ~out:!out
  | "drive" -> drive_cmd w ~seed:!seed ~dir:!dir ~socket:!socket ~seconds:!seconds ~out:!out
  | "trace" -> trace_cmd w ~seed:!seed ~dir:!dir ~socket:!socket ~out:!out
  | _ -> prerr_endline usage; exit 2
