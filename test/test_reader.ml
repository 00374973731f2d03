(* The chunked reader and the streaming property of the SAX parser:
   events must be identical for any chunk size, including pathological
   1-byte chunks that split every token across refills. *)
open Xut_xml

let events_of source =
  let acc = ref [] in
  source (fun ev -> acc := ev :: !acc);
  List.rev !acc

let with_temp_doc text f =
  let tmp = Filename.temp_file "xut_rd" ".xml" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      Out_channel.with_open_bin tmp (fun oc -> output_string oc text);
      f tmp)

let check_chunked text =
  let expected = events_of (Sax.parse_string text) in
  List.iter
    (fun chunk_size ->
      with_temp_doc text (fun tmp ->
          let got =
            events_of (fun h ->
                In_channel.with_open_bin tmp (fun ic ->
                    Sax.parse_reader (Reader.of_channel ~chunk_size ic) h))
          in
          Alcotest.(check int)
            (Printf.sprintf "event count (chunk=%d)" chunk_size)
            (List.length expected) (List.length got);
          List.iter2
            (fun a b ->
              Alcotest.(check bool)
                (Printf.sprintf "event equal (chunk=%d)" chunk_size)
                true (Sax.equal_event a b))
            expected got))
    [ 1; 2; 3; 7; 64 ]

let test_chunk_boundaries () =
  check_chunked "<a x=\"1\" y='two'><b>text &amp; more &#65;</b><!-- c --><?pi data?><![CDATA[<r>]]><c/></a>"

let test_chunked_xmark () =
  let doc = Xut_xmark.Generator.generate ~factor:0.001 () in
  check_chunked (Serialize.element_to_string doc)

let test_reader_basics () =
  let r = Reader.of_string "ab\ncd" in
  Alcotest.(check char) "peek" 'a' (Reader.peek r);
  Alcotest.(check char) "next" 'a' (Reader.next r);
  Alcotest.(check int) "line 1" 1 (Reader.line r);
  ignore (Reader.next r);
  ignore (Reader.next r);
  Alcotest.(check int) "line 2 after newline" 2 (Reader.line r);
  Alcotest.(check int) "col" 1 (Reader.col r);
  ignore (Reader.next r);
  ignore (Reader.next r);
  Alcotest.(check bool) "eof" true (Reader.eof r);
  Alcotest.(check char) "peek at eof" '\000' (Reader.peek r);
  Alcotest.(check int) "bytes read" 5 (Reader.bytes_read r)

let test_error_position () =
  (* the unknown entity is on line 3 *)
  match Sax.parse_string "<a>\n<b>\n&bogus;</b></a>" (fun _ -> ()) with
  | exception Sax.Parse_error { line; _ } -> Alcotest.(check int) "line" 3 line
  | _ -> Alcotest.fail "should not parse"

let test_streaming_transform_tiny_chunks () =
  (* the full two-pass streaming pipeline over 16-byte chunks *)
  let doc = Fixtures.parts_doc () in
  let text = Serialize.element_to_string doc in
  with_temp_doc text (fun tmp ->
      let update =
        Core.Transform_parser.parse_update "delete $a//supplier[country = 'A']/price"
      in
      let nfa = Xut_automata.Selecting_nfa.of_path (Core.Transform_ast.path update) in
      let out = Buffer.create 256 in
      let source h =
        In_channel.with_open_bin tmp (fun ic ->
            Sax.parse_reader (Reader.of_channel ~chunk_size:16 ic) h)
      in
      let _ = Core.Sax_transform.run nfa update ~source ~sink:(Serialize.event_sink out) in
      let got = Dom.parse_string (Buffer.contents out) in
      let expected = Core.Engine.transform Core.Engine.Reference update doc in
      Alcotest.(check bool) "chunked streaming = reference" true
        (Node.equal_element expected got))

(* Chunk-boundary property: for random XMark documents, the event
   stream must not depend on where the reader's refills land — chunk
   size 1 puts a boundary inside every token, 2/3/7 shear multi-byte
   constructs (entity references, CDATA markers, comments) at varying
   offsets, 64 exercises ordinary refills. *)
let prop_chunked_equals_string =
  QCheck2.Test.make ~name:"of_channel ~chunk_size:k = of_string on random XMark docs"
    ~count:8
    QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 2 12))
    (fun (seed, size) ->
      let factor = float_of_int size /. 10_000. in
      let doc = Xut_xmark.Generator.generate ~seed:(Int64.of_int seed) ~factor () in
      let text = Serialize.element_to_string doc in
      let expected = events_of (Sax.parse_string text) in
      with_temp_doc text (fun tmp ->
          List.for_all
            (fun chunk_size ->
              let got =
                events_of (fun h ->
                    In_channel.with_open_bin tmp (fun ic ->
                        Sax.parse_reader (Reader.of_channel ~chunk_size ic) h))
              in
              List.length expected = List.length got
              && List.for_all2 Sax.equal_event expected got)
            [ 1; 2; 3; 7; 64 ]))

(* Random documents built to put every run scanner's terminator on a
   chunk edge somewhere: comments, CDATA sections and PIs whose bodies
   contain all but the last byte of their terminator, entity and
   character references in text and in both attribute quote styles,
   newlines everywhere (line/col accounting), and names long enough to
   straddle several chunks.  No body piece ends with the first byte of
   its terminator, so concatenations never close a construct early. *)
let random_doc st =
  let pick a = a.(Random.State.int st (Array.length a)) in
  let b = Buffer.create 1024 in
  let add = Buffer.add_string b in
  let name_start = "abcxyzABZ_:" and name_rest = "abz09-._:" in
  let name () =
    let len =
      if Random.State.int st 6 = 0 then 20 + Random.State.int st 120
      else 1 + Random.State.int st 4
    in
    String.init len (fun i ->
        let from = if i = 0 then name_start else name_rest in
        from.[Random.State.int st (String.length from)])
  in
  let refs =
    [| "&amp;"; "&lt;"; "&gt;"; "&quot;"; "&apos;"; "&#65;"; "&#x4A;"; "&#xe9;"; "&#x1F600;";
       "&#10;" |]
  in
  let body pieces = for _ = 0 to Random.State.int st 6 do add (pick pieces) done in
  let text () =
    body
      [| "word"; " "; "\n"; "\r\n"; ">"; "]]"; "-"; "?"; "'"; "\""; "&amp;"; "&#x42;";
         "&#233;" |]
  in
  let attrs () =
    for _ = 1 to Random.State.int st 4 do
      add (pick [| " "; "\n"; "\t" |]);
      add (name ());
      add (pick [| "="; " = "; "\n=\n" |]);
      let q = pick [| "\""; "'" |] in
      add q;
      for _ = 0 to Random.State.int st 5 do
        add (pick [| "v"; " "; "\n"; ">"; (if q = "\"" then "'" else "\""); pick refs |])
      done;
      add q
    done
  in
  let rec element depth =
    let n = name () in
    add "<";
    add n;
    attrs ();
    if Random.State.int st 5 = 0 then add (pick [| "/>"; " />"; "\n/>" |])
    else begin
      add ">";
      for _ = 0 to Random.State.int st (if depth > 3 then 2 else 5) do
        match Random.State.int st 8 with
        | 0 when depth < 5 -> element (depth + 1)
        | 0 | 1 -> text ()
        | 2 -> add (pick refs)
        | 3 -> add "<!--"; body [| "x"; "-x"; ">"; "->"; " "; "\n" |]; add "-->"
        | 4 -> add "<![CDATA["; body [| "x"; "]x"; "]>"; ">"; "<"; "&"; "\n" |]; add "]]>"
        | 5 -> add "<?"; add (name ()); add " "; body [| "x"; "?x"; ">"; " "; "\n" |]; add "?>"
        | _ -> element (depth + 1)
      done;
      add "</";
      add n;
      add (pick [| ">"; " >"; "\n>" |])
    end
  in
  if Random.State.bool st then add "<?xml version=\"1.0\"?>\n";
  if Random.State.bool st then add "<!DOCTYPE r [<!ENTITY e \"v\">]>\n<!-- prolog -->\n";
  element 0;
  Buffer.contents b

(* A parse outcome: the events delivered, and the error that ended the
   parse, if any. *)
let outcome source =
  let acc = ref [] in
  let err =
    match source (fun ev -> acc := ev :: !acc) with
    | () -> None
    | exception Sax.Parse_error { line; col; msg } -> Some (line, col, msg)
  in
  (List.rev !acc, err)

let chunked_agrees text =
  let expected = outcome (Sax.parse_string text) in
  with_temp_doc text (fun tmp ->
      List.for_all
        (fun chunk_size ->
          let got =
            outcome (fun h ->
                In_channel.with_open_bin tmp (fun ic ->
                    Sax.parse_reader (Reader.of_channel ~chunk_size ic) h))
          in
          let (ev, err) = expected and (ev', err') = got in
          List.length ev = List.length ev'
          && List.for_all2 Sax.equal_event ev ev'
          && err = err')
        [ 1; 2; 3; 7; 64 ])

let prop_random_constructs_chunked =
  QCheck2.Test.make ~name:"of_channel ~chunk_size:k = of_string on random constructs"
    ~count:60 (QCheck2.Gen.int_range 0 1_000_000)
    (fun seed ->
      let text = random_doc (Random.State.make [| seed |]) in
      snd (outcome (Sax.parse_string text)) = None && chunked_agrees text)

(* Malformed inputs: the same error, at the same line and column, from
   every chunk size. *)
let prop_malformed_chunked =
  QCheck2.Test.make
    ~name:"of_channel ~chunk_size:k and of_string fail alike on malformed input" ~count:60
    (QCheck2.Gen.int_range 0 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let text = random_doc st in
      let at = Random.State.int st (String.length text) in
      let bad =
        match Random.State.int st 3 with
        | 0 -> String.sub text 0 at
        | 1 ->
          let junk = [| "<"; "&"; "&#0;"; "&#xD800;"; "</zz>"; "]]>"; "\""; "<!"; "&bogus;" |] in
          String.sub text 0 at ^ junk.(Random.State.int st (Array.length junk))
          ^ String.sub text at (String.length text - at)
        | _ -> String.sub text 0 at ^ String.sub text (at + 1) (String.length text - at - 1)
      in
      chunked_agrees bad)

let test_bad_char_refs () =
  let fails_at_ref col doc =
    match Sax.parse_string doc (fun _ -> ()) with
    | exception Sax.Parse_error { line; col = c; _ } ->
      Alcotest.(check (pair int int)) ("position of the reference in " ^ doc) (2, col) (line, c)
    | () -> Alcotest.fail ("should not parse: " ^ doc)
  in
  List.iter
    (fun r ->
      fails_at_ref 3 (Printf.sprintf "<a>\n x%s</a>" r);
      fails_at_ref 9 (Printf.sprintf "<a>\n <b v='x%s'/></a>" r))
    [ "&#0;"; "&#x0;"; "&#1;"; "&#xD800;"; "&#xDFFF;"; "&#xFFFE;"; "&#x110000;";
      "&#99999999999999999999999;"; "&#xFFFFFFFFFFFFFFFFFFFF;"; "&#x7FFFFFFFFFFFFFFF;" ];
  let text_of doc =
    let acc = Buffer.create 8 in
    Sax.parse_string ~keep_ws:true doc (function
      | Sax.Characters s -> Buffer.add_string acc s
      | _ -> ());
    Buffer.contents acc
  in
  Alcotest.(check string) "tab, newline, CR" "\t\n\r" (text_of "<a>&#9;&#xA;&#13;</a>");
  Alcotest.(check string) "BMP edges" "\xED\x9F\xBF\xEE\x80\x80\xEF\xBF\xBD"
    (text_of "<a>&#xD7FF;&#xE000;&#xFFFD;</a>");
  Alcotest.(check string) "last code point" "\xF4\x8F\xBF\xBF" (text_of "<a>&#x10FFFF;</a>")

let suite =
  [ Alcotest.test_case "reader basics" `Quick test_reader_basics;
    QCheck_alcotest.to_alcotest prop_chunked_equals_string;
    QCheck_alcotest.to_alcotest prop_random_constructs_chunked;
    QCheck_alcotest.to_alcotest prop_malformed_chunked;
    Alcotest.test_case "bad character references" `Quick test_bad_char_refs;
    Alcotest.test_case "chunk boundaries" `Quick test_chunk_boundaries;
    Alcotest.test_case "chunked xmark document" `Quick test_chunked_xmark;
    Alcotest.test_case "error position" `Quick test_error_position;
    Alcotest.test_case "streaming transform, 16-byte chunks" `Quick
      test_streaming_transform_tiny_chunks ]
