type event =
  | Start_document
  | Start_element of string * (string * string) list
  | Characters of string
  | Comment_event of string
  | Pi_event of string * string
  | End_element of string
  | End_document

exception Parse_error of { line : int; col : int; msg : string }

let pp_event ppf = function
  | Start_document -> Format.fprintf ppf "startDocument"
  | Start_element (n, attrs) ->
    Format.fprintf ppf "startElement(%s%a)" n
      (fun ppf -> List.iter (fun (k, v) -> Format.fprintf ppf " %s=%S" k v))
      attrs
  | Characters s -> Format.fprintf ppf "text(%S)" s
  | Comment_event s -> Format.fprintf ppf "comment(%S)" s
  | Pi_event (t, c) -> Format.fprintf ppf "pi(%s,%S)" t c
  | End_element n -> Format.fprintf ppf "endElement(%s)" n
  | End_document -> Format.fprintf ppf "endDocument"

let equal_event (a : event) (b : event) = a = b

(* The parser pulls runs from a chunked {!Reader}, so its memory is
   O(chunk + current token) — documents never need to fit in memory. *)

let error r msg = raise (Parse_error { line = Reader.line r; col = Reader.col r; msg })

let expect r c =
  let got = Reader.peek r in
  if got <> c then error r (Printf.sprintf "expected %C, found %C" c got);
  Reader.advance r

let expect_string r s = String.iter (fun c -> expect r c) s

let is_ws = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let is_name_char c = is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

let is_digit c = c >= '0' && c <= '9'
let is_hex_digit c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

(* The run classes: each scan stops at the first byte its token cannot
   contain. *)
let ws_run = Reader.cls ~stop:(fun c -> not (is_ws c))
let name_run = Reader.cls ~stop:(fun c -> not (is_name_char c))
let dec_run = Reader.cls ~stop:(fun c -> not (is_digit c))
let hex_run = Reader.cls ~stop:(fun c -> not (is_hex_digit c))
let text_run = Reader.cls ~stop:(fun c -> c = '<' || c = '&')
let dq_run = Reader.cls ~stop:(fun c -> c = '"' || c = '&')
let sq_run = Reader.cls ~stop:(fun c -> c = '\'' || c = '&')
let gt_run = Reader.cls ~stop:(fun c -> c = '>')

let skip_ws r = Reader.skip r ws_run

let read_name r =
  if not (is_name_start (Reader.peek r)) then error r "expected a name";
  Reader.take r name_run

(* XML 1.0's Char production: what a character reference may denote. *)
let is_xml_char code =
  code = 0x9 || code = 0xA || code = 0xD
  || (code >= 0x20 && code <= 0xD7FF)
  || (code >= 0xE000 && code <= 0xFFFD)
  || (code >= 0x10000 && code <= 0x10FFFF)

let utf8_encode code =
  let b = Buffer.create 4 in
  Buffer.add_utf_8_uchar b (Uchar.of_int code);
  Buffer.contents b

(* Entity and character references, including the '&'.  Errors point at
   the '&', wherever the reference turns out to be bad. *)
let read_reference r =
  let line = Reader.line r and col = Reader.col r in
  let bad msg = raise (Parse_error { line; col; msg }) in
  expect r '&';
  if Reader.peek r = '#' then begin
    Reader.advance r;
    let hex = Reader.peek r = 'x' in
    if hex then Reader.advance r;
    let digits = Reader.take r (if hex then hex_run else dec_run) in
    if digits = "" then bad "empty character reference";
    expect r ';';
    match int_of_string_opt ((if hex then "0x" else "") ^ digits) with
    | Some code when is_xml_char code -> utf8_encode code
    | _ ->
      bad
        (Printf.sprintf "character reference &#%s%s; is not an XML character"
           (if hex then "x" else "") digits)
  end
  else begin
    let name = read_name r in
    expect r ';';
    match name with
    | "amp" -> "&"
    | "lt" -> "<"
    | "gt" -> ">"
    | "quot" -> "\""
    | "apos" -> "'"
    | other -> bad (Printf.sprintf "unknown entity &%s;" other)
  end

let read_attr_value r =
  let quote = Reader.peek r in
  if quote <> '"' && quote <> '\'' then error r "expected attribute value";
  Reader.advance r;
  let run = if quote = '"' then dq_run else sq_run in
  let first = Reader.take r run in
  if Reader.peek r = quote then begin
    Reader.advance r;
    first
  end
  else begin
    let buf = Buffer.create (String.length first + 16) in
    Buffer.add_string buf first;
    let rec loop () =
      if Reader.eof r then error r "unterminated attribute value"
      else if Reader.peek r = quote then Reader.advance r
      else begin
        (* the run stopped at '&' *)
        Buffer.add_string buf (read_reference r);
        Reader.add r run buf;
        loop ()
      end
    in
    loop ();
    Buffer.contents buf
  end

let rec read_attributes r acc =
  skip_ws r;
  if is_name_start (Reader.peek r) then begin
    let k = read_name r in
    skip_ws r;
    expect r '=';
    skip_ws r;
    let v = read_attr_value r in
    read_attributes r ((k, v) :: acc)
  end
  else List.rev acc

(* Does the buffer end with [term]? (Buffer.nth is O(1).) *)
let buffer_ends_with buf term =
  let n = Buffer.length buf in
  let k = String.length term in
  n >= k
  &&
  let rec go i = i >= k || (Buffer.nth buf (n - k + i) = term.[i] && go (i + 1)) in
  go 0

(* Read until the literal [term] appears, consuming it; the content
   before [term] is returned.  Every terminator used here ends in '>',
   so one run scan reaches each candidate end and the suffix is checked
   there, not after every byte. *)
let read_until r term =
  let buf = Buffer.create 32 in
  let rec loop () =
    Reader.add r gt_run buf;
    if Reader.eof r then error r ("unterminated: expected " ^ term)
    else begin
      Buffer.add_char buf (Reader.next r);
      if buffer_ends_with buf term then
        Buffer.sub buf 0 (Buffer.length buf - String.length term)
      else loop ()
    end
  in
  loop ()

(* Skip a DOCTYPE declaration, including an internal subset. *)
let skip_doctype r =
  (* called after "<!DOCTYPE" has been consumed *)
  let depth = ref 1 in
  while !depth > 0 do
    if Reader.eof r then error r "unterminated DOCTYPE";
    (match Reader.peek r with
    | '<' -> incr depth
    | '>' -> decr depth
    | '[' -> incr depth
    | ']' -> decr depth
    | _ -> ());
    Reader.advance r
  done

let is_all_ws s =
  let rec go i = i >= String.length s || (is_ws (String.unsafe_get s i) && go (i + 1)) in
  go 0

let parse_events ~keep_ws r handler =
  handler Start_document;
  let stack = ref [] in
  let buf = Buffer.create 64 in
  let emit_text s =
    if keep_ws || not (is_all_ws s) then
      if !stack <> [] then handler (Characters s)
      else if not (is_all_ws s) then error r "text outside the document element"
  in
  let flush_text () =
    if Buffer.length buf > 0 then begin
      let s = Buffer.contents buf in
      Buffer.clear buf;
      emit_text s
    end
  in
  let rec loop () =
    match Reader.peek r with
    | '<' ->
      flush_text ();
      Reader.advance r;
      (match Reader.peek r with
      | '?' ->
        Reader.advance r;
        let target = read_name r in
        skip_ws r;
        let content = read_until r "?>" in
        if String.lowercase_ascii target <> "xml" then handler (Pi_event (target, content))
      | '!' ->
        Reader.advance r;
        if Reader.peek r = '-' then begin
          expect_string r "--";
          let content = read_until r "-->" in
          handler (Comment_event content)
        end
        else if Reader.peek r = '[' then begin
          expect_string r "[CDATA[";
          let content = read_until r "]]>" in
          if !stack = [] then error r "CDATA outside the document element";
          handler (Characters content)
        end
        else begin
          expect_string r "DOCTYPE";
          skip_doctype r
        end
      | '/' ->
        Reader.advance r;
        let name = read_name r in
        skip_ws r;
        expect r '>';
        (match !stack with
        | top :: rest ->
          if top <> name then
            error r (Printf.sprintf "mismatched tags: <%s> closed by </%s>" top name);
          stack := rest;
          handler (End_element name)
        | [] -> error r (Printf.sprintf "closing tag </%s> with no open element" name))
      | _ ->
        let name = read_name r in
        let attrs = read_attributes r [] in
        skip_ws r;
        if Reader.peek r = '/' then begin
          Reader.advance r;
          expect r '>';
          handler (Start_element (name, attrs));
          handler (End_element name)
        end
        else begin
          expect r '>';
          stack := name :: !stack;
          handler (Start_element (name, attrs))
        end);
      loop ()
    | '&' ->
      Buffer.add_string buf (read_reference r);
      loop ()
    | _ when Reader.eof r ->
      flush_text ();
      (match !stack with
      | top :: _ -> error r ("unclosed element <" ^ top ^ ">")
      | [] -> ());
      handler End_document
    | _ ->
      (* a run that no reference continues is emitted as cut from the
         chunk, not copied through [buf] *)
      if Buffer.length buf = 0 then begin
        let s = Reader.take r text_run in
        if Reader.peek r = '&' then Buffer.add_string buf s else emit_text s
      end
      else Reader.add r text_run buf;
      loop ()
  in
  loop ()

let parse_reader ?(keep_ws = false) r handler = parse_events ~keep_ws r handler

let parse_string ?keep_ws src handler = parse_reader ?keep_ws (Reader.of_string src) handler

let parse_channel ?keep_ws ic handler = parse_reader ?keep_ws (Reader.of_channel ic) handler

let parse_file ?keep_ws path handler =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> parse_channel ?keep_ws ic handler)

let events_of_tree root handler =
  let rec emit = function
    | Node.Element e ->
      handler (Start_element (Node.name e, Node.attrs e));
      List.iter emit (Node.children e);
      handler (End_element (Node.name e))
    | Node.Text s -> handler (Characters s)
    | Node.Comment s -> handler (Comment_event s)
    | Node.Pi (t, c) -> handler (Pi_event (t, c))
  in
  handler Start_document;
  emit (Node.Element root);
  handler End_document
