type t = {
  refill : bytes -> int;  (* fill the buffer, return the byte count; 0 = eof *)
  buf : bytes;
  mutable len : int;   (* valid bytes in [buf] *)
  mutable pos : int;   (* cursor within [buf] *)
  mutable finished : bool;
  mutable base : int;  (* input offset of [buf.[0]] *)
  mutable line : int;
  mutable bol : int;   (* input offset of the current line's first byte *)
}

let default_chunk = 65536

let make refill chunk_size =
  {
    refill;
    buf = Bytes.create chunk_size;
    len = 0;
    pos = 0;
    finished = false;
    base = 0;
    line = 1;
    bol = 0;
  }

let of_string s =
  let offset = ref 0 in
  let refill buf =
    let n = min (String.length s - !offset) (Bytes.length buf) in
    Bytes.blit_string s !offset buf 0 n;
    offset := !offset + n;
    n
  in
  make refill (min default_chunk (max 16 (String.length s)))

let of_channel ?(chunk_size = default_chunk) ic =
  make (fun buf -> input ic buf 0 (Bytes.length buf)) chunk_size

let fill t =
  if (not t.finished) && t.pos >= t.len then begin
    let n = t.refill t.buf in
    t.base <- t.base + t.len;
    t.len <- n;
    t.pos <- 0;
    if n = 0 then t.finished <- true
  end

let peek t =
  fill t;
  if t.pos < t.len then Bytes.unsafe_get t.buf t.pos else '\000'

let eof t =
  fill t;
  t.pos >= t.len

let advance t =
  fill t;
  if t.pos < t.len then begin
    if Bytes.unsafe_get t.buf t.pos = '\n' then begin
      t.line <- t.line + 1;
      t.bol <- t.base + t.pos + 1
    end;
    t.pos <- t.pos + 1
  end

let next t =
  let c = peek t in
  advance t;
  c

(* ---- run scanners ----

   A class is a 256-entry byte table: ['\001'] marks the bytes that end
   a run, ['\002'] a newline inside a run (counted where the scan meets
   it, so line/col stay exact without a per-byte update elsewhere), and
   ['\000'] every other byte of the run. *)

type cls = Bytes.t

let cls ~stop =
  Bytes.init 256 (fun i ->
      let c = Char.chr i in
      if stop c then '\001' else if c = '\n' then '\002' else '\000')

(* Index of the first stop byte at or after [i] in the current chunk, or
   [t.len]; does not move the cursor or refill.  (No local closure: this
   is the parser's innermost loop.) *)
let rec scan_from t buf len cls i =
  if i >= len then i
  else
    match Bytes.unsafe_get cls (Char.code (Bytes.unsafe_get buf i)) with
    | '\000' -> scan_from t buf len cls (i + 1)
    | '\002' ->
      t.line <- t.line + 1;
      t.bol <- t.base + i + 1;
      scan_from t buf len cls (i + 1)
    | _ -> i

let scan t cls = scan_from t t.buf t.len cls t.pos

let rec skip t cls =
  fill t;
  t.pos <- scan t cls;
  if t.pos >= t.len && not t.finished then skip t cls

let rec add t cls b =
  fill t;
  let start = t.pos in
  let i = scan t cls in
  Buffer.add_subbytes b t.buf start (i - start);
  t.pos <- i;
  if i >= t.len && not t.finished then add t cls b

(* A run that reaches the end of the chunk continues in a Buffer across
   the seam; a run that ends inside the chunk needs no Buffer at all. *)
let spill t cls start i =
  let b = Buffer.create (2 * (i - start) + 16) in
  Buffer.add_subbytes b t.buf start (i - start);
  add t cls b;
  Buffer.contents b

let take t cls =
  fill t;
  let start = t.pos in
  let i = scan t cls in
  t.pos <- i;
  if i < t.len || t.finished then Bytes.sub_string t.buf start (i - start)
  else spill t cls start i

let line t = t.line
let col t = t.base + t.pos - t.bol + 1
let bytes_read t = t.base + t.pos
