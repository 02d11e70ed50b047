type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ---------------------------------------------------------------- render *)

(* ASCII is escaped as JSON requires.  Above it, a valid UTF-8 sequence
   is copied (it re-encodes to the same bytes) and each byte that starts
   no valid sequence becomes U+FFFD, so every printed document is valid
   UTF-8. *)
let escape_string buf s =
  Buffer.add_char buf '"';
  let rec go i =
    if i < String.length s then
      match s.[i] with
      | '\x80' .. '\xff' ->
          let d = String.get_utf_8_uchar s i in
          Buffer.add_utf_8_uchar buf (Uchar.utf_decode_uchar d);
          go (i + if Uchar.utf_decode_is_valid d then Uchar.utf_decode_length d else 1)
      | c ->
          (match c with
          | '"' -> Buffer.add_string buf "\\\""
          | '\\' -> Buffer.add_string buf "\\\\"
          | '\n' -> Buffer.add_string buf "\\n"
          | '\r' -> Buffer.add_string buf "\\r"
          | '\t' -> Buffer.add_string buf "\\t"
          | '\b' -> Buffer.add_string buf "\\b"
          | '\012' -> Buffer.add_string buf "\\f"
          | c when Char.code c < 0x20 ->
              Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
          | c -> Buffer.add_char buf c);
          go (i + 1)
  in
  go 0;
  Buffer.add_char buf '"'

(* the shorter of %.15g and %.17g that reads back equal; a decimal point
   is forced so that a Float never reads back as an Int *)
let float_repr f =
  if not (Float.is_finite f) then invalid_arg "Jsonx: nan/infinity";
  let s = Printf.sprintf "%.15g" f in
  let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
  if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

let is_obj = function Obj _ -> true | _ -> false

let render ~lines v =
  let buf = Buffer.create 256 in
  let add = Buffer.add_string buf in
  (* [f i x] prints element [i]; the commas go in between *)
  let seq op cl xs f =
    Buffer.add_char buf op;
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        f i x)
      xs;
    Buffer.add_char buf cl
  in
  let rec go = function
    | Null -> add "null"
    | Bool b -> add (string_of_bool b)
    | Int n -> add (string_of_int n)
    | Float f -> add (float_repr f)
    | Str s -> escape_string buf s
    | Arr xs ->
        seq '[' ']' xs (fun i x ->
            if lines && is_obj x then add "\n" else if i > 0 then add " ";
            go x)
    | Obj fields ->
        seq '{' '}' fields (fun i (k, x) ->
            if i > 0 then add " ";
            escape_string buf k;
            add ": ";
            go x)
  in
  go v;
  if lines then add "\n";
  Buffer.contents buf

let to_string v = render ~lines:false v
let to_document v = render ~lines:true v

(* ----------------------------------------------------------------- parse *)

exception Fail of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let add_utf8 buf cp =
    (* encode one Unicode scalar value *)
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xf0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
    end
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match s.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad hex digit in \\u escape"
      in
      v := (!v * 16) + d;
      advance ()
    done;
    !v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (if !pos >= n then fail "truncated escape";
           match s.[!pos] with
           | '"' -> Buffer.add_char buf '"'; advance ()
           | '\\' -> Buffer.add_char buf '\\'; advance ()
           | '/' -> Buffer.add_char buf '/'; advance ()
           | 'n' -> Buffer.add_char buf '\n'; advance ()
           | 'r' -> Buffer.add_char buf '\r'; advance ()
           | 't' -> Buffer.add_char buf '\t'; advance ()
           | 'b' -> Buffer.add_char buf '\b'; advance ()
           | 'f' -> Buffer.add_char buf '\012'; advance ()
           | 'u' ->
               advance ();
               let cp = hex4 () in
               let cp =
                 (* surrogate pair: a high surrogate must be followed by
                    an escaped low surrogate *)
                 if cp >= 0xd800 && cp <= 0xdbff then begin
                   if
                     !pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                   then begin
                     pos := !pos + 2;
                     let lo = hex4 () in
                     if lo < 0xdc00 || lo > 0xdfff then
                       fail "bad low surrogate"
                     else 0x10000 + ((cp - 0xd800) lsl 10) + (lo - 0xdc00)
                   end
                   else fail "lone high surrogate"
                 end
                 else if cp >= 0xdc00 && cp <= 0xdfff then
                   fail "lone low surrogate"
                 else cp
               in
               add_utf8 buf cp
           | _ -> fail "bad escape");
          loop ()
      | c when Char.code c < 0x20 -> fail "control character in string"
      | '\x80' .. '\xff' ->
          let d = String.get_utf_8_uchar s !pos in
          if not (Uchar.utf_decode_is_valid d) then fail "invalid UTF-8 in string";
          Buffer.add_utf_8_uchar buf (Uchar.utf_decode_uchar d);
          pos := !pos + Uchar.utf_decode_length d;
          loop ()
      | c ->
          Buffer.add_char buf c;
          advance ();
          loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let digits () =
      let d0 = !pos in
      while !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false do
        advance ()
      done;
      if !pos = d0 then fail "expected digit"
    in
    digits ();
    let is_float = ref false in
    if peek () = Some '.' then begin
      is_float := true;
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        is_float := true;
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    let text = String.sub s start (!pos - start) in
    if !is_float then Float (float_of_string text)
    else
      match int_of_string_opt text with
      | Some v -> Int v
      | None -> Float (float_of_string text)
  in
  let rec parse_value depth =
    if depth > 512 then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> Str (parse_string ())
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let items = ref [] in
          let rec elems () =
            items := parse_value (depth + 1) :: !items;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); elems ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          elems ();
          Arr (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); members ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          members ();
          Obj (List.rev !fields)
        end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character '%c'" c)
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos < n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Fail (off, msg) ->
      Error (Printf.sprintf "at byte %d: %s" off msg)

(* ------------------------------------------------------------- accessors *)

let mem k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let as_int = function
  | Int n -> Some n
  | Float f when Float.is_integer f && Float.abs f <= 2. ** 52. ->
      Some (int_of_float f)
  | _ -> None

let as_float = function
  | Float f -> Some f
  | Int n -> Some (float_of_int n)
  | _ -> None

let as_str = function Str s -> Some s | _ -> None
let as_bool = function Bool b -> Some b | _ -> None
let as_arr = function Arr xs -> Some xs | _ -> None
