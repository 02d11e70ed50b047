open Ch_json

type engine = Auto | Incremental | Scratch

type vmode = Exhaustive | Sampled of { seed : int; samples : int }

type op =
  | Ping
  | Catalog
  | Stats
  | Metrics
  | Health
  | Verify of { family : string; k : int; vmode : vmode; engine : engine }
  | Simulate of { family : string; k : int; pairs : int; seed : int }
  | Reduction of {
      family : string;
      k : int;
      exhaustive : bool;
      pairs : int;
      seed : int;
    }
  | Sweep_status of { family : string; k : int; shards : int; vmode : vmode }

type request = {
  rq_id : int;
  rq_op : op;
  rq_deadline_ms : int option;
  rq_trace : string option;
}

type error_code =
  | Bad_request
  | Unknown_family
  | Overloaded
  | Deadline_exceeded
  | Unsupported
  | Internal

let error_code_to_string = function
  | Bad_request -> "bad_request"
  | Unknown_family -> "unknown_family"
  | Overloaded -> "overloaded"
  | Deadline_exceeded -> "deadline_exceeded"
  | Unsupported -> "unsupported"
  | Internal -> "internal"

let error_code_of_string = function
  | "bad_request" -> Some Bad_request
  | "unknown_family" -> Some Unknown_family
  | "overloaded" -> Some Overloaded
  | "deadline_exceeded" -> Some Deadline_exceeded
  | "unsupported" -> Some Unsupported
  | "internal" -> Some Internal
  | _ -> None

type outcome = Payload of Jsonx.t | Error of error_code * string

type response = {
  rs_id : int;
  rs_outcome : outcome;
  rs_warm : bool;
  rs_micros : int;
}

(* ---------------------------------------------------------------- encode *)

let vmode_json = function
  | Exhaustive -> Jsonx.Str "exhaustive"
  | Sampled { seed; samples } ->
      Jsonx.Obj [ ("seed", Jsonx.Int seed); ("samples", Jsonx.Int samples) ]

let engine_to_string = function
  | Auto -> "auto"
  | Incremental -> "incremental"
  | Scratch -> "scratch"

let op_fields = function
  | Ping -> [ ("op", Jsonx.Str "ping") ]
  | Catalog -> [ ("op", Jsonx.Str "catalog") ]
  | Stats -> [ ("op", Jsonx.Str "stats") ]
  | Metrics -> [ ("op", Jsonx.Str "metrics") ]
  | Health -> [ ("op", Jsonx.Str "health") ]
  | Verify { family; k; vmode; engine } ->
      [
        ("op", Jsonx.Str "verify");
        ("family", Jsonx.Str family);
        ("k", Jsonx.Int k);
        ("mode", vmode_json vmode);
        ("engine", Jsonx.Str (engine_to_string engine));
      ]
  | Simulate { family; k; pairs; seed } ->
      [
        ("op", Jsonx.Str "simulate");
        ("family", Jsonx.Str family);
        ("k", Jsonx.Int k);
        ("pairs", Jsonx.Int pairs);
        ("seed", Jsonx.Int seed);
      ]
  | Reduction { family; k; exhaustive; pairs; seed } ->
      [
        ("op", Jsonx.Str "reduction");
        ("family", Jsonx.Str family);
        ("k", Jsonx.Int k);
        ("exhaustive", Jsonx.Bool exhaustive);
        ("pairs", Jsonx.Int pairs);
        ("seed", Jsonx.Int seed);
      ]
  | Sweep_status { family; k; shards; vmode } ->
      [
        ("op", Jsonx.Str "sweep-status");
        ("family", Jsonx.Str family);
        ("k", Jsonx.Int k);
        ("shards", Jsonx.Int shards);
        ("mode", vmode_json vmode);
      ]

let request_json r =
  let base = ("id", Jsonx.Int r.rq_id) :: op_fields r.rq_op in
  let base =
    match r.rq_deadline_ms with
    | None -> base
    | Some d -> base @ [ ("deadline_ms", Jsonx.Int d) ]
  in
  match r.rq_trace with
  | None -> Jsonx.Obj base
  | Some t -> Jsonx.Obj (base @ [ ("trace", Jsonx.Str t) ])

let encode_requests rs =
  Jsonx.to_string
    (Jsonx.Obj [ ("requests", Jsonx.Arr (List.map request_json rs)) ])

let response_json r =
  let base =
    [
      ("id", Jsonx.Int r.rs_id);
      ( "ok",
        Jsonx.Bool (match r.rs_outcome with Payload _ -> true | Error _ -> false)
      );
      ("warm", Jsonx.Bool r.rs_warm);
      ("micros", Jsonx.Int r.rs_micros);
    ]
  in
  match r.rs_outcome with
  | Payload body -> Jsonx.Obj (base @ [ ("body", body) ])
  | Error (code, msg) ->
      Jsonx.Obj
        (base
        @ [
            ("error", Jsonx.Str (error_code_to_string code));
            ("message", Jsonx.Str msg);
          ])

let encode_responses rs =
  Jsonx.to_string
    (Jsonx.Obj [ ("responses", Jsonx.Arr (List.map response_json rs)) ])

(* ---------------------------------------------------------------- decode *)

let ( let* ) = Result.bind

let field name v =
  match Jsonx.mem name v with
  | Some x -> Ok x
  | None -> Result.error (Printf.sprintf "missing field %S" name)

let int_field name v =
  let* x = field name v in
  match Jsonx.as_int x with
  | Some n -> Ok n
  | None -> Result.error (Printf.sprintf "field %S: expected integer" name)

let str_field name v =
  let* x = field name v in
  match Jsonx.as_str x with
  | Some s -> Ok s
  | None -> Result.error (Printf.sprintf "field %S: expected string" name)

let vmode_of_json = function
  | Jsonx.Str "exhaustive" -> Ok Exhaustive
  | Jsonx.Obj _ as o ->
      let* seed = int_field "seed" o in
      let* samples = int_field "samples" o in
      if samples < 0 then Result.error "field \"samples\": must be >= 0"
      else Ok (Sampled { seed; samples })
  | _ -> Result.error "field \"mode\": expected \"exhaustive\" or {seed,samples}"

let mode_field v =
  match Jsonx.mem "mode" v with
  | None -> Ok Exhaustive
  | Some m -> vmode_of_json m

let engine_field v =
  match Jsonx.mem "engine" v with
  | None -> Ok Auto
  | Some (Jsonx.Str "auto") -> Ok Auto
  | Some (Jsonx.Str "incremental") -> Ok Incremental
  | Some (Jsonx.Str "scratch") -> Ok Scratch
  | Some _ ->
      Result.error "field \"engine\": expected auto | incremental | scratch"

let decode_op v =
  let* op = str_field "op" v in
  match op with
  | "ping" -> Ok Ping
  | "catalog" -> Ok Catalog
  | "stats" -> Ok Stats
  | "metrics" -> Ok Metrics
  | "health" -> Ok Health
  | "verify" ->
      let* family = str_field "family" v in
      let* k = int_field "k" v in
      let* vmode = mode_field v in
      let* engine = engine_field v in
      Ok (Verify { family; k; vmode; engine })
  | "simulate" ->
      let* family = str_field "family" v in
      let* k = int_field "k" v in
      let* pairs = int_field "pairs" v in
      let* seed = int_field "seed" v in
      Ok (Simulate { family; k; pairs; seed })
  | "reduction" ->
      let* family = str_field "family" v in
      let* k = int_field "k" v in
      let* pairs = int_field "pairs" v in
      let* seed = int_field "seed" v in
      let exhaustive =
        match Jsonx.mem "exhaustive" v with
        | Some (Jsonx.Bool b) -> b
        | _ -> false
      in
      Ok (Reduction { family; k; exhaustive; pairs; seed })
  | "sweep-status" ->
      let* family = str_field "family" v in
      let* k = int_field "k" v in
      let* shards = int_field "shards" v in
      let* vmode = mode_field v in
      Ok (Sweep_status { family; k; shards; vmode })
  | other -> Result.error (Printf.sprintf "unknown op %S" other)

let decode_request v =
  let* rq_id = int_field "id" v in
  let* rq_op = decode_op v in
  let rq_deadline_ms =
    Option.bind (Jsonx.mem "deadline_ms" v) Jsonx.as_int
  in
  let rq_trace = Option.bind (Jsonx.mem "trace" v) Jsonx.as_str in
  Ok { rq_id; rq_op; rq_deadline_ms; rq_trace }

let decode_requests s =
  let* v = Jsonx.parse s in
  let* batch = field "requests" v in
  match Jsonx.as_arr batch with
  | None -> Result.error "field \"requests\": expected array"
  | Some items ->
      List.fold_left
        (fun acc item ->
          let* rs = acc in
          let* r = decode_request item in
          Ok (r :: rs))
        (Ok []) items
      |> Result.map List.rev

let decode_response v =
  let* rs_id = int_field "id" v in
  let* ok = field "ok" v in
  let* ok =
    match Jsonx.as_bool ok with
    | Some b -> Ok b
    | None -> Result.error "field \"ok\": expected bool"
  in
  let rs_warm =
    match Option.bind (Jsonx.mem "warm" v) Jsonx.as_bool with
    | Some b -> b
    | None -> false
  in
  let rs_micros =
    match Option.bind (Jsonx.mem "micros" v) Jsonx.as_int with
    | Some n -> n
    | None -> 0
  in
  let* rs_outcome =
    if ok then
      let* body = field "body" v in
      Ok (Payload body)
    else
      let* code = str_field "error" v in
      let* code =
        match error_code_of_string code with
        | Some c -> Ok c
        | None -> Result.error (Printf.sprintf "unknown error code %S" code)
      in
      let msg =
        match Option.bind (Jsonx.mem "message" v) Jsonx.as_str with
        | Some m -> m
        | None -> ""
      in
      Ok (Error (code, msg))
  in
  Ok { rs_id; rs_outcome; rs_warm; rs_micros }

let decode_responses s =
  let* v = Jsonx.parse s in
  let* batch = field "responses" v in
  match Jsonx.as_arr batch with
  | None -> Result.error "field \"responses\": expected array"
  | Some items ->
      List.fold_left
        (fun acc item ->
          let* rs = acc in
          let* r = decode_response item in
          Ok (r :: rs))
        (Ok []) items
      |> Result.map List.rev

(* --------------------------------------------------------------- framing *)

let max_frame = 8 * 1024 * 1024

let frame payload =
  let len = String.length payload in
  if len > max_frame then invalid_arg "Protocol.frame: payload too large";
  let b = Bytes.create (4 + len) in
  Bytes.set b 0 (Char.chr ((len lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((len lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((len lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (len land 0xff));
  Bytes.blit_string payload 0 b 4 len;
  Bytes.unsafe_to_string b

type unframed = Frame of string * int | Need_more | Too_large of int

let unframe buf ~pos =
  let n = String.length buf in
  if pos + 4 > n then Need_more
  else
    let len =
      (Char.code buf.[pos] lsl 24)
      lor (Char.code buf.[pos + 1] lsl 16)
      lor (Char.code buf.[pos + 2] lsl 8)
      lor Char.code buf.[pos + 3]
    in
    if len > max_frame then Too_large len
    else if pos + 4 + len > n then Need_more
    else Frame (String.sub buf (pos + 4) len, pos + 4 + len)

exception Protocol_error of string

let rec really_read fd b off len =
  if len > 0 then
    let n =
      try Unix.read fd b off len
      with Unix.Unix_error (Unix.EINTR, _, _) -> -1
    in
    if n < 0 then really_read fd b off len (* EINTR: retry *)
    else if n = 0 then raise (Protocol_error "unexpected EOF mid-frame")
    else really_read fd b (off + n) (len - n)

let read_frame fd =
  let hdr = Bytes.create 4 in
  let first =
    try Unix.read fd hdr 0 4
    with Unix.Unix_error (Unix.EINTR, _, _) -> -1
  in
  if first < 0 then (
    (* EINTR before any byte: retry the whole header *)
    really_read fd hdr 0 4;
    ())
  else if first = 0 then raise Exit (* clean EOF, handled below *)
  else really_read fd hdr first (4 - first);
  let len =
    (Char.code (Bytes.get hdr 0) lsl 24)
    lor (Char.code (Bytes.get hdr 1) lsl 16)
    lor (Char.code (Bytes.get hdr 2) lsl 8)
    lor Char.code (Bytes.get hdr 3)
  in
  if len > max_frame then
    raise (Protocol_error (Printf.sprintf "frame of %d bytes exceeds limit" len));
  let payload = Bytes.create len in
  really_read fd payload 0 len;
  Bytes.unsafe_to_string payload

let read_frame fd = try Some (read_frame fd) with Exit -> None

(* A length-prefixed frame never starts with "GET " (that header would
   decode as a 1.2 GiB length, far over [max_frame]), so sniffing the
   first four bytes cleanly separates framed clients from a plain HTTP
   scrape (curl, Prometheus) on the same socket. *)
type first = First_frame of string | Http_get of string

let read_first fd =
  let hdr = Bytes.create 4 in
  let first =
    try Unix.read fd hdr 0 4
    with Unix.Unix_error (Unix.EINTR, _, _) -> -1
  in
  if first < 0 then really_read fd hdr 0 4
  else if first = 0 then raise Exit
  else really_read fd hdr first (4 - first);
  if Bytes.to_string hdr = "GET " then begin
    (* drain the rest of the request line and the headers; a metrics
       scrape has no business sending more than 8 KiB of them *)
    let b = Buffer.create 256 in
    let one = Bytes.create 1 in
    let stop = ref false in
    while not !stop do
      if Buffer.length b > 8192 then
        raise (Protocol_error "oversized HTTP request");
      let n =
        try Unix.read fd one 0 1
        with Unix.Unix_error (Unix.EINTR, _, _) -> -1
      in
      if n = 0 then stop := true
      else if n > 0 then begin
        Buffer.add_char b (Bytes.get one 0);
        let s = Buffer.contents b in
        let l = String.length s in
        if
          (l >= 3 && String.sub s (l - 3) 3 = "\n\r\n")
          || (l >= 2 && String.sub s (l - 2) 2 = "\n\n")
        then stop := true
      end
    done;
    let all = Buffer.contents b in
    let line =
      match String.index_opt all '\n' with
      | Some i -> String.sub all 0 i
      | None -> all
    in
    (* the sniffed header already consumed "GET ", so the path is the
       first token of what remains *)
    let path =
      match String.split_on_char ' ' (String.trim line) with
      | p :: _ when p <> "" -> p
      | _ -> "/"
    in
    Http_get path
  end
  else begin
    let len =
      (Char.code (Bytes.get hdr 0) lsl 24)
      lor (Char.code (Bytes.get hdr 1) lsl 16)
      lor (Char.code (Bytes.get hdr 2) lsl 8)
      lor Char.code (Bytes.get hdr 3)
    in
    if len > max_frame then
      raise
        (Protocol_error (Printf.sprintf "frame of %d bytes exceeds limit" len));
    let payload = Bytes.create len in
    really_read fd payload 0 len;
    First_frame (Bytes.unsafe_to_string payload)
  end

let read_first fd = try Some (read_first fd) with Exit -> None

let write_frame fd payload =
  let framed = frame payload in
  let b = Bytes.unsafe_of_string framed in
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    match Unix.write fd b !off (len - !off) with
    | n -> off := !off + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done
